"""Built-in test-data generators: functions, masks, and demo sequences.

Everything is deterministic for a fixed seed.  Smooth bumps satisfy the
sup bound and the per-factor discrete gradient bound with margin; spike
sequences carry exact unit mass on supports of measure 2^{-n}.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator

import numpy as np

from .errors import GridError
from .grid import (DyadicCube, DyadicRectangle, GridFunction, OpenSetMask, ProductGrid,
                   _table_index)
from .norms import h1_norm
from .windows import factor_gradient_l1max


def constant(grid: ProductGrid, value: float = 1.0) -> GridFunction:
    return GridFunction.constant(grid, value)


def coarsest_rectangle(grid: ProductGrid) -> DyadicRectangle:
    return DyadicRectangle(tuple(
        DyadicCube(i, 0, (0,) * grid.factor_dims[i]) for i in range(grid.d)
    ))


def _child_signs(shape: tuple) -> np.ndarray:
    """+1 on the first half of each axis and -1 on the second, multiplied over
    the axes: the sign of each child combination of a block of `shape`."""
    return functools.reduce(np.multiply.outer, (
        np.where(np.arange(width) < width // 2, 1.0, -1.0) for width in shape), np.ones(()))


def haar_atom(
    grid: ProductGrid,
    rect: DyadicRectangle | None = None,
    normalize: str | None = "h1",
) -> GridFunction:
    """The product Haar pattern on a rectangle: +/-1 per child combination.

    normalize: "h1" (||Sf||_1 = 1), "l2", "sup", or None.  A rectangle that
    is not Delta-eligible on `grid` raises GridError.
    """
    if rect is None:
        rect = coarsest_rectangle(grid)
    _table_index(grid, rect)
    vals = np.zeros(grid.shape)
    block = rect.cell_slices(grid)
    vals[block] = _child_signs(tuple(sl.stop - sl.start for sl in block))
    f = GridFunction(grid, vals)
    if normalize == "h1":
        scale = h1_norm(f)
    elif normalize == "l2":
        scale = math.sqrt(float(f.l2_sq()))
    elif normalize == "sup":
        scale = f.linf()
    elif normalize is None:
        scale = 1.0
    else:
        raise GridError(f"unknown normalization {normalize!r}")
    return GridFunction(grid, vals / scale)


def random_uniform(
    grid: ProductGrid,
    seed: int = 0,
    low: float = -1.0,
    high: float = 1.0,
    dyadic_bits: int | None = None,
) -> GridFunction:
    """Uniform random values; `dyadic_bits` quantizes to multiples of 2^-bits.

    Quantized values make every window sum exactly representable, so
    differently-ordered summation algorithms agree bit for bit.
    """
    rng = np.random.default_rng(seed)
    vals = rng.uniform(low, high, size=grid.shape)
    if dyadic_bits is not None:
        vals = np.round(vals * 2.0 ** dyadic_bits) / 2.0 ** dyadic_bits
    return GridFunction(grid, vals)


def smooth_bump(
    grid: ProductGrid,
    center: float = 0.5,
    width: float = 0.8,
    margin: float = 0.9,
    gradient_bound: bool = True,
) -> GridFunction:
    """A C^1 cos^2 bump sampled on cell centers.

    With gradient_bound=True the output is rescaled so every per-factor
    discrete gradient l1 norm is at most `margin` (and the sup at most 1);
    otherwise only the sup is normalized to 1.
    """
    profiles = []  # one per axis, sampled on the cell centers
    for i, side in enumerate(map(grid.axis_side, range(grid.d))):
        t = ((np.arange(side) + 0.5) / side - center) / (width / 2.0)
        profile = np.where(np.abs(t) < 1.0, np.cos(np.pi * t / 2.0) ** 2, 0.0)
        profiles += [profile] * grid.factor_dims[i]
    vals = functools.reduce(np.multiply.outer, profiles, np.ones(()))
    f = GridFunction(grid, vals)
    sup = f.linf()
    if sup == 0.0:
        raise GridError("bump support misses every cell; widen it")
    scale = 1.0 / sup
    if gradient_bound:
        grad = max(factor_gradient_l1max(f, i) for i in range(grid.d))
        if grad > 0:
            scale = min(scale, margin / grad)
    return GridFunction(grid, vals * scale)


def _spike_axis_halvings(grid: ProductGrid, n: int) -> list:
    """Distribute n support halvings cyclically over axes (capped at J-1 each)."""
    axes = len(grid.shape)
    caps = [grid.depths[i] - 1 for i in range(grid.d) for _ in range(grid.factor_dims[i])]
    halvings = [0] * axes
    remaining = n
    while remaining > 0:
        progressed = False
        for a in range(axes):
            if remaining == 0:
                break
            if halvings[a] < caps[a]:
                halvings[a] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise GridError(f"spike support cannot shrink {n} times on this grid")
    return halvings


def spike_sequence(
    grid: ProductGrid,
    n: int = 0,
    oscillation_growth: float = 2.5,
    oscillation_scale: float = 1.0,
) -> GridFunction:
    """Member n of the unit-mass spike family on a support of measure 2^{-n}.

    The support is a dyadic block shrinking to the point (1/2, ..., 1/2).
    A mean-zero finest-scale checkerboard inside the support (amplitude
    growing geometrically) keeps the mass exactly 1 while driving the H^1
    norm up; oscillation_scale=0 gives the plain indicator spike.
    """
    n = operator.index(n)
    if n < 0:
        raise GridError("sequence index must be >= 0")
    halvings = _spike_axis_halvings(grid, n)
    vals = np.zeros(grid.shape)
    starts = [length // 2 if h >= 1 else 0 for length, h in zip(grid.shape, halvings)]
    sizes = [length >> h for length, h in zip(grid.shape, halvings)]
    vals[tuple(slice(s, s + z) for s, z in zip(starts, sizes))] = 2.0 ** n
    if oscillation_scale > 0.0:
        block = tuple(slice(s, s + 2) for s in starts)
        amplitude = (
            oscillation_scale
            * oscillation_growth ** n
            / (2 ** len(grid.shape) * grid.cell_volume)
        )
        vals[block] += amplitude * _child_signs((2,) * len(grid.shape))
    return GridFunction(grid, vals)


def spike_point_cell(grid: ProductGrid) -> tuple:
    """Cell coordinates of the point the spike supports shrink to."""
    return tuple(length // 2 for length in grid.shape)


def _nested_rectangle(grid: ProductGrid, n: int) -> DyadicRectangle:
    """Member n of a nested eligible-rectangle chain shrinking to (1/2,...,1/2)."""
    cubes = []
    for i in range(grid.d):
        level = min(n, grid.depths[i] - 1)
        coord = 2 ** (level - 1) if level >= 1 else 0
        cubes.append(DyadicCube(i, level, (coord,) * grid.factor_dims[i]))
    return DyadicRectangle(tuple(cubes))


def h1_bounded_sequence(grid: ProductGrid, n: int = 0) -> tuple:
    """(f_n, f): f is a fixed bump with ||f||_{H^1} = 1/2 and f_n adds a
    shrinking Haar bump of H^1 norm 1/2, so ||f_n||_{H^1} <= 1 for all n
    and f_n -> f off a set of vanishing measure."""
    n = operator.index(n)
    base = smooth_bump(grid, gradient_bound=False)
    h1_base = h1_norm(base)
    if h1_base == 0:
        raise GridError("bump collapsed to a constant; refine the grid")
    f = GridFunction(grid, base.values * (0.5 / h1_base))
    bump = haar_atom(grid, _nested_rectangle(grid, n), normalize="h1")
    f_n = f + GridFunction(grid, bump.values * 0.5)
    return f_n, f


def random_mask(grid: ProductGrid, seed: int = 0, density: float = 0.5) -> OpenSetMask:
    rng = np.random.default_rng(seed)
    cells = rng.random(grid.shape) < density
    if not cells.any():
        cells.ravel()[int(rng.integers(grid.cell_count))] = True
    return OpenSetMask(grid, cells)


def cell_mask(grid: ProductGrid, cells=(0,)) -> OpenSetMask:
    return OpenSetMask.from_cell_indices(grid, cells)


def _haar_atom_kind(grid: ProductGrid, rectangle: str | None = None, **options) -> GridFunction:
    """haar-atom: `rectangle` is a rectangle key such as "0:1:(0)|1:0:(0)"."""
    if rectangle is not None:
        if not isinstance(rectangle, str):
            raise TypeError(f"rectangle {rectangle!r} is not a rectangle key")
        rectangle = DyadicRectangle.from_key(rectangle)
    return haar_atom(grid, rectangle, **options)


def _h1_bounded_kind(grid: ProductGrid, **options) -> GridFunction:
    """h1-bounded-sequence: the member f_n alone."""
    return h1_bounded_sequence(grid, **options)[0]


# Generator kind -> its function; `generate` binds a kind's parameters to
# that function's own signature, so its defaults are the only ones.
_KINDS = {
    "constant": constant,
    "haar-atom": _haar_atom_kind,
    "random-uniform": random_uniform,
    "smooth-bump": smooth_bump,
    "spike-sequence": spike_sequence,
    "h1-bounded-sequence": _h1_bounded_kind,
    "random-mask": random_mask,
    "cell-mask": cell_mask,
}


def generate(kind: str, grid: ProductGrid, params: dict | None = None, seed: int = 0):
    """Dispatch by generator kind; returns a GridFunction or OpenSetMask.

    `params` are the keyword arguments of the kind's function, and `seed`
    goes to a kind whose function takes one.  An unknown kind or key, a
    `seed` key in `params`, a parameter of the wrong type, or a non-finite
    parameter or generated value raises GridError."""
    if kind not in _KINDS:
        raise GridError(f"unknown generator kind {kind!r}")
    params = dict(params or {})
    if "seed" in params:
        raise GridError(f"generator {kind!r}: the seed is not a parameter; pass it as the "
                        "seed (--seed, or the input's `seed`)")
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise GridError(f"generator {kind!r}: parameter {key} is {value}; it must be finite")
    # Looked up by name at call time, as a direct call is: a rebound name sees it.
    function = globals()[_KINDS[kind].__name__]
    if "seed" in inspect.signature(function).parameters:
        params["seed"] = seed
    try:
        out = function(grid, **params)
        finite = not isinstance(out, GridFunction) or np.isfinite(
            np.asarray(out.values, float)).all()
    except (TypeError, OverflowError) as exc:
        raise GridError(f"generator {kind!r}: {exc}") from None
    if not finite:
        raise GridError(f"generator {kind!r}: the parameters give a non-finite value")
    return out
