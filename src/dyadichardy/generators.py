"""Built-in test-data generators: functions, masks, and demo sequences.

Everything is deterministic for a fixed seed.  Smooth bumps satisfy the
sup bound and the per-factor discrete gradient bound with margin; spike
sequences carry exact unit mass on supports of measure 2^{-n}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridError
from .grid import DyadicCube, DyadicRectangle, GridFunction, OpenSetMask, ProductGrid
from .norms import h1_norm
from .windows import factor_gradient_l1max


def constant(grid: ProductGrid, value: float = 1.0) -> GridFunction:
    return GridFunction.constant(grid, value)


def coarsest_rectangle(grid: ProductGrid) -> DyadicRectangle:
    return DyadicRectangle(tuple(
        DyadicCube(i, 0, (0,) * grid.factor_dims[i]) for i in range(grid.d)
    ))


def haar_atom(
    grid: ProductGrid,
    rect: DyadicRectangle | None = None,
    normalize: str | None = "h1",
) -> GridFunction:
    """The product Haar pattern on a rectangle: +/-1 per child combination.

    normalize: "h1" (||Sf||_1 = 1), "l2", "sup", or None.
    """
    if rect is None:
        rect = coarsest_rectangle(grid)
    vals = np.zeros(grid.shape)
    sub_shape = tuple(sl.stop - sl.start for sl in rect.cell_slices(grid))
    pattern = np.ones(sub_shape)
    for axis, width in enumerate(sub_shape):
        signs = np.where(np.arange(width) < width // 2, 1.0, -1.0)
        shape = [1] * len(sub_shape)
        shape[axis] = width
        pattern = pattern * signs.reshape(shape)
    vals[rect.cell_slices(grid)] = pattern
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


def _cell_centers(grid: ProductGrid) -> list:
    out = []
    for i in range(grid.d):
        side = grid.axis_side(i)
        for _ in range(grid.factor_dims[i]):
            out.append((np.arange(side) + 0.5) / side)
    return out


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
    centers = _cell_centers(grid)
    vals = np.ones(grid.shape)
    for axis, xs in enumerate(centers):
        t = (xs - center) / (width / 2.0)
        profile = np.where(np.abs(t) < 1.0, np.cos(np.pi * t / 2.0) ** 2, 0.0)
        shape = [1] * len(grid.shape)
        shape[axis] = len(xs)
        vals = vals * profile.reshape(shape)
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
    n: int,
    oscillation_growth: float = 2.5,
    oscillation_scale: float = 1.0,
) -> GridFunction:
    """Member n of the unit-mass spike family on a support of measure 2^{-n}.

    The support is a dyadic block shrinking to the point (1/2, ..., 1/2).
    A mean-zero finest-scale checkerboard inside the support (amplitude
    growing geometrically) keeps the mass exactly 1 while driving the H^1
    norm up; oscillation_scale=0 gives the plain indicator spike.
    """
    if n < 0:
        raise GridError("sequence index must be >= 0")
    halvings = _spike_axis_halvings(grid, n)
    vals = np.zeros(grid.shape)
    starts, sizes = [], []
    for a, (length, h) in enumerate(zip(grid.shape, halvings)):
        size = length >> h
        start = length // 2 if h >= 1 else 0
        starts.append(start)
        sizes.append(size)
    support = tuple(slice(s, s + z) for s, z in zip(starts, sizes))
    vals[support] = 2.0 ** n
    if oscillation_scale > 0.0:
        block = tuple(slice(s, s + 2) for s in starts)
        pattern = np.ones((2,) * len(grid.shape))
        for axis in range(len(grid.shape)):
            shape = [1] * len(grid.shape)
            shape[axis] = 2
            pattern = pattern * np.array([1.0, -1.0]).reshape(shape)
        amplitude = (
            oscillation_scale
            * oscillation_growth ** n
            / (2 ** len(grid.shape) * grid.cell_volume)
        )
        vals[block] += amplitude * pattern
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


def h1_bounded_sequence(grid: ProductGrid, n: int) -> tuple:
    """(f_n, f): f is a fixed bump with ||f||_{H^1} = 1/2 and f_n adds a
    shrinking Haar bump of H^1 norm 1/2, so ||f_n||_{H^1} <= 1 for all n
    and f_n -> f off a set of vanishing measure."""
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


def cell_mask(grid: ProductGrid, indices) -> OpenSetMask:
    return OpenSetMask.from_cell_indices(grid, indices)


def generate(kind: str, grid: ProductGrid, params: dict | None = None, seed: int = 0):
    """Dispatch by generator kind; returns a GridFunction or OpenSetMask.
    An unknown kind or a parameter of the wrong type raises GridError."""
    try:
        return _generate(kind, grid, dict(params or {}), seed)
    except TypeError as exc:
        raise GridError(f"generator {kind!r}: {exc}") from None


def _generate(kind: str, grid: ProductGrid, params: dict, seed: int):
    if kind == "constant":
        return constant(grid, params.get("value", 1.0))
    if kind == "haar-atom":
        rect = None
        if "rectangle" in params:
            rect = DyadicRectangle.from_key(params["rectangle"])
        return haar_atom(grid, rect, params.get("normalize", "h1"))
    if kind == "random-uniform":
        return random_uniform(
            grid, seed,
            params.get("low", -1.0), params.get("high", 1.0),
            params.get("dyadic_bits"),
        )
    if kind == "smooth-bump":
        return smooth_bump(
            grid,
            params.get("center", 0.5),
            params.get("width", 0.8),
            params.get("margin", 0.9),
            params.get("gradient_bound", True),
        )
    if kind == "spike-sequence":
        return spike_sequence(
            grid, int(params.get("n", 0)),
            params.get("oscillation_growth", 2.5),
            params.get("oscillation_scale", 1.0),
        )
    if kind == "h1-bounded-sequence":
        return h1_bounded_sequence(grid, int(params.get("n", 0)))[0]
    if kind == "random-mask":
        return random_mask(grid, seed, params.get("density", 0.5))
    if kind == "cell-mask":
        return cell_mask(grid, params.get("cells", [0]))
    raise GridError(f"unknown generator kind {kind!r}")
