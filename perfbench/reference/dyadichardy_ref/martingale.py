"""Expectation and difference operators, the tensor decomposition, Plancherel.

Level indexing runs from j=0 (coarsest: the whole factor) to j=J_i
(finest cells).  The difference operator for a cube Q at level j is
(E_{j+1} - E_j) restricted to Q; per-factor differences tensor into the
multiparameter operator indexed by a dyadic rectangle.

On the unit cube the per-factor identity is I = E_0 + sum_j Delta_j, so
the d-fold product produces, besides the pure per-rectangle part, one
"hybrid" component for each proper subset of refined factors (including
the empty set: the grand average).  Those boundary components are stored
explicitly so the decomposition reconstructs arbitrary data, not just
mean-zero data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ResourceCapError
from .grid import (
    DEFAULT_RECTANGLE_CAP,
    DyadicCube,
    DyadicRectangle,
    GridFunction,
    ProductGrid,
    eligible_rectangle_count,
)

PRUNE_TOL = 1e-14


def _block_average(values: np.ndarray, axis: int, width: int) -> np.ndarray:
    """Average over contiguous blocks of `width` along `axis`, broadcast back."""
    if width == 1:
        return values
    shp = values.shape
    nb = shp[axis] // width
    v = values.reshape(shp[:axis] + (nb, width) + shp[axis + 1:])
    m = v.mean(axis=axis + 1)
    return np.repeat(m, width, axis=axis)


def _coarsen_mean(values: np.ndarray, axis: int, newsize: int) -> np.ndarray:
    """Average over blocks along `axis`, shrinking the axis to `newsize`."""
    shp = values.shape
    width = shp[axis] // newsize
    if width == 1:
        return values
    v = values.reshape(shp[:axis] + (newsize, width) + shp[axis + 1:])
    return v.mean(axis=axis + 1)


def expectation(f: GridFunction, i: int, level: int) -> GridFunction:
    """Average f over level-`level` cubes of factor i; other factors untouched."""
    grid = f.grid
    if not 0 <= i < grid.d:
        raise GridError(f"factor index {i} out of range")
    if not 0 <= level <= grid.depths[i]:
        raise GridError(f"level {level} out of range 0..{grid.depths[i]}")
    width = 2 ** (grid.depths[i] - level)
    vals = f.values
    for axis in grid.factor_axes(i):
        vals = _block_average(vals, axis, width)
    return GridFunction(grid, vals)


def _apply_factor_delta(values: np.ndarray, grid: ProductGrid, i: int, level: int) -> np.ndarray:
    """(E_{level+1} - E_{level}) over factor i, on a raw value array."""
    w_fine = 2 ** (grid.depths[i] - level - 1)
    w_coarse = 2 ** (grid.depths[i] - level)
    fine = values
    coarse = values
    for axis in grid.factor_axes(i):
        fine = _block_average(fine, axis, w_fine)
        coarse = _block_average(coarse, axis, w_coarse)
    return fine - coarse


def level_difference(f: GridFunction, levels) -> np.ndarray:
    """The array of ((E_{j_i+1}-E_{j_i}) tensored over factors) applied to f.

    At a fixed level combination the rectangles tile the domain, so this
    single array carries Delta_R f for every R at those levels.
    """
    grid = f.grid
    levels = tuple(levels)
    if len(levels) != grid.d:
        raise GridError("one level per factor required")
    vals = f.values
    for i, j in enumerate(levels):
        if not 0 <= j <= grid.depths[i] - 1:
            raise GridError(f"level {j} not Delta-eligible for factor {i}")
        vals = _apply_factor_delta(vals, grid, i, j)
    return vals


@dataclass(frozen=True, eq=False)
class HaarCoefficient:
    """Delta_R f, stored as one value per product of immediate children of R."""

    rectangle: DyadicRectangle
    block: np.ndarray = field(compare=False)

    def child_cell_volume(self, grid: ProductGrid) -> float:
        return 2.0 ** (
            -sum(n * (j + 1) for n, j in zip(grid.factor_dims, self.rectangle.levels))
        )

    def l2_sq(self, grid: ProductGrid):
        return (self.block * self.block).sum() * self.child_cell_volume(grid)

    def as_function(self, grid: ProductGrid) -> GridFunction:
        """Expand the block back to a full grid function (zero off R)."""
        out = np.zeros(grid.shape, dtype=self.block.dtype)
        sub = self.block
        for axis, (i, j) in enumerate(_axis_levels(grid, self.rectangle.levels)):
            width = 2 ** (grid.depths[i] - j - 1)
            sub = np.repeat(sub, width, axis=axis)
        out[self.rectangle.cell_slices(grid)] = sub
        return GridFunction(grid, out)


def _axis_levels(grid: ProductGrid, levels) -> list:
    """(factor, level) per value-array axis."""
    out = []
    for i, j in enumerate(levels):
        out.extend([(i, j)] * grid.factor_dims[i])
    return out


def delta_R(f: GridFunction, rect: DyadicRectangle) -> HaarCoefficient:
    """The multiparameter difference of f at rectangle R."""
    grid = f.grid
    if len(rect.cubes) != grid.d:
        raise GridError("rectangle factor count does not match grid")
    for i, q in enumerate(rect.cubes):
        if q.level > grid.depths[i] - 1:
            raise GridError("rectangle has a finest-level cube; Delta is undefined")
    block = f.values[rect.cell_slices(grid)]
    # Average down to the immediate children (2 per axis).
    for axis in range(block.ndim):
        block = _coarsen_mean(block, axis, 2)
    # Per factor, remove the within-factor child mean: E_{level} o Delta = 0.
    axis_cursor = 0
    for i in range(grid.d):
        axes = tuple(range(axis_cursor, axis_cursor + grid.factor_dims[i]))
        block = block - block.mean(axis=axes, keepdims=True)
        axis_cursor += grid.factor_dims[i]
    return HaarCoefficient(rect, block)


@dataclass
class Decomposition:
    """Pure per-rectangle coefficients plus finite-depth hybrid components."""

    grid: ProductGrid
    pure: dict
    hybrid: dict  # frozenset of refined factors (proper subsets) -> GridFunction

    def pure_energy(self):
        return sum(c.l2_sq(self.grid) for c in self.pure.values())

    def hybrid_energy(self):
        return sum(h.l2_sq() for h in self.hybrid.values())


def decompose(
    f: GridFunction,
    prune_tol: float = PRUNE_TOL,
    max_rectangles: int = DEFAULT_RECTANGLE_CAP,
) -> Decomposition:
    """Full orthogonal decomposition of f: pure Delta_R part and hybrids."""
    grid = f.grid
    if eligible_rectangle_count(grid) > max_rectangles:
        raise ResourceCapError(
            f"decomposition needs {eligible_rectangle_count(grid)} rectangles "
            f"(cap {max_rectangles})"
        )
    hybrid = {}
    for r in range(grid.d):
        for refined in itertools.combinations(range(grid.d), r):
            refined = frozenset(refined)
            vals = f.values
            for i in range(grid.d):
                width = 2 ** grid.depths[i]
                avg = vals
                for axis in grid.factor_axes(i):
                    avg = _block_average(avg, axis, width)
                vals = (vals - avg) if i in refined else avg
            hybrid[refined] = GridFunction(grid, vals)

    pure = {}
    for levels in itertools.product(*(range(j) for j in grid.depths)):
        dvals = f.values
        for i, j in enumerate(levels):
            dvals = _apply_factor_delta(dvals, grid, i, j)
        # dvals is constant on child cells; sample one value per child.
        strides = tuple(
            slice(None, None, 2 ** (grid.depths[i] - j - 1))
            for i, j in _axis_levels(grid, levels)
        )
        child = dvals[strides]
        per_axis = [range(2 ** j) for i, j in _axis_levels(grid, levels)]
        for coords in itertools.product(*per_axis):
            block = child[tuple(slice(2 * c, 2 * c + 2) for c in coords)]
            if block.dtype != object and np.abs(block).max() <= prune_tol:
                continue
            cubes = []
            cursor = 0
            for i in range(grid.d):
                n_i = grid.factor_dims[i]
                cubes.append(DyadicCube(i, levels[i], coords[cursor:cursor + n_i]))
                cursor += n_i
            rect = DyadicRectangle(tuple(cubes))
            pure[rect] = HaarCoefficient(rect, np.array(block, copy=True))
    return Decomposition(grid, pure, hybrid)


def reconstruct(dec: Decomposition) -> GridFunction:
    """Sum of all components; inverse of decompose."""
    grid = dec.grid
    sample = next(iter(dec.pure.values()), None)
    dtype = object if (
        (sample is not None and sample.block.dtype == object)
        or any(h.values.dtype == object for h in dec.hybrid.values())
    ) else np.float64
    out = np.zeros(grid.shape, dtype=dtype)
    for h in dec.hybrid.values():
        if h.grid != grid:
            raise GridError("hybrid component grid mismatch")
        out = out + h.values

    by_levels = {}
    for rect, coef in dec.pure.items():
        by_levels.setdefault(rect.levels, []).append(coef)
    for levels, coefs in by_levels.items():
        child_shape = tuple(2 ** (j + 1) for i, j in _axis_levels(grid, levels))
        z = np.zeros(child_shape, dtype=dtype)
        for coef in coefs:
            coords = []
            for q in coef.rectangle.cubes:
                coords.extend(q.coords)
            z[tuple(slice(2 * c, 2 * c + 2) for c in coords)] = coef.block
        for axis, (i, j) in enumerate(_axis_levels(grid, levels)):
            width = 2 ** (grid.depths[i] - j - 1)
            if width > 1:
                z = np.repeat(z, width, axis=axis)
        out = out + z
    return GridFunction(grid, out)


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "grid": dec.grid.to_dict(),
        "pure": {
            rect.key(): [float(v) for v in coef.block.ravel()]
            for rect, coef in dec.pure.items()
        },
        "hybrid": {
            ",".join(map(str, sorted(t))): [float(v) for v in h.values.ravel()]
            for t, h in dec.hybrid.items()
        },
    }


def decomposition_from_dict(data: dict) -> Decomposition:
    grid = ProductGrid.from_dict(data["grid"])
    pure = {}
    for key, flat in data["pure"].items():
        rect = DyadicRectangle.from_key(key)
        shape = (2,) * grid.n
        pure[rect] = HaarCoefficient(rect, np.asarray(flat, dtype=np.float64).reshape(shape))
    hybrid = {}
    for key, flat in data["hybrid"].items():
        t = frozenset(int(s) for s in key.split(",")) if key else frozenset()
        hybrid[t] = GridFunction(grid, np.asarray(flat, dtype=np.float64))
    return Decomposition(grid, pure, hybrid)
