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

One level-tensor engine (`_level_tensors`) yields Delta_R f for all R at
one level tuple as one array, one value per child of R; decomposition,
reconstruction, energies and the square function all read it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ResourceCapError
from .grid import (DEFAULT_RECTANGLE_CAP, DyadicRectangle, GridFunction, ProductGrid,
                   _axis_levels, _blocks, _factor_cubes, eligible_rectangle_count)

PRUNE_TOL = 1e-14


def _coarsen(values: np.ndarray, axes, size: int) -> np.ndarray:
    """Block means over each axis in `axes` in turn, shrinking each to `size` cells."""
    for axis in axes:
        shp = values.shape
        if shp[axis] > size:
            values = values.reshape(shp[:axis] + (size, shp[axis] // size) + shp[axis + 1:])
            values = values.mean(axis=axis + 1)
    return values


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
        vals = np.repeat(_coarsen(vals, [axis], 2 ** level), width, axis=axis)
    return GridFunction(grid, vals)


def _level_tensors(values: np.ndarray, grid: ProductGrid) -> list:
    """[(levels, child array)] for every Delta-eligible level tuple, canonical order.

    Factor by factor: E_k (k = 0..J_i) is the block mean of that factor's
    input at 2^k cells per axis, each taken directly from the input, and
    E_{j+1} - E_j at child resolution (2^{j+1} cells per axis) is the next
    factor's input.  The summation order per value is the one the same
    block means take on the full grid, so results do not depend on the
    resolution the other axes are held at.  Leading axes of `values` beyond
    the grid's are batch axes.
    """
    stage = [((), values)]
    for i in range(grid.d):
        axes = [values.ndim - grid.n + a for a in grid.factor_axes(i)]
        nxt = []
        for levels, vals in stage:
            means = [_coarsen(vals, axes, 2 ** k) for k in range(grid.depths[i] + 1)]
            for j in range(grid.depths[i]):
                coarse = means[j]
                for axis in axes:
                    coarse = np.repeat(coarse, 2, axis=axis)
                nxt.append((levels + (j,), means[j + 1] - coarse))
        stage = nxt
    return stage


def level_difference(f: GridFunction, levels) -> np.ndarray:
    """Delta_R f for every R at one level tuple, on the full grid (from the engine)."""
    grid = f.grid
    levels = tuple(levels)
    if len(levels) != grid.d or any(not 0 <= j < J for j, J in zip(levels, grid.depths)):
        raise GridError(f"levels {levels} are not Delta-eligible")
    return _refine(dict(_level_tensors(f.values, grid))[levels], grid, levels)


def _refine(child: np.ndarray, grid: ProductGrid, levels) -> np.ndarray:
    """Repeat each child-resolution value over its finest cells."""
    for axis, (i, j) in enumerate(_axis_levels(grid, levels)):
        child = np.repeat(child, 2 ** (grid.depths[i] - j - 1), axis=axis)
    return child


def _child_cell_volume(grid: ProductGrid, levels) -> float:
    return 2.0 ** (-sum(n * (j + 1) for n, j in zip(grid.factor_dims, levels)))


@dataclass(frozen=True, eq=False)
class HaarCoefficient:
    """Delta_R f, stored as one value per product of immediate children of R."""

    rectangle: DyadicRectangle
    block: np.ndarray = field(compare=False)

    def child_cell_volume(self, grid: ProductGrid) -> float:
        return _child_cell_volume(grid, self.rectangle.levels)

    def l2_sq(self, grid: ProductGrid):
        return (self.block * self.block).sum() * self.child_cell_volume(grid)

    def as_function(self, grid: ProductGrid) -> GridFunction:
        """Expand the block back to a full grid function (zero off R)."""
        out = np.zeros(grid.shape, dtype=self.block.dtype)
        out[self.rectangle.cell_slices(grid)] = _refine(self.block, grid, self.rectangle.levels)
        return GridFunction(grid, out)


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
    block = _coarsen(block, range(block.ndim), 2)
    # Per factor, remove the within-factor child mean: E_{level} o Delta = 0.
    axis_cursor = 0
    for i in range(grid.d):
        axes = tuple(range(axis_cursor, axis_cursor + grid.factor_dims[i]))
        block = block - block.mean(axis=axes, keepdims=True)
        axis_cursor += grid.factor_dims[i]
    return HaarCoefficient(rect, block)


def _locate(grid: ProductGrid, rect) -> tuple | None:
    """(levels, block coordinates) of a Delta-eligible rectangle of `grid`, else None."""
    if not isinstance(rect, DyadicRectangle) or len(rect.cubes) != grid.d:
        return None
    for q, n, depth in zip(rect.cubes, grid.factor_dims, grid.depths):
        if len(q.coords) != n or q.level >= depth:
            return None
    return rect.levels, tuple(c for q in rect.cubes for c in q.coords)


class _LevelView(Mapping):
    """Read-only rectangle -> value view over arrays kept per level tuple.

    kept[levels] (shape (2^j per axis...)) marks the rectangles in the view.
    Iterates in canonical order (level tuples, then coordinates); len()
    builds no rectangle; iteration and lookups build them on demand, and
    `_value(rect, levels, coords)` gives a rectangle's value.
    """

    def __init__(self, grid: ProductGrid, kept: dict):
        self._grid = grid
        self._kept = kept

    def __len__(self):
        return sum(int(k.sum()) for k in self._kept.values())

    def __iter__(self):
        for levels, keep in self._kept.items():
            cubes = [_factor_cubes(self._grid, i, (j,)) for i, j in enumerate(levels)]
            combos = itertools.compress(itertools.product(*cubes), keep.ravel().tolist())
            yield from map(DyadicRectangle, combos)

    def __getitem__(self, rect):
        where = _locate(self._grid, rect)
        if where is None or not self._kept[where[0]][where[1]]:
            raise KeyError(rect)
        return self._value(rect, *where)


class _PureView(_LevelView):
    """The kept coefficients as HaarCoefficients; each `.block` is a writable
    view into the decomposition's arrays."""

    def __init__(self, dec: "Decomposition"):
        super().__init__(dec.grid, dec.kept)
        self._coefficients = dec.coefficients

    def _value(self, rect, levels, coords):
        return HaarCoefficient(rect, self._coefficients[levels][coords])


@dataclass(eq=False)
class Decomposition:
    """Pure per-rectangle coefficients plus finite-depth hybrid components.

    coefficients[levels] holds Delta_R f for every R at those levels,
    blocks first: shape (2^j per axis..., 2 per axis...), so
    `coefficients[levels][coords]` is R's contiguous block.  kept[levels]
    (shape (2^j per axis...)) marks the coefficients; the others are zero.
    """

    grid: ProductGrid
    coefficients: dict
    kept: dict
    hybrid: dict  # frozenset of refined factors (proper subsets) -> GridFunction

    @property
    def pure(self) -> Mapping:
        return _PureView(self)

    def pure_energy(self):
        """Sum of ||Delta_R f||_2^2, added one block at a time in canonical order."""
        n = self.grid.n
        return np.cumsum(np.concatenate([
            (b * b).sum(axis=tuple(range(n, 2 * n))).ravel() * _child_cell_volume(self.grid, levels)
            for levels, b in self.coefficients.items()
        ]))[-1]

    def hybrid_energy(self):
        return sum(h.l2_sq() for h in self.hybrid.values())


def _hybrids(values: np.ndarray, grid: ProductGrid) -> dict:
    """Per factor E_0 or I - E_0, keyed by the refined factors (all but the full set)."""
    stage = [(frozenset(), values)]
    for i in range(grid.d):
        axes = grid.factor_axes(i)
        nxt = []
        for refined, vals in stage:
            mean = _coarsen(vals, axes, 1)
            nxt += [(refined, mean), (refined | {i}, vals - mean)]
        stage = nxt
    parts = dict(stage[:-1])
    return {
        t: GridFunction(grid, np.broadcast_to(parts[t], grid.shape).copy())
        for t in sorted(parts, key=lambda t: (len(t), sorted(t)))
    }


def decompose(
    f: GridFunction,
    prune_tol: float = PRUNE_TOL,
    max_rectangles: int = DEFAULT_RECTANGLE_CAP,
) -> Decomposition:
    """Full orthogonal decomposition of f: pure Delta_R part and hybrids.

    Blocks with max |value| <= prune_tol are not kept (object dtype: all kept).
    """
    grid = f.grid
    if eligible_rectangle_count(grid) > max_rectangles:
        raise ResourceCapError(
            f"decomposition needs {eligible_rectangle_count(grid)} rectangles "
            f"(cap {max_rectangles})"
        )
    coefficients, kept = {}, {}
    for levels, child in _level_tensors(f.values, grid):
        blocks = coefficients[levels] = _blocks(child, [s // 2 for s in child.shape]).copy()
        if blocks.dtype == object:
            keep = np.ones(blocks.shape[:grid.n], dtype=bool)
        else:
            keep = ~(np.abs(blocks).max(axis=tuple(range(grid.n, 2 * grid.n))) <= prune_tol)
            blocks[~keep] = 0.0
        kept[levels] = keep
    return Decomposition(grid, coefficients, kept, _hybrids(f.values, grid))


def reconstruct(dec: Decomposition) -> GridFunction:
    """Sum of all components; inverse of decompose."""
    grid = dec.grid
    arrays = list(dec.coefficients.values()) + [h.values for h in dec.hybrid.values()]
    out = np.zeros(grid.shape, dtype=object if any(a.dtype == object for a in arrays) else np.float64)
    for h in dec.hybrid.values():
        if h.grid != grid:
            raise GridError("hybrid component grid mismatch")
        out += h.values
    order = [k for a in range(grid.n) for k in (a, grid.n + a)]
    for levels, blocks in dec.coefficients.items():
        if dec.kept[levels].any():
            child = blocks.transpose(order).reshape([2 * s for s in blocks.shape[:grid.n]])
            out += _refine(child, grid, levels)
    return GridFunction(grid, out)


def decomposition_to_dict(dec: Decomposition) -> dict:
    grid = dec.grid
    pure = {}
    for levels, blocks in dec.coefficients.items():
        kept = dec.kept[levels]
        keys = itertools.product(
            *([q.key() for q in _factor_cubes(grid, i, (j,))] for i, j in enumerate(levels))
        )
        rows = blocks[kept].reshape(-1, 2 ** grid.n).astype(np.float64).tolist()
        pure.update(zip(map("|".join, itertools.compress(keys, kept.ravel().tolist())), rows))
    return {
        "grid": grid.to_dict(),
        "pure": pure,
        "hybrid": {
            ",".join(map(str, sorted(t))): [float(v) for v in h.values.ravel()]
            for t, h in dec.hybrid.items()
        },
    }


def decomposition_from_dict(data: dict) -> Decomposition:
    grid = ProductGrid.from_dict(data["grid"])
    coefficients, kept = {}, {}
    for levels in itertools.product(*(range(j) for j in grid.depths)):
        shape = tuple(2 ** j for _, j in _axis_levels(grid, levels))
        coefficients[levels] = np.zeros(shape + (2,) * grid.n)
        kept[levels] = np.zeros(shape, dtype=bool)
    for key, flat in data["pure"].items():
        where = _locate(grid, DyadicRectangle.from_key(key))
        if where is None:
            raise GridError(f"rectangle {key} is not Delta-eligible on this grid")
        coefficients[where[0]][where[1]] = np.asarray(flat, dtype=np.float64).reshape((2,) * grid.n)
        kept[where[0]][where[1]] = True
    hybrid = {}
    for key, flat in data["hybrid"].items():
        t = frozenset(int(s) for s in key.split(",")) if key else frozenset()
        hybrid[t] = GridFunction(grid, np.asarray(flat, dtype=np.float64))
    return Decomposition(grid, coefficients, kept, hybrid)
