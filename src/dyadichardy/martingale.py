"""Difference operators, the tensor decomposition, Plancherel.

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

One Haar engine (`_haar_table`) yields Delta_R f for every R as one child
table, per factor an axis over the cubes at levels 1..J_i.  It goes one
factor at a time, the level tuples of the factors done stacked into one
row axis, so each (factor, level) is one block mean for all of them.  Rows
stay in front of every reduced axis, and numpy sums an axis the same way
whatever the axes in front of it (in sequence, or pairwise if it is the
contiguous one), so each value keeps the per-tuple summation order.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ResourceCapError
from .grid import (DEFAULT_RECTANGLE_CAP, DyadicRectangle, GridFunction, ProductGrid,
                   _axis_levels, _blocks, _cube_start, _factor_cubes, _factor_levels, _measure,
                   _table_index, _table_views, eligible_rectangle_count)

PRUNE_TOL = 1e-14


def _coarsen(values: np.ndarray, axes, size: int) -> np.ndarray:
    """Block means over each axis in `axes` in turn, shrinking each to `size` cells
    (the sum and division `.mean` does, without its Python overhead)."""
    for axis in axes:
        shp = values.shape
        if shp[axis] > size:
            width = shp[axis] // size
            values = np.add.reduce(values.reshape(shp[:axis] + (size, width) + shp[axis + 1:]), axis + 1)
            values /= width
    return values


def _haar_table(values: np.ndarray, grid: ProductGrid) -> np.ndarray:
    """Delta_R f for every Delta-eligible R as a child table: batch axes of
    `values`, then per factor its cubes at levels 1..J_i, level-major, where
    (Q_1, ..., Q_d) holds Delta_R f on that cell, R the Q_i's parents."""
    lead = values.shape[:values.ndim - grid.n]
    stage = values.reshape((-1,) + grid.shape)
    for n, depth in zip(grid.factor_dims, grid.depths):
        axes, rest = range(1, 1 + n), stage.shape[1 + n:]
        coarse = _coarsen(stage, axes, 1)
        out = np.empty((len(stage), _cube_start(n, depth + 1) - 1) + rest, coarse.dtype)
        for j, cut in enumerate(_factor_levels(n, depth, 1)[0]):
            fine = _coarsen(stage, axes, 2 ** (j + 1))  # E_{j+1}, taken from the stage itself
            for axis in axes:
                coarse = coarse.repeat(2, axis=axis)
            np.subtract(fine, coarse, out=out[:, cut].reshape(fine.shape))
            coarse = fine
        stage = coarse = fine = out.reshape((-1,) + rest)  # the old stage is freed here
    return stage.reshape(lead + tuple(_cube_start(n, depth + 1) - 1
                                      for n, depth in zip(grid.factor_dims, grid.depths)))


def level_difference(f: GridFunction, levels) -> np.ndarray:
    """Delta_R f for every R at one level tuple, on the full grid (from the engine)."""
    grid = f.grid
    levels = tuple(levels)
    if len(levels) != grid.d or any(not 0 <= j < J for j, J in zip(levels, grid.depths)):
        raise GridError(f"levels {levels} are not Delta-eligible")
    return _refine(dict(_table_views(_haar_table(f.values, grid), grid, 1))[levels], grid, levels)


def _refine(child: np.ndarray, grid: ProductGrid, levels) -> np.ndarray:
    """Repeat each child-resolution value over its finest cells."""
    for axis, (i, j) in enumerate(_axis_levels(grid, levels)):
        child = np.repeat(child, 2 ** (grid.depths[i] - j - 1), axis=axis)
    return child


def _add_refined(out: np.ndarray, child: np.ndarray) -> None:
    """out += child with each value repeated over its finest cells, in place
    and value for value: the last axis repeated, the others broadcast."""
    child = child.repeat(out.shape[-1] // child.shape[-1], axis=-1)
    split = [m for side, full in zip(child.shape[:-1], out.shape) for m in (side, full // side)]
    view = out.reshape(split + [out.shape[-1]])
    np.add(view, child[(slice(None), None) * (child.ndim - 1)], out=view)


@dataclass(frozen=True, eq=False)
class HaarCoefficient:
    """Delta_R f, stored as one value per product of immediate children of R."""

    rectangle: DyadicRectangle
    block: np.ndarray = field(compare=False)

    def child_cell_volume(self, grid: ProductGrid) -> float:
        return _measure(grid, self.rectangle.levels, 1)

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
    try:
        _table_index(grid, rect)
    except GridError:
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
        """Sum of ||Delta_R f||_2^2, added one rectangle at a time in canonical
        order; the squares are held one first-factor level at a time."""
        grid = self.grid
        sums = []
        for _, group in itertools.groupby(self.coefficients.items(), key=lambda item: item[0][0]):
            squares = np.concatenate([b for _, b in group], axis=None).reshape(-1, 2 ** grid.n)
            sums.append(np.multiply(squares, squares, out=squares).sum(axis=1))
        volumes = np.repeat([_measure(grid, lv, 1) for lv in self.coefficients],
                            [b.size >> grid.n for b in self.coefficients.values()])
        return np.cumsum(np.concatenate(sums) * volumes)[-1]

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


def decompose(f: GridFunction) -> Decomposition:
    """Full orthogonal decomposition of f: pure Delta_R part and hybrids.

    Blocks with max |value| <= PRUNE_TOL are not kept (object dtype: all kept).
    """
    grid = f.grid
    if eligible_rectangle_count(grid) > DEFAULT_RECTANGLE_CAP:
        raise ResourceCapError(
            f"decomposition needs {eligible_rectangle_count(grid)} rectangles "
            f"(cap {DEFAULT_RECTANGLE_CAP})"
        )
    n = grid.n
    blocks = {lv: _blocks(child, [s // 2 for s in child.shape])
              for lv, child in _table_views(_haar_table(f.values, grid), grid, 1)}
    # Every R's 2^n children in one buffer, R by R in canonical order.
    flat = np.concatenate(list(blocks.values()), axis=None).reshape(-1, 2 ** n)
    if flat.dtype == object:
        keep = np.ones(len(flat), dtype=bool)
    else:
        # max |value| per R, one child column at a time (long strided loops).
        keep = ~(functools.reduce(np.maximum, map(np.abs, flat.T)) <= PRUNE_TOL)
        flat[~keep] = 0.0
    coefficients, kept, start = {}, {}, 0
    for lv, b in blocks.items():
        stop = start + (b.size >> n)
        coefficients[lv] = flat[start:stop].reshape(b.shape)
        kept[lv] = keep[start:stop].reshape(b.shape[:n])
        start = stop
    del blocks, b  # frees the child table before the hybrids are built
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
    # The inverse of `_blocks`: a view, not a copy, on a one-axis grid.
    order = [k for a in range(grid.n) for k in (a, grid.n + a)]
    for levels, blocks in dec.coefficients.items():
        if dec.kept[levels].any():
            _add_refined(out, blocks.transpose(order).reshape([2 * s for s in blocks.shape[:grid.n]]))
    return GridFunction(grid, out)


def decomposition_to_dict(dec: Decomposition) -> dict:
    grid = dec.grid
    cube_keys = {(i, j): [f"{i}:{j}:({','.join(map(str, c))})"
                          for c in itertools.product(range(2 ** j), repeat=n)]
                 for i, n in enumerate(grid.factor_dims) for j in range(grid.depths[i])}
    pure = {}
    for levels, blocks in dec.coefficients.items():
        kept = dec.kept[levels]
        keys = itertools.product(*(cube_keys[i, j] for i, j in enumerate(levels)))
        rows = blocks[kept].reshape(-1, 2 ** grid.n).astype(np.float64).tolist()
        pure.update(zip(map("|".join, itertools.compress(keys, kept.ravel().tolist())), rows))
    return {
        "grid": grid.to_dict(),
        "pure": pure,
        "hybrid": {
            ",".join(map(str, sorted(t))): h.values.astype(np.float64).ravel().tolist()
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
