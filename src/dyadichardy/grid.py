"""Product dyadic geometry on the unit cube.

The domain is a d-fold product of factors [0,1)^{n_i}, factor i refined
to dyadic depth J_i (2^{J_i} cells per axis).  Functions are piecewise
constant on finest cells, so every integral here is a finite sum and,
for dyadic-rational data, exact.

Canonical cell order is the C-order raveling of the value array whose
axes are factor 0's coordinates, then factor 1's, etc. (mixed-radix over
factors, coordinate-major within a factor).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ResourceCapError

DEFAULT_RECTANGLE_CAP = 250_000


@dataclass(frozen=True)
class ProductGrid:
    """The discretized d-parameter domain [0,1)^{n_1} x ... x [0,1)^{n_d}."""

    factor_dims: tuple
    depths: tuple

    def __post_init__(self):
        object.__setattr__(self, "factor_dims", tuple(int(v) for v in self.factor_dims))
        object.__setattr__(self, "depths", tuple(int(v) for v in self.depths))
        if len(self.factor_dims) != len(self.depths):
            raise GridError("factor_dims and depths must have equal length")
        if len(self.factor_dims) < 1:
            raise GridError("need at least one factor")
        if any(n < 1 for n in self.factor_dims):
            raise GridError("every factor dimension must be >= 1")
        if any(j < 1 for j in self.depths):
            raise GridError("every depth must be >= 1")
        # Axis sizes of the value array: n_i axes of size 2^{J_i} per factor.
        # Set once; equality, hash and repr read only the two fields.
        shape = sum(((2 ** j,) * n for n, j in zip(self.factor_dims, self.depths)), ())
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cell_count", math.prod(shape))

    @property
    def d(self) -> int:
        return len(self.factor_dims)

    @property
    def n(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return _measure(self, self.depths)

    def factor_axes(self, i: int) -> range:
        """Axis indices (into .shape) belonging to factor i."""
        if not 0 <= i < self.d:
            raise GridError(f"factor index {i} out of range for d={self.d}")
        start = sum(self.factor_dims[:i])
        return range(start, start + self.factor_dims[i])

    def axis_side(self, i: int) -> int:
        """Cells per axis in factor i."""
        return 2 ** self.depths[i]

    def factor_cell_volume(self, i: int) -> float:
        return 2.0 ** (-self.factor_dims[i] * self.depths[i])

    def reduce(self, i: int) -> "ProductGrid":
        """The (d-1)-factor grid with factor i removed."""
        if self.d < 2:
            raise GridError("cannot reduce a one-parameter grid")
        if not 0 <= i < self.d:
            raise GridError(f"factor index {i} out of range for d={self.d}")
        return ProductGrid(
            self.factor_dims[:i] + self.factor_dims[i + 1:],
            self.depths[:i] + self.depths[i + 1:],
        )

    def to_dict(self) -> dict:
        return {"factor_dims": list(self.factor_dims), "depths": list(self.depths)}

    @classmethod
    def from_dict(cls, data: dict) -> "ProductGrid":
        try:
            return cls(tuple(data["factor_dims"]), tuple(data["depths"]))
        except (KeyError, TypeError) as exc:
            raise GridError(f"malformed grid descriptor: {exc}") from exc


@dataclass(frozen=True)
class DyadicCube:
    """A dyadic cube inside one factor: side 2^{-level}, corner coords/2^level."""

    factor: int
    level: int
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.level < 0:
            raise GridError("cube level must be >= 0")
        side = 2 ** self.level
        if any(not 0 <= c < side for c in self.coords):
            raise GridError(f"cube coords {self.coords} out of range at level {self.level}")

    @property
    def measure(self) -> float:
        return 2.0 ** (-len(self.coords) * self.level)

    def key(self) -> str:
        """Canonical string form "i:j:(coords)"."""
        return f"{self.factor}:{self.level}:({','.join(map(str, self.coords))})"


@dataclass(frozen=True)
class DyadicRectangle:
    """Product of one dyadic cube per factor; the index R of a difference operator."""

    cubes: tuple

    def __post_init__(self):
        object.__setattr__(self, "cubes", tuple(self.cubes))
        for i, q in enumerate(self.cubes):
            if q.factor != i:
                raise GridError("cube factor indices must be 0..d-1 in order")

    @property
    def levels(self) -> tuple:
        return tuple(q.level for q in self.cubes)

    @property
    def measure(self) -> float:
        m = 1.0
        for q in self.cubes:
            m *= q.measure
        return m

    def cell_slices(self, grid: ProductGrid) -> tuple:
        """Per-axis slices selecting this rectangle's finest cells."""
        sl = []
        for i, q in enumerate(self.cubes):
            width = 2 ** (grid.depths[i] - q.level)
            for c in q.coords:
                sl.append(slice(c * width, (c + 1) * width))
        return tuple(sl)

    def sort_key(self):
        return tuple((q.level, q.coords) for q in self.cubes)

    def key(self) -> str:
        """Canonical string form "i:j:(coords)|..."."""
        return "|".join(q.key() for q in self.cubes)

    @classmethod
    def from_key(cls, key: str) -> "DyadicRectangle":
        cubes = []
        for part in key.split("|"):
            fac, lev, coords = part.split(":")
            coords = coords.strip("()")
            ctuple = tuple(int(c) for c in coords.split(",")) if coords else ()
            cubes.append(DyadicCube(int(fac), int(lev), ctuple))
        return cls(tuple(cubes))


@dataclass(frozen=True)
class OpenSetMask:
    """A union of finest cells: the discrete stand-in for an open set."""

    grid: ProductGrid
    cells: np.ndarray = field(compare=False)

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=bool)
        if cells.shape != self.grid.shape:
            raise GridError("mask shape does not match grid")
        cells = cells.copy()
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @classmethod
    def empty(cls, grid: ProductGrid) -> "OpenSetMask":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid: ProductGrid) -> "OpenSetMask":
        return cls(grid, np.ones(grid.shape, dtype=bool))

    @classmethod
    def from_cell_indices(cls, grid: ProductGrid, indices) -> "OpenSetMask":
        """The mask of the cells at these C-order indices; GridError unless
        each is an integer (a bool is not) from 0 to cell_count - 1."""
        indices, n = list(indices), grid.cell_count
        for i in indices:
            if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < n:
                raise GridError(f"cell index {i!r} is not an integer from 0 to {n - 1}")
        flat = np.zeros(n, dtype=bool)
        flat[indices] = True
        return cls(grid, flat.reshape(grid.shape))

    @property
    def cell_count(self) -> int:
        return int(self.cells.sum())

    @property
    def measure(self) -> float:
        return self.cell_count * self.grid.cell_volume

    @property
    def is_empty(self) -> bool:
        return not self.cells.any()

    def cell_indices(self) -> np.ndarray:
        return np.flatnonzero(self.cells.ravel())

    def contains_rectangle(self, rect: DyadicRectangle) -> bool:
        return bool(self.cells[rect.cell_slices(self.grid)].all())

    def union(self, other: "OpenSetMask") -> "OpenSetMask":
        if other.grid != self.grid:
            raise GridError("mask grids differ")
        return OpenSetMask(self.grid, self.cells | other.cells)

    def to_dict(self) -> dict:
        return {"grid": self.grid.to_dict(), "cells": self.cell_indices().tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "OpenSetMask":
        grid = ProductGrid.from_dict(data["grid"])
        return cls.from_cell_indices(grid, data["cells"])

    def __eq__(self, other):
        return (
            isinstance(other, OpenSetMask)
            and self.grid == other.grid
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __hash__(self):
        return hash((self.grid, self.cells.tobytes()))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function, piecewise constant on finest cells."""

    grid: ProductGrid
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype != object:
            vals = vals.astype(np.float64)
        if vals.shape == (self.grid.cell_count,):
            vals = vals.reshape(self.grid.shape)
        if vals.shape != self.grid.shape:
            raise GridError("value array shape does not match grid")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: ProductGrid, value: float = 0.0) -> "GridFunction":
        return cls(grid, np.full(grid.shape, value))

    def integral(self):
        return self.values.sum() * self.grid.cell_volume

    def l2_sq(self):
        return (self.values * self.values).sum() * self.grid.cell_volume

    def linf(self):
        return float(np.abs(self.values.astype(np.float64)).max()) if self.values.size else 0.0

    def slice_at(self, i: int, pos: tuple) -> "GridFunction":
        """Freeze factor i's variable at finest cell `pos`; function on the reduced grid."""
        index = _slice_index(self.grid, i, pos)
        return GridFunction(self.grid.reduce(i), self.values[index])

    def _binop(self, other, op):
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise GridError("grids differ")
            return GridFunction(self.grid, op(self.values, other.values))
        return GridFunction(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def abs(self) -> "GridFunction":
        return GridFunction(self.grid, np.abs(self.values))

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "values": self.values.astype(np.float64).ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridFunction":
        grid = ProductGrid.from_dict(data["grid"])
        vals = np.asarray(data["values"], dtype=np.float64)
        if vals.size != grid.cell_count:
            raise GridError("value array length does not match grid")
        if not np.isfinite(vals).all():
            raise GridError("function values must be finite (no NaN or inf)")
        return cls(grid, vals.reshape(grid.shape))


def _slice_index(grid: ProductGrid, i: int, pos) -> tuple:
    """Value-array index that fixes factor i's axes at its finest cell `pos`."""
    if grid.d < 2:
        raise GridError("slicing requires d >= 2")
    if not 0 <= i < grid.d:
        raise GridError(f"factor index {i} out of range")
    pos = tuple(int(p) for p in pos)
    if len(pos) != grid.factor_dims[i]:
        raise GridError("slice position has wrong number of coordinates")
    index = [slice(None)] * grid.n
    for a, p in zip(grid.factor_axes(i), pos):
        index[a] = p
    return tuple(index)


def _axis_levels(grid: ProductGrid, levels) -> list:
    """(factor, level) per value-array axis."""
    out = []
    for i, j in enumerate(levels):
        out.extend([(i, j)] * grid.factor_dims[i])
    return out


def _blocks(a: np.ndarray, sides) -> np.ndarray:
    """View `a` as (sides..., block entries...): axis k splits into sides[k]
    contiguous blocks, and the block axes come last, in axis order."""
    split = a.reshape([m for s, b in zip(a.shape, sides) for m in (b, s // b)])
    return split.transpose(*range(0, split.ndim, 2), *range(1, split.ndim, 2))


# Cube tables.  A factor's dyadic cubes are indexed level-major, then by
# their coordinates in C order, so a table with one such axis per factor
# lists rectangles in `DyadicRectangle.sort_key` order when raveled.

def _cube_start(n: int, j: int) -> int:
    """Index of an n-axis factor's first level-j cube: sum_{l<j} 2^{nl}."""
    return (2 ** (n * j) - 1) // (2 ** n - 1)


def _table_shape(grid: ProductGrid, top: int = 0) -> list:
    """Cube-table shape with per-factor levels 0..J_i - 1 + top."""
    return [_cube_start(n, depth + top) for n, depth in zip(grid.factor_dims, grid.depths)]


def _cube_index(n: int, level: int, coords) -> int:
    return _cube_start(n, level) + int(np.ravel_multi_index(tuple(coords), (2 ** level,) * n))


def _table_index(grid: ProductGrid, rect) -> tuple:
    """A rectangle's cube-table index; GridError if it is not Delta-eligible on
    `grid` or has the wrong number of factors or of coordinates."""
    if not isinstance(rect, DyadicRectangle) or len(rect.cubes) != grid.d:
        raise GridError("rectangle factor count does not match grid")
    for q, depth, n in zip(rect.cubes, grid.depths, grid.factor_dims):
        if len(q.coords) != n:
            raise GridError(f"cube {q.key()} has {len(q.coords)} coordinates; factor {q.factor} "
                            f"has {n} axes")
        if not 0 <= q.level <= depth - 1:
            raise GridError(f"cube level {q.level} not Delta-eligible (need <= {depth - 1})")
    return tuple(_cube_index(n, q.level, q.coords) for n, q in zip(grid.factor_dims, rect.cubes))


def _rectangle_at(grid: ProductGrid, index) -> DyadicRectangle:
    """The rectangle at one cube-table index."""
    cubes = []
    for i, (n, k) in enumerate(zip(grid.factor_dims, index)):
        j = next(j for j in itertools.count() if _cube_start(n, j + 1) > k)
        cubes.append(DyadicCube(i, j, np.unravel_index(k - _cube_start(n, j), (2 ** j,) * n)))
    return DyadicRectangle(tuple(cubes))


@functools.lru_cache(maxsize=256)  # keyed by (n, J, top); holds only slices and shapes
def _factor_levels(n: int, depth: int, top: int) -> tuple:
    """(slices, sides) per level j of an n-axis factor in a table over its cubes
    at levels top..J - 1 + top: level j + top's slice and (2^(j + top),) * n."""
    starts = [_cube_start(n, j) - top for j in range(top, depth + top + 1)]
    return tuple(map(slice, starts, starts[1:])), tuple((2 ** j,) * n for j in range(top, depth + top))


def _table_views(table: np.ndarray, grid: ProductGrid, top: int = 0, finest: bool = False) -> list:
    """[(levels, view)] for every level tuple of a table, canonical order: the
    entries of a cube table (top 0, levels 0..J_i - 1 as `_table_shape`, or
    0..J_i with `finest`, as `_table_shape(grid, 1)`) or a child table's (top 1)
    at those levels, 2^(j_i + top) per grid axis, batch axes in front.  The
    views are writable when the table is."""
    lead, depths = table.ndim - grid.d, [depth + finest for depth in grid.depths]
    slices, sides = zip(*map(_factor_levels, grid.factor_dims, depths, [top] * grid.d))
    return [(levels, table[(slice(None),) * lead + cut].reshape(table.shape[:lead] + sum(side, ())))
            for levels, cut, side in zip(itertools.product(*map(range, depths)),
                                         itertools.product(*slices), itertools.product(*sides))]


def _inside(cells: np.ndarray, grid: ProductGrid, levels) -> np.ndarray:
    """Which rectangles at one level tuple lie in a cell mask, shaped
    (2^j per axis...): R lies in the mask when every one of its cells does."""
    blocks = _blocks(cells, [2 ** j for _, j in _axis_levels(grid, levels)])
    return blocks.all(axis=tuple(range(cells.ndim, 2 * cells.ndim)))


def _measure(grid: ProductGrid, levels, top: int = 0) -> float:
    """|R| of a rectangle at one level tuple (a cell's volume at levels J_i);
    with top 1, the volume of one of its children."""
    return 2.0 ** -sum(n * (j + top) for n, j in zip(grid.factor_dims, levels))


def _check_cap(alpha) -> None:
    """Refuse a size cap alpha that is not positive, NaN included; None and
    inf mean no cap."""
    if alpha is not None and not alpha > 0:
        raise GridError("size cap must be positive")


def _family_logs(grid: ProductGrid) -> list:
    """Per factor, -log2 |Q_i| along its axis of the family table, shaped to broadcast."""
    return [np.repeat(n * np.arange(depth), [2 ** (n * j) for j in range(depth)])
            .reshape([-1 if k == i else 1 for k in range(grid.d)])
            for i, (n, depth) in enumerate(zip(grid.factor_dims, grid.depths))]


class RectangleFamily:
    """A finite duplicate-free set of Delta-eligible dyadic rectangles over one grid,
    held as one boolean cube table (levels 0..J_i - 1 per factor); `.members`
    and iteration build the rectangles, in canonical order, on demand."""

    def __init__(self, grid: ProductGrid, members):
        self.grid = grid
        self._mask = np.zeros(_table_shape(grid), dtype=bool)
        for rect in members:
            self._mask[_table_index(grid, rect)] = True

    @classmethod
    def _from_mask(cls, grid: ProductGrid, mask: np.ndarray) -> "RectangleFamily":
        family = cls.__new__(cls)
        family.grid, family._mask = grid, mask
        return family

    @property
    def members(self) -> tuple:
        return tuple(self)

    def __len__(self):
        return int(np.count_nonzero(self._mask))

    def __iter__(self):
        return (_rectangle_at(self.grid, k) for k in zip(*np.nonzero(self._mask)))

    def __contains__(self, rect):
        try:
            return bool(self._mask[_table_index(self.grid, rect)])
        except (GridError, ValueError):
            return False

    def __eq__(self, other):
        return (
            isinstance(other, RectangleFamily)
            and self.grid == other.grid
            and bool(np.array_equal(self._mask, other._mask))
        )

    def __repr__(self):
        return f"RectangleFamily(d={self.grid.d}, size={len(self)})"


def eligible_rectangle_count(grid: ProductGrid) -> int:
    """prod_i sum_{j=0}^{J_i-1} 2^{n_i j}."""
    return math.prod(_table_shape(grid))


def _factor_cubes(grid: ProductGrid, i: int, levels) -> list:
    """Cubes of factor i at the given levels, level-major then coordinate-lex."""
    out = []
    n_i = grid.factor_dims[i]
    for j in levels:
        for coords in itertools.product(range(2 ** j), repeat=n_i):
            out.append(DyadicCube(i, j, coords))
    return out


def enumerate_rectangles(grid: ProductGrid) -> RectangleFamily:
    """All Delta-eligible rectangles (per-factor cube levels in 0..J_i-1)."""
    count = eligible_rectangle_count(grid)
    if count > DEFAULT_RECTANGLE_CAP:
        raise ResourceCapError(f"{count} rectangles exceed the cap of {DEFAULT_RECTANGLE_CAP}")
    return RectangleFamily._from_mask(grid, np.ones(_table_shape(grid), dtype=bool))


def slice_family(family: RectangleFamily, i: int, pos: tuple) -> RectangleFamily:
    """The factor-i slice of a family at a finest cell position of factor i.

    Returns { Q_1 x ... x Q_i-hat x ... x Q_d : the full rectangle is in the
    family and Q_i contains the position }, over the reduced grid.
    """
    grid = family.grid
    index = _slice_index(grid, i, pos)
    depth, n, pos = grid.depths[i], grid.factor_dims[i], [index[a] for a in grid.factor_axes(i)]
    # Per level, the one factor-i cube that contains the position.
    holding = [_cube_index(n, j, [p >> (depth - j) for p in pos]) for j in range(depth)]
    sliced = family._mask.take(holding, axis=i).any(axis=i)
    return RectangleFamily._from_mask(grid.reduce(i), sliced)


def rectangles_in(
    family: RectangleFamily,
    mask: OpenSetMask,
    alpha: float | None = None,
    strict: bool = False,
) -> RectangleFamily:
    """Members of `family` contained in the mask, optionally with |R| <= alpha.

    `strict=True` switches the size cap to |R| < alpha (used by the
    pigeonhole split, which quantifies strictly).
    """
    _check_cap(alpha)
    if mask.grid != family.grid:
        raise GridError("mask grid does not match family grid")
    grid = family.grid
    inside = np.empty_like(family._mask)
    for levels, view in _table_views(inside, grid):
        size = _measure(grid, levels)
        view[...] = (alpha is None or (size < alpha if strict else size <= alpha)) and _inside(
            mask.cells, grid, levels)
    return RectangleFamily._from_mask(grid, family._mask & inside)
