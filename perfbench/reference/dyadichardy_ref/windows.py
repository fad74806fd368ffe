"""Grid-aligned rectangle windows shared by the maximal and norm engines.

A window is a product of per-factor cubes with integer cell side: within
factor i all n_i axes share the same side, but positions vary per axis.
Only windows lying fully inside the domain are enumerated (clipping a
cube at the boundary would not leave a cube).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, ProductGrid


@dataclass(frozen=True)
class AlignedBox:
    """A product of aligned cubes: per-axis start cells, per-factor cell sides."""

    starts: tuple
    sides: tuple

    def slices(self, grid: ProductGrid) -> tuple:
        sl = []
        axis = 0
        for i in range(grid.d):
            for _ in range(grid.factor_dims[i]):
                sl.append(slice(self.starts[axis], self.starts[axis] + self.sides[i]))
                axis += 1
        return tuple(sl)

    def cell_count(self, grid: ProductGrid) -> int:
        c = 1
        for i, s in enumerate(self.sides):
            c *= s ** grid.factor_dims[i]
        return c

    def measure(self, grid: ProductGrid) -> float:
        return self.cell_count(grid) * grid.cell_volume


def iter_shapes(grid: ProductGrid):
    """All per-factor cube sides (in cells)."""
    return itertools.product(*(range(1, grid.axis_side(i) + 1) for i in range(grid.d)))


def axis_sides(grid: ProductGrid, shape) -> list:
    """Expand per-factor sides to one side per value-array axis."""
    out = []
    for i, s in enumerate(shape):
        out.extend([s] * grid.factor_dims[i])
    return out


def shape_cell_count(grid: ProductGrid, shape) -> int:
    c = 1
    for i, s in enumerate(shape):
        c *= s ** grid.factor_dims[i]
    return c


def window_sums(values: np.ndarray, sides) -> np.ndarray:
    """Sum of values over every in-domain window of the given per-axis sides.

    Output axis a has length L_a - s_a + 1 (one entry per window start).
    """
    def take(arr, axis, sl):
        idx = [slice(None)] * arr.ndim
        idx[axis] = sl
        return arr[tuple(idx)]

    out = np.asarray(values)
    for axis, s in enumerate(sides):
        if s == 1:
            continue
        c = np.cumsum(out, axis=axis)
        # W[0] = c[s-1]; W[i] = c[i+s-1] - c[i-1]
        out = np.concatenate(
            [take(c, axis, slice(s - 1, s)),
             take(c, axis, slice(s, None)) - take(c, axis, slice(None, -s))],
            axis=axis,
        )
    return out


def iter_boxes(grid: ProductGrid):
    """All aligned boxes, shape-major then start-lexicographic."""
    for shape in iter_shapes(grid):
        sides = axis_sides(grid, shape)
        ranges = [range(L - s + 1) for L, s in zip(grid.shape, sides)]
        for starts in itertools.product(*ranges):
            yield AlignedBox(tuple(starts), tuple(shape))


def sliding_max(a: np.ndarray, s: int, axis: int) -> np.ndarray:
    """Forward sliding max: out[y] = max(a[y:y+s]) along `axis` (van Herk)."""
    if s == 1:
        return a
    a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    nblocks = -(-n // s)
    pad = nblocks * s - n
    if pad:
        a = np.concatenate([a, np.full(a.shape[:-1] + (pad,), -np.inf)], axis=-1)
    blocks = a.reshape(a.shape[:-1] + (nblocks, s))
    pre = np.maximum.accumulate(blocks, axis=-1).reshape(a.shape[:-1] + (nblocks * s,))
    suf = np.maximum.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1]
    suf = suf.reshape(a.shape[:-1] + (nblocks * s,))
    out = np.maximum(suf[..., : n - s + 1], pre[..., s - 1: n])
    return np.moveaxis(out, -1, axis)


def cover_max(a: np.ndarray, s: int, size: int, axis: int) -> np.ndarray:
    """Lift per-window values to per-cell maxima along one axis.

    Input axis holds one value per window start (length size - s + 1);
    output cell x gets the max over windows covering x.
    """
    if s == 1:
        return a
    a = np.moveaxis(a, axis, -1)
    pad = np.full(a.shape[:-1] + (s - 1,), -np.inf)
    ext = np.concatenate([pad, a, pad], axis=-1)
    out = sliding_max(ext, s, ext.ndim - 1)
    return np.moveaxis(out, -1, axis)


def factor_gradient_l1max(f: GridFunction, i: int) -> float:
    """max over cells of the l1 norm of the factor-i forward-difference gradient.

    Forward differences are divided by the factor's cell side; cells with
    no forward neighbour along an axis contribute 0 on that axis.
    """
    grid = f.grid
    h = 2.0 ** (-grid.depths[i])
    total = np.zeros(grid.shape)
    for axis in grid.factor_axes(i):
        diff = np.abs(np.diff(f.values.astype(np.float64), axis=axis)) / h
        pad_width = [(0, 0)] * len(grid.shape)
        pad_width[axis] = (0, 1)
        total += np.pad(diff, pad_width)
    return float(total.max())


def box_mean_oscillation(values: np.ndarray, box_slices: tuple, p: int, cell_volume: float):
    """p-mean oscillation of a value array over one box (p in {1, 2})."""
    sub = values[box_slices]
    avg = sub.mean()
    if p == 1:
        return np.abs(sub - avg).mean()
    return float(np.sqrt(max(((sub - avg) ** 2).mean(), 0.0)))
