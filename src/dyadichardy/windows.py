"""Grid-aligned rectangle windows shared by the maximal and norm engines.

A window is a product of per-factor cubes with integer cell side: within
factor i all n_i axes share the same side, but positions vary per axis.
Only windows lying fully inside the domain are enumerated (clipping a
cube at the boundary would not leave a cube).

The aligned-window kernel walks the factors in order.  `iter_window_sums`
loops in Python over the sides of every factor but the last, carrying
exact window sums (a zero-led cumulative sum per axis, differenced) that
the later factors reuse.  The last factor is batched when it has one
axis: from one prefix table along that axis, `last_factor_max` takes,
per cell, the best average over all intervals containing it (a sweep
over blocks of starts with a running per-end max, so the suffix max over
ends runs only inside each block), and `iter_last_factor_means` stacks
the window means of a run of sides for a shape-major, start-lexicographic
argmax.  A last factor of cubes keeps a loop over its sides.  The work is
O(cells x windows per cell), the suffix max only O(L x block height) of
it on an L-cell row; blocks hold at most a fixed multiple of BLOCK
elements, so the temporaries stay small whatever the grid.  A one-cell
window takes the cell itself, not a difference of prefix sums, so every
sum and mean is bit for bit what a per-shape pass computes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, ProductGrid

# Elements per interval block of the last-factor kernels.
BLOCK = 1 << 12


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


def iter_shapes(grid: ProductGrid):
    """All per-factor cube sides (in cells)."""
    return itertools.product(*(range(1, grid.axis_side(i) + 1) for i in range(grid.d)))


def axis_sides(grid: ProductGrid, shape) -> list:
    """Expand per-factor sides to one side per value-array axis."""
    out = []
    for i, s in enumerate(shape):
        out.extend([s] * grid.factor_dims[i])
    return out


def _take(a: np.ndarray, axis: int, sl: slice) -> np.ndarray:
    idx = [slice(None)] * a.ndim
    idx[axis] = sl
    return a[tuple(idx)]


def _prefix(values: np.ndarray, axis: int) -> np.ndarray:
    """Cumulative sums along `axis` with a leading 0: P[k] sums the first k cells."""
    c = np.cumsum(values, axis=axis)
    return np.concatenate([np.zeros_like(_take(c, axis, slice(0, 1))), c], axis=axis)


def window_sums(values: np.ndarray, axes, side: int) -> np.ndarray:
    """Sums over every window of `side` cells along each of `axes`, in order.

    Each listed axis of length L becomes one of length L - side + 1 (one
    entry per window start).
    """
    out = np.asarray(values)
    if side == 1:
        return out
    for axis in axes:
        p = _prefix(out, axis)
        out = _take(p, axis, slice(side, None)) - _take(p, axis, slice(None, -side))
    return out


def iter_window_sums(values: np.ndarray, grid: ProductGrid):
    """Window sums for every side tuple of the factors before the last.

    Yields (shape, count, sums) in shape-lexicographic order: the sides of
    factors 0..d-2, the cell count of one such window, and the sums over
    those factors' axes (one entry per start), with the last factor's
    axes left as cells.  Leading axes of `values` before the grid axes
    are carried along (the grid axes are addressed from the end).
    """
    ndim = len(grid.shape)

    def walk(sums, i, shape, count):
        if i == grid.d - 1:
            yield shape, count, sums
            return
        axes = [axis - ndim for axis in grid.factor_axes(i)]
        for s in range(1, grid.axis_side(i) + 1):
            yield from walk(window_sums(sums, axes, s), i + 1, shape + (s,),
                            count * s ** grid.factor_dims[i])

    yield from walk(np.asarray(values), 0, (), 1)


def iter_last_factor_means(sums: np.ndarray, count: int, n: int):
    """Window means over the last factor's cubes, in runs of consecutive sides.

    `sums` holds window sums of `count` cells each, with the last factor's
    n axes still cells.  Yields (sides, means): means[..., k, starts] is
    the mean over the cube of side sides[k] at those starts, the side axis
    sitting just before the last factor's n axes; starts whose cube would
    leave the domain hold -inf.  With n = 1 all sides come from one prefix
    table; cubes are taken one side at a time.
    """
    L = sums.shape[-1]
    if n > 1:
        for s in range(1, L + 1):
            ws = window_sums(sums, range(-n, 0), s) / (count * s ** n)
            yield np.array([s]), np.expand_dims(ws, -n - 1)
        return
    prefix = _prefix(sums, -1)
    # ends[..., s, a] = prefix[..., a + s], past the domain end padded with its last entry
    padded = np.concatenate([prefix, np.repeat(prefix[..., -1:], L, axis=-1)], axis=-1)
    ends = np.lib.stride_tricks.sliding_window_view(padded, L, axis=-1)
    starts = np.arange(L)
    step = max(1, BLOCK // sums.size)
    for lo in range(1, L + 1, step):
        sides = np.arange(lo, min(lo + step, L + 1))
        block = ends[..., lo:lo + len(sides), :] - prefix[..., None, :L]
        if lo == 1:
            block[..., 0, :] = sums  # one-cell windows: the cell itself
        block /= count * sides[:, None]
        np.copyto(block, -np.inf, where=starts + sides[:, None] > L)
        yield sides, block


def last_factor_max(sums: np.ndarray, count: int, n: int) -> np.ndarray:
    """Per cell of the last factor, the largest window mean over cubes containing it.

    `sums` and `count` are as for `iter_last_factor_means`.  With n = 1,
    out[..., x] = max over a <= x <= e of sum(cells a..e) / (count (e - a + 1)),
    swept over blocks of starts a in [lo, hi).  Ends e >= hi cover every
    cell from a to hi - 1, so their max over e (one column per start)
    and their max over a (folded into `best`, one entry per end) leave
    only the block's triangle e < hi to a suffix max over e, then a
    masked max over a <= x.  `best` reaches later blocks through their
    start lo, whose intervals cover every cell of the block.  A row that
    fits in one block skips `best`.
    """
    if n > 1:
        out = np.full(sums.shape, -np.inf)
        for sides, means in iter_last_factor_means(sums, count, n):
            avg = np.squeeze(means, -n - 1)
            for axis in range(-n, 0):
                avg = cover_max(avg, int(sides[0]), axis)
            np.maximum(out, avg, out=out)
        return out
    L = sums.shape[-1]
    prefix = _prefix(sums, -1)
    # h starts per block: the h x h triangle (the only part that pays for the
    # suffix max) within BLOCK elements, the h x L block within 16 BLOCK.
    h = max(1, min(L, math.isqrt(BLOCK // (sums.size // L)), 16 * BLOCK // sums.size))
    k = np.arange(h)
    length = np.arange(1.0, L + 1) - k[:, None]
    before = length < 1  # cells x = lo + j before the start lo + k
    np.maximum(length, 1, out=length)
    length *= count
    out = np.empty(sums.shape)
    if h < L:
        best = np.full(sums.shape, -np.inf)  # per end, the best mean over earlier starts
    for lo in range(0, L, h):
        hi = min(L, lo + h)
        m = hi - lo
        # block[..., k, j]: the interval of cells lo + k .. lo + j
        block = prefix[..., None, lo + 1:] - prefix[..., lo:hi, None]
        block[..., k[:m], k[:m]] = sums[..., lo:hi]  # one-cell windows: the cell itself
        block /= length[:m, :L - lo]
        if lo:
            np.maximum(block[..., 0, :], best[..., lo:], out=block[..., 0, :])
        if hi < L:  # ends past the block: per end into best, per start into column m
            np.maximum(best[..., hi:], block[..., m:].max(axis=-2), out=best[..., hi:])
            block[..., m] = block[..., m:].max(axis=-1)
        block = np.maximum.accumulate(block[..., :m + 1][..., ::-1], axis=-1)[..., ::-1]
        np.copyto(block, -np.inf, where=before[:m, :block.shape[-1]])
        out[..., lo:hi] = block[..., :m].max(axis=-2)
    return out


def cover_max(a: np.ndarray, s: int, axis: int) -> np.ndarray:
    """Lift per-window values to per-cell maxima along one axis.

    Input axis holds one value per window start (length L - s + 1);
    output cell x gets the max over the windows covering x, starts
    x - s + 1 .. x: a width-s sliding max (van Herk) over the input with
    s - 1 cells of -inf in front.
    """
    if s == 1:
        return a
    a = np.swapaxes(a, axis, -1)
    n = a.shape[-1] + s - 1
    nblocks = -(-(n + s - 1) // s)
    ext = np.full(a.shape[:-1] + (nblocks * s,), -np.inf)
    ext[..., s - 1: n] = a
    blocks = ext.reshape(a.shape[:-1] + (nblocks, s))
    pre = np.maximum.accumulate(blocks, axis=-1).reshape(ext.shape)
    suf = np.maximum.accumulate(blocks[..., ::-1], axis=-1)[..., ::-1].reshape(ext.shape)
    return np.swapaxes(np.maximum(suf[..., :n], pre[..., s - 1: n + s - 1]), axis, -1)


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
