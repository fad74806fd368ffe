"""Grid-aligned rectangle windows shared by the maximal and norm engines.

A window is a product of per-factor cubes with integer cell side (all n_i
axes of factor i share it, positions vary per axis), inside the domain.
`iter_window_sums` walks the factors before the last with exact window
sums: a cube factor side by side, a one-axis factor all its intervals at
once as a (side, start) pair of axes.  `last_factor_max` and
`iter_last_factor_means` batch the last factor likewise; `run_cover_max`
and `cover_max` fold back to cells.  Temporaries stay within a fixed
multiple of BLOCK elements, and a one-cell window takes the cell itself,
so every sum and mean is bit for bit what a per-shape pass computes.
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


def _interval_runs(values: np.ndarray, axis: int):
    """Window sums along `axis` (from the end), in runs of sides of at most 4 BLOCK elements
    from one prefix table: (sides, run, leaves), run[..., k, a, ...] summing sides[k] cells
    from a, clipped at the domain end where leaves[k, a]."""
    L, prefix = values.shape[axis], _prefix(values, axis)
    step = max(1, 4 * BLOCK // values.size)
    for lo in range(1, L + 1, step):  # starts up to L - lo: each run's shortest side fits
        ends = np.arange(L - lo + 1) + np.arange(lo, min(lo + step, L + 1))[:, None]  # a + side
        starts = np.expand_dims(_take(prefix, axis, slice(0, L - lo + 1)), axis - 1)
        run = np.take(prefix, np.minimum(ends, L), axis=axis) - starts
        if lo == 1:
            run[(Ellipsis, 0) + (slice(None),) * -axis] = values
        yield ends[:, 0], run, ends > L


def iter_window_sums(values: np.ndarray, grid: ProductGrid):
    """Window sums over the factors before the last, per side or run of sides: yields
    (shape, count, sums, outside), the last factor's axes left as cells and leading axes of
    `values` carried along.  A cube factor's shape entry is a side; a one-axis factor's an
    array of sides, its side axis just before its grid axis, `outside` marking the starts
    past the domain (finite padding, which `last_factor_max` and `iter_last_factor_means`
    turn to -inf).  `count` (cells per window: an int before any run, then an array of the
    ndim of `sums`) and `outside` broadcast over `sums`."""
    ndim = len(grid.shape)

    def walk(sums, i, shape, count, outside):
        if i == grid.d - 1:
            yield shape, count, sums, outside
            return
        axes = [axis - ndim for axis in grid.factor_axes(i)]
        if len(axes) > 1:
            for s in range(1, grid.axis_side(i) + 1):
                yield from walk(window_sums(sums, axes, s), i + 1, shape + (s,),
                                count * s ** len(axes), outside)
            return
        axis, new_axis = axes[0], (Ellipsis, None) + (slice(None),) * -axes[0]
        count = count[new_axis] if isinstance(count, np.ndarray) else count
        for sides, run, leaves in _interval_runs(sums, axis):
            per_side = sides.reshape((1,) * (run.ndim + axis - 1) + (-1,) + (1,) * -axis)
            yield from walk(run, i + 1, shape + (sides,), count * per_side,
                            outside[new_axis] | leaves.reshape(leaves.shape + (1,) * (-axis - 1)))

    yield from walk(np.asarray(values), 0, (), 1, np.zeros((1,) * ndim, dtype=bool))


def iter_last_factor_means(sums: np.ndarray, count, outside, n: int):
    """Window means over the last factor's cubes, in runs of consecutive sides: for `sums`,
    `count` and `outside` as `iter_window_sums` yields them, (sides, means) with
    means[..., k, starts] (side axis just before the last n axes) the mean over a cube of
    side sides[k], or -inf where the window leaves the domain."""
    if n > 1:
        for s in range(1, sums.shape[-1] + 1):
            ws = window_sums(sums, range(-n, 0), s) / (count * s ** n)
            np.copyto(ws, -np.inf, where=outside)
            yield np.array([s]), np.expand_dims(ws, -n - 1)
        return
    for sides, block, leaves in _interval_runs(sums, -1):
        block /= np.asarray(count)[..., None] * sides[:, None]
        np.copyto(block, -np.inf, where=leaves | np.expand_dims(outside, -2))
        yield sides, block


def _cover(block: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Per cell x, the max of block[k, e, ...] (interval k..e, per row) over k <= x <= e:
    a suffix max over ends (end by end over every row once rows are many and
    the block big), then a max over starts with `before` (x < k) masked."""
    if block.size >= max(BLOCK, block.shape[0] ** 2 * block.shape[1]):  # rows >= starts
        for j in range(block.shape[1] - 2, -1, -1):
            np.maximum(block[:, j], block[:, j + 1], out=block[:, j])
    else:
        block = np.maximum.accumulate(block[:, ::-1], axis=1)[:, ::-1]
    np.copyto(block, -np.inf, where=before)
    return block.max(axis=0)


def last_factor_max(sums: np.ndarray, count, outside, n: int) -> np.ndarray:
    """Per cell of the last factor, the largest window mean over cubes containing it, and
    -inf on the rows `outside` the domain (`sums`, `count` and `outside` as
    `iter_window_sums` yields them; with n = 1 only the rows inside are swept)."""
    if n > 1:
        out = np.full(sums.shape, -np.inf)
        for sides, means in iter_last_factor_means(sums, count, outside, n):
            avg = np.squeeze(means, -n - 1)
            for axis in range(-n, 0):
                avg = cover_max(avg, int(sides[0]), axis)
            np.maximum(out, avg, out=out)
        return out
    if isinstance(count, np.ndarray):  # after a run of sides: gather the rows inside
        keep = np.logical_not(outside[..., 0], out=np.empty(sums.shape[:-1], dtype=bool))
        counts = np.ones(keep.shape + (1,), dtype=int) * count
        out = np.full(sums.shape, -np.inf)
        out[keep] = _interval_max(sums[keep], counts[keep])
        return out
    return _interval_max(sums, count)


def _interval_max(sums: np.ndarray, count) -> np.ndarray:
    """out[..., x] = max over a <= x <= e of sum(cells a..e) / (count (e - a + 1)),
    swept over blocks of starts a in [lo, hi), cells in front of the rows.
    Ends e >= hi cover every cell from a to hi - 1, so their max over e
    (folded into end hi - 1) and over a (into `best`, per end, which later
    blocks read through their start lo) leave the block's triangle to `_cover`.
    """
    L = sums.shape[-1]
    # h starts per block: the h x h triangle of a row (the only part that pays
    # for the suffix max) within BLOCK elements, the h x L block within 16 BLOCK.
    h = max(1, min(L, math.isqrt(BLOCK), 16 * BLOCK // sums.size))
    cells = np.ascontiguousarray(sums.T)  # cells[x, ...], rows reversed
    prefix = _prefix(cells, 0)
    k = np.arange(h)
    length = (np.arange(1.0, L + 1) - k[:, None]).reshape((h, L) + (1,) * (sums.ndim - 1))
    before = length < 1  # cells x = lo + j before the start lo + k
    length = np.maximum(length, 1, out=length) * np.asarray(count).T
    out = np.empty(cells.shape)
    if h < L:
        best = np.full(cells.shape, -np.inf)  # per end, the best mean over earlier starts
    for lo in range(0, L, h):
        hi = min(L, lo + h)
        m = hi - lo
        # block[k, j, ...]: the interval of cells lo + k .. lo + j
        block = prefix[None, lo + 1:] - prefix[lo:hi, None]
        block[k[:m], k[:m]] = cells[lo:hi]  # one-cell windows: the cell itself
        block /= length[:m, :L - lo]
        if lo:
            np.maximum(block[0], best[lo:], out=block[0])
        if hi < L:  # ends past the block: per end into best, per start into end hi - 1
            np.maximum(best[hi:], block[:, m:].max(axis=0), out=best[hi:])
            block[:, m - 1] = block[:, m - 1:].max(axis=1)
        out[lo:hi] = block = _cover(block[:, :m], before[:m, :m])  # frees it before the next
    return out.T


def run_cover_max(v: np.ndarray, lo: int, axis: int) -> np.ndarray:
    """Per cell along `axis`, the max over a run's intervals containing it: v[..., k, a, ...]
    (a on `axis`, counted from the end; k on the axis before, which goes) holds the interval
    of lo + k cells from a.  Blocks of starts (4 BLOCK elements at most) go to `_cover`."""
    side = v.ndim + axis - 1
    rest = list(range(side)) + list(range(side + 2, v.ndim))
    b = v.transpose([side, side + 1] + rest)  # b[k, a, ...]
    K, n, rows = b.shape[0], b.shape[1], (1,) * len(rest)  # n = L - lo + 1 starts
    out = np.full((n + lo - 1,) + b.shape[2:], -np.inf)
    h = max(1, 4 * BLOCK // out.size)
    for a0 in range(0, n, h):
        a = np.arange(a0, min(n, a0 + h))[:, None]
        k = np.arange(a0, n + lo - 1) - a - (lo - 1)  # side index of the interval from a to e
        inside = ((k >= 0) & (k < K)).reshape(k.shape + rows)
        block = np.where(inside, b[np.minimum(np.maximum(k, 0), K - 1), a], -np.inf)
        np.maximum(out[a0:], _cover(block, (k < 1 - lo).reshape(inside.shape)), out=out[a0:])
        del block  # freed before the next block is built
    return out.transpose(list(range(1, side + 1)) + [0] + list(range(side + 1, v.ndim - 1)))


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
