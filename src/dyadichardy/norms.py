"""Square function, dyadic H^1, little bmo, and the product-BMO packing constant.

The packing norm is a supremum of set functions over all unions of
finest cells.  Three engines are provided: the exact min-cut engine
(Dinkelbach iteration over maximum-weight closures on the dyadic box
graph, with exact integer capacities; the default), an exact bit-mask
enumeration (grids of at most 16 cells; the test oracle), and a seeded
greedy local search.  Each reports the recomputed ratio of its witness;
the search's is a certified lower bound.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ResourceCapError
from .grid import (GridFunction, OpenSetMask, ProductGrid, _blocks, _check_cap, _factor_levels,
                   _inside, _measure, _rectangle_at, _table_shape, _table_views)
from .martingale import _add_refined, _haar_table, _LevelView
from .windows import (BLOCK, AlignedBox, axis_sides, iter_last_factor_means, iter_shapes,
                      iter_window_sums)

# The bit-mask oracle visits every mask once, EXACT_BLOCK masks at a time in
# buffers it reuses, so its memory stays small; its cell cap bounds its work.
# Cell counts are powers of two, so the cap admits 2^16 masks and no more.
EXACT_CELL_CAP = 16
EXACT_BLOCK = 1 << 14
# The cut engine refuses grids with more dyadic boxes than this.  Its graph,
# flow and recomputed witness ratio grew the peak RSS by 0.9-1.3 KB per box
# (16k to 131k boxes, Python 3.11, 64-bit), so the cap holds it near 250 MB.
CUT_BOX_CAP = 200_000
# Mean absolute oscillations over aligned boxes read every cell of every box;
# refuse grids with more cell visits than this (about 7 ns a visit, so near 2 s).
ALIGNED_VISIT_CAP = 1 << 28


def square_function(f: GridFunction) -> GridFunction:
    """Sf(x) = (sum over eligible R of |Delta_R f(x)|^2)^{1/2}."""
    grid = f.grid
    table = _haar_table(f.values, grid)
    acc = np.zeros(grid.shape)
    # One add per level tuple: each cell sums its terms in canonical order.
    for _, child in _table_views(np.multiply(table, table, out=table), grid, 1):
        _add_refined(acc, child)
    return GridFunction(grid, np.sqrt(acc))


def h1_norm(f: GridFunction, include_mean: bool = False) -> float:
    """||Sf||_{L^1}; optionally add |mean f| so constants are separated."""
    value = float(square_function(f).integral())
    if include_mean:
        value += abs(float(f.integral()))
    return value


def _energy_table(values: np.ndarray, grid: ProductGrid) -> np.ndarray:
    """||Delta_R f||_2^2 for every eligible R as a cube table (`_table_shape`),
    batch axes of `values` in front: the squared child table summed over each
    R's finest cells one grid axis at a time, per factor and level."""
    sq = _haar_table(values, grid)
    sq = np.multiply(sq, sq, out=sq)
    lead = sq.ndim - grid.d
    for i, (n, depth) in enumerate(zip(grid.factor_dims, grid.depths)):
        at, parts = lead + i, []
        for j, cut in enumerate(_factor_levels(n, depth, 1)[0]):
            block, width = sq[(slice(None),) * at + (cut,)], 2 ** (depth - j)  # cells per cube side
            shape = block.shape
            block = block.reshape(shape[:at] + (2 ** (j + 1),) * n + shape[at + 1:])
            for axis in range(at, at + n):  # repeated squares round by their count, as on the grid
                block = block.repeat(width // 2, axis=axis)
                shp = block.shape
                block = block.reshape(shp[:axis] + (2 ** j, width) + shp[axis + 1:]).sum(axis=axis + 1)
            parts.append(block.reshape(shape[:at] + (2 ** (n * j),) + shape[at + 1:]))
        sq = np.concatenate(parts, axis=at)
    return sq * grid.cell_volume


def _energy_blocks(values: np.ndarray, grid: ProductGrid, alpha: float | None = None) -> list:
    """[(levels, ||Delta_R f||_2^2 for every R at those levels)], canonical order:
    views of `_energy_table`, 2^j entries per grid axis at level j; with a
    size cap alpha, only the level tuples with |R| <= alpha."""
    _check_cap(alpha)
    return [(levels, energy) for levels, energy in _table_views(_energy_table(values, grid), grid)
            if alpha is None or _measure(grid, levels) <= alpha]


class _EnergyView(_LevelView):
    """||Delta_R f||_2^2 of every eligible R, one array per level tuple;
    values() lists them in canonical order without building rectangles."""

    def __init__(self, grid: ProductGrid, table: np.ndarray):
        self._grid, self._table = grid, table
        self._energies = dict(_table_views(table, grid))

    @functools.cached_property
    def _kept(self) -> dict:
        return dict(_table_views(np.ones(self._table.shape, dtype=bool), self._grid))

    def _value(self, rect, levels, coords):
        return self._energies[levels].item(coords)

    def values(self) -> list:
        return np.concatenate(list(self._energies.values()), axis=None).tolist()


def rectangle_energies(f: GridFunction) -> Mapping:
    """||Delta_R f||_2^2 for every eligible R, a read-only view in canonical order."""
    return _EnergyView(f.grid, _energy_table(f.values, f.grid))


def packing_energy(f: GridFunction, mask: OpenSetMask, alpha: float | None = None) -> float:
    """Sum of ||Delta_R f||_2^2 over R inside the mask with |R| <= alpha,
    added left to right in canonical order."""
    if mask.grid != f.grid:
        raise GridError("mask grid does not match function grid")
    return _packed_energy(_energy_blocks(f.values, f.grid, alpha), mask)


def _packed_energy(blocks: list, mask: OpenSetMask) -> float:
    """Sum of the (levels, energy) blocks' entries whose rectangle lies inside
    the mask, added left to right in canonical order."""
    picked = [energy[_inside(mask.cells, mask.grid, levels)] for levels, energy in blocks]
    return float(np.cumsum(np.concatenate([np.zeros(1)] + picked))[-1])


@dataclass
class OscResult:
    """A little-bmo value with its maximizing rectangle."""

    value: float
    witness: object
    p: int
    rect_class: str


def _oscillations(boxes: np.ndarray, n: int, p: int) -> np.ndarray:
    """The p-mean oscillation of every box of `boxes` (box index axes, then n
    cell axes), bit for bit as `.mean()` on each box's slice: boxes are copied
    to rows in C order, about BLOCK elements at a time, and a row sum is the
    slice's pairwise sum.  Numpy sums a strided slice of more than
    `np.getbufsize()` cells in buffer-sized chunks, so such boxes keep `.mean()`."""
    outer, size = boxes.shape[:-n], math.prod(boxes.shape[-n:])
    count, step = math.prod(outer), max(1, BLOCK // size)
    buffered = size > np.getbufsize()
    out = np.empty(count)
    for lo in range(0, count, step):
        index = np.unravel_index(np.arange(lo, min(lo + step, count)), outer)
        rows = boxes[index].reshape(-1, size)
        mean = (np.array([boxes[k].mean() for k in zip(*index)]) if buffered
                else rows.sum(axis=1) / size)
        dev = rows - mean[:, None]
        out[lo:lo + len(rows)] = (np.abs(dev) if p == 1 else dev ** 2).sum(axis=1) / size
    return out.reshape(outer)


def _aligned_oscillations(vals: np.ndarray, grid: ProductGrid):
    """(shape, osc) per aligned window shape in `iter_shapes` order, osc[starts]
    the mean absolute oscillation of the window at those starts; leading axes
    of `vals` before the grid's are carried into osc."""
    visits = math.prod(sum(((L - s + 1) * s) ** n for s in range(1, L + 1))
                       for n, L in zip(grid.factor_dims, map(grid.axis_side, range(grid.d))))
    if visits > ALIGNED_VISIT_CAP:
        raise ResourceCapError(
            f"p = 1 oscillations over aligned boxes visit {visits} cells, over the cap "
            f"of {ALIGNED_VISIT_CAP}; use rect_class 'dyadic'")
    for shape in iter_shapes(grid):
        boxes = np.lib.stride_tricks.sliding_window_view(vals, axis_sides(grid, shape),
                                                         axis=tuple(range(-grid.n, 0)))
        yield shape, _oscillations(boxes, grid.n, 1)


def little_bmo_norm(f: GridFunction, p: int = 2, rect_class: str = "aligned") -> OscResult:
    """sup over the rectangle class of the p-mean oscillation of f.

    rect_class "dyadic": products of dyadic cubes; "aligned": products of
    grid-aligned cubes of any integer cell side and in-domain position.  The
    witness is the first maximum (canonical rectangle order; shape-major,
    then start-lexicographic)."""
    if p not in (1, 2):
        raise GridError("p must be 1 or 2")
    if rect_class not in ("dyadic", "aligned"):
        raise GridError("rect_class must be 'dyadic' or 'aligned'")
    grid = f.grid
    vals = f.values.astype(np.float64)
    best, witness = -1.0, None
    if rect_class == "dyadic":
        # A cube table with the finest cubes, so the first argmax is in product order.
        table = np.empty(_table_shape(grid, 1))
        for _, view in _table_views(table, grid, finest=True):
            view[...] = _oscillations(_blocks(vals, view.shape), grid.n, p)
        pos = np.unravel_index(int(np.argmax(table)), table.shape)
        best = float(table[pos])
        witness = _rectangle_at(grid, pos)
    elif p == 2:
        # Side axes first, so the first argmax in C order is a yield's first
        # maximum; runs hold many sides, so across yields `top`, the least
        # (-osc2, sides, starts), settles ties.  Out-of-domain starts get -inf.
        n, top = grid.factor_dims[-1], (1.0,)
        for shape, count, sums, outside in iter_window_sums(np.stack([vals, vals * vals]), grid):
            is_start = sum(([False] * isinstance(s, np.ndarray) + [True] * dims
                            for s, dims in zip(shape, grid.factor_dims)), []) + [False] + [True] * n
            order = sorted(range(len(is_start)), key=is_start.__getitem__)
            for sides, (mean, mean_sq) in iter_last_factor_means(sums, count, outside, n):
                osc2 = (mean_sq - mean * mean).transpose(order)
                pos = np.unravel_index(int(np.argmax(osc2)), osc2.shape)
                run = iter(pos)
                top = min(top, (-float(osc2[pos]), tuple(int(s[next(run)]) if isinstance(
                    s, np.ndarray) else s for s in shape + (sides,)), tuple(int(x) for x in run)))
        best, witness = -top[0], (AlignedBox(top[2], top[1]) if len(top) > 1 else None)
    else:
        for shape, osc in _aligned_oscillations(vals, grid):
            pos = np.unravel_index(int(np.argmax(osc)), osc.shape)
            if float(osc[pos]) > best:
                best = float(osc[pos])
                witness = AlignedBox(tuple(int(x) for x in pos), tuple(shape))
    return OscResult(math.sqrt(max(best, 0.0)) if p == 2 else best, witness, p, rect_class)


@dataclass
class PackingResult:
    """A packing-norm value, the mask attaining it, and how it was obtained."""

    value: float
    witness: OpenSetMask
    mode: str
    diagnostics: dict = field(default_factory=dict)


def _rect_data(f: GridFunction, alpha: float | None = None):
    """(measures, energies, sorted flat cell indices) of every rectangle in
    canonical order, optionally restricted to |R| <= alpha."""
    grid = f.grid
    flat = np.arange(grid.cell_count).reshape(grid.shape)
    measures, energies, cells = [np.zeros(0)], [np.zeros(0)], []
    for levels, energy in _energy_blocks(f.values, grid, alpha):
        measures.append(np.full(energy.size, _measure(grid, levels)))
        energies.append(energy.ravel())
        cells.extend(_blocks(flat, energy.shape).reshape(energy.size, -1))
    return np.concatenate(measures), np.concatenate(energies), cells


def bmo_d_norm_exact(f: GridFunction, alpha: float | None = None) -> PackingResult:
    """Exact max over all nonempty cell masks of packing energy / measure.

    Enumerates all 2^M - 1 masks of a grid of at most EXACT_CELL_CAP cells;
    ties broken by smallest mask, then by canonical (integer) mask order.
    `alpha` restricts to |R| <= alpha.
    """
    grid = f.grid
    m_cells = grid.cell_count
    if m_cells > EXACT_CELL_CAP:
        raise ResourceCapError(
            f"{m_cells} cells exceed the exact oracle's cap of {EXACT_CELL_CAP}; the "
            "default min-cut engine (bmo_d_norm_cut; bmo-dyadic without --exact) is exact"
        )
    _, energies, cells = _rect_data(f, alpha)
    rmasks = [int((1 << cell_idx).sum()) for cell_idx in cells]
    step = min(EXACT_BLOCK, 2 ** m_cells)
    low = np.zeros(1, dtype=np.int64)  # low[k] = popcount(k), doubling one bit at a time
    while low.size < step:
        low = np.concatenate([low, low + 1])
    base, masks, sizes, scratch = np.arange(step), *(np.empty(step, np.int64) for _ in range(3))
    hit, acc, ratios = np.empty(step, bool), np.empty(step), np.empty(step)
    best = (-np.inf, 0, 0)  # (ratio, -cells, -mask): the largest wins
    for lo in range(0, 2 ** m_cells, step):
        np.add(base, lo, out=masks)
        np.add(low, bin(lo).count("1"), out=sizes)
        acc.fill(0.0)
        for e, rmask in zip(energies, rmasks):  # a mask adds its energies in canonical order
            np.equal(np.bitwise_and(masks, rmask, out=scratch), rmask, out=hit)
            np.add(acc, e, out=acc, where=hit)
        if lo == 0:
            acc[0] = -np.inf  # the empty mask: -inf / 0 never wins
        np.divide(acc, np.multiply(sizes, grid.cell_volume, out=ratios), out=ratios)
        k = np.flatnonzero(ratios == ratios.max())
        k = k[np.argmin(sizes[k])]
        best = max(best, (float(ratios[k]), -int(sizes[k]), -int(masks[k])))
    top, pick = best[0], -best[2]
    indices = [b for b in range(m_cells) if pick >> b & 1]
    witness = OpenSetMask.from_cell_indices(grid, indices)
    return PackingResult(
        value=top,
        witness=witness,
        mode="exact",
        diagnostics={"masks_enumerated": 2 ** m_cells - 1, "rectangles": int(energies.size)},
    )


class _PackingSearch:
    """Greedy add/remove of cells over the packing ratio objective."""

    def __init__(self, f: GridFunction, alpha: float | None = None):
        self.grid = f.grid
        self.measures, self.energies, self.cells = _rect_data(f, alpha)
        self.m = self.grid.cell_count
        self.cell_volume = self.grid.cell_volume
        # Flattened incidence: one (cell, rect) entry per cell of each rectangle.
        self.inc_cells = np.concatenate([np.zeros(0, dtype=int)] + self.cells)
        self.inc_rects = np.repeat(np.arange(len(self.cells)), [idx.size for idx in self.cells])
        self.inc_energy = self.energies[self.inc_rects]

    def density(self) -> np.ndarray:
        """Per-cell energy density sum_{R ni x} ||Delta_R f||^2 / |R|."""
        dens = np.zeros(self.m)
        np.add.at(dens, self.inc_cells, self.inc_energy / self.measures[self.inc_rects])
        return dens

    def local_search(self, flat: np.ndarray):
        """Best-improvement single-cell toggles from a starting mask."""
        flat = flat.copy()
        if not flat.any():
            flat[0] = True
        missing = np.bincount(self.inc_rects[~flat[self.inc_cells]], minlength=len(self.energies))
        while True:
            num = float(self.energies[missing == 0].sum()) if len(self.energies) else 0.0
            size = int(flat.sum())
            ratio = num / (size * self.cell_volume)
            sel = missing[self.inc_rects]
            gain_add = np.zeros(self.m)
            np.add.at(gain_add, self.inc_cells[sel == 1], self.inc_energy[sel == 1])
            gain_rem = np.zeros(self.m)
            np.add.at(gain_rem, self.inc_cells[sel == 0], self.inc_energy[sel == 0])
            cand_add = (num + gain_add) / ((size + 1) * self.cell_volume)
            cand_add[flat] = -np.inf
            if size > 1:
                cand_rem = (num - gain_rem) / ((size - 1) * self.cell_volume)
            else:
                cand_rem = np.full(self.m, -np.inf)
            cand_rem[~flat] = -np.inf
            c_add = int(np.argmax(cand_add))
            c_rem = int(np.argmax(cand_rem))
            if cand_add[c_add] >= cand_rem[c_rem]:
                best, c, adding = float(cand_add[c_add]), c_add, True
            else:
                best, c, adding = float(cand_rem[c_rem]), c_rem, False
            if best <= ratio:
                return ratio, flat
            touched = self.inc_rects[self.inc_cells == c]
            if adding:
                flat[c] = True
                missing[touched] -= 1
            else:
                flat[c] = False
                missing[touched] += 1


def bmo_d_norm_search(
    f: GridFunction, restarts: int = 12, seed: int = 0, alpha: float | None = None
) -> PackingResult:
    """Seeded greedy local search; a certified lower bound on the exact norm.

    Seeds: superlevel sets of the cell energy density, the cell sets of
    the highest-ratio single rectangles, and `restarts` random masks.
    The reported value is the exactly recomputed ratio of the witness.
    """
    grid = f.grid
    search = _PackingSearch(f, alpha)
    seeds = []
    dens = search.density()
    thresholds = np.unique(dens[dens > 0])[::-1][:64]
    for t in thresholds:
        seeds.append(dens >= t)
    order = np.argsort(-search.energies / search.measures)[:64]
    for r in order:
        if search.energies[r] > 0:
            flat = np.zeros(search.m, dtype=bool)
            flat[search.cells[r]] = True
            seeds.append(flat)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        flat = rng.random(search.m) < 0.5
        if not flat.any():
            flat[int(rng.integers(search.m))] = True
        seeds.append(flat)
    if not seeds:
        seeds.append(np.eye(1, search.m, 0, dtype=bool).ravel())
    best_ratio, best_flat = -1.0, None
    for flat in seeds:
        ratio, out = search.local_search(flat.copy())
        if ratio > best_ratio or (
            ratio == best_ratio and out.sum() < best_flat.sum()
        ):
            best_ratio, best_flat = ratio, out
    witness = OpenSetMask(grid, best_flat.reshape(grid.shape))
    value = packing_energy(f, witness, alpha=alpha) / witness.measure
    return PackingResult(
        value=value,
        witness=witness,
        mode="search",
        diagnostics={"seeds": len(seeds), "restarts": restarts, "seed": seed},
    )


def _box_graph(grid: ProductGrid):
    """Box ids per level tuple (views of one id per entry of the cube table
    with the finest cubes), and the edges box -> child along the first
    non-finest factor of the box."""
    shape = _table_shape(grid, 1)
    ids = dict(_table_views(np.arange(math.prod(shape)).reshape(shape), grid, finest=True))
    parents, children = [], []
    for levels, box in ids.items():
        coarse = [i for i, (j, depth) in enumerate(zip(levels, grid.depths)) if j < depth]
        if coarse:
            i = coarse[0]
            # A child's box array, viewed as (boxes..., children in factor i).
            kids = _blocks(ids[levels[:i] + (levels[i] + 1,) + levels[i + 1:]], box.shape)
            parents.append(np.repeat(box.ravel(), 2 ** grid.factor_dims[i]))
            children.append(kids.ravel())
    return ids, np.concatenate(parents), np.concatenate(children)


def _edge_lists(tails: np.ndarray, n: int) -> list:
    """Per node u in 0..n-1, the edges e with tails[e] == u: the forward
    ones (e even) first, then the reverse ones, each in order."""
    edges = np.arange(tails.size).reshape(-1, 2).T.ravel()
    order = edges[np.argsort(tails[edges], kind="stable")].tolist()
    bounds = np.cumsum(np.bincount(tails, minlength=n)).tolist()
    return [order[a:b] for a, b in zip([0] + bounds[:-1], bounds)]


def _greedy_flow(adj: list, fwd: list, to: list, cap: list, s: int, t: int) -> None:
    """Route each source edge, last first, down forward arcs only (the first
    fwd[u] of adj[u]), in place on `cap`.  Only arcs out of s or into t can
    fill (the rest hold more than the whole supply), and as pushes only use
    capacity up, a node whose forward search dead-ends stays spent."""
    ptr, spent = [0] * len(adj), [False] * len(adj)
    for source in reversed(adj[s]):
        path = [source]
        while path:
            u = to[path[-1]]
            if u == t:
                push = min(cap[path[0]], cap[path[-1]])
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                del path[-1 if cap[path[0]] else 0:]  # the full sink arc, or all
                continue
            edges, k = adj[u], ptr[u]
            while k < fwd[u] and (not cap[edges[k]] or spent[to[edges[k]]]):
                k += 1
            ptr[u] = k
            if k < fwd[u]:
                path.append(edges[k])
            else:
                spent[u] = True
                path.pop()


def _finish_flow(adj: list, to: list, cap: list, s: int, t: int) -> list:
    """Complete the valid flow in `cap` (edge e's reverse is e ^ 1) to a
    maximum flow from s to t, in place, by shortest augmenting paths on
    distance-to-sink labels (Ahuja-Orlin).  A reverse BFS from t sets exact
    labels, 1 + the residual distance to t or 0 where t is out of reach; a
    current-arc DFS from s steps one label down, so it never enters a node
    that cannot reach t; a dead end takes 1 + the least label of its
    residual arcs; n // 4 + 1 relabels later the BFS runs again.  Once a
    BFS does not reach s the flow is maximum, and its labels are returned."""
    n = len(adj)
    while True:
        label = [0] * n
        label[t] = 1
        queue = [t]
        for v in queue:
            up = label[v] + 1
            for e in adj[v]:
                if cap[e ^ 1] and not label[to[e]]:
                    label[to[e]] = up
                    queue.append(to[e])
        if not label[s]:
            return label
        ptr, path, u, relabels = [0] * n, [], s, n // 4 + 1
        while relabels and 0 < label[s] <= n:
            if u == t:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                del path[next(k for k, e in enumerate(path) if not cap[e]):]
                u = to[path[-1]] if path else s
                continue
            edges, k, below = adj[u], ptr[u], label[u] - 1
            while k < len(edges) and not (cap[edges[k]] and label[to[edges[k]]] == below):
                k += 1
            if k < len(edges):
                ptr[u] = k
                path.append(edges[k])
                u = to[edges[k]]
                continue
            # Residual arcs only to label 0 mean no path to t, and augmenting
            # elsewhere never opens one: then the label drops to 0 as well.
            label[u] = 1 + min([label[to[e]] for e in edges if cap[e] and label[to[e]]],
                               default=-1)
            ptr[u] = 0
            relabels -= 1
            if path:
                u = to[path.pop() ^ 1]


def _best_box(grid: ProductGrid, ids: dict, blocks: list, shift: dict) -> np.ndarray:
    """Which boxes lie in the dyadic box B of largest float ratio
    sum_{R in B} e_R / |B|.  The closure sums add the energy blocks at every
    finer level tuple, taken as suffix sums one factor at a time."""
    closure = {levels: np.zeros(box.shape) for levels, box in ids.items()}
    closure.update(blocks)
    for i, depth in enumerate(grid.depths):
        for levels in sorted(closure, key=lambda lv: -lv[i]):
            if levels[i] < depth:
                finer = closure[levels[:i] + (levels[i] + 1,) + levels[i + 1:]]
                closure[levels] = closure[levels] + _blocks(finer, closure[levels].shape).sum(
                    axis=tuple(range(-grid.n, 0)))
    best = max(closure, key=lambda lv: float(closure[lv].max()) * 2.0 ** shift[lv])
    corner = np.unravel_index(int(np.argmax(closure[best])), closure[best].shape)
    inside = np.zeros(sum(box.size for box in ids.values()), dtype=bool)
    for levels, box in ids.items():
        if all(r >= j for r, j in zip(levels, best)):
            steps = [r - j for n, r, j in zip(grid.factor_dims, levels, best) for _ in range(n)]
            inside[box[tuple(slice(c << w, (c + 1) << w) for c, w in zip(corner, steps))]] = True
    return inside


def bmo_d_norm_cut(f: GridFunction, alpha: float | None = None) -> PackingResult:
    """Exact packing norm by Dinkelbach iteration over s-t minimum cuts.

    For lambda = N/k, max over Omega of k sum_{R in Omega} e_R - N |Omega|
    is a maximum-weight closure, hence one minimum cut (Picard), on the
    dyadic box graph: the source feeds each rectangle with e_R > 0 (and
    |R| <= alpha), every box that is not a cell implies its children along
    its first non-finest factor, and each cell drains N to the sink.  The
    energies are integers over one common denominator (a power of two for
    float data), so every capacity is an exact Python int.  Iteration
    starts at the dyadic box of largest closure ratio and stops at the
    first cut with no positive closure, where lambda is the norm
    (Goldberg).  The witness is the largest optimal mask, the cells that
    cannot reach the sink in the final residual graph, and `value` is its
    recomputed packing ratio.  Each flow starts from a greedy routing of
    the source edges, finest level tuples first, down forward edges, and
    `_finish_flow` completes it by shortest augmenting paths on distance-to-
    sink labels.  It returns only after a BFS from the sink proves that no
    augmenting path is left, so the flow is maximum; every maximum flow
    leaves the same nodes unable to reach the sink, so neither the start
    nor the finisher changes the witness.
    """
    grid = f.grid
    _check_cap(alpha)  # a bad cap is a usage error even on a grid over the box cap
    n_boxes = math.prod(_table_shape(grid, 1))
    if n_boxes > CUT_BOX_CAP:
        raise ResourceCapError(
            f"{n_boxes} dyadic boxes exceed the cut engine's cap of {CUT_BOX_CAP}; "
            "bmo_d_norm_search gives a lower bound there"
        )
    ids, parents, children = _box_graph(grid)
    # |B| = 2^-shift[levels] for a box B at those levels.
    shift = {lv: sum(n * j for n, j in zip(grid.factor_dims, lv)) for lv in ids}
    blocks = _energy_blocks(f.values, grid, alpha)
    rects = np.concatenate([np.zeros(0, dtype=int)] + [ids[lv][e > 0] for lv, e in blocks])
    # Each energy is num / den exactly (den a power of two for floats); the
    # gains are the energies times one common denominator.
    ratios = [e.as_integer_ratio() for e in
              np.concatenate([np.zeros(0)] + [e[e > 0] for _, e in blocks]).tolist()]
    denominator = math.lcm(*(den for _, den in ratios))
    gains = [num * (denominator // den) for num, den in ratios]

    # Dinkelbach starts from lambda = N/k, the exact ratio of the best box.
    inside = _best_box(grid, ids, blocks, shift)
    N = sum(g for g, c in zip(gains, inside[rects].tolist()) if c)
    k = int(inside[ids[tuple(grid.depths)]].sum())

    # Boxes are nodes 0..n_boxes-1, then the source s and the sink t.  Edge
    # 2m runs tail -> head and 2m + 1 is its reverse: first cell -> t, then
    # box -> child, then s -> rectangle.
    s, t = n_boxes, n_boxes + 1
    cells = ids[tuple(grid.depths)].ravel()
    tails = np.concatenate([cells, parents, np.full(len(rects), s)])
    heads = np.concatenate([np.full(cells.size, t), children, rects]).astype(tails.dtype)
    ends = np.stack([tails, heads], axis=1).ravel()
    adj = _edge_lists(ends, t + 1)
    fwd = np.bincount(tails, minlength=t + 1).tolist()  # forward arcs per node
    to = np.stack([heads, tails], axis=1).ravel().tolist()
    feed = 2 * (cells.size + parents.size)
    cells = cells.tolist()
    rects = rects.tolist()
    cuts = 0
    while True:
        cuts += 1
        cap = [0] * len(to)
        cap[0:2 * len(cells):2] = [N] * len(cells)
        cap[2 * len(cells):feed:2] = [k * sum(gains) + 1] * parents.size
        cap[feed::2] = [k * g for g in gains]
        _greedy_flow(adj, fwd, to, cap, s, t)
        drains = _finish_flow(adj, to, cap, s, t)
        # The nodes that cannot reach the sink form the largest optimal
        # closure Omega.  Unsaturated source edges leave it a positive value
        # k N(Omega) - N |Omega|; then its ratio is the next lambda = N/k.
        if not any(cap[feed::2]):
            break
        N = sum(g for g, v in zip(gains, rects) if not drains[v])
        k = sum(not drains[v] for v in cells)

    witness = OpenSetMask(grid, np.array([not drains[v] for v in cells]).reshape(grid.shape))
    # N / k is a ratio per cell in gain units, num / den per unit measure.
    # Int division rounds correctly; round up where it rounded down.
    num, den = N << shift[tuple(grid.depths)], k * denominator
    bound = num / den
    top, bottom = bound.as_integer_ratio()
    if top * den < num * bottom:
        bound = math.nextafter(bound, math.inf)
    return PackingResult(
        value=_packed_energy(blocks, witness) / witness.measure,
        witness=witness,
        mode="cut",
        diagnostics={"cuts": cuts, "boxes": n_boxes, "rectangles": len(rects),
                     "upper_bound": bound},
    )


def shifted_packing(f: GridFunction, shift, alpha: float | None = None) -> PackingResult:
    """The exact packing norm w.r.t. the lattice translated cyclically by whole cells."""
    grid = f.grid
    shift = list(shift)
    if len(shift) != len(grid.shape):
        raise GridError("need one integer cell offset per axis")
    if any(s != int(s) for s in shift):
        raise GridError("shifts must be whole finest cells")
    shift = [int(s) for s in shift]
    axes = tuple(range(len(shift)))
    rolled = GridFunction(grid, np.roll(f.values, tuple(-s for s in shift), axis=axes))
    res = bmo_d_norm_cut(rolled, alpha=alpha)
    back = np.roll(res.witness.cells, tuple(shift), axis=axes)
    return PackingResult(res.value, OpenSetMask(grid, back), res.mode,
                         dict(res.diagnostics, shift=shift))
