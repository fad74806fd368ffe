"""Per-box loops that the array oscillation kernel replaced, kept as test
oracles (every box is sliced out of the value array and reduced with
`.mean()`, and the first maximum wins on a strict `>`), the data they
are compared on, the A1-weight series loop that recomputes every
maximal iterate, the interval kernel that ran the suffix max over
every start/end pair, the window walk that took every factor before the
last one side at a time, the rectangle-family operations that built
one `DyadicRectangle` at a time and called `delta_R` per member, and the
bit-mask packing oracle that held every mask's ratio at once, the round
loop that dealt a spike's halvings over its axes; and the expectation operator, the mask slice and the literal strong maximal
function, which the package itself does not need."""

import itertools
import math

import numpy as np

from dyadichardy import (DyadicCube, DyadicRectangle, GridFunction, OpenSetMask, OscResult,
                         ProductGrid, RectangleFamily, TauParams, delta_R, generators, tau_build)
from dyadichardy.errors import ContractionError, GridError
from dyadichardy.grid import _factor_cubes, _slice_index
from dyadichardy.martingale import _coarsen
from dyadichardy.maximal import strong_maximal
from dyadichardy.norms import _rect_data
from dyadichardy.verify import PASS_TOL, InequalityReport, SplitResult
from dyadichardy.windows import (BLOCK, AlignedBox, _prefix, axis_sides, cover_max,
                                 iter_last_factor_means, iter_shapes, last_factor_max, window_sums)


def expectation(f, i, level):
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


def slice_mask(mask, i, pos):
    """The factor-i slice of a mask at a finest cell position of factor i."""
    return OpenSetMask(mask.grid.reduce(i), mask.cells[_slice_index(mask.grid, i, pos)])


def strong_maximal_naive(f):
    """Explicit loop over every aligned rectangle and its cells."""
    grid = f.grid
    a = np.abs(f.values.astype(np.float64))
    out = np.full(grid.shape, -np.inf)
    for shape in iter_shapes(grid):
        sides = axis_sides(grid, shape)
        ranges = [range(L - s + 1) for L, s in zip(grid.shape, sides)]
        for starts in itertools.product(*ranges):
            sl = tuple(slice(p, p + s) for p, s in zip(starts, sides))
            avg = a[sl].mean()
            np.maximum(out[sl], avg, out=out[sl])
    return GridFunction(grid, out)


def oracle_data(grid, kind, seed):
    """Uniform values, small integers (many tied boxes), or mixed magnitudes."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return GridFunction(grid, rng.uniform(-1, 1, grid.shape))
    if kind == "integer":
        return GridFunction(grid, rng.integers(-2, 3, grid.shape).astype(float))
    scale = np.where(rng.random(grid.shape) < 0.5, 1e6, 1e-9)
    return GridFunction(grid, rng.uniform(-1, 1, grid.shape) * scale)


def tied_inputs():
    """(name, f) pairs whose windows tie often: 0/1 indicators, a constant, a
    cutoff that is exactly 1 on its set, and a symmetric bump."""
    grid64 = ProductGrid((1, 1), (3, 3))
    for r0 in (0, 6):
        for c0 in (0, 6):
            cells = [(r0 + a) * 8 + c0 + b for a in (0, 1) for b in (0, 1)]
            mask = generators.cell_mask(grid64, cells)
            yield f"corner {r0},{c0}", GridFunction(grid64, mask.cells.astype(float))
    E = OpenSetMask.from_cell_indices(grid64, [0, 1, 8, 9])
    yield "tau 0.5", tau_build(E, TauParams(delta=0.5)).tau
    yield "constant", GridFunction.constant(grid64, 1.0)
    yield "bump", generators.smooth_bump(ProductGrid((1, 1), (4, 4)))
    for k, (dims, depths) in enumerate([((1, 2), (3, 2)), ((2, 1), (2, 2)),
                                        ((1, 1, 1), (2, 2, 2))]):
        mask = generators.random_mask(ProductGrid(dims, depths), seed=k, density=0.2)
        yield f"sparse {dims}x{depths}", GridFunction(mask.grid, mask.cells.astype(float))


def _aligned_boxes(grid):
    """(starts, shape, slices) of every aligned box, shape-major then start-lex."""
    for shape in iter_shapes(grid):
        sides = axis_sides(grid, shape)
        ranges = [range(L - s + 1) for L, s in zip(grid.shape, sides)]
        for starts in itertools.product(*ranges):
            yield starts, shape, tuple(slice(a, a + s) for a, s in zip(starts, sides))


def little_bmo_oracle(f, p, rect_class):
    """little_bmo_norm for p = 1 and 2 over dyadic boxes, and p = 1 over aligned ones."""
    grid = f.grid
    vals = f.values.astype(np.float64)
    best = -1.0
    witness = None
    if rect_class == "dyadic":
        per_factor = [_factor_cubes(grid, i, range(grid.depths[i] + 1)) for i in range(grid.d)]
        for cubes in itertools.product(*per_factor):
            rect = DyadicRectangle(tuple(cubes))
            sub = vals[rect.cell_slices(grid)]
            osc = float(((sub - sub.mean()) ** 2 if p == 2 else np.abs(sub - sub.mean())).mean())
            if osc > best:
                best, witness = osc, rect
        return OscResult(math.sqrt(max(best, 0.0)) if p == 2 else best, witness, p, rect_class)
    assert p == 1
    for starts, shape, sl in _aligned_boxes(grid):
        sub = vals[sl]
        osc = float(np.abs(sub - sub.mean()).mean())
        if osc > best:
            best = osc
            witness = AlignedBox(tuple(starts), tuple(shape))
    return OscResult(best, witness, p, rect_class)


def check_abs_bmo_oracle(f, g):
    """check_abs_bmo with one slice per aligned box and the oracle's norms."""
    grid = f.grid
    vals = f.values.astype(np.float64)
    absvals = np.abs(vals)
    worst = (0.0, 0.0)
    factor1_pass = 0
    boxes = 0
    for _, _, sl in _aligned_boxes(grid):
        sub, asub = vals[sl], absvals[sl]
        osc_f = float(np.abs(sub - sub.mean()).mean())
        osc_abs = float(np.abs(asub - asub.mean()).mean())
        boxes += 1
        if osc_abs <= osc_f + PASS_TOL:
            factor1_pass += 1
        if osc_abs - 2.0 * osc_f > worst[0] - worst[1]:
            worst = (osc_abs, 2.0 * osc_f)
    maxfg = GridFunction(grid, np.maximum(vals, g.values.astype(np.float64)))
    n_max = little_bmo_oracle(maxfg, 1, "aligned").value
    n_f = little_bmo_oracle(f, 1, "aligned").value
    n_g = little_bmo_oracle(g, 1, "aligned").value
    n_diff = little_bmo_oracle((f - g).abs(), 1, "aligned").value
    max_bound = (n_f + n_g + n_diff) / 2.0
    return InequalityReport(
        name="abs-bmo",
        lhs=worst[0],
        rhs=worst[1],
        hypotheses={"max-identity bound": n_max <= max_bound + PASS_TOL * max(1.0, max_bound)},
        witness={
            "factor1_pass_rate": factor1_pass / boxes,
            "boxes": boxes,
            "max_bmo": n_max,
            "max_bound": max_bound,
        },
    )


def a1_weight_oracle(E, params):
    """a1_weight with one strong_maximal call per series term, even past a
    fixed point of the iterates."""
    grid = E.grid
    if E.is_empty:
        raise GridError("A1 weight needs |E| > 0")
    chi = E.cells.astype(np.float64)
    iterates = [chi]
    l2s = [float(np.sqrt((chi * chi).sum() * grid.cell_volume))]
    linfs = [1.0]
    ratios = []
    adaptive = params.c is None
    c = 0.5 if adaptive else params.c
    violations = 0
    k = 0
    while True:
        if c ** k * linfs[-1] < params.tol or k >= params.kmax:
            break
        g = strong_maximal(GridFunction(grid, iterates[-1])).values
        iterates.append(g)
        l2 = float(np.sqrt((g * g).sum() * grid.cell_volume))
        ratio = l2 / l2s[-1]
        ratios.append(ratio)
        l2s.append(l2)
        linfs.append(float(g.max()))
        if adaptive:
            while c * ratio > params.q:
                c /= 2.0
        elif c * ratio > params.q:
            violations += 1
            if violations >= 3:
                raise ContractionError(
                    f"series ratio c={c} fails the contraction target q={params.q} "
                    f"(measured L2 ratio {ratio:.4g}); lower c"
                )
        k += 1
    acc = np.zeros(grid.shape)
    K = 0.0
    ck = 1.0
    for g in iterates:
        acc += ck * g
        K += ck
        ck *= c
    m = acc / K
    diagnostics = {
        "terms_used": len(iterates),
        "c": c,
        "contraction_ratios": ratios,
        "l2_norms": l2s,
        "linf_norms": linfs,
        "m_l2": float(np.sqrt((m * m).sum() * grid.cell_volume)),
        "E_measure": E.measure,
    }
    return GridFunction(grid, m), diagnostics


def last_factor_max_oracle(sums, count):
    """windows.last_factor_max with n = 1: on each block of starts, the
    suffix max over every end, then the masked max over starts."""
    L = sums.shape[-1]
    prefix = _prefix(sums, -1)
    rows = sums.size // L
    out = np.full(sums.shape, -np.inf)
    lo = 0
    while lo < L:
        hi = min(L, lo + max(1, BLOCK // (rows * (L - lo))))
        # block[..., k, j]: the interval of cells lo + k .. lo + j
        block = prefix[..., None, lo + 1:] - prefix[..., lo:hi, None]
        k = np.arange(hi - lo)
        block[..., k, k] = sums[..., lo:hi]  # one-cell windows: the cell itself
        length = np.arange(1.0, L - lo + 1) - k[:, None]
        before = length < 1  # cells x = lo + j before the start lo + k
        np.maximum(length, 1, out=length)
        length *= count
        block /= length
        block = np.maximum.accumulate(block[..., ::-1], axis=-1)[..., ::-1]
        np.copyto(block, -np.inf, where=before)
        np.maximum(out[..., lo:], block.max(axis=-2), out=out[..., lo:])
        lo = hi
    return out


def iter_window_sums_per_side(values, grid):
    """windows.iter_window_sums with every factor before the last walked one
    side at a time, in shape-lexicographic order."""
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


def strong_maximal_per_side(f):
    """strong_maximal on the per-side walk, every earlier factor lifted to
    cells with cover_max."""
    grid = f.grid
    a = np.abs(f.values.astype(np.float64))
    out = np.full(grid.shape, -np.inf)
    inside = np.zeros((1,) * a.ndim, dtype=bool)
    for shape, count, sums in iter_window_sums_per_side(a, grid):
        avg = last_factor_max(sums, count, inside, grid.factor_dims[-1])
        for axis, s in enumerate(axis_sides(grid, shape)):
            avg = cover_max(avg, s, axis)
        np.maximum(out, avg, out=out)
    return GridFunction(grid, out)


def little_bmo_p2_aligned_per_side(f):
    """little_bmo_norm(f, p=2, rect_class="aligned") on the per-side walk:
    yields in shape order, so a strict `>` keeps the first maximum."""
    grid = f.grid
    vals = f.values.astype(np.float64)
    best, witness = -1.0, None
    # Runs of last-factor sides, side axis first, so the first argmax in
    # C order is the shape-major, start-lexicographic first maximum.
    # Out-of-domain starts hold mean -inf, hence osc2 = -inf - inf = -inf.
    n, inside = grid.factor_dims[-1], np.zeros((1,) * vals.ndim, dtype=bool)
    for shape, count, sums in iter_window_sums_per_side(np.stack([vals, vals * vals]), grid):
        for sides, (mean, mean_sq) in iter_last_factor_means(sums, count, inside, n):
            osc2 = np.moveaxis(mean_sq - mean * mean, -n - 1, 0)
            pos = np.unravel_index(int(np.argmax(osc2)), osc2.shape)
            if float(osc2[pos]) > best:
                best = float(osc2[pos])
                starts = tuple(int(x) for x in pos[1:])
                witness = AlignedBox(starts, shape + (int(sides[pos[0]]),))
    return OscResult(math.sqrt(max(best, 0.0)), witness, 2, "aligned")


# ---------------------------------------------------- object-based families

def _contains_cell(cube, pos, depth):
    """Does `cube` contain the finest cell at coords `pos` (grid depth `depth`)?"""
    shift = depth - cube.level
    return all(c == (p >> shift) for c, p in zip(cube.coords, pos))


def slice_family_oracle(family, i, pos):
    """slice_family, one rectangle at a time."""
    grid = family.grid
    if grid.d < 2:
        raise GridError("slicing requires d >= 2")
    if not 0 <= i < grid.d:
        raise GridError(f"factor index {i} out of range")
    pos = tuple(int(p) for p in pos)
    if len(pos) != grid.factor_dims[i]:
        raise GridError("slice position has wrong number of coordinates")
    depth = grid.depths[i]
    reduced = grid.reduce(i)
    members = []
    for rect in family:
        if _contains_cell(rect.cubes[i], pos, depth):
            kept = [q for k, q in enumerate(rect.cubes) if k != i]
            members.append(
                DyadicRectangle(tuple(
                    DyadicCube(k, q.level, q.coords) for k, q in enumerate(kept)
                ))
            )
    return RectangleFamily(reduced, members)


def rectangles_in_oracle(family, mask, alpha=None, strict=False):
    """rectangles_in, one containment test per rectangle."""
    if alpha is not None and alpha <= 0:
        raise GridError("size cap must be positive")
    members = []
    for rect in family:
        if alpha is not None:
            m = rect.measure
            if (m >= alpha) if strict else (m > alpha):
                continue
        if mask.contains_rectangle(rect):
            members.append(rect)
    return RectangleFamily(family.grid, members)


def split_family_oracle(family, alpha):
    """split_family, one bucket test per rectangle."""
    grid = family.grid
    if grid.d < 2:
        raise GridError("the pigeonhole split needs d >= 2")
    if alpha <= 0:
        raise GridError("alpha must be positive")
    n = grid.n
    log2_alpha = math.log2(alpha)
    for rect in family:
        neg_l = -sum(
            grid.factor_dims[i] * rect.cubes[i].level for i in range(grid.d)
        )
        if not neg_l < log2_alpha:
            raise GridError(f"rectangle {rect.key()} has |R| >= alpha")
    exponents = tuple((n - grid.factor_dims[i]) / n for i in range(grid.d))
    buckets = [[] for _ in range(grid.d)]
    uncovered = []
    for rect in family:
        hit = False
        for i in range(grid.d):
            neg_li = -sum(
                grid.factor_dims[k] * rect.cubes[k].level
                for k in range(grid.d) if k != i
            )
            # |R'_i| < alpha^{N_i}  <=>  n * log2|R'_i| < (n - n_i) * log2(alpha)
            if n * neg_li < (n - grid.factor_dims[i]) * log2_alpha:
                buckets[i].append(rect)
                hit = True
        if not hit:
            uncovered.append(rect)
    return SplitResult(
        families=tuple(RectangleFamily(grid, b) for b in buckets),
        covered=not uncovered,
        uncovered=uncovered,
        exponents=exponents,
    )


def check_lemma_a_oracle(f, family, i):
    """check_lemma_a with one delta_R call per member and per sliced member."""
    grid = f.grid
    if grid.d < 2:
        raise GridError("the slice inequality needs d >= 2")
    if family.grid != grid:
        raise GridError("family grid does not match function grid")
    lhs = float(sum(delta_R(f, r).l2_sq(grid) for r in family))
    fcv = grid.factor_cell_volume(i)
    rhs = 0.0
    side = grid.axis_side(i)
    for pos in itertools.product(range(side), repeat=grid.factor_dims[i]):
        fs = f.slice_at(i, pos)
        fam_s = slice_family_oracle(family, i, pos)
        rhs += fcv * float(sum(delta_R(fs, r).l2_sq(fs.grid) for r in fam_s))
    return InequalityReport(
        name="lemma-a",
        lhs=lhs,
        rhs=rhs,
        hypotheses={"d >= 2": grid.d >= 2},
        witness={"factor": i, "family_size": len(family)},
    )


def enumerate_rectangles_oracle(grid):
    """Every Delta-eligible rectangle, built cube by cube in product order."""
    per_factor = [
        _factor_cubes(grid, i, range(grid.depths[i])) for i in range(grid.d)
    ]
    return [DyadicRectangle(cubes) for cubes in itertools.product(*per_factor)]


def random_subfamily_oracle(grid, rng, keep=0.3, alpha=None, strict=False):
    """cli._random_subfamily, one scalar draw per rectangle under the cap."""
    members = []
    for rect in enumerate_rectangles_oracle(grid):
        if alpha is not None:
            m = rect.measure
            if (m >= alpha) if strict else (m > alpha):
                continue
        if rng.random() < keep:
            members.append(rect)
    return RectangleFamily(grid, members)


def exact_mask_ratios(f, alpha=None):
    """(masks, sizes, ratios) over every nonempty cell mask at once: each
    rectangle's energy added, in canonical order, to the masks holding it."""
    grid = f.grid
    _, energies, cells = _rect_data(f, alpha)
    masks = np.arange(1, 2 ** grid.cell_count, dtype=np.int64)
    acc = np.zeros(masks.shape)
    for e, cell_idx in zip(energies, cells):
        rmask = int((1 << cell_idx).sum())
        np.add(acc, e, out=acc, where=(masks & rmask) == rmask)
    sizes = np.array([bin(m).count("1") for m in masks.tolist()])
    return masks, sizes, acc / (sizes * grid.cell_volume)


def spike_axis_halvings_loop(grid, n):
    """The round loop that dealt n support halvings over the axes, one per
    axis below its cap J-1 per round, before the list of rounds replaced it."""
    caps = [grid.depths[i] - 1 for i in range(grid.d) for _ in range(grid.factor_dims[i])]
    halvings = [0] * len(caps)
    remaining = n
    while remaining > 0:
        progressed = False
        for a in range(len(caps)):
            if remaining == 0:
                break
            if halvings[a] < caps[a]:
                halvings[a] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise GridError(f"spike support cannot shrink {n} times on this grid")
    return halvings
