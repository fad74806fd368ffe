"""Acceptance suite: one test per top-level criterion, one verdict line each.

Tolerances are pinned; random corpora are seeded and fixed.  Criterion 9's
speedup measurement is advisory (reported, not asserted).
"""

import math
import time

import numpy as np
import pytest

import dyadichardy as dh
from dyadichardy import generators
from oracles import strong_maximal_naive


# Mixed-dimension corpus, total cells <= 4096 everywhere.  The two
# 4096-cell grids appear once per cycle; the rest are cheap.
PARSEVAL_POOL = [
    dh.ProductGrid((1,), (5,)),        # 32 cells, d=1
    dh.ProductGrid((1,), (12,)),       # 4096 cells, d=1
    dh.ProductGrid((2,), (4,)),        # 256 cells, d=1
    dh.ProductGrid((1, 1), (5, 5)),    # 1024 cells, d=2
    dh.ProductGrid((1, 2), (3, 2)),    # 128 cells, d=2
    dh.ProductGrid((2, 1), (3, 3)),    # 512 cells, d=2
    dh.ProductGrid((1, 1, 1), (3, 3, 3)),  # 512 cells, d=3
    dh.ProductGrid((1, 1, 1), (2, 2, 2)),  # 64 cells, d=3
    dh.ProductGrid((1, 1), (2, 2)),    # 16 cells, d=2
    dh.ProductGrid((1, 1, 1), (4, 4, 4)),  # 4096 cells, d=3
]

_corpus_cache = {}


def parseval_corpus():
    """One streaming pass over 1000 random functions, shared by criteria
    1 and 2; records the decompose+Parseval wall time and the worst
    Parseval and reconstruction errors."""
    if _corpus_cache:
        return _corpus_cache
    rng = np.random.default_rng(20260823)
    elapsed = 0.0
    worst_parseval = 0.0
    worst_recon = 0.0
    for k in range(1000):
        grid = PARSEVAL_POOL[k % len(PARSEVAL_POOL)]
        f = dh.GridFunction(grid, rng.uniform(-1, 1, grid.shape))
        t0 = time.perf_counter()
        dec = dh.decompose(f)
        total = dec.pure_energy() + dec.hybrid_energy()
        elapsed += time.perf_counter() - t0
        l2 = f.l2_sq()
        worst_parseval = max(worst_parseval, abs(total - l2) / l2)
        back = dh.reconstruct(dec)
        err = np.abs(back.values - f.values).max()
        worst_recon = max(worst_recon, err / max(f.linf(), 1e-300))
    _corpus_cache.update(
        elapsed=elapsed, worst_parseval=worst_parseval, worst_recon=worst_recon
    )
    return _corpus_cache


def test_criterion_1_parseval(criterion):
    corpus = parseval_corpus()
    worst = corpus["worst_parseval"]
    elapsed = corpus["elapsed"]
    ok = worst <= 1e-12 and elapsed < 30.0
    criterion(1, ok,
              f"Parseval on 1000 functions, d in {{1,2,3}}: worst rel err "
              f"{worst:.3e} (tol 1e-12), decompose time {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_2_reconstruction(criterion):
    corpus = parseval_corpus()
    worst = corpus["worst_recon"]
    ok = worst <= 1e-12
    criterion(2, ok,
              f"decompose-reconstruct round trip, same corpus: worst per-cell "
              f"err {worst:.3e} x ||f||_inf (tol 1e-12)")
    assert ok


def _random_subfamily(grid, rng, keep=0.4, alpha=None):
    members = []
    for rect in dh.enumerate_rectangles(grid):
        if alpha is not None and rect.measure >= alpha:
            continue
        if rng.random() < keep:
            members.append(rect)
    return dh.RectangleFamily(grid, members)


def test_criterion_3_lemma_a(criterion):
    grids = [dh.ProductGrid((1, 1), (2, 2)), dh.ProductGrid((1, 2), (2, 1)),
             dh.ProductGrid((1, 1, 1), (1, 2, 1)),
             dh.ProductGrid((1, 1, 1), (2, 1, 1))]
    rng = np.random.default_rng(3)
    violations = 0
    min_slack = np.inf
    for t in range(1000):
        grid = grids[t % len(grids)]
        f = dh.GridFunction(grid, rng.uniform(-1, 1, grid.shape))
        fam = _random_subfamily(grid, rng)
        i = int(rng.integers(grid.d))
        rep = dh.check_lemma_a(f, fam, i)
        if not rep.passed:
            violations += 1
        min_slack = min(min_slack, rep.slack / max(rep.rhs, 1e-300))
    # tensor-atom equality case
    g = dh.ProductGrid((1, 1), (2, 2))
    rect = dh.DyadicRectangle(
        (dh.DyadicCube(0, 1, (0,)), dh.DyadicCube(1, 1, (1,))))
    atom = generators.haar_atom(g, rect, normalize=None)
    eq_rep = dh.check_lemma_a(atom, dh.RectangleFamily(g, [rect]), 0)
    eq_gap = abs(eq_rep.rhs - eq_rep.lhs)
    ok = violations == 0 and eq_gap <= 1e-12
    criterion(3, ok,
              f"slice inequality, 1000 trials d in {{2,3}}: {violations} "
              f"violations (slack tol 1e-10 rhs), atom equality gap {eq_gap:.1e}")
    assert ok


def test_criterion_4_pigeonhole_split(criterion):
    grids = [dh.ProductGrid((1, 1), (3, 3)), dh.ProductGrid((1, 1, 1), (2, 2, 2))]
    rng = np.random.default_rng(4)
    uncovered = 0
    for t in range(1000):
        grid = grids[t % len(grids)]
        alpha = float(rng.choice([0.05, 0.1, 0.2, 0.4]))
        fam = _random_subfamily(grid, rng, alpha=alpha)
        res = dh.split_family(fam, alpha)
        uncovered += len(res.uncovered)
    ok = uncovered == 0
    criterion(4, ok,
              f"pigeonhole split coverage, 1000 random families d=2,3: "
              f"{uncovered} uncovered rectangles")
    assert ok


def test_criterion_5_lemma_b(criterion):
    grids = [dh.ProductGrid((1,), (3,)), dh.ProductGrid((1,), (4,)),
             dh.ProductGrid((1, 1), (2, 2)), dh.ProductGrid((1, 2), (2, 1))]
    rng = np.random.default_rng(5)
    violations = 0
    hypothesis_fails = 0
    for t in range(500):
        grid = grids[t % len(grids)]
        phi = generators.smooth_bump(
            grid,
            center=float(rng.uniform(0.35, 0.65)),
            width=float(rng.uniform(0.6, 1.0)),
        )
        b_vals = rng.uniform(-1, 1, grid.shape)
        b = dh.GridFunction(grid, b_vals / np.abs(b_vals).max())
        if t % 3 == 0:
            omega = dh.OpenSetMask.full(grid)
        else:
            omega = generators.random_mask(grid, seed=t, density=0.7)
        alpha = float(rng.choice([0.125, 0.25, 0.5]))
        rep = dh.check_lemma_b(phi, b, omega, alpha)
        if not all(rep.hypotheses.values()):
            hypothesis_fails += 1
        elif not rep.passed:
            violations += 1
    # d=1 base case against the in-proof per-cube decomposition
    base_ok = True
    g1 = dh.ProductGrid((1,), (4,))
    for seed in range(20):
        phi = generators.smooth_bump(g1)
        b_vals = np.random.default_rng(seed).uniform(-1, 1, g1.shape)
        b = dh.GridFunction(g1, b_vals / np.abs(b_vals).max())
        rep = dh.check_lemma_b_base(phi, b, 0.5)
        base_ok = base_ok and rep.passed
    ok = violations == 0 and hypothesis_fails == 0 and base_ok
    criterion(5, ok,
              f"product bound 2*d!(bmo^2+alpha^(2/n))|Omega|, 500 trials d=1,2: "
              f"{violations} violations, {hypothesis_fails} hypothesis failures, "
              f"d=1 base case {'ok' if base_ok else 'FAILED'}")
    assert ok


def test_criterion_6_packing_oracle_equivalence(criterion):
    corpus16 = [
        dh.ProductGrid((1,), (1,)), dh.ProductGrid((1,), (2,)),
        dh.ProductGrid((1,), (3,)), dh.ProductGrid((1,), (4,)),
        dh.ProductGrid((2,), (1,)), dh.ProductGrid((2,), (2,)),
        dh.ProductGrid((1, 1), (1, 1)), dh.ProductGrid((1, 1), (2, 1)),
        dh.ProductGrid((1, 1), (1, 2)), dh.ProductGrid((1, 1), (2, 2)),
        dh.ProductGrid((1, 1, 1), (1, 1, 1)), dh.ProductGrid((1, 2), (2, 1)),
        dh.ProductGrid((1, 1, 1), (2, 1, 1)),
    ]
    assert all(g.cell_count <= 16 for g in corpus16)
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    worst = 0.0
    witness_ok = True
    for t in range(200):
        grid = corpus16[t % len(corpus16)]
        f = dh.GridFunction(grid, rng.uniform(-1, 1, grid.shape))
        ex = dh.bmo_d_norm_exact(f)
        se = dh.bmo_d_norm_search(f, restarts=8, seed=t)
        worst = max(worst, abs(se.value - ex.value) / max(ex.value, 1e-300))
        recomputed = dh.packing_energy(f, se.witness) / se.witness.measure
        witness_ok = witness_ok and se.value == recomputed
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and witness_ok and elapsed < 60.0
    criterion(6, ok,
              f"packing-norm search vs exact oracle, 200 instances <= 16 cells: "
              f"worst rel gap {worst:.3e} (tol 1e-10), witnesses certified "
              f"{'yes' if witness_ok else 'NO'}, {elapsed:.1f}s (< 60s)")
    assert ok


# Pinned by the first verified run of the delta sweep on the 64-cell grid
# with |E| = 1/16 (measured ratio 0.545166 for all three deltas; measured
# C2 <= 0.29305): bounds carry ~10% margin.
TAU_RATIO_BOUND = 0.60
TAU_C2_BOUND = 0.50


def test_criterion_7_tau_pipeline(criterion):
    g = dh.ProductGrid((1, 1), (3, 3))  # 64 cells
    E = dh.OpenSetMask.from_cell_indices(g, [0, 1, 8, 9])
    assert E.measure == 1.0 / 16.0
    details = []
    ok = True
    for delta in (0.5, 0.25, 0.125):
        rep = dh.tau_build(E, dh.TauParams(delta=delta))
        tau = rep.tau.values
        exact_on_E = bool(np.all(tau[E.cells] == 1.0))
        in_range = bool(np.all(tau >= 0.0) and np.all(tau <= 1.0 + 1e-14))
        ratio = rep.bmo_norm_measured / delta
        c2 = rep.chebyshev_c2
        ok = ok and exact_on_E and in_range
        ok = ok and ratio <= TAU_RATIO_BOUND and np.isfinite(c2) and c2 <= TAU_C2_BOUND
        details.append(f"d={delta}: ratio {ratio:.4f}, C2 {c2:.3g}")
    criterion(7, ok,
              "cutoff pipeline, |E|=1/16 on 64 cells: tau=1 on E exactly, "
              "0<=tau<=1, bmo/delta <= %.2f, C2 <= %.2f [%s]"
              % (TAU_RATIO_BOUND, TAU_C2_BOUND, "; ".join(details)))
    assert ok


def test_criterion_8_theorem_demo(criterion):
    epsilon = 1e-2
    # convergent route: H^1-bounded sequence on a d=2 grid
    cfg = dh.TheoremRunConfig(
        grid=dh.ProductGrid((1, 1), (5, 5)), generator="h1-bounded",
        epsilon=epsilon, horizon=6, search_restarts=2)
    rep = dh.theorem_demo(cfg)
    final = rep["records"][-1]
    conv_ok = (
        final["gap"] < epsilon
        and final["term_far"] < epsilon
        and final["term_f_on_supp"] < epsilon
        and final["term_fn_tau"] < epsilon
        and all(r["h1_f_n"] <= 1.0 + 1e-10 for r in rep["records"])
    )
    # counterexample route: unit-mass spikes on a deep 1-D grid
    cfg2 = dh.TheoremRunConfig(
        grid=dh.ProductGrid((1,), (11,)), generator="l1-spike",
        epsilon=epsilon, horizon=7, search_restarts=2)
    rep2 = dh.theorem_demo(cfg2)
    gaps = [r["gap"] for r in rep2["records"]]
    h1s = [r["h1_f_n"] for r in rep2["records"]]
    gap_ok = gaps[-1] >= 0.9 * abs(rep2["phi_at_x0"])
    growth_ok = all(h1s[n + 1] / h1s[n] >= 2.0 for n in range(1, len(h1s) - 1))
    ok = conv_ok and gap_ok and growth_ok
    criterion(8, ok,
              f"theorem demo: bounded route gap {final['gap']:.2e} < {epsilon} "
              f"with split terms ({final['term_far']:.1e}, "
              f"{final['term_f_on_supp']:.1e}, {final['term_fn_tau']:.1e}) all "
              f"< {epsilon}; spike route gap {gaps[-1]:.3f} >= 0.9*phi(x0)="
              f"{0.9 * abs(rep2['phi_at_x0']):.3f}, h1 growth per halving >= 2x "
              f"{'yes' if growth_ok else 'NO'}")
    assert ok


def test_criterion_9_maximal_kernel(criterion):
    small_pool = [
        dh.ProductGrid((1,), (8,)),        # 256 cells
        dh.ProductGrid((1, 1), (4, 4)),    # 256 cells
        dh.ProductGrid((1, 1), (2, 2)),    # 16 cells
        dh.ProductGrid((2,), (2,)),        # 16 cells
        dh.ProductGrid((1, 1, 1), (2, 2, 2)),  # 64 cells
        dh.ProductGrid((1,), (6,)),        # 64 cells
        dh.ProductGrid((1, 2), (3, 1)),    # 32 cells
        dh.ProductGrid((2, 1), (2, 2)),    # 64 cells
    ]
    mismatches = 0
    for t in range(100):
        grid = small_pool[t % len(small_pool)]
        f = generators.random_uniform(grid, seed=t, dyadic_bits=20)
        a = dh.strong_maximal(f).values
        b = strong_maximal_naive(f).values
        if not np.array_equal(a, b):
            mismatches += 1
    # performance at 4096 cells: advisory, reported but not gating
    g = dh.ProductGrid((1, 1), (6, 6))
    f = generators.random_uniform(g, seed=0, dyadic_bits=20)
    t0 = time.perf_counter()
    fast = dh.strong_maximal(f)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive = strong_maximal_naive(f)
    t_naive = time.perf_counter() - t0
    speedup = t_naive / t_fast
    big_equal = bool(np.array_equal(fast.values, naive.values))
    ok = mismatches == 0
    advisory = "" if speedup >= 10.0 else " (ADVISORY: below 10x, not gating)"
    criterion(9, ok,
              f"maximal kernel: {mismatches}/100 bit-for-bit mismatches on "
              f"<= 256-cell grids; 4096-cell speedup {speedup:.1f}x"
              f"{advisory}, bit-equal at 4096: {big_equal}")
    assert ok
