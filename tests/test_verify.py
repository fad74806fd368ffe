"""Inequality certification: slice bound, pigeonhole split, product bound,
max-of-bmo facts, and the convergence pipeline."""

import hashlib
import json
import math

import numpy as np
import pytest

from dyadichardy import (
    DyadicCube,
    DyadicRectangle,
    GridError,
    GridFunction,
    OpenSetMask,
    ProductGrid,
    RectangleFamily,
    TheoremRunConfig,
    check_abs_bmo,
    check_lemma_a,
    check_lemma_b,
    check_lemma_b_base,
    enumerate_rectangles,
    rectangles_in,
    slice_family,
    split_family,
    theorem_demo,
)
from dyadichardy import cli, generators
from oracles import (check_abs_bmo_oracle, check_lemma_a_oracle, oracle_data,
                     random_subfamily_oracle, rectangles_in_oracle, slice_family_oracle,
                     spike_axis_halvings_loop, split_family_oracle)


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(-1, 1, grid.shape))


def random_subfamily(grid, rng, keep=0.4, alpha=None):
    members = []
    for rect in enumerate_rectangles(grid):
        if alpha is not None and rect.measure >= alpha:
            continue
        if rng.random() < keep:
            members.append(rect)
    return RectangleFamily(grid, members)


def test_lemma_a_empty_family():
    g = ProductGrid((1, 1), (2, 2))
    rep = check_lemma_a(random_function(g, 0), RectangleFamily(g, []), 0)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_lemma_a_tensor_atom_equality():
    # pure tensor Haar atom: both sides agree to 1e-12
    g = ProductGrid((1, 1), (2, 2))
    rect = DyadicRectangle((DyadicCube(0, 1, (0,)), DyadicCube(1, 0, (0,))))
    atom = generators.haar_atom(g, rect, normalize=None)
    fam = RectangleFamily(g, [rect])
    rep = check_lemma_a(atom, fam, 0)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)


def test_lemma_a_random_trials():
    rng = np.random.default_rng(1)
    for trial in range(40):
        g = ProductGrid((1, 1), (2, 2)) if trial % 2 else ProductGrid((1, 1, 1), (1, 2, 1))
        f = GridFunction(g, rng.uniform(-1, 1, g.shape))
        fam = random_subfamily(g, rng)
        i = int(rng.integers(g.d))
        rep = check_lemma_a(f, fam, i)
        assert rep.passed, rep.to_dict()


def test_lemma_a_rejects_one_parameter():
    g = ProductGrid((1,), (2,))
    with pytest.raises(GridError):
        check_lemma_a(random_function(g, 0), RectangleFamily(g, []), 0)


def test_split_pinned_example():
    # d=2, n=(1,1): |Q1|=|Q2|=2^-2, alpha=2^-3 -> R in both classes
    g = ProductGrid((1, 1), (3, 3))
    r = DyadicRectangle((DyadicCube(0, 2, (1,)), DyadicCube(1, 2, (2,))))
    res = split_family(RectangleFamily(g, [r]), 2.0 ** -3)
    assert res.covered
    assert all(r in fam.members for fam in res.families)
    assert res.exponents == (0.5, 0.5)


def test_split_empty_family():
    g = ProductGrid((1, 1), (2, 2))
    res = split_family(RectangleFamily(g, []), 0.25)
    assert res.covered
    assert all(len(fam) == 0 for fam in res.families)


def test_split_rejects_large_rectangle():
    g = ProductGrid((1, 1), (2, 2))
    big = DyadicRectangle((DyadicCube(0, 0, (0,)), DyadicCube(1, 0, (0,))))
    with pytest.raises(GridError):
        split_family(RectangleFamily(g, [big]), 0.5)


def test_split_coverage_random_d3():
    rng = np.random.default_rng(2)
    g = ProductGrid((1, 1, 1), (2, 2, 2))
    for _ in range(30):
        alpha = float(rng.choice([0.05, 0.1, 0.3]))
        fam = random_subfamily(g, rng, alpha=alpha)
        res = split_family(fam, alpha)
        assert res.covered, res.to_dict()
        covered = set()
        for sub in res.families:
            covered |= set(sub.members)
        assert covered == set(fam.members)


def _outcome(call, *args):
    """A call's result, or the text of the GridError it raises."""
    try:
        return call(*args)
    except GridError as exc:
        return f"GridError: {exc}"


def _split_view(res):
    if isinstance(res, str):
        return res
    return res.to_dict(), [list(fam) for fam in res.families], res.uncovered


FAMILY_GRIDS = [((1,), (5,)), ((1, 1), (3, 3)), ((1, 2), (2, 1)), ((2, 1), (2, 3)),
                ((1, 1, 1), (2, 2, 2))]
# (alpha, strict) of the draw: no cap, |R| < 1/4, |R| <= 1/4.
FAMILY_CAPS = [(None, False), (0.25, True), (0.25, False)]


@pytest.mark.parametrize("cap", FAMILY_CAPS)
@pytest.mark.parametrize("dims, depths", FAMILY_GRIDS)
def test_family_operations_match_object_oracles(dims, depths, cap):
    """The family engine against the one-rectangle-at-a-time code it replaced:
    the same draws, order, membership, slices, containment, split buckets
    and errors, and Lemma A's sides to 1e-13 relative."""
    g = ProductGrid(dims, depths)
    alpha, strict = cap
    everything = enumerate_rectangles(g)
    assert list(everything) == sorted(everything, key=DyadicRectangle.sort_key)
    stranger = DyadicRectangle(tuple(DyadicCube(i, 0, (0,) * (n + 1)) for i, n in enumerate(dims)))
    for seed in range(10):
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        fam = cli._random_subfamily(g, rng, alpha=alpha, strict=strict)
        oracle = random_subfamily_oracle(g, rng_oracle, alpha=alpha, strict=strict)
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        assert list(fam) == list(fam.members) == list(oracle.members)
        assert list(fam) == sorted(fam, key=DyadicRectangle.sort_key)
        assert len(fam) == len(oracle) and fam == oracle
        members = set(oracle.members)
        assert [r in fam for r in everything] == [r in members for r in everything]
        assert stranger not in fam
        mask = OpenSetMask(g, rng.random(g.shape) < 0.7)
        for cap_in in FAMILY_CAPS:
            assert (list(rectangles_in(fam, mask, *cap_in))
                    == list(rectangles_in_oracle(fam, mask, *cap_in)))
        assert (_split_view(_outcome(split_family, fam, 0.25))
                == _split_view(_outcome(split_family_oracle, fam, 0.25)))
        f = GridFunction(g, rng.uniform(-1, 1, g.shape))
        for i in range(g.d):
            pos = tuple(int(p) for p in rng.integers(g.axis_side(i), size=dims[i]))
            sliced = _outcome(slice_family, fam, i, pos)
            sliced_oracle = _outcome(slice_family_oracle, fam, i, pos)
            assert (sliced if isinstance(sliced, str) else list(sliced)) == (
                sliced_oracle if isinstance(sliced_oracle, str) else list(sliced_oracle))
            rep = _outcome(check_lemma_a, f, fam, i)
            rep_oracle = _outcome(check_lemma_a_oracle, f, fam, i)
            if isinstance(rep_oracle, str):
                assert rep == rep_oracle
                continue
            assert rep.witness == rep_oracle.witness
            assert rep.lhs == pytest.approx(rep_oracle.lhs, rel=1e-13, abs=0)
            assert rep.rhs == pytest.approx(rep_oracle.rhs, rel=1e-13, abs=0)


def test_lemma_b_constant_b():
    # b constant: bmo term drops, lhs bounded by 2d! alpha^{2/n} |Omega|
    g = ProductGrid((1, 1), (2, 2))
    phi = generators.smooth_bump(g)
    b = GridFunction.constant(g, 0.5)
    rep = check_lemma_b(phi, b, OpenSetMask.full(g), 0.25)
    assert rep.passed
    assert rep.witness["bmo_b"] == pytest.approx(0.0, abs=1e-12)


def test_lemma_b_haar_b_full_domain():
    g = ProductGrid((1, 1), (2, 2))
    phi = GridFunction.constant(g, 1.0)
    b = generators.haar_atom(g, normalize="sup")
    rep = check_lemma_b(phi, b, OpenSetMask.full(g), 0.25)
    assert rep.passed
    assert rep.witness["d_factorial"] == 2


def test_lemma_b_hypothesis_reporting():
    g = ProductGrid((1, 1), (2, 2))
    phi = GridFunction.constant(g, 3.0)  # violates sup bound
    b = GridFunction.constant(g, 0.1)
    rep = check_lemma_b(phi, b, OpenSetMask.full(g), 0.25)
    assert not rep.hypotheses["sup phi <= 1"]
    assert not rep.passed


def test_lemma_b_constant_2dfact():
    # 2*d! enters as 2, 4, 12 for d = 1, 2, 3
    assert 2 * math.factorial(1) == 2
    assert 2 * math.factorial(2) == 4
    assert 2 * math.factorial(3) == 12
    g = ProductGrid((1, 1, 1), (1, 1, 1))
    phi = GridFunction.constant(g, 1.0)
    b = GridFunction.constant(g, 0.0)
    rep = check_lemma_b(phi, b, OpenSetMask.full(g), 0.5)
    assert rep.rhs == pytest.approx(12 * 0.5 ** (2.0 / 3.0), rel=1e-12)


def test_lemma_b_base_case_identity():
    g = ProductGrid((1,), (3,))
    phi = generators.smooth_bump(g)
    for seed in range(5):
        b_vals = np.random.default_rng(seed).uniform(-1, 1, g.shape)
        b = GridFunction(g, b_vals / np.abs(b_vals).max())
        rep = check_lemma_b_base(phi, b, 0.5)
        assert rep.passed
        assert rep.witness["identity_gap"] <= 1e-10


# sha256 of repr([json.dumps(report, sort_keys=True), ...]) of the lemma-b-base
# reports for b seeds 0..2 and alpha 1, 1/4, recorded from the per-cube scan
# over every rectangle energy that the block sums replaced.
LEMMA_B_BASE_DIGESTS = {
    ((1,), (4,)): "192707b16328e5fdaac71e1b713b08486d16480d488c28492de0b8d7353039b6",
    ((2,), (3,)): "3c87616df85c15533d84a46d787d80b73383128971d3e0c06558ae9c62adfc1a",
}


def test_lemma_b_base_golden_digests():
    for key, digest in LEMMA_B_BASE_DIGESTS.items():
        g = ProductGrid(*key)
        phi = generators.smooth_bump(g)
        reports = []
        for seed in range(3):
            b_vals = np.random.default_rng(seed).uniform(-1, 1, g.shape)
            b = GridFunction(g, b_vals / np.abs(b_vals).max())
            for alpha in (1.0, 0.25):
                rep = check_lemma_b_base(phi, b, alpha).to_dict()
                reports.append(json.dumps(rep, sort_keys=True))
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == digest, key


def test_lemma_b_base_deep_golden_digest():
    # A deeper grid, alpha = 1/64 so the coarse levels are skipped, and a
    # three-dimensional factor; recorded from the per-cube scan of L^2
    # oscillations that the dyadic oscillation kernel replaced.
    reports = []
    for dims, depths in (((1,), (8,)), ((3,), (2,))):
        g = ProductGrid(dims, depths)
        phi = generators.smooth_bump(g)
        for seed in range(3):
            b_vals = np.random.default_rng(seed).uniform(-1, 1, g.shape)
            b = GridFunction(g, b_vals / np.abs(b_vals).max())
            for alpha in (1.0, 1.0 / 64):
                reports.append(json.dumps(check_lemma_b_base(phi, b, alpha).to_dict(),
                                          sort_keys=True))
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
        "545359aef67498913c2575e0e08335efb056c0814fc1aed1544a5943aceebb46")


def test_abs_bmo_nonnegative_f():
    g = ProductGrid((1, 1), (1, 1))
    f = GridFunction(g, np.abs(np.random.default_rng(0).uniform(0.1, 1, g.shape)))
    rep = check_abs_bmo(f, f)
    assert rep.passed
    assert rep.witness["factor1_pass_rate"] == 1.0


def test_abs_bmo_random_trials():
    rng = np.random.default_rng(3)
    g = ProductGrid((1, 1), (1, 2))
    for _ in range(25):
        f = GridFunction(g, rng.uniform(-1, 1, g.shape))
        h = GridFunction(g, rng.uniform(-1, 1, g.shape))
        rep = check_abs_bmo(f, h)
        assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("dims, depths", [((1,), (4,)), ((2,), (2,)), ((1, 1), (2, 2)),
                                          ((1, 2), (2, 1)), ((1, 1, 1), (1, 1, 2)),
                                          ((1, 1), (3, 3))])
@pytest.mark.parametrize("kind", ["uniform", "integer", "mixed"])
def test_abs_bmo_matches_per_box_oracle(dims, depths, kind):
    grid = ProductGrid(dims, depths)
    for seed in range(6):
        f, g = oracle_data(grid, kind, seed), oracle_data(grid, kind, seed + 1)
        assert check_abs_bmo(f, g).to_dict() == check_abs_bmo_oracle(f, g).to_dict()


def test_theorem_config_validation():
    g = ProductGrid((1, 1), (3, 3))
    with pytest.raises(GridError):
        TheoremRunConfig(grid=g, eta=-1.0)
    with pytest.raises(GridError):
        TheoremRunConfig(grid=g, generator="bogus")
    for name in ("epsilon", "eta", "alpha", "delta"):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(GridError, match=f"{name} must be finite and positive"):
                TheoremRunConfig(grid=g, **{name: bad})


@pytest.mark.parametrize("alpha", [0, -0.5, float("nan")])
def test_split_and_rectangles_in_refuse_a_bad_cap(alpha):
    grid = ProductGrid((1, 1), (2, 2))
    family = enumerate_rectangles(grid)
    with pytest.raises(GridError, match="size cap must be positive"):
        split_family(family, alpha)
    with pytest.raises(GridError, match="size cap must be positive"):
        rectangles_in(family, OpenSetMask.full(grid), alpha)


@pytest.mark.parametrize("alpha", [0, -0.5, float("nan")])
def test_lemma_b_base_refuses_a_bad_cap(alpha):
    g = ProductGrid((1,), (3,))
    phi = generators.smooth_bump(g)
    with pytest.raises(GridError, match="size cap must be positive"):
        check_lemma_b_base(phi, phi, alpha)


def test_theorem_demo_h1_small_scale():
    g = ProductGrid((1, 1), (3, 3))
    rep = theorem_demo(TheoremRunConfig(
        grid=g, generator="h1-bounded", horizon=3, search_restarts=2))
    records = rep["records"]
    assert len(records) == 4
    assert all(r["h1_f_n"] <= 1.0 + 1e-10 for r in records)
    # the pairing gap is eventually small and E_n shrinks
    assert records[-1]["E_n_measure"] <= records[1]["E_n_measure"]
    for r in records:
        assert r["split_bound"] + 1e-12 >= 0.0
        assert np.isfinite(r["term_far"] + r["term_f_on_supp"] + r["term_fn_tau"])


def test_theorem_demo_spike_small_scale():
    g = ProductGrid((1,), (8,))
    rep = theorem_demo(TheoremRunConfig(
        grid=g, generator="l1-spike", horizon=5, search_restarts=2))
    records = rep["records"]
    gaps = [r["gap"] for r in records]
    h1s = [r["h1_f_n"] for r in records]
    # counterexample signature: pairing gap stays bounded away from 0
    # while the h1 norm blows up
    assert gaps[-1] >= 0.9 * abs(rep["phi_at_x0"])
    assert h1s[-1] / h1s[-2] >= 2.0


# sha256 of json.dumps(theorem_demo(config), sort_keys=True), recorded before
# the A1 iterates stopped at a fixed point and each distinct E_n got a single
# tau_build; the spike route's iterates reach a fixed point on E_0..E_3.
# Re-recorded when phi_tau_bmo_search (the local search's value) became
# phi_tau_bmo (the min-cut's): the reports were byte-identical once the key
# was renamed.
THEOREM_DEMO_DIGESTS = {
    ("h1-bounded", (1, 1), (3, 3), 8):
        "912e8ee8a7916f8e898c5157920839499c60177970417040571f32cc035aa309",
    ("l1-spike", (1,), (6,), 4):
        "2200d190007fb1780c040e86710e5d73fb103e41ac4bb773965784d9bd8c6f60",
}


@pytest.mark.parametrize("generator, dims, depths, horizon", THEOREM_DEMO_DIGESTS)
def test_theorem_demo_golden_digests(generator, dims, depths, horizon):
    rep = theorem_demo(TheoremRunConfig(
        grid=ProductGrid(dims, depths), generator=generator, horizon=horizon))
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == THEOREM_DEMO_DIGESTS[generator, dims, depths, horizon]


def test_theorem_demo_spike_512_golden_digest():
    # The spike route on one 512-cell row with the benchmark's parameters, so
    # that every strong_maximal call runs the interval kernel over many blocks
    # of starts; recorded from the kernel that ran the suffix max over every
    # start/end pair, and re-recorded under the key rename above.
    rep = theorem_demo(TheoremRunConfig(
        grid=ProductGrid((1,), (9,)), generator="l1-spike", epsilon=1e-2,
        horizon=7, search_restarts=2, seed=0))
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "a681d8e7b21c40d1d0de15dff8b8a9583d8092a12298aeb5a2339adfa9636cff"


@pytest.mark.parametrize("generator, dims, depths", [("h1-bounded", (1, 1), (2, 2)),
                                                     ("l1-spike", (1,), (5,))])
def test_theorem_demo_runs_without_the_search(monkeypatch, generator, dims, depths):
    # The demo's packing value comes from the min-cut engine; it draws no
    # random numbers and never calls the seeded local search.
    from dyadichardy import verify

    def refuse(*args, **kwargs):
        raise AssertionError("theorem_demo drew random numbers or ran the search")

    monkeypatch.setattr(verify, "bmo_d_norm_search", refuse, raising=False)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    rep = theorem_demo(TheoremRunConfig(grid=ProductGrid(dims, depths), generator=generator,
                                        horizon=3))
    assert rep["phi_tau_bmo"] >= 0.0 and "phi_tau_bmo_search" not in rep


def test_theorem_demo_one_cutoff_per_bad_set(monkeypatch):
    from dyadichardy import verify
    built = []
    inner = verify.tau_build

    def counting(E, params):
        built.append(E.cells.tobytes())
        return inner(E, params)

    monkeypatch.setattr(verify, "tau_build", counting)
    rep = theorem_demo(TheoremRunConfig(grid=ProductGrid((1, 1), (3, 3))))
    assert len(built) == len(set(built))
    nonempty = [r for r in rep["records"] if r["E_n_measure"] > 0]
    assert len(built) < len(nonempty)


@pytest.mark.parametrize("dims, depths", [
    ((1,), (1,)), ((1,), (6,)), ((2,), (3,)), ((1, 1), (2, 5)), ((1, 2), (4, 2)),
    ((2, 1, 1), (3, 1, 4)),
])
def test_spike_axis_halvings_match_the_round_loop(dims, depths):
    # Round r halves each axis whose cap J-1 exceeds r; n past the total is refused.
    grid = ProductGrid(dims, depths)
    total = sum(d * (j - 1) for d, j in zip(dims, depths))
    for n in range(total + 3):
        try:
            expected = spike_axis_halvings_loop(grid, n)
        except GridError:
            assert n > total
            with pytest.raises(GridError, match="cannot shrink"):
                generators._spike_axis_halvings(grid, n)
        else:
            assert generators._spike_axis_halvings(grid, n) == expected
