"""Strong maximal function, A1 weight series, and the bmo cutoff."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from dyadichardy import (
    ContractionError,
    GridError,
    GridFunction,
    OpenSetMask,
    ProductGrid,
    TauParams,
    a1_weight,
    check_a1,
    iterate_maximal,
    strong_maximal,
    tau_build,
)
from dyadichardy import generators, little_bmo_norm, maximal, windows
from oracles import (a1_weight_oracle, last_factor_max_oracle, little_bmo_p2_aligned_per_side,
                     strong_maximal_naive, strong_maximal_per_side, tied_inputs)


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(-1, 1, grid.shape))


def test_maximal_constant():
    g = ProductGrid((1, 1), (2, 2))
    c = GridFunction.constant(g, 3.0)
    assert np.allclose(strong_maximal(c).values, 3.0)


def test_maximal_pinned_1d():
    # chi_{cell 0} on 4 cells: best covering window averages 1, 1/2, 1/3, 1/4
    g = ProductGrid((1,), (2,))
    f = GridFunction(g, np.array([1.0, 0.0, 0.0, 0.0]))
    assert strong_maximal(f).values.tolist() == [1.0, 0.5, 1.0 / 3.0, 0.25]


def test_maximal_sign_invariance():
    g = ProductGrid((1, 1), (2, 1))
    f = random_function(g, 0)
    assert np.array_equal(strong_maximal(f).values, strong_maximal(-f).values)


def test_maximal_dominates_and_monotone_iterates():
    g = ProductGrid((1, 2), (2, 1))
    f = random_function(g, 1)
    mf = strong_maximal(f)
    assert np.all(mf.values >= np.abs(f.values) - 1e-14)
    mmf = strong_maximal(mf)
    assert np.all(mmf.values >= mf.values - 1e-14)
    assert np.array_equal(iterate_maximal(f, 2).values, mmf.values)
    assert np.array_equal(iterate_maximal(f, 0).values, f.values)


def test_maximal_matches_naive_tolerance():
    for seed in range(6):
        g = ProductGrid((1, 1), (2, 2)) if seed % 2 else ProductGrid((1,), (4,))
        f = random_function(g, seed)
        a = strong_maximal(f).values
        b = strong_maximal_naive(f).values
        assert np.abs(a - b).max() <= 1e-12


def test_maximal_matches_naive_bitwise_on_dyadic_data():
    # dyadically quantized inputs make every window sum exact, so the
    # prefix-sum path and the literal loop agree bit for bit
    for seed in range(6):
        g = ProductGrid((1, 1), (2, 2))
        f = generators.random_uniform(g, seed=seed, dyadic_bits=20)
        a = strong_maximal(f).values
        b = strong_maximal_naive(f).values
        assert np.array_equal(a, b)


# sha256 of strong_maximal(random_uniform(grid, seed=k)).values.tobytes(), k the
# position in this table, recorded from the per-shape kernel this one replaced.
# The inputs are not dyadic, so the digests pin the summation order, not just
# the values.
MAXIMAL_DIGESTS = {
    ((1,), (8,)): "c43f415c60b3a025f1bd3e2a9f130a30470b2e04679747962f50e6319c417eeb",
    ((1, 1), (4, 4)): "cfc2c97a3b5e4ea029a26aa22882c94d1a1275e0a88b2d0660bedf2e1ce6cdef",
    ((1, 1), (2, 2)): "7c9eab19724b87d74b4074b0cb116f200a2a180b410d2a09680acde6f232c0e8",
    ((2,), (2,)): "6a0212736ef93dd389b7517e080821a66d439a9f1eb5973add8bf45a158dfcf6",
    ((1, 1, 1), (2, 2, 2)): "4683bd9a72bc63678c40375b6db8fd159ed99b2cff47a4bdc4e207a71499dc4f",
    ((1,), (6,)): "038e90cd1435f579cf6f705b230738ebf78449ca72dcd0311e58c7f7065270d1",
    ((1, 2), (3, 1)): "397c23c64f6782b9a5768f4af35aef30fe4db257be42ed53d2865965b8985f50",
    ((2, 1), (2, 2)): "86f7be38e20d09ce48e98f43ab4f0413670c3a51ec4fdaba2ca7505cbac96019",
    ((1,), (9,)): "4688222aece3b7ed5611ed09e29c08b7519b47cc53f5f6c85f421abc36071dde",
    ((1,), (11,)): "81e421eb3cd5d8fd12acd6aecfd087b7a059b05e6033f65e4c84f518ed9d8385",
    ((1, 1), (5, 5)): "c77e9d7eef84857eac034f64038fe30d5cdde78b931ae2b1f136e9a1569bf626",
    ((1, 1, 1), (3, 3, 3)): "1be7952c18ded56da65c3ab56432e6d75d4505ec405edda9d241890a9d3731b9",
}


def test_maximal_golden_digests():
    for k, ((dims, depths), digest) in enumerate(MAXIMAL_DIGESTS.items()):
        f = generators.random_uniform(ProductGrid(dims, depths), seed=k)
        values = strong_maximal(f).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest, (dims, depths)


# The same digests on rows long enough that the interval kernel cuts them into
# many blocks of starts (one 4096-cell row; 4 x 512 cells), recorded from the
# kernel that ran the suffix max over every start/end pair.
LONG_ROW_MAXIMAL_DIGESTS = {
    ((1,), (12,)): "64e533519de2b1bfe7ff2a7aa353fda5506bb36a30564a474511aa7e843a1675",
    ((1, 1), (2, 9)): "547daeaf3cae22fde3314265d5e9b96840a48564adbcbfddd4228e7c7d5bfe5d",
}


def test_maximal_long_row_golden_digests():
    for k, ((dims, depths), digest) in enumerate(LONG_ROW_MAXIMAL_DIGESTS.items()):
        f = generators.random_uniform(ProductGrid(dims, depths), seed=k)
        values = strong_maximal(f).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest, (dims, depths)


# sha256 of strong_maximal(f).values.tobytes() for tests/oracles.py's
# tied_inputs(), recorded from the per-side window walk: many windows tie on
# these inputs, so the digests pin the result wherever the walk's order of
# maxima could matter.
TIED_MAXIMAL_DIGESTS = {
    "corner 0,0": "7dcb8c2bb9c80acbf4af4c8c9d46658a0d88460a7282166fba5b84eb45536bd9",
    "corner 0,6": "ccdd9b98325b08277d4a08387925de418e2a277928d98b42f9d2d3ca3f8226f0",
    "corner 6,0": "214a8b87bcb2ff8bbe633338a24cd505c385a4d1d244b77915dd9fd31ce32c2c",
    "corner 6,6": "9f788e0ed6e1ab519b0672b29b341daa0eaa83c36c03d00df156bad92f9136a8",
    "tau 0.5": "193a4500c8a423822299ead6f49f03216a2312f286d9eb84d77ecb62b83266f2",
    "constant": "e31bedb0d9a84d336f4601611ba5c1f0c14a22ede9bbb52afb09092dc79d6b67",
    "bump": "4903a00ff822db40318094bb0db1bca30b17e375a4d25677bf664992256a100e",
    "sparse (1, 2)x(3, 2)": "f9a77e24fc6252104d25073be8e951f63550790c24fb6e51ce0bb1ebfa9aab2e",
    "sparse (2, 1)x(2, 2)": "556a86347784e4c908590ae1134e52526e108ada4de38382ceb901c1c521e7b2",
    "sparse (1, 1, 1)x(2, 2, 2)":
        "81349781ef4ed28bb4140fc0c310d663f545fcbad35713f4c9a2b22494d837b9",
}


def test_maximal_tied_golden_digests():
    digests = {name: hashlib.sha256(strong_maximal(f).values.tobytes()).hexdigest()
               for name, f in tied_inputs()}
    assert digests == TIED_MAXIMAL_DIGESTS


def interval_data(kind, shape, rng):
    """Uniform values, u**20 spikes, sparse 0/1 ties, or zeros."""
    if kind == "random":
        return rng.uniform(-1, 1, shape)
    if kind == "spiky":
        return rng.uniform(0, 1, shape) ** 20
    if kind == "tied":
        return (rng.random(shape) < 0.1).astype(float)
    return np.zeros(shape)


@pytest.mark.parametrize("kind", ["random", "spiky", "tied", "zeros"])
@pytest.mark.parametrize("L", [1, 2, 3, 63, 64, 65, 130, 512, 2048])
def test_last_factor_max_matches_oracle(monkeypatch, L, kind):
    # Budgets of 16 and 256 elements cut even short rows into many blocks of
    # starts, most with a ragged last block; the oracle does not read BLOCK.
    # Leading rows stop at 512 cells, where the oracle's cost starts to show.
    rng = np.random.default_rng(L)
    shapes = [(L,)] + ([(2, 3, L)] if L <= 512 else []) + ([(4, 512)] if L == 512 else [])
    for shape in shapes:
        x = interval_data(kind, shape, rng)
        for count in (1, 3, 7, 12):
            want = last_factor_max_oracle(x, count).tobytes()
            for budget in (16, 256, windows.BLOCK):
                monkeypatch.setattr(windows, "BLOCK", budget)
                inside = np.zeros((1,) * x.ndim, dtype=bool)
                assert windows.last_factor_max(x, count, inside, 1).tobytes() == want, (
                    shape, count, budget)
                monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 2])
def test_last_factor_max_rows_outside_are_minus_inf(n):
    # Rows marked outside the domain read -inf (with n = 1 they skip the
    # sweep); the others, with a per-row count, match the rows run one at a time.
    rng = np.random.default_rng(n)
    x = rng.uniform(0, 1, (3, 4) + (8,) * n)
    count = rng.integers(1, 9, (3, 4) + (1,) * n)
    outside = (np.arange(4) >= np.arange(3)[:, None] + 2).reshape((3, 4) + (1,) * n)
    got = windows.last_factor_max(x, count, outside, n)
    assert np.isneginf(got[np.broadcast_to(outside, got.shape)]).all()
    for r, c in zip(*np.nonzero(~outside.reshape(3, 4))):
        one = windows.last_factor_max(x[r, c], int(count[r, c].flat[0]), np.zeros((1,) * n, bool), n)
        assert got[r, c].tobytes() == one.tobytes(), (r, c)


# Factors before the last with one axis (whose sides the walk stacks into
# runs) or with several, alone or mixed; with a cube factor after a run, the
# walk yields out of shape order.
RUN_GRIDS = [((1, 1), (3, 4)), ((1, 2), (3, 2)), ((2, 1), (2, 3)), ((1, 1, 1), (2, 3, 2)),
             ((1, 2, 1), (2, 1, 2)), ((2, 1, 1), (1, 2, 2))]


@pytest.mark.parametrize("kind", ["random", "spiky", "tied", "zeros"])
@pytest.mark.parametrize("dims, depths", RUN_GRIDS)
def test_run_walk_matches_per_side_oracle(monkeypatch, dims, depths, kind):
    # BLOCK sets the run length, 4 BLOCK // the run array's input size sides:
    # one side per run, a few with a ragged last run, and every side at once.
    grid = ProductGrid(dims, depths)
    f = GridFunction(grid, interval_data(kind, grid.shape, np.random.default_rng(grid.cell_count)))
    want = strong_maximal_per_side(f).values.tobytes()
    oracle = little_bmo_p2_aligned_per_side(f)
    for budget in (1, 3 * grid.cell_count // 2, windows.BLOCK):
        monkeypatch.setattr(windows, "BLOCK", budget)
        assert strong_maximal(f).values.tobytes() == want, budget
        res = little_bmo_norm(f, p=2, rect_class="aligned")
        assert (res.value.hex(), res.witness) == (oracle.value.hex(), oracle.witness), budget
        monkeypatch.undo()


@pytest.mark.parametrize("dims, depths", [((1, 1), (6, 6)), ((1, 1, 1), (4, 4, 4)),
                                          ((1, 1), (2, 9))])
def test_window_kernels_peak_memory(dims, depths):
    # Runs keep every temporary within a fixed multiple of BLOCK: one run of
    # every side would hold about 8 MiB per temporary on (1,1,1)x(4,4,4).
    f = generators.random_uniform(ProductGrid(dims, depths), seed=0)
    for kernel in (strong_maximal, lambda g: little_bmo_norm(g, p=2, rect_class="aligned")):
        tracemalloc.start()
        try:
            kernel(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (dims, depths, peak)


def test_a1_weight_full_domain():
    g = ProductGrid((1,), (2,))
    m, diag = a1_weight(OpenSetMask.full(g), TauParams(delta=0.5))
    assert np.allclose(m.values, 1.0)


def test_a1_weight_pinned_series():
    # E = cell 0 of 4, c = 1/2, two terms: m = (chi + (1/2)Mchi)/(3/2)
    g = ProductGrid((1,), (2,))
    E = OpenSetMask.from_cell_indices(g, [0])
    m, diag = a1_weight(E, TauParams(delta=0.5, c=0.5, kmax=1))
    expected = (np.array([1, 0, 0, 0.0]) + 0.5 * np.array([1, 0.5, 1 / 3, 0.25])) / 1.5
    assert np.allclose(m.values, expected, atol=1e-15)
    assert diag["terms_used"] == 2


def test_a1_weight_properties():
    g = ProductGrid((1, 1), (2, 2))
    E = OpenSetMask(g, np.random.default_rng(2).random(g.shape) < 0.2)
    if E.is_empty:
        E = OpenSetMask.from_cell_indices(g, [0])
    m, _ = a1_weight(E, TauParams(delta=0.5))
    assert np.all(m.values > 0)
    assert np.all(m.values <= 1.0 + 1e-14)
    assert np.all(m.values[E.cells] == 1.0)  # exact on E


def test_a1_weight_exact_on_E_long_interval():
    # the spike-route grid: 512 cells, one factor, so every interval side
    # goes through the batched last-factor kernel
    g = ProductGrid((1,), (9,))
    E = OpenSetMask.from_cell_indices(g, [0, 1, 2, 200, 201, 511])
    m, diag = a1_weight(E, TauParams(delta=0.5))
    assert diag["terms_used"] > 2
    assert np.all(m.values[E.cells] == 1.0)
    assert np.all(m.values > 0)
    assert np.all(m.values <= 1.0 + 1e-14)


def _spike_bad_set(n):
    # E_n of theorem_demo's l1-spike route on (1,)x(6,), eta = 5e-3
    grid = ProductGrid((1,), (6,))
    phi = generators.smooth_bump(grid, gradient_bound=False)
    f_n = generators.spike_sequence(grid, n)
    return OpenSetMask(grid, (np.abs(f_n.values) > 5e-3) & (phi.values != 0.0))


@pytest.fixture
def maximal_calls(monkeypatch):
    """Count the strong_maximal calls made through the module global."""
    calls = []
    inner = maximal.strong_maximal

    def counting(f):
        calls.append(1)
        return inner(f)

    monkeypatch.setattr(maximal, "strong_maximal", counting)
    return calls


# (set, params, whether its iterates reach a bitwise fixed point before the
# series stops): the spike sets E_0..E_3 do, E_4 does not.
A1_ORACLE_CASES = [
    ("full", TauParams(delta=0.5), True),
    ("full", TauParams(delta=0.5, c=0.25), True),
    *((n, TauParams(delta=0.7), n < 4) for n in range(5)),
    (2, TauParams(delta=0.7, c=0.5, tol=1e-12), True),
]


@pytest.mark.parametrize("which, params, fixed", A1_ORACLE_CASES)
def test_a1_weight_matches_oracle_with_fewer_calls(maximal_calls, which, params, fixed):
    E = OpenSetMask.full(ProductGrid((1,), (6,))) if which == "full" else _spike_bad_set(which)
    m, diag = a1_weight(E, params)
    calls = len(maximal_calls)
    m_oracle, diag_oracle = a1_weight_oracle(E, params)
    assert m.values.tobytes() == m_oracle.values.tobytes()
    assert diag.pop("maximal_calls") == calls
    assert diag == diag_oracle
    oracle_calls = diag_oracle["terms_used"] - 1  # one call per term after chi
    assert calls < oracle_calls if fixed else calls == oracle_calls


def test_iterate_maximal_stops_at_fixed_point(maximal_calls):
    # the package-level strong_maximal is not the patched module global
    grid = ProductGrid((1,), (6,))
    fixed = GridFunction(grid, np.full(grid.shape, 0.75))
    assert iterate_maximal(fixed, 5).values.tobytes() == fixed.values.tobytes()
    assert len(maximal_calls) == 1
    g = generators.random_uniform(grid, seed=0)
    expected = strong_maximal(strong_maximal(strong_maximal(g)))
    maximal_calls.clear()
    assert iterate_maximal(g, 3).values.tobytes() == expected.values.tobytes()
    assert len(maximal_calls) == 3


# sha256 of tau_build(E, TauParams(delta)) on criterion 7's E: the bytes of
# tau and m, then json.dumps([terms_used, contraction_ratios, c_used]);
# recorded before the maximal iterates stopped at a fixed point.
TAU_BUILD_DIGESTS = {
    0.5: "c3aedcfb1dd4349894d344d19516e25f2024896ca5a8acd02309a2e352f6ad6c",
    0.25: "36894c0cdb4f4f6f0e286ed3d75de4bacecdf5728568a09ce5bac836d4ea9f53",
    0.125: "d6e0a560bbd924d10d7017588cbd10ccd50b4b4af6f81fc3e4d75f9932867b63",
}


def test_tau_build_golden_digests():
    E = OpenSetMask.from_cell_indices(ProductGrid((1, 1), (3, 3)), [0, 1, 8, 9])
    for delta, digest in TAU_BUILD_DIGESTS.items():
        rep = tau_build(E, TauParams(delta=delta))
        data = (rep.tau.values.tobytes() + rep.m.values.tobytes()
                + json.dumps([rep.terms_used, rep.contraction_ratios, rep.c_used]).encode())
        assert hashlib.sha256(data).hexdigest() == digest, delta


def test_a1_weight_empty_set_rejected():
    g = ProductGrid((1,), (2,))
    with pytest.raises(GridError):
        a1_weight(OpenSetMask.empty(g), TauParams(delta=0.5))


def test_contraction_error_on_bad_c():
    g = ProductGrid((1,), (3,))
    E = OpenSetMask.from_cell_indices(g, [0])
    with pytest.raises(ContractionError):
        a1_weight(E, TauParams(delta=0.5, c=0.99, q=0.05))


def test_tau_basics():
    g = ProductGrid((1, 1), (2, 2))
    E = OpenSetMask.from_cell_indices(g, [0, 1, 4])
    rep = tau_build(E, TauParams(delta=0.5))
    tau = rep.tau.values
    assert np.all(tau[E.cells] == 1.0)  # tau = 1 on E exactly
    assert np.all(tau >= 0.0)
    assert np.all(tau <= 1.0 + 1e-14)
    assert rep.support_measure == float((tau > 0).sum()) * g.cell_volume
    # support characterization: tau > 0 iff m > e^{-1/delta}
    thresh = math.exp(-1.0 / rep.delta)
    assert np.array_equal(tau > 0, rep.m.values > thresh)


def test_log_m_in_bmo():
    from dyadichardy import little_bmo_norm
    g = ProductGrid((1,), (3,))
    E = OpenSetMask.from_cell_indices(g, [0, 1])
    m, _ = a1_weight(E, TauParams(delta=0.5))
    logm = GridFunction(g, np.log(m.values))
    assert np.isfinite(little_bmo_norm(logm).value)


def test_check_a1():
    g = ProductGrid((1,), (2,))
    assert check_a1(GridFunction.constant(g, 2.0)) == pytest.approx(1.0)
    E = OpenSetMask.from_cell_indices(g, [0])
    m, _ = a1_weight(E, TauParams(delta=0.5))
    c1 = check_a1(m)
    assert np.isfinite(c1) and c1 >= 1.0
    # scale invariance
    assert check_a1(m * 2.0) == pytest.approx(c1, rel=1e-12)
    with pytest.raises(GridError):
        check_a1(GridFunction.constant(g, 0.0))


def test_tau_params_validation():
    with pytest.raises(GridError):
        TauParams(delta=0.0)
    with pytest.raises(GridError):
        TauParams(delta=0.5, c=1.5)
    with pytest.raises(GridError):
        TauParams(delta=0.5, q=1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(GridError, match="delta must be finite and positive"):
            TauParams(delta=bad)
        with pytest.raises(GridError, match="tol must be finite and positive"):
            TauParams(delta=0.5, tol=bad)
