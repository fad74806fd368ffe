"""Square function, H^1, little bmo, and the packing-norm engines."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadichardy import (
    DyadicCube,
    DyadicRectangle,
    GridError,
    GridFunction,
    OpenSetMask,
    ProductGrid,
    ResourceCapError,
    bmo_d_norm_cut,
    bmo_d_norm_exact,
    bmo_d_norm_search,
    enumerate_rectangles,
    h1_norm,
    little_bmo_norm,
    packing_energy,
    rectangle_energies,
    shifted_packing,
    square_function,
)
from dyadichardy import generators
from dyadichardy.norms import EXACT_CELL_CAP, _oscillations
from dyadichardy.windows import AlignedBox
from oracles import exact_mask_ratios, little_bmo_oracle, oracle_data, tied_inputs


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(-1, 1, grid.shape))


def test_square_function_of_constant_is_zero():
    g = ProductGrid((1, 1), (2, 2))
    sf = square_function(GridFunction.constant(g, 5.0))
    assert np.all(sf.values == 0.0)


def test_square_function_matches_brute_force():
    from dyadichardy import delta_R
    g = ProductGrid((1, 2), (2, 1))
    f = random_function(g, 0)
    acc = np.zeros(g.shape)
    for rect in enumerate_rectangles(g):
        acc += delta_R(f, rect).as_function(g).values ** 2
    assert np.allclose(square_function(f).values, np.sqrt(acc), atol=1e-12)


def test_h1_l1_l2_comparison():
    # ||Sf||_1 <= ||Sf||_2 = (sum of rectangle energies)^{1/2} on the unit domain
    for seed in range(10):
        g = ProductGrid((1, 1), (2, 2))
        f = random_function(g, seed)
        sf = square_function(f)
        l1 = float(sf.integral())
        l2 = float(np.sqrt(sf.l2_sq()))
        total = np.sqrt(sum(rectangle_energies(f).values()))
        assert l1 <= l2 + 1e-12
        assert l2 == pytest.approx(total, rel=1e-12)


def test_h1_include_mean():
    g = ProductGrid((1,), (2,))
    c = GridFunction.constant(g, 2.0)
    assert h1_norm(c) == 0.0
    assert h1_norm(c, include_mean=True) == 2.0


def test_rectangle_energies_match_delta():
    from dyadichardy import delta_R
    g = ProductGrid((1, 1), (2, 2))
    f = random_function(g, 3)
    energies = rectangle_energies(f)
    assert len(energies) == len(set(energies)) == len(enumerate_rectangles(g))
    assert set(energies) == set(enumerate_rectangles(g).members)
    assert list(energies.values()) == [energies[r] for r in energies]
    for rect, e in energies.items():
        assert e == pytest.approx(delta_R(f, rect).l2_sq(g), abs=1e-13)
    finest = DyadicRectangle((DyadicCube(0, 2, (0,)), DyadicCube(1, 0, (0,))))
    assert finest not in energies
    with pytest.raises(TypeError):
        energies[rect] = 0.0


def packing_energy_oracle(f, mask, alpha=None):
    """Per-rectangle containment and size tests, added in canonical order."""
    total = 0.0
    for rect, e in rectangle_energies(f).items():
        if alpha is not None and rect.measure > alpha:
            continue
        if mask.contains_rectangle(rect):
            total += e
    return total


def test_packing_energy_alpha_filter():
    # Bit-equal to the per-rectangle oracle on d = 1, 2, 3 grids.
    rng = np.random.default_rng(4)
    grids = [((1,), (3,)), ((1,), (6,)), ((2,), (3,)), ((1, 1), (3, 2)),
             ((1, 2), (2, 1)), ((1, 1, 1), (2, 1, 2))]
    for g, _ in itertools.product((ProductGrid(*key) for key in grids), range(5)):
        f = random_function(g, int(rng.integers(2 ** 31)))
        full = OpenSetMask.full(g)
        total = packing_energy(f, full)
        capped = packing_energy(f, full, alpha=0.5)
        by_hand = sum(e for r, e in rectangle_energies(f).items() if r.measure <= 0.5)
        assert capped == pytest.approx(by_hand, rel=1e-12)
        assert capped <= total + 1e-15
        for density in (0.3, 0.7, 0.95, 1.0):
            mask = OpenSetMask(g, rng.random(g.shape) < density)
            for alpha in (None, 1 / 2, 1 / 4, 1 / 64):
                assert packing_energy(f, mask, alpha) == packing_energy_oracle(f, mask, alpha)


@pytest.mark.parametrize("alpha", [0, -1.0, float("nan")])
def test_every_packing_engine_refuses_a_bad_cap_before_its_work(monkeypatch, alpha):
    from dyadichardy import norms
    f = random_function(ProductGrid((1, 1), (2, 2)), 3)
    monkeypatch.setattr(norms, "_energy_table", lambda *a: pytest.fail("energies computed"))
    for engine in (bmo_d_norm_cut, bmo_d_norm_exact, bmo_d_norm_search, shifted_packing):
        args = (f, [0, 0]) if engine is shifted_packing else (f,)
        with pytest.raises(GridError, match="size cap must be positive"):
            engine(*args, alpha=alpha)
    with pytest.raises(GridError, match="size cap must be positive"):
        packing_energy(f, OpenSetMask.full(f.grid), alpha=alpha)


def test_energy_tables_build_no_rectangles(monkeypatch):
    built = []
    post_init = DyadicRectangle.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DyadicRectangle, "__post_init__", counting)
    f = random_function(ProductGrid((1, 1), (3, 4)), 0)
    mask = OpenSetMask(f.grid, np.random.default_rng(0).random(f.grid.shape) < 0.8)
    assert len(rectangle_energies(f)) == 7 * 15
    assert math.fsum(rectangle_energies(f).values()) > 0.0
    assert packing_energy(f, mask, 1 / 4) > 0.0
    bmo_d_norm_exact(random_function(ProductGrid((1, 1), (2, 2)), 1))
    assert built == []
    next(iter(rectangle_energies(f)))
    assert len(built) == 1


def test_little_bmo_pinned_example():
    # 1-D values (0,1): oscillation over the whole interval, p=2 -> 1/2.
    g = ProductGrid((1,), (1,))
    f = GridFunction(g, np.array([0.0, 1.0]))
    assert little_bmo_norm(f, p=2, rect_class="dyadic").value == pytest.approx(0.5)
    assert little_bmo_norm(f, p=1, rect_class="dyadic").value == pytest.approx(0.5)


def test_little_bmo_constant_zero():
    g = ProductGrid((1, 1), (1, 2))
    c = GridFunction.constant(g, 9.0)
    for p in (1, 2):
        for rc in ("dyadic", "aligned"):
            assert little_bmo_norm(c, p=p, rect_class=rc).value == pytest.approx(0.0, abs=1e-12)


def test_little_bmo_dyadic_below_aligned():
    for seed in range(8):
        g = ProductGrid((1, 1), (2, 2))
        f = random_function(g, seed)
        dy = little_bmo_norm(f, p=2, rect_class="dyadic").value
        al = little_bmo_norm(f, p=2, rect_class="aligned").value
        assert dy <= al + 1e-12


def test_little_bmo_aligned_p1_matches_brute_force():
    g = ProductGrid((1,), (2,))
    f = GridFunction(g, np.array([0.0, 0.0, 0.0, 1.0]))
    res = little_bmo_norm(f, p=1, rect_class="aligned")
    # the pair (0, 1) at cells 2..3 deviates by 1/2; the whole row only by 3/8
    assert (res.value, res.witness) == (0.5, AlignedBox((2,), (2,)))
    assert res == little_bmo_oracle(f, 1, "aligned")


ORACLE_GRIDS = [((1,), (5,)), ((2,), (2,)), ((1, 1), (2, 3)), ((1, 2), (3, 1)),
                ((2, 1), (2, 2)), ((1, 1, 1), (2, 1, 2)), ((1, 1, 1), (1, 1, 1))]


@pytest.mark.parametrize("dims, depths", ORACLE_GRIDS)
@pytest.mark.parametrize("kind", ["uniform", "integer", "mixed"])
def test_little_bmo_matches_per_box_oracle(dims, depths, kind):
    grid = ProductGrid(dims, depths)
    for seed in range(2):
        f = oracle_data(grid, kind, seed)
        for p, rect_class in ((1, "aligned"), (1, "dyadic"), (2, "dyadic")):
            assert little_bmo_norm(f, p, rect_class) == little_bmo_oracle(f, p, rect_class)


def test_oscillation_kernel_on_boxes_over_the_buffer_size():
    # Numpy sums a strided slice of more than np.getbufsize() cells in
    # buffer-sized chunks; the kernel must still agree with .mean() there.
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, (128, 96)) * np.where(rng.random((128, 96)) < 0.5, 1e6, 1e-9)
    chunked = False
    for sides in ((120, 80), (100, 90)):
        assert math.prod(sides) > np.getbufsize()
        boxes = np.lib.stride_tricks.sliding_window_view(vals, sides)
        for p in (1, 2):
            osc = _oscillations(boxes, 2, p)
            for starts in np.ndindex(*osc.shape):
                sub = vals[tuple(slice(a, a + s) for a, s in zip(starts, sides))]
                dev = sub - sub.mean()
                assert osc[starts] == (np.abs(dev) if p == 1 else dev ** 2).mean()
                row = sub.ravel()
                chunked |= row.sum() != sub.sum()
    assert chunked  # one plain row sum rounds differently from the slice's


# sha256 of repr((value.hex(), witness.starts, witness.sides)) for
# little_bmo_norm(random_uniform(grid, seed=k), p=2, rect_class="aligned"), k
# the position in this table, recorded from the per-shape kernel this one
# replaced: value and witness (first maximum, shape-major then
# start-lexicographic) must both stay bit for bit.
LITTLE_BMO_DIGESTS = {
    ((1,), (8,)): "3181513bfcb1c9631ff2523ddb2fa9a9cbed37eca490d2c3e3cda34730408043",
    ((1, 1), (4, 4)): "c18101685d15095bd7bb6edc158a6e15bbf0a235435788ae51dea2874e7d98a8",
    ((1, 1), (2, 2)): "1bbb113fe954280f5295bab8dec6e663494c5c2d27ecff43c03ad2d516fe5119",
    ((2,), (2,)): "c9819e221486ce5fe98a9af415fda682231a6627ee302053e812446461d57241",
    ((1, 1, 1), (2, 2, 2)): "e034fefc65930906b9adf1221dd80907ce52b187162c4ee948a863785c930d7f",
    ((1,), (6,)): "28a40988487e1eac2d5581ef8f5ad0defd6cae04cdac895bec429fc986dea901",
    ((1, 2), (3, 1)): "5b534058dc35d5e88b3e00d85747f1d6e56f86eae28c38b912ba1452381668e2",
    ((2, 1), (2, 2)): "615e16cbb441d6d2591e80c6b3ea6c147e338a31249af4953b22c26c35461e14",
    ((1,), (9,)): "463946549ddc537126e97ee84f5e5b9a32623d34e923a94060ab8ee2906f4728",
    ((1,), (11,)): "cc758e2700b6a6e79225c37a30d1a08e3af4d95a770ab786ceeafa6d96e53b29",
    ((1, 1), (5, 5)): "e13b3d1f6cba0f7865fd6807f9026e07a079fd4ed432eea084fbe0e53c542b61",
    ((1, 1, 1), (3, 3, 3)): "b26c579f2ebc1562200584c5b62e35f0f02699ffb58c7c5cee399ab375e50c75",
}


def test_little_bmo_aligned_p2_golden_digests():
    for k, ((dims, depths), digest) in enumerate(LITTLE_BMO_DIGESTS.items()):
        f = generators.random_uniform(ProductGrid(dims, depths), seed=k)
        res = little_bmo_norm(f, p=2, rect_class="aligned")
        key = repr((res.value.hex(), res.witness.starts, res.witness.sides))
        assert hashlib.sha256(key.encode()).hexdigest() == digest, (dims, depths)


# The same key for little_bmo_norm(f, p=2, rect_class="aligned") on
# tests/oracles.py's tied_inputs(), recorded from the per-side window walk.
# Many boxes tie on these inputs, so the digests pin the first-maximum rule.
TIED_LITTLE_BMO_DIGESTS = {
    "corner 0,0": "d11e03c35111b1e8d5ab1a508c920a7256ae76134ece2f2b7083a74acecb8726",
    "corner 0,6": "ed0d502c3512a0e2f92572ee3bd3e3c550aede6e40bab4c5d1ecf9c9b4091501",
    "corner 6,0": "92b8c3c5409435cf7c511d72a024a89927dadeebafd3a1a47f3c256a4cd07036",
    "corner 6,6": "4b456b60933712c4f394dd31d0eb4d2b8fbe2396fd41f439b88fb0200a8a8767",
    "tau 0.5": "0541ac1cfd0eaa04c069e63c4087477fa2ebeb67982f664e183143796ece980f",
    "constant": "8052126f25e9908f5f7341daec9c70bba54a537f3eb28e9a4ed4e1ab9119869b",
    "bump": "c4e13b7e108752262a5ddaf0f91475d11c86a6a56b9875d91e4a265a23408e28",
    "sparse (1, 2)x(3, 2)": "93fdc7227d2b11145f5f415c48058a67080243d1a6d2da7d37cf19804d6582be",
    "sparse (2, 1)x(2, 2)": "f5fc063f385aa04353b777cf504e7d0c54675044349698a29ceff2ec31dfe9ca",
    "sparse (1, 1, 1)x(2, 2, 2)":
        "3228ba270915f25eb9c5a79b3a806ac31833d724f76b8d1e3071b5be0116f61f",
}


def test_little_bmo_aligned_p2_tied_golden_digests():
    digests = {}
    for name, f in tied_inputs():
        res = little_bmo_norm(f, p=2, rect_class="aligned")
        key = repr((res.value.hex(), res.witness.starts, res.witness.sides))
        digests[name] = hashlib.sha256(key.encode()).hexdigest()
    assert digests == TIED_LITTLE_BMO_DIGESTS


# sha256 of repr([(value.hex(), witness) for f, its walk]) for little_bmo_norm
# at the rect_class and p in the table name, with f = random_uniform(grid,
# seed=k), k the grid's position in LITTLE_BMO_DIGESTS, and its walk the
# cumulative sum of f over every axis in turn (so large boxes win too).  The
# witness is (starts, sides) for aligned boxes and key() for dyadic ones.
# Recorded from the per-box loops (tests/oracles.py) before the array kernel
# replaced them; (1,)x(11,) is too slow there for p=1 aligned.
LITTLE_BMO_P1_ALIGNED_DIGESTS = {
    ((1,), (8,)): "70448fed6fedb073c7da99690fb7b56fb9eecf59bf7694b2e7b17797cadf5806",
    ((1, 1), (4, 4)): "f700c2de39ca3a6d6e075b6d24dcf40a6dcef00f67132d2ddaf6ce12e51bf215",
    ((1, 1), (2, 2)): "b804d7e9dc72c57543cef6725974cbecd58bd93c69d3f025b8090706a3a75c61",
    ((2,), (2,)): "a809b053225d027087424a642924f71fa703f068b5b29a827c595624dfb96e05",
    ((1, 1, 1), (2, 2, 2)): "c0a077677dcefb264147d398c1d54f6f66ce6cef8bfb36817e2227e00b1dde39",
    ((1,), (6,)): "1eefbbf134b5046cc3bbd2882ea1596e6a4beb580f22a4f3495655bc947e96e4",
    ((1, 2), (3, 1)): "61e448d0406288da10fe95f0d0cb3940372c988a07c381e236c522ca0fbf2b67",
    ((2, 1), (2, 2)): "5dfbda5d293299fac34ad49e2e5e73cb03e81c1f8b73d6d47d96ccc15ed05827",
    ((1,), (9,)): "c291b2dcd3a13e451ff3612d002d1b6a202d415440026d12bb78bd3f9d49d8f7",
    ((1, 1), (5, 5)): "6884d64bd60ae3bd308d596ef2deb8ffb441ca9eb1d4b949a88fb1b58e9e7025",
    ((1, 1, 1), (3, 3, 3)): "5d6007f2c741ab885945284efbbc52dec1212b8d241b61138a513957c479c176",
}
LITTLE_BMO_P1_DYADIC_DIGESTS = {
    ((1,), (8,)): "1bab02a114af6b312d8d9dbf3eaef9d1931c51fabbbd0d115dbba59b37ab26d2",
    ((1, 1), (4, 4)): "8ffd8cbdff5a4496a919c1fbe2dfba99892bf852fd1269183e242f8eb7b4fa2a",
    ((1, 1), (2, 2)): "b52ee72ff6a5569800ca893b67dbe8146dc1ea534711c3ad8c418392d445dd16",
    ((2,), (2,)): "930f3ac8600edfc351fabd21ebea9ed98487618eb749487e3f78e698ff7aad5e",
    ((1, 1, 1), (2, 2, 2)): "bccfb7347aa40872c8808b22c6142c7079aed54fdf2d6a212ba7fe356944d9ba",
    ((1,), (6,)): "90dd8c1981481d23c52266882227090f6c6e2eead24bafe8522a78a119d7005e",
    ((1, 2), (3, 1)): "31b2fa8a42d852e2df25779e02f86dc62fa47aaf8c443f440f0cf0dd0e0bff46",
    ((2, 1), (2, 2)): "f2f19a485324eb6721fecf1d649a269de8a4e2bfd21a9203408ea37796084bca",
    ((1,), (9,)): "8b625e39627bcb0caba53d88f74a33c6a63aca29f55ef1e2da141150c9c7bb1e",
    ((1,), (11,)): "def3e0b3dde1761e8ddeb18f4ba47f3212758c7dff97757ea04a992e6fa6e72a",
    ((1, 1), (5, 5)): "e4ad968f7a11b1d325a6a797e189a53d0a11c192dbc72ae675bc5a7cf4e7a163",
    ((1, 1, 1), (3, 3, 3)): "cddaf67c4a064d18dea8cb015c85d8ec033f3dfb5c383288fd4424fa8986cabd",
}
LITTLE_BMO_P2_DYADIC_DIGESTS = {
    ((1,), (8,)): "f5dd8bcc19a53654a0b494551255e739cd92753796231263c6292c0bc39268b6",
    ((1, 1), (4, 4)): "5d97585f203bf2e1fe8ea291825957f1a02801d4e421879fd08c6d7f6d71e999",
    ((1, 1), (2, 2)): "b52ee72ff6a5569800ca893b67dbe8146dc1ea534711c3ad8c418392d445dd16",
    ((2,), (2,)): "9fec08bfeaceb828563e84a81b83893cc51aa9a37f2d7e32edd2b76fb9df37c4",
    ((1, 1, 1), (2, 2, 2)): "b31185cb41e48435d7c8850d25a86c44a52e7a022b326a776bafc2968c4b21d1",
    ((1,), (6,)): "51b1757ae41e64cdcc30aa4fc9cd61f34554a8c6e08cfa5334b90d662867f917",
    ((1, 2), (3, 1)): "0733f973cfd5db05fabf6d5f4cd25994e2e26f91c355c602468cc359d307bed7",
    ((2, 1), (2, 2)): "b6939f76789dc7fec135db9a1c77bc2c6b7bd521473a97e3bf2ac9c6dc398134",
    ((1,), (9,)): "eb610d07668e8e1fe3896d6f069302267c34f61457672cfb14a5a5fa51120a6a",
    ((1,), (11,)): "1d59fa901ceebe2c0d9cc90a05628af577b3957db79d082e4013d3e80964ba24",
    ((1, 1), (5, 5)): "48ef9b0f7c804d612971bfeed4ea80f059b0d346b1fe2e5f16b7f39e2ac96e35",
    ((1, 1, 1), (3, 3, 3)): "fb365a544f8ead53d8867682b3d8454d6bc712d296f79dd038338c6a9f7e83b8",
}


@pytest.mark.parametrize("p, rect_class, digests", [
    (1, "aligned", LITTLE_BMO_P1_ALIGNED_DIGESTS),
    (1, "dyadic", LITTLE_BMO_P1_DYADIC_DIGESTS),
    (2, "dyadic", LITTLE_BMO_P2_DYADIC_DIGESTS),
])
def test_little_bmo_kernel_golden_digests(p, rect_class, digests):
    grids = list(LITTLE_BMO_DIGESTS)
    for (dims, depths), digest in digests.items():
        grid = ProductGrid(dims, depths)
        f = generators.random_uniform(grid, seed=grids.index((dims, depths)))
        walk = f.values
        for axis in range(walk.ndim):
            walk = np.cumsum(walk, axis=axis)
        keys = []
        for g in (f, GridFunction(grid, walk)):
            res = little_bmo_norm(g, p=p, rect_class=rect_class)
            witness = (res.witness.key(),) if rect_class == "dyadic" else (
                res.witness.starts, res.witness.sides)
            keys.append((res.value.hex(),) + witness)
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest, (dims, depths)


def test_bmo_d_exact_haar_atom_witness():
    # atom on the left-half rectangle: witness is its support
    g = ProductGrid((1,), (2,))
    rect = DyadicRectangle((DyadicCube(0, 1, (0,)),))
    atom = generators.haar_atom(g, rect, normalize=None)
    res = bmo_d_norm_exact(atom)
    energies = rectangle_energies(atom)
    expected = energies[rect] / rect.measure
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert sorted(res.witness.cell_indices().tolist()) == [0, 1]


def test_bmo_d_exact_cap():
    # One cap of 16 cells: 16 run, 32 (the next power of two) are refused
    # before any work, with the engine that runs there named.
    assert EXACT_CELL_CAP == 16
    assert bmo_d_norm_exact(random_function(ProductGrid((1,), (4,)), 0)).diagnostics[
        "masks_enumerated"] == 2 ** 16 - 1
    with pytest.raises(ResourceCapError, match="bmo_d_norm_cut"):
        bmo_d_norm_exact(random_function(ProductGrid((1, 1), (3, 2)), 0))


def test_bmo_d_exact_refuses_oversized_mask_table():
    # 32 cells would need a table of 2^32 masks (tens of GiB); the cell cap
    # refuses them before any mask is built.
    f = generators.random_uniform(ProductGrid((1,), (5,)), seed=0)
    with pytest.raises(ResourceCapError, match="32 cells exceed .* cap of 16"):
        bmo_d_norm_exact(f)


def test_bmo_d_search_matches_exact():
    for seed in range(12):
        g = ProductGrid((1, 1), (2, 1)) if seed % 2 else ProductGrid((1,), (3,))
        f = random_function(g, seed)
        ex = bmo_d_norm_exact(f)
        se = bmo_d_norm_search(f, restarts=8, seed=seed)
        assert se.value == pytest.approx(ex.value, rel=1e-10)


def test_bmo_d_search_value_is_certified():
    # reported value equals the exactly recomputed ratio of the witness
    g = ProductGrid((1, 1), (2, 2))
    f = random_function(g, 5)
    res = bmo_d_norm_search(f, restarts=4, seed=0)
    recomputed = packing_energy(f, res.witness) / res.witness.measure
    assert res.value == recomputed


def test_bmo_d_witness_local_optimality():
    # enlarging the exact witness by a zero-energy cell lowers the ratio
    g = ProductGrid((1,), (3,))
    vals = np.zeros(8)
    vals[:2] = [1.0, -1.0]
    f = GridFunction(g, vals)
    res = bmo_d_norm_exact(f)
    outside = [i for i in range(8) if i not in res.witness.cell_indices()]
    bigger = OpenSetMask.from_cell_indices(
        g, list(res.witness.cell_indices()) + [outside[-1]]
    )
    worse = packing_energy(f, bigger) / bigger.measure
    assert worse < res.value


def test_shifted_packing_zero_shift():
    g = ProductGrid((1,), (3,))
    f = generators.haar_atom(g, normalize=None)
    base = bmo_d_norm_cut(f)
    shifted = shifted_packing(f, [0])
    assert shifted.value == base.value


def test_shifted_packing_constant_zero():
    g = ProductGrid((1,), (3,))
    c = GridFunction.constant(g, 1.0)
    for s in range(8):
        assert shifted_packing(c, [s]).value == pytest.approx(0.0, abs=1e-14)


def test_shifted_packing_sweep_finite():
    g = ProductGrid((1,), (3,))
    f = generators.haar_atom(g, normalize=None)
    table = {s: shifted_packing(f, [s]).value for s in range(8)}
    assert all(np.isfinite(v) for v in table.values())
    assert max(table.values()) > 0


def test_shifted_packing_honours_cap():
    # All the energy of the coarsest atom sits on a rectangle of measure 1.
    f = generators.haar_atom(ProductGrid((1, 1), (2, 2)), normalize=None)
    capped = shifted_packing(f, [1, 2], alpha=0.25)
    assert capped.value == 0.0
    assert shifted_packing(f, [0, 0], alpha=0.25).value == bmo_d_norm_cut(f, alpha=0.25).value
    assert shifted_packing(f, [0, 0]).value > 0
    assert capped.diagnostics["shift"] == [1, 2]


CUT_ORACLE_GRIDS = [((1,), (3,)), ((1,), (4,)), ((1, 1), (1, 2)), ((1, 1), (2, 2)),
                    ((1, 2), (2, 1)), ((2,), (2,)), ((1, 1, 1), (1, 1, 1))]


@pytest.mark.parametrize("alpha", [None, 0.25])
@pytest.mark.parametrize("dims, depths", CUT_ORACLE_GRIDS)
def test_bmo_d_cut_matches_exact_oracle(dims, depths, alpha):
    # 7 grids x 15 seeds x 2 caps = 210 instances of at most 16 cells.
    grid = ProductGrid(dims, depths)
    for seed in range(15):
        f = generators.random_uniform(grid, seed=seed)
        exact = bmo_d_norm_exact(f, alpha=alpha)
        cut = bmo_d_norm_cut(f, alpha=alpha)
        assert abs(cut.value - exact.value) <= 1e-12 * exact.value, seed
        assert np.all(cut.witness.cells >= exact.witness.cells), seed
        assert cut.mode == "cut"
        assert cut.value <= cut.diagnostics["upper_bound"] * (1 + 1e-12)


def test_bmo_d_cut_fixes_search_underreport():
    # The local search stops 4.3 % low here; the cut is exact.
    f = generators.random_uniform(ProductGrid((1, 1), (4, 4)), seed=16)
    cut = bmo_d_norm_cut(f)
    assert cut.value == pytest.approx(0.419856, abs=5e-7)
    assert cut.value == packing_energy(f, cut.witness) / cut.witness.measure
    assert cut.value == pytest.approx(cut.diagnostics["upper_bound"], rel=1e-12)
    assert cut.diagnostics["cuts"] >= 1
    assert bmo_d_norm_search(f, restarts=4, seed=0).value == pytest.approx(0.401697, abs=5e-7)


def test_bmo_d_cut_upper_bound_is_smallest_float_above_optimum():
    from fractions import Fraction
    for seed in range(6):
        f = generators.random_uniform(ProductGrid((1, 1), (2, 2)), seed=seed)
        cut = bmo_d_norm_cut(f)
        inside = [Fraction(e) for r, e in rectangle_energies(f).items()
                  if cut.witness.contains_rectangle(r)]
        exact = sum(inside) / Fraction(cut.witness.measure)
        bound = cut.diagnostics["upper_bound"]
        assert Fraction(bound) >= exact > Fraction(np.nextafter(bound, -np.inf))


def test_bmo_d_cut_witness_is_largest_optimal_mask():
    # Two equal atoms on disjoint dyadic intervals: each support, and their
    # union, attains the norm.  The oracle keeps the smallest; the cut the union.
    from fractions import Fraction
    g = ProductGrid((1,), (3,))
    f = GridFunction(g, np.array([1.0, -1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0]))
    assert sorted(bmo_d_norm_cut(f).witness.cell_indices().tolist()) == [0, 1, 4, 5]
    assert sorted(bmo_d_norm_exact(f).witness.cell_indices().tolist()) == [0, 1]
    # Values in {-1, 0, 1} at seeds where several masks tie at the optimum:
    # there a different maximum flow would most likely change the witness.
    inputs = [f] + [GridFunction(grid, np.random.default_rng(seed).integers(-1, 2, grid.shape)
                                 .astype(float))
                    for grid, seeds in ((g, (0, 3, 8, 13)), (ProductGrid((1, 1), (1, 2)), (13, 20)))
                    for seed in seeds]
    # Exact brute force: the witness is the union of every mask attaining the norm.
    for k, f in enumerate(inputs):
        n = f.grid.cell_count
        masks = [OpenSetMask.from_cell_indices(f.grid, [c for c in range(n) if bits >> c & 1])
                 for bits in range(1, 2 ** n)]
        energies = [(r, Fraction(e)) for r, e in rectangle_energies(f).items()]
        ratios = [sum(e for r, e in energies if mask.contains_rectangle(r)) / Fraction(mask.measure)
                  for mask in masks]
        best = max(ratios)
        assert ratios.count(best) > 1, k
        union = np.zeros(f.grid.shape, dtype=bool)
        for mask, ratio in zip(masks, ratios):
            if ratio == best:
                union |= mask.cells
        assert np.array_equal(union, bmo_d_norm_cut(f).witness.cells), k


# sha256 of repr((repr(value), repr(upper_bound), cuts, boxes, rectangles))
# followed by the witness's cell bytes, for (input, dims, depths, seed,
# alpha, shift); "bump" is smooth_bump, "random" is random_uniform(seed).
# The 3-factor inputs leave rectangles that the greedy start cannot route,
# the bump takes two Dinkelbach cuts, and the last entry is shifted_packing.
CUT_DIGESTS = {
    ("random", (1, 1, 1), (3, 3, 3), 0, None, None):
        "de691a60a0efc63416ba0eee9992f474009f25ea99d30fba46122b41f4d16430",
    ("random", (1, 1, 1), (3, 3, 3), 1, None, None):
        "db0c327280d755e308a8bf39f837db96cb58f741d2cd688df286cd90a7082c39",
    ("random", (1, 1, 1), (3, 3, 3), 2, None, None):
        "a50de8e2fd2a39a5c382da164adec81cafc033b10f255efe197b8d59b08dd070",
    ("random", (1, 1), (5, 5), 0, None, None):
        "54143ce676b635351384e3d368e441666c395aa10adad7bc224ebf2a370c8d8d",
    ("random", (1, 1), (5, 5), 1, None, None):
        "651054003a8328f8507e673b03c19137c36d5329efeede970df401989703627a",
    ("random", (1, 2), (3, 2), 2, None, None):
        "905055307965eefe008a944ee9927c738fca4fcc53abf098bb840ab846e26ada",
    ("random", (1,), (9,), 0, None, None):
        "65648cdcdb3c332a0000b7fd81bf462e14dacc361bd909a8f1c04d7144a5b1d0",
    ("bump", (1, 1), (4, 4), 0, None, None):
        "d3f093c4ede47308732198885abd58b7c5cf4315a1a88d063aada960288ae04e",
    ("random", (1, 1, 1), (3, 3, 3), 3, 0.25, None):
        "730db09223c7fd1343c9b89bd2ea199e2aeee9d941bdd64e2328f80b08179dbf",
    ("random", (1, 1), (4, 4), 4, None, (3, 5)):
        "4b2970553b39c4ec3ada21c0cda5b7651b5d96909122bd9d61889489378c491b",
    # The shifted 3-factor inputs that left the flow finisher the most work,
    # and a 4-factor grid; recorded with the Dinic finisher.
    ("random", (1, 1, 1), (3, 3, 3), 0, None, (1, 1, 1)):
        "fa95f97b7ed47dff71211663a737d9bd9c52fe6c72472f83c08dd766d31516f8",
    ("random", (1, 1, 1), (3, 3, 3), 4, None, (1, 1, 1)):
        "c917a14e02e4d2e99e4c0ae5f11501c0509c5f580073cdb67a6a14aba2b3d45b",
    ("random", (1, 1, 1), (3, 3, 3), 7, None, (1, 1, 1)):
        "b9a478d824d90ae3f393d02fa970d4572d32bb16d697ff4f576ea47f17b84176",
    ("random", (1, 1, 1, 1), (2, 2, 2, 2), 0, None, None):
        "042358327112a4f2b97996fa93e9a59fe070ee47ade06577e17dde3a4196e347",
}


def test_bmo_d_cut_golden_digests():
    digests = {}
    for kind, dims, depths, seed, alpha, shift in CUT_DIGESTS:
        g = ProductGrid(dims, depths)
        f = (generators.smooth_bump(g) if kind == "bump"
             else generators.random_uniform(g, seed=seed))
        res = (bmo_d_norm_cut(f, alpha=alpha) if shift is None
               else shifted_packing(f, list(shift), alpha=alpha))
        d = res.diagnostics
        key = repr((repr(res.value), repr(d["upper_bound"]), d["cuts"], d["boxes"],
                    d["rectangles"]))
        digests[kind, dims, depths, seed, alpha, shift] = hashlib.sha256(
            key.encode() + res.witness.cells.tobytes()).hexdigest()
    assert digests == CUT_DIGESTS


def _cut_flows(monkeypatch, f, alpha):
    """Each flow problem of `bmo_d_norm_cut(f, alpha)`, on the graph it builds:
    (adj, to, zero-flow capacities, capacities after the greedy start, s, t)."""
    from dyadichardy import norms
    flows, greedy = [], norms._greedy_flow

    def record(adj, fwd, to, cap, s, t):
        zero = list(cap)
        greedy(adj, fwd, to, cap, s, t)
        flows.append((adj, to, zero, list(cap), s, t))
    with monkeypatch.context() as patch:
        patch.setattr(norms, "_greedy_flow", record)
        bmo_d_norm_cut(f, alpha=alpha)
    return flows


FLOW_GRIDS = [((1,), (6,)), ((2,), (3,)), ((1, 1), (3, 3)), ((1, 2), (3, 2)),
              ((1, 1, 1), (3, 3, 3)), ((1, 1, 1, 1), (2, 2, 2, 2))]


@pytest.mark.parametrize("alpha", [None, 0.25])
@pytest.mark.parametrize("dims, depths", FLOW_GRIDS)
def test_finish_flow_is_maximum_and_labels_the_nodes_that_drain(monkeypatch, dims, depths, alpha):
    # Checked against the edge list alone: edge e runs to[e ^ 1] -> to[e].
    from dyadichardy.norms import _finish_flow
    grid = ProductGrid(dims, depths)
    for seed in range(3):
        for adj, to, zero, greedy, s, t in _cut_flows(
                monkeypatch, generators.random_uniform(grid, seed=seed), alpha):
            n, values = len(adj), set()
            out, into = [[] for _ in range(n)], [[] for _ in range(n)]
            for e in range(len(to)):
                out[to[e ^ 1]].append(e)
                into[to[e]].append(e)
            for start in (zero, greedy):
                cap = list(start)
                label = _finish_flow(adj, to, cap, s, t)
                # Capacities: no residual is negative and each pair keeps its sum.
                assert min(cap) >= 0
                assert [a + b for a, b in zip(cap[::2], cap[1::2])] == zero[::2]
                # Conservation: edge 2m carries the flow cap[2m + 1].
                net = [0] * n
                for m, x in enumerate(cap[1::2]):
                    net[to[2 * m + 1]] -= x
                    net[to[2 * m]] += x
                assert all(v == 0 for u, v in enumerate(net) if u not in (s, t))
                assert net[t] == -net[s] >= 0
                values.add(net[t])
                # No augmenting path: t is out of reach of s.
                reach, queue = {s}, [s]
                for u in queue:
                    for e in out[u]:
                        if cap[e] and to[e] not in reach:
                            reach.add(to[e])
                            queue.append(to[e])
                assert t not in reach
                # The labels are true exactly at the nodes that reach t.
                drains, queue = {t}, [t]
                for v in queue:
                    for e in into[v]:
                        if cap[e] and to[e ^ 1] not in drains:
                            drains.add(to[e ^ 1])
                            queue.append(to[e ^ 1])
                assert [bool(x) for x in label] == [u in drains for u in range(n)]
            assert len(values) == 1  # both starts end at the maximum flow value


def test_bmo_d_cut_of_constant_is_zero():
    g = ProductGrid((1, 1), (2, 2))
    res = bmo_d_norm_cut(GridFunction.constant(g, 7.0))
    assert res.value == 0.0
    assert res.diagnostics["upper_bound"] == 0.0
    assert res.witness == OpenSetMask.full(g)


def test_bmo_d_cut_refuses_too_many_boxes():
    # Twelve one-axis factors of depth 1: 4096 cells but 3^12 dyadic boxes.
    g = ProductGrid((1,) * 12, (1,) * 12)
    with pytest.raises(ResourceCapError, match="boxes"):
        bmo_d_norm_cut(GridFunction.constant(g, 0.0))


def test_norm_homogeneity():
    g = ProductGrid((1, 1), (2, 2))
    f = random_function(g, 6)
    c = -2.5
    cf = f * c
    assert h1_norm(cf) == pytest.approx(abs(c) * h1_norm(f), rel=1e-12)
    assert little_bmo_norm(cf).value == pytest.approx(
        abs(c) * little_bmo_norm(f).value, rel=1e-12)
    mask = OpenSetMask.full(g)
    assert packing_energy(cf, mask) == pytest.approx(
        c ** 2 * packing_energy(f, mask), rel=1e-12)


def test_norms_vanish_iff_constant():
    g = ProductGrid((1, 1), (2, 2))
    rng = np.random.default_rng(8)
    f = GridFunction(g, 1.0 + 1e-6 * rng.uniform(-1, 1, g.shape))
    assert h1_norm(f) > 0
    assert little_bmo_norm(f).value > 0
    assert bmo_d_norm_search(f, restarts=2, seed=0).value > 0
    c = GridFunction.constant(g, 7.0)
    assert h1_norm(c) == 0.0
    assert bmo_d_norm_search(c, restarts=2, seed=0).value == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 10.0))
def test_h1_homogeneity_property(seed, scale):
    g = ProductGrid((1,), (3,))
    f = random_function(g, seed)
    assert h1_norm(f * scale) == pytest.approx(scale * h1_norm(f), rel=1e-9)


# sha256 of square_function(f).values bytes and of the ordered
# repr([(rect.key(), float.hex(e)), ...]) of rectangle_energies(f), recorded
# from the full-grid loops the level-tensor engine replaced.  The input for a
# grid key is random_uniform(grid, seed=k), k the position in this table;
# "piecewise" is constant on cubes two levels above the finest cells.
SQUARE_FUNCTION_DIGESTS = {
    ((1,), (5,)): (
        "6181c3737d47e7a205cbec72f2c2448fc08a0adec9e8ba96906bd228222288ab",
        "c988ad37583a6c429d5280d955698a5e1d84467ca2c7dc42783fabc14d3538a5",
    ),
    ((1,), (12,)): (
        "a0b89f54771b3f0958166a7dcceb208989f19c48ebb224e92249f767ae1a3d37",
        "d3d02cf106bc790be114f1d38fa41c5c4d88ac969393d99e1bbb2236bc556050",
    ),
    ((2,), (4,)): (
        "8b7800becd8161e9ab08e0087d64b2abfb69826f078ff648a9fd90e72013f9aa",
        "0742904d2a234c32cd52560187e0f388521056cb1199567979739f022e05e148",
    ),
    ((1, 1), (5, 5)): (
        "f336ab8c4213f4abdbb1af18b11936267c2a0789ca9bf40ff9d3dab69e1c3bce",
        "9b6b4e83cc9586845dc12429f32df42800efe045233931239b2fb8284be322bf",
    ),
    ((1, 2), (3, 2)): (
        "58d89a9b463e0c002dd5c584a94be5112a094741fd303f82cecc3243d1531e4b",
        "7e21fe37b010cd93fea942b7d5f570289964ea6bc2e679de6ba796ca0f7091e9",
    ),
    ((2, 1), (3, 3)): (
        "bd05d1900b8df0c552372e9f0d5beca0d4df91eff6286a0ac551c9424a2db0be",
        "7525ea5bc5bacf11767adccaab73374d7812e8ea7852781e2b206fb9b7a8e3d0",
    ),
    ((1, 1, 1), (3, 3, 3)): (
        "1b13beb008127b428268fbc944d7cdbc7dbb1941c62f50f7cd4b4432c5988295",
        "f2d1e576786d1ebc364a88b68ec34909bfecb6f35da1b020546d05d33de2dcd0",
    ),
    ((1, 1, 1), (2, 2, 2)): (
        "fcf4cab32bff547aff4e4fd7545861872a1011ee21bcf29208c9483bd6df47a0",
        "80a5c85539137b2bfea97997ed09e38dac52b814a0a0064b334ae8e9099dd39f",
    ),
    ((1, 1), (2, 2)): (
        "f98e6a2467f136f844ca1654c182f1cb64e75c60823fcb11f02e3fca0efda1b1",
        "455164484b9f3e898ecd2b2c373846c5e940c060d3d8fbb06f31302e89cbf860",
    ),
    ((1, 1, 1), (4, 4, 4)): (
        "9d84fa36696e7ac83f7fd36beb41e3ccba1c32d313efdc855fec62bb626ad611",
        "c314479a01ae5a52be7c972f7882f954d5effefb74efc758f649f24e00761e68",
    ),
    ((1,), (9,)): (
        "36f43c4cd524b9c1eba8c806d325af7a0ec8845108a97d0a2212935a4bdf3c32",
        "fc4ae621571b92f14462a27ea1f8e8022c7724e1727557df31821627daad19cb",
    ),
    ((3,), (2,)): (
        "8fb90f9f5bc513bc5d8f43a5d8254db342ab27add1a3c5853234eacac1752687",
        "d09e90afa4df97156316b8548a21f6cd1251d45c76c53184a0eb0f50d807520d",
    ),
    "piecewise": (
        "9ea995db74844848e80ab5171235208897c7cae9c43631d72144d77b9693f24d",
        "4c27f15220dff5eb0953cbb22273b5692c28149d37d232bb10fc4e9c848ea745",
    ),
}


def test_square_function_and_energies_golden_digests():
    for k, (key, digests) in enumerate(SQUARE_FUNCTION_DIGESTS.items()):
        if key == "piecewise":
            grid = ProductGrid((1, 2), (4, 3))
            coarse = np.random.default_rng(7).uniform(-1.0, 1.0, [s // 4 for s in grid.shape])
            f = GridFunction(grid, np.kron(coarse, np.ones((4,) * coarse.ndim)))
        else:
            f = generators.random_uniform(ProductGrid(*key), seed=k)
        energies = [(r.key(), float.hex(e)) for r, e in rectangle_energies(f).items()]
        got = (
            hashlib.sha256(square_function(f).values.tobytes()).hexdigest(),
            hashlib.sha256(repr(energies).encode()).hexdigest(),
        )
        assert got == digests, key


def _tied_exact_inputs():
    """16-cell inputs with values in {-1, 0, 1} whose best ratio is attained by
    masks on both sides of cells 14 and 15, with alpha."""
    grid = ProductGrid((1,), (4,))
    # A 4-cell box in cells 0-3 and a 2-cell box in cells 14-15 tie at ratio 1:
    # fewest cells picks the later one.
    yield grid, GridFunction(grid, [1, 1, -1, -1] + [0] * 10 + [1, -1]), None
    for dims, depths, seed, alpha in [((1,), (4,), 2, None), ((2,), (2,), 16, None),
                                      ((1, 1), (1, 3), 6, 0.25), ((1, 1), (3, 1), 7, None),
                                      ((1, 1), (2, 2), 26, 0.25)]:
        grid = ProductGrid(dims, depths)
        rng = np.random.default_rng(seed)
        yield grid, GridFunction(grid, rng.integers(-1, 2, grid.shape).astype(float)), alpha


# sha256 of repr([(witness cell indices, repr(value))]) over _tied_exact_inputs(),
# recorded from the oracle that held all 2^16 masks at once.
EXACT_TIES_DIGEST = "b2589f0fcfa7c19ada4ab22e48ea32b35694a9fb5ba894c88b3898ed9ce5e6bd"


def test_bmo_d_exact_ties_across_mask_blocks():
    # The oracle enumerates masks in blocks of 2^14, so masks that differ in
    # cells 14 or 15 fall in different blocks; ties must still go to the
    # fewest cells, then the smallest mask.
    got = []
    for grid, f, alpha in _tied_exact_inputs():
        masks, sizes, ratios = exact_mask_ratios(f, alpha)
        top = ratios.max()
        best = ratios == top
        assert len(set((masks[best] >> 14).tolist())) > 1
        pick = masks[best & (sizes == sizes[best].min())][0]
        res = bmo_d_norm_exact(f, alpha=alpha)
        cells = res.witness.cell_indices().tolist()
        assert res.value == top and sum(1 << c for c in cells) == pick
        assert res.diagnostics["masks_enumerated"] == 2 ** 16 - 1
        got.append((cells, repr(res.value)))
    assert hashlib.sha256(repr(got).encode()).hexdigest() == EXACT_TIES_DIGEST
