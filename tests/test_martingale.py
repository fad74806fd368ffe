"""Expectation/difference operators, the full decomposition, Parseval."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadichardy import (
    DyadicCube,
    DyadicRectangle,
    GridError,
    GridFunction,
    ProductGrid,
    decompose,
    decomposition_from_dict,
    decomposition_to_dict,
    delta_R,
    enumerate_rectangles,
    reconstruct,
)
from dyadichardy import generators
from dyadichardy.grid import _table_views
from dyadichardy.martingale import HaarCoefficient, _haar_table, level_difference
from dyadichardy.norms import _energy_blocks
from oracles import expectation


SMALL_GRIDS = [
    ProductGrid((1,), (1,)),
    ProductGrid((1,), (3,)),
    ProductGrid((2,), (2,)),
    ProductGrid((1, 1), (2, 2)),
    ProductGrid((1, 2), (2, 1)),
    ProductGrid((1, 1, 1), (1, 2, 1)),
]


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(-1, 1, grid.shape))


def test_expectation_average():
    g = ProductGrid((1,), (1,))
    f = GridFunction(g, np.array([1.0, 3.0]))
    assert expectation(f, 0, 0).values.tolist() == [2.0, 2.0]
    # finest level is the identity
    assert np.array_equal(expectation(f, 0, 1).values, f.values)


def test_expectation_constant_and_idempotent():
    g = ProductGrid((1, 1), (2, 2))
    c = GridFunction.constant(g, 3.5)
    assert np.array_equal(expectation(c, 0, 1).values, c.values)
    f = random_function(g, 0)
    e = expectation(f, 1, 1)
    assert np.allclose(expectation(e, 1, 1).values, e.values)


def test_expectation_level_range():
    g = ProductGrid((1,), (2,))
    with pytest.raises(GridError):
        expectation(GridFunction.constant(g), 0, 3)


def test_delta_pinned_example():
    # 1-D, 2 cells, values (1,3): block (-1,+1), energy 1.
    g = ProductGrid((1,), (1,))
    f = GridFunction(g, np.array([1.0, 3.0]))
    rect = DyadicRectangle((DyadicCube(0, 0, (0,)),))
    coef = delta_R(f, rect)
    assert coef.block.tolist() == [-1.0, 1.0]
    assert coef.l2_sq(g) == 1.0


def test_delta_kills_constants():
    g = ProductGrid((1, 1), (2, 2))
    c = GridFunction.constant(g, 4.0)
    for rect in enumerate_rectangles(g):
        assert np.all(delta_R(c, rect).block == 0.0)


def test_delta_tensor_identity():
    # separable data: the block is the outer product of 1-D blocks
    gx = ProductGrid((1,), (2,))
    gy = ProductGrid((1,), (2,))
    g = ProductGrid((1, 1), (2, 2))
    fx = random_function(gx, 1)
    fy = random_function(gy, 2)
    f = GridFunction(g, np.outer(fx.values, fy.values))
    rect = DyadicRectangle((DyadicCube(0, 1, (1,)), DyadicCube(1, 0, (0,))))
    bx = delta_R(fx, DyadicRectangle((DyadicCube(0, 1, (1,)),))).block
    by = delta_R(fy, DyadicRectangle((DyadicCube(0, 0, (0,)),))).block
    got = delta_R(f, rect).block
    assert np.allclose(got, np.outer(bx, by), atol=1e-14)


def test_delta_block_marginals_zero():
    g = ProductGrid((1, 2), (2, 1))
    f = random_function(g, 3)
    for rect in list(enumerate_rectangles(g))[::5]:
        block = delta_R(f, rect).block  # shape (2, 2, 2)
        # per-factor child means vanish
        assert np.allclose(block.mean(axis=0), 0.0, atol=1e-14)
        assert np.allclose(block.reshape(2, 4).mean(axis=1), 0.0, atol=1e-14)


def test_delta_locality():
    g = ProductGrid((1,), (3,))
    f = random_function(g, 4)
    rect = DyadicRectangle((DyadicCube(0, 1, (0,)),))  # left half
    before = delta_R(f, rect).block.copy()
    vals = f.values.copy()
    vals[4:] += 100.0  # perturb off R
    after = delta_R(GridFunction(g, vals), rect).block
    assert np.array_equal(before, after)


def test_delta_rejects_finest_level():
    g = ProductGrid((1,), (2,))
    f = random_function(g, 5)
    with pytest.raises(GridError):
        delta_R(f, DyadicRectangle((DyadicCube(0, 2, (0,)),)))


def test_level_difference_sums_the_tiling_rectangles():
    # At one level tuple the rectangles tile the domain.
    g = ProductGrid((1, 2), (2, 1))
    f = random_function(g, 14)
    for levels in [(0, 0), (1, 0)]:
        total = sum(delta_R(f, r).as_function(g).values
                    for r in enumerate_rectangles(g) if r.levels == levels)
        assert np.allclose(level_difference(f, levels), total, atol=1e-14)
    with pytest.raises(GridError):
        level_difference(f, (2, 0))


def test_delta_vanishes_off_rectangle():
    g = ProductGrid((1,), (2,))
    f = random_function(g, 6)
    rect = DyadicRectangle((DyadicCube(0, 1, (1,)),))
    as_fn = delta_R(f, rect).as_function(g)
    assert np.all(as_fn.values[:2] == 0.0)


@pytest.mark.parametrize("grid", SMALL_GRIDS)
def test_parseval_and_reconstruction(grid):
    f = random_function(grid, hash(grid.shape) % 1000)
    dec = decompose(f)
    total = dec.pure_energy() + dec.hybrid_energy()
    l2 = f.l2_sq()
    assert abs(total - l2) <= 1e-12 * l2
    back = reconstruct(dec)
    assert np.abs(back.values - f.values).max() <= 1e-12 * max(f.linf(), 1.0)


def test_decompose_zero():
    g = ProductGrid((1, 1), (2, 2))
    dec = decompose(GridFunction.constant(g, 0.0))
    assert not dec.pure
    assert all(np.all(h.values == 0) for h in dec.hybrid.values())


def test_checkerboard_single_coefficient():
    # 2x2 checkerboard: one pure coefficient carries all energy, hybrids vanish.
    g = ProductGrid((1, 1), (1, 1))
    f = GridFunction(g, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    dec = decompose(f)
    assert len(dec.pure) == 1
    assert dec.pure_energy() == pytest.approx(1.0, abs=1e-14)
    assert dec.hybrid_energy() == pytest.approx(0.0, abs=1e-14)


def test_orthogonality():
    # <Delta_R f, Delta_R' f> = 0 for R != R', many random trials
    rng = np.random.default_rng(0)
    for trial in range(40):
        grid = SMALL_GRIDS[trial % len(SMALL_GRIDS)]
        f = GridFunction(grid, rng.uniform(-1, 1, grid.shape))
        rects = list(enumerate_rectangles(grid))
        fns = [delta_R(f, r).as_function(grid) for r in rects[:12]]
        l2 = f.l2_sq()
        for a in range(len(fns)):
            for b in range(a + 1, len(fns)):
                inner = (fns[a] * fns[b]).integral()
                assert abs(inner) <= 1e-12 * max(l2, 1.0)


def test_linearity_exact_fractions():
    # exact-arithmetic mode: linearity holds with zero error
    g = ProductGrid((1, 1), (2, 1))
    rng = np.random.default_rng(9)
    def frac_fn(seed):
        vals = np.empty(g.shape, dtype=object)
        r = np.random.default_rng(seed)
        flat = [Fraction(int(r.integers(-8, 9)), int(r.integers(1, 7)))
                for _ in range(g.cell_count)]
        vals[...] = np.array(flat, dtype=object).reshape(g.shape)
        return GridFunction(g, vals)
    f, h = frac_fn(1), frac_fn(2)
    a, b = Fraction(3, 7), Fraction(-2, 5)
    combo = GridFunction(g, a * f.values + b * h.values)
    for rect in enumerate_rectangles(g):
        lhs = delta_R(combo, rect).block
        rhs = a * delta_R(f, rect).block + b * delta_R(h, rect).block
        assert np.array_equal(lhs, rhs)  # exact equality of Fractions


def test_zeroing_a_coefficient_changes_f_by_that_delta():
    g = ProductGrid((1,), (2,))
    f = random_function(g, 11)
    dec = decompose(f)
    rect = next(iter(dec.pure))
    removed = HaarCoefficient(rect, dec.pure[rect].block.copy())
    dec.pure[rect].block[...] = 0.0  # zero it in place through its block view
    back = reconstruct(dec)
    diff = f.values - back.values
    assert np.allclose(diff, removed.as_function(g).values, atol=1e-12)


def test_export_round_trip_bit_exact():
    g = ProductGrid((1, 1), (2, 2))
    f = random_function(g, 12)
    dec = decompose(f)
    back = decomposition_from_dict(decomposition_to_dict(dec))
    assert set(back.pure) == set(dec.pure)
    for rect in dec.pure:
        assert np.array_equal(back.pure[rect].block, dec.pure[rect].block)
    for key in dec.hybrid:
        assert np.array_equal(back.hybrid[key].values, dec.hybrid[key].values)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(range(len(SMALL_GRIDS))))
def test_parseval_property(seed, gidx):
    grid = SMALL_GRIDS[gidx]
    f = random_function(grid, seed)
    dec = decompose(f)
    total = dec.pure_energy() + dec.hybrid_energy()
    assert abs(total - f.l2_sq()) <= 1e-12 * max(f.l2_sq(), 1e-30)


# sha256 of json.dumps(decomposition_to_dict(dec)), of reconstruct(dec).values
# bytes and of float.hex(dec.pure_energy()), recorded from the per-rectangle
# decomposition the level-tensor engine replaced.  The input for a grid key is
# random_uniform(grid, seed=k), k the position in this table; "piecewise" is
# constant on cubes two levels above the finest cells, so decompose prunes the
# two finest difference levels of every factor.  The inputs are not dyadic, so
# the digests pin the summation order, not just the values.
DECOMPOSITION_DIGESTS = {
    ((1,), (5,)): (
        "e8c09be60d1cad6007d996125f38e272621bc7e11be92b6a1e142bdd0f39907f",
        "dc23571891f49e6b5767e7549e7b519d3b79f116f776eaa88b2b98b09e79af4c",
        "44da5486dc7a21b4a635522925e283efb326b24a33afeb1b96a67f0bc4ec82e6",
    ),
    ((1,), (12,)): (
        "fd5cbb460f259dae4ee04a9040fd85438851b471923b9720c685da4fcb246160",
        "ef6d2912a1dbcfbba15f5549c5252d16bb02cadaef00e38b06cb025a68b1c97d",
        "994666bb790b4229beed876ece7cc6fc4be81d100722c51a03b0867393bb3927",
    ),
    ((2,), (4,)): (
        "1d52c0768a3dc93f14bca3d7e9e59add05fc568c81626f3ba8bcaaef61c21a1e",
        "3fbfc2ae16f45dba3ddd083bc0ad16a645db0c470574d4b13c967d83becff2eb",
        "7d59ced183d0c1fbef96d8ccc1c1c1ef1de724b8377e4a9b8c8572435ee6219f",
    ),
    ((1, 1), (5, 5)): (
        "2c7b0417a670935ee59d82f7f8f986b6c5fcd81ad66e93d5d5712b785ff63476",
        "6517c384cf86bfad7ad3d3f26483bd56bea79cdf09c7edb46d7ebfc639c7c104",
        "a57e8632db56091f2226bbca18387d22aa9d014a65d3908ab8953eb584ec553f",
    ),
    ((1, 2), (3, 2)): (
        "a0460bb15da4eb35c37d846a4da6457db923139f4ba4f69253b649b13ac63a76",
        "a32a5c1c5eab424834c6fe66f10e2db033bd9c309c8ac32a4dbce566c9d17a1d",
        "f3f17db801b78265a9f70ac8366f2bf97ba13bff32dfef9f1f695562db431157",
    ),
    ((2, 1), (3, 3)): (
        "8917f9f27a34bc0fabf89d5bf3c5981fa3f8c93840e59330f63a610dd5705373",
        "055073236f57ea2ea6638c81160175a5a47652efa50f04ca458d8848cd2dd598",
        "b98f65f6fe4b8f8282f4c4ce5ed31f5230ecf9c9038317382bb76d2a8eb95af2",
    ),
    ((1, 1, 1), (3, 3, 3)): (
        "40ae2c94212b272a14658446bf5b738ed406f5d89f0be06686675663219e7eb0",
        "a840fc24c8cd90acf13310d5d051005599826a92b676475cec5e2067a64acc2e",
        "f86959a9fef1ef127f0a07623100777b248f592a839efd3ef3d68b9d1eda93b7",
    ),
    ((1, 1, 1), (2, 2, 2)): (
        "832b78dff866fd5d111eef6b4c7bd501b8ea840be50c113c0a491ce9ef820453",
        "fef3daaeadd32d698fd93e996d91df301c69d198ce11e7a34e2b33e0a74f4538",
        "f344bfe3d56bf7526001d9d52a40e2e73de484a1f984fc61d0a9169dbd765462",
    ),
    ((1, 1), (2, 2)): (
        "4e3f49277dc9687888dbcfbcd103ec1b4c611ec9ca92dbdb2cc8d75ff78aff5b",
        "2ffc7b55f4fcc482a87aee2fc575b778131f3af2179cd38ac1f5bd14337df446",
        "9e95ddfdf782198a290d61e4df75dff153c475769a1eddd165a16682d66a6df9",
    ),
    ((1, 1, 1), (4, 4, 4)): (
        "d08ab96345c72c2c83089759ac1e5bad455e20beae186f7fe66089def7ae843b",
        "f807a7dc16e34ec2e7cbe222fa63a649be1d5cad64ab8a7ce2c97b07295b1f36",
        "1f3244bf71426257eca443dc53cbd50b783927f425fdcd01f19d51872031a6f9",
    ),
    ((1,), (9,)): (
        "e17b57e5338a3f4b1cc646a64192306563115a60559e0e241543439b431f42e0",
        "f3edf1dafa3c36f0de6d780c9b461a18726bc46578a16fe48bee25167ec42ae3",
        "a651437bf3cb7b4a90604692f788bc4e5f5c866baa68495da93d14f82981ee33",
    ),
    ((3,), (2,)): (
        "8628d510a19959b5ab9c84a5420123f398fe589341be358bf535bcf50fac3ca6",
        "eebb3ef3f155917a86bedeb4ee13bb09f0ee84003fdc711d7c8afce584b6fb35",
        "144cffe4555edec8fb94e20bba13a42d81c1d98068822c4d2e891e1bfd03c28a",
    ),
    "piecewise": (
        "fa9c51ff8f1d504fd671b8cf255487268fae1a3d29e3b34f5e8948bdb96aa34a",
        "7e14d0f54875de982be84d44ce4dc037bf91dbde188f1462b833299f1d0cc2e0",
        "38cbe10f4c7e75cc6855477463050a0919f2c946e861c134715ae3c7a9ed13e6",
    ),
}


def digest_inputs(keys):
    for k, key in enumerate(keys):
        if key == "piecewise":
            grid = ProductGrid((1, 2), (4, 3))
            coarse = np.random.default_rng(7).uniform(-1.0, 1.0, [s // 4 for s in grid.shape])
            yield key, GridFunction(grid, np.kron(coarse, np.ones((4,) * coarse.ndim)))
        else:
            yield key, generators.random_uniform(ProductGrid(*key), seed=k)


def test_decomposition_golden_digests():
    for key, f in digest_inputs(DECOMPOSITION_DIGESTS):
        dec = decompose(f)
        got = (
            hashlib.sha256(json.dumps(decomposition_to_dict(dec)).encode()).hexdigest(),
            hashlib.sha256(reconstruct(dec).values.tobytes()).hexdigest(),
            hashlib.sha256(float.hex(dec.pure_energy()).encode()).hexdigest(),
        )
        assert got == DECOMPOSITION_DIGESTS[key], key


def test_exact_fractions_round_trip():
    g = ProductGrid((1, 2), (2, 1))
    r = np.random.default_rng(3)
    vals = np.empty(g.cell_count, dtype=object)
    vals[:] = [Fraction(int(r.integers(-8, 9)), int(r.integers(1, 7))) for _ in range(g.cell_count)]
    f = GridFunction(g, vals.reshape(g.shape))
    dec = decompose(f)
    back = reconstruct(dec)
    assert back.values.dtype == object
    assert all(type(v) is Fraction for v in back.values.ravel())
    assert np.array_equal(back.values, f.values)  # exact equality of Fractions
    assert len(dec.pure) == 3  # object dtype is never pruned
    assert dec.pure_energy() + dec.hybrid_energy() == f.l2_sq()


def test_pure_view_is_read_only_and_canonical():
    g = ProductGrid((1, 1), (2, 2))
    f = random_function(g, 13)
    dec = decompose(f)
    rects = list(dec.pure)  # level tuples first, then coordinates
    assert rects == sorted(enumerate_rectangles(g), key=lambda r: (r.levels, r.sort_key()))
    assert len(dec.pure) == len(rects) == 9
    for rect in rects:
        assert np.allclose(dec.pure[rect].block, delta_R(f, rect).block, atol=1e-14)
    finest = DyadicRectangle((DyadicCube(0, 2, (0,)), DyadicCube(1, 0, (0,))))
    assert finest not in dec.pure
    with pytest.raises(TypeError):
        dec.pure[rects[0]] = None


# The acceptance suite's Parseval grid pool.
STACK_POOL = [((1,), (5,)), ((1,), (12,)), ((2,), (4,)), ((1, 1), (5, 5)), ((1, 2), (3, 2)),
              ((2, 1), (3, 3)), ((1, 1, 1), (3, 3, 3)), ((1, 1, 1), (2, 2, 2)), ((1, 1), (2, 2)),
              ((1, 1, 1), (4, 4, 4))]
# sha256, over the pool, of each level tuple with the bit patterns of its
# stacked Delta_R f values sorted (a record that does not depend on how the
# engine lays its blocks out) and of the stacked energies' bytes.
STACKED_DIGEST = "908752bc6b0a29fefc4c0854e2efc15e8946fd0dcbb607ebd72f12bd28aa9c1e"


def _level_tensors(values, grid):
    """[(levels, child array)] per level tuple: views of the child table."""
    return _table_views(_haar_table(values, grid), grid, 1)


def test_stacked_inputs_match_per_element_calls_bit_for_bit():
    # The engine and the energies take leading batch axes; a value's bits
    # must not depend on how many other functions ride along.
    sha = hashlib.sha256()
    for k, key in enumerate(STACK_POOL):
        grid = ProductGrid(*key)
        fs = [generators.random_uniform(grid, seed=3 * k + e).values for e in range(3)]
        stacked = np.stack(fs)
        for engine in (_level_tensors, _energy_blocks):
            together = engine(stacked, grid)
            for e, f in enumerate(fs):
                alone = engine(f, grid)
                assert [lv for lv, _ in together] == [lv for lv, _ in alone]
                for (lv, a), (_, b) in zip(together, alone):
                    assert a[e].tobytes() == b.tobytes(), (key, engine.__name__, lv, e)
        for lv, a in _level_tensors(stacked, grid):
            sha.update(repr(lv).encode() + np.sort(a.ravel().view(np.uint64)).tobytes())
        for (lv, a), (_, empty) in zip(_energy_blocks(stacked, grid), _energy_blocks(stacked[:0], grid)):
            sha.update(repr(lv).encode() + a.tobytes())
            assert empty.shape == (0,) + a.shape[1:]
    assert sha.hexdigest() == STACKED_DIGEST
