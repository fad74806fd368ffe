"""Geometry layer: grids, cubes, rectangles, masks, slices, and the cube-table layout."""

import itertools
import math
import pickle

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
    ResourceCapError,
    eligible_rectangle_count,
    enumerate_rectangles,
    rectangles_in,
    slice_family,
)
from dyadichardy.grid import _inside, _rectangle_at, _table_index, _table_shape, _table_views
from oracles import slice_mask

# d = 1-3, factor dims up to 3.
LAYOUT_GRIDS = [
    ProductGrid((1,), (3,)),
    ProductGrid((3,), (2,)),
    ProductGrid((2, 1), (2, 3)),
    ProductGrid((2, 3), (1, 1)),
    ProductGrid((1, 1, 1), (2, 2, 2)),
    ProductGrid((1, 2, 3), (1, 1, 1)),
]


def test_grid_basic_invariants():
    g = ProductGrid((1, 2), (2, 1))
    assert g.d == 2
    assert g.n == 3
    assert g.shape == (4, 2, 2)
    assert g.cell_count == 16
    # total measure is exactly 1
    assert g.cell_count * g.cell_volume == 1.0


def test_grid_validation():
    with pytest.raises(GridError):
        ProductGrid((), ())
    with pytest.raises(GridError):
        ProductGrid((1,), (0,))
    with pytest.raises(GridError):
        ProductGrid((0,), (1,))
    with pytest.raises(GridError):
        ProductGrid((1, 1), (2,))


def test_grid_sizes_set_once_leave_equality_hash_and_pickle_alone():
    a, b = ProductGrid((1, 2), (2, 1)), ProductGrid([1, 2], [2, 1])
    assert (a.shape, a.n, a.cell_count) == ((4, 2, 2), 3, 16)
    assert a == b and hash(a) == hash(b)
    assert repr(b) == "ProductGrid(factor_dims=(1, 2), depths=(2, 1))"
    back = pickle.loads(pickle.dumps(a))
    assert back == b and hash(back) == hash(b)
    assert (back.shape, back.cell_count) == (a.shape, a.cell_count)
    assert ProductGrid((2, 1), (2, 1)) != a


def test_grid_round_trip():
    g = ProductGrid((2, 1), (1, 3))
    assert ProductGrid.from_dict(g.to_dict()) == g


def test_enumerate_counts():
    # 1-D depth 1: only the unit interval.
    assert len(enumerate_rectangles(ProductGrid((1,), (1,)))) == 1
    # 1-D depth 2: levels 0 and 1 -> 1 + 2.
    assert len(enumerate_rectangles(ProductGrid((1,), (2,)))) == 3
    # d=2, (1,1) depths (2,2): 3 x 3.
    assert len(enumerate_rectangles(ProductGrid((1, 1), (2, 2)))) == 9
    for g in (ProductGrid((2,), (2,)), ProductGrid((1, 2), (2, 2))):
        assert len(enumerate_rectangles(g)) == eligible_rectangle_count(g)


def test_from_cell_indices_refuses_bad_indices():
    g = ProductGrid((1,), (2,))
    assert OpenSetMask.from_cell_indices(g, np.array([1, 3])).cell_indices().tolist() == [1, 3]
    assert OpenSetMask.from_cell_indices(g, []).is_empty
    for bad in ([1.5], [True], [np.bool_(True)], [-1], [4], [np.int64(4)], [0, "1"]):
        with pytest.raises(GridError, match="cell index"):
            OpenSetMask.from_cell_indices(g, bad)


def test_enumerate_cap():
    # (1,1)x(9,9) has 511^2 = 261 121 eligible rectangles, over the 250 000 cap.
    with pytest.raises(ResourceCapError):
        enumerate_rectangles(ProductGrid((1, 1), (9, 9)))


def test_rectangle_measure_multiplicative():
    g = ProductGrid((1, 2), (2, 1))
    for rect in enumerate_rectangles(g):
        prod = 1.0
        for q in rect.cubes:
            prod *= q.measure
        assert rect.measure == prod  # powers of two: bit-exact


def test_rectangle_key_round_trip():
    g = ProductGrid((2, 1), (2, 2))
    for rect in enumerate_rectangles(g):
        assert DyadicRectangle.from_key(rect.key()) == rect


def test_family_rejects_ineligible_levels():
    g = ProductGrid((1,), (2,))
    finest = DyadicRectangle((DyadicCube(0, 2, (0,)),))
    with pytest.raises(GridError):
        RectangleFamily(g, [finest])


def test_family_dedup_and_canonical_order():
    g = ProductGrid((1,), (2,))
    r0 = DyadicRectangle((DyadicCube(0, 0, (0,)),))
    r1 = DyadicRectangle((DyadicCube(0, 1, (1,)),))
    fam = RectangleFamily(g, [r1, r0, r1])
    assert len(fam) == 2
    assert fam.members[0] == r0  # level-major order


def test_slice_family_full_is_full():
    g = ProductGrid((1, 1), (2, 2))
    full = enumerate_rectangles(g)
    reduced_full = enumerate_rectangles(g.reduce(0))
    for pos in [(0,), (3,)]:
        assert slice_family(full, 0, pos) == reduced_full


def test_slice_family_example():
    # F = {[0,1) x [0,1/2)}: slicing in factor 0 keeps [0,1/2) at any position.
    g = ProductGrid((1, 1), (2, 2))
    rect = DyadicRectangle((DyadicCube(0, 0, (0,)), DyadicCube(1, 1, (0,))))
    fam = RectangleFamily(g, [rect])
    out = slice_family(fam, 0, (1,))
    assert len(out) == 1
    assert out.members[0].cubes[0].level == 1
    assert out.members[0].cubes[0].coords == (0,)


def test_slice_mask_diagonal():
    g = ProductGrid((1, 1), (1, 1))
    cells = np.eye(2, dtype=bool)
    mask = OpenSetMask(g, cells)
    assert slice_mask(mask, 0, (0,)).cell_indices().tolist() == [0]
    assert slice_mask(mask, 0, (1,)).cell_indices().tolist() == [1]


def test_mask_basics():
    g = ProductGrid((1,), (2,))
    assert OpenSetMask.empty(g).measure == 0.0
    assert OpenSetMask.full(g).measure == 1.0
    m = OpenSetMask.from_cell_indices(g, [0, 2])
    assert m.measure == 0.5
    assert OpenSetMask.from_dict(m.to_dict()) == m


def test_rectangles_in_monotone():
    g = ProductGrid((1, 1), (2, 2))
    fam = enumerate_rectangles(g)
    rng = np.random.default_rng(0)
    small = OpenSetMask(g, rng.random(g.shape) < 0.4)
    big = small.union(OpenSetMask(g, rng.random(g.shape) < 0.4))
    inner = set(rectangles_in(fam, small).members)
    outer = set(rectangles_in(fam, big).members)
    assert inner <= outer
    # cap-monotone in alpha
    a = set(rectangles_in(fam, big, alpha=0.25).members)
    b = set(rectangles_in(fam, big, alpha=0.5).members)
    assert a <= b


def test_rectangles_in_single_cell_empty():
    # smallest eligible rectangle has 2 cells on a J=2 1-D grid
    g = ProductGrid((1,), (2,))
    fam = enumerate_rectangles(g)
    mask = OpenSetMask.from_cell_indices(g, [1])
    assert len(rectangles_in(fam, mask)) == 0


def test_rectangles_in_rejects_mask_of_another_grid():
    # (1,1)x(2,2) and (2,)x(2,) both hold 4x4 cells; their rectangles differ
    fam = enumerate_rectangles(ProductGrid((1, 1), (2, 2)))
    with pytest.raises(GridError):
        rectangles_in(fam, OpenSetMask.full(ProductGrid((2,), (2,))))
    assert "not a rectangle" not in fam


def test_function_integrals_exact():
    g = ProductGrid((1, 1), (1, 1))
    f = GridFunction(g, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert f.integral() == 2.5
    assert f.l2_sq() == 7.5
    assert f.linf() == 4.0


def test_function_slice_at():
    g = ProductGrid((1, 1), (1, 1))
    f = GridFunction(g, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert f.slice_at(0, (1,)).values.tolist() == [3.0, 4.0]
    assert f.slice_at(1, (0,)).values.tolist() == [1.0, 3.0]


def test_function_round_trip_bit_exact():
    g = ProductGrid((1, 2), (2, 1))
    rng = np.random.default_rng(7)
    f = GridFunction(g, rng.uniform(-1, 1, g.shape))
    back = GridFunction.from_dict(f.to_dict())
    assert np.array_equal(back.values, f.values)


def test_function_shape_mismatch():
    g = ProductGrid((1,), (2,))
    with pytest.raises(GridError):
        GridFunction(g, np.zeros(3))


def _cube_tuples(grid, levels):
    """The (levels, per-factor coords) of every rectangle at one level tuple,
    in the C order of its (2^j per axis...) array."""
    per_factor = [itertools.product(range(2 ** j), repeat=n)
                  for n, j in zip(grid.factor_dims, levels)]
    return [tuple(DyadicCube(i, j, c) for i, (j, c) in enumerate(zip(levels, cs)))
            for cs in itertools.product(*map(list, per_factor))]


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=str)
@pytest.mark.parametrize("finest", [False, True])
def test_table_views_partition_the_table_once(grid, finest):
    shape = _table_shape(grid, int(finest))
    table = np.arange(2 * math.prod(shape)).reshape([2] + shape)  # one batch axis
    views = _table_views(table, grid, finest=finest)
    levels = [lv for lv, _ in views]
    assert levels == list(itertools.product(*(range(j + finest) for j in grid.depths)))
    seen = np.concatenate([view.ravel() for _, view in views])
    assert np.array_equal(np.sort(seen), np.arange(table.size))
    for lv, view in views:
        assert view.shape == (2,) + tuple(2 ** j for n, j in zip(grid.factor_dims, lv)
                                          for _ in range(n))
    # The views write through to the table.
    for _, view in views:
        view[...] = -1
    assert (table == -1).all()


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=str)
@pytest.mark.parametrize("finest", [False, True])
def test_table_view_entries_are_their_rectangles_table_index(grid, finest):
    shape = _table_shape(grid, int(finest))
    table = np.arange(math.prod(shape)).reshape(shape)
    for levels, view in _table_views(table, grid, finest=finest):
        for k, cubes in zip(view.ravel().tolist(), _cube_tuples(grid, levels)):
            rect = DyadicRectangle(cubes)
            index = np.unravel_index(k, shape)
            assert _rectangle_at(grid, index) == rect
            if not finest:
                assert int(np.ravel_multi_index(_table_index(grid, rect), shape)) == k


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=str)
def test_rectangle_at_inverts_table_index(grid):
    for rect in enumerate_rectangles(grid):
        assert _rectangle_at(grid, _table_index(grid, rect)) == rect
    for index in np.ndindex(*_table_shape(grid)):
        assert _table_index(grid, _rectangle_at(grid, index)) == index


@pytest.mark.parametrize("grid", LAYOUT_GRIDS, ids=str)
def test_inside_matches_per_box_slicing(grid):
    rng = np.random.default_rng(sum(grid.shape))
    for density in (0.5, 0.9, 1.0):
        cells = rng.random(grid.shape) < density
        for levels in itertools.product(*(range(j + 1) for j in grid.depths)):
            inside = _inside(cells, grid, levels)
            expected = [bool(cells[DyadicRectangle(cubes).cell_slices(grid)].all())
                        for cubes in _cube_tuples(grid, levels)]
            assert inside.ravel().tolist() == expected, (levels, density)
