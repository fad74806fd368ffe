"""Geometry layer: grids, cubes, rectangles, masks, slices."""

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
    slice_mask,
)


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


def test_enumerate_cap():
    with pytest.raises(ResourceCapError):
        enumerate_rectangles(ProductGrid((1, 1), (8, 8)), max_count=100)


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
