from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetopo import (
    GridTooLarge,
    InvariantViolation,
    ResolutionTooCoarse,
    betti_numbers,
    build_arrangement,
    euler_region_count,
    genus,
    gf2_rank,
    rasterize_complement,
    verify_arrangement,
)
from linetopo.cubical import (
    CubicalComplex,
    _betti_direct,
    _closure_cells,
    _mark_line,
    _slab,
    _slot,
    _star,
)
from linetopo.geometry import line_box_params
from conftest import seeded_corpus


def test_gf2_rank_known_matrices():
    # columns are packed bitsets over row indices
    assert gf2_rank([]) == 0
    assert gf2_rank([0b1, 0b10, 0b11]) == 2
    assert gf2_rank([0b111, 0b011, 0b100]) == 2
    assert gf2_rank([0b1010, 0b0101, 0b1111, 0b1]) == 3


def test_slot_boundary_conventions():
    # grid coordinates num/den on an m = 8 grid
    # interior value: the odd slot of the open interval holding it
    assert _slot(5, 2) == 5
    assert _slot(1, 3) == 1
    # exactly on an interior plane, also as an unreduced fraction: even slot
    assert _slot(3, 1) == 6
    assert _slot(6, 2) == 6
    # the two box faces
    assert _slot(0, 1) == 0
    assert _slot(8, 1) == 16


def test_no_lines_leaves_all_cubes_free():
    a = build_arrangement(3, [])
    c = rasterize_complement(a, 2)
    assert len(c.cells[3]) == 8
    assert betti_numbers(c) == (1, 0, 0, 0)


def _complex(grid: np.ndarray) -> CubicalComplex:
    """A handcrafted complex on a unit grid, from its doubled grid."""
    n = grid.ndim
    return CubicalComplex(
        dimension=n, resolution=(grid.shape[0] - 1) // 2, box_lo=(Fraction(0),) * n,
        cube_side=Fraction(1), grid=grid,
    )


def test_single_free_cube_is_contractible():
    occ = np.zeros((2, 2), dtype=bool)
    occ[0, 0] = True
    c = _complex(_closure_cells(occ))
    # one square, its four edges and four vertices, in the lower-left corner
    assert [len(cells) for cells in c.cells] == [4, 4, 1]
    assert c.grid[:3, :3].all() and c.grid.sum() == 9
    assert betti_numbers(c) == (1, 0, 0)
    assert _betti_direct(c) == (1, 0, 0)


def test_annulus_and_hollow_shell_reach_the_top_dual_degree():
    # no line complement has b_{n-1} > 0; these exercise Alexander duality
    ring = np.ones((3, 3), dtype=bool)
    ring[1, 1] = False
    annulus = _complex(_closure_cells(ring))
    assert betti_numbers(annulus) == _betti_direct(annulus) == (1, 1, 0)
    shell = np.ones((3, 3, 3), dtype=bool)
    shell[1, 1, 1] = False
    hollow = _complex(_closure_cells(shell))
    assert betti_numbers(hollow) == _betti_direct(hollow) == (1, 0, 1, 0)


def test_empty_complex_has_no_homology():
    for n in (2, 3, 4):
        c = _complex(np.zeros((5,) * n, dtype=bool))
        assert betti_numbers(c) == _betti_direct(c) == (0,) * (n + 1)


@st.composite
def _top_cube_sets(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(1, {2: 6, 3: 4, 4: 3}[n]))
    bits = draw(st.lists(st.booleans(), min_size=m**n, max_size=m**n))
    return np.array(bits, dtype=bool).reshape((m,) * n)


@settings(max_examples=200, deadline=None)
@given(_top_cube_sets())
def test_dual_ranks_match_direct_ranks_on_random_closures(occ):
    c = _complex(_closure_cells(occ))
    assert betti_numbers(c) == _betti_direct(c)


def test_complex_missing_a_face_raises_invariant_violation():
    grid = np.zeros((5, 5), dtype=bool)
    grid[1, 2] = True  # an edge without its two end vertices
    c = _complex(grid)
    with pytest.raises(InvariantViolation):
        betti_numbers(c)  # the edge lies in the star of its missing vertices
    with pytest.raises(InvariantViolation):
        _betti_direct(c)


def test_chord_separates_the_square():
    a = build_arrangement(2, [((0, 0), (1, 0))])
    c = rasterize_complement(a, 4)
    stabbed = 4**2 - len(c.cells[2])
    assert stabbed > 0
    assert betti_numbers(c)[0] == 2


def test_line_complement_in_box_is_a_circle():
    a = build_arrangement(3, [((0, 0, 0), (1, 0, 0))])
    c = rasterize_complement(a, 16)
    assert betti_numbers(c) == (1, 1, 0, 0)


def test_marking_matches_bruteforce_slab_test_in_every_dimension():
    # adversarial mix: a grid-diagonal through cube corners, an axis-parallel
    # line lying exactly in a grid plane, and a skew rational line
    import itertools

    lines = build_arrangement(
        3,
        [
            ((0, 0, 0), (1, 1, 1)),
            ((1, 0, 0), (0, 1, 0)),
            ((Fraction(1, 3), 0, 2), (2, -3, 1)),
        ],
    ).lines
    m = 6
    box_lo = (Fraction(-1), Fraction(-1), Fraction(-1))
    side = Fraction(1)
    hit = np.zeros((2 * m + 1,) * 3, dtype=bool)
    for line in lines:
        _mark_line(hit, line, box_lo, side, m)
    stabbed = _star(hit)
    for mask in range(8):
        arr = stabbed[_slab(mask, 3)]
        for pos in itertools.product(*(range(s) for s in arr.shape)):
            lo = tuple(box_lo[ax] + pos[ax] * side for ax in range(3))
            hi = tuple(lo[ax] + (side if (mask >> ax) & 1 else 0) for ax in range(3))
            hit = any(line_box_params(line, lo, hi) is not None for line in lines)
            assert arr[pos] == hit, (mask, pos)


@pytest.mark.parametrize("n,m,seed0", [(2, 6, 5000), (3, 6, 6000)])
def test_reduced_path_agrees_with_direct_ranks(n, m, seed0):
    for a in seeded_corpus(n, 6, 4, seed0=seed0):
        try:
            c = rasterize_complement(a, m)
        except ResolutionTooCoarse:
            continue
        assert betti_numbers(c) == _betti_direct(c)


def test_coarseness_guard_fires_on_close_points():
    # crossings at (0,0) and (1,0); the inflated box is ~3 wide so two cube
    # diameters exceed their separation at m = 8
    a = build_arrangement(
        2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))]
    )
    with pytest.raises(ResolutionTooCoarse):
        rasterize_complement(a, 8)
    # a finer grid passes and measures the right regions
    c = rasterize_complement(a, 32)
    assert betti_numbers(c)[0] == 1 + genus(a)


def test_guard_on_point_vs_nonincident_line():
    # a crossing very close to a third, non-incident line
    a = build_arrangement(
        2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((Fraction(1, 4), 0), (0, 1))]
    )
    assert len(a.lines) == 3
    with pytest.raises(ResolutionTooCoarse):
        rasterize_complement(a, 8)


def test_dimension_gate():
    # no dimension is refused: the complement of a line in an n-box
    # retracts to an (n-2)-sphere
    a4 = build_arrangement(4, [((0, 0, 0, 0), (1, 0, 0, 0))])
    assert betti_numbers(rasterize_complement(a4, 6)) == (1, 0, 1, 0, 0)
    a5 = build_arrangement(5, [((0,) * 5, (1, 0, 0, 0, 0))])
    assert betti_numbers(rasterize_complement(a5, 4)) == (1, 0, 0, 1, 0, 0)
    # the grid budget is what bounds m and n, checked before any allocation
    with pytest.raises(GridTooLarge):
        rasterize_complement(a4, 100)
    with pytest.raises(GridTooLarge):
        rasterize_complement(build_arrangement(12, [((0,) * 12, (1,) + (0,) * 11)]), 2)


def test_resolution_stability_small():
    a = build_arrangement(3, [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))])
    assert betti_numbers(rasterize_complement(a, 16)) == betti_numbers(
        rasterize_complement(a, 32)
    )


def test_guard_rejects_shallow_wedges():
    # nearly parallel lines crossing at a tiny angle: the wedge regions stay
    # thinner than the grid for the whole box
    a = build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (40, 1))])
    with pytest.raises(ResolutionTooCoarse):
        rasterize_complement(a, 16)


def test_random_n3_measurements_match_predictions():
    from linetopo import predict_topology

    done = 0
    seed = 0
    while done < 6:
        a = seeded_corpus(3, 1, 5, seed0=9000 + 31 * seed)[0]
        seed += 1
        try:
            c = rasterize_complement(a, 24)
        except ResolutionTooCoarse:
            continue
        assert betti_numbers(c) == predict_topology(a).betti
        done += 1


def test_verify_arrangement_matches_in_both_dims(crossing_pair3):
    rep = verify_arrangement(crossing_pair3, 16)
    assert rep.match
    assert rep.measured == (1, 3, 0, 0)

    planar = build_arrangement(2, [((0, 0), (1, 0)), ((0, 5), (0, 1))])
    rep2 = verify_arrangement(planar, 16)
    assert rep2.match
    assert rep2.measured[0] == euler_region_count(planar)

    rep4 = verify_arrangement(build_arrangement(4, [((0, 0, 0, 0), (1, 0, 0, 0))]), 8)
    assert rep4.match
    assert rep4.measured == (1, 0, 1, 0, 0)
