from fractions import Fraction

import pytest

import linetopo.regions
from linetopo import (
    InvariantViolation,
    WrongDimension,
    build_arrangement,
    clip_subdivision,
    euler_region_count,
    generate_random,
    genus,
)
from linetopo.geometry import point_on_line
from linetopo.regions import clipping_box
from conftest import seeded_corpus


def test_single_line_halves_the_plane():
    a = build_arrangement(2, [((0, 0), (1, 0))])
    assert euler_region_count(a) == 2


def test_two_parallel_lines_make_three_strips():
    a = build_arrangement(2, [((0, 0), (1, 0)), ((0, 1), (1, 0))])
    assert euler_region_count(a) == 3


def test_three_generic_lines(generic_planar3):
    assert euler_region_count(generic_planar3) == 7


def test_empty_arrangement_single_region():
    assert euler_region_count(build_arrangement(2, [])) == 1


def test_wrong_dimension(one_line3):
    with pytest.raises(WrongDimension):
        euler_region_count(one_line3)


def test_clipping_box_avoids_corners_even_for_diagonals():
    # a diagonal through the origin aims straight at symmetric box corners
    a = build_arrangement(2, [((0, 0), (1, 1)), ((0, 0), (1, -1))])
    (x0, x1), (y0, y1) = clipping_box(a)
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    assert not any(point_on_line(c, line) for c in corners for line in a.lines)


def test_euler_identity_and_region_count_over_corpus():
    for a in seeded_corpus(2, 25, 9, seed0=4000):
        sub = clip_subdivision(a)
        assert sub.vertex_count - sub.edge_count + sub.face_count == 1
        assert sub.face_count == 1 + genus(a)


def test_counts_for_triangle_fixture(generic_planar3):
    sub = clip_subdivision(generic_planar3)
    # 4 corners + 2 boundary crossings per line + 3 interior vertices
    assert sub.vertex_count == 4 + 6 + 3
    # 10 boundary arcs + 3 interior sub-segments per line
    assert sub.edge_count == 10 + 9
    assert sub.face_count == 7


def test_region_count_makes_one_intersection_pass(intersection_calls):
    # clipping_box and clip_subdivision both read the multiple points
    a = generate_random(2, 7, "mixed", 7)
    assert euler_region_count(a) == 1 + genus(a)
    assert len(intersection_calls) == 7 * 6 // 2


def test_crossing_off_the_box_boundary_is_an_invariant_violation(monkeypatch):
    # line_box_params puts every crossing on the boundary; a clip that ends
    # inside the box must be refused, not counted
    real = linetopo.regions.line_box_params

    def shrunk(line, lo, hi):
        t0, t1 = real(line, lo, hi)
        return t0 + Fraction(1, 3), t1

    monkeypatch.setattr(linetopo.regions, "line_box_params", shrunk)
    with pytest.raises(InvariantViolation, match="not on the box boundary"):
        clip_subdivision(build_arrangement(2, [((0, 0), (1, 0))]))
