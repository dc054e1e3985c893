from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from linetopo import (
    COINCIDENT,
    DimensionMismatch,
    InvariantViolation,
    ZeroDirection,
    canonicalize_line,
    intersect_lines,
    point_on_line,
)
from linetopo.generate import SplitMix64
from linetopo.geometry import (
    as_point,
    compare_points,
    integer_form,
    line_box_params,
    meet,
    primitive_direction,
)


# Reference implementations: the Fraction arithmetic canonicalize_line,
# intersect_lines and point_on_line used before they worked in integers.


def _canonicalize_oracle(p, u):
    p = as_point(p)
    d = primitive_direction(u)
    t = sum(x * dx for x, dx in zip(p, d)) / sum(dx * dx for dx in d)
    return tuple(x - t * dx for x, dx in zip(p, d)), d


def _fsub(a, b):
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))


def _intersect_oracle(a, b):
    if a.dimension != b.dimension:
        raise DimensionMismatch("dimensions differ")
    if a == b:
        return COINCIDENT
    if a.direction == b.direction:
        return None
    n = a.dimension
    ad, bd = a.direction, b.direction
    rhs = _fsub(b.base, a.base)
    pivot = None
    for i in range(n):
        for j in range(i + 1, n):
            det = Fraction(-ad[i] * bd[j] + ad[j] * bd[i])
            if det != 0:
                pivot = (i, j, det)
                break
        if pivot:
            break
    if pivot is None:
        raise InvariantViolation("non-parallel directions with no nonzero 2x2 minor")
    i, j, det = pivot
    t = (rhs[i] * Fraction(-bd[j]) - Fraction(-bd[i]) * rhs[j]) / det
    s = (Fraction(ad[i]) * rhs[j] - rhs[i] * Fraction(ad[j])) / det
    for k in range(n):
        if t * ad[k] - s * bd[k] != rhs[k]:
            return None
    return tuple(Fraction(x) + t * y for x, y in zip(a.base, ad))


def _point_on_line_oracle(x, line):
    diff = _fsub(x, line.base)
    t = None
    for k, d in enumerate(line.direction):
        if d != 0:
            t = diff[k] / d
            break
    return all(diff[k] == t * line.direction[k] for k in range(len(diff)))


def test_integer_form_clears_denominators():
    assert integer_form((3, -4, 0)) == ((3, -4, 0), 1)
    assert integer_form((Fraction(1, 2), Fraction(-2, 3), 5)) == ((3, -4, 30), 6)
    assert integer_form(("1/4", "-3", "5/6")) == ((3, -36, 10), 12)
    assert integer_form((Fraction(-7, 9),)) == ((-7,), 9)
    assert integer_form((0, Fraction(0), "0/5")) == ((0, 0, 0), 1)
    assert integer_form(()) == ((), 1)


def test_canonicalize_projects_base_and_normalizes_direction():
    line = canonicalize_line((0, 0, 5), (2, 0, 0))
    assert line.base == (0, 0, 5)
    assert line.direction == (1, 0, 0)

    line = canonicalize_line((1, 1), (0, -3))
    assert line.base == (1, 0)
    assert line.direction == (0, 1)

    line = canonicalize_line((3, 0, 0), (1, 0, 0))
    assert line.base == (0, 0, 0)
    assert line.direction == (1, 0, 0)


def test_canonicalize_rejects_zero_direction_and_bad_dimensions():
    with pytest.raises(ZeroDirection):
        canonicalize_line((0, 0), (0, 0))
    with pytest.raises(DimensionMismatch):
        canonicalize_line((0, 0, 0), (1, 0))
    with pytest.raises(DimensionMismatch):
        canonicalize_line((1,), (1,))


def test_canonicalize_is_idempotent_on_random_lines():
    rng = SplitMix64(11)
    for _ in range(200):
        n = 2 + rng.below(3)
        p = [Fraction(rng.int_between(-30, 30), 1 + rng.below(7)) for _ in range(n)]
        u = [Fraction(rng.int_between(-30, 30), 1 + rng.below(7)) for _ in range(n)]
        if all(c == 0 for c in u):
            u[0] = Fraction(1)
        line = canonicalize_line(p, u)
        again = canonicalize_line(line.base, line.direction)
        assert again == line
        # every rational point of the parametrized line is incident
        for t in (Fraction(0), Fraction(1), Fraction(-7, 3)):
            x = tuple(pc + t * uc for pc, uc in zip(p, u))
            assert point_on_line(x, line)


def test_intersect_axes_in_plane():
    x_axis = canonicalize_line((0, 0), (1, 0))
    y_axis = canonicalize_line((0, 0), (0, 1))
    assert intersect_lines(x_axis, y_axis) == (0, 0)


def test_intersect_parallel_distinct_is_empty():
    a = canonicalize_line((0, 0), (1, 0))
    b = canonicalize_line((0, 1), (1, 0))
    assert intersect_lines(a, b) is None


def test_intersect_skew_is_empty():
    a = canonicalize_line((0, 0, 0), (1, 0, 0))
    b = canonicalize_line((0, 1, 0), (0, 0, 1))
    assert intersect_lines(a, b) is None


def test_intersect_coincident_sentinel():
    a = canonicalize_line((0, 0, 0), (1, 0, 0))
    b = canonicalize_line((7, 0, 0), (-2, 0, 0))
    assert a == b
    assert intersect_lines(a, b) is COINCIDENT


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect_lines(canonicalize_line((0, 0), (1, 0)), canonicalize_line((0, 0, 0), (1, 0, 0)))


def test_intersect_symmetric_and_incident_on_random_pairs():
    rng = SplitMix64(23)
    hits = 0
    for _ in range(300):
        n = 2 + rng.below(3)
        def rand_line():
            p = [rng.int_between(-9, 9) for _ in range(n)]
            u = [rng.int_between(-9, 9) for _ in range(n)]
            if all(c == 0 for c in u):
                u[0] = 1
            return canonicalize_line(p, u)
        a, b = rand_line(), rand_line()
        ab, ba = intersect_lines(a, b), intersect_lines(b, a)
        if ab is COINCIDENT or ab is None:
            assert ba is ab
        else:
            hits += 1
            assert ab == ba
            assert point_on_line(ab, a) and point_on_line(ab, b)
    assert hits > 20  # planar draws guarantee plenty of honest crossings


def test_point_on_line_examples():
    x_axis = canonicalize_line((0, 0, 0), (1, 0, 0))
    assert point_on_line((2, 0, 0), x_axis)
    assert not point_on_line((0, 1, 0), x_axis)
    assert point_on_line(x_axis.base, x_axis)
    with pytest.raises(DimensionMismatch):
        point_on_line((1, 2), x_axis)


def test_line_box_params_clips_exactly():
    line = canonicalize_line((0, 0), (1, 1))
    span = line_box_params(line, (-1, -1), (2, 2))
    assert span == (Fraction(-1), Fraction(2))
    # a line missing the box
    far = canonicalize_line((0, 10), (1, 0))
    assert line_box_params(far, (-1, -1), (2, 2)) is None
    # corner touch collapses to one parameter
    diag = canonicalize_line((4, 0), (1, -1))
    span = line_box_params(diag, (-1, -1), (2, 2))
    assert span is not None and span[0] == span[1]


_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def _line_pairs(draw):
    """Two lines in R^n, n = 2-5, and a point of interest, in one of four
    draw modes: lines meeting at a rational point, a parallel near-miss
    shifted by 1/10^j, a re-expressed copy of one line, or a random pair."""
    n = draw(st.integers(2, 5))
    vectors = st.lists(_rationals, min_size=n, max_size=n)
    directions = vectors.filter(any)
    p, u = draw(vectors), draw(directions)
    mode = draw(st.sampled_from(["meet", "near_parallel", "copy", "random"]))
    if mode == "meet":
        q, v = draw(vectors), draw(directions)
        t = draw(_rationals)
        x = [pc + t * uc for pc, uc in zip(p, u)]
        return canonicalize_line(p, u), canonicalize_line(q, _fsub(x, q) if q != x else v), x
    if mode == "near_parallel":
        shifted = list(p)
        shifted[draw(st.integers(0, n - 1))] += Fraction(1, 10 ** draw(st.integers(0, 30)))
        return canonicalize_line(p, u), canonicalize_line(shifted, u), shifted
    if mode == "copy":
        t, c = draw(_rationals), draw(_rationals.filter(bool))
        x = [pc + t * uc for pc, uc in zip(p, u)]
        return canonicalize_line(p, u), canonicalize_line(x, [c * uc for uc in u]), x
    return canonicalize_line(p, u), canonicalize_line(draw(vectors), draw(directions)), p


@settings(max_examples=300, deadline=None)
@given(_line_pairs())
def test_integer_kernel_matches_the_fraction_oracle(case):
    a, b, x = case
    for first, second in ((a, b), (b, a)):
        assert intersect_lines(first, second) == _intersect_oracle(first, second)
    points = [x, a.base, b.base]
    meet = intersect_lines(a, b)
    if meet is not None and meet is not COINCIDENT:
        points.append(meet)
    for point in points:
        for line in (a, b):
            assert point_on_line(point, line) == _point_on_line_oracle(point, line)


_wide_rationals = st.one_of(
    _rationals,
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**66)),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_canonicalization_matches_the_fraction_oracle(data):
    # coordinates and denominators beyond 2^63, and near-zero offsets 1/10^j
    n = data.draw(st.integers(2, 5))
    p = data.draw(st.lists(_wide_rationals, min_size=n, max_size=n))
    k = data.draw(st.integers(0, n - 1))
    p[k] += Fraction(1, 10 ** data.draw(st.integers(0, 30)))
    u = data.draw(st.lists(_wide_rationals, min_size=n, max_size=n).filter(any))
    line = canonicalize_line(p, u)
    assert (line.base, line.direction) == _canonicalize_oracle(p, u)
    assert all(type(x) is Fraction for x in line.base)
    assert sum(b * dx for b, dx in zip(line.base, line.direction)) == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_lines_keep_a_reduced_integer_base(data):
    # the integer base is integer_form of the Fraction view: lowest terms,
    # positive denominator, orthogonal to the direction
    n = data.draw(st.integers(2, 5))
    p = data.draw(st.lists(_wide_rationals, min_size=n, max_size=n))
    u = data.draw(st.lists(_wide_rationals, min_size=n, max_size=n).filter(any))
    line = canonicalize_line(p, u)
    B, D = line.integer_base
    assert D > 0 and gcd(*B, D) == 1
    assert integer_form(line.base) == line.integer_base
    assert sum(b * dx for b, dx in zip(line.base, line.direction)) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_line_parameters_match_the_fraction_view(data):
    n = data.draw(st.integers(2, 5))
    p = data.draw(st.lists(_wide_rationals, min_size=n, max_size=n))
    u = data.draw(st.lists(_wide_rationals, min_size=n, max_size=n).filter(any))
    t = data.draw(_wide_rationals)
    line = canonicalize_line(p, u)
    x = line.point_at(t)
    assert x == tuple(b + t * dx for b, dx in zip(line.base, line.direction))
    assert line.param_of(x) == t


@settings(max_examples=300, deadline=None)
@given(_line_pairs())
def test_meet_is_the_reduced_form_of_intersect_lines(case):
    a, b, _ = case
    point, view = meet(a, b), intersect_lines(a, b)
    if point is None or point is COINCIDENT:
        assert view is point
    else:
        X, D = point
        assert D > 0 and gcd(*X, D) == 1
        assert tuple(Fraction(x, D) for x in X) == view


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compare_points_orders_as_the_fraction_tuples(data):
    # q shares a drawn prefix with p, so later entries decide too
    n = data.draw(st.integers(1, 5))
    p = data.draw(st.lists(_wide_rationals, min_size=n, max_size=n))
    k = data.draw(st.integers(0, n))
    q = p[:k] + data.draw(st.lists(_wide_rationals, min_size=n - k, max_size=n - k))
    fp, fq = tuple(map(Fraction, p)), tuple(map(Fraction, q))
    assert compare_points(integer_form(p), integer_form(q)) == (fp > fq) - (fp < fq)
