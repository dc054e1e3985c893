import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import linetopo.arrangement
from linetopo import (
    COINCIDENT,
    Arrangement,
    DimensionMismatch,
    DuplicateLine,
    InvalidProfile,
    InvariantViolation,
    ResolutionTooCoarse,
    canonicalize_line,
    intersect_lines,
    build_arrangement,
    build_poset,
    build_space_graph,
    check_direction,
    find_generic_direction,
    generate_random,
    genus,
    graph_from_segments,
    multiple_points,
    multiplicity_vector,
    parse_arrangement,
    predict_topology,
    recover_line_count,
    recover_multiplicities,
    serialize_arrangement,
    verify_arrangement,
)
from linetopo.arrangement import MAX_DIMENSION, MultiplePoint, transform
from linetopo.geometry import integer_form
from linetopo.cli import run_cli
from conftest import X_AXIS3, Y_AXIS3, Z_AXIS3, hub_arrangements, seeded_corpus


def test_build_rejects_duplicate_parametrizations():
    with pytest.raises(DuplicateLine) as exc:
        build_arrangement(3, [((0, 0, 0), (1, 0, 0)), ((5, 0, 0), (-3, 0, 0))])
    assert exc.value.first == 0 and exc.value.second == 1


def test_build_axes_and_dimension_guard():
    a = build_arrangement(3, [X_AXIS3, Y_AXIS3, Z_AXIS3])
    assert a.d == 3
    with pytest.raises(DimensionMismatch):
        build_arrangement(1, [((0,), (1,))])


def test_dimension_cap_is_checked_before_any_work():
    assert build_arrangement(MAX_DIMENSION, []).dimension == MAX_DIMENSION
    with pytest.raises(DimensionMismatch, match=f"must be <= {MAX_DIMENSION}, got {2**63}"):
        build_arrangement(2**63, [])
    # refused before the first draw, which would hold 2^63 coordinates
    with pytest.raises(InvalidProfile, match=f"must be <= {MAX_DIMENSION}"):
        generate_random(2**63, 3, "generic", 1)


def test_multiple_points_crossing_pair(crossing_pair3):
    mps = multiple_points(crossing_pair3)
    assert len(mps) == 1
    assert mps[0].location == (0, 0, 0)
    assert mps[0].incident == (0, 1)
    assert mps[0].multiplicity == 2


def test_multiple_points_concurrent_axes(pencil3):
    mps = multiple_points(pencil3)
    assert len(mps) == 1
    assert mps[0].multiplicity == 3


def test_multiple_points_skew_empty(skew_pair3):
    assert multiple_points(skew_pair3) == []


def test_multiplicity_vectors(coplanar3, pencil3, skew_pair3):
    assert multiplicity_vector(coplanar3) == {2: 3}
    assert multiplicity_vector(pencil3) == {3: 1}
    assert multiplicity_vector(skew_pair3) == {}


def test_genus_values(one_line3, coplanar3):
    assert genus(one_line3) == 1
    assert genus(coplanar3) == 6
    four_pencil = build_arrangement(
        2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1)), ((0, 0), (1, -1))]
    )
    assert multiplicity_vector(four_pencil) == {4: 1}
    assert genus(four_pencil) == 7


def test_predict_one_line3(one_line3):
    rep = predict_topology(one_line3)
    assert rep.betti == (1, 1, 0, 0)
    assert rep.boundary_genus == 1
    assert rep.homotopy == "bouquet of 1 spheres S^1"


def test_predict_planar_b0_matches_region_oracle(generic_planar3):
    # expected value frozen from the independent Euler-formula region count
    from linetopo import euler_region_count

    assert euler_region_count(generic_planar3) == 7
    rep = predict_topology(generic_planar3)
    assert rep.betti == (7, 0, 0)
    assert rep.homotopy == "7 points"
    assert rep.boundary_genus is None


def test_predict_concurrent_lines_in_r4():
    a = build_arrangement(
        4,
        [
            ((0, 0, 0, 0), (1, 0, 0, 0)),
            ((0, 0, 0, 0), (0, 1, 0, 0)),
            ((0, 0, 0, 0), (0, 0, 1, 0)),
        ],
    )
    rep = predict_topology(a)
    assert rep.g == 5
    assert rep.betti == (1, 0, 5, 0, 0)
    assert rep.boundary_genus is None


def test_empty_arrangement_is_degenerate_but_valid():
    a = build_arrangement(3, [])
    assert genus(a) == 0
    assert predict_topology(a).betti == (1, 0, 0, 0)


def test_pair_count_conservation_over_corpus():
    # clustering must conserve the number of intersecting line pairs
    from linetopo import intersect_lines

    for a in seeded_corpus(2, 12, 8, seed0=100) + seeded_corpus(3, 12, 8, seed0=200):
        pairs = sum(
            1
            for i in range(a.d)
            for j in range(i + 1, a.d)
            if intersect_lines(a.lines[i], a.lines[j]) is not None
        )
        clustered = sum(
            mp.multiplicity * (mp.multiplicity - 1) // 2 for mp in multiple_points(a)
        )
        assert clustered == pairs


def test_genus_lower_bound_and_betti_sum():
    for a in seeded_corpus(3, 15, 8, seed0=300):
        g = genus(a)
        assert g >= a.d
        assert (g == a.d) == (multiple_points(a) == [])
        rep = predict_topology(a)
        assert sum(rep.betti) == 1 + g


def test_invariance_under_affine_isomorphism(coplanar3):
    matrix = [[1, 2, 0], [0, 1, 0], [Fraction(1, 3), 0, 2]]  # det = 2, invertible
    shift = [5, Fraction(-7, 2), 1]
    moved = transform(coplanar3, matrix, shift)
    assert predict_topology(moved).t == predict_topology(coplanar3).t
    assert predict_topology(moved).g == predict_topology(coplanar3).g
    assert predict_topology(moved).betti == predict_topology(coplanar3).betti


AFFINE_CORPUS = seeded_corpus(2, 6, 6, seed0=900) + seeded_corpus(3, 6, 5, seed0=910)
_SMALL_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _affine_maps(draw, n):
    """An invertible rational matrix P L U (permutation, unit lower and
    upper triangular with a nonzero diagonal) and a rational shift."""
    perm = draw(st.permutations(range(n)))
    lower = [[Fraction(int(i == j)) if j >= i else draw(_SMALL_RATIONALS) for j in range(n)]
             for i in range(n)]
    upper = [[draw(_SMALL_RATIONALS) if j > i else Fraction(0) for j in range(n)]
             for i in range(n)]
    for i in range(n):
        upper[i][i] = draw(st.sampled_from([-2, -1, Fraction(1, 2), 1, 3]))
    lu = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    matrix = [lu[perm[i]] for i in range(n)]
    shift = [draw(_SMALL_RATIONALS) for _ in range(n)]
    return matrix, shift


def _analyze(a) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_arrangement(a))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli(["analyze", path]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_report_is_invariant_under_random_affine_maps(data):
    a = data.draw(st.sampled_from(AFFINE_CORPUS))
    matrix, shift = data.draw(_affine_maps(a.dimension))
    moved = transform(a, matrix, shift)
    before, after = predict_topology(a), predict_topology(moved)
    assert (after.d, after.t, after.g, after.betti) == (before.d, before.t, before.g, before.betti)
    assert _analyze(moved)["self_check"]["agree"] is True


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 7), st.integers(1, 30), st.integers(0, 50))
def test_near_miss_splits_a_pencil_exactly(k, j, seed):
    # moving one line of a planar k-pencil by 1/10^j off the apex leaves a
    # (k-1)-fold point and k-1 fresh double points, however small the shift
    a = generate_random(2, k, f"pencil({k})", seed)
    assert multiplicity_vector(a) == {k: 1}
    first = a.lines[0]
    eps = Fraction(1, 10**j)
    nudge = (0, eps) if first.direction[0] != 0 else (eps, 0)
    moved = build_arrangement(
        2,
        [(tuple(b + e for b, e in zip(first.base, nudge)), first.direction)]
        + [(line.base, line.direction) for line in a.lines[1:]],
    )
    expected = {2: k - 1}
    expected[k - 1] = expected.get(k - 1, 0) + 1
    assert predict_topology(moved).t == dict(sorted(expected.items()))


def test_relabeling_invariance():
    for a in seeded_corpus(2, 6, 6, seed0=400):
        rev = Arrangement(dimension=a.dimension, lines=tuple(reversed(a.lines)))
        assert predict_topology(rev) == predict_topology(a)


def test_incident_sets_are_complete():
    # every listed line passes through the location; no unlisted line does
    from linetopo import point_on_line

    for a in seeded_corpus(2, 8, 7, seed0=500):
        for mp in multiple_points(a):
            for li, line in enumerate(a.lines):
                assert point_on_line(mp.location, line) == (li in mp.incident)


def _multiple_points_oracle(a):
    """The all-pairs loop multiple_points ran before the residue filter:
    every pair goes through intersect_lines."""
    clusters = {}
    for i in range(a.d):
        for j in range(i + 1, a.d):
            x = intersect_lines(a.lines[i], a.lines[j])
            if x is None:
                continue
            if x is COINCIDENT:
                raise InvariantViolation(f"arrangement lines {i} and {j} coincide")
            clusters.setdefault(x, set()).update((i, j))
    return [
        MultiplePoint(integer_location=integer_form(loc), incident=tuple(sorted(clusters[loc])))
        for loc in sorted(clusters)
    ]


def _outcome(find, a):
    try:
        return find(a)
    except InvariantViolation as exc:
        return str(exc)


_COORDS = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**66)),
)
_STEPS = st.one_of(st.integers(-3, 3), st.integers(-(2**66), 2**66))


@st.composite
def _tricky_arrangements(draw):
    """Lines in R^n, n = 3-5, built one at a time: through a shared hub
    point, 1/10^j off a hub, parallel to an earlier line, through points of
    two earlier lines, or at random; sometimes with re-expressed copies of
    earlier lines inserted, which make the arrangement invalid."""
    n = draw(st.integers(3, 5))
    points = st.lists(_COORDS, min_size=n, max_size=n)
    directions = st.lists(_STEPS, min_size=n, max_size=n).filter(any)
    hubs = draw(st.lists(points, min_size=1, max_size=3))
    raw = []
    for _ in range(draw(st.integers(2, 8))):
        mode = draw(st.sampled_from(["hub", "near", "parallel", "bridge", "random"]))
        if mode in ("parallel", "bridge") and len(raw) < 2:
            mode = "hub"
        if mode == "hub":
            raw.append((draw(st.sampled_from(hubs)), draw(directions)))
        elif mode == "near":
            p = list(draw(st.sampled_from(hubs)))
            p[draw(st.integers(0, n - 1))] += Fraction(1, 10 ** draw(st.integers(1, 30)))
            raw.append((p, draw(directions)))
        elif mode == "parallel":
            _, u = draw(st.sampled_from(raw))
            c = draw(st.sampled_from([1, -2, Fraction(1, 3)]))
            raw.append((draw(points), [c * x for x in u]))
        elif mode == "bridge":
            ends = []
            for p, u in draw(st.lists(st.sampled_from(raw), min_size=2, max_size=2)):
                t = draw(_COORDS)
                ends.append([Fraction(x) + t * y for x, y in zip(p, u)])
            step = [y - x for x, y in zip(*ends)]
            raw.append((ends[0], step if any(step) else draw(directions)))
        else:
            raw.append((draw(points), draw(directions)))
    lines = [canonicalize_line(p, u) for p, u in raw]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        p, u = draw(st.sampled_from(raw))
        t, c = draw(_COORDS), draw(st.sampled_from([1, -1, 7, Fraction(-2, 5)]))
        copy = canonicalize_line([Fraction(x) + t * y for x, y in zip(p, u)], [c * y for y in u])
        lines.insert(draw(st.integers(0, len(lines))), copy)
    return Arrangement(dimension=n, lines=tuple(lines))


@pytest.mark.parametrize("prime", [2, 3, 5, None])
@settings(max_examples=75, deadline=None)
@given(_tricky_arrangements())
def test_residue_filter_matches_the_all_pairs_oracle(prime, a):
    # a small modulus forces residue collisions, so skew pairs reach the
    # exact check; the result, and the first coincident pair named, must
    # not change
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            mp.setattr(linetopo.arrangement, "_PRIME", prime)
        assert _outcome(multiple_points, a) == _outcome(_multiple_points_oracle, a)


def test_only_meeting_or_parallel_pairs_are_intersected(intersection_calls):
    # seeded n=3 corpora where almost every pair is skew, plus parallel
    # pairs: a pair reaches intersect_lines iff it meets or is parallel
    parallel = build_arrangement(3, [
        ((0, 0, 0), (1, 2, 3)), ((1, 0, 0), (2, 4, 6)), ((0, 5, 0), (-1, -2, -3)),
        ((0, 0, 0), (0, 1, 0)), ((7, 0, 1), (0, 0, 1)), ((2**70, 3, Fraction(1, 3)), (1, 2, 3)),
    ])
    corpus = [parallel] + [
        generate_random(3, 40, profile, seed)
        for profile in ("generic", "mixed", "pencil(5)")
        for seed in (11, 12)
    ]
    for a in corpus:
        intersection_calls.clear()
        multiple_points(a)
        index = {line: k for k, line in enumerate(a.lines)}
        called = [(index[x], index[y]) for x, y in intersection_calls]
        expected = [
            (i, j)
            for i in range(a.d)
            for j in range(i + 1, a.d)
            if a.lines[i].direction == a.lines[j].direction
            or intersect_lines(a.lines[i], a.lines[j]) is not None
        ]
        assert called == expected
        assert len(called) < a.d * (a.d - 1) // 2


def test_parse_and_pass_build_no_fraction_on_skew_lines(monkeypatch):
    # the lines of one ruling of the saddle z = xy are pairwise skew, and an
    # affine map keeps them so; lines and their bases stay integers from the
    # parse through the pass
    ruled = build_arrangement(3, [((i, 0, 0), (0, 1, i)) for i in range(200)])
    a0 = transform(ruled, [[2, 1, 0], [1, -1, 3], [0, 5, 1]], [Fraction(1, 2), -3, Fraction(7, 5)])
    text = serialize_arrangement(a0)
    assert "/" in text
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    Fraction(1, 3)
    assert len(built) == 1  # the wrapper sees constructions
    built.clear()
    a = parse_arrangement(text)
    mps = a.multiple_points
    monkeypatch.undo()
    assert built == []
    assert mps == () and a == a0


def test_multiple_points_and_routes_build_no_fraction(monkeypatch):
    # a pencil of 3 through the origin plus two lines that each cross one of
    # its lines, under a rational affine map: the points are rational, and
    # parsing, the pass, the poset, the space graph and the direction search
    # hold them as integer forms only
    matrix, shift = [[2, 1, 0], [1, -1, 3], [0, 5, 1]], [Fraction(1, 2), -3, Fraction(7, 5)]
    pencil = build_arrangement(
        3, [X_AXIS3, Y_AXIS3, Z_AXIS3, ((1, 0, 0), (0, 1, 1)), ((0, 2, 0), (1, 0, 1))]
    )
    text = serialize_arrangement(transform(pencil, matrix, shift))
    expected = {
        tuple(sum(m * x for m, x in zip(row, p)) + s for row, s in zip(matrix, shift))
        for p in [(0, 0, 0), (1, 0, 0), (0, 2, 0)]
    }
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    Fraction(1, 3)
    assert len(built) == 1  # the wrapper sees constructions
    built.clear()
    a = parse_arrangement(text)
    mps = a.multiple_points
    p = build_poset(a)
    recovered = recover_line_count(p), recover_multiplicities(p)
    graph = build_space_graph(a)
    v = find_generic_direction(graph)
    violation = check_direction(graph, v)
    monkeypatch.undo()
    assert built == []
    assert recovered == (5, {2: 2, 3: 1}) and violation is None
    assert {mp.location for mp in mps} == expected
    assert graph.vertices == tuple(mp.location for mp in mps)


def test_verify_and_compact_graphs_build_no_fraction(monkeypatch):
    # the homology oracle's frame, guard, marks and ranks, and the
    # validation of a compact graph, read integer forms only; the lines are
    # rational, the guard refuses grid 8 and accepts grid 16
    matrix, shift = [[2, 1, 0], [1, -1, 3], [0, 5, 1]], [Fraction(1, 2), -3, Fraction(7, 5)]
    a = transform(build_arrangement(3, [X_AXIS3, Y_AXIS3, ((1, 0, 0), (0, 1, 1))]), matrix, shift)
    assert len(a.multiple_points) == 2  # computed and cached before the count
    points = [(Fraction(x, 3), y, Fraction(x * y, 7)) for x in range(4) for y in range(4)]
    segments = [(4 * x + y, 4 * x + y + 1) for x in range(4) for y in range(3)]
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    Fraction(1, 3)
    assert len(built) == 1  # the wrapper sees constructions
    built.clear()
    with pytest.raises(ResolutionTooCoarse):
        verify_arrangement(a, 8)
    report = verify_arrangement(a, 16)
    graph = graph_from_segments(3, points, segments)
    monkeypatch.undo()
    assert built == []
    assert report.match and report.measured == (1, 5, 0, 0)
    assert len(graph.edges) == 12


@settings(max_examples=150, deadline=None)
@given(hub_arrangements())
def test_integer_clusters_match_the_oracle_in_every_dimension(a):
    # the plane too, with vertical lines, negative coordinates and large
    # denominators: clusters keyed and sorted in integers give the
    # oracle's Fraction-keyed, Fraction-sorted points
    assert multiple_points(a) == _multiple_points_oracle(a)
