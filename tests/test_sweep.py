from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from linetopo import (
    NonGenericDirection,
    ZeroDirection,
    build_arrangement,
    build_space_graph,
    check_direction,
    find_generic_direction,
    genus,
    graph_from_segments,
    handle_trace,
    multiple_points,
    sweep_events,
)
from linetopo.errors import LinetopoError
from linetopo.geometry import as_point, dot, sub
from linetopo.sweep import GraphEdge, SpaceGraph, SweepEvent, SweepPlan, Violation
from conftest import hub_arrangements, second_generic_direction, seeded_corpus


# Reference oracles: the direct O(V^2) genericity check and O(V*E) event pass
# in Fraction arithmetic, against which the integer implementations are
# compared.


def _oracle_check_direction(x: SpaceGraph, v) -> Violation | None:
    v = as_point(v)
    for ei, edge in enumerate(x.edges):
        if dot(edge.carrier.direction, v) == 0:
            return Violation(kind="perpendicular_edge", edge=ei)
    for i in range(len(x.vertices)):
        for j in range(i + 1, len(x.vertices)):
            if dot(sub(x.vertices[i], x.vertices[j]), v) == 0:
                return Violation(kind="level_vertex_pair", vertex_pair=(i, j))
    return None


def _oracle_outgoing_directions(x: SpaceGraph, vertex: int):
    out = []
    for edge in x.edges:
        if len(edge.vertices) == 2:
            i, j = edge.vertices
            if i == vertex:
                out.append(sub(x.vertices[j], x.vertices[i]))
            if j == vertex:
                out.append(sub(x.vertices[i], x.vertices[j]))
        elif len(edge.vertices) == 1 and edge.vertices[0] == vertex:
            out.append(edge.ray_dir)
    return out


def _oracle_sweep_events(x: SpaceGraph, v) -> SweepPlan:
    violation = _oracle_check_direction(x, v)
    if violation is not None:
        raise NonGenericDirection(violation)
    v = as_point(v)
    events = []
    for vi, u in enumerate(x.vertices):
        s = r = 0
        for w in _oracle_outgoing_directions(x, vi):
            if dot(w, v) > 0:
                s += 1
            else:
                r += 1
        events.append(SweepEvent(vertex=vi, level=dot(u, v), s=s, r=r))
    events.sort(key=lambda e: e.level)
    rays_down = 0
    for edge in x.edges:
        if len(edge.vertices) == 0:
            rays_down += 1
        elif len(edge.vertices) == 1 and dot(edge.ray_dir, v) < 0:
            rays_down += 1
    return SweepPlan(direction=v, events=tuple(events), initial_rays_down=rays_down)


def _assert_matches_oracle(graph: SpaceGraph, v) -> None:
    """check_direction and sweep_events agree with the oracles on (graph, v)."""
    expected = _oracle_check_direction(graph, v)
    assert check_direction(graph, v) == expected
    if expected is None:
        assert sweep_events(graph, v) == _oracle_sweep_events(graph, v)
    else:
        with pytest.raises(NonGenericDirection) as exc:
            sweep_events(graph, v)
        assert exc.value.violation == expected


def test_space_graph_crossing_pair(crossing_pair3):
    g = build_space_graph(crossing_pair3)
    assert len(g.vertices) == 1
    assert len(g.edges) == 4
    assert all(len(e.vertices) == 1 for e in g.edges)  # four rays


def test_space_graph_single_line(one_line3):
    g = build_space_graph(one_line3)
    assert g.vertices == ()
    assert len(g.edges) == 1
    assert g.edges[0].vertices == ()


def test_space_graph_line_cut_twice(coplanar3):
    # the third line of the fixture crosses the two axes at distinct points
    g = build_space_graph(coplanar3)
    per_line = {}
    for e in g.edges:
        per_line.setdefault(e.carrier, []).append(e)
    cut_twice = [es for es in per_line.values() if len(es) == 3]
    assert len(cut_twice) == 3  # every line here is cut at two points
    for es in cut_twice:
        kinds = sorted(len(e.vertices) for e in es)
        assert kinds == [1, 1, 2]  # two rays and one bounded segment


def test_check_direction_perpendicular_edge(one_line3):
    g = build_space_graph(one_line3)
    violation = check_direction(g, (0, 0, 1))
    assert violation is not None
    assert violation.kind == "perpendicular_edge"
    assert violation.edge == 0
    assert check_direction(g, (1, 2, 4)) is None


def test_check_direction_level_vertex_pair():
    # two crossings differing only in the first coordinate
    a = build_arrangement(
        3,
        [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 1)), ((9, 0, 0), (0, 1, 2))],
    )
    g = build_space_graph(a)
    assert len(g.vertices) == 2
    violation = check_direction(g, (0, 0, 1))
    # the x-axis itself is perpendicular to (0,0,1); pick a direction that is
    # level only on the vertex pair
    assert violation is not None
    violation = check_direction(g, (0, 1, 5))
    assert violation is None or violation.kind != "level_vertex_pair"
    violation = check_direction(g, (0, 999, 1))
    assert violation is None or violation.kind != "level_vertex_pair"


def test_check_direction_vertex_pair_only():
    graph = graph_from_segments(
        3, [(0, 0, 0), (5, 0, 0), (0, 3, 0)], [(0, 1), (0, 2), (1, 2)]
    )
    violation = check_direction(graph, (0, 0, 1))
    assert violation is not None  # every edge is horizontal for this direction
    graph2 = graph_from_segments(3, [(0, 0, 0), (5, 0, 1)], [(0, 1)])
    violation = check_direction(graph2, (1, 1, -5))
    assert violation is not None and violation.kind == "perpendicular_edge"


def test_check_direction_zero_raises(one_line3):
    g = build_space_graph(one_line3)
    with pytest.raises(ZeroDirection):
        check_direction(g, (0, 0, 0))


def test_find_generic_direction_examples(one_line3):
    g = build_space_graph(one_line3)
    assert find_generic_direction(g) == (1, 1, 1)

    diagonal = build_arrangement(3, [((0, 0, 0), (1, -1, 0))])
    g2 = build_space_graph(diagonal)
    assert check_direction(g2, (1, 1, 1)) is not None
    assert find_generic_direction(g2) == (1, 2, 4)

    empty = SpaceGraph(dimension=4, vertices=(), edges=())
    assert find_generic_direction(empty) == (1, 1, 1, 1)


def test_sweep_events_crossing_pair(crossing_pair3):
    g = build_space_graph(crossing_pair3)
    plan = sweep_events(g, find_generic_direction(g))
    assert len(plan.events) == 1
    assert (plan.events[0].s, plan.events[0].r) == (2, 2)
    assert plan.initial_rays_down == 2


def test_sweep_events_pencil(pencil3):
    g = build_space_graph(pencil3)
    plan = sweep_events(g, find_generic_direction(g))
    assert len(plan.events) == 1
    assert (plan.events[0].s, plan.events[0].r) == (3, 3)


def test_sweep_events_three_planar(generic_planar3):
    g = build_space_graph(generic_planar3)
    plan = sweep_events(g, find_generic_direction(g))
    assert len(plan.events) == 3
    assert all(ev.s == 2 and ev.r == 2 for ev in plan.events)
    levels = [ev.level for ev in plan.events]
    assert levels == sorted(levels) and len(set(levels)) == 3


def test_sweep_events_rejects_non_generic(one_line3):
    g = build_space_graph(one_line3)
    with pytest.raises(NonGenericDirection) as exc:
        sweep_events(g, (0, 0, 1))
    assert exc.value.violation.kind == "perpendicular_edge"


def test_handle_trace_crossing_pair(crossing_pair3):
    g = build_space_graph(crossing_pair3)
    plan = sweep_events(g, find_generic_direction(g))
    trace = handle_trace(plan, 3)
    assert trace.initial_g == 2
    assert trace.final_g == 3 == genus(crossing_pair3)
    assert trace.all_trivial
    assert [st.handles_added for st in trace.steps] == [1]
    assert all(st.handle_index == 1 for st in trace.steps)


@pytest.mark.parametrize("i", [3, 4, 5])
def test_handle_trace_pencils(i):
    dirs = [(1, k, k * k) for k in range(i)]
    a = build_arrangement(3, [((0, 0, 0), u) for u in dirs])
    g = build_space_graph(a)
    plan = sweep_events(g, find_generic_direction(g))
    trace = handle_trace(plan, 3)
    assert trace.initial_g == i
    assert trace.final_g == 2 * i - 1 == genus(a)


def test_square_graph_has_nontrivial_top_event():
    square = graph_from_segments(
        3,
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    v = find_generic_direction(square)
    plan = sweep_events(square, v)
    trace = handle_trace(plan, 3)
    assert plan.initial_rays_down == 0
    assert sum(1 for ev in plan.events if ev.s == 0) == 1
    assert not trace.all_trivial
    nontrivial = [st for st in trace.steps if not st.trivial]
    assert len(nontrivial) == 1
    assert nontrivial[0].handle_index == 2  # index n-1


def test_empty_arrangement_sweeps_to_zero_handles():
    a = build_arrangement(3, [])
    graph = build_space_graph(a)
    plan = sweep_events(graph, find_generic_direction(graph))
    trace = handle_trace(plan, 3)
    assert plan.events == () and plan.initial_rays_down == 0
    assert trace.final_g == 0 == genus(a) and trace.all_trivial


def test_graph_from_segments_rejects_interior_vertex():
    with pytest.raises(ValueError):
        graph_from_segments(3, [(0, 0, 0), (2, 0, 0), (1, 0, 0)], [(0, 1)])


@pytest.mark.parametrize("n,seed0", [(2, 1000), (3, 2000), (4, 3000)])
def test_sweep_formula_equivalence_sample(n, seed0):
    for a in seeded_corpus(n, 12, 8, seed0=seed0):
        graph = build_space_graph(a)
        v = find_generic_direction(graph)
        assert check_direction(graph, v) is None  # self-certification
        plan = sweep_events(graph, v)
        trace = handle_trace(plan, n)
        assert trace.all_trivial
        assert trace.final_g == genus(a)
        assert plan.initial_rays_down == a.d
        mults = {i: mp.multiplicity for i, mp in enumerate(multiple_points(a))}
        for ev in plan.events:
            assert ev.s == ev.r == mults[ev.vertex]
        t = {}
        for mp in multiple_points(a):
            t[mp.multiplicity] = t.get(mp.multiplicity, 0) + 1
        assert sum(ev.s - 1 for ev in plan.events) == sum(
            (i - 1) * c for i, c in t.items()
        )
        # independence of the certified direction
        v2 = second_generic_direction(graph, v)
        trace2 = handle_trace(sweep_events(graph, v2), n)
        assert trace2.final_g == trace.final_g


def _perpendicular(v):
    """A nonzero vector orthogonal to the nonzero vector v."""
    k = next(i for i, c in enumerate(v) if c != 0)
    m = (k + 1) % len(v)
    p = [Fraction(0)] * len(v)
    p[k], p[m] = -v[m], v[k]
    return tuple(p)


_COORD = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@st.composite
def _graphs_and_directions(draw):
    """A small graph_from_segments graph and a nonzero direction v.  Most
    draws force in a vertex on the level of another, a segment perpendicular
    to v, or both; the rest are mostly generic."""
    n = draw(st.sampled_from([2, 3, 4]))
    v = draw(st.tuples(*[_COORD] * n).filter(any))
    points = draw(st.lists(st.tuples(*[_COORD] * n), min_size=1, max_size=7, unique=True))
    pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    segments = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs else []
    if draw(st.sampled_from([True, True, False])):
        base = draw(st.integers(0, len(points) - 1))
        level_mate = tuple(a + b for a, b in zip(points[base], _perpendicular(v)))
        if level_mate not in points:
            points.append(level_mate)
        if draw(st.booleans()):
            segments.append((base, points.index(level_mate)))
    try:
        graph = graph_from_segments(n, points, segments)
    except (ValueError, LinetopoError):
        assume(False)  # a vertex inside a segment, or a repeated segment
    return graph, v


@settings(max_examples=300, deadline=None)
@given(_graphs_and_directions(), st.booleans())
def test_integer_check_matches_oracle_on_random_graphs(graph_and_v, integral):
    graph, v = graph_and_v
    if integral:
        v = tuple(c.numerator for c in v)
    _assert_matches_oracle(graph, v)


@pytest.mark.parametrize("n,seed0", [(2, 1000), (3, 2000), (4, 3000)])
def test_sweep_plans_match_oracle_on_corpus(n, seed0):
    user_directions = [
        tuple(Fraction(1, 2 + i) for i in range(n)),
        tuple(Fraction((-1) ** i * (i + 3), 7) for i in range(n)),
        (1,) + (0,) * (n - 1),  # level on every line parallel to the other axes
    ]
    for a in seeded_corpus(n, 12, 8, seed0=seed0):
        graph = build_space_graph(a)
        v = find_generic_direction(graph)
        k = v[1]
        for j in range(1, k + 1):  # every rejected candidate, then the acceptor
            _assert_matches_oracle(graph, tuple(j**i for i in range(n)))
        _assert_matches_oracle(graph, second_generic_direction(graph, v))
        for u in user_directions:
            _assert_matches_oracle(graph, u)


def _space_graph_oracle(a):
    """build_space_graph as it was when each line's cuts were sorted by
    their Fraction parameter, not taken in the points' order."""
    mps = a.multiple_points
    cuts_of = [[] for _ in a.lines]
    for vi, mp in enumerate(mps):
        for li in mp.incident:
            cuts_of[li].append((a.lines[li].param_of(mp.location), vi))
    edges = []
    for line, cuts in zip(a.lines, cuts_of):
        cuts.sort()
        if not cuts:
            edges.append(GraphEdge(carrier=line, vertices=()))
            continue
        down = tuple(-c for c in line.direction)
        edges.append(GraphEdge(carrier=line, vertices=(cuts[0][1],), ray_dir=down))
        for (_, vi), (_, vj) in zip(cuts, cuts[1:]):
            edges.append(GraphEdge(carrier=line, vertices=(vi, vj)))
        edges.append(GraphEdge(carrier=line, vertices=(cuts[-1][1],), ray_dir=line.direction))
    return SpaceGraph(
        dimension=a.dimension,
        vertices=tuple(mp.location for mp in mps),
        edges=tuple(edges),
    )


@settings(max_examples=150, deadline=None)
@given(hub_arrangements(), st.lists(st.integers(-7, 7), min_size=4, max_size=4))
def test_integer_orders_match_the_fraction_sorts(a, raw_direction):
    # cuts taken in the points' lexicographic order give the
    # param_of-sorted edges, and events sorted by cross-multiplied heights
    # the Fraction-sorted levels, for the search's direction and for a drawn
    # one with negative entries
    graph = build_space_graph(a)
    assert graph == _space_graph_oracle(a)
    _assert_matches_oracle(graph, find_generic_direction(graph))
    v = raw_direction[: a.dimension]
    if any(v):
        _assert_matches_oracle(graph, v)
