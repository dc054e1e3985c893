"""Height-function sweep over a space graph and the induced handle trace.

A space graph is a closed union of segments, half-lines, and full lines in
R^n, viewed as a graph with possibly non-compact edges.  For a direction v
that is level on no edge (condition i) and separates all vertex heights
(condition ii), the topology of the part of the complement below level c
changes only when c crosses a vertex u: if s(u) >= 1 edges leave u upward,
passing the level attaches s(u) - 1 trivial handles of index n-2; if
s(u) = 0 (a local maximum of the height on the graph) it attaches one handle
of index n-1 that need not be trivial.

Starting from a low level, where the complement is a half-space minus one
half-line per downward-unbounded edge end, the accumulated count of trivial
index-(n-2) handles for a line arrangement is d + sum (i-1) t_i: the same g
as the invariant formula, reached along a completely different code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd
from operator import mul

from .arrangement import Arrangement
from .errors import DimensionMismatch, NonGenericDirection, ZeroDirection
from .geometry import Line, Point, as_point, dot, integer_form, line_from_integer_form


@dataclass(frozen=True)
class GraphEdge:
    """A straight edge of a space graph.

    ``vertices`` holds 2 indices for a bounded segment, 1 for a half-line,
    and 0 for a full line.  ``ray_dir`` is the outgoing primitive direction
    of a half-line and None otherwise.  Edge interiors contain no vertex.
    """

    carrier: Line
    vertices: tuple[int, ...]
    ray_dir: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SpaceGraph:
    """``integer_vertices`` holds each vertex u as (X_u, D_u), integer
    numerators over D_u > 0 with gcd(*X_u, D_u) == 1, so that u = X_u / D_u;
    ``vertices`` is the same points as Fractions, built on first read."""

    dimension: int
    integer_vertices: tuple[tuple[tuple[int, ...], int], ...]
    edges: tuple[GraphEdge, ...]

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(tuple(Fraction(x, D) for x in X) for X, D in self.integer_vertices)


@dataclass(frozen=True)
class Violation:
    """Why a direction fails genericity: the offending edge or vertex pair."""

    kind: str  # "perpendicular_edge" or "level_vertex_pair"
    edge: int | None = None
    vertex_pair: tuple[int, int] | None = None

    def __str__(self) -> str:
        if self.kind == "perpendicular_edge":
            return f"direction is perpendicular to edge {self.edge} (condition i)"
        return (
            f"vertices {self.vertex_pair[0]} and {self.vertex_pair[1]} lie on one "
            f"level hyperplane (condition ii)"
        )


@dataclass(frozen=True)
class SweepEvent:
    vertex: int
    level: Fraction  # height of the vertex along the sweep direction
    s: int  # edges adjacent from above
    r: int  # edges adjacent from below


@dataclass(frozen=True)
class SweepPlan:
    direction: tuple[Fraction, ...]
    events: tuple[SweepEvent, ...]  # strictly increasing in level
    initial_rays_down: int  # unbounded edge ends pointing downward


@dataclass(frozen=True)
class HandleStep:
    event: int  # index into SweepPlan.events
    handles_added: int
    handle_index: int
    trivial: bool


@dataclass(frozen=True)
class HandleTrace:
    """Accumulated handle ledger of a sweep.

    ``final_g`` counts the initial downward half-lines plus all trivial
    index-(n-2) additions; it names the ball-with-handles descriptor only
    when ``all_trivial`` is True.
    """

    steps: tuple[HandleStep, ...]
    initial_g: int
    final_g: int
    all_trivial: bool


def build_space_graph(a: Arrangement) -> SpaceGraph:
    """Cut the arrangement's lines at their multiple points.

    Each line becomes bounded segments between consecutive incident multiple
    points plus two half-lines, or stays a single full-line edge when no
    multiple point lies on it.
    """
    mps = a.multiple_points
    # The points come in lexicographic order.  Along a canonical line, whose
    # first nonzero direction entry is positive, lexicographic order is the
    # order of the parameter, so each line's cuts arrive sorted.
    cuts_of: list[list[int]] = [[] for _ in a.lines]
    for vi, mp in enumerate(mps):
        for li in mp.incident:
            cuts_of[li].append(vi)
    edges: list[GraphEdge] = []
    for line, cuts in zip(a.lines, cuts_of):
        if not cuts:
            edges.append(GraphEdge(carrier=line, vertices=()))
            continue
        down = tuple(-c for c in line.direction)
        edges.append(GraphEdge(carrier=line, vertices=(cuts[0],), ray_dir=down))
        for vi, vj in zip(cuts, cuts[1:]):
            edges.append(GraphEdge(carrier=line, vertices=(vi, vj)))
        edges.append(GraphEdge(carrier=line, vertices=(cuts[-1],), ray_dir=line.direction))
    return SpaceGraph(
        dimension=a.dimension,
        integer_vertices=tuple(mp.integer_location for mp in mps),
        edges=tuple(edges),
    )


def graph_from_segments(n: int, points, segments) -> SpaceGraph:
    """Build a compact space graph from vertex coordinates and index pairs.

    Validates that no two vertices coincide and that no vertex lies in the
    interior of a segment.  Two vertices at one point lie on one level of
    every direction, so no direction would be generic.  On points cleared once
    to X / D, vertex k lies inside segment (i, j) iff 0 < (a.b) D_j < (b.b) D_k
    and a = X_k D_i - X_i D_k is parallel to b = X_j D_i - X_i D_j.
    """
    forms = tuple(map(integer_form, points))
    for X, D in forms:
        if len(X) != n:
            p = tuple(Fraction(x, D) for x in X)
            raise DimensionMismatch(f"vertex {p} does not have dimension {n}")
    first_at = {}
    for k, x in enumerate(forms):
        i = first_at.setdefault(x, k)
        if i != k:
            raise ValueError(f"vertices {i} and {k} are at the same point")
    edges = []
    for (i, j) in segments:
        if i == j:
            raise ZeroDirection("segment endpoints coincide")
        (Xi, Di), (Xj, Dj) = forms[i], forms[j]
        b = [xj * Di - xi * Dj for xi, xj in zip(Xi, Xj)]
        carrier = line_from_integer_form(Xi, Di, b)
        bb, bi = dot(b, b), dot(Xi, b)
        for k, (Xk, Dk) in enumerate(forms):
            ab = dot(Xk, b) * Di - bi * Dk  # a.b, before a is built
            if 0 < ab * Dj < bb * Dk:
                a = [xk * Di - xi * Dk for xi, xk in zip(Xi, Xk)]
                if dot(a, a) * bb == ab * ab:  # equal in Cauchy-Schwarz: parallel
                    raise ValueError(f"vertex {k} lies in the interior of segment ({i},{j})")
        edges.append(GraphEdge(carrier=carrier, vertices=(i, j)))
    return SpaceGraph(dimension=n, integer_vertices=forms, edges=tuple(edges))


def _integer_direction(x: SpaceGraph, v) -> tuple[tuple[int, ...], int]:
    """Validate a direction and clear its denominators: (w, c) with w = c*v, c > 0.

    Scaling by a positive number changes neither genericity nor any sign.
    """
    w, c = integer_form(v)
    if len(w) != x.dimension:
        raise DimensionMismatch(
            f"direction has dimension {len(w)}, graph has {x.dimension}"
        )
    if not any(w):
        raise ZeroDirection("sweep direction is zero")
    return w, c


def _heights(x: SpaceGraph, w: tuple[int, ...]) -> list[int]:
    """Integer height numerators h_u = X_u . w; vertex u sits at h_u / D_u."""
    return [sum(map(mul, num, w)) for num, _ in x.integer_vertices]


def _perpendicular_edge(x: SpaceGraph, w: tuple[int, ...]) -> Violation | None:
    """Condition (i): the first edge whose direction has zero height change."""
    for ei, edge in enumerate(x.edges):
        if sum(map(mul, edge.carrier.direction, w)) == 0:
            return Violation(kind="perpendicular_edge", edge=ei)
    return None


def _level_pair(x: SpaceGraph, heights: list[int]) -> Violation | None:
    """Condition (ii): the lexicographically first pair of vertices on one level.

    One pass keyed by the reduced height (h // q, D // q), q = gcd(h, D),
    which is equal for two vertices iff their heights are.  The smallest
    index whose height recurs is a first occurrence, and its partner is the
    second occurrence of that height.
    """
    first: dict[tuple[int, int], int] = {}
    pair = None
    for j, (h, (_, den)) in enumerate(zip(heights, x.integer_vertices)):
        q = gcd(h, den)
        i = first.setdefault((h // q, den // q), j)
        if i != j and (pair is None or i < pair[0]):
            pair = (i, j)
    if pair is None:
        return None
    return Violation(kind="level_vertex_pair", vertex_pair=pair)


def check_direction(x: SpaceGraph, v) -> Violation | None:
    """None if v satisfies conditions (i) and (ii), else the first Violation.

    (i): v is perpendicular to no edge, so the height is level on no edge;
    the first such edge is reported.
    (ii): no two vertices share a height, so levels meet one vertex at most;
    the lexicographically first level pair is reported.

    A rational v is scaled to integers first, and each vertex is held as
    integer numerators over one denominator, so a call costs O(V + E)
    exact integer operations: one dot product per edge and per vertex, and
    one hashed pass over the heights.
    """
    w, _ = _integer_direction(x, v)
    return _perpendicular_edge(x, w) or _level_pair(x, _heights(x, w))


def find_generic_direction(x: SpaceGraph) -> tuple[int, ...]:
    """First moment-curve candidate (1, k, k^2, ...) passing check_direction.

    Each genericity constraint excludes the roots of a nonzero polynomial in
    k of degree at most n - 1: one per edge (its direction dotted with v) and
    one per vertex pair (their height difference).  So at most
    (n - 1)(E + V(V - 1)/2) candidates fail, the accepted k is at most one
    more, and the search terminates.  The deterministic choice makes reports
    reproducible.  Candidates skip check_direction's input checks and cost
    O(V + E) integer operations, so the search is O(n (E + V^2)(V + E)) in
    the worst case.  The accepted k can grow as V^2: the lines y = 0 and
    y = -1 and the L lines through (i, 0) and (L i, -1), i = 1..L, which
    share one point, give V = 2L + 1 and accept first k = L^2.
    """
    n = x.dimension
    k = 1
    while True:
        v = tuple(k**i for i in range(n))
        if (_perpendicular_edge(x, v) or _level_pair(x, _heights(x, v))) is None:
            return v
        k += 1


def sweep_events(x: SpaceGraph, v) -> SweepPlan:
    """Ordered vertex events with upward/downward branch counts.

    Requires check_direction(x, v) to pass; raises NonGenericDirection
    otherwise.  Condition (ii) makes the event levels strictly increasing, so
    no tie-breaking exists.  initial_rays_down counts the unbounded edge ends
    oriented downward: one per downward half-line and one per full line.

    The re-check reuses the integer heights, and s and r come from one pass
    over the edges: a segment adds to s at its lower end and to r at its
    upper end, a half-line to s or r by the sign of its direction.  The
    levels are sorted by cross-multiplying the integer heights, and each
    event's level Fraction is built once, so a call costs O(V log V + E).
    """
    v = as_point(v)
    w, c = _integer_direction(x, v)
    heights = _heights(x, w)
    violation = _perpendicular_edge(x, w) or _level_pair(x, heights)
    if violation is not None:
        raise NonGenericDirection(violation)
    dens = [den for _, den in x.integer_vertices]
    s = [0] * len(heights)
    r = [0] * len(heights)
    rays_down = 0
    for edge in x.edges:
        if len(edge.vertices) == 2:
            lo, hi = edge.vertices
            if heights[lo] * dens[hi] > heights[hi] * dens[lo]:
                lo, hi = hi, lo
            s[lo] += 1
            r[hi] += 1
        elif edge.vertices:
            if sum(map(mul, edge.ray_dir, w)) > 0:
                s[edge.vertices[0]] += 1
            else:
                r[edge.vertices[0]] += 1  # nonzero by condition (i)
                rays_down += 1
        else:
            rays_down += 1  # a full line has exactly one downward end
    # p below q iff h_p / D_p < h_q / D_q; condition (ii) makes this strict
    order = sorted(
        range(len(heights)),
        key=cmp_to_key(lambda p, q: heights[p] * dens[q] - heights[q] * dens[p]),
    )
    events = tuple(
        SweepEvent(vertex=u, level=Fraction(heights[u], dens[u] * c), s=s[u], r=r[u])
        for u in order
    )
    return SweepPlan(direction=v, events=events, initial_rays_down=rays_down)


def handle_trace(plan: SweepPlan, n: int) -> HandleTrace:
    """Accumulate the handle ledger of a sweep in ambient dimension n.

    Starts from initial_rays_down handles (the half-space below all events
    minus one half-line per downward end).  An event with s >= 1 upward
    branches adds s - 1 trivial handles of index n-2; an event with s = 0
    adds one handle of index n-1 that need not be trivial, which clears
    ``all_trivial`` and voids any ball-with-handles conclusion.  Only the
    trivial index-(n-2) additions accumulate into final_g.
    """
    steps = []
    g = plan.initial_rays_down
    all_trivial = True
    for idx, ev in enumerate(plan.events):
        if ev.s >= 1:
            steps.append(
                HandleStep(event=idx, handles_added=ev.s - 1, handle_index=n - 2, trivial=True)
            )
            g += ev.s - 1
        else:
            steps.append(
                HandleStep(event=idx, handles_added=1, handle_index=n - 1, trivial=False)
            )
            all_trivial = False
    return HandleTrace(
        steps=tuple(steps),
        initial_g=plan.initial_rays_down,
        final_g=g,
        all_trivial=all_trivial,
    )
