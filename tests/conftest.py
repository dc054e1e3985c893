"""Shared fixtures: canonical arrangements and seeded corpora."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from linetopo import (
    SplitMix64,
    ZeroDirection,
    build_arrangement,
    canonicalize_line,
    generate_random,
)
from linetopo.arrangement import arrangement_of_lines

X_AXIS3 = ((0, 0, 0), (1, 0, 0))
Y_AXIS3 = ((0, 0, 0), (0, 1, 0))
Z_AXIS3 = ((0, 0, 0), (0, 0, 1))


@pytest.fixture
def one_line3():
    return build_arrangement(3, [X_AXIS3])


@pytest.fixture
def crossing_pair3():
    return build_arrangement(3, [X_AXIS3, Y_AXIS3])


@pytest.fixture
def skew_pair3():
    return build_arrangement(3, [X_AXIS3, ((0, 1, 0), (0, 0, 1))])


@pytest.fixture
def pencil3():
    return build_arrangement(3, [X_AXIS3, Y_AXIS3, Z_AXIS3])


@pytest.fixture
def coplanar3():
    # x-axis, y-axis, and x + y = 10 inside the plane z = 0: three pairwise
    # crossings at mutual distance 10
    return build_arrangement(3, [X_AXIS3, Y_AXIS3, ((10, 0, 0), (1, -1, 0))])


@pytest.fixture
def generic_planar3():
    return build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((5, 0), (1, -1))])


@pytest.fixture
def intersection_calls(monkeypatch):
    """The list of meet calls made by the intersection pass."""
    import linetopo.arrangement

    calls = []
    real = linetopo.arrangement.meet

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(linetopo.arrangement, "meet", counting)
    return calls


def primitive_direction(u) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    Denominators are cleared, the gcd divided out, and the sign fixed so the
    first nonzero entry is positive.  Parallel vectors therefore normalize to
    the identical tuple.  Fraction arithmetic, apart from geometry's integer
    forms.
    """
    u = [Fraction(x) for x in u]
    den = lcm(*(x.denominator for x in u))
    ints = [int(x * den) for x in u]
    g = gcd(*ints)
    if g == 0:
        raise ZeroDirection("direction vector is zero")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def second_generic_direction(graph, first):
    """Next moment-curve acceptor after the given accepted direction."""
    from linetopo import check_direction

    n = graph.dimension
    k = 1
    while tuple(k**i for i in range(n)) != first:
        k += 1
    k += 1
    while True:
        v = tuple(k**i for i in range(n))
        if v != first and check_direction(graph, v) is None:
            return v
        k += 1


def seeded_corpus(n: int, count: int, max_d: int, seed0: int):
    """Deterministic list of arrangements cycling generic/mixed/pencil profiles."""
    out = []
    for i in range(count):
        seed = seed0 + 1009 * i
        rng = SplitMix64(seed)
        d = 1 + rng.below(max_d)
        kind = i % 3
        if kind == 0 or d < 2:
            profile = "generic"
        elif kind == 1:
            profile = "mixed"
        else:
            profile = f"pencil({2 + rng.below(d - 1)})"
        out.append(generate_random(n, d, profile, seed))
    return out


_HUB_COORDS = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66)),
)


@st.composite
def hub_arrangements(draw):
    """Distinct lines in R^n, n = 2-4, through a few hub points with large
    and negative coordinates: lines joining two hubs, lines along a signed
    coordinate axis (vertical ones included) through a hub, and random
    directions through a hub.  Hubs shared by several lines give multiple
    points of every multiplicity, and a line through two hubs is cut twice."""
    n = draw(st.integers(2, 4))
    hubs = draw(st.lists(st.tuples(*[_HUB_COORDS] * n), min_size=2, max_size=4, unique=True))
    lines = {}
    for _ in range(draw(st.integers(2, 6))):
        p = draw(st.sampled_from(hubs))
        mode = draw(st.sampled_from(["bridge", "axis", "random"]))
        if mode == "bridge":
            q = draw(st.sampled_from([h for h in hubs if h != p]))
            u = [Fraction(y) - Fraction(x) for x, y in zip(p, q)]
        elif mode == "axis":
            k, sign = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, -1]))
            u = [sign * (i == k) for i in range(n)]
        else:
            u = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any))
        lines.setdefault(canonicalize_line(p, u), None)
    return arrangement_of_lines(n, lines)
