"""Shared fixtures: canonical arrangements and seeded corpora."""

from __future__ import annotations

import pytest

from linetopo import SplitMix64, build_arrangement, generate_random

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
    """The list of intersect_lines calls made by the intersection pass."""
    import linetopo.arrangement

    calls = []
    real = linetopo.arrangement.intersect_lines

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(linetopo.arrangement, "intersect_lines", counting)
    return calls


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
