import pytest

from linetopo import (
    build_arrangement,
    build_poset,
    genus,
    hasse_dot,
    hasse_edges,
    multiple_points,
    multiplicity_vector,
    recover_line_count,
    recover_multiplicities,
)
from conftest import seeded_corpus


def strictly_above(p, x: str) -> set[str]:
    """The elements above x, by a scan of the relations: an oracle apart
    from the poset's cached up-sets."""
    return {y for (a, y) in p.relations if a == x}


def strictly_below(p, x: str) -> set[str]:
    """The elements below x, by a scan of the relations."""
    return {a for (a, y) in p.relations if y == x}


def test_two_crossing_lines_poset(crossing_pair3):
    p = build_poset(crossing_pair3)
    assert set(p.elements) == {"p0", "l0", "l1", "T"}
    assert ("p0", "l0") in p.relations
    assert ("p0", "l1") in p.relations
    assert all((el, "T") in p.relations for el in ("p0", "l0", "l1"))


def test_two_skew_lines_poset(skew_pair3):
    p = build_poset(skew_pair3)
    assert set(p.elements) == {"l0", "l1", "T"}
    assert p.relations == frozenset({("l0", "T"), ("l1", "T")})


def test_concurrent_lines_poset(pencil3):
    p = build_poset(pencil3)
    assert strictly_above(p, "p0") == {"l0", "l1", "l2", "T"}


def test_recover_multiplicities_examples(generic_planar3, skew_pair3):
    assert recover_multiplicities(build_poset(generic_planar3)) == {2: 3}
    assert recover_multiplicities(build_poset(skew_pair3)) == {}
    pencil5 = build_arrangement(
        2,
        [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 1)),
         ((0, 0), (1, -1)), ((0, 0), (2, 1))],
    )
    assert recover_multiplicities(build_poset(pencil5)) == {5: 1}


def test_recover_line_count_examples(pencil3, one_line3):
    assert recover_line_count(build_poset(pencil3)) == 3
    assert recover_line_count(build_poset(one_line3)) == 1
    skew4 = build_arrangement(
        3,
        [((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, 1)),
         ((0, 2, 3), (1, 1, 0)), ((5, 0, 7), (0, 1, 1))],
    )
    assert multiple_points(skew4) == []
    assert recover_line_count(build_poset(skew4)) == 4


def test_hasse_edges(crossing_pair3, one_line3, skew_pair3):
    assert hasse_edges(build_poset(crossing_pair3)) == [
        ("p0", "l0"), ("p0", "l1"), ("l0", "T"), ("l1", "T"),
    ]
    assert hasse_edges(build_poset(one_line3)) == [("l0", "T")]
    assert hasse_edges(build_poset(skew_pair3)) == [("l0", "T"), ("l1", "T")]


@pytest.mark.parametrize("n,seed0", [(2, 650), (3, 750)])
def test_hasse_edges_match_the_covering_definition(n, seed0):
    # (x, y) covers iff no z with x < z < y, read through the per-element queries
    for a in seeded_corpus(n, 10, 8, seed0=seed0):
        p = build_poset(a)
        covers = {
            (x, y)
            for (x, y) in p.relations
            if not any(y in strictly_above(p, z) for z in strictly_above(p, x))
        }
        edges = hasse_edges(p)
        assert set(edges) == covers and len(edges) == len(covers)


def test_hasse_dot_output(crossing_pair3):
    dot = hasse_dot(build_poset(crossing_pair3))
    assert dot.startswith("digraph hasse {")
    assert '"p0" -> "l0";' in dot
    assert '"l1" -> "T";' in dot


@pytest.mark.parametrize("n,seed0", [(2, 600), (3, 700), (4, 800)])
def test_roundtrip_recovery_over_corpus(n, seed0):
    for a in seeded_corpus(n, 15, 8, seed0=seed0):
        p = build_poset(a)
        assert recover_multiplicities(p) == multiplicity_vector(a)
        assert recover_line_count(p) == a.d
        # recovered data determines g without seeing the geometry
        t = recover_multiplicities(p)
        assert recover_line_count(p) + sum((i - 1) * c for i, c in t.items()) == genus(a)


def test_chains_and_up_set_sizes():
    for a in seeded_corpus(2, 8, 7, seed0=900):
        p = build_poset(a)
        mps = multiple_points(a)
        for el in p.elements:
            below = strictly_below(p, el)
            # chain length <= 3: nothing sits below a minimal point's cover twice
            for b in below:
                assert not strictly_below(p, b) or el == "T"
        for pi, mp in enumerate(mps):
            assert len(strictly_above(p, f"p{pi}") - {"T"}) == mp.multiplicity


def test_up_and_down_sets_are_computed_once_per_poset(pencil3, coplanar3):
    # the three readers share one pass over the relations, and two posets
    # never share one
    p, q = build_poset(pencil3), build_poset(coplanar3)
    first = p._up_down
    assert (hasse_edges(p), recover_line_count(p), recover_multiplicities(p)) == (
        [("p0", "l0"), ("p0", "l1"), ("p0", "l2"), ("l0", "T"), ("l1", "T"), ("l2", "T")],
        3,
        {3: 1},
    )
    assert p._up_down is first
    assert recover_multiplicities(q) == {2: 3} and q._up_down is not first
