"""The intersection poset of an arrangement and invariant recovery from it.

Elements are the multiple points, the lines, and a top element T standing
for the whole ambient space, ordered by inclusion.  The combinatorial data
(d, all t_i) is recoverable from the bare order relation: t_i counts the
minimal elements with exactly i elements strictly above them other than T,
and d counts the maximal elements of the poset minus T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .arrangement import Arrangement

TOP = "T"


@dataclass(frozen=True)
class IntersectionPoset:
    """A strict partial order on string ids ("p0", "l0", ..., "T")."""

    elements: tuple[str, ...]
    relations: frozenset[tuple[str, str]]  # (x, y) means x < y; full strict order

    def strictly_above(self, x: str) -> set[str]:
        return {y for (a, y) in self.relations if a == x}

    def strictly_below(self, x: str) -> set[str]:
        return {a for (a, y) in self.relations if y == x}

    @cached_property
    def _up_down(self) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
        """Strict up-set and down-set of every element, from one pass over
        the relations, computed once per poset; the poset is frozen, so the
        cache never goes stale.  Callers must not mutate the sets."""
        up: dict[str, set[str]] = {el: set() for el in self.elements}
        down: dict[str, set[str]] = {el: set() for el in self.elements}
        for x, y in self.relations:
            up[x].add(y)
            down[y].add(x)
        return up, down


def build_poset(a: Arrangement) -> IntersectionPoset:
    """Intersection poset: points below their incident lines, everything below T."""
    mps = a.multiple_points
    elements = (
        [f"p{i}" for i in range(len(mps))]
        + [f"l{i}" for i in range(a.d)]
        + [TOP]
    )
    relations = set()
    for pi, mp in enumerate(mps):
        for li in mp.incident:
            relations.add((f"p{pi}", f"l{li}"))
    for el in elements:
        if el != TOP:
            relations.add((el, TOP))
    return IntersectionPoset(elements=tuple(elements), relations=frozenset(relations))


def recover_multiplicities(p: IntersectionPoset) -> dict[int, int]:
    """Recover the map i -> t_i from the order relation alone.

    t_i is the number of minimal elements of P minus T whose strict up-set,
    excluding T, has size exactly i (only i >= 2 occurs for honest multiple
    points; isolated lines are minimal with empty up-set and are skipped).
    """
    up, down = p._up_down
    t: dict[int, int] = {}
    for el in p.elements:
        if el == TOP or down[el]:
            continue
        i = len(up[el] - {TOP})
        if i >= 2:
            t[i] = t.get(i, 0) + 1
    return dict(sorted(t.items()))


def recover_line_count(p: IntersectionPoset) -> int:
    """Recover d as the number of maximal elements of P minus T."""
    up, _ = p._up_down
    return sum(1 for el in p.elements if el != TOP and up[el] == {TOP})


def hasse_edges(p: IntersectionPoset) -> list[tuple[str, str]]:
    """Covering pairs of the order (its transitive reduction), ordered by the
    positions of their ends in ``p.elements``."""
    up, _ = p._up_down
    edges = [
        (x, y)
        for (x, y) in p.relations
        if not any(y in up[z] for z in up[x] if z != y)
    ]
    rank = {el: k for k, el in enumerate(p.elements)}
    return sorted(edges, key=lambda e: (rank[e[0]], rank[e[1]]))


def hasse_dot(p: IntersectionPoset) -> str:
    """Hasse diagram as DOT-compatible text, edges pointing upward in the order."""
    lines = ["digraph hasse {"]
    for el in p.elements:
        lines.append(f'  "{el}";')
    for x, y in hasse_edges(p):
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
