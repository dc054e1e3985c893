"""Arrangements of affine lines: multiple points, multiplicity counts, and the
predicted topology of the complement.

The complement of d distinct affine lines in R^n is determined up to
diffeomorphism by d together with the multiplicity counts t_i (number of
points where exactly i lines meet): it is the interior of an n-ball with

    g = d + sum_i (i - 1) * t_i

trivially attached handles of index n-2, hence homotopy equivalent to a
bouquet of g spheres of dimension n-2.  For n = 2 the complement has exactly
1 + g contractible components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, DuplicateLine, InvariantViolation
from .geometry import COINCIDENT, Line, Point, canonicalize_line, compare_points, meet


@dataclass(frozen=True)
class Arrangement:
    """A validated set of d >= 0 pairwise distinct canonical lines in R^n."""

    dimension: int
    lines: tuple[Line, ...]

    @property
    def d(self) -> int:
        return len(self.lines)

    @cached_property
    def multiple_points(self) -> tuple[MultiplePoint, ...]:
        """The multiple points, computed by ``multiple_points(self)`` on first
        use and cached; the arrangement is frozen, so the cache never goes
        stale.  Every consumer in the package reads this property."""
        return tuple(multiple_points(self))


@dataclass(frozen=True)
class MultiplePoint:
    """A point where >= 2 lines of the arrangement meet."""

    location: Point
    incident: tuple[int, ...]  # sorted line indices

    @property
    def multiplicity(self) -> int:
        return len(self.incident)


@dataclass(frozen=True)
class InvariantReport:
    """Combinatorial invariants and the topology they force on the complement."""

    dimension: int
    d: int
    t: dict[int, int]
    g: int
    betti: tuple[int, ...]  # (b_0, ..., b_n)
    homotopy: str
    boundary_genus: int | None  # genus of the boundary surface; n = 3 only


def build_arrangement(n: int, raw_lines) -> Arrangement:
    """Canonicalize raw (point, direction) pairs into an Arrangement.

    Raises DuplicateLine if two inputs describe the same line; the message
    names both offending indices.  Input order is preserved.
    """
    return arrangement_of_lines(n, (canonicalize_line(p, u) for p, u in raw_lines))


def arrangement_of_lines(n: int, lines) -> Arrangement:
    """The Arrangement of canonical lines in R^n, in their order.

    Raises DimensionMismatch for n < 2 or a line in another dimension, and
    DuplicateLine, naming both indices, for two equal lines.  ``lines`` is
    read once, in order, so a generator's own errors keep their place
    between these checks.
    """
    if n < 2:
        raise DimensionMismatch(f"ambient dimension must be >= 2, got {n}")
    seen: dict[Line, int] = {}
    for idx, line in enumerate(lines):
        if line.dimension != n:
            raise DimensionMismatch(
                f"line {idx} has dimension {line.dimension}, expected {n}"
            )
        if line in seen:
            raise DuplicateLine(seen[line], idx)
        seen[line] = idx
    return Arrangement(dimension=n, lines=tuple(seen))  # dicts keep insertion order


def multiple_points(a: Arrangement) -> list[MultiplePoint]:
    """All points lying on >= 2 lines, with their full incident line sets.

    This is the uncached O(d^2) pass; ``Arrangement.multiple_points`` caches
    its result per arrangement.  ``_unproven_pairs`` first drops the pairs
    that residues prove skew; every other pair is intersected exactly.
    Pairwise intersections are grouped by their reduced integer forms,
    which are equal iff the points are; any line through a grouped location
    is picked up automatically because it meets each of the other incident
    lines there.  Output is sorted lexicographically by location, compared
    in integers, and each location is built as Fractions once.
    """
    clusters: dict[tuple[tuple[int, ...], int], set[int]] = {}
    for i, j in _unproven_pairs(a):
        x = meet(a.lines[i], a.lines[j])
        if x is None:
            continue
        if x is COINCIDENT:
            raise InvariantViolation(f"arrangement lines {i} and {j} coincide")
        clusters.setdefault(x, set()).update((i, j))
    return [
        MultiplePoint(
            location=tuple(Fraction(xk, D) for xk in X),
            incident=tuple(sorted(clusters[X, D])),
        )
        for X, D in sorted(clusters, key=cmp_to_key(compare_points))
    ]


# A prime below 2^31: residues stay below 2^31, so every product of two
# residues stays below 2^62.  The pass reduces after every product, so no
# sum or difference it forms leaves int64.
_PRIME = 2**31 - 1
_BLOCK_PAIRS = 1 << 16  # pairs per numpy block, which bounds the pass's memory


def _unproven_pairs(a: Arrangement):
    """The pairs (i, j), i < j, in lexicographic order, that residues do not
    prove skew.

    Lines i and j with directions u, v and integer bases (A_i, D_i),
    (A_j, D_j) meet only if every 3x3 minor of [u, v, r] vanishes, where
    r = A_j D_i - A_i D_j.  The minor on rows (x, y, z) is
    D_i M(u, v, A_j) - D_j M(u, v, A_i), M the 3x3 determinant on those
    rows.  A minor that is nonzero mod a prime is nonzero, so the pair is
    skew.  Parallel pairs have vanishing minors, and the plane has none, so
    those pairs are always kept.
    """
    n, d = a.dimension, a.d
    p = _PRIME

    def residues(rows, shape):
        return np.array([[x % p for x in row] for row in rows], dtype=np.int64).reshape(shape)

    u = residues((line.direction for line in a.lines), (d, n))
    A = residues((line.integer_base[0] for line in a.lines), (d, n))
    D = residues(((line.integer_base[1],) for line in a.lines), (d, 1))
    step = max(1, _BLOCK_PAIRS // max(d, 1))
    for lo in range(0, d, step):
        hi = min(lo + step, d)
        ui, uj = u[lo:hi, None, :], u[None, lo:, :]
        Ai, Aj = A[lo:hi, None, :], A[None, lo:, :]
        Di, Dj = D[lo:hi], D[lo:, 0]
        kept = np.triu(np.ones((hi - lo, d - lo), dtype=bool), 1)
        for rows in combinations(range(n), 3):
            # cross[k]: the cofactor of row rows[k] in M(u, v, .), mod p
            cross = [
                (ui[..., y] * uj[..., z] % p - ui[..., z] * uj[..., y] % p) % p
                for y, z in ((rows[1], rows[2]), (rows[2], rows[0]), (rows[0], rows[1]))
            ]
            m_j = sum(c * Aj[..., x] % p for c, x in zip(cross, rows)) % p
            m_i = sum(c * Ai[..., x] % p for c, x in zip(cross, rows)) % p
            kept &= (Di * m_j % p - Dj * m_i % p) % p == 0
        i, j = np.nonzero(kept)
        yield from zip((i + lo).tolist(), (j + lo).tolist())


def multiplicity_vector(a: Arrangement) -> dict[int, int]:
    """Map multiplicity i -> number of multiple points with exactly i lines."""
    t: dict[int, int] = {}
    for mp in a.multiple_points:
        t[mp.multiplicity] = t.get(mp.multiplicity, 0) + 1
    return dict(sorted(t.items()))


def genus(a: Arrangement) -> int:
    """d + sum_i (i - 1) t_i: the handle count of the complement."""
    return predict_topology(a).g


def betti_vector(n: int, g: int) -> tuple[int, ...]:
    """Betti vector (b_0, ..., b_n) of an n-ball with g trivial handles of
    index n-2 attached: 1 at index 0 and g at index n-2, so 1+g at index 0
    for n = 2; all other entries vanish."""
    betti = [0] * (n + 1)
    betti[0] = 1
    betti[n - 2] += g
    return tuple(betti)


def predict_topology(a: Arrangement) -> InvariantReport:
    """Invariants plus the Betti vector and homotopy type they determine."""
    n = a.dimension
    t = multiplicity_vector(a)
    g = a.d + sum((i - 1) * c for i, c in t.items())
    homotopy = f"{1 + g} points" if n == 2 else f"bouquet of {g} spheres S^{n - 2}"
    return InvariantReport(
        dimension=n,
        d=a.d,
        t=t,
        g=g,
        betti=betti_vector(n, g),
        homotopy=homotopy,
        boundary_genus=g if n == 3 else None,
    )


def transform(a: Arrangement, matrix, shift) -> Arrangement:
    """Apply an invertible rational linear map plus translation to every line.

    Used to exercise invariance of the report under affine isomorphisms;
    raises DimensionMismatch on a singular matrix only indirectly (duplicate
    or zero-direction errors surface from canonicalization).
    """
    n = a.dimension
    matrix = [[Fraction(x) for x in row] for row in matrix]
    shift = [Fraction(x) for x in shift]

    def apply_linear(v):
        return tuple(
            sum((matrix[i][j] * Fraction(v[j]) for j in range(n)), Fraction(0))
            for i in range(n)
        )

    raw = []
    for line in a.lines:
        p = tuple(x + s for x, s in zip(apply_linear(line.base), shift))
        u = apply_linear(line.direction)
        raw.append((p, u))
    return build_arrangement(n, raw)
