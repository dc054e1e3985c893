"""Exact rational primitives: points, canonical lines, incidence and intersection.

Everything here is computed over the rationals with arbitrary precision
(`fractions.Fraction`); there is no tolerance anywhere.  Multiplicity data
changes the topology of a complement, so near-miss intersections must never
be merged and exact coincidences must never be split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, InvariantViolation, ZeroDirection

# A point is a tuple of Fractions, one entry per ambient coordinate.
Point = tuple[Fraction, ...]


def as_point(coords) -> Point:
    """Coerce a sequence of ints/Fractions/strings to a Point."""
    return tuple(Fraction(c) for c in coords)


def dot(a, b) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def sub(a, b) -> Point:
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))


def add_scaled(p, t, u) -> Point:
    """p + t*u, exactly."""
    return tuple(Fraction(x) + Fraction(t) * Fraction(y) for x, y in zip(p, u))


def primitive_direction(u) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    Denominators are cleared, the gcd divided out, and the sign fixed so the
    first nonzero entry is positive.  Parallel vectors therefore normalize to
    the identical tuple.
    """
    u = [Fraction(x) for x in u]
    if all(x == 0 for x in u):
        raise ZeroDirection("direction vector is zero")
    denom_lcm = 1
    for x in u:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in u]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


@dataclass(frozen=True)
class Line:
    """A canonical affine line in R^n.

    ``base`` is the point of the line closest to the origin (so
    ``base . direction == 0``) and ``direction`` is a primitive integer
    vector whose first nonzero entry is positive.  Two Line values are equal
    as point sets iff they are equal field-wise, so set equality of lines is
    plain dataclass equality.
    """

    base: Point
    direction: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.base)

    def point_at(self, t) -> Point:
        return add_scaled(self.base, t, self.direction)

    def param_of(self, x: Point) -> Fraction:
        """Parameter t with base + t*direction == x; x must lie on the line."""
        for k, d in enumerate(self.direction):
            if d != 0:
                return (Fraction(x[k]) - self.base[k]) / d
        raise ZeroDirection("line has zero direction")


def canonicalize_line(p, u) -> Line:
    """Build the canonical Line through point p with direction parallel to u."""
    p = as_point(p)
    if len(p) < 2:
        raise DimensionMismatch(f"ambient dimension must be >= 2, got {len(p)}")
    d = primitive_direction(u)
    if len(d) != len(p):
        raise DimensionMismatch(
            f"point has dimension {len(p)}, direction has dimension {len(d)}"
        )
    # Orthogonal projection of p onto the direction is removed from the base.
    t = dot(p, d) / dot(d, d)
    base = tuple(x - t * dx for x, dx in zip(p, d))
    return Line(base=base, direction=d)


#: Sentinel returned by intersect_lines when the two lines are equal as sets.
COINCIDENT = object()


def intersect_lines(a: Line, b: Line):
    """Exact line/line intersection.

    Returns the intersection Point if the lines meet in exactly one point,
    ``COINCIDENT`` if they are equal, and ``None`` if they are parallel
    distinct or skew.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"lines live in dimensions {a.dimension} and {b.dimension}"
        )
    if a == b:
        return COINCIDENT
    if a.direction == b.direction:
        return None  # parallel distinct; canonical directions coincide exactly
    # Solve base_a + t*dir_a = base_b + s*dir_b from two independent rows,
    # then verify the remaining rows to rule out skew pairs.
    n = a.dimension
    ad, bd = a.direction, b.direction
    rhs = sub(b.base, a.base)
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
            return None  # consistent in the pivot rows only: skew
    return a.point_at(t)


def line_box_params(line: Line, lo, hi):
    """Parameter interval of a line within a closed axis-aligned box.

    Returns (t_min, t_max) with t_min <= t_max, or None when the line misses
    the box.  Exact slab clipping: axes with zero direction component only
    gate on containment of the base coordinate.
    """
    t_lo = t_hi = None
    for k in range(line.dimension):
        d = line.direction[k]
        b = line.base[k]
        if d == 0:
            if not (Fraction(lo[k]) <= b <= Fraction(hi[k])):
                return None
            continue
        a1 = (Fraction(lo[k]) - b) / d
        a2 = (Fraction(hi[k]) - b) / d
        if a1 > a2:
            a1, a2 = a2, a1
        if t_lo is None or a1 > t_lo:
            t_lo = a1
        if t_hi is None or a2 < t_hi:
            t_hi = a2
    if t_hi < t_lo:
        return None
    return (t_lo, t_hi)


def point_on_line(x, line: Line) -> bool:
    """True iff x - base is an exact rational multiple of the direction."""
    x = as_point(x)
    if len(x) != line.dimension:
        raise DimensionMismatch(
            f"point has dimension {len(x)}, line has dimension {line.dimension}"
        )
    diff = sub(x, line.base)
    t = None
    for k, d in enumerate(line.direction):
        if d != 0:
            t = diff[k] / d
            break
    return all(diff[k] == t * line.direction[k] for k in range(len(diff)))
