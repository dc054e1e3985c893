"""Exact rational primitives: points, canonical lines, incidence and intersection.

Incidence, parallelism and intersection are decided as identities between
integers.  ``clear_denominators`` is the one routine that clears
denominators: it writes a vector given as (numerator, denominator) pairs as
integer numerators over one positive denominator.  ``integer_form`` feeds it
rationals, and the parser feeds it the pairs it reads.  A ``Line`` holds its
canonical base in that integer form, computed in integers from the input, and
builds ``Fraction``s only when its ``base`` view is read.  ``meet`` gives
an intersection point in the same reduced integer form, which multiple
points and space-graph vertices keep, with ``Fraction`` views.
``Fraction`` is otherwise built only for the rationals returned: points and
line parameters.  There is no tolerance anywhere.  Multiplicity data changes
the topology of a complement, so near-miss intersections must never be
merged and exact coincidences must never be split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, InvariantViolation, ZeroDirection

# A point is a tuple of Fractions, one entry per ambient coordinate.
Point = tuple[Fraction, ...]


def as_point(coords) -> Point:
    """Coerce a sequence of ints/Fractions/strings to a Point."""
    return tuple(Fraction(c) for c in coords)


def clear_denominators(ratios) -> tuple[tuple[int, ...], int]:
    """(X, D) for a vector given as (numerator, denominator) pairs with
    positive denominators: D is the lcm of the denominators and entry k is
    X_k / D.  The pairs need not be in lowest terms."""
    ratios = tuple(ratios)
    den = lcm(*(q for _, q in ratios))
    return tuple(p * (den // q) for p, q in ratios), den


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational in lowest terms, denominator > 0.
    Entries may be anything ``Fraction()`` accepts; ints and Fractions are
    read as they are."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def integer_form(v) -> tuple[tuple[int, ...], int]:
    """(X, D): integer numerators X over D > 0, the lcm of the entries'
    denominators, so that v = X / D.  Entries may be anything ``Fraction()``
    accepts.  Entries in lowest terms give gcd(*X, D) == 1."""
    return clear_denominators(map(_ratio, v))


def dot(a, b):
    return sum(map(mul, a, b))


def _primitive(ints) -> tuple[int, ...]:
    """The primitive integer vector along nonzero ``ints``: the gcd divided
    out and the first nonzero entry made positive, so parallel vectors give
    the identical tuple."""
    g = gcd(*ints)
    if g == 0:
        raise ZeroDirection("direction vector is zero")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class Line:
    """A canonical affine line in R^n.

    ``integer_base`` is (B, D_b): the point of the line closest to the
    origin is B / D_b, with D_b > 0 and gcd(*B, D_b) == 1, which is exactly
    ``integer_form`` of that point.  ``direction`` is a primitive integer
    vector whose first nonzero entry is positive, so B . direction == 0.
    Two Line values are equal as point sets iff they are equal field-wise,
    so set equality of lines is plain dataclass equality over integers.
    ``base`` is the same point as a tuple of Fractions, built when read.
    Build lines with ``canonicalize_line`` or ``line_from_integer_form``.
    """

    integer_base: tuple[tuple[int, ...], int]
    direction: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.direction)

    @property
    def base(self) -> Point:
        """The base point as Fractions; not cached, so a line keeps only its
        integers."""
        B, D = self.integer_base
        return tuple(Fraction(b, D) for b in B)

    def point_at(self, t) -> Point:
        """base + t*direction, exactly."""
        p, q = _ratio(t)
        B, D = self.integer_base
        return tuple(Fraction(b * q + p * D * u, D * q) for b, u in zip(B, self.direction))

    def param_of(self, x: Point) -> Fraction:
        """Parameter t with base + t*direction == x; x must lie on the line."""
        B, D = self.integer_base
        for k, d in enumerate(self.direction):
            if d != 0:
                p, q = _ratio(x[k])
                return Fraction(p * D - B[k] * q, q * D * d)
        raise ZeroDirection("line has zero direction")


def canonicalize_line(p, u) -> Line:
    """Build the canonical Line through point p with direction parallel to u."""
    P, D = integer_form(p)
    return line_from_integer_form(P, D, integer_form(u)[0])


def line_from_integer_form(P, D, U) -> Line:
    """The canonical Line through the point P / D (integers, D > 0) with
    direction parallel to the integer vector U.

    The base is the point minus its projection onto the primitive direction
    d: (P (d.d) - (P.d) d) / (D (d.d)), divided by the gcd of its entries
    and denominator.
    """
    if len(P) < 2:
        raise DimensionMismatch(f"ambient dimension must be >= 2, got {len(P)}")
    d = _primitive(U)
    if len(d) != len(P):
        raise DimensionMismatch(
            f"point has dimension {len(P)}, direction has dimension {len(d)}"
        )
    dd, pd = dot(d, d), dot(P, d)
    B = [x * dd - pd * dx for x, dx in zip(P, d)]
    Db = D * dd
    g = gcd(*B, Db)
    return Line(integer_base=(tuple(b // g for b in B), Db // g), direction=d)


#: Sentinel returned by meet and intersect_lines when the two lines are equal
#: as sets.
COINCIDENT = object()


def meet(a: Line, b: Line):
    """Exact line/line intersection in integers.

    Returns the intersection point as (X, D), integer numerators over
    D > 0 with gcd(*X, D) == 1, so equal points have equal forms;
    ``COINCIDENT`` if the lines are equal, and ``None`` if they are
    parallel distinct or skew.

    With the bases as A / Da and B / Db, base_a + t*u = base_b + s*v reads
    T u - S v = det r, where r = B Da - A Db, det is the first nonzero 2x2
    minor of the directions, T = t det Da Db and S = s det Da Db.  Cramer's
    rule on the minor's two rows gives the integers T and S, and the pair is
    skew unless every row holds.
    """
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"lines live in dimensions {a.dimension} and {b.dimension}"
        )
    u, v = a.direction, b.direction
    if u == v:  # canonical directions of parallel lines coincide exactly
        return COINCIDENT if a.integer_base == b.integer_base else None
    (A, Da), (B, Db) = a.integer_base, b.integer_base
    r = [bk * Da - ak * Db for ak, bk in zip(A, B)]
    n = a.dimension
    pivot = next(
        ((i, j) for i in range(n) for j in range(i + 1, n) if u[j] * v[i] != u[i] * v[j]),
        None,
    )
    if pivot is None:
        raise InvariantViolation("non-parallel directions with no nonzero 2x2 minor")
    i, j = pivot
    det = u[j] * v[i] - u[i] * v[j]
    T = r[j] * v[i] - r[i] * v[j]
    S = u[i] * r[j] - u[j] * r[i]
    if any(T * uk - S * vk != rk * det for uk, vk, rk in zip(u, v, r)):
        return None  # consistent in the pivot rows only: skew
    if det < 0:
        det, T = -det, -T
    X = [ak * det * Db + T * uk for ak, uk in zip(A, u)]
    den = det * Da * Db
    g = gcd(*X, den)
    return tuple(x // g for x in X), den // g


def compare_points(p, q) -> int:
    """-1, 0 or 1 as the point p precedes, equals or follows q in
    lexicographic order, for points given as integer forms (X, D) with
    D > 0: entry k compares X_k E against Y_k D."""
    (X, D), (Y, E) = p, q
    for x, y in zip(X, Y):
        xe, yd = x * E, y * D
        if xe != yd:
            return -1 if xe < yd else 1
    return 0


def intersect_lines(a: Line, b: Line):
    """Exact line/line intersection: the Point where the lines meet in
    exactly one point, ``COINCIDENT`` if they are equal, and ``None`` if
    they are parallel distinct or skew.  This is ``meet`` with the point
    as Fractions."""
    x = meet(a, b)
    if x is None or x is COINCIDENT:
        return x
    X, D = x
    return tuple(Fraction(xk, D) for xk in X)


def line_box_params(line: Line, lo, hi):
    """Parameter interval of a line within a closed axis-aligned box.

    Returns (t_min, t_max) with t_min <= t_max, or None when the line misses
    the box.  Exact slab clipping: axes with zero direction component only
    gate on containment of the base coordinate.
    """
    t_lo = t_hi = None
    base = line.base
    for k in range(line.dimension):
        d = line.direction[k]
        b = base[k]
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
    """True iff x - base is an exact rational multiple of the direction: with
    x = X / D and base = B / Db, every 2x2 minor of w = X Db - B D against
    the first nonzero direction entry vanishes."""
    X, D = integer_form(x)
    if len(X) != line.dimension:
        raise DimensionMismatch(
            f"point has dimension {len(X)}, line has dimension {line.dimension}"
        )
    B, Db = line.integer_base
    w = [xk * Db - bk * D for xk, bk in zip(X, B)]
    p = next(k for k, uk in enumerate(line.direction) if uk)
    return all(wk * line.direction[p] == w[p] * uk for wk, uk in zip(w, line.direction))
