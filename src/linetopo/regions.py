"""Planar region counting through the Euler formula of a clipped subdivision.

The complement of a planar arrangement has finitely many convex regions, and
every region meets any box that strictly contains all multiple points and is
crossed by every line.  Counting vertices and edges of the subdivision the
clipped lines induce on the box therefore counts the regions via the Euler
formula of a disk, V - E + F = 1, without ever touching the handle-count
formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement
from .errors import InvariantViolation, WrongDimension
from .geometry import line_box_params, point_on_line


@dataclass(frozen=True)
class ClippedSubdivision:
    """Vertex/edge/face counts of the subdivision a planar arrangement induces
    on a transversal box.  F counts the bounded cells inside the box."""

    box: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    vertex_count: int
    edge_count: int
    face_count: int


def clipping_box(a: Arrangement):
    """Deterministic rational box for clipping: all multiple points strictly
    inside, every line crossing the interior, no line through a corner.

    Starts from the bounding box of the multiple points and the lines' base
    points and inflates with side-dependent polynomial offsets; each corner
    trajectory meets any fixed line finitely often, so the loop terminates.
    """
    anchors = [mp.location for mp in a.multiple_points]
    anchors += [line.base for line in a.lines]
    if not anchors:
        anchors = [(Fraction(0), Fraction(0))]
    xs = [Fraction(p[0]) for p in anchors]
    ys = [Fraction(p[1]) for p in anchors]
    x_min, x_max, y_min, y_max = min(xs), max(xs), min(ys), max(ys)
    width = max(x_max - x_min, y_max - y_min, Fraction(1))
    k = 0
    while True:
        box = (
            (x_min - width - 2 * k**2, x_max + width + 3 * k**3),
            (y_min - width - 5 * k**4, y_max + width + 7 * k**5),
        )
        (x0, x1), (y0, y1) = box
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        if not any(point_on_line(c, line) for c in corners for line in a.lines):
            return box
        k += 1


def clip_subdivision(a: Arrangement) -> ClippedSubdivision:
    """Exact V/E/F counts of the box subdivision; F = 1 + E - V by the disk
    Euler formula."""
    if a.dimension != 2:
        raise WrongDimension(f"region counting needs dimension 2, got {a.dimension}")
    box = clipping_box(a)
    (x0, x1), (y0, y1) = box
    lo, hi = (x0, y0), (x1, y1)
    mps = a.multiple_points
    cuts_of: list[list[Fraction]] = [[] for _ in a.lines]
    for mp in mps:
        for li in mp.incident:
            cuts_of[li].append(a.lines[li].param_of(mp.location))

    crossings = set()
    segments_inside = 0
    for li, (line, cuts) in enumerate(zip(a.lines, cuts_of)):
        params = line_box_params(line, lo, hi)
        if params is None or params[0] >= params[1]:
            raise InvariantViolation(f"line {li} does not cross the clipping box")
        t_enter, t_exit = params
        crossings.add(line.point_at(t_enter))
        crossings.add(line.point_at(t_exit))
        cuts += [t_enter, t_exit]
        if len(set(cuts)) != len(cuts):
            raise InvariantViolation("multiple point on the box boundary")
        segments_inside += len(cuts) - 1

    corners = {(x0, y0), (x1, y0), (x1, y1), (x0, y1)}
    if crossings & corners:
        raise InvariantViolation("line crossing at a box corner")
    if len(crossings) != 2 * a.d:
        raise InvariantViolation("two lines cross the boundary at one point")

    off = next((p for p in crossings if p[0] not in (x0, x1) and p[1] not in (y0, y1)), None)
    if off is not None:
        raise InvariantViolation(f"point {off} is not on the box boundary")
    boundary_vertices = len(crossings | corners)
    v = boundary_vertices + len(mps)  # the multiple points are distinct
    e = boundary_vertices + segments_inside  # the boundary is one cycle
    f = 1 + e - v
    return ClippedSubdivision(box=box, vertex_count=v, edge_count=e, face_count=f)


def euler_region_count(a: Arrangement) -> int:
    """Number of connected components of the planar complement."""
    return clip_subdivision(a).face_count
