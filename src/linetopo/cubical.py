"""Rasterized box-clipped complements and their homology over GF(2).

A rational bounding cube around the arrangement is split into an m^n grid
whose cells, of every dimension, live in one boolean array: the doubled grid
of shape (2m+1)^n.  Along each axis slot 2q is grid plane q and slot 2q+1 the
open interval between planes q and q+1, so the cell with anchor corner a and
extent mask mu sits at index 2a + mu, and a cell's dimension is its number of
odd coordinates.

The complex keeps every cell whose closed cell meets no line.  Inside the box
a line changes open cell only where one of its coordinates meets a grid
plane, and the open cell between two consecutive crossings has the cells at
both crossings as faces.  So the closed cells a line meets are the cofaces,
the star, of the open cells at its exact plane crossings.  In particular a grid cube is free iff its
closed cube misses all lines, and the line-free faces of stabbed cubes are
kept as well: a line nicking only a corner of a cube removes the cube but
not its far faces, and dropping those faces would leave hollow shells that
inflate the measured Betti numbers.  Chords of a convex box are unknotted
and unlinked, so the clipped complement shares the Betti data of the full
complement (a tested hypothesis; every acceptance fixture exercises it).

The facets of a cell are its neighbours p +- e_a along its odd axes, so face
incidence is exactly 6-connectivity of the doubled grid.  Slivers the grid
cannot certify are the cells that no chain of such steps through the complex
joins to a free cube.

The homology is read off the complement U of the complex rather than the
complex itself: U hugs the lines, O(d m) cells against O(m^n).  Since the
complex is closed under faces, U is closed under cofaces, and its slots are
the cells of the dual complex.  A slot's dual dimension is its number of even
coordinates, and its dual faces are its neighbours s +- e_a along even axes
that stay inside the grid; the neighbours outside form the padding.  By
Alexander duality over GF(2) (Hatcher, Algebraic Topology 3.3, on the cubical
dual of Kaczynski, Mischaikow and Mrozek, Computational Homology), the
reduced Betti numbers of the complex are b~_k = dim H_{n-1-k}(U, pad), in
every ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

import numpy as np

from .arrangement import Arrangement
from .errors import GridTooLarge, InvariantViolation, ResolutionTooCoarse
from .geometry import Line, Point, dot, integer_form

BettiVector = tuple[int, ...]

# Largest doubled grid rasterize_complement allocates.  A verify peaks at
# about 8 bytes per slot (measured at n = 3, m = 128), so about half a GB.
_MAX_SLOTS = 1 << 26


@dataclass(frozen=True)
class CubicalComplex:
    """Line-free grid cells of a rasterized complement, closed under faces.

    ``grid`` is the doubled grid, of shape (2m+1)^n: ``grid[2a + mu]`` is
    true iff the cell with anchor corner a and extent mask mu belongs to the
    complex.
    """

    dimension: int
    resolution: int
    box_lo: Point
    cube_side: Fraction
    grid: np.ndarray

    @cached_property
    def cells(self) -> tuple[np.ndarray, ...]:
        """Sorted flat indices into ``grid`` of the cells, one array per
        dimension; ``cells[n]`` are exactly the free cubes."""
        odd = (np.arange(2 * self.resolution + 1) & 1).astype(np.int8)
        n = self.dimension
        dims = sum(odd.reshape((-1,) + (1,) * (n - 1 - ax)) for ax in range(n))
        return tuple(np.flatnonzero(self.grid & (dims == k)) for k in range(n + 1))


def _slab(mask: int, n: int) -> tuple[slice, ...]:
    """Doubled-grid slots of the cells with extent mask ``mask``: the m odd
    indices on extent axes, the m+1 even (plane) indices on the others."""
    return tuple(slice((mask >> ax) & 1, None, 2) for ax in range(n))


# ---------------------------------------------------------------------------
# rasterization


def _bounding_cube(a: Arrangement):
    """Rational cube around all multiple points and line base points, inflated
    by one box-width of margin on each side."""
    anchors = [mp.location for mp in a.multiple_points]
    anchors += [line.base for line in a.lines]
    if not anchors:
        anchors = [tuple(Fraction(0) for _ in range(a.dimension))]
    n = a.dimension
    lo = [min(p[i] for p in anchors) for i in range(n)]
    hi = [max(p[i] for p in anchors) for i in range(n)]
    side = max(max(h - l for h, l in zip(hi, lo)), Fraction(1))
    total = 3 * side
    box_lo = tuple((l + h) / 2 - total / 2 for l, h in zip(lo, hi))
    return box_lo, total


def _gram(*vectors):
    """Gram determinant det(v_i . v_j) of at most three vectors, 1 for none:
    the squared volume of the parallelotope they span."""
    g = [[dot(x, y) for y in vectors] for x in vectors]
    if len(g) < 2:
        return g[0][0] if g else 1
    if len(g) == 2:
        return g[0][0] * g[1][1] - g[0][1] ** 2
    (a, b, c), (_, e, f), (_, _, i) = g  # symmetric
    return a * (e * i - f * f) - b * (b * i - f * c) + c * (b * f - e * c)


def _coarseness_guard(a: Arrangement, cube_side: Fraction, box_side: Fraction):
    """Reject resolutions that cannot resolve the arrangement's features.

    Certified with exact integer comparisons: any two multiple points, any
    multiple point and a non-incident line, and any two disjoint lines must
    be at least two cube diameters apart, and the wedge between any two lines
    through a multiple point must reach two cube diameters of width within
    the guaranteed run to the box boundary (a third of the box side), since a
    thinner wedge region never certifies a free cube.  The squared distance
    from w to the span of some directions is _gram(w, *dirs) / _gram(*dirs)
    and the sin^2 of a wedge _gram(di, dj) / (_gram(di) _gram(dj)).  Points,
    bases and the two sides are integer forms, and each check compares
    cross-multiplied integers, so nothing is divided.

    No pair of multiple points is scanned unless a point-line check fails.
    Two distinct multiple points p and q share at most one line, and q lies
    on at least two, so some line through q misses p; incident sets are
    complete, so that line is not incident to p, and its distance to p is at
    most |p - q|.  A close pair (p, q) therefore fails the point-line check at
    p.  Checking point i against every line, and only at the first failing i
    scanning the pairs (i, j > i), raises the same first failure as checking
    each point's pairs before its lines.
    """
    n, mps, lines = a.dimension, a.multiple_points, a.lines
    (S, B), den = integer_form((cube_side, box_side))
    bound = 4 * n * S * S  # (2 * cube diameter)^2 times den^2
    points = [integer_form(mp.location) for mp in mps]

    def near(p, q, *dirs):  # p - q lies within two cube diameters of span(dirs)
        (X, D), (Y, E) = p, q
        W = [x * E - y * D for x, y in zip(X, Y)]
        return _gram(W, *dirs) * den * den < bound * (D * E) ** 2 * _gram(*dirs)

    for i, (p, mp) in enumerate(zip(points, mps)):
        li = next((li for li, line in enumerate(lines) if li not in mp.incident
                   and near(p, line.integer_base, line.direction)), None)
        if li is None:
            continue
        j = next((j for j in range(i + 1, len(mps)) if near(p, points[j])), None)
        what = f"multiple point {i} and line {li}" if j is None else f"multiple points {i} and {j}"
        raise ResolutionTooCoarse(f"{what} are closer than two cube diameters")
    meeting = {pair for mp in mps for pair in combinations(mp.incident, 2)}
    for i, j in combinations(range(a.d), 2):
        u, v = lines[i].direction, lines[j].direction
        dirs = (u,) if u == v else (u, v)
        if (i, j) not in meeting and near(lines[j].integer_base, lines[i].integer_base, *dirs):
            raise ResolutionTooCoarse(
                f"disjoint lines {i} and {j} are closer than two cube diameters"
            )
    for k, mp in enumerate(mps):
        for i, j in combinations(mp.incident, 2):
            di, dj = lines[i].direction, lines[j].direction
            # the guaranteed run to the box boundary is box_side / 3 = B / (3 den)
            if _gram(di, dj) * B * B < 9 * bound * _gram(di) * _gram(dj):
                raise ResolutionTooCoarse(
                    f"lines {i} and {j} cross at multiple point {k} too shallowly "
                    f"for the wedge to reach two cube diameters inside the box"
                )


def _slot(num: int, den: int) -> int:
    """Doubled-grid index, along one axis, of the open cell holding the grid
    coordinate num/den (den > 0): 2q on grid plane q, 2q+1 strictly between
    planes q and q+1, with q = floor(num/den)."""
    q, rem = divmod(num, den)
    return 2 * q + (rem != 0)


def _mark_line(hit: np.ndarray, line: Line, box_lo, side: Fraction, m: int):
    """Mark in the doubled grid ``hit`` the open cell at each point where the
    line meets a grid plane inside the box, exactly.

    In grid units the line is u(t) = (p + t w) / den, with integer p, w and
    den > 0, and it meets plane i of axis a at t = (i den - p_a) / w_a.  The
    span ends are such crossings with the box faces, and between two
    consecutive crossings the line stays in one open cell, which has the
    cells at both ends as faces.  So the star of the marked cells is exactly
    the set of closed cells the line meets.  Scaling the parameter to
    tau = W t, with W the lcm of the nonzero |w_a|, makes every crossing an
    integer.
    """
    n = line.dimension
    units = [(b - lo) / side for b, lo in zip(line.base, box_lo)]
    ints, den = integer_form(units + [v / side for v in line.direction])
    p, w = ints[:n], ints[n:]
    scale = lcm(*(abs(x) for x in w if x))
    crossings, spans = [], []
    for pa, wa in zip(p, w):
        if wa == 0:
            if not 0 <= pa <= m * den:
                return
            continue
        taus = [(i * den - pa) * (scale // wa) for i in range(m + 1)]
        spans.append(sorted((taus[0], taus[-1])))
        crossings += taus
    first, last = max(s[0] for s in spans), min(s[1] for s in spans)
    if first > last:
        return
    taus = [t for t in crossings if first <= t <= last]
    hit[tuple(
        [_slot(scale * pa + t * wa, scale * den) for t in taus] for pa, wa in zip(p, w)
    )] = True


def _star(hit: np.ndarray) -> np.ndarray:
    """The marked slots with all their cofaces.  A coface of a cell keeps
    each odd coordinate and may move each even one to an odd neighbour, so
    one pass per axis ORs every even slot into its two odd neighbours."""
    star = hit.copy()
    for ax in range(star.ndim):
        view = np.moveaxis(star, ax, 0)
        view[1::2] |= view[0:-1:2] | view[2::2]
    return star


def _closure(cells: np.ndarray) -> np.ndarray:
    """The marked slots with all their faces.  A face of a cell keeps each
    even coordinate and may move each odd one to an even neighbour, so one
    pass per axis ORs every odd slot into its two even neighbours."""
    closure = cells.copy()
    for ax in range(closure.ndim):
        view = np.moveaxis(closure, ax, 0)
        view[:-1:2] |= view[1::2]
        view[2::2] |= view[1::2]
    return closure


def _certified(free: np.ndarray) -> np.ndarray:
    """Drop components of the complex that contain no whole free cube.

    A line-free sliver thinner than one cube everywhere (isolated vertices or
    edges deep inside a stabbed tube) belongs to some neighbouring region of
    the true complement, but the grid cannot certify which one; keeping it
    would add spurious components.  Components owning at least one free
    cube, an all-odd slot, are kept in full, and no labelling is needed to
    find them.  The complex is closed under faces, so every face of a free
    cube is in it and joined to that cube: the closure C of the free cubes is
    kept.  Any other cell of the complex, an orphan, is a face of stabbed
    cubes only, and it is kept iff a chain of orphans joins it to C by face
    adjacency, one step along one axis of the doubled grid.  A walk from the
    orphans next to C through the others finds them all, in time linear in
    the grid plus the orphans.
    """
    n = free.ndim
    cubes = np.zeros_like(free)
    top = _slab((1 << n) - 1, n)
    cubes[top] = free[top]
    kept = _closure(cubes)
    flat = kept.reshape(-1)  # a view: writes land in kept
    size = free.shape[0]

    def neighbours(s):
        for stride in (size**ax for ax in range(n)):
            q = s // stride % size
            if q > 0:
                yield s - stride
            if q < size - 1:
                yield s + stride

    left = set(np.flatnonzero(free & ~kept).tolist())
    stack = [s for s in left if any(flat[t] for t in neighbours(s))]
    left.difference_update(stack)
    while stack:
        s = stack.pop()
        flat[s] = True
        for t in neighbours(s):
            if t in left:
                left.remove(t)
                stack.append(t)
    return kept


def rasterize_complement(a: Arrangement, m: int) -> CubicalComplex:
    """Rasterize the box-clipped complement at resolution m.

    Args:
        a: the arrangement, in any ambient dimension.
        m: cubes per axis, at least 2.

    Raises:
        ResolutionTooCoarse: the grid cannot separate nearby features.
        GridTooLarge: the doubled grid would exceed the slot budget.
    """
    n = a.dimension
    if m < 2:
        raise ResolutionTooCoarse(f"resolution must be at least 2, got {m}")
    # exact without forming a huge power: 2m+1 >= 2, so (2m+1)^b > _MAX_SLOTS
    # already for b the bit length of _MAX_SLOTS
    if (2 * m + 1) ** min(n, _MAX_SLOTS.bit_length()) > _MAX_SLOTS:
        raise GridTooLarge(
            f"a grid of {m} cubes per axis in dimension {n} needs (2m+1)^n = "
            f"{2 * m + 1}^{n} slots, more than the budget of {_MAX_SLOTS}"
        )
    box_lo, total = _bounding_cube(a)
    cube_side = total / m
    _coarseness_guard(a, cube_side, total)
    hit = np.zeros((2 * m + 1,) * n, dtype=bool)
    for line in a.lines:
        _mark_line(hit, line, box_lo, cube_side, m)
    return CubicalComplex(
        dimension=n,
        resolution=m,
        box_lo=box_lo,
        cube_side=cube_side,
        grid=_certified(~_star(hit)),
    )


# ---------------------------------------------------------------------------
# homology


def gf2_rank(columns) -> int:
    """Rank of a GF(2) matrix given as an iterable of packed bitset columns."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        col = int(col)
        while col:
            low = col.bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            col ^= piv
    return rank


def betti_numbers(c: CubicalComplex) -> BettiVector:
    """GF(2) Betti numbers (b_0, ..., b_n) of the complex, from the ranks of
    the dual boundary maps of its complement (see the module docstring).

    Raises:
        InvariantViolation: the complex is not closed under faces.
    """
    n = c.dimension
    if not c.grid.any():
        return (0,) * (n + 1)
    outside = ~c.grid
    if (c.grid & _star(outside)).any():
        raise InvariantViolation("a cell of the complex has a face outside it")
    flat = np.flatnonzero(outside)
    coords = np.unravel_index(flat, outside.shape)
    even = np.stack([(x & 1) == 0 for x in coords])
    dual_dim = even.sum(axis=0)
    size = outside.shape[0]  # 2m + 1
    strides = size ** np.arange(n - 1, -1, -1)  # C order, in slots
    by_dim = [flat[dual_dim == j] for j in range(n + 1)]
    ranks = [0] * (n + 2)  # ranks[j]: rank of the dual boundary C_j -> C_{j-1}
    for j in range(1, n + 1):
        sel = dual_dim == j
        faces = []  # row of each dual face, -1 where there is none
        for ax in range(n):
            x, ev = coords[ax][sel], even[ax][sel]
            for step in (-1, 1):
                rows = np.searchsorted(by_dim[j - 1], by_dim[j] + step * strides[ax])
                faces.append(np.where(ev & (0 <= x + step) & (x + step < size), rows, -1))
        # gf2_rank pivots on the highest row; feeding the columns from the
        # highest slot down keeps its fill-in small on these banded matrices
        columns = np.stack(faces, axis=1)[::-1].tolist()
        ranks[j] = gf2_rank(sum(1 << r for r in col if r >= 0) for col in columns)
    h = [len(by_dim[j]) - ranks[j] - ranks[j + 1] for j in range(n)]
    return (1 + h[n - 1], *h[n - 2::-1], 0)

