"""Rasterized box-clipped complements and their homology over GF(2).

A bounding cube around the arrangement, held in integers, is split into an
m^n grid whose cells, of every dimension, live in one boolean array: the
doubled grid of shape (2m+1)^n.  Along each axis slot 2q is grid plane q and
slot 2q+1 the open interval between planes q and q+1, so the cell with anchor
corner a and extent mask mu sits at index 2a + mu, and a cell's dimension is
its number of odd coordinates.

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
joins to a free cube, so a grid with no free cube certifies nothing and is
refused.

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

The boolean doubled grid of the complex is the only dense array built: it
is the result, and every other step looks cells up in it.  Rasterization
works on flat slot indices near U: the marks, their star (which is U), the
orphans (cells that are a face of no free cube) and the walk that drops
slivers.  betti_numbers lists U in one pass over the grid, and checks that
the complex is closed under faces in the same lookups that build the dual
boundary maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from itertools import combinations
from math import gcd, lcm

import numpy as np

from .arrangement import Arrangement
from .errors import GridTooLarge, InvariantViolation, ResolutionTooCoarse
from .geometry import Line, clear_denominators, dot

BettiVector = tuple[int, ...]

# Largest doubled grid rasterize_complement allocates.  A verify peaks at
# about 2 bytes per slot, the grid and its complement while betti_numbers
# lists U (tracemalloc peak of verify_arrangement on three coplanar lines at
# n = 3, m = 128), so about 128 MiB.
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
    grid: np.ndarray

    @cached_property
    def cells(self) -> tuple[np.ndarray, ...]:
        """Sorted flat indices into ``grid`` of the cells, one array per
        dimension; ``cells[n]`` are exactly the free cubes."""
        odd = (np.arange(2 * self.resolution + 1) & 1).astype(np.int8)
        n = self.dimension
        dims = sum(odd.reshape((-1,) + (1,) * (n - 1 - ax)) for ax in range(n))
        return tuple(np.flatnonzero(self.grid & (dims == k)) for k in range(n + 1))


# ---------------------------------------------------------------------------
# rasterization


def _bounding_cube(a: Arrangement):
    """The frame: ``integer_form`` of (low corner..., side) of a cube around
    all multiple points and line base points with one box-width of margin on
    each side, clearing only each axis's extremes, found by cross-multiplying."""
    n = a.dimension
    anchors = [mp.integer_location for mp in a.multiple_points]
    anchors = anchors + [line.integer_base for line in a.lines] or [((0,) * n, 1)]
    below = cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])  # x/D against y/E
    ends, E = clear_denominators(
        pick(((X[i], D) for X, D in anchors), key=below) for pick in (min, max) for i in range(n)
    )
    w = max(E, *(h - l for l, h in zip(ends, ends[n:])))
    X = [l + h - 3 * w for l, h in zip(ends, ends[n:])] + [6 * w]
    g = gcd(*X, 2 * E)
    return tuple(x // g for x in X), 2 * E // g


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


def _coarseness_guard(a: Arrangement, frame, m: int):
    """Reject resolutions that cannot resolve the arrangement's features.

    Certified with exact integer comparisons: any two multiple points, any
    multiple point and a non-incident line, and any two disjoint lines must
    be at least two cube diameters apart, and the wedge between any two lines
    through a multiple point must reach two cube diameters of width within
    the guaranteed run to the box boundary (a third of the box side), since a
    thinner wedge region never certifies a free cube.  The squared distance
    from w to the span of some directions is _gram(w, *dirs) / _gram(*dirs)
    and the sin^2 of a wedge _gram(di, dj) / (_gram(di) _gram(dj)).  Each
    check is homogeneous of degree 2 in the frame's unreduced integers and
    compares cross-multiplied integers, so nothing is divided.

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
    S, den = frame[0][-1], frame[1] * m  # the cube side S / den
    bound = 4 * n * S * S  # (2 * cube diameter)^2 times den^2
    points = [mp.integer_location for mp in mps]

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
            # the guaranteed run to the box boundary is a third of S m / den
            if _gram(di, dj) * (S * m) ** 2 < 9 * bound * _gram(di) * _gram(dj):
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


def _mark_line(line: Line, frame, m: int) -> tuple[list[int], ...]:
    """Doubled-grid coordinates, one list per axis, of the open cells at each
    point where the line meets a grid plane inside the box, exactly.

    In grid units the line is u(t) = (p + t w) / den for the integers below,
    left unreduced as a common positive factor moves no slot, and it meets
    plane i of axis a at t = (i den - p_a) / w_a.  The span ends are such
    crossings with the box faces, and between two consecutive crossings the
    line stays in one open cell, which has the cells at both ends as faces.
    So the star of the marked cells is exactly the set of closed cells the
    line meets.  Scaling the parameter to tau = W t, with W the lcm of the
    nonzero |w_a|, makes every crossing an integer.  A cell at a crossing of
    several planes is listed once per plane.
    """
    n = line.dimension
    (*K, T), E = frame
    B, Db = line.integer_base
    p = [(b * E - k * Db) * m for b, k in zip(B, K)]
    w, den = [E * m * Db * u for u in line.direction], Db * T
    scale = lcm(*(abs(x) for x in w if x))
    crossings, spans = [], []
    for pa, wa in zip(p, w):
        if wa == 0:
            if not 0 <= pa <= m * den:
                return ([],) * n
            continue
        taus = [(i * den - pa) * (scale // wa) for i in range(m + 1)]
        spans.append(sorted((taus[0], taus[-1])))
        crossings += taus
    first, last = max(s[0] for s in spans), min(s[1] for s in spans)
    taus = [t for t in crossings if first <= t <= last]
    return tuple([_slot(scale * pa + t * wa, scale * den) for t in taus] for pa, wa in zip(p, w))


def _star(marks: np.ndarray, size: int, n: int) -> np.ndarray:
    """Flat indices of the marked slots of an n-dimensional doubled grid of
    side ``size`` and of all their cofaces, with repeats.  A coface of a cell
    keeps each odd coordinate and may move each even one to an odd neighbour
    inside the grid, so one step per axis adds the neighbours along that
    axis of every slot so far whose coordinate there is even."""
    star = marks
    for stride in size ** np.arange(n):
        q = star // stride % size
        even = q % 2 == 0
        star = np.concatenate(
            (star, star[even & (q > 0)] - stride, star[even & (q < size - 1)] + stride)
        )
    return star


def _runs(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``slots``, sorted, and how often each occurs:
    a sort, then the bounds of the runs of equal values."""
    slots = np.sort(slots)
    bound = np.ones(slots.size + 1, dtype=bool)
    bound[1:-1] = slots[1:] != slots[:-1]
    first = np.flatnonzero(bound)  # run starts, then slots.size
    return slots[first[:-1]], np.diff(first)


def _orphans(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sorted flat indices of the orphans of the complex ``grid``, the cells
    that are a face of no free cube; ``u`` lists the slots off the complex,
    with repeats allowed.

    Every cell is a face of some cube, so the orphans are exactly the faces
    of stabbed cubes (the all-odd slots of U) that lie outside U and whose
    every incident cube is stabbed.  A face of a cube moves each of its odd
    coordinates to an even neighbour or keeps it, so listing the faces of
    each stabbed cube once lists each face once per stabbed cube it bounds.
    A cube incident to a cell moves each of its even coordinates to an odd
    neighbour inside the grid, so a cell has 2^k incident cubes, k its even
    coordinates off the box boundary.  A face outside U is an orphan iff the
    two counts agree; only the stabbed cubes and their faces are visited.
    """
    shape, size = grid.shape, grid.shape[0]
    flat = grid.reshape(-1)
    odd = np.logical_and.reduce([x & 1 for x in np.unravel_index(u, shape)])
    faces, _ = _runs(u[odd])  # the stabbed cubes, once each
    for stride in size ** np.arange(grid.ndim):
        faces = np.concatenate((faces, faces - stride, faces + stride))
    # each face outside U, and the number of stabbed cubes it bounds
    faces, stabbed = _runs(faces[flat[faces]])
    inner = np.zeros(size, dtype=np.intp)  # 1 at even coordinates off the boundary
    inner[2:-2:2] = 1
    return faces[stabbed == 1 << sum(inner[x] for x in np.unravel_index(faces, shape))]


def _drop_slivers(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Drop, in place, the components of the complex ``grid`` that contain no
    whole free cube, and return ``grid``; ``u`` lists the slots off the
    complex, with repeats allowed.

    A line-free sliver thinner than one cube everywhere (isolated vertices or
    edges deep inside a stabbed tube) belongs to some neighbouring region of
    the true complement, but the grid cannot certify which one; keeping it
    would add spurious components.  Components owning at least one free
    cube, an all-odd slot, are kept in full, and no labelling is needed to
    find them.  The complex is closed under faces, so every face of a free
    cube is in it and joined to that cube: the closure C of the free cubes is
    kept.  Any other cell of the complex, an orphan, is a face of stabbed
    cubes only, and it is kept iff a chain of orphans joins it to C by face
    adjacency, one step along one axis of the doubled grid.  A cell is in C
    iff it is in the complex and no orphan, so a walk from the orphans next
    to C through the others finds them all, in time linear in the orphans.
    """
    n, size = grid.ndim, grid.shape[0]
    flat = grid.reshape(-1)  # a view: writes land in grid
    orphans = set(_orphans(grid, u).tolist())

    def neighbours(s):
        for stride in (size**ax for ax in range(n)):
            q = s // stride % size
            if q > 0:
                yield s - stride
            if q < size - 1:
                yield s + stride

    stack = [s for s in orphans if any(flat[t] and t not in orphans for t in neighbours(s))]
    left = orphans.difference(stack)
    while stack:
        s = stack.pop()
        for t in neighbours(s):
            if t in left:
                left.remove(t)
                stack.append(t)
    flat[list(left)] = False
    return grid


def _rasterize(a: Arrangement, frame, m: int) -> np.ndarray:
    """The doubled grid of the certified complex: every cell whose closed
    cell meets no line, less the slivers.  It is the only dense array built:
    the star of the marks, the orphans and the walk run on flat slot indices
    of U and look cells up in it."""
    n = a.dimension
    marks = [[] for _ in range(n)]
    for line in a.lines:
        for axis, slots in zip(marks, _mark_line(line, frame, m)):
            axis += slots
    grid = np.ones((2 * m + 1,) * n, dtype=bool)
    u = _star(np.ravel_multi_index(np.array(marks, dtype=np.intp), grid.shape), 2 * m + 1, n)
    grid.reshape(-1)[u] = False
    return _drop_slivers(grid, u)


def rasterize_complement(a: Arrangement, m: int) -> CubicalComplex:
    """Rasterize the box-clipped complement at resolution m.

    Args:
        a: the arrangement, in any ambient dimension.
        m: cubes per axis, at least 2.

    Raises:
        ResolutionTooCoarse: the grid cannot separate nearby features, or
            no grid cube misses every line.
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
    frame = _bounding_cube(a)
    _coarseness_guard(a, frame, m)
    grid = _rasterize(a, frame, m)
    # an empty complex measures all zeros, while a complement has b_0 >= 1
    if not grid[(slice(1, None, 2),) * n].any():
        raise ResolutionTooCoarse(f"no cube of the {m}^{n} grid misses every line")
    return CubicalComplex(dimension=n, resolution=m, grid=grid)


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

    The complex is closed under faces iff U is closed under cofaces, iff
    every dual face inside the grid of every slot of U is in U.  Those are
    exactly the slots the dual boundary maps look up, so the check costs no
    extra pass.

    Raises:
        InvariantViolation: the complex is not closed under faces.
    """
    n = c.dimension
    flat = np.flatnonzero(~c.grid)
    if flat.size == c.grid.size:
        return (0,) * (n + 1)
    size = c.grid.shape[0]  # 2m + 1
    coords = np.stack(np.unravel_index(flat, c.grid.shape), axis=1)
    even = (coords & 1) == 0
    dual_dim = even.sum(axis=1)
    by_dim = [flat[dual_dim == j] for j in range(n + 1)]
    # the candidate dual faces of every slot, one column per axis and step
    axis, step = np.repeat(np.arange(n), 2), np.tile([-1, 1], n)
    moved = coords[:, axis] + step
    inside = even[:, axis] & (0 <= moved) & (moved < size)
    target = flat[:, None] + step * size ** (n - 1 - axis)  # C order, in slots
    ranks = [0] * (n + 2)  # ranks[j]: rank of the dual boundary C_j -> C_{j-1}
    for j in range(1, n + 1):
        sel = dual_dim == j
        faces, real = target[sel], inside[sel]
        lower = np.append(by_dim[j - 1], c.grid.size)  # a sentinel past every slot
        rows = np.searchsorted(lower, faces)
        if (lower[rows[real]] != faces[real]).any():
            raise InvariantViolation("a cell of the complex has a face outside it")
        # gf2_rank pivots on the highest row; feeding the columns from the
        # highest slot down keeps its fill-in small on these banded matrices
        columns = np.where(real, rows, -1)[::-1].tolist()
        pow2 = [1 << r for r in range(len(by_dim[j - 1]))] + [0]  # pow2[-1]: no face
        ranks[j] = gf2_rank(sum(map(pow2.__getitem__, col)) for col in columns)
    h = [len(by_dim[j]) - ranks[j] - ranks[j + 1] for j in range(n)]
    return (1 + h[n - 1], *h[n - 2::-1], 0)
