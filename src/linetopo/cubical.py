"""Rasterized box-clipped complements and their homology over GF(2).

A rational bounding cube around the arrangement is split into an m^n grid
whose cells, of every dimension, live in one boolean array: the doubled grid
of shape (2m+1)^n, where the cell with anchor corner a and extent mask mu
sits at index 2a + mu.  Odd coordinates mark the axes along which a cell has
unit extent, so a cell's dimension is its number of odd coordinates.

The complex keeps every cell whose closed cell meets no line, decided
exactly with rational slab clipping.  In particular a grid cube is free iff
its closed cube misses all lines, and the line-free faces of stabbed cubes
are kept as well: a line nicking only a corner of a cube removes the cube
but not its far faces, and dropping those faces would leave hollow shells
that inflate the measured Betti numbers.  Chords of a convex box are
unknotted and unlinked, so the clipped complement shares the Betti data of
the full complement (a tested hypothesis; every acceptance fixture
exercises it).

The facets of a cell are its neighbours p +- e_a along its odd axes, so face
incidence is exactly 6-connectivity of the doubled grid and components come
from component labelling.  For n <= 3 no boundary-matrix rank is needed:

- b_0 is the number of components of the complex;
- b_{n-1} is the number of components of the complement in the padded
  grid, minus one (Alexander duality, Hatcher, Algebraic Topology 3.3);
- b_n is 0, since the complex is a proper compact subset of R^n;
- for n = 3, b_1 follows from the Euler characteristic, counted per cell
  dimension.

For n = 2 the identity b_0 - b_1 = chi is independent of both labellings
and is checked on every run.  The 4-dimensional grid (behind ``allow_dim4``)
takes full GF(2) boundary-matrix ranks instead, the same computation the
tests use as the oracle for the labelling path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arrangement import Arrangement, MultiplePoint, multiple_points
from .errors import InvariantViolation, ResolutionTooCoarse, WrongDimension
from .geometry import Line, Point, dot, line_box_params, sub

BettiVector = tuple[int, ...]


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
    anchors = [mp.location for mp in multiple_points(a)]
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


def _point_line_dist_sq(p: Point, line: Line) -> Fraction:
    w = sub(p, line.base)
    dd = dot(line.direction, line.direction)
    return dot(w, w) - dot(w, line.direction) ** 2 / dd


def _line_line_dist_sq(a: Line, b: Line) -> Fraction:
    """Squared distance between two non-intersecting lines."""
    if a.direction == b.direction:
        return _point_line_dist_sq(a.base, b)
    w = sub(b.base, a.base)
    d11 = dot(a.direction, a.direction)
    d22 = dot(b.direction, b.direction)
    d12 = dot(a.direction, b.direction)
    det = d11 * d22 - d12 * d12  # > 0 for non-parallel directions
    t = (dot(w, a.direction) * d22 - d12 * dot(w, b.direction)) / det
    s = (d12 * dot(w, a.direction) - d11 * dot(w, b.direction)) / det
    diff = tuple(
        wc + s * bc - t * ac
        for wc, ac, bc in zip(w, a.direction, b.direction)
    )
    return dot(diff, diff)


def _coarseness_guard(
    a: Arrangement, mps: list[MultiplePoint], cube_side: Fraction, box_side: Fraction
):
    """Reject resolutions that cannot resolve the arrangement's features.

    Certified with exact rational comparisons: any two multiple points, any
    multiple point and a non-incident line, and any two disjoint lines must
    be at least two cube diameters apart, and the wedge between any two lines
    through a multiple point must reach two cube diameters of width within
    the guaranteed run to the box boundary (a third of the box side), since a
    thinner wedge region never certifies a free cube.
    """
    n = a.dimension
    threshold = 4 * n * cube_side**2  # (2 * cube diameter)^2
    for i in range(len(mps)):
        for j in range(i + 1, len(mps)):
            diff = sub(mps[i].location, mps[j].location)
            if dot(diff, diff) < threshold:
                raise ResolutionTooCoarse(
                    f"multiple points {i} and {j} are closer than two cube diameters"
                )
        for li, line in enumerate(a.lines):
            if li in mps[i].incident:
                continue
            if _point_line_dist_sq(mps[i].location, line) < threshold:
                raise ResolutionTooCoarse(
                    f"multiple point {i} and line {li} are closer than two cube diameters"
                )
    meeting = {
        (min(i, j), max(i, j)) for mp in mps for i in mp.incident for j in mp.incident
    }
    for i in range(a.d):
        for j in range(i + 1, a.d):
            if (i, j) in meeting:
                continue
            if _line_line_dist_sq(a.lines[i], a.lines[j]) < threshold:
                raise ResolutionTooCoarse(
                    f"disjoint lines {i} and {j} are closer than two cube diameters"
                )
    run = box_side / 3  # guaranteed distance from any feature to the box boundary
    for k, mp in enumerate(mps):
        for i in mp.incident:
            for j in mp.incident:
                if i >= j:
                    continue
                di, dj = a.lines[i].direction, a.lines[j].direction
                sin_sq = 1 - Fraction(dot(di, dj) ** 2, dot(di, di) * dot(dj, dj))
                if sin_sq * run**2 < threshold:
                    raise ResolutionTooCoarse(
                        f"lines {i} and {j} cross at multiple point {k} too shallowly "
                        f"for the wedge to reach two cube diameters inside the box"
                    )


def _index_range(x1: Fraction, x2: Fraction, lo: Fraction, side: Fraction, m: int):
    """Indices of grid cells whose closed extent meets [x1, x2], or None.

    A value exactly on an interior grid plane belongs to the closed cells on
    both sides.
    """
    q1, rem1 = divmod(x1 - lo, side)
    k_lo = int(q1) - 1 if rem1 == 0 else int(q1)
    q2, _ = divmod(x2 - lo, side)
    k_hi = int(q2)
    if k_hi < 0 or k_lo > m - 1:
        return None
    return (max(k_lo, 0), min(k_hi, m - 1))


def _plane_range(x1: Fraction, x2: Fraction, lo: Fraction, side: Fraction, m: int):
    """Grid plane indices i with lo + i*side inside [x1, x2], or None."""
    i_lo = int(-((lo - x1) // side))  # ceil((x1 - lo) / side)
    i_hi = int((x2 - lo) // side)
    if i_hi < 0 or i_lo > m:
        return None
    i_lo, i_hi = max(i_lo, 0), min(i_hi, m)
    if i_lo > i_hi:
        return None
    return (i_lo, i_hi)


def _mark_line(stabbed: np.ndarray, line: Line, box_lo, side: Fraction, m: int):
    """Mark every grid cell, of every dimension, whose closed cell the line
    meets, exactly, in the doubled grid ``stabbed``.

    For each extent mask the slab walk pins all axes but one to positions
    compatible with the running parameter interval (cube index ranges for
    extent axes, plane hits for degenerate axes) and resolves the final
    moving axis to one contiguous index range.
    """
    n = line.dimension
    box_hi = [c + m * side for c in box_lo]
    span = line_box_params(line, box_lo, box_hi)
    if span is None:
        return
    moving = [a for a in range(n) if line.direction[a] != 0]
    ranged = moving[-1]
    iter_axes = moving[:-1]

    def x_at(axis, t):
        return line.base[axis] + t * line.direction[axis]

    for mask in range(1 << n):
        arr = stabbed[_slab(mask, n)]
        fixed_pairs = []
        reachable = True
        for a in range(n):
            if line.direction[a] != 0:
                continue
            if (mask >> a) & 1:
                r = _index_range(line.base[a], line.base[a], box_lo[a], side, m)
            else:
                r = _plane_range(line.base[a], line.base[a], box_lo[a], side, m)
            if r is None:
                reachable = False
                break
            fixed_pairs.append((a, r))
        if not reachable:
            continue

        def positions(axis, t_lo, t_hi):
            x1, x2 = x_at(axis, t_lo), x_at(axis, t_hi)
            if x1 > x2:
                x1, x2 = x2, x1
            if (mask >> axis) & 1:
                return _index_range(x1, x2, box_lo[axis], side, m)
            return _plane_range(x1, x2, box_lo[axis], side, m)

        def sub_interval(axis, i, t_lo, t_hi):
            v = line.direction[axis]
            if (mask >> axis) & 1:
                p1 = (box_lo[axis] + i * side - line.base[axis]) / v
                p2 = (box_lo[axis] + (i + 1) * side - line.base[axis]) / v
                if p1 > p2:
                    p1, p2 = p2, p1
            else:
                p1 = p2 = (box_lo[axis] + i * side - line.base[axis]) / v
            lo, hi = max(t_lo, p1), min(t_hi, p2)
            return (lo, hi) if lo <= hi else None

        def walk(depth, t_lo, t_hi, chosen):
            if depth == len(iter_axes):
                r = positions(ranged, t_lo, t_hi)
                if r is None:
                    return
                idx = [slice(None)] * n
                for axis, (k_lo, k_hi) in chosen + fixed_pairs + [(ranged, r)]:
                    idx[axis] = slice(k_lo, k_hi + 1)
                arr[tuple(idx)] = True
                return
            a = iter_axes[depth]
            r = positions(a, t_lo, t_hi)
            if r is None:
                return
            for i in range(r[0], r[1] + 1):
                sub = sub_interval(a, i, t_lo, t_hi)
                if sub is not None:
                    walk(depth + 1, sub[0], sub[1], chosen + [(a, (i, i))])

        walk(0, span[0], span[1], [])


def _components(grid: np.ndarray):
    """Labels and count of the components of a doubled grid.  The default
    structuring element joins slots one step apart along one axis, which on
    the doubled grid is exactly face incidence."""
    from scipy import ndimage

    return ndimage.label(grid)


def _certified(free: np.ndarray) -> np.ndarray:
    """Drop components of the complex that contain no whole free cube.

    A line-free sliver thinner than one cube everywhere (isolated vertices or
    edges deep inside a stabbed tube) belongs to some neighbouring region of
    the true complement, but the grid cannot certify which one; keeping it
    would add spurious components.  Components owning at least one free
    cube, an all-odd slot, are kept in full.
    """
    labels, count = _components(free)
    owned = np.zeros(count + 1, dtype=bool)
    owned[labels[_slab((1 << free.ndim) - 1, free.ndim)]] = True
    owned[0] = False
    return owned[labels]


def _closure_cells(occ: np.ndarray) -> np.ndarray:
    """Doubled grid of the closure of a set of top cubes (``occ`` has shape
    m^n): every cube together with all its faces, which are the slots within
    one step of it in every coordinate.  Builds handcrafted complexes in
    tests; rasterization instead keeps every line-free cell."""
    from scipy import ndimage

    n = occ.ndim
    grid = np.zeros(tuple(2 * s + 1 for s in occ.shape), dtype=bool)
    grid[_slab((1 << n) - 1, n)] = occ
    return ndimage.binary_dilation(grid, np.ones((3,) * n, dtype=bool))


def rasterize_complement(a: Arrangement, m: int, allow_dim4: bool = False) -> CubicalComplex:
    """Rasterize the box-clipped complement at resolution m.

    Args:
        a: the arrangement; the ambient dimension must be 2 or 3 (4 is
           admitted with ``allow_dim4`` but costs m^4 cubes).
        m: cubes per axis, at least 2.
        allow_dim4: opt in to the expensive 4-dimensional grid.

    Raises:
        WrongDimension: unsupported ambient dimension.
        ResolutionTooCoarse: the grid cannot separate nearby features.
    """
    n = a.dimension
    if n not in (2, 3) and not (n == 4 and allow_dim4):
        raise WrongDimension(
            f"rasterization supports dimensions 2 and 3 (4 behind allow_dim4), got {n}"
        )
    if m < 2:
        raise ResolutionTooCoarse(f"resolution must be at least 2, got {m}")
    box_lo, total = _bounding_cube(a)
    cube_side = total / m
    _coarseness_guard(a, multiple_points(a), cube_side, total)
    stabbed = np.zeros((2 * m + 1,) * n, dtype=bool)
    for line in a.lines:
        _mark_line(stabbed, line, box_lo, cube_side, m)
    return CubicalComplex(
        dimension=n,
        resolution=m,
        box_lo=box_lo,
        cube_side=cube_side,
        grid=_certified(~stabbed),
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
    """GF(2) Betti numbers (b_0, ..., b_n) of the complex.

    For n <= 3 they come from two component labellings and the Euler
    characteristic (see the module docstring); for n = 4 from full
    boundary-matrix ranks.

    Raises:
        InvariantViolation: for n = 2, b_0 - b_1 differs from the Euler
            characteristic, so the complex is not a face-closed complex.
    """
    n = c.dimension
    if n > 3:
        return _betti_direct(c)
    _, b0 = _components(c.grid)
    _, outside = _components(np.pad(~c.grid, 1, constant_values=True))
    top = outside - 1  # b_{n-1}, by Alexander duality
    chi = sum(
        (-1) ** bin(mask).count("1") * int(np.count_nonzero(c.grid[_slab(mask, n)]))
        for mask in range(1 << n)
    )
    if n == 2:
        if b0 - top != chi:
            raise InvariantViolation(
                f"Euler characteristic {chi} differs from b0 - b1 = {b0} - {top}"
            )
        return (b0, top, 0)
    return (b0, b0 + top - chi, top, 0)


def _betti_direct(c: CubicalComplex) -> BettiVector:
    """Betti numbers from full boundary-matrix ranks, no shortcut.

    The facets of a k-cell at flat index p are p +- stride_a along its odd
    axes a.  Quadratic in the cell count: the n = 4 path, and the oracle the
    tests hold the labelling path to on small complexes.

    Raises:
        InvariantViolation: some facet of a cell is missing from the complex.
    """
    n = c.dimension
    cells = c.cells
    flat = c.grid.ravel()
    strides = c.grid.shape[0] ** np.arange(n - 1, -1, -1)  # C order, in slots
    ranks = [0] * (n + 2)
    for k in range(1, n + 1):
        odd = np.stack(np.unravel_index(cells[k], c.grid.shape), axis=1) & 1
        step = strides[np.nonzero(odd)[1].reshape(len(cells[k]), k)]
        facets = np.concatenate([cells[k][:, None] - step, cells[k][:, None] + step], axis=1)
        if not flat[facets].all():
            raise InvariantViolation(f"a {k}-cell has a facet outside the complex")
        rows = np.searchsorted(cells[k - 1], facets)
        ranks[k] = gf2_rank(sum(1 << int(r) for r in row) for row in rows)
    return tuple(
        len(cells[k]) - ranks[k] - ranks[k + 1] for k in range(n + 1)
    )
