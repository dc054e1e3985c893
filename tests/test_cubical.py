from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetopo import (
    GridTooLarge,
    InvariantViolation,
    ResolutionTooCoarse,
    betti_numbers,
    build_arrangement,
    euler_region_count,
    genus,
    gf2_rank,
    rasterize_complement,
    verify_arrangement,
)
from linetopo.arrangement import arrangement_of_lines, transform
from linetopo.cubical import (
    CubicalComplex,
    _bounding_cube,
    _coarseness_guard,
    _drop_slivers,
    _gram,
    _mark_line,
    _orphans,
    _rasterize,
    _slot,
    _star as _star_of_marks,
)
from linetopo.geometry import (
    canonicalize_line,
    integer_form,
    intersect_lines,
    line_box_params,
)
from conftest import hub_arrangements, primitive_direction, seeded_corpus


# Dense oracles: the whole-grid passes rasterization and betti_numbers made
# before they worked on the slots of U alone.


def _slab(mask: int, n: int) -> tuple[slice, ...]:
    """Doubled-grid slots of the cells with extent mask ``mask``: the m odd
    indices on extent axes, the m+1 even (plane) indices on the others."""
    return tuple(slice((mask >> ax) & 1, None, 2) for ax in range(n))


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


def _free_cube_closure(free: np.ndarray) -> np.ndarray:
    """The closure C of the free cubes, the all-odd slots of ``free``."""
    n = free.ndim
    cubes = np.zeros_like(free)
    top = _slab((1 << n) - 1, n)
    cubes[top] = free[top]
    return _closure(cubes)


def _dense_certified(free: np.ndarray) -> np.ndarray:
    """The closure C of the free cubes, plus every other cell of ``free``
    that a chain of such cells joins to C by face adjacency: the oracle for
    ``_rasterize`` and ``_drop_slivers``."""
    n = free.ndim
    kept = _free_cube_closure(free)
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


def _certified(free: np.ndarray) -> np.ndarray:
    """The cells of the face-closed complex ``free`` whose component owns a
    whole free cube, as a new doubled grid: ``_drop_slivers`` for a caller
    that holds only the dense grid."""
    return _drop_slivers(free.copy(), np.flatnonzero(~free))


def _not_face_closed(grid: np.ndarray) -> bool:
    """Whether some cell of ``grid`` has a face outside it: whether the
    complex meets the star of its complement."""
    return bool((grid & _star(~grid)).any())


def _closure_cells(occ: np.ndarray) -> np.ndarray:
    """Doubled grid of the closure of a set of top cubes (``occ`` has shape
    m^n): every cube together with all its faces.  Builds handcrafted
    complexes; rasterization instead keeps every line-free cell."""
    n = occ.ndim
    grid = np.zeros(tuple(2 * s + 1 for s in occ.shape), dtype=bool)
    grid[_slab((1 << n) - 1, n)] = occ
    return _closure(grid)


def _kept_by_bfs(free: np.ndarray) -> np.ndarray:
    """The cells of a complex that a face-adjacent path, one step along one
    axis of the doubled grid at a time, joins to some free cube (an all-odd
    slot): the components owning a free cube, which ``_certified`` must keep.
    A breadth-first search over the dense grid, level by level from every
    free cube at once.  The oracle ``_certified`` is held to."""
    size = free.shape[0]
    inside = free.ravel()
    cells = np.flatnonzero(inside)
    odd = np.stack(np.unravel_index(cells, free.shape)) & 1
    frontier = cells[odd.all(axis=0)]
    seen = np.zeros(inside.size, dtype=bool)
    seen[frontier] = True
    strides = size ** np.arange(free.ndim)
    while frontier.size:
        level = []
        for stride in strides:
            q = frontier // stride % size
            for step in (frontier[q > 0] - stride, frontier[q < size - 1] + stride):
                step = step[inside[step] & ~seen[step]]
                seen[step] = True
                level.append(step)
        frontier = np.concatenate(level)
    return seen.reshape(free.shape)


def _betti_direct(c: CubicalComplex) -> tuple[int, ...]:
    """Betti numbers from full boundary-matrix ranks of the complex itself.

    The facets of a k-cell at flat index p are p +- stride_a along its odd
    axes a.  Quadratic in the cell count: the oracle ``betti_numbers`` is
    held to on small complexes.

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


def _bounding_cube_oracle(a):
    """(low corner, side) of the frame as Fractions, from the Fraction
    anchors: the oracle for ``_bounding_cube``."""
    anchors = [mp.location for mp in a.multiple_points]
    anchors += [line.base for line in a.lines]
    if not anchors:
        anchors = [tuple(Fraction(0) for _ in range(a.dimension))]
    n = a.dimension
    lo = [min(p[i] for p in anchors) for i in range(n)]
    hi = [max(p[i] for p in anchors) for i in range(n)]
    side = max(max(h - l for h, l in zip(hi, lo)), Fraction(1))
    total = 3 * side
    corner = tuple((l + h) / 2 - total / 2 for l, h in zip(lo, hi))
    return corner, total


_big_rationals = st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**40))


@st.composite
def _transformed_hubs(draw):
    """A hub arrangement under a rational affine map with large
    denominators: an upper triangular matrix with nonzero diagonal, so
    invertible, and a shift."""
    a = draw(hub_arrangements())
    n = a.dimension
    nonzero = _big_rationals.filter(bool)
    matrix = [
        [draw(_big_rationals) if j > i else draw(nonzero) if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    return transform(a, matrix, draw(st.lists(_big_rationals, min_size=n, max_size=n)))


_NARROW = [  # no anchor spread: the side is the floor 1, not a width
    build_arrangement(3, []),
    build_arrangement(2, [((Fraction(1, 3), 0), (1, 1))]),
]


@settings(max_examples=150, deadline=None)
@given(st.one_of(hub_arrangements(), _transformed_hubs(), st.sampled_from(_NARROW)))
def test_frame_is_the_integer_form_of_the_fraction_cube(a):
    corner, total = _bounding_cube_oracle(a)
    assert _bounding_cube(a) == integer_form(corner + (total,))


# Reference distances: the Fraction routines the coarseness guard used before
# it compared Gram determinants.


def _fdot(a, b) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def _fsub(a, b):
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))


def _point_line_dist_sq(p, line) -> Fraction:
    w = _fsub(p, line.base)
    dd = _fdot(line.direction, line.direction)
    return _fdot(w, w) - _fdot(w, line.direction) ** 2 / dd


def _line_line_dist_sq(a, b) -> Fraction:
    """Squared distance between two non-intersecting lines."""
    if a.direction == b.direction:
        return _point_line_dist_sq(a.base, b)
    w = _fsub(b.base, a.base)
    d11 = _fdot(a.direction, a.direction)
    d22 = _fdot(b.direction, b.direction)
    d12 = _fdot(a.direction, b.direction)
    det = d11 * d22 - d12 * d12  # > 0 for non-parallel directions
    t = (_fdot(w, a.direction) * d22 - d12 * _fdot(w, b.direction)) / det
    s = (d12 * _fdot(w, a.direction) - d11 * _fdot(w, b.direction)) / det
    diff = tuple(
        wc + s * bc - t * ac
        for wc, ac, bc in zip(w, a.direction, b.direction)
    )
    return _fdot(diff, diff)


def _sin_sq(u, v) -> Fraction:
    return 1 - Fraction(_fdot(u, v) ** 2, _fdot(u, u) * _fdot(v, v))


def _guard_oracle(a, cube_side, box_side):
    """The guard's verdict from the reference distances: None, or the message
    ``_coarseness_guard`` raises."""
    n = a.dimension
    mps = a.multiple_points
    threshold = 4 * n * cube_side**2
    for i in range(len(mps)):
        for j in range(i + 1, len(mps)):
            w = _fsub(mps[i].location, mps[j].location)
            if _fdot(w, w) < threshold:
                return f"multiple points {i} and {j} are closer than two cube diameters"
        for li, line in enumerate(a.lines):
            if li not in mps[i].incident:
                if _point_line_dist_sq(mps[i].location, line) < threshold:
                    return (
                        f"multiple point {i} and line {li} are closer than two cube diameters"
                    )
    meeting = {(i, j) for mp in mps for i in mp.incident for j in mp.incident if i < j}
    for i in range(a.d):
        for j in range(i + 1, a.d):
            if (i, j) not in meeting:
                if _line_line_dist_sq(a.lines[i], a.lines[j]) < threshold:
                    return f"disjoint lines {i} and {j} are closer than two cube diameters"
    run = box_side / 3
    for k, mp in enumerate(mps):
        for i in mp.incident:
            for j in mp.incident:
                if i < j:
                    di, dj = a.lines[i].direction, a.lines[j].direction
                    if _sin_sq(di, dj) * run**2 < threshold:
                        return (
                            f"lines {i} and {j} cross at multiple point {k} too shallowly "
                            f"for the wedge to reach two cube diameters inside the box"
                        )
    return None


def test_gf2_rank_known_matrices():
    # columns are packed bitsets over row indices
    assert gf2_rank([]) == 0
    assert gf2_rank([0b1, 0b10, 0b11]) == 2
    assert gf2_rank([0b111, 0b011, 0b100]) == 2
    assert gf2_rank([0b1010, 0b0101, 0b1111, 0b1]) == 3


def test_slot_boundary_conventions():
    # grid coordinates num/den on an m = 8 grid
    # interior value: the odd slot of the open interval holding it
    assert _slot(5, 2) == 5
    assert _slot(1, 3) == 1
    # exactly on an interior plane, also as an unreduced fraction: even slot
    assert _slot(3, 1) == 6
    assert _slot(6, 2) == 6
    # the two box faces
    assert _slot(0, 1) == 0
    assert _slot(8, 1) == 16


def test_no_lines_leaves_all_cubes_free():
    a = build_arrangement(3, [])
    c = rasterize_complement(a, 2)
    assert len(c.cells[3]) == 8
    assert betti_numbers(c) == (1, 0, 0, 0)


def _complex(grid: np.ndarray) -> CubicalComplex:
    """A handcrafted complex on a unit grid, from its doubled grid."""
    n = grid.ndim
    return CubicalComplex(dimension=n, resolution=(grid.shape[0] - 1) // 2, grid=grid)


def test_single_free_cube_is_contractible():
    occ = np.zeros((2, 2), dtype=bool)
    occ[0, 0] = True
    c = _complex(_closure_cells(occ))
    # one square, its four edges and four vertices, in the lower-left corner
    assert [len(cells) for cells in c.cells] == [4, 4, 1]
    assert c.grid[:3, :3].all() and c.grid.sum() == 9
    assert betti_numbers(c) == (1, 0, 0)
    assert _betti_direct(c) == (1, 0, 0)


def test_annulus_and_hollow_shell_reach_the_top_dual_degree():
    # no line complement has b_{n-1} > 0; these exercise Alexander duality
    ring = np.ones((3, 3), dtype=bool)
    ring[1, 1] = False
    annulus = _complex(_closure_cells(ring))
    assert betti_numbers(annulus) == _betti_direct(annulus) == (1, 1, 0)
    shell = np.ones((3, 3, 3), dtype=bool)
    shell[1, 1, 1] = False
    hollow = _complex(_closure_cells(shell))
    assert betti_numbers(hollow) == _betti_direct(hollow) == (1, 0, 1, 0)


def test_empty_complex_has_no_homology():
    for n in (2, 3, 4):
        c = _complex(np.zeros((5,) * n, dtype=bool))
        assert betti_numbers(c) == _betti_direct(c) == (0,) * (n + 1)


@st.composite
def _top_cube_sets(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(1, {2: 6, 3: 4, 4: 3}[n]))
    bits = draw(st.lists(st.booleans(), min_size=m**n, max_size=m**n))
    return np.array(bits, dtype=bool).reshape((m,) * n)


@settings(max_examples=200, deadline=None)
@given(_top_cube_sets())
def test_dual_ranks_match_direct_ranks_on_random_closures(occ):
    c = _complex(_closure_cells(occ))
    assert betti_numbers(c) == _betti_direct(c)


def test_complex_missing_a_face_raises_invariant_violation():
    grid = np.zeros((5, 5), dtype=bool)
    grid[1, 2] = True  # an edge without its two end vertices
    c = _complex(grid)
    with pytest.raises(InvariantViolation):
        betti_numbers(c)  # the edge lies in the star of its missing vertices
    with pytest.raises(InvariantViolation):
        _betti_direct(c)


def _marked(a, m: int) -> np.ndarray:
    """Doubled grid of the cells each line marks at resolution m."""
    frame = _bounding_cube(a)
    hit = np.zeros((2 * m + 1,) * a.dimension, dtype=bool)
    for line in a.lines:
        hit[_mark_line(line, frame, m)] = True
    return hit


def _line_free(a, m: int) -> np.ndarray:
    """Doubled grid of every line-free cell at resolution m: the complex
    ``rasterize_complement`` certifies, without the guard."""
    return ~_star(_marked(a, m))


@st.composite
def _face_closed_grids(draw):
    """``~_star(hit)`` for a random mask ``hit``: closed under faces, like
    every complex ``_certified`` receives."""
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(2, 12))
    density = draw(st.sampled_from([0.005, 0.02, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ~_star(rng.random((2 * m + 1,) * n) < density)


@settings(max_examples=100, deadline=None)
@given(_face_closed_grids())
def test_certified_matches_bfs_on_random_complexes(free):
    assert np.array_equal(_certified(free), _kept_by_bfs(free))


def test_certified_matches_bfs_on_coarse_rasterizations():
    # the guard is not run, so grids it refuses take part with their slivers;
    # the last case is the shallowest wedge the guard accepts at m = 1024
    cases = [
        (a, m)
        for n, grids in ((2, (8, 16, 32)), (3, (6, 12, 20)), (4, (4, 6, 8)))
        for a in seeded_corpus(n, 12, 6, seed0=700 + n)
        for m in grids
    ]
    cases.append((build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (120, 1))]), 1024))
    with_slivers = 0
    for a, m in cases:
        free = _line_free(a, m)
        kept = _certified(free)
        assert np.array_equal(kept, _kept_by_bfs(free)), (a.dimension, a.d, m)
        with_slivers += bool((free & ~kept).any())
    assert with_slivers >= len(cases) // 4


@st.composite
def _tube_arrangements(draw):
    """Lines in R^n, n = 2-4, whose tubes touch at coarse grids, and a grid
    that the guard may accept or refuse: a pencil of 2-4 lines through a
    small integer centre, two lines through it at slope 1/k, or two parallel
    lines 1/k apart (k = 1-60), plus at most one more line."""
    n = draw(st.sampled_from([2, 3, 4]))
    small = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    directions = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    centre, pad = draw(small), [0] * (n - 2)
    kind = draw(st.sampled_from(["pencil", "wedge", "parallel"]))
    if kind == "pencil":
        pencil = draw(st.lists(directions, min_size=2, max_size=4, unique_by=primitive_direction))
        raw = [(centre, u) for u in pencil]
    else:
        k, u = draw(st.integers(1, 60)), [1, 0] + pad
        if kind == "wedge":
            raw = [(centre, u), (centre, [k, 1] + pad)]
        else:
            raw = [(centre, u), ([centre[0], centre[1] + Fraction(1, k)] + centre[2:], u)]
    raw += draw(st.lists(st.tuples(small, directions), max_size=1))
    m = draw(st.integers(2, {2: 256, 3: 24, 4: 8}[n]))
    return arrangement_of_lines(n, {canonicalize_line(p, u) for p, u in raw}), m


def test_rasterization_matches_the_dense_oracle():
    # the star of the marks, the orphans and the certified grid, each against
    # the whole-grid passes, without the guard (as in _line_free)
    seen = dict.fromkeys(["accepted", "refused", "with orphans", "with dropped orphans"], 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_tube_arrangements())
    def check(case):
        a, m = case
        free = _line_free(a, m)
        u = _star_of_marks(np.flatnonzero(_marked(a, m)), 2 * m + 1, a.dimension)
        assert np.array_equal(np.unique(u), np.flatnonzero(~free))
        orphans = _orphans(free, u)
        assert np.array_equal(orphans, np.flatnonzero(free & ~_free_cube_closure(free)))
        grid = _rasterize(a, _bounding_cube(a), m)
        assert np.array_equal(grid, _dense_certified(free))
        seen["refused" if _guard_verdict(a, m) else "accepted"] += 1
        seen["with orphans"] += orphans.size > 0
        seen["with dropped orphans"] += bool((free & ~grid).any())

    check()
    assert all(seen.values()), seen


def test_orphans_on_the_benchmark_fixtures(coplanar3, generic_planar3):
    for a, m, count in ((coplanar3, 48, 48), (generic_planar3, 256, 16)):
        free = _line_free(a, m)
        orphans = _orphans(free, np.flatnonzero(~free))
        assert orphans.size == count
        assert np.array_equal(orphans, np.flatnonzero(free & ~_free_cube_closure(free)))
        assert np.array_equal(rasterize_complement(a, m).grid, _dense_certified(free))


@st.composite
def _flipped_complexes(draw):
    """A face-closed complex, rasterized or the closure of random cubes, with
    one slot flipped, and that slot; in about half the cases it lies on the
    grid boundary, where some neighbour is out of range."""
    if draw(st.booleans()):
        a, _ = draw(_tube_arrangements())
        m = draw(st.integers(2, {2: 10, 3: 5, 4: 3}[a.dimension]))
        grid = _rasterize(a, _bounding_cube(a), m)
    else:
        grid = _closure_cells(draw(_top_cube_sets()))
    size = grid.shape[0]
    pos = [draw(st.integers(0, size - 1)) for _ in range(grid.ndim)]
    if draw(st.booleans()):
        pos[draw(st.integers(0, grid.ndim - 1))] = draw(st.sampled_from([0, size - 1]))
    pos = tuple(pos)
    grid[pos] = not grid[pos]
    return grid, pos


def test_folded_invariant_check_matches_the_dense_check():
    seen = dict.fromkeys(["raised", "returned", "raised on the boundary",
                          "returned on the boundary"], 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_flipped_complexes())
    def check(case):
        grid, pos = case
        c = _complex(grid)
        if _not_face_closed(grid):
            with pytest.raises(InvariantViolation):
                betti_numbers(c)
            outcome = "raised"
        else:
            assert betti_numbers(c) == _betti_direct(c)
            outcome = "returned"
        seen[outcome] += 1
        if 0 in pos or grid.shape[0] - 1 in pos:
            seen[outcome + " on the boundary"] += 1

    check()
    assert all(seen.values()), seen


def test_chord_separates_the_square():
    a = build_arrangement(2, [((0, 0), (1, 0))])
    c = rasterize_complement(a, 4)
    stabbed = 4**2 - len(c.cells[2])
    assert stabbed > 0
    assert betti_numbers(c)[0] == 2


def test_line_complement_in_box_is_a_circle():
    a = build_arrangement(3, [((0, 0, 0), (1, 0, 0))])
    c = rasterize_complement(a, 16)
    assert betti_numbers(c) == (1, 1, 0, 0)


def test_marking_matches_bruteforce_slab_test_in_every_dimension():
    # adversarial mix: a grid-diagonal through cube corners, an axis-parallel
    # line lying exactly in a grid plane, and a skew rational line
    import itertools

    lines = build_arrangement(
        3,
        [
            ((0, 0, 0), (1, 1, 1)),
            ((1, 0, 0), (0, 1, 0)),
            ((Fraction(1, 3), 0, 2), (2, -3, 1)),
        ],
    ).lines
    m = 6
    box_lo = (Fraction(-1), Fraction(-1), Fraction(-1))
    side = Fraction(1)
    frame = ((-1, -1, -1, 6), 1)  # the corner box_lo and the box side m * side
    marks = np.concatenate(
        [np.ravel_multi_index(_mark_line(line, frame, m), (2 * m + 1,) * 3) for line in lines]
    )
    stabbed = np.zeros((2 * m + 1,) * 3, dtype=bool)
    stabbed.reshape(-1)[_star_of_marks(marks, 2 * m + 1, 3)] = True
    for mask in range(8):
        arr = stabbed[_slab(mask, 3)]
        for pos in itertools.product(*(range(s) for s in arr.shape)):
            lo = tuple(box_lo[ax] + pos[ax] * side for ax in range(3))
            hi = tuple(lo[ax] + (side if (mask >> ax) & 1 else 0) for ax in range(3))
            hit = any(line_box_params(line, lo, hi) is not None for line in lines)
            assert arr[pos] == hit, (mask, pos)


@pytest.mark.parametrize("n,m,seed0", [(2, 6, 5000), (3, 6, 6000)])
def test_reduced_path_agrees_with_direct_ranks(n, m, seed0):
    for a in seeded_corpus(n, 6, 4, seed0=seed0):
        try:
            c = rasterize_complement(a, m)
        except ResolutionTooCoarse:
            continue
        assert betti_numbers(c) == _betti_direct(c)


def test_coarseness_guard_fires_on_close_points():
    # crossings at (0,0) and (1,0); the inflated box is ~3 wide so two cube
    # diameters exceed their separation at m = 8
    a = build_arrangement(
        2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))]
    )
    with pytest.raises(ResolutionTooCoarse):
        rasterize_complement(a, 8)
    # a finer grid passes and measures the right regions
    c = rasterize_complement(a, 32)
    assert betti_numbers(c)[0] == 1 + genus(a)


def test_guard_on_point_vs_nonincident_line():
    # a crossing very close to a third, non-incident line
    a = build_arrangement(
        2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((Fraction(1, 4), 0), (0, 1))]
    )
    assert len(a.lines) == 3
    with pytest.raises(ResolutionTooCoarse):
        rasterize_complement(a, 8)


def test_dimension_gate():
    # no dimension is refused: the complement of a line in an n-box
    # retracts to an (n-2)-sphere
    a4 = build_arrangement(4, [((0, 0, 0, 0), (1, 0, 0, 0))])
    assert betti_numbers(rasterize_complement(a4, 6)) == (1, 0, 1, 0, 0)
    a5 = build_arrangement(5, [((0,) * 5, (1, 0, 0, 0, 0))])
    assert betti_numbers(rasterize_complement(a5, 4)) == (1, 0, 0, 1, 0, 0)
    # the grid budget is what bounds m and n, checked before any allocation
    with pytest.raises(GridTooLarge):
        rasterize_complement(a4, 100)
    with pytest.raises(GridTooLarge):
        rasterize_complement(build_arrangement(12, [((0,) * 12, (1,) + (0,) * 11)]), 2)
    # a huge dimension is refused without forming (2m+1)^n, whose thousands
    # of digits Python would not even render
    with pytest.raises(GridTooLarge, match=r"\(2m\+1\)\^n = 5\^7000 slots"):
        rasterize_complement(build_arrangement(7000, []), 2)


def test_resolution_stability_small():
    a = build_arrangement(3, [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))])
    assert betti_numbers(rasterize_complement(a, 16)) == betti_numbers(
        rasterize_complement(a, 32)
    )


def test_guard_rejects_shallow_wedges():
    # nearly parallel lines crossing at a tiny angle: the wedge regions stay
    # thinner than the grid for the whole box
    a = build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (40, 1))])
    with pytest.raises(ResolutionTooCoarse):
        rasterize_complement(a, 16)


def test_random_n3_measurements_match_predictions():
    from linetopo import predict_topology

    done = 0
    seed = 0
    while done < 6:
        a = seeded_corpus(3, 1, 5, seed0=9000 + 31 * seed)[0]
        seed += 1
        try:
            c = rasterize_complement(a, 24)
        except ResolutionTooCoarse:
            continue
        assert betti_numbers(c) == predict_topology(a).betti
        done += 1


def test_verify_arrangement_matches_in_both_dims(crossing_pair3):
    rep = verify_arrangement(crossing_pair3, 16)
    assert rep.match
    assert rep.measured == (1, 3, 0, 0)

    planar = build_arrangement(2, [((0, 0), (1, 0)), ((0, 5), (0, 1))])
    rep2 = verify_arrangement(planar, 16)
    assert rep2.match
    assert rep2.measured[0] == euler_region_count(planar)

    rep4 = verify_arrangement(build_arrangement(4, [((0, 0, 0, 0), (1, 0, 0, 0))]), 8)
    assert rep4.match
    assert rep4.measured == (1, 0, 1, 0, 0)


def test_guard_verdicts_match_the_reference_distances():
    fired = set()
    for n, max_d in ((2, 10), (3, 8), (4, 6)):
        origin, pad = (0,) * n, (0,) * (n - 2)
        # two lines at a shallow angle leave only the wedge check to fire; at
        # n = 2, k = 1 and m = 12 its two sides are equal.  Then two parallel
        # lines at distance 1.
        extras = [
            build_arrangement(n, [(origin, (1, 0) + pad), (origin, (k, 1) + pad)])
            for k in (1, 3, 10, 40)
        ]
        extras.append(build_arrangement(n, [(origin, (1, 0) + pad), ((0, 1) + pad, (1, 0) + pad)]))
        for a in seeded_corpus(n, 30, max_d, seed0=600 + n) + extras:
            frame = _bounding_cube(a)
            _, total = _bounding_cube_oracle(a)
            for m in (4, 12, 16, 64, 256, 1024, 4096):
                try:
                    _coarseness_guard(a, frame, m)
                    verdict = None
                except ResolutionTooCoarse as exc:
                    verdict = str(exc)
                assert verdict == _guard_oracle(a, total / m, total)
                checks = ("shallowly", "multiple points", "multiple point", "disjoint")
                fired.add(verdict and next(c for c in checks if c in verdict))
    assert fired == {None, "multiple points", "multiple point", "disjoint", "shallowly"}


_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


def _guard_verdict(a, m):
    """None, or the message ``_coarseness_guard`` raises at resolution m."""
    try:
        _coarseness_guard(a, _bounding_cube(a), m)
    except ResolutionTooCoarse as exc:
        return str(exc)
    return None


_GUARD_GRIDS = (2, 4, 12, 64, 256, 1024, 4096, 10**6)


def _assert_guard_matches_the_oracle(a):
    _, total = _bounding_cube_oracle(a)
    for m in _GUARD_GRIDS:
        assert _guard_verdict(a, m) == _guard_oracle(a, total / m, total), m


@st.composite
def _planar_lattices(draw):
    """k horizontal and k vertical lines, k = 1-5, at random rational
    spacings: k^2 multiple points with no third line through any."""
    k = draw(st.integers(1, 5))
    spacing = st.builds(Fraction, st.integers(1, 400), st.integers(1, 4))
    raw = []
    for direction in ((1, 0), (0, 1)):
        offset = draw(_rationals)
        for _ in range(k):
            offset += draw(spacing)
            point = (0, offset) if direction == (1, 0) else (offset, 0)
            raw.append((point, direction))
    return build_arrangement(2, draw(st.permutations(raw)))


@settings(max_examples=60, deadline=None)
@given(_planar_lattices())
def test_guard_matches_the_oracle_on_planar_lattices(a):
    _assert_guard_matches_the_oracle(a)


@st.composite
def _pencils(draw):
    """One or two pencils of 2-4 lines in R^3 or R^4, each through a small
    integer centre, plus up to two further lines."""
    n = draw(st.sampled_from((3, 4)))
    small = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    directions = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    raw = [
        (centre, u)
        for centre in draw(st.lists(small, min_size=1, max_size=2))
        for u in draw(st.lists(directions, min_size=2, max_size=4, unique_by=primitive_direction))
    ]
    raw += draw(st.lists(st.tuples(small, directions), max_size=2))
    return arrangement_of_lines(n, {canonicalize_line(p, u) for p, u in raw})


@settings(max_examples=60, deadline=None)
@given(_pencils())
def test_guard_matches_the_oracle_on_pencils(a):
    _assert_guard_matches_the_oracle(a)


def test_guard_reports_the_first_failure_in_point_order():
    # at point 0 both the pair (0, 1) and line 2 are too close: the pair wins
    a = build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))])
    assert _guard_verdict(a, 8) == "multiple points 0 and 1 are closer than two cube diameters"
    # in R^3 line 2 passes at height h above point 0, the origin, and meets
    # no line; points 1 and 2, at x = 100 and 101 on the x-axis, are a
    # close pair
    def skew_above_origin(h):
        return build_arrangement(3, [
            ((0, 0, 0), (1, 0, 0)),
            ((0, 0, 0), (0, 1, 0)),
            ((0, 0, h), (1, 1, 0)),
            ((100, 0, 0), (0, 1, 0)),
            ((101, 0, 0), (0, 0, 1)),
        ])

    # at h = 1/2 point 0 fails first, on its line
    b = skew_above_origin(Fraction(1, 2))
    assert [mp.location for mp in b.multiple_points] == [(0, 0, 0), (100, 0, 0), (101, 0, 0)]
    assert _guard_verdict(b, 64) == "multiple point 0 and line 2 are closer than two cube diameters"
    # at h = 40 line 2 is far enough, and the pair is reported at point 1
    c = skew_above_origin(40)
    assert _guard_verdict(c, 64) == "multiple points 1 and 2 are closer than two cube diameters"
    for arrangement in (a, b, c):
        _assert_guard_matches_the_oracle(arrangement)


@st.composite
def _guard_cases(draw):
    """A point and two distinct lines in R^n, n = 2-5, drawn at random or
    as a parallel pair."""
    n = draw(st.integers(2, 5))
    vectors = st.lists(_rationals, min_size=n, max_size=n)
    directions = vectors.filter(any)
    a = canonicalize_line(draw(vectors), draw(directions))
    if draw(st.booleans()):
        b = canonicalize_line(draw(vectors), a.direction)
    else:
        b = canonicalize_line(draw(vectors), draw(directions))
    return tuple(draw(vectors)), a, b


@settings(max_examples=300, deadline=None)
@given(_guard_cases())
def test_gram_comparisons_match_reference_distances(case):
    p, a, b = case
    u, v = a.direction, b.direction
    dirs = (u,) if u == v else (u, v)
    w = _fsub(b.base, a.base)
    exact = [
        (_fdot(_fsub(p, a.base), _fsub(p, a.base)), _gram(_fsub(p, a.base)), 1),
        (_point_line_dist_sq(p, a), _gram(_fsub(p, a.base), u), _gram(u)),
        (_sin_sq(u, v), _gram(u, v), _gram(u) * _gram(v)),
    ]
    if a != b and intersect_lines(a, b) is None:
        exact.append((_line_line_dist_sq(a, b), _gram(w, *dirs), _gram(*dirs)))
    eps = Fraction(1, 10**9)
    for value, num, den in exact:
        for threshold in (value - eps, value, value + eps):
            assert (num < threshold * den) == (value < threshold)
