"""Brute-force topology measurement: cubical homology over GF(2).

The complement is clipped to a rational box and rasterized on a doubled grid
that holds cells of every dimension.  Each line marks the open cells at its
exact grid-plane crossings, and every grid cell that is not a coface of a
marked cell, so whose closed cell misses all lines, enters a cubical
complex.  The Betti numbers come from GF(2) ranks on the dual cells of the
complex's complement, by Alexander duality, in any ambient dimension and
with no input from the handle-count formula.  A coarseness guard rejects
resolutions that cannot separate the arrangement's features.
"""

import time

from linetopo import (
    ResolutionTooCoarse,
    betti_numbers,
    build_arrangement,
    predict_topology,
    rasterize_complement,
    verify_arrangement,
)

fixtures = {
    "one line": build_arrangement(3, [((0, 0, 0), (1, 0, 0))]),
    "two crossing lines": build_arrangement(
        3, [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))]
    ),
    "two skew lines": build_arrangement(
        3, [((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, 1))]
    ),
    "pencil of three": build_arrangement(
        3,
        [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1))],
    ),
    "R^4 crossing + skew": build_arrangement(
        4,
        [((0, 0, 0, 0), (1, 0, 0, 0)), ((0, 0, 0, 0), (0, 1, 0, 0)),
         ((0, 0, 1, 0), (0, 0, 0, 1))],
    ),
}

for name, a in fixtures.items():
    t0 = time.perf_counter()
    report = verify_arrangement(a, 32 if a.dimension == 3 else 12)
    dt = time.perf_counter() - t0
    print(f"{name:20s} predicted {report.predicted}  measured {report.measured}  "
          f"match={report.match}  ({dt:.1f}s)")
    assert report.match, name

# Stability: once the guard accepts, refining the grid leaves the measured
# topology unchanged.
a = fixtures["two crossing lines"]
for m in (16, 32):
    c = rasterize_complement(a, m)
    print(f"grid {m:2d}: free cubes {len(c.cells[3]):6d}  betti {betti_numbers(c)}")

# The guard refuses resolutions below the feature scale instead of guessing.
close = build_arrangement(2, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (0, 1))])
try:
    rasterize_complement(close, 8)
except ResolutionTooCoarse as exc:
    print("\nguard fired as expected:", exc)
print("prediction for the same arrangement:", predict_topology(close).betti)
