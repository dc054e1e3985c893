"""Topology of complements of affine line arrangements.

The toolkit computes the complete topological classification of the
complement of finitely many affine lines in R^n from combinatorial data,
replays the classification as a checkable sweep/handle-attachment trace, and
validates it with independent brute-force oracles: exact Euler-formula
region counting in the plane and cubical GF(2) homology of rasterized
complements.
"""

__version__ = "0.1.0"

from .arrangement import (
    Arrangement,
    InvariantReport,
    MultiplePoint,
    build_arrangement,
    genus,
    multiple_points,
    multiplicity_vector,
    predict_topology,
)
from .cubical import CubicalComplex, betti_numbers, gf2_rank, rasterize_complement
from .errors import (
    DimensionMismatch,
    DuplicateLine,
    GridTooLarge,
    InvalidProfile,
    InvariantViolation,
    LinetopoError,
    NonGenericDirection,
    ParseError,
    ResolutionTooCoarse,
    WrongDimension,
    ZeroDirection,
)
from .generate import SplitMix64, generate_random
from .geometry import (
    COINCIDENT,
    Line,
    canonicalize_line,
    intersect_lines,
    point_on_line,
)
from .io_json import parse_arrangement, serialize_arrangement
from .poset import (
    IntersectionPoset,
    build_poset,
    hasse_dot,
    hasse_edges,
    recover_line_count,
    recover_multiplicities,
)
from .regions import ClippedSubdivision, clip_subdivision, euler_region_count
from .sweep import (
    HandleTrace,
    SpaceGraph,
    SweepPlan,
    Violation,
    build_space_graph,
    check_direction,
    find_generic_direction,
    graph_from_segments,
    handle_trace,
    sweep_events,
)
from .verify import VerificationReport, verify_arrangement

__all__ = [
    "Arrangement",
    "COINCIDENT",
    "ClippedSubdivision",
    "CubicalComplex",
    "DimensionMismatch",
    "DuplicateLine",
    "GridTooLarge",
    "HandleTrace",
    "IntersectionPoset",
    "InvalidProfile",
    "InvariantReport",
    "InvariantViolation",
    "Line",
    "LinetopoError",
    "MultiplePoint",
    "NonGenericDirection",
    "ParseError",
    "ResolutionTooCoarse",
    "SpaceGraph",
    "SplitMix64",
    "SweepPlan",
    "VerificationReport",
    "Violation",
    "WrongDimension",
    "ZeroDirection",
    "betti_numbers",
    "build_arrangement",
    "build_poset",
    "build_space_graph",
    "canonicalize_line",
    "check_direction",
    "clip_subdivision",
    "euler_region_count",
    "find_generic_direction",
    "generate_random",
    "genus",
    "gf2_rank",
    "graph_from_segments",
    "handle_trace",
    "hasse_dot",
    "hasse_edges",
    "intersect_lines",
    "multiple_points",
    "multiplicity_vector",
    "parse_arrangement",
    "point_on_line",
    "predict_topology",
    "rasterize_complement",
    "recover_line_count",
    "recover_multiplicities",
    "serialize_arrangement",
    "sweep_events",
    "verify_arrangement",
]
