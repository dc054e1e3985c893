"""Cross-checking predicted against measured topology."""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, predict_topology
from .cubical import BettiVector, betti_numbers, rasterize_complement


@dataclass(frozen=True)
class VerificationReport:
    dimension: int
    resolution: int
    predicted: BettiVector
    measured: BettiVector
    match: bool


def verify_arrangement(a: Arrangement, m: int) -> VerificationReport:
    """Compare the combinatorially predicted Betti vector with the one
    measured by cubical homology of the rasterized complement.

    The two sides share only the intersection pass, the arrangement's cached
    ``multiple_points``: the prediction feeds them to the handle-count
    formula, the measurement places its bounding cube and coarseness guard by
    them and takes GF(2) ranks of the rasterized complement's dual complex
    and Alexander duality.  Any ambient dimension is accepted whose doubled
    grid fits the rasterization budget.

    Raises:
        ResolutionTooCoarse: the grid cannot separate nearby features.
        GridTooLarge: the grid exceeds the rasterization budget.
        InvariantViolation: the rasterized complex is not closed under faces.
    """
    predicted = predict_topology(a).betti
    measured = betti_numbers(rasterize_complement(a, m))
    return VerificationReport(
        dimension=a.dimension,
        resolution=m,
        predicted=predicted,
        measured=measured,
        match=predicted == measured,
    )
