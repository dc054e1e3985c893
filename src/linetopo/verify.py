"""Cross-checking predicted against measured topology."""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import Arrangement, predict_topology
from .cubical import BettiVector, betti_numbers, rasterize_complement
from .errors import WrongDimension


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

    The two sides share no code beyond exact line intersection: the
    prediction comes from the handle-count formula, the measurement from
    component labelling and Alexander duality on the grid.
    """
    if a.dimension not in (2, 3):
        raise WrongDimension(
            f"verification supports dimensions 2 and 3, got {a.dimension}"
        )
    predicted = predict_topology(a).betti
    measured = betti_numbers(rasterize_complement(a, m))
    return VerificationReport(
        dimension=a.dimension,
        resolution=m,
        predicted=predicted,
        measured=measured,
        match=predicted == measured,
    )
