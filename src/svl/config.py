"""Dataclass configuration records: tolerances and optimizer options."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by state validation.

    structural: entrywise tolerance for norms, Hermiticity and traces.
    psd: how far below zero the smallest eigenvalue may sit.
    input_normalization: slack accepted on user-supplied coefficients
        before they are renormalized.
    """

    structural: float = 1e-12
    psd: float = 1e-10
    input_normalization: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

# Eigenvalue checks are skipped above this matrix dimension; producers of
# larger matrices (rank-one projectors, partial traces of valid states)
# preserve positivity by construction.
PSD_CHECK_MAX_DIM = 256


@dataclass(frozen=True)
class OptimizerOptions:
    """Controls for the multi-start see-saw over measurement directions.

    restarts: number of independent uniform-random starting points.
    max_iter: sweep cap per start (one sweep updates all three parties).
    tol: a start converges on the first sweep in which no direction
        moves by more than this in any Cartesian component.
    seed: 64-bit seed from which all restart seeds are derived.
    """

    restarts: int = 64
    max_iter: int = 2000
    tol: float = 1e-10
    seed: int = 42
