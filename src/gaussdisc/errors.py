"""Exception types shared across the package, and the shared domain and solver checks."""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the physically or mathematically valid range."""


class NumericalError(RuntimeError):
    """A numerical routine (eigensolver, minimizer, quadrature) failed to converge."""


class ConvergenceError(RuntimeError):
    """A truncated Fock-space construction lost too much trace to be trusted."""


class ReportFailure(RuntimeError):
    """A verification scan did not confirm the property it was asked to check."""


def check_mu(mu: float) -> float:
    """Return the thermal variance ``mu`` if it is finite and at least 1.

    Raises :class:`DomainError` otherwise; NaN and infinity are rejected
    here, not left to fail somewhere inside the numerics.
    """
    if not (math.isfinite(mu) and mu >= 1.0):
        raise DomainError(f"thermal variance must be finite and satisfy mu >= 1, got {mu}")
    return mu


def check_correlation(mu: float, g: float) -> float:
    """Return ``g`` if it is finite and within the separability edge ``|g| <= mu - 1``."""
    if not (math.isfinite(g) and abs(g) <= mu - 1.0):
        raise DomainError(f"correlation must be finite with |g| <= mu - 1, got g={g}, mu={mu}")
    return g


def check_order(s: float) -> float:
    """Return the order parameter ``s`` of an overlap if ``0 < s < 1``, else raise DomainError."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"order parameter must satisfy 0 < s < 1, got {s}")
    return s


def checked_eigh(matrix: np.ndarray, values_only: bool = False):
    """``np.linalg.eigh`` (``eigvalsh`` if ``values_only``), failing with NumericalError."""
    try:
        return np.linalg.eigvalsh(matrix) if values_only else np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
