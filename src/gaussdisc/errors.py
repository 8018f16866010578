"""Exception types shared across the package, and the shared domain and solver checks."""

import math

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the physically or mathematically valid range."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge (eigensolver, minimizer, quadrature), or at a
    valid input an exponent is not finite, a rounded spectrum leaves its physical domain or
    the computed bounds break an ordering."""


class ConvergenceError(RuntimeError):
    """A truncated Fock-space construction lost too much trace to be trusted."""


class ReportFailure(RuntimeError):
    """A verification scan did not confirm the property it was asked to check."""


def check_mu(mu: float) -> float:
    """Return the thermal variance ``mu`` as a float if it is finite and at least 1.

    Raises :class:`DomainError` otherwise; NaN and infinity are rejected
    here, and an integer or float32 ``mu`` cannot set the dtype of an array.
    """
    if not (math.isfinite(mu) and mu >= 1.0):
        raise DomainError(f"thermal variance must be finite and satisfy mu >= 1, got {mu}")
    return float(mu)


def check_exponent(mu, q, name: str):
    """Return the overlaps ``q``, scalar or array, if each lies in ``(0, inf)``, where its
    exponent ``-ln q`` is finite; else NumericalError naming ``name`` and the first ``mu``."""
    ok = (0.0 < q) & (q < math.inf)
    if not ok.all():
        mu = float(np.atleast_1d(mu)[np.argmin(ok)])
        raise NumericalError(f"non-finite exponent at mu={mu!r}: {name}")
    return q


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


def check_displacement(value, what: str) -> np.ndarray:
    """Return ``value`` as a float array if it is a finite pair ``(x, p)``; else DomainError."""
    vector = np.asarray(value, float)
    if vector.shape != (2,) or not np.isfinite(vector).all():
        raise DomainError(f"{what} must be a finite pair (x, p), got {value!r}")
    return vector


def checked_eigh(matrix: np.ndarray, values_only: bool = False):
    """``np.linalg.eigh`` (``eigvalsh`` if ``values_only``), failing with NumericalError."""
    try:
        return np.linalg.eigvalsh(matrix) if values_only else np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
