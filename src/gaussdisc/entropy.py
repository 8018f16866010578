"""Entropic quantities: thermal entropy, encoded correlations and information bounds.

All quantities are in bits (base-2 logarithms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError, check_mu

_BISECTION_HI = 1e12  # delta_d is numerically indistinguishable from 1 here


def entropy_h(x: float) -> float:
    """Entropy of a thermal mode with quadrature variance ``x``.

    h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), with h(1) = 0.
    With ``b = (x-1)/2`` it is evaluated as ``(log1p(b) + b log1p(1/b)) / ln 2``,
    a sum of two positive terms, since the two products above cancel for
    large ``x``.
    """
    if check_mu(x) == 1.0:
        return 0.0
    b = (x - 1.0) / 2.0
    return (math.log1p(b) + b * math.log1p(1.0 / b)) / math.log(2.0)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with probability ``p``, zero at the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def delta_c(mu: float) -> float:
    """Classical correlations encoded by the maximally correlated state.

    Equals ``h(mu) - h((3 mu - 1)/(mu + 1))``; zero at ``mu = 1`` and
    unbounded as ``mu`` grows.
    """
    check_mu(mu)
    return entropy_h(mu) - entropy_h((3.0 * mu - 1.0) / (mu + 1.0))


def delta_d(mu: float) -> float:
    """Quantum discord encoded by the maximally correlated state.

    Equals ``h(mu) - h(2 mu - 1) + h((3 mu - 1)/(mu + 1))``; increases from 0
    at ``mu = 1`` towards 1 as ``mu`` grows.
    """
    check_mu(mu)
    return (
        entropy_h(mu)
        - entropy_h(2.0 * mu - 1.0)
        + entropy_h((3.0 * mu - 1.0) / (mu + 1.0))
    )


def mu_from_delta_d(target: float, tol: float = 1e-10) -> float:
    """Invert :func:`delta_d` by bisection on ``mu in [1, 1e12]``.

    Valid for ``0 <= target < 1``; relies on the monotonicity of the discord
    in ``mu``.
    """
    if not 0.0 <= target < 1.0:
        raise DomainError(f"discord target must lie in [0, 1), got {target}")
    if target == 0.0:
        return 1.0
    lo, hi = 1.0, _BISECTION_HI
    if delta_d(hi) < target:
        raise DomainError(f"target {target} not reachable below mu = {hi:g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = delta_d(mid)
        if abs(val - target) <= tol:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(lo):
            return mid
    raise NumericalError("bisection for mu did not reach the requested tolerance")


def info_bounds(p_upper: float, p_lower: float) -> tuple[float, float]:
    """Mutual-information bracket induced by an error-probability bracket.

    Given ``p_lower <= p_upper <= 1/2`` the retrievable information lies in
    ``[1 - H(p_upper), 1 - H(p_lower)]``; returns ``(i_lower, i_upper)``.
    """
    if not 0.0 <= p_lower <= p_upper <= 0.5:
        raise DomainError(
            f"need 0 <= p_lower <= p_upper <= 1/2, got ({p_upper}, {p_lower})"
        )
    return _information(p_upper), _information(p_lower)


def _information(p: float) -> float:
    """``1 - H(p)`` for ``0 <= p <= 1/2``, without cancelling near ``p = 1/2``.

    With ``d = 1 - 2p`` (exact for ``p >= 1/4``) it equals
    ``(2 d atanh(d) + log1p(-d^2)) / (2 ln 2)``, whose terms are of the size
    of the result; below ``p = 1/4`` the entropy is far enough from 1.
    """
    if p < 0.25:
        return 1.0 - binary_entropy(p)
    d = 1.0 - 2.0 * p
    return (2.0 * d * math.atanh(d) + math.log1p(-d * d)) / (2.0 * math.log(2.0))


@dataclass(frozen=True)
class CorrelationBudget:
    """Correlations available for encoding at thermal variance ``mu``."""

    mu: float
    delta_c: float
    delta_d: float


def correlation_budget(mu: float) -> CorrelationBudget:
    return CorrelationBudget(mu, delta_c(mu), delta_d(mu))
