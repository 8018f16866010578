"""Entropic quantities: thermal entropy, encoded correlations and information bounds.

All quantities are in bits (base-2 logarithms).  Each has one elementwise
array function, and the scalar API evaluates a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, check_mu

_BISECTION_HI = 1e12  # delta_d is numerically indistinguishable from 1 here
_BISECTION_TOL = 1e-10  # on delta_d
_ROOT_GRID = np.linspace(0.0, 1.0, 32)  # per step of mu_from_delta_d's search


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """Scalar ``fn`` on each element, so that its ``math`` calls stay in libm:
    numpy's SIMD ``log1p``, ``atanh`` and ``log2`` may differ from libm's in
    the last place, while the IEEE arithmetic around them rounds the same."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def entropy_h(x: float) -> float:
    """Entropy of a thermal mode with quadrature variance ``x``.

    h(x) = ((x+1)/2) log2((x+1)/2) - ((x-1)/2) log2((x-1)/2), with h(1) = 0.
    With ``b = (x-1)/2`` it is evaluated as ``(log1p(b) + b log1p(1/b)) / ln 2``,
    a sum of two positive terms, since the two products above cancel for
    large ``x``.  A batch of one of :func:`thermal_entropy`.
    """
    return float(thermal_entropy(np.array([check_mu(x)]))[0])


def thermal_entropy(x: np.ndarray) -> np.ndarray:
    """:func:`entropy_h` elementwise over an array; ``x`` is not checked."""
    b = (x - 1.0) / 2.0
    out, hot = np.zeros_like(b), b > 0.0
    b = b[hot]
    out[hot] = (_libm(math.log1p, b) + b * _libm(math.log1p, 1.0 / b)) / math.log(2.0)
    return out


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with probability ``p``, zero at the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def correlations(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(delta_c, delta_d)`` elementwise over an array of checked ``mu``, each
    of the three entropies formed once.  From ``mu`` about 6e307 on, ``3 mu - 1``
    overflows (before ``2 mu - 1`` does), which is a :class:`NumericalError`
    naming the first such ``mu``: the input is valid, its evaluation fails."""
    with np.errstate(over="ignore"):
        x = np.stack([mu, (3.0 * mu - 1.0) / (mu + 1.0), 2.0 * mu - 1.0])
    overflow = np.isinf(x[1])
    if overflow.any():
        first = float(mu[np.argmax(overflow)])
        raise NumericalError(f"derived variance (3 mu - 1) / (mu + 1) overflows at mu={first!r}")
    h_mu, h_cond, h_twin = thermal_entropy(x)
    return h_mu - h_cond, h_mu - h_twin + h_cond


def delta_c(mu: float) -> float:
    """Classical correlations encoded by the maximally correlated state.

    Equals ``h(mu) - h((3 mu - 1)/(mu + 1))``; zero at ``mu = 1`` and
    unbounded as ``mu`` grows.
    """
    return correlation_budget(mu).delta_c


def delta_d(mu: float) -> float:
    """Quantum discord encoded by the maximally correlated state.

    Equals ``h(mu) - h(2 mu - 1) + h((3 mu - 1)/(mu + 1))``; increases from 0
    at ``mu = 1`` towards 1 as ``mu`` grows.
    """
    return correlation_budget(mu).delta_d


def mu_from_delta_d(target: float) -> float:
    """Invert :func:`delta_d` by a bracketed search on ``mu in [1, 1e12]``.

    Valid for ``0 <= target < 1``; relies on the monotonicity of the discord
    in ``mu``.  Each step evaluates 32 geometrically spaced points of the
    bracket at once.  Stops at a point within 1e-10 of the target or once
    the bracket is a few ulps wide.
    """
    if not 0.0 <= target < 1.0:
        raise DomainError(f"discord target must lie in [0, 1), got {target}")
    if target == 0.0:
        return 1.0
    lo, hi = 1.0, _BISECTION_HI
    for _ in range(200):
        mu = lo * (hi / lo) ** _ROOT_GRID
        mu[-1] = hi
        val = correlations(mu)[1]
        if val[-1] < target:
            raise DomainError(f"target {target} not reachable below mu = {hi:g}")
        close = np.abs(val - target) <= _BISECTION_TOL
        if close.any():
            return float(mu[np.argmax(close)])
        above = np.argmax(val >= target)  # >= 1, as val[0] < target <= val[-1]
        lo, hi = mu[above - 1 : above + 1].tolist()
        if hi - lo <= 4.0 * math.ulp(lo):
            return 0.5 * (lo + hi)
    raise NumericalError("bracketed search for mu did not reach the requested tolerance")


def info_bounds(p_upper: float, p_lower: float) -> tuple[float, float]:
    """Mutual-information bracket induced by an error-probability bracket.

    Given ``p_lower <= p_upper <= 1/2`` the retrievable information lies in
    ``[1 - H(p_upper), 1 - H(p_lower)]``; returns ``(i_lower, i_upper)``.
    """
    bracket = np.array([p_upper, p_lower], float)
    check_brackets(bracket[:1], bracket[1:])
    return tuple(information(bracket).tolist())


def check_brackets(p_upper: np.ndarray, p_lower: np.ndarray) -> None:
    """DomainError at the first element that breaks ``0 <= p_lower <= p_upper <= 1/2``."""
    ordered = (0.0 <= p_lower) & (p_lower <= p_upper) & (p_upper <= 0.5)
    if not ordered.all():
        i = int(np.argmin(ordered))
        raise DomainError(
            f"need 0 <= p_lower <= p_upper <= 1/2, got ({float(p_upper[i])}, {float(p_lower[i])})"
        )


def information(p: np.ndarray) -> np.ndarray:
    """``1 - H(p)`` elementwise over ``[0, 1/2]``, without cancelling near
    ``p = 1/2``; NaN where ``p`` lies outside that range or is NaN.

    Below ``p = 1/4`` the entropy is far enough from 1, and it is the formula
    of :func:`binary_entropy`, ``-p log2(p) - q log2(q)`` with ``q = 1 - p``,
    its two logs in one map of libm's ``log2``; ``p = 0`` gives 1.  With
    ``d = 1 - 2p`` (exact for ``p >= 1/4``) it equals
    ``(2 d atanh(d) + log1p(-d^2)) / (2 ln 2)``, whose terms are of the size
    of the result.
    """
    out = np.where(p == 0.0, 1.0, np.nan)
    far, near = (0.0 < p) & (p < 0.25), (0.25 <= p) & (p <= 0.5)
    pq = np.array([p[far], 1.0 - p[far]])
    terms = pq * _libm(math.log2, pq)
    out[far] = 1.0 - (-terms[0] - terms[1])
    d = 1.0 - 2.0 * p[near]
    out[near] = (2.0 * d * _libm(math.atanh, d) + _libm(math.log1p, -d * d)) / (2.0 * math.log(2.0))
    return out


@dataclass(frozen=True)
class CorrelationBudget:
    """Correlations available for encoding at thermal variance ``mu``."""

    mu: float
    delta_c: float
    delta_d: float


def correlation_budget(mu: float) -> CorrelationBudget:
    """:func:`delta_c` and :func:`delta_d` at one ``mu``: a batch of one of :func:`correlations`."""
    mu = check_mu(mu)
    dc, dd = correlations(np.array([mu]))
    return CorrelationBudget(mu, float(dc[0]), float(dd[0]))
