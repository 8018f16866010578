"""Single-copy bounds for the optimal global (joint) detector.

The error probability of discriminating the uncorrelated thermal pair from
the maximally correlated separable state is bracketed by a Chernoff-type
upper bound (the s-minimized overlap) and a Bhattacharyya-type lower bound
(built from the s = 1/2 overlap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_mu, check_order
from .states import WilliamsonDecomposition

# The overlap weights degenerate at s in {0, 1} whenever a symplectic
# eigenvalue equals 1 (exactly the case here), so the minimization runs on a
# slightly clipped interval.  log Q_s is convex in s, so Q_s has a single
# minimum there.  For the global pair that minimum sits at the clip
# s = 1 - 1e-6 for every mu > 1: Q_s still decreases there.
S_INTERVAL = (1e-6, 1.0 - 1e-6)
#: the bracketed search over s evaluates this many evenly spaced points per
#: step, both ends of the bracket included, and keeps the two intervals next
#: to the best one: each step leaves at most 2/15 of the bracket, so 12
#: steps take it from the whole interval to below 1e-10
SEARCH_POINTS = 16
SEARCH_STEPS = 12
_SEARCH_GRID = np.linspace(0.0, 1.0, SEARCH_POINTS)


def g_weight(s: float, x: float) -> float:
    """Overlap prefactor weight ``2^s / ((x+1)^s - (x-1)^s)``; equals 1 at x = 1."""
    _check_weight_args(s, x)
    return float(overlap_weights(s, x)[0])


def lambda_weight(s: float, x: float) -> float:
    """Overlap width weight ``((x+1)^s + (x-1)^s) / ((x+1)^s - (x-1)^s)`` >= 1."""
    _check_weight_args(s, x)
    return float(overlap_weights(s, x)[1])


def _check_weight_args(s: float, x) -> None:
    if not np.greater_equal(x, 1.0).all():
        raise DomainError(f"weight argument must satisfy x >= 1, got {x}")
    check_order(s)


def overlap_weights(s, x) -> tuple[np.ndarray, np.ndarray]:
    """:func:`g_weight` and :func:`lambda_weight` elementwise over arrays.

    ``(x+1)^s - (x-1)^s = (x+1)^s (1 - r)`` with ``r = ((x-1)/(x+1))^s``, and
    the gap ``1 - r`` is formed with expm1/log1p, so large ``x`` and ``s``
    near 0 keep full precision.  ``x = 1`` needs no branch, since
    ``log1p(-1) = -inf`` makes the gap exactly 1.  Arguments are not checked.
    """
    with np.errstate(divide="ignore"):
        log_ratio = np.log1p(-2.0 / (x + 1.0))
    gap = -np.expm1(s * log_ratio)
    return np.exp(s * np.log(2.0 / (x + 1.0))) / gap, (2.0 - gap) / gap


def s_overlap_two_mode(
    dec_a: WilliamsonDecomposition, dec_b: WilliamsonDecomposition, s: float
) -> float:
    """Overlap Tr(rho_a^s rho_b^(1-s)) of two zero-mean two-mode Gaussian states.

    Takes the Williamson decompositions of the two covariance matrices and
    evaluates the full 4x4 matrix formula; used as the generic route and as a
    self-check for the reduced closed form.
    """
    orders = np.array([s, s, 1.0 - s, 1.0 - s])
    nus = np.array([dec_a.nu_minus, dec_a.nu_plus, dec_b.nu_minus, dec_b.nu_plus])
    _check_weight_args(s, nus)
    g, lam = overlap_weights(orders, nus)
    sigma = sum(
        dec.s_matrix @ np.diag(np.repeat(weights, 2)) @ dec.s_matrix.T
        for dec, weights in ((dec_a, lam[:2]), (dec_b, lam[2:]))
    )
    return 4.0 * float(np.prod(g)) / math.sqrt(np.linalg.det(sigma))


def overlap_global(mu, s):
    """Elementwise :func:`s_overlap_global` over arrays; ``mu`` is not checked."""
    g_mu, lam_mu = overlap_weights(s, mu)
    g_plus, lam_plus = overlap_weights(1.0 - s, 2.0 * mu - 1.0)
    # the correlated state's other symplectic eigenvalue is 1, where both
    # weights equal 1
    return 4.0 * g_mu**2 * g_plus / ((lam_mu + 1.0) * (lam_mu + lam_plus))


def s_overlap_global(mu: float, s: float) -> float:
    """Overlap Tr(rho_0^s rho_1^(1-s)) of the two encoded states at variance ``mu``.

    The uncorrelated state is already in normal form with degenerate spectrum
    ``{mu, mu}``; the correlated one has spectrum ``{1, 2 mu - 1}`` and an
    orthogonal-symplectic diagonalizer, so the 4x4 determinant of
    :func:`s_overlap_two_mode` collapses to a product of two factors.
    """
    return float(overlap_global(np.float64(check_mu(mu)), check_order(s)))


def minimum_over_s(overlap, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``overlap(mu, s)`` over ``S_INTERVAL`` for every ``mu`` at once.

    ``overlap`` is elementwise and log-convex in ``s``, so the minimum over
    the points of one step lies within one grid interval of the minimizer,
    and the next step searches the two intervals around it.  The first step
    evaluates both clip points exactly, because the minimum can sit at
    either.  Each row takes the same steps, so an element's result does not
    depend on the rest of the array.  Returns ``(s_star, minimum)``.
    """
    index = np.arange(mu.shape[0])
    lo, hi = np.full_like(mu, S_INTERVAL[0]), np.full_like(mu, S_INTERVAL[1])
    s_star, q_min = lo, np.full_like(mu, np.inf)
    for _ in range(SEARCH_STEPS):
        s = lo[:, None] + (hi - lo)[:, None] * _SEARCH_GRID
        s[:, -1] = hi
        q = overlap(mu[:, None], s)
        best = np.argmin(q, axis=1)
        q_best = q[index, best]
        better = q_best < q_min
        s_star = np.where(better, s[index, best], s_star)
        q_min = np.where(better, q_best, q_min)
        lo = s[index, np.maximum(best - 1, 0)]
        hi = s[index, np.minimum(best + 1, SEARCH_POINTS - 1)]
    return s_star, q_min


def fidelity_error(f):
    """``(1 - sqrt(1 - F)) / 2``, the error bound from a fidelity ``F``, elementwise.

    Written as ``F / (2 (1 + sqrt(1 - F)))``, which does not cancel when
    ``F`` is small.  The global lower bound takes ``F = B^2`` with ``B`` the
    s = 1/2 overlap.
    """
    return f / (2.0 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - f))))


@dataclass(frozen=True)
class SOverlapResult:
    """Minimized s-overlap: location, value and the implied error bound."""

    s_star: float
    q_value: float
    p_upper: float

    @classmethod
    def first(cls, s_star: np.ndarray, q: np.ndarray) -> "SOverlapResult":
        """The result for the first element of a batched minimization."""
        return cls(float(s_star[0]), float(q[0]), float(q[0]) / 2.0)


@dataclass(frozen=True)
class GlobalBounds:
    """Error-probability bracket for the global detector."""

    p_upper: float
    p_lower: float
    bhattacharyya: float


def qcb_global(mu: float) -> SOverlapResult:
    """Chernoff-type upper bound ``P+ = min_s Q_s / 2`` for the global detector."""
    return SOverlapResult.first(*minimum_over_s(overlap_global, np.array([check_mu(mu)])))


def bhattacharyya_global(mu: float) -> GlobalBounds:
    """Bracket the global error probability from both sides.

    The lower bound uses the s = 1/2 overlap B through
    ``P- = (1 - sqrt(1 - B^2)) / 2``; the upper bound is :func:`qcb_global`.
    """
    b = s_overlap_global(mu, 0.5)
    return GlobalBounds(
        p_upper=qcb_global(mu).p_upper, p_lower=float(fidelity_error(b * b)), bhattacharyya=b
    )
