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

from .errors import DomainError, check_exponent, check_mu, check_order
from .states import WilliamsonDecomposition

# The overlap weights degenerate at s in {0, 1} whenever a symplectic
# eigenvalue equals 1 (exactly the case here), so both detectors' bounds read
# Q_s on a slightly clipped interval.  For the global pair the minimum over
# it sits at the clip s = 1 - 1e-6 for every mu.  Write thermal(v) for the
# single-mode thermal state of quadrature variance v.  The correlated state
# has symplectic spectrum {1, 2 mu - 1} and a passive diagonalizer: a
# balanced beam splitter takes it to vacuum x thermal(2 mu - 1) and leaves
# the thermal pair unchanged, so
# Q_s = p0^s T_s with p0 = 2 / (mu + 1) and T_s = sum_n a_n^s b_n^(1-s),
# where a and b are the photon-number laws of thermal(mu) and
# thermal(2 mu - 1).  ln T_s is a log-sum-exp of lines in s, so ln Q_s is
# convex; with x = (mu - 1) / 2, as s -> 1
#     d ln Q_s / ds -> ln((1 + 2x) / (1 + x)^2) + x ln((1 + 2x) / (2 + 2x)),
# and both terms are negative for every x > 0.  So Q_s falls strictly on
# (0, 1) for mu > 1, and at mu = 1 it is identically 1.
S_INTERVAL = (1e-6, 1.0 - 1e-6)


def g_weight(s: float, x: float) -> float:
    """Overlap prefactor weight ``2^s / ((x+1)^s - (x-1)^s)``; equals 1 at x = 1."""
    _check_weight_args(s, x)
    return float(overlap_weights(s, float(x))[0])


def lambda_weight(s: float, x: float) -> float:
    """Overlap width weight ``((x+1)^s + (x-1)^s) / ((x+1)^s - (x-1)^s)`` >= 1."""
    _check_weight_args(s, x)
    return float(overlap_weights(s, float(x))[1])


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
    The ``x``-only terms (:func:`_weight_logs`) can be formed once for many ``s``.
    """
    return _weights_at(s, _weight_logs(x))


def _weight_logs(x) -> tuple[np.ndarray, np.ndarray]:
    """``(ln((x-1)/(x+1)), ln(2/(x+1)))``: the terms of :func:`overlap_weights`
    that do not depend on ``s``, elementwise; ``x`` is not checked."""
    scale = 2.0 / (x + 1.0)
    with np.errstate(divide="ignore"):
        log_ratio = np.log1p(-scale)
    return log_ratio, np.log(scale)


def _weights_at(s, logs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`overlap_weights` at orders ``s`` from the :func:`_weight_logs` of ``x``."""
    log_ratio, log_scale = logs
    gap = -np.expm1(s * log_ratio)
    return np.exp(s * log_scale) / gap, (2.0 - gap) / gap


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
    :func:`s_overlap_two_mode` collapses to a product of two factors.  An under- or
    overflow fails through :func:`check_exponent`.
    """
    with np.errstate(all="ignore"):
        q = overlap_global(np.float64(check_mu(mu)), check_order(s))
    return float(check_exponent(mu, q, "s_overlap_global"))


def fidelity_error(f):
    """``(1 - sqrt(1 - F)) / 2``, the error bound from a fidelity ``F``, elementwise.

    Written as ``F / (2 (1 + sqrt(1 - F)))``, which does not cancel when
    ``F`` is small.  Every step runs in one work array.
    """
    out = np.empty_like(f, dtype=float)
    root = np.sqrt(np.maximum(np.subtract(1.0, f, out=out), 0.0, out=out), out=out)
    return np.divide(f, np.multiply(np.add(root, 1.0, out=out), 2.0, out=out), out=out)


@dataclass(frozen=True)
class SOverlapResult:
    """Minimized s-overlap: location, value and the implied error bound."""

    s_star: float
    q_value: float
    p_upper: float


@dataclass(frozen=True)
class GlobalBounds:
    """Error-probability bracket for the global detector."""

    p_upper: float
    p_lower: float
    bhattacharyya: float


def chernoff_overlap_global(mu):
    """``min_s Q_s`` elementwise, ``mu`` not checked: the overlap at the clip, as ``Q_s``
    falls on ``S_INTERVAL``; :func:`check_exponent` fails it past about ``mu = 1e151``."""
    with np.errstate(all="ignore"):
        q = overlap_global(mu, S_INTERVAL[1])
    return check_exponent(mu, q, "kappa")


def lower_bound_global(mu):
    """Bhattacharyya bound ``fidelity_error(B^2)`` with ``B`` the s = 1/2 overlap,
    elementwise over arrays, ``mu`` not checked."""
    return fidelity_error(overlap_global(mu, 0.5) ** 2)


def qcb_global(mu: float) -> SOverlapResult:
    """Chernoff-type upper bound ``P+ = min_s Q_s / 2`` for the global detector.

    A batch of one of :func:`chernoff_overlap_global`; ``s_star`` is the clip
    ``S_INTERVAL[1]`` for every ``mu``.
    """
    q = float(chernoff_overlap_global(np.array([check_mu(mu)]))[0])
    return SOverlapResult(S_INTERVAL[1], q, q / 2.0)


def bhattacharyya_global(mu: float) -> GlobalBounds:
    """Bracket the global error probability from both sides.

    ``P- = (1 - sqrt(1 - B^2)) / 2`` is a batch of one of :func:`lower_bound_global`;
    the upper bound is :func:`qcb_global`, read first, as it fails wherever ``B`` does.
    """
    p_upper = qcb_global(mu).p_upper
    p_lower = float(lower_bound_global(np.array([check_mu(mu)]))[0])
    return GlobalBounds(p_upper=p_upper, p_lower=p_lower, bhattacharyya=s_overlap_global(mu, 0.5))
