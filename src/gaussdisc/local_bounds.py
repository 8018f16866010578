"""Single-copy bounds for the local detector (Gaussian measurement on one mode).

Measuring mode B with a Gaussian POVM leaves mode A in a randomly displaced
Gaussian state whenever the encoded pair is correlated; discriminating that
conditional family from the bare thermal state gives the local bounds.  The
heterodyne POVM is optimal within the Gaussian family, which this module both
uses (closed forms) and verifies numerically (lambda scans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ReportFailure
from .errors import check_correlation, check_mu, check_order
from .global_bounds import (
    SOverlapResult,
    _check_weight_args,
    fidelity_error,
    minimum_over_s,
    overlap_weights,
)

LAMBDA_SCAN_GRID = np.logspace(-1.0, 1.0, 81)  # includes 1.0 exactly at index 40
_UNIT_INDEX = 40
_DERIVATIVE_TOL = 1e-6
_DERIVATIVE_STEP = 1e-4  # of the central difference at lambda = 1


@dataclass(frozen=True)
class GaussianPovm:
    """Single-mode Gaussian measurement with seed covariance
    ``eta * R(theta) diag(lam, 1/lam) R(-theta)``.

    ``eta >= 1`` is the noise factor (``eta = 1`` means rank-1), ``lam`` the
    squeezing asymmetry and ``theta`` the squeezing angle.  ``eta = lam = 1``
    is heterodyne detection.
    """

    eta: float = 1.0
    theta: float = 0.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta >= 1.0):
            raise DomainError(f"noise factor must be finite with eta >= 1, got {self.eta}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"squeezing asymmetry must be finite and positive, got {self.lam}")
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise DomainError(f"angle must lie in [0, 2*pi), got {self.theta}")

    @classmethod
    def heterodyne(cls) -> "GaussianPovm":
        return cls(1.0, 0.0, 1.0)

    @property
    def is_heterodyne(self) -> bool:
        return self.eta == 1.0 and self.lam == 1.0

    def covariance(self) -> np.ndarray:
        """Seed covariance matrix; exactly isotropic when ``lam == 1``."""
        if self.lam == 1.0:
            return self.eta * np.eye(2)
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, -s], [s, c]])
        return self.eta * rot @ np.diag([self.lam, 1.0 / self.lam]) @ rot.T


#: a scan evaluates the grid, then the two difference points, as one stack of
#: rank-1 seed covariances
_SCAN_LAMBDAS = np.append(LAMBDA_SCAN_GRID, [1.0 + _DERIVATIVE_STEP, 1.0 - _DERIVATIVE_STEP])
_SCAN_SEEDS = np.array([GaussianPovm(1.0, 0.0, lam).covariance() for lam in _SCAN_LAMBDAS])

@dataclass(frozen=True)
class ConditionalPreparation:
    """What measuring mode B does to mode A of the correlated state.

    ``v_cond`` is the covariance of the conditionally prepared state,
    ``v_mod`` the classical covariance of its random displacement; the two
    always sum to ``mu * I``.  ``outcome_gain`` is the scalar relating the
    measurement outcome to the displacement; it is only defined for the
    isotropic (heterodyne) case and is ``None`` otherwise.
    """

    v_cond: np.ndarray
    v_mod: np.ndarray
    outcome_gain: float | None


def condition_on_povm(mu: float, g: float, povm: GaussianPovm) -> ConditionalPreparation:
    """Condition mode A of the symmetric state V(mu, g, g) on measuring mode B.

    The modulation covariance is ``g^2 (mu I + V_seed)^(-1)`` and the
    conditional covariance is its complement to ``mu I``.
    """
    check_correlation(check_mu(mu), g)
    v_cond, v_mod = _condition(mu, g, povm.covariance())
    gain = math.sqrt(2.0) * g / (mu + 1.0) if povm.is_heterodyne else None
    return ConditionalPreparation(v_cond=v_cond, v_mod=v_mod, outcome_gain=gain)


def _condition(mu, g, v_seed):
    """``(v_cond, v_mod)`` for one seed covariance or a stack ``(n, 2, 2)``; unchecked."""
    v_mod = g * g * np.linalg.inv(mu * np.eye(2) + v_seed)
    return mu * np.eye(2) - v_mod, v_mod


def heterodyne_epsilon(mu: float) -> float:
    """Noise added on top of vacuum by heterodyne conditioning: ``2(mu-1)/(mu+1)``.

    At maximal correlation the conditional covariance is ``(1 + eps) I`` and
    the modulation covariance is ``(mu - 1 - eps) I``; the outcome-to-
    displacement gain is ``eps / sqrt(2)``.
    """
    return _epsilon(check_mu(mu))


def _epsilon(mu):
    return 2.0 * (mu - 1.0) / (mu + 1.0)


def _fidelity_denominator(mu, eps):
    """Denominator of the conditional-pair fidelity; ``2 / it`` is the fidelity at a = 0."""
    return 1.0 + mu * (1.0 + eps) - 2.0 * (mu - 1.0) * np.sqrt(2.0 * mu / (mu + 1.0))


def s_overlap_local(mu: float, s: float, povm: GaussianPovm, g: float | None = None) -> float:
    """Modulation-averaged overlap of the conditional pair for one POVM.

    For conditional covariance ``V_c = nu S S^T`` the overlap reads
    ``2 G_s(mu) G_(1-s)(nu) / sqrt(det(Sigma_s + V_mod))`` with
    ``Sigma_s = L_s(mu) I + L_(1-s)(nu) S S^T``; ``S S^T`` is just
    ``V_c / nu``, so no explicit diagonalization is needed.
    """
    prep = condition_on_povm(mu, mu - 1.0 if g is None else g, povm)
    return float(_overlap_local(mu, s, prep.v_cond[None], prep.v_mod[None])[0])


def _overlap_local(mu, s, v_cond, v_mod):
    """:func:`s_overlap_local` over a stack ``(n, 2, 2)``; a matrix route, not the closed form."""
    nu = np.sqrt(np.linalg.det(v_cond))
    _check_weight_args(s, nu)
    g_mu, lam_mu = overlap_weights(s, mu)
    g_nu, lam_nu = overlap_weights(1.0 - s, nu)
    sigma = lam_mu * np.eye(2) + lam_nu[:, None, None] * (v_cond / nu[:, None, None])
    return 2.0 * g_mu * g_nu / np.sqrt(np.linalg.det(sigma + v_mod))


def overlap_heterodyne(mu, s):
    """Elementwise :func:`s_overlap_heterodyne` over arrays; ``mu`` is not checked."""
    eps = _epsilon(mu)
    g_mu, lam_mu = overlap_weights(s, mu)
    g_nu, lam_nu = overlap_weights(1.0 - s, 1.0 + eps)
    return 2.0 * g_mu * g_nu / (lam_mu + lam_nu + (mu - 1.0) * eps / 2.0)


def s_overlap_heterodyne(mu: float, s: float) -> float:
    """Closed form of :func:`s_overlap_local` at the heterodyne optimum."""
    return float(overlap_heterodyne(np.float64(check_mu(mu)), check_order(s)))


def p_upper_local(mu: float) -> SOverlapResult:
    """Chernoff-type upper bound for the local detector, ``min_s Q_s(het) / 2``."""
    return SOverlapResult.first(*minimum_over_s(overlap_heterodyne, np.array([check_mu(mu)])))


def fidelity_heterodyne(mu: float, a) -> float:
    """Fidelity between the two conditional states at displacement label ``a``.

    ``a`` is the two-component displacement label of the conditionally
    prepared state (the measurement outcome scaled by the heterodyne gain
    ``eps / sqrt(2)`` gives the physical mean).
    """
    a = np.asarray(a, float)
    a2 = float(a @ a)
    eps = heterodyne_epsilon(mu)
    den = float(_fidelity_denominator(mu, eps))
    return 2.0 * math.exp(-eps * eps * a2 / (4.0 * (mu + 1.0 + eps))) / den


def gaussian_fidelity_one_mode(v_a: np.ndarray, v_b: np.ndarray, mean_diff) -> float:
    """Fidelity of two single-mode Gaussian states from their moments.

    With ``Delta = det(v_a + v_b)`` and ``L = (det v_a - 1)(det v_b - 1)``:
    ``F = 2 exp(-d^T (v_a + v_b)^(-1) d / 2) / (sqrt(Delta + L) - sqrt(L))``.
    """
    d = np.asarray(mean_diff, float)
    expo = -0.5 * float(d @ np.linalg.solve(v_a + v_b, d))
    return float(_fidelity_prefactor(v_a, v_b)) * math.exp(expo)


def _fidelity_prefactor(v_a, v_b):
    """``2 / (sqrt(Delta + L) - sqrt(L))`` over covariances or stacks; ``L >= 0``."""
    lam = np.maximum((np.linalg.det(v_a) - 1.0) * (np.linalg.det(v_b) - 1.0), 0.0)
    return 2.0 / (np.sqrt(np.linalg.det(v_a + v_b) + lam) - np.sqrt(lam))


#: panels of the radial rule on u in [0, 72]; they widen as the e^-u weight
#: decays
RADIAL_PANELS = (0.0, 1.0, 4.0, 12.0, 30.0, 72.0)


def _panel_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (times ``e^-u``) of the composite Gauss-Legendre rule
    on ``RADIAL_PANELS`` with ``nodes`` nodes per panel, one row per panel."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.array(RADIAL_PANELS)
    half = (edges[1:] - edges[:-1])[:, None] / 2.0
    u = edges[:-1, None] + half * (t + 1.0)
    return u, half * w * np.exp(-u)


#: the 16-node rule gives the value, its gap to the 12-node rule the error
#: estimate
_RADIAL_RULE, _RADIAL_CHECK_RULE = _panel_rule(16), _panel_rule(12)
#: relative tolerance of the radial integral, and the discarded tail beyond u = 72
_RADIAL_RTOL = 1e-8
_RADIAL_TAIL = 0.5 * math.exp(-72.0)


def lower_bound_local(mu: np.ndarray) -> np.ndarray:
    """Elementwise :func:`p_lower_local` over an array; ``mu`` is not checked.

    Raises :class:`NumericalError` if the error estimate of any element
    exceeds the relative tolerance.
    """
    eps = _epsilon(mu)
    sigma2 = mu - 1.0 - eps
    den = _fidelity_denominator(mu, eps)[:, None, None]
    decay = (eps * eps * 2.0 * sigma2 / (4.0 * (mu + 1.0 + eps)))[:, None, None]
    panels = []
    for u, w in (_RADIAL_RULE, _RADIAL_CHECK_RULE):
        f = 2.0 * np.exp(-decay * u) / den
        panels.append((fidelity_error(f) * w).sum(axis=-1))
    value = panels[0].sum(axis=-1)
    abserr = np.abs(panels[0] - panels[1]).sum(axis=-1)
    spread = sigma2 > 0.0
    failed = spread & (abserr + _RADIAL_TAIL > _RADIAL_RTOL * value + 1e-15)
    if failed.any():
        i = int(np.argmax(failed))
        raise NumericalError(
            f"radial quadrature failed its relative tolerance at mu={mu[i]!r} "
            f"(err {abserr[i]:g})"
        )
    # mu = 1: the modulation is a point mass at a = 0, where F = 2 / den
    point = fidelity_error(2.0 / den[:, 0, 0])
    return np.where(spread, value, point)


def p_lower_local(mu: float) -> float:
    """Fidelity-based lower bound on the local error probability.

    Averages ``(1 - sqrt(1 - F(a)))/2`` over the zero-mean Gaussian
    displacement with covariance ``(mu - 1 - eps) I``.  The isotropic 2-D
    integral reduces to a radial one; substituting ``u = r^2 / (2 sigma^2)``
    maps the radial range ``[0, 12 sigma]`` to ``u in [0, 72]`` with an
    exactly exponential weight, and the discarded tail is below
    ``exp(-72) / 2``.  The integral is a composite Gauss-Legendre rule on
    ``RADIAL_PANELS``.
    """
    return float(lower_bound_local(np.array([check_mu(mu)]))[0])


@dataclass(frozen=True)
class OptimalityScan:
    """Result of scanning a bound over the POVM squeezing asymmetry."""

    mu: float
    g: float
    s: float | None
    lambda_grid: np.ndarray
    values: np.ndarray
    min_lambda: float
    derivative_at_unit: float


def _scan(values: np.ndarray, mu: float, g: float, s, label: str) -> OptimalityScan:
    """Check the values of a scan over ``_SCAN_LAMBDAS``."""
    values, (plus, minus) = values[:-2], values[-2:]
    derivative = float(plus - minus) / (2.0 * _DERIVATIVE_STEP)
    # near mu = 1 the scan is flat to rounding: a tie with lambda = 1 passes
    min_index = _UNIT_INDEX if values[_UNIT_INDEX] == values.min() else int(np.argmin(values))
    report = OptimalityScan(
        mu=mu,
        g=g,
        s=s,
        lambda_grid=LAMBDA_SCAN_GRID.copy(),
        values=values,
        min_lambda=float(LAMBDA_SCAN_GRID[min_index]),
        derivative_at_unit=derivative,
    )
    if min_index != _UNIT_INDEX:
        raise ReportFailure(
            f"{label}: scan minimum at lambda={report.min_lambda:g}, not 1 "
            f"(mu={mu}, g={g}, s={s})"
        )
    if abs(derivative) > _DERIVATIVE_TOL:
        raise ReportFailure(
            f"{label}: derivative at lambda=1 is {derivative:.3e} (mu={mu}, g={g}, s={s})"
        )
    return report


def verify_heterodyne_optimality(mu: float, g: float, s: float) -> OptimalityScan:
    """Check that lambda = 1 minimizes the modulated overlap over the scan grid.

    Evaluates the rank-1, angle-0 POVM family over 81 log-spaced asymmetries
    in [0.1, 10] and additionally requires the central finite-difference
    derivative at lambda = 1 to vanish within 1e-6, all as one stack.  Raises
    :class:`ReportFailure` if either check fails.
    """
    check_mu(mu)
    if not (0.0 < g <= mu - 1.0 and 0.0 < s < 1.0):
        raise DomainError(f"invalid scan point (mu={mu}, g={g}, s={s})")
    values = _overlap_local(mu, s, *_condition(mu, g, _SCAN_SEEDS))
    return _scan(values, mu, g, s, "overlap scan")


#: normalized probabilists' Gauss-Hermite rule of the displacement average
_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(40)
_HERMITE_WEIGHTS = _HERMITE_WEIGHTS / _HERMITE_WEIGHTS.sum()


def averaged_fidelity_bound(mu: float, lam: float, g: float | None = None) -> float:
    """Fidelity-based lower bound for the rank-1 POVM with asymmetry ``lam``.

    Uses the moment-based fidelity of the physically displaced conditional
    pair, averaged over the actual displacement distribution (covariance
    equal to the modulation matrix) by a 40 x 40 tensor Gauss-Hermite rule.
    """
    prep = condition_on_povm(mu, mu - 1.0 if g is None else g, GaussianPovm(1.0, 0.0, lam))
    return float(_averaged_fidelity(mu, prep.v_cond[None], prep.v_mod[None])[0])


def _averaged_fidelity(mu, v_cond, v_mod):
    """:func:`averaged_fidelity_bound` over a stack ``(n, 2, 2)`` of diagonal pairs."""
    v_a = mu * np.eye(2)
    total = np.diagonal(v_a + v_cond, axis1=1, axis2=2)
    spread = np.sqrt(np.diagonal(v_mod, axis1=1, axis2=2))[:, :, None] * _HERMITE_NODES
    q = spread * spread / total[:, :, None]
    f = _fidelity_prefactor(v_a, v_cond)[:, None, None] * np.exp(
        -0.5 * (q[:, 0, :, None] + q[:, 1, None, :])
    )
    # sums, not matmul: BLAS may round a row differently in stacks of other sizes
    return ((fidelity_error(f) * _HERMITE_WEIGHTS).sum(axis=2) * _HERMITE_WEIGHTS).sum(axis=1)


def verify_fidelity_optimality(mu: float, g: float | None = None) -> OptimalityScan:
    """Check that lambda = 1 also minimizes the averaged fidelity bound.

    Same grid and tolerances as :func:`verify_heterodyne_optimality`.  The
    scanned functional is the physically normalized average (true moment
    fidelity against the true displacement statistics), which is the version
    of the bound the optimality claim holds for.
    """
    check_mu(mu)
    gval = check_correlation(mu, mu - 1.0 if g is None else g)
    values = _averaged_fidelity(mu, *_condition(mu, gval, _SCAN_SEEDS))
    return _scan(values, mu, gval, None, "fidelity scan")
