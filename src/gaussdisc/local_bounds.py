"""Single-copy bounds for the local detector (Gaussian measurement on one mode).

Measuring mode B with a Gaussian POVM leaves mode A in a randomly displaced
Gaussian state whenever the encoded pair is correlated; discriminating that
conditional family from the bare thermal state gives the local bounds.  The
heterodyne POVM is optimal within the Gaussian family, which this module both
uses (closed forms) and verifies numerically (lambda scans).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, ReportFailure
from .errors import check_correlation, check_displacement, check_exponent, check_mu, check_order
from .global_bounds import (
    S_INTERVAL,
    SOverlapResult,
    _weight_logs,
    _weights_at,
    fidelity_error,
)

#: the POVMs of asymmetry lam and 1/lam are the same measurement turned by
#: pi/2, so the scans take only lam >= 1: the upper half of the 81 log-spaced
#: points in [0.1, 10], from exactly 1.0 at index 0
LAMBDA_SCAN_GRID = np.logspace(-1.0, 1.0, 81)[40:]
#: the local Chernoff search: from the start table's ``s*`` (:func:`_start_table`), at
#: most ``_NEWTON_CAP`` Newton steps, each row until ``|slope| <= _NEWTON_TOL * curvature``
_NEWTON_TOL, _NEWTON_CAP = 1e-10, 64
#: the radial rule runs a long grid in passes that keep each work array below the 128 KiB
#: from which glibc maps a request afresh: whole, 200,000 points took it 1.9x the time and
#: 12x the memory (2 CPUs).  Fixed-size kernels and the Chernoff search run whole.  Less
#: 24 bytes for malloc's 8-byte header, rounded up to 16 bytes.
_HEAP_REQUEST = 128 * 1024 - 24


#: a scan whose ``mu`` lies below ``_OVERFLOW_MU * s`` at its order ``s`` (the fidelity
#: scan's ``s`` is 1) cannot overflow, and runs exactly as written.  There ``mu < 2^255``
#: and ``s > 2^-255``, so in :func:`_overlap_at` ``lam_mu <= mu / s + 2 < 2^256``, ``lam_nu
#: c_k / nu <= mu / (1 - s) + 2 mu`` with ``1 - s >= 2^-53``, and ``m_k <= mu``: every width
#: ``d_k < 2^310``, the numerator ``2 g_mu g_nu < 2^565`` and ``Q > 2^-820``.  The
#: fidelity's largest term, ``(mu^2 - 1)(c_0 c_1 - 1)`` with ``c <= mu``, stays below
#: ``mu^4 < 2^1020``.
_OVERFLOW_MU = 2.0**255


def _guarded(mu, s, what: str, kernel, *args):
    """``kernel(*args)``; from ``mu = _OVERFLOW_MU * s`` on with floating-point errors
    ignored, and a NumericalError naming ``what`` and ``mu`` unless every entry of the
    result lies in ``(0, inf)``, as it does without an overflow.  Below, one comparison:
    a product, as the quotient ``mu / s`` overflows at a subnormal order."""
    if mu < _OVERFLOW_MU * s:
        return kernel(*args)
    with np.errstate(all="ignore"):
        values = kernel(*args)
    if not ((0.0 < values) & (values < np.inf)).all():
        raise NumericalError(f"{what} overflows at mu={mu!r}")
    return values


def _passes(size: int, row_bytes: int) -> list[slice]:
    """Slices that cover ``size`` rows in passes whose work arrays, of ``row_bytes`` per row,
    stay within ``_HEAP_REQUEST``; a kernel that computes each row alone gives the same bits."""
    rows = max(1, _HEAP_REQUEST // row_bytes)
    return [slice(start, start + rows) for start in range(0, size, rows)]


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


#: a scan evaluates the grid as one batch of rank-1 seeds, each given by its
#: eigenvalues ``(lam, 1/lam)``
_SCAN_SEEDS = np.array([LAMBDA_SCAN_GRID, 1.0 / LAMBDA_SCAN_GRID])


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
    mu = check_mu(mu)
    check_correlation(mu, g)
    v_mod = g * g * np.linalg.inv(mu * np.eye(2) + povm.covariance())
    gain = math.sqrt(2.0) * g / (mu + 1.0) if povm.is_heterodyne else None
    return ConditionalPreparation(v_cond=mu * np.eye(2) - v_mod, v_mod=v_mod, outcome_gain=gain)


def _spectra(mu, g, seed):
    """Eigenvalues ``(c, m)``, each ``(2, n)``, of ``v_cond`` and ``v_mod`` from the
    seed's ``(eta lam, eta / lam)``; unchecked.  All three share eigenvectors.  Where
    ``m > mu / 2``, ``c = mu - m`` would cancel: there ``mu - |g|`` is exact, and
    ``c = ((mu - |g|)(mu + |g|) + mu seed) / (mu + seed)``, ``m = g (g / (mu + seed))``."""
    m = g * g * (1.0 / (mu + seed))
    near = m > mu / 2.0
    if not near.any():
        return mu - m, m
    a, total = abs(g), mu + seed
    c = np.where(near, ((mu - a) * (mu + a) + mu * seed) / total, mu - m)
    return c, np.where(near, g * (g / total), m)


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
    """``sqrt(Delta + L) - sqrt(L)`` of :func:`_fidelity_prefactor` at heterodyne, where
    ``sqrt(Delta + L) = 1 + mu (1 + eps)``, within 2e-15 relative; ``2 / it`` is F at a = 0.
    Routing either function through the other moves pinned CSV cells, so both stay."""
    return 1.0 + mu * (1.0 + eps) - 2.0 * (mu - 1.0) * np.sqrt(2.0 * mu / (mu + 1.0))


def s_overlap_local(mu: float, s: float, povm: GaussianPovm, g: float | None = None) -> float:
    """Modulation-averaged overlap of the conditional pair for one POVM.

    For conditional covariance ``V_c = nu S S^T`` the overlap reads
    ``2 G_s(mu) G_(1-s)(nu) / sqrt(det(Sigma_s + V_mod))`` with
    ``Sigma_s = L_s(mu) I + L_(1-s)(nu) S S^T``.  All three share the seed's
    eigenvectors, so the eigenvalues ``c_k`` of ``V_c`` and ``m_k`` of
    ``V_mod`` give ``nu^2 = c_0 c_1`` and ``det = prod_k (Sigma_k + m_k)``.
    A batch of one of :func:`_overlap_state` and :func:`_overlap_at`.
    """
    mu = check_mu(mu)
    g = check_correlation(mu, mu - 1.0 if g is None else g)
    s = check_order(s)
    seed = np.array([[povm.eta * povm.lam], [povm.eta / povm.lam]])
    state = _overlap_state(mu, g, seed)
    return float(_guarded(mu, s, "modulated overlap", _overlap_at, s, state)[0])


class _OverlapState(NamedTuple):
    """The terms of :func:`s_overlap_local` that do not depend on ``s``, over a batch of
    seeds: the spectra ``c`` and ``m``, each ``(2, n)``, ``nu = sqrt(c_0 c_1)``, and the
    :func:`_weight_logs` of ``mu`` and of ``nu``; ``nu_logs`` is None where a rounded
    ``nu`` lies below 1 or overflows."""

    mu: float
    c: np.ndarray
    m: np.ndarray
    nu: np.ndarray
    mu_logs: tuple
    nu_logs: tuple | None


def _overlap_state(mu, g, seed):
    """:class:`_OverlapState` of the checked ``(mu, g)`` for the seed eigenvalues ``(2, n)``.
    An exact ``nu`` is at least 1 and finite; a rounded one may not be, as when ``g = mu -
    1`` rounds to ``mu`` above 2^53, or when ``c_0 c_1`` overflows, from about ``mu =
    1.3e154``, and :func:`_overlap_at` then fails."""
    with np.errstate(all="ignore"):
        c, m = _spectra(mu, g, seed)
        nu = np.sqrt(c[0] * c[1])
    in_range = 1.0 <= nu.min() and nu.max() < np.inf
    return _OverlapState(mu, c, m, nu, _weight_logs(mu), _weight_logs(nu) if in_range else None)


def _overlap_at(s, state):
    """:func:`s_overlap_local` at the checked order ``s`` over the batch of ``state``;
    NumericalError where ``state`` has no ``nu_logs``.  Its callers run it through
    :func:`_guarded`, which fails an overflow that depends on ``s``."""
    if state.nu_logs is None:
        fault = "rounds below vacuum" if np.isfinite(state.nu).all() else "overflows"
        raise NumericalError(f"conditional spectrum {fault} at mu={state.mu!r}")
    g_mu, lam_mu = _weights_at(s, state.mu_logs)
    g_nu, lam_nu = _weights_at(1.0 - s, state.nu_logs)
    d = lam_mu + lam_nu * state.c / state.nu + state.m
    return 2.0 * g_mu * g_nu / np.sqrt(d[0] * d[1])


@functools.lru_cache(maxsize=8, typed=True)
def _scan_state(mu, g):
    """:func:`_overlap_state` of ``_SCAN_SEEDS`` at the checked ``(mu, g)``, cached: the
    five orders and the fidelity scan of one point build it once.  Read-only."""
    state = _overlap_state(mu, g, _SCAN_SEEDS)
    for array in (state.c, state.m, state.nu, *(state.nu_logs or ())):
        array.flags.writeable = False
    return state


def _heterodyne_sides(mu):
    """The ``mu``-only terms of :func:`overlap_heterodyne`: the weight logs of
    ``x = mu`` and of ``x = 1 + eps`` (:func:`_weight_logs`), stacked on a
    leading axis, and the shift ``(mu - 1) eps / 2``."""
    eps = _epsilon(mu)
    return _weight_logs(np.array([mu, 1.0 + eps])), (mu - 1.0) * eps / 2.0


def _heterodyne_at(orders, sides):
    """:func:`overlap_heterodyne` from the orders ``(s, 1 - s)``, stacked on a
    leading axis, and the :func:`_heterodyne_sides` of ``mu``."""
    logs, shift = sides
    g, lam = _weights_at(orders, logs)
    return 2.0 * g[0] * g[1] / (lam[0] + lam[1] + shift)


def overlap_heterodyne(mu, s):
    """Elementwise :func:`s_overlap_heterodyne` over arrays, ``mu`` not checked: both weight
    sides, ``s`` at ``x = mu`` and ``1 - s`` at ``x = 1 + eps``, as one stacked evaluation."""
    # the side axis leads, so arrays of two shapes are broadcast to one first
    if getattr(mu, "shape", ()) != getattr(s, "shape", ()):
        mu, s = np.broadcast_arrays(mu, s)
    return _heterodyne_at(np.array([s, 1.0 - s]), _heterodyne_sides(mu))


def s_overlap_heterodyne(mu: float, s: float) -> float:
    """Closed form of :func:`s_overlap_local` at the heterodyne optimum; an under- or
    overflow fails through :func:`check_exponent`."""
    with np.errstate(all="ignore"):
        q = overlap_heterodyne(np.float64(check_mu(mu)), check_order(s))
    return float(check_exponent(mu, q, "s_overlap_heterodyne"))


def _log_heterodyne(s, sides):
    """``ln Q_s`` of :func:`overlap_heterodyne` and its first two ``s``-derivatives at the
    orders ``s``, in closed form from the :func:`_heterodyne_sides` of ``mu``.  With
    ``o = (s, 1 - s)``, the weight logs ``(R, L)``, ``gap = -expm1(o R)`` and the width
    sum ``D``, ``ln Q = ln 2 + sum_sides (o L - ln gap) - ln D``, where
    ``P = gap_0 gap_1 D = 2 (gap_0 + gap_1) + gap_0 gap_1 (shift - 2)`` neither overflows
    nor cancels.  A gap's ``o``-derivatives are ``-R e^(o R)`` and ``-R^2 e^(o R)``."""
    (log_ratio, log_scale), shift = sides
    orders = np.array([s, 1.0 - s])
    t = orders * log_ratio
    gap, slope = -np.expm1(t), -log_ratio * np.exp(t)
    curve, k = log_ratio * slope, shift - 2.0
    c = 2.0 + gap[::-1] * k  # dP / d gap, side by side
    p = 2.0 * (gap[0] + gap[1]) + gap[0] * gap[1] * k
    p_s = (slope[0] * c[0] - slope[1] * c[1]) / p
    p_ss = (curve[0] * c[0] + curve[1] * c[1] - 2.0 * k * slope[0] * slope[1]) / p
    log_q = math.log(2.0) + orders[0] * log_scale[0] + orders[1] * log_scale[1] - np.log(p)
    return log_q, log_scale[0] - log_scale[1] - p_s, p_s * p_s - p_ss


def _newton(s, sides, stopped):
    """The safeguarded Newton of :func:`chernoff_overlap_local` from the orders ``s``,
    each row in the bracket ``S_INTERVAL``; ``(s, stopped)``, rows ``stopped`` on entry
    held.  Run under ``np.errstate(all="ignore")``."""
    lo, hi = np.full_like(s, S_INTERVAL[0]), np.full_like(s, S_INTERVAL[1])
    for _ in range(_NEWTON_CAP):
        _, slope, curve = _log_heterodyne(s, sides)
        lo, hi = np.where(slope <= 0.0, s, lo), np.where(slope >= 0.0, s, hi)
        stopped = stopped | (np.abs(slope) <= _NEWTON_TOL * curve) | (hi - lo <= _NEWTON_TOL * hi)
        if stopped.all():
            break
        step = s - slope / curve
        s = np.where(stopped, s, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)))
    return s, stopped


def _start_table():
    """The search's start table: knots in ``ln(mu - 1)``, 0.05 apart on [-7, 9], 0.1 on
    (9, 40] and 1 on (40, 709], and the minimizer ``s*`` at each, found by
    :func:`_newton` from the asymptotic guess ``1 - 1 / (2 + ln((mu + 1) / 2))``.
    Both read-only.  Below ``mu = 1 + e^-7`` the kernel's slope is rounding noise at
    ``_NEWTON_TOL`` times the curvature (up to 1.3e-9 of it at ``e^-9``), so a knot
    there could not stop on the slope test."""
    knots = np.concatenate(
        [np.linspace(-7.0, 9.0, 321), np.linspace(9.1, 40.0, 310), np.linspace(41.0, 709.0, 669)]
    )
    mu = 1.0 + np.exp(knots)
    with np.errstate(all="ignore"):
        guess = 1.0 - 1.0 / (2.0 + np.log((mu + 1.0) / 2.0))
        s = _newton(guess, _heterodyne_sides(mu), np.zeros(mu.shape, bool))[0]
    for array in (knots, s):
        array.flags.writeable = False
    return knots, s


_START_KNOTS, _START_S = _start_table()
#: the low clip ``(s, 1 - s)``, on which the search checks its overlap first
_LOW_CLIP = np.array([[S_INTERVAL[0]], [1.0 - S_INTERVAL[0]]])


def chernoff_overlap_local(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s_star, min_s Q_s(het))`` elementwise over arrays, ``mu`` not checked.

    ``ln Q_s`` is convex in ``s``.  Newton on :func:`_log_heterodyne` starts at the
    start table's ``s*``, interpolated in ``ln(mu - 1)`` and clamped at its ends, in
    the bracket ``S_INTERVAL``, bisecting where a step leaves it, until ``|slope| <=
    _NEWTON_TOL * curvature`` or the bracket collapses: at a clip, or near ``mu = 1``,
    where the slope is rounding noise.  ``q`` is the overlap at ``s_star`` evaluated in
    long double: correctly rounded, and so at most 1, where that is wider than double
    (x86-64).  :func:`check_exponent` on the overlap at the low clip fails an overflow,
    first at ``mu = 1.797691337170979e302``; a row not stopped after ``_NEWTON_CAP``
    steps is a NumericalError naming its ``mu``.
    """
    with np.errstate(all="ignore"):
        logs, _ = sides = _heterodyne_sides(mu)
        # an overflow fails here, before it can misplace a step
        check_exponent(mu, _heterodyne_at(_LOW_CLIP, sides), "kappa_loc")
        start = np.interp(np.log(mu - 1.0), _START_KNOTS, _START_S)
        # within an ulp of mu = 1 the weights are those of x = 1: Q = 1 for every s
        s, stopped = _newton(start, sides, np.isneginf(logs[0][0]))
    if not stopped.all():
        raise NumericalError(f"kappa_loc search did not converge at mu={float(mu[~stopped][0])!r}")
    return s, overlap_heterodyne(mu.astype(np.longdouble), s.astype(np.longdouble)).astype(float)


def p_upper_local(mu: float) -> SOverlapResult:
    """Chernoff-type upper bound for the local detector, ``min_s Q_s(het) / 2``: a batch
    of one of :func:`chernoff_overlap_local`."""
    s_star, q = chernoff_overlap_local(np.array([check_mu(mu)]))
    return SOverlapResult(float(s_star[0]), float(q[0]), float(q[0]) / 2.0)


def fidelity_heterodyne(mu: float, a) -> float:
    """Fidelity between the two conditional states at displacement label ``a``.

    ``a`` is the two-component displacement label of the conditionally
    prepared state (the measurement outcome scaled by the heterodyne gain
    ``eps / sqrt(2)`` gives the physical mean).
    """
    a = check_displacement(a, "displacement label")
    a2 = float(a @ a)
    mu = check_mu(mu)
    eps = _epsilon(mu)
    den = float(_fidelity_denominator(mu, eps))
    return 2.0 * math.exp(-eps * eps * a2 / (4.0 * (mu + 1.0 + eps))) / den


def gaussian_fidelity_one_mode(v_a: np.ndarray, v_b: np.ndarray, mean_diff) -> float:
    """Fidelity of two single-mode Gaussian states from their moments.

    With ``Delta = det(v_a + v_b)`` and ``L = (det v_a - 1)(det v_b - 1)``:
    ``F = 2 exp(-d^T (v_a + v_b)^(-1) d / 2) / (sqrt(Delta + L) - sqrt(L))``.
    """
    d = check_displacement(mean_diff, "mean difference")
    if not all(np.shape(v) == (2, 2) and np.isfinite(v).all() for v in (v_a, v_b)):
        raise DomainError("covariances must be finite 2x2 matrices")
    expo = -0.5 * float(d @ np.linalg.solve(v_a + v_b, d))
    lam = (np.linalg.det(v_a) - 1.0) * (np.linalg.det(v_b) - 1.0)
    return float(_fidelity_prefactor(np.linalg.det(v_a + v_b), lam)) * math.exp(expo)


def _fidelity_prefactor(delta, lam):
    """``2 / (sqrt(Delta + L) - sqrt(L))`` over scalars or arrays, ``L`` clipped at 0, as
    ``2 (sqrt(Delta + L) + sqrt(L)) / Delta``, which does not cancel for large ``L``."""
    lam = np.maximum(lam, 0.0)
    return 2.0 * (np.sqrt(delta + lam) + np.sqrt(lam)) / delta


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
#: estimate; the two run as one rule, each panel's 16 nodes first
_RADIAL_SPLIT = 16
_RADIAL_RULE = tuple(map(np.hstack, zip(_panel_rule(_RADIAL_SPLIT), _panel_rule(12))))
#: relative tolerance of the radial integral, and the discarded tail beyond u = 72
_RADIAL_RTOL = 1e-8
_RADIAL_TAIL = 0.5 * math.exp(-72.0)


def lower_bound_local(mu: np.ndarray) -> np.ndarray:
    """Elementwise :func:`p_lower_local` over an array; ``mu`` is not checked.

    Raises :class:`NumericalError` if the error estimate of any element is not
    within the relative tolerance, such as NaN from an overflow past about 6e307.
    """
    with np.errstate(all="ignore"):
        eps = _epsilon(mu)
        sigma2 = mu - 1.0 - eps
        den = _fidelity_denominator(mu, eps)[:, None, None]
        decay = (eps * eps * 2.0 * sigma2 / (4.0 * (mu + 1.0 + eps)))[:, None, None]
        u, w = _RADIAL_RULE
        panels = np.empty((2, mu.shape[0], u.shape[0]))
        # a row of terms has the shape of the nodes
        for rows in _passes(mu.shape[0], u.nbytes):
            terms = fidelity_error(2.0 * np.exp(-decay[rows] * u) / den[rows]) * w
            panels[0, rows] = terms[..., :_RADIAL_SPLIT].sum(axis=-1)
            panels[1, rows] = terms[..., _RADIAL_SPLIT:].sum(axis=-1)
        value = panels[0].sum(axis=-1)
        abserr = np.abs(panels[0] - panels[1]).sum(axis=-1)
    # "not within": NaN fails; without spread (mu near 1) both rules sum a constant
    failed = ~(abserr + _RADIAL_TAIL <= _RADIAL_RTOL * value + 1e-15)
    if failed.any():
        i = int(np.argmax(failed))
        raise NumericalError(
            f"radial quadrature failed its relative tolerance at mu={float(mu[i])!r} "
            f"(err {abserr[i]:g})"
        )
    # mu = 1: the modulation is a point mass at a = 0, where F = 2 / den
    point = fidelity_error(2.0 / den[:, 0, 0])
    return np.where(sigma2 > 0.0, value, point)


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
    """Result of scanning a bound over the POVM squeezing asymmetry.

    ``derivative_at_unit`` is exactly 0.0: every scan entry depends on the
    seed eigenvalues ``(lam, 1/lam)`` only through symmetric functions, so it
    is even in ``ln lam`` and its derivative at ``lam = 1`` vanishes.
    """

    mu: float
    g: float
    s: float | None
    lambda_grid: np.ndarray
    values: np.ndarray
    min_lambda: float
    derivative_at_unit: float


def _scan(values: np.ndarray, mu: float, g: float, s, label: str) -> OptimalityScan:
    """Check the values of a scan over ``LAMBDA_SCAN_GRID``."""
    # near mu = 1 the scan is flat to rounding: a tie with lambda = 1 passes
    if values[0] != values.min():
        raise ReportFailure(
            f"{label}: scan minimum at lambda={LAMBDA_SCAN_GRID[np.argmin(values)]:g}, not 1 "
            f"(mu={mu}, g={g}, s={s})"
        )
    return OptimalityScan(
        mu=mu, g=g, s=s, lambda_grid=LAMBDA_SCAN_GRID.copy(), values=values,
        min_lambda=1.0, derivative_at_unit=0.0,
    )


def verify_heterodyne_optimality(mu: float, g: float, s: float) -> OptimalityScan:
    """Check that lambda = 1 minimizes the modulated overlap over the scan grid.

    Evaluates the rank-1, angle-0 POVM family over the 41 log-spaced
    asymmetries of ``LAMBDA_SCAN_GRID`` in [1, 10] as one stack; the
    asymmetries in [0.1, 1) are the same POVMs turned by pi/2.  The ``s``-free
    half of the overlap (the spectra, ``nu`` and the weight logs of ``mu`` and
    ``nu``) is read from a cache of the last 8 ``(mu, g)``, which the fidelity
    scan shares; each entry is exactly :func:`s_overlap_local` at its ``lambda``.
    Raises :class:`ReportFailure` if an entry lies below the one at lambda = 1,
    and :class:`NumericalError` if ``nu`` rounds below 1, as at the separability
    edge above ``mu = 2^53``, or if the scan overflows (:func:`_guarded`), as it does
    below the edge from about ``mu = 1.5e153``, and at any ``mu`` for an order below
    about ``mu / 1.3e154``.
    """
    mu = check_mu(mu)
    g = check_correlation(mu, g)
    s = check_order(s)
    values = _guarded(mu, s, "modulated overlap", _overlap_at, s, _scan_state(mu, g))
    return _scan(values, mu, g, s, "overlap scan")


#: normalized probabilists' Gauss-Hermite rule of the displacement average:
#: the positive half of the 40 nodes, weights doubled (see
#: :func:`averaged_fidelity_bound` for why this is the same rule)
_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(40)
_HERMITE_NODES, _HERMITE_WEIGHTS = (
    _HERMITE_NODES[20:],
    2.0 * _HERMITE_WEIGHTS[20:] / _HERMITE_WEIGHTS.sum(),
)
_HERMITE_PAIR_WEIGHTS = np.multiply.outer(_HERMITE_WEIGHTS, _HERMITE_WEIGHTS)


def averaged_fidelity_bound(mu: float, lam: float, g: float | None = None) -> float:
    """Fidelity-based lower bound for the rank-1 POVM with asymmetry ``lam``.

    Uses the moment-based fidelity of the physically displaced conditional
    pair, averaged over the actual displacement distribution (covariance
    equal to the modulation matrix) by a 40 x 40 tensor Gauss-Hermite rule.
    The fidelity is even in each displacement component and the rule's
    nodes are exactly antisymmetric with symmetric weights, none at 0, so
    the rule is summed over its positive quadrant (20 x 20 nodes) with the
    weights times 4.  That is the same quadrature, not a coarser one: only
    the order of the summation differs.
    """
    mu = check_mu(mu)
    g = check_correlation(mu, mu - 1.0 if g is None else g)
    lam = GaussianPovm(1.0, 0.0, lam).lam
    state = _overlap_state(mu, g, np.array([[lam], [1.0 / lam]]))
    values = _guarded(mu, 1.0, "averaged fidelity", _averaged_fidelity, mu, state.c, state.m)
    return float(values[0])


def _fidelity_integrand(mu, c, m, nodes):
    """``fidelity_error`` on the grid ``nodes x nodes``, ``(n, k, k)``: the formula
    of :func:`gaussian_fidelity_one_mode` in the seed's eigenbasis, where the
    exponent at the displacement ``(sqrt(m_0) t_i, sqrt(m_1) t_j)`` factors."""
    total = mu + c
    prefactor = _fidelity_prefactor(total[0] * total[1], (mu * mu - 1.0) * (c[0] * c[1] - 1.0))
    decay = np.exp((-0.5 * m / total)[:, :, None] * (nodes * nodes))
    f = np.einsum("ij,ik->ijk", prefactor[:, None] * decay[0], decay[1])
    return fidelity_error(f)


def _averaged_fidelity(mu, c, m):
    """:func:`averaged_fidelity_bound` over eigenvalue pairs ``(2, n)``.  Its callers run
    it through :func:`_guarded`: below the separability edge ``(mu^2 - 1)(c_0 c_1 - 1)``
    overflows from about ``mu = 1.2e77``."""
    terms = _fidelity_integrand(mu, c, m, _HERMITE_NODES)
    terms *= _HERMITE_PAIR_WEIGHTS
    # a sum per row, not matmul: BLAS may round a row differently in other stacks
    return terms.sum(axis=(1, 2))


def verify_fidelity_optimality(mu: float, g: float | None = None) -> OptimalityScan:
    """Check that lambda = 1 also minimizes the averaged fidelity bound.

    Same grid and check as :func:`verify_heterodyne_optimality`.  The
    scanned functional is the physically normalized average (true moment
    fidelity against the true displacement statistics), which is the version
    of the bound the optimality claim holds for.
    """
    mu = check_mu(mu)
    gval = check_correlation(mu, mu - 1.0 if g is None else g)
    state = _scan_state(mu, gval)
    values = _guarded(mu, 1.0, "averaged fidelity", _averaged_fidelity, mu, state.c, state.m)
    return _scan(values, mu, gval, None, "fidelity scan")
