"""Covariance matrices and Williamson normal forms for two bosonic modes.

Conventions used throughout the package:

* quadrature ordering (x_A, p_A, x_B, p_B);
* the vacuum covariance matrix is the identity (quadrature variance 1), so a
  thermal state with variance ``mu`` carries ``(mu - 1) / 2`` photons per mode;
* the symplectic form is ``OMEGA = omega2 (+) omega2`` with
  ``omega2 = [[0, 1], [-1, 0]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_correlation, check_mu, checked_eigh

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block(
    [[OMEGA2, np.zeros((2, 2))], [np.zeros((2, 2)), OMEGA2]]
)

# Orthogonal building blocks of the analytic decomposition below:
# _QUAD_SWAP exchanges the two quadratures of a mode, _QUAD_REFLECT flips the
# sign of p.  _BALANCED_MIX is the SO(4) rotation that diagonalizes every
# covariance matrix of the symmetric family; it is *not* symplectic on its
# own, which is why the reflections are appended in _SYMMETRIC_DIAGONALIZER.
_QUAD_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
_QUAD_REFLECT = np.diag([1.0, -1.0])
_BALANCED_MIX = np.block(
    [[-_QUAD_SWAP, _QUAD_SWAP], [_QUAD_SWAP, _QUAD_SWAP]]
) / math.sqrt(2.0)
_SYMMETRIC_DIAGONALIZER = _BALANCED_MIX @ np.block(
    [[_QUAD_REFLECT, np.zeros((2, 2))], [np.zeros((2, 2)), _QUAD_REFLECT]]
)
_MODE_SWAP = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
)


@dataclass(frozen=True)
class SymmetricTwoModeCM:
    """Normal-form covariance matrix of a symmetric two-mode Gaussian state.

    ``mu`` is the thermal variance of each mode, ``g`` and ``gp`` the x- and
    p-quadrature correlations.  Values are stored as given; use
    :func:`check_bona_fide` to test physical validity.
    """

    mu: float
    g: float
    gp: float

    def matrix(self) -> np.ndarray:
        """The 4x4 covariance matrix in (x_A, p_A, x_B, p_B) ordering."""
        m, g, gp = self.mu, self.g, self.gp
        return np.array(
            [
                [m, 0.0, g, 0.0],
                [0.0, m, 0.0, gp],
                [g, 0.0, m, 0.0],
                [0.0, gp, 0.0, m],
            ]
        )

    @property
    def mean_photons(self) -> float:
        """Mean photon number of each reduced (thermal) mode."""
        return (self.mu - 1.0) / 2.0


def make_state_zero(mu: float) -> SymmetricTwoModeCM:
    """Uncorrelated pair of thermal modes with variance ``mu``."""
    mu = check_mu(mu)
    return SymmetricTwoModeCM(mu, 0.0, 0.0)


def make_state_one(mu: float) -> SymmetricTwoModeCM:
    """Maximally correlated separable state with the same local energy.

    Both quadrature correlations sit at the separability edge ``mu - 1``.
    """
    mu = check_mu(mu)
    return SymmetricTwoModeCM(mu, mu - 1.0, mu - 1.0)


def make_symmetric_state(mu: float, g: float) -> SymmetricTwoModeCM:
    """Separable member of the ``g = gp`` family; requires ``|g| <= mu - 1``."""
    mu = check_mu(mu)
    check_correlation(mu, g)
    return SymmetricTwoModeCM(mu, g, g)


def check_bona_fide(cm: SymmetricTwoModeCM) -> tuple[bool, list[str]]:
    """Test the physical-validity inequalities of the normal form.

    Returns ``(ok, violations)`` where ``violations`` lists every clause that
    fails: ``mu >= 1``, ``|g| < mu``, ``|gp| < mu`` and
    ``mu^2 + g*gp - 1 >= mu*|g + gp|``, the last tested in its factored form
    ``min((mu - g)(mu - gp), (mu + g)(mu + gp)) >= 1`` (the squared smaller
    symplectic eigenvalue), which is exact at the separability edge
    ``g = gp = +-(mu - 1)``.  Non-finite entries raise DomainError.
    """
    if not all(map(math.isfinite, (cm.mu, cm.g, cm.gp))):
        raise DomainError(f"covariance entries must be finite, got {cm}")
    violations = []
    if cm.mu < 1.0:
        violations.append(f"mu >= 1 violated (mu = {cm.mu})")
    if abs(cm.g) >= cm.mu:
        violations.append(f"|g| < mu violated (g = {cm.g}, mu = {cm.mu})")
    if abs(cm.gp) >= cm.mu:
        violations.append(f"|gp| < mu violated (gp = {cm.gp}, mu = {cm.mu})")
    nu2 = min((cm.mu - cm.g) * (cm.mu - cm.gp), (cm.mu + cm.g) * (cm.mu + cm.gp))
    if nu2 < 1.0:
        violations.append(f"min((mu - g)(mu - gp), (mu + g)(mu + gp)) >= 1 violated ({nu2} < 1)")
    return (not violations, violations)


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Symplectic normal form ``V = S diag(nu-, nu-, nu+, nu+) S^T``."""

    nu_minus: float
    nu_plus: float
    s_matrix: np.ndarray

    def normal_form(self) -> np.ndarray:
        return np.diag([self.nu_minus, self.nu_minus, self.nu_plus, self.nu_plus])

    def reconstruct(self) -> np.ndarray:
        return self.s_matrix @ self.normal_form() @ self.s_matrix.T


def williamson_symmetric(cm: SymmetricTwoModeCM) -> WilliamsonDecomposition:
    """Closed-form Williamson decomposition for the ``g = gp`` family.

    The symplectic spectrum is ``{mu - |g|, mu + |g|}`` and the diagonalizing
    symplectic matrix is the constant product of the balanced mode-mixing
    rotation and a per-mode reflection (a mode swap is appended when ``g < 0``
    so that the smaller eigenvalue always comes first).
    """
    if cm.g != cm.gp:
        raise DomainError("closed form requires g == gp")
    # for g == gp the bona-fide rule is the separability edge |g| <= mu - 1
    mu = check_mu(cm.mu)
    check_correlation(mu, cm.g)
    s = _SYMMETRIC_DIAGONALIZER
    if cm.g < 0.0:
        s = s @ _MODE_SWAP
    return WilliamsonDecomposition(mu - abs(cm.g), mu + abs(cm.g), s)


def williamson_numeric(cm: np.ndarray | SymmetricTwoModeCM) -> WilliamsonDecomposition:
    """Williamson decomposition of a generic 4x4 covariance matrix.

    The Hermitian ``i V^(-1/2) OMEGA V^(-1/2)`` has eigenvalues ``+-b`` with
    ``b = 1 / nu``; each positive ``b`` with eigenvector ``x`` gives the real
    column pair ``sqrt(2) (Im x, Re x)`` of an orthogonal symplectic basis,
    and ``S = V^(1/2) [pairs] diag(nu^(-1/2))``.  Serves as an independent
    cross-check of :func:`williamson_symmetric`.
    """
    v = cm.matrix() if isinstance(cm, SymmetricTwoModeCM) else np.asarray(cm, float)
    if v.shape != (4, 4):
        raise DomainError(f"expected a 4x4 covariance matrix, got shape {v.shape}")
    # an exactly symmetric v skips the elementwise tolerance
    if not ((v == v.T).all() or np.allclose(v, v.T, atol=1e-12)):
        raise DomainError("covariance matrix must be symmetric")
    eigvals, eigvecs = checked_eigh(v)
    if eigvals[0] <= 0.0:
        raise DomainError("covariance matrix must be positive definite")
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    inv_root = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    # ascending order puts the positive pair last, larger b (smaller nu) first
    b, x = checked_eigh(1j * (inv_root @ OMEGA @ inv_root))
    b, x = b[:1:-1], x[:, :1:-1]
    # (Re x, Im x) would give S OMEGA S^T = -OMEGA
    pairs = math.sqrt(2.0) * np.stack([x.imag, x.real], axis=2).reshape(4, 4)
    nus = 1.0 / b
    s = root @ pairs / np.sqrt(np.repeat(nus, 2))
    return WilliamsonDecomposition(float(nus[0]), float(nus[1]), s)
