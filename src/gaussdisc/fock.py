"""Brute-force validation in a truncated Fock basis.

Density operators are plain ndarrays over the number basis (dimension
``cutoff`` for one mode, ``cutoff**2`` for two).  None of the constructors
renormalize: the missing trace is the signal that a cutoff is too small, and
every builder raises :class:`ConvergenceError` when the loss exceeds the
configured tolerance (a displacement is formed on twice the cutoff and cut
back, so it loses trace too).

The correlated encoded state is realized as a Gauss-Hermite discretized
mixture of identical coherent pairs, which certifies its separability by
construction; with the displacement variance chosen below its covariance
matrix is the symmetric normal form with correlations at the separable edge.

That mixture has rank at most ``nodes**2``, and it is block diagonal in the
total photon number mod 4: the node grid is invariant under ``alpha -> i alpha``
with equal weights, and a coherent pair only picks up the phase
``i**(n1 + n2)`` under that map.  Each of the four blocks is kept as a factor
with one column per orbit of the map (64 at the default 16 nodes), so the
overlaps take the spectrum from four ``nodes**2 / 4``-sized Gram matrices, at
O(cutoff**2 nodes**4 / 16) instead of the O(cutoff**6) of a dense
eigendecomposition; two-mode moments use partial traces and two pairwise
tensor contractions instead of Kronecker-product operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .errors import check_mu, check_order, checked_eigh

#: eigenvalues below this are treated as exact zeros of the finite-rank
#: construction (fractional powers would otherwise amplify solver noise)
EIG_CLAMP = 1e-12
#: anything more negative than this is not eigensolver noise
EIG_FLOOR = -1e-10
#: accepted change of an overlap when the cutoff is doubled
DOUBLING_TOL = 1e-6


@dataclass(frozen=True)
class FockConfig:
    """Truncation and discretization parameters for the oracle."""

    cutoff: int
    modulation_nodes: int = 16
    convergence_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.cutoff < 4:
            raise DomainError(f"cutoff must be at least 4, got {self.cutoff}")
        if self.modulation_nodes < 8:
            raise DomainError(
                f"need at least 8 modulation nodes, got {self.modulation_nodes}"
            )
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise DomainError("convergence tolerance must be finite and positive")


def destroy(cutoff: int) -> np.ndarray:
    """Annihilation operator on the truncated number basis."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def coherent_state(alpha: complex | np.ndarray, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of a coherent state (recursively, stable).

    For an array of amplitudes the result has one column per amplitude,
    shape ``(cutoff,) + alpha.shape``.
    """
    alpha = np.asarray(alpha)
    amps = np.empty((cutoff,) + alpha.shape, complex)
    amps[0] = np.exp(-np.abs(alpha) ** 2 / 2.0)
    steps = np.sqrt(np.arange(1.0, cutoff)).reshape((-1,) + (1,) * alpha.ndim)
    amps[1:] = amps[0] * np.cumprod(alpha / steps, axis=0)
    return amps


def _check_trace(trace: float, what: str, config: FockConfig) -> None:
    """Raise ConvergenceError if ``what`` lost more trace than the tolerance (or is NaN)."""
    if not trace >= 1.0 - config.convergence_tol:
        raise ConvergenceError(f"{what} lost {1.0 - trace:.2e} of trace at cutoff {config.cutoff}")


def build_thermal(n_bar: float, config: FockConfig) -> np.ndarray:
    """Truncated thermal state; diagonal, deliberately not renormalized."""
    if not (math.isfinite(n_bar) and n_bar >= 0.0):
        raise DomainError(f"mean photon number must be finite and nonnegative, got {n_bar}")
    # at n_bar = 0 this is exactly the vacuum: 0.0 ** 0 == 1.0
    diag = (1.0 / (n_bar + 1.0)) * (n_bar / (n_bar + 1.0)) ** np.arange(config.cutoff)
    _check_trace(float(diag.sum()), "thermal state", config)
    return np.diag(diag)


def _thermal_pair_diag(mu: float, config: FockConfig) -> np.ndarray:
    """Diagonal of :func:`build_thermal_product`, over the two-mode number basis."""
    single = np.diag(build_thermal((mu - 1.0) / 2.0, config))
    return np.outer(single, single).ravel()


def build_thermal_product(mu: float, config: FockConfig) -> np.ndarray:
    """Two identical uncorrelated thermal modes with variance ``mu``."""
    return np.diag(_thermal_pair_diag(mu, config))


def _correlated_blocks(mu: float, config: FockConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pairs ``(rows, A_k)`` with ``rho = sum_k A_k A_k^H`` over ``k = 0..3``.

    ``rows`` are the two-mode basis indices with ``(n1 + n2) % 4 == k``.  The
    node grid is invariant under ``alpha -> i alpha`` with equal weights, and
    ``|i alpha, i alpha> = i**(n1 + n2) |alpha, alpha>``, so the four pairs of
    an orbit sum to four times the block-diagonal part of one of them.  The
    columns of ``A_k`` are the coherent pairs of one representative per orbit
    (``Re alpha > 0, Im alpha >= 0``, plus the origin of an odd node count,
    an orbit of size 1) restricted to ``rows`` and scaled by
    ``sqrt(orbit size * weight)``; the trace of the correlated state is
    ``sum_k ||A_k||_F^2``.
    """
    check_mu(mu)
    cutoff, nodes = config.cutoff, config.modulation_nodes
    # hermegauss symmetrises nodes and weights, so the orbits are exact
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    amp = math.sqrt((mu - 1.0) / 4.0) * t
    re, im, origin = t > 0.0, t >= 0.0, t == 0.0
    alphas = np.concatenate([(amp[re, None] + 1j * amp[im]).ravel(), amp[origin]])
    scale = np.concatenate([4.0 * np.outer(w[re], w[im]).ravel(), w[origin] ** 2])
    single = coherent_state(alphas, cutoff)
    pairs = (single[:, None, :] * single[None, :, :]).reshape(cutoff * cutoff, -1)
    pairs *= np.sqrt(scale)
    _check_trace(float(np.vdot(pairs, pairs).real), "correlated state", config)
    n = np.arange(cutoff)
    block = ((n[:, None] + n) % 4).ravel()
    return [(rows, pairs[rows]) for rows in (np.flatnonzero(block == k) for k in range(4))]


def build_correlated(mu: float, config: FockConfig) -> np.ndarray:
    """Maximally correlated separable state as a coherent-pair mixture.

    Both modes receive the same random displacement; each quadrature mean is
    modulated with variance ``mu - 1``, i.e. the real and imaginary parts of
    the coherent amplitude (with ``x = a + a^dag``, so the mean of x is
    ``2 Re alpha``) carry variance ``(mu - 1) / 4`` each.  The resulting
    covariance matrix is the symmetric normal form with correlations
    ``mu - 1`` on both quadratures.
    """
    dim = config.cutoff**2
    rho = np.zeros((dim, dim))
    for rows, factor in _correlated_blocks(mu, config):
        # conjugate node pairs carry equal weight, so every block is real
        rho[np.ix_(rows, rows)] = (factor @ factor.conj().T).real
    return rho


def displaced_thermal(n_bar: float, mean, cutoff: int) -> np.ndarray:
    """Thermal state displaced to the given quadrature mean ``(x, p)``.

    The displacement ``exp(-iH)``, ``H = i (alpha a^dag - alpha^* a)``, comes from
    the spectrum of ``H`` on twice the cutoff, cut back: a state that spills past
    the cutoff then shows as lost trace instead of wrapping around.
    """
    config = FockConfig(cutoff)
    mean = np.asarray(mean, float)
    if not np.isfinite(mean).all():
        raise DomainError(f"quadrature mean must be finite, got {mean}")
    alpha = (mean[0] + 1j * mean[1]) / 2.0
    base = build_thermal(n_bar, config)
    a = destroy(2 * cutoff)
    phases, basis = checked_eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    kept = basis[:cutoff]
    op = (kept * np.exp(-1j * phases)) @ kept.conj().T
    rho = op @ base @ op.conj().T
    _check_trace(float(np.trace(rho).real), "displaced thermal state", config)
    return rho


def _checked_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eigvals, eigvecs = checked_eigh(rho)
    if eigvals.min() < EIG_FLOOR:
        raise NumericalError(
            f"operator has eigenvalue {eigvals.min():.3e} below {EIG_FLOOR:g}"
        )
    eigvals = np.where(eigvals < EIG_CLAMP, 0.0, eigvals)
    return eigvals, eigvecs


def _fractional_power(rho: np.ndarray, power: float) -> np.ndarray:
    eigvals, eigvecs = _checked_spectrum(rho)
    with np.errstate(divide="ignore"):
        scaled = np.where(eigvals > 0.0, eigvals**power, 0.0)
    return (eigvecs * scaled) @ eigvecs.conj().T


def oracle_s_overlap(rho0: np.ndarray, rho1: np.ndarray, s: float) -> float:
    """Tr(rho0^s rho1^(1-s)) by direct eigendecomposition of both operators."""
    check_order(s)
    a = _fractional_power(rho0, s)
    b = _fractional_power(rho1, 1.0 - s)
    return float(np.sum(a * b.T).real)


def oracle_fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))^2``."""
    root = _fractional_power(rho_a, 0.5)
    eigvals = checked_eigh(root @ rho_b @ root, values_only=True)
    return float(np.sum(np.sqrt(np.clip(eigvals, 0.0, None))) ** 2)


def s_overlap_curve(mu: float, s_values, config: FockConfig) -> dict[float, float]:
    """Oracle overlaps of the encoded pair for several orders at one cutoff.

    The correlated state is block diagonal (:func:`_correlated_blocks`): the
    nonzero spectrum of each block is that of the Gram matrix ``A_k^H A_k`` of
    its factor, and ``A_k X / sqrt(lambda)`` are the matching eigenvectors, at
    O(dim nodes**4 / 16) instead of the O(dim**3) of a dense
    eigendecomposition.  The spectra are shared across all requested orders;
    the uncorrelated state is diagonal, so each order costs one
    matrix-vector contraction per block.
    """
    orders = [float(check_order(s)) for s in s_values]
    thermal_diag = _thermal_pair_diag(mu, config)
    spectra = []
    for rows, factor in _correlated_blocks(mu, config):
        eigvals, eigvecs = _checked_spectrum(factor.conj().T @ factor)
        kept = eigvals > 0.0
        eigvals = eigvals[kept]
        weights = np.abs(factor @ (eigvecs[:, kept] / np.sqrt(eigvals))) ** 2
        spectra.append((thermal_diag[rows], eigvals, weights))
    return {
        s: float(sum(diag**s @ (weights @ lam ** (1.0 - s)) for diag, lam, weights in spectra))
        for s in orders
    }


def s_overlap_converged(mu: float, s_values, config: FockConfig) -> dict[float, float]:
    """Oracle overlaps validated by the cutoff-doubling protocol.

    Computes the curve at the configured cutoff and at twice that cutoff and
    requires every overlap to move by less than ``DOUBLING_TOL``; returns the
    doubled-cutoff values.
    """
    coarse = s_overlap_curve(mu, s_values, config)
    fine_config = FockConfig(
        2 * config.cutoff, config.modulation_nodes, config.convergence_tol
    )
    fine = s_overlap_curve(mu, s_values, fine_config)
    for s, value in fine.items():
        drift = abs(value - coarse[s])
        if drift >= DOUBLING_TOL:
            raise ConvergenceError(
                f"overlap at s={s} moved by {drift:.2e} when doubling the cutoff"
            )
    return fine


def quadrature_moments(rho: np.ndarray, n_modes: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix extracted from a Fock-basis state.

    Uses ``x = a + a^dag`` and ``p = -i (a - a^dag)`` so the vacuum
    covariance is the identity.  A two-mode state is never multiplied by a
    Kronecker product: the single-mode blocks come from the partial traces
    and the cross-mode block from two pairwise contractions of ``rho`` as a
    ``cutoff**4`` tensor, one operator at a time, at O(dim**2).
    """
    if n_modes == 1:
        reduced = [rho]
    elif n_modes == 2:
        reduced = [partial_trace(rho, 0), partial_trace(rho, 1)]
    else:
        raise DomainError("only one- and two-mode states are supported")
    cutoff = reduced[0].shape[0]
    a = destroy(cutoff)
    ops = [a + a.T, -1j * (a - a.T)]
    if n_modes == 1:
        return _one_mode_moments(rho, ops)
    (mean_0, cm_0), (mean_1, cm_1) = (_one_mode_moments(r, ops) for r in reduced)
    # Tr(rho (A x B)) for A, B in (x, p); operators on different modes commute
    joint = np.einsum(
        "ijkl,aki,blj->ab", rho.reshape((cutoff,) * 4), ops, ops, optimize=True
    ).real
    cross = joint - np.outer(mean_0, mean_1)
    return np.concatenate([mean_0, mean_1]), np.block([[cm_0, cross], [cross.T, cm_1]])


def _one_mode_moments(rho: np.ndarray, ops: list) -> tuple[np.ndarray, np.ndarray]:
    # Tr(rho A_i A_j) for every pair; the covariance is its symmetric part
    pairs = np.einsum("ki,aij,bjk->ab", rho, ops, ops, optimize=True).real
    mean = np.einsum("ki,aik->a", rho, ops).real
    return mean, 0.5 * (pairs + pairs.T) - np.outer(mean, mean)


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced state of mode ``keep`` (0 or 1) of a two-mode operator."""
    dim = rho.shape[0]
    cutoff = math.isqrt(dim)
    if cutoff * cutoff != dim:
        raise DomainError(f"dimension {dim} is not a square")
    tensor = rho.reshape(cutoff, cutoff, cutoff, cutoff)
    if keep == 0:
        return np.einsum("ijkj->ik", tensor)
    if keep == 1:
        return np.einsum("ijil->jl", tensor)
    raise DomainError("keep must be 0 or 1")
