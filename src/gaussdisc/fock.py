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

Both modes of a pair carry the same ``alpha``, so ``rho = V M V^T`` exactly
(:func:`_sector_form`), with ``M`` of order ``2 cutoff - 1``, block diagonal in
``(n1 + n2) mod 4`` and built from one node per orbit of the grid under
``alpha -> i alpha`` and ``alpha -> alpha^*``: the overlaps take their spectrum
from four real blocks of about ``cutoff / 2`` rows instead of a dense
eigendecomposition, and the moments are weighted sums along the few bands of
``rho`` that ladder products fill, with weights built once per shape.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .errors import check_displacement, check_mu, check_order, checked_eigh

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
        for name in ("cutoff", "modulation_nodes"):
            _check_integer(name, getattr(self, name))
        if self.cutoff < 4:
            raise DomainError(f"cutoff must be at least 4, got {self.cutoff}")
        if self.modulation_nodes < 8:
            raise DomainError(
                f"need at least 8 modulation nodes, got {self.modulation_nodes}"
            )
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0.0):
            raise DomainError("convergence tolerance must be finite and positive")


def _check_integer(name: str, value) -> None:
    try:
        positive = operator.index(value) >= 1
    except TypeError:
        positive = False
    if not positive:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def destroy(cutoff: int) -> np.ndarray:
    """Annihilation operator on the truncated number basis."""
    _check_integer("cutoff", cutoff)
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def coherent_state(alpha: complex | np.ndarray, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of a coherent state (recursively, stable).

    For an array of amplitudes the result has one column per amplitude,
    shape ``(cutoff,) + alpha.shape``.
    """
    _check_integer("cutoff", cutoff)
    alpha = np.asarray(alpha)
    if not np.isfinite(alpha).all():
        raise DomainError(f"coherent amplitude must be finite, got {alpha}")
    amps = np.empty((cutoff,) + alpha.shape, complex)
    amps[0] = np.exp(-np.abs(alpha) ** 2 / 2.0)
    inverse_steps = 1.0 / np.sqrt(np.arange(1.0, cutoff)).reshape((-1,) + (1,) * alpha.ndim)
    amps[1:] = amps[0] * np.cumprod(alpha * inverse_steps, axis=0)
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


def build_thermal_product(mu: float, config: FockConfig) -> np.ndarray:
    """Two identical uncorrelated thermal modes with variance ``mu``."""
    single = np.diag(build_thermal((check_mu(mu) - 1.0) / 2.0, config))
    return np.diag(np.outer(single, single).ravel())


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only so that a cached copy cannot be changed."""
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def _orbit_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """One node ``t_i + i t_j`` per orbit of the square Gauss-Hermite grid under
    ``alpha -> i alpha`` and ``alpha -> alpha^*`` (``t_i <= t_j <= 0``), and the
    orbit's weight: its size (8, or 4 on the diagonals and the axes, 1 at the
    origin) times ``w_i w_j``.  The weights sum to 1; read-only.  numpy's rule is
    exactly symmetric (``t = -t[::-1]``, ``w = w[::-1]``), so every orbit lies on
    the grid with equal weights."""
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    half = np.flatnonzero(t <= 0.0)
    i, j = half[np.array(np.triu_indices(len(half)))]
    x, y = t[i], t[j]
    # a sign for each nonzero coordinate, and a swap unless they are equal
    size = (2 - (x == 0.0)) * (2 - (y == 0.0)) * (2 - (x == y))
    return _read_only(x + 1j * y), _read_only(size * w[i] * w[j])


def _sector_form(mu: float, config: FockConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``M``, each box state's sector ``N`` and its entry ``v_N(n1)`` of ``V``: ``rho = V M V^T``.

    The pair ``|alpha, alpha>`` has amplitude ``e^(-|alpha|^2) alpha^N /
    sqrt(n1! n2!)``, so in the box it is ``sqrt(share[N]) <N|sqrt(2) alpha>``
    times ``v_N = sqrt(binom / share[N])``, with ``binom`` Binomial(N, 1/2) at
    ``n1`` and ``share[N]`` its mass in the box.  So ``M = (B B^H).real`` with
    ``B[N, j] = sqrt(share[N] w_j) <N|sqrt(2) alpha_j>``.  Nodes related by
    ``alpha -> i alpha`` differ by ``i**N``, so only ``M[k::4, k::4]`` is nonzero,
    and there, where ``N = N' (mod 4)``, both nodes add the same; a conjugate
    node adds the same to the real ``M``.  So ``B`` holds one column per orbit
    of the grid (:func:`_orbit_rule`), weighted by the orbit's size.
    """
    mu = check_mu(mu)
    cutoff = config.cutoff
    sector, share, embed = _sector_weights(cutoff)
    grid, weight = _orbit_rule(config.modulation_nodes)
    factor = coherent_state(math.sqrt((mu - 1.0) / 2.0) * grid, 2 * cutoff - 1)
    factor *= np.sqrt(np.outer(share, weight))
    _check_trace(float(np.vdot(factor, factor).real), "correlated state", config)
    factor = np.concatenate([factor.real, factor.imag], axis=1)
    sectors = np.zeros((2 * cutoff - 1,) * 2)
    for k in range(4):
        sectors[k::4, k::4] = factor[k::4] @ factor[k::4].T
    return sectors, sector, embed


@functools.lru_cache(maxsize=8)
def _sector_weights(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`_sector_form` needs of the box, per cutoff; read-only: each box
    state's sector ``N``, the box mass ``share[N]`` of Binomial(N, 1/2) (1 below
    the cutoff) and each box state's entry ``v_N(n1) = sqrt(binom / share[N])``."""
    n = np.arange(cutoff)
    sector = (n[:, None] + n).ravel()
    # C(N, n1) / 2**N down each column n2 = N - n1, by the factor N / (2 n1)
    binom = np.cumprod(np.vstack([0.5**n, (n[1:, None] + n) / (2.0 * n[1:, None])]), axis=0)
    share = np.bincount(sector, binom.ravel())
    share[:cutoff] = 1.0
    embed = np.sqrt(binom.ravel() / share[sector])
    return _read_only(sector), _read_only(share), _read_only(embed)


def build_correlated(mu: float, config: FockConfig) -> np.ndarray:
    """Maximally correlated separable state as a coherent-pair mixture.

    Both modes receive the same random displacement; each quadrature mean is
    modulated with variance ``mu - 1``, i.e. the real and imaginary parts of
    the coherent amplitude (with ``x = a + a^dag``, so the mean of x is
    ``2 Re alpha``) carry variance ``(mu - 1) / 4`` each.  The resulting
    covariance matrix is the symmetric normal form with correlations
    ``mu - 1`` on both quadratures.
    """
    sectors, sector, embed = _sector_form(mu, config)
    # rho[x, y] = v(x) M[N(x), N(y)] v(y), with one dense temporary
    rho = (sectors[sector] * embed[:, None])[:, sector]
    rho *= embed
    return rho


def displaced_thermal(n_bar: float, mean, cutoff: int) -> np.ndarray:
    """Thermal state displaced to the given quadrature mean ``(x, p)``.

    The displacement is ``exp(-iH)`` with ``H = i (alpha a^dag - alpha^* a)
    = Q (|alpha| (a + a^dag)) Q^H`` for the diagonal unitary
    ``Q = diag((i e^(i arg alpha))**n)``, so it comes from the spectrum of the
    real ``a + a^dag`` on twice the cutoff, cut back: a state that spills past
    the cutoff then shows as lost trace instead of wrapping around.  ``Q``
    commutes with the diagonal thermal state, so it only phases the result.
    The eigenvectors are real, so the cut-back ``exp(-i |alpha| (a + a^dag))``
    is formed as two real products, of its cosine and of its sine.
    """
    config = FockConfig(cutoff)
    mean = check_displacement(mean, "quadrature mean")
    alpha = (mean[0] + 1j * mean[1]) / 2.0
    thermal = np.diag(build_thermal(n_bar, config))
    positions, kept = _position_spectrum(config.cutoff)
    phase = abs(alpha) * positions
    op = (kept * np.cos(phase)) @ kept.T - 1j * ((kept * np.sin(phase)) @ kept.T)
    phases = np.exp(1j * (np.angle(alpha) + np.pi / 2.0) * np.arange(cutoff))
    rho = np.outer(phases, phases.conj()) * ((op * thermal) @ op.conj().T)
    _check_trace(float(np.trace(rho).real), "displaced thermal state", config)
    return rho


@functools.lru_cache(maxsize=8)
def _position_spectrum(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of ``a + a^dag`` on twice the cutoff, eigenvectors cut back; read-only."""
    a = destroy(2 * cutoff)
    positions, basis = checked_eigh(a + a.T)
    return _read_only(positions), _read_only(basis[:cutoff])


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

    With ``rho = V M V^T`` (:func:`_sector_form`) and the uncorrelated state
    ``D_N`` on each sector, ``Tr(D^s rho^(1-s)) = sum_N D_N^s [M^(1-s)]_NN``:
    four real ``eigh`` calls of about ``cutoff / 2`` rows serve every order.
    """
    orders = [float(check_order(s)) for s in s_values]
    single = np.diag(build_thermal((check_mu(mu) - 1.0) / 2.0, config))
    # D_N at the box state (0, N) for N < cutoff, then at (cutoff - 1, N - cutoff + 1)
    thermal = np.concatenate([single[0] * single, single[-1] * single[1:]])
    sectors = _sector_form(mu, config)[0]
    spectra = [(thermal[k::4], *_checked_spectrum(sectors[k::4, k::4])) for k in range(4)]
    return {
        s: float(sum(diag**s @ (vecs**2 @ lam ** (1.0 - s)) for diag, lam, vecs in spectra))
        for s in orders
    }


def s_overlap_converged(mu: float, s_values, config: FockConfig) -> dict[float, float]:
    """Oracle overlaps validated by the cutoff-doubling protocol.

    Computes the curve at the configured cutoff and at twice that cutoff and
    requires every overlap to move by less than ``DOUBLING_TOL``; returns the
    doubled-cutoff values.
    """
    coarse = s_overlap_curve(mu, s_values, config)
    fine = s_overlap_curve(mu, s_values, replace(config, cutoff=2 * config.cutoff))
    for s, value in fine.items():
        drift = abs(value - coarse[s])
        if drift >= DOUBLING_TOL:
            raise ConvergenceError(
                f"overlap at s={s} moved by {drift:.2e} when doubling the cutoff"
            )
    return fine


@functools.lru_cache(maxsize=8)
def _ladder_weights(cutoff: int, n_modes: int) -> tuple[tuple, tuple, np.ndarray]:
    """What :func:`quadrature_moments` sums, per shape; every array read-only.

    Per mode, ``(offset, weight)`` of the band of ``a`` and of ``a^2`` and the
    diagonal weights of ``(a a^dag + a^dag a) / 2``; for two modes, the bands of
    ``a (x) a`` and ``a (x) a^dag``; and the matrix from ladder to quadrature
    moments.  Each weight is cut to the length of its band.
    """
    dim = cutoff**n_modes

    def band(offset: int, weight: np.ndarray) -> tuple[int, np.ndarray]:
        return offset, _read_only(weight[: dim - offset])

    modes = []
    for stride in (cutoff, 1)[2 - n_modes :]:
        level = np.arange(dim) // stride % cutoff
        rise = np.sqrt(np.where(level < cutoff - 1, level + 1.0, 0.0))  # <n|a|n+1>
        # (a a^dag + a^dag a) / 2, whose first term is 0 on the top level
        middle = _read_only(0.5 * (rise**2 + level))
        modes.append((band(stride, rise), band(2 * stride, rise[:-stride] * rise[stride:]), middle))
    cross = ()
    if n_modes == 2:
        n_0, n_1 = divmod(np.arange(dim), cutoff)
        both = np.sqrt((n_0 + 1.0) * (n_1 + 1) * (n_1 < cutoff - 1))
        cross = (band(cutoff + 1, both), band(cutoff - 1, np.sqrt((n_0 + 1.0) * n_1)))
    return tuple(modes), cross, _read_only(np.kron(np.eye(n_modes), [[1.0, 1.0], [-1j, 1j]]))


def quadrature_moments(rho: np.ndarray, n_modes: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix extracted from a Fock-basis state.

    Uses ``x = a + a^dag`` and ``p = -i (a - a^dag)`` so the vacuum covariance
    is the identity.  A truncated ladder product ``L`` fills one band, so ``<L>``
    and ``<L^dag>`` are weighted sums along it below and above the diagonal
    (:func:`_ladder_weights`).
    """
    if n_modes not in (1, 2):
        raise DomainError("only one- and two-mode states are supported")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DomainError(f"state must be a square matrix, got shape {rho.shape}")
    dim = rho.shape[0]
    cutoff = math.isqrt(dim) if n_modes == 2 else dim
    if cutoff**n_modes != dim:
        raise DomainError(f"dimension {dim} is not a square")
    # the int, so that n_modes=2.0 behaves the same whatever the cache holds
    modes, cross, quadratures = _ladder_weights(cutoff, int(n_modes))

    def band(offset: int, weight: np.ndarray) -> list:
        # <L>, <L^dag> for the L with entries ``weight`` on the band ``offset`` above the diagonal
        return [(rho.diagonal(k) * weight).sum() for k in (-offset, offset)]

    first, second = [], []
    for rise, square, middle in modes:
        first += band(*rise)
        lowered, raised = band(*square)
        centre = (rho.diagonal() * middle).sum()
        second.append(np.array([[lowered, centre], [centre, raised]]))
    if cross:
        # a (x) a on the band cutoff + 1 and a (x) a^dag on cutoff - 1, with their adjoints
        both, mixed = (band(*c) for c in cross)
        pair = np.array([[both[0], mixed[0]], [mixed[1], both[1]]])
        second = [[second[0], pair], [pair.T, second[1]]]
    mean = (quadratures @ first).real
    # Tr(rho A_i A_j) for every pair; the covariance is its symmetric part
    pairs = (quadratures @ np.block(second) @ quadratures.T).real
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
