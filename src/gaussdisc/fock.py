"""Brute-force validation in a truncated Fock basis.

Density operators are plain ndarrays over the number basis (dimension
``cutoff`` for one mode, ``cutoff**2`` for two).  None of the constructors
renormalize: the missing trace is the signal that a cutoff is too small, and
every builder raises :class:`ConvergenceError` when the loss exceeds the
configured tolerance (a displacement is formed on twice the cutoff and cut
back, so it loses trace too).

The correlated encoded state is the mixture of identical coherent pairs
``|alpha, alpha>`` with a Gaussian ``alpha``, separable by construction; with
the displacement variance chosen below its covariance matrix is the symmetric
normal form with correlations at the separable edge.  A balanced beam
splitter maps it to a thermal state in the sum mode and vacuum in the
difference mode, so it is block diagonal in the total photon number ``N``,
one rank-1 block per sector with an exact weight: ``rho = V M V^T`` with ``M``
diagonal of order ``2 cutoff - 1`` (:func:`_sector_form`).  The thermal pair
is constant on each sector, so the overlaps are one sum over the sectors with
no eigensolve, and the moments are weighted sums along the few bands of
``rho`` that ladder products fill, with weights built once per shape.

The generic one-mode oracles work on the support of a state
(:func:`_support`): its eigenvalues above ``EIG_CLAMP``, largest first, and
their eigenvectors.  A number-diagonal state, such as the thermal state, is
its own spectrum, so it needs no ``eigh`` and its support is a selection of
number states.  :func:`oracle_fidelity` then diagonalizes only the support
block of ``sqrt(a) b sqrt(a)``: for the conditional states of the
``oracle-check`` span, 8 to 32 rows in place of the cutoff.
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
    """Truncation parameters for the oracle.

    ``modulation_nodes`` is accepted and validated, and has no effect: the
    correlated state is built from its exact matrix elements.
    """

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
    return np.diag(_thermal_diagonal(n_bar, config))


def _thermal_diagonal(n_bar: float, config: FockConfig) -> np.ndarray:
    """The diagonal of :func:`build_thermal`, checked as it is."""
    if not (math.isfinite(n_bar) and n_bar >= 0.0):
        raise DomainError(f"mean photon number must be finite and nonnegative, got {n_bar}")
    # at n_bar = 0 this is exactly the vacuum: 0.0 ** 0 == 1.0
    diag = (1.0 / (n_bar + 1.0)) * (n_bar / (n_bar + 1.0)) ** np.arange(config.cutoff)
    _check_trace(float(diag.sum()), "thermal state", config)
    return diag


def build_thermal_product(mu: float, config: FockConfig) -> np.ndarray:
    """Two identical uncorrelated thermal modes with variance ``mu``."""
    single = _thermal_diagonal((check_mu(mu) - 1.0) / 2.0, config)
    return np.diag(np.outer(single, single).ravel())


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only so that a cached copy cannot be changed."""
    array.flags.writeable = False
    return array


def _sector_form(mu: float, config: FockConfig) -> np.ndarray:
    """The diagonal ``M_NN`` of ``rho = V M V^T`` for ``N < 2 cutoff - 1``, at the
    checked ``mu``.

    A balanced beam splitter maps each pair ``|alpha, alpha>`` to
    ``|sqrt(2) alpha, 0>``, so the mixture becomes thermal with mean ``2 n =
    mu - 1`` in the sum mode, ``n = (mu - 1) / 2`` per mode, and vacuum in the
    difference mode.  Sector ``N`` holds the thermal weight ``(2 n)^N /
    (2 n + 1)^(N + 1)`` on one unit vector, whose entry at ``(n1, n2)`` is
    ``sqrt(binom)`` with ``binom`` Binomial(N, 1/2) at ``n1``; the box keeps
    ``share[N]`` of its norm (:func:`_sector_weights`), so ``M_NN = share[N]
    (2 n)^N / (2 n + 1)^(N + 1)``.
    """
    _, share, _ = _sector_weights(config.cutoff)
    # at mu = 1 this is exactly the vacuum pair: 0.0 ** 0 == 1.0
    weights = share * ((mu - 1.0) / mu) ** np.arange(len(share)) / mu
    _check_trace(float(weights.sum()), "correlated state", config)
    return weights


@functools.lru_cache(maxsize=8)
def _sector_weights(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`_sector_form` and :func:`_sector_pairs` need of the box, per
    cutoff; read-only: each box state's sector ``N``, the box mass ``share[N]`` of
    Binomial(N, 1/2) (1 below the cutoff) and each box state's entry
    ``v_N(n1) = sqrt(binom / share[N])``."""
    n = np.arange(cutoff)
    sector = (n[:, None] + n).ravel()
    # C(N, n1) / 2**N down each column n2 = N - n1, by the factor N / (2 n1)
    binom = np.cumprod(np.vstack([0.5**n, (n[1:, None] + n) / (2.0 * n[1:, None])]), axis=0)
    share = np.bincount(sector, binom.ravel())
    share[:cutoff] = 1.0
    embed = np.sqrt(binom.ravel() / share[sector])
    return _read_only(sector), _read_only(share), _read_only(embed)


@functools.lru_cache(maxsize=8)
def _sector_pairs(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair ``(x, y)`` of box states in one sector ``N`` (:func:`_sector_weights`),
    per cutoff; read-only: its flat index ``x cutoff**2 + y`` in the dense state,
    ``N`` and ``v_N(x) v_N(y)``.  The search is quadratic in the box, as the dense
    state is, so only :func:`build_correlated` pays for it."""
    sector, _, embed = _sector_weights(cutoff)
    rows, cols = np.nonzero(sector[:, None] == sector)
    return (
        _read_only(rows * cutoff**2 + cols),
        _read_only(sector[rows]),
        _read_only(embed[rows] * embed[cols]),
    )


def build_correlated(mu: float, config: FockConfig) -> np.ndarray:
    """Maximally correlated separable state, a mixture of coherent pairs.

    Both modes receive the same random displacement; each quadrature mean is
    modulated with variance ``mu - 1``, i.e. the real and imaginary parts of
    the coherent amplitude (with ``x = a + a^dag``, so the mean of x is
    ``2 Re alpha``) carry variance ``(mu - 1) / 4`` each.  The resulting
    covariance matrix is the symmetric normal form with correlations
    ``mu - 1`` on both quadratures.  Its number-basis elements are exact: it
    is block diagonal in the total photon number ``N``, one rank-1 block per
    sector (:func:`_sector_form`), and the truncated state is a fresh dense
    ``cutoff**2``-square array, zero between sectors.
    """
    weights = _sector_form(check_mu(mu), config)
    pairs, sector, embed = _sector_pairs(config.cutoff)
    dim = config.cutoff**2
    rho = np.zeros(dim * dim)
    # rho[x, y] = v(x) M_NN v(y) where x and y both lie in sector N
    rho[pairs] = embed * weights[sector]
    return rho.reshape(dim, dim)


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
    thermal = _thermal_diagonal(n_bar, config)
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


def _clamped(eigvals: np.ndarray) -> np.ndarray:
    """The spectrum ``eigvals`` with solver noise below ``EIG_CLAMP`` set to 0; the one
    check of a spectrum, NumericalError for a non-finite eigenvalue or one below
    ``EIG_FLOOR`` (``min`` alone would let NaN through)."""
    if not np.isfinite(eigvals).all():
        raise NumericalError("operator has a non-finite eigenvalue")
    if eigvals.min() < EIG_FLOOR:
        raise NumericalError(
            f"operator has eigenvalue {eigvals.min():.3e} below {EIG_FLOOR:g}"
        )
    return np.where(eigvals < EIG_CLAMP, 0.0, eigvals)


def _support(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support of the state ``rho``: its nonzero :func:`_clamped` eigenvalues
    ``lam``, largest first, and a basis ``V`` of the matching eigenvectors.

    A number-diagonal ``rho``, every off-diagonal entry exactly 0, is its own
    spectrum: no ``eigh`` runs, and ``V`` is a selection of number states, given
    as their indices (a 1-D array).  Otherwise ``V`` holds eigenvectors as
    columns.  Either way the eigenvalues pass the one check of
    :func:`_clamped`.  Largest first is the order of the number basis of a
    thermal state, so both paths give a rotated and a plain state the same
    support up to eigenvector phases, and a matrix built on it is graded with
    its large entries first, which ``eigvalsh`` resolves best (see
    :func:`oracle_fidelity`).
    """
    diagonal = rho.diagonal()
    if np.count_nonzero(rho) == np.count_nonzero(diagonal):
        lam = _clamped(diagonal.real)
        keep = np.argsort(-lam, kind="stable")[: np.count_nonzero(lam)]
        return lam[keep], keep
    eigvals, vecs = checked_eigh(rho)
    lam = _clamped(eigvals)
    keep = np.flatnonzero(lam)[::-1]
    return lam[keep], vecs[:, keep]


def _fractional_power(rho: np.ndarray, power: float) -> np.ndarray:
    """``rho**power``: ``V diag(lam**power) V^H`` on the :func:`_support`
    ``(lam, V)`` of ``rho`` and 0 off it, so that no clamped eigenvalue is
    raised to a power.  A number-diagonal ``rho`` is its own spectrum, so the
    result is diagonal and no ``eigh`` runs."""
    lam, basis = _support(rho)
    if basis.ndim == 1:
        result = np.zeros(rho.shape)
        result[basis, basis] = lam**power
        return result
    return (basis * lam**power) @ basis.conj().T


def _state_cutoff(n_modes: int, *states: np.ndarray) -> int:
    """The cutoff of ``states`` on ``n_modes`` modes: square matrices of one
    dimension, a square one for two modes; else DomainError."""
    if n_modes not in (1, 2):
        raise DomainError("only one- and two-mode states are supported")
    dim = None
    for rho in states:
        shape = np.shape(rho)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DomainError(f"state must be a square matrix, got shape {shape}")
        if dim not in (None, shape[0]):
            raise DomainError(f"states must have the same dimension, got {dim} and {shape[0]}")
        dim = shape[0]
    if dim == 0:
        raise DomainError("state must not be empty, got shape (0, 0)")
    cutoff = math.isqrt(dim) if n_modes == 2 else dim
    if cutoff**n_modes != dim:
        raise DomainError(f"dimension {dim} is not a square")
    return cutoff


def _oracle_pair(rho_a: np.ndarray, rho_b: np.ndarray) -> None:
    """Check two one-mode states for the oracle: one shape (:func:`_state_cutoff`), and
    every entry finite, which ``eigh`` and ``eigvalsh`` do not see, as they read one
    triangle; else NumericalError."""
    _state_cutoff(1, rho_a, rho_b)
    if not (np.isfinite(rho_a).all() and np.isfinite(rho_b).all()):
        raise NumericalError("state has a non-finite entry")


def oracle_s_overlap(rho0: np.ndarray, rho1: np.ndarray, s: float) -> float:
    """Tr(rho0^s rho1^(1-s)) from the :func:`_fractional_power` of both operators."""
    check_order(s)
    _oracle_pair(rho0, rho1)
    a = _fractional_power(rho0, s)
    b = _fractional_power(rho1, 1.0 - s)
    return float(np.sum(a * b.T).real)


def oracle_fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))^2``.

    On the :func:`_support` ``(lam, V)`` of ``a``, ``sqrt(a) = V diag(r) V^H``
    with ``r = sqrt(lam)``, so the nonzero eigenvalues of ``sqrt(a) b sqrt(a)``
    are those of ``(V^H b V) * outer(r, r)``: exact, and one ``eigvalsh`` of
    support size.  For a number-diagonal ``a`` such as a thermal state,
    ``V^H b V`` is the sub-block of ``b`` on the kept number states, so neither
    an ``eigh`` of ``a`` nor a dense product runs.

    The support is ordered largest first, so the block's entries shrink down
    its rows and columns.  ``eigvalsh`` keeps the small eigenvalues of that
    grading far better than of the reverse one: over 40 seeded thermal and
    displaced thermal pairs at cutoffs 20 to 60, rotating both states by a
    random unitary moved the fidelity by at most 8.4e-14 in this order and by
    3.4e-8 smallest first.  Only the block of ``b`` on the support of ``a``
    enters; a non-finite entry of either state is a NumericalError.
    """
    _oracle_pair(rho_a, rho_b)
    lam, basis = _support(rho_a)
    root = np.sqrt(lam)
    if basis.ndim == 1:
        block = rho_b[np.ix_(basis, basis)]
    else:
        block = basis.conj().T @ rho_b @ basis
    block = block * np.outer(root, root)
    eigvals = checked_eigh(block, values_only=True)
    return float(np.sum(np.sqrt(np.maximum(eigvals, 0.0))) ** 2)


def s_overlap_curve(mu: float, s_values, config: FockConfig) -> dict[float, float]:
    """Oracle overlaps of the encoded pair for several orders at one cutoff.

    With ``rho = V M V^T`` and ``M`` diagonal (:func:`_sector_form`), and the
    uncorrelated state ``D_N`` on each sector, ``Tr(D^s rho^(1-s)) = sum_N
    D_N^s M_NN^(1-s)`` over the :func:`_clamped` weights: no eigensolve, and all
    orders are one array expression.
    """
    orders = [float(check_order(s)) for s in s_values]
    mu = check_mu(mu)
    single = _thermal_diagonal((mu - 1.0) / 2.0, config)
    # D_N at the box state (0, N) for N < cutoff, then at (cutoff - 1, N - cutoff + 1)
    thermal = np.concatenate([single[0] * single, single[-1] * single[1:]])
    weights = _clamped(_sector_form(mu, config))
    s = np.array(orders)[:, None]
    return dict(zip(orders, (thermal**s * weights ** (1.0 - s)).sum(axis=1).tolist()))


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
    cutoff = _state_cutoff(n_modes, rho)
    # the int, so that n_modes=2.0 behaves the same whatever the cache holds
    modes, cross, quadratures = _ladder_weights(cutoff, int(n_modes))

    def band(offset: int, weight: np.ndarray) -> list:
        # <L>, <L^dag> for the L with entries ``weight`` on the band ``offset`` above the diagonal
        return [np.dot(rho.diagonal(k), weight) for k in (-offset, offset)]

    first, second = [], []
    for rise, square, middle in modes:
        first += band(*rise)
        lowered, raised = band(*square)
        centre = np.dot(rho.diagonal(), middle)
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
    cutoff = _state_cutoff(2, rho)
    tensor = rho.reshape(cutoff, cutoff, cutoff, cutoff)
    if keep == 0:
        return np.einsum("ijkj->ik", tensor)
    if keep == 1:
        return np.einsum("ijil->jl", tensor)
    raise DomainError("keep must be 0 or 1")
