import itertools
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gaussdisc import (
    ConvergenceError,
    DomainError,
    FockConfig,
    NumericalError,
    build_correlated,
    build_thermal,
    build_thermal_product,
    coherent_state,
    displaced_thermal,
    fidelity_heterodyne,
    heterodyne_epsilon,
    make_state_one,
    oracle_fidelity,
    oracle_s_overlap,
    partial_trace,
    quadrature_moments,
    s_overlap_converged,
    s_overlap_curve,
    s_overlap_global,
)
import gaussdisc as gd
from gaussdisc import fock
from gaussdisc.fock import EIG_CLAMP, destroy

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def test_fock_config_validation():
    with pytest.raises(DomainError):
        FockConfig(3)
    with pytest.raises(DomainError):
        FockConfig(10, modulation_nodes=4)
    with pytest.raises(DomainError):
        FockConfig(10, convergence_tol=0.0)


def test_thermal_vacuum_is_projector():
    rho = build_thermal(0.0, FockConfig(6))
    expected = np.zeros((6, 6))
    expected[0, 0] = 1.0
    assert np.array_equal(rho, expected)


def test_thermal_trace_nearly_one():
    rho = build_thermal(0.5, FockConfig(30, convergence_tol=1e-9))
    assert np.trace(rho) > 1.0 - 1e-9
    assert np.trace(rho) <= 1.0


def test_thermal_heavy_tail_raises():
    with pytest.raises(ConvergenceError):
        build_thermal(10.0, FockConfig(8))


def test_coherent_state_normalization_and_mean():
    vec = coherent_state(0.6 + 0.3j, 40)
    assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-12)
    rho = np.outer(vec, vec.conj())
    mean, cm = quadrature_moments(rho)
    np.testing.assert_allclose(mean, [1.2, 0.6], atol=1e-10)
    np.testing.assert_allclose(cm, np.eye(2), atol=1e-8)


def test_correlated_state_at_mu_one_is_double_vacuum():
    rho = build_correlated(1.0, FockConfig(4, 8))
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(rho).sum() == pytest.approx(1.0, abs=1e-12)


def test_correlated_state_moments_match_target():
    mu = 1.5
    rho = build_correlated(mu, FockConfig(20, 16))
    mean, cm = quadrature_moments(rho, n_modes=2)
    # block diagonal in the total photon number, which a ladder step changes
    assert np.array_equal(mean, np.zeros(4))
    np.testing.assert_allclose(cm, make_state_one(mu).matrix(), atol=1e-4)


def test_correlated_state_reduces_to_thermal():
    mu = 1.5
    config = FockConfig(20, 16)
    rho = build_correlated(mu, config)
    thermal = build_thermal((mu - 1.0) / 2.0, config)
    for mode in (0, 1):
        reduced = partial_trace(rho, mode)
        assert np.abs(reduced - thermal).max() < 1e-4


def test_thermal_product_moments():
    rho = build_thermal_product(2.0, FockConfig(24))
    _, cm = quadrature_moments(rho, n_modes=2)
    np.testing.assert_allclose(cm, 2.0 * np.eye(4), atol=1e-6)


@pytest.mark.parametrize("cutoff", [12, 24])
def test_thermal_product_equals_kronecker_form(cutoff):
    config = FockConfig(cutoff)
    single = build_thermal(0.4, config)
    assert np.array_equal(build_thermal_product(1.8, config), np.kron(single, single))


def _written_out_elements(mu, cutoff):
    # <m, n| rho |m', n'> = delta(K, K') K! nbar^K / ((2 nbar + 1)^(K + 1)
    # sqrt(m! n! m'! n'!)), K = m + n: the Gaussian mixture's integral, one element at a time
    nbar, f = (mu - 1.0) / 2.0, math.factorial
    rho = np.zeros((cutoff**2, cutoff**2))
    for m, n, m2 in itertools.product(range(cutoff), repeat=3):
        k = m + n
        if 0 <= k - m2 < cutoff:
            rho[m * cutoff + n, m2 * cutoff + k - m2] = (
                f(k) * nbar**k / ((2.0 * nbar + 1.0) ** (k + 1) * math.sqrt(f(m) * f(n) * f(m2) * f(k - m2)))
            )
    return rho


def _written_out_mixture(mu, config):
    # the Gauss-Hermite discretization of the mixture: every node pair's
    # weighted coherent pair, one at a time
    cutoff, nodes = config.cutoff, config.modulation_nodes
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    amp = math.sqrt((mu - 1.0) / 4.0) * t
    columns = []
    for i in range(nodes):
        for j in range(nodes):
            vec = coherent_state(amp[i] + 1j * amp[j], cutoff)
            columns.append(math.sqrt(w[i] * w[j]) * np.kron(vec, vec))
    pairs = np.array(columns).T
    return pairs @ pairs.conj().T


@pytest.mark.parametrize(
    "nodes, cutoff",
    [pytest.param(nodes, 14, id=f"{nodes}") for nodes in (8, 9, 16, 17)]
    # a box whose corner sectors N >= cutoff hold a visible share of the state
    + [pytest.param(9, 13, id="9-cutoff13")],
)
def test_correlated_state_matches_written_out_mixture(nodes, cutoff):
    # the node count is accepted and has no effect
    rho = build_correlated(1.9, FockConfig(cutoff, nodes))
    assert np.abs(rho - _written_out_elements(1.9, cutoff)).max() < 1e-14


def test_node_mixture_converges_to_the_exact_state():
    # the separable coherent-pair construction, discretized, tends to the exact state
    gaps = []
    for nodes in (8, 16, 32):
        config = FockConfig(14, nodes)
        gaps.append(np.abs(_written_out_mixture(1.9, config) - build_correlated(1.9, config)).max())
    assert gaps[0] > gaps[1] > gaps[2]
    config = FockConfig(14, 16)
    assert np.abs(_written_out_mixture(1.5, config) - build_correlated(1.5, config)).max() < 1e-8


@pytest.mark.parametrize("mu", [1.5, 2.0])
@pytest.mark.parametrize("cutoff", [30, 40])
def test_relative_entropy_of_the_fock_pair_is_the_mutual_information(mu, cutoff):
    # D(rho || D) = sum_N M_NN ln(M_NN / D_N), with D_N = (1 - q)^2 q^N the thermal pair
    weights = fock._sector_form(mu, FockConfig(cutoff))
    q = (mu - 1.0) / (mu + 1.0)
    thermal = (1.0 - q) ** 2 * q ** np.arange(len(weights))
    bits = np.sum(weights * np.log(weights / thermal)) / math.log(2.0)
    assert abs(bits - (gd.delta_c(mu) + gd.delta_d(mu))) < 1e-12


def test_oracle_overlap_identical_states():
    rho = build_correlated(1.5, FockConfig(12, 8))
    assert oracle_s_overlap(rho, rho, 0.5) == pytest.approx(1.0, abs=1e-8)


def test_oracle_overlap_swap_symmetry():
    config = FockConfig(14, 10)
    rho0 = build_thermal_product(1.8, config)
    rho1 = build_correlated(1.8, config)
    forward = oracle_s_overlap(rho0, rho1, 0.3)
    backward = oracle_s_overlap(rho1, rho0, 0.7)
    assert forward == pytest.approx(backward, abs=1e-8)


def test_oracle_overlap_rejects_bad_order():
    rho = build_thermal_product(1.5, FockConfig(10))
    with pytest.raises(DomainError):
        oracle_s_overlap(rho, rho, 1.0)


def test_oracle_matches_closed_form_quickly():
    config = FockConfig(16, 12)
    curve = s_overlap_curve(2.0, [0.5], config)
    # what is left is the cutoff's: the box cuts the sectors N >= 16
    assert abs(curve[0.5] - s_overlap_global(2.0, 0.5)) < 1e-9


def test_curve_agrees_with_generic_operator_route():
    # routes differ only through the clamped thermal tail, far below 1e-8
    config = FockConfig(14, 10)
    curve = s_overlap_curve(1.7, [0.4], config)
    rho0 = build_thermal_product(1.7, config)
    rho1 = build_correlated(1.7, config)
    assert curve[0.4] == pytest.approx(oracle_s_overlap(rho0, rho1, 0.4), abs=1e-8)


def test_oracle_error_shrinks_with_cutoff():
    closed = s_overlap_global(2.0, 0.5)
    errors = []
    for cutoff in (6, 8, 10):
        config = FockConfig(cutoff, 12, convergence_tol=1e-2)
        errors.append(abs(s_overlap_curve(2.0, [0.5], config)[0.5] - closed))
    assert errors[0] > errors[1] > errors[2]


def test_doubling_protocol_accepts_converged_setup():
    values = s_overlap_converged(1.5, [0.5], FockConfig(12, 12))
    assert abs(values[0.5] - s_overlap_global(1.5, 0.5)) < 1e-10


def test_doubling_protocol_rejects_coarse_cutoff():
    with pytest.raises(ConvergenceError):
        s_overlap_converged(2.0, [0.5], FockConfig(8, 12, convergence_tol=1e-2))


def test_oracle_fidelity_identical_states():
    rho = build_thermal(0.5, FockConfig(40))
    assert oracle_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)


def test_oracle_fidelity_coherent_overlap():
    # vacuum against a displaced vacuum: F = exp(-|alpha|^2)
    cutoff = 50
    vac = displaced_thermal(0.0, (0.0, 0.0), cutoff)
    alpha = 0.5 + 0.25j
    moved = displaced_thermal(0.0, (2.0 * alpha.real, 2.0 * alpha.imag), cutoff)
    assert oracle_fidelity(vac, moved) == pytest.approx(
        math.exp(-abs(alpha) ** 2), abs=1e-10
    )


def test_oracle_fidelity_matches_heterodyne_closed_form():
    mu, cutoff = 2.0, 50
    eps = heterodyne_epsilon(mu)
    rho_a = build_thermal((mu - 1.0) / 2.0, FockConfig(cutoff))
    a = np.array([1.0, 0.0])
    rho_b = displaced_thermal(eps / 2.0, (eps / math.sqrt(2.0)) * a, cutoff)
    assert oracle_fidelity(rho_a, rho_b) == pytest.approx(
        fidelity_heterodyne(mu, a), abs=1e-4
    )


def _random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


@pytest.mark.parametrize("seed", range(24))
def test_oracle_fidelity_is_unitarily_invariant_and_symmetric(seed):
    # the plain call takes the number-diagonal support of the thermal state,
    # the rotated one an eigh; both order the support largest first
    rng = np.random.default_rng(seed)
    cutoff, n_bar = int(rng.integers(20, 61)), rng.uniform(0.02, 0.8)
    a = build_thermal(n_bar, FockConfig(cutoff))
    b = displaced_thermal(n_bar, rng.uniform(-1.5, 1.5, 2), cutoff)
    q = _random_unitary(rng, cutoff)
    fidelity = oracle_fidelity(a, b)
    assert abs(oracle_fidelity(q @ a @ q.conj().T, q @ b @ q.conj().T) - fidelity) < 1e-12
    assert abs(oracle_fidelity(b, a) - fidelity) < 1e-9


def test_number_diagonal_support_runs_one_eigh_of_support_size(monkeypatch):
    sizes = []

    def counted(matrix, values_only=False):
        sizes.append(matrix.shape)
        return np.linalg.eigvalsh(matrix) if values_only else np.linalg.eigh(matrix)

    a = build_thermal(0.4, FockConfig(60))
    b = displaced_thermal(0.2, (0.5, -0.3), 60)
    lam, basis = fock._support(a)
    assert basis.ndim == 1 and len(lam) == len(basis) < 60
    assert np.all(np.diff(lam) < 0.0) and lam.min() >= EIG_CLAMP
    monkeypatch.setattr(fock, "checked_eigh", counted)
    oracle_fidelity(a, b)
    assert sizes == [(len(basis), len(basis))]


def test_fractional_power_of_a_number_diagonal_state_matches_its_rotation():
    a = build_thermal(0.4, FockConfig(30))
    b = displaced_thermal(0.2, (0.5, -0.3), 30)
    q = _random_unitary(np.random.default_rng(5), 30)
    for power in (0.3, 0.5, 0.7):
        diagonal = fock._fractional_power(a, power)
        rotated = fock._fractional_power(q @ a @ q.conj().T, power)
        # a small power amplifies the eigensolver's noise on eigenvalues near EIG_CLAMP
        assert np.abs(q @ diagonal @ q.conj().T - rotated).max() < 1e-8
        plain = oracle_s_overlap(a, b, power)
        assert abs(oracle_s_overlap(q @ a @ q.conj().T, q @ b @ q.conj().T, power) - plain) < 1e-12


def _with_entry(rho, value, at=(1, 1)):
    rho = rho.astype(complex)
    rho[at] = value
    return rho


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda a, b, bad: oracle_fidelity(_with_entry(a, bad), b),
        lambda a, b, bad: oracle_fidelity(a, _with_entry(b, bad)),
        # in the triangle of the support block that eigvalsh does not read
        lambda a, b, bad: oracle_fidelity(a, _with_entry(b, bad, (0, 1))),
        lambda a, b, bad: oracle_s_overlap(_with_entry(a, bad), b, 0.5),
        lambda a, b, bad: oracle_s_overlap(a, _with_entry(b, bad), 0.5),
        # in the triangle that eigh does not read
        lambda a, b, bad: oracle_fidelity(_with_entry(a, bad, (0, 1)), b),
        lambda a, b, bad: oracle_s_overlap(_with_entry(a, bad, (0, 1)), b, 0.5),
        lambda a, b, bad: oracle_s_overlap(a, _with_entry(b, bad, (0, 1)), 0.5),
    ],
    ids=[
        "fidelity-a", "fidelity-b", "fidelity-b-upper", "overlap-0", "overlap-1",
        "fidelity-a-upper", "overlap-0-upper", "overlap-1-upper",
    ],
)
def test_non_finite_state_is_a_numerical_error(call, bad):
    a = build_thermal(0.4, FockConfig(20))
    b = displaced_thermal(0.2, (0.5, -0.3), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^state has a non-finite entry$"):
            call(a, b, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_diagonal_names_the_eigenvalue(bad):
    rho = _with_entry(build_thermal(0.4, FockConfig(20)), bad)
    with pytest.raises(NumericalError, match="^operator has a non-finite eigenvalue$"):
        fock._support(rho)


def test_partial_trace_validation():
    rho = build_thermal_product(1.5, FockConfig(10))
    with pytest.raises(DomainError):
        partial_trace(rho, 2)
    with pytest.raises(DomainError):
        partial_trace(np.eye(10), 0)


def _dense_s_overlap_curve(mu, s_values, config):
    # dense eigendecomposition of the full cutoff**2 x cutoff**2 state
    thermal_diag = np.diag(build_thermal_product(mu, config))
    eigvals, eigvecs = np.linalg.eigh(build_correlated(mu, config))
    eigvals = np.where(eigvals < EIG_CLAMP, 0.0, eigvals)
    return {s: thermal_diag**s @ (eigvecs**2 @ eigvals ** (1.0 - s)) for s in s_values}


@pytest.mark.parametrize(
    "mu, config",
    [pytest.param(mu, FockConfig(40, 16), id=f"{mu}") for mu in (1.1, 1.8, 2.45)]
    + [pytest.param(mu, FockConfig(20, 9), id=f"{mu}-odd") for mu in (1.1, 1.8, 2.45)]
    # a box that cuts off a visible share of the sectors N >= cutoff, and the vacuum pair
    + [pytest.param(2.45, FockConfig(13, 9, convergence_tol=1e-2), id="2.45-cutoff13")]
    + [pytest.param(1.0, FockConfig(20, 16), id="1.0")]
    # odd node counts, accepted with no effect
    + [pytest.param(1.9, FockConfig(14, nodes), id=f"1.9-nodes{nodes}") for nodes in (9, 17)],
)
def test_low_rank_curve_matches_dense_spectrum(mu, config):
    curve = s_overlap_curve(mu, [0.1, 0.9], config)
    dense = _dense_s_overlap_curve(mu, [0.1, 0.9], config)
    for s in (0.1, 0.9):
        assert abs(curve[s] - dense[s]) < 1e-12


def test_curve_checks_every_order_before_linear_algebra(monkeypatch):
    def unreachable(mu, config):
        raise AssertionError("sector weights before the order check")

    monkeypatch.setattr(fock, "_sector_form", unreachable)
    with pytest.raises(DomainError):
        s_overlap_curve(1.5, [0.5, 1.0], FockConfig(12, 8))


def _kronecker_moments(rho, n_modes):
    # the definition: every moment as a trace against a full-space operator
    cutoff = rho.shape[0] if n_modes == 1 else math.isqrt(rho.shape[0])
    a = destroy(cutoff)
    x, p = a + a.T, -1j * (a - a.T)
    eye = np.eye(cutoff)
    if n_modes == 1:
        ops = [x, p]
    else:
        ops = [np.kron(x, eye), np.kron(p, eye), np.kron(eye, x), np.kron(eye, p)]
    mean = np.array([np.trace(rho @ op).real for op in ops])
    cm = np.array(
        [[0.5 * np.trace(rho @ (oi @ oj + oj @ oi)).real for oj in ops] for oi in ops]
    )
    return mean, cm - np.outer(mean, mean)


@pytest.mark.parametrize("dim, n_modes", [(36, 2), (9, 1), (400, 2)])
def test_moments_match_kronecker_definition_on_random_states(dim, n_modes):
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    mean, cm = quadrature_moments(rho, n_modes)
    ref_mean, ref_cm = _kronecker_moments(rho, n_modes)
    np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cm, ref_cm, rtol=0, atol=1e-12)


def test_moments_match_kronecker_definition_on_correlated_state():
    rho = build_correlated(1.8, FockConfig(12, 10))
    for got, ref in zip(quadrature_moments(rho, 2), _kronecker_moments(rho, 2)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_moments_match_kronecker_definition_at_the_oracle_cutoff():
    # real and symmetric, with the odd node count's middle row
    rho = build_correlated(2.45, FockConfig(20, 17))
    for got, ref in zip(quadrature_moments(rho, 2), _kronecker_moments(rho, 2)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_modes", [1, 2])
def test_moments_keep_the_truncated_top_level(n_modes):
    # on the last level the truncated a a^dag is 0, not cutoff, and a cannot raise
    cutoff = 6
    top = np.zeros((cutoff,) * n_modes)
    top[(-1,) * n_modes] = 1.0
    mean, cm = quadrature_moments(np.diag(top.ravel()), n_modes)
    np.testing.assert_array_equal(mean, np.zeros(2 * n_modes))
    np.testing.assert_allclose(cm, (cutoff - 1.0) * np.eye(2 * n_modes), rtol=0, atol=1e-12)
    # a superposition of the top three levels of each mode, correlated across the modes
    rng = np.random.default_rng(6)
    corner = rng.standard_normal((2,) + (3,) * n_modes)
    psi = np.zeros((cutoff,) * n_modes, complex)
    psi[(slice(-3, None),) * n_modes] = corner[0] + 1j * corner[1]
    psi = psi.ravel() / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    for got, ref in zip(quadrature_moments(rho, n_modes), _kronecker_moments(rho, n_modes)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_moments_reject_unsupported_shapes():
    with pytest.raises(DomainError, match="^only one- and two-mode states are supported"):
        quadrature_moments(np.eye(16) / 16.0, 3)
    for call in (
        lambda: quadrature_moments(np.eye(10) / 10.0, 2),
        lambda: partial_trace(np.eye(10) / 10.0, 0),
    ):
        with pytest.raises(DomainError, match="^dimension 10 is not a square$"):
            call()
    for call in (
        lambda: oracle_s_overlap(np.eye(4) / 4.0, np.eye(5) / 5.0, 0.5),
        lambda: oracle_fidelity(np.eye(4) / 4.0, np.eye(5) / 5.0),
    ):
        with pytest.raises(DomainError, match="^states must have the same dimension, got 4 and 5$"):
            call()
    empty = np.zeros((0, 0))
    for call in (
        lambda: quadrature_moments(empty),
        lambda: quadrature_moments(empty, 2),
        lambda: partial_trace(empty, 0),
        lambda: oracle_s_overlap(empty, empty, 0.5),
        lambda: oracle_fidelity(empty, empty),
    ):
        with pytest.raises(DomainError, match=r"^state must not be empty, got shape \(0, 0\)$"):
            call()


@pytest.mark.parametrize(
    "shape, n_modes",
    [((16, 20), 2), ((20, 16), 2), ((5, 4), 1), ((16,), 1), ((4, 4, 4), 2), ((4, 5), 1)],
)
def test_moments_reject_non_square_states(shape, n_modes):
    rho = np.ones(shape)
    for call in (
        lambda: quadrature_moments(rho, n_modes),
        lambda: partial_trace(rho, 0),
        lambda: oracle_s_overlap(rho, np.eye(shape[0]), 0.5),
        lambda: oracle_s_overlap(np.eye(shape[0]), rho, 0.5),
        lambda: oracle_fidelity(rho, np.eye(shape[0])),
    ):
        with pytest.raises(DomainError, match=r"^state must be a square matrix, got shape \("):
            call()


@pytest.mark.parametrize("n_bar, mean", [(0.3, (0.4, -1.1)), (1.2, (2.0, 0.5)), (0.05, (-3.0, 2.5))])
def test_displacement_matches_matrix_exponential(n_bar, mean):
    from scipy.linalg import expm

    cutoff = 60
    alpha = (mean[0] + 1j * mean[1]) / 2.0
    # a generator truncated at the cutoff itself wraps the displaced state
    # around; one four times larger is exact on the kept block to rounding
    a = destroy(4 * cutoff)
    op = expm(alpha * a.T - np.conj(alpha) * a)[:cutoff, :cutoff]
    expected = op @ build_thermal(n_bar, FockConfig(cutoff)) @ op.conj().T
    got = displaced_thermal(n_bar, mean, cutoff)
    assert np.abs(got - expected).max() < 1e-13


@pytest.mark.parametrize("n_bar", [0.0, 0.2])
def test_displacement_past_the_cutoff_loses_trace(n_bar):
    # mean photon number 36 at cutoff 20: the displacement must not wrap around
    with pytest.raises(ConvergenceError):
        displaced_thermal(n_bar, (12.0, 0.0), 20)


def test_cached_rules_are_read_only_and_rebuild_identically():
    def hexes(rho):
        return [x.hex() for x in rho.view(float).ravel().tolist()]

    def ladder_arrays(cutoff, n_modes):
        modes, cross, quadratures = fock._ladder_weights(cutoff, n_modes)
        arrays = [quadratures, *(weight for _, weight in cross)]
        for (_, rise), (_, square), middle in modes:
            arrays += [rise, square, middle]
        return arrays

    cached = displaced_thermal(0.3, (0.4, -1.1), 20)
    curve = s_overlap_curve(1.8, [0.3, 0.7], FockConfig(12, 16))
    rho = build_correlated(1.6, FockConfig(10, 9))
    moments = [*quadrature_moments(rho, 2), *quadrature_moments(cached, 1)]
    rules = [*fock._position_spectrum(20), *ladder_arrays(10, 2), *ladder_arrays(20, 1)]
    rules += [*fock._sector_weights(12), *fock._sector_weights(10), *fock._sector_pairs(10)]
    for array in rules:
        with pytest.raises(ValueError):
            array[0] = 0.0
    caches = (fock._position_spectrum, fock._ladder_weights, fock._sector_weights, fock._sector_pairs)
    for cache in caches:
        cache.cache_clear()
    assert hexes(displaced_thermal(0.3, (0.4, -1.1), 20)) == hexes(cached)
    assert s_overlap_curve(1.8, [0.3, 0.7], FockConfig(12, 16)) == curve
    assert hexes(build_correlated(1.6, FockConfig(10, 9))) == hexes(rho)
    again = [*quadrature_moments(rho, 2), *quadrature_moments(cached, 1)]
    assert [hexes(x) for x in again] == [hexes(x) for x in moments]
    # a fresh state each call, though its pairs are cached
    assert rho.flags.writeable


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_thermal(math.nan, FockConfig(10)),
        lambda: build_thermal(math.inf, FockConfig(10)),
        lambda: FockConfig(10, convergence_tol=math.nan),
        lambda: FockConfig(10, convergence_tol=math.inf),
        lambda: displaced_thermal(0.2, (math.nan, 0.0), 20),
        lambda: displaced_thermal(0.0, (0.0, math.inf), 20),
        lambda: fock.coherent_state(math.nan, 4),
        lambda: FockConfig(math.nan),
        lambda: FockConfig(10.5),
        lambda: FockConfig(10, modulation_nodes=math.inf),
        lambda: gd.fidelity_heterodyne(2.0, (math.nan, 0.0)),
        lambda: gd.fidelity_heterodyne(2.0, (math.inf, 0.0)),
        lambda: gd.GaussianPovm(eta=math.nan),
        lambda: gd.GaussianPovm(eta=math.inf),
        lambda: gd.GaussianPovm(lam=math.nan),
        lambda: gd.GaussianPovm(lam=math.inf),
        lambda: gd.averaged_fidelity_bound(2.0, math.nan),
        lambda: gd.entropy_h(math.nan),
        lambda: gd.entropy_h(math.inf),
        lambda: gd.multicopy_p_upper(2.0, math.nan),
        lambda: gd.multicopy_p_upper(2.0, math.inf),
        lambda: gd.check_bona_fide(gd.SymmetricTwoModeCM(math.nan, 0.0, 0.0)),
        lambda: gd.check_bona_fide(gd.SymmetricTwoModeCM(2.0, 0.0, math.inf)),
        lambda: gd.gaussian_fidelity_one_mode([[math.nan, 0.0], [0.0, 1.0]], np.eye(2), (0, 0)),
        lambda: gd.gaussian_fidelity_one_mode(np.eye(2), [[1.0, math.inf], [0.0, 1.0]], (0, 0)),
        lambda: gd.gaussian_fidelity_one_mode(np.eye(2), np.eye(2), (math.nan, 0.0)),
    ],
)
def test_non_finite_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        # a displacement is a pair (x, p)
        lambda: gd.fidelity_heterodyne(2.0, (1.0, 2.0, 3.0)),
        lambda: gd.fidelity_heterodyne(2.0, 1.0),
        lambda: gd.fidelity_heterodyne(2.0, ((1.0, 0.0),)),
        lambda: displaced_thermal(0.2, (1.0, 0.0, 5.0), 20),
        lambda: displaced_thermal(0.2, 1.0, 20),
        # a cutoff is a positive integer
        lambda: fock.coherent_state(0.5, 10.5),
        lambda: fock.destroy(10.5),
        lambda: fock.coherent_state(0.5, 0),
        lambda: fock.coherent_state(0.5, -3),
        lambda: fock.destroy(0),
        lambda: fock.destroy(-2),
        # the one-mode fidelity takes 2x2 covariances and a pair (x, p)
        lambda: gd.gaussian_fidelity_one_mode(np.eye(3), np.eye(3), (0.0, 0.0)),
        lambda: gd.gaussian_fidelity_one_mode(np.eye(2), np.eye(2), (0.0, 0.0, 0.0)),
    ],
)
def test_malformed_input_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_oracle_and_verify_ops_load_no_scipy():
    code = """
import sys
import gaussdisc as gd
config = gd.FockConfig(12, 10)
gd.s_overlap_converged(1.8, [0.3, 0.5, 0.7], config)
gd.quadrature_moments(gd.build_correlated(1.8, config), 2)
rho_a = gd.build_thermal(0.4, gd.FockConfig(60))
rho_b = gd.displaced_thermal(0.2, (0.5, -0.3), 60)
gd.oracle_fidelity(rho_a, rho_b)
gd.verify_heterodyne_optimality(2.0, 1.0, 0.5)
gd.verify_fidelity_optimality(2.0)
gd.williamson_numeric(gd.make_symmetric_state(2.0, 1.0))
gd.discrimination_reports([1.5, 2.0])
print(sorted(m for m in sys.modules if "scipy" in m))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracle_point_beyond_cli_scope():
    # doubled to cutoff 80 and 160, two-mode spaces of 6400 and 25600 dimensions
    for mu, config in ((4.0, FockConfig(40, 16)), (10.0, FockConfig(80))):
        values = s_overlap_converged(mu, (0.3, 0.5, 0.7), config)
        for s, value in values.items():
            assert abs(value - s_overlap_global(mu, s)) < 1e-12
