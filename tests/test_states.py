import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdisc import (
    OMEGA,
    DomainError,
    NumericalError,
    SymmetricTwoModeCM,
    check_bona_fide,
    make_state_one,
    make_state_zero,
    make_symmetric_state,
    williamson_numeric,
    williamson_symmetric,
)
from gaussdisc.states import _BALANCED_MIX, _SYMMETRIC_DIAGONALIZER


def symplectic_spectrum_oracle(v):
    """Independent route: moduli of the eigenvalues of OMEGA @ V."""
    return np.sort(np.abs(np.linalg.eigvals(OMEGA @ v)))


def test_state_zero_vacuum_is_identity():
    cm = make_state_zero(1.0)
    assert np.array_equal(cm.matrix(), np.eye(4))


def test_state_zero_thermal():
    cm = make_state_zero(2.0)
    assert np.array_equal(cm.matrix(), np.diag([2.0, 2.0, 2.0, 2.0]))
    assert cm.mean_photons == 0.5


def test_state_zero_rejects_mu_below_one():
    with pytest.raises(DomainError):
        make_state_zero(0.5)


def test_state_one_at_mu_one_is_uncorrelated():
    assert make_state_one(1.0) == make_state_zero(1.0)


def test_state_one_is_bona_fide():
    # the state sits on the separability edge, where the expanded bona-fide
    # inequality holds with equality; rounding once failed it at 25.69632426980148
    rng = np.random.default_rng(0)
    sample = [*1.0 + 10.0 ** rng.uniform(-12, 6, 20), *rng.uniform(1.0, 50.0, 20)]
    for mu in (2.0, 25.69632426980148, *map(float, sample)):
        ok, violations = check_bona_fide(make_state_one(mu))
        assert ok and violations == [], mu


def test_state_one_spectrum_against_eigenvalue_oracle():
    v = make_state_one(3.0).matrix()
    spectrum = symplectic_spectrum_oracle(v)
    np.testing.assert_allclose(spectrum, [1.0, 1.0, 5.0, 5.0], atol=1e-10)


def test_state_one_rejects_mu_below_one():
    with pytest.raises(DomainError):
        make_state_one(0.99)


def test_make_symmetric_state_enforces_separability_edge():
    make_symmetric_state(2.0, 1.0)
    with pytest.raises(DomainError):
        make_symmetric_state(2.0, 1.2)


@pytest.mark.parametrize(
    "cm, expected",
    [
        (SymmetricTwoModeCM(2.0, 1.0, 1.0), True),
        (SymmetricTwoModeCM(2.0, 2.0, 2.0), False),  # |g| = mu
        (SymmetricTwoModeCM(2.0, 1.0, -1.0), True),  # 4 - 1 - 1 = 2 >= 0
        (SymmetricTwoModeCM(0.5, 0.0, 0.0), False),
    ],
)
def test_check_bona_fide(cm, expected):
    ok, violations = check_bona_fide(cm)
    assert ok is expected
    assert bool(violations) is (not expected)


def test_williamson_symmetric_thermal():
    dec = williamson_symmetric(make_state_zero(3.0))
    assert dec.nu_minus == dec.nu_plus == 3.0
    np.testing.assert_allclose(dec.reconstruct(), make_state_zero(3.0).matrix(), atol=1e-10)
    np.testing.assert_allclose(dec.s_matrix @ OMEGA @ dec.s_matrix.T, OMEGA, atol=1e-12)


def test_williamson_symmetric_correlated():
    dec = williamson_symmetric(make_state_one(3.0))
    assert dec.nu_minus == pytest.approx(1.0, abs=1e-14)
    assert dec.nu_plus == pytest.approx(5.0, abs=1e-14)


def test_williamson_symmetric_matches_numeric_oracle():
    cm = make_state_one(2.0)
    dec = williamson_symmetric(cm)
    spectrum = symplectic_spectrum_oracle(cm.matrix())
    assert dec.nu_minus == pytest.approx(spectrum[0], abs=1e-10)
    assert dec.nu_plus == pytest.approx(spectrum[-1], abs=1e-10)


def test_williamson_symmetric_requires_equal_correlations():
    with pytest.raises(DomainError):
        williamson_symmetric(SymmetricTwoModeCM(2.0, 1.0, 0.5))


def test_williamson_symmetric_negative_correlation():
    dec = williamson_symmetric(make_symmetric_state(3.0, -1.5))
    assert dec.nu_minus == pytest.approx(1.5)
    assert dec.nu_plus == pytest.approx(4.5)
    np.testing.assert_allclose(
        dec.reconstruct(), make_symmetric_state(3.0, -1.5).matrix(), atol=1e-10
    )
    np.testing.assert_allclose(dec.s_matrix @ OMEGA @ dec.s_matrix.T, OMEGA, atol=1e-12)


def _assert_degenerate_williamson(v, nu):
    dec = williamson_numeric(v)
    assert dec.nu_minus == pytest.approx(nu, abs=1e-12)
    assert dec.nu_plus == pytest.approx(nu, abs=1e-12)
    np.testing.assert_allclose(dec.reconstruct(), v, atol=1e-10)
    np.testing.assert_allclose(dec.s_matrix @ OMEGA @ dec.s_matrix.T, OMEGA, atol=1e-12)


def test_williamson_numeric_identity():
    _assert_degenerate_williamson(np.eye(4), 1.0)


@pytest.mark.parametrize("mu", [1.5, 3.0, 50.0])
def test_williamson_numeric_thermal_pair(mu):
    # nu_minus == nu_plus: every basis of the degenerate eigenspace must do
    _assert_degenerate_williamson(make_state_zero(mu).matrix(), mu)


def test_williamson_numeric_rejects_non_positive_definite():
    with pytest.raises(DomainError):
        williamson_numeric(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_williamson_numeric_rejects_non_symmetric():
    bad = np.eye(4)
    bad[0, 1] = 0.3
    with pytest.raises(DomainError):
        williamson_numeric(bad)


def _entry(value, at=(0, 1)):
    v = 2.0 * np.eye(4)
    v[at] = value
    return v


def _opposite_infinities():
    v = _entry(np.inf)
    v[1, 0] = -np.inf
    return v


@pytest.mark.parametrize(
    "v, error, message",
    [
        (np.diag([np.inf, 1.0, 1.0, 1.0]), NumericalError, "eigendecomposition failed: "),
        (_entry(np.nan), DomainError, "covariance matrix must be symmetric"),
        (_entry(np.nan, (0, 0)), DomainError, "covariance matrix must be symmetric"),
        (_entry(1e-11), DomainError, "covariance matrix must be symmetric"),
        (_opposite_infinities(), DomainError, "covariance matrix must be symmetric"),
    ],
)
def test_williamson_numeric_symmetry_verdicts(v, error, message):
    # the verdicts of np.allclose(v, v.T, atol=1e-12), with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{message}"):
            williamson_numeric(v)


def test_williamson_numeric_forgives_an_asymmetry_within_the_tolerance():
    dec = williamson_numeric(_entry(5e-13))
    np.testing.assert_allclose(dec.reconstruct(), 2.0 * np.eye(4), atol=1e-12)


def test_williamson_numeric_handles_unequal_correlations():
    cm = SymmetricTwoModeCM(2.0, 1.0, -1.0)
    dec = williamson_numeric(cm)
    np.testing.assert_allclose(dec.reconstruct(), cm.matrix(), atol=1e-10)
    np.testing.assert_allclose(dec.s_matrix @ OMEGA @ dec.s_matrix.T, OMEGA, atol=1e-12)
    # symplectic invariants: product = sqrt(det), here det = (mu^2 - g^2)^... = 9
    assert dec.nu_minus * dec.nu_plus == pytest.approx(np.sqrt(np.linalg.det(cm.matrix())))


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _direct_sum(a, b):
    return np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])


angles = st.floats(0.0, 2.0 * np.pi)
squeezings = st.floats(0.5, 2.0)
symplectic_values = st.floats(1.0, 50.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    nus=st.tuples(symplectic_values, symplectic_values),
    phases=st.tuples(angles, angles, angles, angles),
    squeezing=st.tuples(squeezings, squeezings),
    mixing=angles,
)
def test_williamson_numeric_generic_covariance(nus, phases, squeezing, mixing):
    # phase rotations, single-mode squeezers and a beam splitter are all
    # symplectic, so V has the symplectic spectrum nus but is not a normal form
    r1, r2 = squeezing
    squeeze = _direct_sum(np.diag([np.exp(-r1), np.exp(r1)]), np.diag([np.exp(r2), np.exp(-r2)]))
    c, s = np.cos(mixing), np.sin(mixing)
    splitter = np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
    symp = (
        _direct_sum(_rotation(phases[0]), _rotation(phases[1]))
        @ squeeze
        @ splitter
        @ _direct_sum(_rotation(phases[2]), _rotation(phases[3]))
    )
    v = symp @ np.diag([nus[0], nus[0], nus[1], nus[1]]) @ symp.T
    dec = williamson_numeric(v)
    np.testing.assert_allclose([dec.nu_minus, dec.nu_plus], sorted(nus), rtol=1e-9)
    assert np.abs(dec.reconstruct() - v).max() <= 1e-9 * np.abs(v).max()
    np.testing.assert_allclose(dec.s_matrix @ OMEGA @ dec.s_matrix.T, OMEGA, atol=1e-10)


def test_decomposition_paths_agree_on_random_grid():
    rng = np.random.default_rng(42)
    for _ in range(300):
        mu = rng.uniform(1.0, 50.0)
        g = rng.uniform(0.0, mu - 1.0)
        cm = make_symmetric_state(mu, g)
        closed = williamson_symmetric(cm)
        numeric = williamson_numeric(cm)
        assert abs(closed.nu_minus - numeric.nu_minus) < 1e-10
        assert abs(closed.nu_plus - numeric.nu_plus) < 1e-10
        for dec in (closed, numeric):
            assert dec.nu_minus <= dec.nu_plus
            assert dec.nu_minus >= 1.0 - 1e-12
            np.testing.assert_allclose(dec.reconstruct(), cm.matrix(), atol=1e-10)
            np.testing.assert_allclose(
                dec.s_matrix @ OMEGA @ dec.s_matrix.T, OMEGA, atol=1e-12
            )


def test_balanced_mix_is_orthogonal_but_not_symplectic():
    o = _BALANCED_MIX
    np.testing.assert_allclose(o @ o.T, np.eye(4), atol=1e-15)
    assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-14)
    assert np.abs(o @ OMEGA @ o.T - OMEGA).max() > 0.5  # rotation alone flips the form
    s = _SYMMETRIC_DIAGONALIZER
    np.testing.assert_allclose(s @ OMEGA @ s.T, OMEGA, atol=1e-15)
