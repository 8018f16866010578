import importlib.util
import math
import pathlib
import types

import numpy as np
import pytest

from gaussdisc import (
    DomainError,
    GaussianPovm,
    NumericalError,
    ReportFailure,
    averaged_fidelity_bound,
    bhattacharyya_global,
    condition_on_povm,
    fidelity_heterodyne,
    gaussian_fidelity_one_mode,
    heterodyne_epsilon,
    make_symmetric_state,
    p_lower_local,
    p_upper_local,
    qcb_global,
    s_overlap_heterodyne,
    s_overlap_local,
    verify_fidelity_optimality,
    verify_heterodyne_optimality,
)
from gaussdisc.global_bounds import S_INTERVAL, fidelity_error, overlap_weights
from gaussdisc.local_bounds import (
    _NEWTON_TOL,
    _OVERFLOW_MU,
    _RADIAL_RULE,
    _SCAN_SEEDS,
    _START_KNOTS,
    _START_S,
    LAMBDA_SCAN_GRID,
    _averaged_fidelity,
    _fidelity_integrand,
    _heterodyne_sides,
    _log_heterodyne,
    _overlap_at,
    _overlap_state,
    _passes,
    _scan,
    _scan_state,
    _spectra,
    chernoff_overlap_local,
    lower_bound_local,
    overlap_heterodyne,
)

SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)
HET = GaussianPovm.heterodyne()


def test_povm_validation():
    with pytest.raises(DomainError):
        GaussianPovm(eta=0.5)
    with pytest.raises(DomainError):
        GaussianPovm(lam=0.0)
    with pytest.raises(DomainError):
        GaussianPovm(theta=7.0)


def test_heterodyne_covariance_is_identity():
    assert np.array_equal(HET.covariance(), np.eye(2))
    assert HET.is_heterodyne


def test_povm_covariance_symplectic_eigenvalue():
    povm = GaussianPovm(eta=1.7, theta=0.3, lam=2.5)
    cov = povm.covariance()
    assert np.allclose(cov, cov.T)
    assert math.sqrt(np.linalg.det(cov)) == pytest.approx(povm.eta, rel=1e-12)
    assert np.linalg.eigvalsh(cov).min() > 0.0


def test_conditioning_without_correlations():
    prep = condition_on_povm(2.0, 0.0, GaussianPovm(eta=1.3, theta=0.4, lam=2.0))
    assert np.array_equal(prep.v_mod, np.zeros((2, 2)))
    np.testing.assert_allclose(prep.v_cond, 2.0 * np.eye(2), atol=1e-15)


def test_conditioning_heterodyne_case():
    prep = condition_on_povm(2.0, 1.0, HET)
    np.testing.assert_allclose(prep.v_cond, (5.0 / 3.0) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(prep.v_mod, (1.0 / 3.0) * np.eye(2), atol=1e-12)
    assert prep.outcome_gain == pytest.approx(heterodyne_epsilon(2.0) / SQRT2, abs=1e-15)


def test_conditioning_diagonal_squeezed_case():
    prep = condition_on_povm(3.0, 2.0, GaussianPovm(eta=1.0, theta=0.0, lam=2.0))
    assert prep.v_cond[0, 0] == pytest.approx(3.0 - 4.0 / 5.0, abs=1e-12)
    assert prep.v_cond[1, 1] == pytest.approx(3.0 - 4.0 / 3.5, abs=1e-12)
    assert prep.outcome_gain is None


def test_conditioning_complement_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mu = rng.uniform(1.0, 20.0)
        g = rng.uniform(-(mu - 1.0), mu - 1.0)
        povm = GaussianPovm(
            eta=rng.uniform(1.0, 5.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
        )
        prep = condition_on_povm(mu, g, povm)
        np.testing.assert_allclose(prep.v_cond + prep.v_mod, mu * np.eye(2), atol=1e-12)
        assert np.linalg.eigvalsh(prep.v_cond).min() > 0.0
        assert math.sqrt(np.linalg.det(prep.v_cond)) >= 1.0 - 1e-12
        assert np.linalg.eigvalsh(prep.v_mod).min() >= -1e-12


def _overlap_from_matrices(mu, s, prep):
    """The overlap of the conditional pair from ``condition_on_povm``'s matrices."""
    nu = math.sqrt(np.linalg.det(prep.v_cond))
    g_mu, lam_mu = overlap_weights(s, mu)
    g_nu, lam_nu = overlap_weights(1.0 - s, nu)
    sigma = lam_mu * np.eye(2) + lam_nu * prep.v_cond / nu
    return 2.0 * g_mu * g_nu / math.sqrt(np.linalg.det(sigma + prep.v_mod))


def _averaged_fidelity_from_matrices(mu, prep):
    """The averaged fidelity bound from ``condition_on_povm``'s matrices, with
    determinants, a matrix exponent and the full 40 x 40 Gauss-Hermite rule."""
    t, w = np.polynomial.hermite_e.hermegauss(40)
    w = w / w.sum()
    v_a, total = mu * np.eye(2), mu * np.eye(2) + prep.v_cond
    lam = max((np.linalg.det(v_a) - 1.0) * (np.linalg.det(prep.v_cond) - 1.0), 0.0)
    prefactor = 2.0 / (math.sqrt(np.linalg.det(total) + lam) - math.sqrt(lam))
    d = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1) * np.sqrt(np.diag(prep.v_mod))
    exponent = -0.5 * np.einsum("ijk,kl,ijl->ij", d, np.linalg.inv(total), d)
    return float((fidelity_error(prefactor * np.exp(exponent)) * np.multiply.outer(w, w)).sum())


def test_eigenvalue_route_matches_matrix_route():
    # the overlap and the averaged fidelity are evaluated from the seed's two
    # eigenvalues; here they are rebuilt from the rotated matrices
    rng = np.random.default_rng(11)
    for _ in range(100):
        mu = rng.uniform(1.0, 20.0)
        g = rng.uniform(-(mu - 1.0), mu - 1.0)
        povm = GaussianPovm(
            eta=rng.uniform(1.0, 5.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
        )
        s = rng.uniform(0.05, 0.95)
        reference = _overlap_from_matrices(mu, s, condition_on_povm(mu, g, povm))
        assert s_overlap_local(mu, s, povm, g=g) == pytest.approx(reference, rel=1e-12, abs=0)
        # the fidelity bound is defined for rank-1 seeds at angle 0; a rounding
        # of F by a few ulps moves sqrt(1 - F) by that over 2 sqrt(1 - F), so
        # the tolerance grows as 1 - F nears 0 at zero displacement
        prep = condition_on_povm(mu, g, GaussianPovm(1.0, 0.0, povm.lam))
        f0 = gaussian_fidelity_one_mode(mu * np.eye(2), prep.v_cond, (0.0, 0.0))
        rel = max(1e-12, 1e-13 / math.sqrt(max(1.0 - f0, 1e-300)))
        assert averaged_fidelity_bound(mu, povm.lam, g=g) == pytest.approx(
            _averaged_fidelity_from_matrices(mu, prep), rel=rel, abs=0
        )


@pytest.mark.parametrize(
    "mu, g, s", [(1.0 + 1e-5, 1e-5, 0.5), (1.5, 0.2, 0.3), (2.0, 1.0, 0.5), (30.0, 29.0, 0.9)]
)
def test_scan_covers_the_mirrored_asymmetries_up_to_rotation(mu, g, s):
    # the scans keep lambda >= 1: the angle-0 POVM of asymmetry 1/lambda is
    # the one of asymmetry lambda turned by pi/2, and the matrix route, which
    # sees the angle, gives it the scan entry at lambda.  The entries come
    # from the scan kernels, without the verdict, which rounding decides
    # next to mu = 1
    state = _overlap_state(mu, g, _SCAN_SEEDS)
    overlaps, fidelities = _overlap_at(s, state), _averaged_fidelity(mu, state.c, state.m)
    for i, lam in enumerate(LAMBDA_SCAN_GRID.tolist()):
        for povm in (GaussianPovm(1.0, 0.0, 1.0 / lam), GaussianPovm(1.0, math.pi / 2.0, lam)):
            prep = condition_on_povm(mu, g, povm)
            assert _overlap_from_matrices(mu, s, prep) == pytest.approx(
                overlaps[i], rel=1e-12, abs=0
            )
            f0 = gaussian_fidelity_one_mode(mu * np.eye(2), prep.v_cond, (0.0, 0.0))
            rel = max(1e-12, 1e-13 / math.sqrt(max(1.0 - f0, 1e-300)))
            assert _averaged_fidelity_from_matrices(mu, prep) == pytest.approx(
                fidelities[i], rel=rel, abs=0
            )


def test_conditioning_rejects_excess_correlation():
    with pytest.raises(DomainError):
        condition_on_povm(2.0, 1.5, HET)


def test_heterodyne_epsilon_values():
    assert heterodyne_epsilon(1.0) == 0.0
    assert heterodyne_epsilon(2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert heterodyne_epsilon(1e9) == pytest.approx(2.0, abs=1e-8)


def test_heterodyne_is_isotropic_in_theta():
    reference = condition_on_povm(2.5, 1.2, HET)
    for theta in (0.0, math.pi / 7.0, math.pi / 3.0):
        prep = condition_on_povm(2.5, 1.2, GaussianPovm(1.0, theta, 1.0))
        assert np.array_equal(prep.v_cond, reference.v_cond)
        assert np.array_equal(prep.v_mod, reference.v_mod)


def test_local_overlap_identical_states():
    for s in (0.2, 0.5, 0.8):
        assert s_overlap_local(1.0, s, HET) == pytest.approx(1.0, abs=1e-14)
        assert s_overlap_heterodyne(1.0, s) == pytest.approx(1.0, abs=1e-14)


def test_local_overlap_heterodyne_radical_value():
    # 2 G(2) sqrt(3) / (Lambda(2) + 3 + 1/3) at s = 1/2
    expected = (
        2.0 * (SQRT2 / (SQRT3 - 1.0)) * SQRT3 / ((2.0 + SQRT3) + 3.0 + 1.0 / 3.0)
    )
    assert s_overlap_local(2.0, 0.5, HET) == pytest.approx(expected, abs=1e-13)
    assert s_overlap_heterodyne(2.0, 0.5) == pytest.approx(expected, abs=1e-13)


def test_local_overlap_matrix_route_matches_closed_form():
    for mu in (1.2, 2.0, 8.0):
        for s in (0.15, 0.5, 0.85):
            assert s_overlap_local(mu, s, HET) == pytest.approx(
                s_overlap_heterodyne(mu, s), rel=1e-12
            )


def test_local_overlap_at_heterodyne_matches_closed_form_up_to_2_53():
    # the conditional eigenvalue mu - g^2/(mu + 1) cancels as g nears mu - 1:
    # formed by subtraction it put the two 0.2 relative apart; measured worst 7.0e-16
    for mu in [1.0, *np.geomspace(1.001, 2.0**53, 1000).tolist()]:
        for s in (0.1, 0.5, 0.9):
            closed = s_overlap_heterodyne(mu, s)
            assert abs(s_overlap_local(mu, s, HET) - closed) <= 1e-14 * closed, (mu, s)


def test_squeezed_povm_is_worse_than_heterodyne():
    het = s_overlap_local(2.0, 0.5, HET)
    squeezed = s_overlap_local(2.0, 0.5, GaussianPovm(1.0, 0.0, 2.0))
    assert squeezed > het


def test_overlap_grows_with_povm_noise():
    for mu in (1.5, 2.0, 5.0, 20.0):
        for s in (0.1, 0.5, 0.9):
            values = [
                s_overlap_local(mu, s, GaussianPovm(eta, 0.0, 1.0))
                for eta in np.linspace(1.0, 5.0, 9)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_heterodyne_minimizes_overlap_on_scan_grid():
    lams = np.logspace(-1.0, 1.0, 81)
    for mu in (1.5, 2.0, 5.0, 20.0):
        het = [s_overlap_local(mu, s, HET) for s in np.arange(0.1, 0.95, 0.1)]
        for lam in lams[::8]:
            povm = GaussianPovm(1.0, 0.0, float(lam))
            for i, s in enumerate(np.arange(0.1, 0.95, 0.1)):
                assert s_overlap_local(mu, s, povm) >= het[i] - 1e-12


def test_p_upper_local_trivial_and_bounded():
    assert p_upper_local(1.0).p_upper == 0.5
    result = p_upper_local(2.0)
    assert result.p_upper <= 0.9471714908126589 / 2.0 + 1e-12
    assert 0.0 < result.s_star < 1.0


def test_local_upper_bound_dominates_global():
    for mu in np.logspace(0.0, 2.0, 12):
        assert p_upper_local(float(mu)).p_upper >= qcb_global(float(mu)).p_upper - 1e-12


def test_fidelity_heterodyne_trivial():
    assert fidelity_heterodyne(1.0, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_heterodyne_radical_value():
    expected = 2.0 / (1.0 + 10.0 / 3.0 - 2.0 * math.sqrt(4.0 / 3.0))
    value = fidelity_heterodyne(2.0, (0.0, 0.0))
    assert value == pytest.approx(expected, abs=1e-13)
    assert value < 1.0


def test_fidelity_heterodyne_decreases_with_displacement():
    radii = [0.0, 0.5, 1.0, 2.0, 4.0]
    values = [fidelity_heterodyne(2.0, (r, 0.0)) for r in radii]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_gaussian_fidelity_one_mode_identical():
    v = 1.7 * np.eye(2)
    assert gaussian_fidelity_one_mode(v, v, (0.0, 0.0)) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_fidelity_matches_heterodyne_closed_form():
    # the closed form is the moment formula evaluated at the conditional pair,
    # with the displacement label scaled by the heterodyne gain
    for mu in (1.5, 2.0, 4.0):
        eps = heterodyne_epsilon(mu)
        for a in ((0.0, 0.0), (1.0, 0.0), (0.7, -1.1)):
            mean = (eps / SQRT2) * np.asarray(a)
            direct = gaussian_fidelity_one_mode(
                mu * np.eye(2), (1.0 + eps) * np.eye(2), mean
            )
            assert fidelity_heterodyne(mu, a) == pytest.approx(direct, rel=1e-12)


def test_p_lower_local_trivial():
    assert p_lower_local(1.0) == 0.5


def test_p_lower_local_monte_carlo_oracle():
    mu = 2.0
    rng = np.random.default_rng(12345)
    n = 1_000_000
    sigma = math.sqrt(mu - 1.0 - heterodyne_epsilon(mu))
    samples = rng.normal(0.0, sigma, size=(n, 2))
    # vectorized copy of the fidelity closed form
    eps = heterodyne_epsilon(mu)
    den = 1.0 + mu * (1.0 + eps) - 2.0 * (mu - 1.0) * math.sqrt(2.0 * mu / (mu + 1.0))
    a2 = np.sum(samples * samples, axis=1)
    fid = 2.0 * np.exp(-eps * eps * a2 / (4.0 * (mu + 1.0 + eps))) / den
    values = (1.0 - np.sqrt(np.maximum(0.0, 1.0 - fid))) / 2.0
    estimate = float(values.mean())
    stderr = float(values.std() / math.sqrt(n))
    assert abs(p_lower_local(mu) - estimate) <= 3.0 * stderr


def test_p_lower_local_bracket():
    for mu in (1.2, 2.0, 10.0, 200.0):
        lower = p_lower_local(mu)
        upper = p_upper_local(mu).p_upper
        assert 0.0 < lower <= upper <= 0.5
        assert lower >= bhattacharyya_global(mu).p_lower - 1e-12


def test_radial_rule_passes_leave_every_point_as_its_batch_of_one():
    # a long grid runs the radial rule in several passes of rows
    radial_rows = _passes(1, _RADIAL_RULE[0].nbytes)[0].stop
    mus = np.logspace(-9.0, 3.0, 3 * radial_rows + 7) + 1.0
    batch = lower_bound_local(mus)
    assert _hexes(batch) == _hexes([p_lower_local(mu) for mu in mus.tolist()])


def test_radial_rule_failure_names_a_plain_mu(monkeypatch):
    import gaussdisc.local_bounds as lb

    # a check rule with doubled weights puts the error estimate far past the tolerance
    u, w = lb._RADIAL_RULE
    value_weights, check_weights = np.hsplit(w, [lb._RADIAL_SPLIT])
    monkeypatch.setattr(lb, "_RADIAL_RULE", (u, np.hstack([value_weights, 2.0 * check_weights])))
    with pytest.raises(NumericalError, match=r"relative tolerance at mu=1\.05 \(err "):
        p_lower_local(1.05)


def test_submodule_is_not_shadowed():
    import gaussdisc.local_bounds as lb

    assert isinstance(lb, types.ModuleType)
    assert lb.p_lower_local(2.0) == p_lower_local(2.0)


@pytest.mark.parametrize("mu, g, s", [(2.0, 1.0, 0.5), (5.0, 4.0, 0.3), (3.0, 1.0, 0.7)])
def test_heterodyne_optimality_scan(mu, g, s):
    scan = verify_heterodyne_optimality(mu, g, s)
    assert scan.min_lambda == 1.0
    assert scan.derivative_at_unit == 0.0
    assert scan.values.shape == (41,)


def test_heterodyne_optimality_rejects_bad_points():
    with pytest.raises(DomainError):
        verify_heterodyne_optimality(2.0, 1.5, 0.5)
    with pytest.raises(DomainError):
        verify_heterodyne_optimality(2.0, math.nan, 0.5)
    with pytest.raises(DomainError):
        verify_heterodyne_optimality(2.0, 1.0, 1.5)


@pytest.mark.parametrize("mu, g", [(1.0, 0.0), (2.0, 0.0), (2.0, -1.0), (3.0, -0.5)])
def test_overlap_scan_takes_every_valid_correlation(mu, g):
    # the kernels depend on g^2 only: g = 0 gives a flat scan, and -g the scan of g
    scan = verify_heterodyne_optimality(mu, g, 0.5)
    if g == 0.0:
        assert np.ptp(scan.values) == 0.0
    else:
        assert np.array_equal(scan.values, verify_heterodyne_optimality(mu, -g, 0.5).values)


def test_scan_flat_to_rounding_near_mu_one_passes():
    # the values span ~2e-14 here and the value at lambda = 1 ties with the
    # minimum
    scan = verify_heterodyne_optimality(1.0001, 5e-5, 0.7)
    assert scan.min_lambda == 1.0
    assert scan.values[0] == scan.values.min()


def test_scan_with_minimum_elsewhere_raises():
    log_grid = np.log(LAMBDA_SCAN_GRID)
    values = (log_grid - log_grid[10]) ** 2
    with pytest.raises(ReportFailure, match=f"lambda={LAMBDA_SCAN_GRID[10]:g}, not 1"):
        _scan(values, 2.0, 1.0, 0.5, "overlap scan")
    # a minimum below the value at lambda = 1 by one rounding step still fails
    values = np.full(41, 1.0)
    values[3] = np.nextafter(1.0, 0.0)
    with pytest.raises(ReportFailure, match="not 1"):
        _scan(values, 2.0, 1.0, 0.5, "overlap scan")


def test_fidelity_scan_confirms_heterodyne():
    for mu in (1.5, 2.0, 5.0):
        scan = verify_fidelity_optimality(mu)
        assert scan.min_lambda == 1.0
        assert scan.derivative_at_unit == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", [1e3, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("g_frac", [0.05, 0.4, 1.0])
def test_fidelity_scan_confirms_heterodyne_at_large_mu(mu, g_frac):
    # 2 / (sqrt(Delta + L) - sqrt(L)) cancels once L outgrows Delta: at 1e8 with
    # g_frac 0.05 it divided by zero, and four other points missed lambda = 1
    assert verify_fidelity_optimality(mu, g_frac * (mu - 1.0)).min_lambda == 1.0


def test_averaged_fidelity_bound_matches_quadrature_at_unit_lambda():
    # at lambda = 1 the scanned functional is isotropic; it differs from
    # p_lower_local only through the displacement normalization, so both
    # must sit strictly between 0 and the local upper bound
    for mu in (1.5, 3.0):
        value = averaged_fidelity_bound(mu, 1.0)
        assert 0.0 < value <= p_upper_local(mu).p_upper + 1e-12


@pytest.mark.parametrize("mu, g, s", [(2.0, 1.0, 0.5), (5.0, 1.3, 0.1), (30.0, 29.0, 0.9)])
def test_scan_entries_are_single_point_evaluations(mu, g, s):
    # the scans evaluate their grid as one stack; each entry must be exactly
    # the single-POVM value at that asymmetry
    overlap_scan = verify_heterodyne_optimality(mu, g, s)
    fidelity_scan = verify_fidelity_optimality(mu, g)
    for i in (0, 17, 40):
        lam = float(LAMBDA_SCAN_GRID[i])
        povm = GaussianPovm(1.0, 0.0, lam)
        assert overlap_scan.values[i] == s_overlap_local(mu, s, povm, g=g)
        assert fidelity_scan.values[i] == averaged_fidelity_bound(mu, lam, g=g)


def _hexes_of_point(mu, g):
    """Every scan entry at ``(mu, g)``, five overlap orders and the fidelity scan, as hex."""
    scans = [verify_heterodyne_optimality(mu, g, s) for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
    scans.append(verify_fidelity_optimality(mu, g))
    return [_hexes(scan.values) for scan in scans]


@pytest.mark.parametrize("mu, frac", [(1.1, 1.0), (2.0, 0.5), (4.0, 0.375), (31.0, 1.0)])
def test_one_point_builds_its_scan_state_once(mu, frac):
    g = frac * (mu - 1.0)
    _scan_state.cache_clear()
    warm = _hexes_of_point(mu, g)
    info = _scan_state.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 5, 1)
    # a rebuilt state gives the same bits
    _scan_state.cache_clear()
    assert _hexes_of_point(mu, g) == warm


def test_scan_state_is_read_only():
    state = _scan_state(3.0, 1.5)
    for array in (state.c, state.m, state.nu, *state.nu_logs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # the scans still build their values in fresh arrays
    values = verify_heterodyne_optimality(3.0, 1.5, 0.5).values
    values[0] = 0.0
    assert verify_heterodyne_optimality(3.0, 1.5, 0.5).values[0] != 0.0


@pytest.mark.parametrize("s", [0.0, 1.0, 1.5, math.nan])
def test_bad_order_at_a_warm_point_is_a_domain_error(s):
    verify_heterodyne_optimality(2.0, 1.0, 0.5)
    with pytest.raises(DomainError, match="order parameter"):
        verify_heterodyne_optimality(2.0, 1.0, s)


def test_separability_edge_above_2_to_53_is_a_numerical_error():
    # g = mu - 1 rounds to mu, which takes the rounded nu below 1 at a valid input
    mu = 1e16
    with pytest.raises(NumericalError, match=r"mu=1e\+16") as raised:
        verify_heterodyne_optimality(mu, mu - 1.0, 0.5)
    assert "\n" not in str(raised.value)
    with pytest.raises(NumericalError, match=r"mu=1e\+16"):
        s_overlap_local(mu, 0.5, GaussianPovm(1.0, 0.0, 2.0))
    # the order is checked first, and the fidelity scan, which takes no nu, passes
    with pytest.raises(DomainError, match="order parameter"):
        verify_heterodyne_optimality(mu, mu - 1.0, 1.5)
    assert verify_fidelity_optimality(mu).min_lambda == 1.0


#: scans past an overflow, each a one-line NumericalError naming its mu: the
#: conditional spectrum from about 1.3e154 below the edge, the modulated overlap
#: of a small order just under it, and the fidelity's (mu^2 - 1)(c_0 c_1 - 1) from
#: about 1.2e77 below the edge
SCAN_OVERFLOWS = [
    (lambda mu: verify_heterodyne_optimality(mu, 0.4 * (mu - 1.0), 0.5),
     1e200, "conditional spectrum"),
    (lambda mu: verify_heterodyne_optimality(mu, 0.0, 0.1), 1.48e153, "modulated overlap"),
    (lambda mu: s_overlap_local(mu, 0.5, GaussianPovm(1.0, 0.0, 2.0), 0.4 * (mu - 1.0)),
     1e200, "conditional spectrum"),
    (lambda mu: verify_fidelity_optimality(mu, 0.4 * (mu - 1.0)), 1e100, "averaged fidelity"),
    (lambda mu: verify_fidelity_optimality(mu, 0.05 * (mu - 1.0)), 1e300, "averaged fidelity"),
    (lambda mu: averaged_fidelity_bound(mu, 2.0, 0.4 * (mu - 1.0)), 1e100, "averaged fidelity"),
    # orders below mu / 1.3e154, where d_0 d_1 overflows at any mu; the quotient mu / s
    # itself overflows at the subnormal order, also as a numpy scalar
    (lambda mu: verify_heterodyne_optimality(mu, 1.0, 1e-300), 2.0, "modulated overlap"),
    (lambda mu: s_overlap_local(mu, 1e-300, GaussianPovm(1.0, 0.0, 2.0), 1.0),
     2.0, "modulated overlap"),
    (lambda mu: verify_heterodyne_optimality(mu, 1.0, 5e-324), 2.0, "modulated overlap"),
    (lambda mu: verify_heterodyne_optimality(mu, 1.0, np.float64(5e-324)),
     2.0, "modulated overlap"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, mu, what", SCAN_OVERFLOWS, ids=[f"{w.split()[-1]}-{mu:g}" for _, mu, w in SCAN_OVERFLOWS]
)
def test_scan_past_an_overflow_names_its_mu_without_a_warning(call, mu, what):
    with pytest.raises(NumericalError) as raised:
        call(mu)
    assert str(raised.value) == f"{what} overflows at mu={mu!r}"


@pytest.mark.filterwarnings("error")
def test_scans_below_the_overflows_still_run():
    # the heterodyne scan below the edge, and the fidelity scan at it, keep their range
    assert verify_heterodyne_optimality(1e100, 0.4 * (1e100 - 1.0), 0.5).min_lambda == 1.0
    assert verify_fidelity_optimality(1e100).min_lambda == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e-76, 1e-77])
def test_overlap_scan_on_either_side_of_the_guards_reach_passes(s):
    # at mu = 2 the guard's reach _OVERFLOW_MU * s is 5.8 for 1e-76 (unguarded) and
    # 0.58 for 1e-77 (guarded); the scan passes on both sides
    assert (2.0 < _OVERFLOW_MU * s) == (s == 1e-76)
    assert verify_heterodyne_optimality(2.0, 1.0, s).min_lambda == 1.0


@pytest.mark.filterwarnings("error")
def test_averaged_fidelity_bound_at_the_edge_where_nu_rounds_below_one():
    # above 2^53 the edge g = mu - 1 rounds to mu and nu below 1: the shared state has
    # no nu_logs, which the fidelity does not need
    assert _overlap_state(1e16, 1e16 - 1.0, np.array([[2.0], [0.5]])).nu_logs is None
    assert averaged_fidelity_bound(1e16, 2.0) == float.fromhex("0x1.cd2b297d889bap-56")


def test_hermite_rule_is_exactly_symmetric():
    # the fidelity scan sums its 40 x 40 rule over the positive quadrant only;
    # that is the same rule because of these three facts
    t, w = np.polynomial.hermite_e.hermegauss(40)
    assert np.array_equal(t, -t[::-1])
    assert np.array_equal(w, w[::-1])
    assert not (t == 0.0).any()


def _full_rule_scan(mu, g):
    """The scan batch averaged over the whole 40 x 40 Gauss-Hermite grid, with
    the integrand the scans evaluate."""
    t, w = np.polynomial.hermite_e.hermegauss(40)
    w = w / w.sum()
    terms = _fidelity_integrand(mu, *_spectra(mu, g, _SCAN_SEEDS), t)
    return ((terms * w).sum(axis=2) * w).sum(axis=1)


def test_half_rule_matches_full_rule():
    rng = np.random.default_rng(90)
    mus = 1.0 + 10.0 ** rng.uniform(-9.0, math.log10(999.0), 40)
    passed = 0
    for mu in mus:
        for g in (mu - 1.0, rng.uniform() * (mu - 1.0)):
            full = _full_rule_scan(mu, g)
            half = _averaged_fidelity(mu, *_spectra(mu, g, _SCAN_SEEDS))
            assert np.max(np.abs(half - full) / full) <= 2e-15
            try:
                _scan(full, mu, g, None, "fidelity scan")
            except ReportFailure:
                continue
            # a scan the full rule confirms is confirmed, with the same values
            assert np.array_equal(verify_fidelity_optimality(mu, g).values, half)
            passed += 1
    assert passed >= 20


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_symmetric_state(2.0, math.nan),
        lambda: condition_on_povm(2.0, math.nan, HET),
        lambda: verify_fidelity_optimality(2.0, math.nan),
        lambda: verify_fidelity_optimality(2.0, 1.5),
    ],
)
def test_bad_correlation_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


# The generic route of the heterodyne overlap: each weight side formed from
# scratch.  The stacked kernel forms the mu-only terms once and must give
# exactly these bits.
EDGE_MUS = [1.0, 1.0 + 1e-12, 1.000001, 2.0, 1e6, 1e12, 1e100, 1e300]


def _weights_reference(s, x):
    with np.errstate(divide="ignore"):
        log_ratio = np.log1p(-2.0 / (x + 1.0))
    gap = -np.expm1(s * log_ratio)
    return np.exp(s * np.log(2.0 / (x + 1.0))) / gap, (2.0 - gap) / gap


def _heterodyne_reference(mu, s):
    eps = 2.0 * (mu - 1.0) / (mu + 1.0)
    g_mu, lam_mu = _weights_reference(s, mu)
    g_nu, lam_nu = _weights_reference(1.0 - s, 1.0 + eps)
    return 2.0 * g_mu * g_nu / (lam_mu + lam_nu + (mu - 1.0) * eps / 2.0)


def _hexes(values):
    return [x.hex() for x in np.asarray(values, float).ravel().tolist()]


_REFERENCE_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.py"


@pytest.fixture(scope="module")
def reference():
    # the benchmark's mpmath transcriptions, loaded from their file
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("bench_reference", _REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_local_exponent_matches_the_mpmath_reference(reference):
    # kappa_loc and p_plus_local are -ln q and q / 2 of the search; the reference
    # minimizes by golden section, with as many more digits as mu has, since
    # (x+1)^s - (x-1)^s cancels
    mp = reference.mp
    mus = [mu for mu in EDGE_MUS if mu >= 1.001] + (1.0 + np.logspace(-3.0, 15.0, 19)).tolist()
    for mu in mus:
        with mp.workdps(40 + int(math.log10(mu))):
            q = reference._minimum(lambda s: reference.overlap_heterodyne(mp.mpf(mu), s))
            kappa, p_plus = float(-mp.log(q)), float(q / 2)
        result = p_upper_local(mu)
        assert -math.log(result.q_value) == pytest.approx(kappa, rel=1e-9, abs=0.0), mu
        assert result.p_upper == pytest.approx(p_plus, rel=1e-12, abs=0.0), mu


def test_log_overlap_kernel_matches_mpmath(reference):
    mp = reference.mp
    for mu, s in [(1.001, 0.3), (2.0, 0.53), (81.3, 0.9), (1e6, 0.999), (1e12, 0.2)]:
        got = _log_heterodyne(np.array([s]), _heterodyne_sides(np.array([mu])))
        with mp.workdps(60):
            log_q = lambda t: mp.log(reference.overlap_heterodyne(mp.mpf(mu), t))
            expected = [log_q(s), mp.diff(log_q, s), mp.diff(log_q, s, 2)]
        assert float(got[0][0]) == pytest.approx(float(expected[0]), rel=1e-13, abs=1e-16)
        for value, exact in zip(got[1:], expected[1:]):
            assert float(value[0]) == pytest.approx(float(exact), rel=1e-9, abs=1e-12), (mu, s)


def test_search_certifies_its_minimum():
    # away from mu = 1, where the slope is rounding noise, every row stops on
    # the slope test, or at a clip whose slope points out of the interval
    mus = np.concatenate([[2.0, 1e6, 1e12, 1e100, 1e300], np.logspace(math.log10(1.001), 300, 400)])
    s_star, _ = chernoff_overlap_local(mus)
    _, slope, curve = _log_heterodyne(s_star, _heterodyne_sides(mus))
    inside = np.abs(slope) <= _NEWTON_TOL * curve
    low, high = s_star == S_INTERVAL[0], s_star == S_INTERVAL[1]
    clipped = (low & (slope >= 0.0)) | (high & (slope <= 0.0))
    assert (inside | clipped).all()


@pytest.mark.parametrize(
    "mus, most",
    [
        (np.logspace(math.log10(1.001), 3.0, 200), 3),
        (10.0 ** np.random.default_rng(36).uniform(math.log10(1.001), 3.0, 2000), 3),
        (1.0 + np.logspace(-16.0, -3.0, 2000), 64),
    ],
    ids=["cli-span", "cli-span-random", "near-one"],
)
def test_search_from_the_start_table_takes_few_evaluations(monkeypatch, mus, most):
    import gaussdisc.local_bounds as lb

    calls = []

    def counted(s, sides):
        calls.append(s.size)
        return _log_heterodyne(s, sides)

    monkeypatch.setattr(lb, "_log_heterodyne", counted)
    chernoff_overlap_local(mus)
    assert len(calls) <= most


def test_start_table_holds_converged_minimizers_read_only():
    # every knot stopped on the slope test, not by a collapsed bracket
    mus = 1.0 + np.exp(_START_KNOTS)
    _, slope, curve = _log_heterodyne(_START_S, _heterodyne_sides(mus))
    assert (np.abs(slope) <= _NEWTON_TOL * curve).all()
    assert np.all(np.diff(_START_KNOTS) > 0.0)
    for table in (_START_KNOTS, _START_S):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.5


def test_local_overlap_never_exceeds_one():
    # near mu = 1 the overlap is 1 less a tiny amount, which must not round above 1
    mus = np.concatenate([EDGE_MUS, 1.0 + np.logspace(-16.0, 12.0, 3000)])
    q = chernoff_overlap_local(mus)[1]
    assert (q <= 1.0).all()
    assert (q[mus == 1.0] == 1.0).all()


def test_search_that_does_not_converge_names_its_mu(monkeypatch, capsys):
    import gaussdisc.local_bounds as lb
    from gaussdisc.cli import main

    # the start table has a knot at mu = 2, which stops after one evaluation
    monkeypatch.setattr(lb, "_NEWTON_CAP", 0)
    with pytest.raises(NumericalError, match=r"^kappa_loc search did not converge at mu=2\.0$"):
        p_upper_local(2.0)
    assert main(["point", "--mu", "2"]) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mu=2.0" in err


def test_scalar_heterodyne_overlap_is_bit_identical_to_the_generic_route():
    rng = np.random.default_rng(32)
    points = zip(1.0 + 10.0 ** rng.uniform(-12.0, 15.0, 50), rng.uniform(1e-6, 1.0 - 1e-6, 50))
    for mu, s in [*points, *((mu, 0.3) for mu in EDGE_MUS)]:
        expected = float(_heterodyne_reference(np.float64(mu), float(s)))
        assert s_overlap_heterodyne(float(mu), float(s)).hex() == expected.hex()
    # and over arrays of two shapes, broadcast against each other
    mus, orders = np.array(EDGE_MUS)[:, None], rng.uniform(1e-6, 1.0 - 1e-6, 16)
    got = overlap_heterodyne(mus, orders)
    assert got.shape == (len(EDGE_MUS), 16)
    assert _hexes(got) == _hexes(_heterodyne_reference(mus, orders))
    column = mus[:, 0]
    assert _hexes(overlap_heterodyne(column, 0.3)) == _hexes(_heterodyne_reference(column, 0.3))


def test_long_search_is_bit_identical_to_its_batches_of_one():
    # 2,000 points run the search as one grid; each row stops on its own
    rng = np.random.default_rng(33)
    mus = np.concatenate([EDGE_MUS, 1.0 + 10.0 ** rng.uniform(-12.0, 15.0, 1992)])
    got = chernoff_overlap_local(mus)
    singles = [chernoff_overlap_local(np.array([mu])) for mu in mus.tolist()]
    for column, single in zip(got, zip(*singles)):
        assert _hexes(column) == _hexes(np.concatenate(single))


@pytest.mark.parametrize(
    "mu, g",
    [(1.0 + 1e-5, 1e-5), (1.0 + 1e-5, 3e-6), (1e3, 999.0), (1e3, 123.4)]
    + [
        (mu, frac * (mu - 1.0))
        for mu, frac in zip(
            1.0 + 10.0 ** np.random.default_rng(34).uniform(-5.0, 3.0, 6),
            np.random.default_rng(35).uniform(0.05, 1.0, 6),
        )
    ],
)
def test_fidelity_scan_is_its_single_point_evaluations(mu, g):
    # the scan runs its 41 seeds as one stack
    values = verify_fidelity_optimality(mu, g).values
    expected = [averaged_fidelity_bound(mu, lam, g=g) for lam in LAMBDA_SCAN_GRID.tolist()]
    assert _hexes(values) == _hexes(expected)


def test_row_passes_keep_every_work_array_below_the_mmap_threshold(monkeypatch):
    import gaussdisc.local_bounds as lb

    calls = []

    def recorded(size, row_bytes):
        slices = _passes(size, row_bytes)
        calls.append((size, row_bytes, slices))
        return slices

    monkeypatch.setattr(lb, "_passes", recorded)
    # the fidelity scan's 41 seeds are a fixed size, and the search runs its grid whole
    verify_fidelity_optimality(2.0)
    mus = 1.0 + np.logspace(-6.0, 3.0, 2000)
    chernoff_overlap_local(mus)
    assert calls == []
    lower_bound_local(mus)
    # one row of the radial rule's largest work array, its panel terms
    assert {(size, row_bytes) for size, row_bytes, _ in calls} == {
        (2000, _RADIAL_RULE[0].nbytes),
    }
    for size, row_bytes, slices in calls:
        assert len(slices) > 1
        assert [i for rows in slices for i in range(size)[rows]] == list(range(size))
        for rows in slices:
            assert len(range(size)[rows]) * row_bytes < 128 * 1024
