import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdisc import (
    DomainError,
    WilliamsonDecomposition,
    bhattacharyya_global,
    g_weight,
    lambda_weight,
    make_state_one,
    qcb_global,
    s_overlap_global,
    s_overlap_two_mode,
    williamson_symmetric,
)
from gaussdisc.global_bounds import S_INTERVAL, overlap_global, overlap_weights

SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)

# s = 1/2 closed radicals, written independently of the implementation
Q_HALF_MU2 = (
    4.0 * (2.0 + SQRT3) * (1.0 + SQRT2) / ((3.0 + SQRT3) * (5.0 + SQRT3 + 2.0 * SQRT2))
)


def test_g_weight_radical_values():
    assert g_weight(0.5, 1.0) == 1.0
    assert g_weight(0.5, 3.0) == pytest.approx(SQRT2 + 1.0, abs=1e-14)
    assert g_weight(0.5, 2.0) == pytest.approx(SQRT2 / (SQRT3 - 1.0), abs=1e-14)


def test_lambda_weight_radical_values():
    assert lambda_weight(0.5, 1.0) == 1.0
    assert lambda_weight(0.5, 2.0) == pytest.approx(2.0 + SQRT3, abs=1e-14)
    assert lambda_weight(0.5, 3.0) == pytest.approx(3.0 + 2.0 * SQRT2, abs=1e-14)


def test_weights_reject_bad_arguments():
    with pytest.raises(DomainError):
        g_weight(0.5, 0.9)
    with pytest.raises(DomainError):
        lambda_weight(0.5, 0.5)
    with pytest.raises(DomainError):
        g_weight(0.0, 2.0)
    with pytest.raises(DomainError):
        lambda_weight(1.0, 2.0)
    with pytest.raises(DomainError):
        g_weight(0.5, float("nan"))


def test_array_weights_match_scalar_weights():
    # the scalar weights are checked views of the array weights
    orders = np.array([1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6])
    args = np.concatenate(([1.0], 1.0 + np.logspace(-12.0, 0.0, 13), np.logspace(0.5, 12.0, 24)))
    g, lam = overlap_weights(orders[:, None], args[None, :])
    for i, s in enumerate(orders.tolist()):
        for j, x in enumerate(args.tolist()):
            assert g[i, j] == g_weight(s, x)
            assert lam[i, j] == lambda_weight(s, x)


def test_weights_and_bound_finite_at_large_mu():
    # 1 - ((x-1)/(x+1))^s rounds to 0 here unless it is formed with expm1
    assert math.isfinite(g_weight(1e-6, 1e12)) and g_weight(1e-6, 1e12) > 0.0
    assert math.isfinite(lambda_weight(1e-6, 1e12))
    result = qcb_global(1e12)
    assert math.isfinite(result.q_value) and 0.0 < result.p_upper < 0.5


def test_lambda_weight_at_least_one():
    for s in (0.1, 0.5, 0.9):
        for x in (1.0, 1.5, 10.0, 1e4):
            assert lambda_weight(s, x) >= 1.0


def test_overlap_identical_states_is_one():
    for s in (0.1, 0.5, 0.9):
        assert s_overlap_global(1.0, s) == pytest.approx(1.0, abs=1e-14)


def test_overlap_half_frozen_radical():
    assert s_overlap_global(2.0, 0.5) == pytest.approx(Q_HALF_MU2, abs=1e-13)


def test_overlap_closed_form_matches_matrix_form():
    # the maximally correlated state is on the bona-fide edge: 25.69632426980148
    # and the seeded sample once failed its check by rounding
    rng = np.random.default_rng(0)
    sample = [*1.0 + 10.0 ** rng.uniform(-12, 6, 20), *rng.uniform(1.0, 50.0, 20)]
    for mu in (1.0, 1.3, 2.0, 7.0, 25.69632426980148, *map(float, sample)):
        dec0 = WilliamsonDecomposition(mu, mu, np.eye(4))
        dec1 = williamson_symmetric(make_state_one(mu))
        for s in (0.2, 0.5, 0.8):
            closed = s_overlap_global(mu, s)
            full = s_overlap_two_mode(dec0, dec1, s)
            assert closed == pytest.approx(full, rel=1e-12)


def test_overlap_swap_symmetry():
    # Tr(a^s b^(1-s)) = Tr(b^(1-s) a^s)
    mu = 2.5
    dec0 = WilliamsonDecomposition(mu, mu, np.eye(4))
    dec1 = williamson_symmetric(make_state_one(mu))
    for s in (0.25, 0.5, 0.8):
        assert s_overlap_two_mode(dec0, dec1, s) == pytest.approx(
            s_overlap_two_mode(dec1, dec0, 1.0 - s), rel=1e-12
        )


def test_overlap_in_unit_interval():
    for mu in np.logspace(0.0, 3.0, 20):
        q = s_overlap_global(float(mu), 0.5)
        assert 0.0 < q <= 1.0


def test_overlap_rejects_bad_mu():
    with pytest.raises(DomainError):
        s_overlap_global(0.5, 0.5)


def test_log_overlap_is_convex_in_s():
    grid = np.linspace(0.02, 0.98, 49)
    for mu in (1.01, 1.5, 2.0, 5.0, 100.0):
        logs = np.array([math.log(s_overlap_global(mu, s)) for s in grid])
        second = logs[2:] - 2.0 * logs[1:-1] + logs[:-2]
        assert second.min() >= -1e-8


def _slope_at_one(x):
    """``d ln Q_s / ds`` as s -> 1 at ``x = (mu - 1) / 2``, in log1p form:
    ``ln((1+2x)/(1+x)^2) + x ln((1+2x)/(2+2x))``."""
    return np.log1p(-((x / (1.0 + x)) ** 2)) + x * np.log1p(-0.5 / (1.0 + x))


def test_log_overlap_slope_at_one_is_negative():
    # with convexity this makes Q_s fall on the whole interval, so the global
    # minimum sits at the clip
    x = np.logspace(math.log10(5e-13), math.log10(5e14), 400)
    assert (_slope_at_one(x) < 0.0).all()


@pytest.mark.parametrize("mu", [1.01, 1.5, 2.0, 10.0, 1000.0, 1e6])
def test_log_overlap_slope_matches_finite_difference(mu):
    clip, h = S_INTERVAL[1], 1e-6
    slope = float(_slope_at_one((mu - 1.0) / 2.0))
    logs = [math.log(s_overlap_global(mu, s)) for s in (clip - h, clip)]
    difference = (logs[1] - logs[0]) / h
    assert difference == pytest.approx(slope, rel=1e-5)
    # Q_s -> 2 / (mu + 1) as s -> 1, one slope step of 1e-6 below the clip
    assert s_overlap_global(mu, clip) == pytest.approx(
        2.0 / (mu + 1.0) * (1.0 - (1.0 - clip) * slope), rel=1e-10
    )


def _search_reference(mu):
    # a bracketed grid search over s: 12 steps of 16 evenly spaced points, both
    # ends of the bracket included, each keeping the two intervals around its
    # best point; returns the lowest overlap it evaluated
    lo, hi = S_INTERVAL
    q_min = math.inf
    for _ in range(12):
        s = lo + (hi - lo) * np.linspace(0.0, 1.0, 16)
        s[-1] = hi
        q = overlap_global(np.float64(mu), s)
        best = int(np.argmin(q))
        q_min = min(q_min, float(q[best]))
        lo, hi = s[max(best - 1, 0)], s[min(best + 1, 15)]
    return q_min


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu=st.floats(min_value=1.0 + 1e-12, max_value=1e15))
def test_search_never_beats_the_clip(mu):
    # the bracketed search over s stays as the reference for the global bound
    q_search = _search_reference(mu)
    q_clip = overlap_global(np.float64(mu), S_INTERVAL[1])
    assert q_search >= q_clip * (1.0 - 16.0 * np.finfo(float).eps)


@pytest.mark.parametrize("mu", [1.0, 1.001, 2.0, 1e12])
def test_qcb_sits_at_the_clip(mu):
    result = qcb_global(mu)
    assert result.s_star == S_INTERVAL[1]
    assert result.q_value == s_overlap_global(mu, S_INTERVAL[1])


def test_qcb_identical_states():
    result = qcb_global(1.0)
    assert result.q_value == 1.0
    assert result.p_upper == 0.5


def test_qcb_is_minimal_over_probes():
    result = qcb_global(2.0)
    assert result.q_value <= Q_HALF_MU2 + 1e-12
    probes = [s_overlap_global(2.0, s) for s in np.linspace(0.05, 0.95, 19)]
    assert result.q_value <= min(probes) + 1e-12
    assert result.p_upper == result.q_value / 2.0


def test_qcb_decreases_with_correlations():
    assert qcb_global(4.0).p_upper < qcb_global(2.0).p_upper


def test_qcb_small_at_large_mu():
    assert qcb_global(50.0).p_upper < 0.02


def test_bhattacharyya_identical_states():
    bounds = bhattacharyya_global(1.0)
    assert bounds.bhattacharyya == 1.0
    assert bounds.p_lower == 0.5


def test_bhattacharyya_frozen_value():
    bounds = bhattacharyya_global(2.0)
    expected = (1.0 - math.sqrt(1.0 - Q_HALF_MU2**2)) / 2.0
    assert bounds.bhattacharyya == pytest.approx(Q_HALF_MU2, abs=1e-13)
    assert bounds.p_lower == pytest.approx(expected, abs=1e-13)


def test_bounds_are_ordered_along_sweep():
    for mu in np.logspace(0.0, 3.0, 25):
        bounds = bhattacharyya_global(float(mu))
        assert bounds.p_lower <= bounds.p_upper <= 0.5
        assert 0.0 < bounds.bhattacharyya <= 1.0
        # the minimized overlap never exceeds the s = 1/2 value
        assert 0.0 < 2.0 * bounds.p_upper <= bounds.bhattacharyya + 1e-12
