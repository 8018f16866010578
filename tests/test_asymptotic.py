import math
import warnings

import numpy as np
import pytest

from gaussdisc import (
    DomainError,
    NumericalError,
    exponents,
    gain_curves,
    multicopy_p_upper,
    qcb_global,
)
from gaussdisc.report import evaluate


def test_exponents_vanish_towards_mu_one():
    report = exponents(1.0 + 1e-9)
    assert 0.0 <= report.kappa < 1e-6
    assert 0.0 <= report.kappa_loc < 1e-6
    assert 0.0 <= report.delta < 1e-6


def test_exponents_at_mu_one_have_undefined_ratio():
    report = exponents(1.0)
    assert report.kappa == report.kappa_loc == report.delta == 0.0
    assert math.isnan(report.ratio) and math.isnan(report.ratio_db)


def test_exponents_reject_mu_below_one():
    with pytest.raises(DomainError):
        exponents(0.8)


def test_exponents_consistency_chain_at_mu_two():
    report = exponents(2.0)
    assert report.kappa >= -math.log(0.7967)  # never below the s = 1/2 point
    assert report.kappa > report.kappa_loc > 0.0
    assert report.delta == pytest.approx(report.kappa - report.kappa_loc, abs=1e-15)
    assert report.ratio == pytest.approx(report.kappa / report.kappa_loc, rel=1e-14)
    assert report.ratio_db == pytest.approx(10.0 * math.log10(report.ratio), abs=1e-12)


def test_gap_exceeds_two_at_large_mu():
    assert exponents(1e3).delta > 2.0


def test_multicopy_reduces_to_single_copy():
    assert multicopy_p_upper(2.0, 1) == pytest.approx(qcb_global(2.0).p_upper, rel=1e-14)


def test_multicopy_identical_states():
    assert multicopy_p_upper(1.0, 25) == 0.5


def test_multicopy_matches_exponential_form():
    kappa = exponents(2.0).kappa
    for copies in (1, 5, 10):
        direct = multicopy_p_upper(2.0, copies)
        assert direct == pytest.approx(0.5 * math.exp(-kappa * copies), rel=1e-12)
    values = [multicopy_p_upper(2.0, m) for m in (1, 2, 4, 8)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_multicopy_rejects_bad_copy_count():
    with pytest.raises(DomainError):
        multicopy_p_upper(2.0, 0)
    with pytest.raises(DomainError):
        multicopy_p_upper(2.0, 2.5)


def test_gain_curves_two_point_grid():
    rows = gain_curves([2.0, 5.0])
    assert rows[1].delta > rows[0].delta > 0.0
    assert rows[0].ratio >= 1.0 and rows[1].ratio >= 1.0


def test_gain_curves_single_point():
    rows = gain_curves([2.0])
    assert len(rows) == 1
    row = rows[0]
    assert row.mu == 2.0
    assert row.delta == pytest.approx(row.kappa - row.kappa_loc, abs=1e-15)
    assert row.delta_d == pytest.approx(0.4591479170272452, abs=1e-12)


def test_gain_curves_reaches_two_db():
    rows = gain_curves([100.0, 1e3])
    assert rows[-1].delta > 2.0
    assert 1.5 <= rows[-1].ratio_db <= 2.5


def test_gain_curves_validation():
    with pytest.raises(DomainError):
        gain_curves([])
    with pytest.raises(DomainError):
        gain_curves([1.0, 2.0])
    with pytest.raises(DomainError):
        gain_curves([3.0, 2.0])


def test_strict_separation_and_monotone_gap():
    grid = np.logspace(math.log10(1.1), 2.0, 10)
    rows = gain_curves(list(grid))
    previous = 0.0
    for row in rows:
        assert row.kappa > row.kappa_loc
        assert row.delta >= previous - 1e-12
        previous = row.delta


def test_gain_rows_and_exponents_are_the_evaluate_columns():
    # both are views of the exponent columns, which evaluate extends
    rng = np.random.default_rng(41)
    grid = sorted({*(1.0 + 10.0 ** rng.uniform(-12.0, 15.0, 60)), 1.000001, 1e100, 1e150})
    # up to the largest mu below the overflow of the global overlap (near 1.08e151)
    with np.errstate(all="ignore"):
        columns, points = evaluate(grid), gain_curves(grid)
        singles = [(mu, evaluate([mu]), exponents(mu)) for mu in [1.0, *grid[::7], 1e150]]
    for i, point in enumerate(points):
        for name, value in vars(point).items():
            assert value.hex() == float(columns[name][i]).hex(), (name, grid[i])
    for mu, row, report in singles:
        for name, value in vars(report).items():
            assert value.hex() == float(row[name][0]).hex(), (name, mu)


@pytest.mark.parametrize("call", [lambda: exponents(1e300), lambda: gain_curves([2.0, 1e300])])
def test_overflowing_exponents_name_their_mu_without_a_warning(call):
    # the global overlap overflows from about mu = 1.08e151, so kappa is infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"^non-finite exponent at mu=1e\+300: kappa, delta$"
        with pytest.raises(NumericalError, match=message):
            call()
