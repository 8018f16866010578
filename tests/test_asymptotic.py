import math
import warnings

import numpy as np
import pytest

from gaussdisc import (
    DomainError,
    NumericalError,
    bhattacharyya_global,
    exponents,
    gain_curves,
    multicopy_p_upper,
    p_lower_local,
    p_upper_local,
    qcb_global,
    s_overlap_global,
    s_overlap_heterodyne,
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


#: each view at a mu past an overflow, and its one-line failure there (None:
#: the view returns finite values).  The global overlap underflows from about
#: mu = 1e151, the local one overflows from about 1.8e302, and the radial rule's
#: denominator from about 6e307.  The scalar overlaps at s = 1/2 fail through the
#: same check: the global one from about 1e154, the heterodyne one from about 6.2e307.
GLOBAL_VIEWS = {
    "exponents": exponents,
    "gain_curves": lambda mu: gain_curves([2.0, mu]),
    "qcb_global": qcb_global,
    "bhattacharyya_global": bhattacharyya_global,
    "multicopy_p_upper": lambda mu: multicopy_p_upper(mu, 3),
}
RADIAL_FAILURE = "radial quadrature failed its relative tolerance at mu={mu!r} (err nan)"
OVERFLOW_CASES = [
    *(
        pytest.param(view, mu, "non-finite exponent at mu={mu!r}: kappa", id=f"{name}-{mu:g}")
        for name, view in GLOBAL_VIEWS.items()
        for mu in (1.2e151, 1e300, 1.7e308)
    ),
    *(
        pytest.param(view, mu, message, id=f"{view.__name__}-{mu:g}")
        for view, mu, message in [
            (p_upper_local, 1.2e151, None),
            (p_upper_local, 1e300, None),
            (p_upper_local, 1.7e308, "non-finite exponent at mu={mu!r}: kappa_loc"),
            (p_lower_local, 1.2e151, None),
            (p_lower_local, 1e300, None),
            (p_lower_local, 7e307, RADIAL_FAILURE),
            (p_lower_local, 1.7e308, RADIAL_FAILURE),
        ]
    ),
    *(
        pytest.param(lambda mu, f=overlap: f(mu, 0.5), mu, message, id=f"{overlap.__name__}-{mu:g}")
        for overlap, mu, message in [
            (s_overlap_global, 1e151, None),
            (s_overlap_global, 1e300, "non-finite exponent at mu={mu!r}: s_overlap_global"),
            (s_overlap_heterodyne, 1e300, None),
            (s_overlap_heterodyne, 1.7e308, "non-finite exponent at mu={mu!r}: s_overlap_heterodyne"),
        ]
    ),
]


@pytest.mark.parametrize("call, mu, message", OVERFLOW_CASES)
def test_overflowing_exponents_name_their_mu_without_a_warning(call, mu, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            result = call(mu)
            values = vars(result).values() if hasattr(result, "__dict__") else [result]
            assert all(math.isfinite(value) for value in values)
            return
        with pytest.raises(NumericalError) as raised:
            call(mu)
    assert str(raised.value) == message.format(mu=mu)
