"""The columnar sweep path: its elementwise functions are bit-identical to a
scalar ``math`` reference, and its checks match the per-row checks."""

import math

import numpy as np
import pytest

from gaussdisc import REPORT_FIELDS, DiscriminationReport, cli, entropy, report, report_violations
from gaussdisc.report import column_violations, evaluate

# mu = 1 plus mu - 1 log-uniform in [1e-12, 1e15]
MUS = np.concatenate([[1.0], 1.0 + 10.0 ** np.random.default_rng(11).uniform(-12.0, 15.0, 400)])
# the information argument: both branches, their boundary and the end points
PROBABILITIES = np.concatenate(
    [
        [0.0, np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0), 0.5],
        np.random.default_rng(12).uniform(0.0, 0.5, 300),
        # numpy's log2 differs from libm's on about 3 in 10^4 of these
        np.random.default_rng(15).uniform(0.0, 0.25, 20000),
        0.5 - 10.0 ** np.random.default_rng(13).uniform(-17.0, -1.0, 100),
        10.0 ** np.random.default_rng(14).uniform(-300.0, -1.0, 100),
    ]
)


def h_reference(b):
    """Entropy in bits of a thermal mode of mean photon number ``b``."""
    if b == 0.0:
        return 0.0
    return (math.log1p(b) + b * math.log1p(1.0 / b)) / math.log(2.0)


def correlations_reference(mu):
    """``(delta_c, delta_d)`` from the photon numbers of the three modes; ``delta_c``
    is the gap formula for ``b2 = b1 / (1 + b1)``, whose ``b1 - b2`` is ``b1 b2``."""
    b1, b2, twin = (mu - 1.0) / 2.0, (mu - 1.0) / (mu + 1.0), mu - 1.0
    if b1 == 0.0:
        gap = 0.0
    else:
        g = b1 * b2
        gap = (
            math.log1p(g / (1.0 + b2))
            + g * math.log1p(1.0 / b1)
            + b2 * math.log1p(-g / (b1 * (1.0 + b2)))
        ) / math.log(2.0)
    return gap, h_reference(b1) - h_reference(twin) + h_reference(b2)


def binary_entropy_reference(p):
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def information_reference(p):
    if p < 0.25:
        return 1.0 - binary_entropy_reference(p)
    d = 1.0 - 2.0 * p
    return (2.0 * d * math.atanh(d) + math.log1p(-d * d)) / (2.0 * math.log(2.0))


def hexes(values):
    return [float(v).hex() for v in values]


def test_thermal_entropy_is_bit_identical_to_the_scalar_formula():
    x = np.concatenate([MUS, 2.0 * MUS - 1.0, (3.0 * MUS - 1.0) / (MUS + 1.0)])
    expected = [h_reference((v - 1.0) / 2.0) for v in x.tolist()]
    assert hexes(entropy.thermal_entropy(x)) == hexes(expected)


def test_correlations_are_bit_identical_to_the_scalar_formulas():
    dc, dd = entropy.correlations(MUS)
    expected = [correlations_reference(mu) for mu in MUS.tolist()]
    assert hexes(dc) == hexes(c for c, _ in expected)
    assert hexes(dd) == hexes(d for _, d in expected)


def test_information_is_bit_identical_to_the_scalar_formula():
    got = entropy.information(PROBABILITIES)
    assert hexes(got) == hexes(map(information_reference, PROBABILITIES.tolist()))
    assert got[0] == 1.0 and got[4] == 0.0


def test_scalar_views_match_the_columns():
    for mu in MUS[:40].tolist():
        dc, dd = correlations_reference(mu)
        assert entropy.delta_c(mu).hex() == dc.hex()
        assert entropy.delta_d(mu).hex() == dd.hex()
        assert entropy.entropy_h(mu).hex() == h_reference((mu - 1.0) / 2.0).hex()
    for p in PROBABILITIES[:40].tolist():
        assert entropy.binary_entropy(p).hex() == binary_entropy_reference(p).hex()
        i_lower, i_upper = entropy.info_bounds(0.5, p)
        assert (i_lower, i_upper) == (0.0, information_reference(p))


def test_correlations_are_finite_and_accurate_up_to_the_largest_float():
    # 50-digit mpmath on the photon numbers b = (mu - 1)/2 and b / (1 + b) =
    # (mu - 1)/(mu + 1); measured worst relative errors: delta_c 2.8e-16, delta_d
    # 7.8e-15 below mu = 1e14, and 2.3e-13 above it, where h(b) - h(2 b)
    # cancels and delta_d exceeds its supremum 1 by up to that much
    mpmath = pytest.importorskip("mpmath")

    def h(b):
        return (mpmath.log1p(b) + b * mpmath.log1p(1 / b)) / mpmath.log(2)

    x = np.logspace(-12.0, math.log10(1.7e308), 200)
    for mu in [*(1.0 + x).tolist(), 6e307, 1.7e308]:
        budget = entropy.correlation_budget(mu)
        assert math.isfinite(budget.delta_c) and math.isfinite(budget.delta_d), mu
        with mpmath.workdps(50):
            b = (mpmath.mpf(mu) - 1) / 2
            dc, dd = h(b) - h(b / (1 + b)), h(b) - h(2 * b) + h(b / (1 + b))
            assert abs(budget.delta_c - dc) <= 1e-15 * dc, mu
            assert abs(budget.delta_d - dd) <= (2e-14 if mu < 1e14 else 5e-13) * dd, mu


def row_violations_reference(r, slack=1e-12):
    """The per-row ordering checks, written out one report at a time; the
    error brackets are strict."""
    checks = [
        (0.0 <= r.p_minus_global, "0 <= p_minus_global"),
        (r.p_minus_global <= r.p_plus_global, "p_minus_global <= p_plus_global"),
        (r.p_plus_global <= 0.5, "p_plus_global <= 1/2"),
        (0.0 <= r.p_minus_local, "0 <= p_minus_local"),
        (r.p_minus_local <= r.p_plus_local, "p_minus_local <= p_plus_local"),
        (r.p_plus_local <= 0.5, "p_plus_local <= 1/2"),
        (r.p_plus_global <= r.p_plus_local + slack, "p_plus_global <= p_plus_local"),
        (r.p_minus_global <= r.p_minus_local + slack, "p_minus_global <= p_minus_local"),
        (r.i_minus_global <= r.i_plus_global + slack, "i_minus_global <= i_plus_global"),
        (r.i_minus_local <= r.i_plus_local + slack, "i_minus_local <= i_plus_local"),
        (r.i_minus_local <= r.i_minus_global + slack, "i_minus_local <= i_minus_global"),
        (r.i_plus_local <= r.i_plus_global + slack, "i_plus_local <= i_plus_global"),
        (-slack <= r.i_minus_global and r.i_plus_global <= 1.0 + slack, "global info in [0, 1]"),
        (-slack <= r.i_minus_local and r.i_plus_local <= 1.0 + slack, "local info in [0, 1]"),
        (r.kappa >= r.kappa_loc - slack, "kappa >= kappa_loc"),
        (abs(r.delta - (r.kappa - r.kappa_loc)) <= slack, "delta = kappa - kappa_loc"),
    ]
    return [label for ok, label in checks if not ok]


# one edit of the mu = 2 row per check (see tests/data/point_mu2.json)
TAMPERING = [
    ("p_minus_global", -0.1),
    ("p_minus_global", 0.4),
    ("p_plus_global", 0.6),
    ("p_minus_local", -0.1),
    ("p_minus_local", 0.48),
    # caught by the strict bracket alone: 1e-13 is inside the 1e-12 slack
    ("p_minus_local", 0.4735035224531268 + 1e-13),
    ("p_plus_local", 0.6),
    ("p_plus_global", 0.48),
    ("p_minus_global", 0.42),
    ("i_minus_global", 0.3),
    ("i_minus_local", 0.03),
    ("i_minus_local", 0.09),
    ("i_plus_local", 0.3),
    ("i_plus_global", 1.1),
    ("i_minus_local", -1e-9),
    ("kappa_loc", 1.0),
    ("delta", 0.3510160409537338),
    ("kappa", math.nan),
]


def test_column_violations_match_the_row_checks():
    seen = set()
    for name, value in TAMPERING:
        columns = evaluate([1.5, 2.0, 3.0])
        columns[name][1] = value
        row = DiscriminationReport(*(columns[field][1] for field in REPORT_FIELDS))
        expected = row_violations_reference(row)
        assert expected, (name, value)
        assert column_violations(columns) == (1, expected)
        assert report_violations(row) == expected
        seen.update(expected)
    assert len(seen) == 16
    assert column_violations(evaluate([1.0, 1.5, 2.0, 1e12])) == (0, [])


def test_sweep_reports_the_first_failing_row(monkeypatch, tmp_path, capsys):
    real = report.evaluate

    def tampered(grid):
        columns = real(grid)
        columns["kappa_loc"][[3, 7]] = 1e3
        columns["i_plus_local"][7] = 2.0
        return columns

    monkeypatch.setattr(report, "evaluate", tampered)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--out", str(out)]) == cli.EXIT_INVARIANT
    mu = float(cli.sweep_grid(1.001, 1000.0, 200, "log")[3])
    assert capsys.readouterr().err == (
        f"numerical failure: internal invariant violation at mu={mu!r}: "
        "kappa >= kappa_loc; delta = kappa - kappa_loc\n"
    )
    assert not out.exists()
