"""Sweep columns against the 40-digit mpmath reference of the benchmark.

``bench/reference.py`` transcribes every closed form from its definition and
does the minimizations over s and the radial integral in mpmath, so it
shares no floating-point code path with the package.  It is loaded from its
file; nothing in ``bench/`` is changed.
"""

import importlib.util
import pathlib

import pytest

from gaussdisc import discrimination_reports, gain_curves

pytest.importorskip("mpmath")

_REFERENCE_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.py"

MUS = (1.001, 1.01, 1.3, 2.0, 5.0, 30.0, 300.0, 1000.0, 1e9, 1e12)
#: relative tolerances: the closed forms and the minima over s are good to a
#: few ulp; the quadrature, the exponents near mu = 1 (-ln Q with Q near 1)
#: and the entropy differences lose digits to conditioning
TOLERANCES = {
    "p_plus_global": 1e-12,
    "p_plus_local": 1e-12,
    "p_minus_global": 1e-12,
    "p_minus_local": 1e-9,
    "kappa": 1e-9,
    "kappa_loc": 1e-9,
    "delta_c": 1e-9,
    "delta_d": 1e-9,
}


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("bench_reference", _REFERENCE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reference_rows(reference):
    return [reference.row(mu) for mu in MUS]


def test_sweep_rows_match_mpmath(reference_rows):
    bad = []
    for report, ref in zip(discrimination_reports(MUS), reference_rows):
        for name, tol in TOLERANCES.items():
            err = abs(getattr(report, name) - ref[name]) / abs(ref[name])
            if err > tol:
                bad.append(f"{name} at mu={report.mu}: rel {err:.2e} > {tol:g}")
    assert not bad, bad


def test_gain_rows_match_mpmath(reference_rows):
    for point, ref in zip(gain_curves(MUS), reference_rows):
        for name in ("kappa", "kappa_loc", "delta_c", "delta_d"):
            assert getattr(point, name) == pytest.approx(ref[name], rel=TOLERANCES[name])
