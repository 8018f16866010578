"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gaussdisc as gd

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

SWEEP_GRID = np.logspace(math.log10(1.001), 3.0, 200)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def sweep_reports():
    return [gd.discrimination_report(float(mu)) for mu in SWEEP_GRID]


def test_criterion_1_global_oracle_equivalence():
    config = gd.FockConfig(cutoff=20, modulation_nodes=16)
    orders = (0.3, 0.5, 0.7)
    worst = 0.0
    for mu in (1.5, 2.0):
        oracle = gd.s_overlap_converged(mu, orders, config)
        for s in orders:
            worst = max(worst, abs(oracle[s] - gd.s_overlap_global(mu, s)))
    # tie the sector-sum curve to the generic operator route once
    # (they differ only through the sub-clamp thermal tail, ~1e-10)
    rho0 = gd.build_thermal_product(2.0, config)
    rho1 = gd.build_correlated(2.0, config)
    direct = gd.oracle_s_overlap(rho0, rho1, 0.5)
    curve = gd.s_overlap_curve(2.0, [0.5], config)[0.5]
    assert abs(direct - curve) < 1e-8
    verdict(1, worst <= 1e-3, f"closed form vs Fock oracle, worst |diff| = {worst:.2e} (tol 1e-3)")


def test_criterion_2_fidelity_oracle_equivalence():
    cutoff = 60
    worst = 0.0
    for mu in (1.5, 2.0):
        eps = gd.heterodyne_epsilon(mu)
        rho_a = gd.build_thermal((mu - 1.0) / 2.0, gd.FockConfig(cutoff))
        for a in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
            mean = (eps / math.sqrt(2.0)) * np.asarray(a)
            rho_b = gd.displaced_thermal(eps / 2.0, mean, cutoff)
            diff = abs(gd.oracle_fidelity(rho_a, rho_b) - gd.fidelity_heterodyne(mu, a))
            worst = max(worst, diff)
    verdict(2, worst <= 1e-4, f"fidelity closed form vs Uhlmann oracle, worst |diff| = {worst:.2e} (tol 1e-4)")


def test_criterion_3_heterodyne_optimality_grid():
    failures = []
    for mu in (1.5, 2.0, 5.0, 20.0):
        for g in (0.4 * (mu - 1.0), mu - 1.0):
            for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                try:
                    gd.verify_heterodyne_optimality(mu, g, s)
                except gd.ReportFailure as exc:
                    failures.append(str(exc))
    detail = (
        "lambda-scan minimum at 1 on all 40 grid points"
        if not failures
        else f"{len(failures)} failures, first: {failures[0]}"
    )
    verdict(3, not failures, detail)


def test_criterion_4_bound_orderings_on_sweep(sweep_reports):
    slack = 1e-12
    bad = []
    for report in sweep_reports:
        violations = gd.report_violations(report)
        ok = (
            report.p_minus_global <= report.p_plus_global + slack
            and report.p_plus_global <= 0.5 + slack
            and report.p_minus_local <= report.p_plus_local + slack
            and report.p_plus_local <= 0.5 + slack
            and report.p_plus_global <= report.p_plus_local + slack
            and report.p_minus_global <= report.p_minus_local + slack
            and not violations
        )
        if not ok:
            bad.append((report.mu, violations))
    detail = (
        f"all orderings hold at 1e-12 slack on {len(sweep_reports)} sweep points"
        if not bad
        else f"violations at mu = {bad[0][0]:g}: {bad[0][1]}"
    )
    verdict(4, not bad, detail)


def test_criterion_5_exponent_separation_and_gain(sweep_reports):
    separated = all(r.kappa > r.kappa_loc for r in sweep_reports)
    deltas = [r.delta for r in sweep_reports]
    monotone = all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    final = sweep_reports[-1]
    gap_ok = final.delta > 2.0
    db_ok = 1.5 <= final.ratio_db <= 2.5
    ok = separated and monotone and gap_ok and db_ok
    verdict(
        5,
        ok,
        "kappa > kappa_loc everywhere, delta nondecreasing, "
        f"delta({final.mu:.0f}) = {final.delta:.3f} > 2, "
        f"ratio = {final.ratio_db:.3f} dB in [1.5, 2.5]",
    )


def test_criterion_6_correlation_limits():
    discord = gd.delta_d(1e6)
    classical = gd.delta_c(1e6)
    ok = (
        0.999 <= discord < 1.0
        and classical > 15.0
        and gd.delta_c(1.0) == 0.0
        and gd.delta_d(1.0) == 0.0
    )
    verdict(
        6,
        ok,
        f"delta_d(1e6) = {discord:.6f} in [0.999, 1), delta_c(1e6) = {classical:.2f} > 15, "
        "both exactly 0 at mu = 1",
    )


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(2024)
    worst_recon = worst_sympl = 0.0
    for _ in range(1000):
        mu = rng.uniform(1.0, 50.0)
        g = rng.uniform(0.0, mu - 1.0)
        cm = gd.make_symmetric_state(mu, g)
        for dec in (gd.williamson_symmetric(cm), gd.williamson_numeric(cm)):
            worst_recon = max(worst_recon, np.abs(dec.reconstruct() - cm.matrix()).max())
            worst_sympl = max(
                worst_sympl, np.abs(dec.s_matrix @ gd.OMEGA @ dec.s_matrix.T - gd.OMEGA).max()
            )
    worst_identity = 0.0
    for _ in range(100):
        mu = rng.uniform(1.0, 20.0)
        g = rng.uniform(-(mu - 1.0), mu - 1.0)
        povm = gd.GaussianPovm(
            eta=rng.uniform(1.0, 5.0),
            theta=rng.uniform(0.0, 2.0 * math.pi),
            lam=math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
        )
        prep = gd.condition_on_povm(mu, g, povm)
        worst_identity = max(
            worst_identity, np.abs(prep.v_cond + prep.v_mod - mu * np.eye(2)).max()
        )
    ok = worst_recon <= 1e-10 and worst_sympl <= 1e-10 and worst_identity <= 1e-12
    verdict(
        7,
        ok,
        f"1000 Williamson round-trips (recon {worst_recon:.1e}, symplectic {worst_sympl:.1e} "
        f"<= 1e-10); conditional complement identity over 100 POVMs ({worst_identity:.1e} <= 1e-12)",
    )


def test_criterion_8_csv_determinism(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    args = [
        sys.executable, "-m", "gaussdisc", "sweep",
        "--mu-min", "1.001", "--mu-max", "1000", "--points", "60", "--spacing", "log",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (first, second):
        proc = subprocess.run(
            args + ["--out", str(path)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
    identical = first.read_bytes() == second.read_bytes()
    verdict(8, identical, f"two identical sweep invocations produced byte-identical CSVs ({first.stat().st_size} bytes)")
