import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gaussdisc import (
    REPORT_FIELDS,
    bhattacharyya_global,
    cli,
    discrimination_report,
    discrimination_reports,
    exponents,
    gain_curves,
    p_lower_local,
    p_upper_local,
    qcb_global,
    report_violations,
)

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *flags, "-m", "gaussdisc", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def test_report_at_mu_one_is_uninformative():
    report = discrimination_report(1.0)
    assert report.p_plus_global == report.p_minus_global == 0.5
    assert report.p_plus_local == report.p_minus_local == 0.5
    assert report.i_plus_global == report.i_minus_global == 0.0
    assert report.i_plus_local == report.i_minus_local == 0.0
    assert report.kappa == report.kappa_loc == report.delta == 0.0
    assert math.isnan(report.ratio_db)
    assert report_violations(report) == []


def test_report_row_order_matches_contract():
    report = discrimination_report(2.0)
    row = report.as_row()
    assert len(row) == len(REPORT_FIELDS)
    assert row[0] == 2.0
    assert report_violations(report) == []


def test_report_rejects_mu_below_one():
    from gaussdisc import DomainError

    with pytest.raises(DomainError):
        discrimination_report(0.5)


def test_single_point_views_are_rows_of_the_batched_evaluation():
    grid = np.logspace(math.log10(1.001), 3.0, 37).tolist()
    gains = gain_curves(grid)
    names = ("kappa", "kappa_loc", "delta", "ratio", "ratio_db")
    for i in (0, 1, 17, 36):
        exp, gain = exponents(grid[i]), gains[i]
        assert [getattr(exp, n).hex() for n in names] == [getattr(gain, n).hex() for n in names]
    # the report and bound views also at the domain edge and far above it
    points = grid + [1.0, 1e12, 1e15]
    reports = discrimination_reports(points)
    for i in (0, 1, 17, 36, 37, 38, 39):
        mu, row = points[i], reports[i]
        single = discrimination_report(mu)
        assert [v.hex() for v in single.as_row()] == [v.hex() for v in row.as_row()]
        assert qcb_global(mu).p_upper.hex() == row.p_plus_global.hex()
        assert bhattacharyya_global(mu).p_lower.hex() == row.p_minus_global.hex()
        assert p_upper_local(mu).p_upper.hex() == row.p_plus_local.hex()
        assert p_lower_local(mu).hex() == row.p_minus_local.hex()


def test_report_fields_match_the_documented_csv_header():
    # the README prints the header over two lines; bench/workloads.py copies it
    readme = (pathlib.Path(_SRC).parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(readme) if line.startswith("mu,delta_c,"))
    assert ",".join(REPORT_FIELDS) == readme[start] + readme[start + 1]


def test_import_does_not_load_scipy():
    code = "import sys, gaussdisc; print(sorted(m for m in sys.modules if 'scipy' in m))"
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_point_emits_ordered_json():
    proc = run_cli("point", "--mu", "2.0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert list(payload) == list(REPORT_FIELDS)
    assert payload["p_minus_global"] == pytest.approx(0.1978, abs=5e-4)
    assert payload["p_minus_global"] <= payload["p_plus_global"]
    assert payload["p_plus_global"] <= payload["p_plus_local"]


def test_cli_point_mu_one_has_null_ratio():
    proc = run_cli("point", "--mu", "1.0")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ratio_db"] is None
    assert payload["p_plus_global"] == 0.5


def test_cli_point_with_infinite_ratio_emits_null():
    proc = run_cli("point", "--mu", "1.000000003")
    assert proc.returncode == 0
    # strict JSON: neither NaN nor Infinity
    payload = json.loads(proc.stdout, parse_constant=pytest.fail)
    assert payload["kappa_loc"] == 0.0 and payload["ratio_db"] is None


# valid thermal variances from just above 1 to the top of the float range
VALID_MUS = [1 + 1e-12, 1 + 1e-9, 1.000001, 1.001, 2.0, 1e12, 1e15]
VALID_MUS += [1e153, 1e250, 1e302, 1e305, 5e307, 6e307, 1e308, 1.7e308]
VALID_ARGVS = [["point", "--mu", repr(mu)] for mu in VALID_MUS]
VALID_ARGVS.append(["sweep", "--mu-min", "1.000001", "--mu-max", "2", "--points", "5"])


@pytest.mark.parametrize("argv", VALID_ARGVS)
def test_valid_mu_gives_a_report_or_one_invariant_line(argv, tmp_path, capsys):
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_INVARIANT)
    err = capsys.readouterr().err
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1)


def test_cli_point_rejects_bad_mu():
    proc = run_cli("point", "--mu", "0.9")
    assert proc.returncode == 2
    assert "mu" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("point", "--mu", "nan"),
        ("point", "--mu", "inf"),
        ("sweep", "--mu-max", "inf", "--out", os.devnull),
    ],
)
def test_cli_rejects_non_finite_mu(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "mu" in proc.stderr


def test_cli_sweep_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "--mu-min", "1.01", "--mu-max", "10", "--points", "10",
        "--spacing", "linear", "--out", out,
    )
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 11
    assert lines[0] == ",".join(REPORT_FIELDS)
    assert out.read_bytes().count(b"\r") == 0  # LF endings only


def test_cli_main_twice_in_one_process(tmp_path, capsys):
    # the parser is built once; no argument of the first call may leak into the second
    from gaussdisc.cli import main

    assert main(["sweep", "--points", "5", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["sweep", "--out", str(tmp_path / "b.csv")]) == 0
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 6
    assert len((tmp_path / "b.csv").read_text().splitlines()) == 201


def test_cli_sweep_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--mu-min", "1.01", "--mu-max", "50", "--points", "8",
            "--spacing", "log"]
    assert run_cli(*args, "--out", first).returncode == 0
    assert run_cli(*args, "--out", second).returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_sweep_final_gap_exceeds_two(tmp_path):
    out = tmp_path / "gap.csv"
    proc = run_cli(
        "sweep", "--mu-min", "2", "--mu-max", "1000", "--points", "40",
        "--spacing", "log", "--out", out,
    )
    assert proc.returncode == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    delta_column = header.index("delta")
    last = lines[-1].split(",")
    assert float(last[delta_column]) > 2.0


def test_cli_sweep_rejects_bad_spec(tmp_path):
    proc = run_cli(
        "sweep", "--mu-min", "1.0", "--mu-max", "2.0", "--points", "1",
        "--out", tmp_path / "x.csv",
    )
    assert proc.returncode == 2


def test_cli_sweep_reports_io_error():
    proc = run_cli(
        "sweep", "--mu-min", "1.01", "--mu-max", "2", "--points", "2",
        "--out", "/nonexistent-dir-zzz/out.csv",
    )
    assert proc.returncode == 3


def test_cli_verify_het_single_point():
    proc = run_cli("verify-het", "--mu", "2.0", "--g-frac", "1.0", "--s", "0.5")
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cli_verify_het_takes_uncorrelated_points():
    # mu = 1 leaves only g = 0, which gives a flat scan; so does --g-frac 0
    for args in (("--mu", "1"), ("--mu", "2", "--g-frac", "0")):
        proc = run_cli("verify-het", *args)
        assert proc.returncode == 0, proc.stderr
        assert "FAIL" not in proc.stdout


def test_cli_verify_het_above_2_to_53_is_one_invariant_line():
    # at the separability edge g = mu - 1 rounds to mu: a valid input, so not a usage error
    proc = run_cli("verify-het", "--mu", "1e16", "--g-frac", "1")
    assert proc.returncode == 5
    assert proc.stderr.count("\n") == 1 and "mu=1e+16" in proc.stderr


def test_cli_verify_het_past_the_overflow_is_one_invariant_line():
    # below the edge c_0 c_1 overflows from about mu = 1.3e154: one line, no warning
    proc = run_cli("verify-het", "--mu", "1e200", "--g-frac", "0.4", flags=("-W", "error"))
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert proc.stderr == "numerical failure: conditional spectrum overflows at mu=1e+200\n"


def test_cli_verify_het_empty_range():
    proc = run_cli("verify-het", "--mu")
    assert proc.returncode == 2
    proc = run_cli("oracle-check", "--s")
    assert proc.returncode == 2


def test_cli_oracle_check_trivial_point():
    proc = run_cli("oracle-check", "--mu", "1.0", "--s", "0.5",
                   "--cutoff", "6", "--nodes", "8")
    assert proc.returncode == 0
    assert "within" in proc.stdout


def test_cli_oracle_check_odd_node_count():
    # an odd grid has a node at the origin, an orbit of its own
    proc = run_cli("oracle-check", "--nodes", "9")
    assert proc.returncode == 0
    assert "within" in proc.stdout


def test_cli_oracle_check_rejects_out_of_scope():
    proc = run_cli("oracle-check", "--mu", "5.0")
    assert proc.returncode == 2


def test_cli_oracle_check_reports_convergence_failure():
    # cutoff 8 loses ~1e-4 of thermal trace at mu = 2, beyond the tolerance
    proc = run_cli("oracle-check", "--mu", "2.0", "--s", "0.5",
                   "--cutoff", "8", "--nodes", "8")
    assert proc.returncode == 4
    assert "convergence" in proc.stderr.lower()
