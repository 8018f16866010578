"""Self-test of the benchmark's checker, kept out of the package's test suite.

    python3 bench/selftest.py

Plants wrong values into real op outputs and requires each to be caught
and counted as a failed op; requires the same outputs unplanted to pass;
checks that the sweep's edge probes are fixed by the seed; then smoke-runs
every workload for one second, one traced run, and a run in a directory
that holds only BENCHMARK.json and bench/, which must fail without
printing a result.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def change_8th_digit(value: float) -> float:
    """The value with its 8th significant digit moved by 5 (mod 10)."""
    text = f"{value:.11e}"  # d.ddddddddddde+xx: the 8th digit is text[8]
    return float(text[:8] + str((int(text[8]) + 5) % 10) + text[9:])


def first(ops, **where):
    return next(op for op in ops if all(getattr(op, k) == v for k, v in where.items()))


def test_sweep(workdir: Path) -> None:
    wl = workloads.Sweep(seed=7, workdir=workdir)
    ops = [first(wl.stream(), kind="cli", edge=None), first(wl.stream(), kind="gain", edge=None)]
    records = [(op, 0.0, wl.execute(op)) for op in ops]
    checked = wl.check(records)
    expect(not checked.failures, f"sweep: unplanted outputs pass ({checked.failures})")

    parsed = {op.index: wl.parse(op, outcome) for op, _, outcome in records}
    targets = dict(wl.reference_targets(parsed, {op.index: op for op in ops}))
    cli_op, gain_op = ops
    row = targets[cli_op.index]
    path = wl.csv_path(cli_op)
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[row + 1].split(",")
    column = workloads.CSV_HEADER.split(",").index("delta_d")
    cells[column] = f"{change_8th_digit(float(cells[column])):.12g}"
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    gain = records[1][2].value
    point = gain[targets[gain_op.index]]
    gain[targets[gain_op.index]] = dataclasses.replace(point, delta_d=change_8th_digit(point.delta_d))

    checked = wl.check(records)
    for op in ops:
        cls, message = checked.failures.get(op.index, (None, ""))
        expect(
            cls == "output_mismatch" and "vs mpmath" in message and op.index not in checked.work,
            f"sweep: 8th-digit change in a {op.kind} output is a failed op ({message[:70]})",
        )


def test_edge_probes(workdir: Path) -> None:
    probes = workloads.Sweep(seed=7, workdir=workdir).edge_probes()
    again = workloads.Sweep(seed=7, workdir=workdir).edge_probes()
    reach = all(
        op.params["mu_min"] - 1.0 <= 1e-6 if op.edge == "low" else op.params["mu_max"] >= 1e11
        for op in probes
    )
    expect(
        probes == again and len(probes) == workloads.EDGE_PROBES and reach,
        "sweep: the edge probes are fixed by the seed and reach the domain edges",
    )


def test_verify(workdir: Path) -> None:
    wl = workloads.Verify(seed=7, workdir=workdir)
    op = next(wl.stream())
    outcome = wl.execute(op)
    expect(not wl.check([(op, 0.0, outcome)]).failures, "verify: unplanted output passes")
    scans, cm, (exact, numeric) = outcome.value
    wrong = dataclasses.replace(numeric, nu_plus=numeric.nu_plus + 1e-8)
    planted = workloads.Outcome((scans, cm, (exact, wrong)))
    failures = wl.check([(op, 0.0, planted)]).failures
    expect(
        failures.get(op.index, ("",))[0] == "williamson_mismatch",
        "verify: a Williamson eigenvalue off by 1e-8 is a failed op",
    )


def test_oracle(workdir: Path) -> None:
    wl = workloads.Oracle(seed=7, workdir=workdir)
    op = next(wl.stream())
    outcome = wl.execute(op)
    expect(not wl.check([(op, 0.0, outcome)]).failures, "oracle: unplanted output passes")
    overlaps, moments, fidelity = outcome.value
    shifted = {s: v + (1e-2 if s == 0.5 else 0.0) for s, v in overlaps.items()}
    for label, value in (
        ("overlap", (shifted, moments, fidelity)),
        ("fidelity", (overlaps, moments, fidelity + 1e-2)),
    ):
        failures = wl.check([(op, 0.0, workloads.Outcome(value))]).failures
        expect(
            failures.get(op.index, ("",))[0] == f"{label}_mismatch",
            f"oracle: {label} off by 1e-2 is a failed op",
        )


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )  # fmt: skip


def test_smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [(w["name"], "0", "end_to_end") for w in spec["workloads"]] + [("sweep", "1", "per_layer")]
    for workload, trace, kind in runs:
        proc = run_benchmark(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
        ok = proc.returncode == 0
        if ok:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
            probes = workloads.EDGE_PROBES if workload == "sweep" else 0
            ok = (
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["attempted"] >= 1
                and set(result["metrics"]) == {m["name"] for m in spec[kind]}
                and detail["edge_probes"] == probes
            )
        expect(ok, f"smoke: {workload} --trace {trace} prints every {kind} metric")


def test_bare_directory(bare: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(
        proc.returncode != 0 and '"metrics"' not in proc.stdout,
        "bare directory: exits nonzero without a result",
    )


def main() -> int:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for test in (test_sweep, test_edge_probes, test_verify, test_oracle):
            workdir = Path(tmp) / test.__name__
            workdir.mkdir()
            test(workdir)
        test_smoke()
        bare = Path(tmp) / "bare"
        bare.mkdir()
        test_bare_directory(bare)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
