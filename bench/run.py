"""gaussdisc benchmark: one workload, one seed, timed from outside the package.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the run spawns the worker SETUP_SPAWNS times to
time set-up (spawn until the warm-up op has returned, scaled to the
reference host speed of calibration.py measured just before the spawn),
lets the last one run the closed loop for ``--seconds``, checks every
output and reports the end-to-end metrics.  With ``--trace 1`` it times the imports with
``python -X importtime`` and runs the worker in trace mode for the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of standard output is the result object; the lines before it
are a readable summary and a ``detail`` object with sample counts, failure
classes, accuracy and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from calibration import host_factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: working space for CSVs and the span files, inside the checkout
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 5
IMPORT_RUNS = 3
#: a run must end well inside three minutes, whatever --seconds says
BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    nproc = len(os.sched_getaffinity(0))
    threads = int(env.get("OPENBLAS_NUM_THREADS", nproc))
    env["OPENBLAS_NUM_THREADS"] = str(max(1, min(threads, nproc)))
    return env


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run one worker; return (seconds from spawn to READY, its last line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {ready}{rest[-2000:]}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def import_times(env: dict) -> dict[str, float]:
    """Median over IMPORT_RUNS of numpy's and scipy's own import time and the
    whole ``import gaussdisc``, from ``python -X importtime``."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gaussdisc"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )  # fmt: skip
        totals = {"numpy": 0, "scipy": 0, "gaussdisc": 0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue  # the header line
            name = name.strip()
            top = name.split(".")[0]
            if top in ("numpy", "scipy"):
                totals[top] += int(own)
            elif name == "gaussdisc":
                totals["gaussdisc"] = int(cumulative)
        runs.append(totals)
    return {
        f"import.{key}_s": statistics.median(run[key] for run in runs) / 1e6
        for key in ("numpy", "scipy", "gaussdisc")
    }


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gaussdisc" / "__init__.py").is_file():
        print(f"error: no gaussdisc source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    env = child_env()
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        common += ["--workdir", workdir]
        setup = []
        if args.trace:
            imports = import_times(env)
            spans = OUT / f"spans-{args.workload}.jsonl"
            _, line = spawn([*common, "--mode", "trace", "--spans", str(spans)], env, deadline)
        else:
            for spawn_index in range(SETUP_SPAWNS):
                factor = host_factor()
                mode = "run" if spawn_index == SETUP_SPAWNS - 1 else "setup"
                setup_s, line = spawn([*common, "--mode", mode], env, deadline)
                setup.append((setup_s, factor))
    result = json.loads(line)

    if args.trace:
        values = {**result.pop("layers"), **imports}
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s * f for s, f in setup),
            "throughput_per_s": result["throughput_per_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_tail_ms": result["latency_tail_ms"],
            "success_share": 1.0 - result["failed"] / result["attempted"],
        }
        result["setup_samples_s"] = [s for s, _ in setup]
        result["setup_host_factors"] = [f for _, f in setup]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result["environment"].update(source_identity(), seed=args.seed, trace=bool(args.trace))
    print(f"gaussdisc benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  {result['attempted']} ops attempted, {result['failed']} failed "
        f"{result['failure_classes'] or ''}; {result['work']} {result['work_unit']} "
        f"in {result['loop_s']:.2f} s; latency over {result['latency_samples']} ops, "
        f"tail = p{result['latency_tail_percentile']}"
    )
    if result["edge_probes"]:
        print(
            f"  edge probes (untimed): {result['edge_failed']} of {result['edge_probes']} "
            f"failed {result['edge_failure_classes'] or ''}"
        )
    for name, acc in result["accuracy"].items():
        if isinstance(acc, dict):
            print(f"  {name} = {acc['value']:.3g} over {acc['samples']} samples")
    print(json.dumps({"detail": result}))
    print(
        json.dumps(
            {
                # the edge probes are reported by class in the detail, not here
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
