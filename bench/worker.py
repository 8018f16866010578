"""One benchmark process: import, build the seeded ops, warm up, run the loop.

Started by run.py.  Prints ``READY`` once the warm-up op (op 0, not timed)
has returned, so the parent can time set-up from spawn to that line.  In
``setup`` mode it then exits.  In ``run`` mode it runs the closed loop for
``--seconds`` from the second block of ops on, checks every output after
the loop and prints one JSON line.  In ``trace`` mode each op runs twice in
a row, untraced and then traced, so both runs of an op see the same host
speed; the per-layer figures come from the traced runs.

Time figures of the workloads marked ``scaled`` are scaled to the reference
host speed of calibration.py, measured at most every CALIBRATE_EVERY_S at
block starts.  All come from the faster half of the run's blocks.  A block
is one stratified block of consecutive ops, so every block has the same mix
of work.  Host dips that last seconds only ever slow a block down; the
faster half drops them.  The unscaled figures over the same blocks are kept
in the detail as ``*_raw``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from calibration import host_factor

#: the tail percentile is the highest one with this many samples beyond it
TAIL_SAMPLES = 10
CALIBRATE_EVERY_S = 0.5


def timed_loop(workload, ops, seconds: float, tracer=None):
    """Closed loop: each op starts when the previous one has returned.

    Returns the records, the loop time, the host factor in force for each
    record and, with a tracer (each op is then run again under it), the
    traced seconds.
    """
    records, factors, traced_s = [], [], 0.0
    start = perf_counter()
    deadline = start + seconds
    factor, calibrated = 1.0, -math.inf
    for position, op in enumerate(ops):
        due = perf_counter() - calibrated >= CALIBRATE_EVERY_S
        if workload.scaled and position % workload.block == 0 and due:
            factor = host_factor()
            calibrated = perf_counter()
        factors.append(factor)
        t0 = perf_counter()
        outcome = workload.execute(op)
        t1 = perf_counter()
        records.append((op, t1 - t0, outcome))
        if tracer is not None:
            tracer.install()
            try:
                with tracer.op(op.index):
                    workload.execute(op)
            finally:
                tracer.uninstall()
            traced_s += perf_counter() - t1
        if perf_counter() >= deadline:
            break
    return records, perf_counter() - start, factors, traced_s


def tail_percentile(n: int) -> int:
    """p90 with at least 100 samples, else the highest with ten beyond it."""
    if n >= 100:
        return 90
    return max(50, int(100 * (1 - TAIL_SAMPLES / n))) if n else 50


def faster_half(records, work: dict, block: int) -> list:
    """Records of the complete blocks whose throughput is at least the median."""
    blocks = [records[i : i + block] for i in range(0, len(records) - block + 1, block)]
    if not blocks:
        return records
    rates = [sum(work.get(op.index, 0) for op, _, _ in b) / sum(lat for _, lat, _ in b) for b in blocks]
    cut = statistics.median(rates)
    return [r for b, rate in zip(blocks, rates) if rate >= cut for r in b]


def timings(records, work: dict, failures: dict) -> dict:
    ok_ms = sorted(1e3 * lat for op, lat, _ in records if op.index not in failures)
    tail = tail_percentile(len(ok_ms))
    if len(ok_ms) >= 2:
        p50 = statistics.median(ok_ms)
        tail_ms = statistics.quantiles(ok_ms, n=100, method="inclusive")[tail - 1]
    else:
        p50 = tail_ms = ok_ms[0] if ok_ms else float("nan")
    busy = sum(lat for _, lat, _ in records)
    return {
        "throughput_per_s": sum(work.get(op.index, 0) for op, _, _ in records) / busy,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail_ms,
        "latency_tail_percentile": tail,
        "latency_samples": len(ok_ms),
    }


def summarise(workload, records, probes, loop_s: float, factors, checked) -> dict:
    timed = {op.index for op, _, _ in records}
    failures = {i: f for i, f in checked.failures.items() if i in timed}
    edge_failures = {i: f for i, f in checked.failures.items() if i not in timed}
    work = sum(n for i, n in checked.work.items() if i in timed)
    scaled = [(op, lat * f, outcome) for (op, lat, outcome), f in zip(records, factors)]
    selected = faster_half(scaled, checked.work, workload.block)
    chosen = {op.index for op, _, _ in selected}
    return {
        "attempted": len(records),
        "failed": len(failures),
        **classified(failures, "failure"),
        "edge_probes": len(probes),
        "edge_failed": len(edge_failures),
        **classified(edge_failures, "edge_failure"),
        "work": work,
        "work_unit": workload.unit,
        "loop_s": loop_s,
        "blocks": len(records) // workload.block,
        "ops_in_faster_half": len(selected),
        "host_factor_median": statistics.median(factors) if factors else None,
        **timings(selected, checked.work, failures),
        **{
            f"{k}_raw": v
            for k, v in timings(
                [r for r in records if r[0].index in chosen], checked.work, failures
            ).items()
        },
        "accuracy": checked.accuracy,
    }


def classified(failures: dict, prefix: str) -> dict:
    """Failure counts by class, and the first failure of each class."""
    examples = {}
    for index, (cls, message) in sorted(failures.items()):
        examples.setdefault(cls, f"op {index}: {message[:300]}")
    return {
        f"{prefix}_classes": dict(Counter(cls for cls, _ in failures.values())),
        f"{prefix}_examples": examples,
    }


def blas_threads():
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where trace mode writes its spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ops = workload.stream()
    workload.execute(next(ops))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    ops = itertools.islice(ops, workload.block - 1, None)  # from the second block
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
    records, loop_s, factors, traced_s = timed_loop(workload, ops, args.seconds, tracer)
    # the edge probes run once, untimed and untraced, and are checked with the rest
    probes = [(op, 0.0, workload.execute(op)) for op in workload.edge_probes()]
    checked = workload.check(records + probes)
    result = summarise(workload, records, probes, loop_s, factors, checked)
    result["environment"] = environment()

    if tracer is not None:
        if args.spans:
            tracer.write(args.spans)
        gain_rows = {
            op.index: len(outcome.value)
            for op, _, outcome in records
            if op.kind == "gain" and op.index in checked.work
        }
        layers = tracer.layer_metrics(len(records), gain_rows)
        if layers["fock.s_overlap_converged.calls"]:
            dim = (2 * workloads.ORACLE_CONFIG.cutoff) ** 2
            layers["fock.eigh_dim"] = dim
            layers["fock.eigh_bytes"] = dim * dim * 8
        else:
            layers["fock.eigh_dim"] = layers["fock.eigh_bytes"] = 0
        for cls in workloads.EDGE_CLASSES:
            layers[f"edge.{cls}"] = result["edge_failure_classes"].get(cls, 0)
        layers["trace.throughput_ratio"] = sum(lat for _, lat, _ in records) / traced_s
        result["layers"] = layers
        result["traced_s"] = traced_s
        result["spans"] = len(tracer.spans)

    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
