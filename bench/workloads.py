"""The three benchmark workloads: seeded ops, how to run one, how to check them.

Each workload is a closed loop of ops generated from the seed, block by
block and only as the loop asks for them (``stream``).  ``execute``
runs one op through the public API and returns its raw outcome; ``check``
runs after the timed loop and turns every outcome into a failure class (or
``None``) plus the accuracy figures.  Nothing here is timed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gaussdisc as gd
from gaussdisc import cli

import reference

#: the sweep CSV header, copied from the README contract
CSV_HEADER = (
    "mu,delta_c,delta_d,p_plus_global,p_minus_global,p_plus_local,p_minus_local,"
    "i_plus_global,i_minus_global,i_plus_local,i_minus_local,kappa,kappa_loc,delta,ratio_db"
)
#: CLI default span of thermal variances
SPAN = (1.001, 1000.0)
#: sweep ops that reach a domain edge, run once per run outside the timed
#: loop; the known edge-of-domain defects make most of them fail
EDGE_PROBES = 8
#: op index of the first edge probe, past any index the timed loop reaches
EDGE_INDEX = 10**9
#: the failure classes of the edge probes that the traced run reports
EDGE_CLASSES = (
    "usage_error_on_valid_input",
    "uncaught_exception",
    "invariant_violation",
    "output_mismatch",
)
#: mpmath tolerance for closed-form and quadrature columns (quad asks for 1e-8)
REL_TOL = 1e-8
#: tolerance for the global Chernoff columns: for mu above about 10 their
#: minimum over s sits at the clipped edge of the s-interval, and the bounded
#: Brent search stops ~1.5e-8 short of it, which moves Q by up to ~2e-7
EDGE_MINIMUM_REL_TOL = 1e-6
REFERENCE_COLUMNS = {
    "delta_c": REL_TOL,
    "delta_d": REL_TOL,
    "p_plus_global": EDGE_MINIMUM_REL_TOL,
    "p_minus_global": REL_TOL,
    "p_plus_local": REL_TOL,
    "p_minus_local": REL_TOL,
    "kappa": EDGE_MINIMUM_REL_TOL,
    "kappa_loc": REL_TOL,
}
GAIN_COLUMNS = ("delta_c", "delta_d", "kappa", "kappa_loc")
#: ops of the in-span share whose rows are compared with mpmath in one run
REFERENCE_OPS = 40

HET_ORDERS = (0.1, 0.3, 0.5, 0.7, 0.9)
WILLIAMSON_TOL = 1e-10

ORACLE_CONFIG = gd.FockConfig(20, 16)
ORACLE_ORDERS = (0.3, 0.5, 0.7)
FIDELITY_CUTOFF = 60
OVERLAP_TOL = 1e-3
FIDELITY_TOL = 1e-4
#: the covariance tolerance of tests/test_fock.py; means must vanish
MOMENT_TOL = 1e-4
MEAN_TOL = 1e-10


@dataclass
class Op:
    index: int
    kind: str
    params: dict
    edge: str | None = None


@dataclass
class Outcome:
    """What one op returned: a value, or the failure class and message."""

    value: object = None
    error: tuple[str, str] | None = None


def _raised(exc: Exception) -> Outcome:
    if isinstance(exc, gd.DomainError):  # every generated input is valid
        return Outcome(error=("usage_error_on_valid_input", str(exc)))
    return Outcome(error=("uncaught_exception", f"{type(exc).__name__}: {exc}"))


@dataclass
class Checked:
    """Verdict of the post-loop checks over every attempted op."""

    failures: dict[int, tuple[str, str]]  # op index -> (class, message)
    work: dict[int, int]  # op index -> work units the op completed
    accuracy: dict[str, dict]


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each n-th of [0, 1), in seeded order.

    Ops are generated in blocks drawn this way, so every seed gives the same
    mix of op sizes and only the values and their order change; a run's
    figures then move with the program, not with the luck of the draw.
    """
    values = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(values)
    return values


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def _log_between(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


class Sweep:
    """Figure-generation traffic: CLI sweeps and gain tables."""

    name = "sweep"
    unit = "rows"
    scaled = True
    block = 20

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def stream(self):
        """The seeded ops, block by block, without end."""
        rng = random.Random(f"sweep-{self.seed}")
        for start in itertools.count(0, self.block):
            yield from self._block(rng, start, self.block)

    def edge_probes(self) -> list[Op]:
        """The seeded edge probes: half start within 1e-6 of mu = 1, half
        end in [1e11, 1e12].  They run once, after the timed loop, and are
        checked like any op; their failures are counted apart, by class."""
        rng = random.Random(f"sweep-edge-{self.seed}")
        ops = self._block(rng, EDGE_INDEX, EDGE_PROBES)
        edges = _shuffled(rng, ["low", "high"] * (EDGE_PROBES // 2))
        for op, edge, u in zip(ops, edges, _strata(rng, EDGE_PROBES)):
            op.edge = edge
            if edge == "low":
                op.params["mu_min"] = 1.0 + _log_between(u, 1e-9, 1e-6)
            else:
                op.params["mu_max"] = _log_between(u, 1e11, 1e12)
        return ops

    @staticmethod
    def _block(rng: random.Random, start: int, size: int) -> list[Op]:
        """One block of ops inside the span: three in four CLI sweeps, half
        of them log-spaced, 20-200 points."""
        kinds = _shuffled(rng, ["cli"] * (3 * size // 4) + ["gain"] * (size // 4))
        spacings = _shuffled(rng, ["log", "linear"] * (size // 2))
        points = [20 + int(181 * u) for u in _strata(rng, size)]
        lower, upper = _strata(rng, size), _strata(rng, size)
        # log10 endpoints inside the span, at least a factor 1.01 apart
        first, last, gap = math.log10(SPAN[0]), math.log10(SPAN[1]), math.log10(1.01)
        ops = []
        for j in range(size):
            lo = first + lower[j] * (last - first - gap)
            hi = lo + gap + upper[j] * (last - lo - gap)
            params = dict(mu_min=10.0**lo, mu_max=10.0**hi, points=points[j], spacing=spacings[j])
            ops.append(Op(start + j, kinds[j], params))
        return ops

    @staticmethod
    def grid(params: dict) -> list[float]:
        lo, hi, n = params["mu_min"], params["mu_max"], params["points"]
        if params["spacing"] == "linear":
            values = np.linspace(lo, hi, n)
        else:
            values = np.logspace(np.log10(lo), np.log10(hi), n)
        return [float(mu) for mu in values]

    def csv_path(self, op: Op) -> Path:
        return self.workdir / f"sweep-{op.index}.csv"

    def argv(self, op: Op, out: Path) -> list[str]:
        p = op.params
        return [
            "sweep",
            "--mu-min", repr(p["mu_min"]),
            "--mu-max", repr(p["mu_max"]),
            "--points", str(p["points"]),
            "--spacing", p["spacing"],
            "--out", str(out),
        ]  # fmt: skip

    def execute(self, op: Op) -> Outcome:
        try:
            if op.kind == "gain":
                return Outcome(gd.gain_curves(self.grid(op.params)))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(self.argv(op, self.csv_path(op)))
            return Outcome((code, sink.getvalue().strip()))
        except Exception as exc:  # counted per op, by class
            return _raised(exc)

    # -- checks ---------------------------------------------------------

    def parse(self, op: Op, outcome: Outcome):
        """One op's output as {column: value} rows, or its (class, message)."""
        if outcome.error is not None:
            return outcome.error
        grid = self.grid(op.params)
        if op.kind == "gain":
            rows = [vars(point) for point in outcome.value]
            if len(rows) != len(grid) or any(r["mu"] != mu for r, mu in zip(rows, grid)):
                return ("output_mismatch", "gain table does not follow the grid")
            for r in rows:
                if not all(math.isfinite(v) for v in r.values()):
                    return ("output_mismatch", f"non-finite gain row at mu={r['mu']!r}")
                if r["kappa"] < r["kappa_loc"] or r["delta"] != r["kappa"] - r["kappa_loc"]:
                    return ("invariant_violation", f"exponent ordering at mu={r['mu']!r}")
            return rows
        code, message = outcome.value
        if code == cli.EXIT_USAGE:
            return ("usage_error_on_valid_input", message)
        if code == cli.EXIT_INVARIANT:
            return ("invariant_violation", message)
        if code != cli.EXIT_OK:
            return ("unexpected_exit", f"exit {code}: {message}")
        lines = self.csv_path(op).read_text(encoding="utf-8").split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != len(grid) + 2:
            return ("output_mismatch", "CSV header or row count")
        names = CSV_HEADER.split(",")
        rows = []
        for line, mu in zip(lines[1:-1], grid):
            cells = line.split(",")
            if len(cells) != len(names) or cells[0] != f"{mu:.12g}":
                return ("output_mismatch", f"CSV row for mu={mu!r}: {line}")
            row = dict(zip(names, map(float, cells)))
            if not all(math.isfinite(v) for v in row.values()):
                return ("output_mismatch", f"non-finite CSV cell at mu={mu!r}")
            row["mu"] = mu  # the exact float, not its 12-digit print
            rows.append(row)
        return rows

    def reference_targets(self, parsed: dict, ops: dict) -> list[tuple[int, int]]:
        """(op index, row index) pairs compared with mpmath: the edge row of
        every edge op that returned rows, plus one seeded row from each of a
        seeded subsample of in-span ops."""
        rng = random.Random(f"sweep-check-{self.seed}")
        targets = []
        for index, rows in parsed.items():
            edge = ops[index].edge
            if edge is not None:
                targets.append((index, 0 if edge == "low" else len(rows) - 1))
        inside = [i for i in parsed if ops[i].edge is None]
        for index in sorted(rng.sample(inside, min(REFERENCE_OPS, len(inside)))):
            targets.append((index, rng.randrange(len(parsed[index]))))
        return targets

    def check(self, records: list[tuple[Op, float, Outcome]]) -> Checked:
        failures, work, parsed = {}, {}, {}
        for op, _, outcome in records:
            rows = self.parse(op, outcome)
            if isinstance(rows, tuple):
                failures[op.index] = rows
            else:
                parsed[op.index] = rows
                work[op.index] = len(rows)
        ops = {op.index: op for op, _, _ in records}
        targets = self.reference_targets(parsed, ops)
        errors = []  # (op index, column, relative error, mu)
        for index, row_index in targets:
            row = parsed[index][row_index]
            ref = reference.row(row["mu"])
            columns = GAIN_COLUMNS if ops[index].kind == "gain" else REFERENCE_COLUMNS
            for name in columns:
                err = abs(row[name] - ref[name]) / abs(ref[name])
                errors.append((index, name, err, row["mu"]))
                if err > REFERENCE_COLUMNS[name] and index not in failures:
                    failures[index] = (
                        "output_mismatch",
                        f"{name} at mu={row['mu']!r}: {row[name]!r} vs mpmath "
                        f"{ref[name]!r} (rel {err:.2e})",
                    )

        # determinism: one seeded in-span CLI request is run again
        reruns = [
            i for i in parsed if ops[i].edge is None and ops[i].kind == "cli" and i not in failures
        ]
        if reruns:
            op = ops[random.Random(f"sweep-rerun-{self.seed}").choice(reruns)]
            first = self.csv_path(op).read_bytes()
            again = self.workdir / "rerun.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(op, again))
            if code != cli.EXIT_OK or again.read_bytes() != first:
                failures[op.index] = ("output_mismatch", "rerun CSV is not byte-identical")

        for index in failures:
            work.pop(index, None)
        worst = {name: (0.0, None) for name in REFERENCE_COLUMNS}
        for index, name, err, mu in errors:
            if index not in failures and err > worst[name][0]:
                worst[name] = (err, mu)
        accuracy = {
            "max_rel_err": {
                "value": max(e for e, _ in worst.values()),
                "unit": "1",
                "samples": sum(1 for e in errors if e[0] not in failures),
                "tolerance": {"p_plus_global, kappa": EDGE_MINIMUM_REL_TOL, "others": REL_TOL},
                "by_column": {k: {"rel_err": e, "mu": mu} for k, (e, mu) in worst.items()},
            },
            "reference_rows": len(targets),
            "rerun_checked": bool(reruns),
        }
        return Checked(failures, work, accuracy)


class Verify:
    """Heterodyne and fidelity optimality scans plus a Williamson round trip."""

    name = "verify"
    unit = "points"
    scaled = True
    block = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def edge_probes(self) -> list[Op]:
        return []

    def stream(self):
        """The seeded ops, block by block, without end."""
        rng = random.Random(f"verify-{self.seed}")
        index = itertools.count()
        while True:
            for u, v in zip(_strata(rng, self.block), _strata(rng, self.block)):
                mu = 1.0 + _log_between(u, 0.1, 30.0)
                frac = 1.0 - 0.95 * v  # in (0.05, 1]
                yield Op(next(index), "point", dict(mu=mu, g=frac * (mu - 1.0)))

    def execute(self, op: Op) -> Outcome:
        mu, g = op.params["mu"], op.params["g"]
        try:
            scans = [gd.verify_heterodyne_optimality(mu, g, s) for s in HET_ORDERS]
            scans.append(gd.verify_fidelity_optimality(mu, g))
            cm = gd.make_symmetric_state(mu, g)
            decs = (gd.williamson_symmetric(cm), gd.williamson_numeric(cm))
            return Outcome((scans, cm, decs))
        except gd.ReportFailure as exc:
            return Outcome(error=("verification_failure", str(exc)))
        except Exception as exc:
            return _raised(exc)

    def check(self, records) -> Checked:
        failures, work = {}, {}
        worst_derivative, worst_williamson, scans_seen = 0.0, 0.0, 0
        for op, _, outcome in records:
            if outcome.error is not None:
                failures[op.index] = outcome.error
                continue
            scans, cm, decs = outcome.value
            scans_seen += len(scans)
            derivative = max(abs(scan.derivative_at_unit) for scan in scans)
            target = cm.matrix()
            err = max(
                max(float(np.abs(d.reconstruct() - target).max()) for d in decs),
                abs(decs[0].nu_minus - decs[1].nu_minus),
                abs(decs[0].nu_plus - decs[1].nu_plus),
            )
            if err > WILLIAMSON_TOL:
                failures[op.index] = ("williamson_mismatch", f"round trip off by {err:.2e}")
                continue
            worst_derivative = max(worst_derivative, derivative)
            worst_williamson = max(worst_williamson, err)
            work[op.index] = 1
        accuracy = {
            "max_abs_derivative": {"value": worst_derivative, "unit": "1", "samples": scans_seen},
            "max_williamson_err": {"value": worst_williamson, "unit": "1", "samples": len(work)},
        }
        return Checked(failures, work, accuracy)


class Oracle:
    """Truncated-Fock oracle against the closed forms, inside its mu scope."""

    name = "oracle"
    unit = "points"
    #: the dense linear algebra runs on both CPUs; no reference computation
    #: tracked it (a one-thread one: correlation 0.24 with op time; a
    #: two-thread eigh: 0.86, but with two to three times its swings)
    scaled = False
    block = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def edge_probes(self) -> list[Op]:
        return []

    def stream(self):
        """The seeded ops, block by block, without end."""
        rng = random.Random(f"oracle-{self.seed}")
        index = itertools.count()
        while True:
            strata = zip(*(_strata(rng, self.block) for _ in range(3)))
            for u, x, y in strata:
                mu = 1.05 + u * (cli.ORACLE_MU_LIMIT - 1.05)
                a = (3.0 * x - 1.5, 3.0 * y - 1.5)
                yield Op(next(index), "point", dict(mu=mu, a=a))

    def execute(self, op: Op) -> Outcome:
        mu, a = op.params["mu"], np.asarray(op.params["a"])
        try:
            overlaps = gd.s_overlap_converged(mu, ORACLE_ORDERS, ORACLE_CONFIG)
            moments = gd.quadrature_moments(gd.build_correlated(mu, ORACLE_CONFIG), 2)
            eps = gd.heterodyne_epsilon(mu)
            rho_a = gd.build_thermal((mu - 1.0) / 2.0, gd.FockConfig(FIDELITY_CUTOFF))
            rho_b = gd.displaced_thermal(eps / 2.0, (eps / math.sqrt(2.0)) * a, FIDELITY_CUTOFF)
            fidelity = gd.oracle_fidelity(rho_a, rho_b)
            return Outcome((overlaps, moments, fidelity))
        except Exception as exc:
            return _raised(exc)

    def check(self, records) -> Checked:
        failures, work = {}, {}
        worst = {"overlap": 0.0, "fidelity": 0.0, "covariance": 0.0}
        for op, _, outcome in records:
            if outcome.error is not None:
                failures[op.index] = outcome.error
                continue
            mu, a = op.params["mu"], op.params["a"]
            overlaps, (mean, cov), fidelity = outcome.value
            diffs = {
                "overlap": max(abs(overlaps[s] - gd.s_overlap_global(mu, s)) for s in ORACLE_ORDERS),
                "fidelity": abs(fidelity - gd.fidelity_heterodyne(mu, a)),
                "covariance": float(np.abs(cov - gd.make_state_one(mu).matrix()).max()),
            }
            tolerances = {"overlap": OVERLAP_TOL, "fidelity": FIDELITY_TOL, "covariance": MOMENT_TOL}
            bad = [k for k, d in diffs.items() if d > tolerances[k]]
            if float(np.abs(mean).max()) > MEAN_TOL:
                bad.append("mean")
            if bad:
                failures[op.index] = (f"{bad[0]}_mismatch", f"mu={mu!r}: {diffs}")
                continue
            for key, d in diffs.items():
                worst[key] = max(worst[key], d)
            work[op.index] = 1
        accuracy = {
            "max_abs_diff": {
                "value": max(worst["overlap"], worst["fidelity"]),
                "unit": "1",
                "samples": len(work) * (len(ORACLE_ORDERS) + 1),
                "tolerance": {"overlap": OVERLAP_TOL, "fidelity": FIDELITY_TOL},
                "by_kind": worst,
            },
        }
        return Checked(failures, work, accuracy)


WORKLOADS = {cls.name: cls for cls in (Sweep, Verify, Oracle)}
