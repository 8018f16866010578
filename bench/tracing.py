"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (the package namespace and each importing module), so calls
made through those names, including the minimisers' closures, pass through
a wrapper.  SPANNED functions get a span (name, start, end, parent, op);
COUNTED ones are too small and too frequent for a span and only count
calls, keyed by the innermost open span.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

SPANNED = (
    "cli.main",
    "report.discrimination_report",
    "report.report_violations",
    "entropy.correlation_budget",
    "entropy.info_bounds",
    "global_bounds.qcb_global",
    "global_bounds.bhattacharyya_global",
    "local_bounds.p_upper_local",
    "local_bounds.p_lower_local",
    "local_bounds.verify_heterodyne_optimality",
    "local_bounds.verify_fidelity_optimality",
    "asymptotic.gain_curves",
    "asymptotic.exponents",
    "states.williamson_symmetric",
    "states.williamson_numeric",
    "states.make_symmetric_state",
    "fock.build_correlated",
    "fock.s_overlap_curve",
    "fock.s_overlap_converged",
    "fock.quadrature_moments",
    "fock.displaced_thermal",
    "fock.oracle_fidelity",
)
COUNTED = (
    "global_bounds.s_overlap_global",
    "local_bounds.s_overlap_heterodyne",
    "local_bounds.s_overlap_local",
    "local_bounds.averaged_fidelity_bound",
    "local_bounds.condition_on_povm",
)
#: objective -> the minimisation that calls it, for evaluations per minimisation
MINIMISERS = {
    "global_bounds": ("global_bounds.s_overlap_global", "global_bounds.qcb_global"),
    "local_bounds": ("local_bounds.s_overlap_heterodyne", "local_bounds.p_upper_local"),
}


def _bindings(target):
    """Every (module, attribute) in the package bound to ``target``."""
    for name, module in list(sys.modules.items()):
        if name == "gaussdisc" or name.startswith("gaussdisc."):
            for attr, value in list(vars(module).items()):
                if value is target:
                    yield module, attr


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op index)
        self.counts = Counter()  # (function, innermost span name) -> calls
        self._stack = [(-1, "")]
        self._next_id = 0
        self._op = None
        self._patches = []  # (module, attribute, original, wrapper)
        for qualname, make in [(q, self._span) for q in SPANNED] + [
            (q, self._count) for q in COUNTED
        ]:
            module, func = qualname.split(".")
            original = getattr(sys.modules[f"gaussdisc.{module}"], func)
            wrapper = make(qualname, original)
            self._patches += [(o, a, original, wrapper) for o, a in _bindings(original)]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, index: int):
        """A root span for one op; the op's calls nest in it."""
        self._op = index
        span_id, start = self._open("op")
        try:
            yield
        finally:
            self._close(span_id, "op", start)
            self._op = None

    def _open(self, name):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name))
        return span_id, perf_counter()

    def _close(self, span_id, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, self._stack[-1][0], self._op))

    def _span(self, qualname, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, start = self._open(qualname)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, qualname, start)

        return wrapper

    def _count(self, qualname, fn):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qualname, stack[-1][1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, ops: int, gain_rows: dict[int, int]) -> dict[str, float]:
        """Per-op calls and self time of every traced function, and the ratios.

        ``gain_rows`` maps each op whose gain table was accepted to its rows.
        """
        child_time = defaultdict(float)
        by_id = {}
        for span_id, name, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
            by_id[span_id] = (name, parent)
        calls, self_s = Counter(), defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child_time[span_id]
        for (name, _), n in self.counts.items():
            calls[name] += n

        metrics = {}
        for name in SPANNED:
            metrics[f"{name}.calls"] = calls[name] / ops
            metrics[f"{name}.self_s"] = self_s[name] / ops
        for name in COUNTED:
            metrics[f"{name}.calls"] = calls[name] / ops
        for layer, (objective, minimiser) in MINIMISERS.items():
            evals = self.counts[objective, minimiser]
            metrics[f"{layer}.evals_per_min"] = evals / calls[minimiser] if calls[minimiser] else 0.0

        def under_gain_curves(parent):
            while parent in by_id:
                name, parent = by_id[parent]
                if name == "asymptotic.gain_curves":
                    return True
            return False

        minimisations = sum(
            1
            for _, name, _, _, parent, op in self.spans
            if name in ("global_bounds.qcb_global", "local_bounds.p_upper_local")
            and op in gain_rows
            and under_gain_curves(parent)
        )
        rows = sum(gain_rows.values())
        metrics["asymptotic.minimisations_per_row"] = minimisations / rows if rows else 0.0
        return metrics
