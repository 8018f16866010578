"""Aggregation of every bound, information bracket and exponent over a grid.

:func:`evaluate` computes every column for a whole grid of thermal variances
at once; the sweep CSV is written straight from it, and the reports, the
exponents and the gain tables are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .entropy import correlations, information
from .errors import NumericalError, check_mu
from .global_bounds import chernoff_overlap_global, lower_bound_global
from .local_bounds import chernoff_overlap_local, lower_bound_local


@dataclass(frozen=True)
class DiscriminationReport:
    """All discrimination quantities at one thermal variance.

    ``i_plus_*``/``i_minus_*`` are the upper/lower mutual-information bounds
    induced by the corresponding error bounds; ``ratio_db`` is NaN at
    ``mu = 1`` where the exponent ratio is undefined.  The fields, in this
    order, are the CSV columns (``REPORT_FIELDS``).
    """

    mu: float
    delta_c: float
    delta_d: float
    p_plus_global: float
    p_minus_global: float
    p_plus_local: float
    p_minus_local: float
    i_plus_global: float
    i_minus_global: float
    i_plus_local: float
    i_minus_local: float
    kappa: float
    kappa_loc: float
    delta: float
    ratio_db: float

    def as_row(self) -> list[float]:
        return [getattr(self, name) for name in REPORT_FIELDS]


#: CSV column contract: exactly these names, in this order.
REPORT_FIELDS = tuple(field.name for field in fields(DiscriminationReport))


def _exponent_columns(mu_grid) -> dict[str, np.ndarray]:
    """The exponent columns over a grid: ``mu``, the correlations, the
    Chernoff bounds ``p_plus_*`` and the exponents ``kappa``, ``kappa_loc``,
    ``delta``, ``ratio`` and ``ratio_db``, which come from the same minimized
    overlaps.  The exponents and the gain tables are views of them;
    :func:`evaluate` adds the lower bounds and the information on top."""
    mu = np.array([check_mu(value) for value in mu_grid], dtype=float)
    delta_c, delta_d = correlations(mu)
    q_global, q_local = chernoff_overlap_global(mu), chernoff_overlap_local(mu)[1]
    spread = mu > 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(spread, -np.log(q_global), 0.0)
        kappa_loc = np.where(spread, -np.log(q_local), 0.0)
        ratio = np.where(spread, kappa / kappa_loc, np.nan)
        ratio_db = 10.0 * np.log10(ratio)
    return dict(
        mu=mu, delta_c=delta_c, delta_d=delta_d, p_plus_global=q_global / 2.0,
        p_plus_local=q_local / 2.0, kappa=kappa, kappa_loc=kappa_loc, delta=kappa - kappa_loc,
        ratio=ratio, ratio_db=ratio_db,
    )


def evaluate(mu_grid) -> dict[str, np.ndarray]:
    """Every ``REPORT_FIELDS`` column, and the exponent ``ratio``, over a grid:
    :func:`_exponent_columns`, and on top of them the lower bounds and the
    information columns.

    Each column comes from the one elementwise function that its scalar API
    is a view of, so a point's values do not depend on the grid around it.
    The orderings are not checked here (:func:`report_columns` checks them).
    ``ratio`` and ``ratio_db`` are NaN at ``mu = 1``.
    """
    columns = _exponent_columns(mu_grid)
    mu, p_plus_global, p_plus_local = (columns[k] for k in ("mu", "p_plus_global", "p_plus_local"))
    p_minus_global, p_minus_local = lower_bound_global(mu), lower_bound_local(mu)
    # an upper bound on the error gives a lower bound on the information
    columns.update(
        p_minus_global=p_minus_global, p_minus_local=p_minus_local,
        i_plus_global=information(p_minus_global), i_minus_global=information(p_plus_global),
        i_plus_local=information(p_minus_local), i_minus_local=information(p_plus_local),
    )
    return {name: columns[name] for name in (*REPORT_FIELDS, "ratio")}


def report_columns(mu_grid) -> dict[str, np.ndarray]:
    """:func:`evaluate`, gated by :func:`column_violations`: the first grid
    point that breaks an ordering is a :class:`NumericalError` naming its
    ``mu`` and the labels it fails.  A column that under- or overflows is
    NaN or infinite and fails the gate without a floating-point warning."""
    with np.errstate(all="ignore"):
        columns = evaluate(mu_grid)
        i, violations = column_violations(columns)
    if violations:
        mu = float(columns["mu"][i])
        raise NumericalError(f"internal invariant violation at mu={mu!r}: " + "; ".join(violations))
    return columns


def rows(columns: dict[str, np.ndarray], cls) -> list:
    """One ``cls`` per grid point, its fields taken from the same-named columns."""
    names = [field.name for field in fields(cls)]
    return [cls(*row) for row in zip(*(columns[name].tolist() for name in names))]


def discrimination_reports(mu_grid) -> list[DiscriminationReport]:
    """One report per grid point: the rows of :func:`report_columns`."""
    return rows(report_columns(mu_grid), DiscriminationReport)


def discrimination_report(mu: float) -> DiscriminationReport:
    """Every column at one thermal variance: a batch of one of :func:`discrimination_reports`."""
    return discrimination_reports([mu])[0]


def column_violations(columns: dict[str, np.ndarray]) -> tuple[int, list[str]]:
    """The first grid point that fails an ordering check, and the labels it
    fails; ``(0, [])`` if none.  The error brackets ``0 <= p_minus <= p_plus
    <= 1/2`` are strict; the other checks allow an absolute slack of 1e-12."""
    c, slack = columns, 1e-12
    checks = {
        "0 <= p_minus_global": 0.0 <= c["p_minus_global"],
        "p_minus_global <= p_plus_global": c["p_minus_global"] <= c["p_plus_global"],
        "p_plus_global <= 1/2": c["p_plus_global"] <= 0.5,
        "0 <= p_minus_local": 0.0 <= c["p_minus_local"],
        "p_minus_local <= p_plus_local": c["p_minus_local"] <= c["p_plus_local"],
        "p_plus_local <= 1/2": c["p_plus_local"] <= 0.5,
        "p_plus_global <= p_plus_local": c["p_plus_global"] <= c["p_plus_local"] + slack,
        "p_minus_global <= p_minus_local": c["p_minus_global"] <= c["p_minus_local"] + slack,
        "i_minus_global <= i_plus_global": c["i_minus_global"] <= c["i_plus_global"] + slack,
        "i_minus_local <= i_plus_local": c["i_minus_local"] <= c["i_plus_local"] + slack,
        "i_minus_local <= i_minus_global": c["i_minus_local"] <= c["i_minus_global"] + slack,
        "i_plus_local <= i_plus_global": c["i_plus_local"] <= c["i_plus_global"] + slack,
        "global info in [0, 1]": (-slack <= c["i_minus_global"])
        & (c["i_plus_global"] <= 1.0 + slack),
        "local info in [0, 1]": (-slack <= c["i_minus_local"]) & (c["i_plus_local"] <= 1.0 + slack),
        "kappa >= kappa_loc": c["kappa"] >= c["kappa_loc"] - slack,
        "delta = kappa - kappa_loc": np.abs(c["delta"] - (c["kappa"] - c["kappa_loc"])) <= slack,
    }
    passed = np.array(list(checks.values()))
    i = int(np.argmin(passed.all(axis=0)))
    return i, [label for label, ok in zip(checks, passed[:, i]) if not ok]


def report_violations(report: DiscriminationReport) -> list[str]:
    """The labels of the checks of :func:`column_violations` that one report
    fails; an empty list means the row is consistent."""
    return column_violations({name: np.array([getattr(report, name)]) for name in REPORT_FIELDS})[1]
