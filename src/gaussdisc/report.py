"""Aggregation of every bound, information bracket and exponent over a grid.

:func:`evaluate` computes the bound and exponent columns for a whole grid of
thermal variances at once; the reports, the exponents and the gain tables
are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .entropy import correlation_budget, info_bounds
from .errors import check_mu
from .global_bounds import chernoff_overlap_global, lower_bound_global
from .local_bounds import chernoff_overlap_local, lower_bound_local

#: absolute slack of the cross-bound ordering checks
_SLACK = 1e-12


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


def evaluate(mu_grid) -> dict[str, np.ndarray]:
    """Every bound and exponent column over a grid of thermal variances.

    Returns the ``REPORT_FIELDS`` columns other than the information
    brackets (see :func:`discrimination_reports`), plus the exponent
    ``ratio``.  Each error bound comes from the one elementwise function
    that the scalar API is a view of: :func:`chernoff_overlap_global`,
    :func:`lower_bound_global`, :func:`chernoff_overlap_local` and
    :func:`lower_bound_local`.  Every element is computed independently of
    the others, so a point's values do not depend on the grid around it.
    ``ratio`` and ``ratio_db`` are NaN at ``mu = 1``, where both exponents
    vanish.
    """
    mu = np.array([check_mu(float(value)) for value in mu_grid], dtype=float)
    budgets = [correlation_budget(value) for value in mu.tolist()]
    q_global = chernoff_overlap_global(mu)
    q_local = chernoff_overlap_local(mu)[1]
    spread = mu > 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(spread, -np.log(q_global), 0.0)
        kappa_loc = np.where(spread, -np.log(q_local), 0.0)
        ratio = np.where(spread, kappa / kappa_loc, np.nan)
        ratio_db = 10.0 * np.log10(ratio)
    return {
        "mu": mu,
        "delta_c": np.array([b.delta_c for b in budgets]),
        "delta_d": np.array([b.delta_d for b in budgets]),
        "p_plus_global": q_global / 2.0,
        "p_minus_global": lower_bound_global(mu),
        "p_plus_local": q_local / 2.0,
        "p_minus_local": lower_bound_local(mu),
        "kappa": kappa,
        "kappa_loc": kappa_loc,
        "delta": kappa - kappa_loc,
        "ratio": ratio,
        "ratio_db": ratio_db,
    }


def rows(columns: dict[str, np.ndarray], cls) -> list:
    """One ``cls`` per grid point, its fields taken from the same-named columns."""
    names = [field.name for field in fields(cls)]
    return [cls(*row) for row in zip(*(columns[name].tolist() for name in names))]


def discrimination_reports(mu_grid) -> list[DiscriminationReport]:
    """One report per grid point: :func:`evaluate` plus the information brackets.

    The brackets come from :func:`info_bounds`, which rejects an error
    bracket that is not ordered.
    """
    columns = evaluate(mu_grid)
    for detector in ("global", "local"):
        brackets = zip(
            columns[f"p_plus_{detector}"].tolist(), columns[f"p_minus_{detector}"].tolist()
        )
        info = [info_bounds(p_up, p_lo) for p_up, p_lo in brackets]
        lower, upper = np.array(info, dtype=float).reshape(-1, 2).T
        columns[f"i_minus_{detector}"], columns[f"i_plus_{detector}"] = lower, upper
    return rows(columns, DiscriminationReport)


def discrimination_report(mu: float) -> DiscriminationReport:
    """Every column at one thermal variance: a batch of one of :func:`discrimination_reports`."""
    return discrimination_reports([mu])[0]


def report_violations(report: DiscriminationReport) -> list[str]:
    """Cross-bound ordering checks, each with an absolute slack of 1e-12.

    An empty list means the row is consistent.
    """
    r, slack = report, _SLACK
    checks = [
        (r.p_minus_global <= r.p_plus_global + slack, "p_minus_global <= p_plus_global"),
        (r.p_plus_global <= 0.5 + slack, "p_plus_global <= 1/2"),
        (r.p_minus_local <= r.p_plus_local + slack, "p_minus_local <= p_plus_local"),
        (r.p_plus_local <= 0.5 + slack, "p_plus_local <= 1/2"),
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
