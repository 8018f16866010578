"""Multi-copy error exponents and the asymptotic gain of the global detector.

Over many copies the error probability of either detector decays as
``exp(-kappa * M)`` with ``kappa = -ln Q`` for the corresponding minimized
s-overlap; the gap ``delta = kappa - kappa_loc`` and the ratio in dB quantify
how much the global strategy wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .global_bounds import qcb_global
from .report import _exponent_columns, rows


@dataclass(frozen=True)
class ExponentReport:
    """Error exponents (in nats) of both detectors at one thermal variance.

    ``ratio`` and ``ratio_db`` are NaN at ``mu = 1`` where both exponents
    vanish; ``ratio_db`` uses the power convention ``10 log10(ratio)``.
    """

    kappa: float
    kappa_loc: float
    delta: float
    ratio: float
    ratio_db: float


def exponents(mu: float) -> ExponentReport:
    """Error exponents at one thermal variance: a batch of one of the exponent
    columns of :func:`report.evaluate`."""
    return rows(_exponent_columns([mu]), ExponentReport)[0]


def multicopy_p_upper(mu: float, copies: int) -> float:
    """Chernoff-type bound ``Q^M / 2`` on the M-copy global error probability."""
    if not (math.isfinite(copies) and copies >= 1 and int(copies) == copies):
        raise DomainError(f"copy count must be a positive integer, got {copies}")
    return 0.5 * qcb_global(mu).q_value ** int(copies)


@dataclass(frozen=True)
class GainPoint:
    """One row of the asymptotic-gain table."""

    mu: float
    delta_c: float
    delta_d: float
    kappa: float
    kappa_loc: float
    delta: float
    ratio: float
    ratio_db: float


def gain_curves(mu_grid) -> list[GainPoint]:
    """Asymptotic-gain table over a sorted grid of thermal variances > 1."""
    grid = list(mu_grid)
    if not grid:
        raise DomainError("empty grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    if grid[0] == 1.0:
        raise DomainError("gain curves require mu > 1: the exponent ratio is undefined at mu = 1")
    return rows(_exponent_columns(grid), GainPoint)
