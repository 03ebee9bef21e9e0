"""Weak Tauberian comparisons and return-exponent fitting.

The comparisons operationalize "f is within constants of g" as a finite,
refinement-stable ratio spread: no absolute constants are asserted, only
that the ratio families stay bounded and stable when the grids grow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SequenceSpec:
    """Non-negative coefficients with a provenance note."""

    values: tuple[float, ...]
    note: str = ""

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("coefficients must be non-negative")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class RatioFamilyReport:
    beta: float
    partial_family: tuple[tuple[int, float], ...]
    laplace_family: tuple[tuple[float, float], ...]
    partial_spread: tuple[float, float]
    laplace_spread: tuple[float, float]
    consistent: bool


@dataclass(frozen=True)
class MonotoneLemmaReport:
    beta: float
    hypothesis_family: tuple[tuple[int, float], ...]
    conclusion_family: tuple[tuple[int, float], ...]
    hypothesis_spread: tuple[float, float]
    conclusion_spread: tuple[float, float]
    hypothesis_ok: bool
    conclusion_bounded: bool


@dataclass(frozen=True)
class ExponentFit:
    alpha: float
    window: tuple[int, int]
    residual: float
    r_hat: float
    linear_trend: float
    intercept: float
    points: int


def _spread(vals: Sequence[float]) -> tuple[float, float]:
    pos = [v for v in vals if v > 0 and math.isfinite(v)]
    if not pos:
        return (math.inf, math.inf)
    return (min(pos), max(pos))


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs, its sums exactly rounded."""
    n = len(xs)
    sx, sy = math.fsum(xs), math.fsum(ys)
    sxx = math.fsum(x * x for x in xs)
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def check_partial_sums_vs_laplace(seq: SequenceSpec, beta: float,
                                  s_grid: Sequence[float],
                                  n_grid: Sequence[int]) -> RatioFamilyReport:
    """Compare sum_{k<=n} a_k against n^beta and A(s) against (1-s)^-beta.

    Both ratio families are reported with their min/max; the verdict is
    "consistent" when both spreads are finite and the spreads over the
    first and second halves of each grid agree within 50% (an internal
    refinement probe; callers double the ranges for the stronger check).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    a = seq.values
    if not any(a):
        raise ValueError("sequence is identically zero")
    csum = np.cumsum(a)
    partial = []
    for n in n_grid:
        if not 1 <= n < len(a):
            raise ValueError(f"n = {n} outside the computed range")
        partial.append((n, float(csum[n] / n**beta)))
    laplace = []
    ns = np.arange(len(a))
    for s in s_grid:
        if not 0 <= s < 1:
            raise ValueError("s grid must lie in [0, 1)")
        A = float(np.sum(np.asarray(a) * s**ns))
        laplace.append((float(s), A * (1.0 - s) ** beta))

    p_spread = _spread([v for _, v in partial])
    l_spread = _spread([v for _, v in laplace])

    def stable(family):
        # a steadily drifting family keeps widening: the full-grid spread
        # must not substantially exceed the half-grid spread
        vals = [v for _, v in family]
        half = len(vals) // 2
        if half < 2:
            return True
        lo1, hi1 = _spread(vals[:half])
        lo, hi = _spread(vals)
        return (hi / lo) <= 1.5 * (hi1 / lo1) + 1e-12

    consistent = (
        math.isfinite(p_spread[1])
        and math.isfinite(l_spread[1])
        and p_spread[0] > 0
        and l_spread[0] > 0
        and stable(partial)
        and stable(laplace)
    )
    return RatioFamilyReport(
        beta=beta,
        partial_family=tuple(partial),
        laplace_family=tuple(laplace),
        partial_spread=p_spread,
        laplace_spread=l_spread,
        consistent=consistent,
    )


def check_monotone_lemma(seq: SequenceSpec, beta: float) -> MonotoneLemmaReport:
    """For non-increasing b_n: if sum_{k<=n} k b_k grows like n^beta
    (0 < beta < 1) then b_n decays like n^(beta-2).

    Rejects inputs that are not non-increasing; flags the hypothesis when
    the weighted partial sums do not follow n^beta on the computed range.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    b = seq.values
    if any(x < y - 1e-15 for x, y in zip(b, b[1:])):
        raise ValueError("sequence is not non-increasing")
    n_max = len(b) - 1
    n_grid = range(max(2, n_max // 8), n_max + 1, max(1, n_max // 16))
    weighted = np.cumsum([k * v for k, v in enumerate(b)])
    hypothesis = [(n, float(weighted[n] / n**beta)) for n in n_grid]
    conclusion = [(n, float(b[n] / n ** (beta - 2.0))) for n in n_grid if b[n] > 0]

    h_spread = _spread([v for _, v in hypothesis])
    c_spread = _spread([v for _, v in conclusion])

    # the hypothesis requires the n^beta-normalized sums to stay flat:
    # fit the log-log slope and ask it to be near zero
    xs = [math.log(n) for n, _ in hypothesis]
    ys = [math.log(v) for _, v in hypothesis if v > 0]
    hypothesis_ok = len(ys) == len(xs) >= 3 and abs(_slope(xs, ys)) < 0.15
    conclusion_bounded = (
        math.isfinite(c_spread[1]) and c_spread[0] > 0
        and c_spread[1] / c_spread[0] < 50.0
    )
    return MonotoneLemmaReport(
        beta=beta,
        hypothesis_family=tuple(hypothesis),
        conclusion_family=tuple(conclusion),
        hypothesis_spread=h_spread,
        conclusion_spread=c_spread,
        hypothesis_ok=hypothesis_ok,
        conclusion_bounded=conclusion_bounded,
    )


def fit_llt_exponent(seq: SequenceSpec, r_hat: float, window: tuple[int, int],
                     period: int = 1) -> ExponentFit:
    """Least-squares exponent of q_n ~ C R^-n n^-alpha on the window.

    Fits log(q_n r_hat^n) = c - alpha log n; the additional linear-in-n
    coefficient of an extended fit is reported as `linear_trend` (a nonzero
    trend signals a mis-estimated r_hat, since replacing R by R rho shifts
    the data by n log rho).
    """
    lo, hi = window
    if period < 1:
        raise ValueError("period must be >= 1")
    ns = [n for n in range(lo, hi + 1)
          if n % period == 0 and n < len(seq.values)]
    pts = [(n, float(seq.values[n])) for n in ns]
    bad = [n for n, v in pts if v <= 0]
    if bad:
        raise ValueError(f"q_n must be positive on the window; zero at {bad[:4]}")
    if len(pts) < 4:
        raise ValueError("window too small: need at least 4 usable points")
    xs = np.array([math.log(n) for n, _ in pts])
    ys = np.array([math.log(v) + n * math.log(r_hat) for n, v in pts])
    A = np.column_stack([np.ones_like(xs), xs])
    coef, _, _, _ = np.linalg.lstsq(A, ys, rcond=None)
    fitted = A @ coef
    residual = float(np.sqrt(np.mean((ys - fitted) ** 2)))
    A2 = np.column_stack([np.ones_like(xs), xs, np.array([n for n, _ in pts], float)])
    coef2, _, _, _ = np.linalg.lstsq(A2, ys, rcond=None)
    return ExponentFit(
        alpha=float(-coef[1]),
        window=(lo, hi),
        residual=residual,
        r_hat=r_hat,
        linear_trend=float(coef2[2]),
        intercept=float(coef[0]),
        points=len(pts),
    )
