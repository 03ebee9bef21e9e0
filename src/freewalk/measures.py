"""Finitely supported probability measures and exact convolution powers.

Measures and everything computed from them are immutable values.  Each
measure memoizes pure results keyed by their budgets (`Measure.memo`): ball
tables, return sequences, Green fields, pair matrices and absorption
profiles.  `Measure.drop_tables` forgets all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import engine
from .engine import BallTable, BudgetExceededError
from .groups import FreeProduct, GroupElement, word_ball

EXACT = "exact"
FLOAT = "float"


class Measure:
    """A finitely supported probability measure on a free product.

    Weights are exact `Fraction`s (mode "exact") or floats (mode "float").
    Instances are immutable by convention.  Results computed from the
    measure live in its memo under a tuple key whose first item names the
    kind, such as ("table", cap) or ("field", r_values, order, radius); they
    stay until `drop_tables`, except that at most two fields are kept.
    """

    def __init__(self, group: FreeProduct, entries: Mapping[GroupElement, Fraction | float],
                 mode: str = EXACT):
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        cleaned: dict[GroupElement, Fraction | float] = {}
        for g, w in entries.items():
            w = Fraction(w) if mode == EXACT else float(w)
            if w <= 0:
                raise ValueError(f"non-positive weight {w} at {group.render(g)}")
            key = group.normalize(g.syllables)
            cleaned[key] = cleaned.get(key, Fraction(0) if mode == EXACT else 0.0) + w
        total = sum(cleaned.values())
        if mode == EXACT:
            if total != 1:
                raise ValueError(f"weights sum to {total}, not 1")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-12")
        self.group = group
        self.entries: dict[GroupElement, Fraction | float] = dict(
            sorted(cleaned.items(), key=lambda kv: (len(kv[0].syllables), kv[0].syllables))
        )
        self.mode = mode
        self.max_table_elements: int | None = None
        self._memo: dict[tuple, object] = {}

    # -- basic views ---------------------------------------------------------

    @property
    def support(self) -> list[GroupElement]:
        return list(self.entries)

    @property
    def d_mu(self) -> int:
        return max((self.group.word_length(g) for g in self.entries), default=0)

    def weight(self, g: GroupElement):
        zero = Fraction(0) if self.mode == EXACT else 0.0
        return self.entries.get(self.group.normalize(g.syllables), zero)

    def is_symmetric(self) -> bool:
        grp = self.group
        for g, w in self.entries.items():
            if self.entries.get(grp.inverse(g)) != w:
                return False
        return True

    def as_float(self) -> "Measure":
        if self.mode == FLOAT:
            return self
        return Measure(self.group, {g: float(w) for g, w in self.entries.items()}, FLOAT)

    def integerized(self) -> tuple[list[int], int]:
        """Weights scaled to integers by their common denominator D."""
        if self.mode != EXACT:
            raise ValueError("integerized weights need exact mode")
        denom = math.lcm(*(w.denominator for w in self.entries.values()))
        return [int(w * denom) for w in self.entries.values()], denom

    def memo(self, key: tuple, compute, keep: int | None = None):
        """The memoized value under `key`, computed by `compute()` on a miss.

        `keep` bounds how many entries of the key's kind (its first item)
        stay alive: storing a new one evicts the oldest beyond that.
        """
        if key not in self._memo:
            value = compute()
            if keep is not None:
                same = [k for k in self._memo if k[0] == key[0]]
                for k in same[:max(0, len(same) + 1 - keep)]:
                    del self._memo[k]
            self._memo[key] = value
        return self._memo[key]

    def table(self, cap: int, max_elements: int | None = None) -> BallTable:
        """Interned ball table for this support at the given word-radius cap.

        A cached table is served only within the budget of this call, so a
        call raises `BudgetExceededError` whether or not the table is cached.
        """
        budget = max_elements if max_elements is not None else self.max_table_elements
        table = self.memo(("table", cap),
                          lambda: BallTable(self.group, list(self.entries), cap, budget))
        if budget is not None and table.size > budget:
            raise BudgetExceededError(f"ball table exceeded {budget} elements")
        return table

    def drop_tables(self):
        """Forget every memoized result: the engine tables, which dominate
        memory, and everything computed on them that would keep them alive."""
        self._memo.clear()


@dataclass(frozen=True)
class WalkReport:
    symmetric: bool
    aperiodic: bool
    period: int
    checked_to: int
    admissible_to_depth: int
    support_radius: int


@dataclass(frozen=True)
class ReturnSequence:
    """q_n = mu^{*n}(e) for n = 0..n_max, with provenance."""

    values: tuple
    mode: str
    n_max: int
    denominator: int = 0
    pruned_radius: int = 0

    def floats(self) -> list[float]:
        return [float(v) for v in self.values]


def default_radius(measure: Measure, n: int) -> int:
    """Word-radius budget for an n-term series or an n-step horizon when the
    caller names none: min(n, 10) * max(1, d_mu)."""
    return min(n, 10) * max(1, measure.d_mu)


# -- constructors -----------------------------------------------------------------


def measure_from_pairs(group: FreeProduct, pairs: Iterable[tuple[str | GroupElement, object]],
                       mode: str = EXACT) -> Measure:
    entries: dict[GroupElement, Fraction | float] = {}
    for key, w in pairs:
        g = group.parse(key) if isinstance(key, str) else key
        w = Fraction(w) if mode == EXACT else float(w)
        entries[g] = entries.get(g, 0) + w
    return Measure(group, entries, mode)


def simple_walk(group: FreeProduct) -> Measure:
    """Uniform on the standard generators and their inverses."""
    gens: list[GroupElement] = []
    for k in range(1, group.num_factors + 1):
        spec = group.factor(k)
        for i in range(spec.dim):
            coords = [0] * spec.dim
            coords[i] = 1
            gens.append(GroupElement((group.syllable(k, coords),)))
            coords[i] = -1
            gens.append(group.normalize([group.syllable(k, coords)]))
    gens = list(dict.fromkeys(gens))
    w = Fraction(1, len(gens))
    return Measure(group, {g: w for g in gens})


def lazy_walk(group: FreeProduct, hold: Fraction = Fraction(1, 2)) -> Measure:
    """(1 - hold) * simple walk + hold * delta_e; aperiodic for hold > 0."""
    base = simple_walk(group)
    entries = {g: (1 - hold) * w for g, w in base.entries.items()}
    entries[group.identity] = Fraction(hold)
    return Measure(group, entries)


# -- validation ---------------------------------------------------------------------


def validate(measure: Measure, depth: int = 6) -> WalkReport:
    """Symmetry, periodicity (gcd of return times up to 2*depth), and the
    verified admissibility radius.

    gcd = 1 is definitive; a gcd d > 1 is reported as period d for the
    checked horizon (the gcd of a growing set never increases).
    """
    grp = measure.group
    symmetric = measure.is_symmetric()

    q = return_sequence(measure, 2 * depth).values
    return_times = [n for n in range(1, 2 * depth + 1) if q[n] > 0]
    if not return_times:
        period, aperiodic = 0, False
    else:
        period = 0
        for n in return_times:
            period = math.gcd(period, n)
        aperiodic = period == 1

    support = list(measure.entries)
    admissible_to = 0
    for ell in range(1, depth + 1):
        target = set(word_ball(grp, ell))
        reached = {grp.identity}
        frontier = {grp.identity}
        radius_cap = ell + 2 * measure.d_mu + 2
        for _ in range(4 * (ell + 1)):
            if target <= reached:
                break
            new = set()
            for x in frontier:
                for s in support:
                    y = grp.multiply(x, s)
                    if grp.word_length(y) <= radius_cap and y not in reached:
                        new.add(y)
            reached |= new
            frontier = new
            if not frontier:
                break
        if target <= reached:
            admissible_to = ell
        else:
            break
    return WalkReport(
        symmetric=symmetric,
        aperiodic=aperiodic,
        period=period,
        checked_to=2 * depth,
        admissible_to_depth=admissible_to,
        support_radius=measure.d_mu,
    )


# -- convolution --------------------------------------------------------------------


def convolve(m: Measure, n: Measure, allow_cast: bool = False) -> Measure:
    """(m * n)(g) = sum_x m(x) n(x^-1 g).  Small-support direct product."""
    if m.group is not n.group and m.group.factors != n.group.factors:
        raise ValueError("measures live on different groups")
    if m.mode != n.mode:
        if not allow_cast:
            raise ValueError("mode mismatch (pass allow_cast=True to mix)")
        m, n = m.as_float(), n.as_float()
    grp = m.group
    out: dict[GroupElement, Fraction | float] = {}
    for x, wx in m.entries.items():
        for y, wy in n.entries.items():
            z = grp.multiply(x, y)
            out[z] = out.get(z, Fraction(0) if m.mode == EXACT else 0.0) + wx * wy
    return Measure(grp, out, m.mode)


def _exact_power_sequence(measure: Measure, n_max: int) -> list[Fraction]:
    """Exact q_n = mu^{*n}(e), n = 0..n_max: the pruned table DP on the
    integerized weights, in float64 within `engine.exact_capacity` and in
    Python ints beyond it."""
    ints, denom = measure.integerized()
    d_mu = max(1, measure.d_mu)
    table = measure.table(((n_max + 1) // 2) * d_mu)
    numerators = engine.pruned_power_sequence(table, ints, n_max, d_mu, measure.is_symmetric())
    return [Fraction(num, denom**n) for n, num in enumerate(numerators)]


def _dict_power_sequence(measure: Measure, n_max: int) -> list[Fraction]:
    """`_exact_power_sequence` beyond float64 capacity.  The name of the
    Fraction dict DP it replaced stays: the benchmark's tracer counts these
    calls as the exact fallback."""
    return _exact_power_sequence(measure, n_max)


def return_sequence(measure: Measure, n_max: int) -> ReturnSequence:
    """Exact q_n = mu^{*n}(e) for n = 0..n_max.

    States that cannot get back to e by step n_max are pruned
    (`engine.return_bound`); the values are exact, from the table DP in
    float64 within `engine.exact_capacity` and in Python ints beyond
    (`_dict_power_sequence`).  Ball tables are bounded by the measure's
    `max_table_elements`.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d_mu = max(1, measure.d_mu)
    half_radius = ((n_max + 1) // 2) * d_mu

    def compute() -> ReturnSequence:
        if measure.mode == FLOAT:
            table = measure.table(half_radius)
            qs = [float(w[0]) for w, _ in engine.levels(
                table, measure.entries.values(), n_max,
                lambda t: engine.return_bound(t, n_max, d_mu))]
            return ReturnSequence(tuple(qs), FLOAT, n_max, pruned_radius=half_radius)
        denom = measure.integerized()[1]
        fits = engine.exact_capacity(denom, (n_max + 1) // 2)
        vals = (_exact_power_sequence if fits else _dict_power_sequence)(measure, n_max)
        return ReturnSequence(tuple(vals), EXACT, n_max, denominator=denom,
                              pruned_radius=half_radius)

    return measure.memo(("q", n_max), compute)


def distribution(measure: Measure, n: int, prune_radius: int | None = None) -> dict:
    """mu^{*n} restricted to the word ball of prune_radius.

    The restriction is exact: intermediate states are pruned at the sharpest
    sound radius prune_radius + (n - t) * d_mu, which every path ending
    inside the ball respects.  The total is a sub-probability when the
    radius bites and all of mu^{*n} when prune_radius >= n * d_mu.  Returns
    a dict GroupElement -> nonzero weight (a Measure proper requires total
    mass 1), from `engine.levels` on a ball table bounded by
    `max_table_elements`; exact mode runs the integerized weights in Python
    ints.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    d_mu = max(1, measure.d_mu)
    radius = n * d_mu if prune_radius is None else prune_radius

    def bound(t: int) -> int:
        return min(t * d_mu, radius + (n - t) * d_mu)

    cap = max(bound(t) for t in range(n + 1)) if n else 0
    table = measure.table(cap)
    if measure.mode == EXACT:
        ints, denom = measure.integerized()
        weights, value = np.array(ints, dtype=object), lambda x: Fraction(x, denom**n)
    else:
        weights, value = measure.entries.values(), float
    for w, hi in engine.levels(table, weights, n, bound):
        pass  # only the last level is wanted
    return {table.element_of(int(i)): value(w[i]) for i in np.nonzero(w[:hi])[0]}
