"""First-return kernels to the free factors and what they classify.

For a factor subgroup H_k, the first-return kernel at r weights every
excursion that leaves H_k and comes back: nu_r(h, h') sums r^n over paths
h -> h' whose intermediate states avoid H_k.  The kernel is H_k-invariant
(nu_r(h, h') = nu_r(e, h^-1 h')), so one absorbed-mass profile per factor
serves every r and every pair.  Convolution powers of the kernel live on
the abelian factor itself and drive the parabolic Green function, its
spectral radius, the Green-moment sums and the positive-recurrence
classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .groups import GroupElement
from .measures import Measure, default_radius
from .green import (_field_arrays, _pair_matrix_ids, _root_growth, pruned_return_weights,
                    resolve_r, series_derivative, spectral_radius)
from .tauberian import _slope


@dataclass(frozen=True)
class ReturnKernel:
    """First-return transition kernel p_{k,r} on a truncated factor ball.

    Stored through its e-row `nu` (offsets sigma = h^-1 h'); `entry` and
    `entries` materialize arbitrary pairs by invariance.
    """

    factor: int
    r: float
    nu: dict
    horizon: int
    exploration_radius: int

    @property
    def mass(self) -> float:
        return math.fsum(self.nu.values())

    def entry(self, group, h: GroupElement, h_prime: GroupElement) -> float:
        sigma = group.multiply(group.inverse(h), h_prime)
        return self.nu.get(sigma, 0.0)

    def entries(self, group, ball_radius: int) -> dict:
        hs = _factor_ball(group, self.factor, ball_radius)
        out = {}
        for h in hs:
            for hp in hs:
                out[(h, hp)] = self.entry(group, h, hp)
        return out


@dataclass(frozen=True)
class ParabolicGreenValue:
    factor: int
    r: float
    t: float
    value: float
    order: int
    horizon: int
    exploration_radius: int
    h_ball: int


@dataclass(frozen=True)
class KernelRadiusEstimate:
    factor: int
    r: float
    estimate: float
    mass_reciprocal: float
    diagnostics: tuple[float, ...]


@dataclass(frozen=True)
class MomentReport:
    factor: int
    r: float
    ladder: tuple[int, ...]
    partial_sums: tuple[float, ...]
    increment_ratios: tuple[float, ...]
    verdict: str  # finite | infinite | inconclusive


@dataclass(frozen=True)
class FactorVerdict:
    factor: int
    kernel_radius: float
    degenerate: str  # yes | no | inconclusive
    moments: MomentReport
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class Classification:
    factors: tuple[FactorVerdict, ...]
    divergent: str  # yes | no | inconclusive
    divergence_grid: tuple[tuple[float, float], ...]  # (r, G'(r))
    divergence_exponent: float
    spectrally_positive_recurrent: str  # yes | no | inconclusive
    r_spectral: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class EquadiffRow:
    r: float
    lhs: float  # G'' / (G')^3
    rhs: float  # 1 + sum_k G''_{k,r}
    ratio: float


# -- kernel construction -------------------------------------------------------------


def _factor_ball(group, k: int, radius: int) -> list[GroupElement]:
    out = [group.identity]
    out.extend(GroupElement((fe,)) for fe in group.factor_elements(k, radius))
    return out


def _absorption(measure: Measure, k: int, horizon: int, radius: int):
    """Cached first-entrance profile into H_k: per step n and offset sigma."""

    def compute():
        table = measure.table(radius)
        h_ids = table.subgroup_ids(k)
        prof = engine.absorbed_profile(table, measure.entries.values(), h_ids, horizon)
        return prof, [table.element_of(int(i)) for i in h_ids]

    return measure.memo(("absorb", k, horizon, radius), compute)


def first_return_kernel(measure: Measure, k: int, r: float, horizon: int = 64,
                        exploration_radius: int | None = None) -> ReturnKernel:
    """p_{k,r} as its e-row: nu(sigma) = sum_{n <= horizon} r^n x (mass of
    first returns to H_k at sigma at time n, through states within the
    exploration radius).

    Exact in the horizon when exploration_radius >= horizon * d_mu; both
    budgets only ever underestimate (monotone convergence from below).
    """
    measure.group.factor(k)
    if r < 0:
        raise ValueError("r must be >= 0")
    radius = (
        default_radius(measure, horizon) if exploration_radius is None else exploration_radius
    )
    prof, offsets = _absorption(measure, k, horizon, radius)
    nu: dict[GroupElement, float] = {}
    for idx in np.flatnonzero(prof.any(axis=0)):  # the offsets that carry mass
        val = math.fsum(prof[n, idx] * r ** (n + 1) for n in range(horizon))
        if val > 0.0:
            nu[offsets[idx]] = val
    return ReturnKernel(factor=k, r=r, nu=nu, horizon=horizon,
                        exploration_radius=radius)


# -- kernel powers on the factor ------------------------------------------------------


def _kernel_power_series(measure: Measure, kernel: ReturnKernel, order: int,
                         h_ball: int) -> list[float]:
    """p^{(n)}(e, e) for n = 0..order, states truncated to the factor ball.

    A level lives in a flat float64 buffer in which every kernel move is one
    contiguous slice.  A cyclic axis is kept whole, the level followed by a
    copy of itself, so a cyclic shift reads one slice of the pair.  A free
    axis is windowed to h_ball with a zero pad as wide as the largest kept
    offset p.  The outer axis is the first free one (a unit axis when there
    is none) and has one more row on each side for the inner-axis part of a
    shift read from the outermost pad rows.  After each step the inner pads
    are zeroed and the copies refreshed.
    Step t computes only the outer rows within min(h_ball, t p, (order - t) p)
    of the centre: rows further out hold no mass yet, or can no longer reach
    the centre by step `order`.  Moves are taken in nu order, stably sorted
    by their cyclic residues, and each cell sums the same products in that
    order as adding every move into zeros: the weights are > 0 and the
    levels >= 0, so the first product alone is that sum.
    """
    moduli = measure.group.factor(kernel.factor).moduli
    free = [i for i, m in enumerate(moduli) if not m]
    kept = []  # (off, w): the move adds w * old[i - off] to new[i]
    for sigma, w in kernel.nu.items():
        off = sigma.syllables[0].coords if sigma.syllables else (0,) * len(moduli)
        if all(abs(off[i]) <= 2 * h_ball for i in free):  # a nonempty window on every free axis
            kept.append((off, w))
    kept.sort(key=lambda move: [c for c, m in zip(move[0], moduli) if m])
    p = max((abs(off[i]) for off, _ in kept for i in free), default=0)
    width = 2 * (h_ball + p) + 1
    axes = free[1:] + [i for i, m in enumerate(moduli) if m]  # the inner axes
    shape = tuple(2 * moduli[i] or width for i in axes)
    strides = [math.prod(shape[j + 1:]) for j in range(len(axes))]
    row = math.prod(shape)
    mid = p + 1 + (h_ball if free else 0)  # the centre's outer row
    size = (2 * mid + 1) * row
    center = mid * row + sum((h_ball + p) * s for i, s in zip(axes, strides) if not moduli[i])
    # a cyclic shift by c reads the copy at m + i - c
    moves = [((off[free[0]] * row if free else 0)
              + sum((off[i] - moduli[i]) * s for i, s in zip(axes, strides)), w)
             for off, w in kept]
    fixes = []  # (cells, source): pads are zeroed, copies refreshed from their level
    for j, i in enumerate(axes, start=1):
        at, m = (slice(None),) * j, moduli[i]
        if m:
            fixes.append((at + (slice(m, 2 * m),), at + (slice(0, m),)))
        elif p:
            fixes += [(at + (slice(0, p),), None), (at + (slice(width - p, width),), None)]

    def span(t):
        reach = min(h_ball, t * p, (order - t) * p)
        return (mid - reach) * row, (mid + reach + 1) * row

    def fix(buf, lo, hi):
        grid = buf[lo:hi].reshape((-1,) + shape)
        for cells, source in fixes:
            grid[cells] = 0.0 if source is None else grid[source]

    series = [1.0]
    if not moves:
        return series + [0.0] * order
    vec, new = np.zeros(size), np.zeros(size)
    vec[center] = 1.0
    fix(vec, *span(0))
    (off0, w0), rest = moves[0], moves[1:]
    for t in range(1, order + 1):
        lo, hi = span(t)
        np.multiply(w0, vec[lo - off0:hi - off0], out=new[lo:hi])
        for off, w in rest:
            new[lo:hi] += w * vec[lo - off:hi - off]
        fix(new, lo, hi)
        vec, new = new, vec
        series.append(float(vec[center]))
    return series


def kernel_power_series(measure: Measure, k: int, r: float, order: int = 256,
                        horizon: int = 64, exploration_radius: int | None = None,
                        h_ball: int = 64) -> list[float]:
    kern = first_return_kernel(measure, k, r, horizon, exploration_radius)
    return _kernel_power_series(measure, kern, order, h_ball)


def parabolic_green(measure: Measure, k: int, r: float, t: float, order: int = 256,
                    horizon: int = 64, exploration_radius: int | None = None,
                    h_ball: int = 64) -> ParabolicGreenValue:
    """G_{k,r}(e, e | t) = sum_n t^n p_{k,r}^{(n)}(e, e) to the stated order."""
    kern = first_return_kernel(measure, k, r, horizon, exploration_radius)
    value = series_derivative(_kernel_power_series(measure, kern, order, h_ball), t)
    return ParabolicGreenValue(factor=k, r=r, t=t, value=value, order=order,
                               horizon=horizon, exploration_radius=kern.exploration_radius,
                               h_ball=h_ball)


def same_green_residual(measure: Measure, k: int, r: float, order: int = 64,
                        radius: int | None = None, kernel_order: int = 512,
                        horizon: int = 96, h_ball: int = 64) -> dict:
    """|G_{k,r}(e,e|1) - G(e,e|r)| at matched truncation budgets.

    The whole-group side uses the radius-pruned return weights; the kernel
    side composes first-return excursions explored inside the same radius.
    """
    radius = default_radius(measure, order) if radius is None else radius
    qf = pruned_return_weights(measure, order, radius)
    g_whole = series_derivative(qf, r)
    g_par = parabolic_green(measure, k, r, 1.0, kernel_order, horizon, radius, h_ball)
    return {
        "factor": k,
        "r": r,
        "whole_group": g_whole,
        "parabolic": g_par.value,
        "residual": abs(g_whole - g_par.value),
    }


# -- kernel spectral radius ------------------------------------------------------------


def kernel_radius(measure: Measure, k: int, r: float, order: int = 192,
                  horizon: int = 64, exploration_radius: int | None = None,
                  h_ball: int = 64) -> KernelRadiusEstimate:
    """Point estimate of the parabolic radius R_k(r) by ratio extrapolation
    of the even kernel powers, with the 1/mass closed form as diagnostic.

    A zero kernel (r = 0) reports +inf.
    """
    kern = first_return_kernel(measure, k, r, horizon, exploration_radius)
    if not kern.nu or kern.mass == 0.0:
        return KernelRadiusEstimate(factor=k, r=r, estimate=math.inf,
                                    mass_reciprocal=math.inf, diagnostics=())
    series = _kernel_power_series(measure, kern, order, h_ball)
    evens = [(n, series[2 * n]) for n in range(1, order // 2 + 1) if series[2 * n] > 0]
    diagnostics, growth = _root_growth(evens, extrapolate=True)
    return KernelRadiusEstimate(
        factor=k, r=r, estimate=1.0 / growth if growth else math.inf,
        mass_reciprocal=1.0 / kern.mass,
        diagnostics=diagnostics,
    )


# -- Green moments -----------------------------------------------------------------------


def green_moments(measure: Measure, k: int, r: float,
                  ladder: Sequence[int] = (1, 2, 4, 8), order: int = 48,
                  radius: int | None = None) -> MomentReport:
    """Partial sums of sum_{h,h' in H_k^ball(B)} G(e,h) G(h,h') G(h',e)
    over a doubling ladder of B, with a growth verdict.

    Geometrically decaying ladder increments mean the full series converges
    (finite Green moments); non-decaying increments mean it cannot.

    One pair matrix serves every rung and every factor: green's cached one
    over the relative (1, B)-ball at the ladder's largest B.  That ball
    lists e first, then each factor's letters in letter order, as
    `_factor_ball` does, and pair ids depend only on the two elements, so
    each rung is a sub-matrix.
    """
    radius = default_radius(measure, order) if radius is None else radius
    _, gf, gb = _field_arrays(measure, r, order, radius)
    _, elems, ids, full = _pair_matrix_ids(measure, 1, max(1, *ladder), radius)
    at = np.array([i for i, g in enumerate(elems) if g.syllables and g.syllables[0].factor == k],
                  dtype=np.int64)  # factor k's letters
    wl = np.array([measure.group.word_length(elems[i]) for i in at], dtype=np.int64)

    partials = []
    for B in ladder:
        sub = np.concatenate([[0], at[wl <= B]])  # e, then the B-ball
        pair = full[np.ix_(sub, sub)]
        v = gf[ids[sub]]
        u = gb[ids[sub]]
        G = np.where(pair >= 0, gf[np.maximum(pair, 0)], 0.0)
        partials.append(float(v @ G @ u))

    increments = [partials[0]] + [b - a for a, b in zip(partials, partials[1:])]
    ratios = tuple(
        b / a if a > 0 else math.inf for a, b in zip(increments, increments[1:])
    )
    if ratios and max(ratios) < 0.95:
        verdict = "finite"
    elif ratios and min(ratios) >= 1.0:
        verdict = "infinite"
    else:
        verdict = "inconclusive"
    return MomentReport(factor=k, r=r, ladder=tuple(ladder),
                        partial_sums=tuple(partials), increment_ratios=ratios,
                        verdict=verdict)


# -- classification ------------------------------------------------------------------------


DEGENERACY_BAND = (1.0 - 1e-3, 1.0 + 5e-3)
ESCAPE_RATIO = 5.0  # growth of G'(e,e|r) across the grid that counts as escape


def classify(measure: Measure, n_max: int = 24, order: int = 128,
             radius: int | None = None, horizon: int = 64,
             kernel_order: int = 192, h_ball: int = 48,
             ladder: Sequence[int] = (1, 2, 4, 8)) -> Classification:
    """Spectral positive-recurrence classification of an admissible walk.

    Per factor: kernel radius at r = R-hat decides degeneracy (inside the
    tolerance band is inconclusive; below it is flagged as a truncation
    artifact since R_k >= 1 always).  Divergence is a regression heuristic:
    G'(e,e|r) sampled on a geometric grid approaching R-hat, declared
    divergent when it escapes by `ESCAPE_RATIO` with a positive fitted
    blow-up exponent.  Positive-recurrence = divergent + all moments finite.
    """
    from .measures import validate

    report = validate(measure, depth=1)  # only admissible_to_depth is read
    if report.admissible_to_depth < 1:
        raise ValueError("measure is not admissible to depth 1; classification "
                         "needs a walk that can reach the whole group")
    radius = default_radius(measure, order) if radius is None else radius
    est = spectral_radius(measure, n_max)
    r_top = est.point
    warnings: list[str] = []

    factor_verdicts = []
    for k in range(1, measure.group.num_factors + 1):
        kr = kernel_radius(measure, k, r_top, kernel_order, horizon, radius, h_ball)
        fw: list[str] = []
        lo, hi = DEGENERACY_BAND
        if kr.estimate < lo:
            fw.append(
                f"kernel radius {kr.estimate:.6f} below 1: impossible in theory, "
                "treating as a truncation artifact"
            )
            degenerate = "inconclusive"
        elif kr.estimate <= hi:
            degenerate = "inconclusive"
        else:
            degenerate = "no"
        moments = green_moments(measure, k, r_top, ladder, min(order, 64), radius)
        if degenerate == "no" and moments.verdict == "infinite":
            fw.append("non-degenerate factor reported infinite moments: "
                      "inconsistent with the degeneracy implication, suspect budgets")
        factor_verdicts.append(FactorVerdict(
            factor=k, kernel_radius=kr.estimate, degenerate=degenerate,
            moments=moments, warnings=tuple(fw),
        ))
        warnings.extend(fw)

    # divergence regression on a geometric grid approaching R-hat
    qf = pruned_return_weights(measure, order, radius)
    grid = []
    for i in range(6):
        rr = r_top * (1.0 - 0.2 * 0.5**i)
        grid.append((rr, series_derivative(qf, rr, 1)))
    blowup = -_slope([math.log(r_top - rr) for rr, _ in grid], [math.log(g) for _, g in grid])
    escaped = grid[-1][1] / grid[0][1]
    if blowup > 0.1 and escaped > ESCAPE_RATIO:
        divergent = "yes"
    elif blowup < 0.02 and escaped < 1.5:
        divergent = "no"
    else:
        divergent = "inconclusive"

    all_finite = all(f.moments.verdict == "finite" for f in factor_verdicts)
    any_infinite = any(f.moments.verdict == "infinite" for f in factor_verdicts)
    if divergent == "yes" and all_finite:
        spr = "yes"
    elif divergent == "no" or any_infinite:
        spr = "no"
    else:
        spr = "inconclusive"

    non_degenerate = all(f.degenerate == "no" for f in factor_verdicts)
    if non_degenerate and divergent == "no":
        warnings.append("all factors non-degenerate yet walk looks convergent: "
                        "contradicts the degeneracy-divergence implication, "
                        "suspect truncation budgets")
    if non_degenerate and any_infinite:
        warnings.append("all factors non-degenerate yet some moments infinite: "
                        "contradicts the moment implication, suspect budgets")

    return Classification(
        factors=tuple(factor_verdicts),
        divergent=divergent,
        divergence_grid=tuple(grid),
        divergence_exponent=blowup,
        spectrally_positive_recurrent=spr,
        r_spectral=r_top,
        warnings=tuple(warnings),
    )


# -- the rough second-derivative comparison ---------------------------------------------------


def equadiff_table(measure: Measure, fractions: Sequence[float], n_max: int = 24,
                   order: int = 96, radius: int | None = None, horizon: int = 96,
                   kernel_order: int = 512, h_ball: int = 64) -> list[EquadiffRow]:
    """Rows {r, G''/(G')^3, 1 + sum_k G''_{k,r}, ratio} over r = fraction * R-hat.

    Each r is `resolve_r`'s, so a fraction that is not finite and >= 0, or
    one past the certified bound on R, raises ValueError.  G''_{k,r} is
    the second t-derivative of the parabolic Green series at t = 1,
    computed term-wise from the kernel powers.
    """
    radius = default_radius(measure, order) if radius is None else radius
    qf = pruned_return_weights(measure, order, radius)
    rows = []
    for frac in fractions:
        r = resolve_r(measure, frac, n_max)
        g1 = series_derivative(qf, r, 1)
        g2 = series_derivative(qf, r, 2)
        rhs = 1.0
        for k in range(1, measure.group.num_factors + 1):
            series = kernel_power_series(measure, k, r, kernel_order, horizon,
                                         radius, h_ball)
            rhs += series_derivative(series, 1.0, 2)
        lhs = g2 / g1**3 if g1 > 0 else math.inf
        rows.append(EquadiffRow(r=r, lhs=lhs, rhs=rhs,
                                ratio=lhs / rhs if rhs > 0 else math.inf))
    return rows
