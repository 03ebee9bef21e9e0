"""Green functions, their derivatives, spatial sums, and identity checks.

Everything here is a truncated power series in r driven by the convolution
engine: G(x, y | r) = sum_n r^n mu^{*n}(x^-1 y) summed to a stated order
with states pruned beyond a stated word radius.  Series have non-negative
terms, so every value is monotone non-decreasing in the order, the radius
and the truncation parameters, and converges to the true value from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .groups import GroupElement
from .measures import Measure, default_radius, return_sequence


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series evaluation with its truncation certificate."""

    value: float
    terms_used: int
    tail_estimate: float
    last_term: float
    term_ratio: float
    reliable: bool
    diverged: bool


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Certified Fekete bound plus a ratio-extrapolation point estimate."""

    certified_upper: float
    point: float
    rho_point: float
    diagnostics: tuple[float, ...]
    ratios: tuple[float, ...]
    n_max: int
    symmetric: bool


@dataclass(frozen=True)
class SphereSumTable:
    r: float
    values: tuple[float, ...]
    truncation_B: int
    order: int
    radius: int


@dataclass(frozen=True)
class IdentityReport:
    left: float
    right: float
    residual: float
    r: float
    truncation: tuple[int, int]
    order: int
    radius: int


# -- shared field machinery ------------------------------------------------------


def _field(measure: Measure, r_values: Sequence[float], order: int, radius: int) -> dict:
    """G(e, . | r) arrays over the ball table, one DP pass for all r."""
    rs = tuple(float(r) for r in r_values)

    def compute() -> dict:
        table = measure.table(radius)
        out = engine.green_field(table, measure.entries.values(), order, list(rs))
        # the same unpruned DP as pruned_return_weights: serve it from here
        measure.memo(("qf", order, radius), lambda: out["e_series"])
        return {"table": table, "G": out["final"], "e_series": out["e_series"],
                "last_levels": out["last_levels"]}

    # fields hold several full-table float arrays; keep at most two alive
    return measure.memo(("field", rs, order, radius), compute, keep=2)


def field_tails(field: dict, r: float, ratio_cap: float,
                ids: np.ndarray | None = None) -> np.ndarray:
    """Per-element geometric tail estimates for G(e, . | r), over the whole
    table or, given `ids`, at those table ids only (the same values: every
    step is elementwise).

    The empirical two-step term ratio (robust to period-2 walks) is capped
    at `ratio_cap` and at 0.999; elements whose series has not produced a
    term yet get an infinite (uninformative) tail.
    """
    at = slice(None) if ids is None else ids
    g = field["G"][r][at]
    if len(field["last_levels"]) < 3:
        return np.full_like(g, np.inf)
    t0, t1, t2 = ((r ** t) * w[at] for t, w in field["last_levels"][-3:])
    cap = min(0.999, ratio_cap)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(np.where(t0 > 0, np.sqrt(t2 / np.where(t0 > 0, t0, 1.0)), cap), cap)
    last = np.maximum(t2, t1)
    tail = last * ratio / (1.0 - ratio)
    # never-seen elements: no information at this truncation
    return np.where(g > 0, tail, np.inf)


def _g_backward(measure: Measure, field: dict, r: float) -> np.ndarray:
    """G(., e | r) over the table: the forward array for symmetric walks,
    otherwise the forward array composed with inversion."""
    gf = field["G"][r]
    if measure.is_symmetric():
        return gf
    return field["table"].pull_back(gf)


def _field_arrays(measure: Measure, r: float, order: int, radius: int):
    """(table, G(e, . | r), G(., e | r)) from the one-r field."""
    fld = _field(measure, [r], order, radius)
    return fld["table"], fld["G"][r], _g_backward(measure, fld, r)


def pruned_return_weights(measure: Measure, order: int, radius: int) -> list[float]:
    """Radius-pruned float return weights mu^{*n}(e), n = 0..order.

    Exact while order * d_mu <= radius; beyond that a lower bound missing
    only the paths that exit the radius.
    """
    e = measure.group.identity
    return measure.memo(("qf", order, radius),
                        lambda: _target_series(measure, [e], order, radius)[e])


def _derivative_terms(coeffs: Sequence[float], r: float, j: int = 0) -> list[float]:
    """Terms n(n-1)...(n-j+1) coeffs[n] r^(n-j), n >= j, of the j-th derivative
    at r of the truncated series sum_n coeffs[n] r^n."""
    return [math.prod(range(n - j + 1, n + 1)) * coeffs[n] * r ** (n - j)
            for n in range(j, len(coeffs))]


def series_derivative(coeffs: Sequence[float], r: float, j: int = 0) -> float:
    """j-th derivative at r of the truncated series sum_n coeffs[n] r^n, term
    by term, exactly rounded."""
    return math.fsum(_derivative_terms(coeffs, r, j))


def _series_stats(terms: list[float]) -> SeriesValue:
    value = math.fsum(terms)
    nz = [t for t in terms if t > 0]
    last = nz[-1] if nz else 0.0
    ratio = 0.0
    if len(nz) >= 3:
        # geometric-ratio estimate from the last few nonzero terms, robust to
        # period-2 support
        ratio = (nz[-1] / nz[-3]) ** 0.5 if nz[-3] > 0 else 0.0
    elif len(nz) == 2:
        ratio = nz[-1] / nz[-2]
    diverged = ratio > 1.0
    reliable = 0.0 <= ratio <= 0.999 and not diverged
    tail = last * ratio / (1.0 - ratio) if reliable and ratio < 1.0 else math.inf
    return SeriesValue(
        value=value,
        terms_used=len(terms),
        tail_estimate=tail if reliable else math.inf,
        last_term=last,
        term_ratio=ratio,
        reliable=reliable,
        diverged=diverged,
    )


def _target_series(measure: Measure, targets: Sequence[GroupElement], order: int,
                   radius: int) -> dict[GroupElement, list[float]]:
    """Raw coefficient streams mu^{*n}(w) for several targets in one DP,
    pruned to the states that can still reach a target by step `order`."""
    table = measure.table(radius)
    tids = table.ids_of(targets)
    reach = int(table.wl[tids[tids >= 0]].max(initial=0))  # targets outside read 0
    cols = np.array([w[tids] for w, _ in engine.levels(
        table, measure.entries.values(), order, horizon=order, radius=reach)])
    cols[:, tids < 0] = 0.0
    return {w: col.tolist() for w, col in zip(targets, cols.T)}


def _pair_series(measure: Measure, pairs: Sequence[tuple[GroupElement, GroupElement]],
                 r: float, order: int, radius: int | None) -> list[list[float]]:
    """Coefficients mu^{*n}(x^-1 y), n = 0..order, of G(x, y | .) for every
    pair (x, y), all from one DP."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    radius = default_radius(measure, order) if radius is None else radius
    grp = measure.group
    targets = [grp.multiply(grp.inverse(x), y) for x, y in pairs]
    series = _target_series(measure, targets, order, radius)
    return [series[w] for w in targets]


# -- Green values ------------------------------------------------------------------


def green_value(measure: Measure, x: GroupElement, y: GroupElement, r: float,
                order: int = 48, radius: int | None = None) -> SeriesValue:
    """Partial sum of G(x, y | r) to the stated order.

    States beyond `radius` (word metric) are pruned; the result is a lower
    bound converging to G as both grow.  G(x, y | r) = G(e, x^-1 y | r) by
    left invariance.
    """
    (coeffs,) = _pair_series(measure, [(x, y)], r, order, radius)
    return _series_stats(_derivative_terms(coeffs, r))


def green_derivative(measure: Measure, x: GroupElement, y: GroupElement, r: float,
                     k: int, order: int = 48, radius: int | None = None) -> SeriesValue:
    """Term-wise k-th derivative: sum_{n>=k} n(n-1)...(n-k+1) mu^{*n} r^{n-k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    (coeffs,) = _pair_series(measure, [(x, y)], r, order, radius)
    return _series_stats(_derivative_terms(coeffs, r, k))


def f_ratio(measure: Measure, x: GroupElement, y: GroupElement, r: float,
            order: int = 48, radius: int | None = None) -> float:
    """F(x, y | r) = G(x, y | r) / G(e, e | r)."""
    e = measure.group.identity
    gxy, gee = (series_derivative(c, r)
                for c in _pair_series(measure, [(x, y), (e, e)], r, order, radius))
    return gxy / gee


def green_metrics(measure: Measure, x: GroupElement, y: GroupElement, r: float,
                  order: int = 48, radius: int | None = None) -> tuple[float, float]:
    """(d_G, symmetrized d_G): -log F one way, minus log F both ways."""
    e = measure.group.identity
    gxy, gyx, gee = (series_derivative(c, r) for c in
                     _pair_series(measure, [(x, y), (y, x), (e, e)], r, order, radius))
    fxy, fyx = gxy / gee, gyx / gee
    if fxy == 0 or fyx == 0:
        return math.inf, math.inf
    return -math.log(fxy), -math.log(fxy) - math.log(fyx)


# -- spectral radius -----------------------------------------------------------------


def _ratio_extrapolate(logs: list[tuple[int, float]]) -> float:
    """2 log rho from log q_{2n}: eliminate the unknown n^-alpha factor with
    consecutive log-differences, then two n^-2 Richardson sweeps."""
    d = [(n2, y2 - y1) for (n1, y1), (n2, y2) in zip(logs, logs[1:])]
    z = []
    for (m1, d1), (m2, d2) in zip(d, d[1:]):
        g1 = math.log(m1 / (m1 - 1))
        g2 = math.log(m2 / (m2 - 1))
        z.append((m2, (d1 * g2 - d2 * g1) / (g2 - g1)))
    col = z
    for _ in range(2):
        if len(col) < 2:
            break
        col = [
            (n2, (n2**2 * x2 - n1**2 * x1) / (n2**2 - n1**2))
            for (n1, x1), (n2, x2) in zip(col, col[1:])
        ]
    return col[-1][1]


def _root_growth(evens: list[tuple[int, float]],
                 extrapolate: bool) -> tuple[tuple[float, ...], float]:
    """The roots v^(1/2n) of positive even terms (n, v = a_{2n}) and the
    growth rate lim a_{2n}^(1/2n) they estimate: by ratio extrapolation when
    `extrapolate` and there are at least four terms, else the last root
    (0.0 without terms)."""
    diagnostics = tuple(v ** (1.0 / (2 * n)) for n, v in evens)
    if extrapolate and len(evens) >= 4:
        logs = [(n, math.log(v)) for n, v in evens]
        return diagnostics, math.exp(_ratio_extrapolate(logs) / 2.0)
    return diagnostics, diagnostics[-1] if diagnostics else 0.0


def spectral_radius(measure: Measure, n_max: int = 28) -> SpectralRadiusEstimate:
    """Fekete-certified upper bound on R_mu and a ratio-extrapolation point
    estimate of 1/R_mu (the latter requires a symmetric measure).

    The certified bound is min_n q_{2n}^{-1/2n}: by supermultiplicativity
    q_{2(n+m)} >= q_{2n} q_{2m}, so q_{2n}^{1/2n} increases to 1/R_mu.
    """

    def compute() -> SpectralRadiusEstimate:
        q = return_sequence(measure, n_max).values
        evens = [(n, float(q[2 * n])) for n in range(1, n_max // 2 + 1)]
        positive = [(n, v) for n, v in evens if v > 0]
        if not positive:
            raise ValueError("no positive even return probabilities up to n_max")
        certified = min(v ** (-1.0 / (2 * n)) for n, v in positive)
        ratios = tuple(
            float(q[2 * n + 2] / q[2 * n]) for n, _ in positive[:-1] if q[2 * n] > 0
        )
        symmetric = measure.is_symmetric()
        diagnostics, rho = _root_growth(positive, symmetric)
        return SpectralRadiusEstimate(
            certified_upper=certified,
            point=1.0 / rho,
            rho_point=rho,
            diagnostics=diagnostics,
            ratios=ratios,
            n_max=n_max,
            symmetric=symmetric,
        )

    return measure.memo(("sre", n_max), compute)


def resolve_r(measure: Measure, fraction: float, n_max: int = 28) -> float:
    """r expressed as a fraction of the point estimate R-hat.  An r above
    the estimate's certified upper bound on R, where G(e, e | r) diverges,
    raises ValueError."""
    est = spectral_radius(measure, n_max)
    r = fraction * est.point
    if r > est.certified_upper:
        raise ValueError(f"fraction {fraction} gives r = {r!r}, above the certified upper "
                         f"bound {est.certified_upper!r} on R (n_max {n_max})")
    return r


# -- spatial sums ---------------------------------------------------------------------


def _ball_ids(measure: Measure, m: int, B: int, radius: int):
    """Ids (and elements) of the relative (m, B)-ball inside the table."""
    table = measure.table(radius)
    elems = list(measure.group.enumerate_ball(m, B))
    ids = table.ids_of(elems)
    return table, [g for g, i in zip(elems, ids) if i >= 0], ids[ids >= 0]


def _pair_matrix_ids(measure: Measure, m: int, B: int, radius: int):
    """Table ids of gamma^-1 gamma' over the (m, B)-ball, cached per budgets."""

    def compute():
        # the table is prefix-closed, so the ball elements it holds are too
        table, elems, ids = _ball_ids(measure, m, B, radius)
        return table, elems, ids, engine.pair_ids(table, elems)

    return measure.memo(("pairids", m, B, radius), compute)


def spatial_sum(measure: Measure, k: int, r: float, truncation: tuple[int, int],
                order: int = 48, radius: int | None = None) -> float:
    """Truncated I^(k)(r): the k-fold chain sum of Green factors over the
    relative (m, B)-ball, based at (e, e).

    Computed as v^T M^(k-1) u with v = G(e, .), u = G(., e) and
    M[g, g'] = G(e, g^-1 g'); monotone non-decreasing in every budget.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m, B = truncation
    radius = default_radius(measure, order) if radius is None else radius
    table, gf, gb = _field_arrays(measure, r, order, radius)
    if k == 1:
        mask = table.mask_ball(m, B)
        return float((gf[mask] * gb[mask]).sum())
    _, _, ids, pair = _pair_matrix_ids(measure, m, B, radius)
    M = np.where(pair >= 0, gf[np.maximum(pair, 0)], 0.0)
    vec = gb[ids]
    for _ in range(k - 1):
        vec = M @ vec
    return float(np.dot(gf[ids], vec))


def sphere_sums(measure: Measure, r: float, M: int, B: int,
                order: int = 48, radius: int | None = None) -> SphereSumTable:
    """u_m = sum over the truncated relative sphere of H(e, g | r)
    = G(e, g | r) G(g, e | r), m = 0..M."""
    radius = default_radius(measure, order) if radius is None else radius
    table, gf, gb = _field_arrays(measure, r, order, radius)
    prod = gf * gb
    vals = []
    for m in range(M + 1):
        mask = (table.rel == m) & (table.maxfac <= B)
        vals.append(float(prod[mask].sum()))
    return SphereSumTable(r=r, values=tuple(vals), truncation_B=B,
                          order=order, radius=radius)


# -- identity checks --------------------------------------------------------------------


def derivative_identity_residual(measure: Measure, r: float, truncation: tuple[int, int],
                                 order: int, radius: int | None = None) -> IdentityReport:
    """Residual of d/dr(r G(e,e|r)) = sum_g G(e,g|r) G(g,e|r).

    Left side from the exact return sequence (sum (n+1) q_n r^n to the
    order), right side as the truncated spatial sum; both converge to the
    same value, so the residual shrinks as the budgets grow.
    """
    radius = default_radius(measure, order) if radius is None else radius
    # the spatial sum first: its field also serves q
    right = spatial_sum(measure, 1, r, truncation, order, radius)
    q = pruned_return_weights(measure, order, radius)
    left = series_derivative([0.0] + q, r, 1)  # r G(e,e|r) = sum q_n r^(n+1)
    return IdentityReport(left=left, right=right, residual=abs(left - right),
                          r=r, truncation=truncation, order=order, radius=radius)


def fk_coefficients(k: int) -> list[int]:
    """Coefficients f_{j,k} of the iterated derivative expansion
    F_k = sum_j f_{j,k} r^{k+j-1} G^(j), from the recursion
    f_{j,k+1} = f_{j-1,k} + (k+j+1) f_{j,k} with f_{0,k} = k!."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = [1, 1]  # k = 1: F_1 = G + r G'
    kk = 1
    while kk < k:
        nxt = [0] * (kk + 2)
        nxt[0] = math.factorial(kk + 1)
        nxt[kk + 1] = 1
        for j in range(1, kk + 1):
            nxt[j] = coeffs[j - 1] + (kk + j + 1) * coeffs[j]
        coeffs = nxt
        kk += 1
    return coeffs


def fk_identity_residual(measure: Measure, k: int, r: float, truncation: tuple[int, int],
                         order: int = 48, radius: int | None = None) -> IdentityReport:
    """Residual of F_k(r) = k! r^(k-1) I^(k)(r) with F_k expanded through
    the f_{j,k} coefficient scheme over derivatives of G(e,e|r)."""
    if k < 2:
        raise ValueError("the identity check starts at k = 2")
    radius = default_radius(measure, order) if radius is None else radius
    # the spatial sum first: its field also serves q
    right = math.factorial(k) * r ** (k - 1) * spatial_sum(
        measure, k, r, truncation, order, radius
    )
    q = pruned_return_weights(measure, order, radius)
    coeffs = fk_coefficients(k)
    left = 0.0
    for j, f_jk in enumerate(coeffs):
        left += f_jk * r ** (k + j - 1) * series_derivative(q, r, j)
    return IdentityReport(left=left, right=right, residual=abs(left - right),
                          r=r, truncation=truncation, order=order, radius=radius)
