"""Numerical audits of Green-function multiplicativity along geodesics.

Two families of checks:

* `triangle_audit`: for arbitrary triples (x, y, z) the product
  G(x,y|r) G(y,z|r) never exceeds G(e,e|r) G(x,z|r).  This holds for every
  measure; at finite truncation the comparison carries a slack derived from
  the per-element series-tail estimates, and the audit reports the worst
  signed violation beyond that slack.
* `ratio_audit`: for y on the relative geodesic from x to z, the ratio
  G(x,z|r) / (G(x,y|r) G(y,z|r)) is expected to stay within measure-level
  bounds, uniformly in r.  The upper side carries a non-explicit constant,
  so the audit reports distributions and their stability rather than
  asserting a number; the lower bound 1/G(e,e|r) is a restatement of the
  triangle inequality and is checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .groups import FreeProduct, GroupElement
from .measures import Measure, default_radius
from .green import _field, field_tails, spectral_radius


@dataclass(frozen=True)
class TriangleAuditReport:
    r_values: tuple[float, ...]
    triples_checked: int
    uninformative: int
    worst_signed_slack: float
    violations: int
    per_r: dict


@dataclass(frozen=True)
class RatioRow:
    x: GroupElement
    y: GroupElement
    z: GroupElement
    r: float
    ratio: float


@dataclass(frozen=True)
class AnconaReport:
    r_values: tuple[float, ...]
    rows: tuple[RatioRow, ...]
    per_r_min: dict
    per_r_max: dict
    overall_min: float
    overall_max: float
    lower_bound_violations: int


def sample_triples(group: FreeProduct, m: int, B: int, count: int,
                   seed: int = 7) -> list[tuple[GroupElement, GroupElement, GroupElement]]:
    """Deterministic pseudo-random triples from the relative (m, B)-ball."""
    ball = list(group.enumerate_ball(m, B))
    rng = random.Random(seed)
    return [
        (rng.choice(ball), rng.choice(ball), rng.choice(ball)) for _ in range(count)
    ]


def geodesic_pairs(group: FreeProduct, m: int, B: int) -> list[tuple[GroupElement, GroupElement]]:
    """The pairs (e, z), z in the relative (m, B)-ball, whose relative
    geodesic has at least one interior vertex: z of relative length >= 2."""
    out = []
    for z in group.enumerate_ball(m, B):
        if group.relative_length(z) >= 2:
            out.append((group.identity, z))
    return out


def _locate(measure, fld, pairs) -> dict:
    """For each pair (x, y): the table id of x^-1 y (None outside the
    table) and its word length, resolved once for every r."""
    grp, table = measure.group, fld["table"]
    prods = {(x, y): grp.multiply(grp.inverse(x), y) for x, y in dict.fromkeys(pairs)}
    ids = table.ids_of(list(prods.values())).tolist()
    return {xy: (None, grp.word_length(w)) if i < 0 else (i, int(table.wl[i]))
            for (xy, w), i in zip(prods.items(), ids)}


def _pair_values(loc, gf, tails, r, rho, order, radius) -> dict:
    """(value, tail) for G(x, y | r) from the field, for every located pair;
    `tails` maps each located table id to its `field_tails` estimate.

    The tail combines the per-element empirical estimate with systematic
    geometric bounds for what the truncation cannot see: series terms past
    the order, paths that exit the word-radius, and (for elements outside
    the table) the entire series from the word length up; all use the decay
    proxy (r * rho)^n with a 1% safety margin on the spectral-radius point
    estimate.
    """
    q = min(r * rho * 1.01, 0.9999)

    def geo(first_exponent: int) -> float:
        return q ** max(first_exponent, 0) / (1.0 - q)

    return {
        xy: (0.0, geo(wl)) if i is None else
        (float(gf[i]), float(tails[i]) + geo(order + 1) + geo(2 * (radius + 1) - wl))
        for xy, (i, wl) in loc.items()
    }


def _audit_values(measure: Measure, pairs, rs: list[float], order: int,
                  radius: int | None, n_max_spectral: int):
    """Per r in rs, (r, values): `_pair_values` of (e, e) and of every pair,
    all from one field and one location pass; the per-element tails are
    formed at the located ids only."""
    radius = default_radius(measure, order) if radius is None else radius
    rho = 1.0 / spectral_radius(measure, n_max_spectral).point
    fld = _field(measure, rs, order, radius)
    e = measure.group.identity
    loc = _locate(measure, fld, [(e, e)] + pairs)
    ids = sorted({i for i, _ in loc.values() if i is not None})
    for r in rs:
        tails = dict(zip(ids, field_tails(fld, r, r * rho, ids)))
        yield r, _pair_values(loc, fld["G"][r], tails, r, rho, order, radius)


def triangle_audit(measure: Measure, triples, r_values: Sequence[float],
                   order: int = 48, radius: int | None = None,
                   n_max_spectral: int = 28) -> TriangleAuditReport:
    """Worst signed slack of G(x,y)G(y,z) <= G(e,e)G(x,z) + eps over the
    sampled triples, eps from tail estimates."""
    rs = [float(r) for r in r_values]
    worst = -math.inf
    violations = 0
    uninformative = 0
    per_r = {}
    e = measure.group.identity
    pairs = [p for x, y, z in triples for p in ((x, y), (y, z), (x, z))]
    for r, val in _audit_values(measure, pairs, rs, order, radius, n_max_spectral):
        gee, tee = val[(e, e)]
        r_worst = -math.inf
        r_viol = 0
        for (x, y, z) in triples:
            gxy, gyz = val[(x, y)][0], val[(y, z)][0]
            gxz, txz = val[(x, z)]
            eps = gee * txz + tee * gxz + tee * txz
            if math.isinf(eps):
                uninformative += 1
                continue
            slack = gxy * gyz - gee * gxz - eps
            r_worst = max(r_worst, slack)
            if slack > 1e-12:
                r_viol += 1
        per_r[r] = {"worst_slack": r_worst, "violations": r_viol}
        worst = max(worst, r_worst)
        violations += r_viol
    return TriangleAuditReport(
        r_values=tuple(rs),
        triples_checked=len(triples) * len(rs),
        uninformative=uninformative,
        worst_signed_slack=worst,
        violations=violations,
        per_r=per_r,
    )


def ratio_audit(measure: Measure, pairs, r_values: Sequence[float],
                order: int = 48, radius: int | None = None,
                n_max_spectral: int = 28) -> AnconaReport:
    """Ratios G(x,z) / (G(x,y) G(y,z)) for y at every interior vertex of the
    relative geodesic [x, z]; only boundedness diagnostics are asserted.

    The measure is expected to be symmetric, finitely supported and
    admissible for the multiplicativity heuristics to apply.
    """
    grp = measure.group
    rs = [float(r) for r in r_values]
    rows = []
    lower_viol = 0
    per_r_min: dict = {}
    per_r_max: dict = {}
    e = grp.identity
    xyz = [(x, y, z) for (x, z) in pairs for y in grp.relative_geodesic(x, z).vertices[1:-1]]
    located = [p for x, y, z in xyz for p in ((x, z), (x, y), (y, z))]
    for r, val in _audit_values(measure, located, rs, order, radius, n_max_spectral):
        lo, hi = math.inf, -math.inf
        gee, tee = val[(e, e)]
        for (x, y, z) in xyz:
            gxz, txz = val[(x, z)]
            gxy, gyz = val[(x, y)][0], val[(y, z)][0]
            if gxy <= 0 or gyz <= 0 or gxz <= 0:
                continue
            ratio = gxz / (gxy * gyz)
            rows.append(RatioRow(x=x, y=y, z=z, r=r, ratio=ratio))
            lo, hi = min(lo, ratio), max(hi, ratio)
            # lower bound: ratio >= 1/G(e,e) up to truncation slack
            eps = (gee * txz + tee * gxz + tee * txz) / (gxy * gyz)
            if ratio < 1.0 / gee - eps - 1e-12:
                lower_viol += 1
        per_r_min[r] = lo
        per_r_max[r] = hi
    return AnconaReport(
        r_values=tuple(rs),
        rows=tuple(rows),
        per_r_min=per_r_min,
        per_r_max=per_r_max,
        overall_min=min(per_r_min.values()) if per_r_min else math.inf,
        overall_max=max(per_r_max.values()) if per_r_max else -math.inf,
        lower_bound_violations=lower_viol,
    )
