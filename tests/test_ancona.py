"""Triangle and geodesic-multiplicativity audits."""

import math

import numpy as np
import pytest

from freewalk import free_group, lazy_walk
from freewalk.ancona import (
    AnconaReport,
    RatioRow,
    TriangleAuditReport,
    geodesic_pairs,
    ratio_audit,
    sample_triples,
    triangle_audit,
)
from freewalk.green import _field, field_tails, resolve_r, spectral_radius


@pytest.fixture(scope="module")
def zz():
    return free_group(2)


@pytest.fixture(scope="module")
def lazy(zz):
    return lazy_walk(zz)


def test_sample_triples_deterministic(zz):
    a = sample_triples(zz, 2, 2, 20, seed=3)
    b = sample_triples(zz, 2, 2, 20, seed=3)
    assert a == b
    assert len(a) == 20


def test_triangle_trivial_triple(zz, lazy):
    r = resolve_r(lazy, 0.5, n_max=16)
    z = zz.element([(1, 1), (2, 1)])
    rep = triangle_audit(lazy, [(zz.identity, zz.identity, z)], [r],
                         order=24, radius=8, n_max_spectral=16)
    assert rep.violations == 0
    # (e, e, z): equality side, slack is minus the tolerance
    assert rep.worst_signed_slack <= 0


def test_triangle_small_sweep(zz, lazy):
    triples = sample_triples(zz, 2, 2, 60, seed=11)
    rs = [resolve_r(lazy, f, n_max=16) for f in (0.3, 0.6)]
    rep = triangle_audit(lazy, triples, rs, order=24, radius=8, n_max_spectral=16)
    assert rep.violations == 0
    assert rep.triples_checked == 120


def test_ratio_audit_no_interior_vertex(zz, lazy):
    r = resolve_r(lazy, 0.5, n_max=16)
    rep = ratio_audit(lazy, [(zz.identity, zz.gen("a"))], [r],
                      order=24, radius=8, n_max_spectral=16)
    assert not rep.rows


def test_ratio_audit_bounds(zz, lazy):
    pairs = geodesic_pairs(zz, 2, 2)
    r = resolve_r(lazy, 0.5, n_max=16)
    rep = ratio_audit(lazy, pairs, [r], order=24, radius=8, n_max_spectral=16)
    assert rep.rows
    assert rep.lower_bound_violations == 0
    assert 0 < rep.overall_min <= rep.overall_max < math.inf
    # the simplest interior-vertex instance x=e, y=a, z=ab gives a finite
    # ratio bounded below by 1/G(e,e)
    gee = None
    from freewalk.green import green_value

    gee = green_value(lazy, zz.identity, zz.identity, r, order=24, radius=8).value
    assert rep.overall_min >= 1.0 / gee - 1e-4


def test_ratio_audit_stability_under_budget_doubling(zz, lazy):
    pairs = geodesic_pairs(zz, 2, 1)
    r = resolve_r(lazy, 0.5, n_max=16)
    small = ratio_audit(lazy, pairs, [r], order=16, radius=6, n_max_spectral=16)
    big = ratio_audit(lazy, pairs, [r], order=32, radius=10, n_max_spectral=16)
    assert abs(big.overall_max - small.overall_max) <= 0.25 * small.overall_max


def reference_audits(measure, triples, pairs, rs, order, radius, n_max_spectral):
    """Both audits as they were written first: each r looks every pair up
    again, forming x^-1 y per r, with a per-r cache; the table ids of all
    the products come from one `ids_of`."""
    grp = measure.group
    rho = 1.0 / spectral_radius(measure, n_max_spectral).point
    fld = _field(measure, rs, order, radius)
    e = grp.identity
    used = [(e, e)] + [p for x, y, z in triples for p in ((x, y), (y, z), (x, z))]
    used += [p for x, z in pairs for y in grp.relative_geodesic(x, z).vertices[1:-1]
             for p in ((x, z), (x, y), (y, z))]
    words = list(dict.fromkeys(grp.multiply(grp.inverse(x), y) for x, y in used))
    table_id = dict(zip(words, fld["table"].ids_of(words).tolist()))

    def value(gf, tails, cache, x, y, r):
        w = grp.multiply(grp.inverse(x), y)
        if w in cache:
            return cache[w]
        q = min(r * rho * 1.01, 0.9999)

        def geo(k):
            return q ** max(k, 0) / (1.0 - q)

        i = table_id[w]
        if i < 0:
            hit = (0.0, geo(grp.word_length(w)))
        else:
            wl = int(fld["table"].wl[i])
            hit = (float(gf[i]), float(tails[i]) + geo(order + 1) + geo(2 * (radius + 1) - wl))
        cache[w] = hit
        return hit

    worst, violations, uninformative, per_r = -math.inf, 0, 0, {}
    rows, lower_viol, per_r_min, per_r_max = [], 0, {}, {}
    for r in rs:
        gf, tails = fld["G"][r], field_tails(fld, r, r * rho)
        cache = {}
        r_worst, r_viol = -math.inf, 0
        for x, y, z in triples:
            gxy, _ = value(gf, tails, cache, x, y, r)
            gyz, _ = value(gf, tails, cache, y, z, r)
            gee, tee = value(gf, tails, cache, e, e, r)
            gxz, txz = value(gf, tails, cache, x, z, r)
            eps = gee * txz + tee * gxz + tee * txz
            if math.isinf(eps):
                uninformative += 1
                continue
            slack = gxy * gyz - gee * gxz - eps
            r_worst = max(r_worst, slack)
            r_viol += slack > 1e-12
        per_r[r] = {"worst_slack": r_worst, "violations": r_viol}
        worst, violations = max(worst, r_worst), violations + r_viol
        cache = {}
        lo, hi = math.inf, -math.inf
        gee, tee = value(gf, tails, cache, e, e, r)
        for x, z in pairs:
            for y in grp.relative_geodesic(x, z).vertices[1:-1]:
                gxz, txz = value(gf, tails, cache, x, z, r)
                gxy, _ = value(gf, tails, cache, x, y, r)
                gyz, _ = value(gf, tails, cache, y, z, r)
                if gxy <= 0 or gyz <= 0 or gxz <= 0:
                    continue
                ratio = gxz / (gxy * gyz)
                rows.append(RatioRow(x=x, y=y, z=z, r=r, ratio=ratio))
                lo, hi = min(lo, ratio), max(hi, ratio)
                eps = (gee * txz + tee * gxz + tee * txz) / (gxy * gyz)
                lower_viol += ratio < 1.0 / gee - eps - 1e-12
        per_r_min[r], per_r_max[r] = lo, hi
    tri = TriangleAuditReport(tuple(rs), len(triples) * len(rs), uninformative, worst,
                              violations, per_r)
    rat = AnconaReport(tuple(rs), tuple(rows), per_r_min, per_r_max,
                       min(per_r_min.values()) if per_r_min else math.inf,
                       max(per_r_max.values()) if per_r_max else -math.inf, lower_viol)
    return tri, rat


@pytest.mark.parametrize("radius", [3, 8])
def test_audits_equal_the_per_r_lookups(zz, lazy, radius):
    """Resolving each pair once for all r gives the same reports; at radius 3
    some products x^-1 y leave the table."""
    triples = sample_triples(zz, 3, 3, 80, seed=5)
    pairs = geodesic_pairs(zz, 3, 2)
    rs = [resolve_r(lazy, f, n_max=16) for f in (0.3, 0.6, 0.9)]
    want_tri, want_rat = reference_audits(lazy, triples, pairs, rs, 16, radius, 16)
    tri = triangle_audit(lazy, triples, rs, order=16, radius=radius, n_max_spectral=16)
    rat = ratio_audit(lazy, pairs, rs, order=16, radius=radius, n_max_spectral=16)
    assert tri == want_tri and rat == want_rat
    assert rat.rows


@pytest.mark.parametrize("order", [1, 2, 24])  # below three levels every tail is infinite
def test_tails_at_ids_equal_the_whole_table_tails(lazy, order):
    rs = [0.0, 0.2, 0.45]
    fld = _field(lazy, rs, order, 8)
    size = fld["table"].size
    ids = np.array([0, 5, 17, size // 2, size - 1, 17], dtype=np.int64)
    for r in rs:
        whole = field_tails(fld, r, 0.7)
        # infinite where unseen (all but e at r = 0) or everywhere below three levels
        assert np.isinf(whole).any() == (order < 3 or r == 0.0)
        at = field_tails(fld, r, 0.7, ids)
        assert at.tobytes() == whole[ids].tobytes()
        assert field_tails(fld, r, 0.7, ids.tolist()).tobytes() == at.tobytes()
        assert len(field_tails(fld, r, 0.7, [])) == 0
