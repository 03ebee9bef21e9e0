"""Green values, spectral radius against the tree oracle, identity checks."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

from freewalk import free_group, lazy_walk, simple_walk, Measure
from freewalk.green import (
    derivative_identity_residual,
    f_ratio,
    fk_coefficients,
    fk_identity_residual,
    green_derivative,
    green_metrics,
    green_value,
    resolve_r,
    series_derivative,
    spatial_sum,
    spectral_radius,
    sphere_sums,
)


@pytest.fixture(scope="module")
def zz():
    return free_group(2)


@pytest.fixture(scope="module")
def walk(zz):
    return simple_walk(zz)


@pytest.fixture(scope="module")
def lazy(zz):
    return lazy_walk(zz)


def tree_spectral_radius(degree: int) -> float:
    """Independent oracle: the simple walk on the q-regular tree.

    First passage to the parent solves F = z/q + (q-1)(z/q) F^2; the Green
    series converges up to the branch point of the square root, i.e. where
    q^2 - 4(q-1) z^2 = 0, so R = q / (2 sqrt(q-1)).
    """
    return degree / (2.0 * math.sqrt(degree - 1))


def test_green_at_zero(zz, walk):
    g = green_value(walk, zz.identity, zz.identity, 0.0, order=4)
    assert g.value == 1.0
    ga = green_value(walk, zz.identity, zz.gen("a"), 0.0, order=4)
    assert ga.value == 0.0


def test_green_partial_matches_return_series(zz, walk):
    # G(e,e|r) to order 4 is 1 + r^2/4 + 7 r^4/64
    r = 0.3
    g = green_value(walk, zz.identity, zz.identity, r, order=4)
    expected = 1 + r**2 / 4 + 7 * r**4 / 64
    assert abs(g.value - expected) < 1e-15


def test_green_left_invariance(zz, walk):
    # exhaustive over ball(2,2) pairs at a small budget
    r = 0.4
    ball = list(zz.enumerate_ball(2, 2))
    for x in ball:
        for y in ball:
            gxy = green_value(walk, x, y, r, order=5, radius=5).value
            ref = green_value(
                walk, zz.identity, zz.multiply(zz.inverse(x), y), r, order=5, radius=5
            ).value
            assert abs(gxy - ref) < 1e-14


def test_green_monotone_in_budgets(zz, lazy):
    r = 0.5
    vals = [
        green_value(lazy, zz.identity, zz.identity, r, order=o, radius=8).value
        for o in (4, 8, 16, 32)
    ]
    assert vals == sorted(vals)
    in_r = [
        green_value(lazy, zz.identity, zz.identity, rr, order=16, radius=8).value
        for rr in (0.1, 0.3, 0.5, 0.7)
    ]
    assert in_r == sorted(in_r)
    in_radius = [
        green_value(lazy, zz.identity, zz.identity, r, order=16, radius=rad).value
        for rad in (4, 6, 8)
    ]
    assert in_radius == sorted(in_radius)


def test_series_value_fields(zz, lazy):
    g = green_value(lazy, zz.identity, zz.identity, 0.5, order=24, radius=8)
    assert g.terms_used == 25
    assert g.last_term > 0
    assert g.reliable and not g.diverged
    assert g.tail_estimate < 1e-4


def test_divergence_flag(zz, lazy):
    g = green_value(lazy, zz.identity, zz.identity, 3.0, order=12, radius=6)
    assert g.diverged


def test_f_ratio_and_metrics(zz, walk):
    r = 0.5
    assert f_ratio(walk, zz.identity, zz.identity, r) == 1.0
    e, a = zz.identity, zz.gen("a")
    d, dsym = green_metrics(walk, e, a, r)
    assert d > 0
    assert abs(dsym - 2 * d) < 1e-12  # symmetric walk
    assert d == -math.log(f_ratio(walk, e, a, r))
    b = zz.gen("b")
    drift = Measure(zz, {a: Fraction(1, 2), zz.inverse(a): Fraction(1, 4),
                         b: Fraction(1, 8), zz.inverse(b): Fraction(1, 8)})
    d, dsym = green_metrics(drift, e, a, r, order=12, radius=6)
    fxy = f_ratio(drift, e, a, r, order=12, radius=6)
    fyx = f_ratio(drift, a, e, r, order=12, radius=6)
    assert fxy != fyx
    assert (d, dsym) == (-math.log(fxy), -math.log(fxy) - math.log(fyx))


def test_green_metrics_is_one_dp_of_the_f_ratios(zz, monkeypatch):
    # G(x,y), G(y,x) and G(e,e) come from one level DP, and the metrics
    # equal the two f_ratio calls bit for bit
    from freewalk import engine

    e, a, b = zz.identity, zz.gen("a"), zz.gen("b")
    drift = Measure(zz, {a: Fraction(1, 2), zz.inverse(a): Fraction(1, 4),
                         b: Fraction(1, 8), zz.inverse(b): Fraction(1, 8)})
    levels, calls = engine.levels, []

    def counted(*args, **kwargs):
        calls.append(args)
        return levels(*args, **kwargs)

    monkeypatch.setattr(engine, "levels", counted)
    for mu in (simple_walk(zz), drift, drift.as_float()):
        for x, y in ((e, a), (a, zz.multiply(b, b)), (zz.inverse(b), e)):
            fxy = f_ratio(mu, x, y, 0.6, order=10, radius=6)
            fyx = f_ratio(mu, y, x, 0.6, order=10, radius=6)
            del calls[:]
            got = green_metrics(mu, x, y, 0.6, order=10, radius=6)
            assert len(calls) == 1
            assert got == (-math.log(fxy), -math.log(fxy) - math.log(fyx))


def test_pair_functions_reject_negative_r_and_order_below_one(zz, walk):
    e, a = zz.identity, zz.gen("a")
    calls = (
        lambda r, order: green_value(walk, e, a, r, order=order),
        lambda r, order: green_derivative(walk, e, a, r, 1, order=order),
        lambda r, order: f_ratio(walk, e, a, r, order=order),
        lambda r, order: green_metrics(walk, e, a, r, order=order),
    )
    for call in calls:
        with pytest.raises(ValueError, match="r must be >= 0"):
            call(-0.1, 4)
        with pytest.raises(ValueError, match="order must be >= 1"):
            call(0.3, 0)


SRC = Path(__file__).resolve().parent.parent / "src" / "freewalk"


def source_files_naming(name: str) -> set[str]:
    """Package source files that name `name`: a use, an attribute or an import."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name):
                found.add(path.name)
    return found


def test_green_series_helpers_are_used_only_in_green():
    # one copy of the pair-series DP, the root-growth extrapolation and the
    # backward Green array: every other module goes through green.py
    for name in ("_ratio_extrapolate", "_g_backward", "_target_series"):
        assert source_files_naming(name) == {"green.py"}, name


def test_triangle_inequality_instance(zz, walk):
    r = 0.5 * tree_spectral_radius(4)
    e, a = zz.identity, zz.gen("a")
    ab = zz.multiply(a, zz.gen("b"))
    # truncated sides carry different path horizons; the slack is covered by
    # the right side's series-tail estimates
    g_ea = green_value(walk, e, a, r, order=16, radius=8)
    g_aab = green_value(walk, a, ab, r, order=16, radius=8)
    g_ee = green_value(walk, e, e, r, order=16, radius=8)
    g_eab = green_value(walk, e, ab, r, order=16, radius=8)
    eps = g_ee.value * g_eab.tail_estimate + g_ee.tail_estimate * (
        g_eab.value + g_eab.tail_estimate
    )
    assert g_ea.value * g_aab.value <= g_ee.value * g_eab.value + eps


def test_spectral_radius_simple_oracle(walk):
    est = spectral_radius(walk, n_max=20)
    oracle = 1.0 / tree_spectral_radius(4)  # = sqrt(3)/2
    assert abs(est.rho_point - oracle) < 1.5e-3
    assert abs(oracle - math.sqrt(3) / 2) < 1e-15
    # Fekete diagnostics non-decreasing, certified bound above the point
    diags = est.diagnostics
    assert all(x <= y + 1e-15 for x, y in zip(diags, diags[1:]))
    assert est.point <= est.certified_upper + 1e-9


def test_spectral_radius_lazy_oracle(lazy):
    est = spectral_radius(lazy, n_max=20)
    oracle = 0.5 + 0.5 * math.sqrt(3) / 2
    assert abs(est.rho_point - oracle) < 2.5e-3


def test_spectral_radius_rank_one_sanity():
    line = free_group(1)
    walk = simple_walk(line)
    from freewalk import return_sequence

    q = return_sequence(walk, 24).values
    for n in range(13):
        assert q[2 * n] == Fraction(math.comb(2 * n, n), 4**n)
    est = spectral_radius(walk, n_max=24)
    assert est.rho_point > 0.95
    assert est.certified_upper >= 1.0 - 1e-12


def test_spectral_radius_not_returning(zz):
    m = Measure(zz, {zz.gen("a"): Fraction(1)})
    with pytest.raises(ValueError):
        spectral_radius(m, n_max=8)


def test_green_derivative_leading_terms(zz, walk):
    a = zz.gen("a")
    d1 = green_derivative(walk, zz.identity, a, 0.0, k=1, order=6, radius=6)
    assert d1.value == 0.25  # mu(a)
    d2 = green_derivative(walk, zz.identity, zz.identity, 0.0, k=2, order=6, radius=6)
    assert d2.value == 2 * 0.25  # 2 q_2


def test_green_derivative_monotone(zz, lazy):
    vals = [
        green_derivative(lazy, zz.identity, zz.identity, r, k=1, order=16, radius=8).value
        for r in (0.1, 0.3, 0.5, 0.7)
    ]
    assert vals == sorted(vals)


def test_spatial_sum_base_cases(zz, lazy):
    r = 0.4
    g = green_value(lazy, zz.identity, zz.identity, r, order=16, radius=8).value
    i1 = spatial_sum(lazy, 1, r, (0, 1), order=16, radius=8)
    assert abs(i1 - g * g) < 1e-12
    i2 = spatial_sum(lazy, 2, r, (0, 1), order=16, radius=8)
    assert abs(i2 - g**3) < 1e-12
    for k in (1, 2, 3):
        assert spatial_sum(lazy, k, 0.0, (2, 2), order=8, radius=6) == 1.0


def test_spatial_sum_monotone(zz, lazy):
    r = 0.4
    vals = [spatial_sum(lazy, 2, r, t, order=12, radius=8) for t in ((1, 1), (2, 2), (3, 2))]
    assert vals == sorted(vals)


def test_fk_coefficients_match_published_rows():
    assert fk_coefficients(1) == [1, 1]
    assert fk_coefficients(2) == [2, 4, 1]
    assert fk_coefficients(3) == [6, 18, 9, 1]


def test_derivative_identity_small(zz, lazy):
    rep = derivative_identity_residual(lazy, 0.0, (2, 2), order=8, radius=6)
    assert rep.left == 1.0 and rep.right == 1.0 and rep.residual == 0.0
    r = 0.3
    rep = derivative_identity_residual(lazy, r, (6, 6), order=16, radius=10)
    assert rep.residual < 1e-6


def test_fk_identity_at_zero(zz, lazy):
    rep = fk_identity_residual(lazy, 2, 0.0, (2, 2), order=8, radius=6)
    assert rep.left == 0.0 and rep.right == 0.0


def test_fk_identity_small_budget(zz, lazy):
    r = 0.3
    rep2 = fk_identity_residual(lazy, 2, r, (4, 3), order=20, radius=10)
    assert rep2.residual < 1e-5 * max(1.0, rep2.left)
    rep3 = fk_identity_residual(lazy, 3, r, (4, 3), order=20, radius=10)
    assert rep3.residual < 1e-4 * max(1.0, rep3.left)


def test_sphere_sums_basics(zz, lazy):
    tab = sphere_sums(lazy, 0.0, 3, 2, order=8, radius=6)
    assert tab.values[0] == 1.0
    assert all(v == 0.0 for v in tab.values[1:])
    r = 0.4
    g = green_value(lazy, zz.identity, zz.identity, r, order=16, radius=8).value
    tab = sphere_sums(lazy, r, 3, 2, order=16, radius=8)
    assert abs(tab.values[0] - g * g) < 1e-12
    assert all(v >= 0 for v in tab.values)


def test_sphere_sums_at_adjacent_floats(zz):
    # fields are memoized under their exact r values: a neighbouring float
    # is its own field, not a hit that lacks the requested r
    mu = lazy_walk(zz).as_float()
    r = 0.3
    r_next = math.nextafter(r, 1.0)
    a = sphere_sums(mu, r, 2, 2, order=8, radius=6)
    b = sphere_sums(mu, r_next, 2, 2, order=8, radius=6)
    assert b.r == r_next
    assert b.values[0] >= a.values[0]


def test_series_derivative_small_cases():
    assert series_derivative([1.0, 2.0, 3.0], 2.0) == 17.0
    assert series_derivative([1.0, 2.0, 3.0], 2.0, 2) == 6.0
    assert series_derivative([1.0, 2.0], 2.0, 3) == 0.0


def test_resolve_r(lazy):
    r = resolve_r(lazy, 0.5, n_max=16)
    est = spectral_radius(lazy, n_max=16)
    assert abs(r - 0.5 * est.point) < 1e-15


def test_resolve_r_refuses_r_above_the_certified_bound(lazy):
    """Lazy F2 at n_max 20: R-hat = 1.0735 and the certified upper bound on
    R is 1.2501, so 1.5 R-hat = 1.6102 lies where G(e, e | r) diverges and
    is refused with the bound named; 0.5 R-hat keeps its value."""
    est = spectral_radius(lazy, n_max=20)
    assert resolve_r(lazy, 0.5, n_max=20) == 0.5 * est.point
    with pytest.raises(ValueError, match=r"^fraction 1\.5 gives r = 1\.610.*, above the "
                       r"certified upper bound 1\.250.* on R \(n_max 20\)$"):
        resolve_r(lazy, 1.5, n_max=20)


def test_resolve_r_refuses_fractions_that_are_not_finite_and_non_negative(lazy):
    """nan, -0.5 and inf are refused before any bound is read (nan gave r =
    nan and -0.5 gave r = -0.5367); 0.0 gives r = 0.0."""
    for bad in (math.nan, -0.5, math.inf):
        with pytest.raises(ValueError, match=r"^fraction must be finite and >= 0, got "):
            resolve_r(lazy, bad, n_max=20)
    assert resolve_r(lazy, 0.0, n_max=20) == 0.0


def test_derivative_identity_asymmetric(zz):
    # the identity needs no symmetry; exercises the backward Green array
    from freewalk import measure_from_pairs

    m = measure_from_pairs(zz, [("e", "1/2"), ("1:(1)", "1/4"), ("1:(-1)", "1/8"),
                                ("2:(1)", "1/16"), ("2:(-1)", "1/16")])
    assert not m.is_symmetric()
    rep = derivative_identity_residual(m, 0.3, (6, 6), order=16, radius=10)
    assert rep.residual < 1e-6


def test_field_serves_pruned_return_weights(zz, monkeypatch):
    # a field's DP is the unpruned DP of pruned_return_weights on the same
    # table: after the field, the return weights need no DP of their own
    from freewalk import engine
    from freewalk.green import _field, pruned_return_weights

    order, radius = 12, 6
    makers = (lambda: lazy_walk(zz), lambda: drift_walk(zz), lambda: long_step_walk(zz))
    mus = [make().as_float() for make in makers]
    wants = [pruned_return_weights(make().as_float(), order, radius) for make in makers]
    for mu in mus:
        _field(mu, [0.3], order, radius)

    def no_dp(*args, **kwargs):
        raise AssertionError("pruned_return_weights ran a DP after the field")

    monkeypatch.setattr(engine, "_step", no_dp)
    for mu, want in zip(mus, wants):
        assert pruned_return_weights(mu, order, radius) == want


def drift_walk(zz):
    """A non-symmetric walk on the generators."""
    a, b = zz.gen("a"), zz.gen("b")
    return Measure(zz, {a: Fraction(1, 2), zz.inverse(a): Fraction(1, 4),
                        b: Fraction(1, 8), zz.inverse(b): Fraction(1, 8)})


def long_step_walk(zz):
    """{e: 1/2, ab, BA, a^2, B: 1/8 each}: non-symmetric, d_mu = 2."""
    from freewalk import measure_from_pairs

    return measure_from_pairs(zz, [("e", "1/2"), ("1:(1)|2:(1)", "1/8"),
                                   ("2:(-1)|1:(-1)", "1/8"), ("1:(2)", "1/8"),
                                   ("2:(-1)", "1/8")])


def test_target_pruning_keeps_green_values_and_steps_fewer_states(zz, monkeypatch):
    # the Green series prune the states that reach no target by step
    # `order`; every coefficient stays that of the unpruned loop below
    import numpy as np

    from freewalk import engine
    from freewalk.green import _derivative_terms, _series_stats

    def unpruned(mu, targets, order, radius):
        table = mu.table(radius)
        tids = table.ids_of(targets)
        cols = np.array([w[tids] for w, _ in engine.levels(table, mu.entries.values(), order)])
        cols[:, tids < 0] = 0.0
        return [col.tolist() for col in cols.T]

    stepped = []
    real = engine._step

    def count(table, w, col_weights, bound):
        stepped.append(len(w))
        return real(table, w, col_weights, bound)

    monkeypatch.setattr(engine, "_step", count)
    e, a, b = zz.identity, zz.gen("a"), zz.gen("b")
    fewer = []
    for mu in (lazy_walk(zz).as_float(), drift_walk(zz).as_float(),
               long_step_walk(zz).as_float()):
        for x, y in ((e, e), (e, a), (a, zz.multiply(b, b)), (zz.inverse(b), e)):
            for order, radius in ((12, 6), (9, 8)):
                del stepped[:]
                got = green_value(mu, x, y, 0.4, order=order, radius=radius)
                pruned = sum(stepped)
                del stepped[:]
                (coeffs,) = unpruned(mu, [zz.multiply(zz.inverse(x), y)], order, radius)
                fewer.append(pruned < sum(stepped))
                assert got == _series_stats(_derivative_terms(coeffs, 0.4))
                gxy, gyx, gee = (series_derivative(c, 0.4) for c in unpruned(
                    mu, [zz.multiply(zz.inverse(x), y), zz.multiply(zz.inverse(y), x), e],
                    order, radius))
                want = ((math.inf, math.inf) if gxy == 0 or gyx == 0 else
                        (-math.log(gxy / gee), -math.log(gxy / gee) - math.log(gyx / gee)))
                assert green_metrics(mu, x, y, 0.4, order=order, radius=radius) == want
    assert any(fewer)
