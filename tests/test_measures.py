"""Measures, validation, and the exact convolution engine."""

import gc
import itertools
import math
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from freewalk import (
    BudgetExceededError,
    FactorSpec,
    Measure,
    convolve,
    distribution,
    free_group,
    free_product,
    lazy_walk,
    measure_from_pairs,
    return_sequence,
    simple_walk,
    validate,
)
from freewalk.cli import build_group, build_measure, load_config
from freewalk.green import _field, spatial_sum, sphere_sums
from freewalk.measures import WalkReport, _dict_power_sequence, default_radius

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def zz():
    return free_group(2)


@pytest.fixture(scope="module")
def walk(zz):
    return simple_walk(zz)


@pytest.fixture(scope="module")
def lazy(zz):
    return lazy_walk(zz)


def brute_force_returns(measure, n_max):
    """Independent oracle: enumerate all support sequences of length n."""
    grp = measure.group
    sup = list(measure.entries.items())
    qs = [Fraction(1)]
    for n in range(1, n_max + 1):
        total = Fraction(0)
        for combo in itertools.product(sup, repeat=n):
            g = grp.identity
            w = Fraction(1)
            for elem, weight in combo:
                g = grp.multiply(g, elem)
                w *= weight
            if g == grp.identity:
                total += w
        qs.append(total)
    return qs


def test_measure_validation(zz):
    with pytest.raises(ValueError):
        Measure(zz, {zz.identity: Fraction(1, 2)})
    with pytest.raises(ValueError):
        Measure(zz, {zz.identity: Fraction(-1), zz.gen("a"): Fraction(2)})
    m = measure_from_pairs(zz, [("1:(1)", "1/2"), ("1:(-1)", "1/2")])
    assert m.d_mu == 1 and m.is_symmetric()


def test_simple_walk_shape(walk, zz):
    assert len(walk.entries) == 4
    assert all(w == Fraction(1, 4) for w in walk.entries.values())
    assert walk.weight(zz.gen("b", -1)) == Fraction(1, 4)


def test_validate_simple_periodic(walk):
    rep = validate(walk, depth=4)
    assert rep.symmetric
    assert not rep.aperiodic and rep.period == 2
    assert rep.support_radius == 1
    assert rep.admissible_to_depth == 4


def test_validate_lazy_aperiodic(lazy):
    rep = validate(lazy, depth=3)
    assert rep.symmetric and rep.aperiodic and rep.period == 1


@pytest.mark.parametrize("name,aperiodic,period", [
    ("f2-lazy", True, 1), ("f2-simple", False, 2), ("z2-z3-lazy", True, 1)])
def test_validate_reports_on_configs(name, aperiodic, period):
    """The reports of the search over the (ell, ell)-balls filtered to word
    length <= ell, which validate ran before it took `word_ball`."""
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    group = build_group(cfg)
    for depth in range(1, 5):
        assert validate(build_measure(cfg, group, "exact"), depth) == WalkReport(
            symmetric=True, aperiodic=aperiodic, period=period, checked_to=2 * depth,
            admissible_to_depth=depth, support_radius=1)


def test_validate_subgroup_support(zz):
    m = measure_from_pairs(zz, [("1:(1)", "1/2"), ("1:(-1)", "1/2")])
    rep = validate(m, depth=3)
    assert rep.admissible_to_depth == 0


def test_convolve_identity_and_mass(zz, walk):
    delta = Measure(zz, {zz.identity: Fraction(1)})
    conv = convolve(delta, walk)
    assert conv.entries == walk.entries
    twice = convolve(walk, walk)
    assert sum(twice.entries.values()) == 1
    assert twice.weight(zz.identity) == Fraction(1, 4)
    assert twice.weight(zz.element([(1, 2)])) == Fraction(1, 16)


def test_convolve_mode_mismatch(zz, walk):
    f = walk.as_float()
    with pytest.raises(ValueError):
        convolve(walk, f)
    mixed = convolve(walk, f, allow_cast=True)
    assert mixed.mode == "float"


def test_return_sequence_exact_values(walk):
    q = return_sequence(walk, 8).values
    assert q[0] == 1
    assert q[2] == Fraction(1, 4)
    assert q[4] == Fraction(7, 64)
    assert all(q[n] == 0 for n in (1, 3, 5, 7))


def test_return_sequence_matches_brute_force(walk):
    q = return_sequence(walk, 8).values
    oracle = brute_force_returns(walk, 8)
    assert list(q[:9]) == oracle


def test_return_sequence_lazy_matches_brute_force(lazy):
    q = return_sequence(lazy, 5).values
    oracle = brute_force_returns(lazy, 5)
    assert list(q[:6]) == oracle


@pytest.mark.parametrize("moduli", [((0, 2), (3,)), ((2, 2), (3,)), ((3, 0), (0,))])
def test_return_sequence_matches_brute_force_on_mixed_factors(moduli):
    # (Z x Z/2) * Z/3, (Z/2)^2 * Z/3 and (Z/3 x Z) * Z: lazy, and non-symmetric
    grp = free_product(*(FactorSpec(m) for m in moduli))
    drift = measure_from_pairs(grp, [
        ("e", "1/4"), ("1:(1,1)", "1/4"), ("2:(1)", "1/8"), ("1:(1,0)|2:(2)", "1/4"),
        ("2:(-1)", "1/8")])
    for mu in (lazy_walk(grp), drift):
        want = brute_force_returns(mu, 5)
        assert list(return_sequence(mu, 5).values[:6]) == want
        assert list(return_sequence(mu.as_float(), 5).values[:6]) == pytest.approx(
            [float(q) for q in want], rel=1e-12)


def drift_beyond_capacity(zz):
    """D = 2^20: D^4 > 2^53, so float64 levels are not exact at n = 6."""
    D = 2**20
    return measure_from_pairs(zz, [("1:(1)", Fraction(1, D)), ("1:(-1)", Fraction(2**18 - 1, D)),
                                   ("2:(1)", "1/4"), ("2:(-1)", "1/2")])


def test_return_sequence_falls_back_to_dicts_beyond_float_capacity(zz, monkeypatch):
    # beyond capacity the table DP runs in Python ints: the float64 limb dots must not run
    from freewalk import engine

    m = drift_beyond_capacity(zz)
    D = m.integerized()[1]
    assert D == 2**20 and not engine.exact_capacity(D, (6 + 1) // 2)

    def no_float_dots(a, b):
        raise AssertionError("the float64 limb dots ran beyond their capacity")

    monkeypatch.setattr(engine, "_exact_dots", no_float_dots)
    q = return_sequence(m, 6)
    assert list(q.values) == brute_force_returns(m, 6)
    assert q.denominator == D


def test_return_sequence_calls_the_fallback_only_beyond_float_capacity(zz, monkeypatch):
    """The benchmark tracer counts `_dict_power_sequence` calls as the exact
    fallback: one per return sequence beyond capacity, none within it."""
    from freewalk import measures

    calls = []
    fallback = measures._dict_power_sequence

    def counted(measure, n_max):
        calls.append(n_max)
        return fallback(measure, n_max)

    monkeypatch.setattr(measures, "_dict_power_sequence", counted)
    return_sequence(lazy_walk(zz), 12)
    return_sequence(drift_beyond_capacity(zz), 2)  # D^2 < 2^53: still within
    assert calls == []
    q = return_sequence(drift_beyond_capacity(zz), 6)
    assert calls == [6] and q.values[2] == brute_force_returns(drift_beyond_capacity(zz), 2)[2]


def test_exact_capacity_answers_false_where_the_power_passes_the_float_range():
    from freewalk import engine

    assert engine.exact_capacity(1000, 103) is False  # 1000^104 > 1.8e308
    assert engine.exact_capacity(2, 51) is True and engine.exact_capacity(2, 52) is False


def test_return_sequence_falls_back_to_dicts_at_a_huge_denominator_power(zz):
    """D = 2^20, n = 102: D^52 is beyond float range, so the capacity check
    must say no rather than overflow; q_n is the lazy walk on Z's
    sum over k of C(n, 2k) C(2k, k) D^-2k ((D - 2)/D)^(n - 2k)."""
    D = 2**20
    m = measure_from_pairs(zz, [("e", Fraction(D - 2, D)), ("1:(1)", Fraction(1, D)),
                                ("1:(-1)", Fraction(1, D))])
    q = return_sequence(m, 102)
    assert list(q.values) == _dict_power_sequence(m, 102)
    stay, move = Fraction(D - 2, D), Fraction(1, D)
    assert [q.values[n] for n in (0, 1, 2, 7, 102)] == [
        sum(math.comb(n, 2 * k) * math.comb(2 * k, k) * move ** (2 * k) * stay ** (n - 2 * k)
            for k in range(n // 2 + 1))
        for n in (0, 1, 2, 7, 102)
    ]


def test_return_sequence_matches_dict_fallback(lazy):
    q = return_sequence(lazy, 8).values
    fallback = _dict_power_sequence(lazy, 8)
    assert list(q) == fallback


def test_delta_walk_never_returns(zz):
    m = Measure(zz, {zz.gen("a"): Fraction(1)})
    q = return_sequence(m, 6).values
    assert q[0] == 1 and all(v == 0 for v in q[1:])


def test_supermultiplicativity(lazy):
    q = return_sequence(lazy, 10).values
    for n in range(11):
        for m in range(11 - n):
            assert q[n + m] >= q[n] * q[m]


def test_symmetry_propagation(zz, walk):
    two = convolve(walk, walk)
    for g, w in two.entries.items():
        assert two.weight(zz.inverse(g)) == w


def test_distribution(zz, walk):
    d0 = distribution(walk, 0)
    assert d0 == {zz.identity: Fraction(1)}
    d2 = distribution(walk, 2)
    assert d2[zz.identity] == Fraction(1, 4)
    length2 = [g for g in d2 if zz.relative_length(g) >= 1]
    assert len(length2) == 12
    assert all(d2[g] == Fraction(1, 16) for g in length2)
    pruned = distribution(walk, 2, prune_radius=0)
    assert pruned == {zz.identity: Fraction(1, 4)}


@pytest.mark.parametrize("n", [0, 1, 3])
def test_distribution_refuses_a_negative_prune_radius(walk, n):
    # the word ball of a negative radius is empty: no mu^{*n} restricts to it
    for mu in (walk, walk.as_float()):
        with pytest.raises(ValueError, match="prune_radius must be >= 0, got -1"):
            distribution(mu, n, prune_radius=-1)


def test_distribution_float_close(zz, walk):
    exact = distribution(walk, 4)
    approx = distribution(walk.as_float(), 4)
    assert set(exact) == set(approx)
    for g, w in exact.items():
        assert abs(float(w) - approx[g]) < 1e-14


def test_pruned_distribution_float_close(lazy):
    # the float levels are pruned to the ball like the exact ones
    for radius in (1, 2):
        exact = distribution(lazy, 4, prune_radius=radius)
        approx = distribution(lazy.as_float(), 4, prune_radius=radius)
        assert set(exact) == set(approx)
        for g, w in exact.items():
            assert abs(float(w) - approx[g]) < 1e-14


def test_float_return_sequence_close(lazy):
    qx = return_sequence(lazy, 10).values
    qf = return_sequence(lazy.as_float(), 10).values
    for a, b in zip(qx, qf):
        assert abs(float(a) - b) < 1e-13


def test_exact_distribution_obeys_the_table_budget(zz):
    mu = lazy_walk(zz)
    mu.max_table_elements = 1456  # the cap-6 table holds 1457
    with pytest.raises(BudgetExceededError):
        distribution(mu, 6)
    mu.max_table_elements = 1457
    assert sum(distribution(mu, 6).values()) == 1


def test_budget_error(zz, walk):
    with pytest.raises(BudgetExceededError):
        fresh = simple_walk(zz)
        fresh.table(8, max_elements=50)


def test_cached_table_respects_a_smaller_budget(zz):
    mu = lazy_walk(zz)
    table = mu.table(6)
    assert table.size == 1457
    # a budget below the cached table's size refuses it, as a fresh build does
    with pytest.raises(BudgetExceededError):
        mu.table(6, max_elements=10)
    with pytest.raises(BudgetExceededError):
        lazy_walk(zz).table(6, max_elements=10)
    mu.max_table_elements = 1456
    with pytest.raises(BudgetExceededError):
        mu.table(6)
    # a budget the cached table fits serves the same object
    assert mu.table(6, max_elements=1457) is table


def test_return_sequence_determinism(zz):
    a = return_sequence(simple_walk(zz), 12).values
    b = return_sequence(simple_walk(zz), 12).values
    assert a == b


def test_float_mode_determinism(zz):
    a = return_sequence(simple_walk(zz).as_float(), 12).values
    b = return_sequence(simple_walk(zz).as_float(), 12).values
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-13 * max(abs(x), 1e-300)


def test_asymmetric_return_sequence_matches_brute_force(zz):
    # exercises the inverse-permutation pairing path
    m = measure_from_pairs(zz, [("1:(1)", "1/2"), ("1:(-1)", "1/4"), ("2:(1)", "1/4")])
    assert not m.is_symmetric()
    q = return_sequence(m, 6).values
    oracle = brute_force_returns(m, 6)
    assert list(q[:7]) == oracle


def test_drop_tables_releases_tables_held_by_results(zz):
    mu = lazy_walk(zz).as_float()
    sphere_sums(mu, 0.3, 2, 2, order=8, radius=6)
    spatial_sum(mu, 2, 0.3, (2, 2), order=8, radius=6)
    table = weakref.ref(mu.table(6))
    mu.drop_tables()
    gc.collect()
    assert table() is None


def test_memo_keeps_two_fields(zz):
    mu = lazy_walk(zz).as_float()
    first = weakref.ref(_field(mu, [0.1], 8, 6)["G"][0.1])  # a dict cannot be weakly held
    second = _field(mu, [0.2], 8, 6)
    assert _field(mu, [0.1], 8, 6)["G"][0.1] is first()
    _field(mu, [0.3], 8, 6)
    gc.collect()
    assert first() is None
    assert _field(mu, [0.2], 8, 6) is second


def test_default_radius(zz, walk):
    assert [default_radius(walk, n) for n in (0, 4, 10, 48)] == [0, 4, 10, 10]
    wide = measure_from_pairs(zz, [("1:(2)", "1/2"), ("1:(-2)", "1/2")])
    assert default_radius(wide, 48) == 20
