"""BallTable against an independent queue-BFS builder, the trie lookups and
inversion, the DP step against the column-by-column bincount kernel, the
exact pairing against Python big ints, the level driver against the
callback loop it replaced, and every exact DP against the Fraction dict
DP it replaced."""

import ast
import math
import operator
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk import (
    BudgetExceededError,
    Measure,
    distribution,
    free_group,
    measure_from_pairs,
    return_sequence,
)
from freewalk.cli import build_group, build_measure, load_config
from freewalk.engine import (
    _BLOCK,
    BallTable,
    _exact_dots,
    _lookup,
    _step,
    absorbed_profile,
    exact_capacity,
    green_field,
    levels,
    pair_ids,
    pruned_power_sequence,
    return_bound,
)
from freewalk.groups import (
    FINITE_CYCLIC,
    FREE_ABELIAN,
    FactorElement,
    FactorSpec,
    GroupElement,
    free_product,
)
from freewalk.measures import _dict_power_sequence

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src" / "freewalk"


def reference_table(group, support, cap):
    """Queue BFS over normal forms, one syllable at a time; every
    intermediate product inside the cap is interned when first met."""
    ids = {group.identity: 0}
    elems = [group.identity]
    nbr = []
    i = 0
    while i < len(elems):
        row = []
        for g in support:
            cur = elems[i]
            for syl in g.syllables:
                cur = group.multiply(cur, GroupElement((syl,)))
                if group.word_length(cur) > cap:
                    cur = None
                    break
                if cur not in ids:
                    ids[cur] = len(elems)
                    elems.append(cur)
            row.append(-1 if cur is None else ids[cur])
        nbr.append(row)
        i += 1
    arrays = {
        "nbr": np.array(nbr, dtype=np.int64).reshape(len(elems), len(support)),
        "wl": [group.word_length(g) for g in elems],
        "rel": [len(g.syllables) for g in elems],
        "maxfac": [max((group.factor_word_length(*s) for s in g.syllables), default=0)
                   for g in elems],
        "first_f": [g.syllables[0].factor if g.syllables else 0 for g in elems],
    }
    return elems, arrays


def assert_matches_reference(group, support, cap):
    table = BallTable(group, support, cap)
    elems, ref = reference_table(group, support, cap)
    assert table.size == len(elems)
    for name, want in ref.items():
        np.testing.assert_array_equal(getattr(table, name), want, err_msg=name)
    for i, g in enumerate(elems):
        assert table.element_of(i) == g
        assert table.id_of(g) == i
    return table, elems


def _parse(group, texts):
    return [group.parse(t) for t in texts]


def z3_z5_z():
    return free_product(FactorSpec(FREE_ABELIAN, rank=3), FactorSpec(FINITE_CYCLIC, order=5),
                        FactorSpec(FREE_ABELIAN, rank=1))


MULTI_F2 = ["1:(1)|2:(1)", "2:(-1)|1:(-1)", "1:(-1)", "2:(1)|1:(2)|2:(-1)"]
ODD_F2 = ["1:(2)", "2:(1)", "2:(-3)"]
AB_BA = ["1:(1)|2:(1)", "2:(-1)|1:(-1)"]  # b is never reached, so the tail of ab leaves
Z3_Z5_Z = ["e", "1:(1,0,0)|2:(1)", "2:(4)|1:(-1,0,0)", "1:(0,1,-1)", "2:(2)|3:(1)",
           "3:(-1)|1:(0,0,1)|2:(3)|1:(2,0,0)"]


@pytest.mark.parametrize("name,cap", [("f2-lazy", 7), ("f2-simple", 7), ("z2-z3-lazy", 5)])
def test_builder_matches_reference_on_configs(name, cap):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    group = build_group(cfg)
    measure = build_measure(cfg, group, "exact")
    assert_matches_reference(group, list(measure.entries), cap)


@pytest.mark.parametrize("make_group,texts,cap", [
    (free_group, MULTI_F2, 6),
    (free_group, ODD_F2, 9),
    (z3_z5_z, Z3_Z5_Z, 4),
])
def test_builder_matches_reference_on_multi_syllable_supports(make_group, texts, cap):
    group = make_group()
    assert_matches_reference(group, _parse(group, texts), cap)


@st.composite
def small_products(draw):
    specs = [
        draw(st.one_of(
            st.builds(lambda d: FactorSpec(FREE_ABELIAN, rank=d), st.integers(1, 2)),
            st.builds(lambda m: FactorSpec(FINITE_CYCLIC, order=m), st.integers(2, 5)),
        ))
        for _ in range(draw(st.integers(1, 3)))
    ]
    group = free_product(*specs)
    raw_syllable = st.integers(1, len(specs)).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(-2, 2), min_size=specs[k - 1].dim,
                                                max_size=specs[k - 1].dim)))
    support = draw(st.lists(
        st.lists(raw_syllable, max_size=3).map(group.element), min_size=1, max_size=4,
        unique=True))
    return group, support, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_products())
def test_builder_matches_reference_on_random_products(case):
    group, support, cap = case
    table, elems = assert_matches_reference(group, support, cap)
    assert_step_matches_reference(table)
    inv = table.inverse_perm()
    for i, g in enumerate(elems):
        j = table.id_of(group.inverse(g))
        assert inv[i] == (-1 if j is None else j)
    ints = [1 + k % 3 for k in range(len(support))]
    d_mu = max(group.word_length(g) for g in support)
    for n_max in range(2 * cap + 2):
        if exact_capacity(sum(ints), (n_max + 1) // 2):
            assert_pairing_matches_reference(table, ints, n_max, d_mu, False)


@pytest.mark.parametrize("make_group,texts,cap,leaves", [
    (free_group, ODD_F2, 9, True),
    (free_group, MULTI_F2, 6, False),
    (z3_z5_z, Z3_Z5_Z, 4, True),
])
def test_inverse_perm_matches_group_inverse(make_group, texts, cap, leaves):
    group = make_group()
    table = BallTable(group, _parse(group, texts), cap)
    inv = table.inverse_perm()
    missing = 0
    for i in range(table.size):
        j = table.id_of(group.inverse(table.element_of(i)))
        assert inv[i] == (-1 if j is None else j)
        missing += j is None
    assert (missing > 0) == leaves  # whether some inverses leave the table


def test_inverse_perm_where_a_tail_leaves_the_table_but_the_inverse_stays():
    group = free_group(2)
    table = BallTable(group, _parse(group, AB_BA), 8)
    inv = table.inverse_perm()
    tail_out_inverse_in = 0
    for i in range(table.size):
        g = table.element_of(i)
        j = table.id_of(group.inverse(g))
        assert inv[i] == (-1 if j is None else j)
        tail_out = len(g.syllables) > 1 and table.id_of(GroupElement(g.syllables[1:])) is None
        tail_out_inverse_in += tail_out and j is not None
    assert tail_out_inverse_in > 0


@pytest.mark.parametrize("make_group,texts,cap,ball", [
    (free_group, ODD_F2, 9, (2, 3)),
    (z3_z5_z, Z3_Z5_Z, 4, (2, 1)),
    (free_group, ["e", "1:(1)", "1:(-1)", "2:(1)", "2:(-1)"], 5, (3, 2)),
])
def test_pair_ids_match_group_products(make_group, texts, cap, ball):
    group = make_group()
    table = BallTable(group, _parse(group, texts), cap)
    elems = list(group.enumerate_ball(*ball))
    pair = pair_ids(table, elems)
    outside = 0
    for i, a in enumerate(elems):
        ainv = group.inverse(a)
        outside += table.id_of(ainv) is None
        for j, b in enumerate(elems):
            t = table.id_of(group.multiply(ainv, b))
            assert pair[i, j] == (-1 if t is None else t)
    assert outside > 0  # some rows start outside the table


def test_pair_ids_need_a_prefix_closed_list():
    group = free_group(2)
    table = BallTable(group, _parse(group, ["1:(1)", "1:(-1)"]), 3)
    with pytest.raises(ValueError):
        pair_ids(table, [group.identity, group.parse("1:(1)|2:(1)")])


@pytest.mark.parametrize("make_group,texts,cap", [
    (free_group, ["e", "1:(1)", "1:(-1)", "2:(1)", "2:(-1)"], 6),
    (free_group, MULTI_F2, 5),
])
def test_budget_raised_exactly_when_table_exceeds_it(make_group, texts, cap):
    group = make_group()
    support = _parse(group, texts)
    size = BallTable(group, support, cap).size
    assert BallTable(group, support, cap, max_elements=size).size == size
    for budget in (size - 1, size // 2, 1, 0):
        with pytest.raises(BudgetExceededError):
            BallTable(group, support, cap, max_elements=budget)


def test_coordinates_beyond_int16():
    group = free_group(2)
    measure = measure_from_pairs(group, [("1:(40000)", Fraction(1, 2)),
                                         ("1:(-40000)", Fraction(1, 2))])
    q = return_sequence(measure, 4).values
    assert q[2] == Fraction(1, 2) and q[4] == Fraction(3, 8)
    table = measure.table(4 * 40000)
    assert len(table.syllables) == 8  # multiples of 40000, not the word ball


# -- the DP step -------------------------------------------------------------------


def reference_step(table, w, col_weights, bound):
    """The column-by-column bincount kernel: full steps add one bincount per
    support column; bounded steps scatter only the live sources' edges to
    targets within the bound."""
    if bound is not None and bound >= table.cap:
        bound = None
    nw = np.zeros(table.size)
    if bound is None:
        for (src, tgt), cj in zip(table.columns(), col_weights):
            if cj == 0:
                continue
            nw += np.bincount(tgt, weights=w[src] * cj, minlength=table.size)
        return nw
    live = np.nonzero(w)[0]
    for j, cj in enumerate(col_weights):
        if cj == 0:
            continue
        tgt = table.nbr[live, j]
        ok = tgt >= 0
        ok &= table.wl[np.where(ok, tgt, 0)] <= bound
        nw += np.bincount(tgt[ok], weights=w[live[ok]] * cj, minlength=table.size)
    return nw


def assert_step_matches_reference(table, weight_sets=()):
    """_step equals the reference bit for bit, for every bound 0..cap and
    None, with the given column weights and four random sets, on DP levels
    from e and on random weights with zeros; given only the prefix [0, hi)
    of a level that is zero from hi on, it returns the same table-sized
    level."""
    rng = np.random.default_rng(0)
    K = len(table.support)
    weight_sets = list(weight_sets) + [
        list(rng.random(K)),  # non-dyadic: the sum order shows in the last bits
        [0.0] + list(rng.random(K - 1)),  # a zero column weight (e's, when present)
        list(rng.random(K - 1)) + [0.0],
        [float(c) for c in rng.integers(0, 4, K)],  # integer weights, some zero
    ]
    for cols in weight_sets:
        w = np.zeros(table.size)
        w[0] = 1.0
        levels = []
        for _ in range(3):
            levels.append(w)
            w = reference_step(table, w, cols, None)
        levels.append(rng.random(table.size) * (rng.random(table.size) < 0.5))
        cut = levels[-1].copy()
        cut[table.size // 3:] = 0.0
        levels.append(cut)
        for w in levels:
            hi = int(np.flatnonzero(w).max(initial=-1)) + 1
            for bound in [None, *range(table.cap + 1)]:
                want = reference_step(table, w, cols, bound)
                got = _step(table, w, cols, bound)
                assert np.array_equal(got, want), (cols, bound)
                assert np.array_equal(_step(table, w[:hi], cols, bound), got), (cols, bound, hi)


def measure_weights(measure):
    """A measure's float weights and its integerized (exact-mode) weights."""
    ints, _ = measure.integerized()
    return [[float(w) for w in measure.entries.values()], [float(c) for c in ints]]


@pytest.mark.parametrize("name,cap", [("f2-lazy", 7), ("f2-simple", 7), ("z2-z3-lazy", 5)])
def test_step_matches_reference_on_configs(name, cap):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    group = build_group(cfg)
    measure = build_measure(cfg, group, "exact")  # f2-simple has no e in its support
    assert_step_matches_reference(measure.table(cap), measure_weights(measure))


@pytest.mark.parametrize("make_group,texts,cap", [
    (free_group, MULTI_F2, 6),
    (free_group, ODD_F2, 9),  # a non-symmetric support without e
    (z3_z5_z, Z3_Z5_Z, 4),
])
def test_step_matches_reference_on_multi_syllable_supports(make_group, texts, cap):
    group = make_group()
    assert_step_matches_reference(BallTable(group, _parse(group, texts), cap))


def test_step_matches_reference_on_a_non_symmetric_walk():
    group = free_group(2)
    weights = {"e": 2, "1:(1)": 2, "1:(-1)": 1, "2:(1)": 2, "2:(-1)": 1}
    measure = measure_from_pairs(group, [(g, Fraction(c, 8)) for g, c in weights.items()])
    assert_step_matches_reference(measure.table(8), measure_weights(measure))


# -- inversion ---------------------------------------------------------------------


def reference_inverse_perm(table):
    """The syllable walk: pass t appends the inverse of every element's t-th
    last syllable to its inverse's prefix, searching the keys unsorted."""
    group = table.group
    code = {s: c for c, s in enumerate(table.syllables)}
    neg = np.array([code.get(FactorElement(s.factor, group.factor_neg(*s)), -1)
                    for s in table.syllables] + [-1], dtype=np.int64)
    inv = np.zeros(table.size, dtype=np.int64)
    rest = np.arange(table.size)
    live = np.nonzero(table.rel > 0)[0]
    while live.size:
        r = rest[live]
        c = neg[table.code[r]]
        got = _lookup(table._keys, table._kid, inv[live] * table._stride + c)
        got = np.where(c >= 0, got, -1)
        inv[live] = got
        rest[live] = table.parent[r]
        live = live[(got >= 0) & (table.parent[r] > 0)]
    return inv.astype(np.int32)


@pytest.mark.parametrize("make_group,texts,cap", [
    (free_group, ["e", "1:(1)", "1:(-1)", "2:(1)", "2:(-1)"], 10),  # 118 k elements
    (free_group, ODD_F2, 14),
    (free_group, MULTI_F2, 8),
    (free_group, AB_BA, 12),
    (z3_z5_z, Z3_Z5_Z, 5),
])
def test_inverse_perm_matches_the_syllable_walk(make_group, texts, cap):
    group = make_group()
    table = BallTable(group, _parse(group, texts), cap)
    assert table.rel.max() >= 5  # several levels
    want = reference_inverse_perm(table)
    got = table.inverse_perm()
    assert got.dtype == want.dtype and np.array_equal(got, want)
    y = table.pull_back(np.arange(1.0, table.size + 1))
    assert np.array_equal(y, np.where(want >= 0, want + 1.0, 0.0))


# -- the exact dot and the pairing -------------------------------------------------


def big_int_dot(a, b):
    return sum(map(operator.mul, a.astype(np.int64).tolist(), b.astype(np.int64).tolist()))


def split_sum(rng, n, total):
    """n non-negative integers (as float64) summing to exactly total."""
    if n == 0:
        return np.zeros(0)
    cuts = np.sort(rng.integers(0, total + 1, n - 1)).tolist()
    return np.diff([0] + cuts + [total]).astype(np.float64)


def assert_exact_dots(a, bs):
    assert _exact_dots(a, bs) == [big_int_dot(a, b) for b in bs]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 400), st.integers(0, 53), st.integers(0, 2**53 - 1),
       st.integers(0, 2**32 - 1))
def test_exact_dot_matches_big_ints(n, a_bits, b_total, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**a_bits, n).astype(np.float64)
    a[rng.random(n) < 0.3] = 0.0
    b = split_sum(rng, n, b_total)
    assert_exact_dots(a, [b, b[::-1].copy(), np.zeros(n)])


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_exact_dot_around_the_block_size(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, 2**53, n).astype(np.float64)
    assert_exact_dots(a, [split_sum(rng, n, 2**53 - 1), split_sum(rng, n, 12345)])


def test_exact_dot_with_an_all_zero_side():
    a = np.full(10, 2.0**53 - 1)
    assert _exact_dots(a, [np.zeros(10)]) == [0]
    assert _exact_dots(np.zeros(10), [np.full(10, 2.0**40)]) == [0]


def test_exact_dot_over_four_limbs_and_more():
    rng = np.random.default_rng(7)
    n = 3 * _BLOCK + 5
    a = rng.integers(2**52, 2**53, n).astype(np.float64)
    b = split_sum(rng, n, 2**40)  # 41-bit sum: 12-bit limbs, five of them
    assert -(-53 // (53 - (2**40).bit_length())) >= 4
    assert_exact_dots(a, [b])


def test_exact_dot_refuses_a_sum_at_2_to_53():
    with pytest.raises(OverflowError):
        _exact_dots(np.ones(2), [np.array([2.0**52, 2.0**52])])


def reference_power_sequence(table, int_weights, n_max, d_mu, symmetric):
    """The big-int pairing: each level as a Python int list, each dot a sum
    of Python int products."""
    half = (n_max + 1) // 2
    w = np.zeros(table.size)
    w[0] = 1.0
    inv = None if symmetric else table.inverse_perm()
    cur_list = [1] + [0] * (table.size - 1)
    dots = {0: 1}
    cols = [float(c) for c in int_weights]
    for t in range(1, half + 1):
        bound = None if t <= n_max - t else min(t, n_max - t) * d_mu
        w = _step(table, w, cols, bound=bound)
        prev_list = cur_list
        ws = w if inv is None else np.where(inv >= 0, w[np.maximum(inv, 0)], 0.0)
        cur_list = w.astype(np.int64).tolist()
        side = ws.astype(np.int64).tolist() if inv is not None else cur_list
        if 2 * t - 1 <= n_max:
            dots[2 * t - 1] = sum(map(operator.mul, side, prev_list))
        if 2 * t <= n_max:
            dots[2 * t] = sum(map(operator.mul, side, cur_list))
    return [dots.get(n, 0) for n in range(n_max + 1)]


def assert_pairing_matches_reference(table, ints, n_max, d_mu, symmetric):
    got = pruned_power_sequence(table, ints, n_max, d_mu, symmetric)
    want = reference_power_sequence(table, ints, n_max, d_mu, symmetric)
    assert got == want and all(type(x) is int for x in got), n_max


def assert_pairing_on_measure(measure, n_values):
    ints, denom = measure.integerized()
    d_mu = max(1, measure.d_mu)
    symmetric = measure.is_symmetric()
    for n_max in n_values:
        table = measure.table(((n_max + 1) // 2) * d_mu)
        assert_pairing_matches_reference(table, ints, n_max, d_mu, symmetric)
        if symmetric:  # the pull-back path gives the same numbers
            assert_pairing_matches_reference(table, ints, n_max, d_mu, False)


def test_pairing_at_the_exact_capacity_of_denominator_97():
    group = free_group(2)
    weights = {"e": 49, "1:(1)": 13, "1:(-1)": 11, "2:(1)": 17, "2:(-1)": 7}
    measure = measure_from_pairs(group, [(g, Fraction(c, 97)) for g, c in weights.items()])
    assert exact_capacity(97, 7) and not exact_capacity(97, 8)  # n = 14 is the largest
    assert not measure.is_symmetric()
    assert_pairing_on_measure(measure, range(15))  # n = 13, 14: eight 6-bit limbs


@pytest.mark.parametrize("name,n_max", [("f2-lazy", 16), ("f2-simple", 17), ("z2-z3-lazy", 11)])
def test_pairing_matches_reference_on_configs(name, n_max):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    measure = build_measure(cfg, build_group(cfg), "exact")
    assert_pairing_on_measure(measure, range(n_max + 1))


@pytest.mark.parametrize("make_group,texts,cap", [
    (free_group, ODD_F2, 9),
    (free_group, MULTI_F2, 6),
    (free_group, AB_BA, 8),
    (z3_z5_z, Z3_Z5_Z, 4),
])
def test_pairing_matches_reference_on_multi_syllable_supports(make_group, texts, cap):
    """On one table per support, below the radius that return_sequence would
    take: the numbers are then not q_n, but both pairings must agree."""
    group = make_group()
    support = _parse(group, texts)
    table = BallTable(group, support, cap)
    ints = [k + 1 for k in range(len(support))]
    d_mu = max(group.word_length(g) for g in support)
    for n_max in range(13):
        assert_pairing_matches_reference(table, ints, n_max, d_mu, False)


# -- the level driver ----------------------------------------------------------------


def reference_float_levels(table, weights, n_steps, bound_fn=None, on_level=None):
    """The callback level loop that `levels` replaced, verbatim: n_steps
    steps from e, with `on_level(t, w_t)` observing every level."""
    w = np.zeros(table.size)
    w[0] = 1.0
    if on_level is not None:
        on_level(0, w)
    cols = [float(c) for c in weights]
    for t in range(1, n_steps + 1):
        bound = bound_fn(t) if bound_fn is not None else None
        w = _step(table, w, cols, bound)
        if on_level is not None:
            on_level(t, w)
    return w


def reference_green_field(table, weights, order, r_values):
    rs = list(r_values)
    acc = {r: np.zeros(table.size) for r in rs}
    e_series = []
    last_terms = {r: [] for r in rs}

    def observe(t, w):
        e_series.append(float(w[0]))
        for r in rs:
            acc[r] += (r ** t) * w
            if t >= order - 2:
                last_terms[r].append((r ** t) * w)

    reference_float_levels(table, weights, order, on_level=observe)
    return {"final": acc, "e_series": e_series, "last_terms": last_terms}


def reference_absorbed_profile(table, weights, absorb_ids, horizon):
    absorb_ids = np.asarray(absorb_ids, dtype=np.int64)
    prof = np.zeros((horizon, len(absorb_ids)))
    live_mass = []
    w = np.zeros(table.size)
    w[0] = 1.0
    cols = [float(c) for c in weights]
    for t in range(1, horizon + 1):
        w = _step(table, w, cols, bound=None)
        prof[t - 1] = w[absorb_ids]
        w[absorb_ids] = 0.0
        live_mass.append(float(w.sum()))
    return prof, live_mass


def reference_float_returns(measure, n_max):
    d_mu = max(1, measure.d_mu)
    table = measure.table(((n_max + 1) // 2) * d_mu)
    qs = []
    reference_float_levels(
        table, [float(w) for w in measure.entries.values()], n_max,
        bound_fn=lambda t: None if t <= n_max - t else (n_max - t) * d_mu,
        on_level=lambda t, w: qs.append(float(w[0])),
    )
    return tuple(qs)


def driver_measures():
    """The three configs' measures and a non-symmetric F2 walk."""
    out = []
    for name in ("f2-lazy", "f2-simple", "z2-z3-lazy"):
        cfg = load_config(str(CONFIGS / f"{name}.json"))
        out.append(build_measure(cfg, build_group(cfg), "exact"))
    weights = {"e": 49, "1:(1)": 13, "1:(-1)": 11, "2:(1)": 17, "2:(-1)": 7}
    out.append(measure_from_pairs(free_group(2),
                                  [(g, Fraction(c, 97)) for g, c in weights.items()]))
    return out


@pytest.mark.parametrize("measure", driver_measures(), ids=["f2-lazy", "f2-simple",
                                                            "z2-z3-lazy", "f2-drift"])
def test_level_driver_matches_the_callback_loop(measure):
    """green_field, absorbed_profile and float return_sequence give the
    callback loop's numbers bit for bit."""
    table = measure.table(4 * max(1, measure.d_mu))
    weights = [float(w) for w in measure.entries.values()]
    for order in (1, 2, 9):
        got = green_field(table, measure.entries.values(), order, [0.25, 0.5])
        want = reference_green_field(table, weights, order, [0.25, 0.5])
        assert got["e_series"] == want["e_series"]
        for r in (0.25, 0.5):
            assert np.array_equal(got["final"][r], want["final"][r])
            assert len(got["last_terms"][r]) == len(want["last_terms"][r])
            assert all(np.array_equal(a, b)
                       for a, b in zip(got["last_terms"][r], want["last_terms"][r]))
    for k in range(1, measure.group.num_factors + 1):
        ids = table.subgroup_ids(k)
        prof, live = absorbed_profile(table, measure.entries.values(), ids, 9)
        want_prof, want_live = reference_absorbed_profile(table, weights, ids, 9)
        assert np.array_equal(prof, want_prof) and live == want_live
    fmu = measure.as_float()
    for n_max in (0, 1, 7, 8):
        assert return_sequence(fmu, n_max).values == reference_float_returns(fmu, n_max)


def reference_levels(table, weights, n_steps, bound=None):
    """Full-width levels from e: every step reads the whole table."""
    w = np.zeros(table.size)
    w[0] = 1.0
    out = [w]
    cols = [float(c) for c in weights]
    for t in range(1, n_steps + 1):
        w = _step(table, w, cols, None if bound is None else bound(t))
        out.append(w)
    return out


def prefix_tables():
    """Tables with their weights and d_mu: the three configs, the
    non-symmetric F2 walk, and the Z^3*Z/5*Z and {ab, BA} supports, whose
    ids are not sorted by word length."""
    out = [(measure.table(4 * max(1, measure.d_mu)), list(measure.entries.values()),
            max(1, measure.d_mu)) for measure in driver_measures()]
    for make_group, texts, cap in [(z3_z5_z, Z3_Z5_Z, 4), (free_group, AB_BA, 8)]:
        group = make_group()
        support = _parse(group, texts)
        out.append((BallTable(group, support, cap), [k + 1 for k in range(len(support))],
                    max(group.word_length(g) for g in support)))
    return out


@pytest.mark.parametrize("table,weights,d_mu", prefix_tables(),
                         ids=["f2-lazy", "f2-simple", "z2-z3-lazy", "f2-drift", "z3-z5-z",
                              "ab-BA"])
def test_levels_vanish_beyond_their_bound_and_match_full_width_steps(table, weights, d_mu):
    """Every level is zero from its hi on and equals the full-width loop bit
    for bit, unbounded and under the return bound, at odd n_max too (a
    bounded last step)."""
    n_top = 2 * (table.cap // d_mu)
    runs = [(n_top, None)] + [
        (n_max, lambda t, n_max=n_max: return_bound(t, n_max, d_mu))
        for n_max in range(1, n_top + 1)
    ]
    for n_max, bound in runs:
        n_steps = n_max if bound is None else (n_max + 1) // 2
        want = reference_levels(table, weights, n_steps, bound)
        got = list(levels(table, weights, n_steps, bound))
        assert len(got) == len(want)
        for t, ((w, hi), ref) in enumerate(zip(got, want)):
            assert 0 < hi <= table.size and not w[hi:].any(), (n_max, t, hi)
            assert np.array_equal(w, ref), (n_max, t)


def step_references():
    """(file, enclosing function) of every use of the name `_step` in the
    package source, the definition aside."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope = path, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Name(self, node):
            if node.id == "_step":
                found.append((self.path.name, ".".join(self.scope)))

        def visit_Attribute(self, node):
            if node.attr == "_step":
                found.append((self.path.name, ".".join(self.scope)))
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Visitor(path).visit(ast.parse(path.read_text()))
    return found


def step_calls_in_levels():
    """The calls of `_step` inside `engine.levels`."""
    tree = ast.parse((SRC / "engine.py").read_text())
    driver = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "levels")
    return [node for node in ast.walk(driver) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "_step"]


def test_step_is_called_only_by_the_level_driver():
    """Every DP is a loop over `engine.levels`; no module steps by itself,
    and the driver steps the prefix of each level, w[:hi], not the whole
    table."""
    assert step_references() == [("engine.py", "levels")]
    calls = step_calls_in_levels()
    assert len(calls) == 1
    level = calls[0].args[1]
    assert isinstance(level, ast.Subscript) and isinstance(level.slice, ast.Slice)
    assert level.slice.lower is None and level.slice.upper is not None


# -- the exact oracle ----------------------------------------------------------------


def fraction_levels(measure, n, bound):
    """mu^{*t} for t = 1..n as exact dicts, each pruned to word length <= bound(t)
    (not pruned where bound(t) is None)."""
    grp = measure.group
    cur = {grp.identity: Fraction(1)}
    for t in range(1, n + 1):
        limit = bound(t)
        nxt: dict[GroupElement, Fraction] = {}
        for x, wx in cur.items():
            for s, ws in measure.entries.items():
                y = grp.multiply(x, s)
                if limit is None or grp.word_length(y) <= limit:
                    nxt[y] = nxt.get(y, Fraction(0)) + wx * ws
        cur = nxt
        yield cur


def oracle_returns(measure, n_max):
    """q_0..q_n_max from the return-pruned Fraction dict DP."""
    e = measure.group.identity
    d_mu = max(1, measure.d_mu)
    dicts = fraction_levels(measure, n_max, lambda t: return_bound(t, n_max, d_mu))
    return [Fraction(1)] + [level.get(e, Fraction(0)) for level in dicts]


def oracle_distribution(measure, n, prune_radius):
    """mu^{*n} on the word ball of prune_radius from the Fraction dict DP."""
    d_mu = max(1, measure.d_mu)
    radius = n * d_mu if prune_radius is None else prune_radius
    cur = {measure.group.identity: Fraction(1)}
    for cur in fraction_levels(measure, n, lambda t: min(t * d_mu, radius + (n - t) * d_mu)):
        pass
    return cur


def assert_exact_oracle(measure, n_max_values, dist_n_values):
    """`_dict_power_sequence` and exact `return_sequence` at each n_max, and
    exact `distribution` at each n and prune radius None, 0, 1 and 2, `==`
    the Fraction dict DP.  One oracle run at the largest n_max serves every
    smaller one: return pruning at n_max keeps every q_n with n <= n_max."""
    if n_max_values:
        want = oracle_returns(measure, max(n_max_values))
        for n_max in n_max_values:
            assert _dict_power_sequence(measure, n_max) == want[:n_max + 1], n_max
            assert list(return_sequence(measure, n_max).values) == want[:n_max + 1], n_max
    for n in dist_n_values:
        for radius in (None, 0, 1, 2):
            got = distribution(measure, n, radius)
            assert got == oracle_distribution(measure, n, radius), (n, radius)
            assert all(type(v) is Fraction for v in got.values())


def f2_walk(weights, denom):
    return measure_from_pairs(free_group(2), [(g, Fraction(c, denom)) for g, c in weights.items()])


NS97 = {"e": 49, "1:(1)": 13, "1:(-1)": 11, "2:(1)": 17, "2:(-1)": 7}
# ab and BA are each other's inverses, a's inverse is never reached: most
# inverses leave the table, and the walk is not symmetric
D40 = 2**40
TAIL_OUT = {"1:(1)|2:(1)": 2**37 + 12345, "2:(-1)|1:(-1)": 2**38 - 1, "1:(1)": 2**36 + 1}
TAIL_OUT["e"] = D40 - sum(TAIL_OUT.values())


@pytest.mark.parametrize("name,n_max,dist_n", [
    ("f2-lazy", 10, 6), ("f2-simple", 11, 6), ("z2-z3-lazy", 7, 4)])
def test_exact_paths_match_the_fraction_dict_dp_on_configs(name, n_max, dist_n):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    measure = build_measure(cfg, build_group(cfg), "exact")
    assert_exact_oracle(measure, range(n_max + 1), range(dist_n + 1))


def test_exact_paths_match_the_fraction_dict_dp_beyond_float_capacity():
    """The non-symmetric walk with D = 97 at n_max = 15..18; its distribution
    is in Python ints at every n, checked to n = 6 and at n = 15 on the
    ball of radius 0."""
    measure = f2_walk(NS97, 97)
    assert not exact_capacity(97, (15 + 1) // 2) and not measure.is_symmetric()
    assert_exact_oracle(measure, range(15, 19), range(7))
    assert distribution(measure, 15, 0) == oracle_distribution(measure, 15, 0)


def test_exact_paths_match_the_fraction_dict_dp_where_inverses_leave_the_table():
    measure = f2_walk(TAIL_OUT, D40)
    assert measure.integerized()[1] == D40 and not measure.is_symmetric()
    table = measure.table(6)  # the table of n_max = 5 and 6
    assert (table.inverse_perm() < 0).sum() > table.size // 2
    assert_exact_oracle(measure, range(9), range(5))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_products(), st.booleans(), st.integers(0, 2**32 - 1))
def test_exact_paths_match_the_fraction_dict_dp_on_random_products(case, wide, seed):
    """Counts below 8 keep D <= 28, within float64 capacity at every n_max
    here; counts up to 2^40 on two or more support elements leave it from
    n_max = 1."""
    group, support, _ = case
    rng = np.random.default_rng(seed)
    counts = [int(c) for c in rng.integers(1, 2**40 if wide else 8, len(support))]
    measure = Measure(group, {g: Fraction(c, sum(counts)) for g, c in zip(support, counts)})
    d_mu = max(1, measure.d_mu)
    assert_exact_oracle(measure, [n for n in range(11) if (n + 1) // 2 * d_mu <= 6],
                        [n for n in range(7) if n * d_mu <= 6])


def test_object_levels_hold_python_ints():
    """Python-int weights give levels of Python ints, unbounded and under
    every return bound, and so does their pull-back; within float64
    capacity they equal the float levels."""
    for table, weights, d_mu in prefix_tables():
        denom = math.lcm(*(Fraction(c).denominator for c in weights))
        ints = [int(Fraction(c) * denom) for c in weights]
        n_top = 2 * (table.cap // d_mu)
        runs = [(n_top, None)] + [
            ((n_max + 1) // 2, lambda t, n_max=n_max: return_bound(t, n_max, d_mu))
            for n_max in range(1, n_top + 1)
        ]
        for n_steps, bound in runs:
            got = levels(table, np.array(ints, dtype=object), n_steps, bound)
            want = levels(table, ints, n_steps, bound)
            for t, ((w, hi), (ref, ref_hi)) in enumerate(zip(got, want)):
                assert w.dtype == object and hi == ref_hi
                assert all(type(x) is int for x in w), (t, bound)
                assert all(type(x) is int for x in table.pull_back(w)), (t, bound)
                if exact_capacity(sum(ints), t):
                    assert np.array_equal(w.astype(float), ref), t
