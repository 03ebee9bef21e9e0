"""BallTable against an independent queue-BFS builder, the trie lookups, and
the DP step against the column-by-column bincount kernel."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk import BudgetExceededError, free_group, measure_from_pairs, return_sequence
from freewalk.cli import build_group, build_measure, load_config
from freewalk.engine import BallTable, _step, pair_ids
from freewalk.groups import (
    FINITE_CYCLIC,
    FREE_ABELIAN,
    FactorSpec,
    GroupElement,
    free_product,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    from e and on random weights with zeros."""
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
        for w in levels:
            for bound in [None, *range(table.cap + 1)]:
                want = reference_step(table, w, cols, bound)
                got = _step(table, w, cols, bound)
                assert np.array_equal(got, want), (cols, bound)


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
