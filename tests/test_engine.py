"""BallTable against an independent breadth-first builder and against
itself built in chunks of other sizes, the trie lookups and inversion, the
one step relation each table keeps (its adjacency or its runs), the
generation ends, `reach` and `subgroup_ids` against the reference builder,
both DP step paths against the column-by-column bincount kernel and each
other, the exact pairing against Python big ints, the level driver against
the callback loop it replaced, every exact DP against the Fraction dict DP
it replaced, and the build's memory."""

import ast
import math
import operator
import tracemalloc
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
    lazy_walk,
    measure_from_pairs,
    return_sequence,
)
from freewalk import engine
from freewalk.cli import build_group, build_measure, load_config
from freewalk.engine import (
    _BLOCK,
    TABLE_BYTES_PER_ELEMENT,
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
)
from freewalk.groups import (
    FactorElement,
    FactorSpec,
    GroupElement,
    free_product,
)
from freewalk.measures import _dict_power_sequence

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src" / "freewalk"


def return_bound(t: int, n_max: int, d_mu: int) -> int | None:
    """Word-length bound on level t of a DP that only feeds returns to e by
    step n_max: a state beyond (n_max - t) * d_mu cannot get back in time.
    None (no pruning) while t <= n_max - t, where no state after t steps is
    longer than t * d_mu anyway."""
    return None if t <= n_max - t else (n_max - t) * d_mu


def reference_table(group, support, cap):
    """Breadth-first generations over normal forms, one syllable at a time:
    generation g + 1 is what the support steps from generation g's elements
    discover, numbered by support column, then syllable depth, then source;
    every intermediate product inside the cap is interned when first met.
    Besides the per-id arrays: the generation ends (the element count `top`
    as each generation starts, the last one the size), and per source the
    largest id its steps meet, intermediate products included."""
    ids = {group.identity: 0}
    elems = [group.identity]
    nbr, found, generations = [], [], []
    lo = 0
    while lo < len(elems):
        top = len(elems)
        generations.append(top)
        rows = [[] for _ in range(lo, top)]
        met = [-1] * (top - lo)
        for g in support:
            cur = elems[lo:top]  # each source's partial product, None once beyond the cap
            for syl in g.syllables:
                for i, x in enumerate(cur):
                    if x is None:
                        continue
                    x = group.multiply(x, GroupElement((syl,)))
                    if group.word_length(x) > cap:
                        x = None
                    elif x not in ids:
                        ids[x] = len(elems)
                        elems.append(x)
                    if x is not None:
                        met[i] = max(met[i], ids[x])
                    cur[i] = x
            for row, x in zip(rows, cur):
                row.append(-1 if x is None else ids[x])
        nbr.extend(rows)
        found.extend(met)
        lo = top
    arrays = {
        "nbr": np.array(nbr, dtype=np.int64).reshape(len(elems), len(support)),
        "found": np.array(found, dtype=np.int64),
        "generations": generations,
        "wl": [group.word_length(g) for g in elems],
        "rel": [len(g.syllables) for g in elems],
        "maxfac": [max((group.factor_word_length(*s) for s in g.syllables), default=0)
                   for g in elems],
    }
    return elems, arrays


def reference_nbr(table):
    """The reference step matrix of the table's support and cap: nbr[i, j]
    is the id of element_i * support_j, or -1 beyond the cap.  Its ids are
    the table's, as `assert_matches_reference` checks."""
    return reference_table(table.group, table.support, table.cap)[1]["nbr"]


def prefix_bound(h, per_source):
    """max(h, 1 + the largest of per_source[:h]), -1 entries ignored."""
    return max(h, 1 + int(per_source[:h].max(initial=-1)))


def assert_step_relation_matches(table, elems, ref):
    """The table's one step relation and generations against the
    reference's.  A table that steps by np.add.at keeps only its adjacency:
    each column (d, tail, tgt) holds the dense prefix up to the first
    product that leaves the table, the remaining sources and all targets in
    order.  A table that steps by runs keeps only its runs, and its (src,
    tgt) columns, derived from them, are the reference's.  The identity
    column, first when e is support element 0, is not stored.  On either
    kind the generation ends are the reference's; reach(h) is at least
    max(h, 1 + the largest target of a source below h) at every h, and at a
    generation end it is the next one, 1 + the largest id that the steps
    from below h meet: their targets, and on a multi-syllable support their
    intermediate products too, which can end a generation.  subgroup_ids(k)
    are the ids of e and of the one-syllable elements of H_k."""
    nbr = ref["nbr"]
    first = table._first()
    assert first == (len(table.support) > 0 and not table.support[0].syllables)
    if first:
        assert np.array_equal(nbr[:, 0], np.arange(table.size))
    if table.runs is not None:
        assert table.adjacency is None
        assert_runs_match_reference(table, nbr)
        assert_columns_match_reference(table, nbr)
    else:
        adj = table.adjacency
        assert len(adj) == nbr.shape[1] - first
        for (d, tail, tgt), col in zip(adj, nbr.T[first:]):
            out = np.flatnonzero(col < 0)
            assert d == (out[0] if len(out) else table.size)
            src = np.flatnonzero(col >= 0)
            assert tail.dtype == tgt.dtype == np.int64
            assert np.array_equal(tail, src[src >= d]) and np.array_equal(tgt, col[src])
    assert table.generations == ref["generations"]
    targets = nbr.max(axis=1, initial=-1)
    for h in range(table.size + 1):
        assert table.reach(h) >= prefix_bound(h, targets), h
    for h in [0] + table.generations:
        assert table.reach(h) == prefix_bound(h, ref["found"]), h
        if all(len(g.syllables) <= 1 for g in table.support):
            assert table.reach(h) == prefix_bound(h, targets), h
    for k in range(1, table.group.num_factors + 1):
        got = table.subgroup_ids(k)
        assert got.dtype == np.int32
        assert got.tolist() == [i for i, g in enumerate(elems) if len(g.syllables) <= 1
                                and all(s.factor == k for s in g.syllables)], k


def assert_matches_reference(group, support, cap):
    table = BallTable(group, support, cap)
    elems, ref = reference_table(group, support, cap)
    assert table.size == len(elems)
    for name in ("wl", "rel", "maxfac"):
        np.testing.assert_array_equal(getattr(table, name), ref[name], err_msg=name)
    for name in ("parent", "code"):  # trimmed to the table after the build's headroom
        assert len(getattr(table, name)) == table.size, name
    for t in [table] + both_paths(table):
        assert_step_relation_matches(t, elems, ref)
    assert [table.element_of(i) for i in range(table.size)] == elems
    assert table.ids_of(elems).tolist() == list(range(table.size))
    return table, elems


def _parse(group, texts):
    return [group.parse(t) for t in texts]


def z3_z5_z():
    return free_product(FactorSpec((0, 0, 0)), FactorSpec((5,)),
                        FactorSpec((0,)))


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


def growth_series_spheres(group, cap):
    """|S_n|, n = 0..cap, of the word metric from the factors' sphere sizes
    (counted from `factor_elements`) by 1/S - 1 = sum_k (1/S_k - 1), the
    growth series of a free product (de la Harpe, ch. VI)."""
    def inverse(series):  # of an integer power series with constant term 1
        inv = [1] + [0] * cap
        for n in range(1, cap + 1):
            inv[n] = -sum(series[j] * inv[n - j] for j in range(1, n + 1))
        return inv

    reciprocal = [1] + [0] * cap
    for k in range(1, group.num_factors + 1):
        ball = [1 + len(group.factor_elements(k, n)) for n in range(cap + 1)]
        inv = inverse([1] + [b - a for a, b in zip(ball, ball[1:])])
        reciprocal = [r + i for r, i in zip(reciprocal, [0] + inv[1:])]
    return inverse(reciprocal)


MIXED = {"z-z2--z3": ((0, 2), (3,)), "z2^2--z3": ((2, 2), (3,))}


@pytest.mark.parametrize("name", ["f2-lazy", "f2-simple", "z2-z3-lazy", *MIXED])
def test_ball_sizes_equal_the_growth_series(name):
    if name in MIXED:
        group = free_product(*(FactorSpec(moduli) for moduli in MIXED[name]))
    else:
        group = build_group(load_config(str(CONFIGS / f"{name}.json")))
    support = list(lazy_walk(group).entries)
    spheres = growth_series_spheres(group, 8)
    for cap in (0, 1, 2, 4, 6, 8):
        assert BallTable(group, support, cap).size == sum(spheres[:cap + 1]), cap


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
            st.builds(lambda d: FactorSpec((0,) * d), st.integers(1, 2)),
            st.builds(lambda m: FactorSpec((m,)), st.integers(2, 5)),
            st.sampled_from([FactorSpec((0, 2)), FactorSpec((2, 2)), FactorSpec((3, 0))]),
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
    assert inv.tolist() == table.ids_of([group.inverse(g) for g in elems]).tolist()
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
    want = table.ids_of([group.inverse(table.element_of(i)) for i in range(table.size)])
    assert inv.tolist() == want.tolist()
    assert (want < 0).any() == leaves  # whether some inverses leave the table


def test_inverse_perm_where_a_tail_leaves_the_table_but_the_inverse_stays():
    group = free_group(2)
    table = BallTable(group, _parse(group, AB_BA), 8)
    inv = table.inverse_perm()
    elems = [table.element_of(i) for i in range(table.size)]
    ids = table.ids_of([group.inverse(g) for g in elems]
                       + [GroupElement(g.syllables[1:]) for g in elems]).tolist()
    want, tails = ids[:table.size], ids[table.size:]
    assert inv.tolist() == want
    assert any(len(g.syllables) > 1 and t < 0 and j >= 0
               for g, t, j in zip(elems, tails, want))  # tail out, inverse in


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
    invs = [group.inverse(a) for a in elems]
    ids = table.ids_of(invs + [group.multiply(ainv, b) for ainv in invs for b in elems])
    n = len(elems)
    assert pair.tolist() == ids[n:].reshape(n, n).tolist()
    assert (ids[:n] < 0).any()  # some rows start outside the table


def test_pair_ids_need_a_prefix_closed_list():
    group = free_group(2)
    table = BallTable(group, _parse(group, ["1:(1)", "1:(-1)"]), 3)
    with pytest.raises(ValueError):
        pair_ids(table, [group.identity, group.parse("1:(1)|2:(1)")])


# -- merge rows and pair ids against the per-slot oracle -----------------------------


def merge_row(group, codes, slots, y):
    """The per-slot merge row that `_merge_rows` replaced: one `factor_add`
    per slot of y's factor."""
    row = np.full(len(slots), engine._OUT, dtype=np.int32)
    for c, a in enumerate(slots):
        if a is not None and a.factor == y.factor:
            total = group.factor_add(y.factor, a.coords, y.coords)
            row[c] = codes.get(FactorElement(y.factor, total), engine._OUT) if any(total) \
                else engine._ZERO
    return row


def child_at(table, i, c):
    """The scalar trie lookup that `BallTable.walk` replaced, verbatim:
    codes outside the alphabet give -1."""
    if not 0 <= c < table._stride - 1:
        return -1
    key = i * table._stride + c
    at = int(table._keys.searchsorted(key))
    return int(table._kid[at]) if at < len(table._keys) and table._keys[at] == key else -1


def oracle_id_of(table, g):
    """The scalar `id_of` that `BallTable.ids_of` replaced: one `child_at`
    per syllable."""
    i = 0
    for s in g.syllables:
        i = child_at(table, i, table._code.get(s, -1))
        if i < 0:
            return None
    return i


def oracle_pair_ids(table, elems):
    """pair_ids as it was: one `merge_row` per last syllable, one column at
    a time in order of syllable count."""
    size, group = table.size, table.group
    index = {g.syllables: j for j, g in enumerate(elems)}
    slots = list(table.syllables) + [None]
    codes = dict(table._code)
    extra = {}
    pair = np.full((len(elems), len(elems)), -1, dtype=np.int64)
    for i, g in enumerate(elems):
        node = 0
        for s in group.inverse(g).syllables:
            c = codes.setdefault(s, len(slots))
            if c == len(slots):
                slots.append(s)
            child = child_at(table, node, c)
            node = child if child >= 0 else extra.setdefault((node, c), size + len(extra))
        pair[i, index[()]] = node
    extra_parent, extra_code = np.array(list(extra), dtype=np.int64).reshape(-1, 2).T
    slot_fac = np.array([0 if s is None else s.factor for s in slots], dtype=np.int64)
    merge_rows = {}
    for j in sorted(range(len(elems)), key=lambda j: len(elems[j].syllables)):
        syls = elems[j].syllables
        if not syls:
            continue
        y = syls[-1]
        row = merge_rows.get(y)
        if row is None:
            row = merge_rows[y] = merge_row(group, table._code, slots, y)
        v = pair[:, index[syls[:-1]]]
        ok = v >= 0
        ext = v >= size
        at = np.where(ok & ~ext, v, 0)
        last = table.code[at].astype(np.int64)
        up = table.parent[at].astype(np.int64)
        last[ext] = extra_code[v[ext] - size]
        up[ext] = extra_parent[v[ext] - size]
        merge = ok & (slot_fac[last] == y.factor)
        m = row[last]
        base = np.where(merge, up, v)
        c = np.where(merge, m, table._code.get(y, -1))
        col = np.where(merge & (m == engine._ZERO), up, -1)
        look = ok & (c >= 0) & (base >= 0) & (base < size)
        col[look] = table._child(base[look], c[look])
        pair[:, j] = col
    pair[pair >= size] = -1
    return pair


def pair_slots(table, elems):
    """The slots pair_ids merges over: the table alphabet, the empty code,
    then the syllables of the inverses that the alphabet lacks."""
    slots = list(table.syllables) + [None]
    for g in elems:
        for s in table.group.inverse(g).syllables:
            if s not in table._code and s not in slots:
                slots.append(s)
    return slots


def assert_pair_ids_match_oracle(table, elems):
    """`_merge_rows` over pair_ids' slots, for the table alphabet, the
    inverses' extra syllables, the support's and the list's last syllables,
    row by row `==` the per-slot oracle, and pair_ids `==` the oracle's.
    Returns the number of extra slots."""
    slots = pair_slots(table, elems)
    ys = list(dict.fromkeys(
        [s for s in slots if s is not None] + [s for g in table.support for s in g.syllables]
        + [g.syllables[-1] for g in elems if g.syllables]))
    rows = engine._merge_rows(table.group, table._code, slots, ys)
    assert rows.dtype == np.int32 and rows.shape == (len(ys), len(slots))
    for y, row in zip(ys, rows):
        assert np.array_equal(row, merge_row(table.group, table._code, slots, y)), y
    assert np.array_equal(pair_ids(table, elems), oracle_pair_ids(table, elems))
    return len(slots) - len(table.syllables) - 1


@pytest.mark.parametrize("name,cap,ball", [
    ("f2-lazy", 5, (2, 6)), ("f2-simple", 5, (2, 7)), ("z2-z3-lazy", 4, (2, 5)),
])
def test_pair_ids_match_the_per_slot_oracle_on_configs(name, cap, ball):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    group = build_group(cfg)
    table = BallTable(group, list(build_measure(cfg, group, "exact").entries), cap)
    # the ball's syllables reach past the cap: their inverses are extra slots
    assert assert_pair_ids_match_oracle(table, list(group.enumerate_ball(*ball))) > 0


@pytest.mark.parametrize("make_group,texts,cap,ball", [
    (free_group, ODD_F2, 9, (2, 3)),
    (z3_z5_z, Z3_Z5_Z, 4, (2, 1)),
    (free_group, MULTI_F2, 6, (3, 2)),
])
def test_pair_ids_match_the_per_slot_oracle_on_multi_syllable_supports(make_group, texts,
                                                                       cap, ball):
    group = make_group()
    table = BallTable(group, _parse(group, texts), cap)
    assert_pair_ids_match_oracle(table, list(group.enumerate_ball(*ball)))


def test_pair_ids_match_the_per_slot_oracle_over_several_blocks():
    group = free_group(2)
    table = BallTable(group, list(lazy_walk(group).entries), 6)
    elems = list(group.enumerate_ball(3, 3))  # 517 rows, 432 columns at depth 3
    assert len(elems) * 432 > 3 * _BLOCK
    assert_pair_ids_match_oracle(table, elems)


def test_pair_ids_temporaries_stay_within_blocks():
    """On the (3, 4)-ball of F2 (1,169 elements, 1,024 columns at depth 3)
    pair_ids needs, beyond its pair matrix, less than 24 blocks of _BLOCK
    int64 cells: whole-depth temporaries would take over 100 MB."""
    group = free_group(2)
    table = BallTable(group, list(lazy_walk(group).entries), 8)
    elems = list(group.enumerate_ball(3, 4))
    tracemalloc.start()
    try:
        pair = pair_ids(table, elems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(elems) == 1169
    assert peak - pair.nbytes < 24 * _BLOCK * 8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_products(), st.sampled_from([(1, 1), (1, 3), (2, 1), (2, 2), (3, 1)]),
       st.integers(1, 40))
def test_pair_ids_match_the_per_slot_oracle_on_random_products(case, ball, block):
    group, support, cap = case
    table = BallTable(group, support, cap)
    elems = list(group.enumerate_ball(*ball))
    assert_pair_ids_match_oracle(table, elems)
    with pytest.MonkeyPatch.context() as mp:  # blocks of a few cells: one column each
        mp.setattr(engine, "_BLOCK", block)
        assert np.array_equal(pair_ids(table, elems), oracle_pair_ids(table, elems))


def test_pair_ids_pop_back_into_the_table_through_extra_ids():
    """A non-symmetric multi-syllable support whose table lacks most
    inverses: those rows start on extra ids, and their diagonal g^-1 g = e
    pops back through them into the table."""
    group = free_group(2)
    table = BallTable(group, _parse(group, AB_BA + ["1:(1)"]), 6)
    elems = list(group.enumerate_ball(3, 2))
    pair = pair_ids(table, elems)
    assert np.array_equal(pair, oracle_pair_ids(table, elems))
    out = [i for i, g in enumerate(elems) if oracle_id_of(table, group.inverse(g)) is None]
    assert len(out) > len(elems) // 2
    assert (pair[out, out] == 0).all()


# -- the trie walk against the scalar oracle -------------------------------------------


def assert_walk_matches_oracle(table, elems):
    """`ids_of` and `id_of` `==` the scalar walk on every element, and the
    walk's virtual ids name the elements outside the table: one id per
    distinct row of codes, whose chain of extra (parent, code) rows spells
    that row.  Returns the numbers of elements outside the table and of
    syllables outside the alphabet."""
    want = [oracle_id_of(table, g) for g in elems]
    assert table.ids_of(elems).tolist() == [-1 if i is None else i for i in want]
    assert [table.id_of(g) for g in elems] == want
    rows = [tuple(table._code.get(s, -1) for s in g.syllables) for g in elems]
    ids, extra = table.walk(engine._padded(rows, len(table.syllables)))
    for row, i in zip(rows, ids.tolist()):
        spelled = []
        while i >= table.size:
            i, c = extra[i - table.size].tolist()
            spelled.append(c)
        while i > 0:
            spelled.append(int(table.code[i]))
            i = int(table.parent[i])
        assert tuple(reversed(spelled)) == row
    assert len(set(zip(rows, ids.tolist()))) == len(set(rows)) == len(set(ids.tolist()))
    return sum(i is None for i in want), sum(-1 in row for row in rows)


@pytest.mark.parametrize("name,cap,ball", [
    ("f2-lazy", 5, (3, 7)), ("f2-simple", 5, (3, 7)), ("z2-z3-lazy", 4, (3, 5)),
])
def test_ids_of_matches_the_scalar_walk_on_configs(name, cap, ball):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    group = build_group(cfg)
    table = BallTable(group, list(build_measure(cfg, group, "exact").entries), cap)
    elems = [table.element_of(i) for i in range(table.size)]
    elems += [group.inverse(g) for g in elems] + list(group.enumerate_ball(*ball))
    outside, foreign = assert_walk_matches_oracle(table, elems)
    assert outside > 0 and foreign > 0  # beyond the cap, and past the alphabet


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_products(), st.data())
def test_ids_of_matches_the_scalar_walk_on_random_products(case, data):
    """Table elements, their inverses and their products with drawn
    elements whose coordinates reach past the support's and the cap."""
    group, support, cap = case
    table = BallTable(group, support, cap)
    specs = group.factors
    raw_syllable = st.integers(1, len(specs)).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(-7, 7), min_size=specs[k - 1].dim,
                                                max_size=specs[k - 1].dim)))
    drawn = data.draw(st.lists(st.lists(raw_syllable, max_size=4).map(group.element),
                               min_size=1, max_size=12))
    elems = [table.element_of(i) for i in range(min(table.size, 200))]
    elems += [group.inverse(g) for g in elems] + drawn
    elems += [group.multiply(g, h) for g in elems[:20] for h in drawn]
    assert_walk_matches_oracle(table, elems)


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


# -- builder passes ----------------------------------------------------------------

TABLE_ARRAYS = ("parent", "code", "wl", "rel", "maxfac", "_keys", "_kid")


def build_in_passes(group, support, cap, cells, max_elements=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_PASS", cells)
        return BallTable(group, support, cap, max_elements)


def refuses(group, support, cap, cells, budget):
    try:
        build_in_passes(group, support, cap, cells, budget)
    except BudgetExceededError:
        return True
    return False


def assert_key_index(table):
    """The trie's key index: keys strictly increasing, each the
    parent * stride + code of its id, and every id but e's once."""
    keys, kid = table._keys, table._kid
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(keys, table.parent[kid].astype(np.int64) * table._stride
                          + table.code[kid])
    assert np.array_equal(np.sort(kid), np.arange(1, table.size))


def step_relation(table):
    """The one step relation the table keeps, comparable by ==: its runs,
    or its adjacency as (d, tail, tgt) with each array's dtype."""
    if table.runs is not None:
        assert table.adjacency is None
        return "runs", table.runs
    return "add.at", [(d, tail.dtype, tail.tolist(), tgt.dtype, tgt.tolist())
                      for d, tail, tgt in table.adjacency]


def assert_pass_size_free(group, support, cap):
    """Passes of 1, 3 and 64 cells build the default table array for array,
    and the same runs or adjacency on either forced step path, and, like it,
    refuse exactly the budgets below its size; every one keeps a sound key
    index."""
    base = BallTable(group, support, cap)
    assert_key_index(base)
    relations = [step_relation(t) for t in both_paths(base)]
    budgets = (base.size, base.size - 1, base.size // 2, 1, 0)
    want = [b < base.size for b in budgets]
    for cells in (1, 3, 64):
        table = build_in_passes(group, support, cap, cells)
        assert table.size == base.size
        assert_key_index(table)
        for name in TABLE_ARRAYS:
            got, ref = getattr(table, name), getattr(base, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (cells, name)
        for path, ref in zip(("runs", "add.at"), relations):
            got = on_path(path, lambda: build_in_passes(group, support, cap, cells))
            assert step_relation(got) == ref, (cells, path)
        assert [refuses(group, support, cap, cells, b) for b in budgets] == want, cells


@pytest.mark.parametrize("name,cap", [("f2-lazy", 5), ("f2-simple", 5), ("z2-z3-lazy", 4)])
def test_pass_size_leaves_the_table_unchanged_on_configs(name, cap):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    group = build_group(cfg)
    assert_pass_size_free(group, list(build_measure(cfg, group, "exact").entries), cap)


@pytest.mark.parametrize("make_group,texts,cap", [
    (free_group, MULTI_F2, 5),
    (free_group, ODD_F2, 9),
    (z3_z5_z, Z3_Z5_Z, 3),
    (free_group, AB_BA, 6),
])
def test_pass_size_leaves_the_table_unchanged_on_multi_syllable_supports(make_group, texts,
                                                                        cap):
    group = make_group()
    assert_pass_size_free(group, _parse(group, texts), cap)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_products())
def test_pass_size_leaves_the_table_unchanged_on_random_products(case):
    assert_pass_size_free(*case)


def traced(measure, cap):
    """tracemalloc over a build of the measure's table at the cap and one
    unbounded float step from a table-sized level: (table, build peak,
    retained after the build, peak over both, retained after the step)."""
    cols = [float(c) for c in measure.entries.values()]
    tracemalloc.start()
    try:
        table = BallTable(measure.group, list(measure.entries), cap)
        retained, build_peak = tracemalloc.get_traced_memory()
        _step(table, np.ones(table.size), cols, None)
        kept, step_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return table, build_peak, retained, max(build_peak, step_peak), kept


@pytest.fixture(scope="module")
def lazy_f2_cap12_memory():
    table, *sizes = traced(lazy_walk(free_group(2)), 12)
    assert table.runs is not None
    return table.size, table.nbytes, *sizes


def test_build_transient_stays_small(lazy_f2_cap12_memory):
    """The cap-12 build's temporaries: peak minus what the table keeps
    (23.9 MB measured, at an interning chunk of 2^17 cells; 30.8 MB with
    chunks of 2^18 cells; 14.8 MB when the table also kept its adjacency
    and the peak came at the key index's last merge, beside the four
    neighbour arrays; 29 MB when one (M x K) neighbour matrix lived until
    the adjacency was whole, 100 MB when passes were 2^18 sources)."""
    size, _, build_peak, retained, _, _ = lazy_f2_cap12_memory
    assert size > 10**6
    assert build_peak - retained < 32e6


def test_table_bytes_per_element_is_the_measured_peak(lazy_f2_cap12_memory):
    """TABLE_BYTES_PER_ELEMENT is the largest measured peak per element of
    a build and one float step, rounded up, over three tables: lazy F2 at
    cap 12 (runs; 54.5 B measured), Z^2*Z/3 at cap 9 (runs, six support
    columns; 70.5 B) and the d_mu = 2 walk at cap 14 (np.add.at; 75.9 B)."""
    size, _, _, _, peak, _ = lazy_f2_cap12_memory
    peaks = [peak / size]
    cfg = load_config(str(CONFIGS / "z2-z3-lazy.json"))
    for measure, cap, path in [(build_measure(cfg, build_group(cfg), "exact"), 9, "runs"),
                               (f2_walk(LONG_STEPS, 8), 14, "add.at")]:
        table, _, _, peak, _ = traced(measure, cap)
        assert (table.runs is not None) == (path == "runs"), cap
        peaks.append(peak / table.size)
    assert TABLE_BYTES_PER_ELEMENT - 10 < max(peaks) <= TABLE_BYTES_PER_ELEMENT, peaks


def test_table_keeps_one_step_relation(lazy_f2_cap12_memory):
    """After its build and a step, the cap-12 table keeps its per-id arrays
    (20 B per element), trie keys (12 B) and a few hundred run pieces, and
    nothing per edge: 32.0 B per element measured, as `nbytes` counts it.
    The compact adjacency kept beside the runs would add 20 B."""
    size, nbytes, _, _, _, kept = lazy_f2_cap12_memory
    assert kept / size < 36
    assert abs(kept - nbytes) < 0.1 * size


# -- the DP step -------------------------------------------------------------------


def reference_step(table, nbr, w, col_weights, bound):
    """The column-by-column bincount kernel over the reference step matrix:
    full steps add one bincount per support column; bounded steps scatter
    only the live sources' edges to targets within the bound."""
    if bound is not None and bound >= table.cap:
        bound = None
    nw = np.zeros(table.size)
    if bound is None:
        for (src, tgt), cj in zip(reference_columns(nbr), col_weights):
            if cj == 0:
                continue
            nw += np.bincount(tgt, weights=w[src] * cj, minlength=table.size)
        return nw
    live = np.nonzero(w)[0]
    for j, cj in enumerate(col_weights):
        if cj == 0:
            continue
        tgt = nbr[live, j]
        ok = tgt >= 0
        ok &= table.wl[np.where(ok, tgt, 0)] <= bound
        nw += np.bincount(tgt[ok], weights=w[live[ok]] * cj, minlength=table.size)
    return nw


def reference_columns(nbr):
    """Per-support (src, tgt) of the reference step matrix's edges that stay
    in the table, int64, sources ascending."""
    out = []
    for tgt in nbr.T:
        ok = tgt >= 0
        out.append((np.nonzero(ok)[0].astype(np.int64), tgt[ok].astype(np.int64)))
    return out


def assert_columns_match_reference(table, nbr):
    cols = table.columns()
    want = reference_columns(nbr)
    assert len(cols) == len(want)
    for (src, tgt), (ref_src, ref_tgt) in zip(cols, want):
        assert src.dtype == tgt.dtype == np.int64
        assert np.array_equal(src, ref_src) and np.array_equal(tgt, ref_tgt)


def on_path(path, make):
    """What make() returns, every table it builds stepping by `path`,
    "runs" or "add.at", whatever the runs of its columns average."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_RUN_EDGES", 1 if path == "runs" else 1 << 62)
        return make()


def both_paths(table):
    """The table built again once per step path, runs first."""
    return [on_path(path, lambda: BallTable(table.group, table.support, table.cap))
            for path in ("runs", "add.at")]


def assert_step_matches_reference(table, weight_sets=()):
    """_step equals the reference bit for bit on either step path, for
    every bound 0..cap and None, with the given column weights and four
    random sets, on DP levels from e and on random weights with zeros;
    given only the prefix [0, hi) of a level that is zero from hi on, it
    returns the same table-sized level, zero from reach(hi) on.  Its
    (src, tgt) columns are the reference step matrix's."""
    nbr = reference_nbr(table)
    assert_columns_match_reference(table, nbr)
    tables = both_paths(table)
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
            w = reference_step(table, nbr, w, cols, None)
        levels.append(rng.random(table.size) * (rng.random(table.size) < 0.5))
        cut = levels[-1].copy()
        cut[table.size // 3:] = 0.0
        levels.append(cut)
        for w in levels:
            hi = int(np.flatnonzero(w).max(initial=-1)) + 1
            for bound in [None, *range(table.cap + 1)]:
                want = reference_step(table, nbr, w, cols, bound)
                for t in tables:
                    got = _step(t, w, cols, bound)
                    assert np.array_equal(got, want), (cols, bound)
                    assert np.array_equal(_step(t, w[:hi], cols, bound), got), (cols, bound, hi)
                    assert not got[t.reach(hi):].any(), (cols, bound, hi)


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
    for b in bs:
        assert _exact_dots(a, b) == big_int_dot(a, b)


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
    assert _exact_dots(a, np.zeros(10)) == 0
    assert _exact_dots(np.zeros(10), np.full(10, 2.0**40)) == 0


def test_exact_dot_over_four_limbs_and_more():
    rng = np.random.default_rng(7)
    n = 3 * _BLOCK + 5
    a = rng.integers(2**52, 2**53, n).astype(np.float64)
    b = split_sum(rng, n, 2**40)  # 41-bit sum: 12-bit limbs, five of them
    assert -(-53 // (53 - (2**40).bit_length())) >= 4
    assert_exact_dots(a, [b])


def test_exact_dot_refuses_a_sum_at_2_to_53():
    with pytest.raises(OverflowError):
        _exact_dots(np.ones(2), np.array([2.0**52, 2.0**52]))


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
    got = pruned_power_sequence(table, ints, n_max, symmetric)
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
    w = np.zeros(table.size)
    w[0] = 1.0
    cols = [float(c) for c in weights]
    for t in range(1, horizon + 1):
        w = _step(table, w, cols, bound=None)
        prof[t - 1] = w[absorb_ids]
        w[absorb_ids] = 0.0
    return prof


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
            terms = [(r ** t) * w for t, w in got["last_levels"]]  # as field_tails forms them
            assert len(terms) == len(want["last_terms"][r])
            assert all(np.array_equal(a, b) for a, b in zip(terms, want["last_terms"][r]))
    for k in range(1, measure.group.num_factors + 1):
        ids = table.subgroup_ids(k)
        prof = absorbed_profile(table, measure.entries.values(), ids, 9)
        assert np.array_equal(prof, reference_absorbed_profile(table, weights, ids, 9))
    fmu = measure.as_float()
    for n_max in (0, 1, 7, 8):
        assert return_sequence(fmu, n_max).values == reference_float_returns(fmu, n_max)


def test_green_field_keeps_each_level_once():
    """A field over three r keeps its three accumulators and its last three
    levels, shared by every r: six table-sized arrays, not one copy of the
    last levels per r (twelve); on either step path."""
    for path, order in [("add.at", 9), ("runs", 12)]:
        measure = driver_measures()[0]
        table = on_path(path, lambda: measure.table(10))
        assert (table.runs is not None) == (path == "runs")
        green_field(table, measure.entries.values(), order, [0.25])  # warm every table cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            field = green_field(table, measure.entries.values(), order, [0.25, 0.5, 0.75])
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(field["last_levels"]) == 3
        assert kept <= 6.5 * 8 * table.size, path


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
    for n_max, horizon in [(n_top, None)] + [(n, n) for n in range(1, n_top + 1)]:
        n_steps = n_max if horizon is None else (n_max + 1) // 2
        bound = None if horizon is None else lambda t: return_bound(t, horizon, d_mu)
        want = reference_levels(table, weights, n_steps, bound)
        got = list(levels(table, weights, n_steps, horizon=horizon))
        assert len(got) == len(want)
        for t, ((w, hi), ref) in enumerate(zip(got, want)):
            assert 0 < hi <= table.size and not w[hi:].any(), (n_max, t, hi)
            assert np.array_equal(w, ref), (n_max, t)


@pytest.mark.parametrize("table,weights,d_mu", prefix_tables(),
                         ids=["f2-lazy", "f2-simple", "z2-z3-lazy", "f2-drift", "z3-z5-z",
                              "ab-BA"])
def test_columns_match_the_nbr_construction(table, weights, d_mu):
    assert_columns_match_reference(table, reference_nbr(table))


def test_no_dp_builds_the_columns(monkeypatch):
    """The DPs step through the runs or the compact adjacency alone, on
    either step path; `columns()` is never built by them."""
    def refuse(table):
        raise AssertionError("a DP built the (src, tgt) columns")

    def every_dp():
        for measure in driver_measures():
            d_mu = max(1, measure.d_mu)
            return_sequence(measure, 18)  # beyond float64 capacity for the /97 walk
            return_sequence(measure, 8)
            return_sequence(measure.as_float(), 8)
            distribution(measure, 4)
            table = measure.table(4 * d_mu)
            green_field(table, measure.entries.values(), 9, [0.25, 0.5])
            absorbed_profile(table, measure.entries.values(), table.subgroup_ids(1), 9)
            yield table

    monkeypatch.setattr(BallTable, "columns", refuse)
    for path in ("runs", "add.at"):
        tables = on_path(path, lambda: list(every_dp()))
        assert all((t.runs is not None) == (path == "runs") for t in tables), path


def references(*names, attributes_only=False):
    """(file, enclosing function) of every use of the given names in the
    package source, as an attribute and, unless attributes_only, as a
    name; definitions aside."""
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
            if node.id in names and not attributes_only:
                found.append((self.path.name, ".".join(self.scope)))

        def visit_Attribute(self, node):
            if node.attr in names:
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
    assert references("_step") == [("engine.py", "levels")]
    calls = step_calls_in_levels()
    assert len(calls) == 1
    level = calls[0].args[1]
    assert isinstance(level, ast.Subscript) and isinstance(level.slice, ast.Slice)
    assert level.slice.lower is None and level.slice.upper is not None



def called_in(module, name):
    """Names of the functions and methods that the function or method `name`
    of src module `module` calls."""
    tree = ast.parse((SRC / module).read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))}


def test_pset_step_stays_on_syllables():
    """The automaton's P-set step and its offsets never multiply, invert or
    normalize group elements: they work on syllable tuples."""
    for name in ("pset_transition", "offsets"):
        called = called_in("automaton.py", name)
        assert called and not called & {"multiply", "inverse", "normalize"}, name


def test_element_lookups_are_one_trie_walk():
    """Every element -> id lookup in src goes through `BallTable.walk`: no
    scalar trie lookup or private inverse walk exists, `pair_ids` inverts
    no element, `inverse_perm` spells the inverses its tails miss by
    `walk`, and the callers that look up many elements call `ids_of` once,
    not `id_of` per element."""
    for module, _, name in src_nodes():
        assert name not in {"_child_at", "_walk_inverse"}, module
    assert "walk" in called_in("engine.py", "pair_ids")
    assert not called_in("engine.py", "pair_ids") & {"inverse", "id_of", "ids_of"}
    assert "walk" in called_in("engine.py", "inverse_perm")
    for module, name in (("green.py", "_target_series"), ("green.py", "_pair_matrix_ids"),
                         ("ancona.py", "_locate")):
        called = called_in(module, name)
        assert "ids_of" in called and "id_of" not in called, name


def test_pair_matrices_come_from_one_cache():
    """Outside engine.py only green's `_pair_matrix_ids` calls `pair_ids`:
    every pair matrix, of green's spatial sums and of parabolic's Green
    moments alike, is built there and cached per budgets."""
    uses = {(module, scope) for module, scope in references("pair_ids")
            if module != "engine.py"}
    assert uses == {("green.py", "_pair_matrix_ids.compute")}

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
    is in float64 to n = 7 and in Python ints beyond, checked to n = 6 and at
    n = 15 on the ball of radius 0."""
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


# {e: 1/2, ab, BA, a^2, B: 1/8 each}: non-symmetric, d_mu = 2
LONG_STEPS = {"e": 4, "1:(1)|2:(1)": 1, "2:(-1)|1:(-1)": 1, "1:(2)": 1, "2:(-1)": 1}


@pytest.mark.parametrize("weights,denom,n,dtype", [
    (LONG_STEPS, 8, 4, float), (NS97, 97, 7, float), (NS97, 97, 8, object),
    (TAIL_OUT, D40, 3, object),
])
def test_exact_distribution_runs_float64_levels_within_capacity(monkeypatch, weights, denom,
                                                                n, dtype):
    """Exact `distribution` takes the number type of its levels from
    `engine.integer_weights`, as the exact pairing does: float64 within
    `exact_capacity` of its n steps, Python ints beyond; both `==` the
    Fraction dict DP."""
    seen = set()
    real = engine.levels

    def spy(*args, **kwargs):
        for w, hi in real(*args, **kwargs):
            seen.add(w.dtype)
            yield w, hi

    monkeypatch.setattr(engine, "levels", spy)
    measure = f2_walk(weights, denom)
    assert exact_capacity(denom, n) == (dtype is float)
    for radius in (None, 1):
        got = distribution(measure, n, radius)
        assert got == oracle_distribution(measure, n, radius)
        assert all(type(v) is Fraction for v in got.values())
    assert seen == {np.dtype(dtype)}


def test_reach_cap_is_the_largest_level_bound():
    for d_mu in (1, 2, 3):
        for n in range(12):
            assert engine.reach_cap(n, d_mu) == (n // 2) * d_mu
            for radius in range(n * d_mu, n * d_mu + 3):  # every level unpruned
                assert engine.reach_cap(n, d_mu, radius) == n * d_mu
            assert engine.reach_cap(n, d_mu, -n * d_mu - 1) == 0


@pytest.mark.parametrize("weights,denom", [(None, None), (NS97, 97), (LONG_STEPS, 8)],
                         ids=["f2-lazy", "f2-drift", "long-steps"])
def test_odd_n_max_builds_only_the_reach_cap_table(weights, denom):
    """return_sequence at odd n_max memoizes only the (n_max // 2) * d_mu
    table, one d_mu below the cap the returns were computed on before, and
    its q_n are `==` those of the same DP on that larger table, exact and
    float."""
    for n_max in (1, 3, 5, 7, 9):
        for exact in (True, False):
            measure = lazy_walk(free_group(2)) if weights is None else f2_walk(weights, denom)
            measure = measure if exact else measure.as_float()
            d_mu = measure.d_mu
            seq = return_sequence(measure, n_max)
            cap = (n_max // 2) * d_mu
            assert [k for k in measure._memo if k[0] == "table"] == [("table", cap)]
            assert seq.pruned_radius == cap
            old = BallTable(measure.group, measure.support, cap + d_mu)
            if exact:
                ints, D = measure.integerized()
                nums = pruned_power_sequence(old, ints, n_max, measure.is_symmetric())
                want = [Fraction(q, D**n) for n, q in enumerate(nums)]
            else:
                want = [float(w[0]) for w, _ in
                        levels(old, measure.entries.values(), n_max, horizon=n_max)]
            assert list(seq.values) == want, (n_max, exact)


def test_distribution_hands_no_bound_where_it_cannot_bite(monkeypatch):
    """With prune_radius None or >= n * d_mu no level is pruned: `_step`
    gets no bound, and the values stay the Fraction dict DP's; a radius
    that bites still bounds some step."""
    bounds = []
    real = engine._step

    def spy(table, w, col_weights, bound):
        bounds.append(bound)
        return real(table, w, col_weights, bound)

    monkeypatch.setattr(engine, "_step", spy)
    n = 4
    for measure in (f2_walk(LONG_STEPS, 8), f2_walk(NS97, 97)):
        d_mu = measure.d_mu
        for radius in (None, n * d_mu, n * d_mu + 3):
            del bounds[:]
            assert distribution(measure, n, radius) == oracle_distribution(measure, n, radius)
            assert bounds == [None] * n, radius
        del bounds[:]
        assert distribution(measure, n, 1) == oracle_distribution(measure, n, 1)
        assert any(b is not None for b in bounds)


def test_src_has_one_pruning_rule():
    """No src module names `return_bound`, and no call of `levels` in src
    passes a lambda: the pruning rule lives in `levels` alone."""
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {node.attr if isinstance(node, ast.Attribute) else
                 node.name if isinstance(node, (ast.FunctionDef, ast.alias)) else node.id
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Attribute, ast.Name, ast.FunctionDef, ast.alias))}
        assert "return_bound" not in names, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "levels"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "levels"):
                passed = list(node.args) + [k.value for k in node.keywords]
                assert not any(isinstance(a, ast.Lambda) for a in passed), path.name


def test_object_levels_hold_python_ints():
    """Python-int weights give levels of Python ints, unbounded and under
    every return bound, and so does their pull-back; within float64
    capacity they equal the float levels."""
    for table, weights, d_mu in prefix_tables():
        denom = math.lcm(*(Fraction(c).denominator for c in weights))
        ints = [int(Fraction(c) * denom) for c in weights]
        n_top = 2 * (table.cap // d_mu)
        runs = [(n_top, None)] + [((n + 1) // 2, n) for n in range(1, n_top + 1)]
        for n_steps, horizon in runs:
            got = levels(table, np.array(ints, dtype=object), n_steps, horizon=horizon)
            want = levels(table, ints, n_steps, horizon=horizon)
            for t, ((w, hi), (ref, ref_hi)) in enumerate(zip(got, want)):
                assert w.dtype == object and hi == ref_hi
                assert all(type(x) is int for x in w), (t, horizon)
                assert all(type(x) is int for x in table.pull_back(w)), (t, horizon)
                if exact_capacity(sum(ints), t):
                    assert np.array_equal(w.astype(float), ref), t


# -- the two step paths ------------------------------------------------------------


def assert_runs_match_reference(table, nbr):
    """The runs of a table on the runs path against the reference step
    matrix: each stored column's pieces, expanded, are its edges in table
    ids, sources ascending; a piece holds 1.._CHUNK ids, and one that its
    successor extends holds _CHUNK."""
    first = table._first()
    assert len(table.runs) == nbr.shape[1] - first
    for (src, tgt, length), col in zip(table.runs, nbr.T[first:]):
        assert all(1 <= n <= engine._CHUNK for n in length)
        for i in range(len(src) - 1):
            if src[i] + length[i] == src[i + 1] and tgt[i] + length[i] == tgt[i + 1]:
                assert length[i] == engine._CHUNK, i
        got = [(s + i, g + i) for s, g, n in zip(src, tgt, length) for i in range(n)]
        ok = np.flatnonzero(col >= 0)
        assert got == list(zip(ok.tolist(), col[ok].tolist()))


def assert_runs_match_in_pieces(table):
    """The runs of the table built on the runs path, with the default piece
    size and with pieces of at most three ids, match the reference edges."""
    nbr = reference_nbr(table)
    for chunk in (engine._CHUNK, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            assert_runs_match_reference(both_paths(table)[0], nbr)


@pytest.mark.parametrize("table,weights,d_mu", prefix_tables(),
                         ids=["f2-lazy", "f2-simple", "z2-z3-lazy", "f2-drift", "z3-z5-z",
                              "ab-BA"])
def test_runs_match_the_nbr_construction(table, weights, d_mu):
    assert_runs_match_in_pieces(table)


@pytest.mark.parametrize("make_group,texts,cap", [
    (free_group, MULTI_F2, 6),
    (free_group, list(LONG_STEPS), 8),
])
def test_runs_match_the_nbr_construction_on_multi_syllable_supports(make_group, texts, cap):
    group = make_group()
    assert_runs_match_in_pieces(BallTable(group, _parse(group, texts), cap))


def assert_same_levels(runs, add_at, weights, n_steps, horizon=None, radius=0):
    """levels on the runs path equal levels on the np.add.at path bit for
    bit (Python ints included), with the same hi, and are zero from it on."""
    pairs = zip(levels(runs, weights, n_steps, horizon, radius),
                levels(add_at, weights, n_steps, horizon, radius), strict=True)
    for t, ((w, hi), (ref, ref_hi)) in enumerate(pairs):
        assert w.dtype == ref.dtype and np.array_equal(w, ref), (t, horizon, radius)
        assert hi == ref_hi and not w[hi:].any(), (t, horizon, radius)


def readers(table, weights, order, absorb):
    """The engine's whole-table readers on one table."""
    field = green_field(table, weights, order, [0.25, 0.5])
    return ({r: a.tolist() for r, a in field["final"].items()}, field["e_series"],
            [(t, w.tolist()) for t, w in field["last_levels"]],
            absorbed_profile(table, weights, absorb, order).tolist())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_products())
def test_step_paths_agree_on_random_products(case):
    """On random products: the runs are the reference edges, and the two
    step paths give the same levels, exact and float, unbounded and
    bounded, and leave every whole-table reader `==`."""
    group, support, cap = case
    runs, add_at = both_paths(BallTable(group, support, cap))
    assert_runs_match_reference(runs, reference_nbr(runs))
    ints = [1 + k % 3 for k in range(len(support))]
    n = 2 * cap + 2
    for weights in (ints, np.array(ints, dtype=object)):
        for horizon, radius in [(None, 0), (n, 0), (n, 1), (n - 1, 2)]:
            assert_same_levels(runs, add_at, weights, n, horizon, radius)
    absorb = runs.subgroup_ids(1)
    assert readers(runs, ints, n, absorb) == readers(add_at, ints, n, absorb)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_products())
def test_level_t_lives_in_generations_up_to_t(case):
    """On random products, multi-syllable supports included, level t is
    zero from generations[t] on (the last end once t passes it), unbounded
    and bounded, both as `levels` yields it, with hi at most that end, and
    as full-width steps make it."""
    group, support, cap = case
    table = BallTable(group, support, cap)
    ends = table.generations
    ints = [1 + k % 3 for k in range(len(support))]
    n = 2 * cap + 2
    for horizon, radius in [(None, 0), (n, 0), (n, 1), (n - 1, 2)]:
        bound = lambda t: engine._level_bound(t, horizon, radius, table.d_mu)
        full = reference_levels(table, ints, n, bound)
        for t, ((w, hi), ref) in enumerate(zip(levels(table, ints, n, horizon, radius), full,
                                               strict=True)):
            end = ends[min(t, len(ends) - 1)]
            assert hi <= end and not w[end:].any() and not ref[end:].any(), (t, horizon)


def step_path_walks():
    """Measure makers: the three configs, MULTI_F2 with weights 1..4 over 10,
    and the d_mu = 2 walk {e: 1/2, ab, BA, a^2, B: 1/8 each}."""
    def config(name):
        cfg = load_config(str(CONFIGS / f"{name}.json"))
        return lambda: build_measure(cfg, build_group(cfg), "exact")

    def multi():
        return measure_from_pairs(free_group(2), [(g, Fraction(k + 1, 10))
                                                  for k, g in enumerate(MULTI_F2)])

    return [config("f2-lazy"), config("f2-simple"), config("z2-z3-lazy"), multi,
            lambda: f2_walk(LONG_STEPS, 8)]


def prefix_ns(measure):
    """An odd and an even n whose DPs stay on tables of cap <= 8."""
    top = 8 // max(1, measure.d_mu)
    return top - 1, top


def every_reader(measure, order):
    """Every reader of `levels` on a fresh measure: on its cap-6 table,
    which DPs of this order outgrow, fields, absorbed profiles, Green pair
    series and pruned return weights (whole-table DPs), and the pairing,
    symmetric or not; float return numbers and exact and float
    distributions (prefix DPs)."""
    from freewalk import green

    fmu = measure.as_float()
    cap = 6
    table = measure.table(cap)
    out = [readers(table, measure.entries.values(), order, table.subgroup_ids(1))]
    targets = [table.element_of(i) for i in range(0, table.size, max(1, table.size // 9))]
    out.append(green._target_series(fmu, targets, order, cap))
    out.append(green.pruned_return_weights(fmu, order, cap))
    for n in prefix_ns(measure):
        out.append(return_sequence(fmu, n).values)
        for mu in (measure, fmu):
            out.append([distribution(mu, n, radius) for radius in (None, 1)])
    ints = measure.integerized()[0]
    for symmetric in {measure.is_symmetric(), False}:
        out.append(pruned_power_sequence(table, ints, 2 * order, symmetric))
    return out, table


@pytest.mark.parametrize("make", step_path_walks(),
                         ids=["f2-lazy", "f2-simple", "z2-z3-lazy", "multi-f2", "long-steps"])
def test_forced_step_path_leaves_every_reader_equal(monkeypatch, make):
    """With every table forced onto the runs path (and runs cut into pieces
    of at most five ids), every reader of `levels` gives the `==` results
    of every table on the np.add.at path, which these small tables take
    unforced: the levels, their id bounds from the generation ends, and
    what each reader makes of them do not depend on the step path."""
    want, table = on_path("add.at", lambda: every_reader(make(), 12))
    assert table.runs is None and every_reader(make(), 12)[0] == want
    monkeypatch.setattr(engine, "_CHUNK", 5)
    got, table = on_path("runs", lambda: every_reader(make(), 12))
    assert max(n for _, _, length in table.runs for n in length) == 5
    assert got == want


def test_step_path_follows_the_edges_per_piece():
    """Lazy F2 at cap 11 (5,210 edges per piece) steps by runs.  Z^2*Z/3 at
    cap 7 (about 200) and the d_mu = 2 walk, whose columns break into runs
    of a few edges, step by np.add.at, at cap 8 and at cap 14 (390,049
    ids) alike."""
    assert lazy_walk(free_group(2)).table(11).runs is not None
    cfg = load_config(str(CONFIGS / "z2-z3-lazy.json"))
    assert build_measure(cfg, build_group(cfg), "exact").table(7).runs is None
    for cap in (8, 14):
        assert f2_walk(LONG_STEPS, 8).table(cap).runs is None, cap


def test_lazy_f2_columns_are_a_few_dozen_runs():
    """In table ids each stored column of lazy F2 at cap 11 is at most 40
    runs (32 measured) of consecutive sources onto consecutive targets,
    where source-major breadth-first ids gave one run per edge (177,146)."""
    table = lazy_walk(free_group(2)).table(11)
    for src, tgt, length in table.runs:
        joined = sum(s + n == s2 and g + n == g2
                     for s, g, n, s2, g2 in zip(src, tgt, length, src[1:], tgt[1:]))
        assert len(src) - joined <= 40


def src_nodes():
    """(module file name, node, the name it binds or reads or None) over
    every ast node of the package source."""
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.arg if isinstance(node, ast.arg) else
                    node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None)
            yield path.name, node, name


def test_src_has_one_id_order():
    """No src module names `BlockLayout`, `level_table` or `blocks`, or
    reads an attribute `pos`: every DP runs in the table's own ids."""
    banned = {"BlockLayout", "level_table", "blocks"}
    for module, node, name in src_nodes():
        assert name not in banned, (module, name)
        assert not (isinstance(node, ast.Attribute) and node.attr == "pos"), module


def test_only_the_build_the_step_and_its_views_read_the_step_relation():
    """The attributes `runs` and `adjacency` are read in src only by the
    build that makes the step relation, the step that reads it, and the
    views of it: `columns`, `nbytes` and `step_path`.  `reach` and `levels`
    read the generation ends instead."""
    readers = {scope for _, scope in references("runs", "adjacency", attributes_only=True)}
    assert readers <= {"_build", "_step", "columns", "nbytes", "step_path"}
    assert {"_build", "_step"} <= readers


def test_only_the_engine_reads_the_step_relation():
    """`runs` and `adjacency` are plain attributes: no src module defines
    either as a function, and no src name is `_adj`.  No src module but
    engine.py names either: a table keeps one of the two, so only the
    engine may choose which to read."""
    for module, node, name in src_nodes():
        assert name != "_adj", module
        assert not (isinstance(node, ast.FunctionDef) and name in {"runs", "adjacency"}), module
        assert module == "engine.py" or name not in {"runs", "adjacency"}, (module, name)
