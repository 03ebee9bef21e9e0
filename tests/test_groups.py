"""Normal forms, metrics, geodesics, lifts and ball enumeration."""

import ast
import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk import FactorSpec, FreeProduct, free_group, free_product
from freewalk.groups import (
    FactorElement, GroupElement, word_ball,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "freewalk"


@pytest.fixture(scope="module")
def zz():
    return free_group(2)


@pytest.fixture(scope="module")
def z2z3():
    return free_product(
        FactorSpec((0, 0)), FactorSpec((3,))
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        FactorSpec(())
    with pytest.raises(ValueError):
        FactorSpec((1,))
    with pytest.raises(ValueError):
        FactorSpec((-2,))
    with pytest.raises(ValueError):
        FactorSpec((0, 2.5))
    with pytest.raises(ValueError):
        FreeProduct([])


def test_normalize_identity_cases(zz):
    assert zz.normalize([]) == zz.identity
    e = zz.element([(1, 1), (1, -1)])
    assert e == zz.identity


def test_normalize_merges_across_cancellation(zz):
    # a * b * b^-1 * a^3 = a^4
    g = zz.element([(1, 1), (2, 1), (2, -1), (1, 3)])
    assert g == zz.element([(1, 4)])


def test_normalize_unknown_factor(zz):
    with pytest.raises(ValueError):
        zz.element([(7, 1)])


def test_normalize_idempotent(zz):
    g = zz.element([(1, 2), (2, -1), (2, 1), (1, -2), (2, 5)])
    assert zz.normalize(g.syllables) == g


def test_multiply_inverse_laws(zz):
    g = zz.element([(1, 3), (2, 1), (1, -2)])
    assert zz.multiply(zz.identity, g) == g
    assert zz.multiply(g, zz.identity) == g
    assert zz.multiply(g, zz.inverse(g)) == zz.identity
    inv = zz.inverse(zz.element([(1, 2), (2, 1)]))
    assert inv == zz.element([(2, -1), (1, -2)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2), st.integers(-3, 3)), max_size=6),
       st.lists(st.tuples(st.integers(1, 2), st.integers(-3, 3)), max_size=6),
       st.lists(st.tuples(st.integers(1, 2), st.integers(-3, 3)), max_size=6))
def test_associativity_random(raw_a, raw_b, raw_c):
    grp = free_group(2)
    a, b, c = (grp.element(r) for r in (raw_a, raw_b, raw_c))
    assert grp.multiply(grp.multiply(a, b), c) == grp.multiply(a, grp.multiply(b, c))


def test_exhaustive_laws_on_small_ball(zz):
    ball = list(zz.enumerate_ball(2, 2))
    for g in ball:
        assert zz.multiply(g, zz.inverse(g)) == zz.identity
        assert zz.multiply(zz.identity, g) == g


def test_lengths(zz):
    assert zz.lengths(zz.identity) == (0, 0)
    assert zz.lengths(zz.element([(1, 1), (2, 1), (1, 1)])) == (3, 3)


def test_lengths_l1_and_cyclic(z2z3):
    g = z2z3.element([(1, (3, -4))])
    assert z2z3.lengths(g) == (1, 7)
    # Z/3: residue 2 has word length 1 (shorter way round)
    c2 = z2z3.element([(2, 2)])
    assert z2z3.lengths(c2) == (1, 1)


def test_relative_metric_on_ball(zz):
    # exhaustive on ball(2,2): symmetry over all pairs, triangle inequality
    # over all triples
    ball = list(zz.enumerate_ball(2, 2))
    dist = {}
    for x, y in itertools.product(ball, ball):
        dist[(x, y)] = zz.relative_length(zz.multiply(zz.inverse(x), y))
    for x, y in itertools.product(ball, ball):
        assert dist[(x, y)] == dist[(y, x)]
    for x, y, z in itertools.product(ball, ball, ball):
        assert dist[(x, z)] <= dist[(x, y)] + dist[(y, z)]


def test_relative_geodesic(zz):
    p = zz.relative_geodesic(zz.identity, zz.identity)
    assert len(p.vertices) == 1 and not p.jumps

    target = zz.element([(1, 2), (2, -1)])
    p = zz.relative_geodesic(zz.identity, target)
    assert p.vertices == (zz.identity, zz.element([(1, 2)]), target)

    a, ab = zz.gen("a"), zz.multiply(zz.gen("a"), zz.gen("b"))
    p = zz.relative_geodesic(a, ab)
    assert p.vertices == (a, ab) and len(p) == 1


def test_geodesic_length_matches_endpoint(zz):
    ball = list(zz.enumerate_ball(3, 2))
    for g in ball[:80]:
        p = zz.relative_geodesic(zz.identity, g)
        assert len(p) == zz.relative_length(g)


def test_lift_path(zz):
    single = zz.relative_geodesic(zz.identity, zz.identity)
    lifted = zz.lift_path(single)
    assert lifted.vertices == (zz.identity,)

    p = zz.relative_geodesic(zz.identity, zz.element([(1, 3)]))
    lifted = zz.lift_path(p)
    assert [zz.render(v) for v in lifted.vertices] == ["e", "1:(1)", "1:(2)", "1:(3)"]
    assert lifted.flags == (True, False, False, True)


def test_lift_staircase_rank2(z2z3):
    p = z2z3.relative_geodesic(z2z3.identity, z2z3.element([(1, (2, 1))]))
    lifted = z2z3.lift_path(p)
    coords = [v.syllables[0].coords if v.syllables else (0, 0) for v in lifted.vertices]
    assert coords == [(0, 0), (1, 0), (2, 0), (2, 1)]


def test_lift_cyclic_short_direction():
    grp = free_product(FactorSpec((0,)), FactorSpec((5,)))
    # residue 3 out of 5: shorter as two backward steps
    p = grp.relative_geodesic(grp.identity, grp.element([(2, 3)]))
    lifted = grp.lift_path(p)
    assert len(lifted.vertices) == 3


def test_lift_flags_reproduce_source(zz):
    g = zz.element([(1, 2), (2, -3), (1, 1)])
    p = zz.relative_geodesic(zz.identity, g)
    lifted = zz.lift_path(p)
    flagged = [v for v, f in zip(lifted.vertices, lifted.flags) if f]
    assert tuple(flagged) == p.vertices
    for u, v in zip(lifted.vertices, lifted.vertices[1:]):
        assert zz.word_length(zz.multiply(zz.inverse(u), v)) == 1


def test_components(zz):
    empty = zz.relative_geodesic(zz.identity, zz.identity)
    assert zz.components(empty) == []

    lift3 = zz.lift_path(zz.relative_geodesic(zz.identity, zz.element([(1, 3)])))
    recs = zz.components(lift3)
    assert len(recs) == 1 and recs[0].factor == 1 and recs[0].travel == 3

    lift_ab = zz.lift_path(
        zz.relative_geodesic(zz.identity, zz.element([(1, 2), (2, -1)]))
    )
    recs = zz.components(lift_ab)
    assert [(r.factor, r.travel) for r in recs] == [(1, 2), (2, 1)]
    assert all(r.entry <= r.exit for r in recs)


def test_extension_element(zz):
    a2 = zz.element([(1, 2)])
    b = zz.gen("b")
    assert zz.extension_element(a2, b) == zz.identity

    a3 = zz.element([(1, 3)])
    sigma = zz.extension_element(a2, a3)
    assert sigma == zz.gen("b")
    prod = zz.multiply(zz.multiply(a2, sigma), a3)
    assert zz.relative_length(prod) == 3

    assert zz.extension_element(zz.identity, a3) == zz.identity


def test_extension_element_additivity_on_ball(zz):
    ball = list(zz.enumerate_ball(2, 2))
    for g, h in itertools.product(ball, ball):
        sigma = zz.extension_element(g, h)
        assert zz.word_length(sigma) <= 1
        prod = zz.multiply(zz.multiply(g, sigma), h)
        lg, lh = zz.relative_length(g), zz.relative_length(h)
        assert zz.relative_length(prod) >= lg + lh
        # the relative geodesic to the product passes through g
        prefix = zz.relative_geodesic(zz.identity, prod).vertices[:lg + 1]
        assert prefix[-1] == g if lg else True


def test_extension_element_needs_two_factors():
    only = free_group(1)
    with pytest.raises(ValueError):
        only.extension_element(only.identity, only.identity)


def test_enumerate_ball_counts(zz):
    assert list(zz.enumerate_ball(0, 3)) == [zz.identity]
    ball12 = list(zz.enumerate_ball(1, 2))
    assert len(ball12) == 1 + 8
    # spec count: |S_m ^ trunc(B)| = 2*(2B)*(2B)^(m-1)
    for m, B in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        got = sum(
            1 for g in zz.enumerate_ball(m, B) if zz.relative_length(g) == m
        )
        assert got == 2 * (2 * B) ** m


def test_enumerate_ball_dedup_and_order(zz):
    ball = list(zz.enumerate_ball(3, 2))
    assert len(ball) == len(set(ball))
    lens = [zz.relative_length(g) for g in ball]
    assert lens == sorted(lens)
    # deterministic: same stream twice
    assert ball == list(zz.enumerate_ball(3, 2))


def test_render_parse_roundtrip(z2z3):
    for g in z2z3.enumerate_ball(2, 2):
        assert z2z3.parse(z2z3.render(g)) == g
    assert z2z3.render(z2z3.identity) == "e"
    g = z2z3.parse("1:(3,-4)|2:(1)")
    assert z2z3.lengths(g) == (2, 8)


def test_gen_lookup(zz):
    assert zz.gen("a", -2) == zz.element([(1, -2)])
    with pytest.raises(ValueError):
        zz.gen("zz")


# -- the listing and merge loops against the code they replaced ---------------------


def oracle_enumerate_ball(self, m, B):
    """The recursive `enumerate_ball` that `FreeProduct._ball` replaced, verbatim."""
    if m < 0 or B < 1:
        raise ValueError("need m >= 0 and B >= 1")
    per_factor = {
        k: self.factor_elements(k, B) for k in range(1, self.num_factors + 1)
    }
    yield self.identity

    def rec(prefix, length):
        for k in sorted(per_factor):
            if prefix and prefix[-1].factor == k:
                continue
            for fe in per_factor[k]:
                ext = prefix + [fe]
                yield GroupElement(tuple(ext))
                if length + 1 < m:
                    yield from rec(ext, length + 1)

    if m >= 1:
        # breadth order: regroup the depth-first stream by length
        by_len = {}
        for g in rec([], 0):
            by_len.setdefault(len(g.syllables), []).append(g)
        for ell in range(1, m + 1):
            for g in sorted(by_len.get(ell, []), key=lambda x: x.syllables):
                yield g


def oracle_word_ball(group, C):
    """The stack-and-sort `word_ball` that `FreeProduct._ball` replaced, verbatim."""
    out, frontier = [group.identity], [((), C)]
    while frontier:
        prefix, room = frontier.pop()
        for k in range(1, group.num_factors + 1):
            if prefix and prefix[-1].factor == k:
                continue
            for fe in group.factor_elements(k, room):
                g = prefix + (fe,)
                out.append(GroupElement(g))
                frontier.append((g, room - group.factor_word_length(k, fe.coords)))
    return tuple(sorted(out, key=lambda g: (len(g.syllables), g.syllables)))


def oracle_normalize(self, raw):
    """`normalize`'s own merge loop before `FreeProduct._merge`, verbatim."""
    out = []
    for item in raw:
        k, coords = item
        self.factor(k)  # raises on unknown id
        coords = self._reduce_coords(k, coords)
        if not any(coords):
            continue
        if out and out[-1].factor == k:
            merged = self.factor_add(k, out[-1].coords, coords)
            out.pop()
            if any(merged):
                out.append(FactorElement(k, merged))
                continue
            # full cancellation may expose a new same-factor boundary;
            # nothing to do: the stack invariant already holds
            continue
        out.append(FactorElement(k, coords))
    return GroupElement(tuple(out))


def oracle_multiply(self, a, b):
    """`multiply`'s own merge loop before `FreeProduct._merge`, verbatim."""
    out = list(a.syllables)
    for syl in b.syllables:
        if out and out[-1].factor == syl.factor:
            merged = self.factor_add(syl.factor, out[-1].coords, syl.coords)
            out.pop()
            if any(merged):
                out.append(FactorElement(syl.factor, merged))
        else:
            out.append(syl)
    return GroupElement(tuple(out))


def ball_size(group, m, B, C):
    """How many elements have <= m syllables of word length <= B each and
    <= C in all, counted by (last factor, word length used) without listing."""
    by_wl = {k: Counter(group.factor_word_length(k, fe.coords)
                        for fe in group.factor_elements(k, B))
             for k in range(1, group.num_factors + 1)}
    level, total = Counter({(0, 0): 1}), 1
    for _ in range(m):
        nxt = Counter()
        for (last, used), n in level.items():
            for k, counts in by_wl.items():
                for w, c in counts.items():
                    if k != last and used + w <= C:
                        nxt[(k, used + w)] += n * c
        total += sum(nxt.values())
        level = nxt
    return total


LISTED = 3000  # the largest ball a draw lists: m or C shrinks until it fits

products = st.lists(
    st.one_of(st.builds(lambda d: FactorSpec((0,) * d), st.integers(1, 3)),
              st.builds(lambda n: FactorSpec((n,)), st.integers(2, 7)),
              st.lists(st.sampled_from((0, 2, 3)), min_size=2, max_size=3)  # mixed moduli
              .map(lambda moduli: FactorSpec(tuple(moduli)))),
    min_size=1, max_size=3).map(lambda specs: free_product(*specs))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(products, st.integers(0, 4), st.integers(1, 4))
def test_enumerate_ball_equals_the_recursive_oracle(group, m, B):
    while ball_size(group, m, B, m * B) > LISTED:
        m -= 1
    assert list(group.enumerate_ball(m, B)) == list(oracle_enumerate_ball(group, m, B))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(products, st.integers(0, 6))
def test_word_ball_equals_the_stack_oracle(group, C):
    while ball_size(group, C, C, C) > LISTED:
        C -= 1
    assert word_ball(group, C) == oracle_word_ball(group, C)


def raw_syllables(group):
    def syllable(k):
        dim = group.factor(k).dim
        return st.tuples(st.just(k), st.tuples(*[st.integers(-9, 9)] * dim))
    return st.lists(st.integers(1, group.num_factors).flatmap(syllable), max_size=8)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(products.flatmap(lambda g: st.tuples(st.just(g), raw_syllables(g), raw_syllables(g))))
def test_normalize_and_multiply_equal_their_old_loops(case):
    group, raw_a, raw_b = case
    a, b = group.normalize(raw_a), group.normalize(raw_b)
    assert a == oracle_normalize(group, raw_a) and b == oracle_normalize(group, raw_b)
    assert group.multiply(a, b) == oracle_multiply(group, a, b)
    assert group.multiply(b, a) == oracle_multiply(group, b, a)


def test_normalize_does_not_call_multiply(z2z3, monkeypatch):
    """The tracer counts `multiply`: normalizing must not move that count."""
    def no_multiply(self, a, b):
        raise AssertionError("normalize called multiply")

    monkeypatch.setattr(FreeProduct, "multiply", no_multiply)
    assert z2z3.normalize([(1, (1, 0)), (1, (2, -1)), (2, (2,)), (2, (1,))]) == \
        z2z3.element([(1, (3, -1))])


def test_factor_elements_are_listed_once_per_group(z2z3):
    for k, r in ((1, 3), (2, 1), (1, 0)):
        ball = z2z3.factor_elements(k, r)
        assert isinstance(ball, tuple) and z2z3.factor_elements(k, r) is ball
        assert list(ball) == sorted(ball) and len(set(ball)) == len(ball)
    assert len(z2z3.factor_elements(1, 3)) == 24 and z2z3.factor_elements(1, 0) == ()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(products.flatmap(lambda g: st.tuples(st.just(g), raw_syllables(g), raw_syllables(g),
                                            raw_syllables(g))))
def test_normal_form_laws_on_random_products(case):
    group, raw_a, raw_b, raw_c = case
    a, b, c = (group.normalize(raw) for raw in (raw_a, raw_b, raw_c))
    for g in (a, b, c):
        assert all(s.factor != t.factor for s, t in zip(g.syllables, g.syllables[1:]))
        for k, coords in g.syllables:
            moduli = group.factor(k).moduli
            assert any(coords) and all(0 <= x < m for x, m in zip(coords, moduli) if m)
        assert group.normalize(g.syllables) == g
        assert group.multiply(g, group.inverse(g)) == group.identity == \
            group.multiply(group.inverse(g), g)
        assert group.word_length(group.inverse(g)) == group.word_length(g)
        lifted = group.lift_path(group.relative_geodesic(group.identity, g))
        assert lifted.vertices[-1] == g
        assert len(lifted.vertices) - 1 == group.word_length(g)
        assert all(group.word_length(group.multiply(group.inverse(u), v)) == 1
                   for u, v in zip(lifted.vertices, lifted.vertices[1:]))
    assert group.normalize(raw_a + raw_b) == group.multiply(a, b)
    assert group.multiply(group.multiply(a, b), c) == group.multiply(a, group.multiply(b, c))


def test_mixed_factor_arithmetic():
    grp = free_product(FactorSpec((0, 2)), FactorSpec((3,)))  # (Z x Z/2) * Z/3
    assert [spec.gens for spec in grp.factors] == [("a1", "a2"), ("b",)]
    assert grp.gen("a2", 3) == grp.element([(1, (0, 1))])
    assert grp.factor_neg(1, (-3, 1)) == (3, 1) and grp.factor_word_length(1, (-3, 1)) == 4
    assert [fe.coords for fe in grp.factor_elements(1, 1)] == [(-1, 0), (0, 1), (1, 0)]
    assert len(grp.factor_elements(1, 2)) == 7 and not grp.factors[0].finite
    g = grp.element([(1, (-2, 1)), (2, (2,))])
    lifted = grp.lift_path(grp.relative_geodesic(grp.identity, g))
    assert [grp.render(v) for v in lifted.vertices] == [
        "e", "1:(-1,0)", "1:(-2,0)", "1:(-2,1)", "1:(-2,1)|2:(2)"]
    assert lifted.flags == (True, False, False, True, True)
    klein = free_product(FactorSpec((2, 2)), FactorSpec((3,)))  # (Z/2)^2 * Z/3
    assert klein.factors[0].finite and len(klein.factor_elements(1, 5)) == 3
    assert klein.word_length(klein.element([(1, (1, 1)), (2, (1,))])) == 3


SPEC_NAMES = {"FREE_ABELIAN", "FINITE_CYCLIC"}
SPEC_STRINGS = {"free-abelian", "finite-cyclic"}


def test_no_module_but_the_cli_knows_a_factor_kind():
    """Every factor is a modulus vector: only the config reader maps the kind
    shorthand to moduli, and nothing reads a kind, rank or order off a factor."""
    assert [f.name for f in dataclasses.fields(FactorSpec)] == ["moduli", "gens"]
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path.name != "cli.py":
                assert not (isinstance(node, ast.Name) and node.id in SPEC_NAMES), path.name
                assert not (isinstance(node, ast.Constant) and node.value in SPEC_STRINGS), \
                    path.name
                assert not (isinstance(node, ast.alias) and node.name in SPEC_NAMES), path.name
            if isinstance(node, ast.Attribute) and node.attr in ("kind", "rank", "order"):
                # the one such attribute is the automaton's own kind, reduced or canonical
                assert ast.unparse(node) == "auto.kind", (path.name, ast.unparse(node))
