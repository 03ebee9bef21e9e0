"""Cone types, the relative automaton, P-set refinement, verification."""

import dataclasses
import hashlib
import itertools
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk import FactorSpec, automaton, free_group, free_product
from freewalk.cli import build_group, load_config, main
from freewalk.groups import (
    FactorElement, FreeProduct, GroupElement, word_ball,
)
from freewalk.automaton import (
    AutomatonGraph,
    Bundle,
    Vertex,
    _canonical,
    canonical_automaton,
    cone_types,
    export_dot,
    offsets,
    reduced_automaton,
    verify_structure,
)


@pytest.fixture(scope="module")
def zz():
    return free_group(2)


@pytest.fixture(scope="module")
def z2z3():
    return free_product(
        FactorSpec((0, 0)), FactorSpec((3,))
    )


@pytest.fixture(scope="module")
def zzz():
    return free_group(3)


@pytest.fixture(scope="module")
def z3z4():
    return free_product(
        FactorSpec((3,)), FactorSpec((4,))
    )


def test_cone_type_count(zz, z2z3, zzz):
    assert len(cone_types(zz, 4, 3)) == 3
    assert len(cone_types(z2z3, 3, 2)) == 3
    assert len(cone_types(zzz, 3, 2)) == 4
    assert len(cone_types(zz, 0, 1)) == 1


def test_identity_type_is_singleton(zz):
    # only the empty word extends by every factor
    types = cone_types(zz, 4, 3)
    identity_types = [t for t in types if t.last_factor == 0]
    assert len(identity_types) == 1
    assert identity_types[0].representative == zz.identity
    assert identity_types[0].extension_factors == (1, 2)


def _probe_extension_factors(group, g, B):
    """Reference: factors whose letters of word length <= B all extend g to a
    longer relative geodesic, found by multiplying out every letter."""
    out = []
    base = group.relative_length(g)
    for k in range(1, group.num_factors + 1):
        votes = [
            group.relative_length(group.multiply(g, GroupElement((fe,)))) == base + 1
            for fe in group.factor_elements(k, B)
        ]
        assert all(votes) or not any(votes), (k, g)
        if all(votes):
            out.append(k)
    return tuple(out)


def _fingerprint(group, g, domain):
    """Brute-force oracle: the word-ball fingerprint h -> d^(e, g h) - d^(e, g)."""
    base = group.relative_length(g)
    return tuple(group.relative_length(group.multiply(g, h)) - base for h in domain)


def test_fingerprints_refine_types(zz, z2z3, zzz):
    # elements with equal word-ball fingerprints have equal extension sets
    types = cone_types(zz, 3, 2)
    domain = word_ball(zz, 2)

    seen = {}
    for g in zz.enumerate_ball(3, 2):
        fp = _fingerprint(zz, g, domain)
        ext = _probe_extension_factors(zz, g, 2)
        if fp in seen:
            assert seen[fp] == ext
        else:
            seen[fp] = ext
    # and the fingerprint partition is strictly finer than the type partition
    assert len(seen) > len(types)
    # the structural types (by last factor) agree with the letter probe
    for grp in (zz, z2z3, zzz):
        by_last = {t.last_factor: t for t in cone_types(grp, 3, 2)}
        for g in grp.enumerate_ball(3, 2):
            last = g.syllables[-1].factor if g.syllables else 0
            assert _probe_extension_factors(grp, g, 2) == by_last[last].extension_factors


def test_cone_type_representatives(zz, z2z3):
    # the first element of the ball with each last factor
    for grp in (zz, z2z3):
        types = cone_types(grp, 4, 3)
        first = {}
        for g in grp.enumerate_ball(4, 3):
            first.setdefault(g.syllables[-1].factor if g.syllables else 0, g)
        assert [t.representative for t in types] == [first[k] for k in sorted(first)]
        assert [t.index for t in types] == [t.last_factor for t in types]


def test_word_ball_matches_filtered_ball(zz, z2z3, z3z4):
    for grp in (zz, z2z3, z3z4):
        for C in (1, 2, 3):
            ball = tuple(g for g in grp.enumerate_ball(C, C) if grp.word_length(g) <= C)
            assert word_ball(grp, C) == ball


def test_automaton_needs_positive_c(zz):
    for build in (reduced_automaton, canonical_automaton):
        with pytest.raises(ValueError, match="C >= 1"):
            build(zz, C=0)


def test_automaton_needs_positive_m(zz):
    for build in (reduced_automaton, canonical_automaton):
        with pytest.raises(ValueError, match="m >= 1, got m = 0"):
            build(zz, C=1, m=0)
    assert len(cone_types(zz, m=0)) == 1  # cone_types itself takes m = 0


def test_offsets_match_brute_force(zz, z2z3, z3z4):
    for grp in (zz, z2z3, z3z4):
        for C in (1, 2):
            ball = word_ball(grp, C)
            for h in word_ball(grp, 2 * C + 1):
                hinv = grp.inverse(h)
                brute = {(g, s.syllables[0]) for g in ball if g != grp.identity
                         if len((s := grp.multiply(hinv, g)).syllables) == 1}
                got = offsets(grp, h.syllables, C)
                assert len(got) == len(brute) and set(got) == brute, (grp.render(h), C)



def test_g0_shape_two_factors(zz):
    auto = reduced_automaton(zz)
    assert len(auto.vertices) == 3
    pairs = {(b.source, b.target) for b in auto.bundles}
    assert len(auto.bundles) == 4
    assert not any(b.target == auto.start for b in auto.bundles)
    # start reaches both factor states; factor states alternate
    targets_from_start = {b.target for b in auto.bundles if b.source == auto.start}
    assert len(targets_from_start) == 2


def test_g0_shape_three_factors(zzz):
    auto = reduced_automaton(zzz, m=3, B=2)
    assert len(auto.vertices) == 4
    from_start = [b for b in auto.bundles if b.source == auto.start]
    others = [b for b in auto.bundles if b.source != auto.start]
    assert len(from_start) == 3 and len(others) == 6


def test_accept_basic(zz):
    auto = reduced_automaton(zz)
    assert auto.accept([])
    a = FactorElement(1, (1,))
    b = FactorElement(2, (1,))
    assert auto.accept([a, b, a])
    assert not auto.accept([a, a])  # same factor twice is not geodesic
    assert not auto.accept([a, FactorElement(1, (-1,))])


def test_language_counts_zz(zz):
    auto = reduced_automaton(zz)
    seqs = list(auto.language(2, 1))
    assert len(seqs) == 13  # 1 + 4 + 8 = ball(2,1)
    assert len(set(seqs)) == 13


def test_language_matches_ball(zz):
    auto = reduced_automaton(zz)
    seqs = list(auto.language(3, 2))
    images = [zz.normalize(s) for s in seqs]
    ball = list(zz.enumerate_ball(3, 2))
    assert len(images) == len(ball)
    assert set(images) == set(ball)


def test_prefix_closure(zz):
    auto = reduced_automaton(zz)
    for seq in auto.language(3, 2):
        for i in range(len(seq)):
            assert auto.accept(seq[:i])


def test_verify_structure_zz(zz):
    auto = reduced_automaton(zz)
    report = verify_structure(auto, 4, 3)
    assert report["ok"], report
    assert report["counts"]["accepted"] == report["counts"]["ball"]


def test_verify_structure_mutated(zz):
    auto = reduced_automaton(zz)
    # adding a same-factor loop breaks the geodesic condition
    bad = Bundle(source=1, target=1, factor=auto.cone_types[
        auto.vertices[1].cone_type].last_factor, predicate=("all",))
    auto2 = dataclasses.replace(auto, bundles=auto.bundles + (bad,))
    report = verify_structure(auto2, 3, 2)
    assert not report["checks"]["geodesic"]
    assert "geodesic" in report["witnesses"]


def test_canonical_equals_reduced_language(zz):
    g0 = reduced_automaton(zz)
    g1 = canonical_automaton(zz)
    l0 = list(g0.language(4, 3))
    l1 = list(g1.language(4, 3))
    assert l0 == l1


def stepwise_language(auto, m, B):
    """Reference: the accepted sequences, stepping every prefix by every
    letter of every factor, in (length, letter-lexicographic) order."""
    grp = auto.group
    letters = [fe for k in range(1, grp.num_factors + 1) for fe in grp.factor_elements(k, B)]
    level = [((), auto.start)]
    out = [()]
    for _ in range(m):
        nxt = []
        for seq, state in level:
            for fe in letters:
                s2 = auto.step(state, fe)
                if s2 is not None:
                    nxt.append((seq + (fe,), s2))
        nxt.sort(key=lambda item: item[0])
        out.extend(seq for seq, _ in nxt)
        level = nxt
    return out


CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_language_equals_the_stepwise_walk_on_shipped_configs(path):
    cfg = load_config(str(path))
    group = build_group(cfg)
    C, (m, B) = cfg["budgets"]["automaton_c"], cfg["budgets"]["automaton_mb"]
    for auto in (reduced_automaton(group, C, m, B), canonical_automaton(group, C, m, B)):
        assert list(auto.language(m, B)) == stepwise_language(auto, m, B)


def test_language_equals_the_stepwise_walk_on_z4_z2():
    group = free_product(FactorSpec((4,)), FactorSpec((0, 0)))
    for auto in (reduced_automaton(group, 2, 3, 2), canonical_automaton(group, 2, 3, 2)):
        assert list(auto.language(3, 2)) == stepwise_language(auto, 3, 2)


def test_canonical_psets_nonempty(zz):
    g1 = canonical_automaton(zz)
    assert any(v.pset for v in g1.vertices)
    assert len(g1.vertices) >= 3
    # start vertex carries the empty offset set
    assert g1.vertices[g1.start].pset == ()


def test_canonical_verify_structure(zz, z2z3):
    for grp in (zz, z2z3):
        g1 = canonical_automaton(grp)
        report = verify_structure(g1, 3, 2)
        assert report["ok"], report


# -- verification against the normalize-every-sequence oracle -----------------------


def normalize_verify(auto, m, B):
    """verify_structure as it was: every accepted sequence normalized."""
    grp = auto.group
    report = {"checks": {}, "witnesses": {}}
    into_start = [b for b in auto.bundles if b.target == auto.start]
    report["checks"]["no_edge_into_start"] = not into_start
    if into_start:
        report["witnesses"]["no_edge_into_start"] = into_start[:3]
    reach = {auto.start}
    frontier = [auto.start]
    while frontier:
        v = frontier.pop()
        for b in auto.bundles:
            if b.source == v and b.target not in reach:
                reach.add(b.target)
                frontier.append(b.target)
    report["checks"]["all_reachable"] = reach == set(range(len(auto.vertices)))
    geodesic_ok = True
    witness = None
    products = []
    for seq in auto.language(m, B):
        g = grp.normalize([fe for fe in seq])
        products.append(g)
        if grp.relative_length(g) != len(seq):
            geodesic_ok = False
            if witness is None:
                witness = seq
    report["checks"]["geodesic"] = geodesic_ok
    if witness is not None:
        report["witnesses"]["geodesic"] = witness
    ball = list(grp.enumerate_ball(m, B))
    report["counts"] = {
        "accepted": len(products),
        "distinct_images": len(set(products)),
        "ball": len(ball),
    }
    report["checks"]["bijection"] = (
        len(products) == len(ball)
        and len(set(products)) == len(products)
        and set(products) == set(ball)
    )
    report["ok"] = all(report["checks"].values())
    return report


def every_sequence(group):
    """One state that steps on every letter: its language holds every
    letter sequence, same-factor neighbours and cancellations included."""
    n = group.num_factors
    return AutomatonGraph(group, "reduced", 1, tuple(cone_types(group, 1, 1)[:1]),
                          (Vertex(0, 0, ()),), 0,
                          tuple(Bundle(0, 0, k, ("all",)) for k in range(1, n + 1)), 3)


def same_factor_neighbours(auto, m, B):
    return sum(any(a.factor == b.factor for a, b in zip(seq, seq[1:]))
               for seq in auto.language(m, B))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_verify_equals_the_normalize_oracle_on_shipped_configs(path):
    cfg = load_config(str(path))
    group = build_group(cfg)
    C, (m, B) = cfg["budgets"]["automaton_c"], cfg["budgets"]["automaton_mb"]
    autos = [reduced_automaton(group, C, m, B), canonical_automaton(group, C, m, B)]
    for auto in autos:
        assert verify_structure(auto, m, B) == normalize_verify(auto, m, B)
        assert verify_structure(auto, m, B)["ok"]
    loose = every_sequence(group)
    assert same_factor_neighbours(loose, 3, 2) > 0
    report = verify_structure(loose, 3, 2)
    assert report == normalize_verify(loose, 3, 2) and not report["checks"]["geodesic"]


def test_verify_equals_the_normalize_oracle_with_a_same_factor_loop(zz):
    auto = reduced_automaton(zz)
    bad = Bundle(source=1, target=1, factor=auto.cone_types[
        auto.vertices[1].cone_type].last_factor, predicate=("all",))
    auto2 = dataclasses.replace(auto, bundles=auto.bundles + (bad,))
    assert same_factor_neighbours(auto2, 3, 2) > 0
    assert verify_structure(auto2, 3, 2) == normalize_verify(auto2, 3, 2)


def test_verify_normalizes_letters_that_are_not_reduced(z2z3):
    """Letters outside reduced coordinates (the identity, 4 in Z/3) are
    normalized even with no same-factor neighbours."""
    auto = reduced_automaton(z2z3, 1, 2, 1)
    a, c = FactorElement(1, (1, 0)), FactorElement(2, (1,))
    seqs = [(), (a,), (c,), (FactorElement(2, (4,)),), (a, FactorElement(2, (3,))),
            (FactorElement(1, (0, 0)), c), (c, a), (a, c)]
    auto.language = lambda m, B: iter(seqs)  # the check reads the language only
    report = verify_structure(auto, 2, 1)
    assert report == normalize_verify(auto, 2, 1) and not report["checks"]["geodesic"]
    assert report["counts"]["distinct_images"] == 5


@st.composite
def small_groups(draw):
    specs = [
        draw(st.one_of(
            st.builds(lambda d: FactorSpec((0,) * d), st.integers(1, 2)),
            st.builds(lambda m: FactorSpec((m,)), st.integers(2, 5)),
            st.sampled_from([FactorSpec((0, 2)), FactorSpec((2, 2)), FactorSpec((3, 0))]),
        ))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return free_product(*specs)


@pytest.mark.parametrize("moduli,C,m,B", [
    (((0, 2), (3,)), 1, 2, 5),  # (Z x Z/2) * Z/3
    (((5, 0), (0,)), 1, 2, 5),  # (Z/5 x Z) * Z
    (((0, 3), (0,)), 1, 2, 4),  # (Z x Z/3) * Z
    (((2, 2), (3,)), 1, 3, 2),  # (Z/2)^2 * Z/3: finite factors, no far letters
])
def test_canonical_automaton_steps_far_letters_of_mixed_factors(moduli, C, m, B):
    """B is above the window 2C + 1, so far letters are stepped at every
    residue, those next to the wrap (0 and m - 1) among them, and each one
    reaches the vertex of the P-set the alphabet oracle gives for it."""
    group = free_product(*(FactorSpec(mod) for mod in moduli))
    auto = canonical_automaton(group, C, m, B)
    far = [b.predicate[2:] for b in auto.bundles if b.predicate[0] == "far"]
    assert set(far) == {res for mod in moduli if 0 in mod
                        for res in itertools.product(*(range(q) for q in mod if q))}
    for v in auto.vertices:
        for k in auto.cone_types[v.cone_type].extension_factors:
            for fe in group.factor_elements(k, B):
                killed, want = pset_transition(GroupAlphabet(group, C), frozenset(v.pset),
                                               GroupElement((fe,)), (fe.factor, fe.coords))
                assert not killed and set(auto.vertices[auto.step(v.index, fe)].pset) == want
    report = verify_structure(auto, m, B)
    assert report["ok"], report["checks"]
    assert report["counts"]["accepted"] == report["counts"]["ball"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_groups(), st.integers(1, 2), st.integers(1, 3), st.integers(1, 2))
def test_verify_equals_the_normalize_oracle_on_random_products(group, C, m, B):
    autos = [reduced_automaton(group, C, m, B), every_sequence(group)]
    if group.num_factors > 1 and C == 1:
        autos.append(canonical_automaton(group, C, m, B))
    for auto in autos:
        assert verify_structure(auto, m, B) == normalize_verify(auto, m, B)


# -- the alphabet oracle: the P-set step through group products ----------------------


class GroupAlphabet:
    """Letters = nonidentity factor elements, ordered by (factor, coords)."""

    def __init__(self, group: FreeProduct, C: int):
        self.group = group
        self.C = C

    def letter_keys(self, x: GroupElement) -> list[tuple]:
        """Order keys of the letters spelling x (at most one in a group)."""
        if len(x.syllables) != 1:
            return []
        fe = x.syllables[0]
        return [(fe.factor, fe.coords)]

    def offsets(self, x: GroupElement) -> list[tuple[GroupElement, tuple]]:
        """(g, key) for every g != e of word length <= C with x.g a single
        letter s, key being the order key of s; in word-ball order.

        g = x^-1 s: a letter s of the factor of x's first syllable x_1 merges
        with x_1^-1 into t = x_1^-1 s, any other letter is appended.
        """
        grp = self.group
        xinv = grp.inverse(x).syllables
        room = self.C - grp.word_length(x)
        first = x.syllables[0] if x.syllables else None
        out = []
        for k in range(1, grp.num_factors + 1):
            if first is None or k != first.factor:
                out += [(GroupElement(xinv + (s,)), (k, s.coords))
                        for s in grp.factor_elements(k, room)]
                continue
            head = xinv[:-1]
            reach = room + grp.factor_word_length(k, first.coords)
            if head and reach >= 0:  # t = e: s = x_1, g = x^-1 without x_1^-1
                out.append((GroupElement(head), (k, first.coords)))
            for t in grp.factor_elements(k, reach):
                s = grp.factor_add(k, first.coords, t.coords)
                if any(s):
                    out.append((GroupElement(head + (t,)), (k, s)))
        out.sort(key=lambda item: _canonical(item[0]))
        return out

    def mul(self, a, b):
        return self.group.multiply(a, b)

    def inv(self, a):
        return self.group.inverse(a)


def pset_transition(alphabet, pset: Iterable[GroupElement], sigma: GroupElement,
                    sigma_key: tuple) -> tuple[bool, frozenset]:
    """One refinement step of the competitor-offset set.

    Returns (killed, new_pset): `killed` means a strictly smaller spelling
    of the same prefix exists (the identity entered the offset set), so the
    letter must be rejected.
    """
    killed = any(k < sigma_key for k in alphabet.letter_keys(sigma))
    new = {g for g, key in alphabet.offsets(sigma) if key < sigma_key}
    for gamma in pset:
        base = alphabet.mul(alphabet.inv(gamma), sigma)
        if alphabet.letter_keys(base):
            killed = True
        new.update(g for g, _ in alphabet.offsets(base))
    return killed, frozenset(new)


def reduced_sequences(group, m, B):
    """Reference language: every letter sequence with <= m letters of factor
    word length <= B and no two consecutive letters from one factor, in
    (length, letter-lexicographic) order."""
    letters = [fe for k in range(1, group.num_factors + 1) for fe in group.factor_elements(k, B)]
    level, out = [()], [()]
    for _ in range(m):
        level = sorted(seq + (fe,) for seq in level for fe in letters
                       if not seq or seq[-1].factor != fe.factor)
        out += level
    return out


ORACLE_GROUPS = {
    "z/4-z^2": (free_product(FactorSpec((4,)), FactorSpec((0, 0))),
              (3, 2)),
    "z^3-z/2": (free_product(FactorSpec((0, 0, 0)), FactorSpec((2,))),
              (2, 2)),
    "zxz/2-z/3": (free_product(FactorSpec((0, 2)), FactorSpec((3,))), (2, 2)),
}
for _path in CONFIGS:
    _cfg = load_config(str(_path))
    ORACLE_GROUPS[_path.stem] = (build_group(_cfg), tuple(_cfg["budgets"]["automaton_mb"]))


@pytest.mark.parametrize("C", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_syllable_step_equals_the_alphabet_oracle(name, C, monkeypatch):
    """Every P-set step the build takes, far probes included, gives the
    oracle's set, and the oracle never kills a letter; both automaton kinds
    equal the ones built on the oracle step and accept the reduced language."""
    group, (m, B) = ORACLE_GROUPS[name]
    auto = canonical_automaton(group, C, m, B)
    syllable_step = automaton.pset_transition
    steps = []

    def checked(grp, radius, pset, sigma):
        killed, want = pset_transition(GroupAlphabet(grp, radius), pset, GroupElement((sigma,)),
                                       (sigma.factor, sigma.coords))
        assert not killed
        assert syllable_step(grp, radius, pset, sigma) == want, (pset, sigma)
        steps.append(sigma)
        return want

    monkeypatch.setattr(automaton, "pset_transition", checked)
    oracle = canonical_automaton(group, C, m, B)
    monkeypatch.undo()
    assert steps and any(v.pset for v in auto.vertices)
    assert auto.vertices == oracle.vertices and auto.bundles == oracle.bundles
    assert export_dot(auto) == export_dot(oracle)
    language = reduced_sequences(group, m, B)
    assert list(auto.language(m, B)) == list(oracle.language(m, B)) == language

    reduced = reduced_automaton(group, C, m, B)
    n = group.num_factors
    assert reduced.vertices == tuple(Vertex(i, i, ()) for i in range(n + 1))
    assert reduced.bundles == tuple(Bundle(v, k, k, ("all",)) for v in range(n + 1)
                                    for k in range(1, n + 1) if k != v)
    assert list(reduced.language(m, B)) == language


# sha256 of the `automaton --export-dot` artifacts on the shipped configs, recorded
# from the construction that stepped P-sets through group products
ARTIFACT_SHA256 = {
    "f2-lazy": {
        "structure.json": "a92c0f33268ac8d17943634d635c9f8f8885734da175c2f6cf162c4cee7706be",
        "language.txt": "55766f3a7f7430c062b2ab4db7d1c8399a1511a97dca03eb9fbedee660b306be",
        "automaton.dot": "5cde7b90c80092271b1c1c6d12a32dac0f8f8367d758d87c6fa05acf29644e90",
    },
    "f2-simple": {
        "structure.json": "a92c0f33268ac8d17943634d635c9f8f8885734da175c2f6cf162c4cee7706be",
        "language.txt": "55766f3a7f7430c062b2ab4db7d1c8399a1511a97dca03eb9fbedee660b306be",
        "automaton.dot": "5cde7b90c80092271b1c1c6d12a32dac0f8f8367d758d87c6fa05acf29644e90",
    },
    "z2-z3-lazy": {
        "structure.json": "2fc3e9aaae07fa15a524e67d3c4d31f874d3e2caae7aa6dc33680f33a3be4e60",
        "language.txt": "9ae04bffd5029e739ef9b2fa10415006f92265992dc8a9003c9b56bdef02e858",
        "automaton.dot": "3367debb36fae9029e553cdd0361deae15ceb3272a7af02c2ac0e39d840b0540",
    },
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_automaton_artifacts_are_pinned(path, tmp_path):
    out = tmp_path / "auto"
    assert main(["automaton", str(path), "--export-dot", "--out", str(out)]) == 0
    for name, digest in ARTIFACT_SHA256[path.stem].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class AliasAlphabet:
    """Test double: letters are named tokens over Z, two tokens can spell
    the same integer.  Ball is the integer interval [-C, C]."""

    def __init__(self, letters, C=2):
        # letters: list of (name, image); order = list position
        self.letters = letters
        self.C = C
        self.ball = list(range(-C, C + 1))
        self.identity = 0

    def letter_keys(self, x):
        return [i for i, (_, img) in enumerate(self.letters) if img == x]

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def offsets(self, x):
        return [(g, k) for g in self.ball if g != self.identity
                for k in self.letter_keys(self.mul(x, g))]


def test_pset_alias_alphabet_prunes_larger_spelling():
    # u and w both spell 1; u is smaller, so a sequence starting with w dies
    alpha = AliasAlphabet([("u", 1), ("w", 1), ("x2", 2)])
    killed, _ = pset_transition(alpha, frozenset(), 1, 1)  # letter w has key 1
    assert killed
    killed, pset = pset_transition(alpha, frozenset(), 1, 0)  # letter u, key 0
    assert not killed and not pset


def test_pset_alias_alphabet_nonempty_pset():
    alpha = AliasAlphabet([("u", 1), ("w", 1), ("x2", 2)])
    killed, pset = pset_transition(alpha, frozenset(), 2, 2)  # letter x2
    assert not killed
    assert pset == frozenset({-1})  # u (and w) land one short of x2
    # composing: next letter x2 from offset -1 can reach offset -1 again
    killed, pset2 = pset_transition(alpha, pset, 2, 2)
    assert not killed
    assert -1 in pset2


def test_pset_alias_kill_via_offset():
    # offset -1 plus letter u spells the current prefix exactly: kill
    alpha = AliasAlphabet([("u", 1), ("w", 1), ("x2", 2)])
    killed, _ = pset_transition(alpha, frozenset({-1}), 1, 0)
    assert killed


def test_export_dot(zz):
    auto = reduced_automaton(zz)
    text = export_dot(auto)
    assert text.count("doublecircle") == 1
    assert text.count("->") == 4
    assert export_dot(auto) == text  # byte-identical rerun
    g1 = canonical_automaton(zz)
    text1 = export_dot(g1)
    assert "P=" in text1


def test_dot_stable_across_builds(zz):
    a = export_dot(reduced_automaton(zz))
    b = export_dot(reduced_automaton(free_group(2)))
    assert a == b


# sha256 of export_dot(canonical_automaton(group, C, m=4, B=3)), recorded from
# the search-based construction that enumerated the (m, B)-ball for cone types
# and the C-ball for every P-set offset
DOT_SHA256 = {
    ("zz", 2): "a978fdeb9edc52f286d5e7f05ff5fcbb7f1db7c0e9d83ae8aa24b883f942d304",
    ("zz", 3): "5cde7b90c80092271b1c1c6d12a32dac0f8f8367d758d87c6fa05acf29644e90",
    ("z2z3", 2): "05f7e1642d61b22ab7f45514bdc645ae4b25ab4a1ac1cca9b911cd634e702719",
    ("z2z3", 3): "3367debb36fae9029e553cdd0361deae15ceb3272a7af02c2ac0e39d840b0540",
}


@pytest.mark.parametrize("name,C", sorted(DOT_SHA256))
def test_canonical_dot_digest(name, C, request):
    group = request.getfixturevalue(name)
    text = export_dot(canonical_automaton(group, C, m=4, B=3))
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_SHA256[(name, C)]
