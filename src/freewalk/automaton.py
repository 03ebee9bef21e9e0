"""The relative-geodesic automaton of a free product.

Letters are the nonidentity factor elements; a sequence of letters is
*reduced* when the walk it spells is a geodesic for the syllable metric,
which in a free product just means consecutive letters come from distinct
factors.  Two constructions are provided:

* `reduced_automaton` accepts exactly the reduced sequences: one state per
  cone type (the class of a word by its reduced-extension behaviour).  In a
  free product the last factor alone decides the cone type, so the types
  are built directly: the identity, which extends by every factor, and one
  type per factor k, which extends by every factor but k.
* `canonical_automaton` refines the states with competitor-offset sets
  (P-sets) tracking lexicographically smaller spellings that stay within a
  word-ball of radius C; a letter whose refreshed offset set would contain
  the identity is rejected.  In a free product every element has a unique
  reduced spelling, so the accepted language coincides with the reduced
  one; the P-sets are still computed faithfully and exposed.  The offsets
  g with x.g a single letter come from syllables, not from a search of the
  C-ball: g = x^-1 s for a letter s, which either merges into the last
  syllable of x^-1 (s in the factor of x's first syllable) or is appended.

Edges come in bundles: one symbolic edge per (state, factor, coordinate
class), since factors may be infinite.  Far coordinates collapse to one
class per factor because the letter order is coordinate-lexicographic and
therefore translation-invariant; the construction cross-checks this with
sentinel probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .groups import FINITE_CYCLIC, FactorElement, FreeProduct, GroupElement, word_ball


@dataclass(frozen=True)
class ConeType:
    index: int
    representative: GroupElement
    last_factor: int  # 0 for the identity type
    extension_factors: tuple[int, ...]
    domain: tuple[GroupElement, ...]
    fingerprint: tuple[int, ...]


@dataclass(frozen=True)
class Bundle:
    source: int
    target: int
    factor: int
    predicate: tuple
    # ("all",) any nonidentity element of the factor
    # ("coords", (coords, ...)) explicit coordinate tuples
    # ("far", threshold) word length above the threshold


@dataclass(frozen=True)
class Vertex:
    index: int
    cone_type: int
    pset: tuple[GroupElement, ...]


@dataclass
class AutomatonGraph:
    group: FreeProduct
    kind: str  # "reduced" | "canonical"
    C: int
    cone_types: tuple[ConeType, ...]
    vertices: tuple[Vertex, ...]
    start: int
    bundles: tuple[Bundle, ...]
    window: int
    _trans: dict = field(repr=False, default_factory=dict)

    # -- stepping ---------------------------------------------------------

    def step(self, state: int, letter: FactorElement) -> int | None:
        grp = self.group
        k = letter.factor
        norm = grp.syllable(k, letter.coords)
        if not any(norm.coords):
            return None
        per = self._trans.get((state, k))
        if per is None:
            return None
        if grp.factor(k).kind == FINITE_CYCLIC:
            return per["window"].get(norm.coords)
        if grp.factor_word_length(k, norm.coords) <= self.window:
            return per["window"].get(norm.coords)
        return per["far"]

    def accept(self, letters: Sequence[FactorElement]) -> bool:
        state = self.start
        for letter in letters:
            state = self.step(state, letter)
            if state is None:
                return False
        return True

    def language(self, m: int, B: int) -> Iterator[tuple[FactorElement, ...]]:
        """Accepted sequences with <= m letters of factor word length <= B,
        in (length, letter-lexicographic) order."""
        grp = self.group
        per_factor = {
            k: grp.factor_elements(k, B) for k in range(1, grp.num_factors + 1)
        }
        level: list[tuple[tuple[FactorElement, ...], int]] = [((), self.start)]
        yield ()
        for _ in range(m):
            nxt = []
            for seq, state in level:
                for k in sorted(per_factor):
                    for fe in per_factor[k]:
                        s2 = self.step(state, fe)
                        if s2 is not None:
                            nxt.append((seq + (fe,), s2))
            nxt.sort(key=lambda item: item[0])
            for seq, _ in nxt:
                yield seq
            level = nxt


# -- cone types ------------------------------------------------------------------


def _fingerprint(group: FreeProduct, g: GroupElement,
                 domain: Sequence[GroupElement]) -> tuple[int, ...]:
    base = group.relative_length(g)
    return tuple(
        group.relative_length(group.multiply(g, h)) - base for h in domain
    )


def _canonical(g: GroupElement) -> tuple:
    """Sort key of the canonical order: relative length, then syllables."""
    return len(g.syllables), g.syllables


def cone_types(group: FreeProduct, m: int = 4, B: int = 3, C: int = 3) -> list[ConeType]:
    """Distinct cone types over the (m, B)-ball.

    In a free product a nonidentity element extends to a longer relative
    geodesic by exactly the factors other than its last one, so the types
    are the identity and, when m >= 1, one per last factor k, represented
    by the least letter of H_k.  Each type carries the word-ball fingerprint
    g -> d^(e, rep g) - d^(e, rep) of its representative.  Equal
    fingerprints imply equal types, never the converse.
    """
    if m < 0 or B < 1:
        raise ValueError("need m >= 0 and B >= 1")
    domain = word_ball(group, C)
    factors = tuple(range(1, group.num_factors + 1))
    reps = [(0, group.identity)]
    if m >= 1:
        reps += [(k, GroupElement((group.factor_elements(k, B)[0],))) for k in factors]
    return [
        ConeType(
            index=i,
            representative=g,
            last_factor=last,
            extension_factors=tuple(k for k in factors if k != last),
            domain=domain,
            fingerprint=_fingerprint(group, g, domain),
        )
        for i, (last, g) in enumerate(reps)
    ]


# -- P-set machinery ---------------------------------------------------------------


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


# -- construction --------------------------------------------------------------------


def _build(group: FreeProduct, kind: str, C: int, m: int, B: int) -> AutomatonGraph:
    if C < 1:
        raise ValueError(f"need automaton ball radius C >= 1, got C = {C}")
    if m < 1:  # the (0, B)-ball holds only e: no cone type per last factor
        raise ValueError(f"need relative ball radius m >= 1, got m = {m}")
    types = cone_types(group, m, B, C)
    by_last = {t.last_factor: t for t in types}
    window = 2 * C + 1
    alphabet = GroupAlphabet(group, C) if kind == "canonical" else None

    def far_letters(k: int) -> list[GroupElement]:
        spec = group.factor(k)
        if spec.kind == FINITE_CYCLIC:
            return []
        probes = []
        for mag in (window + 1, window + 3):
            for sign in (1, -1):
                coords = [0] * spec.rank
                coords[0] = sign * mag
                probes.append(group.normalize([group.syllable(k, coords)]))
                if spec.rank > 1:
                    coords = [0] * spec.rank
                    coords[-1] = sign * mag
                    probes.append(group.normalize([group.syllable(k, coords)]))
        return probes

    index: dict[tuple, int] = {}
    vertices: list[Vertex] = []
    psets: list[frozenset] = []
    bundles: list[Bundle] = []
    trans: dict = {}
    queue: list[int] = []

    def vertex(cone_type: int, pset: frozenset) -> int:
        """The vertex of (cone type, P-set), queued for expansion when new."""
        j = index.get((cone_type, pset))
        if j is None:
            j = index[(cone_type, pset)] = len(vertices)
            vertices.append(Vertex(j, cone_type, tuple(sorted(pset, key=_canonical))))
            psets.append(pset)
            queue.append(j)
        return j

    vertex(by_last[0].index, frozenset())
    while queue:
        v = queue.pop(0)
        vt = types[vertices[v].cone_type]
        pset = psets[v]
        for k in sorted(vt.extension_factors):
            target_type = by_last[k].index
            if kind == "reduced":
                j = vertex(target_type, frozenset())
                bundles.append(Bundle(v, j, k, ("all",)))
                trans[(v, k)] = {"window": _AllCoords(j), "far": j}
                continue

            # canonical: split the factor by induced P-set
            for gamma in pset:
                if len(gamma.syllables) == 1 and gamma.syllables[0].factor == k:
                    raise AssertionError(
                        "single-syllable competitor offset in the transition "
                        "factor: far-class stabilization does not apply"
                    )
            spec_k = group.factor(k)
            letter_reach = spec_k.order if spec_k.kind == FINITE_CYCLIC else window
            classes: dict[tuple, list] = {}
            for fe in group.factor_elements(k, letter_reach):
                sigma = GroupElement((fe,))
                killed, new_pset = pset_transition(alphabet, pset, sigma,
                                                   (fe.factor, fe.coords))
                ckey = ("dead",) if killed else ("live", new_pset)
                classes.setdefault(ckey, []).append(fe.coords)
            far_results = set()
            for sigma in far_letters(k):
                fe = sigma.syllables[0]
                killed, new_pset = pset_transition(alphabet, pset, sigma,
                                                   (fe.factor, fe.coords))
                far_results.add(("dead",) if killed else ("live", new_pset))
            if len(far_results) > 1:
                raise AssertionError("far sentinel probes disagree; "
                                     "window too small for this alphabet order")

            per = {"window": {}, "far": None}
            for ckey, coords_list in sorted(
                classes.items(), key=lambda kv: sorted(kv[1])
            ):
                if ckey[0] == "dead":
                    continue
                j = vertex(target_type, ckey[1])
                bundles.append(Bundle(v, j, k, ("coords", tuple(sorted(coords_list)))))
                for coords in coords_list:
                    per["window"][coords] = j
            if far_results:
                fkey = next(iter(far_results))
                if fkey[0] == "live":
                    j = vertex(target_type, fkey[1])
                    bundles.append(Bundle(v, j, k, ("far", window)))
                    per["far"] = j
            trans[(v, k)] = per

    return AutomatonGraph(
        group=group,
        kind=kind,
        C=C,
        cone_types=tuple(types),
        vertices=tuple(vertices),
        start=0,
        bundles=tuple(bundles),
        window=window,
        _trans=trans,
    )


class _AllCoords(dict):
    """Transition row accepting every nonidentity coordinate of a factor."""

    def __init__(self, target):
        super().__init__()
        self._target = target

    def get(self, coords, default=None):
        return self._target

    def __repr__(self):
        return f"<all -> {self._target}>"


def reduced_automaton(group: FreeProduct, C: int = 3, m: int = 4, B: int = 3) -> AutomatonGraph:
    """One state per cone type; accepts every reduced sequence."""
    return _build(group, "reduced", C, m, B)


def canonical_automaton(group: FreeProduct, C: int = 3, m: int = 4, B: int = 3) -> AutomatonGraph:
    """Cone types refined by competitor-offset sets; accepts one spelling
    per element (the lexicographically least reduced one)."""
    return _build(group, "canonical", C, m, B)


# -- verification ---------------------------------------------------------------------


def verify_structure(auto: AutomatonGraph, m: int, B: int) -> dict:
    """Check the four structural conditions on the truncated language:
    nothing enters the start state, every state is reachable, accepted
    paths are relative geodesics, and evaluation is a bijection onto the
    truncated ball."""
    grp = auto.group
    report: dict = {"checks": {}, "witnesses": {}}

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


# -- rendering -------------------------------------------------------------------------


def _vertex_label(auto: AutomatonGraph, v: Vertex) -> str:
    t = auto.cone_types[v.cone_type]
    base = "start" if t.last_factor == 0 else f"H{t.last_factor}"
    if auto.kind == "canonical" and v.pset:
        offsets = ",".join(auto.group.render(g) for g in v.pset)
        return f"{base} | P={{{offsets}}}"
    return base


def export_dot(auto: AutomatonGraph) -> str:
    """Deterministic DOT text; bundles appear as single labelled edges."""
    lines = ["digraph relative_automaton {"]
    lines.append("  rankdir=LR;")
    for v in auto.vertices:
        shape = "doublecircle" if v.index == auto.start else "circle"
        lines.append(
            f'  v{v.index} [shape={shape} label="{_vertex_label(auto, v)}"];'
        )
    for b in sorted(auto.bundles, key=lambda b: (b.source, b.factor, str(b.predicate))):
        if b.predicate[0] == "all":
            label = f"H{b.factor} \\\\ {{e}}"
        elif b.predicate[0] == "far":
            label = f"H{b.factor}: |coords| > {b.predicate[1]}"
        else:
            shown = ",".join(str(c) for c in b.predicate[1][:4])
            more = "..." if len(b.predicate[1]) > 4 else ""
            label = f"H{b.factor}: coords in {{{shown}{more}}}"
        lines.append(f'  v{b.source} -> v{b.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
