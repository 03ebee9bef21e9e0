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
  (P-sets, Epstein et al., *Word Processing in Groups*, 1992) tracking
  lexicographically smaller spellings that stay within a word-ball of
  radius C.  A letter sigma steps a P-set on syllables alone: for each
  offset gamma it forms h = sigma^-1 gamma by putting -sigma in front of
  gamma's syllables, and the new offsets are the g = h.s of word length in
  (0, C] for letters s, each factor ball listed once by the group.  A letter
  would be rejected when some h is a single letter, since then a smaller
  sequence of as many letters spells the same element; in a free product
  every element has one reduced spelling, so this never happens on the
  reduced extensions the construction steps, and the accepted language is
  the reduced one.  The P-sets are still computed faithfully and exposed.

Edges come in bundles: one symbolic edge per (state, factor, coordinate
class), since factors may be infinite.  On a factor with a free coordinate,
far letters collapse to one class per vector of cyclic residues, because the
letter order is coordinate-lexicographic and therefore invariant under
translation along a free coordinate; the construction cross-checks this
with sentinel probes.  The bundles are the only copy of the transitions:
the graph derives its stepping index from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .groups import FactorElement, FreeProduct, GroupElement


@dataclass(frozen=True)
class ConeType:
    index: int
    representative: GroupElement
    last_factor: int  # 0 for the identity type
    extension_factors: tuple[int, ...]


@dataclass(frozen=True)
class Bundle:
    source: int
    target: int
    factor: int
    predicate: tuple
    # ("all",) any nonidentity element of the factor
    # ("coords", (coords, ...)) explicit coordinate tuples
    # ("far", threshold, *residues) word length above the threshold, with
    #   these residues on the cyclic coordinates (on a factor with a free one)


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
    _moves: dict = field(init=False, repr=False)

    def __post_init__(self):
        # the stepping index: (state, factor, coords | ("all",) | ("far", *residues)) -> target
        self._moves = {}
        for b in self.bundles:
            tag = b.predicate[0]
            keys = b.predicate[1] if tag == "coords" else [(tag,) + b.predicate[2:]]
            for key in keys:
                self._moves[(b.source, b.factor, key)] = b.target

    # -- stepping ---------------------------------------------------------

    def step(self, state: int, letter: FactorElement) -> int | None:
        grp = self.group
        k = letter.factor
        coords = grp.syllable(k, letter.coords).coords
        if not any(coords):
            return None
        moves = self._moves
        if (state, k, ("all",)) in moves:
            return moves[(state, k, ("all",))]
        spec = grp.factor(k)
        if not spec.finite and grp.factor_word_length(k, coords) > self.window:
            residues = tuple(c for c, m in zip(coords, spec.moduli) if m)
            return moves.get((state, k, ("far",) + residues))
        return moves.get((state, k, coords))

    def accept(self, letters: Sequence[FactorElement]) -> bool:
        state = self.start
        for letter in letters:
            state = self.step(state, letter)
            if state is None:
                return False
        return True

    def language(self, m: int, B: int) -> Iterator[tuple[FactorElement, ...]]:
        """Accepted sequences with <= m letters of factor word length <= B,
        in (length, letter-lexicographic) order: each level extends the
        last one's sequences in order by letters in order."""
        grp = self.group
        letters = [fe for k in range(1, grp.num_factors + 1)
                   for fe in grp.factor_elements(k, B)]
        moves: dict[int, list] = {}  # state -> its (letter, next state) in letter order

        def out(state):
            if state not in moves:
                moves[state] = [(fe, s2) for fe in letters
                                if (s2 := self.step(state, fe)) is not None]
            return moves[state]

        level: list[tuple[tuple[FactorElement, ...], int]] = [((), self.start)]
        yield ()
        for _ in range(m):
            nxt = []
            for seq, state in level:
                for fe, s2 in out(state):
                    ext = seq + (fe,)
                    yield ext
                    nxt.append((ext, s2))
            level = nxt


# -- cone types ------------------------------------------------------------------


def _canonical(g: GroupElement) -> tuple:
    """Sort key of the canonical order: relative length, then syllables."""
    return len(g.syllables), g.syllables


def cone_types(group: FreeProduct, m: int = 4, B: int = 3) -> list[ConeType]:
    """Distinct cone types over the (m, B)-ball.

    In a free product a nonidentity element extends to a longer relative
    geodesic by exactly the factors other than its last one, so the types
    are the identity and, when m >= 1, one per last factor k, represented
    by the least letter of H_k.
    """
    if m < 0 or B < 1:
        raise ValueError("need m >= 0 and B >= 1")
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
        )
        for i, (last, g) in enumerate(reps)
    ]


# -- P-set machinery ---------------------------------------------------------------


def offsets(group: FreeProduct, h: tuple[FactorElement, ...],
            C: int) -> list[tuple[GroupElement, FactorElement]]:
    """(g, s) for every letter s with g = h.s and 0 < |g| <= C, unordered.

    h is a syllable tuple in normal form.  A letter s outside the factor of
    h's last syllable d is appended; a letter of that factor merges into t =
    d + s, so g is h's body followed by t, or the body alone when s = d^-1.
    """
    wl = [group.factor_word_length(k, c) for k, c in h]
    room = C - sum(wl)
    out = []
    last = None
    if h:
        body, (last, d) = h[:-1], h[-1]
        reach = room + wl[-1]  # C - |body|
        if reach < 0:
            return out  # every g keeps the whole body
        neg = group.factor_neg(last, d)
        if body:
            out.append((GroupElement(body), FactorElement(last, neg)))
        out += [(GroupElement(body + (t,)),
                 FactorElement(last, group.factor_add(last, t.coords, neg)))
                for t in group.factor_elements(last, reach) if t.coords != d]
    out += [(GroupElement(h + (s,)), s)
            for k in range(1, group.num_factors + 1) if k != last
            for s in group.factor_elements(k, room)]
    return out


def pset_transition(group: FreeProduct, C: int, pset: Iterable[GroupElement],
                    sigma: FactorElement) -> frozenset:
    """One refinement step of the competitor-offset set on the letter sigma.

    The new set holds the offsets (`offsets`) of h = sigma^-1 gamma for every
    gamma of the set, and, for gamma = e, those whose letter s precedes
    sigma.  h is formed on syllables: -sigma goes in front of gamma, merging
    with gamma's first syllable when that one is in sigma's factor.

    A single letter h = s^-1 would kill sigma: with w' = w.gamma the smaller
    spelling that gamma records, w'.s is a lexicographically smaller
    sequence with as many letters as w.sigma that spells the same element.
    `_build` steps only reduced extensions w.sigma, so w'.s would be a second
    reduced spelling of one element, which the normal form rules out; the
    case raises AssertionError.
    """
    k, c = sigma
    neg = FactorElement(k, group.factor_neg(k, c))
    new = {g for g, s in offsets(group, (neg,), C) if s < sigma}
    for gamma in pset:
        first, rest = gamma.syllables[0], gamma.syllables[1:]
        if first.factor == k:
            t = group.factor_add(k, neg.coords, first.coords)
            h = ((FactorElement(k, t),) if any(t) else ()) + rest
        else:
            h = (neg,) + gamma.syllables
        if len(h) == 1:
            raise AssertionError("a competitor offset spells the prefix with a "
                                 "smaller letter: the normal form is not unique")
        new.update(g for g, _ in offsets(group, h, C))
    return frozenset(new)


# -- construction --------------------------------------------------------------------


def _build(group: FreeProduct, kind: str, C: int, m: int, B: int) -> AutomatonGraph:
    if C < 1:
        raise ValueError(f"need automaton ball radius C >= 1, got C = {C}")
    if m < 1:  # the (0, B)-ball holds only e: no cone type per last factor
        raise ValueError(f"need relative ball radius m >= 1, got m = {m}")
    types = cone_types(group, m, B)
    by_last = {t.last_factor: t for t in types}
    window = 2 * C + 1

    def far_letters(k: int) -> dict[tuple, list[FactorElement]]:
        """Sentinel letters beyond the window by their cyclic residues: for
        each residue vector, +-(window + 1) and +-(window + 3) on the first
        and on the last free coordinate.  A finite factor has none."""
        moduli = group.factor(k).moduli
        free = [i for i, m in enumerate(moduli) if not m]
        probes: dict[tuple, list[FactorElement]] = {}
        for base in itertools.product(*(range(m or 1) for m in moduli)) if free else ():
            residues = tuple(c for c, m in zip(base, moduli) if m)
            for mag in (window + 1, window + 3):
                for sign in (1, -1):
                    for i in dict.fromkeys((free[0], free[-1])):
                        coords = list(base)
                        coords[i] = sign * mag
                        probes.setdefault(residues, []).append(group.syllable(k, coords))
        return probes

    index: dict[tuple, int] = {}
    vertices: list[Vertex] = []
    psets: list[frozenset] = []
    bundles: list[Bundle] = []
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
                bundles.append(Bundle(v, vertex(target_type, frozenset()), k, ("all",)))
                continue

            # canonical: split the factor by induced P-set
            for gamma in pset:
                if len(gamma.syllables) == 1 and gamma.syllables[0].factor == k:
                    raise AssertionError(
                        "single-syllable competitor offset in the transition "
                        "factor: far-class stabilization does not apply"
                    )
            spec = group.factor(k)  # a finite factor lists every letter: reach its diameter
            letter_reach = sum(m // 2 for m in spec.moduli) if spec.finite else window
            classes: dict[frozenset, list] = {}  # coords in letter order
            for fe in group.factor_elements(k, letter_reach):
                classes.setdefault(pset_transition(group, C, pset, fe), []).append(fe.coords)
            fars = {res: {pset_transition(group, C, pset, fe) for fe in probes}
                    for res, probes in far_letters(k).items()}
            if any(len(far) > 1 for far in fars.values()):
                raise AssertionError("far sentinel probes disagree; "
                                     "window too small for this alphabet order")
            for new_pset, coords_list in sorted(classes.items(), key=lambda kv: kv[1]):
                j = vertex(target_type, new_pset)
                bundles.append(Bundle(v, j, k, ("coords", tuple(coords_list))))
            for res, far in fars.items():
                bundles.append(Bundle(v, vertex(target_type, far.pop()), k, ("far", window, *res)))

    return AutomatonGraph(
        group=group,
        kind=kind,
        C=C,
        cone_types=tuple(types),
        vertices=tuple(vertices),
        start=0,
        bundles=tuple(bundles),
        window=window,
    )


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
    truncated ball.

    A sequence of nonidentity letters in reduced coordinates with no two
    neighbours in one factor is its own normal form: only a sequence that
    fails this test, made from its letters, is normalized.
    """
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
    reduced: dict = {}  # letter -> whether it is a nonidentity letter in reduced coordinates
    for seq in auto.language(m, B):
        for fe in seq:
            if fe not in reduced:
                reduced[fe] = grp.normalize([fe]).syllables == (fe,)
        own = all(map(reduced.get, seq)) and all(a.factor != b.factor
                                                 for a, b in zip(seq, seq[1:]))
        g = GroupElement(tuple(seq)) if own else grp.normalize(seq)
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
            label = f"H{b.factor}: |coords| > {b.predicate[1]}" + (
                f", residues {b.predicate[2:]}" if len(b.predicate) > 2 else "")
        else:
            shown = ",".join(str(c) for c in b.predicate[1][:4])
            more = "..." if len(b.predicate[1]) > 4 else ""
            label = f"H{b.factor}: coords in {{{shown}{more}}}"
        lines.append(f'  v{b.source} -> v{b.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
