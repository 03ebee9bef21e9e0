"""Free products of finitely generated abelian groups.

The group is Gamma = H_1 * ... * H_N where each factor H_k is
Z^a x Z/m_1 x ... x Z/m_b, held as one modulus per coordinate: 0 for a
free coordinate, m >= 2 for a cyclic one (Z^d is (0,) * d, Z/m is (m,)).
Elements are kept in syllable normal form: an alternating sequence of
nonidentity factor elements, which is the unique reduced spelling in a free
product.  Two metrics matter: the word metric d for the standard generators
of the factors (|c| on a free coordinate, min(r, m - r) on a cyclic one),
and the relative metric d^ for the enlarged generating set
S u H_1 u ... u H_N, which simply counts syllables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class FactorSpec:
    """One free factor: one modulus per coordinate, 0 for a free one."""

    moduli: tuple[int, ...]
    gens: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.moduli or any(type(m) is not int or m < 0 or m == 1 for m in self.moduli):
            raise ValueError(f"moduli must be nonempty ints, each 0 or >= 2, got {self.moduli}")

    @property
    def dim(self) -> int:
        return len(self.moduli)

    @property
    def finite(self) -> bool:
        """Whether the factor has no free coordinate."""
        return all(self.moduli)


class FactorElement(NamedTuple):
    factor: int
    coords: tuple[int, ...]


class GroupElement(NamedTuple):
    syllables: tuple[FactorElement, ...]

    def __repr__(self):  # pragma: no cover - debugging aid
        if not self.syllables:
            return "e"
        return "|".join(f"{f}:{coords}" for f, coords in self.syllables)


@dataclass(frozen=True)
class RelativePath:
    """Vertices of a path in the relative Cayley graph, with its jumps."""

    vertices: tuple[GroupElement, ...]
    jumps: tuple[FactorElement, ...]

    def __len__(self):
        return len(self.jumps)


@dataclass(frozen=True)
class LiftedPath:
    """Word-metric path refining a relative path; flags mark lifted vertices."""

    vertices: tuple[GroupElement, ...]
    flags: tuple[bool, ...]


@dataclass(frozen=True)
class ComponentRecord:
    factor: int
    entry: int
    exit: int
    travel: int


class FreeProduct:
    """The free product H_1 * ... * H_N with its two metrics.

    Factors are numbered 1..N.  All values are immutable; every method is
    pure, and the factor balls are cached by an atomic dict setdefault, so
    instances are safe to share across threads.
    """

    def __init__(self, factors: Sequence[FactorSpec]):
        if not factors:
            raise ValueError("need at least one factor")
        named = []
        used_names: set[str] = set()
        for idx, spec in enumerate(factors, start=1):
            gens = spec.gens
            if not gens:
                base = chr(ord("a") + idx - 1)
                if spec.dim > 1:
                    gens = tuple(f"{base}{i+1}" for i in range(spec.dim))
                else:
                    gens = (base,)
            if len(gens) != spec.dim:
                raise ValueError(
                    f"factor {idx}: expected {spec.dim} generator names, got {len(gens)}"
                )
            for g in gens:
                if g in used_names:
                    raise ValueError(f"duplicate generator name {g!r}")
                used_names.add(g)
            named.append(FactorSpec(tuple(spec.moduli), gens))
        self.factors: tuple[FactorSpec, ...] = tuple(named)
        self.identity = GroupElement(())
        self._factor_balls: dict[tuple[int, int], tuple[FactorElement, ...]] = {}

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def factor(self, k: int) -> FactorSpec:
        if not 1 <= k <= len(self.factors):
            raise ValueError(f"unknown factor id {k}")
        return self.factors[k - 1]

    # -- factor arithmetic -------------------------------------------------

    def _reduce_coords(self, k: int, coords: Sequence[int]) -> tuple[int, ...]:
        return tuple([c % m if m else int(c) for c, m in zip(coords, self.factor(k).moduli)])

    def factor_add(self, k: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self._reduce_coords(k, [x + y for x, y in zip(a, b)])

    def factor_neg(self, k: int, a: Sequence[int]) -> tuple[int, ...]:
        return self._reduce_coords(k, [-x for x in a])

    def factor_word_length(self, k: int, coords: Sequence[int]) -> int:
        return sum([min(c % m, -c % m) if m else abs(c)
                    for c, m in zip(coords, self.factor(k).moduli)])

    def factor_elements(self, k: int, max_word: int) -> tuple[FactorElement, ...]:
        """Nonidentity elements of H_k with word length <= max_word, in
        coordinate-lexicographic order, listed once per (k, max_word)."""
        if (k, max_word) in self._factor_balls:
            return self._factor_balls[(k, max_word)]
        moduli = self.factor(k).moduli
        out: list[FactorElement] = []

        def rec(prefix: tuple[int, ...], remaining: int):
            # each coordinate ascends within its prefix: lexicographic order
            if len(prefix) == len(moduli):
                if any(prefix):
                    out.append(FactorElement(k, prefix))
                return
            m = moduli[len(prefix)]
            for c in range(m) if m else range(-remaining, remaining + 1):
                if (wl := min(c, m - c) if m else abs(c)) <= remaining:
                    rec(prefix + (c,), remaining - wl)

        rec((), max_word)
        # setdefault is atomic: threads racing on one key all get one tuple
        return self._factor_balls.setdefault((k, max_word), tuple(out))

    # -- normal form and group law -----------------------------------------

    def syllable(self, k: int, coords: Sequence[int] | int) -> FactorElement:
        if isinstance(coords, int):
            coords = (coords,)
        spec = self.factor(k)
        if len(coords) != spec.dim:
            raise ValueError(f"factor {k} expects {spec.dim} coordinates")
        red = self._reduce_coords(k, coords)
        return FactorElement(k, red)

    def _merge(self, out: list[FactorElement],
               syllables: Iterable[FactorElement]) -> GroupElement:
        """Append reduced nonidentity syllables to the normal form `out`,
        merging each into a last syllable of its factor by the factor law."""
        for syl in syllables:
            k = syl.factor
            if out and out[-1].factor == k:
                merged = self.factor_add(k, out.pop().coords, syl.coords)
                if any(merged):
                    out.append(FactorElement(k, merged))
            else:
                out.append(syl)
        return GroupElement(tuple(out))

    def normalize(self, raw: Iterable[FactorElement]) -> GroupElement:
        """Canonical syllable form: merge adjacent same-factor items by the
        factor group law and drop identity syllables."""
        reduced = (FactorElement(k, self._reduce_coords(k, coords)) for k, coords in raw)
        return self._merge([], (syl for syl in reduced if any(syl.coords)))

    def element(self, raw: Iterable[tuple[int, Sequence[int] | int]]) -> GroupElement:
        return self.normalize(
            self.syllable(k, coords) for k, coords in raw
        )

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self._merge(list(a.syllables), b.syllables)

    def inverse(self, a: GroupElement) -> GroupElement:
        return GroupElement(
            tuple(
                FactorElement(f, self.factor_neg(f, c))
                for f, c in reversed(a.syllables)
            )
        )

    def lengths(self, a: GroupElement) -> tuple[int, int]:
        """(relative length, word length) of a."""
        word = sum(self.factor_word_length(f, c) for f, c in a.syllables)
        return len(a.syllables), word

    def relative_length(self, a: GroupElement) -> int:
        return len(a.syllables)

    def word_length(self, a: GroupElement) -> int:
        return sum(self.factor_word_length(f, c) for f, c in a.syllables)

    # -- geodesics, lifts, components ----------------------------------------

    def relative_geodesic(self, x: GroupElement, z: GroupElement) -> RelativePath:
        """The unique relative geodesic from x to z: x times the prefixes of
        the normal form of x^-1 z."""
        diff = self.multiply(self.inverse(x), z)
        vertices = [x]
        cur = x
        for syl in diff.syllables:
            cur = self.multiply(cur, GroupElement((syl,)))
            vertices.append(cur)
        return RelativePath(tuple(vertices), diff.syllables)

    def _factor_geodesic_steps(self, syl: FactorElement) -> list[FactorElement]:
        """Unit generator steps spelling one syllable: staircase order,
        coordinate 1 first, each coordinate by its signed shortest
        representative (positive on ties)."""
        k, coords = syl
        moduli = self.factor(k).moduli
        steps = []
        for i, (c, m) in enumerate(zip(coords, moduli)):
            if m:
                c = c % m if 2 * (c % m) <= m else c % m - m
            unit = [0] * len(moduli)
            unit[i] = 1 if c > 0 else -1
            steps.extend([FactorElement(k, self._reduce_coords(k, unit))] * abs(c))
        return steps

    def lift_path(self, p: RelativePath) -> LiftedPath:
        vertices = [p.vertices[0]]
        flags = [True]
        for syl in p.jumps:
            for step in self._factor_geodesic_steps(syl):
                vertices.append(self.multiply(vertices[-1], GroupElement((step,))))
                flags.append(False)
            flags[-1] = True
        return LiftedPath(tuple(vertices), tuple(flags))

    def components(self, p: RelativePath | LiftedPath) -> list[ComponentRecord]:
        """Maximal same-factor runs with entry/exit vertex indices and the
        word distance travelled inside the coset."""
        verts = p.vertices
        if len(verts) < 2:
            return []
        step_factors = []
        for u, v in zip(verts, verts[1:]):
            d = self.multiply(self.inverse(u), v)
            if len(d.syllables) != 1:
                raise ValueError("path vertices are not adjacent")
            step_factors.append(d.syllables[0].factor)
        records = []
        start = 0
        for i in range(1, len(step_factors) + 1):
            if i == len(step_factors) or step_factors[i] != step_factors[start]:
                entry, exit_ = start, i
                diff = self.multiply(self.inverse(verts[entry]), verts[exit_])
                records.append(
                    ComponentRecord(
                        factor=step_factors[start],
                        entry=entry,
                        exit=exit_,
                        travel=self.word_length(diff),
                    )
                )
                start = i
        return records

    # -- extension elements ---------------------------------------------------

    def extension_element(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """A connector sigma of word length <= 1 making g.sigma.h relatively
        aligned: d^(e, g sigma h) >= d^(e,g) + d^(e,h), with the relative
        geodesic through g.

        In a free product sigma = e works unless g ends and h starts in the
        same factor; then the positive generator of the lowest-id other
        factor separates them.
        """
        if self.num_factors < 2:
            raise ValueError("extension elements need at least 2 factors")
        if not g.syllables or not h.syllables:
            return self.identity
        last = g.syllables[-1].factor
        first = h.syllables[0].factor
        if last != first:
            return self.identity
        for k in range(1, self.num_factors + 1):
            if k != last:
                spec = self.factor(k)
                unit = (1,) + (0,) * (spec.dim - 1)
                return GroupElement((FactorElement(k, unit),))
        raise AssertionError("unreachable")

    # -- ball enumeration ------------------------------------------------------

    def _ball(self, m: int, B: int, C: int) -> Iterator[GroupElement]:
        """Elements with <= m syllables, each of factor word length <= B and
        at most C in all, by relative length, then syllables.

        Level l + 1 extends level l's prefixes in order, each by factor and
        then by letter: a prefix orders its extensions before their last
        syllable does, and each factor ball is in letter order, so every
        level comes out sorted.
        """
        factors = range(1, self.num_factors + 1)
        wl = {fe: self.factor_word_length(k, fe.coords)
              for k in factors for fe in self.factor_elements(k, B)}
        yield self.identity
        level = [((), C)]
        for _ in range(m):
            nxt = []
            for prefix, room in level:
                last = prefix[-1].factor if prefix else 0
                for k in factors:
                    if k != last:
                        for fe in self.factor_elements(k, min(B, room)):
                            g = prefix + (fe,)
                            yield GroupElement(g)
                            nxt.append((g, room - wl[fe]))
            level = nxt

    def enumerate_ball(self, m: int, B: int) -> Iterator[GroupElement]:
        """Elements with <= m syllables, each of factor word length <= B,
        without duplicates, ordered by (relative length, syllable lexicographic)."""
        if m < 0 or B < 1:
            raise ValueError("need m >= 0 and B >= 1")
        yield from self._ball(m, B, m * B)

    # -- text form ---------------------------------------------------------------

    def render(self, g: GroupElement) -> str:
        """Canonical text rendering, e.g. "1:(3,-4)|2:(1)"; identity is "e"."""
        if not g.syllables:
            return "e"
        return "|".join(
            f"{f}:({','.join(str(c) for c in coords)})" for f, coords in g.syllables
        )

    def parse(self, text: str) -> GroupElement:
        text = text.strip()
        if text in ("", "e"):
            return self.identity
        raw = []
        for part in text.split("|"):
            head, _, body = part.partition(":")
            k = int(head)
            body = body.strip()
            if not (body.startswith("(") and body.endswith(")")):
                raise ValueError(f"bad syllable {part!r}")
            coords = tuple(int(c) for c in body[1:-1].split(","))
            raw.append(self.syllable(k, coords))
        return self.normalize(raw)

    def gen(self, name: str, power: int = 1) -> GroupElement:
        """Single-generator element by name, e.g. gen("a", -2)."""
        for k, spec in enumerate(self.factors, start=1):
            if name in spec.gens:
                i = spec.gens.index(name)
                coords = [0] * spec.dim
                coords[i] = power
                return self.normalize([self.syllable(k, coords)])
        raise ValueError(f"unknown generator {name!r}")


def free_product(*factors: FactorSpec) -> FreeProduct:
    return FreeProduct(factors)


def free_group(rank: int = 2) -> FreeProduct:
    """F_n presented as Z * Z * ... * Z (one letter per factor)."""
    return FreeProduct([FactorSpec((0,)) for _ in range(rank)])


def word_ball(group: FreeProduct, C: int) -> tuple[GroupElement, ...]:
    """Elements of word length <= C, by relative length, then syllables."""
    return tuple(group._ball(C, C, C))
