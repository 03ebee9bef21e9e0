"""Free products of finitely generated abelian groups.

The group is Gamma = H_1 * ... * H_N where each factor H_k is either Z^d
(free abelian) or Z/m (finite cyclic).  Elements are kept in syllable
normal form: an alternating sequence of nonidentity factor elements, which
is the unique reduced spelling in a free product.  Two metrics matter:
the word metric d for the standard generators of the factors, and the
relative metric d^ for the enlarged generating set S u H_1 u ... u H_N,
which simply counts syllables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

FREE_ABELIAN = "free-abelian"
FINITE_CYCLIC = "finite-cyclic"


@dataclass(frozen=True)
class FactorSpec:
    """One free factor: Z^rank or Z/order."""

    kind: str
    rank: int = 1
    order: int = 0
    gens: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == FREE_ABELIAN:
            if self.rank < 1:
                raise ValueError(f"free-abelian rank must be >= 1, got {self.rank}")
        elif self.kind == FINITE_CYCLIC:
            if self.order < 2:
                raise ValueError(f"finite-cyclic order must be >= 2, got {self.order}")
        else:
            raise ValueError(f"unknown factor kind {self.kind!r}")

    @property
    def dim(self) -> int:
        """Number of stored coordinates (1 for cyclic factors)."""
        return self.rank if self.kind == FREE_ABELIAN else 1


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
    pure, so instances are safe to share across threads.
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
                if spec.kind == FREE_ABELIAN and spec.rank > 1:
                    gens = tuple(f"{base}{i+1}" for i in range(spec.rank))
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
            named.append(FactorSpec(spec.kind, spec.rank, spec.order, gens))
        self.factors: tuple[FactorSpec, ...] = tuple(named)
        self.identity = GroupElement(())

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def factor(self, k: int) -> FactorSpec:
        if not 1 <= k <= len(self.factors):
            raise ValueError(f"unknown factor id {k}")
        return self.factors[k - 1]

    # -- factor arithmetic -------------------------------------------------

    def _reduce_coords(self, k: int, coords: Sequence[int]) -> tuple[int, ...]:
        spec = self.factor(k)
        if spec.kind == FINITE_CYCLIC:
            return ((coords[0] % spec.order),)
        return tuple(int(c) for c in coords)

    def factor_add(self, k: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return self._reduce_coords(k, [x + y for x, y in zip(a, b)])

    def factor_neg(self, k: int, a: Sequence[int]) -> tuple[int, ...]:
        return self._reduce_coords(k, [-x for x in a])

    def factor_word_length(self, k: int, coords: Sequence[int]) -> int:
        spec = self.factor(k)
        if spec.kind == FINITE_CYCLIC:
            r = coords[0] % spec.order
            return min(r, spec.order - r)
        return sum(abs(c) for c in coords)

    def factor_elements(self, k: int, max_word: int) -> list[FactorElement]:
        """Nonidentity elements of H_k with word length <= max_word, in
        coordinate-lexicographic order."""
        spec = self.factor(k)
        out = []
        if spec.kind == FINITE_CYCLIC:
            for r in range(1, spec.order):
                if min(r, spec.order - r) <= max_word:
                    out.append(FactorElement(k, (r,)))
            return out

        def rec(prefix: tuple[int, ...], remaining: int, dims_left: int):
            if dims_left == 0:
                if any(prefix):
                    out.append(FactorElement(k, prefix))
                return
            for c in range(-remaining, remaining + 1):
                rec(prefix + (c,), remaining - abs(c), dims_left - 1)

        rec((), max_word, spec.rank)
        out.sort(key=lambda fe: fe.coords)
        return out

    # -- normal form and group law -----------------------------------------

    def syllable(self, k: int, coords: Sequence[int] | int) -> FactorElement:
        if isinstance(coords, int):
            coords = (coords,)
        spec = self.factor(k)
        if len(coords) != spec.dim:
            raise ValueError(f"factor {k} expects {spec.dim} coordinates")
        red = self._reduce_coords(k, coords)
        return FactorElement(k, red)

    def normalize(self, raw: Iterable[FactorElement]) -> GroupElement:
        """Canonical syllable form: merge adjacent same-factor items by the
        factor group law and drop identity syllables."""
        out: list[FactorElement] = []
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

    def element(self, raw: Iterable[tuple[int, Sequence[int] | int]]) -> GroupElement:
        return self.normalize(
            self.syllable(k, coords) for k, coords in raw
        )

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
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
        """Unit generator steps spelling one syllable.

        Z^d: staircase order, coordinate 1 first.  Z/m: shorter direction,
        positive on ties.
        """
        k, coords = syl
        spec = self.factor(k)
        steps = []
        if spec.kind == FINITE_CYCLIC:
            r = coords[0] % spec.order
            if r <= spec.order - r:
                steps.extend(FactorElement(k, (1,)) for _ in range(r))
            else:
                steps.extend(
                    FactorElement(k, (spec.order - 1,)) for _ in range(spec.order - r)
                )
            return steps
        for i, c in enumerate(coords):
            unit = [0] * spec.rank
            unit[i] = 1 if c > 0 else -1
            steps.extend(FactorElement(k, tuple(unit)) for _ in range(abs(c)))
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

    def enumerate_ball(self, m: int, B: int) -> Iterator[GroupElement]:
        """Elements with <= m syllables, each of factor word length <= B,
        without duplicates, ordered by (relative length, syllable lexicographic)."""
        if m < 0 or B < 1:
            raise ValueError("need m >= 0 and B >= 1")
        per_factor = {
            k: self.factor_elements(k, B) for k in range(1, self.num_factors + 1)
        }
        yield self.identity

        def rec(prefix: list[FactorElement], length: int) -> Iterator[GroupElement]:
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
            by_len: dict[int, list[GroupElement]] = {}
            for g in rec([], 0):
                by_len.setdefault(len(g.syllables), []).append(g)
            for ell in range(1, m + 1):
                for g in sorted(by_len.get(ell, []), key=lambda x: x.syllables):
                    yield g

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
    return FreeProduct([FactorSpec(FREE_ABELIAN, rank=1) for _ in range(rank)])


def word_ball(group: FreeProduct, C: int) -> tuple[GroupElement, ...]:
    """Elements of word length <= C, by relative length, then syllables."""
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
