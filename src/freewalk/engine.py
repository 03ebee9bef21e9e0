"""Interned Cayley-ball tables and vectorized convolution dynamics.

This is the workhorse behind exact convolution powers, Green evaluations
and first-return kernels.  Elements reachable from e inside a word-radius
cap are interned once into a trie of (parent id, syllable code) rows,
grown breadth first one generation at a time, ending with where each
generation ends and the table's one step relation: its runs, or a compact
adjacency.  A generation steps its sources support column by support
column, syllable by syllable, reading every product off one small table
per build, indexed by last syllable, and interns the new ones through
sorted key runs that merge geometrically, so no step copies the whole key
array.  Every random-walk computation is then a sequence of level steps
over flat weight arrays.

Ids are numbered generation by generation, and within one by support
column, syllable depth and source id.  On a free product an element's
cone type is fixed by its last syllable, so right multiplication by a
support element sends long ranges of consecutive ids onto consecutive
ids: a stored support column is a few dozen runs (lazy F2 at cap 11: 32
runs for 177,146 edges), derived once by the build.  A table keeps the
step relation once, in the form its step reads.  A step scales the level
once per support column, so every element sums its incoming weight in
support order, by one of two paths.  A table whose columns average at
least _RUN_EDGES edges per run piece keeps only its runs, and each piece
is one slice add; any other table keeps the per-edge adjacency, each
column's dense prefix (the ids whose products all stay in the table) is
scaled with no gather, the rest of its sources are gathered, and both are
added by `np.add.at`.  Both add the same products in the same order:
every level is the same bit for bit.

`levels` is the one level driver: every DP over a table (return numbers,
Green fields, absorbed profiles, distributions) is a loop over the levels
mu^{*t}, t = 0..n, that it yields.  Each level comes with an exclusive id
bound hi, zero from hi on: level t lives in generations <= t, the id
prefix [0, generations[t]), so a step, a pairing dot or a field update
touches only the prefix [0, hi).  A caller may only zero entries of a
yielded level in place; the next step starts from the edited level.
`levels` holds the one pruning rule, and `reach_cap` its table cap.

Exactness: the weights choose the number type of the levels.  An object
array of Python ints gives Python-int levels, exact at any size; other
weights give float64 levels, exact for integers below 2^53
(`exact_capacity`).  Within that capacity the exact pairing cuts one side
of each dot into integer limbs small enough that every limb's float64 dot
is exact, and combines the limb dots in Python ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Sequence

import numpy as np

from .groups import FactorElement, FreeProduct, GroupElement

_FLOAT_BITS = 53  # float64 holds every integer below 2^53 exactly
_FLOAT_EXACT_LIMIT = 2.0**_FLOAT_BITS


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its element budget."""


_INT32_MAX = np.iinfo(np.int32).max
_ZERO = -2  # merge row value: the two syllables cancel
_OUT = -1  # merge row value: the sum is not in the alphabet (or not a merge)
# Cells (source x syllable step) per builder chunk; bounds the chunk
# temporaries, which set a run table's build peak once its neighbour arrays
# go before the key merge.  2^18 -> 2^17 on a 2-vCPU VM, lazy F2 at cap 12:
# build peak 61.0 -> 54.5 B per element; build time, min of 4 builds per
# process, median of 10 alternating processes, 276 -> 261 ms; Z^2*Z/3 at cap
# 10 488 -> 495 ms, within the spread between processes.
_PASS = 1 << 17
_BLOCK = 1 << 16  # entries per block of an exact dot; bounds its temporaries
_CHUNK = 1 << 15  # ids per run piece; bounds the one buffer of a runs step
# Tables whose stored columns average at least this many edges per run
# piece step by runs, the others by `np.add.at`.  One full float step,
# median of 41 interleaved on a 2-vCPU VM, np.add.at -> runs: lazy F2 at cap
# 9 (757 edges per piece) 0.36 -> 0.48 ms, cap 10 (2,036) 1.08 -> 0.74 ms,
# cap 11 (5,210) 3.31 -> 1.59 ms; Z^2*Z/3 (configs/z2-z3-lazy.json) at cap 7
# (189) 0.22 -> 0.94 ms, cap 8 (561) 0.73 -> 1.27 ms, cap 9 (1,681) 3.48 ->
# 2.54 ms.  The d_mu = 2 walk {e, ab, BA, a^2, B} breaks into runs of about
# four edges at every cap.
_RUN_EDGES = 1 << 10  # at least 1
# Peak bytes per table element of a BallTable build and one unbounded float64
# step, under tracemalloc, the largest over three tables: lazy F2 at cap 12
# (1,062,881 elements, runs) 54.5 B, at the build's chunk temporaries;
# Z^2*Z/3 (configs/z2-z3-lazy.json) at cap 9 (391,927, runs, six support
# columns) 70.5 B, also in the build; the d_mu = 2 walk {e, ab, BA, a^2, B}
# at cap 14 (390,049, np.add.at) 75.9 B, in its step; rounded up.  It does
# not cover Green fields, pair matrices, Python-int levels or more support
# columns; the CLI turns --memory-cap into an element budget with it.
TABLE_BYTES_PER_ELEMENT = 76


def _syllable_alphabet(group: FreeProduct, support, cap: int) -> list[FactorElement]:
    """Every syllable an element of the ball can carry.

    Such a syllable is a running sum of one factor's support syllables whose
    partial sums are all nonzero and within the cap, so the alphabet is the
    closure of the support syllables under adding one more, within the cap.
    It stays as sparse as the support: steps of +-40000 give multiples of
    40000, not the whole word ball of the factor.
    """
    steps: dict[int, list] = {}
    for g in support:
        for f, c in g.syllables:
            if c not in steps.setdefault(f, []):
                steps[f].append(c)
    out = []
    for f, cs in sorted(steps.items()):
        frontier = [c for c in cs if group.factor_word_length(f, c) <= cap]
        seen = set(frontier)
        while frontier:
            nxt = []
            for a in frontier:
                for c in cs:
                    s = group.factor_add(f, a, c)
                    if any(s) and s not in seen and group.factor_word_length(f, s) <= cap:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        out.extend(FactorElement(f, c) for c in sorted(seen))
    return out


def _merge_rows(group: FreeProduct, codes: dict, slots, ys) -> np.ndarray:
    """Row i: for each syllable a of `slots` in ys[i]'s factor, the code of
    a + ys[i] in `codes`, _ZERO if it cancels, _OUT if it is missing; _OUT
    elsewhere.

    Per factor, one coordinate-array sum (mod m on a cyclic coordinate) forms
    every a + y, and one sort of the sums together with the factor's coded
    syllables finds their codes: no syllable is added in Python.
    """
    rows = np.full((len(ys), len(slots)), _OUT, dtype=np.int32)
    for f in {y.factor for y in ys}:
        spec = group.factor(f)
        yi = [i for i, y in enumerate(ys) if y.factor == f]
        ai = [c for c, a in enumerate(slots) if a is not None and a.factor == f]
        known = [(s.coords, c) for s, c in codes.items() if s.factor == f]
        y, a, keys = (np.array(x, dtype=np.int64).reshape(-1, spec.dim) for x in (
            [ys[i].coords for i in yi], [slots[c].coords for c in ai], [k for k, _ in known]))
        total = (y[:, None] + a).reshape(-1, spec.dim)
        mod = np.array(spec.moduli)
        np.remainder(total, mod, out=total, where=mod > 0)
        both = np.concatenate([keys, total])
        order = np.lexsort(both.T)
        ranked = both[order]
        rank = np.empty(len(both), dtype=np.int64)  # equal coordinates, equal rank
        rank[order] = np.cumsum(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
        code_of = np.full(len(both) + 1, _OUT, dtype=np.int32)
        code_of[rank[:len(keys)]] = [c for _, c in known]
        got = code_of[rank[len(keys):]]
        got[~total.any(axis=1)] = _ZERO
        rows[np.ix_(yi, ai)] = got.reshape(len(yi), len(ai))
    return rows


def _padded(rows: Sequence[Sequence[int]], fill: int) -> np.ndarray:
    """Int rows of any lengths as one int64 array, padded at the end with fill."""
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def _lookup(keys: np.ndarray, kid: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Ids stored under the queried keys of a sorted key array, -1 if absent."""
    if not len(keys):
        return np.full(len(q), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[pos] == q, kid[pos], -1).astype(np.int64)


def _merge_runs(a, b):
    """One sorted run of (keys, ids) from two with disjoint keys: the
    shorter one's keys are placed by one search in the longer one."""
    if len(a[0]) < len(b[0]):
        a, b = b, a
    (ak, ai), (bk, bi) = a, b
    at = np.searchsorted(ak, bk)
    at += np.arange(len(bk))
    rest = np.ones(len(ak) + len(bk), dtype=bool)
    rest[at] = False
    keys = np.empty(len(rest), dtype=ak.dtype)
    kid = np.empty(len(rest), dtype=ai.dtype)
    keys[at], keys[rest] = bk, ak
    kid[at], kid[rest] = bi, ai
    return keys, kid


def _runs(col: np.ndarray, most: int) -> tuple[np.ndarray, ...] | None:
    """The run pieces (src, tgt, length) of a neighbour array, whose entry i
    is the target of source i or -1, as int arrays: ids src + i go to
    tgt + i for i < length, sources ascending.  A run longer than _CHUNK ids
    is cut into pieces of at most _CHUNK, so one step buffer holds a piece.
    None, before any per-run array exists, when there are more than `most`
    runs."""
    on = col >= 0
    joins = on[:-1] & (col[1:] == col[:-1] + 1)  # i + 1 extends i's run
    start = on & np.r_[True, ~joins]
    if np.count_nonzero(start) > most:
        return None
    start = np.flatnonzero(start)
    length = np.flatnonzero(on & np.r_[~joins, True]) + 1 - start
    cuts = -(-length // _CHUNK)
    off = (np.arange(cuts.sum()) - np.repeat(np.cumsum(cuts) - cuts, cuts)) * _CHUNK
    src = np.repeat(start, cuts) + off
    return src, col[src], np.minimum(np.repeat(length, cuts) - off, _CHUNK)


class _KeyIndex:
    """Trie keys and their ids as sorted runs with disjoint keys, oldest
    first.

    The last run merges with the one before it while that one is at most
    twice as long, so every run is more than twice as long as the next:
    over n keys there are at most log2(n) + 1 runs, and a lookup searches
    each.  A run is merged only once the keys added after it number at
    least half its length, so the whole index is copied only after it has
    grown by half, not once per added run."""

    def __init__(self):
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []

    def find(self, q: np.ndarray) -> np.ndarray:
        """Ids stored under the queried keys (sorted), -1 if absent."""
        got = np.full(len(q), -1, dtype=np.int64)
        for keys, ids in self._runs:
            part = slice(q.searchsorted(keys[0]), q.searchsorted(keys[-1], "right"))
            np.maximum(got[part], _lookup(keys, ids, q[part]), out=got[part])
        return got

    def add(self, keys: np.ndarray, ids: np.ndarray):
        """Add sorted keys, none of them stored yet, with their int32 ids."""
        runs = self._runs
        if len(keys):
            runs.append((keys, ids))
        while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
            runs.append(_merge_runs(runs.pop(), runs.pop()))

    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """All keys as one sorted int64 array, with their int32 ids; the
        index keeps that one run."""
        runs = self._runs
        while len(runs) > 1:
            runs.append(_merge_runs(runs.pop(), runs.pop()))
        if not runs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        return runs[0]


class BallTable:
    """All elements reachable from e by support steps within a word-radius cap.

    The table is a trie over syllable normal forms: every element but the
    identity is its parent (itself without its last syllable) times one
    syllable of a finite alphabet, and parents have smaller ids.  Ids follow
    breadth-first generations: generation g + 1 is what the support steps
    from generation g's elements discover, intermediate products of a
    multi-syllable step included, and within it ids go by support column,
    then syllable depth, then source id, each element at its first
    discovery.

    Attributes
    ----------
    size : number of elements; id 0 is the identity
    syllables : tuple of FactorElement, the syllable alphabet
    parent, code : per-id int32 arrays; element i is element parent[i] times
        syllables[code[i]] (the identity has parent -1 and the empty code
        len(syllables))
    wl, rel, maxfac : per-id int32 arrays (word length, relative length,
        max factor word length over syllables)
    generations : list of the ends of the breadth-first generations, from 1
        (generation 0, e alone) to size: generation g holds the ids
        [generations[g - 1], generations[g]), and the elements within t
        support steps of e lie in [0, generations[t]).
    runs : per stored support column (from _first() on), the lists
        (src, tgt, length) of its run pieces: ids src + i go to tgt + i for
        i < length, sources ascending, each piece at most _CHUNK ids; None
        when the columns average fewer than _RUN_EDGES edges per piece, and
        the table steps by `np.add.at`.

    The step relation g -> g * support_j is held once, in the form the
    table's step reads: its `runs`, or else the compact `adjacency`, never
    both.  `reach` reads the generation ends instead, and the (src, tgt)
    `columns` are derived from the step relation only when asked for.
    """

    def __init__(self, group: FreeProduct, support: Sequence[GroupElement], cap: int,
                 max_elements: int | None = None):
        self.group = group
        self.support = tuple(support)
        self.cap = cap
        self.syllables = tuple(_syllable_alphabet(group, self.support, cap))
        self._code = {s: c for c, s in enumerate(self.syllables)}
        # trie key of (parent p, code c) is p * stride + c; the last code is the empty one
        self._stride = len(self.syllables) + 1
        self._fac = np.array([s.factor for s in self.syllables] + [0], dtype=np.int32)
        self._len = np.array(
            [group.factor_word_length(*s) for s in self.syllables] + [0], dtype=np.int32
        )
        self.d_mu = max((group.word_length(g) for g in self.support), default=0)
        self._cols = None
        self._wl_end: dict[int, int] = {}  # word-length bound -> id bound
        self._inv_perm: np.ndarray | None = None
        self._inv_out: np.ndarray | None = None  # ids whose inverse leaves the table
        self._build(max_elements)

    # -- construction -------------------------------------------------------

    def _products(self):
        """The product step as small tables, one list per support column
        with one (factor, syl, merge, fit, cancel) per syllable of its step.

        Entry k of column j holds the factor of the step's k-th syllable y
        and arrays indexed by the code of an element's last syllable (the
        empty code for e, len(syllables) + 1 for a dead cell) that describe
        the product with y: `merge`
        when y joins the last syllable, so the product's parent is the
        element's parent, else the element; `syl` the product's last code,
        _ZERO when y cancels the last syllable (`cancel`: the product is the
        parent) and _OUT beyond the alphabet; `fit` the largest word length
        of an element whose product stays in the cap, -1 when none does.
        """
        ys = [s for g in self.support for s in g.syllables]
        rows = _merge_rows(self.group, self._code, list(self.syllables) + [None], ys)
        rows = np.vstack([rows.T, np.full((1, len(ys)), _OUT, dtype=np.int32)])
        # per row, the last syllable's factor and length; the empty code and
        # the dead row have factor 0, so they merge with nothing
        fac = np.r_[self._fac, 0]
        slen = np.r_[self._len, 0].astype(np.int64)  # so that cap - grow cannot wrap
        cap = min(self.cap, _INT32_MAX)  # word lengths are int32: no larger cap matters
        tables, at = [], 0
        for g in self.support:
            steps = []
            for y in g.syllables:
                merge = fac == y.factor
                syl = np.where(merge, rows[:, at], self._code.get(y, -1)).astype(np.int32)
                grow = np.where(merge, slen[np.maximum(syl, 0)] - slen,
                                self.group.factor_word_length(*y))
                fit = np.where(syl >= 0, np.minimum(cap - grow, _INT32_MAX), -1).astype(np.int32)
                fit[-1] = -1  # dead cells
                steps.append((y.factor, syl, merge, fit, syl == _ZERO))
                at += 1
            tables.append(steps)
        return tables

    def _build(self, max_elements):
        """Grow the trie breadth first, one generation at a time.

        A generation's sources are the ids [lo, top) known when it starts,
        and each top is recorded in `generations`.
        It runs the support columns in order, each step syllable by
        syllable, over chunks of at most _PASS of its sources (one cell is
        one source times one syllable step), reading each product off the
        `_products` table of its last syllable: a pop to the parent, or a
        (parent, code) key that is looked up among the known elements or
        interned.  At the first syllable the cells are the sources
        themselves, so their codes, parents and word lengths are slices.
        New elements are numbered by their first discovery in that order
        (generation, column, syllable depth, source), so the ids do not
        depend on the chunk size.  A product's last syllable lies in the
        factor of its step syllable, so keys are indexed per factor: a
        chunk's keys come out of its sort already sorted and join its
        factor's `_KeyIndex` of sorted runs, the only one it searches.  The
        per-id arrays get room for a chunk's new elements before it starts
        and are trimmed to the table at the end.  One neighbour array per
        stored support column j holds the ids of element_i * support_j (-1
        beyond the cap), and the partial products of its step while the
        generation runs.

        The build ends by deriving every column's runs from its neighbour
        array, then merging the per-factor key indexes into one.  A table
        that steps by runs drops its neighbour arrays before that merge and
        keeps nothing per edge; any other table drops its runs, and after
        the merge turns each neighbour array into its part of the compact
        adjacency, dropping the array as it goes.
        """
        stride, slen = self._stride, self._len
        products = self._products()[self._first():]
        parent = np.full(1, -1, dtype=np.int32)
        code = np.full(1, stride - 1, dtype=np.int32)
        wl, rel, maxfac = (np.zeros(1, dtype=np.int32) for _ in range(3))
        per_id = (parent, code, wl, rel, maxfac)
        nbr = [np.empty(0, dtype=np.int32) for _ in products]
        index = {f: _KeyIndex() for f in range(1, self.group.num_factors + 1)}

        def check_budget(count):
            if max_elements is not None and count > max_elements:
                raise BudgetExceededError(f"ball table exceeded {max_elements} elements")

        check_budget(1)
        n, lo = 1, 0
        self.generations = []
        while lo < n:
            top = n
            self.generations.append(top)
            for col, steps in zip(nbr, products):
                col.resize(top, refcheck=False)
                if not steps:  # the identity, where it is not support element 0
                    col[lo:top] = np.arange(lo, top)
                for k, (f, syl, merge, fit, cancel) in enumerate(steps):
                    for a in range(lo, top, _PASS):
                        b = min(top, a + _PASS)
                        if len(parent) < n + b - a:  # each cell interns at most one element
                            # grown here, before the chunk's temporaries exist:
                            # grown among them, the arrays were copied past them
                            # and left heap holes
                            for arr in per_id:
                                arr.resize(n + b - a, refcheck=False)
                        if k == 0:  # every cell is alive, a source: slices
                            last, up = code[a:b], parent[a:b]
                            fl = np.flatnonzero(wl[a:b] <= fit[last])
                            pop = np.flatnonzero(cancel[last])
                            res = np.full(b - a, -1, dtype=np.int32)
                            res[pop] = up[pop]
                            last, at, up = last[fl], fl + a, up[fl]
                        else:
                            at = col[a:b]
                            last = code[at]
                            last[at < 0] = stride  # the dead row; as wl >= 0, no dead cell fits
                            fl = np.flatnonzero(wl[at] <= fit[last])
                            pop = np.flatnonzero(cancel[last])
                            res = np.full(b - a, -1, dtype=np.int32)
                            res[pop] = parent[at[pop]]
                            last, at = last[fl], at[fl]
                            up = parent[at]
                        # the cells to look up (fl), in discovery order, and their keys
                        key = np.multiply(np.where(merge[last], up, at), stride, dtype=np.int64)
                        key += syl[last]
                        del pop, last, at, up
                        uq, first, inv = np.unique(key, return_index=True, return_inverse=True)
                        del key
                        got = index[f].find(uq)
                        fresh = got < 0
                        new = np.flatnonzero(fresh)
                        new = new[np.argsort(first[new])]
                        check_budget(n + len(new))
                        got[new] = np.arange(n, n + len(new))
                        p, s = np.divmod(uq[new], stride)
                        added = slice(n, n + len(new))
                        parent[added] = p
                        code[added] = s
                        wl[added] = wl[p] + slen[s]
                        rel[added] = rel[p] + 1
                        maxfac[added] = np.maximum(maxfac[p], slen[s])
                        n += len(new)
                        index[f].add(uq[fresh], got[fresh].astype(np.int32))
                        res[fl] = got[inv]
                        col[a:b] = res
            lo = top
        col = None  # the loop's name would keep the last neighbour array alive
        self.size = n
        for arr in per_id:
            arr.resize(n, refcheck=False)
        self.parent, self.code, self.wl, self.rel, self.maxfac = per_id
        runs, pieces, edges = [], 0, 0
        most = len(nbr) * n // _RUN_EDGES  # more pieces cannot average _RUN_EDGES edges
        for j in range(len(nbr)):  # by index: no loop name keeps a neighbour array alive
            got = _runs(nbr[j], most - pieces)
            if got is None:
                break
            runs.append(got)
            pieces += len(got[0])
            edges += int(got[2].sum())
        self.runs = self._adj = None
        if len(runs) == len(nbr) and pieces * _RUN_EDGES <= edges:
            self.runs = [tuple(a.tolist() for a in piece) for piece in runs]
            nbr.clear()  # the runs are the step relation: nothing per edge stays
        else:
            self._adj = []
        whole = _KeyIndex()
        while index:
            whole.add(*index.popitem()[1].merged())
        self._keys, self._kid = whole.merged()
        while nbr:  # each column's neighbour array goes as its adjacency comes
            col = nbr.pop(0)
            out = col < 0
            d = int(out.argmax()) if out.any() else n
            tail = d + np.flatnonzero(col[d:] >= 0)
            tgt = np.empty(d + len(tail), dtype=np.int64)
            tgt[:d] = col[:d]
            tgt[d:] = col[tail]
            self._adj.append((d, tail, tgt))

    def _first(self) -> int:
        """1 when support element 0 is the identity (its column is the
        identity map and is not stored), else 0."""
        return 1 if self.support and not self.support[0].syllables else 0

    def adjacency(self):
        """The compact step adjacency of a table that steps by `np.add.at`,
        one (d, tail, tgt) per support column from _first() on; None on a
        table with `runs`, which hold the step relation instead.

        Column j's sources are the ids whose product with support_j stays in
        the table, ascending.  They start with the dense prefix [0, d), where
        d is the first id whose product leaves the table; `tail` holds the
        sources from d on, and `tgt` (int64) the targets of all sources in
        order.  On a breadth-first table d covers the inner ball, so only the
        outer shell stores its source ids.
        """
        return self._adj

    def columns(self):
        """Per-support (source ids, target ids) of the edges that stay in
        the table, int64, sources ascending; the identity column included.

        Derived from the runs or the adjacency, whichever the table holds,
        on the first call and kept; no DP reads it.
        """
        if self._cols is None:
            cols = []
            if self._first():
                ids = np.arange(self.size, dtype=np.int64)
                cols.append((ids, ids))
            if self.runs is not None:
                for src, tgt, length in self.runs:
                    n = np.array(length, dtype=np.int64)
                    off = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
                    cols.append(tuple(np.repeat(np.array(x, dtype=np.int64), n) + off
                                      for x in (src, tgt)))
            else:
                for d, tail, tgt in self._adj:
                    cols.append((np.concatenate([np.arange(d, dtype=np.int64), tail]), tgt))
            self._cols = cols
        return self._cols

    def reach(self, h: int) -> int:
        """Exclusive id bound on the ids [0, h) and their one-step images:
        the end of the generation after the one holding id h - 1 (0 for h =
        0), since a step from generation g lands in generation g + 1 at the
        latest.  At a generation end it is the next one."""
        if h <= 0:
            return 0
        ends = self.generations
        return ends[min(bisect_right(ends, h - 1) + 1, len(ends) - 1)]

    @property
    def step_path(self) -> str:
        """How `_step` steps this table: "runs" or "np.add.at"."""
        return "runs" if self.runs is not None else "np.add.at"

    @property
    def nbytes(self) -> int:
        """Bytes the table keeps: its per-id arrays, trie keys and step
        relation (a run piece counted as three int64), and the inverse
        permutation and (src, tgt) columns once they are built."""
        arrays = [self.parent, self.code, self.wl, self.rel, self.maxfac, self._keys, self._kid,
                  self._inv_perm, self._inv_out]
        arrays += [a for _, tail, tgt in self._adj or () for a in (tail, tgt)]
        arrays += [a for col in self._cols or () for a in col]
        pieces = sum(len(src) for src, _, _ in self.runs or ())
        kept = {id(a): a.nbytes for a in arrays if a is not None}  # shared arrays count once
        return sum(kept.values()) + 24 * pieces

    def wl_end(self, b: int) -> int:
        """One past the last id of word length <= b (0 if there is none)."""
        if b >= self.cap:
            return self.size
        r = self._wl_end.get(b)
        if r is None:
            inside = self.wl[::-1] <= b
            r = self._wl_end[b] = self.size - int(inside.argmax()) if inside.any() else 0
        return r

    # -- element <-> id -------------------------------------------------------

    def _child(self, ids: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Ids of element ids[i] times syllables[codes[i]]; -1 if absent, if
        ids[i] is -1 or codes[i] is not in the alphabet.  Sorted queries."""
        q = ids.astype(np.int64) * self._stride + codes
        order = np.argsort(q)
        got = np.empty(len(q), dtype=np.int64)
        got[order] = _lookup(self._keys, self._kid, q[order])
        return np.where((codes >= 0) & (codes < self._stride - 1) & (ids >= 0), got, -1)

    def walk(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the elements spelled by the rows of (n, depth) syllable codes,
        one `_child` call per depth down the trie from e; the empty code
        len(syllables) stays put.  A product outside the table gets a virtual
        id size + k, one per distinct (parent, code) of a depth, with
        extra[k] = (parent, code).  Returns (ids, extra), both int64."""
        ids = np.zeros(len(codes), dtype=np.int64)
        extra = np.empty((0, 2), dtype=np.int64)
        span = int(codes.max(initial=0)) + 2  # key of (parent, code): parent * span + code + 1
        for c in codes.T:
            move = np.flatnonzero(c != self._stride - 1)
            got = self._child(ids[move], c[move])
            miss = move[got < 0]
            if miss.size:
                keys, inv = np.unique(ids[miss] * span + c[miss] + 1, return_inverse=True)
                got[got < 0] = self.size + len(extra) + inv
                extra = np.concatenate([extra, np.stack([keys // span, keys % span - 1], 1)])
            ids[move] = got
        return ids, extra

    def ids_of(self, elems: Sequence[GroupElement]) -> np.ndarray:
        """Table ids of elems (int64), -1 for those outside the table."""
        codes = _padded([[self._code.get(s, -1) for s in g.syllables] for g in elems],
                        self._stride - 1)
        ids = self.walk(codes)[0]
        return np.where(ids < self.size, ids, -1)

    def id_of(self, g: GroupElement) -> int | None:
        return next((i for i in self.ids_of([g]).tolist() if i >= 0), None)

    def element_of(self, i: int) -> GroupElement:
        syls = []
        while i > 0:
            syls.append(self.syllables[self.code[i]])
            i = self.parent[i]
        return GroupElement(tuple(reversed(syls)))

    def inverse_perm(self) -> np.ndarray:
        """Permutation sending each id to the id of its inverse (-1 when the
        inverse leaves the table).

        Goes up the relative length, two lookups per element: g = s t with
        first syllable s has the inverse t^-1 s^-1, the child of its tail
        t's inverse, and its tail is the child of its parent's tail.  The
        trie is prefix-closed but not suffix-closed, so a tail can leave the
        table while the inverse stays in; such elements spell their inverse
        from e instead (`_walk_inverse`)."""
        if self._inv_perm is None:
            group = self.group
            neg = np.array(
                [self._code.get(FactorElement(f, group.factor_neg(f, c)), -1)
                 for f, c in self.syllables] + [-1],
                dtype=np.int64,
            )
            inv = np.zeros(self.size, dtype=np.int32)
            tail = np.zeros(self.size, dtype=np.int32)
            head = self.code.copy()  # code of the first syllable
            for r in range(1, int(self.rel.max(initial=0)) + 1):
                ids = np.flatnonzero(self.rel == r)
                if r > 1:
                    p = self.parent[ids]
                    head[ids] = head[p]
                    tail[ids] = self._child(tail[p], self.code[ids])
                t = tail[ids]
                inv[ids] = self._child(np.where(t >= 0, inv[t], -1), neg[head[ids]])
                # before the next level reads their inverses
                inv[ids[t < 0]] = self._walk_inverse(ids[t < 0], r, neg)
            self._inv_perm = inv
        return self._inv_perm

    def _walk_inverse(self, ids: np.ndarray, r: int, neg: np.ndarray) -> np.ndarray:
        """Ids of the inverses of ids, all of relative length r (-1 outside
        the table), spelled from e by their negated syllables read up the
        parent chain.  The table is prefix-closed, so a row whose walk
        leaves it stays out and is dropped there."""
        out = np.full(len(ids), -1, dtype=np.int64)
        rows, at = np.arange(len(ids)), np.zeros(len(ids), dtype=np.int64)
        for _ in range(r):
            at = self._child(at, neg[self.code[ids]])
            keep = at >= 0
            rows, at, ids = rows[keep], at[keep], self.parent[ids[keep]]
        out[rows] = at
        return out

    def pull_back(self, x: np.ndarray) -> np.ndarray:
        """x composed with inversion: at id g, x at the id of g^-1, or 0
        where g^-1 leaves the table."""
        if self._inv_out is None:
            self._inv_out = np.flatnonzero(self.inverse_perm() < 0)
        y = x[self._inv_perm]  # -1 picks the last entry, zeroed next
        y[self._inv_out] = 0  # an int: 0.0 would make a Python-int level float
        return y

    def mask_ball(self, m: int, B: int) -> np.ndarray:
        """Membership mask of the relative (m, B)-truncated ball."""
        return (self.rel <= m) & (self.maxfac <= B)

    def subgroup_ids(self, k: int) -> np.ndarray:
        """Ids of table elements lying in the factor subgroup H_k."""
        mask = (self.rel == 0) | ((self.rel == 1) & (self._fac[self.code] == k))
        return np.nonzero(mask)[0].astype(np.int32)


def pair_ids(table: BallTable, elems: Sequence[GroupElement]) -> np.ndarray:
    """Table ids of g_i^-1 g_j for all pairs of a prefix-closed element list
    (each element's syllable prefix is in the list); -1 where the product
    lies outside the table.

    Column j is the column of g_j's prefix times g_j's last syllable: a pop,
    a merge or an append on the trie, for all rows at once.  The column of
    e holds the inverses g_i^-1, one `walk` of negated syllables; those
    outside the table keep their virtual ids >= table.size, since later
    columns can pop back through them into the table.  A merge or append
    that lands outside the table stays outside: the rest of g_j only
    appends.  One `_merge_rows`
    call gives every merge row, and the columns of one syllable depth go in
    blocks of at most _BLOCK cells (one column at least), one `_child` each.
    """
    size, group = table.size, table.group
    index = {g.syllables: j for j, g in enumerate(elems)}
    if () not in index or any(g.syllables[:-1] not in index for g in elems):
        raise ValueError("pair_ids needs a prefix-closed element list")
    neg = {s: FactorElement(s.factor, group.factor_neg(*s))
           for s in dict.fromkeys(s for g in elems for s in g.syllables)}
    slots = list(table.syllables) + [None] + [t for t in neg.values() if t not in table._code]
    code = {t: c for c, t in enumerate(slots)}
    n = len(elems)
    pair = np.full((n, n), -1, dtype=np.int64)
    inverses = [[code[neg[s]] for s in reversed(g.syllables)] for g in elems]
    pair[:, index[()]], extra = table.walk(_padded(inverses, len(table.syllables)))
    slot_fac = np.array([0 if s is None else s.factor for s in slots], dtype=np.int64)
    ends = [g.syllables[-1] if g.syllables else None for g in elems]
    lasts = list(dict.fromkeys(y for y in ends if y is not None))
    rows = _merge_rows(group, table._code, slots, lasts)
    row_of = {y: r for r, y in enumerate(lasts)}
    # per column: its prefix's column, and the merge row, factor and code of its last syllable
    prefix, y_row, y_fac, y_code = np.array(
        [(0, 0, 0, -1) if y is None else
         (index[g.syllables[:-1]], row_of[y], y.factor, table._code.get(y, -1))
         for g, y in zip(elems, ends)], dtype=np.int64).T
    depth = np.array([len(g.syllables) for g in elems])
    width = max(1, _BLOCK // n)  # columns per block
    for d in range(1, depth.max() + 1):
        js = np.flatnonzero(depth == d)
        for cols in (js[b:b + width] for b in range(0, len(js), width)):
            v = pair[:, prefix[cols]]
            ok = v >= 0
            ext = v >= size
            at = np.where(ok & ~ext, v, 0)
            last, up = table.code[at], table.parent[at]  # int32
            del at
            up[ext], last[ext] = extra[v[ext] - size].T
            merge = ok & (slot_fac[last] == y_fac[cols])
            m = rows[y_row[cols], last]
            base = np.where(merge, up, v)
            c = np.where(merge, m, y_code[cols])
            col = np.where(merge & (m == _ZERO), up, -1)
            look = ok & (c >= 0) & (base >= 0) & (base < size)
            col[look] = table._child(base[look], c[look])
            pair[:, cols] = col
    pair[pair >= size] = -1
    return pair


# -- DP drivers ----------------------------------------------------------------


def exact_capacity(denominator: int, steps: int) -> bool:
    """True when integerized weights stay float64-exact for this many steps."""
    return denominator ** (steps + 1) < 2**_FLOAT_BITS


def integer_weights(int_weights: Sequence[int], steps: int) -> np.ndarray:
    """Integerized weights typed for `levels` over this many steps: float64
    within `exact_capacity`, else Python ints in an object array."""
    fits = exact_capacity(sum(int_weights), steps)
    return np.array(int_weights, dtype=float if fits else object)


def _step(table: BallTable, w: np.ndarray, col_weights, bound: int | None) -> np.ndarray:
    """One level of the DP: nw[g s_j] += w[g] * col_weights[j] over the table.

    w is the prefix [0, hi) of a level that is zero from hi = len(w) on (the
    whole level when hi = table.size); the new level is table-sized and
    lives in the generations up to the one after id hi - 1's, zero from
    table.reach(hi) on.  Every target sums its contributions in
    support-column order, starting from 0: right multiplication by s_j is
    injective, so a column hits each target at most once.  The identity
    column (support element e, first when present) is the identity map, so
    it starts the sum as w * c_0.  On a table with `runs` every other
    column adds, piece by piece below hi, w[src:src+l] * c_j into
    nw[tgt:tgt+l] through one buffer of _CHUNK entries.  On any other table
    each column reads the adjacency its build left: its dense prefix scales
    w[:min(d, hi)] with no gather, then its tail's sources below hi are
    gathered, and `np.add.at` adds both into nw in edge order.  Both add the
    same products in the same column order, so both give the same level bit
    for bit; the edges left out would add exact zeros.  A bound only zeroes
    the targets beyond it, after the step.
    """
    hi = len(w)
    first = table._first()
    nw = np.zeros(table.size, dtype=w.dtype)
    if first:
        np.multiply(w, col_weights[0], out=nw[:hi])
    if table.runs is not None:
        buf = np.empty(min(hi, _CHUNK), dtype=w.dtype)
        for (src, tgt, length), cj in zip(table.runs, col_weights[first:]):
            if cj == 0:
                continue
            for s, g, n in zip(src[:bisect_left(src, hi)], tgt, length):
                n = min(n, hi - s)
                piece = buf[:n]
                np.multiply(w[s:s + n], cj, out=piece)
                nw[g:g + n] += piece
    else:
        for (d, tail, tgt), cj in zip(table.adjacency(), col_weights[first:]):
            if cj == 0:
                continue
            n = min(d, hi)
            np.add.at(nw, tgt[:n], w[:n] * cj)
            if hi > d:
                m = int(tail.searchsorted(hi))
                v = w[tail[:m]]
                v *= cj
                np.add.at(nw, tgt[d:d + m], v)
    # the table cap already enforces any bound at least as large
    if bound is not None and bound < table.cap:
        top = table.reach(hi)
        nw[:top][table.wl[:top] > bound] = 0  # an int, as in pull_back
    return nw


def reach_cap(n: int, d_mu: int, radius: int = 0) -> int:
    """Table cap of an n-step `levels` DP with horizon n: its largest level
    bound, max_t min(t * d_mu, radius + (n - t) * d_mu), at least 0.  A step's
    word length falls, then grows, so its syllables stay within both ends."""
    return max(0, max(min(t * d_mu, radius + (n - t) * d_mu) for t in range(n + 1)))


def _level_bound(t: int, horizon: int | None, radius: int, d_mu: int) -> int | None:
    """The word-length bound of level t, None when it cannot bite."""
    b = None if horizon is None else radius + (horizon - t) * d_mu
    return b if b is not None and b < t * d_mu else None


def levels(table: BallTable, weights: Iterable, n_steps: int, horizon: int | None = None,
           radius: int = 0) -> Iterator[tuple[np.ndarray, int]]:
    """The levels (mu^{*t}, hi_t), t = 0..n_steps, of the walk from e over
    the table, in its ids.

    Each level is a table-sized array that is zero from the id hi_t on:
    level t lives in generations <= t, and a bound b_t zeroes every id
    longer than it, so hi_t = min(generations[t], wl_end(b_t)), the last
    generation end once t passes it.  Each step reads only the prefix
    [0, hi).
    `weights` are the support weights in support order: an object array of
    Python ints gives Python-int levels, and any other weights are turned
    into floats once.  Given a horizon (a reader of word length <= radius
    up to that step), level t keeps b_t = radius + (horizon - t) * d_mu
    where that is below t * d_mu: a step moves at most d_mu.  A caller may
    zero entries of a yielded level in place, and the next step starts from
    the edited level; any other edit breaks the bound.
    """
    exact = isinstance(weights, np.ndarray) and weights.dtype == object
    w = np.zeros(table.size, dtype=object if exact else float)  # object zeros are int 0
    w[0] = 1
    hi = 1
    yield w, hi
    cols = list(weights) if exact else [float(c) for c in weights]
    ends = table.generations
    for t in range(1, n_steps + 1):
        b = _level_bound(t, horizon, radius, table.d_mu)
        w = _step(table, w[:hi], cols, b)
        hi = ends[min(t, len(ends) - 1)]
        if b is not None:
            hi = min(hi, table.wl_end(b))
        yield w, hi


def _exact_dots(a: np.ndarray, b: np.ndarray) -> int:
    """The dot product of a and b, exactly, as a Python int.

    Every entry must be a non-negative integer below 2^53, and sum(b) below
    2^53.  a is cut into k-bit limbs with k = 53 - bitlen(sum(b)), at least
    1, so each limb's dot with b is at most (2^k - 1) sum(b) < 2^53 and
    float64 gets it exactly in any summation order; the limb dots are
    shifted back and added in Python ints.  Works in blocks of _BLOCK
    entries, so no temporary is larger than a block.
    """
    # a float sum of non-negative integers reaches 2^53 iff the exact one does
    top = b.sum()
    if top >= _FLOAT_EXACT_LIMIT:
        raise OverflowError("dot operand sum reaches 2^53")
    k = max(1, _FLOAT_BITS - int(top).bit_length())
    base, scale = 2.0**k, 2.0**-k
    shifts = range(0, int(a.max(initial=0)).bit_length(), k)
    out = 0
    for lo in range(0, len(a), _BLOCK):
        hi, block = a[lo:lo + _BLOCK], b[lo:lo + _BLOCK]
        for s in shifts:
            limb = hi
            if s + k < shifts.stop:  # split off the low k bits; scaling by 2^+-k is exact
                hi = np.floor(limb * scale)
                limb = limb - hi * base
            out += int(limb @ block) << s
    return out


def pruned_power_sequence(table: BallTable, int_weights: Sequence[int], n_max: int,
                          symmetric: bool) -> list[int]:
    """Integer numerators of q_n = mu^{*n}(e), n = 0..n_max, for integerized
    weights (q_n = result[n] / D^n).

    Runs the forward half of `levels` with horizon n_max and pairs the two
    halves through each split point; exact by the path-splitting identity.
    Each pairing dot takes the pulled-back level t with level t - 1 or t,
    over the prefix of the level it pairs with: the pulled-back level is
    not zero beyond its own level's bound.  Level t sums to at most D^t:
    within `exact_capacity` (`integer_weights`) the levels are float64 and
    the dots `_exact_dots`, beyond it both are Python ints.
    """
    half = (n_max + 1) // 2
    weights = integer_weights(int_weights, half)
    fits = weights.dtype != object
    dots = [1] + [0] * n_max
    for t, (w, hi) in enumerate(levels(table, weights, half, horizon=n_max)):
        if t:
            side = w if symmetric else table.pull_back(w)
            for n, (b, h) in zip((2 * t - 1, 2 * t), ((prev, prev_hi), (w, hi))):
                if n <= n_max:
                    dots[n] = _exact_dots(side[:h], b[:h]) if fits else int(side[:h] @ b[:h])
        prev, prev_hi = w, hi
    return dots


def green_field(table: BallTable, weights: Iterable, order: int,
                r_values: Sequence[float]) -> dict:
    """Accumulate G(e, g | r) = sum_n r^n mu^{*n}(g) over the whole table.

    Returns {"final": {r: array}, "e_series": list mu^{*n}(e),
    "last_levels": [(t, mu^{*t}) for the last three t]} computed in one DP
    pass; the e_series gives the (radius-truncated) return weights, and the
    last levels, kept once for every r, feed per-element tail estimates
    through their terms (r ** t) * mu^{*t}.
    """
    rs = list(r_values)
    acc = {r: np.zeros(table.size) for r in rs}
    e_series: list[float] = []
    last_levels: list[tuple[int, np.ndarray]] = []
    spare = np.empty(table.size)  # r^t mu^{*t} on the prefix, for every r and t
    for t, (w, hi) in enumerate(levels(table, weights, order)):
        e_series.append(float(w[0]))
        term = spare[:hi]
        for r in rs:
            np.multiply(w[:hi], r ** t, out=term)
            acc[r][:hi] += term
        if t >= order - 2:
            last_levels.append((t, w))
    return {"final": acc, "e_series": e_series, "last_levels": last_levels}


def absorbed_profile(table: BallTable, weights: Iterable, absorb_ids: np.ndarray,
                     horizon: int) -> np.ndarray:
    """First-entrance profile into the absorbing id set.

    Runs the walk from e, removing mass that lands on `absorb_ids` at each
    step n >= 1 and recording it: profile[n - 1, i] is the mass absorbed at
    absorb_ids[i] at time n.
    """
    absorb_ids = np.asarray(absorb_ids, dtype=np.int64)
    prof = np.zeros((horizon, len(absorb_ids)))
    for t, (w, _) in enumerate(levels(table, weights, horizon)):
        if t:
            prof[t - 1] = w[absorb_ids]
            w[absorb_ids] = 0.0  # in place: the next step starts without it
    return prof
