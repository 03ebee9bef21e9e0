"""Interned Cayley-ball tables and vectorized convolution dynamics.

This is the workhorse behind exact convolution powers, Green evaluations
and first-return kernels.  Elements reachable from e inside a word-radius
cap are interned once into a trie of (parent id, syllable code) rows,
grown one breadth-first layer at a time with numpy sort and search,
together with the support adjacency; every random-walk computation is
then a sequence of level steps over flat weight arrays, each one gather
and one in-order scatter-add (`np.add.at`) per support column, so every
element sums its incoming weight in support order.

`levels` is the one level driver: every DP over a table (return numbers,
Green fields, absorbed profiles, distributions) is a loop over the levels
mu^{*t}, t = 0..n, that it yields.  Each level comes with an exclusive id
bound hi, zero from hi on: level t lives within t support steps of e, and
the breadth-first ids number those elements first, so a step, a pairing dot
or a field update touches only the prefix [0, hi).  A caller may only zero
entries of a yielded level in place; the next step starts from the edited
level.  `return_bound` is the one pruning rule for return numbers.

Exactness: the weights choose the number type of the levels.  An object
array of Python ints gives Python-int levels, exact at any size; other
weights give float64 levels, exact for integers below 2^53
(`exact_capacity`).  Within that capacity the exact pairing cuts one side
of each dot into integer limbs small enough that every limb's float64 dot
is exact, and combines the limb dots in Python ints.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .groups import FactorElement, FreeProduct, GroupElement

_FLOAT_BITS = 53  # float64 holds every integer below 2^53 exactly
_FLOAT_EXACT_LIMIT = 2.0**_FLOAT_BITS


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its element budget."""


_ZERO = -2  # merge row value: the two syllables cancel
_OUT = -1  # merge row value: the sum is not in the alphabet (or not a merge)
_PASS = 1 << 18  # sources expanded per builder pass; bounds the temporaries
_BLOCK = 1 << 16  # entries per block of an exact dot; bounds its temporaries


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


def _merge_row(group: FreeProduct, codes: dict, slots, y: FactorElement) -> np.ndarray:
    """For each syllable a of `slots` in y's factor: the code of a + y in
    `codes`, _ZERO if it cancels, _OUT if it is missing; _OUT elsewhere."""
    row = np.full(len(slots), _OUT, dtype=np.int32)
    for c, a in enumerate(slots):
        if a is not None and a.factor == y.factor:
            total = group.factor_add(y.factor, a.coords, y.coords)
            row[c] = codes.get(FactorElement(y.factor, total), _OUT) if any(total) else _ZERO
    return row


def _lookup(keys: np.ndarray, kid: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Ids stored under the queried keys of a sorted key array, -1 if absent."""
    if not len(keys):
        return np.full(len(q), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[pos] == q, kid[pos], -1).astype(np.int64)


class BallTable:
    """All elements reachable from e by support steps within a word-radius cap.

    The table is a trie over syllable normal forms: every element but the
    identity is its parent (itself without its last syllable) times one
    syllable of a finite alphabet, and parents have smaller ids.  Ids follow
    the breadth-first discovery order: sources by id, then support index,
    then syllable index inside a multi-syllable step, whose intermediate
    products are interned too.

    Attributes
    ----------
    size : number of elements; id 0 is the identity
    syllables : tuple of FactorElement, the syllable alphabet
    parent, code : per-id int32 arrays; element i is element parent[i] times
        syllables[code[i]] (the identity has parent -1 and the empty code
        len(syllables))
    wl, rel, maxfac, first_f : per-id int arrays (word length, relative
        length, max factor word length over syllables, first syllable factor)
    nbr : (M, K) int32 array; nbr[i, j] = id of element_i * support_j, or -1
        if the product leaves the cap.
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
        self._cols = None
        self._reach: dict[int, int] = {}  # prefix bound -> bound on its one-step image
        self._wl_end: dict[int, int] = {}  # word-length bound -> id bound
        self._inv_perm: np.ndarray | None = None
        self._inv_out: np.ndarray | None = None  # ids whose inverse leaves the table
        self._build(max_elements)

    # -- construction -------------------------------------------------------

    def _build(self, max_elements):
        """Grow the trie breadth first, expanding up to _PASS sources per pass.

        A pass runs the support steps syllable by syllable over all its
        sources at once: each product is a pop to the parent, or a
        (parent, code) key that is looked up among the known elements or
        interned.  New elements are numbered by their first discovery, and
        the pass's keys join the sorted key array at its end.
        """
        cap, stride, fac, slen = self.cap, self._stride, self._fac, self._len
        slots = list(self.syllables) + [None]
        # per support element and syllable: (factor, code or -1 beyond the
        # cap, word length, merge row over the alphabet)
        steps = [
            [(s.factor, self._code.get(s, -1), self.group.factor_word_length(*s),
              _merge_row(self.group, self._code, slots, s)) for s in g.syllables]
            for g in self.support
        ]
        K = len(steps)
        depth = max((len(st) for st in steps), default=0)
        # discovery position of (support j, syllable k) within one source
        offset = np.cumsum([0] + [len(st) for st in steps])
        span = int(offset[-1])

        parent = np.full(1, -1, dtype=np.int32)
        code = np.full(1, stride - 1, dtype=np.int32)
        wl, rel, maxfac = (np.zeros(1, dtype=np.int32) for _ in range(3))
        first_f = np.zeros(1, dtype=np.int8)
        per_id = (parent, code, wl, rel, maxfac, first_f)
        nbr = np.empty((0, K), dtype=np.int32)
        keys = np.empty(0, dtype=np.int64)
        kid = np.empty(0, dtype=np.int32)

        def check_budget(count):
            if max_elements is not None and count > max_elements:
                raise BudgetExceededError(f"ball table exceeded {max_elements} elements")

        def multiply(c, step):
            """Products of the ids c (-1: dead) with one syllable per column:
            the ids known at once (pops to the parent, else -1), the mask of
            products to look up, and their parents, codes and word lengths."""
            f, t, tlen, rows = (np.array(x, dtype=np.int32) for x in zip(*step))
            alive = c >= 0
            c = np.where(alive, c, 0)
            last = code[c]
            merge = alive & (fac[last] == f)
            m = rows[np.arange(len(f)), last]
            par = np.where(merge, parent[c], c)
            syl = np.where(merge, m, t)
            w = np.where(merge, wl[c] - slen[last] + slen[np.maximum(m, 0)], wl[c] + tlen)
            look = alive & (syl >= 0) & (w <= cap)
            return np.where(merge & (m == _ZERO), par, -1), look, par[look], syl[look], w[look]

        check_budget(1)
        n, lo = 1, 0
        while lo < n:
            hi, start = min(n, lo + _PASS), n
            cur = np.repeat(np.arange(lo, hi, dtype=np.int32)[:, None], K, axis=1)
            pos_min = np.empty(0, dtype=np.int64)  # first discovery of each new element
            for k in range(depth):
                js = [j for j in range(K) if len(steps[j]) > k]
                res, look, lpar, lsyl, lw = multiply(cur[:, js], [steps[j][k] for j in js])
                uq, first, inv = np.unique(lpar.astype(np.int64) * stride + lsyl,
                                           return_index=True, return_inverse=True)
                got = _lookup(keys, kid, uq)
                if n > start:  # a later syllable can meet this pass's new elements
                    pkeys = parent[start:n].astype(np.int64) * stride + code[start:n]
                    order = np.argsort(pkeys)
                    got = np.where(got >= 0, got,
                                   _lookup(pkeys[order], start + order, uq))
                new = np.flatnonzero(got < 0)
                new = new[np.argsort(first[new], kind="stable")]
                check_budget(n + len(new))
                got[new] = np.arange(n, n + len(new))
                cell = first[new]
                p, s = lpar[cell], lsyl[cell]
                for a in per_id:
                    a.resize(n + len(new), refcheck=False)
                parent[n:] = p
                code[n:] = s
                wl[n:] = lw[cell]
                rel[n:] = rel[p] + 1
                maxfac[n:] = np.maximum(maxfac[p], slen[s])
                first_f[n:] = np.where(p == 0, fac[s], first_f[p])
                n += len(new)
                res[look] = got[inv]
                cur[:, js] = res
                if depth > 1:
                    # stage by stage is not discovery order: keep each new
                    # element's first (source, support, syllable) position
                    rows_at, cols_at = np.nonzero(look)
                    pos = rows_at * span + offset[js][cols_at] + k
                    pos_min = np.concatenate(
                        [pos_min, np.full(len(new), np.iinfo(np.int64).max)])
                    hit = res[look] >= start
                    np.minimum.at(pos_min, res[look][hit] - start, pos[hit])
            if depth > 1:
                order = np.argsort(pos_min, kind="stable")
                if (order != np.arange(len(order))).any():
                    self._renumber(per_id, cur, start, order)
            nbr.resize((hi, K), refcheck=False)
            nbr[lo:] = cur
            lk = parent[start:].astype(np.int64) * stride + code[start:]
            order = np.argsort(lk)
            lk = lk[order]
            at = np.searchsorted(keys, lk)
            keys = np.insert(keys, at, lk)
            kid = np.insert(kid, at, (start + order).astype(np.int32))
            lo = hi
        self.size = n
        self.parent, self.code, self.wl, self.rel, self.maxfac, self.first_f = per_id
        self.nbr = nbr
        self._keys, self._kid = keys, kid

    @staticmethod
    def _renumber(per_id, cur, start, order):
        """Renumber the pass's new elements (ids from `start`) so that
        new id start + r goes to the element order[r]."""
        new_id = np.empty(len(order), dtype=np.int64)
        new_id[order] = np.arange(start, start + len(order))
        for a in per_id:
            a[start:] = a[start:][order]
        parent = per_id[0][start:]
        moved = parent >= start
        parent[moved] = new_id[parent[moved] - start]
        moved = cur >= start
        cur[moved] = new_id[cur[moved] - start]

    def columns(self):
        """Per-support compacted adjacency: (source ids, target ids) with the
        out-of-cap edges dropped, contiguous for the DP inner loop."""
        if self._cols is None:
            cols = []
            for j in range(len(self.support)):
                tgt = self.nbr[:, j]
                ok = tgt >= 0
                src = np.nonzero(ok)[0].astype(np.int64)
                cols.append((src, tgt[ok].astype(np.int64)))
            self._cols = cols
        return self._cols

    def reach(self, h: int) -> int:
        """Exclusive id bound on the ids [0, h) and their one-step images:
        max(h, 1 + max(nbr[:h])).  Holds for any id order; tight for the
        breadth-first one."""
        if h >= self.size:
            return self.size
        r = self._reach.get(h)
        if r is None:
            r = self._reach[h] = max(h, 1 + int(self.nbr[:h].max(initial=-1)))
        return r

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
        """Ids of element ids[i] times syllables[codes[i]]; -1 if absent or
        if ids[i] is -1.  The keys are searched in sorted order."""
        q = ids.astype(np.int64) * self._stride + codes
        order = np.argsort(q)
        got = np.empty(len(q), dtype=np.int64)
        got[order] = _lookup(self._keys, self._kid, q[order])
        return np.where((codes >= 0) & (ids >= 0), got, -1)

    def _child_at(self, i: int, c: int) -> int:
        """Scalar _child; codes outside the alphabet give -1."""
        if not 0 <= c < self._stride - 1:
            return -1
        key = i * self._stride + c
        at = int(self._keys.searchsorted(key))
        return int(self._kid[at]) if at < len(self._keys) and self._keys[at] == key else -1

    def id_of(self, g: GroupElement) -> int | None:
        i = 0
        for s in g.syllables:
            i = self._child_at(i, self._code.get(s, -1))
            if i < 0:
                return None
        return i

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
        table while the inverse stays in; such elements walk their own
        syllables back from the last one instead."""
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
                lost = ids[t < 0]  # before the next level reads their inverses
                inv[lost] = self._walk_inverse(lost, neg)
            self._inv_perm = inv
        return self._inv_perm

    def _walk_inverse(self, ids: np.ndarray, neg: np.ndarray) -> np.ndarray:
        """Ids of the inverses of ids (-1 if absent): pass k appends the
        inverse of each element's k-th last syllable to its inverse's
        prefix."""
        inv = np.zeros(len(ids), dtype=np.int64)
        rest = ids.astype(np.int64)  # the prefix of each element still to invert
        live = np.flatnonzero(self.rel[ids] > 0)
        while live.size:
            r = rest[live]
            got = self._child(inv[live], neg[self.code[r]])
            inv[live] = got
            rest[live] = self.parent[r]
            live = live[(got >= 0) & (self.parent[r] > 0)]
        return inv

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
        mask = (self.rel == 0) | ((self.rel == 1) & (self.first_f == k))
        return np.nonzero(mask)[0].astype(np.int32)


def pair_ids(table: BallTable, elems: Sequence[GroupElement]) -> np.ndarray:
    """Table ids of g_i^-1 g_j for all pairs of a prefix-closed element list
    (each element's syllable prefix is in the list); -1 where the product
    lies outside the table.

    Column j is the column of g_j's prefix times g_j's last syllable: a pop,
    a merge or an append on the trie, for all rows at once.  The column of
    e holds the inverses g_i^-1; those missing from the table get extra ids
    >= table.size together with their prefixes, since later columns can pop
    back through them into the table.  A merge or append that lands outside
    the table stays outside: the rest of g_j only appends.
    """
    size, group = table.size, table.group
    index = {g.syllables: j for j, g in enumerate(elems)}
    if () not in index or any(g.syllables[:-1] not in index for g in elems):
        raise ValueError("pair_ids needs a prefix-closed element list")
    slots = list(table.syllables) + [None]
    codes = dict(table._code)  # extended by the inverses' missing syllables
    extra: dict[tuple[int, int], int] = {}  # (parent, code) -> extra id
    pair = np.full((len(elems), len(elems)), -1, dtype=np.int64)
    for i, g in enumerate(elems):
        node = 0
        for s in group.inverse(g).syllables:
            c = codes.setdefault(s, len(slots))
            if c == len(slots):
                slots.append(s)
            child = table._child_at(node, c)
            node = child if child >= 0 else extra.setdefault((node, c), size + len(extra))
        pair[i, index[()]] = node
    extra_parent, extra_code = np.array(list(extra), dtype=np.int64).reshape(-1, 2).T
    slot_fac = np.array([0 if s is None else s.factor for s in slots], dtype=np.int64)
    merge_rows: dict[FactorElement, np.ndarray] = {}
    for j in sorted(range(len(elems)), key=lambda j: len(elems[j].syllables)):
        syls = elems[j].syllables
        if not syls:
            continue
        y = syls[-1]
        row = merge_rows.get(y)
        if row is None:
            row = merge_rows[y] = _merge_row(group, table._code, slots, y)
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
        col = np.where(merge & (m == _ZERO), up, -1)
        look = ok & (c >= 0) & (base >= 0) & (base < size)
        col[look] = table._child(base[look], c[look])
        pair[:, j] = col
    pair[pair >= size] = -1
    return pair


# -- DP drivers ----------------------------------------------------------------


def exact_capacity(denominator: int, steps: int) -> bool:
    """True when integerized weights stay float64-exact for this many steps."""
    return denominator ** (steps + 1) < 2**_FLOAT_BITS


def _step(table: BallTable, w: np.ndarray, col_weights, bound: int | None) -> np.ndarray:
    """One level of the DP: nw[g s_j] += w[g] * col_weights[j] over the table.

    w is the prefix [0, hi) of a level that is zero from hi = len(w) on (the
    whole level when hi = table.size); the new level is table-sized and zero
    from table.reach(hi) on.  Every target sums its contributions in
    support-column order, starting from 0: right multiplication by s_j is
    injective, so a column hits each target at most once, and `np.add.at`
    adds into nw in edge order.  The identity column (support element e,
    first when present) is the identity map, so it starts the sum as
    w * c_0.  A column's sources ascend, so its edges from the prefix are a
    prefix of it; the edges left out would add exact zeros.  A bound only
    zeroes the targets beyond it, after the step.  No temporary is larger
    than one column.
    """
    hi = len(w)
    cols = table.columns()
    first = 1 if table.support and not table.support[0].syllables else 0
    nw = np.zeros(table.size, dtype=w.dtype)
    if first:
        np.multiply(w, col_weights[0], out=nw[:hi])
    for (src, tgt), cj in zip(cols[first:], col_weights[first:]):
        if cj == 0:
            continue
        n = int(src.searchsorted(hi))
        v = w[src[:n]]
        v *= cj
        np.add.at(nw, tgt[:n], v)
    # the table cap already enforces any bound at least as large
    if bound is not None and bound < table.cap:
        top = table.reach(hi)
        nw[:top][table.wl[:top] > bound] = 0  # an int, as in pull_back
    return nw


def return_bound(t: int, n_max: int, d_mu: int) -> int | None:
    """Word-length bound on level t of a DP that only feeds returns to e by
    step n_max: a state beyond (n_max - t) * d_mu cannot get back in time.
    None (no pruning) while t <= n_max - t, where no state after t steps is
    longer than t * d_mu anyway."""
    return None if t <= n_max - t else (n_max - t) * d_mu


def levels(table: BallTable, weights: Iterable, n_steps: int,
           bound: Callable[[int], int | None] | None = None
           ) -> Iterator[tuple[np.ndarray, int]]:
    """The levels (mu^{*t}, hi_t), t = 0..n_steps, of the walk from e over
    the table.

    Each level is a table-sized array that is zero from the id hi_t on:
    hi_0 = 1, and hi_t = min(reach(hi_{t-1}), wl_end(bound(t))), since a
    step only moves mass from [0, hi) into [0, reach(hi)) and a bound zeroes
    every id longer than it.  Each step reads only the prefix [0, hi).
    `weights` are the support weights in support order: an object array of
    Python ints gives Python-int levels, and any other weights are turned
    into floats once.  Level t >= 1 is pruned to word length <= bound(t)
    when a bound is given.  A caller may zero entries of a yielded level in
    place, and the next step starts from the edited level; any other edit
    breaks the bound.
    """
    exact = isinstance(weights, np.ndarray) and weights.dtype == object
    w = np.zeros(table.size, dtype=object if exact else float)  # object zeros are int 0
    w[0] = 1
    hi = 1
    yield w, hi
    cols = list(weights) if exact else [float(c) for c in weights]
    for t in range(1, n_steps + 1):
        b = None if bound is None else bound(t)
        w = _step(table, w[:hi], cols, b)
        hi = table.reach(hi) if b is None else min(table.reach(hi), table.wl_end(b))
        yield w, hi


def _exact_dots(a: np.ndarray, bs: Sequence[np.ndarray]) -> list[int]:
    """The dot product of a with each b of bs, exactly, as Python ints.

    Every entry must be a non-negative integer below 2^53, and every sum(b)
    below 2^53.  a is cut into k-bit limbs with k = 53 - bitlen(max sum(b)),
    at least 1, so each limb's dot with b is at most (2^k - 1) sum(b) < 2^53
    and float64 gets it exactly in any summation order; the limb dots are
    shifted back and added in Python ints.  Works in blocks of _BLOCK
    entries, so no temporary is larger than a block.
    """
    # a float sum of non-negative integers reaches 2^53 iff the exact one does
    top = max((b.sum() for b in bs), default=0.0)
    if top >= _FLOAT_EXACT_LIMIT:
        raise OverflowError("dot operand sum reaches 2^53")
    k = max(1, _FLOAT_BITS - int(top).bit_length())
    base, scale = 2.0**k, 2.0**-k
    shifts = range(0, int(a.max(initial=0)).bit_length(), k)
    out = [0] * len(bs)
    for lo in range(0, len(a), _BLOCK):
        hi = a[lo:lo + _BLOCK]
        blocks = [b[lo:lo + _BLOCK] for b in bs]
        for s in shifts:
            limb = hi
            if s + k < shifts.stop:  # split off the low k bits; scaling by 2^+-k is exact
                hi = np.floor(limb * scale)
                limb = limb - hi * base
            for i, b in enumerate(blocks):
                out[i] += int(limb @ b) << s
    return out


def pruned_power_sequence(table: BallTable, int_weights: Sequence[int], n_max: int,
                          d_mu: int, symmetric: bool) -> list[int]:
    """Integer numerators of q_n = mu^{*n}(e), n = 0..n_max, for integerized
    weights (q_n = result[n] / D^n).

    Runs the forward half of the `return_bound`-pruned DP and pairs the two
    halves through each split point; exact by the path-splitting identity.
    Each pairing dot takes the pulled-back level t with level t - 1 or t,
    over the prefix of the level it pairs with: the pulled-back level is
    not zero beyond its own level's bound.  Level t sums to at most D^t:
    within `exact_capacity` the levels are float64 and the dots
    `_exact_dots`, beyond it both are Python ints.
    """
    half = (n_max + 1) // 2
    fits = exact_capacity(sum(int_weights), half)
    weights = int_weights if fits else np.array(int_weights, dtype=object)
    dots = [1] + [0] * n_max
    for t, (w, hi) in enumerate(levels(table, weights, half,
                                       lambda t: return_bound(t, n_max, d_mu))):
        if t:
            side = w if symmetric else table.pull_back(w)
            for n, (b, h) in zip((2 * t - 1, 2 * t), ((prev, prev_hi), (w, hi))):
                if n <= n_max:
                    dots[n] = _exact_dots(side[:h], [b[:h]])[0] if fits else int(side[:h] @ b[:h])
        prev, prev_hi = w, hi
    return dots


def green_field(table: BallTable, weights: Iterable, order: int,
                r_values: Sequence[float]) -> dict:
    """Accumulate G(e, g | r) = sum_n r^n mu^{*n}(g) over the whole table.

    Returns {"final": {r: array}, "e_series": list mu^{*n}(e),
    "last_terms": {r: [three term arrays]}} computed in one DP pass; the
    e_series gives the (radius-truncated) return weights and the last term
    arrays feed per-element tail estimates.
    """
    rs = list(r_values)
    acc = {r: np.zeros(table.size) for r in rs}
    e_series: list[float] = []
    last_terms: dict[float, list] = {r: [] for r in rs}
    scratch = np.empty(table.size)  # r^t mu^{*t} on the prefix, for every r and t
    for t, (w, hi) in enumerate(levels(table, weights, order)):
        e_series.append(float(w[0]))
        term = scratch[:hi]
        for r in rs:
            np.multiply(w[:hi], r ** t, out=term)
            acc[r][:hi] += term
            if t >= order - 2:
                last_terms[r].append((r ** t) * w)
    return {"final": acc, "e_series": e_series, "last_terms": last_terms}


def absorbed_profile(table: BallTable, weights: Iterable, absorb_ids: np.ndarray,
                     horizon: int) -> tuple[np.ndarray, list[float]]:
    """First-entrance profile into the absorbing id set.

    Runs the walk from e, removing mass that lands on `absorb_ids` at each
    step n >= 1 and recording it.  Returns (profile, escaped) where
    profile[n - 1, i] is the mass absorbed at absorb_ids[i] at time n and
    escaped[t] is the live (non-absorbed) mass after t steps.
    """
    absorb_ids = np.asarray(absorb_ids, dtype=np.int64)
    prof = np.zeros((horizon, len(absorb_ids)))
    live_mass = []
    for t, (w, _) in enumerate(levels(table, weights, horizon)):
        if t:
            prof[t - 1] = w[absorb_ids]
            w[absorb_ids] = 0.0  # in place: the next step starts without it
            # the whole level: a shorter pairwise sum rounds differently
            live_mass.append(float(w.sum()))
    return prof, live_mass
