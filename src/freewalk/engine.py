"""Interned Cayley-ball tables and vectorized convolution dynamics.

This is the workhorse behind exact convolution powers, Green evaluations
and first-return kernels.  Elements reachable from e inside a word-radius
cap are interned once into a trie of (parent id, syllable code) rows,
grown one breadth-first layer at a time with numpy sort and search,
together with the support adjacency; every random-walk computation is
then a sequence of level steps over flat weight arrays, each one gather
and one in-order scatter-add (`np.add.at`) per support column, so every
element sums its incoming weight in support order.

Exactness: integer-valued weights are carried in float64, which is exact
while every value stays below 2^53; callers must check `exact_capacity`
first.  Reductions that can exceed 2^53 (pairing dot products) are done in
Python big ints.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

import numpy as np

from .groups import FactorElement, FreeProduct, GroupElement

_FLOAT_EXACT_LIMIT = 2.0**53


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its element budget.

    Carries whatever part of the result is already complete.
    """

    def __init__(self, message, partial=None, completed=None):
        super().__init__(message)
        self.partial = partial
        self.completed = completed


_ZERO = -2  # merge row value: the two syllables cancel
_OUT = -1  # merge row value: the sum is not in the alphabet (or not a merge)
_PASS = 1 << 18  # sources expanded per builder pass; bounds the temporaries


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
        self._inv_perm: np.ndarray | None = None
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

        def check_budget(count, completed):
            if max_elements is not None and count > max_elements:
                raise BudgetExceededError(
                    f"ball table exceeded {max_elements} elements", completed=completed
                )

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

        check_budget(1, 0)
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
                check_budget(n + len(new), lo)
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

    # -- element <-> id -------------------------------------------------------

    def _child(self, ids: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Ids of element ids[i] times syllables[codes[i]]; -1 if absent."""
        got = _lookup(self._keys, self._kid, ids.astype(np.int64) * self._stride + codes)
        return np.where(codes >= 0, got, -1)

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

        Pass t appends the inverse of every element's t-th last syllable to
        its inverse's prefix, for all elements at once."""
        if self._inv_perm is None:
            group = self.group
            neg = np.array(
                [self._code.get(FactorElement(f, group.factor_neg(f, c)), -1)
                 for f, c in self.syllables] + [-1],
                dtype=np.int64,
            )
            inv = np.zeros(self.size, dtype=np.int64)
            rest = np.arange(self.size)  # the prefix of each element still to invert
            live = np.nonzero(self.rel > 0)[0]
            while live.size:
                r = rest[live]
                got = self._child(inv[live], neg[self.code[r]])
                inv[live] = got
                rest[live] = self.parent[r]
                live = live[(got >= 0) & (self.parent[r] > 0)]
            self._inv_perm = inv.astype(np.int32)
        return self._inv_perm

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
    return float(denominator) ** (steps + 1) < _FLOAT_EXACT_LIMIT


def _step(table: BallTable, w: np.ndarray, col_weights, bound: int | None) -> np.ndarray:
    """One level of the DP: nw[g s_j] += w[g] * col_weights[j] over the table.

    Every target sums its contributions in support-column order, starting
    from 0: right multiplication by s_j is injective, so a column hits each
    target at most once, and `np.add.at` adds into nw in edge order.  The
    identity column (support element e, first when present) is the identity
    map, so it starts the sum as w * c_0.  Zero-weight sources add exact
    zeros, so a bound only zeroes the targets beyond it, after the full
    step.  No temporary is larger than one column.
    """
    cols = table.columns()
    first = 1 if table.support and not table.support[0].syllables else 0
    nw = w * col_weights[0] if first else np.zeros(table.size)
    for (src, tgt), cj in zip(cols[first:], col_weights[first:]):
        if cj == 0:
            continue
        v = w[src]
        v *= cj
        np.add.at(nw, tgt, v)
    # the table cap already enforces any bound at least as large
    if bound is not None and bound < table.cap:
        nw[table.wl > bound] = 0.0
    return nw


def pruned_power_sequence(table: BallTable, int_weights: Sequence[int], n_max: int,
                          d_mu: int, symmetric: bool) -> list[int]:
    """Integer numerators of q_n = mu^{*n}(e), n = 0..n_max, for integerized
    weights (q_n = result[n] / D^n).

    Runs the forward half of the min(t, n_max - t) * d_mu pruned DP and pairs
    the two halves through each split point; exact by the path-splitting
    identity.
    """
    half = (n_max + 1) // 2
    if not exact_capacity(sum(int_weights), half):
        raise OverflowError("weights exceed float64-exact range; use dict fallback")
    w = np.zeros(table.size)
    w[0] = 1.0
    inv = None if symmetric else table.inverse_perm()
    cur_list = [1] + [0] * (table.size - 1)
    dots = {0: 1}
    cols = [float(c) for c in int_weights]
    for t in range(1, half + 1):
        # states reachable in t steps satisfy the bound automatically while
        # t <= n_max - t; only the final odd-split step can actually prune
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


def float_levels(table: BallTable, weights: Sequence[float], n_steps: int,
                 bound_fn: Callable[[int], int | None] | None = None,
                 on_level: Callable[[int, np.ndarray], None] | None = None) -> np.ndarray:
    """Run n_steps of the float64 level DP; returns the final level.

    `on_level(t, w_t)` observes every level including t = 0.
    """
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


def green_field(table: BallTable, weights: Sequence[float], order: int,
                r_values: Sequence[float], snapshots: Sequence[int] = ()) -> dict:
    """Accumulate G(e, g | r) = sum_n r^n mu^{*n}(g) over the whole table.

    Returns {"final": {r: array}, "snapshots": {order': {r: array}},
    "e_series": list mu^{*n}(e), "last_terms": {r: [three term arrays]}}
    computed in one DP pass; the e_series gives the (radius-truncated)
    return weights and the last term arrays feed per-element tail estimates.
    """
    rs = list(r_values)
    acc = {r: np.zeros(table.size) for r in rs}
    snaps: dict[int, dict[float, np.ndarray]] = {}
    e_series: list[float] = []
    last_terms: dict[float, list] = {r: [] for r in rs}
    want = set(snapshots)

    def observe(t, w):
        e_series.append(float(w[0]))
        for r in rs:
            acc[r] += (r ** t) * w
            if t >= order - 2:
                last_terms[r].append((r ** t) * w)
        if t in want:
            snaps[t] = {r: acc[r].copy() for r in rs}

    float_levels(table, weights, order, on_level=observe)
    return {"final": acc, "snapshots": snaps, "e_series": e_series,
            "last_terms": last_terms}


def absorbed_profile(table: BallTable, weights: Sequence[float], absorb_ids: np.ndarray,
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
    w = np.zeros(table.size)
    w[0] = 1.0
    cols = [float(c) for c in weights]
    for t in range(1, horizon + 1):
        w = _step(table, w, cols, bound=None)
        prof[t - 1] = w[absorb_ids]
        w[absorb_ids] = 0.0
        live_mass.append(float(w.sum()))
    return prof, live_mass
