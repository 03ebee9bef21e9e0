"""Independent oracles for nearest-neighbour walks on the free group F2.

Nothing here touches the freewalk engine: the return probabilities come
from the first-passage series of a walk on a tree and the spectral radius
from a one-dimensional convex minimisation (Woess, *Random Walks on
Infinite Graphs and Groups*, §9, nearest-neighbour walks on free groups).

A walk is given by its integer weights over a common denominator D as a
dict with keys "e" (holding) and the four generators "a", "A", "b", "B"
(capitals are inverses).
"""

from __future__ import annotations

import math
from fractions import Fraction

GENERATORS = ("a", "A", "b", "B")
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def return_probabilities(weights: dict[str, int], denom: int, n_max: int) -> list[Fraction]:
    """Exact q_n = mu^{*n}(e), n = 0..n_max, from the first-passage series.

    The Cayley graph of F2 is a tree, so a first passage from e to a
    generator s either steps to s, holds, or steps to another neighbour t,
    returns from it (first passage to t^-1) and then passes to s:

        F_s = z p_s + z h F_s + z sum_{t != s} p_t F_{t^-1} F_s
        U   = z h + z sum_t p_t F_{t^-1},   G = 1 / (1 - U).

    Coefficients are carried as integers scaled by D^n, so the recursion is
    exact and each coefficient of z^n uses only lower ones.
    """
    h = weights["e"]
    F = {s: [0] * (n_max + 1) for s in GENERATORS}
    for n in range(1, n_max + 1):
        for s in GENERATORS:
            acc = h * F[s][n - 1] + (weights[s] if n == 1 else 0)
            for t in GENERATORS:
                if t == s:
                    continue
                back = F[INVERSE[t]]
                # F[.][0] == 0, so only i, j >= 1 with i + j = n - 1 contribute
                acc += weights[t] * sum(back[i] * F[s][n - 1 - i] for i in range(1, n - 1))
            F[s][n] = acc
    U = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        U[n] = (h if n == 1 else 0) + sum(weights[t] * F[INVERSE[t]][n - 1] for t in GENERATORS)
    G = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        G[n] = sum(U[k] * G[n - k] for k in range(1, n + 1))
    return [Fraction(g, denom**n) for n, g in enumerate(G)]


def spectral_radius(weights: dict[str, int], denom: int) -> float:
    """rho = h + min_{t >= 0} [2 sum_i sqrt(t^2 + p_i p_i^-1) - 2 t] on F2.

    The bracket is Woess's formula for a nearest-neighbour walk on a free
    group with 2 free generators (M = 4 directed generators, so the linear
    term is (M - 2) t).  It is convex in t; a golden-section search finds
    the minimum to machine precision.  Returns the radius of convergence
    R = 1 / rho of the Green function.
    """
    h = weights["e"] / denom
    prods = [weights["a"] * weights["A"] / denom**2, weights["b"] * weights["B"] / denom**2]

    def f(t: float) -> float:
        return 2.0 * sum(math.sqrt(t * t + p) for p in prods) - 2.0 * t

    lo, hi = 0.0, 1.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        m1 = hi - g * (hi - lo)
        m2 = lo + g * (hi - lo)
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    rho = h + f(0.5 * (lo + hi))
    return 1.0 / rho
