"""Multiplicativity audits and the return-exponent fit.

Run:  python demos/06_audits_and_exponents.py   (under a second)
"""

from freewalk import free_group, lazy_walk, return_sequence
from freewalk.ancona import geodesic_pairs, ratio_audit, sample_triples, triangle_audit
from freewalk.green import resolve_r, spectral_radius
from freewalk.tauberian import (
    SequenceSpec,
    check_monotone_lemma,
    check_partial_sums_vs_laplace,
    fit_llt_exponent,
)

F2 = free_group(2)
lazy = lazy_walk(F2)
rs = [resolve_r(lazy, f, n_max=16) for f in (0.3, 0.6)]

# the triangle bound holds for every measure; the audit carries the
# truncation slack explicitly
triples = sample_triples(F2, 2, 2, 100, seed=5)
tri = triangle_audit(lazy, triples, rs, order=32, radius=10, n_max_spectral=16)
print(f"triangle audit: {tri.violations} violations over "
      f"{tri.triples_checked} checks (worst slack {tri.worst_signed_slack:.1e})")

# along relative geodesics the Green function is roughly multiplicative
rep = ratio_audit(lazy, geodesic_pairs(F2, 2, 2), rs, order=32, radius=10,
                  n_max_spectral=16)
print(f"geodesic ratios: {len(rep.rows)} samples, range "
      f"[{rep.overall_min:.4f}, {rep.overall_max:.4f}], "
      f"{rep.lower_bound_violations} lower-bound violations")

# the weak Tauberian comparison, on a sequence with a known exponent
seq = SequenceSpec(tuple((k + 1.0) ** 0.5 for k in range(3000)))
tb = check_partial_sums_vs_laplace(seq, 1.5,
                                   [1 - 2.0 ** (-j) for j in range(3, 8)],
                                   [2 ** j for j in range(4, 11)])
print(f"sqrt growth vs beta=3/2: consistent={tb.consistent}, "
      f"partial spread {tb.partial_spread}")

mono = check_monotone_lemma(
    SequenceSpec(tuple((k + 1.0) ** (-1.5) for k in range(3000))), 0.5)
print(f"monotone tail lemma at beta=1/2: hypothesis {mono.hypothesis_ok}, "
      f"conclusion bounded {mono.conclusion_bounded}")

# fitting the return exponent of the lazy walk
q = return_sequence(lazy, 20)
est = spectral_radius(lazy, 20)
fit = fit_llt_exponent(SequenceSpec(tuple(float(v) for v in q.values)),
                       est.point, (8, 20))
print(f"fitted return exponent alpha = {fit.alpha:.3f} "
      f"(linear trend {fit.linear_trend:.1e}; small trend means R-hat fits)")
