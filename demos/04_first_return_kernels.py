"""First-return kernels to the factors and the classification.

Run:  python demos/04_first_return_kernels.py   (a few seconds)
"""

from freewalk import free_group, lazy_walk
from freewalk.green import resolve_r
from freewalk.parabolic import (
    classify,
    equadiff_table,
    first_return_kernel,
    kernel_radius,
    parabolic_green,
    same_green_residual,
)

F2 = free_group(2)
lazy = lazy_walk(F2)
r = resolve_r(lazy, 0.5, n_max=16)

# the kernel's e-row: where does the walk first come back to <a>?
kern = first_return_kernel(lazy, 1, r, horizon=24, exploration_radius=10)
top = sorted(kern.nu.items(), key=lambda kv: -kv[1])[:5]
print(f"first-return kernel to <a> at r = {r:.4f}: mass {kern.mass:.6f}")
for sigma, w in top:
    print(f"  returns at {F2.render(sigma)}: {w:.6f}")

# the kernel's Green function at t=1 reproduces the whole-group value
rep = same_green_residual(lazy, 1, r, order=48, radius=10,
                          kernel_order=256, horizon=48, h_ball=32)
print(f"G_k(e,e|1) = {rep['parabolic']:.9f} vs G(e,e|r) = "
      f"{rep['whole_group']:.9f} (residual {rep['residual']:.1e})")

# at r = R-hat the kernel radius stays above 1 (no spectral degeneracy here)
r_hat = resolve_r(lazy, 1.0, n_max=20)
kr = kernel_radius(lazy, 1, r_hat, order=128, horizon=48,
                   exploration_radius=10, h_ball=32)
print(f"parabolic radius at R-hat: {kr.estimate:.4f} "
      f"(1/mass cross-check {kr.mass_reciprocal:.4f})")

res = classify(lazy, n_max=20, order=96, radius=10, horizon=48,
               kernel_order=128, h_ball=32, ladder=(1, 2, 4))
print(f"divergent: {res.divergent} (fitted blow-up exponent "
      f"{res.divergence_exponent:.2f})")
print("per-factor:", [(f.factor, f.degenerate, f.moments.verdict)
                      for f in res.factors])
print("spectrally positive-recurrent:", res.spectrally_positive_recurrent)

rows = equadiff_table(lazy, [0.5, 0.7, 0.9], n_max=20, order=64, radius=10,
                      horizon=48, kernel_order=128, h_ball=32)
print("G''/(G')^3 against 1 + sum_k G''_k:")
for row in rows:
    print(f"  r = {row.r:.4f}: lhs {row.lhs:.4f}, rhs {row.rhs:.4f}, "
          f"ratio {row.ratio:.4f}")
