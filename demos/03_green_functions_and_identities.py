"""Green functions, derivatives, and the combinatorial identities.

Run:  python demos/03_green_functions_and_identities.py   (a few seconds)
"""

from freewalk import free_group, lazy_walk
from freewalk.green import (
    derivative_identity_residual,
    fk_coefficients,
    fk_identity_residual,
    green_value,
    resolve_r,
    sphere_sums,
)

F2 = free_group(2)
lazy = lazy_walk(F2)
r = resolve_r(lazy, 0.5, n_max=16)  # half the estimated radius of convergence

g = green_value(lazy, F2.identity, F2.identity, r, order=32, radius=10)
print(f"G(e,e|{r:.4f}) = {g.value:.9f}  (tail estimate {g.tail_estimate:.1e})")

# d/dr(r G) equals the two-sided spatial sum of Green products; truncating
# both sides leaves a residual that dies as the budgets grow
for trunc, order, radius in [((2, 2), 8, 6), ((4, 4), 16, 10), ((6, 6), 24, 12)]:
    rep = derivative_identity_residual(lazy, r, trunc, order, radius)
    print(f"first-derivative identity at {trunc}, order {order}: "
          f"residual {rep.residual:.2e}")

# the iterated derivative expansions carry fixed integer coefficients
print("F_2 coefficients:", fk_coefficients(2))
print("F_3 coefficients:", fk_coefficients(3))
rep = fk_identity_residual(lazy, 2, r, (3, 2), order=20, radius=10)
print(f"k=2 identity residual {rep.residual:.2e} (left {rep.left:.6f})")

# sphere sums of H(e,g|r) = G(e,g|r) G(g,e|r) stay bounded in the sphere index
tab = sphere_sums(lazy, r, 6, 4, order=32, radius=12)
print("sphere sums u_0..u_6:", [round(v, 6) for v in tab.values])
