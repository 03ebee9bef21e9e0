"""Exact convolution powers and the spectral radius.

Run:  python demos/02_walks_and_spectral_radius.py   (under a second)
"""

import math

from freewalk import free_group, lazy_walk, return_sequence, simple_walk, validate
from freewalk.green import spectral_radius

F2 = free_group(2)
walk = simple_walk(F2)

print("simple walk on F2:", validate(walk, depth=4))

# exact return probabilities; q_2 = 1/4 and q_4 = 7/64 can be checked by
# counting closed walks on the 4-regular tree by hand
q = return_sequence(walk, 16)
for n in (0, 2, 4, 6, 8):
    print(f"q_{n} = {q.values[n]}")

est = spectral_radius(walk, n_max=16)
print(f"1/R point estimate {est.rho_point:.6f}  "
      f"(2 sqrt(3)/4 = {math.sqrt(3)/2:.6f})")
print("Fekete diagnostics q_2n^(1/2n):",
      [round(v, 5) for v in est.diagnostics])
print("certified upper bound on R:", est.certified_upper)

# the lazy walk is aperiodic and shares the tree geometry
lazy = lazy_walk(F2)
est_lazy = spectral_radius(lazy, n_max=16)
print(f"lazy walk: 1/R = {est_lazy.rho_point:.6f} "
      f"(exact value 1/2 + sqrt(3)/4 = {0.5 + math.sqrt(3)/4:.6f})")
