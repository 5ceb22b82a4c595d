"""Edge law of an arithmetic spectrum perturbed by GUE noise.

The rescaled top eigenvalue of diag(lam1, lam1 - D, lam1 - 2D, ...) plus
a GUE matrix converges to a Gamma-ratio kernel determinant.  The D = 2
case also gives the top log-eigenvalue of Brownian motion on
positive-definite matrices through the threshold map
n - 1 + (a + log(n-1))/2.

Run:  python3 demos/07_arithmetic_spectrum.py
"""

import numpy as np

from noncolliding import (RngStream, cdf_arithmetic_limit, empirical_cdf, k_delta,
                          sample_arith_max)

print("== kernel sanity ==")
print("K_2(0, 1) = %.12f" % k_delta(2.0, 0.0, 1.0))

print("\n== the limit CDF candidate ==")
grid = np.linspace(-3.0, 4.0, 8)
vals = [cdf_arithmetic_limit(2.0, a) for a in grid]
for a, f in zip(grid, vals):
    print("F(%5.1f) = %.8f" % (a, f))
print("monotone:", bool(np.all(np.diff(vals) > 0)))

print("\n== finite-n sampling at n = 64 (2000 draws) ==")
_, resc = sample_arith_max(64, 2.0, 0.0, stream=RngStream(11), samples=2000)
probe = np.array([-2.0, 0.0, 2.0])
emp = empirical_cdf(resc, probe)
for a, e in zip(probe, emp):
    print("a=%5.1f: empirical %.4f   limit %.6f" % (a, e, cdf_arithmetic_limit(2.0, a)))

print("\n== threshold map for the positive-definite Brownian motion ==")
n = 64
for a in probe:
    print("a=%5.1f -> gamma_1 threshold %.6f" % (a, n - 1 + (a + np.log(n - 1)) / 2))
