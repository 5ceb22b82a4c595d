"""Tour of the numerical substrate: contours, Gamma, Airy, eigenvalues.

Run:  python3 demos/01_special_functions.py
"""

import numpy as np

from noncolliding import (airy_function, complex_gamma, heat_kernel,
                          hermitian_eigen_max, make_contour, semi_infinite_rule)

print("== contour quadrature ==")
vert = make_contour("vertical", offset=1.0, half_height=10.0, nodes=400)
gauss = vert.integrate(lambda z: np.exp(z ** 2 / 2))
print("vertical Gaussian integral vs i sqrt(2 pi):", gauss, 1j * np.sqrt(2 * np.pi))

rule = semi_infinite_rule(2.0, n=64, length=40.0)
print("semi-infinite rule: integral of e^{-(x-2)} =",
      np.sum(rule.weights * np.exp(-(rule.nodes - 2.0))))

print("\n== complex Gamma ==")
print("Gamma(1/2)^2 / pi =", complex_gamma(0.5) ** 2 / np.pi)
v = 1.0
print("|Gamma(1+i)|^2 vs pi/sinh(pi):",
      abs(complex_gamma(1 + 1j)) ** 2, np.pi / np.sinh(np.pi))

print("\n== Airy function by wedge-contour quadrature ==")
for x in (-10.0, -1.0, 0.0, 1.0, 10.0):
    print("Ai(%6.1f) = %.15g" % (x, airy_function(x)))
h = 1e-3
x = 2.0
fd = (airy_function(x + h) - 2 * airy_function(x) + airy_function(x - h)) / h ** 2
print("ODE residual Ai'' - x Ai at x=2:", fd - x * airy_function(x))

print("\n== heat kernel and eigenvalues ==")
print("heat_kernel(1,0,0) =", heat_kernel(1.0, 0.0, 0.0), "= 1/sqrt(2 pi)")
rng = np.random.default_rng(0)
A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
M = (A + A.conj().T) / 2
print("largest eigenvalue of a random 5x5 Hermitian:", hermitian_eigen_max(M))
