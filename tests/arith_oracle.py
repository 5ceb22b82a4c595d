"""An independent high-precision oracle for the arith kernel and its CDF, in mpmath.

The zeta side is its exact residues u_k(x) = (-1)^k e^{-(D^2/2) k^2 - kx}/k!, kept down
to 10^-dps of the largest.  The z side is the line Re z = c through the real saddle of
e^{(D^2/2) z^2 - yz}/Gamma(z), the larger root of D^2 c - psi(c) = y when it lies beyond
1 and c = 1 otherwise, integrated by 24-point Gauss-Legendre panels of width min(1, c)
up to where e^{-D^2 t^2/2 + pi t/2} has fallen by 10^-dps.  The working precision
covers the cancellation of the residue sum and of the line (e^{pi^2/(8 D^2)}) with
``digits`` to spare.  The CDF is det(I - G) with G_kl = u_l(a) M_kl, M_kl = (I_k -
I_l)/(l - k) by partial fractions and M_kk = J_k, where I_k and J_k are the line
integrals against 1/(z + k) and 1/(z + k)^2.
"""

import mpmath as mp


def _saddle(delta, y):
    d2 = mp.mpf(delta) ** 2

    def slope(c):
        return d2 * c - mp.digamma(c) - y

    lo = mp.mpf(1)
    while d2 < mp.psi(1, lo):  # walk out to where the slope increases
        lo *= 2
    if slope(lo) >= 0:
        return mp.mpf(1)
    hi = 2 * lo
    while slope(hi) < 0:
        hi *= 2
    return mp.findroot(slope, (lo, hi), solver="anderson")


def _line(delta, y, count):
    """I_k and J_k, k < count: (1/2 pi i) int e^{(D^2/2) z^2 - yz}/(Gamma(z)(z + k)^p) dz."""
    d2, y = mp.mpf(delta) ** 2, mp.mpf(y)
    c = _saddle(delta, y)
    drop = mp.mp.dps * mp.log(10) + 10
    top = (mp.pi / 2 + mp.sqrt(mp.pi ** 2 / 4 + 2 * d2 * drop)) / d2
    nodes, weights = mp.gauss_quadrature(24, "legendre")
    edges = mp.linspace(0, top, int(mp.ceil(top / min(1, c))) + 1)
    I, J = [mp.mpf(0)] * count, [mp.mpf(0)] * count
    for lo, hi in zip(edges[:-1], edges[1:]):
        for x, w in zip(nodes, weights):
            z = c + 1j * ((lo + hi) / 2 + (hi - lo) / 2 * x)
            f = w * (hi - lo) / 2 * mp.exp(d2 / 2 * z * z - y * z) * mp.rgamma(z)
            for k in range(count):
                g = f / (z + k)
                I[k] += g.real
                J[k] += (g / (z + k)).real
    return [v / mp.pi for v in I], [v / mp.pi for v in J]


def _residues(delta, x, digits):
    d2, x = mp.mpf(delta) ** 2, mp.mpf(x)
    logs = [-d2 / 2 * k * k - k * x - mp.loggamma(k + 1) for k in range(600)]
    top = max(logs)
    count = max(k for k in range(600) if logs[k] > top - digits * mp.log(10)) + 1
    return [(-1) ** k * mp.exp(logs[k]) for k in range(count)], top


def _precision(delta, x, digits):
    """Working digits: ``digits`` past the cancellation of the residues at x and of the line."""
    with mp.workdps(digits + 10):
        top = _residues(delta, x, digits)[1]
    return int(digits + 10 + max(0, top / mp.log(10)) + mp.pi ** 2 / (8 * delta ** 2) / mp.log(10))


def k_delta(delta, x, y, digits=20):
    """k_delta(delta, x, y) as an mpf, to about ``digits`` digits."""
    with mp.workdps(_precision(delta, x, digits)):
        u = _residues(delta, x, mp.mp.dps)[0]
        I = _line(delta, y, len(u))[0]
        return mp.fsum(a * b for a, b in zip(u, I))


def cdf(delta, a, digits=20):
    """det(I - K_delta) on L^2(a, infinity) as an mpf, to about ``digits`` digits."""
    with mp.workdps(_precision(delta, a, digits)):
        s = _residues(delta, a, mp.mp.dps)[0]
        I, J = _line(delta, a, len(s))
        G = mp.matrix([[s[l] * (J[k] if k == l else (I[k] - I[l]) / (l - k))
                        for l in range(len(s))] for k in range(len(s))])
        return mp.det(mp.eye(len(s)) - G)
