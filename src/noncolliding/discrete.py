"""Inhomogeneous geometric last passage percolation and its Brownian limit.

Columns i carry Geometric(a_i) weights; the vector of passage times to a
row is an inhomogeneous Markov chain whose transition probability is an
N x N determinant of Laurent coefficients W_k, summed exactly.  The discrete kernels
Q^n, S_{m,-n}, S-bar_{m,n} converge, under the diffusive rescaling
provided by :func:`scaling_bridge`, to the continuum heat kernel and the
building-block kernels of the Brownian model; the demos exercise exactly
that convergence.

Contours are deformed onto saddle-centered circles (the displayed radius
constraints fix only the pole topology); on the displayed origin-centered
circles of radius in (max a_i, 1) the integrand's maximum modulus exceeds
the integral by e^{O(n)} and float evaluation is impossible at large n.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .defaults import DEFAULTS
from .exceptions import ParameterError
from .rng import RngStream
from .special import complete_homogeneous

_TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class GeomParams:
    """Column parameters a_i in (0,1) and walk parameter theta."""

    a: tuple
    theta: float = 0.5

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.size and (np.any(a <= 0) or np.any(a >= 1)):
            raise ParameterError("column parameters must lie in (0, 1)")
        if not 0.0 < self.theta < 1.0:
            raise ParameterError("theta must lie in (0, 1)")

    @property
    def alpha(self):
        return (1.0 - self.theta) / self.theta

    def arr(self):
        return np.asarray(self.a, dtype=float)


def drift_params(mu, N, theta=0.5):
    """Column parameters a_i = 1/2 + mu_i/(2 sqrt(2 N)) of the scaling bridge."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    c3 = 1.0 / (2.0 * np.sqrt(2.0))
    return GeomParams(tuple(0.5 + c3 * mu / np.sqrt(N)), theta)


def scaling_bridge(N, t, x):
    """Lattice coordinates of the diffusive scaling: n = floor(Nt),
    z = floor(-2Nt - x sqrt(2N))."""
    if N < 10:
        raise ParameterError("need N >= 10")
    return int(np.floor(N * t)), int(np.floor(-2.0 * N * t - x * np.sqrt(2.0 * N)))


def _log_phi(z, a):
    """log prod_i (1 - a_i) / (1 - a_i/z)."""
    a = np.asarray(a, dtype=float)
    return (np.sum(np.log1p(-a)) - np.sum(np.log(1.0 - a[None, :] / z[..., None]), axis=-1))


def w_coeff(k, x, params):
    """Transition coefficient W_k(x): the z^{-x} Laurent coefficient of
    (z-1)^k prod_i (1-a_i)/(1-a_i/z) about z = infinity (|z| > 1), as an exact sum.

    (z - 1)^k = z^k sum_j b_j z^{-j}, b_j the coefficients of (1 - u)^k, and
    prod_i 1/(1 - a_i/z) = sum_n h_n(a) z^{-n}, h_n the complete homogeneous
    polynomials, so W_k(x) = prod_i (1 - a_i) sum_{j <= x+k} b_j h_{x+k-j}(a),
    which is 0 when x + k < 0.
    """
    k, n = int(k), int(k) + int(x)
    if n < 0:
        return 0.0
    a = params.arr()
    b = np.array([(-1) ** j * comb(k, j) if k >= 0 else comb(j - k - 1, j)
                  for j in range(n + 1)], dtype=float)
    return float(np.prod(1.0 - a) * (b @ complete_homogeneous(a, n)[::-1]))


def w_tilde(k, x, params):
    """Reflected coefficient W~_k(x) = W_{-k}(k - x)."""
    return w_coeff(-int(k), int(k) - int(x), params)


def _check_weyl(x):
    x = np.atleast_1d(np.asarray(x, dtype=int))
    if np.any(np.diff(x) < 0):
        raise ParameterError("points must be nondecreasing (Weyl cone)")
    return x


def to_tilde(x):
    """Bijection x -> x~ with x~_j = -x_j - j (1-based j); strictly decreasing."""
    x = np.atleast_1d(np.asarray(x, dtype=int))
    return -x - np.arange(1, len(x) + 1)


def from_tilde(xt):
    xt = np.atleast_1d(np.asarray(xt, dtype=int))
    return -xt - np.arange(1, len(xt) + 1)


def transition_prob(x, y, m, params):
    """P(G(m) = y | G(0) = x) = det[W_{j-i}(y_j - x_i)] over N x N indices."""
    x = _check_weyl(x)
    y = _check_weyl(y)
    N = len(x)
    if len(y) != N:
        raise ParameterError("x and y must have the same length")
    M = [[w_coeff(j - i, y[j] - x[i], params) for j in range(N)] for i in range(N)]
    det = float(np.linalg.det(M))
    if -1e-12 < det < 0.0:
        det = 0.0
    return det


def sample_geom_lpp(params, x_init, m, stream=None, samples=1):
    """Passage-time rows G(m, 1..N) grown by the corner recursion.

    G(i, n) = max(G(i-1, n), G(i, n-1)) + w_{i,n} with G(0, n) = x_n and
    G(i, 0) = 0.  Returns an (samples, N) integer array (or (N,)).
    """
    x_init = _check_weyl(x_init)
    if np.any(x_init < 0):
        raise ParameterError("initial data must be nonnegative")
    a = params.arr()
    if len(a) < m:
        raise ParameterError("need a column parameter for each of the m columns")
    gen = (stream or RngStream(DEFAULTS["seed"])).generator()
    N = len(x_init)
    # in place: the output, one draw of weights and one row are all it holds
    G = np.empty((samples, N), dtype=np.int64)
    G[:] = x_init
    row = np.empty(samples, dtype=np.int64)
    for i in range(m):
        # geometric on {0,1,...} with success 1-a_i
        w = gen.geometric(1.0 - a[i], size=(samples, N))
        w -= 1
        row[:] = 0
        for ncol in range(N):
            np.maximum(row, G[:, ncol], out=row)
            row += w[:, ncol]
            G[:, ncol] = row
        del w  # before the next draw is made
    return G[0] if samples == 1 else G


def _saddle_circle_nodes(count):
    return int(min(16384, max(512, 16 * np.sqrt(count) + 256)))


def q_geom(n, z1, z2, params):
    """n-step transition probability of the strictly-left geometric walk.

    Contour form: (1/2 pi i) oint theta^{z1-z2} (alpha/(1-w))^n
    w^{-(z1-z2) + n - 1} dw over a circle inside |w| < 1.  (The displayed
    w-power with z1 and z2 interchanged fails the row-sum normalization;
    this orientation matches the negative-binomial law and the heat-kernel
    limit.)
    """
    theta, alpha = params.theta, params.alpha
    j = int(z1 - z2)
    if j < n:  # at least one unit left per step
        return 0.0
    # saddle of |w^{-(j-n)-1} (1-w)^{-n}| on the radial axis
    r = min(0.95, max(0.05, (j - n) / j if j > 0 else 0.5))
    count = max(DEFAULTS["coefficient_nodes"], _saddle_circle_nodes(j + n))
    th = 2.0 * np.pi * np.arange(count) / count
    w = r * np.exp(1j * th)
    expo = (j * np.log(theta) + n * np.log(alpha) - n * np.log(1.0 - w)
            + (n - 1 - j) * np.log(w))
    m = expo.real.max()
    val = np.sum(np.exp(expo - m) * (2j * np.pi / count) * w) * np.exp(m) / _TWO_PI_I
    return float(val.real)


def s_geom(m, n, z1, z2, params):
    """Discrete pole-side kernel S_{m,-n}(z1, z2) on a saddle-centered circle."""
    theta, alpha = params.theta, params.alpha
    a = params.arr()[:m]
    P = -(int(z1 - z2)) - n - 1
    if P < 0:
        raise ParameterError("argument regime with a pole at w = 0 is not supported; "
                             "expected z1 - z2 <= -(n + 1)")
    wstar = P / (P + n) if P + n > 0 else 0.5
    center = wstar
    radius = max(1.3 * np.max(np.abs(a - center)) + 1e-9, 1.0 / (2.0 * np.sqrt(P + n + 1)))
    if center + radius >= 1.0:
        radius = 0.5 * (1.0 - center)
    count = _saddle_circle_nodes(P + n)
    th = 2.0 * np.pi * np.arange(count) / count
    w = center + radius * np.exp(1j * th)
    expo = ((z1 - z2) * np.log(theta) + P * np.log(w)
            + n * (np.log(1.0 - w) - np.log(alpha)) + _log_phi(w, a))
    mx = expo.real.max()
    val = np.sum(np.exp(expo - mx) * (2j * np.pi / count) * radius * np.exp(1j * th))
    return float((val * np.exp(mx) / _TWO_PI_I).real)


def sbar_geom(m, n, z1, z2, params):
    """Discrete line-side kernel S-bar_{m,n}(z1, z2) on the saddle circle |w| = w*."""
    theta, alpha = params.theta, params.alpha
    a = params.arr()[:m]
    n, z1 = float(n), float(z1)
    Q = (z2 - z1) + n - 1.0
    wstar = n / (n - Q) if n - Q > 0 else 0.5
    wstar = min(0.9, max(0.1, wstar))
    count = _saddle_circle_nodes(abs(Q) + n)
    th = 2.0 * np.pi * np.arange(count) / count
    w = wstar * np.exp(1j * th)
    base = -_log_phi(1.0 - w, a) if len(a) else np.zeros_like(w)
    expo = ((z1 - z2) * np.log(theta) + Q * np.log(1.0 - w)
            - n * (np.log(w) - np.log(alpha)) + base)
    mx = expo.real.max()
    val = np.exp(expo - mx) @ ((2j * np.pi / count) * w)
    return float(np.real(val * np.exp(mx) / _TWO_PI_I))
