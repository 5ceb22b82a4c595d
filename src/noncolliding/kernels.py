"""Pointwise evaluators for the continuum correlation kernels.

Every kernel is a (single or double) contour integral; on contour nodes
it is K(x, y) = L(x) C R(y)^T.  Each family declares its two
:class:`Side` objects and :func:`contour_fill` forms every product.  C is
1/(z - w) for the arith, Airy and Dyson-edge double contours, dense or as
P Q by :func:`low_rank`, or diagonal when both sides share one contour
(the rate kernels, s_minus).  Every row of L and R is stabilized by
subtracting its largest exponent, so kernels with exponential growth or
decay evaluate without overflow.  The narrow-wedge and flat kernels keep
only the w circle around their m drifts: their z integrands are Gaussians
times polynomials, with a pole at each mirrored drift when flat, so each
is sum_p M_p(x) N_p(y) with N_p in Hermite and Mills-ratio terms
(:func:`_z_side`), as s_bar is in Hermite terms.

Every kernel here has real parameters, so it is real, and every contour is
symmetric about the real axis (see :mod:`.contours`).  A side holds only
its contour's upper half, and :func:`contour_fill` returns 2 Re of the sum
over it: the lower half enters through f(z-bar) = conj f(z) and
w(z-bar) = -conj w(z) alone, and is never evaluated.

Each family's ``_*_engine`` is split in two.  The build (the engine call)
sizes the contours for the argument spans it is given and makes the
sides' argument-free factors and the couplings; the fill it returns takes
the arguments of one block.  A pointwise kernel builds from its own
arguments.  A threshold grid builds once from the union of its Nystrom
nodes.  Slot i then fills at its base nodes u shifted by a_i, so the build
makes each side's rows once, at u, and a threshold scales their columns by
e^{a_i m} (:func:`shifted_rows`): one complex multiply per entry, no exp.
A grid of enough thresholds also factors each Airy and arith coupling
once, to low rank (:func:`_coupling`); a single query keeps them dense.

Heat-operator conventions (two distinct semigroups appear and differ by a
factor of 2 in the variance; both are housed here explicitly):

- ``heat_op_half(t, x, y)`` is e^{t d^2/2}(x, y), a Gaussian of variance t
  (used by the Brownian and Hermitian extended kernels);
- ``heat_op_full(t, x, y)`` is e^{t d^2}(x, y), a Gaussian of variance 2t
  (used by the extended Airy kernel blocks).
"""

import numpy as np
from dataclasses import dataclass
from functools import partial
from math import comb

from .contours import gauss_legendre, make_contour, ray_wedge
from .defaults import DEFAULTS
from .exceptions import DomainError, ParameterError
from .special import _airy_any_real, complete_homogeneous, complex_gamma, erfcx, heat_kernel

_DROP = DEFAULTS["decay_drop"]


def heat_op_half(t, x, y):
    """Kernel of e^{t d^2/2}: Gaussian with variance t."""
    return heat_kernel(t, x, y)


def heat_op_full(t, x, y):
    """Kernel of e^{t d^2}: Gaussian with variance 2t (no 1/2)."""
    return heat_kernel(2.0 * t, x, y)


# ---------------------------------------------------------------------------
# boundary functions and drifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFunction:
    """Boundary data b(t) for last passage percolation: narrow wedge or flat."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("narrow_wedge", "flat"):
            raise ParameterError("unknown boundary kind %r; the kinds are "
                                 "'narrow_wedge' and 'flat'" % (self.kind,))

    @staticmethod
    def narrow_wedge():
        return BoundaryFunction("narrow_wedge")

    @staticmethod
    def flat():
        return BoundaryFunction("flat")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "flat":
            out = np.zeros_like(t)
        else:
            out = np.where(t == 0.0, 0.0, -np.inf)
        return out if out.ndim else float(out)


def _drifts(mu):
    arr = np.atleast_1d(np.asarray(mu, dtype=float))
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ParameterError("drift vector must be nonempty and finite")
    return arr


def _loe_rates(n):
    """The rates of the order-n LOE law: n ones."""
    if n < 1:
        raise ParameterError("need n >= 1, got %r" % (n,))
    return np.ones(int(n))


# ---------------------------------------------------------------------------
# generic separable contour machinery
# ---------------------------------------------------------------------------

def _log_poly(z, roots):
    """sum_i log(z - root_i); branch-insensitive once exponentiated."""
    return np.sum(np.log(z[..., None] - np.asarray(roots)[None, :]), axis=-1)


@dataclass(frozen=True, eq=False)
class Side:
    """One side of a separable kernel: u -> weights * e^{phi + u m + log_factor}.

    The nodes and weights are those of a contour's upper half.  Per node
    (or scalar): ``phi`` is the argument-free polynomial exponent, ``m`` the
    multiplier of the argument u and ``log_factor`` the log of the pole,
    zero or Gamma factor.  It is added after u m: the arith sum cancels
    about six digits, so that order is part of its values.  Sides compare by
    identity, so a build can key its couplings and base rows on them.
    """

    nodes: np.ndarray
    weights: np.ndarray
    phi: np.ndarray
    m: np.ndarray
    log_factor: np.ndarray = 0.0

    def rows(self, us):
        """One row per argument in us, scaled by e^{-top}, top its largest real exponent."""
        # in place: a fresh temporary of this size costs more than the arithmetic on it
        expo = np.multiply.outer(us, self.m)
        expo += self.phi
        expo += self.log_factor
        top = expo.real.max(axis=1)
        expo -= top[:, None]
        return np.multiply(np.exp(expo, out=expo), self.weights, out=expo), top


def shifted_rows(made, a, extra=0.0):
    """Rows hook of a slot along a curve that fills at its base nodes u shifted by a.

    From ``made[side]``, the rows at u: column k scaled by e^{a m_k - c} and c + ``extra``
    added to top, c = max_k Re(a m_k).  The arguments are not read.
    """
    def rows(side, us):
        A, top = made[side]
        scale = a * side.m
        c = scale.real.max()
        return A * np.exp(scale - c), top + (c + extra)

    return rows


def _made(made, key, make):
    """make(), or what it made for ``key`` before when the builds share a dict ``made``."""
    if made is None:
        return make()
    if key not in made:
        made[key] = make()
    return made[key]


def _base_rows(made, base, xsides, ysides):
    """Along a curve, base = (ux, uy): make each side's rows, at ux or uy, once into made."""
    for sides, us in zip((xsides, ysides), base or ()):
        for side in sides:
            _made(made, side, lambda: side.rows(us))


def couplings(w, z):
    """The dense coupling 1/(z - w) of left nodes w to right nodes z and to their mirrors z-bar.

    As :func:`contour_fill` takes it: (None, C(w, z), C(w, z-bar)).
    """
    return None, 1.0 / (z[None, :] - w[:, None]), 1.0 / (z.conj()[None, :] - w[:, None])


def low_rank(C):
    """(P, Q) with P @ Q equal to C to machine precision, or C itself when its rank is high.

    A fixed-seed Gaussian sketch Y = C Omega of k = 64 columns spans the
    range of C once C's rank r is below k (Halko, Martinsson & Tropp, SIAM
    Rev. 53, 2011), and the left singular vectors U_r of Y whose singular
    values exceed machine epsilon times the largest give C = U_r (U_r^H C).
    C stays dense unless 8 columns are left over.  Couplings between
    separated contours are Cauchy matrices, whose singular values decay
    geometrically (Beckermann & Townsend, SIAM J. Matrix Anal. Appl. 38,
    2017): their rank is about 40 between the Airy or arith contours.
    """
    k = min(64, *C.shape)
    Y = C @ np.random.default_rng(0).standard_normal((C.shape[1], k))
    U, s = np.linalg.svd(Y, full_matrices=False)[:2]
    r = int(np.count_nonzero(s > np.finfo(float).eps * s[0]))
    return (U[:, :r], U[:, :r].conj().T @ C) if r + 8 <= k else C


def _coupling(made, cw, cz):
    """:func:`couplings` of two contours, made once by the builds that share a dict ``made``.

    A grid's build compresses the pair by :func:`low_rank` into factors
    P (Q, Q-bar) when ``made["low_rank"]`` is set.
    """
    def make():
        coupled = couplings(cw.upper_nodes, cz.upper_nodes)
        factors = low_rank(np.hstack(coupled[1:])) if made and made.get("low_rank") else None
        if not isinstance(factors, tuple):
            return coupled
        P, Q = factors
        return P, *np.hsplit(Q, 2)

    return _made(made, (cw, cz), make)


def contour_fill(left_rows, right_rows, coupled=None):
    """K(x, y) = L(x) C R(y)^T over whole contours, from the rows of the sides' upper halves.

    ``left_rows`` and ``right_rows`` are what :meth:`Side.rows` returns for
    the arguments xs and ys.  A weighted row at a mirrored node z-bar is
    -conj of the row at z, an unweighted one conj of it.

    Without ``coupled``, both sides share one contour, only the left one
    carries dz-weights, and C = I / (2 pi i): the node pairs (z, z-bar) sum
    to 2 Re(A B^T / (2 pi i)) = Im(A B^T) / pi.

    With ``coupled`` (double contour) C = 1/(2 pi i)^2 times the coupling,
    given as (P, Q, Q-bar): C(w, z) = P Q and C(w, z-bar) = P Q-bar, for w
    and z on the upper halves.  P None stands for the identity.  The pairs
    (w, z), (w-bar, z-bar) sum to 2 Re(L C R^T) and the pairs (w, z-bar),
    (w-bar, z) to -2 Re(L C(w, z-bar) conj(R)^T).  So K = -Re(A P G) / (2 pi^2)
    with G = Q B^T - Q-bar conj(B)^T.
    """
    (A, top_x), (B, top_y) = left_rows, right_rows
    if coupled is None:
        part = (A @ B.T).imag / np.pi
    else:
        P, Q, Q_bar = coupled
        G = Q @ B.T
        G -= Q_bar @ B.T.conj()
        part = ((A if P is None else A @ P) @ G).real / (-2.0 * np.pi ** 2)
    return part * np.exp(top_x[:, None] + top_y[None, :])


def _args(*us):
    """Each argument as a 1-d float array."""
    return [np.atleast_1d(np.asarray(u, dtype=float)) for u in us]


def _pointwise(engine, x, y):
    """The kernel that ``engine(xs, ys)`` builds, at x, y: a float when both are scalars."""
    xs, ys = _args(x, y)
    out = engine(xs, ys)(xs, ys)
    return float(out[0, 0]) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def _pole_circle(points, reach):
    """Circle hulling ``points`` with clearance shrinking as arguments grow.

    ``reach`` is the largest |argument| multiplying w in the exponent; the
    clearance trades pole resolution against the e^{reach*clearance}
    cancellation budget.
    """
    points = np.asarray(points, dtype=float)
    center = 0.5 * (points.min() + points.max())
    spread = 0.5 * (points.max() - points.min())
    clear = max(0.12, min(1.0, 4.0 / (1.0 + reach)))
    return center, spread + clear


def _circle_nodes(reach, center, radius, poles):
    """Trapezoid nodes for a circle around ``poles`` that multiply w by arguments up to ``reach``.

    A pole at distance r_p from the centre costs (r_p/radius)^n, so n
    keeps that below 1e-15 for the farthest pole.
    """
    inner = float(np.max(np.abs(np.asarray(poles) - center))) / radius
    n_pole = np.log(1e-15) / np.log(inner) if inner > 0 else 0.0
    return int(min(8192, max(256, 64 + 3.0 * reach * radius, np.ceil(n_pole))))


# ---------------------------------------------------------------------------
# product kernels on a single closed contour
# ---------------------------------------------------------------------------

def _piflat_engine(beta, xs, ys, made=None, base=None):
    """Rate kernel fill(xs, ys); the circle is sized for the largest |x + y| over the spans."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(beta > 0):
        raise ParameterError("rates beta must all be positive")
    xs, ys = _args(xs, ys)
    reach = float(max(abs(xs.max() + ys.max()), abs(xs.min() + ys.min())))
    center, radius = _pole_circle(beta, reach)
    # the reflected poles at -beta must stay outside
    radius = min(radius, 0.5 * ((beta.max() - beta.min()) / 2.0 + center + beta.min()))
    if radius <= (beta.max() - beta.min()) / 2.0:
        raise ParameterError("cannot separate poles at +beta from -beta")
    c = make_contour("circle", center=center, radius=radius,
                     nodes=_circle_nodes(reach, center, radius, beta))
    z = c.upper_nodes
    # prod (beta_i + w)/(beta_i - w) = (-1)^n prod (w + beta_i)/(w - beta_i)
    sign = -((-1.0) ** len(beta))
    left = Side(z, sign * c.upper_weights, 0.0, -z, _log_poly(z, -beta) - _log_poly(z, beta))
    right = Side(z, 1.0, 0.0, -z)
    _base_rows(made, base, [left], [right])
    return lambda xs, ys, rx=Side.rows, ry=Side.rows: contour_fill(rx(left, xs), ry(right, ys))


def k_piflat(beta, x, y):
    """Symmetric exponential-product kernel for the point-to-line passage law.

    K(x, y) = -(1/2 pi i) * oint e^{-(x+y)w} prod_i (beta_i + w)/(beta_i - w) dw
    over a counter clockwise circle enclosing the poles +beta_i and excluding
    all -beta_i.  Depends on x + y only.
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    # a one-column grid at y = 0 carries every x + y
    s, zero = (x + y).ravel(), np.zeros(1)
    vals = _piflat_engine(beta, s, zero)(s, zero)[:, 0].reshape(x.shape)
    return float(vals) if vals.ndim == 0 else vals


def k_loe(n, x, y):
    """Order-n pole kernel of the largest squared-singular-value law (all rates 1)."""
    return k_piflat(_loe_rates(n), x, y)


def k_bridge(nu, r, x, y):
    """Kernel for the running maximum of the top noncolliding bridge.

    Equals the rate kernel with beta_i = 1 - nu_i/r and both arguments
    shifted by r^2 (the e^{-2 r^2 w} factor).  Requires r > max(nu, 0).
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if not r > max(nu.max(), 0.0):
        raise DomainError("need r > max(nu_i, 0), got r=%r" % (r,))
    beta = 1.0 - nu / r
    return k_piflat(beta, np.asarray(x, float) + r * r, np.asarray(y, float) + r * r)


# ---------------------------------------------------------------------------
# building-block kernels S_{m,-t}, S-bar, S-hypo
# ---------------------------------------------------------------------------

def s_minus(mu, t, x, y):
    """Closed-contour kernel with simple poles at the drifts.

    (1/2 pi i) oint e^{-(t/2) z^2 + (x-y) z} prod (z - mu_i)^{-1} dz over a
    counter clockwise circle of radius 1 + max|mu| around the drift midpoint.
    """
    mu = _drifts(mu)
    if not t > 0:
        raise DomainError("need t > 0")
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    s = (x - y).ravel()
    center = 0.5 * (mu.min() + mu.max())
    radius = 1.0 + np.max(np.abs(mu))
    reach = float(np.max(np.abs(s))) if s.size else 1.0
    c = make_contour("circle", center=center, radius=radius,
                     nodes=_circle_nodes(reach + t * radius, center, radius, mu))
    z = c.upper_nodes
    left = Side(z, c.upper_weights, -0.5 * t * z ** 2, z, -_log_poly(z, mu))
    right = Side(z, 1.0, 0.0, -z)
    # a one-column grid at y = 0 carries every x - y
    vals = contour_fill(left.rows(s), right.rows(np.zeros(1)))[:, 0].reshape(x.shape)
    return float(vals) if vals.ndim == 0 else vals


def _gaussian_moments(t, c, y, n):
    """H_j(y) = (1/2 pi i) int e^{(t/2) z^2 - yz} (z - c)^j dz up a vertical line, j < n.

    It is (-d/dy - c)^j p_t(y) = t^{-j/2} He_j(u) p_t(y), u = (y - tc)/sqrt t, p_t the heat
    kernel and He_j the probabilists' Hermite polynomials, by He_{j+1} = u He_j - j He_{j-1}.
    """
    r = 1.0 / np.sqrt(t)
    u = (y - t * c) * r
    H = [heat_kernel(t, y, 0.0) * np.ones_like(u)]
    for j in range(n - 1):
        H.append(r * (u * H[-1] - (j * r * H[-2] if j else 0.0)))
    return np.array(H)


def s_bar(mu, t, x, y):
    """Vertical-line kernel with the drift product in the numerator.

    (1/2 pi i) int e^{(t/2) z^2 + (x-y) z} prod (z - mu_i) dz over an upward
    vertical line, in closed form: prod_i(-d/dy - mu_i) applied to
    heat_kernel(t, x, y), by :func:`_gaussian_moments`.
    """
    mu = _drifts(mu)
    if not t > 0:
        raise DomainError("need t > 0")
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    vals = (np.poly(mu)[::-1] @ _gaussian_moments(t, 0.0, (y - x).ravel(), len(mu) + 1))
    vals = vals.reshape(x.shape)
    return float(vals) if vals.ndim == 0 else vals


def s_hypo_flat(mu, t, x, y):
    """Flat-boundary hypograph kernel via the reflection principle.

    For x <= 0 it is s_bar; for x > 0 the reflected two-branch form
    1{y<=0} s_bar(x, y) + 1{y>0} s_bar(-x, y).
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    direct = s_bar(mu, t, x, y)
    reflected = s_bar(mu, t, -x, y)
    pos = np.asarray(x) > 0
    out = np.where(pos, np.where(np.asarray(y) > 0, reflected, direct), direct)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# narrow-wedge and flat double-contour kernels
# ---------------------------------------------------------------------------

def _tail_differences(t, w):
    """differences(y): {(i, j): H[w_i..w_j]} for H(w) = e^{wy} Phi-bar((y + tw)/sqrt t), w sorted.

    At w = mid + d, H = e^{y mid} G(d) phi(u) R(u + d sqrt t), u = (y + t mid)/sqrt t,
    G(d) = e^{-t mid d - t d^2/2} and R = Phi-bar/phi the Mills ratio (by :func:`erfcx`), and
    phi(u) R(u + x) = sum_k (-1)^k S_k x^k with S_k(u) = int_0^inf r^k/k! phi(u + r) dr:
    k S_k = S_{k-2} - u S_{k-1}, S_{-1} = phi(u), S_0 = Phi-bar(u): phi(u) R(|u|), or 1 less
    it if u < 0.
    Sorted nodes w spanning up to 1/(sqrt t + t |mid|) sum H's Taylor series at their
    midpoint, exact as they merge; wider spans, where the series of G and S would cancel,
    divide the difference of their sub-spans.  The part free of y is made once, here.
    """
    rt, series = np.sqrt(t), {}
    for k in range(len(w)):
        for i in range(len(w) - k):
            mid, span = 0.5 * (w[i] + w[i + k]), w[i + k] - w[i]
            ratio = 0.5 * span * (rt + t * abs(mid))
            if ratio <= 0.125:
                # ratio^(n-k) < 1e-16 bounds the terms left out
                n = k + (int(min(30, np.ceil(-37.0 / np.log(ratio)))) if span > 0 else 0)
                g = [1.0, -t * mid]
                for a in range(1, n):
                    g.append(-t * (mid * g[a] + g[a - 1]) / (a + 1))
                h = np.concatenate([np.zeros(k), complete_homogeneous(w[i:i + k + 1] - mid, n - k)])
                # the coefficient of S_b: (-sqrt t)^b sum_j h_{j-k} g_{j-b}
                coefficients = np.correlate(h, g[:n + 1], "full")[n:] * (-rt) ** np.arange(n + 1)
                series[i, i + k] = mid, coefficients
    mids = np.unique([mid for mid, _ in series.values()])[:, None]
    order = max(len(c) for _, c in series.values())

    def differences(y):
        u = y / rt + rt * mids
        phi = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
        tail = phi * np.sqrt(0.5 * np.pi) * erfcx(np.abs(u) / np.sqrt(2.0))
        S = [phi, np.where(u < 0, 1.0 - tail, tail)]
        for b in range(1, order):
            S.append((S[-2] - u * S[-1]) / b)
        S, D = np.array(S[1:]) * np.exp(y * mids), {}
        for k in range(len(w)):
            for i in range(len(w) - k):
                if (i, i + k) in series:
                    mid, c = series[i, i + k]
                    D[i, i + k] = c @ S[:len(c), np.searchsorted(mids[:, 0], mid)]
                else:
                    D[i, i + k] = (D[i + 1, i + k] - D[i, i + k - 1]) / (w[i + k] - w[i])
        return D

    return differences


def _z_side(mu, c, t, flat):
    """side(ys): the narrow-wedge or flat kernel's z side at time t in closed form, (N, N_tail).

    The w integrand's only poles in the drift circle are the drifts, so the z integral
    Psi(w, y) = (1/2 pi i) int e^{(t/2) z^2 - yz} q(z) C(z, w) dz, C = 1/(z - w), + 1/(z + w) if
    flat, enters only by its remainder modulo q(w), in powers v^p, v = w - c.  With
    q(c + v) = sum_k a_k v^k, (q(z) - q(w))/(z - w) = sum_p v^p sum_{k>p} a_k (z - c)^{k-1-p}
    gives N_p in Hermite terms (:func:`_gaussian_moments`).  Flat adds q(z)/(z + w) =
    (q(z) - q(-w))/(z + w) + q(-w)/(z + w): sum_p (-v - 2c)^p N_p, and the pole at z = -w,
    q(-w) e^{t w^2/2} H(w) (:func:`_tail_differences`).  N_tail is the Newton interpolant of
    q(-w) H(w) at the drifts; the caller's w side takes e^{t w^2/2}, which split across the
    sides would cost e^{t (mu_i^2 - mu_j^2)/2}.  N_tail is None for the narrow wedge, and
    both are 0 at y <= 0 when flat.
    """
    m = len(mu)
    a = np.poly(mu - c)[::-1]
    if flat:
        # (-v - 2c)^p = sum_j C(p, j) (-1)^j (-2c)^(p-j) v^j, added to the identity
        mirror = np.eye(m) + np.array([[comb(p, j) * (-1.0) ** j * (-2.0 * c) ** (p - j)
                                        if p >= j else 0.0 for p in range(m)] for j in range(m)])
        nodes = np.sort(mu)
        tail = _tail_differences(t, nodes)
        # Newton coefficients of q(-w) = sum_k b_k v^k at the drifts, d_i = mu_i - c: the
        # divided differences of v^k are complete homogeneous polynomials
        d, b = nodes - c, np.poly(-nodes - c)[::-1] * (-1.0) ** m
        q_newton = [b[j:] @ complete_homogeneous(d[:j + 1], m - j) for j in range(m)]

    def side(ys):
        H = _gaussian_moments(t, c, ys, m)
        N = np.array([a[p + 1:] @ H[:m - p] for p in range(m)])
        if not flat:
            return N, None
        D = tail(ys)
        g = [sum(q_newton[j] * D[j, k] for j in range(k + 1)) for k in range(m)]
        # the Newton form g_0 + (w - mu_0)(g_1 + ...) in powers of v, innermost first
        P = [g[-1]]
        for k in range(m - 2, -1, -1):
            P = [g[k] - d[k] * P[0]] + [P[i] - d[k] * P[i + 1] for i in range(len(P) - 1)] + [P[-1]]
        return (mirror @ N) * (ys > 0), np.array(P) * (ys > 0)

    return side


def _brownian_engine(kind, mu, t1, t2, xs, ys, made=None, base=None):
    """Narrow-wedge or flat kernel fill(xs, ys) at times (t1, t2), its circle sized for the span xs.

    It is sum_p M_p(x) N_p(y), + M~_p(x) N~_p(y) if flat, (N, N~) from :func:`_z_side` and
    M_p(x) = (1/2 pi i) oint e^{xw - (t1/2) w^2} v^p/q(w) dw, v = w - c, over the circle around
    the drifts, centre c, sized for the slope x - t1 c; M~_p also has e^{(t2/2) w^2}.  Builds
    sharing the dict ``made`` share the circle, its side, and the rows and z side of each
    argument span (along a curve, rows made once at the base nodes).  ``ry`` is not read.
    """
    mu, flat, made = _drifts(mu), kind == "flat", {} if made is None else made
    xs, ys = _args(xs, ys)

    def w_side():  # one per slot: keyed by time and span
        reach = float(np.max(np.abs(xs - t1 * 0.5 * (mu.min() + mu.max()))))
        center, radius = _pole_circle(mu, reach)
        n_w = _circle_nodes(reach + t1 * radius, center, radius, mu)
        # the circle is often the same at every time
        cw = _made(made, ("circle", center, radius, n_w),
                   lambda: make_contour("circle", center=center, radius=radius, nodes=n_w))
        w = cw.upper_nodes
        V = np.power.outer(w - center, np.arange(len(mu)))
        return center, w, V, Side(w, cw.upper_weights, -0.5 * t1 * w ** 2, w, -_log_poly(w, mu))

    center, w, V, left = _made(made, ("side", t1, xs.tobytes()), w_side)
    _base_rows(made, base, [left], [])

    def fill(xs, ys, rx=Side.rows, ry=None):
        # the slot's latest rows: a threshold fills all its blocks before the next one
        if made.get(("rows", left), (None,))[0] != xs.tobytes():
            made[("rows", left)] = xs.tobytes(), rx(left, xs)
        rows = made[("rows", left)][1]
        z_side = _made(made, ("z", t2), lambda: _z_side(mu, center, t2, flat))
        N, N_tail = _made(made, ("z", t2, ys.tobytes()), lambda: z_side(ys))
        K = contour_fill(rows, (V.T, np.zeros(len(mu)))) @ N
        if flat:  # e^{(t2/2) w^2}, scaled by its largest modulus e^{top}
            top = 0.5 * t2 * (w ** 2).real.max()
            tail = (V * np.exp(0.5 * t2 * w ** 2 - top)[:, None]).T
            K += contour_fill(rows, (tail, np.full(len(mu), top))) @ N_tail
        return K

    return fill


def k_nw(mu, t1, x, t2, y):
    """Narrow-wedge double-contour kernel.

    (1/2 pi i)^2 oint_gamma dw int_Gamma dz
    e^{(t2/2) z^2 - y z} / e^{(t1/2) w^2 - x w} * prod (z-mu_i)/(w-mu_i) / (z-w),
    with gamma a counter clockwise circle around the drifts and Gamma a
    vertical line strictly to its right.
    """
    if not (t1 > 0 and t2 > 0):
        raise DomainError("need positive times")
    return _pointwise(partial(_brownian_engine, "narrow_wedge", mu, t1, t2), x, y)


def k_flat(mu, t1, x, t2, y):
    """Flat-boundary kernel: 1/(z-w) and 1/(z+w) couplings, both times 1{y>0}.

    As :func:`k_nw`, with Gamma right of the mirrored drifts -mu_i too.
    """
    if not (t1 > 0 and t2 > 0):
        raise DomainError("need positive times")
    return _pointwise(partial(_brownian_engine, "flat", mu, t1, t2), x, y)


# ---------------------------------------------------------------------------
# arithmetic-spectrum kernel (Gamma-ratio double contour)
# ---------------------------------------------------------------------------

def _k_delta_engine(delta, xs, ys, gamma_func=None, rec_extension=1.0, node_factor=1.0,
                    made=None, base=None):
    """Gamma-ratio kernel fill(xs, ys), its contours sized for the spans xs, ys."""
    if not delta > 0:
        raise DomainError("need delta > 0")
    gamma_func = complex_gamma if gamma_func is None else gamma_func
    xs, ys = _args(xs, ys)
    d2 = delta * delta
    # vertical line through Re z = 1: Gaussian decay + 1/|Gamma| growth e^{pi|s|/2}
    T = (np.pi / 2 + np.sqrt(np.pi ** 2 / 4 + 2.0 * d2 * (_DROP + 10.0))) / d2
    slope = max(abs(d2 - ys.min()), abs(d2 - ys.max())) + 4.0
    n_z = int(min(16384, max(256, 64 + 1.4 * slope * T) * node_factor))
    cz = make_contour("vertical", offset=1.0, half_height=T, nodes=n_z)
    # half-infinite rectangle through 1/2 with half-height 1/2, truncated left
    xmin = xs.min()
    lo = -(max(0.0, -xmin) / d2 + np.sqrt(2.0 * (_DROP + 10.0)) / delta + 3.0) * rec_extension
    n_rec = int(max(192, (0.5 - lo) * DEFAULTS["rectangle_nodes_per_unit"]) * node_factor)
    crec = make_contour("rectangle", left=lo, right=0.5, half_height=0.5, nodes=n_rec)

    # the z side is e^{(D^2/2) z^2 - y z} / Gamma(z); the w side is the same form, inverted
    w, z = crec.upper_nodes, cz.upper_nodes
    left = Side(w, crec.upper_weights, -0.5 * d2 * w ** 2, w, np.log(gamma_func(w)))
    right = Side(z, cz.upper_weights, 0.5 * d2 * z ** 2, -z, -np.log(gamma_func(z)))
    coupled = _coupling(made, crec, cz)
    _base_rows(made, base, [left], [right])
    return lambda xs, ys, rx=Side.rows, ry=Side.rows: contour_fill(rx(left, xs), ry(right, ys),
                                                                   coupled)


def k_delta(delta, x, y, gamma_func=None):
    """Gamma-ratio kernel of the arithmetic-spectrum edge law.

    Double contour integral of e^{(D^2/2)(z^2 - zeta^2) - yz + x zeta}
    * Gamma(zeta)/Gamma(z) / (z - zeta) with zeta on the truncated
    half-infinite rectangle through 1/2 and z on the vertical line Re z = 1.
    ``gamma_func`` may replace the Gamma evaluator (e.g. by a truncated
    product) for validation.
    """
    return _pointwise(partial(_k_delta_engine, delta, gamma_func=gamma_func), x, y)


# ---------------------------------------------------------------------------
# Airy kernels
# ---------------------------------------------------------------------------

def airy_kernel_ext(t1, x, t2, y):
    """Extended Airy kernel as the two-branch Ai-product integral."""
    dt = t2 - t1
    if t2 <= t1:
        # int_0^inf e^{z dt} Ai(x+z) Ai(y+z) dz; Ai^2 decays e^{-(4/3)v^{3/2}}
        top = max(x, y)
        zmax = 8.0 + max(0.0, (0.75 * _DROP) ** (2.0 / 3.0) - top)
        if dt < 0:
            zmax = min(zmax, _DROP / (-dt) + 10.0)
        edges = np.linspace(0.0, zmax, max(8, int(zmax)) + 1)
        z = np.concatenate([gauss_legendre(a, b, 16)[0] for a, b in zip(edges[:-1], edges[1:])])
        w = np.concatenate([gauss_legendre(a, b, 16)[1] for a, b in zip(edges[:-1], edges[1:])])
        vals = np.exp(z * dt) * _airy_any_real(x + z) * _airy_any_real(y + z)
        return float(np.sum(w * vals))
    # t2 > t1: -int_{-inf}^0, exponential decay e^{z dt}, oscillatory Ai tails
    zmax = (_DROP + 10.0) / dt
    edges = [0.0]
    while edges[-1] < zmax:
        depth = edges[-1] + 1.0 - min(0.0, min(x, y))
        edges.append(edges[-1] + min(2.0, np.pi / (2.0 * np.sqrt(depth)) * 4.0 + 0.05))
    acc = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        z, w = gauss_legendre(-b, -a, 12)
        acc += np.sum(w * np.exp(z * dt) * _airy_any_real(x + z) * _airy_any_real(y + z))
    return float(-acc)


def _jairy_contours(tmax, xlo, ylo, mode, delta1=None, delta2=None):
    delta2 = (tmax + 0.5) if delta2 is None else float(delta2)
    delta1 = (delta2 + 0.5) if delta1 is None else float(delta1)
    if delta2 >= delta1:
        raise ParameterError("need delta2 < delta1, got %r >= %r" % (delta2, delta1))
    if mode not in ("wedge", "vertical"):
        raise ParameterError("mode must be 'wedge' or 'vertical'")

    if mode == "vertical":
        # numerator side z on Re = delta1
        q = 2.0 * (delta1 - tmax)
        Tz = np.sqrt(2.0 * (_DROP + 10.0) / q) + 2.0
        nz = int(min(8192, max(256, 64 + 1.4 * (abs(ylo) + 3 * delta1 + Tz ** 2) * Tz)))
        cz = make_contour("vertical", offset=delta1, half_height=Tz, nodes=nz)
        q = 2.0 * (delta2 - (-tmax))
        Tw = np.sqrt(2.0 * (_DROP + 10.0) / q) + 2.0
        nw = int(min(8192, max(256, 64 + 1.4 * (abs(xlo) + 3 * delta2 + Tw ** 2) * Tw)))
        cw = make_contour("vertical", offset=-delta2, half_height=Tw, nodes=nw)
    else:
        # steepest-descent wedges of the cubic term, mirror images of each
        # other: z^3/3 is real and falling along the +-pi/3 rays through
        # delta1, w^3/3 real and growing along the +-2pi/3 rays through delta2,
        # so both factors decay like e^{-tau^3/3}.  Re w <= delta2 < delta1 <= Re z
        # keeps the wedges apart and clear of the pole at z = w.  Each ray is
        # sized for the worst exponent over the time and argument ranges.
        cz = ray_wedge(delta1, np.pi / 3.0,
                       lambda z: -(z ** 3 / 3.0 + tmax * z ** 2 - min(ylo, 0.0) * z),
                       12.0 + np.sqrt(abs(ylo)) * 2.0)
        cw = ray_wedge(delta2, 2.0 * np.pi / 3.0,
                       lambda w: w ** 3 / 3.0 + tmax * w ** 2 - min(xlo, 0.0) * w,
                       12.0 + np.sqrt(abs(xlo)) * 2.0)
    return cw, cz


def _jairy_engine(t1, t2, xs, ys, mode="wedge", delta1=None, delta2=None, made=None, base=None):
    """Extended Airy double-contour fill(xs, ys), its contours sized for the spans xs, ys."""
    xs, ys = _args(xs, ys)
    tmax = max(abs(t1), abs(t2))
    xlo, ylo = float(xs.min()), float(ys.min())
    cw, cz = _made(made, (tmax, xlo, ylo),
                   lambda: _jairy_contours(tmax, xlo, ylo, mode, delta1, delta2))
    w, z = cw.upper_nodes, cz.upper_nodes
    left = _made(made, (cw, t1), lambda: Side(
        w, cw.upper_weights, -(w ** 3 / 3.0 + t1 * w ** 2), w))
    right = _made(made, (cz, t2), lambda: Side(
        z, cz.upper_weights, z ** 3 / 3.0 + t2 * z ** 2, -z))
    coupled = _coupling(made, cw, cz)
    _base_rows(made, base, [left], [right])
    return lambda xs, ys, rx=Side.rows, ry=Side.rows: contour_fill(rx(left, xs), ry(right, ys),
                                                                   coupled)


def j_airy(t1, x, t2, y, mode="wedge", delta1=None, delta2=None):
    """Double-contour form of the extended Airy kernel.

    (1/2 pi i)^2 int_{G-} dw int_{G+} dz e^{z^3/3 + t2 z^2 - yz} /
    e^{w^3/3 + t1 w^2 - xw} / (z - w).  ``mode='wedge'`` uses the wedge
    deformations: the z wedge at angles +-pi/3 through delta1 and the
    w wedge at +-2pi/3 through delta2, with delta1 > delta2 > max|t|.  Both
    are steepest-descent rays of the cubic term, so the integrands decay
    like e^{-tau^3/3} along them.  ``mode='vertical'`` keeps vertical lines
    at +-delta.
    """
    return _pointwise(partial(_jairy_engine, t1, t2, mode=mode, delta1=delta1, delta2=delta2),
                      x, y)


def _dyson_edge_engine(nu, b, rho, s, shifts, tmax, length):
    """Contour part of the edge-rescaled Hermitian kernel, as slots(shift, g).

    Block (i, j) is rho (1/2 pi i)^2 int dw int dz e^{psi_j(y, z) - psi_i(x, w)} / (z - w),
    psi_i(u, v) = (s_i/2) v^2 - (rho u + shift_i) v + log prod(v - nu_k) - g_i + rho b u:
    inverse time s_i, edge coordinates, conjugated by e^{g_i - rho b u}.  The
    w wedge opens at 5pi/6 through b + (tmax + 1/2)/rho, the z line runs at
    b + (tmax + 1)/rho, sized for every shift in ``shifts`` (those of all
    thresholds of a curve) and arguments up to ``length``.  ``slots(shift,
    g)`` makes the sides of one threshold and returns its fills[i][j](xs, ys);
    with a dict ``made`` and ``base[i]``, the base nodes of slot i, it also
    makes the rows of slot i's sides there once.
    """
    delta2 = tmax + 0.5
    line = b + (delta2 + 0.5) / rho
    smax = s.max()
    xref = shifts.min()  # smallest 'X' has the slowest wedge decay
    cw = ray_wedge(b + delta2 / rho, 5 * np.pi / 6,
                   lambda w: 0.5 * smax * w ** 2 - xref * w + _log_poly(w, nu),
                   4.0 * (b - nu.min()) + 6.0)
    Ymax = shifts.max() + rho * length
    slope = (abs(smax * line - Ymax) + abs(smax * line - shifts.min())
             + np.sum(1.0 / np.abs(line - nu)))
    T = np.sqrt(2.0 * (_DROP + 10.0 + np.log1p(nu.size)) / s.min())
    nz = int(min(16384, max(256, 64 + 1.4 * slope * T)))
    cz = make_contour("vertical", offset=line, half_height=T, nodes=nz)
    w, z = cw.upper_nodes, cz.upper_nodes
    w2, z2 = w ** 2, z ** 2
    log_poly_w, log_poly_z = _log_poly(w, nu), _log_poly(z, nu)
    coupled = couplings(w, z)

    def slots(shift, g, made=None, base=()):
        lefts = [Side(w, cw.upper_weights, g[i] - 0.5 * s[i] * w2 + shift[i] * w, rho * (w - b),
                      -log_poly_w) for i in range(len(s))]
        rights = [Side(z, cz.upper_weights, 0.5 * s[j] * z2 - shift[j] * z - g[j], rho * (b - z),
                       log_poly_z) for j in range(len(s))]
        for left, right, u in zip(lefts, rights, base):
            _base_rows(made, (u, u), [left], [right])

        def fill(left, right, xs, ys, rx=Side.rows, ry=Side.rows):
            return rho * contour_fill(rx(left, xs), ry(right, ys), coupled)

        return [[partial(fill, left, right) for right in rights] for left in lefts]

    return slots


def kixjy_conjugation(t, u):
    """The determinant-neutral factor relating the two extended-kernel forms.

    -e^{(t2-t1) d^2} 1{t2>t1} + J_Airy(t1, x; t2, y) equals
    c(t1, x)/c(t2, y) times the extended Airy kernel at the parabolically
    shifted points (x + t1^2, y + t2^2), with c(t, u) = e^{-2t^3/3 - t u}
    (verified numerically to machine precision; c cancels in every
    Fredholm determinant).
    """
    return np.exp(-2.0 * t ** 3 / 3.0 - t * u)


# ---------------------------------------------------------------------------
# extended Brownian and Hermitian kernels
# ---------------------------------------------------------------------------

def _brownian_block(kind, mu, t_i, t_j, xs, ys, fill=None, made=None):
    """Narrow-wedge or flat block of the extended Brownian kernel on a grid.

    k_nw or k_flat at (t_i, x; t_j, y), minus e^{(t_j-t_i) d^2/2}(x, y)
    when t_i < t_j.  Without a prepared ``fill`` the block builds its own,
    sharing what it can with the builds of the dict ``made``.
    """
    fill = fill or _brownian_engine(kind, mu, t_i, t_j, xs, ys, made)
    block = fill(xs, ys)
    if t_i < t_j:
        block = block - heat_op_half(t_j - t_i, xs[:, None], ys[None, :])
    return block
