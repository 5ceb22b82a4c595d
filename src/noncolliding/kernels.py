"""Pointwise evaluators for the continuum correlation kernels.

Every kernel is a (single or double) contour integral.  Where a contour encloses nothing
but poles at the rates or drifts mu_i (the rate kernels, s_minus and the w side of the
narrow-wedge and flat kernels), it is a divided difference there, (1/2 pi i) oint
f(w)/prod(w - mu_i) dw = f[mu_1, ..., mu_m] for entire f, taken exactly: f = e^{uw +
alpha w^2} by :func:`_exp_differences`, its products with polynomials by Leibniz's rule.
These kernels are thus L(x) C R(y)^T at rank m, with no contour.  The narrow-wedge and
flat z integrands are Gaussians times polynomials, with a pole at each mirrored drift when
flat, so N_p(y) of their sum_p M_p(x) N_p(y) is in Hermite and Mills-ratio terms
(:func:`_z_side`), as s_bar is in Hermite terms.  The arith zeta contour encloses nothing
but the poles 0, -1, -2, ... of Gamma(zeta), so its zeta side is their residues, a few
terms, exact: the kernel has rank K + 1, and only its z side is a quadrature.

The Airy and Dyson-edge kernels are double integrals, on whose nodes K(x, y) =
L(x) C R(y)^T with C = 1/(z - w), dense or, for Airy, as P Q by :func:`low_rank`.  Each
family declares its two :class:`Side` objects, every row stabilized by subtracting its
largest exponent, and :func:`contour_fill` forms every product.  Their parameters are
real, so every contour is symmetric about the real axis (see :mod:`.contours`): a side
holds only its contour's upper half, and :func:`contour_fill` returns 2 Re of the sum
over it, the lower half entering through f(z-bar) = conj f(z), w(z-bar) = -conj w(z).

Each of their ``_*_engine``s is split in two.  The build (the engine call) sizes the
contours for the argument spans it is given and makes the sides' argument-free factors
and the couplings; the fill it returns takes the arguments of one block.  A pointwise
kernel builds from its own arguments, a threshold grid once from the union of its Nystrom
nodes.  Slot i then fills at its base nodes u shifted by a_i: the build makes each side's
rows once, at u, and a threshold scales their columns by e^{a_i m} (:func:`shifted_rows`),
one complex multiply per entry.  A grid of enough thresholds also factors each Airy
coupling once, to low rank (:func:`_coupling`); a single query keeps them dense.

Heat-operator conventions (two distinct semigroups appear and differ by a
factor of 2 in the variance; both are housed here explicitly):

- ``heat_op_half(t, x, y)`` is e^{t d^2/2}(x, y), a Gaussian of variance t
  (used by the Brownian and Hermitian extended kernels);
- ``heat_op_full(t, x, y)`` is e^{t d^2}(x, y), a Gaussian of variance 2t
  (used by the extended Airy kernel blocks).
"""

import numpy as np
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, factorial, lgamma

from .contours import gauss_legendre, make_contour, ray_wedge
from .defaults import DEFAULTS
from .exceptions import DomainError, ParameterError
from .fredholm import _one_blas_thread
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

    The nodes and weights are those of a contour's upper half.  Per node (or scalar):
    ``phi`` is the argument-free polynomial exponent, ``m`` the multiplier of the argument u
    and ``log_factor`` the log of the pole or zero factor, added after u m.  Sides compare
    by identity, so a build can key its couplings and base rows on them.
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
    2017): their rank is about 40 between the Airy wedges.  Like
    the determinants it runs on one BLAS thread, which its factors thus do
    not depend on.
    """
    k = min(64, *C.shape)
    with _one_blas_thread():
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


def contour_fill(left_rows, right_rows, coupled):
    """K(x, y) = L(x) C R(y)^T over whole double contours, from the rows of the sides' upper halves.

    ``left_rows`` and ``right_rows`` are what :meth:`Side.rows` returns for xs and ys; a row
    at a mirrored node z-bar is -conj of the row at z.  C is 1/(2 pi i)^2 times the coupling
    (P, Q, Q-bar): C(w, z) = P Q and C(w, z-bar) = P Q-bar on the upper halves, P None the
    identity.  The pairs (w, z), (w-bar, z-bar) sum to 2 Re(L C R^T) and the pairs (w, z-bar),
    (w-bar, z) to -2 Re(L C(w, z-bar) conj(R)^T): K = -Re(A P G) / (2 pi^2), G = Q B^T - Q-bar B^H.
    """
    (A, top_x), (B, top_y) = left_rows, right_rows
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


# ---------------------------------------------------------------------------
# divided differences at the poles
# ---------------------------------------------------------------------------

def _newton_table(w, near):
    """D[k][i] = f[w_i, ..., w_{i+k}] at sorted nodes w by Newton's recursion, level k by level.

    ``near(k, wide)`` gives level k, len(w) - k rows, from its quotients wide[i] = (D[k-1][i+1]
    - D[k-1][i]) / (w_{i+k} - w_i), not finite where the nodes merge (None at k = 0).
    """
    w, D = np.asarray(w), [near(0, None)]
    with np.errstate(all="ignore"):
        for k in range(1, len(w)):
            D.append(near(k, (D[-1][1:] - D[-1][:-1]) / (w[k:] - w[:-k]).reshape(-1, 1)))
    return D


# the widest span ratio r at which a Taylor series replaces Newton's quotient, and the
# terms past the k-th that it sums: they leave out less than 1e-18 of it up to r = 1
_NEAR, _TERMS = 1.0, 34


@lru_cache(maxsize=256)
def _exp_series(w, alpha):
    """Per level k, (mid, half, s, e): the Taylor series of :func:`_exp_differences` per span.

    At w = mid + d, e^{beta d + alpha d^2} = sum_b beta^b d^b/b! sum_c alpha^c d^(2c)/c!, and d^a
    has the divided differences h_{a-k}(d), complete homogeneous polynomials, at the span's
    k + 1 nodes.  So f[w_i..w_{i+k}] = e^{u mid + alpha mid^2} sum_b e_b (s beta)^b, e_b =
    s^-k sum_c (alpha s^2)^c h_{b+2c-k}(d/s)/(b! c!), s the half-width or 1 if it is 0.  It
    cancels at most e^{2r}, r = half (|beta| + sqrt(2|alpha|)); e is 0 on spans too wide for r.
    """
    levels, w = [], np.asarray(w)
    for k in range(len(w)):
        mid, half = 0.5 * (w[:len(w) - k] + w[k:]), 0.5 * (w[k:] - w[:len(w) - k])
        e, terms = np.zeros((len(mid), k + _TERMS + 1)), 1
        for i in np.flatnonzero(half * np.sqrt(2.0 * abs(alpha)) <= _NEAR):
            n, s = (k + _TERMS, half[i]) if half[i] > 0 else (k, 1.0)
            h = complete_homogeneous((w[i:i + k + 1] - mid[i]) / s, n - k)
            gauss = np.zeros(n + 1)
            gauss[::2] = [(alpha * s * s) ** j / factorial(j) for j in range(n // 2 + 1)]
            b = np.correlate(np.concatenate([np.zeros(k), h]), gauss, "full")[n:]
            e[i, :n + 1] = b / [factorial(j) for j in range(n + 1)] / s ** k
            terms = max(terms, n + 1)
        levels.append((mid[:, None], half[:, None], np.where(half > 0, half, 1.0)[:, None],
                       e[:, :terms]))
    return levels


def _exp_differences(w, alpha, u):
    """D[k][i] = f[w_i, ..., w_{i+k}] for f(w) = e^{uw + alpha w^2}, w a sorted tuple, over u.

    A span sums f's Taylor series at its midpoint (:func:`_exp_series`) where r <= ``_NEAR``,
    exact as its nodes merge, and elsewhere divides the difference of its two sub-spans,
    which enlarges their rounding by about k/(2r).
    """
    levels, slope = _exp_series(w, alpha), np.sqrt(2.0 * abs(alpha))

    def near(k, wide):
        mid, half, scale, e = levels[k]
        lead = np.exp(u * mid + alpha * mid ** 2)
        if k == 0:
            return lead
        beta = u + 2.0 * alpha * mid
        powers = np.ones(beta.shape + (e.shape[1],))
        powers[..., 1:] = (beta * scale)[..., None]
        series = (np.cumprod(powers, axis=-1, out=powers) @ e[..., None])[..., 0] * lead
        return np.where(half * (np.abs(beta) + slope) <= _NEAR, series, wide)

    return _newton_table(w, near)


@lru_cache(maxsize=256)
def _power_differences(w, c, n):
    """T[i, j, l] = (w - c)^l [w_i..w_j] = h_{l-(j-i)}(w_i - c, ..., w_j - c), l <= n; T @ a thus
    holds those of the polynomial sum_l a_l (w - c)^l, and 0 for i > j."""
    d, m = np.asarray(w) - c, len(w)
    T = np.zeros((m, m, n + 1))
    for i in range(m):
        for j in range(i, m):
            T[i, j, j - i:] = complete_homogeneous(d[i:j + 1], n - (j - i))
    return T


def _first_row(D):
    """f[w_0..w_k] for each k, one column each, from a table of :func:`_newton_table`."""
    return np.stack([level[0] for level in D], axis=-1)


# ---------------------------------------------------------------------------
# product kernels at the rates
# ---------------------------------------------------------------------------

def _rate_kernel(beta, xs, ys):
    """The rate kernel on xs x ys at rank n = len(beta): K = (-1)^(n+1) f[beta] for f =
    e^{-xw} p(w) e^{-yw}, p = prod (w + beta_i), which Leibniz's rule makes L(x) C R(y)^T,
    sum_{i<=j} e^{-xw}[beta_0..beta_i] p[beta_i..beta_j] e^{-yw}[beta_j..beta_{n-1}]."""
    beta = np.asarray(beta, dtype=float)
    if not np.all(beta > 0):
        raise ParameterError("rates beta must all be positive")
    w, n, c = tuple(np.sort(beta)), len(beta), 0.5 * (beta.min() + beta.max())
    C = _power_differences(w, c, n) @ np.poly(-beta - c)[::-1]  # p[beta_i..beta_j]
    Ex = _exp_differences(w, 0.0, -xs)
    Ey = Ex if ys is xs else _exp_differences(w, 0.0, -ys)
    R = np.stack([Ey[n - 1 - j][j] for j in range(n)], axis=-1)
    return (-(-1.0) ** n * _first_row(Ex)) @ C @ R.T


def k_piflat(beta, x, y):
    """Symmetric exponential-product kernel for the point-to-line passage law.

    K(x, y) = -(1/2 pi i) * oint e^{-(x+y)w} prod_i (beta_i + w)/(beta_i - w) dw
    over a counter clockwise contour enclosing the poles +beta_i and excluding
    all -beta_i, in closed form by :func:`_rate_kernel`.  Depends on x + y only.
    """
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    # a one-column grid at y = 0 carries every x + y
    s, zero = (x + y).ravel(), np.zeros(1)
    vals = _rate_kernel(beta, s, zero)[:, 0].reshape(x.shape)
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

    (1/2 pi i) oint e^{-(t/2) z^2 + (x-y) z} prod (z - mu_i)^{-1} dz around
    the drifts: the divided difference of e^{(x-y) z - (t/2) z^2} at them.
    """
    mu = _drifts(mu)
    if not t > 0:
        raise DomainError("need t > 0")
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    vals = _exp_differences(tuple(np.sort(mu)), -0.5 * t, (x - y).ravel())[-1][0].reshape(x.shape)
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
    out = np.where((x > 0) & (y > 0), s_bar(mu, t, -x, y), s_bar(mu, t, x, y))
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# narrow-wedge and flat double-contour kernels
# ---------------------------------------------------------------------------

def _tail_differences(t, w):
    """differences(y), the Newton table at sorted w of H(w) = e^{wy} Phi-bar((y + tw)/sqrt t).

    At w = mid + d, H = e^{y mid} G(d) phi(u) R(u + d sqrt t), u = (y + t mid)/sqrt t,
    G(d) = e^{-t mid d - t d^2/2} and R = Phi-bar/phi the Mills ratio (by :func:`erfcx`), and
    phi(u) R(u + x) = sum_k (-1)^k S_k x^k with S_k(u) = int_0^inf r^k/k! phi(u + r) dr:
    k S_k = S_{k-2} - u S_{k-1}, S_{-1} = phi(u), S_0 = Phi-bar(u): phi(u) R(|u|), or 1 less
    it if u < 0.  Spans up to 1/(sqrt t + t |mid|) wide sum that series at their midpoint;
    wider ones, where it would cancel, take Newton's quotient.  The part free of y is made here.
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
        S = np.array(S[1:]) * np.exp(y * mids)

        def near(k, wide):
            rows = [None] * len(w) if wide is None else list(wide)
            for i in range(len(w) - k):
                if (i, i + k) in series:
                    mid, c = series[i, i + k]
                    rows[i] = c @ S[:len(c), np.searchsorted(mids[:, 0], mid)]
            return np.array(rows)

        return _newton_table(w, near)

    return differences


@lru_cache(maxsize=64)
def _z_side(mu, c, t, flat):
    """side(ys): the narrow-wedge or flat kernel's z side at time t in closed form, (N, N_tail).

    The w integral takes the z integral Psi(w, y) = (1/2 pi i) int e^{(t/2) z^2 - yz} q(z)
    C(z, w) dz, C = 1/(z - w), + 1/(z + w) if flat, only at the drifts, so only its remainder
    modulo q(w) enters, in powers v^p, v = w - c.  With q(c + v) = sum_k a_k v^k, (q(z) -
    q(w))/(z - w) = sum_p v^p sum_{k>p} a_k (z - c)^{k-1-p} gives N_p in Hermite terms
    (:func:`_gaussian_moments`).  Flat adds q(z)/(z + w) = (q(z) - q(-w))/(z + w) + q(-w)/(z + w):
    sum_p (-v - 2c)^p N_p, and the pole at z = -w, q(-w) e^{t w^2/2} H(w)
    (:func:`_tail_differences`): N_tail[k] = (q(-w) H)[w_k..w_{m-1}] at the sorted drifts, the
    caller's w side taking e^{t w^2/2}, which split across the sides would cost
    e^{t (mu_i^2 - mu_j^2)/2}.  N_tail is None for the narrow wedge; both are 0 at y <= 0 if flat.
    """
    mu, m = np.asarray(mu), len(mu)
    a = np.poly(mu - c)[::-1]
    if flat:
        # (-v - 2c)^p = sum_j C(p, j) (-1)^j (-2c)^(p-j) v^j, added to the identity
        mirror = np.eye(m) + np.array([[comb(p, j) * (-1.0) ** j * (-2.0 * c) ** (p - j)
                                        if p >= j else 0.0 for p in range(m)] for j in range(m)])
        nodes = np.sort(mu)
        tail = _tail_differences(t, nodes)
        # q(-w)[w_k..w_l], from its coefficients in powers of v
        Q = _power_differences(tuple(nodes), c, m) @ (np.poly(-nodes - c)[::-1] * (-1.0) ** m)

    def side(ys):
        H = _gaussian_moments(t, c, ys, m)
        N = np.array([a[p + 1:] @ H[:m - p] for p in range(m)])
        if not flat:
            return N, None
        D = tail(ys)  # Leibniz: sum_l q(-w)[w_k..w_l] H[w_l..w_{m-1}]
        return (mirror @ N) * (ys > 0), Q @ np.array([D[m - 1 - l][l] for l in range(m)]) * (ys > 0)

    return side


def _brownian_engine(kind, mu, t1, t2, made=None):
    """Narrow-wedge or flat kernel fill(xs, ys) at times (t1, t2).

    It is sum_p M_p(x) N_p(y), (N, N~) from :func:`_z_side`, M_p(x) = (1/2 pi i) oint
    e^{xw - (t1/2) w^2} v^p/q(w) dw around the drifts w_k, v = w - c, c their midpoint: by
    Leibniz's rule sum_k e^{xw - (t1/2) w^2}[w_0..w_k] v^p[w_k..w_{m-1}].  Flat adds sum_k
    e^{xw + (t2 - t1) w^2/2}[w_0..w_k] N~_k(y).  Fills sharing a dict ``made`` share M and N.
    """
    if not (t1 > 0 and t2 > 0):
        raise DomainError("need positive times")
    mu, flat, made = _drifts(mu), kind == "flat", {} if made is None else made
    w, c = tuple(np.sort(mu)), 0.5 * (mu.min() + mu.max())
    V = _power_differences(w, c, len(mu) - 1)[:, -1]  # (w - c)^p [w_k..w_{m-1}]

    def fill(xs, ys):
        z_side = _z_side(tuple(mu), c, t2, flat)
        N, N_tail = _made(made, ("z", t2, ys.tobytes()), lambda: z_side(ys))
        M = _made(made, ("w", t1, xs.tobytes()),
                  lambda: _first_row(_exp_differences(w, -0.5 * t1, xs)) @ V)
        K = M @ N
        if flat:
            K += _first_row(_exp_differences(w, 0.5 * (t2 - t1), xs)) @ N_tail
        return K

    return fill


def k_nw(mu, t1, x, t2, y):
    """Narrow-wedge double-contour kernel.

    (1/2 pi i)^2 oint_gamma dw int_Gamma dz
    e^{(t2/2) z^2 - y z} / e^{(t1/2) w^2 - x w} * prod (z-mu_i)/(w-mu_i) / (z-w),
    with gamma a counter clockwise circle around the drifts and Gamma a
    vertical line strictly to its right.
    """
    return _pointwise(lambda xs, ys: _brownian_engine("narrow_wedge", mu, t1, t2), x, y)


def k_flat(mu, t1, x, t2, y):
    """Flat-boundary kernel: 1/(z-w) and 1/(z+w) couplings, both times 1{y>0}.

    As :func:`k_nw`, with Gamma right of the mirrored drifts -mu_i too.
    """
    return _pointwise(lambda xs, ys: _brownian_engine("flat", mu, t1, t2), x, y)


# ---------------------------------------------------------------------------
# arithmetic-spectrum kernel (Gamma-ratio double contour) at rank K + 1
# ---------------------------------------------------------------------------

def _pole_count(delta, xmin):
    """K + 1 for the poles 0, -1, ..., -K of Gamma whose residue terms e^{-(D^2/2) k^2 - k x}/k!
    come within e^{-(DROP + 10)} of the largest at x = xmin, and so at every x >= xmin."""
    if not delta > 0:
        raise DomainError("need delta > 0")
    drop = _DROP + 10.0
    k = np.arange(int((max(0.0, -xmin) + 1.0) / delta ** 2 + np.sqrt(2.0 * drop) / delta) + 3)
    size = -0.5 * delta ** 2 * k ** 2 - k * xmin - np.array([lgamma(j + 1.0) for j in k])
    return int(np.flatnonzero(size >= size.max() - drop)[-1]) + 1


def _residues(delta, xs, count):
    """u_k(x) = (-1)^k e^{-(D^2/2) k^2 - kx}/k!, k < count, one row per x, by their ratios: the
    exp of the whole exponent would carry the rounding of kx or log k!."""
    k = np.arange(1, count)
    ratios = -np.exp(np.subtract.outer(-np.asarray(xs), 0.5 * delta ** 2 * (2 * k - 1))) / k
    return np.cumprod(np.insert(ratios, 0, 1.0, axis=-1), axis=-1)


_OFFSETS = 0.5 * 1.08 ** np.arange(60)  # the real parts the arith z line may take
_LOG_GAMMA = np.array([lgamma(c) for c in _OFFSETS])


def _z_line(delta, y, gamma_func=None):
    """(z, f): the upper half z of the arith z line for argument y, f its weights times
    e^{(D^2/2) z^2 - yz}/Gamma(z).

    Its offset c keeps the integrand least, so its sum cancels least: on the axis, the real
    saddle D^2 c - psi(c) = y where one exists; off it, at t = pi/(2 D^2), where the Gaussian
    and |1/Gamma(c + it)| <= e^{pi |t|/2} |1/Gamma(c)| peak together.  The trapezoidal rule is
    cut where the Gaussian has outrun that bound by e^{DROP + 10}; its step keeps the aliasing
    of the oscillation and of the pole at z = 0 (of G's corner entry) below e^{-(DROP + 10)}.
    """
    d2, drop, t = delta * delta, _DROP + 10.0, np.pi / (2.0 * delta * delta)
    off_axis = -0.5 * d2 * t * t - np.log(np.abs(complex_gamma(_OFFSETS + 1j * t)))
    c = _OFFSETS[np.argmin(0.5 * d2 * _OFFSETS ** 2 - y * _OFFSETS
                           + np.maximum(-_LOG_GAMMA, off_axis))]
    half_height = (np.pi / 2 + np.sqrt(np.pi ** 2 / 4 + 2.0 * d2 * drop)) / d2
    rate = abs(d2 * c - y) + np.log(c + half_height) + 1.0 / c
    step = 2.0 * np.pi * min(c / drop, 1.0 / (rate + np.sqrt(2.0 * d2 * drop)))
    cz = make_contour("trapezoid", offset=c, half_height=half_height,
                      nodes=min(16385, 2 * int(np.ceil(half_height / step)) + 1))
    z = cz.upper_nodes
    gamma = (complex_gamma if gamma_func is None else gamma_func)(z)
    return z, cz.upper_weights * np.exp(0.5 * d2 * z * z - y * z - np.log(gamma))


def _arith_rank_form(delta, a):
    """(G, F): det(I - K_delta) on L^2(a, infinity) = det(I - G), F the rounding of G's columns.

    G_kl = int_a^inf v_k u_l dx (:func:`k_delta`) = u_l(a) (1/2 pi i) int e^{(D^2/2) z^2 - az}/
    (Gamma(z)(z + k)(z + l)) dz on the z line of a: Im(E A^T)/pi over its upper half, as its
    mirror adds -conj of each term.  F_l is eps times column l's terms in absolute value, each
    at most |E_0| |A_l| as |z + k| >= |z|: one more row.
    """
    count = _pole_count(delta, a)
    z, f = _z_line(delta, a)
    A = 1.0 / np.add.outer(np.arange(count), z)
    E, s = A * f, _residues(delta, a, count)
    F = np.finfo(float).eps / np.pi * (np.abs(E[0]) @ np.abs(A).T) * np.abs(s)
    return (E @ A.T).imag / np.pi * s, F


def k_delta(delta, x, y, gamma_func=None):
    """Gamma-ratio kernel of the arithmetic-spectrum edge law.

    Double contour integral of e^{(D^2/2)(z^2 - zeta^2) - yz + x zeta} Gamma(zeta)/Gamma(z) /
    (z - zeta), zeta around the poles 0, -1, -2, ... of Gamma: sum_k u_k(x) v_k(y) over the
    residues u_k (:func:`_residues`, cut by :func:`_pole_count`), v_k(y) = (1/2 pi i) int
    e^{(D^2/2) z^2 - yz}/(Gamma(z)(z + k)) dz on the z line of y, an entire integrand.
    ``gamma_func`` may replace its Gamma evaluator (e.g. by a truncated product) for validation.
    """
    def fill(xs, ys):
        k = np.arange(_pole_count(delta, xs.min()))
        lines = [_z_line(delta, y, gamma_func) for y in ys]
        V = np.array([((1.0 / np.add.outer(k, z)) @ f).imag for z, f in lines]).T / np.pi
        return _residues(delta, xs, len(k)) @ V

    return _pointwise(lambda xs, ys: fill, x, y)


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

def _brownian_block(kind, mu, t_i, t_j, xs, ys, made=None):
    """Narrow-wedge or flat block of the extended Brownian kernel on a grid: k_nw or k_flat at
    (t_i, x; t_j, y), minus e^{(t_j-t_i) d^2/2}(x, y) when t_i < t_j, sharing ``made``."""
    block = _brownian_engine(kind, mu, t_i, t_j, made)(xs, ys)
    if t_i < t_j:
        block = block - heat_op_half(t_j - t_i, xs[:, None], ys[None, :])
    return block
