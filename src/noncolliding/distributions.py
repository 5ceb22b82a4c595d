"""Distribution functions assembled from kernels and Fredholm engines."""

from dataclasses import dataclass, field

import numpy as np

from .defaults import DEFAULTS
from .exceptions import DomainError, ParameterError
from .fredholm import BlockKernel, apply_conjugation, det_nystrom, det_ratio, single_slot_kernel
from .kernels import (_brownian_block, _drifts, _dyson_edge_engine, _jairy_eval,
                      _piflat_engine, BoundaryFunction, heat_op_full, k_delta, k_flat,
                      kixjy_conjugation)

__all__ = [
    "EdgeScaling", "edge_scaling", "f_class_bounds", "f_class_contains",
    "cdf_piflat", "cdf_loe_max", "cdf_bridge_allmax", "cdf_bridge_runningmax",
    "cdf_arithmetic_limit", "cdf_blpp", "airy_fdd", "cdf_dyson_edge",
    "CdfQuery", "FAMILIES", "evaluate_cdf", "piflat_block", "loe_block", "bridge_block",
    "runningmax_block", "arith_block", "blpp_block", "airy_block", "dyson_edge_block",
]


# ---------------------------------------------------------------------------
# edge-scaling constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeScaling:
    """Spectral-edge constants (b, a, d) attached to a point cloud."""

    nu: tuple
    b: float
    a: float
    d: float

    def residual(self):
        nu = np.asarray(self.nu)
        return abs(np.mean(1.0 / (self.b - nu) ** 2) - 1.0)


def edge_scaling(nu):
    """Solve for the edge constants of a point cloud.

    b > max(nu) is the unique root of mean((b - nu_j)^-2) = 1 (strictly
    decreasing in b), found by bisection on the guaranteed bracket
    (max nu + 0.9/sqrt(n), max nu + sqrt(n) + 1) and polished by Newton;
    then a = b + mean(1/(b - nu_j)) and d = mean((b - nu_j)^-3)^(1/3).
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size < 1 or not np.all(np.isfinite(nu)):
        raise ParameterError("need a nonempty finite point cloud")
    n = nu.size
    mx = nu.max()

    def phi(b):
        return np.mean(1.0 / (b - nu) ** 2) - 1.0

    lo, hi = mx + 0.9 / np.sqrt(n), mx + np.sqrt(n) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(mid)):
            break
    b = 0.5 * (lo + hi)
    for _ in range(4):
        deriv = -2.0 * np.mean(1.0 / (b - nu) ** 3)
        b = b - phi(b) / deriv
    a = b + np.mean(1.0 / (b - nu))
    d = float(np.mean(1.0 / (b - nu) ** 3) ** (1.0 / 3.0))
    return EdgeScaling(tuple(nu), float(b), float(a), d)


def f_class_bounds(nu):
    """Sandwich bounds (alpha, beta) for the distances b(nu) - nu_j.

    alpha = sup_eta (sqrt(rho(nu, eta)) - eta)/2 where rho is the fraction
    of points within eta of the top; the sup runs over a 512-point grid
    plus the jump locations of rho (where the sup of the step function is
    attained exactly).  beta = diam(nu) + 2.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    diam = float(nu.max() - nu.min())
    etas = np.unique(np.concatenate([
        np.linspace(0.0, diam, 512), nu.max() - np.sort(nu)]))
    rho = np.searchsorted(np.sort(nu.max() - nu), etas, side="right") / nu.size
    alpha = float(np.max((np.sqrt(rho) - etas) / 2.0))
    return alpha, diam + 2.0


def f_class_contains(nu, alpha, beta):
    """Direct check alpha <= b(nu) - nu_j <= beta for every j."""
    es = edge_scaling(nu)
    gaps = es.b - np.asarray(nu, dtype=float)
    return bool(np.all(gaps >= alpha) and np.all(gaps <= beta))


# ---------------------------------------------------------------------------
# single-contour product-kernel families
# ---------------------------------------------------------------------------

def piflat_block(beta, a, length=None):
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if length is None:
        length = max(12.0, 36.0 / (2.0 * beta.min()))
    thr = max(float(a), 0.0)
    return single_slot_kernel(
        lambda xs, ys: _piflat_engine(beta, xs, ys), thr, length, "piflat")


def loe_block(n, a, length=None):
    return piflat_block(np.ones(int(n)), a, length)


def bridge_block(nu, r, length=None):
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    beta = 1.0 - nu / r
    if length is None:
        length = max(12.0, 36.0 / (2.0 * beta.min()))
    return single_slot_kernel(
        lambda xs, ys: _piflat_engine(beta, xs + r * r, ys + r * r), 0.0, length, "bridge")


def cdf_piflat(beta, a, nodes=None, length=None):
    """Law of the point-to-line passage value: det(I - chi K chi).

    The projection is onto [max(a, 0), infinity); for a < 0 the value is 0
    (the passage value is almost surely positive, and the determinant
    vanishes identically there).
    """
    return det_nystrom(piflat_block(beta, a, length), nodes, refine=False).value


def cdf_loe_max(n, a, nodes=None, length=None):
    """P(largest eigenvalue of X^t X <= 4a) for X (n+1) x n standard normal."""
    return det_nystrom(loe_block(n, a, length), nodes, refine=False).value


def cdf_bridge_allmax(nu, r, nodes=None, length=None):
    """P(max over [0,1] of the top nu-started noncolliding bridge <= r)."""
    return det_nystrom(bridge_block(nu, r, length), nodes, refine=False).value


def runningmax_block(n, s, a, length=None):
    if not 0.0 < s < 1.0:
        raise DomainError("need 0 < s < 1 (use the all-time law at s = 1)")
    if not a > 0:
        raise DomainError("need a > 0")
    T = a * a * s / (1.0 - s)
    mu = -np.ones(int(n))
    if length is None:
        length = min(38.0, max(10.0, 6.0 + 4.0 * np.sqrt(T)))
    return single_slot_kernel(
        lambda xs, ys: np.atleast_2d(k_flat(mu, T, xs + a * a, T, ys + a * a)),
        0.0, length, "runningmax")


def cdf_bridge_runningmax(n, s, a, nodes=None, length=None):
    """P(max over [0, s] of the top of n noncolliding bridges <= a).

    Uses the flat kernel at equal times T = a^2 s/(1-s) with all drifts -1
    and both arguments shifted by a^2.  s = 1 reduces to the all-time law.
    """
    if s == 1.0:
        return cdf_loe_max(n, a * a, nodes)
    if s == 0.0:
        return 1.0
    return det_nystrom(runningmax_block(n, s, a, length), nodes, refine=False).value


def arith_block(delta, a, length=None, gamma_func=None):
    length = 40.0 + max(0.0, -float(a)) if length is None else length
    return single_slot_kernel(
        lambda xs, ys: np.atleast_2d(k_delta(delta, xs, ys, gamma_func=gamma_func)),
        float(a), length, "arith")


def cdf_arithmetic_limit(delta, a, nodes=None, length=None):
    """Limit law of the rescaled top eigenvalue over an arithmetic spectrum.

    det(I - K_delta) on L^2[a, infinity).  Monotonicity and [0,1] range are
    checked numerically as diagnostics, not asserted as proved properties.
    For delta = 2 this is the limit of
    P(gamma_1 <= n - 1 + (a + log(n-1))/2) for the log-eigenvalue of
    Brownian motion on positive-definite matrices.
    """
    return det_nystrom(arith_block(delta, a, length), nodes, refine=False).value


# ---------------------------------------------------------------------------
# extended (multi-slot) kernels
# ---------------------------------------------------------------------------

def _drift_conjugation(mu, k):
    base = 1.0 + float(np.max(np.abs(mu)))

    def c(i, x):
        kappa = base + (k - i)  # decreasing in slot index
        return np.exp(-kappa * np.abs(x))

    return c


def blpp_block(b, mu, times, thresholds, lengths=None, conjugate=True):
    """Block kernel of boundary-driven BLPP at several times (closed forms)."""
    mu = _drifts(mu)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ParameterError("times must be positive and strictly increasing")
    if b.kind not in ("narrow_wedge", "flat"):
        raise ParameterError("determinants support the narrow-wedge and flat "
                             "boundaries; general boundaries only have the "
                             "pointwise Monte Carlo kernel")
    tmax = times.max()
    if lengths is None:
        drift_push = max(0.0, mu.max()) * tmax
        lengths = max(12.0, 2.0 * np.sqrt(tmax * (DEFAULTS["decay_drop"] - 5.0))
                      + 2.0 * drift_push)

    def eval_block(i, j, xs, ys):
        return _brownian_block(b.kind, mu, times[i], times[j], xs, ys)

    K = BlockKernel(times, thresholds, eval_block, lengths, label="blpp-" + b.kind)
    if conjugate:
        K = apply_conjugation(K, _drift_conjugation(mu, len(times)))
    return K


def cdf_blpp(b, mu, times, thresholds, nodes=None, lengths=None, conjugate=True):
    """Joint law P(BLPP(b; (t_i, m)) <= a_i for all i) as a block determinant."""
    K = blpp_block(b, mu, times, thresholds, lengths, conjugate)
    return det_nystrom(K, nodes, refine=False).value


def airy_block(times, xi, lengths=14.0):
    """Block kernel whose determinant gives P(A(t_i) <= xi_i for all i).

    Block (i, j) is -e^{(t_j - t_i) d^2} 1{t_j > t_i} + J_Airy at
    (t_i, x + xi_i; t_j, y + xi_j), scaled by the :func:`kixjy_conjugation`
    ratio so that it equals K_Airy(t_i, x + xi_i + t_i^2; t_j, y + xi_j + t_j^2)
    pointwise and decays in both arguments.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be strictly increasing")
    if len(times) != len(xi):
        raise ParameterError("need one threshold per time")

    def eval_block(i, j, xs, ys):
        block = _jairy_eval(times[i], times[j], xs + xi[i], ys + xi[j])
        if times[j] > times[i]:
            block = block - heat_op_full(times[j] - times[i],
                                         (xs + xi[i])[:, None], (ys + xi[j])[None, :])
        ci = kixjy_conjugation(times[i], xs + xi[i])
        cj = kixjy_conjugation(times[j], ys + xi[j])
        return block * np.outer(1.0 / ci, cj)

    return BlockKernel(times, np.zeros_like(times), eval_block, lengths, label="airy")


def airy_fdd(times, xi, nodes=None, lengths=14.0):
    """Finite-dimensional law of the Airy process at the given times."""
    return det_nystrom(airy_block(times, xi, lengths), nodes, refine=False).value


# ---------------------------------------------------------------------------
# Dyson edge (finite-n rescaled Hermitian kernel)
# ---------------------------------------------------------------------------

def dyson_edge_block(nu, taus, xis, lengths=13.0):
    """Rescaled extended kernel for lambda_max of H(t) + H0 near the edge.

    Times t_i = (1 - 2 d^2 tau_i n^{-1/3})/n and thresholds
    a_i = a + 2 tau_i d^2 (b-a) n^{-1/3} + d xi_i n^{-2/3} from the edge
    constants of nu; the kernel is evaluated in edge coordinates (rescaled
    by d n^{1/3}) on contours through the double saddle at b, conjugated by
    the explicit exponential factor from the saddle-point normal form so
    entries stay O(1).
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    if len(taus) != len(xis):
        raise ParameterError("need one threshold per time")
    n = nu.size
    es = edge_scaling(nu)
    b, a, d = es.b, es.a, es.d
    n13 = n ** (1.0 / 3.0)
    times = (1.0 - 2.0 * d * d * taus / n13) / n
    if np.any(times <= 0):
        raise DomainError("tau beyond n^(1/3)/(2 d^2): inverted time is nonpositive")
    # sort slots by increasing matrix time (tau decreasing)
    order = np.argsort(times)
    times, taus, xis = times[order], taus[order], xis[order]
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be distinct")
    ahat = a + 2.0 * taus * d * d * (b - a) / n13 + d * xis / n13 ** 2
    rho = d * n13
    s = 1.0 / times
    shift = ahat / times

    # conjugation exponent g_i - rho b x from the saddle normal form
    g = -n13 ** 2 * d * d * taus * b * b - rho * b * (ahat + 2.0 * taus ** 2 * d ** 3 * b)
    fill = _dyson_edge_engine(nu, b, rho, s, shift, g, float(np.max(np.abs(taus))),
                              float(np.max(lengths)))

    def eval_block(i, j, xs, ys):
        block = fill(i, j, xs, ys)
        if times[j] < times[i]:
            dt = 1.0 / times[j] - 1.0 / times[i]
            X = rho * xs + shift[i]
            Y = rho * ys + shift[j]
            expo = ((g[i] - rho * b * xs)[:, None] - (g[j] - rho * b * ys)[None, :]
                    - (X[:, None] - Y[None, :]) ** 2 / (2.0 * dt)
                    - 0.5 * np.log(2.0 * np.pi * dt) + np.log(rho))
            block = block - np.exp(expo)
        return block

    return BlockKernel(times, np.zeros_like(times), eval_block, lengths, label="dyson-edge")


def cdf_dyson_edge(nu, taus, xis, nodes=None, lengths=13.0):
    """Finite-n edge law P(rescaled lambda_max(tau_i) <= xi_i for all i)."""
    return det_nystrom(dyson_edge_block(nu, taus, xis, lengths), nodes, refine=False).value


# ---------------------------------------------------------------------------
# family registry (used by the command line)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """How a named CDF family is queried.

    ``options`` are the parameters besides the threshold, ``threshold`` the
    parameter that receives it (``thresholds`` takes one value per time),
    and ``call(params, nodes, length)`` evaluates one query.  The calls
    look the ``cdf_*`` functions up as module globals when they run.
    """

    options: tuple
    threshold: str
    call: callable


FAMILIES = {
    "piflat": Family(("beta",), "a", lambda p, nodes, length:
                     cdf_piflat(p["beta"], p["a"], nodes, length)),
    "loe": Family(("n",), "a", lambda p, nodes, length:
                  cdf_loe_max(p["n"], p["a"], nodes, length)),
    "bridge-allmax": Family(("nu",), "r", lambda p, nodes, length:
                            cdf_bridge_allmax(p["nu"], p["r"], nodes, length)),
    "bridge-runmax": Family(("n", "s"), "a", lambda p, nodes, length:
                            cdf_bridge_runningmax(p["n"], p["s"], p["a"], nodes, length)),
    "arith": Family(("delta",), "a", lambda p, nodes, length:
                    cdf_arithmetic_limit(p["delta"], p["a"], nodes, length)),
    "blpp-nw": Family(("mu", "times"), "thresholds", lambda p, nodes, length: cdf_blpp(
        BoundaryFunction.narrow_wedge(), p["mu"], p["times"], p["thresholds"], nodes)),
    "blpp-flat": Family(("mu", "times"), "thresholds", lambda p, nodes, length: cdf_blpp(
        BoundaryFunction.flat(), p["mu"], p["times"], p["thresholds"], nodes)),
    "airy": Family(("times",), "thresholds", lambda p, nodes, length:
                   airy_fdd(p["times"], p["thresholds"], nodes)),
    "dyson-edge": Family(("nu", "times"), "thresholds", lambda p, nodes, length:
                         cdf_dyson_edge(p["nu"], p["times"], p["thresholds"], nodes)),
    "detratio": Family(("beta",), "a", lambda p, nodes, length: det_ratio(p["beta"], p["a"])),
}


@dataclass
class CdfQuery:
    """A CDF evaluation request: family tag, parameters, resolution overrides."""

    family: str
    params: dict = field(default_factory=dict)
    nodes: int = None
    length: float = None


def evaluate_cdf(query):
    """Evaluate one threshold of a named CDF family."""
    if query.family not in FAMILIES:
        raise ParameterError("unknown family %r" % (query.family,))
    return FAMILIES[query.family].call(query.params, query.nodes, query.length)
