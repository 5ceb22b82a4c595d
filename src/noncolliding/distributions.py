"""Distribution functions assembled from kernels and Fredholm engines."""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .defaults import DEFAULTS
from .exceptions import DomainError, EvaluationError, ParameterError
from .fredholm import (BlockKernel, _lu_det, apply_conjugation, det_nystrom, det_ratio,
                       single_slot_kernel, slot_nodes)
from .kernels import (_arith_rank_form, _brownian_block, _drifts, _dyson_edge_engine,
                      _jairy_engine, _loe_rates, _rate_kernel, BoundaryFunction, heat_op_full,
                      k_flat, kixjy_conjugation, shifted_rows)

__all__ = [
    "EdgeScaling", "edge_scaling", "f_class_bounds", "f_class_contains",
    "cdf_piflat", "cdf_loe_max", "cdf_bridge_allmax", "cdf_bridge_runningmax",
    "cdf_arithmetic_limit", "cdf_blpp", "airy_fdd", "cdf_dyson_edge",
    "CdfQuery", "FAMILIES", "evaluate_cdf", "evaluate_curve", "piflat_block", "loe_block",
    "bridge_block", "runningmax_block", "blpp_block", "airy_block",
    "dyson_edge_block",
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

    b > max(nu) is the unique root of phi(b) = mean((b - nu_j)^-2) - 1,
    convex and decreasing in b.  phi > 0 at max nu + 0.9/sqrt(n), so Newton's
    method started there rises to the root without overshooting: it stops
    once a step no longer raises b, and takes four more steps as polish.
    Then a = b + mean(1/(b - nu_j)) and d = mean((b - nu_j)^-3)^(1/3).
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size < 1 or not np.all(np.isfinite(nu)):
        raise ParameterError("need a nonempty finite point cloud")
    n = nu.size
    mx = nu.max()

    def phi(b):
        return np.mean(1.0 / (b - nu) ** 2) - 1.0

    b = mx + 0.9 / np.sqrt(n)
    while True:
        rising = b + phi(b) / (2.0 * np.mean(1.0 / (b - nu) ** 3))
        if not rising > b:
            break
        b = rising
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
# threshold grids
# ---------------------------------------------------------------------------

def _det(K, nodes):
    return det_nystrom(K, nodes, refine=False).value


# the fewest thresholds whose build compresses its Airy couplings to low rank (Dyson
# edge's stay dense).  A sketch costs about as much as the dense products of 8
# thresholds, and its factors hold a fraction of the dense coupling's memory
_LOW_RANK_FROM = 4


def _at(fills, made, shifts, extra=None):
    """fills[i][j] where slot i fills at its base nodes + shifts[i], from the rows in made.

    ``extra[i]`` is added to the top of slot i's x rows and taken from its y rows.
    """
    extra = np.zeros(len(shifts)) if extra is None else extra
    rx = [shifted_rows(made, float(a), e) for a, e in zip(shifts, extra)]
    ry = [shifted_rows(made, float(a), -e) for a, e in zip(shifts, extra)]
    return [[partial(fill, rx=rx[i], ry=ry[j]) for j, fill in enumerate(row)]
            for i, row in enumerate(fills)]


# ---------------------------------------------------------------------------
# rate-kernel families
# ---------------------------------------------------------------------------

def piflat_block(beta, a, length=None):
    """Rate-kernel block on [max(a, 0), infinity)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if length is None:
        length = max(12.0, 36.0 / (2.0 * beta.min()))
    return single_slot_kernel(partial(_rate_kernel, beta), max(float(a), 0.0), length, "piflat")


def loe_block(n, a, length=None):
    return piflat_block(_loe_rates(n), a, length)


def bridge_block(nu, r, length=None):
    beta = 1.0 - np.atleast_1d(np.asarray(nu, dtype=float)) / r
    if length is None:
        length = max(12.0, 36.0 / (2.0 * beta.min()))
    return single_slot_kernel(lambda xs, ys: _rate_kernel(beta, xs + r * r, ys + r * r),
                              0.0, length, "bridge")


def cdf_piflat(beta, a, nodes=None, length=None):
    """Law of the point-to-line passage value: det(I - chi K chi).

    The projection is onto [a, infinity).  The passage value is almost
    surely positive, so for a <= 0 the value is exactly 0.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if not np.all(beta > 0):  # before a <= 0 gives 0 without building a kernel
        raise ParameterError("rates beta must all be positive")
    if not a > 0:
        return 0.0
    return _det(piflat_block(beta, a, length), nodes)


def cdf_loe_max(n, a, nodes=None, length=None):
    """P(largest eigenvalue of X^t X <= 4a) for X (n+1) x n standard normal; 0 for a <= 0."""
    return cdf_piflat(_loe_rates(n), a, nodes, length)


def cdf_bridge_allmax(nu, r, nodes=None, length=None):
    """P(max over [0,1] of the top nu-started noncolliding bridge <= r).

    The top bridge starts at max(nu) and ends at 0, so its maximum is at
    least max(nu, 0): for r <= max(nu, 0) the value is 0, as it is for
    :func:`cdf_piflat` below 0.
    """
    if r <= max(np.max(nu), 0.0):
        return 0.0
    return _det(bridge_block(nu, r, length), nodes)


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
    if not a > 0:
        raise DomainError("need a > 0")
    if s == 1.0:
        return cdf_loe_max(n, a * a, nodes, length)
    if s == 0.0:
        return 1.0
    return _det(runningmax_block(n, s, a, length), nodes)


def cdf_arithmetic_limit(delta, a, nodes=None, length=None):
    """Limit law of the rescaled top eigenvalue over an arithmetic spectrum.

    det(I - K_delta) on L^2[a, infinity) = det(I - G), G of K_delta's rank K + 1
    (:func:`kernels._arith_rank_form`); ``nodes`` and ``length`` do not apply.  Its rounding
    floor, G's through the adjugate of I - G, grows in the left tail: above 1e-8 it raises
    :class:`EvaluationError`, else the value is returned clipped to [0, 1].  For delta = 2 this
    is the limit of P(gamma_1 <= n - 1 + (a + log(n-1))/2) for the log-eigenvalue of Brownian
    motion on positive-definite matrices.
    """
    G, F = _arith_rank_form(delta, float(a))
    with np.errstate(all="ignore"):  # an unresolved left tail may overflow: it raises below
        value = _lu_det(G)
        try:
            floor = F @ np.abs(value * np.linalg.inv(np.eye(len(G)) - G)).sum(axis=1)
        except np.linalg.LinAlgError:  # singular: the adjugate is no multiple of the inverse
            floor = np.inf
    if not (floor <= 1e-8 and -floor <= value <= 1.0 + floor):
        raise EvaluationError("arith value %.6g at delta=%r, a=%r has rounding floor %.3g, above "
                              "1e-8" % (value, delta, a, floor), point=(delta, a))
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# extended (multi-slot) kernels
# ---------------------------------------------------------------------------

def blpp_block(b, mu, times, thresholds, lengths=None):
    """Block kernel of boundary-driven BLPP at several times (closed forms)."""
    mu = _drifts(mu)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ParameterError("times must be positive and strictly increasing")
    tmax = times.max()
    if lengths is None:
        drift_push = max(0.0, mu.max()) * tmax
        lengths = max(12.0, 2.0 * np.sqrt(tmax * (DEFAULTS["decay_drop"] - 5.0))
                      + 2.0 * drift_push)

    made = {}  # a query's blocks share each slot's M and closed-form z side

    def eval_block(i, j, xs, ys):
        return _brownian_block(b.kind, mu, times[i], times[j], xs, ys, made)

    K = BlockKernel(times, thresholds, eval_block, lengths, label="blpp-" + b.kind)
    # conjugated by e^{kappa_j |y| - kappa_i |x|}, kappa_i decreasing in the slot index i
    base = 1.0 + float(np.max(np.abs(mu)))
    return apply_conjugation(K, lambda i, x: np.exp(-(base + (len(times) - i)) * np.abs(x)))


def cdf_blpp(b, mu, times, thresholds, nodes=None, lengths=None):
    """Joint law P(BLPP(b; (t_i, m)) <= a_i for all i) as a block determinant."""
    return _det(blpp_block(b, mu, times, thresholds, lengths), nodes)


def airy_block(times, xi, lengths=None, fills=None):
    """Block kernel whose determinant gives P(A(t_i) <= xi_i for all i).

    Block (i, j) is -e^{(t_j - t_i) d^2} 1{t_j > t_i} + J_Airy at
    (t_i, x + xi_i; t_j, y + xi_j), scaled by the :func:`kixjy_conjugation`
    ratio so that it equals K_Airy(t_i, x + xi_i + t_i^2; t_j, y + xi_j + t_j^2)
    pointwise and decays in both arguments.  ``lengths`` is 14 when None.
    ``fills[i][j]`` is a grid's fill of block (i, j) at these thresholds; without it each
    block builds its own.
    """
    lengths = 14.0 if lengths is None else lengths
    times = np.atleast_1d(np.asarray(times, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be strictly increasing")
    if len(times) != len(xi):
        raise ParameterError("need one threshold per time")

    def eval_block(i, j, xs, ys):
        u, v = xs + xi[i], ys + xi[j]
        fill = fills[i][j] if fills else _jairy_engine(times[i], times[j], u, v)
        block = fill(u, v)
        if times[j] > times[i]:
            block = block - heat_op_full(times[j] - times[i], u[:, None], v[None, :])
        ci = kixjy_conjugation(times[i], u)
        cj = kixjy_conjugation(times[j], v)
        return block * np.outer(1.0 / ci, cj)

    return BlockKernel(times, np.zeros_like(times), eval_block, lengths, label="airy")


def _airy_curve(times, grid, nodes=None, lengths=None):
    """The determinants of :func:`airy_block` over grid, from one build sized for the Nystrom
    nodes of every threshold, with each side's rows made at those of threshold 0; each
    threshold's kernel lives only as long as its determinant."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    grid = [np.atleast_1d(np.asarray(xi, dtype=float)) for xi in grid]
    spans = [slot_nodes(airy_block(times, xi, lengths), nodes) for xi in grid]
    base = slot_nodes(airy_block(times, 0.0 * grid[0], lengths), nodes)
    made = {"low_rank": len(grid) >= _LOW_RANK_FROM}
    span = [np.concatenate([s[i] + xi[i] for s, xi in zip(spans, grid)])
            for i in range(len(times))]
    fills = [[_jairy_engine(ti, tj, span[i], span[j], made=made, base=(base[i], base[j]))
              for j, tj in enumerate(times)] for i, ti in enumerate(times)]
    return [_det(airy_block(times, xi, lengths, _at(fills, made, xi)), nodes) for xi in grid]


def airy_fdd(times, xi, nodes=None, lengths=None):
    """Finite-dimensional law of the Airy process at the given times."""
    return _det(airy_block(times, xi, lengths), nodes)


# ---------------------------------------------------------------------------
# Dyson edge (finite-n rescaled Hermitian kernel)
# ---------------------------------------------------------------------------

def dyson_edge_block(nu, taus, xis, lengths=None):
    """Rescaled extended kernel for lambda_max of H(t) + H0 near the edge.

    Times t_i = (1 - 2 d^2 tau_i n^{-1/3})/n and thresholds
    a_i = a + 2 tau_i d^2 (b-a) n^{-1/3} + d xi_i n^{-2/3} from the edge
    constants of nu; the kernel is evaluated in edge coordinates (rescaled
    by d n^{1/3}) on contours through the double saddle at b, conjugated by
    the explicit exponential factor from the saddle-point normal form so
    entries stay O(1).  ``lengths`` is 13 when None.
    """
    times, b, rho, shift, g, slots, lengths = _dyson_edge_setup(nu, taus, [xis], lengths)
    return _dyson_edge_kernel(times, b, rho, shift[0], g[0], slots(shift[0], g[0]), lengths)


def _dyson_edge_setup(nu, taus, grid, lengths):
    """Slot times, b, rho, a row of shift and g per threshold of grid, slots sized for all,
    and the lengths, 13 when None."""
    lengths = 13.0 if lengths is None else lengths
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    xis = [np.atleast_1d(np.asarray(xi, dtype=float)) for xi in grid]
    if any(len(taus) != len(xi) for xi in xis):
        raise ParameterError("need one threshold per time")
    xis = np.array(xis).reshape(len(xis), len(taus))
    n = nu.size
    es = edge_scaling(nu)
    b, a, d = es.b, es.a, es.d
    n13 = n ** (1.0 / 3.0)
    times = (1.0 - 2.0 * d * d * taus / n13) / n
    if np.any(times <= 0):
        raise DomainError("tau beyond n^(1/3)/(2 d^2): inverted time is nonpositive")
    # sort slots by increasing matrix time (tau decreasing)
    order = np.argsort(times)
    times, taus, xis = times[order], taus[order], xis[:, order]
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be distinct")
    # one row per threshold vector
    ahat = a + 2.0 * taus * d * d * (b - a) / n13 + d * xis / n13 ** 2
    rho = d * n13
    shift = ahat / times
    # conjugation exponent g_i - rho b x from the saddle normal form
    g = -n13 ** 2 * d * d * taus * b * b - rho * b * (ahat + 2.0 * taus ** 2 * d ** 3 * b)
    slots = _dyson_edge_engine(nu, b, rho, 1.0 / times, shift, float(np.max(np.abs(taus))),
                               float(np.max(lengths)))
    return times, b, rho, shift, g, slots, lengths


def _dyson_edge_curve(nu, taus, grid, nodes=None, lengths=None):
    """The determinants of :func:`dyson_edge_block` over grid, from one build.

    Their kernels fill only at the Nystrom nodes of resolution ``nodes``.  The sides are made
    once, at each slot's middle shift ref and g_ref; a threshold's shift_i v is then the
    column scaling of the argument (shift_i - ref_i)/rho along m = rho (v - b), and
    g_i - g_ref_i + (shift_i - ref_i) b is added to top.
    """
    times, b, rho, shift, g, slots, lengths = _dyson_edge_setup(nu, taus, grid, lengths)
    ref, g_ref, made = 0.5 * (shift.min(0) + shift.max(0)), 0.5 * (g.min(0) + g.max(0)), {}
    fill = slots(ref, g_ref, made, slot_nodes(BlockKernel(times, 0 * times, None, lengths), nodes))
    a, top = (shift - ref) / rho, g - g_ref + (shift - ref) * b
    return [_det(_dyson_edge_kernel(times, b, rho, shift[k], g[k], _at(fill, made, a[k], top[k]),
                                    lengths), nodes) for k in range(len(shift))]


def _dyson_edge_kernel(times, b, rho, shift, g, fills, lengths):
    def eval_block(i, j, xs, ys):
        block = fills[i][j](xs, ys)
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


def cdf_dyson_edge(nu, taus, xis, nodes=None, lengths=None):
    """Finite-n edge law P(rescaled lambda_max(tau_i) <= xi_i for all i)."""
    return _det(dyson_edge_block(nu, taus, xis, lengths), nodes)


# ---------------------------------------------------------------------------
# family registry (used by the command line)
# ---------------------------------------------------------------------------

def _cdf_detratio(beta, a, nodes=None, length=None):
    """det_ratio at max(a, 0), as its maximum is >= 0; ``nodes`` and ``length`` do not apply."""
    return det_ratio(beta, max(a, 0.0))


@dataclass(frozen=True)
class Family:
    """How a named CDF family is queried.

    ``options`` are the parameters besides the threshold and ``threshold`` the parameter that
    receives it (``thresholds`` takes one value per time).  ``cdf(*options, threshold, nodes,
    length)`` is the family's public one-point function: ``nodes`` and ``length``, the Nystrom
    nodes and truncation length of every slot, are its defaults when None.  ``resolved`` is
    False for arith and detratio, which take no Nystrom rule.  ``curve``, with the same
    arguments but a grid of thresholds in place of one, builds contours, sides, couplings and
    rows once for the whole grid; only the Airy and Dyson-edge families have one.
    """

    options: tuple
    threshold: str
    cdf: callable
    curve: callable = None
    resolved: bool = True


FAMILIES = {
    "piflat": Family(("beta",), "a", cdf_piflat),
    "loe": Family(("n",), "a", cdf_loe_max),
    "bridge-allmax": Family(("nu",), "r", cdf_bridge_allmax),
    "bridge-runmax": Family(("n", "s"), "a", cdf_bridge_runningmax),
    "arith": Family(("delta",), "a", cdf_arithmetic_limit, resolved=False),
    "blpp-nw": Family(("mu", "times"), "thresholds",
                      partial(cdf_blpp, BoundaryFunction.narrow_wedge())),
    "blpp-flat": Family(("mu", "times"), "thresholds", partial(cdf_blpp, BoundaryFunction.flat())),
    "airy": Family(("times",), "thresholds", airy_fdd, _airy_curve),
    "dyson-edge": Family(("nu", "times"), "thresholds", cdf_dyson_edge, _dyson_edge_curve),
    "detratio": Family(("beta",), "a", _cdf_detratio, resolved=False),
}


@dataclass
class CdfQuery:
    """A CDF evaluation request: family tag, parameters, resolution overrides."""

    family: str
    params: dict = field(default_factory=dict)
    nodes: int = None
    length: float = None


def _family(query):
    """The registry entry of query.family, once query.params holds each of its options."""
    if query.family not in FAMILIES:
        raise ParameterError("unknown family %r" % (query.family,))
    family = FAMILIES[query.family]
    missing = [name for name in family.options if name not in query.params]
    if missing:
        raise ParameterError("family %s needs %s" % (query.family, ", ".join(missing)))
    return family


def evaluate_curve(query, grid):
    """Values of a named CDF family at every threshold of grid.

    ``query.params`` gives the family's options; a threshold among them is not used.  ``grid``
    lists the thresholds, one vector per point for the families that take one threshold per
    time.  The determinants run one after another in the calling thread.  A grid of two or
    more thresholds of a family with a ``curve`` comes from one build: an Airy or Dyson-edge
    value can then differ from :func:`evaluate_cdf`'s by the quadrature error of contours
    sized for the whole grid, by the rounding of the rows' scaling and by that of the
    low-rank couplings.  Every other value is the family's ``cdf`` at its threshold.
    """
    family, grid = _family(query), list(grid)
    options = [query.params[name] for name in family.options]
    if family.curve and len(grid) > 1:
        return family.curve(*options, grid, query.nodes, query.length)
    return [family.cdf(*options, a, query.nodes, query.length) for a in grid]


def evaluate_cdf(query):
    """Evaluate one threshold of a named CDF family: its ``cdf`` there."""
    family = _family(query)
    if family.threshold not in query.params:
        raise ParameterError("family %s needs %s" % (query.family, family.threshold))
    return evaluate_curve(query, [query.params[family.threshold]])[0]
