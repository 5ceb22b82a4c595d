import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncolliding import contours, distributions, kernels
from noncolliding.contours import composite_legendre, gauss_legendre
from noncolliding.distributions import (FAMILIES, CdfQuery, airy_fdd, cdf_arithmetic_limit,
                                        cdf_blpp, cdf_bridge_allmax,
                                        cdf_bridge_runningmax, cdf_dyson_edge,
                                        cdf_loe_max, cdf_piflat, dyson_edge_block, edge_scaling,
                                        evaluate_cdf, evaluate_curve, f_class_bounds,
                                        f_class_contains)
from noncolliding.exceptions import DomainError, ParameterError
from noncolliding.fredholm import det_ratio
from noncolliding.kernels import BoundaryFunction, s_bar
from noncolliding.special import heat_kernel


def _phi(a):
    return 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# edge scaling and the point-cloud class
# ---------------------------------------------------------------------------

def test_edge_scaling_constant_cloud():
    es = edge_scaling(np.full(7, 2.5))
    assert es.b == pytest.approx(3.5, abs=1e-12)
    assert es.a == pytest.approx(4.5, abs=1e-12)
    assert es.d == pytest.approx(1.0, abs=1e-12)
    es0 = edge_scaling(np.zeros(5))
    assert (es0.a, es0.d) == (pytest.approx(2.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))


def test_edge_scaling_residual_and_bisection_oracle():
    nu = np.array([0.0] * 5 + [1.0] * 5)
    es = edge_scaling(nu)
    assert es.residual() < 1e-12
    # independent bisection oracle
    lo, hi = 1.0, 5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (mid - nu) ** 2) > 1:
            lo = mid
        else:
            hi = mid
    assert abs(es.b - 0.5 * (lo + hi)) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(10):
        cloud = rng.standard_normal(rng.integers(1, 40))
        assert edge_scaling(cloud).residual() < 1e-12


def test_f_class_bounds_and_direct_check():
    alpha, beta = f_class_bounds(np.zeros(4))
    assert (alpha, beta) == (0.5, 2.0)
    assert f_class_contains(np.zeros(4), alpha, beta)
    rng = np.random.default_rng(7)
    u = rng.uniform(0, 1, 1000)
    a_u, b_u = f_class_bounds(u)
    assert abs(a_u - 0.125) < 0.01  # rho_inf(eta) = eta gives sup (sqrt(eta)-eta)/2 = 1/8
    assert f_class_contains(u, a_u * 0.5, b_u)


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

def test_piflat_exponential_identity_and_negative_threshold():
    for beta in (0.5, 2.0):
        for a in (0.3, 1.0, 2.5):
            assert abs(cdf_piflat([beta], a) - (1 - math.exp(-2 * beta * a))) < 1e-10
    assert abs(cdf_piflat([1.0], -0.5)) < 1e-10  # the value is supported on [0, inf)
    assert abs(cdf_piflat([0.7, 1.3], 1.0) - cdf_piflat([1.3, 0.7], 1.0)) < 1e-10


def test_loe_identities():
    assert abs(cdf_loe_max(1, 1.0) - (1 - math.exp(-2.0))) < 1e-10
    assert abs(cdf_loe_max(3, 1.2) - cdf_piflat(np.ones(3), 1.2)) < 1e-12


def test_three_way_agreement():
    for beta in ([0.7, 1.3], [0.5, 1.0, 1.7]):
        for a in (0.5, 2.0):
            assert abs(cdf_piflat(beta, a) - det_ratio(beta, a)) < 1e-6
    nu = np.array([-0.5, 0.0, 0.3])
    for r in (1.0, 2.0):
        assert abs(cdf_bridge_allmax(nu, r) - det_ratio(r - nu, r)) < 1e-6


@pytest.mark.parametrize("nu,r", [((0.0, 0.0), -1.0), ((0.0, 0.0), 0.0), ((0.5, 0.0), 0.3)])
def test_bridge_allmax_is_zero_below_its_start(nu, r):
    # the top bridge starts at max(nu) and ends at 0
    assert cdf_bridge_allmax(list(nu), r) == 0.0


@pytest.mark.parametrize("a", [-1.0, 0.0])
def test_piflat_and_loe_are_zero_at_and_below_zero(a):
    # the passage value and the top eigenvalue are almost surely positive
    assert cdf_piflat([1.0], a) == 0.0
    assert cdf_loe_max(2, a) == 0.0
    assert evaluate_cdf(CdfQuery("piflat", {"beta": [1.0], "a": a})) == 0.0
    assert evaluate_cdf(CdfQuery("loe", {"n": 2, "a": a})) == 0.0
    for family, params in (("piflat", {"beta": [1.0, 2.0]}), ("loe", {"n": 2})):
        curve = evaluate_curve(CdfQuery(family, params), [a, 0.5, 1.0, 2.0])
        assert curve[0] == 0.0 and 0.0 < curve[1] < curve[2] < curve[3] < 1.0


def test_loe_needs_one_row():
    with pytest.raises(ParameterError):
        cdf_loe_max(0, 1.0)
    with pytest.raises(ParameterError):
        evaluate_cdf(CdfQuery("loe", {"n": 0, "a": 1.0}))


def test_bridge_chain_and_monotonicity():
    for n in (2, 4):
        assert abs(cdf_bridge_allmax(np.zeros(n), 1.3) - cdf_loe_max(n, 1.3 ** 2)) < 1e-6
    vals = [cdf_bridge_allmax([0.2, -0.1], r) for r in (0.4, 0.8, 1.2, 1.8)]
    assert vals[0] < 0.2 and np.all(np.diff(vals) > 0)


def test_runningmax_limits():
    assert abs(cdf_bridge_runningmax(2, 0.999, 1.2) - cdf_loe_max(2, 1.44)) < 2e-3
    assert cdf_bridge_runningmax(2, 1e-4, 1.0) >= 0.99
    assert cdf_bridge_runningmax(3, 1.0, 0.9) == pytest.approx(cdf_loe_max(3, 0.81), abs=1e-12)
    assert cdf_bridge_runningmax(2, 1.0, 0.9, length=3.0) == cdf_loe_max(2, 0.81, length=3.0)
    assert cdf_bridge_runningmax(2, 0.0, 1.0) == 1.0
    for s in (0.5, 1.0, 0.0):
        with pytest.raises(DomainError):
            cdf_bridge_runningmax(2, s, -1.0)


def test_blpp_narrow_wedge_normal_identity():
    nw = BoundaryFunction.narrow_wedge()
    for a in (-1.0, 0.0, 1.0):
        assert abs(cdf_blpp(nw, [0.0], [1.0], [a]) - _phi(a)) < 1e-6


def test_blpp_two_time_joint_brownian_oracle():
    # m = 1 narrow wedge: the passage process is B(t) + mu t itself, so the
    # joint two-time law is a bivariate normal computed by 1-D quadrature
    from noncolliding.contours import gauss_legendre
    nw = BoundaryFunction.narrow_wedge()
    t1, t2, a1, a2 = 0.7, 1.2, 0.5, 0.9
    for mu in (0.0, 0.6):
        x, w = gauss_legendre(-8 * math.sqrt(t1) + mu * t1, a1, 400)
        dens = np.exp(-(x - mu * t1) ** 2 / (2 * t1)) / math.sqrt(2 * math.pi * t1)
        tail = 0.5 * (1 + np.array([math.erf(v) for v in
                                    (a2 - x - mu * (t2 - t1)) / math.sqrt(2 * (t2 - t1))]))
        oracle = float(np.sum(w * dens * tail))
        got = cdf_blpp(nw, [mu], [t1, t2], [a1, a2])
        assert abs(got - oracle) < 1e-9


def _nw_oracle(mu, t, a):
    """P(L(m, t) <= a) for the narrow wedge with distinct drifts, as an m x m determinant.

    The kernel's w integral is the sum of its residues at the drifts, so
    K(x, y) = sum_i M_i(x) N_i(y) with M_i(x) = e^{mu_i x - t mu_i^2/2}/q'(mu_i),
    q(w) = prod(w - mu_k), and N_i the s_bar kernel at x = 0 without mu_i (the
    heat kernel for m = 1).  Then det(I - K) on [a, inf) is
    det(delta_ij - int_a^inf N_i M_j): each integrand is a polynomial times
    a Gaussian of variance t about t mu_j, taken by Gauss-Legendre.
    """
    mu = np.asarray(mu, dtype=float)
    hi = max(a, t * mu.max()) + 14.0 * math.sqrt(t)
    panels = int(np.ceil(2.0 * (hi - a) / math.sqrt(t)))  # of width at most sqrt(t)/2
    x, wx = composite_legendre(np.linspace(a, hi, panels + 1), 20)
    G = np.empty((len(mu), len(mu)))
    for i in range(len(mu)):
        others = np.delete(mu, i)
        N = s_bar(others, t, 0.0, x) if others.size else heat_kernel(t, 0.0, x)
        for j, m in enumerate(mu):
            M = np.exp(m * x - 0.5 * t * m * m) / np.prod(m - np.delete(mu, j))
            G[i, j] = np.sum(wx * N * M)
    return np.linalg.det(np.eye(len(mu)) - G)


def test_nw_oracle_is_the_normal_law_for_one_drift():
    for mu, t, a in ((0.4, 1.3, 0.7), (-0.8, 0.5, -1.0), (1.2, 2.0, 4.0)):
        assert abs(_nw_oracle([mu], t, a) - _phi((a - mu * t) / math.sqrt(t))) < 1e-14


# drifts: the least, then m - 1 gaps of 0.2 to 0.8, so they spread over at
# most 2.4; the test after it takes a wider spread
@settings(max_examples=50, deadline=None)
@given(low=st.floats(-1.5, 1.0), gaps=st.lists(st.floats(0.2, 0.8), max_size=3),
       t=st.floats(0.5, 2.0), a=st.floats(-1.0, 4.0))
def test_blpp_narrow_wedge_matches_its_rank_m_oracle(low, gaps, t, a):
    mu = list(low + np.concatenate([[0.0], np.cumsum(gaps)]))
    got = cdf_blpp(BoundaryFunction.narrow_wedge(), mu, [t], [a])
    assert abs(got - _nw_oracle(mu, t, a)) <= 1e-10, (mu, t, a)


def test_blpp_narrow_wedge_wide_drift_spread_matches_its_oracle():
    # drifts spread over 3 at x up to 30: the w side's divided differences take
    # Newton's quotients over spans across which e^{xw} changes by up to e^{90}
    mu, t, a = [-0.5, 0.5, 1.5, 2.5], 2.0, 4.0
    got = cdf_blpp(BoundaryFunction.narrow_wedge(), mu, [t], [a])
    assert abs(got - _nw_oracle(mu, t, a)) <= 1e-10


def test_one_time_flat_blpp_is_the_reflected_law_for_one_drift():
    # m = 1: L(1, t) is Brownian motion with drift mu reflected at 0, whose law at t is
    # Phi((a - mu t)/sqrt t) - e^{2 mu a} Phi((-a - mu t)/sqrt t); the running maximum of
    # the bridge over [0, s] is that law at a^2, with mu = -1 and t = a^2 s/(1 - s)
    def reflected(mu, t, a):
        rt = math.sqrt(t)
        return _phi((a - mu * t) / rt) - math.exp(2 * mu * a) * _phi((-a - mu * t) / rt)

    flat = BoundaryFunction.flat()
    for mu, t, a in ((-0.5, 1.0, 0.3), (0.4, 2.0, 1.1), (-1.2, 5.0, 0.05), (0.0, 0.7, 2.0),
                     (-1.0, 20.0, 3.0)):
        assert abs(cdf_blpp(flat, [mu], [t], [a]) - reflected(mu, t, a)) < 1e-13, (mu, t, a)
    for s in (0.3, 0.6, 0.9):
        for a in (0.6, 1.0, 1.4):
            want = reflected(-1.0, a * a * s / (1 - s), a * a)
            assert abs(cdf_bridge_runningmax(1, s, a) - want) < 1e-13, (s, a)


def test_blpp_flat_far_time_approaches_piflat():
    flat = BoundaryFunction.flat()
    v = cdf_blpp(flat, [-1.0, -1.0], [50.0], [1.0])
    assert abs(v - cdf_piflat([1.0, 1.0], 1.0)) < 1e-3


def test_blpp_validation():
    with pytest.raises(ParameterError):
        cdf_blpp(BoundaryFunction.narrow_wedge(), [0.0], [1.0, 0.5], [0, 0])
    with pytest.raises(ParameterError):
        cdf_blpp(BoundaryFunction("linear"), [0.0], [1.0], [0.0])


def test_airy_fdd_single_time_engine_cross_check():
    from noncolliding.distributions import airy_block
    from noncolliding.fredholm import det_series
    for xi in (-1.0, 0.5):
        v1 = airy_fdd([0.0], [xi])
        v2 = det_series(airy_block([0.0], [xi]), max_order=8, nodes_per_slot=96).value
        assert abs(v1 - v2) < 1e-6


def _tracy_widom_f2(s, nodes=80, length=16.0):
    """F2(s) = det(I - K_Ai) on L2(s, s + 16) from scipy's Airy functions.

    Gauss-Legendre Nystrom on the integrable kernel
    (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y) with diagonal Ai'(x)^2 - x Ai(x)^2
    (Bornemann, Math. Comp. 79, 2010): independent of the contour kernels.
    """
    from scipy.special import airy
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = s + 0.5 * length * (x + 1.0)
    w = 0.5 * length * w
    ai, aip, _, _ = airy(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    K = (ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff
    np.fill_diagonal(K, aip ** 2 - x * ai ** 2)
    sw = np.sqrt(w)
    return float(np.linalg.det(np.eye(nodes) - sw[:, None] * K * sw[None, :]))


@pytest.mark.parametrize("xi", [-4.0, -3.9, -3.0, -1.0, 0.0, 2.0])
def test_airy_fdd_single_time_matches_tracy_widom(xi):
    pytest.importorskip("scipy.special")
    assert abs(airy_fdd([0.0], [xi]) - _tracy_widom_f2(xi)) < 1e-12


def test_airy_fdd_two_time_structure():
    z = np.array([1.3, 1.1])
    t = np.array([0.0, 0.5])
    v1 = airy_fdd(t, z - t ** 2)
    v2 = airy_fdd(t + 0.3, z - (t + 0.3) ** 2)
    assert abs(v1 - v2) < 1e-6  # stationarity of A(t) + t^2
    # collapse onto the smaller threshold as the gap closes
    single = airy_fdd([0.0], [0.4])
    d_wide = abs(airy_fdd([0.0, 0.2], [0.4, 1.4]) - single)
    d_tight = abs(airy_fdd([0.0, 0.02], [0.4, 1.4]) - single)
    assert d_tight < d_wide
    assert d_tight < 5e-3


def test_dyson_edge_against_airy_and_shift_invariance():
    assert abs(cdf_dyson_edge(np.zeros(50), [0.0], [0.0]) - airy_fdd([0.0], [0.0])) < 0.05
    v1 = cdf_dyson_edge(np.zeros(16), [0.0], [0.5])
    v2 = cdf_dyson_edge(np.full(16, 1.7), [0.0], [0.5])
    assert abs(v1 - v2) < 1e-8
    with pytest.raises(DomainError):
        cdf_dyson_edge(np.zeros(8), [5.0], [0.0])  # tau beyond n^(1/3)/(2 d^2)


def test_dyson_edge_block_reused_at_new_points():
    # the kernel caches its sides' rows per argument array; new points must not reuse them
    nu, taus, xis = np.linspace(-1.0, 0.0, 12), [0.0, 0.3], [0.2, -0.1]
    K = dyson_edge_block(nu, taus, xis)
    for xs, ys in (([0.1, 0.5], [0.3]), ([0.2, 0.4], [0.3, 1.0]), ([0.1, 0.5], [0.3])):
        xs, ys = np.array(xs), np.array(ys)
        for i, j in ((0, 0), (0, 1), (1, 0)):
            fresh = dyson_edge_block(nu, taus, xis).eval_block(i, j, xs, ys)
            assert np.array_equal(K.eval_block(i, j, xs, ys), fresh)


def test_arith_limit_tail_and_monotonicity():
    v_tail = cdf_arithmetic_limit(2.0, 8.0)
    assert 0.999 <= v_tail <= 1 + 1e-6
    grid = np.linspace(-3.0, 6.0, 20)
    vals = [cdf_arithmetic_limit(2.0, a) for a in grid]
    assert np.all(np.diff(vals) > -1e-9)
    assert np.all(np.asarray(vals) > -1e-6) and np.all(np.asarray(vals) < 1 + 1e-6)


@pytest.mark.parametrize("family,fn,grid", [
    ("piflat", lambda a: cdf_piflat([0.8, 1.4], a), np.linspace(0.05, 3.0, 20)),
    ("loe", lambda a: cdf_loe_max(2, a), np.linspace(0.05, 4.0, 20)),
    ("bridge-allmax", lambda r: cdf_bridge_allmax([0.1, -0.3], r), np.linspace(0.45, 2.4, 20)),
    ("bridge-runmax", lambda a: cdf_bridge_runningmax(2, 0.5, a), np.linspace(0.4, 2.4, 20)),
    ("blpp-nw", lambda a: cdf_blpp(BoundaryFunction.narrow_wedge(), [0.0, 0.0], [1.0], [a]),
     np.linspace(-2.0, 3.5, 20)),
    ("airy", lambda x: airy_fdd([0.0], [x]), np.linspace(-4.0, 2.0, 20)),
])
def test_cdf_candidates_in_range_and_monotone(family, fn, grid):
    vals = np.array([fn(g) for g in grid])
    assert np.all(vals > -1e-6) and np.all(vals < 1 + 1e-6), family
    assert np.all(np.diff(vals) > -1e-6), family


def test_query_dispatch():
    q = CdfQuery("piflat", {"beta": [1.0], "a": 0.5})
    assert abs(evaluate_cdf(q) - (1 - math.exp(-1.0))) < 1e-10
    assert abs(evaluate_cdf(CdfQuery("detratio", {"beta": [1.0], "a": 0.5}))
               - (1 - math.exp(-1.0))) < 1e-12
    with pytest.raises(ParameterError):
        evaluate_cdf(CdfQuery("nonsense", {}))


NW, FLAT = BoundaryFunction.narrow_wedge(), BoundaryFunction.flat()
# one query per family, with the call evaluate_cdf must make for it; every
# kernel family is given a truncation length of its own, which the call must get
DIRECT_CALLS = {
    "piflat": (CdfQuery("piflat", {"beta": [0.8, 1.4], "a": 0.7}, nodes=40, length=20.0),
               lambda: cdf_piflat([0.8, 1.4], 0.7, 40, 20.0)),
    "loe": (CdfQuery("loe", {"n": 2, "a": 1.2}, nodes=40, length=20.0),
            lambda: cdf_loe_max(2, 1.2, 40, 20.0)),
    "bridge-allmax": (CdfQuery("bridge-allmax", {"nu": [0.1, -0.3], "r": 1.1}, nodes=40),
                      lambda: cdf_bridge_allmax([0.1, -0.3], 1.1, 40)),
    "bridge-runmax": (CdfQuery("bridge-runmax", {"n": 2, "s": 0.5, "a": 0.9}, length=15.0),
                      lambda: cdf_bridge_runningmax(2, 0.5, 0.9, None, 15.0)),
    "arith": (CdfQuery("arith", {"delta": 2.0, "a": 0.5}, nodes=40),
              lambda: cdf_arithmetic_limit(2.0, 0.5, 40)),
    "blpp-nw": (CdfQuery("blpp-nw", {"mu": [0.3, -0.4], "times": [1.0], "thresholds": [0.5]},
                         nodes=40, length=4.0),
                lambda: cdf_blpp(NW, [0.3, -0.4], [1.0], [0.5], 40, 4.0)),
    "blpp-flat": (CdfQuery("blpp-flat", {"mu": [-0.5, -1.0], "times": [1.0],
                                         "thresholds": [1.5]}, length=4.0),
                  lambda: cdf_blpp(FLAT, [-0.5, -1.0], [1.0], [1.5], lengths=4.0)),
    "airy": (CdfQuery("airy", {"times": [0.0], "thresholds": [-1.0]}, nodes=40, length=4.0),
             lambda: airy_fdd([0.0], [-1.0], 40, 4.0)),
    "dyson-edge": (CdfQuery("dyson-edge", {"nu": np.linspace(-1.0, 0.0, 12), "times": [0.0],
                                           "thresholds": [0.3]}, length=4.0),
                   lambda: cdf_dyson_edge(np.linspace(-1.0, 0.0, 12), [0.0], [0.3],
                                          lengths=4.0)),
    "detratio": (CdfQuery("detratio", {"beta": [1.0, 2.0], "a": 0.5}),
                 lambda: det_ratio([1.0, 2.0], 0.5)),
}


def test_direct_calls_cover_the_registry():
    assert sorted(DIRECT_CALLS) == sorted(FAMILIES)


def test_each_family_names_its_public_function():
    public = {"piflat": cdf_piflat, "loe": cdf_loe_max, "bridge-allmax": cdf_bridge_allmax,
              "bridge-runmax": cdf_bridge_runningmax, "arith": cdf_arithmetic_limit,
              "airy": airy_fdd, "dyson-edge": cdf_dyson_edge}
    for family, cdf in public.items():
        assert FAMILIES[family].cdf is cdf, family
    for family, kind in (("blpp-nw", "narrow_wedge"), ("blpp-flat", "flat")):
        bound = FAMILIES[family].cdf
        assert isinstance(bound, partial) and bound.func is cdf_blpp, family
        assert [b.kind for b in bound.args] == [kind] and not bound.keywords, family
    # only the contour-integral kernels share a build over a grid
    assert sorted(f for f in FAMILIES if FAMILIES[f].curve) == ["airy", "arith", "dyson-edge"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_query_dispatch_per_family(family):
    query, direct = DIRECT_CALLS[family]
    value = evaluate_cdf(query)
    assert value == direct()
    assert 0.0 < value < 1.0
    option_names = set(FAMILIES[family].options) | {FAMILIES[family].threshold}
    assert option_names == set(query.params)


@pytest.mark.parametrize("family,name", [
    (family, name) for family in sorted(FAMILIES)
    for name in FAMILIES[family].options + (FAMILIES[family].threshold,)])
def test_query_without_an_option_names_it(family, name):
    query, _ = DIRECT_CALLS[family]
    params = {key: value for key, value in query.params.items() if key != name}
    with pytest.raises(ParameterError, match="needs %s$" % name):
        evaluate_cdf(CdfQuery(family, params))
    if name != FAMILIES[family].threshold:
        with pytest.raises(ParameterError, match="needs %s$" % name):
            evaluate_curve(CdfQuery(family, params), [query.params[FAMILIES[family].threshold]])


# ---------------------------------------------------------------------------
# threshold grids: one build per curve
# ---------------------------------------------------------------------------

# options and a 5-point grid per family, its smallest threshold not first so
# that a build must cover the whole grid; the thresholds families take one
# value per time
# kernels whose contours enclose only poles, at the rates or drifts: they are
# divided differences there, in closed form, and draw no contour
POLE_FAMILIES = {"piflat", "loe", "bridge-allmax", "bridge-runmax", "blpp-nw", "blpp-flat"}
CURVES = {
    "piflat": ({"beta": [0.8, 1.4]}, [1.1, -0.3, 3.2, 0.4, 2.0]),
    "loe": ({"n": 3}, [1.5, 0.3, 3.0, 0.8, 2.2]),
    "bridge-allmax": ({"nu": [0.1, -0.3]}, [1.3, 0.6, 2.2, 0.9, 1.7]),
    "bridge-runmax": ({"n": 2, "s": 0.5}, [1.1, 0.5, 1.8, 0.8, 1.4]),
    "arith": ({"delta": 2.0}, [0.5, -3.0, 4.5, -1.0, 2.0]),
    "blpp-nw": ({"mu": [0.3, -0.4], "times": [0.6, 1.1]},
                [[a, a + 0.3] for a in (0.5, -0.5, 1.8, 0.0, 1.0)]),
    "blpp-flat": ({"mu": [-0.5, -1.0], "times": [1.0, 2.0]},
                  [[a, a] for a in (2.6, 1.5, 4.5, 2.0, 3.3)]),
    "airy": ({"times": [0.0, 0.5]}, [[a, a + 0.2] for a in (-1.0, -3.0, 1.0, -2.0, 0.0)]),
    "dyson-edge": ({"nu": np.linspace(-1.0, 0.0, 12), "times": [0.0]},
                   [[a] for a in (0.0, -2.5, 1.6, -1.0, 0.8)]),
    "detratio": ({"beta": [1.0, 2.0]}, [1.0, 0.1, 2.5, 0.5, 1.6]),
}
# a curve sizes its contours for the whole grid, so its values differ from
# one-point values by the kernel-quadrature error of the two contour choices.
# The pole families' closed-form kernels fill each threshold on their own, and
# families whose kernel changes with the threshold build per point: both match
# exactly
CURVE_TOL = {"detratio": 0.0, **dict.fromkeys(POLE_FAMILIES, 0.0)}


# wide grids: along each, the column scaling e^{a m} of the rows made at the
# base nodes spans tens to hundreds of e-folds (arith about 100).  The arith
# grid starts at 0: below it the nodes are no translate of the base nodes and
# keep the rows of their own arguments, as CURVES["arith"] checks
WIDE_CURVES = {
    "airy": ({"times": [0.0]}, [[a] for a in np.linspace(-8.0, 6.0, 8)]),
    "piflat": ({"beta": [0.8, 1.4]}, list(np.linspace(0.0, 30.0, 7))),
    "arith": ({"delta": 2.0}, list(np.linspace(0.0, 20.0, 8))),
    "dyson-edge": ({"nu": np.linspace(-1.0, 0.0, 12), "times": [0.0, 0.3]},
                   [[a, a] for a in np.linspace(-6.0, 4.0, 6)]),
}


def test_curves_cover_the_registry():
    assert sorted(CURVES) == sorted(FAMILIES)


@pytest.mark.parametrize("family,params,grid", [
    pytest.param(family, *CURVES[family], id=family) for family in sorted(FAMILIES)] + [
    pytest.param(family, *WIDE_CURVES[family], id="wide-" + family) for family in WIDE_CURVES])
def test_curve_matches_one_point_values(family, params, grid):
    threshold = FAMILIES[family].threshold
    curve = evaluate_curve(CdfQuery(family, params), grid)
    points = [evaluate_cdf(CdfQuery(family, {**params, threshold: a})) for a in grid]
    tol = CURVE_TOL.get(family, 1e-12)
    for a, got, want in zip(grid, curve, points):
        assert np.isfinite(got) and abs(got - want) <= tol, (family, a, got, want)


# ---------------------------------------------------------------------------
# fills from the upper halves of symmetric contours
# ---------------------------------------------------------------------------

KERNEL_FAMILIES = sorted(set(FAMILIES) - {"detratio"})  # detratio draws no contour


def _queries(family):
    """A one-point query and the CURVES grid of a family, as the tests below run them."""
    params, grid = CURVES[family]
    evaluate_cdf(CdfQuery(family, {**params, FAMILIES[family].threshold: grid[0]}))
    evaluate_curve(CdfQuery(family, params), grid)


def _queries_draw_no_contour(family, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a %s query drew a contour or filled from one" % family)

    for module, name in ((contours, "make_contour"), (contours, "adaptive_ray"),
                         (contours, "ray_wedge"), (kernels, "make_contour"),
                         (kernels, "ray_wedge"), (kernels, "contour_fill")):
        monkeypatch.setattr(module, name, refuse)
    _queries(family)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_contours_are_conjugate_symmetric(family, monkeypatch):
    # every contour that a query of the family builds is its own mirror image
    # in the real axis, with weights w(z-bar) = -conj w(z) and each node on
    # the axis once; its upper half is the nodes with Im z >= 0, those on
    # the axis at half weight.  A pole family builds none
    if family in POLE_FAMILIES:
        return _queries_draw_no_contour(family, monkeypatch)
    built, mirrored = [], contours.mirrored

    def spy(*args):
        built.append(mirrored(*args))
        return built[-1]

    monkeypatch.setattr(contours, "mirrored", spy)
    _queries(family)
    assert built
    for c in built:
        z, w = c.nodes, c.weights
        assert len(np.unique(z)) == len(z)
        weight = dict(zip(z.tolist(), w.tolist()))
        for zk, wk in weight.items():
            assert weight[zk.conjugate()] == -wk.conjugate(), (c.kind, zk)
        upper = z.imag >= 0
        order = np.argsort(c.upper_nodes)
        assert np.array_equal(c.upper_nodes[order], np.sort(z[upper]))
        halved = np.where(z[upper].imag == 0, 0.5, 1.0) * w[upper]
        assert np.array_equal(c.upper_weights[order], halved[np.argsort(z[upper])])


def _whole_contour(kind, origin, u, w, truncation, geometry):
    # oracle: both halves of the path as its "upper half", nothing halved
    off_axis = u.imag > 0
    return contours.Contour(kind, origin + np.concatenate([u, np.conj(u[off_axis])]),
                            np.concatenate([w, -np.conj(w[off_axis])]), truncation, geometry)


# arith's zeta side is its residues, no contour: held fixed, at half weight on
# the axis, while its z line is whole, so the whole fill counts them twice
LEFT_RESIDUES = {"arith": 2.0}


def _whole_fill(out, left_scale, left_rows, right_rows, coupled):
    # oracle: the fill over whole contours, both halves evaluated and the real
    # part taken.  out gets the complex K and S, the sum of the absolute values
    # of its terms, which bounds its rounding error
    (A, top_x), (B, top_y) = left_rows, right_rows
    A = left_scale * A
    P, Q, _ = coupled
    L, abs_L = (A, abs(A)) if P is None else (A @ P, abs(A) @ abs(P))
    acc, S, norm = L @ (Q @ B.T), abs_L @ (abs(Q) @ abs(B).T), (2j * np.pi) ** 2
    scale = np.exp(top_x[:, None] + top_y[None, :]) / norm
    out.append((acc * scale, S * abs(scale)))
    return out[-1][0].real


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_half_fills_match_full_fills(family, monkeypatch):
    # every fill of a one-point query and a curve, against the same fill over
    # the whole contours (for arith its whole z line, its residues held
    # fixed): both agree, and the whole fill's imaginary part
    # vanishes, to 1e-12 max|K|.  Where an entry's terms cancel, both carry
    # rounding of up to about 1e-15 of the sum S of their absolute values
    # (3.5e-9 max|K| at large x on the two-time Airy grid), so each entry
    # may also differ by 1e-13 S.  A pole family fills from no contour
    if family in POLE_FAMILIES:
        return _queries_draw_no_contour(family, monkeypatch)
    half, whole, contour_fill = [], [], kernels.contour_fill

    def recorded(*args):
        half.append(contour_fill(*args))
        return half[-1]

    monkeypatch.setattr(kernels, "contour_fill", recorded)
    _queries(family)
    monkeypatch.setattr(contours, "mirrored", _whole_contour)
    monkeypatch.setattr(kernels, "contour_fill",
                        partial(_whole_fill, whole, LEFT_RESIDUES.get(family, 1.0)))
    _queries(family)
    assert len(half) == len(whole) > 0
    for K, (full, S) in zip(half, whole):
        bound = 1e-12 * np.max(np.abs(full)) + 1e-13 * S
        assert np.all(np.abs(K - full.real) <= bound)
        assert np.all(np.abs(full.imag) <= bound)


# ---------------------------------------------------------------------------
# contour couplings
# ---------------------------------------------------------------------------

def test_arith_queries_draw_one_z_line_and_no_sketch(monkeypatch):
    # the zeta side is residues: a one-point query and a CURVES grid, long
    # enough to sketch an Airy coupling, each draw one z line and sketch none
    drawn, make_contour = [], kernels.make_contour

    def spy(kind, **geometry):
        drawn.append(kind)
        return make_contour(kind, **geometry)

    def refuse(C):
        raise AssertionError("an arith query compressed a coupling")

    monkeypatch.setattr(kernels, "make_contour", spy)
    monkeypatch.setattr(kernels, "low_rank", refuse)
    assert len(CURVES["arith"][1]) >= distributions._LOW_RANK_FROM
    _queries("arith")
    assert drawn == ["vertical", "vertical"]


@pytest.mark.parametrize("family", ["airy"])
def test_low_rank_couplings_match_their_dense_sums(family, monkeypatch):
    # a CURVES grid is long enough to compress its couplings, and
    # test_curve_matches_one_point_values checks the values they give
    params, grid = CURVES[family]
    assert len(grid) >= distributions._LOW_RANK_FROM
    made, low_rank = [], kernels.low_rank

    def spy(C):
        made.append((C.copy(), low_rank(C)))
        return made[-1][1]

    monkeypatch.setattr(kernels, "low_rank", spy)
    evaluate_curve(CdfQuery(family, params), grid)
    assert made
    for C, factored in made:
        P, Q = factored
        assert np.max(np.abs(P @ Q - C)) <= 1e-13 * np.max(np.abs(C))


def test_sketched_curve_does_not_depend_on_the_blas_thread_count():
    # the sketch and SVD of low_rank run on one BLAS thread, as the determinants do
    grid = [[-2.0], [-1.0], [0.0], [1.0], [2.0]]  # long enough to sketch
    assert len(grid) >= distributions._LOW_RANK_FROM
    script = ("from noncolliding.distributions import CdfQuery, evaluate_curve\n"
              "print(repr(evaluate_curve(CdfQuery('airy', {'times': [0.0]}), %r)))" % grid)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out.append(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True).stdout)
    assert out[0] == out[1]


def _dense_fill(mu, t1, t2, xs, ys, flat):
    # the double contour itself: a 512-node circle around the drifts, the dense
    # coupling 1/(z - w), + 1/(z + w) if flat, and for each y a 600-node
    # Gauss-Legendre z line through its saddle y/t2, right of the circle and of
    # its mirror image
    mu = np.asarray(mu, dtype=float)
    c, r = 0.5 * (mu.min() + mu.max()), 0.5 * (mu.max() - mu.min()) + 0.5
    w = c + r * np.exp(2j * np.pi * np.arange(512) / 512)
    left = (np.exp(np.outer(xs, w) - 0.5 * t1 * w ** 2) / np.prod(w[:, None] - mu, axis=1)
            * (2j * np.pi / 512) * (w - c))
    floor = (max(c + r, r - c) if flat else c + r) + 0.5
    s, ws = gauss_legendre(-np.sqrt(120.0 / t2), np.sqrt(120.0 / t2), 600)
    K = np.empty((len(xs), len(ys)))
    for k, y in enumerate(ys):
        z = max(floor, y / t2) + 1j * s
        right = np.exp(0.5 * t2 * z ** 2 - y * z) * np.prod(z[:, None] - mu, axis=1) * 1j * ws
        C = 1.0 / (z[None, :] - w[:, None])
        if flat:
            C += 1.0 / (z[None, :] + w[:, None])
        K[:, k] = (left @ C @ right).real / (-4.0 * np.pi ** 2)
    return K * (ys > 0) if flat else K


# the dense sums cancel up to 1.1e-12 of max|K| (m = 6), the rank-m fills with
# their closed-form z side less (test_closed_form_kernels_match_30_digit_values)
@pytest.mark.parametrize("mu,tol", [
    ([0.3], 5e-12), ([0.3, -0.4], 5e-12), ([-0.5, -1.0], 5e-12), ([0.0, 0.0], 5e-12),
    ([-1.0, -1.0, -1.0], 1e-10), ([0.5, 0.5, -0.8, -0.8], 1e-10),
    ([0.5, -1.2, 0.3, 0.9], 1e-10), ([0.5, -1.2, 0.3, 0.9, -0.4, 0.0], 1e-10)],
    ids=["m1", "m2", "m2-negative", "m2-repeated", "m3-repeated", "m4-repeated-pairs", "m4",
         "m6"])
def test_rank_m_couplings_match_dense_fills(mu, tol):
    # the narrow-wedge and flat fills at rank m, with their closed-form z side,
    # equal the dense double contour at equal, rising and falling times
    xs, ys = np.linspace(-3.0, 12.0, 7), np.linspace(0.25, 12.0, 9)
    for t1, t2 in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        for kind in ("narrow_wedge", "flat"):
            K = kernels._brownian_engine(kind, mu, t1, t2)(xs, ys)
            dense = _dense_fill(mu, t1, t2, xs, ys, kind == "flat")
            assert np.max(np.abs(K - dense)) <= tol * np.max(np.abs(dense)), (kind, t1, t2)


@pytest.mark.parametrize("family,params,threshold", [
    ("blpp-nw", CURVES["blpp-nw"][0], CURVES["blpp-nw"][1][0]),
    ("blpp-flat", CURVES["blpp-flat"][0], CURVES["blpp-flat"][1][0]),
    ("blpp-flat", {"mu": [-1.0, -1.0], "times": [50.0]}, [1.0]),  # a large equal time
    ("bridge-runmax", CURVES["bridge-runmax"][0], CURVES["bridge-runmax"][1][0])])
def test_blpp_queries_make_no_dense_or_sketched_coupling(family, params, threshold,
                                                         monkeypatch):
    def refuse(*args):
        raise AssertionError("a narrow-wedge or flat query made a dense or sketched coupling")

    monkeypatch.setattr(kernels, "couplings", refuse)
    monkeypatch.setattr(kernels, "low_rank", refuse)
    value = evaluate_cdf(CdfQuery(family, {**params, FAMILIES[family].threshold: threshold}))
    assert 0.0 < value < 1.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_one_point_queries_keep_dense_couplings(family, monkeypatch):
    # a one-point query never sketches: the Airy, arith and Dyson-edge
    # couplings stay dense and the narrow-wedge and flat ones have rank m
    def refuse(C):
        raise AssertionError("a one-point query compressed a coupling")

    monkeypatch.setattr(kernels, "low_rank", refuse)
    params, grid = CURVES[family]
    value = evaluate_cdf(CdfQuery(family, {**params, FAMILIES[family].threshold: grid[0]}))
    assert 0.0 <= value <= 1.0


# one-time curves with a threshold range on which each law is defined; the
# two-time flat BLPP law is left out on purpose: it is not a one-time curve,
# and its known defect is pinned by test_two_time_flat_blpp_below_marginals
ONE_TIME = {
    "piflat": ({"beta": [0.8, 1.4]}, -0.5, 4.0),
    "loe": ({"n": 2}, 0.0, 4.0),
    "bridge-allmax": ({"nu": [0.1, -0.3]}, 0.3, 2.5),
    "bridge-runmax": ({"n": 2, "s": 0.5}, 0.2, 2.5),
    "arith": ({"delta": 2.0}, -4.0, 6.0),
    "blpp-nw": ({"mu": [0.3, -0.4], "times": [1.0]}, -3.0, 4.0),
    "blpp-flat": ({"mu": [-0.5, -1.0], "times": [1.0]}, 0.0, 5.0),
    "airy": ({"times": [0.0]}, -5.0, 3.0),
    "dyson-edge": ({"nu": np.linspace(-1.0, 0.0, 12), "times": [0.0]}, -4.0, 2.5),
    "detratio": ({"beta": [1.0, 2.0]}, 0.0, 4.0),
}


def test_one_time_curves_cover_the_registry():
    assert sorted(ONE_TIME) == sorted(FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_one_time_curve_in_range_and_monotone(family, data):
    params, lo, hi = ONE_TIME[family]
    grid = sorted(data.draw(st.lists(st.floats(lo, hi), min_size=2, max_size=6, unique=True)))
    if FAMILIES[family].threshold == "thresholds":
        grid = [[a] for a in grid]
    values = np.array(evaluate_curve(CdfQuery(family, params), grid))
    assert np.all(values >= -1e-8) and np.all(values <= 1.0 + 1e-8), values
    assert np.all(np.diff(values) >= -1e-8), values


@pytest.mark.xfail(strict=True, reason="known defect: below a ~ 1 the two-time flat BLPP "
                                       "determinant exceeds its one-time marginals and even 1")
def test_two_time_flat_blpp_below_marginals():
    mu, times = [-0.5, -1.0], [1.0, 2.0]
    for a in (0.0, 0.5):
        joint = cdf_blpp(FLAT, mu, times, [a, a])
        marginal = min(cdf_blpp(FLAT, mu, [t], [a]) for t in times)
        assert joint <= marginal + 1e-8, (a, joint, marginal)
