import math

import numpy as np
import pytest

from noncolliding.contours import gauss_legendre, make_contour, ray_wedge
from noncolliding.exceptions import DomainError, ParameterError
from noncolliding.distributions import airy_block
from noncolliding import kernels
from noncolliding.kernels import (BoundaryFunction, airy_kernel_ext, heat_op_full, heat_op_half,
                                  j_airy, k_bridge, k_delta, k_flat, k_loe, k_nw, k_piflat, s_bar,
                                  s_hypo_flat, s_minus)
from noncolliding.kernels import (Side, _base_rows, _brownian_block, _k_delta_engine, low_rank,
                                  shifted_rows)
from noncolliding.special import heat_kernel

GAMMA_THIRD = 2.678938534707748


def compose_kernels(left, right, u_lo, u_hi, n=400):
    """Numerical composition int_{u_lo}^{u_hi} left(x, u) right(u, y) du.

    Oracle for the analytic 1/(z-w) resolution inside the extended kernels;
    ``left``/``right`` take broadcastable array arguments.
    """
    u, wu = gauss_legendre(u_lo, u_hi, n)

    def composed(x, y):
        L = left(np.asarray(x)[..., None], u)
        R = right(u, np.asarray(y)[..., None])
        return np.sum(L * R * wu, axis=-1)

    return composed


# ---------------------------------------------------------------------------
# separable sides
# ---------------------------------------------------------------------------

def test_shifted_rows_match_rows_at_shifted_arguments():
    # rows made once at u, their columns scaled by e^{a m}: on a wedge whose
    # real parts span [-4.5, 5.1] the scaling at a = +-160 spans 1500
    # e-folds, so it is finite only with its largest exponent moved to top
    c = ray_wedge(-4.5, np.pi / 3, lambda w: -(w + 4.5) ** 2 / 4, 30.0)
    side = Side(c.nodes, c.weights, -0.5 * c.nodes ** 2, c.nodes, np.log(c.nodes + 6.0))
    u = np.linspace(0.0, 3.0, 7)
    made = {}
    _base_rows(made, (u, u), [side], [])
    for a in (-160.0, -2.5, 0.0, 40.0, 160.0):
        got, top = shifted_rows(made, a)(side, u + a)
        want, want_top = side.rows(u + a)
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(top)), a
        assert np.max(np.abs(got * np.exp(top - want_top)[:, None] - want)) < 1e-12, a


def test_low_rank_keeps_a_full_rank_matrix_dense():
    rng = np.random.default_rng(5)
    C = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    assert low_rank(C) is C


def test_low_rank_factors_a_separated_cauchy_matrix():
    # a vertical segment and a vertical line 2.3 to its right: singular values
    # fall below 1e-16 of the largest at 15
    c = make_contour("vertical", offset=-0.8, half_height=0.8, nodes=256)
    z = 1.5 + 1j * np.linspace(-8.0, 8.0, 192)
    C = 1.0 / (z[None, :] - c.nodes[:, None])
    P, Q = low_rank(C)
    assert P.shape[1] == Q.shape[0] <= 40
    assert np.max(np.abs(P @ Q - C)) <= 1e-13 * np.max(np.abs(C))


# ---------------------------------------------------------------------------
# divided differences at the poles
# ---------------------------------------------------------------------------

def _mp_differences(mp, w, taylor):
    """f[w_i..w_j] by Newton's recursion in mpmath, f^(k)(w_i)/k! = taylor(w_i, k)[k] where
    the k + 1 nodes merge."""
    D = {}
    for k in range(len(w)):
        for i in range(len(w) - k):
            j = i + k
            D[i, j] = (taylor(w[i], k)[k] if w[j] == w[i]
                       else (D[i + 1, j] - D[i, j - 1]) / (w[j] - w[i]))
    return D


def _mp_exp_differences(mp, w, alpha, u, p=0):
    """The table of w^p e^{uw + alpha w^2} at nodes w, from its Taylor coefficients."""
    def taylor(x, n):
        b, g = u + 2 * alpha * x, [mp.mpf(1), u + 2 * alpha * x]
        for k in range(1, n + p):
            g.append((b * g[k] + 2 * alpha * g[k - 1]) / (k + 1))
        power = [mp.binomial(p, q) * x ** (p - q) for q in range(p + 1)]  # (x + d)^p
        return [mp.exp(u * x + alpha * x * x)
                * sum(power[q] * g[r - q] for q in range(p + 1) if r - q < len(g))
                for r in range(n + 1)]

    return _mp_differences(mp, w, taylor)


@pytest.mark.parametrize("nodes", [
    [-1.2, -0.4, 0.3, 0.9], [-0.5 + k * 1e-6 for k in range(4)], [0.3, 0.3 + 1e-6, 1.0, 1.0 + 1e-6],
    [1.0] * 5, [-0.5] * 6, [-2.0, -1.0, 0.0, 1.5, 2.5], [-0.8, -0.8, 0.5, 0.5]],
    ids=["distinct", "1e-6-apart", "1e-6-pairs", "fivefold", "sixfold", "spread", "merged-pairs"])
def test_exp_differences_match_80_digit_values(nodes):
    # each entry f[w_i..w_j] of f = e^{uw + alpha w^2} to 1e-14 of its value, or to the change
    # that rounding u, alpha and each node by one unit in the last place makes in it,
    # eps sum_x |x dD/dx|, where that is larger: near a zero of f^(k) on the span or at an
    # exponent of some hundreds.  d/du and d/d alpha are the entries of w f and w^2 f, and
    # d/dw_q the entry with w_q repeated
    mp = pytest.importorskip("mpmath")
    w, rng = tuple(sorted(nodes)), np.random.default_rng(len(nodes))
    us = rng.uniform(-60.0, 40.0, 6)
    for alpha in (-50.0 * rng.uniform(0.5, 1.0), -1.3 * rng.uniform(0.5, 1.0), 0.0, 0.4):
        D = kernels._exp_differences(w, alpha, us)
        with mp.workdps(80):
            a, big = mp.mpf(alpha), [mp.mpf(v) for v in w]
            for n, u in enumerate(map(mp.mpf, us)):
                value, moment, second = (_mp_exp_differences(mp, big, a, u, p) for p in range(3))
                for (i, j), want in value.items():
                    kappa = abs(u * moment[i, j]) + abs(a * second[i, j]) + sum(
                        abs(big[q] * _mp_exp_differences(
                            mp, sorted(big[i:j + 1] + [big[q]]), a, u)[0, j - i + 1])
                        for q in range(i, j + 1))
                    bound = 1e-14 * abs(want) + np.finfo(float).eps * kappa
                    assert abs(D[j - i][i][n] - want) <= bound, (alpha, float(u), i, j)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_s_minus_residue_oracles():
    assert abs(s_minus([0.0], 1.0, 0.7, -0.3) - 1.0) < 1e-13
    c, t, x, y = 0.8, 1.3, 0.4, -0.2
    assert abs(s_minus([c], t, x, y) - math.exp(-t / 2 * c * c + (x - y) * c)) < 1e-13
    mus = [0.3, -0.5, 1.1]
    res = sum(math.exp(-t / 2 * m * m + (x - y) * m)
              / np.prod([m - o for o in mus if o != m]) for m in mus)
    assert abs(s_minus(mus, t, x, y) - res) < 1e-12


def test_s_minus_growth_bound():
    # |S_{m,-t}| <= e^{C (|x-y| + 1)} with C from the rectangle-contour bound
    mus = [0.5, -0.25]
    C = 1.0 + max(abs(m) for m in mus) + 1.5
    for s in np.linspace(-10, 10, 41):
        assert abs(s_minus(mus, 1.0, s, 0.0)) <= math.exp(C * (abs(s) + 1.0))


def test_s_bar_matches_its_line_integral():
    # s_bar's closed form against its defining integral on the vertical line
    # through the Gaussian saddle (y - x)/t, by 400 Gauss-Legendre nodes
    for mus in ([0.0], [0.5], [0.5, -1.2, 0.3]):
        for (t, x, y) in [(1.0, 0.4, -0.2), (0.7, 1.4, -0.2), (2.5, -3.0, 4.0)]:
            half = math.sqrt(2.0 * 60.0 / t)
            s, ws = gauss_legendre(-half, half, 400)
            z = (y - x) / t + 1j * s
            f = np.exp(0.5 * t * z ** 2 + (x - y) * z) * np.prod([z - m for m in mus], axis=0)
            assert abs(s_bar(mus, t, x, y) - np.sum(ws * f).real / (2 * math.pi)) < 1e-13


def test_s_bar_single_drift_is_heat_derivative():
    # m=1, mu=0: equals -d/dy heat = ((y-x)/t) heat (finite-difference oracle)
    t, x, y, h = 1.0, 0.4, -0.2, 1e-6
    fd = -(heat_kernel(t, x, y + h) - heat_kernel(t, x, y - h)) / (2 * h)
    assert abs(s_bar([0.0], t, x, y) - fd) < 1e-9
    assert abs(s_bar([0.0], t, x, y) - (y - x) / t * heat_kernel(t, x, y)) < 1e-12


def test_s_hypo_flat_branches_and_continuity():
    mus = [0.3]
    # x <= 0: plain s_bar
    assert s_hypo_flat(mus, 1.0, -0.4, 0.7) == pytest.approx(s_bar(mus, 1.0, -0.4, 0.7), abs=1e-14)
    # m analog of the reflected heat formula: for drift-free comparison use
    # finite-difference-free identity via s_bar at reflected argument
    assert s_hypo_flat(mus, 1.0, 0.4, 0.7) == pytest.approx(s_bar(mus, 1.0, -0.4, 0.7), abs=1e-12)
    assert s_hypo_flat(mus, 1.0, 0.4, -0.7) == pytest.approx(s_bar(mus, 1.0, 0.4, -0.7), abs=1e-12)
    # continuity across x = 0 for y < 0
    assert abs(s_hypo_flat(mus, 1.0, 1e-12, -0.5)
               - s_hypo_flat(mus, 1.0, -1e-12, -0.5)) < 1e-9


def test_boundary_function_validation():
    with pytest.raises(ParameterError, match="unknown boundary kind 'linear'"):
        BoundaryFunction("linear")
    flat, nw = BoundaryFunction.flat(), BoundaryFunction.narrow_wedge()
    assert flat(0.5) == 0.0 and nw(0.0) == 0.0 and nw(0.5) == -np.inf
    assert np.array_equal(flat(np.array([0.0, 1.0])), [0.0, 0.0])
    assert np.array_equal(nw(np.array([0.0, 1.0])), [0.0, -np.inf])


# ---------------------------------------------------------------------------
# product kernels
# ---------------------------------------------------------------------------

def test_k_piflat_rank_one_and_residues():
    x, y, b1 = 0.5, 1.2, 0.7
    assert abs(k_piflat([b1], x, y) - 2 * b1 * math.exp(-(x + y) * b1)) < 1e-13
    bs = np.array([0.6, 1.4])
    res = sum((bs[0] + bi) * (bs[1] + bi) * math.exp(-(x + y) * bi) / (-(bs[1 - i] - bi))
              for i, bi in enumerate(bs))
    assert abs(k_piflat(bs, x, y) - (-res)) < 1e-10
    assert k_piflat(bs, 0.3, 0.9) == k_piflat(bs, 0.9, 0.3)  # depends on x+y


def test_k_loe_matches_piflat_and_high_order_residue():
    x, y = 0.5, 1.2
    assert abs(k_loe(1, x, y) - 2 * math.exp(-(x + y))) < 1e-13
    assert abs(k_loe(3, x, y) - k_piflat(np.ones(3), x, y)) < 1e-12
    # n = 5: K = -Res_{w=1} e^{-s w}((1+w)/(1-w))^5, residue by series expansion
    s = x + y
    resid = -math.exp(-s) * sum((-s) ** k / math.factorial(k)
                                * math.comb(5, 4 - k) * 2.0 ** (k + 1) for k in range(5))
    assert abs(k_loe(5, x, y) - (-resid)) < 1e-8


def test_loe_rate_kernel_matches_40_digit_residues():
    # n = 5 on [0, 40]^2, the Nystrom range of the LOE law: the pole of order 5
    # at w = 1 gives K = e^{-s} sum_k (-s)^k/k! C(5, 4 - k) 2^{k+1}, s = x + y
    mp = pytest.importorskip("mpmath")
    u = np.linspace(0.0, 40.0, 17)
    K = k_loe(5, u[:, None], u[None, :])
    with mp.workdps(40):
        want = np.array([[float(mp.exp(-s) * mp.fsum((-s) ** k / mp.factorial(k) * mp.binomial(5, 4 - k)
                                                      * 2 ** (k + 1) for k in range(5)))
                          for s in (mp.mpf(x) + mp.mpf(y) for y in u)] for x in u])
    assert np.max(np.abs(K - want)) <= 1e-14 * np.max(np.abs(want))


def test_k_piflat_rate_validation():
    with pytest.raises(ParameterError):
        k_piflat([-1.0], 0.2, 0.3)
    with pytest.raises(ParameterError):
        k_piflat([1.0, 0.0], 0.2, 0.3)


def test_k_bridge_domain_and_symmetry():
    nu = [0.1, -0.2]
    assert k_bridge(nu, 1.5, 0.3, 0.8) == k_bridge(nu, 1.5, 0.8, 0.3)
    assert abs(k_bridge([0.0], 1.0, 0.2, 0.4)
               - k_loe(1, 0.2 + 1.0, 0.4 + 1.0)) < 1e-12
    with pytest.raises(DomainError):
        k_bridge([0.5, 2.0], 1.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# narrow wedge / flat
# ---------------------------------------------------------------------------

def test_k_nw_rank_one_identity():
    # m=1, mu=0: the w-residue makes K(x, y) = phi(y), independent of x
    y = 0.2
    want = math.exp(-y * y / 2) / math.sqrt(2 * math.pi)
    for x in (-1.0, 0.3, 2.0):
        assert abs(k_nw([0.0], 1.0, x, 1.0, y) - want) < 1e-12


def test_k_nw_drift_permutation_pointwise():
    mus = [0.4, -0.7, 0.1]
    v = k_nw(mus, 1.0, 0.5, 1.3, 0.2)
    for perm in ([0.1, 0.4, -0.7], [-0.7, 0.1, 0.4]):
        assert abs(k_nw(perm, 1.0, 0.5, 1.3, 0.2) - v) < 1e-12


def test_k_nw_composition_oracle():
    # K_nw = int_{-inf}^0 S_{m,-t1}(x, u) Sbar_{m,t2}(u, y) du
    mus = [0.4, -0.7]
    comp = compose_kernels(lambda X, U: s_minus(mus, 0.8, X, U),
                           lambda U, Y: s_bar(mus, 1.1, U, Y), -40.0, 0.0, n=600)
    for (x, y) in [(0.2, 0.5), (-0.5, 1.0), (1.0, -0.3)]:
        assert abs(k_nw(mus, 0.8, x, 1.1, y) - comp(x, y)) < 1e-6


def test_k_flat_indicator_composition_and_limit():
    mus = [0.4, -0.7]
    assert k_flat(mus, 1.0, 0.3, 1.0, -0.2) == 0.0  # both terms carry 1{y>0}
    compA = compose_kernels(lambda X, U: s_minus(mus, 0.8, X, U),
                            lambda U, Y: s_hypo_flat(mus, 1.1, U, Y), -40.0, 0.0, n=800)
    compB = compose_kernels(lambda X, U: s_minus(mus, 0.8, X, U),
                            lambda U, Y: s_hypo_flat(mus, 1.1, U, Y), 0.0, 40.0, n=800)
    for (x, y) in [(0.2, 0.5), (-0.5, 1.0), (1.0, 0.3)]:
        assert abs(k_flat(mus, 0.8, x, 1.1, y) - compA(x, y) - compB(x, y)) < 1e-6
    # rank-one limit at large equal times
    beta, x, y = 0.9, 0.5, 1.2
    assert abs(k_flat([-beta], 60.0, x, 60.0, y)
               - 2 * beta * math.exp(-(x + y) * beta)) < 1e-4


def test_k_flat_far_time_matches_its_residue_form():
    # distinct drifts: K = sum_i e^{mu_i x - t mu_i^2/2}/q'(mu_i) Psi_i(y), where the z
    # integral of q(z)(1/(z - mu_i) + 1/(z + mu_i)) is 2 (y/t - mu_i - mu_j) p_t(y) +
    # q(-mu_i) F_i(y) for m = 2, 2 p_t(y) - 2 mu F(y) for m = 1, with the mirror pole's
    # F_i(y) = e^{t mu_i^2/2 + mu_i y} Phi-bar((y + mu_i t)/sqrt t)
    def residue_form(mus, t, x, y):
        p = heat_kernel(t, 0.0, y)
        total = 0.0
        for i, mu in enumerate(mus):
            F = math.exp(0.5 * t * mu * mu + mu * y) * 0.5 * math.erfc((y + mu * t)
                                                                        / math.sqrt(2 * t))
            if len(mus) == 1:
                psi, dq = 2 * p - 2 * mu * F, 1.0
            else:
                other = mus[1 - i]
                psi = 2 * (y / t - mu - other) * p + 2 * mu * (mu + other) * F
                dq = mu - other
            total += math.exp(mu * x - 0.5 * t * mu * mu) / dq * psi
        return total

    for mus in ([-0.9], [-0.5, -1.0]):
        for t in (5.0, 20.0):
            for x, y in ((0.5, 1.2), (2.0, 3.0), (0.0, 0.4)):
                want = residue_form(mus, t, x, y)
                assert abs(k_flat(mus, t, x, t, y) - want) < 1e-13 * max(1.0, abs(want)), (mus, t)


def test_refined_airy_wedges_keep_j_airy():
    # a wedge rebuilt at twice the nodes of each panel gives the same kernel
    unrefined = kernels._jairy_contours
    for args in [(0.0, -1.0, 0.0, 0.5), (0.0, -3.5, 0.0, -3.5), (0.4, 1.0, -0.3, -1.0)]:
        v = j_airy(*args)
        kernels._jairy_contours = lambda *a: tuple(c.refined() for c in unrefined(*a))
        try:
            assert unrefined(0.0, -1.0, 0.5, "wedge")[0].kind == "wedge"
            assert abs(j_airy(*args) - v) < 1e-12, args
        finally:
            kernels._jairy_contours = unrefined


def _residue_kernel(mp, mu, t1, x, t2, y, flat):
    """The narrow-wedge or flat kernel to 30 digits: the residues of its w integrand at
    the drifts, each z integral and its w-derivatives taken on a vertical line by mpmath."""
    t1, x, t2, y = mp.mpf(t1), mp.mpf(x), mp.mpf(t2), mp.mpf(y)
    mus = [mp.mpf(m) for m in mu]
    d = max(abs(m) for m in mus) + 1 + max(0, y / t2)

    def psi(w, j):
        def f(s):
            z = d + 1j * s
            c = 1 / (z - w) ** (j + 1) + ((-1) ** j / (z + w) ** (j + 1) if flat else 0)
            return mp.exp(t2 * z * z / 2 - y * z) * mp.fprod([z - m for m in mus]) * c
        return mp.factorial(j) * mp.re(mp.quad(f, [-mp.inf, 0, mp.inf])) / (2 * mp.pi)

    total = mp.mpf(0)
    for pole in sorted(set(mus)):
        r = mus.count(pole)
        others = [m for m in mus if m != pole]

        def g(w):
            return mp.exp(x * w - t1 * w * w / 2) / mp.fprod([w - m for m in others])

        total += sum(mp.binomial(r - 1, j) * mp.diff(g, pole, r - 1 - j) * psi(pole, j)
                     for j in range(r)) / mp.factorial(r - 1)
    return float(total)


# the drift vectors of test_rank_m_couplings_match_dense_fills, a far time,
# near-coincident drifts, which lose no more than distinct ones, a sixfold drift
# and spread drifts at a far time
@pytest.mark.parametrize("mu,t1,t2", [
    ([0.3], 5.0, 5.0), ([0.3, -0.4], 1.0, 2.0), ([-0.5, -1.0], 20.0, 20.0), ([0.0, 0.0], 2.0, 1.0),
    ([-1.0, -1.0, -1.0], 1.0, 2.0), ([0.5, 0.5, -0.8, -0.8], 1.0, 1.0),
    ([0.5, -1.2, 0.3, 0.9], 2.0, 1.0), ([0.5, -1.2, 0.3, 0.9, -0.4, 0.0], 1.0, 2.0),
    ([-0.5, -1.0], 1.0, 1.0), ([-0.5, -0.5 - 1e-6], 1.0, 1.0), ([-0.5, -0.5 - 1e-6], 5.0, 5.0),
    ([-0.5] * 6, 1.0, 1.0), ([0.5, -1.2, 0.3, 0.9], 5.0, 5.0)])
def test_closed_form_kernels_match_30_digit_values(mu, t1, t2):
    mp = pytest.importorskip("mpmath")
    for kernel, flat in ((k_nw, False), (k_flat, True)):
        with mp.workdps(30):
            want = _residue_kernel(mp, mu, t1, 0.5, t2, 0.7, flat)
        assert abs(kernel(mu, t1, 0.5, t2, 0.7) - want) < 1e-14 * max(1.0, abs(want)), flat


def test_k_flat_burke_permutation():
    v = k_flat([-0.5, -1.1], 1.0, 0.4, 1.0, 0.9)
    assert abs(k_flat([-1.1, -0.5], 1.0, 0.4, 1.0, 0.9) - v) < 1e-12


# ---------------------------------------------------------------------------
# arithmetic-spectrum kernel
# ---------------------------------------------------------------------------

def test_k_delta_real_and_contour_stability(monkeypatch):
    # the imaginary part that a fill over the whole z line leaves is checked by
    # test_half_fills_match_full_fills.  Five more residues than the cut keeps
    # change nothing; a z line with doubled nodes changes the rounding alone
    assert isinstance(k_delta(2.0, 0.0, 1.0), float)
    xs = np.linspace(-3.0, 8.0, 12)
    count = kernels._pole_count
    for delta in (1.5, 2.0, 3.0):
        a = _k_delta_engine(delta, xs, xs)(xs, xs)
        c = _k_delta_engine(delta, xs, xs, node_factor=2.0)(xs, xs)
        with monkeypatch.context() as m:
            m.setattr(kernels, "_pole_count", lambda d, xmin: count(d, xmin) + 5)
            b = _k_delta_engine(delta, xs, xs)(xs, xs)
        assert np.max(np.abs(a - b)) < 1e-15, delta
        assert np.max(np.abs(a - c)) < 1e-13, delta


def _k_delta_30_digits(mp, delta, x, y):
    """k_delta to 30 digits: the zeta residues, 30 terms, and the z line Re z = 1 by mpmath."""
    d2, x, y = mp.mpf(delta) ** 2, mp.mpf(x), mp.mpf(y)
    c = [(-1) ** k / mp.factorial(k) * mp.exp(-d2 / 2 * k * k - k * x) for k in range(30)]

    def f(t):
        z = 1 + 1j * t
        return (mp.exp(d2 / 2 * z * z - y * z) / mp.gamma(z)
                * mp.fsum(ck / (z + k) for k, ck in enumerate(c)))

    return float(mp.re(mp.quad(f, mp.linspace(-12, 12, 13))) / (2 * mp.pi))


@pytest.mark.parametrize("delta,x,y", [(2.0, 0.0, 1.0), (1.5, 0.5, -0.5), (2.0, -2.0, -1.0),
                                       (2.0, 3.0, 2.0), (3.0, 4.0, 0.0), (3.0, -3.0, 0.0)])
def test_k_delta_matches_30_digit_values(delta, x, y):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = _k_delta_30_digits(mp, delta, x, y)
    assert abs(k_delta(delta, x, y) - want) < 1e-14 * max(1.0, abs(want))


def test_k_delta_truncated_weierstrass_gamma():
    n = 10 ** 5

    def gamma_trunc(z):
        z = np.asarray(z, dtype=complex)
        i = np.arange(1, n, dtype=float)
        log_prod = np.sum(np.log1p(z[..., None] / i) - z[..., None] / i, axis=-1)
        return 1.0 / (z * np.exp(np.euler_gamma * z + log_prod))

    v1 = k_delta(2.0, 0.0, 0.5)
    v2 = k_delta(2.0, 0.0, 0.5, gamma_func=gamma_trunc)
    # error rate of the truncated product: C |z|^2 sum_{i>=n} i^{-2} per node
    assert abs(v1 - v2) < 1e-6


# ---------------------------------------------------------------------------
# Airy kernels
# ---------------------------------------------------------------------------

def test_airy_kernel_equal_time_value_and_symmetry():
    aip0_sq = (3.0 ** (-1.0 / 3.0) / GAMMA_THIRD) ** 2
    assert abs(airy_kernel_ext(0.0, 0.0, 0.0, 0.0) - aip0_sq) < 1e-12
    assert airy_kernel_ext(0.5, 0.3, 0.5, 1.1) == airy_kernel_ext(0.5, 1.1, 0.5, 0.3)


def test_j_airy_matches_equal_time_grid():
    for x in np.linspace(-2, 2, 5):
        for y in np.linspace(-2, 2, 5):
            assert abs(j_airy(0.0, x, 0.0, y) - airy_kernel_ext(0.0, x, 0.0, y)) < 1e-6


def test_j_airy_contour_modes_agree():
    assert abs(j_airy(0, 1, 0, 1, mode="wedge") - j_airy(0, 1, 0, 1, mode="vertical")) < 1e-8
    assert abs(j_airy(-0.3, 0.0, 0.4, 0.5, mode="wedge")
               - j_airy(-0.3, 0.0, 0.4, 0.5, mode="vertical")) < 1e-8
    # deep in the left tail, where a w contour off its steepest-descent rays
    # loses digits, and a pair with t1 > t2
    assert abs(j_airy(0, -3.5, 0, -3.5, mode="wedge")
               - j_airy(0, -3.5, 0, -3.5, mode="vertical")) < 1e-8
    assert abs(j_airy(0.4, -2.0, -0.3, 1.5, mode="wedge")
               - j_airy(0.4, -2.0, -0.3, 1.5, mode="vertical")) < 1e-8
    with pytest.raises(ParameterError):
        j_airy(0, 0, 0, 0, delta1=0.5, delta2=0.9)


def test_airy_block_reduces_to_shifted_kernel():
    t = np.array([-0.3, 0.4])
    xi = np.array([0.2, -0.1])
    K = airy_block(t, xi)
    for i in range(2):
        for j in range(2):
            for (x, y) in [(0.1, 0.4), (1.0, -0.2)]:
                lhs = K.eval(i, x, j, y)
                rhs = airy_kernel_ext(t[i], x + xi[i] + t[i] ** 2,
                                      t[j], y + xi[j] + t[j] ** 2)
                assert abs(lhs - rhs) < 1e-8
    # i = j: no heat term, plain equal-time kernel
    v = K.eval(0, 0.1, 0, 0.4)
    assert abs(v - airy_kernel_ext(t[0], 0.1 + xi[0] + t[0] ** 2,
                                   t[0], 0.4 + xi[0] + t[0] ** 2)) < 1e-8


def test_heat_operator_conventions():
    # e^{t d^2} has variance 2t; e^{t d^2/2} has variance t
    assert heat_op_full(0.5, 0.0, 1.0) == heat_kernel(1.0, 0.0, 1.0)
    assert heat_op_half(0.5, 0.0, 1.0) == heat_kernel(0.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# extended kernels
# ---------------------------------------------------------------------------

def test_brownian_block_closed_forms():
    mus = [0.4, -0.7]
    x, y = np.array([0.2]), np.array([0.5])
    v = _brownian_block("narrow_wedge", mus, 0.8, 1.1, x, y)[0, 0]
    want = k_nw(mus, 0.8, 0.2, 1.1, 0.5) - heat_op_half(0.3, 0.2, 0.5)
    assert abs(v - want) < 1e-12
    # equal times: heat term absent
    v2 = _brownian_block("flat", mus, 1.1, 1.1, x, y)[0, 0]
    assert abs(v2 - k_flat(mus, 1.1, 0.2, 1.1, 0.5)) < 1e-12


def test_kernel_contour_perturbation_invariance():
    # perturbing admissible contour parameters moves values by < 1e-8
    v1 = j_airy(0.1, 0.5, 0.4, 0.2)
    v2 = j_airy(0.1, 0.5, 0.4, 0.2, delta2=1.1, delta1=1.9)
    assert abs(v1 - v2) < 1e-8
