import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncolliding.discrete import (GeomParams, drift_params, from_tilde, q_geom,
                                   s_geom, sample_geom_lpp, sbar_geom,
                                   scaling_bridge, to_tilde, transition_prob,
                                   w_coeff, w_tilde)
from noncolliding.exceptions import ParameterError
from noncolliding.kernels import s_bar, s_minus
from noncolliding.rng import RngStream
from noncolliding.special import heat_kernel


def test_w_coeff_geometric_row():
    p = GeomParams((0.4,))
    for x in range(-2, 6):
        want = 0.6 * 0.4 ** x if x >= 0 else 0.0
        assert abs(w_coeff(0, x, p) - want) < 1e-13


def test_w_coeff_empty_product_is_indicator():
    p = GeomParams(())
    assert abs(w_coeff(0, 0, p) - 1.0) < 1e-13
    for x in (-2, -1, 1, 2):
        assert abs(w_coeff(0, x, p)) < 1e-13


def _w_exact(k, x, a):
    """W_k(x) in exact rational arithmetic: the u^(x+k) coefficient of
    (1 - u)^k prod_i (1 - a_i)/(1 - a_i u), each factor a truncated series."""
    n = x + k
    if n < 0:
        return Fraction(0)
    series = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(abs(k)):  # times (1 - u), or for k < 0 times 1/(1 - u) = 1 + u + u^2 + ...
        series = ([series[0]] + [series[j] - series[j - 1] for j in range(1, n + 1)] if k > 0
                  else list(accumulate(series)))
    for ai in map(Fraction, a):
        series = [(1 - ai) * sum(series[j] * ai ** (i - j) for j in range(i + 1))
                  for i in range(n + 1)]
    return series[n]


def test_w_coeff_matches_exact_fractions():
    for a in [(0.3, 0.5), (0.2, 0.7, 0.45), (0.6,), ()]:
        p = GeomParams(a)
        for k in range(-3, 4):
            for x in range(-4, 15):
                want = float(_w_exact(k, x, a))
                assert abs(w_coeff(k, x, p) - want) <= 1e-14 * max(1.0, abs(want)), (a, k, x)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_tilde_is_an_involution(x):
    x = np.sort(np.asarray(x))
    assert np.array_equal(from_tilde(to_tilde(x)), x)
    xt = to_tilde(x)
    assert np.all(np.diff(xt) < 0)  # strictly decreasing image


def test_tilde_relation_on_grid():
    p = GeomParams((0.3, 0.5))
    for k in range(-2, 3):
        for x in range(-3, 4):
            assert w_tilde(k, x, p) == pytest.approx(w_coeff(-k, k - x, p), abs=1e-13)


def test_transition_single_site():
    p = GeomParams((0.4,))
    for y in (2, 3, 7):
        assert abs(transition_prob([2], [y], 1, p) - 0.6 * 0.4 ** (y - 2)) < 1e-13
    assert transition_prob([2], [1], 1, p) == 0.0


def test_transition_row_sums_to_one():
    p = GeomParams((0.3, 0.5))
    x = [0, 1]
    total = 0.0
    for y1 in range(0, 40):
        for y2 in range(y1, 60):
            total += transition_prob(x, [y1, y2], 2, p)
    assert abs(total - 1.0) < 1e-8


def test_transition_nonnegative_and_reflection():
    p = GeomParams((0.3, 0.5))
    x = [0, 1]
    rng = np.random.default_rng(2)
    for _ in range(25):
        y1 = int(rng.integers(0, 12))
        y2 = y1 + int(rng.integers(0, 12))
        pr = transition_prob(x, [y1, y2], 2, p)
        assert pr >= 0.0
        xt, yt = to_tilde(x), to_tilde([y1, y2])
        M = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                M[i, j] = w_tilde(i - j, int(yt[1 - i] - xt[1 - j]), p)
        assert abs(pr - np.linalg.det(M)) < 1e-10


def test_sample_geom_lpp_properties():
    p = GeomParams((0.3, 0.5))
    G = sample_geom_lpp(p, [0, 2], 2, RngStream(1), samples=2000)
    assert np.all(G[:, 1] >= G[:, 0])       # stays in the cone
    assert np.all(G[:, 0] >= 0)
    # monotone growth in m for a shared sample path is implied by the
    # recursion; check distributional mean for N = 1 against geometric sums
    G1 = sample_geom_lpp(p, [0], 2, RngStream(2), samples=100000)
    mean_want = 0.3 / 0.7 + 0.5 / 0.5
    sigma = np.sqrt((0.3 / 0.49 + 0.5 / 0.25) / 100000)
    assert abs(G1.mean() - mean_want) < 3 * sigma
    with pytest.raises(ParameterError):
        sample_geom_lpp(p, [2, 1], 2)


def test_sample_geom_lpp_holds_little_beside_its_output():
    # the output, one draw of weights and one row: 2.5 times the output's bytes
    tracemalloc.start()
    try:
        G = sample_geom_lpp(GeomParams((0.4, 0.6)), [0, 2], 2, RngStream(4), samples=200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * G.nbytes


def test_degenerate_weights_propagate_initial_data():
    p = GeomParams((1e-12, 1e-12))
    G = sample_geom_lpp(p, [1, 3], 2, RngStream(3), samples=50)
    assert np.all(G == np.array([1, 3]))


def test_q_geom_support_and_normalization():
    p = drift_params([0.0], 100)
    assert q_geom(1, 0, 0, p) == 0.0   # strictly-left steps
    assert q_geom(1, 0, 1, p) == 0.0
    assert abs(q_geom(1, 0, -1, p) - 0.5) < 1e-12  # (1-theta) theta^{k-1} at k=1
    for n, z1 in ((1, 0), (4, 3)):
        tot = sum(q_geom(n, z1, z1 - j, p) for j in range(n, n + 300))
        assert abs(tot - 1.0) < 1e-10


def test_limit_transitions_toward_brownian_kernels():
    mu = [0.5, -0.3]
    s, t = 0.2, 0.7
    m = len(mu)
    N = 400
    p = drift_params(mu, N)
    n1, z1 = scaling_bridge(N, s, 0.3)
    n2, z2 = scaling_bridge(N, t, -0.2)
    xe = -(z1 + 2 * N * s) / np.sqrt(2 * N)
    ye = -(z2 + 2 * N * t) / np.sqrt(2 * N)
    assert abs(np.sqrt(2 * N) * q_geom(n2 - n1, z1, z2, p)
               - heat_kernel(t - s, xe, ye)) < 0.05
    _, z2s = scaling_bridge(N, 0.0, -0.2)
    ys = -z2s / np.sqrt(2 * N)
    vS = np.sqrt(2 * N) * s_geom(m, n1, z1, z2s, p) / (N / 2.0) ** (m / 2.0)
    assert abs(vS - s_minus(mu, s, xe, ys)) < 0.05
    nb = int(np.floor(N * (t - s)))
    vSb = np.sqrt(2 * N) * sbar_geom(m, nb, z1, z2, p) * (N / 2.0) ** (m / 2.0)
    assert abs(vSb - s_bar(mu, t - s, xe, ye)) < 0.5


def test_scaling_bridge_values():
    n, z = scaling_bridge(100, 0.0, 1.0)
    assert n == 0 and z == int(np.floor(-np.sqrt(200.0)))
    p = drift_params([0.0, 1.0], 10 ** 6)
    assert p.arr()[0] == 0.5
    # a/(1-a) at a = 1/2 + c3 mu/sqrt(N) expands as 1 + 4 c3 mu/sqrt(N) + O(1/N)
    a = p.arr()[1]
    c3 = 1.0 / (2 * np.sqrt(2))
    assert abs(a / (1 - a) - (1.0 + 4 * c3 / np.sqrt(1e6))) < 1e-5
    with pytest.raises(ParameterError):
        scaling_bridge(5, 1.0, 0.0)
