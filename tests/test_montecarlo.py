import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noncolliding import montecarlo
from noncolliding.exceptions import ParameterError
from noncolliding.kernels import BoundaryFunction
from noncolliding.montecarlo import (_matrix_running_supmax, _top_eig_tridiagonal, dkw_band,
                                     empirical_cdf, sample_arith_max, sample_blpp,
                                     sample_bridge_topmax, sample_dyson_max, sample_gue,
                                     sample_loe_max, sample_piflat)
from noncolliding.rng import RngStream

FLAT, NW = BoundaryFunction.flat(), BoundaryFunction.narrow_wedge()

# Outputs of the path samplers and of sample_piflat, in
# data/sampler_golden.json, as made before they moved to preallocated
# buffers (the piflat entries: before its dynamic program kept one row); the
# buffers keep every draw and every floating-point operation in order, so the
# outputs must match bit for bit.
PINNED = {
    "blpp flat m=2": lambda: sample_blpp(FLAT, [-0.5, -1.0], 2, 1.0, grid_step=1 / 64,
                                         stream=RngStream(31, 1), paths=5),
    "blpp narrow-wedge m=3": lambda: sample_blpp(NW, [0.3, -0.2, 0.1], 3, 1.5, grid_step=1.5 / 64,
                                                 stream=RngStream(31, 2), paths=5),
    "blpp flat default grid": lambda: sample_blpp(FLAT, [-0.5, -1.0], 2, 1.0,
                                                  stream=RngStream(31, 3), paths=3),
    "bridge n=1": lambda: sample_bridge_topmax(1, 1.0, grid_step=1 / 128,
                                               stream=RngStream(31, 4), paths=5),
    "bridge n=1 nu": lambda: sample_bridge_topmax(1, 0.6, nu=[0.4], grid_step=1 / 128,
                                                  stream=RngStream(31, 5), paths=5),
    "bridge n=2": lambda: sample_bridge_topmax(2, 0.5, grid_step=1 / 128,
                                               stream=RngStream(31, 6), paths=5),
    "bridge n=2 nu chunked": lambda: sample_bridge_topmax(
        2, 0.7, nu=[0.4, -0.3], grid_step=1 / 100, stream=RngStream(31, 7), paths=5, chunk=2),
    "bridge n=2 default grid": lambda: sample_bridge_topmax(2, 1.0, stream=RngStream(31, 8),
                                                            paths=3),
    "matrix running supmax": lambda: _matrix_running_supmax(np.array([-0.5, -1.0]), 1.0, 1 / 64,
                                                            RngStream(31, 9), 5),
    "piflat n=1": lambda: sample_piflat([1.5], stream=RngStream(31, 10), samples=200),
    "piflat n=3": lambda: sample_piflat([0.9, 1.4, 2.2], stream=RngStream(31, 11), samples=300),
    "piflat n=5": lambda: sample_piflat([0.5, 1.0, 1.3, 2.0, 0.7], stream=RngStream(31, 12),
                                        samples=250),
}


def test_dkw_band_formula():
    assert dkw_band(10 ** 6) == pytest.approx(math.sqrt(math.log(2 / 0.05) / 2e6), abs=1e-15)


def test_every_sampler_is_deterministic():
    st = RngStream(99, 3)
    nw = BoundaryFunction.narrow_wedge()
    runs = []
    for _ in range(2):
        runs.append((
            sample_gue(3, st),
            sample_piflat([1.0, 2.0], stream=st, samples=5),
            sample_loe_max(2, stream=st, samples=5),
            sample_blpp(nw, [0.0], 1, 1.0, grid_step=1 / 256, stream=st, paths=4),
            sample_bridge_topmax(2, 0.7, stream=st, paths=4, grid_step=1 / 256),
            sample_dyson_max([0.0, 0.0], [0.5, 1.0], stream=st, samples=3),
            sample_arith_max(4, 2.0, 0.0, stream=st, samples=3)[1],
        ))
    for a, b in zip(runs[0], runs[1]):
        assert np.array_equal(np.asarray(a), np.asarray(b))


def test_gue_convention_moments():
    H = sample_gue(2, RngStream(1), samples=200000)
    assert np.max(np.abs(H - np.conj(np.swapaxes(H, -1, -2)))) == 0.0
    assert abs(np.mean(H[:, 0, 0].real ** 2) - 1.0) < 0.01   # 3 sigma ~ 0.0095
    assert abs(np.mean(np.abs(H[:, 0, 1]) ** 2) - 1.0) < 0.0075


def test_arith_max_single_dim_is_normal():
    _, resc = sample_arith_max(1, 2.0, 0.5, stream=RngStream(2), samples=100000)
    # n=1: lambda_max = lam1 + N(0,1), rescaled = 2 N(0,1)
    grid = np.linspace(-4, 4, 17)
    emp = empirical_cdf(resc, grid)
    want = np.array([0.5 * (1 + math.erf(g / 2.0 / math.sqrt(2))) for g in grid])
    assert np.max(np.abs(emp - want)) < dkw_band(100000) + 1e-3


def test_blpp_narrow_wedge_is_brownian_endpoint():
    nw = BoundaryFunction.narrow_wedge()
    x = sample_blpp(nw, [0.0], 1, 1.0, grid_step=1 / 1024, stream=RngStream(3), paths=50000)
    grid = np.linspace(-2, 2, 21)
    want = np.array([0.5 * (1 + math.erf(g / math.sqrt(2))) for g in grid])
    assert np.max(np.abs(empirical_cdf(x, grid) - want)) < dkw_band(50000) + 0.004


def test_blpp_flat_reflected_drift_limit():
    # sup_t B(t) - beta t ~ Exponential(2 beta); grid max biased by ~0.58 sqrt(h)
    flat = BoundaryFunction.flat()
    x = sample_blpp(flat, [-1.0], 1, 25.0, grid_step=25.0 / 16384,
                    stream=RngStream(4), paths=30000)
    grid = np.linspace(0.5, 3.0, 15)
    want = 1 - np.exp(-2 * grid)
    assert np.max(np.abs(empirical_cdf(x, grid) - want)) < dkw_band(30000) + 0.035


def test_blpp_monotone_in_rows():
    st = RngStream(5)
    nw = BoundaryFunction.narrow_wedge()
    a = sample_blpp(nw, [0.0, 0.0], 2, 1.0, grid_step=1 / 512, stream=st, paths=2000)
    b = sample_blpp(nw, [0.0], 1, 1.0, grid_step=1 / 512, stream=st, paths=2000)
    assert a.mean() > b.mean()  # adding a row never decreases the passage value


def test_piflat_enumeration_oracle_and_law():
    # n = 3: DP over the triangle equals brute-force over the 4 lattice paths
    beta = [0.9, 1.4, 2.2]
    st = RngStream(6)
    gen = st.generator()
    samples = 1000
    draws = {}
    for i in range(1, 4):
        for j in range(1, 5 - i):
            rate = beta[i - 1] + beta[3 - j]
            draws[(i, j)] = gen.exponential(1.0 / rate, size=samples)
    paths = [[(1, 1), (2, 1), (3, 1)], [(1, 1), (2, 1), (2, 2)],
             [(1, 1), (1, 2), (2, 2)], [(1, 1), (1, 2), (1, 3)]]
    brute = np.max([sum(draws[c] for c in path) for path in paths], axis=0)
    dp = sample_piflat(beta, stream=st, samples=samples)  # fresh draws, same law
    assert len(paths) == 4
    # exact equality requires replaying the same draws through the DP:
    G = {}
    for i in range(1, 4):
        for j in range(1, 5 - i):
            best = np.zeros(samples)
            if (i - 1, j) in G:
                best = np.maximum(best, G[(i - 1, j)])
            if (i, j - 1) in G:
                best = np.maximum(best, G[(i, j - 1)])
            G[(i, j)] = best + draws[(i, j)]
    dp_replay = np.max([G[(i, 4 - i)] for i in range(1, 4)], axis=0)
    assert np.allclose(dp_replay, brute, atol=1e-12)
    assert abs(dp.mean() - brute.mean()) < 4 * brute.std() / math.sqrt(samples)


def test_piflat_single_rate_mean():
    x = sample_piflat([2.0], stream=RngStream(7), samples=100000)
    assert abs(x.mean() - 0.25) < 3 * 0.25 / math.sqrt(100000)


def test_loe_positivity_and_chisq():
    lam = sample_loe_max(1, stream=RngStream(8), samples=50000)
    assert np.all(lam >= 0)
    grid = np.linspace(0.2, 9.0, 25)
    assert np.max(np.abs(empirical_cdf(lam, grid) - (1 - np.exp(-grid / 2)))) \
        < dkw_band(50000) + 1e-3


def test_dyson_max_increment_variance_and_drift():
    times = [0.5, 1.25]
    out = sample_dyson_max(np.zeros(1), times, stream=RngStream(9), samples=200000)
    inc = out[:, 1] - out[:, 0]
    assert abs(np.var(inc) - 0.75) < 3 * 0.75 * math.sqrt(2.0 / 200000)
    # 1x1 check of the drifted identity: H(t) + t nu ~ N(t nu, t)
    t, nu1 = 0.8, 0.7
    lam = sample_dyson_max([t * nu1], [t], stream=RngStream(10), samples=100000)[:, 0]
    assert abs(lam.mean() - t * nu1) < 3 * math.sqrt(t / 100000)
    assert abs(np.var(lam) - t) < 3 * t * math.sqrt(2.0 / 100000)


def test_bridge_topmax_reflection_law():
    m = sample_bridge_topmax(1, 1.0, stream=RngStream(11), paths=40000, grid_step=1 / 4096)
    grid = np.linspace(0.25, 2.2, 20)
    want = 1 - np.exp(-2 * grid ** 2)
    assert np.max(np.abs(empirical_cdf(m, grid) - want)) < dkw_band(40000) + 0.012


def _bridge_topmax_every_other_point(seed, paths):
    """The n = 2, s = 1 maxima of sample_bridge_topmax on the 1/2048 grid, read at every other
    point: the same normals, drawn in the same order and chunks, on the 1/1024 grid."""
    ts = montecarlo._bridge_grid(1.0, 1 / 2048)
    dts = np.diff(np.concatenate([[0.0], ts]))
    gen = RngStream(seed).generator()

    def draw(x, k):
        sc = 1.0 if k < 2 else 0.5
        path = gen.standard_normal((len(x), len(ts)))
        path *= np.sqrt(dts * sc)
        np.cumsum(path, axis=1, out=path)
        tail = gen.standard_normal((len(x), 1)) * np.sqrt(max(1.0 - ts[-1], 0.0) * sc)
        path -= ts * (path[:, -1:] + tail)
        x[:] = path[:, 1::2]

    chunk = min(paths, int(1.2e7 / len(ts)))
    return montecarlo._hermitian_path_max(draw, 2, paths, len(ts) // 2, chunk, 0.0)


def test_bridge_topmax_grid_stability():
    # both maxima from one path, the 1/1024 grid being every other point of the
    # 1/2048 one: the statistic measures the grid effect, not sampling noise
    fine = sample_bridge_topmax(2, 1.0, stream=RngStream(12), paths=20000, grid_step=1 / 2048)
    coarse = _bridge_topmax_every_other_point(12, 20000)
    assert np.all(coarse <= fine)  # the same paths, read on fewer points
    assert abs(np.quantile(coarse, 0.5) - np.quantile(fine, 0.5)) < 0.01


def test_sampler_validation():
    with pytest.raises(ParameterError):
        sample_piflat([1.0, -1.0])
    with pytest.raises(ParameterError):
        sample_bridge_topmax(2, 1.5)
    with pytest.raises(ParameterError):
        sample_bridge_topmax(2, 0.5, nu=[0.1])
    with pytest.raises(ParameterError):
        sample_dyson_max([0.0], [1.0, 0.5])
    with pytest.raises(ParameterError, match="one drift per row"):
        sample_blpp(FLAT, [-0.5, -1.0, 3.0], 2, 1.0)


def test_samplers_reject_empty_systems_and_nonpositive_times():
    with pytest.raises(ParameterError):
        sample_bridge_topmax(0, 0.5)
    with pytest.raises(ParameterError):
        sample_loe_max(0)
    for t in (0.0, -1.0):
        with pytest.raises(ParameterError):
            sample_blpp(NW, [0.0], 1, t)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_path_samplers_match_pinned_outputs(name):
    pinned = json.loads((Path(__file__).parent / "data" / "sampler_golden.json").read_text())
    assert np.array_equal(np.atleast_1d(PINNED[name]()), np.array(pinned[name]))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["bridge", "matrix"])
def test_2x2_paths_hold_three_path_arrays(name):
    # one chunk of b = 500 paths on J = 1024 steps: three (b, J) arrays and
    # less than a third of one more for the pin's blocks and the grid vectors
    b, J = 500, 1024
    call = {"bridge": lambda: sample_bridge_topmax(2, 1.0, grid_step=1 / J,
                                                   stream=RngStream(17), paths=b),
            "matrix": lambda: _matrix_running_supmax(np.array([-0.5, -1.0]), 1.0, 1 / J,
                                                     RngStream(17), b)}[name]
    assert _peak_bytes(call) <= 3.3 * b * J * 8


@pytest.mark.parametrize("n", [1, 3, 5])
def test_piflat_holds_one_row_of_cells(n):
    samples = 20000
    peak = _peak_bytes(lambda: sample_piflat(np.linspace(0.6, 2.0, n), stream=RngStream(18),
                                             samples=samples))
    assert peak <= (n + 3) * samples * 8


def test_blpp_grid_step_not_dividing_t_ends_at_t():
    # m = 1 narrow wedge is B(t) ~ N(0, t); step 0.4 rounds to two steps of 0.5
    x = sample_blpp(NW, [0.0], 1, 1.0, grid_step=0.4, stream=RngStream(13), paths=20000)
    assert abs(np.var(x) - 1.0) < 3 * math.sqrt(2.0 / 20000)


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("zero_offdiagonal", [False, True])
def test_top_eig_tridiagonal_matches_eigvalsh(n, zero_offdiagonal):
    gen = np.random.default_rng(n)
    d, e = gen.standard_normal((n, 16)), gen.standard_normal((n - 1, 16))
    if zero_offdiagonal:
        e[::2] = 0.0
    got = _top_eig_tridiagonal(d, e)
    for j in range(16):
        lam = np.linalg.eigvalsh(np.diag(d[:, j]) + np.diag(e[:, j], 1) + np.diag(e[:, j], -1))
        assert abs(got[j] - lam[-1]) <= 1e-12 * np.max(np.abs(lam))


def test_dyson_max_tridiagonal_path_matches_full_matrix_law():
    # one time and constant nu take the tridiagonal model; column 0 of a
    # two-time draw is the full-matrix lambda_max at the same time
    n, t, nu0, N = 6, 0.7, 0.3, 20000
    tri = sample_dyson_max(np.full(n, nu0), [t], stream=RngStream(14), samples=N)[:, 0]
    full = sample_dyson_max(np.full(n, nu0), [t, 1.0], stream=RngStream(15), samples=N)[:, 0]
    grid = np.sort(np.concatenate([tri, full]))
    ks = np.max(np.abs(empirical_cdf(tri, grid) - empirical_cdf(full, grid)))
    assert ks < 1.63 * math.sqrt(2.0 / N)  # two-sample KS critical value at 1%


@pytest.mark.parametrize("nu,times", [([0.2, 0.2, 0.2], [1.0]), ([0.0, 0.1, 0.2], [1.0]),
                                      ([0.2, 0.2, 0.2], [0.5, 1.0])])
def test_dyson_max_shapes(nu, times):
    assert sample_dyson_max(nu, times, stream=RngStream(16)).shape == (len(times),)
    assert sample_dyson_max(nu, times, stream=RngStream(16), samples=3).shape == (3, len(times))
