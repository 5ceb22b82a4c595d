"""Named determinant-vs-oracle comparison experiments.

Each experiment reproduces one acceptance check: a determinant family
against an exact identity, an independent engine, or a Monte Carlo
sampler with a Dvoretzky-Kiefer-Wolfowitz band plus any stated
discretization allowance.  ``noncolliding compare --experiment NAME``
runs one of them and emits its rows plus a machine-readable verdict.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .defaults import DEFAULTS
from .discrete import (GeomParams, drift_params, q_geom, s_geom, sbar_geom,
                       sample_geom_lpp, scaling_bridge, transition_prob, to_tilde, w_tilde)
from .distributions import (CdfQuery, airy_fdd, blpp_block, cdf_blpp, cdf_bridge_allmax,
                            cdf_bridge_runningmax, cdf_dyson_edge, cdf_loe_max, cdf_piflat,
                            evaluate_curve, loe_block, piflat_block)
from .fredholm import apply_conjugation, det_nystrom, det_ratio, det_series
from .kernels import BoundaryFunction, s_bar, s_minus
from .montecarlo import (_hermitian_noise, _matrix_running_supmax, dkw_band, empirical_cdf,
                         sample_arith_max, sample_blpp, sample_bridge_topmax, sample_dyson_max,
                         sample_loe_max, sample_piflat)
from .rng import RngStream
from .special import heat_kernel


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    discrepancy: float
    allowance: float
    detail: str = ""
    rows: list = field(default_factory=list)
    seconds: float = 0.0

    def verdict(self):
        return "%s,%s,%.6g,%.6g" % ("PASS" if self.passed else "FAIL",
                                    self.name, self.discrepancy, self.allowance)


def _result(name, t0, disc, allow, rows, detail=""):
    return ExperimentResult(name, bool(disc <= allow), float(disc), float(allow),
                            detail, rows, time.time() - t0)


def _seed(seed):
    """The given seed, or the default one when none is given (0 is a seed)."""
    return DEFAULTS["seed"] if seed is None else seed


def _phi(a):
    return 0.5 * (1.0 + math.erf(a / math.sqrt(2.0)))


def _curve_values(family, grid, **params):
    """A family's values on a threshold grid, from one build (see ``evaluate_curve``)."""
    return np.array(evaluate_curve(CdfQuery(family, params), grid))


def _compare(cases):
    """The rows (label, point, reference, value, |value - reference|) of cases
    (label, point, reference, value), and their largest deviation: 0 for no cases."""
    rows = [(label, x, ref, got, abs(got - ref)) for label, x, ref, got in cases]
    return rows, max([0.0] + [row[-1] for row in rows])


def _vs_samples(label, samples, grid, reference):
    """Cases (label, g, reference at g, empirical CDF of samples at g) for each g of grid."""
    return zip([label] * len(grid), grid, reference, empirical_cdf(samples, grid))


def exponential_identity(seed=None):
    """Rate kernel at n = 1 against the exponential law 1 - e^{-2 beta a}."""
    t0 = time.time()
    grid = np.arange(0.1, 3.001, 0.1)
    rows, disc = _compare(
        ("beta=%g" % beta, a, 1.0 - math.exp(-2.0 * beta * a), got) for beta in (0.5, 1.0, 2.0)
        for a, got in zip(grid, _curve_values("piflat", grid, beta=[beta])))
    return _result("exponential-identity", t0, disc, 1e-8, rows)


def loe_chisq(seed=None):
    """n = 1 Gram-ensemble law against the chi-square(2) CDF."""
    t0 = time.time()
    grid = np.arange(0.1, 3.001, 0.1)
    rows, disc = _compare(("n=1", a, 1.0 - math.exp(-2.0 * a), got)
                          for a, got in zip(grid, _curve_values("loe", grid, n=1)))
    return _result("loe-chisq", t0, disc, 1e-8, rows)


def three_way(seed=None):
    """Rate-kernel determinant vs the determinant ratio, plus the bridge map."""
    t0 = time.time()
    nu = np.array([-0.5, 0.0, 0.3])
    rows, disc = _compare(
        [("piflat n=%d" % len(beta), a, det_ratio(beta, a), cdf_piflat(beta, a))
         for beta in ([0.7, 1.3], [0.5, 1.0, 1.7]) for a in (0.5, 1.0, 2.0)]
        + [("bridge n=3", r, det_ratio(r - nu, r), cdf_bridge_allmax(nu, r)) for r in (1.0, 2.0)])
    return _result("three-way", t0, disc, 1e-6, rows)


def _cdf_vs_samples(name, t0, samples, det, grid, allowance, label=""):
    rows, disc = _compare(_vs_samples(label, samples, grid, det))
    return _result(name, t0, disc, allowance, rows,
                   detail="n_samples=%d" % len(np.atleast_1d(samples)))


def piflat_mc(seed=None, n_samples=10 ** 6, label="piflat-n3"):
    """Point-to-line law, n = 3 rates (1, 1.5, 2), against 1e6 samples."""
    t0 = time.time()
    beta = [1.0, 1.5, 2.0]
    stream = RngStream(_seed(seed), 41)
    x = sample_piflat(beta, stream=stream, samples=n_samples)
    grid = np.quantile(x, np.linspace(0.02, 0.98, 33))
    return _cdf_vs_samples(label, t0, x, _curve_values("piflat", grid, beta=beta), grid,
                           dkw_band(n_samples), "n=3")


def piflat_n2(seed=None):
    """Smaller two-rate variant used as the quick smoke comparison."""
    t0 = time.time()
    beta = [1.0, 2.0]
    stream = RngStream(_seed(seed), 42)
    n = 200000
    x = sample_piflat(beta, stream=stream, samples=n)
    grid = np.quantile(x, np.linspace(0.03, 0.97, 25))
    return _cdf_vs_samples("piflat-n2", t0, x, _curve_values("piflat", grid, beta=beta), grid,
                           dkw_band(n), "n=2")


def loe_mc(seed=None, n_samples=10 ** 5):
    """Gram-ensemble largest eigenvalue at n = 2 and 5 vs 1e5 samples each."""
    t0 = time.time()
    cases = []
    for k, n in enumerate((2, 5)):
        stream = RngStream(_seed(seed), 51 + k)
        lam = sample_loe_max(n, stream=stream, samples=n_samples)
        grid = np.quantile(lam, np.linspace(0.02, 0.98, 25))
        cases += _vs_samples("n=%d" % n, lam, grid, _curve_values("loe", grid / 4.0, n=n))
    rows, disc = _compare(cases)
    return _result("loe-mc", t0, disc, dkw_band(n_samples), rows)


def bridge_nr(seed=None, paths=10 ** 5):
    """Bridge/Gram chain: exact determinant identity plus the sampled maximum."""
    t0 = time.time()
    rows, disc_exact = _compare(
        ("identity n=%d" % n, r, cdf_loe_max(n, r * r), cdf_bridge_allmax(np.zeros(n), r))
        for n in (2, 4) for r in (0.8, 1.3))
    if disc_exact > 1e-6:
        return _result("bridge-nr", t0, disc_exact, 1e-6, rows, "identity stage failed")
    stream = RngStream(_seed(seed), 61)
    m = sample_bridge_topmax(2, 1.0, stream=stream, paths=paths, grid_step=1.0 / 8192)
    grid = np.quantile(m ** 2, np.linspace(0.02, 0.98, 25))
    mc_rows, disc = _compare(_vs_samples("mc-squared", m ** 2, grid,
                                         _curve_values("loe", grid, n=2)))
    return _result("bridge-nr", t0, disc, dkw_band(paths) + 0.01, rows + mc_rows)


def bridge_runmax(seed=None, paths=10 ** 5):
    """Running maximum of the top bridge at s = 1/2 vs the matrix-bridge MC."""
    t0 = time.time()
    stream = RngStream(_seed(seed), 71)
    m = sample_bridge_topmax(2, 0.5, stream=stream, paths=paths, grid_step=1.0 / 8192)
    rows, disc = _compare(("n=2 s=0.5", a, cdf_bridge_runningmax(2, 0.5, a), float(np.mean(m <= a)))
                          for a in (0.8, 1.2, 1.6))
    return _result("bridge-runmax", t0, disc, 0.02, rows)


def narrow_wedge(seed=None, n_samples=10 ** 6):
    """Single-time narrow wedge: exact normal law at m=1; GUE 2x2 MC at m=2."""
    t0 = time.time()
    nw = BoundaryFunction.narrow_wedge()
    rows, disc1 = _compare(("m=1 normal", a, _phi(a), cdf_blpp(nw, [0.0], [1.0], [a]))
                           for a in (-1.0, 0.0, 1.0))
    if disc1 > 1e-6:
        return _result("narrow-wedge", t0, disc1, 1e-6, rows, "normal stage failed")
    H = _hermitian_noise(RngStream(_seed(seed), 81).generator(), n_samples, 2)
    h11, h22, h12 = H[:, 0, 0].real, H[:, 1, 1].real, H[:, 0, 1]
    lam = 0.5 * (h11 + h22) + np.sqrt(0.25 * (h11 - h22) ** 2 + np.abs(h12) ** 2)
    grid = np.quantile(lam, np.linspace(0.02, 0.98, 21))
    det = np.array([cdf_blpp(nw, [0.0, 0.0], [1.0], [a]) for a in grid])
    mc_rows, disc = _compare(_vs_samples("m=2 gue", lam, grid, det))
    return _result("narrow-wedge", t0, disc, dkw_band(n_samples), rows + mc_rows)


def burke_invariance(seed=None):
    """Drift-permutation invariance of the BLPP determinant."""
    t0 = time.time()
    nw = BoundaryFunction.narrow_wedge()
    mu = [0.4, -0.7, 0.1]
    perms = ([0.1, 0.4, -0.7], [-0.7, 0.1, 0.4])
    base = cdf_blpp(nw, mu, [0.7, 1.2], [0.5, 0.9])
    flat = BoundaryFunction.flat()
    rows, disc = _compare(
        [("base", 0, base, base)]
        + [("perm%d" % k, 0, base, cdf_blpp(nw, p, [0.7, 1.2], [0.5, 0.9]))
           for k, p in enumerate(perms)]
        + [("flat-perm", 0, cdf_blpp(flat, [-0.5, -1.1], [1.0], [0.8]),
            cdf_blpp(flat, [-1.1, -0.5], [1.0], [0.8]))])
    return _result("burke-invariance", t0, disc, 1e-10, rows)


def conjugation_invariance(seed=None):
    """Conjugating the assembled block kernel leaves the determinant unchanged."""
    t0 = time.time()
    nw = BoundaryFunction.narrow_wedge()
    K = blpp_block(nw, [0.3, -0.4], [0.6, 1.1], [0.4, 0.7])
    base = det_nystrom(K, refine=False).value
    cases = []
    for k, kappa in enumerate((0.35, 0.8)):
        Kc = apply_conjugation(K, lambda i, x, kp=kappa: np.exp(-(kp + 0.1 * i) * np.abs(x)))
        cases.append(("exp-conj%d" % k, kappa, base, det_nystrom(Kc, refine=False).value))
    rows, disc = _compare(cases)
    return _result("conjugation-invariance", t0, disc, 1e-10, rows)


def engine_cross(seed=None):
    """Series engine at order 8 against the Nystrom engine."""
    t0 = time.time()
    kernels = [("loe n=2", a, loe_block(2, a)) for a in (0.3, 0.8, 1.5)]
    kernels += [("piflat n=2", a, piflat_block([0.8, 1.6], a)) for a in (0.3, 0.8, 1.5)]
    rows, disc = _compare((label, a, det_nystrom(K, refine=False).value,
                           det_series(K, max_order=8).value) for label, a, K in kernels)
    return _result("engine-cross", t0, disc, 1e-6, rows)


def _enumerate_geom_law(params, x_init, m, tail=1e-12):
    """Exhaustive law of G(m) for N = 2, m = 2 by truncated enumeration."""
    a = params.arr()
    cuts = [int(np.ceil(np.log(tail) / np.log(ai))) + 1 for ai in a for _ in range(2)]
    law = {}
    r1, r2, r3, r4 = [np.arange(c) for c in cuts]
    # omega_{i,j}: w1 = (1,1), w2 = (1,2), w3 = (2,1), w4 = (2,2)
    p1 = (1 - a[0]) * a[0] ** r1
    p2 = (1 - a[0]) * a[0] ** r2
    p3 = (1 - a[1]) * a[1] ** r3
    p4 = (1 - a[1]) * a[1] ** r4
    x1, x2 = int(x_init[0]), int(x_init[1])
    W1 = r1[:, None, None, None]
    W2 = r2[None, :, None, None]
    W3 = r3[None, None, :, None]
    W4 = r4[None, None, None, :]
    G11 = np.maximum(x1, 0) + W1
    G12 = np.maximum(x2, G11) + W2
    G21 = np.maximum(G11, 0) + W3
    G22 = np.maximum(G12, G21) + W4
    P = (p1[:, None, None, None] * p2[None, :, None, None]
         * p3[None, None, :, None] * p4[None, None, None, :])
    y1 = np.broadcast_to(G21, G22.shape).ravel()
    y2 = G22.ravel()
    code = y1 * 4096 + y2
    mass = np.bincount(code, weights=np.broadcast_to(P, G22.shape).ravel())
    for c in np.nonzero(mass)[0]:
        law[(int(c // 4096), int(c % 4096))] = float(mass[c])
    return law


def geometric_exact(seed=None, n_mc=10 ** 6):
    """Transition determinant vs exhaustive enumeration, reflection, and MC."""
    t0 = time.time()
    params = GeomParams((0.3, 0.5))
    x = [0, 1]
    law = _enumerate_geom_law(params, x, 2)
    pairs = sorted(law, key=law.get, reverse=True)[:60]
    rows, disc = _compare(("enum", str(y), law[y], transition_prob(x, list(y), 2, params))
                          for y in pairs)
    if disc > 1e-8:
        return _result("geometric-exact", t0, disc, 1e-8, rows, "enumeration stage")
    # reflection identity
    refl_disc = 0.0
    for y in pairs[:12]:
        N = 2
        xt, yt = to_tilde(x), to_tilde(list(y))
        M = np.empty((N, N))
        for i in range(N):
            for j in range(N):
                M[i, j] = w_tilde(i - j, int(yt[N - 1 - i] - xt[N - 1 - j]), params)
        refl = float(np.linalg.det(M))
        refl_disc = max(refl_disc, abs(refl - transition_prob(x, list(y), 2, params)))
    rows.append(("reflection", "", 0.0, refl_disc, refl_disc))
    if refl_disc > 1e-10:
        return _result("geometric-exact", t0, refl_disc, 1e-10, rows, "reflection stage")
    # Monte Carlo law at 3 sigma
    G = sample_geom_lpp(params, x, 2, RngStream(_seed(seed), 91), samples=n_mc)
    mc_disc_sigmas = 0.0
    for y in pairs[:15]:
        p = law[y]
        hits = float(np.mean((G[:, 0] == y[0]) & (G[:, 1] == y[1])))
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_mc)
        mc_disc_sigmas = max(mc_disc_sigmas, abs(hits - p) / sigma)
        rows.append(("mc", str(y), p, hits, abs(hits - p)))
    return _result("geometric-exact", t0, mc_disc_sigmas, 3.0, rows,
                   detail="final stage in sigma units")


def limit_transition(seed=None):
    """Rescaled discrete kernels approach their Brownian limits as N grows."""
    t0 = time.time()
    mu = [0.5, -0.3]
    s, t = 0.2, 0.7
    m = len(mu)
    points = [(0.3, -0.2), (0.0, 0.5), (-0.4, 0.1), (0.8, 0.9), (-0.6, -0.5)]
    rows = []
    errs = {"Q": [], "S": [], "Sbar": []}
    for N in (100, 1000, 10000):
        p = drift_params(mu, N)
        eQ = eS = eSb = 0.0
        for (xx, yy) in points:
            n1, z1 = scaling_bridge(N, s, xx)
            n2, z2 = scaling_bridge(N, t, yy)
            xe = -(z1 + 2 * N * s) / np.sqrt(2 * N)
            ye = -(z2 + 2 * N * t) / np.sqrt(2 * N)
            eQ = max(eQ, abs(np.sqrt(2 * N) * q_geom(n2 - n1, z1, z2, p)
                             - heat_kernel(t - s, xe, ye)))
            _, z2s = scaling_bridge(N, 0.0, yy)
            ys_e = -z2s / np.sqrt(2 * N)
            vS = np.sqrt(2 * N) * s_geom(m, n1, z1, z2s, p) / (N / 2.0) ** (m / 2.0)
            eS = max(eS, abs(vS - s_minus(mu, s, xe, ys_e)))
            nb = int(np.floor(N * (t - s)))
            vSb = np.sqrt(2 * N) * sbar_geom(m, nb, z1, z2, p) * (N / 2.0) ** (m / 2.0)
            eSb = max(eSb, abs(vSb - s_bar(mu, t - s, xe, ye)))
        for key, e in (("Q", eQ), ("S", eS), ("Sbar", eSb)):
            errs[key].append(e)
            rows.append((key, N, 0.0, e, e))
    decreasing = all(errs[k][0] > errs[k][1] > errs[k][2] for k in errs)
    disc = 0.0 if decreasing else 1.0
    return _result("limit-transition", t0, disc, 0.5, rows,
                   detail="errors must strictly decrease over N = 1e2, 1e3, 1e4")


def arith_ks(seed=None, n_samples=10 ** 4, n_dim=256):
    """Arithmetic-spectrum edge law vs finite-n sampling, KS <= 0.05."""
    t0 = time.time()
    stream = RngStream(_seed(seed), 101)
    _, resc = sample_arith_max(n_dim, 2.0, 0.0, stream=stream, samples=n_samples)
    grid = np.quantile(resc, np.linspace(0.03, 0.97, 29))
    rows, ks = _compare(_vs_samples("ks", resc, grid, _curve_values("arith", grid, delta=2.0)))
    # CDF-candidate diagnostics on a 20-point grid
    diag = _curve_values("arith", np.linspace(-3.5, 8.0, 20), delta=2.0)
    ok = np.all(np.diff(diag) > -1e-9) and np.all(diag > -1e-6) and np.all(diag < 1 + 1e-6)
    rows.append(("diagnostics", 0, 1.0, float(ok), 0.0))
    disc = ks if ok else 1.0
    return _result("arith-ks", t0, disc, 0.05, rows,
                   detail="n=%d, %d samples" % (n_dim, n_samples))


def dyson_edge(seed=None, n_samples=10 ** 4):
    """Edge-rescaled eigenvalue law: MC at n=200 vs Airy, determinant at n=50."""
    t0 = time.time()
    n = 200
    es_b, es_a, es_d = 1.0, 2.0, 1.0  # nu = 0 edge constants
    stream = RngStream(_seed(seed), 111)
    lam = sample_dyson_max(np.zeros(n), [1.0 / n], stream=stream, samples=n_samples)[:, 0]
    resc = (lam - es_a) * n ** (2.0 / 3.0) / es_d
    grid = np.quantile(resc, np.linspace(0.04, 0.96, 21))
    rows, ks = _compare(_vs_samples("mc-n200", resc, grid,
                                    _curve_values("airy", [[g] for g in grid], times=[0.0])))
    if ks > 0.08:
        return _result("dyson-edge", t0, ks, 0.08, rows, "KS stage")
    finite_rows, disc2 = _compare(("det-n50", xi, airy_fdd([0.0], [xi]),
                                   cdf_dyson_edge(np.zeros(50), [0.0], [xi]))
                                  for xi in (-1.0, 0.0, 1.0))
    rows += finite_rows
    if disc2 > 0.05:
        return _result("dyson-edge", t0, disc2, 0.05, rows, "finite-n stage")
    # two-time monotonicity in each threshold
    base = cdf_dyson_edge(np.zeros(50), [0.0, 0.4], [0.3, 0.3])
    lo1 = cdf_dyson_edge(np.zeros(50), [0.0, 0.4], [-0.3, 0.3])
    lo2 = cdf_dyson_edge(np.zeros(50), [0.0, 0.4], [0.3, -0.3])
    mono = (lo1 < base) and (lo2 < base)
    rows.append(("two-time-monotone", 0, 1.0, float(mono), 0.0))
    return _result("dyson-edge", t0, ks if mono else 1.0, 0.08, rows)


def eigen_identity(seed=None, paths=10 ** 5):
    """Running max of the drifted matrix path vs flat-boundary BLPP sampling."""
    t0 = time.time()
    mu = np.array([-0.5, -1.0])
    t = 1.0
    stream = RngStream(_seed(seed), 121)
    sup = _matrix_running_supmax(mu, t, 1.0 / 4096, stream, paths)
    blpp = sample_blpp(BoundaryFunction.flat(), mu, 2, t, grid_step=t / 4096,
                       stream=stream.substream(1), paths=paths)
    grid = np.quantile(np.concatenate([sup, blpp]), np.linspace(0.02, 0.98, 25))
    rows, disc = _compare(_vs_samples("cdf", blpp, grid, empirical_cdf(sup, grid)))
    return _result("eigen-identity", t0, disc, 2 * dkw_band(paths) + 0.008, rows)


EXPERIMENTS = {
    "exponential-identity": exponential_identity,
    "loe-chisq": loe_chisq,
    "three-way": three_way,
    "piflat-n3": piflat_mc,
    "piflat-n2": piflat_n2,
    "loe-mc": loe_mc,
    "bridge-nr": bridge_nr,
    "bridge-runmax": bridge_runmax,
    "narrow-wedge": narrow_wedge,
    "burke-invariance": burke_invariance,
    "conjugation-invariance": conjugation_invariance,
    "engine-cross": engine_cross,
    "geometric-exact": geometric_exact,
    "limit-transition": limit_transition,
    "arith-ks": arith_ks,
    "dyson-edge": dyson_edge,
    "eigen-identity": eigen_identity,
}


def run_experiment(name, seed=None):
    if name not in EXPERIMENTS:
        raise KeyError("unknown experiment %r; known: %s"
                       % (name, ", ".join(sorted(EXPERIMENTS))))
    return EXPERIMENTS[name](seed=seed)
