"""The benchmark's three workloads.

Each workload is a closed loop with one serial caller: a pass makes a fixed
list of public calls, one after the other, and each call's output is
checked after the pass (outside the timed region).  Inputs come only from
the workload seed.  Functions are looked up on their module at call time,
so a traced pass goes through the tracer's wrappers.

- ``curves``: whole threshold grids through the command line in-process;
  exercises the CLI thread pool and CSV output, and reuses one family's
  set-up across many thresholds.  A batched-curve or contour-reuse change
  shows its gain here.
- ``point-queries``: ~150 single values through the public CDF functions,
  ``det_ratio`` and ``discrete.transition_prob``, no two sharing
  parameters.  Same determinant layers as ``curves`` with no reuse and no
  CLI, so a per-curve cache predicts no change here.
- ``samplers``: fixed-count draws from every sampler.  Almost no Fredholm
  work in the timed pass (the reference CDFs of the checks are computed
  once per run, untimed), so determinant-side changes predict no change.
"""

import contextlib
import io
import math
import sys
import time

import numpy as np

import noncolliding as nc
from noncolliding import cli, discrete

import checks


class Call:
    """One public call: ``module.attr(*args, **kwargs)``, resolved when made."""

    def __init__(self, label, module, attr, *args, check=None, **kwargs):
        self.label = label
        self.module = module
        self.attr = attr
        self.args = args
        self.kwargs = kwargs
        self.check = check

    def __call__(self):
        return getattr(self.module, self.attr)(*self.args, **self.kwargs)


class Outcome:
    __slots__ = ("call", "seconds", "result", "error")

    def __init__(self, call, seconds, result, error):
        self.call, self.seconds, self.result, self.error = call, seconds, result, error


def run_calls(calls):
    outcomes = []
    for call in calls:
        t = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a call that raises is a failed check, not a crash
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        outcomes.append(Outcome(call, time.perf_counter() - t, result, error))
    return outcomes


def _fmt(values):
    return ",".join("%.10g" % v for v in values)


def rates(r, n, lo, hi):
    """n increasing rates in [lo, hi], one per stratum, so none nearly coincide.

    The determinant ratio divides by a Vandermonde determinant, which loses
    digits as two rates approach each other.
    """
    width = (hi - lo) / n
    return [lo + width * (k + r.uniform(0.15, 0.85)) for k in range(n)]


def _grid(start, stop, step):
    """The grid the CLI builds from start:stop:step."""
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(n)]


class Workload:
    """Inputs drawn from ``seed``; ``tiny`` shrinks every size for the self-check."""

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.calls = self.build()
        self._refs = {}

    def run_pass(self):
        return run_calls(self.calls)

    def reference(self, key, compute):
        """Reference values are computed once per run, outside the timed passes."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check_outcome(self, outcome, tally):
        return tally.check(outcome.error is None,
                           "%s raised %s" % (outcome.call.label, outcome.error))


def blpp_marginals(boundary, mu, times, thresholds):
    """One-time laws P(L(t_i) <= a_i); a joint law lies below each of them."""
    return [nc.cdf_blpp(boundary, mu, [t], [a]) for t, a in zip(times, thresholds)]


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def cli_curve(argv):
    """Run ``noncolliding cdf`` in-process and return its CSV text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("noncolliding %s exited with %d" % (" ".join(argv), code))
    return buf.getvalue()


def parse_curve(text):
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    return np.array([[float(r[0]), float(r[1])] for r in rows[1:]]).reshape(-1, 2)


class Curves(Workload):
    name = "curves"

    def build(self):
        r = self.rng
        coarse = 4 if self.tiny else 1

        def shift():  # seeded start offset; keeps grid sizes, moves every threshold
            return round(float(r.uniform(0.0, 0.05)), 4)

        # rounded so that the values printed on the command line are exact
        mu = self.mu = np.round([r.uniform(-0.7, -0.3), r.uniform(-1.2, -0.8)], 4)
        nu = np.round(np.sort(r.uniform(-1.0, 0.0, 50)), 4)
        beta = self.beta = np.round(rates(r, 3, 0.8, 2.2), 4)
        specs = [
            # the 61-point Airy curve is the fixed ROADMAP anchor
            ("airy-1t", ["--family", "airy", "--times", "0"], (-4.0, 2.0, 0.1)),
            ("airy-2t", ["--family", "airy", "--times", "0,0.5"], (-3.0, 0.0, 0.5)),
            # starts at 1.5: below ~1 the two-time flat determinant exceeds 1
            # and its marginals (a defect of the kernel, see README)
            ("blpp-flat-2t", ["--family", "blpp-flat", "--mu=" + _fmt(mu), "--times", "1,2"],
             (1.5, 4.5, 0.25)),
            ("arith", ["--family", "arith", "--delta", "2"], (-3.0, 5.0, 0.25)),
            ("dyson-edge-n50", ["--family", "dyson-edge", "--nu=" + _fmt(nu), "--times", "0"],
             (-3.0, 2.0, 0.25)),
            ("piflat-n3", ["--family", "piflat", "--beta", _fmt(beta)], (0.0, 4.0, 0.1)),
        ]
        calls = []
        for label, argv, (start, stop, step) in specs:
            if label != "airy-1t":
                off = shift()
                start, stop = start + off, stop + off
            step *= coarse
            # '--a=...' because argparse reads a leading '-' in a separate
            # argument as an option
            curve = ["cdf"] + argv + ["--a=%.10g:%.10g:%.10g" % (start, stop, step)]
            first = ["cdf"] + argv + ["--a=%.10g" % start]
            calls.append(Call(label, sys.modules[__name__], "cli_curve", curve,
                              check={"grid": _grid(start, stop, step), "first": first}))
        return calls

    def cold_calls(self):
        for call in self.calls:
            cli_curve(call.check["first"])

    def values(self, outcomes):
        return sum(len(o.call.check["grid"]) for o in outcomes)

    def check(self, outcomes, tally):
        for o in outcomes:
            if not self.check_outcome(o, tally):
                continue
            label = o.call.label
            rows = parse_curve(o.result)
            grid = o.call.check["grid"]
            if not tally.check(len(rows) == len(grid), "%s: %d rows for %d thresholds"
                               % (label, len(rows), len(grid))):
                continue
            a, v = rows[:, 0], rows[:, 1]
            for k in range(len(v)):
                tally.value("%s a=%g" % (label, a[k]), v[k])
            tally.curve(label, v)
            if label == "airy-1t":
                f2 = self.reference("f2:" + label, lambda: [checks.tracy_widom_f2(x) for x in a])
                for x, got, want in zip(a, v, f2):
                    tally.close("%s a=%g" % (label, x), "airy 1-time vs Bornemann F2", got,
                                want, checks.CROSS_FORMULA_TOL)
            elif label == "airy-2t":
                f2 = self.reference("f2:" + label, lambda: [checks.tracy_widom_f2(x) for x in a])
                for x, got, want in zip(a, v, f2):
                    tally.check(got <= want + checks.RANGE_TOL,
                                "%s a=%g: joint law %r above the marginal F2 %r"
                                % (label, x, got, want))
            elif label == "blpp-flat-2t":
                flat = nc.BoundaryFunction.flat()
                marg = self.reference("marginals:" + label, lambda: [
                    min(blpp_marginals(flat, self.mu, [1.0, 2.0], [x, x])) for x in a])
                for x, got, want in zip(a, v, marg):
                    tally.check(got <= want + checks.RANGE_TOL,
                                "%s a=%g: joint law %r above its marginal %r"
                                % (label, x, got, want))
            elif label == "piflat-n3":
                ratio = self.reference("ratio:" + label,
                                       lambda: [nc.det_ratio(self.beta, x) for x in a])
                for x, got, want in zip(a, v, ratio):
                    tally.close("%s a=%g" % (label, x), "piflat vs det_ratio", got, want,
                                checks.CROSS_FORMULA_TOL)


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------

class PointQueries(Workload):
    name = "point-queries"

    def build(self):
        r = self.rng
        flat = nc.BoundaryFunction.flat()
        nw = nc.BoundaryFunction.narrow_wedge()

        # ROADMAP item-1 anchors, one per family
        calls = [
            Call("anchor piflat n=3", nc, "cdf_piflat", [1.0, 1.5, 2.0], 1.0,
                 check=("ratio", [1.0, 1.5, 2.0], 1.0)),
            Call("anchor arith delta=2", nc, "cdf_arithmetic_limit", 2.0, 0.0),
            Call("anchor blpp-flat 2 times", nc, "cdf_blpp", flat, [-0.5, -1.0], [1.0, 2.0],
                 [1.5, 2.0], check=("marginals", flat, [-0.5, -1.0], [1.0, 2.0], [1.5, 2.0])),
            Call("anchor dyson-edge n=50", nc, "cdf_dyson_edge", np.zeros(50), [0.0], [0.0]),
            Call("anchor airy 1 time", nc, "airy_fdd", [0.0], [-1.0], check=("f2", -1.0)),
            Call("anchor airy 2 times", nc, "airy_fdd", [0.0, 0.5], [-1.0, -0.5],
                 check=("f2max", [-1.0, -0.5])),
        ]
        # Sized so the median call falls inside the ~10 ms group (arith,
        # dyson-edge, one-time blpp-nw) and the 90th percentile inside the
        # ~70 ms two-time blpp-flat group, so the percentiles do not jump
        # between groups from seed to seed; Airy stays near a fifth of a pass.
        counts = {"piflat": 12, "loe": 12, "bridge": 10, "runmax": 10, "arith": 25,
                  "nw1": 10, "nw2": 5, "flat": 20, "dyson": 20, "airy": 3, "ratio": 12,
                  "transition": 12}
        if self.tiny:
            counts = {k: 1 for k in counts}
        seeded = []
        for k in range(counts["piflat"]):
            n = 1 + k % 4
            beta, a = rates(r, n, 0.5, 2.5), float(r.uniform(0.2, 3.0))
            want = ("exp", 1.0 - math.exp(-2.0 * beta[0] * a)) if n == 1 else ("ratio", beta, a)
            seeded.append(Call("piflat n=%d" % n, nc, "cdf_piflat", beta, a, check=want))
        for k in range(counts["loe"]):
            n, a = 1 + k % 5, float(r.uniform(0.2, 3.0))
            want = ("exp", 1.0 - math.exp(-2.0 * a)) if n == 1 else None
            seeded.append(Call("loe n=%d" % n, nc, "cdf_loe_max", n, a, check=want))
        for k in range(counts["bridge"]):
            n, radius = 2 + k % 3, float(r.uniform(0.6, 2.0))
            seeded.append(Call("bridge-allmax n=%d" % n, nc, "cdf_bridge_allmax", np.zeros(n),
                               radius, check=("loe", n, radius * radius)))
        for k in range(counts["runmax"]):
            n = 1 + k % 3
            seeded.append(Call("bridge-runmax n=%d" % n, nc, "cdf_bridge_runningmax", n,
                               float(r.uniform(0.3, 0.6)), float(r.uniform(0.6, 1.4))))
        for _ in range(counts["arith"]):
            seeded.append(Call("arith", nc, "cdf_arithmetic_limit", float(r.uniform(1.5, 3.0)),
                               float(r.uniform(-2.0, 4.0))))
        for _ in range(counts["nw1"]):
            t, a = float(r.uniform(0.5, 2.0)), float(r.uniform(-1.5, 1.5))
            seeded.append(Call("blpp-nw m=1", nc, "cdf_blpp", nw, [0.0], [t], [a],
                               check=("normal", a / math.sqrt(t))))
        for _ in range(counts["nw2"]):
            t1 = float(r.uniform(0.4, 0.9))
            law = (nw, list(r.uniform(-0.8, 0.5, 2)), [t1, t1 + float(r.uniform(0.3, 0.8))],
                   list(r.uniform(0.2, 1.2, 2)))
            seeded.append(Call("blpp-nw m=2 2 times", nc, "cdf_blpp", *law,
                               check=("marginals",) + law))
        for _ in range(counts["flat"]):
            # thresholds from 1.5: see the blpp-flat curve of the curves workload
            law = (flat, list(r.uniform(-1.2, -0.3, 2)), [1.0, 1.0 + float(r.uniform(0.5, 1.5))],
                   list(r.uniform(1.5, 3.0, 2)))
            seeded.append(Call("blpp-flat m=2 2 times", nc, "cdf_blpp", *law,
                               check=("marginals",) + law))
        for _ in range(counts["dyson"]):
            n = int(r.integers(20, 61))
            seeded.append(Call("dyson-edge n=%d" % n, nc, "cdf_dyson_edge",
                               np.sort(r.uniform(-1.0, 0.0, n)), [0.0],
                               [float(r.uniform(-2.0, 1.5))]))
        for _ in range(counts["airy"]):
            xi = float(r.uniform(-2.5, 0.5))
            seeded.append(Call("airy 1 time", nc, "airy_fdd", [0.0], [xi], check=("f2", xi)))
        for k in range(counts["ratio"]):
            n = 2 + k % 3
            beta, a = rates(r, n, 0.5, 2.5), float(r.uniform(0.2, 3.0))
            seeded.append(Call("det_ratio n=%d" % n, nc, "det_ratio", beta, a,
                               check=("piflat", beta, a)))
        for k in range(counts["transition"]):
            params = nc.GeomParams(tuple(r.uniform(0.2, 0.7, 2)))
            y1 = int(r.integers(0, 4))
            y = [y1, y1 + 1 + int(r.integers(0, 4))]
            seeded.append(Call("transition_prob", discrete, "transition_prob", [0, 1], y,
                               2 + k % 2, params))
        order = r.permutation(len(seeded))
        return calls + [seeded[i] for i in order]

    def cold_calls(self):
        seen = set()
        for call in self.calls:
            if call.attr not in seen:
                seen.add(call.attr)
                call()

    def values(self, outcomes):
        return len(outcomes)

    def _want(self, index, spec):
        kind = spec[0]
        if kind in ("exp", "normal"):
            return spec[1] if kind == "exp" else checks.normal_cdf(spec[1])
        key = "%d:%s" % (index, kind)
        if kind == "ratio":
            return self.reference(key, lambda: nc.det_ratio(spec[1], spec[2]))
        if kind == "piflat":
            return self.reference(key, lambda: nc.cdf_piflat(spec[1], spec[2]))
        if kind == "loe":
            return self.reference(key, lambda: nc.cdf_loe_max(spec[1], spec[2]))
        if kind == "f2":
            return self.reference(key, lambda: checks.tracy_widom_f2(spec[1]))
        if kind == "marginals":
            return self.reference(key, lambda: min(blpp_marginals(*spec[1:])))
        return self.reference(key, lambda: min(checks.tracy_widom_f2(x) for x in spec[1]))

    def check(self, outcomes, tally):
        for index, o in enumerate(outcomes):
            if not self.check_outcome(o, tally):
                continue
            label, spec = o.call.label, o.call.check
            value = float(o.result)
            if not tally.value(label, value) or spec is None:
                continue
            want = self._want(index, spec)
            kind = spec[0]
            if kind in ("f2max", "marginals"):
                tally.check(value <= want + checks.RANGE_TOL,
                            "%s: joint law %r above its marginal %r" % (label, value, want))
            elif kind in ("exp", "normal"):
                tally.close(label, "closed forms", value, want, checks.CLOSED_FORM_TOL)
            else:
                key = {"ratio": "piflat vs det_ratio", "piflat": "det_ratio vs piflat",
                       "loe": "zero-started bridge-allmax vs loe(n, r^2)",
                       "f2": "airy 1-time vs Bornemann F2"}[kind]
                tally.close(label, key, value, want, checks.CROSS_FORMULA_TOL)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

# Grid maxima of Brownian paths fall short of the continuum maximum by about
# 0.58 sqrt(step); where no acceptance experiment states an allowance, the
# CDF is allowed to move by a shift of twice that.
MISSED_EXCURSION = 0.58


def pointwise(f):
    return lambda grid: np.array([f(g) for g in grid])


class Law:
    """What a sampler's draws are checked against.

    ``statistic(result)`` is the scalar whose law ``cdf(grid)`` gives;
    ``allowance`` is the discretization allowance of the matching
    acceptance experiment, plus the CDF's rise over ``shift`` if given.
    ``integer`` marks a lattice law, checked at integer points.
    """

    def __init__(self, cdf, allowance=0.0, statistic=np.asarray, shift=0.0, integer=False):
        self.cdf, self.allowance, self.statistic = cdf, allowance, statistic
        self.shift, self.integer = shift, integer


class Samplers(Workload):
    name = "samplers"

    def build(self):
        r = self.rng
        s = 20 if self.tiny else 1
        stream = lambda k: nc.RngStream(self.seed, k)  # noqa: E731
        beta = list(np.sort(r.uniform(0.8, 2.2, 3)))
        mu = [float(r.uniform(-0.7, -0.3)), float(r.uniform(-1.2, -0.8))]
        geom = nc.GeomParams(tuple(r.uniform(0.2, 0.6, 2)))
        bridge3_step = 1.0 / 1024
        flat = nc.BoundaryFunction.flat()
        # Path counts keep each sampler's arrays under 32 MB: glibc maps larger
        # blocks afresh on every call, and the page faults made pass times swing.
        return [
            Call("sample_piflat n=3", nc, "sample_piflat", beta, stream=stream(1),
                 samples=10 ** 6 // s,
                 check=Law(pointwise(lambda g: nc.cdf_piflat(beta, g)))),
            Call("sample_loe_max n=5", nc, "sample_loe_max", 5, stream=stream(2),
                 samples=50000 // s,
                 check=Law(pointwise(lambda g: nc.cdf_loe_max(5, g / 4.0)))),
            # eigen-identity experiment: allowance 0.008 at the default grid
            Call("sample_blpp flat m=2", nc, "sample_blpp", flat, mu, 2, 1.0,
                 stream=stream(3), paths=800 // s,
                 check=Law(pointwise(lambda g: nc.cdf_blpp(flat, mu, [1.0], [g])), 0.008)),
            # bridge-nr experiment: allowance 0.01 at grid step 1/8192
            Call("sample_bridge_topmax n=2", nc, "sample_bridge_topmax", 2, 1.0,
                 grid_step=1.0 / 8192, stream=stream(4), paths=400 // s,
                 check=Law(pointwise(lambda g: nc.cdf_bridge_allmax(np.zeros(2), g)), 0.01)),
            Call("sample_bridge_topmax n=3", nc, "sample_bridge_topmax", 3, 1.0,
                 grid_step=bridge3_step, stream=stream(5), paths=max(8, 100 // s),
                 check=Law(pointwise(lambda g: nc.cdf_bridge_allmax(np.zeros(3), g)),
                           shift=2.0 * MISSED_EXCURSION * math.sqrt(bridge3_step))),
            # nu = 0 has edge constants a = 2, d = 1, so the edge variable is
            # (lambda_max - 2) n^(2/3) at time 1/n
            Call("sample_dyson_max n=50", nc, "sample_dyson_max", np.zeros(50), [1.0 / 50],
                 stream=stream(6), samples=1000 // s,
                 check=Law(pointwise(lambda g: nc.cdf_dyson_edge(np.zeros(50), [0.0], [g])),
                           statistic=lambda x: (x[:, 0] - 2.0) * 50 ** (2.0 / 3.0))),
            # arith-ks experiment: finite-n tolerance 0.05
            Call("sample_arith_max n=64", nc, "sample_arith_max", 64, 2.0, 0.0,
                 stream=stream(7), samples=500 // s,
                 check=Law(pointwise(lambda g: nc.cdf_arithmetic_limit(2.0, g)), 0.05,
                           statistic=lambda pair: pair[1])),
            Call("sample_geom_lpp N=2 m=2", discrete, "sample_geom_lpp", geom, [0, 1], 2,
                 stream=stream(8), samples=10 ** 6 // s,
                 check=Law(lambda grid: geom_cdf(geom, grid), statistic=lambda g: g[:, -1],
                           integer=True)),
        ]

    def cold_calls(self):
        for call in self.calls:
            kwargs = dict(call.kwargs)
            for key in ("samples", "paths"):
                if key in kwargs:
                    kwargs[key] = 8
            getattr(call.module, call.attr)(*call.args, **kwargs)

    def values(self, outcomes):
        return sum(int(o.call.kwargs.get("samples", o.call.kwargs.get("paths")))
                   for o in outcomes)

    def check(self, outcomes, tally):
        for o in outcomes:
            if not self.check_outcome(o, tally):
                continue
            law = o.call.check
            stat = np.asarray(law.statistic(o.result), dtype=float)

            def compute():
                grid = np.quantile(stat, np.linspace(0.1, 0.9, 9))
                if law.integer:
                    grid = np.unique(np.floor(grid))
                ref = law.cdf(grid)
                allowance = law.allowance + (law.cdf(grid + law.shift) - ref if law.shift else 0.0)
                return grid, ref, allowance

            grid, ref, allowance = self.reference(o.call.label, compute)
            tally.ecdf(o.call.label, stat, grid, ref, allowance)


def geom_cdf(params, grid):
    """Exact P(G(2, 2) <= v) from x = (0, 1), by summing transition determinants."""
    mass = np.zeros(int(max(grid)) + 1)
    for y2 in range(1, len(mass)):
        mass[y2] = sum(discrete.transition_prob([0, 1], [y1, y2], 2, params)
                       for y1 in range(0, y2 + 1))
    return np.cumsum(mass)[np.asarray(grid, dtype=int)]


WORKLOADS = {w.name: w for w in (Curves, PointQueries, Samplers)}
