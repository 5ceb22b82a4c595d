"""Correctness checks and the independent references they compare against.

Tolerance classes follow the package's acceptance suite: closed forms at
1e-8, cross-formula agreements at 1e-6, and samplers within a
Dvoretzky-Kiefer-Wolfowitz band plus the discretization allowance of the
matching acceptance experiment.
"""

import math

import numpy as np

CLOSED_FORM_TOL = 1e-8
CROSS_FORMULA_TOL = 1e-6
# Slack on the [0, 1] range and on monotonicity of a curve: determinants
# carry round-off, and the arithmetic kernel jitters at ~1e-10.
RANGE_TOL = 1e-8

# The sampler bands are DKW bands at this level per check, not at 95%.  A
# 95% band is exceeded by chance on a few percent of seeds per sampler, and
# every seed of every run must pass; at 1e-5 the half-width is 1.85 times
# the 95% one.  The 95% half-width is reported next to each deviation.
DKW_LEVEL = 1e-5


def dkw_halfwidth(n, level=DKW_LEVEL):
    return math.sqrt(math.log(2.0 / level) / (2.0 * n))


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def tracy_widom_f2(s, nodes=80, length=16.0):
    """GUE Tracy-Widom F2(s) = det(I - K_Ai) on L2(s, inf), from scipy's Ai.

    Gauss-Legendre Nystrom discretization of the integrable Airy kernel
    (Ai(x)Ai'(y) - Ai'(x)Ai(y))/(x - y), diagonal Ai'(x)^2 - x Ai(x)^2,
    following Bornemann, Math. Comp. 79 (2010).  Independent of the
    package's contour kernels; the truncation at s + 16 drops Ai^2 below
    e^-50 for s >= -4.
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


class Tally:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.worst = {}

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(message)
        return ok

    def note(self, key, deviation):
        """Remember the largest deviation seen for a named comparison."""
        self.worst[key] = max(self.worst.get(key, 0.0), float(deviation))

    def value(self, label, v):
        """A CDF value counts as failed if it is non-finite or outside [0, 1]."""
        return self.check(math.isfinite(v) and -RANGE_TOL <= v <= 1.0 + RANGE_TOL,
                          "%s: value %r outside [0, 1]" % (label, v))

    def close(self, label, key, got, want, tol):
        dev = abs(got - want)
        self.note(key, dev)
        return self.check(dev <= tol, "%s: %r vs reference %r differs by %.3g > %g"
                          % (label, got, want, dev, tol))

    def curve(self, label, values):
        steps = np.diff(values)
        return self.check(bool(np.all(steps >= -RANGE_TOL)),
                          "%s: curve decreases by %.3g" % (label, -float(steps.min(initial=0))))

    def ecdf(self, label, samples, grid, reference, allowance):
        """Empirical CDF of ``samples`` on ``grid`` against the reference CDF.

        ``allowance`` is the discretization allowance of the sampler, a
        scalar or one value per grid point.
        """
        samples = np.asarray(samples, dtype=float).ravel()
        if not self.check(samples.size > 0 and bool(np.all(np.isfinite(samples))),
                          "%s: non-finite samples" % label):
            return False
        emp = np.searchsorted(np.sort(samples), grid, side="right") / samples.size
        excess = np.abs(emp - reference) - np.asarray(allowance)
        dev = float(np.max(excess))
        band = dkw_halfwidth(samples.size)
        self.note(label + " (excess over allowance, 95%% band %.3g)"
                  % dkw_halfwidth(samples.size, 0.05), dev)
        return self.check(dev <= band, "%s: ECDF off the reference by %.3g beyond the "
                          "allowance, band %.3g" % (label, dev, band))
