"""Independent Monte Carlo samplers validating the determinant formulas.

Every sampler draws from a fresh generator created from its
:class:`~noncolliding.rng.RngStream`, so results are deterministic per
(seed, stream) and replicated runs are byte-identical.  Comparisons
against determinant CDFs use Dvoretzky-Kiefer-Wolfowitz bands: at level
95% the band half-width is sqrt(log(2/0.05) / (2 n)).
"""

import numpy as np

from .defaults import DEFAULTS
from .exceptions import ParameterError
from .rng import RngStream

__all__ = [
    "dkw_band", "empirical_cdf", "sample_gue", "sample_arith_max",
    "sample_blpp", "sample_piflat", "sample_loe_max", "sample_dyson_max",
    "sample_bridge_topmax",
]


def dkw_band(n):
    """95% uniform confidence half-width for an empirical CDF of n samples."""
    return float(np.sqrt(np.log(2.0 / 0.05) / (2.0 * n)))


def empirical_cdf(samples, grid):
    """Empirical CDF of ``samples`` evaluated on ``grid``."""
    s = np.sort(np.asarray(samples).ravel())
    return np.searchsorted(s, np.asarray(grid), side="right") / float(len(s))


def _default_stream(stream):
    return RngStream(DEFAULTS["seed"]) if stream is None else stream


def _hermitian_noise(gen, b, n):
    """b Hermitian matrices with the law of (W + W*)/sqrt(2), from n^2 normals
    each: for one (b, n, n) draw X, entry (i, j), i < j, is (X_ij + i X_ji)
    / sqrt(2) and the diagonal is X_ii."""
    X = gen.standard_normal((b, n, n))
    diagonal = X.reshape(b, n * n)[:, ::n + 1].copy()
    X *= np.sqrt(0.5)
    Xt, upper = np.swapaxes(X, -1, -2), np.triu(np.ones((n, n), dtype=bool), 1)
    H = np.empty((b, n, n), dtype=complex)
    H.real = Xt
    np.copyto(H.real, X, where=upper)
    np.negative(X, out=H.imag)
    np.copyto(H.imag, Xt, where=upper)
    H.reshape(b, n * n)[:, ::n + 1] = diagonal
    return H


def sample_gue(n, stream=None, samples=1):
    """GUE matrices H = (W + W*)/sqrt(2) with standard complex Gaussian W.

    Convention: diagonal entries are real N(0,1), off-diagonal complex with
    E|H_ij|^2 = 1.  Returns (n, n) for samples=1, else (samples, n, n).
    """
    H = _hermitian_noise(_default_stream(stream).generator(), samples, n)
    return H[0] if samples == 1 else H


def sample_arith_max(n, delta, lam1, stream=None, samples=1):
    """Largest eigenvalue of the arithmetic-spectrum matrix plus GUE noise.

    Returns (lam_max, rescaled) where rescaled = delta*(lam_max - lam1) -
    log(n-1); arrays of length ``samples`` (scalars for samples=1).
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    stream = _default_stream(stream)
    diag = lam1 - delta * np.arange(n)
    out = np.empty(samples)
    gen = stream.generator()
    done = 0
    while done < samples:
        b = min(64, samples - done)
        H = _hermitian_noise(gen, b, n)
        H.reshape(b, n * n)[:, ::n + 1] += diag
        out[done:done + b] = np.linalg.eigvalsh(H)[:, -1]
        done += b
    rescaled = delta * (out - lam1) - (np.log(n - 1) if n > 1 else 0.0)
    if samples == 1:
        return float(out[0]), float(rescaled[0])
    return out, rescaled


def sample_blpp(b, mu, m, t, grid_step=None, stream=None, paths=1):
    """Boundary-driven Brownian last passage values by grid dynamic programming.

    L(0, j) = b(t_j); row k is B_k(t_j) + running-max of (L(k-1, .) - B_k(.)).
    The grid maximum is biased low by ~sqrt(step log) for continuum maxima;
    comparison tolerances account for it.
    """
    if not t > 0:
        raise ParameterError("need t > 0, got %r" % (t,))
    mu = np.atleast_1d(np.asarray(mu, dtype=float)) if np.ndim(mu) else np.full(m, float(mu))
    if len(mu) != m:
        raise ParameterError("need one drift per row")
    step = (t / DEFAULTS["blpp_grid"]) if grid_step is None else float(grid_step)
    J = max(1, int(round(t / step)))
    step = t / J
    gen = _default_stream(stream).generator()
    boundary = np.asarray(b(np.arange(J + 1) * step))
    out = np.empty(paths)
    chunk = min(paths, max(1, int(1e7 / J)))
    L, B = np.empty((chunk, J + 1)), np.empty((chunk, J))
    done = 0
    while done < paths:
        npath = min(chunk, paths - done)
        prev, Bk = L[:npath], B[:npath]  # Bk holds B_k(t_1..t_J); B_k(0) = 0
        prev[:] = boundary
        for k in range(m):
            gen.standard_normal(out=Bk)
            Bk *= np.sqrt(step)
            Bk += mu[k] * step
            np.cumsum(Bk, axis=1, out=Bk)
            prev[:, 1:] -= Bk
            np.maximum.accumulate(prev, axis=1, out=prev)
            prev[:, 1:] += Bk
        out[done:done + npath] = prev[:, -1]
        done += npath
    return float(out[0]) if paths == 1 else out


def sample_piflat(beta, stream=None, samples=1):
    """Point-to-line passage value over the staircase triangle.

    With n = len(beta), cell (i, j) with i+j <= n+1 carries an
    Exponential(beta_i + beta_{n+1-j}) weight; the value is the best
    up/right path from (1,1) to the boundary.
    The dynamic program keeps only the previous row and the current one, in
    one array of n cells: cell j holds G(i-1, j) until row i overwrites it
    with G(i, j).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    n = len(beta)
    if np.any(beta <= 0):
        raise ParameterError("rates must be positive")
    gen = _default_stream(stream).generator()
    G, out = np.zeros((n, samples)), np.zeros(samples)
    for i in range(1, n + 1):
        for j in range(1, n + 2 - i):
            rate = beta[i - 1] + beta[n - j]  # beta_{n+1-j}, 1-based
            if j > 1:
                np.maximum(G[j - 1], G[j - 2], out=G[j - 1])
            G[j - 1] += gen.exponential(1.0 / rate, size=samples)
        np.maximum(out, G[n - i], out=out)
    return float(out[0]) if samples == 1 else out


def sample_loe_max(n, stream=None, samples=1):
    """Largest eigenvalue of X^t X for X an (n+1) x n standard normal matrix."""
    if n < 1:
        raise ParameterError("need n >= 1")
    gen = _default_stream(stream).generator()
    out = np.empty(samples)
    done = 0
    while done < samples:
        b = min(512, samples - done)
        X = gen.standard_normal((b, n + 1, n))
        M = np.swapaxes(X, -1, -2) @ X
        out[done:done + b] = np.linalg.eigvalsh(M)[:, -1]
        done += b
    return float(out[0]) if samples == 1 else out


def sample_dyson_max(nu, times, stream=None, samples=1):
    """lambda_max(H(t_i) + diag(nu)) along Hermitian Brownian motion.

    H is sampled at the sorted times through independent Gaussian
    increments; returns shape (samples, len(times)) (or (len(times),)).
    One time and a constant nu = nu_0 take the Dumitriu-Edelman beta = 2
    model, sqrt(t) lambda_max(T) + nu_0 with T tridiagonal, N(0,1) diagonal
    and sqrt(Gamma(k)) off-diagonal, k = n-1..1: GUE's lambda_max law at
    O(n) draws.  Other inputs sample the full matrix path.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    n = len(nu)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ParameterError("times must be positive and strictly increasing")
    gen = _default_stream(stream).generator()
    out = np.empty((samples, len(times)))
    tridiagonal = len(times) == 1 and np.all(nu == nu[0])
    chunk = max(1, int(5e5 / n)) if tridiagonal else 64
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        if tridiagonal:
            d = gen.standard_normal((n, b))
            e = np.sqrt(gen.standard_gamma(np.arange(n - 1, 0, -1)[:, None], (n - 1, b)))
            out[done:done + b, 0] = np.sqrt(times[0]) * _top_eig_tridiagonal(d, e) + nu[0]
        else:
            H, t_prev = np.zeros((b, n, n), dtype=complex), 0.0
            for k, t in enumerate(times):
                H += np.sqrt(t - t_prev) * _hermitian_noise(gen, b, n)
                out[done:done + b, k] = np.linalg.eigvalsh(H + np.diag(nu))[:, -1]
                t_prev = t
        done += b
    return out[0] if samples == 1 else out


def _top_eig_tridiagonal(d, e):
    """Largest eigenvalue of symmetric tridiagonal matrices by Sturm bisection.

    Column j of ``d`` (n, b) and ``e`` (n-1, b) holds matrix j's diagonal
    and off-diagonal.  x is above every eigenvalue exactly when all LDL^T
    pivots of x - T are positive; [max d, Gershgorin bound] halves to an ulp.
    """
    e2, r = e * e, np.pad(np.abs(e), ((1, 1), (0, 0)))
    lo, hi = d.max(axis=0), (d + r[1:] + r[:-1]).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            if not np.any((lo < mid) & (mid < hi)):
                return hi
            pivots = mid - d
            for k in range(1, len(d)):
                pivots[k] -= e2[k - 1] / pivots[k - 1]
            above = pivots.min(axis=0) > 0
            hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)


def _hermitian_path_max(draw, n, paths, J, chunk, floor):
    """Per path, max(floor, grid maximum of the top eigenvalue of an n x n
    Hermitian path), n <= 2; ``draw(x, k)`` fills x (b, J) with real
    coordinate k (h11, h22, re12, im12) of a chunk of b paths.

    A 2x2 chunk holds three (b, J) arrays: lambda = (h11 + h22)/2 +
    sqrt((h11 - h22)^2/4 + re12^2 + im12^2), and re12, then im12, are drawn
    into h22's array once h11 holds (h11 - h22)^2/4.
    """
    out = np.empty(paths)
    bufs = np.empty((1 if n == 1 else 3, min(paths, chunk), J))
    done = 0
    while done < paths:
        b = min(chunk, paths - done)
        lam = h11 = bufs[0, :b]
        draw(h11, 0)
        if n == 2:
            x, lam = bufs[1, :b], bufs[2, :b]
            draw(x, 1)
            np.add(h11, x, out=lam)
            lam *= 0.5
            h11 -= x
            np.square(h11, out=h11)
            h11 *= 0.25
            for k in (2, 3):
                draw(x, k)
                h11 += np.square(x, out=x)
            lam += np.sqrt(h11, out=h11)
        out[done:done + b] = np.maximum(lam.max(axis=1), floor)
        done += b
    return out


def _matrix_running_supmax(mu, t, step, stream, paths):
    """sup over the grid of lambda_max(H(s) + s diag(mu)) for 2x2 matrices."""
    J = int(round(t / step))
    ts = np.arange(1, J + 1) * step
    gen = stream.generator()

    def draw(x, k):
        gen.standard_normal(out=x)
        x *= np.sqrt(step * (1.0 if k < 2 else 0.5))
        np.cumsum(x, axis=1, out=x)
        if k < 2:
            x += mu[k] * ts

    return _hermitian_path_max(draw, 2, paths, J, max(1, int(1.2e7 / J)), 0.0)


def _bridge_grid(s, step):
    J = int(np.ceil(s / step))
    ts = np.arange(1, J + 1) * step
    ts[-1] = s
    return ts


def sample_bridge_topmax(n, s, nu=None, grid_step=None, stream=None, paths=1, chunk=None):
    """Running maximum over [0, s] of the top eigenvalue of a Hermitian bridge.

    Entrywise standard bridge construction: Brownian increments are pinned
    by H^br(t) = H(t) - t H(1), which is exact in law per entry and stable
    at t = 1.  The grid maximum is biased low by ~0.58 sqrt(step) per the
    usual missed-excursion estimate; tolerances account for it.  For nu
    given, (1-t) diag(nu) is added; that variant is experimental (not
    validated as the law of nu-started noncolliding bridges) and excluded
    from acceptance checks.  For n <= 2 a chunk of paths holds three
    (paths, steps) arrays, one for n = 1.
    """
    if n < 1:
        raise ParameterError("need n >= 1")
    if not 0.0 < s <= 1.0:
        raise ParameterError("need 0 < s <= 1")
    step = (1.0 / DEFAULTS["bridge_grid"]) if grid_step is None else float(grid_step)
    ts = _bridge_grid(s, step)
    J = len(ts)
    gen = _default_stream(stream).generator()
    nu = None if nu is None else np.atleast_1d(np.asarray(nu, dtype=float))
    if nu is not None and len(nu) != n:
        raise ParameterError("need one starting point per eigenvalue")
    if n <= 2:
        # vectorized over the grid via the real coordinates of H
        dts = np.diff(np.concatenate([[0.0], ts]))
        chunk = min(paths, chunk or max(1, int(1.2e7 / J)))
        rows = -(-chunk // 16)

        def draw(x, k):
            sc = 1.0 if k < 2 else 0.5
            gen.standard_normal(out=x)
            x *= np.sqrt(dts * sc)
            np.cumsum(x, axis=1, out=x)
            tail = gen.standard_normal((len(x), 1)) * np.sqrt(max(1.0 - ts[-1], 0.0) * sc)
            end = x[:, -1:] + tail
            for i in range(0, len(x), rows):  # pin in sixteenths: no (b, J) scratch
                x[i:i + rows] -= ts * end[i:i + rows]
            if nu is not None and k < n:
                x += nu[k] * (1.0 - ts)

        out = _hermitian_path_max(draw, n, paths, J, chunk, 0.0 if nu is None else -np.inf)
        return float(out[0]) if paths == 1 else out

    out = np.empty(paths)
    done = 0
    chunk = chunk or max(1, int(2e6 / max(1, J * n * n)))
    while done < paths:
        b = min(chunk, paths - done)
        H = np.zeros((b, n, n), dtype=complex)
        best = np.full(b, 0.0 if nu is None else -np.inf)
        t_prev = 0.0
        for k, t_k in enumerate(ts):
            shrink = (1.0 - t_k) / (1.0 - t_prev)
            H *= shrink
            H += np.sqrt((t_k - t_prev) * shrink) * _hermitian_noise(gen, b, n)
            M = H if nu is None else H + (1.0 - t_k) * np.diag(nu)[None, :, :]
            best = np.maximum(best, np.linalg.eigvalsh(M)[:, -1])
            t_prev = t_k
        out[done:done + b] = best
        done += b
    return float(out[0]) if paths == 1 else out
