"""Special functions: complex Gamma, heat kernel, Airy function, eigenvalues.

The Airy evaluator integrates ``exp(z^3/3 - x z)`` over a wedge contour
through the saddle ``sqrt(x)`` (apex moved to the saddle keeps the
integrand's maximum at the scale of the answer, so there is no
cancellation for large ``|x|``); negative arguments go through the
rotation identity ``Ai(-s) = -2 Re[e^{-2 pi i/3} Ai(s e^{i pi/3})]``.
"""

import math

import numpy as np

from .contours import composite_legendre, graded_edges
from .exceptions import DomainError, PoleError, RangeError, ValidationError

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_ERFC = np.frompyfunc(math.erfc, 1, 1)

# Lanczos g=7, n=9 coefficients
_LANCZOS_G = 7.0
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS = np.array([
    676.5203681218851, -1259.1392167224028, 771.32342877765313,
    -176.61502916214059, 12.507343278686905, -0.13857109526572012,
    9.9843695780195716e-6, 1.5056327351493116e-7,
])


def _lanczos_half_plane(z):
    # valid for Re(z) >= 0.5
    zm = z - 1.0
    acc = np.full_like(zm, _LANCZOS_C0)
    for k, ck in enumerate(_LANCZOS):
        acc = acc + ck / (zm + (k + 1))
    t = zm + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (zm + 0.5) * np.exp(-t) * acc


def complex_gamma(z):
    """Gamma function on the complex plane (reflection for Re z < 1/2).

    Raises :class:`PoleError` within 1e-8 of a nonpositive integer; the
    error carries the offending pole location.
    """
    arr = np.asarray(z, dtype=complex)
    nearest = np.round(arr.real)
    on_pole = (nearest <= 0) & (np.abs(arr - nearest) < 1e-8)
    if np.any(on_pole):
        pole = nearest[on_pole].flat[0] if arr.ndim else float(nearest)
        raise PoleError("Gamma pole at z = %s" % pole, int(pole))
    out = np.empty_like(arr)
    right = arr.real >= 0.5
    if np.any(right):
        out[right] = _lanczos_half_plane(arr[right])
    if np.any(~right):
        zl = arr[~right]
        out[~right] = np.pi / (np.sin(np.pi * zl) * _lanczos_half_plane(1.0 - zl))
    return out if np.asarray(z).ndim else complex(out)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x), elementwise for real x.

    Below 25, e^{x^2} :func:`math.erfc`, with e^{x^2} = e^{h^2} e^{l(2h + l)}, x = h + l and h^2
    exact, as rounding x^2 would cost x^2 ulps.  From 25, where erfc nears underflow, 9 terms
    of (1/(x sqrt pi)) sum_n (-1)^n (2n - 1)!! / (2x^2)^n; the next is below 1e-19.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = x < 25.0
    u = x[near]
    head = np.round(u * 4096.0) / 4096.0
    out[near] = (np.exp(head * head) * np.exp((u - head) * (u + head))
                 * _ERFC(u).astype(float))
    u = x[~near]
    term, total = np.ones_like(u), np.zeros_like(u)
    for n in range(9):
        total += term
        term *= -(2 * n + 1) / (2.0 * u * u)
    out[~near] = total / (u * np.sqrt(np.pi))
    return out if out.ndim else float(out)


def complete_homogeneous(xs, n):
    """h_0, ..., h_n of the variables xs: the coefficients of prod_i 1/(1 - x_i u) in u."""
    h = np.eye(1, n + 1)[0]
    for x in xs:  # times 1/(1 - x u) = sum_k x^k u^k
        h = np.convolve(h, float(x) ** np.arange(n + 1))[:n + 1]
    return h


def heat_kernel(t, x, y):
    """Gaussian transition density (2*pi*t)^(-1/2) exp(-(x-y)^2 / (2t))."""
    if not t > 0:
        raise DomainError("heat kernel needs t > 0, got %r" % (t,))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.exp(-((x - y) ** 2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    return out if out.ndim else float(out)


# graded panel structure relative to the ray length, shared by all apexes
_AIRY_REL_EDGES = graded_edges(1.0, 0.008, growth=1.5)


def _airy_ray_rule(apex_bound, length):
    """(tau, weight) along one ray; node counts follow the phase budget.

    Along a ray from apex p the phase of z^3/3 - zeta*z grows like
    |p| tau^2 + tau^3/3, so each graded panel gets nodes in proportion.
    """
    taus, wts = [], []
    for a_rel, b_rel in zip(_AIRY_REL_EDGES[:-1], _AIRY_REL_EDGES[1:]):
        a, b = a_rel * length, b_rel * length
        phase = apex_bound * (b * b - a * a) + (b ** 3 - a ** 3) / 3.0
        n = int(min(256, 12 + 0.7 * phase))
        t, w = composite_legendre(np.array([a, b]), n)
        taus.append(t)
        wts.append(w)
    return np.concatenate(taus), np.concatenate(wts)


def _airy_raw(zeta):
    """exp-scaled wedge-contour integral; zeta with |arg| <= pi/3, vectorized."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    apex = np.sqrt(np.maximum(np.abs(zeta), 0.15)) * np.exp(0.5j * np.angle(zeta))
    value = np.zeros(zeta.shape, dtype=complex)
    # bucket by apex size so node budgets stay rectangular per batch
    mag = np.abs(apex)
    edges = np.array([0.0, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0, np.inf])
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (mag >= lo) & (mag < hi)
        if not np.any(sel):
            continue
        bound = mag[sel].max()
        length = 5.8 + np.sqrt(90.0 / (0.5 + bound))
        tau, wt = _airy_ray_rule(bound, length)
        for direction in (np.exp(1j * np.pi / 3.0), np.exp(-1j * np.pi / 3.0)):
            z = apex[sel, None] + direction * tau[None, :]
            f = z ** 3 / 3.0 - zeta[sel, None] * z
            fmax = f.real.max(axis=1, keepdims=True)
            contrib = np.sum(np.exp(f - fmax) * wt[None, :], axis=1)
            sign = 1.0 if direction.imag > 0 else -1.0
            value[sel] = value[sel] + sign * direction * contrib * np.exp(fmax[:, 0])
    return value / (2j * np.pi)


def _airy_any_real(x):
    """Airy Ai on the real line, any magnitude; internal (no range guard)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    pos = x >= 0
    if np.any(pos):
        out[pos] = _airy_raw(x[pos]).real
    if np.any(~pos):
        s = -x[~pos]
        rotated = _airy_raw(s * np.exp(1j * np.pi / 3.0))
        out[~pos] = -2.0 * (np.exp(-2j * np.pi / 3.0) * rotated).real
    return out


def airy_function(x):
    """Airy function Ai(x) by wedge-contour quadrature.

    Documented accurate range is -30 <= x <= 30 (>= 10 digits); outside it a
    :class:`RangeError` is raised.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 30.0):
        raise RangeError("airy_function documented range is [-30, 30]")
    out = _airy_any_real(arr)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def hermitian_eigen_max(M):
    """Largest eigenvalue of a Hermitian matrix.

    The input must be Hermitian to within 1e-12 elementwise, else a
    :class:`ValidationError` is raised.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("expected a square matrix, got shape %r" % (M.shape,))
    if np.max(np.abs(M - M.conj().T)) > 1e-12:
        raise ValidationError("matrix is not Hermitian within 1e-12 elementwise")
    return float(np.linalg.eigvalsh(M)[-1])
