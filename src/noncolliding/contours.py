"""Complex contour paths with attached quadrature rules.

A :class:`Contour` carries nodes ``z_k`` and complex weights ``w_k`` that
already include the differential ``dz``, so a path integral is
``sum(w_k * f(z_k))``.  The ``1/(2*pi*i)`` prefactor of kernel formulas is
*not* folded into the weights; kernel evaluators apply it themselves.

Orientation conventions: closed contours (circle, rectangle) run counter
clockwise; open contours (vertical line, wedge) run upward, i.e. with
increasing imaginary part through the apex / axis crossing.  Open contours
are truncated and record their truncation length so refinement tests can
double it.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .defaults import DEFAULTS
from .exceptions import ParameterError


@lru_cache(maxsize=256)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(int(n))


def gauss_legendre(a, b, n):
    """Nodes and weights integrating over the real interval [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def composite_legendre(edges, nodes_per_panel):
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(a, b, nodes_per_panel)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def graded_edges(length, first, growth=1.7):
    """Panel edges on [0, length] whose widths grow geometrically."""
    edges = [0.0]
    w = float(first)
    while edges[-1] < length:
        edges.append(min(length, edges[-1] + w))
        w *= growth
    return np.asarray(edges)


@dataclass(eq=False)
class Contour:
    """A parametrized complex path with quadrature nodes and dz-weights."""

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    closed: bool
    truncation: float | None = None
    geometry: dict = field(default_factory=dict)

    def integrate(self, f):
        return np.sum(self.weights * f(self.nodes))

    def refined(self, node_factor=2, truncation_factor=1.0):
        """Rebuild with more nodes (and optionally a longer truncation)."""
        geo = dict(self.geometry)
        geo["nodes"] = max(8, int(round(geo["nodes"] * node_factor)))
        for key in ("half_height", "length"):
            if key in geo and self.truncation is not None:
                geo[key] = geo[key] * truncation_factor
        return make_contour(self.kind, **geo)


def _circle(center, radius, nodes):
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    z = center + radius * np.exp(1j * theta)
    w = (2j * np.pi / nodes) * (z - center)  # periodic trapezoid, dz = i(z-c) dθ
    return z, w


def _vertical(offset, half_height, nodes):
    t, wt = gauss_legendre(-half_height, half_height, nodes)
    return offset + 1j * t, 1j * wt


def _rectangle(left, right, half_height, nodes):
    width, height = right - left, 2.0 * half_height
    per_unit = max(8, int(round(nodes / (2.0 * (width + height)))))
    sides = [
        (complex(left, -half_height), complex(right, -half_height)),
        (complex(right, -half_height), complex(right, half_height)),
        (complex(right, half_height), complex(left, half_height)),
        (complex(left, half_height), complex(left, -half_height)),
    ]
    zs, ws = [], []
    for a, b in sides:
        n_side = max(8, int(np.ceil(abs(b - a) * per_unit)))
        edges = np.linspace(0.0, 1.0, max(2, int(np.ceil(abs(b - a) / 2.0)) + 1))
        t, wt = composite_legendre(edges, max(8, n_side // (len(edges) - 1)))
        zs.append(a + (b - a) * t)
        ws.append((b - a) * wt)
    return np.concatenate(zs), np.concatenate(ws)


def _wedge(apex, angle, length, nodes, first_panel=0.75):
    if not 0.0 < angle < np.pi:
        raise ParameterError("wedge angle must lie in (0, pi), got %r" % (angle,))
    edges = graded_edges(length, first_panel)
    per_panel = max(8, int(round(nodes / (len(edges) - 1))))
    t, wt = composite_legendre(edges, per_panel)
    lo = np.exp(-1j * angle)
    up = np.exp(1j * angle)
    # traversal: lower ray from far end to apex, then apex out the upper ray
    z = np.concatenate([apex + lo * t[::-1], apex + up * t])
    w = np.concatenate([-lo * wt[::-1], up * wt])
    return z, w


def make_contour(kind, *, nodes=None, **geometry):
    """Build a contour of the given kind.

    Kinds and their geometry:

    - ``circle``: center, radius
    - ``vertical``: offset (real part), half_height (truncation)
    - ``rectangle``: left, right, half_height
    - ``wedge``: apex, angle, length, [first_panel]
    """
    if nodes is None:
        nodes = {
            "circle": DEFAULTS["circle_nodes"],
            "vertical": DEFAULTS["vertical_nodes"],
            "wedge": 2 * DEFAULTS["wedge_nodes_per_ray"],
        }.get(kind, 256)
    nodes = int(nodes)
    if nodes < 8:
        raise ParameterError("contour needs at least 8 nodes, got %d" % nodes)

    for key in ("radius", "half_height", "length"):
        if key in geometry and not geometry[key] > 0:
            raise ParameterError("%s must be positive, got %r" % (key, geometry[key]))

    if kind == "circle":
        z, w = _circle(geometry["center"], geometry["radius"], nodes)
        closed, trunc = True, None
    elif kind == "vertical":
        z, w = _vertical(geometry["offset"], geometry["half_height"], nodes)
        closed, trunc = False, geometry["half_height"]
    elif kind == "rectangle":
        if not geometry["right"] > geometry["left"]:
            raise ParameterError("rectangle needs right > left")
        z, w = _rectangle(geometry["left"], geometry["right"], geometry["half_height"], nodes)
        closed, trunc = True, None
    elif kind == "wedge":
        z, w = _wedge(geometry["apex"], geometry["angle"], geometry["length"], nodes,
                      geometry.get("first_panel", 0.75))
        closed, trunc = False, geometry["length"]
    else:
        raise ParameterError("unknown contour kind %r" % (kind,))

    geometry = dict(geometry)
    geometry["nodes"] = nodes
    return Contour(kind, z, w, closed, trunc, geometry)


def adaptive_ray(psi, max_length, drop=None, base_step=0.2, nodes_per_radian=1.5,
                 min_nodes_per_panel=6, max_nodes=20000):
    """Quadrature along a half-line parametrized by arclength tau >= 0.

    ``psi(tau)`` is the complex exponent of a factor ``exp(-psi)`` expected
    to decay; panels are truncated once ``Re psi`` has climbed ``drop``
    above its running minimum, and node density follows the local phase
    slope ``d Im(psi) / d tau``.  Returns real (tau, weight) arrays.
    """
    drop = DEFAULTS["decay_drop"] if drop is None else drop
    probes = [0.0]
    while probes[-1] < max_length:
        probes.append(min(max_length, probes[-1] + base_step * (1.0 + 0.25 * probes[-1])))
    probes = np.asarray(probes)
    values = psi(probes)
    re, im = values.real, values.imag
    running_min = np.minimum.accumulate(re)
    alive = re <= running_min + drop
    last = len(probes) - 1 if alive.all() else max(1, int(np.argmin(alive)))

    taus, weights = [], []
    total = 0
    for k in range(last):
        a, b = probes[k], probes[k + 1]
        slope = abs(im[k + 1] - im[k]) / max(b - a, 1e-300)
        n = int(min(400, max(min_nodes_per_panel, np.ceil((b - a) * slope * nodes_per_radian) + min_nodes_per_panel)))
        t, w = gauss_legendre(a, b, n)
        taus.append(t)
        weights.append(w)
        total += n
        if total > max_nodes:
            break
    return np.concatenate(taus), np.concatenate(weights)


def ray_wedge(apex, angle, psi, max_length):
    """Wedge through ``apex`` along the rays at +-``angle``, placed adaptively.

    ``psi(w)`` is the complex exponent of a factor ``exp(-psi(w))`` that
    decays along the upper ray ``apex + e^{i angle} tau``; :func:`adaptive_ray`
    sets its nodes, and the lower ray takes their mirror image (exponents
    with real coefficients decay alike on both).  The path runs upward like
    ``make_contour("wedge", ...)``.
    """
    u = np.exp(1j * angle)
    tau, wt = adaptive_ray(lambda t: psi(apex + u * t), max_length)
    lo = np.conj(u)
    nodes = np.concatenate([apex + lo * tau[::-1], apex + u * tau])
    weights = np.concatenate([-lo * wt[::-1], u * wt])
    return Contour("wedge", nodes, weights, False, float(tau.max()),
                   {"apex": apex, "angle": angle, "nodes": len(nodes)})


@dataclass(eq=False)
class SemiInfiniteRule:
    """Quadrature for integrals over [threshold, infinity)."""

    threshold: float
    length: float
    scheme: str
    nodes: np.ndarray
    weights: np.ndarray


def semi_infinite_rule(threshold, n=None, length=None, scheme="legendre"):
    """Rule for a semi-infinite interval truncated per the decay policy.

    ``legendre`` truncates at threshold+length with a Gauss-Legendre rule;
    ``exponential`` maps the half line through x = a - log(1-u)/lam.
    """
    n = DEFAULTS["nystrom_nodes_per_slot"] if n is None else int(n)
    length = DEFAULTS["semiinf_length"] if length is None else float(length)
    if n < 8:
        raise ParameterError("semi-infinite rule needs n >= 8")
    if length <= 0:
        raise ParameterError("truncation length must be positive")
    if scheme == "legendre":
        x, w = gauss_legendre(threshold, threshold + length, n)
    elif scheme == "exponential":
        lam = 6.0 / length
        u, wu = gauss_legendre(0.0, 1.0, n)
        x = threshold - np.log1p(-u) / lam
        w = wu / (lam * (1.0 - u))
    else:
        raise ParameterError("unknown scheme %r" % (scheme,))
    return SemiInfiniteRule(float(threshold), length, scheme, x, w)
