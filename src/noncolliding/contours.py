"""Complex contour paths with attached quadrature rules.

A :class:`Contour` carries nodes ``z_k`` and complex weights ``w_k`` that
already include the differential ``dz``, so a path integral is
``sum(w_k * f(z_k))``.  The ``1/(2*pi*i)`` prefactor of kernel formulas is
*not* folded into the weights; kernel evaluators apply it themselves.

Every contour (vertical line, wedge) is open and runs upward, i.e. with
increasing imaginary part through the apex / axis crossing.  Contours are
truncated and record their truncation length so refinement tests can
double it.

Every contour is symmetric about the horizontal line through its centre,
offset or apex (the real axis, for every contour a kernel draws) and is
built from its upper half.  The lower half is its exact mirror image,
z -> z-bar with weights w -> -conj(w), as the path runs through it the
other way.  An integrand with real parameters has f(z-bar) = conj f(z), so
its integral is 2 Re of the sum over ``upper_nodes`` and ``upper_weights``,
in which a node on the axis, its own mirror, has half its weight.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def graded_edges(length, first, growth):
    """Panel edges on [0, length] whose widths grow geometrically."""
    edges = [0.0]
    w = float(first)
    while edges[-1] < length:
        edges.append(min(length, edges[-1] + w))
        w *= growth
    return np.asarray(edges)


@dataclass(eq=False)
class Contour:
    """A parametrized complex path with quadrature nodes and dz-weights.

    Kept as its upper half, a node on the axis Im z = ``axis`` at half
    weight; ``nodes`` and ``weights``, the whole path, are made when read.
    """

    kind: str
    upper_nodes: np.ndarray
    upper_weights: np.ndarray
    truncation: float
    geometry: dict = field(default_factory=dict)
    axis: float = 0.0

    @cached_property
    def _path(self):
        z, w = self.upper_nodes, self.upper_weights
        on_axis = z.imag == self.axis
        upper = (z, np.where(on_axis, 2.0 * w, w))
        lower = (np.conj(z[~on_axis][::-1]) + 2j * self.axis, -np.conj(w[~on_axis][::-1]))
        return np.concatenate([lower[0], upper[0]]), np.concatenate([lower[1], upper[1]])

    @property
    def nodes(self):
        return self._path[0]

    @property
    def weights(self):
        return self._path[1]

    def integrate(self, f):
        return np.sum(self.weights * f(self.nodes))

    def refined(self, node_factor=2, truncation_factor=1.0):
        """Rebuild with more nodes (optionally a longer truncation); a wedge keeps its panels."""
        geo = dict(self.geometry)
        if self.kind == "wedge":
            return _wedge(geo["apex"], geo["angle"], [(a, b, max(1, int(round(n * node_factor))))
                                                      for a, b, n in geo["panels"]])
        geo["nodes"] = max(8, int(round(geo["nodes"] * node_factor)))
        geo["half_height"] = geo["half_height"] * truncation_factor
        return make_contour(self.kind, **geo)


def mirrored(kind, origin, u, w, truncation, geometry):
    """The contour origin + u, u its upper half (Im u >= 0) with weights w, and its mirror image.

    The lower half is origin + conj(u) with weights -conj(w).  A node with
    Im u = 0 is its own mirror, so it appears once, and at half weight in
    the upper half.
    """
    return Contour(kind, origin + u, np.where(u.imag == 0, 0.5 * w, w), truncation,
                   geometry, float(np.imag(origin)))


@lru_cache(maxsize=256)
def upper_legendre(half_height, nodes):
    """The t >= 0 half of the Gauss-Legendre rule on [-half_height, half_height].

    A node at t = 0 keeps its whole weight.  Cached, so read-only.
    """
    x, w = _leggauss(nodes)
    keep = x >= 0
    t, w = half_height * x[keep], half_height * w[keep]
    t.flags.writeable = w.flags.writeable = False
    return t, w


def make_contour(kind, *, nodes, **geometry):
    """Build a contour of the given kind with ``nodes`` nodes in all.

    The one kind is ``vertical``, of geometry offset (real part) and
    half_height (truncation).  Wedges are placed adaptively by
    :func:`ray_wedge`.
    """
    nodes = int(nodes)
    if nodes < 8:
        raise ParameterError("contour needs at least 8 nodes, got %d" % nodes)
    if kind != "vertical":
        raise ParameterError("unknown contour kind %r" % (kind,))
    if not geometry["half_height"] > 0:
        raise ParameterError("half_height must be positive, got %r" % (geometry["half_height"],))
    t, wt = upper_legendre(geometry["half_height"], nodes)
    return mirrored(kind, geometry["offset"], 1j * t, 1j * wt, geometry["half_height"],
                    {**geometry, "nodes": nodes})


def adaptive_ray(psi, max_length):
    """Quadrature along a half-line parametrized by arclength tau >= 0.

    ``psi(tau)`` is the complex exponent of a factor ``exp(-psi)`` expected
    to decay; panels are truncated once ``Re psi`` has climbed
    ``DEFAULTS["decay_drop"]`` above its running minimum.  A panel takes 6
    nodes plus 1.5 per radian of the phase ``Im psi`` it spans, at most 400,
    and the ray stops after the panel that passes 20,000 nodes.  Returns
    real (tau, weight) arrays and the panels, as (start, end, nodes).
    """
    probes = [0.0]
    while probes[-1] < max_length:
        probes.append(min(max_length, probes[-1] + 0.2 * (1.0 + 0.25 * probes[-1])))
    probes = np.asarray(probes)
    values = psi(probes)
    re, im = values.real, values.imag
    running_min = np.minimum.accumulate(re)
    alive = re <= running_min + DEFAULTS["decay_drop"]
    last = len(probes) - 1 if alive.all() else max(1, int(np.argmin(alive)))

    panels, total = [], 0
    for k in range(last):
        a, b = probes[k], probes[k + 1]
        slope = abs(im[k + 1] - im[k]) / max(b - a, 1e-300)
        n = int(min(400, max(6, np.ceil((b - a) * slope * 1.5) + 6)))
        panels.append((a, b, n))
        total += n
        if total > 20000:
            break
    return (*_panel_rule(panels), panels)


def _panel_rule(panels):
    """(tau, weight) of Gauss-Legendre panels given as (start, end, nodes)."""
    rules = [gauss_legendre(a, b, n) for a, b, n in panels]
    return np.concatenate([t for t, _ in rules]), np.concatenate([w for _, w in rules])


def _wedge(apex, angle, panels):
    """The wedge through ``apex`` whose upper ray apex + e^{i angle} tau has these panels."""
    u, (tau, wt) = np.exp(1j * angle), _panel_rule(panels)
    return mirrored("wedge", apex, u * tau, u * wt, float(tau.max()),
                    {"apex": apex, "angle": angle, "panels": panels, "nodes": 2 * len(tau)})


def ray_wedge(apex, angle, psi, max_length):
    """Wedge through ``apex`` along the rays at +-``angle``, placed adaptively.

    ``psi(w)`` is the complex exponent of a factor ``exp(-psi(w))`` that
    decays along the upper ray ``apex + e^{i angle} tau``; :func:`adaptive_ray`
    sets its nodes, and the lower ray takes their mirror image (exponents
    with real coefficients decay alike on both).  The path runs upward,
    into the apex along the lower ray and out along the upper one.
    """
    u = np.exp(1j * angle)
    return _wedge(apex, angle, adaptive_ray(lambda t: psi(apex + u * t), max_length)[2])


@dataclass(eq=False)
class SemiInfiniteRule:
    """Quadrature for integrals over [threshold, infinity)."""

    nodes: np.ndarray
    weights: np.ndarray


def semi_infinite_rule(threshold, n=None, length=None):
    """Rule for [threshold, infinity): n Gauss-Legendre nodes on [threshold, threshold + length].

    The truncation ``length`` is ``DEFAULTS["semiinf_length"]`` unless given.
    """
    n = DEFAULTS["nystrom_nodes_per_slot"] if n is None else int(n)
    length = DEFAULTS["semiinf_length"] if length is None else float(length)
    if n < 8:
        raise ParameterError("semi-infinite rule needs n >= 8")
    if length <= 0:
        raise ParameterError("truncation length must be positive")
    return SemiInfiniteRule(*gauss_legendre(threshold, threshold + length, n))
