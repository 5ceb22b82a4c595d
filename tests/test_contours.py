import numpy as np
import pytest

from noncolliding.contours import gauss_legendre, make_contour, ray_wedge, semi_infinite_rule
from noncolliding.exceptions import ParameterError


def test_node_on_the_axis_appears_once_at_half_weight():
    # an odd Gauss-Legendre rule has a node at t = 0: on the line it is on the
    # axis, its own mirror, so the path holds it once, at its whole weight,
    # and the upper half keeps it at half weight
    t, wt = gauss_legendre(-2.0, 2.0, 9)
    v = make_contour("vertical", offset=0.7, half_height=2.0, nodes=9)
    assert np.allclose(v.nodes, 0.7 + 1j * t, atol=1e-14)
    assert np.allclose(v.weights, 1j * wt, atol=1e-14)
    assert np.count_nonzero(v.nodes.imag == 0) == 1
    assert np.allclose(v.upper_nodes, 0.7 + 1j * t[4:], atol=1e-14)
    assert np.allclose(v.upper_weights, 1j * np.concatenate([[0.5 * wt[4]], wt[5:]]), atol=1e-14)


def test_vertical_gaussian_integral():
    # oint e^{z^2/2} dz over Re z = 1 equals i sqrt(2 pi); oracle: the
    # 1-D Gaussian integral of the parametrized path computed directly
    t, wt = gauss_legendre(-10.0, 10.0, 400)
    oracle = 1j * np.sum(wt * np.exp((1.0 + 1j * t) ** 2 / 2.0))
    v = make_contour("vertical", offset=1.0, half_height=10.0, nodes=400)
    got = v.integrate(lambda z: np.exp(z ** 2 / 2.0))
    assert abs(got - oracle) < 1e-12
    assert abs(got - 1j * np.sqrt(2 * np.pi)) < 1e-10
    # doubling the truncation changes nothing
    v2 = v.refined(node_factor=1, truncation_factor=2.0)
    got2 = v2.integrate(lambda z: np.exp(z ** 2 / 2.0))
    assert abs(got2 - got) < 1e-12


def test_trapezoid_line_gaussian_integral():
    # the trapezoidal rule on Re z = 1, evenly spaced with one node on the axis,
    # converges geometrically on this entire integrand: oint e^{z^2/2} dz = i sqrt(2 pi)
    v = make_contour("trapezoid", offset=1.0, half_height=10.0, nodes=81)
    assert np.allclose(np.diff(v.nodes.imag), 0.25) and np.count_nonzero(v.nodes.imag == 0) == 1
    assert np.allclose(v.weights, 0.25j)
    assert abs(v.integrate(lambda z: np.exp(z ** 2 / 2.0)) - 1j * np.sqrt(2 * np.pi)) < 1e-14


def test_vertical_orientation_upward():
    v = make_contour("vertical", offset=0.5, half_height=3.0, nodes=64)
    assert v.nodes[0].imag < 0 < v.nodes[-1].imag
    assert np.all(v.weights.real == 0) and np.all(v.weights.imag > 0)


def test_wedge_matches_airy_value():
    w = ray_wedge(0.5, np.pi / 3, lambda z: -z ** 3 / 3, 14.0)
    ai0 = w.integrate(lambda z: np.exp(z ** 3 / 3.0)) / (2j * np.pi)
    assert abs(ai0 - 0.3550280538878172) < 1e-12
    assert abs(ai0.imag) < 1e-14


def test_contour_refinement_and_truncation_recorded():
    v = make_contour("vertical", offset=0.0, half_height=8.0, nodes=200)
    assert v.truncation == 8.0
    v2 = v.refined(2, truncation_factor=1.5)
    assert v2.truncation == 12.0
    assert len(v2.nodes) > len(v.nodes)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_contour("vertical", offset=0.0, half_height=-1.0, nodes=64)
    with pytest.raises(ParameterError):
        make_contour("vertical", offset=0.0, half_height=1.0, nodes=4)
    for kind in ("pentagon", "circle", "rectangle"):
        with pytest.raises(ParameterError, match="unknown contour kind"):
            make_contour(kind, center=0.0, radius=1.0, nodes=64)


def test_semi_infinite_rule_normalization():
    r = semi_infinite_rule(2.0, n=64, length=40.0)
    assert np.all(r.nodes >= 2.0)
    assert np.all(r.weights > 0)
    val = np.sum(r.weights * np.exp(-(r.nodes - 2.0)))
    assert abs(val - 1.0) < 1e-8
    with pytest.raises(ParameterError):
        semi_infinite_rule(0.0, n=4)
    with pytest.raises(ParameterError):
        semi_infinite_rule(0.0, length=-1.0)
