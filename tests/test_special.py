import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncolliding.exceptions import PoleError, RangeError, ValidationError
from noncolliding.special import (airy_function, complex_gamma, erfcx, heat_kernel,
                                  hermitian_eigen_max, _airy_any_real)

GAMMA_THIRD = 2.678938534707748        # Gamma(1/3)
GAMMA_TWO_THIRDS = 1.3541179394264005  # Gamma(2/3)


def test_gamma_known_values():
    assert abs(complex_gamma(1.0) - 1.0) < 1e-13
    assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-12
    # modulus identity |Gamma(1 + i v)|^2 = pi v / sinh(pi v) at v = 1
    assert abs(abs(complex_gamma(1 + 1j)) ** 2 - math.pi / math.sinh(math.pi)) < 1e-12


def test_gamma_functional_equation_on_strip():
    rng = np.random.default_rng(0)
    z = rng.uniform(-49, 49, 100) + 1j * rng.uniform(-30, 30, 100)
    z = z[np.abs(z - np.round(z.real)) > 1e-3]
    rel = np.abs(complex_gamma(z + 1) - z * complex_gamma(z)) / np.abs(complex_gamma(z + 1))
    assert rel.max() < 1e-10


def test_gamma_pole_error_carries_location():
    with pytest.raises(PoleError) as err:
        complex_gamma(-3.0 + 1e-12j)
    assert err.value.pole == -3
    with pytest.raises(PoleError):
        complex_gamma(0.0)


def test_gamma_truncated_weierstrass_product():
    # 1/Gamma(z) = z e^{g z} prod_{i>=1} (1 + z/i) e^{-z/i}; truncating after
    # n-1 factors errs by at most C |z|^2 sum_{i>=n} i^-2 ~ C |z|^2 / n
    z = 0.5 + 1j
    n = 10 ** 6
    i = np.arange(1, n, dtype=float)
    log_prod = np.sum(np.log1p(z / i) - z / i)
    trunc = 1.0 / (z * np.exp(np.euler_gamma * z) * np.exp(log_prod))
    rel = abs(trunc - complex_gamma(z)) / abs(complex_gamma(z))
    assert rel < 10.0 * abs(z) ** 2 / n


def test_erfcx_matches_scipy_and_40_digit_values():
    special = pytest.importorskip("scipy.special")
    mp = pytest.importorskip("mpmath")
    x = np.concatenate([np.linspace(-5.0, 1.0, 60001), np.geomspace(1.0, 1e4, 20001)])
    rel = np.abs(erfcx(x) / special.erfcx(x) - 1.0)
    assert rel[x >= -4.0].max() <= 2e-15
    # below -4 scipy exponentiates a rounded x^2 and is itself 1.9e-15 off
    assert rel.max() <= 3e-15
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-5.0, 5.0, 300),
                        np.exp(rng.uniform(np.log(5.0), np.log(1e4), 200))])
    with mp.workdps(40):
        want = np.array([float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v))) for v in x])
    assert np.max(np.abs(erfcx(x) / want - 1.0)) <= 5e-16
    assert erfcx(0.0) == 1.0 and erfcx(np.zeros((2, 3))).shape == (2, 3)


def test_heat_kernel_values_and_symmetry():
    assert abs(heat_kernel(1.0, 0.0, 0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15
    with pytest.raises(Exception):
        heat_kernel(0.0, 0.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 30.0), st.floats(-20, 20), st.floats(-20, 20))
def test_heat_kernel_symmetric_in_xy(t, x, y):
    assert heat_kernel(t, x, y) == heat_kernel(t, y, x)


def test_heat_kernel_normalization_by_quadrature():
    y, w = np.polynomial.legendre.leggauss(200)
    y, w = 12.0 * y, 12.0 * w
    assert abs(np.sum(w * heat_kernel(1.0, 0.0, y)) - 1.0) < 1e-10


def test_airy_at_zero_and_decay():
    assert abs(airy_function(0.0) - 3.0 ** (-2.0 / 3.0) / GAMMA_TWO_THIRDS) < 1e-12
    v = airy_function(10.0)
    assert 0 < v < 1e-9
    assert v < math.exp(-(2.0 / 3.0) * 10.0 ** 1.5)  # superexponential bound


def test_airy_square_integral_identity():
    # int_x^inf Ai^2 = Ai'(x)^2 - x Ai(x)^2, checked by quadrature at x = 0
    aip0_sq = (3.0 ** (-1.0 / 3.0) / GAMMA_THIRD) ** 2
    z, w = np.polynomial.legendre.leggauss(400)
    z, w = 10.0 + 10.0 * z, 10.0 * w  # [0, 20]
    val = np.sum(w * _airy_any_real(z) ** 2)
    assert abs(val - aip0_sq) < 1e-10


def test_airy_ode_invariant_finite_differences():
    h = 1e-3
    for x in (-5.0, -1.0, 0.0, 2.0, 8.0):
        fd = (airy_function(x + h) - 2 * airy_function(x) + airy_function(x - h)) / h ** 2
        assert abs(fd - x * airy_function(x)) < 1e-6


def test_airy_range_guard():
    with pytest.raises(RangeError):
        airy_function(31.0)
    with pytest.raises(RangeError):
        airy_function(-40.0)
    # the internal evaluator keeps going (used by the kernel integrals)
    assert np.isfinite(_airy_any_real(-150.0))


def test_hermitian_eigen_max_basic():
    assert hermitian_eigen_max(np.diag([3.0, 1.0, 2.0])) == 3.0
    assert abs(hermitian_eigen_max(np.array([[0.0, 1.0], [1.0, 0.0]])) - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        hermitian_eigen_max(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        hermitian_eigen_max(np.zeros((2, 3)))


def test_hermitian_eigen_max_char_poly_oracle():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    M = (A + A.conj().T) / 2.0
    roots = np.roots(np.poly(M))
    assert abs(hermitian_eigen_max(M) - np.max(roots.real)) < 1e-9


def test_hermitian_eigen_max_unitary_conjugation():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = (A + A.conj().T) / 2.0
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    M2 = Q @ M @ Q.conj().T
    M2 = (M2 + M2.conj().T) / 2.0  # remove rounding skew
    assert abs(hermitian_eigen_max(M) - hermitian_eigen_max(M2)) < 1e-10
