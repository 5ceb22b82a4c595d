import math

import numpy as np
import pytest

from noncolliding import fredholm
from noncolliding.distributions import loe_block, piflat_block
from noncolliding.exceptions import EvaluationError, ParameterError
from noncolliding.fredholm import (apply_conjugation, det_nystrom, det_ratio,
                                   det_series, single_slot_kernel)


def _rank_one_block(threshold=0.0):
    # K(x, y) = e^{-x} e^{-y}: det(I - K) on [a, inf) = 1 - int_a^inf e^{-2x}
    return single_slot_kernel(lambda xs, ys: np.outer(np.exp(-xs), np.exp(-ys)),
                              threshold, length=40.0, label="rank-one")


def test_zero_kernel_gives_one():
    K = single_slot_kernel(lambda xs, ys: np.zeros((len(xs), len(ys))), 0.0)
    assert det_nystrom(K).value == pytest.approx(1.0, abs=1e-14)
    assert det_series(K).value == pytest.approx(1.0, abs=1e-14)


def test_rank_one_determinant():
    res = det_nystrom(_rank_one_block(0.0))
    assert abs(res.value - 0.5) < 1e-12
    assert res.history[-1][0] == res.resolution
    assert abs(res.history[0][1] - res.history[-1][1]) <= res.error_estimate + 1e-15


def test_series_terminates_for_rank_one():
    res = det_series(_rank_one_block(0.0), max_order=6)
    assert abs(res.value - 0.5) < 1e-12
    assert res.last_term < 1e-14  # e_k vanish beyond the rank
    assert res.converged and res.warning is None


def test_engines_agree_on_product_kernels():
    for K in (loe_block(2, 0.5), piflat_block([0.8, 1.6], 0.5)):
        v1 = det_nystrom(K).value
        v2 = det_series(K, max_order=8).value
        assert abs(v1 - v2) < 1e-6


def test_refinement_decreases_geometrically():
    K = loe_block(2, 0.3)
    vals = [det_nystrom(K, n, refine=False).value for n in (16, 32, 64)]
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    assert d2 < d1 * 0.5 or d2 < 1e-12


def test_conjugation_identity_and_validation():
    K = piflat_block([1.0, 2.0], 0.5)
    base = det_nystrom(K).value
    Kc = apply_conjugation(K, lambda i, x: np.exp(-0.4 * np.abs(x)))
    assert abs(det_nystrom(Kc).value - base) < 1e-12
    # kernel values do change pointwise
    assert Kc.eval(0, 0.5, 0, 1.5) != pytest.approx(K.eval(0, 0.5, 0, 1.5), abs=1e-6)
    bad = apply_conjugation(K, lambda i, x: np.zeros_like(x))
    with pytest.raises(ParameterError):
        det_nystrom(bad)
    unit = apply_conjugation(K, lambda i, x: np.ones_like(x))
    assert unit.eval(0, 0.4, 0, 0.9) == pytest.approx(K.eval(0, 0.4, 0, 0.9), abs=1e-15)


def test_non_finite_sample_names_the_point():
    def bad(xs, ys):
        out = np.ones((len(xs), len(ys)))
        out[1, 2] = np.nan
        return out

    K = single_slot_kernel(bad, 0.0)
    with pytest.raises(EvaluationError) as err:
        det_nystrom(K, 16, refine=False)
    assert err.value.point is not None


def test_series_order_guard_and_warning():
    K = _rank_one_block(0.0)
    with pytest.raises(ParameterError):
        det_series(K, max_order=11)
    # order 1 on a non-rank-one kernel leaves a large last term -> warning
    res = det_series(loe_block(3, 0.1), max_order=1)
    assert res.warning is not None and not res.converged


def test_det_ratio_closed_forms():
    beta, a = 0.8, 1.3
    assert abs(det_ratio([beta], a) - (1 - math.exp(-2 * beta * a))) < 1e-14
    for n in (1, 2, 3, 4):
        assert abs(det_ratio(np.linspace(0.5, 2.0, n), 0.0)) < 1e-12  # vanishes at a = 0
    with pytest.raises(ParameterError):
        det_ratio([1.0, 1.0], 0.5)
    with pytest.raises(ParameterError):
        det_ratio([1.0], -0.5)
    with pytest.raises(ParameterError):
        det_ratio([-1.0], 0.5)


@pytest.mark.parametrize("beta", [[1.0, 2.0], [0.5, 1.5, 4.0], [0.3, 0.9, 1.7, 2.2, 3.1],
                                  [2.5, 0.4, 1.1, 0.7]])
def test_det_ratio_is_plus_zero_at_zero(beta):
    # the LU of the numerator's zero column signs its determinant by the pivots,
    # which follow the order of the rates: (2, 1) gave -0.0, printed as -0
    for order in (beta, beta[::-1]):
        value = det_ratio(order, 0.0)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, (order, value)


def test_block_kernel_pointwise_eval():
    K = piflat_block([1.0], 0.0)
    from noncolliding.kernels import k_piflat
    assert K.eval(0, 0.3, 0, 0.7) == pytest.approx(k_piflat([1.0], 0.3, 0.7), rel=1e-12)
    with pytest.raises(ParameterError):
        K.eval(1, 0.3, 0, 0.7)  # slot index outside the declared time list


def test_det_nystrom_holds_blas_at_one_thread():
    # assembly and LU run on one thread of numpy's OpenBLAS, whose count is
    # restored after; without that library both functions are no-ops
    get, _ = fredholm._openblas_threads()
    seen, before = [], get()

    def fill(xs, ys):
        seen.append(get())
        return np.outer(np.exp(-xs), np.exp(-ys))

    det_nystrom(single_slot_kernel(fill, 0.0, length=40.0))
    assert set(seen) <= {1, None} and get() == before
