"""Refactor gates: committed values reproduced to 1e-14.

``data/cdf_golden.json`` holds 32 queries, a few thresholds for each of
the ten CDF families, with the values ``evaluate_cdf`` returned before the
family registry replaced the dispatch chain.  ``data/kernel_golden.json``
holds pointwise and grid values of the contour kernels the CDF table never
calls directly (``s_minus``, ``s_bar``, ``s_hypo_flat``, the rate kernels,
``k_nw``, ``k_flat`` on both of its branches, ``k_delta``, ``j_airy`` in
both contour modes, and Dyson-edge blocks), made before the kernel fills
were merged into one evaluator.  ``data/curve_golden.json`` holds what
``evaluate_curve`` returns over the 5-point grid of each family in
``test_distributions.CURVES``, where one build serves every threshold.
Kernel and curve values are checked to 1e-14 relative to max(1, |value|).

No entry cancels more than a few digits (the arith kernel's zeta side is
an exact residue sum), and every entry of the three tables is the same, bit
for bit, with BLAS on one thread and on two.  The tables were made, and are
checked, in a process with BLAS on one thread all the same: the library
holds its determinants and sketches there, and its fills' products were not
measured on more than two threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noncolliding.distributions import FAMILIES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cdf_golden.json"
CASES = json.loads(GOLDEN.read_text())
KERNEL_GOLDEN = ROOT / "tests" / "data" / "kernel_golden.json"
KERNEL_CASES = json.loads(KERNEL_GOLDEN.read_text())
CURVE_GOLDEN = ROOT / "tests" / "data" / "curve_golden.json"
CURVE_CASES = json.loads(CURVE_GOLDEN.read_text())

EVALUATE = """
import json, sys
from noncolliding.distributions import CdfQuery, evaluate_cdf
cases = json.load(open(sys.argv[1]))
print(json.dumps([evaluate_cdf(CdfQuery(c["family"], c["params"])) for c in cases]))
"""

EVALUATE_CURVES = """
import json, sys
from noncolliding.distributions import CdfQuery, evaluate_curve
cases = json.load(open(sys.argv[1]))
print(json.dumps([evaluate_curve(CdfQuery(c["family"], c["params"]), c["grid"]) for c in cases]))
"""

# a case calls ``module.function(*args, **kwargs)``; with ``block`` = [i, j,
# xs, ys] the result is a block kernel and its (i, j) block on xs x ys is read
EVALUATE_KERNELS = """
import importlib, json, sys
import numpy as np
out = []
for c in json.load(open(sys.argv[1])):
    fn = getattr(importlib.import_module("noncolliding." + c["module"]), c["function"])
    val = fn(*c["args"], **c.get("kwargs", {}))
    if "block" in c:
        i, j, xs, ys = c["block"]
        val = val.eval_block(i, j, np.asarray(xs, float), np.asarray(ys, float))
    out.append(np.ravel(val).tolist())
print(json.dumps(out))
"""


def _one_blas_thread(script, path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def values():
    return _one_blas_thread(EVALUATE, GOLDEN)


@pytest.fixture(scope="module")
def kernel_values():
    return _one_blas_thread(EVALUATE_KERNELS, KERNEL_GOLDEN)


@pytest.fixture(scope="module")
def curve_values():
    return _one_blas_thread(EVALUATE_CURVES, CURVE_GOLDEN)


def test_golden_covers_every_family():
    assert sorted({c["family"] for c in CASES}) == sorted(FAMILIES)


@pytest.mark.parametrize("k", range(len(CASES)),
                         ids=["%s-%d" % (c["family"], k) for k, c in enumerate(CASES)])
def test_golden_value(values, k):
    case = CASES[k]
    assert abs(values[k] - case["value"]) <= 1e-14, (case, values[k])


@pytest.mark.parametrize("k", range(len(KERNEL_CASES)),
                         ids=["%s-%d" % (c["function"], k) for k, c in enumerate(KERNEL_CASES)])
def test_kernel_golden_value(kernel_values, k):
    case = KERNEL_CASES[k]
    assert len(kernel_values[k]) == len(case["value"])
    for got, ref in zip(kernel_values[k], case["value"]):
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (case["function"], got, ref)


def test_curve_golden_covers_every_family():
    assert sorted(c["family"] for c in CURVE_CASES) == sorted(FAMILIES)


@pytest.mark.parametrize("k", range(len(CURVE_CASES)),
                         ids=[c["family"] for c in CURVE_CASES])
def test_curve_golden_values(curve_values, k):
    case = CURVE_CASES[k]
    assert len(curve_values[k]) == len(case["values"]) == len(case["grid"])
    for a, got, ref in zip(case["grid"], curve_values[k], case["values"]):
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref)), (case["family"], a, got, ref)
