"""Refactor gate: ``evaluate_cdf`` reproduces committed values to 1e-14.

``data/cdf_golden.json`` holds 32 queries, a few thresholds for each of
the ten CDF families, with the values ``evaluate_cdf`` returned before the
family registry replaced the dispatch chain.  The arith kernel loses about
six digits to cancellation in its Gamma-ratio contour sum, so its last
digits follow the BLAS summation order, which changes with the BLAS thread
count (by up to 6e-10 between one and two threads).  The values were made,
and are checked, in a process with BLAS on one thread.
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

EVALUATE = """
import json, sys
from noncolliding.distributions import CdfQuery, evaluate_cdf
cases = json.load(open(sys.argv[1]))
print(json.dumps([evaluate_cdf(CdfQuery(c["family"], c["params"])) for c in cases]))
"""


@pytest.fixture(scope="module")
def values():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", EVALUATE, str(GOLDEN)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_golden_covers_every_family():
    assert sorted({c["family"] for c in CASES}) == sorted(FAMILIES)


@pytest.mark.parametrize("k", range(len(CASES)),
                         ids=["%s-%d" % (c["family"], k) for k, c in enumerate(CASES)])
def test_golden_value(values, k):
    case = CASES[k]
    assert abs(values[k] - case["value"]) <= 1e-14, (case, values[k])
