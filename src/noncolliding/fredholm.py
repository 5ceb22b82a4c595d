"""Fredholm determinant engines over semi-infinite block domains.

A :class:`BlockKernel` couples k time slots, each carrying a semi-infinite
interval [a_i, infinity) truncated at a recorded length.  ``det_nystrom``
discretizes with symmetrized square-root weights and takes a dense LU
determinant; ``det_series`` sums the alternating series of k-fold grid
integrals (through Newton's identities, which reproduce exactly the same
multiple sums without factorial enumeration).  Both engines must agree on
trace-class kernels; conjugating a kernel changes neither.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .contours import semi_infinite_rule
from .defaults import DEFAULTS
from .exceptions import EvaluationError, ParameterError


@dataclass(eq=False)
class BlockKernel:
    """Extended kernel over {slots} x [a_i, infinity) with vectorized blocks.

    ``eval_block(i, j, xs, ys)`` returns the (len(xs), len(ys)) sample
    matrix of block (i, j).
    """

    times: np.ndarray
    thresholds: np.ndarray
    eval_block: callable
    lengths: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.thresholds = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        self.lengths = np.broadcast_to(np.asarray(self.lengths, dtype=float),
                                       self.thresholds.shape).copy()
        if len(self.times) != len(self.thresholds):
            raise ParameterError("times and thresholds must have equal length")

    @property
    def k(self):
        return len(self.times)

    def eval(self, i, x, j, y):
        """Pointwise kernel value K(i, x; j, y)."""
        if not (0 <= i < self.k and 0 <= j < self.k):
            raise ParameterError("slot indices must lie in 0..%d" % (self.k - 1))
        return float(self.eval_block(i, j, np.atleast_1d(float(x)),
                                     np.atleast_1d(float(y)))[0, 0])


def single_slot_kernel(f, threshold, length=None, label=""):
    """Wrap a stationary kernel f(xs, ys) -> matrix as a one-slot BlockKernel."""
    length = DEFAULTS["semiinf_length"] if length is None else length
    return BlockKernel(np.array([1.0]), np.array([float(threshold)]),
                       lambda i, j, xs, ys: f(xs, ys), np.array([length]), label)


def apply_conjugation(K, c):
    """Kernel scaled by c(i, x)/c(j, y); the determinant is unchanged.

    ``c`` must be strictly positive on the grid (checked at assembly).
    """

    def conjugated(i, j, xs, ys):
        ci = np.asarray(c(i, np.asarray(xs, dtype=float)), dtype=float)
        cj = np.asarray(c(j, np.asarray(ys, dtype=float)), dtype=float)
        if np.any(ci <= 0) or np.any(cj <= 0):
            raise ParameterError("conjugation factor must be positive on the grid")
        return K.eval_block(i, j, xs, ys) * np.outer(ci, 1.0 / cj)

    return BlockKernel(K.times, K.thresholds, conjugated, K.lengths,
                       label=K.label + "+conj")


@dataclass
class DetResult:
    """A determinant value with its refinement trail."""

    value: float
    resolution: int
    truncation: float
    history: list = field(default_factory=list)
    error_estimate: float = np.nan
    converged: bool = True
    last_term: float = None
    warning: str = None

    def __float__(self):
        return float(self.value)


def _resolution(nodes_per_slot):
    n = DEFAULTS["nystrom_nodes_per_slot"] if nodes_per_slot is None else int(nodes_per_slot)
    if n < 8:
        raise ParameterError("need nodes_per_slot >= 8")
    return n


def _rules(K, nodes_per_slot):
    return [semi_infinite_rule(K.thresholds[i], nodes_per_slot, K.lengths[i])
            for i in range(K.k)]


def slot_nodes(K, nodes_per_slot=None):
    """The Nystrom nodes of each slot of K: where det_nystrom fills it at this resolution."""
    return [rule.nodes for rule in _rules(K, _resolution(nodes_per_slot))]


def _assemble(K, nodes_per_slot):
    rules = _rules(K, nodes_per_slot)
    size = nodes_per_slot * K.k
    A = np.empty((size, size))
    for i in range(K.k):
        si = slice(i * nodes_per_slot, (i + 1) * nodes_per_slot)
        wi = np.sqrt(rules[i].weights)
        for j in range(K.k):
            sj = slice(j * nodes_per_slot, (j + 1) * nodes_per_slot)
            block = K.eval_block(i, j, rules[i].nodes, rules[j].nodes)
            if not np.all(np.isfinite(block)):
                p, q = np.argwhere(~np.isfinite(np.asarray(block)))[0]
                raise EvaluationError(
                    "non-finite kernel sample at (slot %d, x=%.6g; slot %d, y=%.6g)"
                    % (i, rules[i].nodes[p], j, rules[j].nodes[q]),
                    point=(i, float(rules[i].nodes[p]), j, float(rules[j].nodes[q])))
            A[si, sj] = block * np.outer(wi, np.sqrt(rules[j].weights))
    return A


@cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or no-ops without it.

    Looked up on first use, so importing the package stays cheap.  numpy's wheels
    ship it as ``numpy.libs/libscipy_openblas64_*.so``, which numpy has loaded.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
        return get, put
    return (lambda: None), (lambda threads: None)


@contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, its count restored after.

    The Nystrom products are small: waking a second BLAS thread from idle cost
    three 30-point rate-kernel curves about 1 s against 0.1 s on one thread.
    """
    get, put = _openblas_threads()
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def _lu_det(A):
    sign, logdet = np.linalg.slogdet(np.eye(len(A)) - A)
    return float(sign * np.exp(logdet))


def det_nystrom(K, nodes_per_slot=None, refine=True):
    """Nystrom determinant det(I - W^1/2 K W^1/2) on the block domain.

    With ``refine`` the determinant is also computed at half resolution and
    the difference reported as the error estimate.  Assembly and LU run on
    one BLAS thread (:func:`_one_blas_thread`).
    """
    n = _resolution(nodes_per_slot)
    history = []
    with _one_blas_thread():
        if refine and n >= 16:
            history.append((n // 2, _lu_det(_assemble(K, n // 2))))
        value = _lu_det(_assemble(K, n))
    history.append((n, value))
    err = abs(history[-1][1] - history[0][1]) if len(history) > 1 else np.nan
    return DetResult(value=value, resolution=n, truncation=float(K.lengths.max()),
                     history=history, error_estimate=err)


def det_series(K, max_order=None, nodes_per_slot=None):
    """Truncated Fredholm series 1 + sum_k (-1)^k/k! * k-fold grid integrals.

    The k-fold integrals of det[K(z_a, z_b)] over the quadrature grid equal
    k! e_k(A) for the weighted sample matrix A, so the series is summed via
    Newton's identities on the traces of A^j.  The magnitude of the last
    term is reported as a convergence gauge; if it exceeds 1e-6 the result
    carries a non-convergence warning.
    """
    order = DEFAULTS["series_max_order"] if max_order is None else int(max_order)
    if order > 10:
        raise ParameterError("max_order is capped at 10")
    if order < 1:
        raise ParameterError("need max_order >= 1")
    n = DEFAULTS["nystrom_nodes_per_slot"] if nodes_per_slot is None else int(nodes_per_slot)
    A = _assemble(K, n)
    powers = np.eye(len(A))
    traces = []
    for _ in range(order):
        powers = powers @ A
        traces.append(np.trace(powers))
    e = [1.0]
    for k in range(1, order + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * traces[i - 1]
        e.append(acc / k)
    value = float(sum((-1.0) ** k * e[k] for k in range(order + 1)))
    last = abs(e[order])
    warning = None if last <= 1e-6 else (
        "series last term %.3g exceeds 1e-6; increase max_order" % last)
    return DetResult(value=value, resolution=n, truncation=float(K.lengths.max()),
                     history=[(n, value)], error_estimate=last,
                     converged=last <= 1e-6, last_term=last, warning=warning)


def det_ratio(beta, a):
    """Determinant-ratio law of the all-time maximum with negative drifts.

    det(beta_i^{j-1} - e^{-2 beta_i a} (-beta_i)^{j-1}) / det(beta_i^{j-1})
    by LU with partial pivoting; requires a >= 0 and pairwise distinct
    positive rates (the denominator is a Vandermonde determinant).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if np.any(beta <= 0):
        raise ParameterError("rates must be positive")
    if not a >= 0:
        raise ParameterError("need a >= 0")
    n = len(beta)
    if n > 1 and np.min(np.abs(np.subtract.outer(beta, beta))[~np.eye(n, dtype=bool)]) < 1e-12:
        raise ParameterError("repeated rates make the Vandermonde singular; "
                             "perturb the beta_i slightly")
    j = np.arange(n)
    vand = beta[:, None] ** j[None, :]
    numer = vand - np.exp(-2.0 * beta * a)[:, None] * (-beta[:, None]) ** j[None, :]
    return float(np.linalg.det(numer) / np.linalg.det(vand)) + 0.0  # unsigns a 0 at a = 0
