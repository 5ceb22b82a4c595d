"""Fredholm-determinant laws for extremal particles of noncolliding
Brownian systems, cross-validated by independent Monte Carlo samplers.

The library evaluates, as numerically assembled Fredholm determinants,
the distribution of:

- the rescaled top eigenvalue of an arithmetic spectrum perturbed by GUE
  noise (a Gamma-ratio contour kernel);
- finite-dimensional laws of the Airy process and of the edge-rescaled
  largest eigenvalue of Hermitian Brownian motion started from a general
  spectrum;
- boundary-driven Brownian last passage percolation (narrow-wedge and
  flat boundaries) at one or several times;
- the point-to-line passage value with exponential rates, the largest
  eigenvalue of the (n+1) x n Gaussian Gram ensemble, and running or
  all-time maxima of the top path among noncolliding Brownian bridges.

Every formula is backed by a sampler in :mod:`noncolliding.montecarlo`
and by exact small-case oracles; the ``noncolliding`` command line
evaluates CDFs, runs samplers, and replays the comparison suite.
"""

from .contours import Contour, SemiInfiniteRule, make_contour, semi_infinite_rule
from .defaults import DEFAULTS, DEFAULTS_VERSION
from .discrete import (GeomParams, drift_params, q_geom, s_geom,
                       sample_geom_lpp, sbar_geom, scaling_bridge, transition_prob,
                       to_tilde, from_tilde, w_coeff, w_tilde)
from .distributions import (CdfQuery, EdgeScaling, airy_fdd, cdf_arithmetic_limit,
                            cdf_blpp, cdf_bridge_allmax, cdf_bridge_runningmax,
                            cdf_dyson_edge, cdf_loe_max, cdf_piflat, edge_scaling,
                            evaluate_cdf, f_class_bounds, f_class_contains)
from .fredholm import (BlockKernel, DetResult, apply_conjugation, det_nystrom,
                       det_ratio, det_series, single_slot_kernel)
from .kernels import (BoundaryFunction, airy_kernel_ext, heat_op_full, heat_op_half, j_airy,
                      k_bridge, k_delta, k_flat, k_loe, k_nw, k_piflat, s_bar,
                      s_hypo_flat, s_minus)
from .montecarlo import (dkw_band, empirical_cdf, sample_arith_max,
                         sample_blpp, sample_bridge_topmax, sample_dyson_max,
                         sample_gue, sample_loe_max, sample_piflat)
from .rng import RngStream, rng_gaussian
from .special import airy_function, complex_gamma, heat_kernel, hermitian_eigen_max

__version__ = "0.1.0"
