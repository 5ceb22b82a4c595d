"""Versioned table of numerical defaults.

Every tunable resolution, truncation and seed used by the library lives
here so that reported numbers are reproducible.  ``noncolliding
--show-defaults`` prints this table.
"""

DEFAULTS_VERSION = "4"

DEFAULTS = {
    # quadrature resolutions
    "coefficient_nodes": 2048,
    # decay / truncation policy
    "decay_drop": 45.0,           # exponent drop from the max before truncating: e^-45 < 1e-18
    "semiinf_length": 40.0,
    # Fredholm engines
    "nystrom_nodes_per_slot": 64,
    "series_max_order": 8,
    # Monte Carlo
    "seed": 20260809,
    "blpp_grid": 4096,
    "bridge_grid": 2048,
    "ecdf_points": 1000,
}


def show_defaults():
    lines = ["# defaults_version: %s" % DEFAULTS_VERSION]
    for key in sorted(DEFAULTS):
        lines.append("%s=%r" % (key, DEFAULTS[key]))
    return "\n".join(lines)
