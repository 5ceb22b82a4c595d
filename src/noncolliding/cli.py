"""Command line: evaluate CDF families, run samplers, replay comparisons.

Output is CSV on stdout (or ``--output``): ``#``-prefixed metadata
comment lines (seed, version, resolution), a fixed header row, then data
rows with floats printed to 12 significant digits.  Exit codes: 0 on
success, 1 on a numerical failure (a non-finite kernel sample) or a failed
``compare``, 2 on usage errors.
"""

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .defaults import DEFAULTS, show_defaults
from .distributions import FAMILIES, CdfQuery, evaluate_curve
from .exceptions import DomainError, EvaluationError, ParameterError
from .experiments import EXPERIMENTS, run_experiment
from .kernels import BoundaryFunction
from .montecarlo import (sample_arith_max, sample_blpp, sample_bridge_topmax,
                         sample_dyson_max, sample_loe_max, sample_piflat)
from .rng import RngStream


@dataclass(frozen=True)
class Sampler:
    """The options a sampler needs and ``draw(args, stream, count)``."""

    options: tuple
    draw: callable


SAMPLERS = {
    "piflat": Sampler(("beta",), lambda args, stream, n:
                      sample_piflat(args.beta, stream=stream, samples=n)),
    "loe": Sampler(("n",), lambda args, stream, n:
                   sample_loe_max(args.n, stream=stream, samples=n)),
    "blpp-nw": Sampler(("mu", "t"), lambda args, stream, n: sample_blpp(
        BoundaryFunction.narrow_wedge(), args.mu, len(args.mu), args.t,
        grid_step=args.grid_step, stream=stream, paths=n)),
    "blpp-flat": Sampler(("mu", "t"), lambda args, stream, n: sample_blpp(
        BoundaryFunction.flat(), args.mu, len(args.mu), args.t,
        grid_step=args.grid_step, stream=stream, paths=n)),
    "bridge-topmax": Sampler(("n", "s"), lambda args, stream, n: sample_bridge_topmax(
        args.n, args.s, nu=args.nu, grid_step=args.grid_step, stream=stream, paths=n)),
    "arith": Sampler(("n", "delta"), lambda args, stream, n: sample_arith_max(
        args.n, args.delta, 0.0, stream=stream, samples=n)[1]),
    "dyson-max": Sampler(("nu", "times"), lambda args, stream, n: sample_dyson_max(
        args.nu, args.times, stream=stream, samples=n)[..., -1]),
}


class UsageError(Exception):
    pass


def _fmt(v):
    return "%.12g" % float(v)


def _parse_grid(text):
    """'0:2:0.5' -> inclusive range; '1,2,3' -> list; '1.5' -> single value."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3 or parts[2] <= 0 or parts[1] < parts[0]:
            raise argparse.ArgumentTypeError(
                "grid syntax is start:stop:step with step > 0 and stop >= start, got %r" % text)
        start, stop, step = parts
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + k * step for k in range(n)]
    return [float(p) for p in text.split(",")]


def _parse_list(text):
    return [float(p) for p in text.split(",")]


_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv):
    """Glue a value such as '-2:2:1' to its option: '--a', '-2:2:1' -> '--a=-2:2:1'.

    argparse takes a separate token that starts with '-' and is not a plain
    number for an option, so grids and lists with a negative first entry
    would otherwise be rejected.  No option of this parser starts with a
    digit, so such a token is always a value.
    """
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VALUE.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _emit(lines, output):
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args, seed):
    return ["# noncolliding %s" % __version__,
            "# seed: %d" % seed,
            "# resolution: nodes=%s length=%s"
            % (args.nodes or DEFAULTS["nystrom_nodes_per_slot"], args.length or "auto")]


def _lookup(table, args):
    """The table entry of ``--family``, once every option it needs is given."""
    if args.family not in table:
        raise UsageError("unknown family %r; known: %s" % (args.family, ", ".join(table)))
    missing = ["--" + name for name in table[args.family].options if getattr(args, name) is None]
    if missing:
        raise UsageError("%s %s required for family %s" % (
            " and ".join(missing), "is" if len(missing) == 1 else "are", args.family))
    return table[args.family]


def cmd_cdf(args, seed):
    family = _lookup(FAMILIES, args)
    if args.a is None:
        raise UsageError("--a is required (threshold value or grid)")
    grid = args.a
    params = {name: getattr(args, name) for name in family.options}
    if family.threshold == "thresholds":  # the same threshold at every time
        grid_values = [[a] * len(args.times) for a in grid]
    else:
        grid_values = grid
    query = CdfQuery(args.family, params, nodes=args.nodes, length=args.length)
    values = evaluate_curve(query, grid_values)
    lines = _meta(args, seed)
    lines.append("threshold,value,resolution,error_estimate")
    nodes = args.nodes or DEFAULTS["nystrom_nodes_per_slot"]
    for a, v in zip(grid, values):
        lines.append(",".join([_fmt(a), _fmt(v), str(nodes), _fmt(np.nan)]))
    if args.family == "arith" and args.corollary_n:
        n = args.corollary_n
        lines.append("# corollary thresholds: gamma_1 <= n-1+(a+log(n-1))/2 at n=%d" % n)
        for a in grid:
            lines.append("# a=%s -> %s" % (_fmt(a), _fmt(n - 1 + (a + np.log(n - 1)) / 2.0)))
    _emit(lines, args.output)
    return 0


def cmd_simulate(args, seed):
    sampler = _lookup(SAMPLERS, args)
    if args.samples is None or args.samples < 1:
        raise UsageError("--samples must be a positive count")
    samples = np.atleast_1d(sampler.draw(args, RngStream(seed, args.stream), args.samples))
    lines = _meta(args, seed)
    if args.ecdf:
        qs = np.linspace(0.0, 1.0, DEFAULTS["ecdf_points"] + 1)[1:]
        grid = np.quantile(samples, qs)
        lines.append("quantile,value")
        for q, v in zip(qs, grid):
            lines.append("%s,%s" % (_fmt(q), _fmt(v)))
    else:
        lines.append("index,value")
        for k, v in enumerate(samples):
            lines.append("%d,%s" % (k, _fmt(v)))
    _emit(lines, args.output)
    return 0


def cmd_compare(args, seed):
    if args.experiment not in EXPERIMENTS:
        raise UsageError("unknown experiment %r; known: %s"
                         % (args.experiment, ", ".join(sorted(EXPERIMENTS))))
    result = run_experiment(args.experiment, seed=seed)
    lines = _meta(args, seed)
    lines.append("label,point,reference,value,deviation")
    for row in result.rows:
        lines.append(",".join(str(r) if isinstance(r, str) else _fmt(r) for r in row))
    lines.append("# max discrepancy: %s  band+allowance: %s"
                 % (_fmt(result.discrepancy), _fmt(result.allowance)))
    lines.append("verdict," + result.verdict())
    _emit(lines, args.output)
    return 0 if result.passed else 1


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="noncolliding",
        description="Fredholm-determinant laws for noncolliding Brownian systems")
    parser.add_argument("--show-defaults", action="store_true",
                        help="print the versioned defaults table and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--stream", type=int, default=0)
        p.add_argument("--output", default=None)
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--length", type=float, default=None)
        p.add_argument("--family", default=None)
        p.add_argument("--beta", type=_parse_list, default=None)
        p.add_argument("--nu", type=_parse_list, default=None)
        p.add_argument("--mu", type=_parse_list, default=None)
        p.add_argument("--times", type=_parse_list, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--grid-step", type=float, default=None)

    p_cdf = sub.add_parser("cdf", help="evaluate a CDF family on a threshold grid")
    common(p_cdf)
    p_cdf.add_argument("--a", type=_parse_grid, default=None,
                       help="threshold value, comma list, or start:stop:step")
    p_cdf.add_argument("--corollary-n", type=int, default=None,
                       help="with --family arith: also print the positive-definite "
                            "Brownian-motion threshold map at this matrix size")

    p_sim = sub.add_parser("simulate", help="run a sampler and emit samples or an ECDF")
    common(p_sim)
    p_sim.add_argument("--samples", type=int, default=None)
    p_sim.add_argument("--ecdf", action="store_true",
                       help="emit a 1000-point empirical CDF instead of raw samples")

    p_cmp = sub.add_parser("compare", help="run a named determinant-vs-oracle experiment")
    common(p_cmp)
    p_cmp.add_argument("--experiment", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        # argparse exits with 2 on a usage error and 0 after --help; return
        # that code, as every later usage error does
        return exc.code
    if args.show_defaults:
        sys.stdout.write(show_defaults() + "\n")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("NONCOLLIDING_SEED", DEFAULTS["seed"]))
    try:
        if args.command == "cdf":
            return cmd_cdf(args, seed)
        if args.command == "simulate":
            return cmd_simulate(args, seed)
        if args.command == "compare":
            if args.experiment is None:
                raise UsageError("--experiment is required; known: %s"
                                 % ", ".join(sorted(EXPERIMENTS)))
            return cmd_compare(args, seed)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        parser.print_usage(sys.stderr)
        return 2
    except (ParameterError, DomainError) as exc:
        sys.stderr.write("parameter error: %s\n" % exc)
        return 2
    except EvaluationError as exc:
        sys.stderr.write("numerical error: %s\n" % exc)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
