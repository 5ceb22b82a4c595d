import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from noncolliding import cli
from noncolliding.distributions import FAMILIES

# a value for every option a CDF family or a sampler can require
OPTION_VALUES = {"beta": "1,2", "n": "2", "nu": "0,0.1", "s": "0.5", "delta": "2",
                 "mu": "-0.5,-1", "times": "0", "t": "1"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cdf_piflat_grid_example(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--family", "piflat", "--beta", "1",
                           "--a", "0:2:0.5")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "threshold,value,resolution,error_estimate"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    at_half = float(rows[1][1])
    assert abs(at_half - (1 - math.exp(-1.0))) < 1e-10
    # 12 significant digits
    assert rows[1][1] == "%.12g" % at_half


def test_readme_arith_example_with_negative_grid(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(l for l in readme.read_text().splitlines()
                if l.startswith("noncolliding cdf --family arith"))
    assert "--a -2:2:1" in line
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err
    rows = [l.split(",") for l in out.splitlines()
            if l and not l.startswith(("#", "threshold"))]
    assert [float(r[0]) for r in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_negative_list_after_option(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--family", "blpp-nw", "--mu", "-0.5,-1",
                           "--times", "1", "--a", "-1,0.5")
    assert code == 0
    assert len([l for l in out.splitlines() if l and not l.startswith(("#", "threshold"))]) == 2


def test_cdf_loe_example(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--family", "loe", "--n", "1", "--a", "1")
    assert code == 0
    val = float(out.splitlines()[-1].split(",")[1])
    assert abs(val - (1 - math.exp(-2.0))) < 1e-10


def test_missing_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "cdf", "--family", "piflat", "--a", "1")
    assert code == 2
    assert "usage" in err


def test_unknown_family_exits_2(capsys):
    code, _, err = run_cli(capsys, "cdf", "--family", "weird", "--a", "1")
    assert code == 2


def test_simulate_deterministic_and_mean(capsys):
    args = ("simulate", "--family", "piflat", "--n", "1", "--beta", "2",
            "--samples", "20000", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "# seed: 7" in out1
    vals = np.array([float(l.split(",")[1]) for l in out1.splitlines()
                     if l and not l.startswith(("#", "index"))])
    assert abs(vals.mean() - 0.25) < 3 * 0.25 / math.sqrt(len(vals))


def test_simulate_zero_samples_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--family", "piflat", "--n", "1",
                           "--beta", "2", "--samples", "0")
    assert code == 2


def test_simulate_ecdf_shape(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family", "loe", "--n", "1",
                           "--samples", "2000", "--ecdf", "--seed", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "quantile,value"
    assert len(lines) == 1001


def test_compare_piflat_n2_passes(capsys):
    code, out, _ = run_cli(capsys, "compare", "--experiment", "piflat-n2")
    assert code == 0
    verdict = [l for l in out.splitlines() if l.startswith("verdict,")][0]
    assert verdict.split(",")[1] == "PASS"


def test_compare_seed_zero_is_not_the_default_seed(capsys):
    code0, out0, _ = run_cli(capsys, "compare", "--experiment", "piflat-n2", "--seed", "0")
    code1, out1, _ = run_cli(capsys, "compare", "--experiment", "piflat-n2")
    assert code0 == code1 == 0
    assert "# seed: 0" in out0

    def rows(out):
        return [l for l in out.splitlines() if l.startswith("n=2,")]

    # the grid points are sample quantiles, so they move with the samples
    assert rows(out0) and rows(out0) != rows(out1)


def test_compare_burke_invariance(capsys):
    code, out, _ = run_cli(capsys, "compare", "--experiment", "burke-invariance")
    assert code == 0
    verdict = [l for l in out.splitlines() if l.startswith("verdict,")][0]
    assert float(verdict.split(",")[3]) <= 1e-10


def test_compare_unknown_experiment_lists_known(capsys):
    code, _, err = run_cli(capsys, "compare", "--experiment", "nope")
    assert code == 2
    assert "piflat-n2" in err


def test_numerical_error_exit_code(capsys, monkeypatch):
    def boom(query, grid):
        from noncolliding.exceptions import EvaluationError
        raise EvaluationError("non-finite kernel sample")

    monkeypatch.setattr(cli, "evaluate_curve", boom)
    code, _, err = run_cli(capsys, "cdf", "--family", "loe", "--n", "1", "--a", "1")
    assert code == 1
    assert "numerical error" in err


def test_seed_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("NONCOLLIDING_SEED", "12321")
    _, out, _ = run_cli(capsys, "simulate", "--family", "loe", "--n", "1", "--samples", "3")
    assert "# seed: 12321" in out


def test_output_file_and_metadata(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "cdf", "--family", "detratio", "--beta", "1,2",
                         "--a", "0.5", "--output", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("# noncolliding")
    assert "threshold,value,resolution,error_estimate" in text


def test_show_defaults(capsys):
    code, out, _ = run_cli(capsys, "--show-defaults")
    assert code == 0
    assert "defaults_version: 4" in out and "nystrom_nodes_per_slot" in out
    assert "threads" not in out


def test_console_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "noncolliding.cli", "cdf",
                           "--family", "loe", "--n", "1", "--a", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "threshold,value" in proc.stdout


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [l for l in block.splitlines() if l.startswith("noncolliding ")]
    assert commands, "README 'Command line' lists no command"
    return commands


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(capsys, line):
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows, out
    if "--show-defaults" not in line:  # a header and at least one row of as many fields
        fields = [len(r.split(",")) for r in rows]
        assert len(rows) >= 2 and fields[0] >= 2 and set(fields) == {fields[0]}, out


# every family whose curve shares one build
SHARED_BUILD_CURVES = [
    ("piflat", "--beta", "0.5,1.5", "--a", "0.2:2.2:0.4"),
    ("airy", "--times", "0", "--a", "-3:1:0.5"),
    ("airy", "--times", "0,0.5", "--a", "-2:0:0.5"),
    ("arith", "--delta", "2", "--a", "-1.5:1.5:0.5"),
    ("blpp-flat", "--mu", "-0.5,-1", "--times", "1,2", "--a", "1.5:3:0.5"),
    ("dyson-edge", "--nu", "-1,-0.7,-0.5,-0.2,0", "--times", "0,0.3", "--a", "-2:1:0.5"),
]


def test_repeated_calls_in_one_process_print_the_same(capsys):
    # main reuses one parser; nothing of one call's options reaches the next
    for family, *options in SHARED_BUILD_CURVES:
        args = ("cdf", "--family", family, *options)
        first, second = run_cli(capsys, *args), run_cli(capsys, *args)
        assert first[0] == 0 and first == second, args
        code, coarse, _ = run_cli(capsys, *args, "--nodes", "32")
        assert code == 0 and "nodes=32" in coarse and ",32," in coarse
        assert run_cli(capsys, *args) == first, args


@pytest.mark.parametrize("grid", ["1:0:1", "1:2", "0:1:0"])
def test_empty_or_malformed_grid_exits_2(capsys, grid):
    # an empty start:stop:step grid used to print only the header and exit 0
    code, out, err = run_cli(capsys, "cdf", "--family", "loe", "--n", "1", "--a", grid)
    assert code == 2
    assert "threshold" not in out
    assert "argument --a" in err


def test_malformed_number_exits_2(capsys):
    # argparse type errors used to escape main as SystemExit(2)
    code, out, err = run_cli(capsys, "cdf", "--family", "loe", "--n", "abc", "--a", "1")
    assert code == 2
    assert out == ""
    assert "argument --n" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--help")
    assert code == 0
    assert "--family" in out


def test_threads_option_is_gone(capsys):
    # a curve's determinants run in the calling thread; there is no pool to size
    code, out, err = run_cli(capsys, "cdf", "--family", "loe", "--n", "1", "--a", "1",
                             "--threads", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --threads 2" in err


def test_no_command_exits_2(capsys):
    assert cli.main([]) == 2


def _usage_error(err):
    return next(l for l in err.splitlines() if l.startswith("usage error:"))


def test_error_estimate_column_is_nan(capsys):
    code, out, _ = run_cli(capsys, "cdf", "--family", "loe", "--n", "1", "--a", "0.5:1.5:0.5")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()
            if l and not l.startswith(("#", "threshold"))]
    assert len(rows) == 3
    assert all(r[3] == "nan" for r in rows)


@pytest.mark.parametrize("command,table,extra", [
    ("cdf", FAMILIES, ("--a", "1")),
    ("simulate", cli.SAMPLERS, ("--samples", "5")),
])
def test_each_missing_option_exits_2_and_is_named(capsys, command, table, extra):
    for family, entry in table.items():
        for left_out in entry.options:
            argv = [command, "--family", family, *extra]
            for name in entry.options:
                if name != left_out:
                    argv += ["--" + name, OPTION_VALUES[name]]
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, (family, left_out)
            assert re.findall(r"--[a-z-]+", _usage_error(err)) == ["--" + left_out], err


@pytest.mark.parametrize("command,table,extra", [
    ("cdf", FAMILIES, ("--a", "1")),
    ("simulate", cli.SAMPLERS, ("--samples", "5")),
])
def test_unknown_family_lists_known_families(capsys, command, table, extra):
    code, _, err = run_cli(capsys, command, "--family", "weird", *extra)
    assert code == 2
    message = _usage_error(err)
    assert all(name in message for name in table)



@pytest.mark.parametrize("family", sorted(cli.SAMPLERS))
def test_simulate_one_sample_prints_one_row(capsys, family):
    # dyson-max at one time and nu 0,0 is the tridiagonal path
    values = dict(OPTION_VALUES, times="1", nu="0,0")
    argv = ["simulate", "--family", family, "--samples", "1"]
    for name in cli.SAMPLERS[family].options:
        argv += ["--" + name, values[name]]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "index,value" and len(rows) == 2 and rows[1].startswith("0,")


@pytest.mark.parametrize("argv", [
    ["cdf", "--family", "loe", "--n", "0", "--a=1"],
    ["simulate", "--family", "loe", "--n", "0", "--samples", "3"],
    ["simulate", "--family", "bridge-topmax", "--n", "0", "--s", "0.5", "--samples", "2"],
    ["simulate", "--family", "blpp-nw", "--mu", "0", "--t", "-1", "--samples", "2"],
    ["cdf", "--family", "bridge-runmax", "--n", "2", "--s", "1", "--a=-1"],
    ["cdf", "--family", "detratio", "--beta", "1,1", "--a=-1"],
    ["cdf", "--family", "piflat", "--beta=-1,2", "--a=-1"],
], ids=["cdf-loe-n0", "simulate-loe-n0", "simulate-bridge-topmax-n0", "simulate-blpp-nw-t-1",
        "cdf-bridge-runmax-s1-a-1", "cdf-detratio-repeated-rates-a-1",
        "cdf-piflat-negative-rate-a-1"])
def test_parameter_outside_its_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("parameter error:"), err
    assert "index,value" not in out


def test_bridge_allmax_grid_across_zero_is_monotone(capsys):
    # the top bridge starts at max(nu, 0) = 0, so the law is 0 up to r = 0
    code, out, _ = run_cli(capsys, "cdf", "--family", "bridge-allmax", "--nu=0,0",
                           "--a=-1:2:0.25")
    assert code == 0
    rows = np.array([[float(v) for v in l.split(",")[:2]] for l in out.splitlines()
                     if l and not l.startswith(("#", "threshold"))])
    r, values = rows[:, 0], rows[:, 1]
    assert len(r) == 13
    assert np.all(values[r <= 0] == 0.0) and np.all(values[r > 0] > 0.0)
    assert np.all(np.diff(values) >= 0.0), values


def test_detratio_grid_across_zero_is_monotone(capsys):
    # the all-time maximum is at least 0, so the law is 0 up to a = 0
    code, out, err = run_cli(capsys, "cdf", "--family", "detratio", "--beta", "1,2",
                             "--a=-1:1:0.5")
    assert code == 0, err
    rows = [l.split(",")[:2] for l in out.splitlines()
            if l and not l.startswith(("#", "threshold"))]
    a, values = np.array([[float(v) for v in r] for r in rows]).T
    assert list(a) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert [r[1] for r in rows[:3]] == ["0", "0", "0"]
    assert np.all(values[a > 0] > 0.0) and np.all(np.diff(values) >= 0.0), values
