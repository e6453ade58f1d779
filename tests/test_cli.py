"""Command line surface: parsing, outputs, exit codes."""

import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from mixsmooth import cli
from mixsmooth.cli import build_parser, main, parse_function

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


# --- help text stays frozen -----------------------------------------------


def test_main_help_matches_golden():
    assert build_parser().format_help() == (DATA / "help_main.txt").read_text()


@pytest.mark.parametrize("sub", ["norm", "blocks", "modulus", "angle", "sweep", "verify"])
def test_subcommand_help_matches_golden(sub):
    parser = build_parser()
    action = parser._subparsers._group_actions[0]
    assert action.choices[sub].format_help() == (DATA / f"help_{sub}.txt").read_text()


# --- function mini-language ---------------------------------------------------


def test_parse_function_forms():
    assert parse_function("zero").dim == 1
    f = parse_function("cos:3")
    assert sorted(k for (k,), _ in f.nonzero_entries()) == [-3, 3]
    g = parse_function("prod(cos:2,cos:5)")
    assert g.dim == 2 and g.degree == (2, 5)
    h = parse_function("lacunary:rho=1,smax=3")
    assert sorted(k for (k,), _ in h.nonzero_entries() if k > 0) == [1, 2, 4, 8]


def test_parse_function_json_roundtrip(tmp_path):
    f = parse_function("prod(cos:1,cos:2)")
    path = tmp_path / "f.json"
    path.write_text(f.dumps())
    g = parse_function(str(path))
    assert np.array_equal(g.coeffs, f.coeffs)


def test_parse_function_rejects_garbage():
    with pytest.raises(ValueError):
        parse_function("sin:3")


# --- norm subcommand -----------------------------------------------------


def test_norm_lorentz_cosine(capsys):
    code, out, err = run_cli(["norm", "--kind", "lorentz", "--fn", "cos:1", "--p", "2", "--tau", "2"], capsys)
    assert code == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)
    assert "grid-convergence delta" in out


def test_norm_seqB_zero(capsys):
    code, out, _ = run_cli(["norm", "--kind", "seqB", "--fn", "zero", "--b", "0.5"], capsys)
    assert code == 0
    assert float(out.splitlines()[0].split("=")[1]) == 0.0


def test_norm_seqB_sizes_each_axis_by_its_own_degree(capsys, monkeypatch):
    shapes = []

    def recording(f, lp, sp, shape):
        shapes.append(shape)
        return 1.0

    monkeypatch.setattr(cli, "seq_norm_B", recording)
    code, _, _ = run_cli(["norm", "--kind", "seqB", "--fn", "prod(cos:2,cos:128)"], capsys)
    assert code == 0
    assert shapes == [(256, 512), (512, 1024)]


def test_norm_json_record(tmp_path, capsys):
    out_path = tmp_path / "norm.json"
    code, _, _ = run_cli(
        ["norm", "--kind", "lorentz", "--fn", "cos:2", "--p", "3", "--tau", "1.5",
         "--json", str(out_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "lorentz"
    assert doc["p"] == 3.0
    assert doc["value"] > 0.0


def test_ring_violation_is_a_config_error(capsys):
    code, _, err = run_cli(["norm", "--kind", "boldB", "--fn", "cos:0"], capsys)
    assert code == 2
    assert "axis 1" in err


def test_tail_failure_is_a_numeric_error(capsys):
    code, _, err = run_cli(["norm", "--kind", "boldB", "--fn", "cos:32", "--levels", "1"], capsys)
    assert code == 3
    assert "numeric failure" in err


# --- blocks / modulus / angle ---------------------------------------------


def test_blocks_csv_hand_values(capsys):
    code, out, _ = run_cli(
        ["blocks", "--fn", "lacunary:rho=1,smax=2", "--p", "2", "--tau", "2"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["s1", "norm"]
    got = {int(r[0]): float(r[1]) for r in rows[1:]}
    inv = 1.0 / math.sqrt(2.0)
    assert got[1] == pytest.approx(inv, rel=1e-10)
    assert got[2] == pytest.approx(inv / 2.0, rel=1e-10)
    assert got[3] == pytest.approx(inv / 4.0, rel=1e-10)


def test_modulus_csv_monotone(capsys):
    code, out, _ = run_cli(
        ["modulus", "--fn", "cos:3", "--p", "2", "--tau", "2", "--levels", "4"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["nu1", "t1", "omega"]
    omega = [float(r[2]) for r in rows[1:]]
    ts = [float(r[1]) for r in rows[1:]]
    assert ts == sorted(ts, reverse=True)
    assert all(a >= b - 1e-12 for a, b in zip(omega, omega[1:]))


def test_angle_csv_hand_values(capsys):
    code, out, _ = run_cli(
        ["angle", "--fn", "cos:2", "--p", "2", "--tau", "2", "--cutoffs", "1,3"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["l1", "angle_residual", "kernel_residual"]
    by_cut = {int(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    assert by_cut[1][0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)
    assert by_cut[3][0] == pytest.approx(0.0, abs=1e-12)
    # kernel route never undercuts the exact residual
    assert by_cut[1][1] >= by_cut[1][0] - 1e-9


# --- sweeps ------------------------------------------------------------------


def test_sweep_kernel_moment_slope(capsys):
    code, out, _ = run_cli(
        ["sweep", "--kind", "kernel-moment", "--l-min", "8", "--l-max", "128", "--mu", "1"],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["l", "mu", "moment"]
    ls = np.array([float(r[0]) for r in rows[1:]])
    ms = np.array([float(r[2]) for r in rows[1:]])
    slope = np.polyfit(np.log(ls), np.log(ms), 1)[0]
    assert abs(slope - (-1.0)) < 0.15


def test_sweep_modulus_matches_closed_form(capsys):
    code, out, _ = run_cli(
        ["sweep", "--kind", "modulus", "--fn", "cos:1", "--p", "2", "--tau", "2",
         "--steps", "8"],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["t", "omega"]
    for r in rows[1:]:
        t, om = float(r[0]), float(r[1])
        assert om == pytest.approx(math.sqrt(2.0) * math.sin(min(t, math.pi) / 2.0), abs=1e-3)


def test_sweep_empty_range_header_only(capsys):
    code, out, _ = run_cli(
        ["sweep", "--kind", "kernel-moment", "--l-min", "64", "--l-max", "8"], capsys
    )
    assert code == 0
    assert out.strip() == "l,mu,moment"


# --- verify ------------------------------------------------------------------


def test_verify_single_check(tmp_path, capsys):
    out_dir = tmp_path / "v"
    code, out, _ = run_cli(
        ["verify", "--check", "thm1", "--m", "1", "--seed", "7", "--max-degree", "8",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "thm1: pass" in out
    doc = json.loads((out_dir / "thm1.json").read_text())
    assert doc["verdict"] == "pass"
    assert (out_dir / "thm1.csv").exists()


def test_verify_unknown_check_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["verify", "--check", "lemma99", "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "lemma99" in err


@pytest.mark.parametrize("h_grid", ["0", "1"])
def test_verify_h_grid_below_two_is_config_error(tmp_path, capsys, h_grid):
    code, out, err = run_cli(
        ["verify", "--check", "lemma1_deriv", "--max-degree", "8", "--no-stability",
         "--h-grid", h_grid, "--out", str(tmp_path / "v")],
        capsys,
    )
    assert code == 2
    assert f"h_grid must be >= 2, got {h_grid}" in err
    assert "pass" not in out


@pytest.mark.parametrize(
    "args",
    [
        ["modulus", "--fn", "cos:3", "--h-grid", "-3"],
        ["modulus", "--fn", "prod(cos:2,cos:3)", "--levels", "3", "--h-grid", "1"],
        ["norm", "--kind", "boldB", "--fn", "cos:3", "--h-grid", "0"],
        ["sweep", "--kind", "modulus", "--fn", "cos:3", "--steps", "2", "--h-grid", "1"],
    ],
)
def test_h_grid_below_two_is_config_error(capsys, args):
    # every modulus lattice takes at least its two endpoints
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert f"h_grid must be >= 2, got {args[-1]}" in err
    assert out == ""


@pytest.mark.parametrize(
    "args, flag",
    [
        (["verify", "--check", "thm1", "--k", "1.7"], "k"),
        (["verify", "--check", "thm1", "--k", "0.5"], "k"),
        (["modulus", "--fn", "cos:3", "--levels", "2.9"], "levels"),
        (["norm", "--kind", "boldB", "--fn", "cos:3", "--levels", "2.5"], "levels"),
        (["angle", "--fn", "prod(cos:2,cos:3)", "--k", "1,inf"], "k"),
        (["modulus", "--fn", "cos:3", "--levels", "nan"], "levels"),
    ],
)
def test_non_integer_int_flags_are_config_errors(tmp_path, capsys, args, flag):
    if args[0] == "verify":
        args = args + ["--out", str(tmp_path / "v")]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert f"error: --{flag} wants integers" in err
    assert out == ""


def test_int_flags_take_integral_floats():
    assert cli._int_list("1,2.0", 2, "k") == (1, 2)
    assert cli._int_list("3", 2, "levels") == (3, 3)


def test_verify_thread_env(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MIXSMOOTH_THREADS", "2")
    out_dir = tmp_path / "v2"
    code, out, _ = run_cli(
        ["verify", "--check", "lp_equivalence", "--m", "1", "--max-degree", "8",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "lp_equivalence: pass" in out
