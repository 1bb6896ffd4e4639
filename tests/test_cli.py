"""Command-line entry points: files, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smalljump import generators, oracle
from smalljump.cli import _midline_candidates, build_parser, main
from smalljump.energy import EnergyParams, HookeTensor
from smalljump.grid import (
    DisplacementField,
    GridSpec,
    JumpSet,
    centered_box,
    load_field,
    load_jump,
    save_field,
    save_jump,
)
from smalljump.oracle import brute_force_minimize, deviation_psi0
from tests.oracle_reference import boundary_nodes, full_table


def test_gen_rigid_and_roundtrip(tmp_path):
    out = tmp_path / "field"
    rc = main(["gen", "--spec", "rigid", "--dim", "2", "--cells", "16",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    u = load_field(out)
    j = load_jump(out.with_suffix(".jump.json"), u.grid)
    assert len(j) == 0
    from smalljump.strain import symmetric_gradient
    assert float(np.max(np.abs(symmetric_gradient(u, j)))) < 1e-12


def test_gen_two_motion_crack_area_rounding(tmp_path, capsys):
    out = tmp_path / "crack"
    rc = main(["gen", "--spec", "two-motion-crack", "--dim", "2", "--cells",
               "64", "--area", "0.01", "--seed", "1", "--out", str(out)])
    assert rc == 0
    g = GridSpec(2, 64, 1.0)
    j = load_jump(out.with_suffix(".jump.json"), g)
    assert abs(j.measure() - 0.01) <= g.face_area() + 1e-12


def test_gen_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["gen", "--spec", "random-cracks", "--dim", "2", "--cells",
                   "32", "--seed", "7", "--count", "2", "--out", str(out)])
        assert rc == 0
        outs.append((out.with_suffix(".bin").read_bytes(),
                     out.with_suffix(".jump.json").read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("spec", ["random-cracks", "rigid-patches"])
@pytest.mark.parametrize("dim,cells", [(2, 8), (2, 16), (3, 8), (3, 16)])
def test_gen_patches_on_too_small_a_grid_is_a_regime_error(tmp_path, capsys,
                                                           spec, dim, cells):
    rc = main(["gen", "--spec", spec, "--dim", str(dim), "--cells", str(cells),
               "--count", "1", "--seed", "1", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("regime violation: grid too small for the patch extent")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "x.bin").exists()


def test_gen_bad_spec_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen", "--spec", "nonsense", "--out", str(tmp_path / "x")])


def test_approx_rigid_exit_zero_and_reports(tmp_path):
    base = tmp_path / "rigid"
    main(["gen", "--spec", "rigid", "--dim", "2", "--cells", "64",
          "--seed", "2", "--out", str(base)])
    out = tmp_path / "run"
    rc = main(["approx", "--field", str(base),
               "--jump", str(base.with_suffix(".jump.json")),
               "--eta", "0.5", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["properties"]["pass"]
    assert all(c["realized_constant"] in (0.0, None) or
               c["realized_constant"] < 1e-9
               for c in report["properties"]["checks"])
    u_t = load_field(out / "u_tilde")
    u0 = load_field(base)
    assert float(np.max(np.abs(u_t.values - u0.values))) <= 1e-12
    covering = json.loads((out / "covering.json").read_text())
    assert covering["bad_voxels"] == []


def test_approx_regime_violation_exit_two(tmp_path):
    base = tmp_path / "big"
    main(["gen", "--spec", "two-motion-crack", "--dim", "2", "--cells", "64",
          "--area", "0.5", "--seed", "5", "--out", str(base)])
    rc = main(["approx", "--field", str(base),
               "--jump", str(base.with_suffix(".jump.json")),
               "--eta", "0.1", "--out", str(tmp_path / "run2")])
    assert rc == 2


def test_approx_deterministic_report_bytes(tmp_path):
    base = tmp_path / "field"
    main(["gen", "--spec", "random-cracks", "--dim", "2", "--cells", "64",
          "--seed", "9", "--count", "2", "--out", str(base)])
    payloads = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["approx", "--field", str(base),
                   "--jump", str(base.with_suffix(".jump.json")),
                   "--eta", "0.5", "--out", str(out)])
        assert rc == 0
        payloads.append((out / "report.json").read_bytes()
                        + (out / "u_tilde.bin").read_bytes())
    assert payloads[0] == payloads[1]


def test_verify_subcommand(tmp_path):
    base = tmp_path / "field"
    main(["gen", "--spec", "smooth-sinusoid", "--dim", "2", "--cells", "64",
          "--seed", "4", "--out", str(base)])
    rc = main(["verify", "--field", str(base),
               "--jump", str(base.with_suffix(".jump.json")),
               "--eta", "0.5", "--out", str(tmp_path / "verify.json")])
    assert rc == 0
    assert (tmp_path / "verify.json").exists()


def test_oracle_beta_huge_empty_bitset(tmp_path):
    out = tmp_path / "oracle"
    rc = main(["oracle", "--dim", "2", "--cells", "8", "--n-candidates", "6",
               "--kappa", "2.0", "--beta", "1e6", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["best_bits"]) == {"0"}
    assert summary["psi0"] >= -1e-9
    lines = (out / "configs.csv").read_text().splitlines()
    assert lines[0] == "bits,bulk,fidelity,surface,total"
    # the rows are the search's, each the full table's row for its bits,
    # and the winner's is among them
    g = GridSpec(2, 8, 1.0)
    target = generators.split_target(g, seed=1)
    params = EnergyParams(HookeTensor(1.0, 1.0), p=2.0, kappa=2.0, beta=1e6,
                          g=target)
    cands = _midline_candidates(g, 6, False)
    res = brute_force_minimize(g, cands, params)
    rows = np.array([(int(b[::-1], 2), *map(float, v)) for b, *v in (
        line.split(",") for line in lines[1:])], dtype=oracle.CONFIG_DTYPE)
    assert rows.tobytes() == res.per_config.tobytes()
    table = full_table(oracle.ConfigurationEnergies(
        oracle.ElasticSystem(g, params), res.best_config.candidates, JumpSet(g)))
    assert rows.tobytes() == table[rows["bits"]].tobytes()
    assert res.best_config.active_bits in rows["bits"]

    # the homogeneous minimizer of the same instance on Dirichlet data
    # from the target is not zero, and it is its own best competitor
    res = brute_force_minimize(g, cands, params, homogeneous=True,
                               pinned_mask=boundary_nodes(g),
                               pinned_values=target.values)
    assert set(res.best_config.bitstring()) == {"0"}
    assert res.min_energy > 0
    assert np.any(res.minimizer_u.values != 0.0)
    psi = deviation_psi0(res.minimizer_u, JumpSet(g), params,
                         centered_box(1.0, 2), cands)
    assert abs(psi["psi0"]) <= 1e-9


def test_oracle_target_on_another_grid_exits_one(tmp_path, capsys):
    base = tmp_path / "target"
    save_field(base, generators.split_target(GridSpec(2, 16, 1.0), seed=0))
    rc = main(["oracle", "--cells", "8", "--target", str(base),
               "--kappa", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: target grid GridSpec(dim=2, cells_per_side=16, half_width=1.0)"
        " does not match the oracle grid GridSpec(dim=2, cells_per_side=8, "
        "half_width=1.0)\n")


def test_oracle_density_tables(tmp_path):
    out = tmp_path / "oracle2"
    rc = main(["oracle", "--dim", "2", "--cells", "8", "--n-candidates", "6",
               "--kappa", "3.0", "--beta", "0.01", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_bits"] == "1" * 6
    assert summary["density"]["status"] in ("ok", "degenerate")
    if summary["density"]["status"] == "ok":
        assert summary["density"]["theta1"] > 0


@pytest.mark.slow
def test_harness_subcommand(tmp_path):
    out = tmp_path / "harness"
    rc = main(["harness", "--generator", "shrinking-crack", "--levels", "3",
               "--cells", "256", "--eta", "0.5", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "harness.json").read_text())
    assert all(r["pass"] for r in rep["semicontinuity"])
    assert (out / "semicontinuity.csv").exists()


def _drop_key_m(header):
    del header["M"]
    return header


@pytest.mark.parametrize("file, payload, message", [
    ("header", _drop_key_m, "error: field header missing key 'M'"),
    ("header", lambda header: [2, 16], "error: field header is not a JSON object"),
    ("header", lambda header: {**header, "M": None},
     "error: field header dim, M and r must be numbers"),
    ("jump", lambda faces: {"owner": []},
     "error: jump file object missing key 'faces'"),
    ("jump", lambda faces: [[0, 5]], "error: jump file: malformed face [0, 5]"),
    ("jump", lambda faces: 7, "error: jump file: faces must be a JSON array"),
], ids=["header-missing-M", "header-not-object", "header-null-M",
        "jump-object-without-faces", "jump-face-without-index-list",
        "jump-not-array"])
def test_malformed_input_file_exits_one(tmp_path, capsys, file, payload,
                                        message):
    base = tmp_path / "rigid"
    assert main(["gen", "--spec", "rigid", "--dim", "2", "--cells", "16",
                 "--seed", "2", "--out", str(base)]) == 0
    path = base.with_suffix(".json" if file == "header" else ".jump.json")
    path.write_text(json.dumps(payload(json.loads(path.read_text()))))
    capsys.readouterr()
    rc = main(["approx", "--field", str(base),
               "--jump", str(base.with_suffix(".jump.json")),
               "--eta", "0.5", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.filterwarnings("error")
def test_overflowing_field_exits_one(tmp_path, capsys):
    # finite node values whose difference overflows float64
    g = GridSpec(2, 32, 1.0)
    vals = np.zeros(g.node_shape + (2,))
    vals[16, 16, 0], vals[17, 16, 0] = 1.5e308, -1.5e308
    base = tmp_path / "overflow"
    save_field(base, DisplacementField(g, vals))
    save_jump(base.with_suffix(".jump.json"), JumpSet(g))
    rc = main(["approx", "--field", str(base),
               "--jump", str(base.with_suffix(".jump.json")),
               "--eta", "0.5", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == "error: strain values must be finite\n"


@pytest.mark.parametrize("value, hide_threadpoolctl, reason", [
    ("2", True, "threadpoolctl is not installed"),
    ("two", False, "'two' is not an integer"),
])
def test_ignored_thread_cap_warns_once_and_runs(tmp_path, monkeypatch, capsys,
                                                value, hide_threadpoolctl,
                                                reason):
    monkeypatch.setenv("SMALLJUMP_THREADS", value)
    if hide_threadpoolctl:
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    rc = main(["gen", "--spec", "rigid", "--dim", "2", "--cells", "8",
               "--seed", "0", "--out", str(tmp_path / "field")])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: SMALLJUMP_THREADS")
    assert reason in err[0]


FIELD_ARGS = ["--field", "f", "--jump", "f.jump.json"]
SUBCOMMAND_ARGS = {
    "approx": FIELD_ARGS + ["--out", "o"],
    "verify": FIELD_ARGS,
    "oracle": ["--kappa", "2", "--out", "o"],
    "harness": ["--generator", "shrinking-crack", "--out", "o"],
}


def _flags(parser) -> dict[str, set[str]]:
    """Option strings of each subcommand, without -h/--help."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
            for name, p in sub.choices.items()}


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    approx = {"--field", "--jump", "--delta", "--out", "--p", "--lame-lambda",
              "--lame-mu", "--eta"}
    flags = _flags(build_parser())
    assert flags == {
        "gen": {"--spec", "--dim", "--cells", "--half-width", "--seed",
                "--area", "--count", "--max-size", "--amplitude", "--eta",
                "--out"},
        "approx": approx,
        "verify": approx,
        "sweep": {"--levels", "--delta0", "--dim", "--cells", "--seed",
                  "--out", "--p", "--lame-lambda", "--lame-mu", "--eta"},
        "oracle": {"--dim", "--cells", "--half-width", "--n-candidates",
                   "--cross", "--target", "--seed",
                   "--out", "--kappa", "--beta",
                   "--lame-lambda", "--lame-mu"},
        "harness": {"--generator", "--levels", "--dim", "--cells", "--kappa0",
                    "--seed", "--out", "--beta", "--p", "--lame-lambda",
                    "--lame-mu", "--eta"},
    }
    assert sum(map(len, flags.values())) == 61


@pytest.mark.parametrize("command, flag", [
    *[(c, f) for c in ("approx", "verify")
      for f in ("--kappa", "--beta", "--mu-offset", "--target")],
    *[("oracle", f) for f in ("--p", "--eta", "--mu-offset")],
    *[("harness", f) for f in ("--kappa", "--mu-offset")],
    *[("approx", f) for f in ("--sweep-levels", "--delta0", "--dim",
                              "--cells", "--seed")],
])
def test_flags_nothing_reads_are_usage_errors(capsys, command, flag):
    parser = build_parser()
    parser.parse_args([command, *SUBCOMMAND_ARGS[command]])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *SUBCOMMAND_ARGS[command], flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: smalljump ")
    assert err.endswith(
        f"smalljump: error: unrecognized arguments: {flag} 1\n")


@pytest.mark.parametrize("missing", ["--field", "--jump"])
def test_approx_without_its_input_is_a_usage_error(capsys, missing):
    argv = list(SUBCOMMAND_ARGS["approx"])
    i = argv.index(missing)
    del argv[i:i + 2]
    with pytest.raises(SystemExit) as exc:
        main(["approx", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: smalljump approx")
    assert err.endswith(f"the following arguments are required: {missing}\n")


def test_oracle_without_kappa_is_a_usage_error(tmp_path, capsys):
    # with no boundary data, kappa = 0 would leave the system singular
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--cells", "8", "--n-candidates", "4",
              "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: smalljump oracle")
    assert err.endswith("the following arguments are required: --kappa\n")
    assert not out.exists()


def _strict_json(path: Path):
    """A JSON file's payload; Infinity or NaN in it fails the test."""
    def refuse(name):
        raise AssertionError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_sweep_subcommand_writes_its_tables(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--levels", "3", "--cells", "128", "--eta", "0.5",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "delta,strain_error,excess_ratio,faces,pass"
    assert len(rows) == 1 + 3
    report = _strict_json(out / "sweep.json")
    assert report["deltas"] == [0.25, 0.125, 0.0625]
    assert len(report["excess_ratios"]) == 3
    assert report["strictly_decreasing"] and report["all_properties_pass"]


@pytest.mark.parametrize("argv, message", [
    (["--levels", "0"], "a sweep fits its decay over at least 2 levels, got 0"),
    (["--levels", "1"], "a sweep fits its decay over at least 2 levels, got 1"),
    # 2D 64^2: the lattice delta stops at 4h = 0.125 on the third level
    (["--levels", "3", "--cells", "64"],
     "levels share a covering scale ([8, 4, 4] grid steps; the lattice "
     "delta is at least 4h): use fewer levels or more cells"),
])
def test_sweep_refuses_what_it_cannot_fit(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep"
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"regime violation: {message}\n"
    assert not out.exists()


def test_oracle_without_a_density_ball_writes_null(tmp_path):
    # no density ball fits 3D 4^3, so both density constants are infinite
    out = tmp_path / "oracle"
    rc = main(["oracle", "--dim", "3", "--cells", "4", "--n-candidates", "2",
               "--cross", "--kappa", "2", "--beta", "0.05", "--out", str(out)])
    assert rc == 0
    density = _strict_json(out / "summary.json")["density"]
    assert density == {"status": "degenerate", "theta0": None, "theta1": None}


@pytest.mark.parametrize("dim, cells, count, want", [
    (2, 8, 4, [(0, (4, 3)), (0, (4, 4)), (1, (3, 4)), (1, (4, 4))]),
    (2, 8, 5, [(0, (4, 3)), (0, (4, 4)), (1, (2, 4)), (1, (3, 4)),
               (1, (4, 4))]),
    (3, 4, 2, [(0, (2, 1, 2)), (1, (1, 2, 2))]),
    # each arm holds m - 2 faces, the most strictly inside the domain
    (2, 8, 12, [(0, (4, j)) for j in range(1, 7)]
     + [(1, (j, 4)) for j in range(1, 7)]),
    (3, 4, 4, [(0, (2, 1, 2)), (0, (2, 2, 2)), (1, (1, 2, 2)),
               (1, (2, 2, 2))]),
])
def test_cross_candidate_layouts(dim, cells, count, want):
    assert _midline_candidates(GridSpec(dim, cells, 1.0), count, True) == want


def test_too_many_cross_candidates_exits_one(tmp_path, capsys):
    rc = main(["oracle", "--cells", "8", "--n-candidates", "13", "--cross",
               "--kappa", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: 13 candidates do not fit strictly inside the domain "
        "(at most 12 for 8 cells per side)\n")
    assert not (tmp_path / "run").exists()


def test_more_candidates_than_the_exhaustive_search_exits_one(
        tmp_path, capsys, monkeypatch):
    def no_system(*args, **kwargs):
        raise AssertionError("the oracle built a system before refusing")

    monkeypatch.setattr(oracle, "ElasticSystem", no_system)
    rc = main(["oracle", "--cells", "32", "--n-candidates", "22", "--cross",
               "--kappa", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: 22 candidates exceed the exhaustive search (at most 20)\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("cross", [[], ["--cross"]])
def test_negative_candidate_count_exits_one(tmp_path, capsys, cross):
    rc = main(["oracle", "--cells", "8", "--n-candidates", "-3", *cross,
               "--kappa", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: -3 candidates: the count must not be negative\n")
    assert not (tmp_path / "run").exists()


def test_no_candidates_give_an_empty_bitstring(tmp_path):
    out = tmp_path / "run"
    assert main(["oracle", "--cells", "8", "--n-candidates", "0",
                 "--kappa", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_bits"] == ""
    assert summary["n_candidates"] == 0
    lines = (out / "configs.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith(",")


def test_too_many_candidates_exits_one(tmp_path, capsys):
    rc = main(["oracle", "--cells", "8", "--n-candidates", "7",
               "--kappa", "2", "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: 7 candidates do not fit strictly inside the domain "
        "(at most 6 for 8 cells per side)\n")


def _readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", readme,
                      re.MULTILINE | re.DOTALL).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("smalljump ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_parse(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]


@pytest.mark.parametrize("command, args", [
    ("approx", "--field {tmp}/f --jump {tmp}/f.jump.json --eta 0.5 "
               "--out {tmp}/run"),
    ("verify", "--field {tmp}/f --jump {tmp}/f.jump.json --eta 0.5"),
    ("sweep", "--levels 2 --cells 64 --eta 0.5 --out {tmp}/run"),
    ("oracle", "--cells 8 --n-candidates 4 --kappa 2 --beta 0.02 "
               "--out {tmp}/run"),
    ("harness", "--generator shrinking-crack --levels 2 --cells 128 "
                "--eta 0.5 --out {tmp}/run"),
])
def test_non_coercive_hooke_tensor_exits_one(tmp_path, capsys, command, args):
    # 2D: 2*lambda + 2*mu = -8, so C xi . xi < 0 on some strains
    assert main(["gen", "--spec", "two-motion-crack", "--dim", "2", "--cells",
                 "32", "--area", "0.05", "--seed", "1",
                 "--out", str(tmp_path / "f")]) == 0
    capsys.readouterr()
    argv = [command, *args.format(tmp=tmp_path).split(), "--lame-lambda", "-5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: dim*lambda + 2*mu must be positive, got -8 in 2D\n")


def _fresh_interpreter(code: str, cwd: Path):
    """Run ``code``, which may use ``json`` and ``sys``, in a new
    interpreter with the package on its path, and return the JSON value
    it prints on its last line."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_import_loads_no_scipy(tmp_path):
    loaded = _fresh_interpreter(
        "import smalljump, smalljump.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))", tmp_path)
    assert loaded == []


def test_oracle_process_never_loads_ndimage(tmp_path):
    out = _fresh_interpreter(
        "from smalljump.cli import main\n"
        "rc = main(['oracle', '--dim', '2', '--cells', '8', '--n-candidates',\n"
        "           '4', '--kappa', '2', '--beta', '0.02', '--out', 'run'])\n"
        "print(json.dumps([rc, 'scipy.ndimage' in sys.modules]))", tmp_path)
    assert out == [0, False]


@pytest.mark.parametrize("cells, loaded", [(8, False), (16, False), (24, True),
                                           (64, True)])
def test_oracle_loads_scipy_linalg_only_above_the_dense_limit(tmp_path, cells,
                                                              loaded):
    # below oracle.DENSE_DOF_LIMIT the condensation is numpy's dense LU;
    # importing scipy.linalg for the banded path alone costs about 8 MB
    # of RSS, which a small oracle run would pay for nothing
    out = _fresh_interpreter(
        "from smalljump.cli import main\n"
        f"rc = main(['oracle', '--dim', '2', '--cells', '{cells}',\n"
        "           '--n-candidates', '4', '--kappa', '2', '--beta', '0.02',\n"
        "           '--out', 'run'])\n"
        "print(json.dumps([rc, 'scipy.linalg' in sys.modules]))", tmp_path)
    assert out == [0, loaded]


def test_approx_process_loads_ndimage_at_the_first_convolution(tmp_path):
    out = _fresh_interpreter(
        "from smalljump.cli import main\n"
        "rc = [main(['gen', '--spec', 'rigid', '--dim', '3', '--cells', '32',\n"
        "            '--seed', '1', '--out', 'f'])]\n"
        "loaded = ['scipy.ndimage' in sys.modules]\n"
        "rc.append(main(['approx', '--field', 'f', '--jump', 'f.jump.json',\n"
        "                '--eta', '0.5', '--out', 'run']))\n"
        "loaded.append('scipy.ndimage' in sys.modules)\n"
        "print(json.dumps([rc, loaded]))", tmp_path)
    assert out == [[0, 0], [False, True]]


# numpy functions by the release that added them: an install at the
# declared floor lacks any of them that src/ calls
NUMPY_NAMES_SINCE = {"vecdot": (2, 0), "bitwise_count": (2, 0),
                     "unstack": (2, 1), "cumulative_sum": (2, 1),
                     "matvec": (2, 2), "vecmat": (2, 2)}


def test_declared_numpy_floor_has_every_numpy_function_src_calls():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    deps = tomllib.loads((root / "pyproject.toml").read_text())["project"][
        "dependencies"]
    (floor,) = [re.fullmatch(r"numpy>=(\d+)\.(\d+)", d) for d in deps
                if d.startswith("numpy")]
    floor = tuple(map(int, floor.groups()))
    src = "".join(p.read_text() for p in (root / "src" / "smalljump").glob("*.py"))
    newer = {name for name, since in NUMPY_NAMES_SINCE.items()
             if since > floor and re.search(rf"\bnp\.{name}\b", src)}
    assert newer == set(), f"numpy>={floor[0]}.{floor[1]} lacks {sorted(newer)}"
