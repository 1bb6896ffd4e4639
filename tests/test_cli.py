"""Command-line entry points: files, exit codes, determinism."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from smalljump.cli import main
from smalljump.grid import (
    DisplacementField,
    GridSpec,
    JumpSet,
    load_field,
    load_jump,
    save_field,
    save_jump,
)


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
    assert len(lines) == 1 + 2 ** 6

    # the homogeneous minimizer is its own best competitor
    out2 = tmp_path / "oracle_h"
    rc = main(["oracle", "--dim", "2", "--cells", "8", "--n-candidates", "6",
               "--kappa", "2.0", "--beta", "1e6", "--seed", "1",
               "--homogeneous", "--out", str(out2)])
    assert rc == 0
    summary2 = json.loads((out2 / "summary.json").read_text())
    assert abs(summary2["psi0"]) <= 1e-9


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
