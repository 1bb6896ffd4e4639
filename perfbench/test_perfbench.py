"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py

Run from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, bench: Path = BENCH) -> tuple[int, list[str]]:
    """Run a benchmark directory's run.py from the repository root."""
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--tiny", "--seconds", "0.5",
         *args], cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def _copy_bench(tmp_path: Path) -> Path:
    """A copy of the benchmark whose refs.json a test may change."""
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert _units("end_to_end") == dict(run.END_TO_END)
    layers = {name: unit for name, unit, _, _ in LAYER_METRICS}
    layers.update({"process.cpu_s": "s", "trace.overhead_s": "s"})
    assert _units("per_layer") == layers


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_end_to_end(workload, trace):
    rc, lines = _bench("--workload", workload, "--trace", trace)
    result = json.loads(lines[-1])
    assert rc == 0, lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = _units("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    prefix = "layer" if trace == "1" else "metric"
    for name, unit in units.items():
        assert any(line.startswith(f"{prefix} {name} = ")
                   and line.split(" = ")[1].split()[1] == unit
                   for line in lines), name
    assert any(line.startswith("metric fail_ratio = 0 ratio") for line in lines)
    assert any(line.startswith("environment ") and "blas_threads=1" in line
               for line in lines)


@pytest.mark.parametrize("workload,key", [("suite-3d64", "report_sha256"),
                                          ("oracle-enum-2d8", "min_energy")])
def test_corrupted_reference_fails_the_run(tmp_path, workload, key):
    bench = _copy_bench(tmp_path)
    refs = json.loads((bench / "refs.json").read_text())
    item = refs["tiny"][workload]["items"][0]
    item[key] = "0" * 64 if isinstance(item[key], str) else item[key] * 1.001
    (bench / "refs.json").write_text(json.dumps(refs))
    rc, lines = _bench("--workload", workload, bench=bench)
    result = json.loads(lines[-1])
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert any(f"ref_{key}=FAIL" in line for line in lines)


def test_recorded_references_are_the_committed_ones(tmp_path):
    bench = _copy_bench(tmp_path)
    refs = json.loads((bench / "refs.json").read_text())
    committed = refs["tiny"].pop("oracle-enum-2d8")
    (bench / "refs.json").write_text(json.dumps(refs))
    rc, _ = _bench("--workload", "oracle-enum-2d8", bench=bench)
    assert rc == 2                      # no reference to check against
    rc, _ = _bench("--workload", "oracle-enum-2d8", "--record-refs",
                   bench=bench)
    assert rc == 0
    recorded = json.loads((bench / "refs.json").read_text())
    assert recorded["tiny"]["oracle-enum-2d8"] == committed
    rc, lines = _bench("--workload", "oracle-enum-2d8", bench=bench)
    assert rc == 0
    assert any("ref_best_bits=ok" in line for line in lines)


def test_raising_annotation_marks_its_metrics_absent(tmp_path):
    def broken(args, kwargs, result):
        raise AttributeError("n_dof")

    targets = [("smalljump.oracle:ElasticSystem", "solve", "oracle.solve",
                broken)]
    workload = workloads.OracleEnum(tiny=True)
    inputs = workload.setup(0, tmp_path)
    tracer = Tracer(targets)
    with tracer.installed("item"):
        output = workload.run_item(inputs, 0)
    assert workload.check(inputs, 0, output, first=True).ok
    assert tracer.spans and tracer.unannotated == {"oracle.solve"}
    absent = tracer.absent_metrics()
    assert "oracle.dofs" in absent
    assert "oracle.configs" not in absent and "oracle.s_per_config" not in absent


def test_tracer_removes_every_wrapper_and_tolerates_missing_names():
    from smalljump import cli, oracle

    targets = [("smalljump.cli", "approximate", "approximator.approximate", None),
               ("smalljump.oracle:ElasticSystem", "solve", "oracle.solve", None),
               ("smalljump.oracle:ElasticSystem", "gone", "oracle.assemble", None),
               ("smalljump.no_such_module", "f", "generators", None)]
    before = (cli.approximate, vars(oracle.ElasticSystem)["solve"])
    tracer = Tracer(targets)
    assert tracer.absent == ["smalljump.no_such_module.f",
                             "smalljump.oracle:ElasticSystem.gone"]
    absent = tracer.absent_metrics()
    assert "oracle.assemble_s" in absent and "generators.s" in absent
    assert "oracle.configs" not in absent
    with tracer.installed("item"):
        assert cli.approximate is not before[0]
    assert (cli.approximate, vars(oracle.ElasticSystem)["solve"]) == before
    assert tracer.spans == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "suite-3d64",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
