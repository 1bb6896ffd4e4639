"""smalljump benchmark: one workload per call, end-to-end or per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a subprocess of its
own (perfbench/worker.py), so that its peak memory is measured alone,
with BLAS pools capped at BLAS_THREADS threads.  The last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1.  Every line before it is a human-readable account: the
environment, every output check of every item and every metric with its
unit.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("suite-3d64", "cli-approx-3d128", "oracle-enum-2d8",
             "cli-oracle-2d64")
DEFAULT_SEED = 0
# One BLAS thread: the workloads are single-caller loops, and a 2-thread
# OpenBLAS pool made the small dense oracle solves noisier, not faster.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The whole run, set-up included, must end within 180 s.
WORKER_TIMEOUT_S = 170
WORK_ROOT = Path(".perfbench_work")
REFS = HERE / "refs.json"

END_TO_END = (("wall_s", "s"), ("item_s.p50", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def _environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None       # the benchmark may run from an exported tree
    try:
        import threadpoolctl  # noqa: F401
        has_tpc = True
    except ImportError:
        has_tpc = False
    return {"commit": commit, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "threadpoolctl": has_tpc}


def _p90(samples: list[float]) -> tuple[float, int] | None:
    """p90 and the count beyond it, only with at least 10 samples beyond."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(s > p90 for s in samples)
    return (p90, beyond) if beyond >= 10 else None


def _run_worker(args, workdir: Path, result: Path, ref: Path | None) -> int:
    env = dict(os.environ)
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    # The CLI applies SMALLJUMP_THREADS only when threadpoolctl is installed;
    # the caps above hold for the CLI and library workloads alike.
    env.pop("SMALLJUMP_THREADS", None)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    if args.tiny:
        cmd.append("--tiny")
    if ref is not None:
        cmd += ["--ref", str(ref)]
    try:
        return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    ap.add_argument("--record-refs", action="store_true",
                    help="write this run's digests to refs.json instead of "
                         "checking them (default seed only)")
    args = ap.parse_args(argv)

    if not Path("src/smalljump/__init__.py").is_file():
        print("perfbench: run from the root of a smalljump checkout "
              "(src/smalljump not found)", file=sys.stderr)
        return 2
    if args.record_refs and args.seed != DEFAULT_SEED:
        print("perfbench: references are recorded for the default seed only",
              file=sys.stderr)
        return 2

    mode = "tiny" if args.tiny else "full"
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    result_path = WORK_ROOT / f"{args.workload}-{os.getpid()}.json"
    ref_path = None
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    if args.seed == DEFAULT_SEED and not args.record_refs:
        expected = refs.get(mode, {}).get(args.workload)
        if expected is None:
            print(f"perfbench: no reference for {mode}/{args.workload} "
                  f"in {REFS}", file=sys.stderr)
            return 2
        ref_path = WORK_ROOT / f"{args.workload}-{os.getpid()}.ref.json"
    try:
        WORK_ROOT.mkdir(exist_ok=True)
        if ref_path is not None:
            ref_path.write_text(json.dumps(expected))
        rc = _run_worker(args, workdir, result_path, ref_path)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if rc != 0:
            print(f"perfbench: worker failed with exit code {rc}",
                  file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for p in (result_path, ref_path):
            if p is not None:
                p.unlink(missing_ok=True)

    env = {**_environment(), **res["env"]}
    print(f"workload {args.workload} ({mode}) seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    attempted = failed = 0
    for i, p in enumerate(res["passes"]):
        for item in p["items"]:
            attempted += 1
            failed += not item["ok"]
            verdicts = " ".join(f"{name}={'ok' if ok else 'FAIL'}"
                                for name, ok, _ in item["checks"])
            print(f"item {i}:{item['k']} {'traced' if p['traced'] else 'untraced'}"
                  f" {item['s']:.4f} s {'ok' if item['ok'] else 'FAILED'}: "
                  f"{verdicts}")
            for name, ok, detail in item["checks"]:
                if not ok:
                    print(f"  {name}: {detail}")

    if args.record_refs:
        digests = [item["digest"] for item in res["passes"][0]["items"]]
        if failed or any(d is None for d in digests):
            print("perfbench: not recording references from a failed run",
                  file=sys.stderr)
            return 1
        refs.setdefault(mode, {})[args.workload] = {"items": digests}
        REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {mode}/{args.workload} references in {REFS}")

    plain = [p for p in res["passes"] if not p["traced"]]
    traced = [p for p in res["passes"] if p["traced"]]
    item_s = [item["s"] for p in plain for item in p["items"]]
    wall_s = statistics.median(p["wall_s"] for p in plain)
    e2e = {
        "wall_s": wall_s,
        "item_s.p50": statistics.median(item_s),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": res["startup_s"] + statistics.median(res["setup_s"]),
    }
    e2e_units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {e2e_units[name]}")
    print(f"metric item_s.n = {len(item_s)} count (untraced items, "
          f"{len(plain)} passes)")
    p90 = _p90(item_s)
    if p90 is None:
        print("metric item_s.p90 = not reported (fewer than 10 samples "
              "beyond it)")
    else:
        print(f"metric item_s.p90 = {p90[0]:.6g} s ({p90[1]} samples beyond)")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")

    if args.trace:
        values = dict(res["layers"])
        values["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - wall_s)
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        units.update({"process.cpu_s": "s", "trace.overhead_s": "s"})
        absent = set(res["absent_metrics"])
        for name in units:
            tag = " (absent)" if name in absent else ""
            print(f"layer {name} = {values[name]:.6g} {units[name]}{tag}")
        if res["absent_targets"]:
            print("absent targets: " + ", ".join(res["absent_targets"]))
        spans_path = WORK_ROOT / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(res["spans"]))
        print(f"spans: {len(res['spans'])} written to {spans_path}")
    else:
        values, units = e2e, e2e_units
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
