"""Runs one workload inside its own process and writes the raw timings,
checks and spans as JSON.  Started by run.py, which measures this
process's peak memory from outside; not meant to be run by hand."""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy
import scipy

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Checks, check_reference

# Start-up and set-up are repeated and their medians reported, so that one
# slow interpreter start, disk write or allocation does not decide setup_s.
SETUPS = 3


def _startup_seconds() -> float:
    """Median time for a fresh interpreter to import the package."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import smalljump.cli"],
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _run_pass(workload, inputs, tracer, traced: bool, index: int,
              first_item: bool, ref: dict | None) -> dict:
    items = []
    for k in range(workload.items_per_pass(inputs)):
        ctx = tracer.installed(f"{index}:{k}") if traced \
            else contextlib.nullcontext()
        checks = Checks()
        digest = None
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with ctx:
                output = workload.run_item(inputs, k)
        except Exception:  # a failed item is counted, the loop goes on
            output = None
            checks.add("no_exception", False, traceback.format_exc(limit=3))
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if output is not None:
            try:
                checks = workload.check(inputs, k, output, first_item)
                if checks.ok:
                    digest = workload.digest(output)
                    if ref is not None:
                        check_reference(checks, digest, ref["items"][k],
                                        workload.ref_rtol)
            except Exception:
                checks.add("check_raised", False, traceback.format_exc(limit=3))
        first_item = False
        del output
        items.append({"k": k, "s": seconds, "cpu_s": cpu, "ok": checks.ok,
                      "checks": checks.rows, "digest": digest})
    return {"traced": traced, "wall_s": sum(i["s"] for i in items),
            "cpu_s": sum(i["cpu_s"] for i in items), "items": items}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--ref", help="JSON file with the expected digests")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.tiny)
    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None
    ref = json.loads(Path(args.ref).read_text()) if args.ref else None

    startup_s = _startup_seconds()
    setup_s = []
    inputs = None
    for _ in range(SETUPS):
        inputs = None
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        ctx = tracer.installed("setup") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with ctx:
            inputs = workload.setup(args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)

    # Closed loop: passes over the fixed batch while the next pass, timed
    # like the last one, still fits in the run length, so a run never
    # overshoots by more than its first pass.  A traced run alternates
    # untraced and traced passes and has at least one of each, so that the
    # tracing overhead is measured within the run.
    passes = []
    timed = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        p = _run_pass(workload, inputs, tracer, traced, len(passes),
                      not passes, ref)
        passes.append(p)
        timed += p["wall_s"]
        if timed + p["wall_s"] > args.seconds and not (
                tracer is not None and len(passes) < 2):
            break

    result = {
        "startup_s": startup_s,
        "setup_s": setup_s,
        "passes": passes,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    if tracer is not None:
        n_traced = sum(p["traced"] for p in passes)
        result["layers"] = layer_metrics(tracer.spans, n_traced, SETUPS)
        result["absent_targets"] = tracer.absent
        result["absent_metrics"] = tracer.absent_metrics()
        result["spans"] = [asdict(s) for s in tracer.spans]
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
