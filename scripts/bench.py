"""Run the benchmark on every workload and write one BENCH_<n>.json.

    python3 scripts/bench.py --run CHECKOUT BENCH_<n>.json [--run ...]

For each workload of perfbench/run.py this runs seeds 0-9 untraced and
seed 0 once more traced, each in a fresh process started from the root
of CHECKOUT and as long as run.py's default run length.  With several
--run pairs the checkouts take turns on each seed, the first going
first on even seeds and last on odd ones, so that their runs pair up
seed by seed in one session.

Each file records, per workload, the median, min-max and interquartile
range of every end-to-end metric over the ten untraced runs, every
run's values, the layer metrics of the traced run with the ones its
tracer marked absent, the run length run.py reports, and the
environment: commit, whether the checkout had uncommitted changes, the
SHA-256 of its src/ files, Python, numpy, scipy, nproc and the BLAS
thread cap.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("suite-3d64", "cli-approx-3d128", "oracle-enum-2d8",
             "cli-oracle-2d64")
SEEDS = range(10)
TRACED_SEED = 0


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench/run.py call: its JSON verdict, its run length, the
    environment line, and with tracing the layer metrics marked absent."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed nothing "
                           f"(exit {proc.returncode}): {proc.stderr.strip()}")
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("workload "):
            words = line.split()
            out["seconds"] = float(words[words.index("seconds") + 1])
        if line.startswith("environment "):
            out["environment"] = dict(kv.split("=", 1)
                                      for kv in line.split()[1:])
    out["absent"] = sorted(line.split()[1] for line in lines
                           if line.startswith("layer ")
                           and line.endswith("(absent)"))
    return out


def source(checkout: Path) -> dict:
    """The measured code: uncommitted changes and the SHA-256 of src/."""
    status = subprocess.run(["git", "status", "--porcelain",
                             "--untracked-files=no"], cwd=checkout,
                            capture_output=True, text=True)
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode())
        digest.update(path.read_bytes())
    return {"dirty": bool(status.stdout.strip()) if status.returncode == 0
            else None, "src_sha256": digest.hexdigest()}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "iqr": q3 - q1, "n": len(values)}


def workload_record(runs: list[dict], traced: dict) -> dict:
    names = runs[0]["metrics"]
    return {
        "end_to_end": {name: {**summary([r["metrics"][name]["value"]
                                         for r in runs]),
                              "unit": names[name]["unit"]}
                       for name in names},
        "runs": [{"seed": seed, "correct": r["correct"],
                  "attempted": r["attempted"], "failed": r["failed"],
                  "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                 for seed, r in zip(SEEDS, runs)],
        "traced": {"seed": TRACED_SEED, "correct": traced["correct"],
                   "layers": {k: v["value"]
                              for k, v in traced["metrics"].items()},
                   "units": {k: v["unit"]
                             for k, v in traced["metrics"].items()},
                   "absent": traced["absent"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--run", nargs=2, action="append", required=True,
                    metavar=("CHECKOUT", "OUT"),
                    help="root of a smalljump checkout and its output file")
    args = ap.parse_args(argv)
    checkouts = [Path(c).resolve() for c, _ in args.run]
    records = [{"seeds": list(SEEDS),
                "workloads": {}, "environment": {}} for _ in checkouts]
    for workload in WORKLOADS:
        runs = [[] for _ in checkouts]
        for seed in SEEDS:
            turn = range(len(checkouts))
            for i in (turn if seed % 2 == 0 else reversed(turn)):
                run = run_once(checkouts[i], workload, seed, 0)
                runs[i].append(run)
                print(f"{args.run[i][1]} {workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()),
                    flush=True)
        for i, checkout in enumerate(checkouts):
            traced = run_once(checkout, workload, TRACED_SEED, 1)
            records[i]["workloads"][workload] = workload_record(runs[i], traced)
            records[i]["seconds"] = traced["seconds"]
            records[i]["environment"] = {**traced.get("environment", {}),
                                         **source(checkout)}
    for (_, out), record in zip(args.run, records):
        Path(out).write_text(json.dumps(record, indent=1, sort_keys=True)
                             + "\n")
    return 0 if all(r["correct"] for rec in records
                    for w in rec["workloads"].values()
                    for r in w["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
