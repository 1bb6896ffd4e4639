"""Batch entry points: generate fields, approximate, verify, run oracles.

Exit codes: 0 success/pass, 1 infrastructure error, 2 regime violation,
3 property or budget violation.  All reports are JSON or CSV with sorted
keys and no timestamps, so identical configurations and seeds produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import generators
from .approximator import (
    ApproxConfig,
    approximate,
    boundary_trace_check,
    fit_decay_exponent,
    verify_properties,
)
from .covering import lattice_delta
from .energy import EnergyParams, HookeTensor
from .errors import CoveringError, RegimeError, SolverError
from .grid import (
    GridSpec,
    centered_box,
    load_field,
    load_jump,
    save_field,
    save_jump,
)
from .oracle import (
    CrackConfig,
    brute_force_minimize,
    density_lower_bound_check,
    deviation_psi0,
    vanishing_jump_harness,
)

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_REGIME = 2
EXIT_VIOLATION = 3


def _finite_or_null(x):
    """``x`` with each non-finite float as None: JSON has no Infinity."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_finite_or_null(payload), sort_keys=True,
                               indent=1, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _params_from(args) -> EnergyParams:
    return EnergyParams(HookeTensor(args.lame_lambda, args.lame_mu), p=args.p)


def _config_from(args) -> ApproxConfig:
    return ApproxConfig(eta=args.eta, delta=args.delta)


# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    grid = GridSpec(args.dim, args.cells, args.half_width)
    spec = args.spec
    if spec == "rigid":
        u, jumps = generators.rigid_field(grid, args.seed)
        meta = {}
    elif spec == "smooth-sinusoid":
        u, jumps = generators.sinusoid_field(grid, args.seed, args.amplitude)
        meta = {}
    elif spec == "two-motion-crack":
        u, jumps, meta = generators.two_motion_crack_field(
            grid, args.area, args.seed, args.amplitude)
    elif spec == "random-cracks":
        u, jumps, meta = generators.random_cracks_field(
            grid, args.count, args.max_size, args.seed, args.amplitude)
    elif spec == "rigid-patches":
        u, jumps, meta = generators.rigid_patches_field(
            grid, args.count, args.max_size, args.seed, args.amplitude)
    else:
        print(f"unknown field spec {spec!r}", file=sys.stderr)
        return EXIT_ERROR

    base = Path(args.out)
    save_field(base, u)
    save_jump(base.with_suffix(".jump.json"), jumps)
    delta = jumps.measure() ** (1.0 / grid.dim) if len(jumps) else 0.0
    eta = args.eta if args.eta is not None else math.inf
    print(f"wrote {base}.json/.bin and {base}.jump.json")
    print(f"delta = {delta:.6g}; inside regime (delta < eta): {delta < eta}")
    if meta:
        print(json.dumps(meta, sort_keys=True))
    return EXIT_PASS


def _full_report(u, jumps, res, rep, trace) -> dict:
    return {
        "delta": res.delta,
        "radius": res.radius,
        "crown_index": res.selection.i0,
        "crown_budgets": res.selection.budgets,
        "demoted_cubes": res.demoted_cubes,
        "omega_volume": res.omega_volume,
        "new_jump_faces": np.setdiff1d(res.new_jump.keys, jumps.keys).size,
        "fit_reports": res.fit_summaries,
        "boundary_trace": trace,
        "properties": json.loads(rep.to_json()),
    }


def cmd_approx(args) -> int:
    params = _params_from(args)
    config = _config_from(args)
    out = Path(args.out)
    u = load_field(args.field)
    jumps = load_jump(args.jump, u.grid)
    res = approximate(u, jumps, params, config)
    rep = verify_properties(u, jumps, res, params, config)
    trace = boundary_trace_check(u, jumps, res)

    save_field(out / "u_tilde", res.u_tilde)
    save_jump(out / "u_tilde.jump.json", res.new_jump)
    _write_json(out / "omega.json",
                {"cells": [list(map(int, c))
                           for c in np.argwhere(res.omega_cells)]})
    (out / "covering.json").parent.mkdir(parents=True, exist_ok=True)
    (out / "covering.json").write_text(res.covering.to_json() + "\n")
    _write_json(out / "report.json", _full_report(u, jumps, res, rep, trace))

    for check in rep.checks:
        print(f"{check.name}: lhs={check.lhs:.6g} budget={check.budget:.6g} "
              f"realized={check.realized:.6g} pass={check.passed}")
    if not rep.passed:
        print("property budgets violated", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_PASS


def cmd_sweep(args) -> int:
    params = _params_from(args)
    out = Path(args.out)
    grid = GridSpec(args.dim, args.cells, 1.0)
    dks = [args.delta0 * 2.0 ** (-k) for k in range(args.levels)]
    if len(dks) < 2:
        raise RegimeError(f"a sweep fits its decay over at least 2 levels, "
                          f"got {args.levels}")
    scales = [lattice_delta(grid, dk) for dk in dks]
    if len(set(scales)) < len(scales):
        raise RegimeError(
            f"levels share a covering scale ({scales} grid steps; the "
            f"lattice delta is at least 4h): use fewer levels or more cells")
    deltas, excesses, ratios, rows = [], [], [], []
    all_pass = True
    for dk in dks:
        u, jumps, meta = generators.shrinking_crack_instance(grid, dk, args.seed)
        cfg = ApproxConfig(eta=args.eta, delta=dk)
        res = approximate(u, jumps, params, cfg)
        rep = verify_properties(u, jumps, res, params, cfg)
        norm = res.strain_norm
        check = rep.by_name("p3_strain_error")
        deltas.append(res.delta)
        excesses.append(check.lhs)
        ratios.append(check.lhs / norm if norm > 0 else 0.0)
        rows.append([res.delta, check.lhs, ratios[-1], meta["faces"],
                     rep.passed])
        all_pass = all_pass and rep.passed
    slope = fit_decay_exponent(deltas, ratios)
    decreasing = all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    _write_csv(out / "sweep.csv",
               ["delta", "strain_error", "excess_ratio", "faces", "pass"], rows)
    _write_json(out / "sweep.json",
                {"deltas": deltas, "excess_ratios": ratios,
                 "s_estimate": slope, "strictly_decreasing": decreasing,
                 "all_properties_pass": all_pass})
    print(f"s_estimate = {slope:.4f}; strictly decreasing: {decreasing}")
    if not (all_pass and decreasing and math.isfinite(slope)
            and slope >= 0.05):
        return EXIT_VIOLATION
    return EXIT_PASS


def cmd_verify(args) -> int:
    params = _params_from(args)
    config = _config_from(args)
    u = load_field(args.field)
    jumps = load_jump(args.jump, u.grid)
    res = approximate(u, jumps, params, config)
    rep = verify_properties(u, jumps, res, params, config)
    for check in rep.checks:
        print(f"{check.name}: realized={check.realized:.6g} "
              f"limit={check.limit:.6g} pass={check.passed}")
    if args.out:
        trace = boundary_trace_check(u, jumps, res)
        _write_json(Path(args.out), _full_report(u, jumps, res, rep, trace))
    return EXIT_PASS if rep.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def _midline_candidates(grid: GridSpec, count: int, cross: bool) -> list:
    """Centred faces on the mid plane across axis 0; a cross puts
    ``count // 2`` there and the rest on the one across axis 1."""
    if count < 0:
        raise ValueError(f"{count} candidates: the count must not be negative")
    m = grid.cells_per_side
    arms = [count // 2, count - count // 2] if cross else [count]
    if max(arms) > m - 2:
        raise ValueError(
            f"{count} candidates do not fit strictly inside the domain "
            f"(at most {(m - 2) * len(arms)} for {m} cells per side)")
    cands = []
    for axis, n in enumerate(arms):
        start = max(1, (m - n) // 2)
        for j in range(start, start + n):
            idx = [m // 2] * grid.dim
            idx[1 - axis] = j
            cands.append((axis, tuple(idx)))
    return cands


def cmd_oracle(args) -> int:
    grid = GridSpec(args.dim, args.cells, args.half_width)
    if args.target:
        target = load_field(args.target)
        if target.grid != grid:
            raise ValueError(f"target grid {target.grid} does not match "
                             f"the oracle grid {grid}")
    else:
        target = generators.split_target(grid, seed=args.seed)
    params = EnergyParams(HookeTensor(args.lame_lambda, args.lame_mu),
                          kappa=args.kappa, beta=args.beta, g=target)
    out = Path(args.out)
    cands = _midline_candidates(grid, args.n_candidates, args.cross)

    result = brute_force_minimize(grid, cands, params)
    # tolist gives Python floats: the CSV writes their repr
    sorted_cands = result.best_config.candidates
    rows = [[CrackConfig(sorted_cands, bits).bitstring(), *energies]
            for bits, *energies in result.per_config.tolist()]
    _write_csv(out / "configs.csv", list(result.per_config.dtype.names), rows)
    save_field(out / "minimizer", result.minimizer_u)
    own_jumps = result.jumps
    save_jump(out / "minimizer.jump.json", own_jumps)

    summary = {
        "best_bits": result.best_config.bitstring(),
        "min_energy": result.min_energy,
        "breakdown": result.breakdown,
        # exact: each configuration is computed or shown to lie above the
        # minimum, and the key keeps the layout
        "exhaustive": True,
        "n_candidates": len(cands),
    }
    psi = deviation_psi0(result.minimizer_u, own_jumps, params,
                         centered_box(grid.half_width, grid.dim), cands)
    summary["psi0"] = psi["psi0"]

    h = grid.spacing
    dens = density_lower_bound_check(result.minimizer_u, own_jumps, params,
                                     [2 * h, 4 * h, 8 * h])
    summary["density"] = {"status": dens["status"],
                          "theta0": dens.get("theta0"),
                          "theta1": dens.get("theta1")}
    if dens["rows"]:
        _write_csv(out / "density.csv", ["rho", "centers", "theta0", "theta1"],
                   [[r["rho"], r["centers"], r["theta0"], r["theta1"]]
                    for r in dens["rows"]])
    _write_json(out / "summary.json", summary)
    print(f"best config {summary['best_bits']} energy {result.min_energy:.6g} "
          f"psi0 {psi['psi0']:.3g}")
    if psi["psi0"] < -1e-9:
        return EXIT_VIOLATION
    return EXIT_PASS


def cmd_harness(args) -> int:
    grid = GridSpec(args.dim, args.cells, 1.0)
    params = EnergyParams(HookeTensor(args.lame_lambda, args.lame_mu),
                          p=args.p, beta=args.beta)
    rep = vanishing_jump_harness(grid, args.generator, args.levels, params,
                                 eta=args.eta if args.eta is not None else 0.5,
                                 kappa0=args.kappa0, seed=args.seed)
    out = Path(args.out)
    if rep["status"] != "ok":
        _write_json(out / "harness.json", rep)
        print(rep["status"], file=sys.stderr)
        return EXIT_REGIME
    rows = []
    for i, lv in enumerate(rep["levels"]):
        rows.append([lv, rep["areas"][i], rep["kappas"][i],
                     rep["median_distance"][i]])
    _write_csv(out / "levels.csv", ["level", "area", "kappa", "median_distance"],
               rows)
    _write_csv(out / "semicontinuity.csv",
               ["t", "tail_bulk_limit", "tail_min", "tolerance", "pass"],
               [[r["t"], r["lhs"], r["tail_min"], r["tolerance"], r["pass"]]
                for r in rep["semicontinuity"]])
    _write_json(out / "harness.json", rep)
    ok = all(r["pass"] for r in rep["semicontinuity"]) \
        and all(r["halving"] for r in rep["weighted_jump"])
    print(f"semicontinuity pass: {ok}")
    return EXIT_PASS if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def _add_lame(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lame-lambda", type=float, default=1.0)
    p.add_argument("--lame-mu", type=float, default=1.0)


def _add_approx_params(p: argparse.ArgumentParser) -> None:
    """The flags an approximation run reads: p, the Lame pair and eta."""
    p.add_argument("--p", type=float, default=2.0)
    _add_lame(p)
    p.add_argument("--eta", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smalljump",
        description="Smooth approximation of displacement fields with small "
                    "crack sets, and a brute-force Griffith energy oracle.")
    sub = ap.add_subparsers(dest="command", required=True)
    # no prefix matching: a flag that a subcommand lacks is an error
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    g = add("gen", help="generate a synthetic field and crack set")
    g.add_argument("--spec", required=True,
                   choices=["rigid", "smooth-sinusoid", "two-motion-crack",
                            "random-cracks", "rigid-patches"])
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--cells", type=int, default=64)
    g.add_argument("--half-width", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--area", type=float, default=0.01)
    g.add_argument("--count", type=int, default=3)
    g.add_argument("--max-size", type=int, default=2)
    g.add_argument("--amplitude", type=float, default=0.08)
    g.add_argument("--eta", type=float, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    for name, func, help_ in (
            ("approx", cmd_approx, "run the approximation pipeline"),
            ("verify", cmd_verify, "re-run the pipeline and print checks")):
        a = add(name, help=help_)
        a.add_argument("--field", required=True)
        a.add_argument("--jump", required=True)
        a.add_argument("--delta", type=float, default=None)
        a.add_argument("--out", required=name == "approx")
        _add_approx_params(a)
        a.set_defaults(func=func)

    s = add("sweep", help="approximate a shrinking crack at halving scales")
    s.add_argument("--levels", type=int, default=4)
    s.add_argument("--delta0", type=float, default=0.25)
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--cells", type=int, default=256)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    _add_approx_params(s)
    s.set_defaults(func=cmd_sweep)

    o = add("oracle", help="brute-force Griffith minimization")
    o.add_argument("--dim", type=int, default=2)
    o.add_argument("--cells", type=int, default=8)
    o.add_argument("--half-width", type=float, default=1.0)
    o.add_argument("--n-candidates", type=int, default=8)
    o.add_argument("--cross", action="store_true",
                   help="split candidates between two orthogonal midlines")
    o.add_argument("--target", help="fidelity target field file")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out", required=True)
    o.add_argument("--kappa", type=float, required=True)
    o.add_argument("--beta", type=float, default=1.0)
    _add_lame(o)
    o.set_defaults(func=cmd_oracle)

    hn = add("harness", help="vanishing-jump convergence harness")
    hn.add_argument("--generator", required=True,
                    choices=["shrinking-crack", "rigid-patches"])
    hn.add_argument("--levels", type=int, default=4)
    hn.add_argument("--dim", type=int, default=2)
    hn.add_argument("--cells", type=int, default=256)
    hn.add_argument("--kappa0", type=float, default=0.1)
    hn.add_argument("--seed", type=int, default=0)
    hn.add_argument("--out", required=True)
    hn.add_argument("--beta", type=float, default=1.0)
    _add_approx_params(hn)
    hn.set_defaults(func=cmd_harness)
    return ap


def _limit_threads(value: str) -> None:
    """Cap BLAS thread pools at ``value``; warn and go on when it cannot."""
    try:
        n = int(value)
    except ValueError:
        print(f"warning: SMALLJUMP_THREADS={value!r} is not an integer; "
              "ignored", file=sys.stderr)
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print("warning: SMALLJUMP_THREADS ignored: threadpoolctl is not "
              "installed", file=sys.stderr)
        return
    threadpool_limits(n)


def main(argv: list[str] | None = None) -> int:
    threads = os.environ.get("SMALLJUMP_THREADS")
    if threads:
        _limit_threads(threads)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except CoveringError as exc:
        print(f"covering error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
