"""Acceptance suite: one criterion per test, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  The limiting constants are the frozen calibration defaults of
the package; nothing is tuned per instance.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from smalljump.approximator import (
    PARTITION_GRAD_LIMIT,
    SIGMA_LIMIT,
    SUITE_ETA,
    ApproxConfig,
    approximate,
    fit_decay_exponent,
    verify_properties,
)
from smalljump.covering import covering_structure_report
from smalljump.energy import EnergyParams, HookeTensor, lp_norm_cells
from smalljump.generators import (
    CrackPatch,
    field_with_patches,
    random_cracks_field,
    rigid_field,
    shrinking_crack_instance,
    split_target,
    two_motion_crack_field,
)
from smalljump.grid import GridSpec, JumpSet, centered_box
from smalljump.kornfit import extract_exceptional_set, residual_prefix_oracle
from smalljump.oracle import (
    CrackConfig,
    ElasticSystem,
    brute_force_minimize,
    density_lower_bound_check,
    deviation_psi0,
    greedy_bits,
    solve_elastic,
    vanishing_jump_harness,
)
from smalljump.strain import symmetric_gradient

PARAMS = EnergyParams(HookeTensor(1.0, 1.0), p=2.0)
HOOKE = HookeTensor(1.0, 1.0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared runs (reused by criterion 9)

_COLLECTED_RESULTS: list = []


@pytest.fixture(scope="module")
def rigid_suite():
    """Criterion-1 instances: random rigid motions in both dimensions."""
    runs = []
    t0 = time.time()
    for dim in (2, 3):
        g = GridSpec(dim, 64, 1.0)
        for seed in range(10):
            u, j = rigid_field(g, seed=seed)
            res = approximate(u, j, PARAMS, ApproxConfig(eta=SUITE_ETA))
            runs.append((dim, seed, u, res))
    elapsed = time.time() - t0
    _COLLECTED_RESULTS.extend(r[3] for r in runs)
    return runs, elapsed


@pytest.fixture(scope="module")
def crack_suite():
    """Criterion-2 instances: randomized small cracks, both dimensions."""
    runs = []
    t0 = time.time()
    for dim in (2, 3):
        g = GridSpec(dim, 64, 1.0)
        for i in range(20):
            seed = 100 * dim + i
            kind = i % 3
            if kind == 0:
                u, j, _ = two_motion_crack_field(
                    g, area=(0.004 if dim == 2 else 0.002) * (1 + i % 4),
                    seed=seed)
            elif kind == 1:
                u, j, _ = random_cracks_field(g, 2 + i % 2, 2, seed)
            else:
                u, j, _ = random_cracks_field(g, 1, 3 if dim == 2 else 2, seed)
            cfg = ApproxConfig(eta=SUITE_ETA)
            res = approximate(u, j, PARAMS, cfg)
            rep = verify_properties(u, j, res, PARAMS, cfg)
            runs.append((dim, seed, u, j, res, rep))
    elapsed = time.time() - t0
    _COLLECTED_RESULTS.extend(r[4] for r in runs)
    return runs, elapsed


@pytest.fixture(scope="module")
def shrink_family():
    """Criterion-3/4 family: delta halving over four levels at M = 256."""
    g = GridSpec(2, 256, 1.0)
    rows = []
    t0 = time.time()
    for k in range(4):
        dk = 0.25 * 2.0 ** (-k)
        u, j, meta = shrinking_crack_instance(g, dk, seed=7)
        cfg = ApproxConfig(eta=SUITE_ETA, delta=dk)
        res = approximate(u, j, PARAMS, cfg)
        rep = verify_properties(u, j, res, PARAMS, cfg)
        e = symmetric_gradient(u, j)
        norm = lp_norm_cells(e, g, 2.0)
        rows.append({"k": k, "delta": res.delta, "res": res, "rep": rep,
                     "jumps": j, "ratio": rep.by_name("p3_strain_error").lhs / norm})
    elapsed = time.time() - t0
    _COLLECTED_RESULTS.extend(r["res"] for r in rows)
    return rows, elapsed


def test_criterion_1_rigid_exactness(rigid_suite):
    runs, elapsed = rigid_suite
    worst = 0.0
    for dim, seed, u, res in runs:
        gap = float(np.max(np.abs(res.u_tilde.values - u.values)))
        worst = max(worst, gap)
        assert len(res.new_jump) == 0
        assert res.omega_volume == 0.0
    ok = worst <= 1e-12 and len(runs) == 20 and elapsed <= 30.0
    _verdict(1, ok, f"{len(runs)} rigid motions, max deviation {worst:.2e}, "
                    f"empty crack and exceptional sets, {elapsed:.1f}s")


def test_criterion_2_property_budget_suite(crack_suite):
    runs, elapsed = crack_suite
    failures = []
    for dim, seed, u, j, res, rep in runs:
        if not rep.passed:
            bad = [c.name for c in rep.checks if not c.passed]
            failures.append((dim, seed, bad))
        if not rep.by_name("p2_new_jump").detail["containment"]:
            failures.append((dim, seed, ["containment"]))
    ok = not failures and len(runs) == 40 and elapsed <= 300.0
    _verdict(2, ok, f"{len(runs)} randomized crack instances, "
                    f"failures: {failures or 'none'}, {elapsed:.1f}s")


def test_criterion_3_decay_exponent(shrink_family):
    rows, elapsed = shrink_family
    ratios = [r["ratio"] for r in rows]
    deltas = [r["delta"] for r in rows]
    decreasing = all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    slope = fit_decay_exponent(deltas, ratios)
    ok = decreasing and slope >= 0.05 and elapsed <= 300.0
    _verdict(3, ok, f"excess ratios {['%.4f' % r for r in ratios]}, "
                    f"s_estimate {slope:.3f}, {elapsed:.1f}s")


def test_criterion_4_new_jump_bound(shrink_family):
    rows, _ = shrink_family
    limit = rows[0]["rep"].by_name("p2_new_jump").limit
    worst = 0.0
    contained = True
    for r in rows:
        check = r["rep"].by_name("p2_new_jump")
        worst = max(worst, check.realized)
        contained = contained and check.detail["containment"]
    ok = worst <= limit and contained
    _verdict(4, ok, f"one constant {limit} covers all levels "
                    f"(worst realized {worst:.3g}); new faces inside the "
                    f"bad-set boundary: {contained}")


def test_criterion_5_korn_poincare_meters():
    t0 = time.time()
    c_star = 4.0
    holds = 0
    agree = 0
    disagreements = []
    total = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        dim = 2 if seed % 3 else 3
        m = 32 if dim == 2 else 16
        g = GridSpec(dim, m, 1.0)
        side = 16 if dim == 2 else 8
        from smalljump.covering import DyadicCube
        cube = DyadicCube(0, (-side // 2,) * dim, side)
        extent = int(rng.integers(2, 4))
        plane = m // 2 + int(rng.integers(-2, 3))
        lo = tuple(m // 2 - extent // 2 for _ in range(dim - 1))
        patch = CrackPatch(0, plane, lo, tuple(v + extent for v in lo),
                           max(2, extent), 2)
        opening = rng.normal(size=dim)
        opening *= float(rng.uniform(0.05, 0.5)) / np.linalg.norm(opening)
        u, j = field_with_patches(g, [patch], [opening], rng)
        rep = extract_exceptional_set(u, j, symmetric_gradient(u, j), cube,
                                      c_star=c_star)
        total += 1
        if (not rep.violation and rep.constants["c_omega"] <= c_star
                and rep.constants["c_sobolev"] <= c_star):
            holds += 1
        sl = cube.enlarged_cell_ranges(g, "q2")
        centers = g.cell_center_grid()[sl].reshape(-1, dim)
        vals = u.cell_means()[sl].reshape(-1, dim)
        assert centers.shape[0] <= 12 ** 3
        _, mask, _ = residual_prefix_oracle(centers, vals, rep.budget_cells)
        trim = rep.omega.local_mask.reshape(-1)
        sym = int(np.count_nonzero(mask != trim))
        union = max(int(np.count_nonzero(mask | trim)), 1)
        if sym / union <= 0.10:
            agree += 1
        else:
            disagreements.append({"seed": seed, "trim": int(trim.sum()),
                                  "oracle": int(mask.sum())})
    elapsed = time.time() - t0
    ok = holds == total and agree >= 90 and elapsed <= 300.0
    _verdict(5, ok, f"budgets hold on {holds}/{total} cubes, oracle "
                    f"agreement {agree}/{total} "
                    f"(logged disagreements: {disagreements}), {elapsed:.1f}s")


def test_criterion_6_oracle_exactness():
    t0 = time.time()
    psi_ok = 0
    consistency_ok = 0
    greedy_match = 0
    mismatches = []
    instances = []
    for i in range(10):
        m = (6, 7, 8)[i % 3]
        mid = m // 2
        n_line = min(m - 2, 4 + i % 3)
        cands = [(0, (mid, j)) for j in range(1, 1 + n_line)]
        if i % 2:
            cands += [(1, (j, mid)) for j in range(1, min(m - 1, 1 + n_line))]
        if i == 9:  # one instance at the 14-candidate ceiling
            m, mid = 8, 4
            cands = [(0, (4, j)) for j in range(1, 7)] \
                + [(1, (j, 4)) for j in range(1, 7)] \
                + [(0, (2, 3)), (0, (2, 4))]
        g = GridSpec(2, m, 1.0)
        target = split_target(g, seed=i)
        params = EnergyParams(HOOKE, p=2.0, kappa=2.0 + i % 3,
                              beta=0.01 * (1 + i % 4), g=target)
        instances.append((g, sorted(set(cands)), params))

    for idx, (g, cands, params) in enumerate(instances):
        assert len(cands) <= 14
        res = brute_force_minimize(g, cands, params, homogeneous=True)
        own = JumpSet(g, res.best_config.active_faces())
        psi = deviation_psi0(res.minimizer_u, own, params,
                             centered_box(1.0, 2), cands)
        if abs(psi["psi0"]) <= 1e-9:
            psi_ok += 1
        _, info = solve_elastic(g, own, params, homogeneous=True)
        if info["energy_consistency"] <= 1e-9:
            consistency_ok += 1

        system = ElasticSystem(g, params, homogeneous=True)
        cache: dict[int, float] = {}
        beta_area = params.beta * g.face_area()

        def energy_of(bits: int) -> float:
            if bits not in cache:
                js = JumpSet(g, CrackConfig(tuple(cands), bits).active_faces())
                u, inf = system.solve(js)
                cache[bits] = inf["quadratic_energy"] + beta_area * len(js)
            return cache[bits]

        gb = greedy_bits(len(cands), energy_of)
        if abs(energy_of(gb) - res.min_energy) <= 1e-9:
            greedy_match += 1
        else:
            mismatches.append({"instance": idx,
                               "greedy": energy_of(gb),
                               "exhaustive": res.min_energy})
    elapsed = time.time() - t0
    ok = psi_ok == 10 and consistency_ok == 10 and greedy_match >= 8 \
        and elapsed <= 600.0
    _verdict(6, ok, f"psi0 exact {psi_ok}/10, energy consistency "
                    f"{consistency_ok}/10, greedy matches {greedy_match}/10 "
                    f"(logged: {mismatches or 'none'}), {elapsed:.1f}s")


def test_criterion_7_density_lower_bound():
    t0 = time.time()
    g = GridSpec(2, 32, 1.0)
    target = split_target(g, seed=3)
    params = EnergyParams(HOOKE, p=2.0, kappa=3.0, beta=0.5, g=target)
    faces = [(0, (16, j)) for j in range(32)]
    u, _ = solve_elastic(g, JumpSet(g, faces), params)
    h = g.spacing
    out = density_lower_bound_check(u, JumpSet(g, faces), params,
                                    [2 * h, 4 * h, 8 * h])
    elapsed = time.time() - t0
    ok = out["status"] == "ok" and out["theta1"] >= 0.5 and out["theta0"] > 0 \
        and elapsed <= 120.0
    _verdict(7, ok, f"theta1 {out['theta1']:.3f} >= 0.5, "
                    f"theta0 {out['theta0']:.3f} > 0, {elapsed:.1f}s")


def test_criterion_8_semicontinuity():
    t0 = time.time()
    g = GridSpec(2, 256, 1.0)
    params = EnergyParams(HOOKE, p=2.0, kappa=0.0, beta=1.0)
    verdicts = []
    for kind in ("shrinking-crack", "rigid-patches"):
        rep = vanishing_jump_harness(g, kind, 4, params, eta=SUITE_ETA)
        assert rep["status"] == "ok"
        semi = all(r["pass"] for r in rep["semicontinuity"])
        halving = all(r["halving"] for r in rep["weighted_jump"])
        verdicts.append((kind, semi, halving))
    elapsed = time.time() - t0
    ok = all(s and hv for _, s, hv in verdicts) and elapsed <= 300.0
    _verdict(8, ok, f"{verdicts}, {elapsed:.1f}s")


def test_criterion_9_partition_and_covering_structure(rigid_suite, crack_suite,
                                                      shrink_family):
    sigma_worst = 0.0
    grad_worst = 0.0
    checked = 0
    for res in _COLLECTED_RESULTS:
        part = res.partition
        assert part.partition_sum_error() <= 1e-12
        assert part.max_overlap() <= 2 * 3 ** res.covering.grid.dim
        rep = covering_structure_report(res.covering)
        assert rep["tiling_exact"]
        assert rep["neighbor_ratios_ok"]
        assert rep["min_overlap_constant"] >= rep["overlap_bound"] - 1e-12
        sigma_worst = max(sigma_worst, rep["sigma_constant"])
        grad_worst = max(grad_worst, max(part.grad_scaled.values()))
        checked += 1
    ok = sigma_worst <= SIGMA_LIMIT and grad_worst <= PARTITION_GRAD_LIMIT \
        and checked >= 60
    _verdict(9, ok, f"{checked} coverings: partition sums exact, scale "
                    f"ratios and overlaps verified, slab-count constant "
                    f"{sigma_worst:.2f} <= {SIGMA_LIMIT}, gradient constant "
                    f"{grad_worst:.2f} <= {PARTITION_GRAD_LIMIT}")
