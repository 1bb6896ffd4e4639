"""Measure realized constants over the randomized suites.

Run from the repository root.  The printed percentiles are the basis of
the frozen defaults in smalljump.approximator (c_star, property limits)
and of the structural constants asserted by the acceptance suite.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from smalljump.approximator import ApproxConfig, approximate, verify_properties
from smalljump.covering import DyadicCube, covering_structure_report
from smalljump.energy import EnergyParams, HookeTensor
from smalljump.generators import (
    random_cracks_field,
    rigid_field,
    shrinking_crack_instance,
    sinusoid_field,
    two_motion_crack_field,
)
from smalljump.grid import GridSpec
from smalljump.kornfit import extract_exceptional_set, residual_prefix_oracle
from smalljump.strain import symmetric_gradient

PARAMS = EnergyParams(HookeTensor(1.0, 1.0), p=2.0)
SUITE_ETA = 0.5


def property_suite():
    stats = defaultdict(list)
    sigma = []
    grad = []
    t0 = time.time()
    runs = 0
    for dim, m, n_inst in ((2, 64, 20), (3, 64, 20)):
        g = GridSpec(dim, m, 1.0)
        for seed in range(n_inst):
            kind = seed % 4
            if kind == 0:
                u, j = rigid_field(g, seed)
            elif kind == 1:
                u, j = sinusoid_field(g, seed)
            elif kind == 2:
                u, j, _ = two_motion_crack_field(
                    g, area=0.004 if dim == 2 else 0.002, seed=seed)
            else:
                u, j, _ = random_cracks_field(g, 2 + seed % 2, 2, seed)
            cfg = ApproxConfig(eta=SUITE_ETA)
            res = approximate(u, j, PARAMS, cfg)
            rep = verify_properties(u, j, res, PARAMS, cfg)
            runs += 1
            for c in rep.checks:
                if np.isfinite(c.realized):
                    stats[c.name].append(c.realized)
            srep = covering_structure_report(res.covering)
            sigma.append(srep["sigma_constant"])
            grad.append(max(res.partition.grad_scaled.values()))
    print(f"property suite: {runs} runs in {time.time()-t0:.1f}s")
    for name in sorted(stats):
        v = np.array(stats[name])
        print(f"  {name:22s} max={v.max():.4g} p99={np.percentile(v,99):.4g} "
              f"median={np.median(v):.4g}")
    print(f"  sigma_constant        max={max(sigma):.4g}")
    print(f"  partition_grad_scaled max={max(grad):.4g}")


def sweep_suite():
    g = GridSpec(2, 256, 1.0)
    stats = defaultdict(list)
    for seed in (7, 8, 9):
        for k in range(4):
            dk = 0.25 * 2 ** (-k)
            u, j, _ = shrinking_crack_instance(g, dk, seed=seed)
            cfg = ApproxConfig(eta=SUITE_ETA, delta=dk)
            res = approximate(u, j, PARAMS, cfg)
            rep = verify_properties(u, j, res, PARAMS, cfg)
            for c in rep.checks:
                if np.isfinite(c.realized):
                    stats[c.name].append(c.realized)
    print("sweep suite:")
    for name in sorted(stats):
        v = np.array(stats[name])
        print(f"  {name:22s} max={v.max():.4g}")


def cube_suite():
    t0 = time.time()
    c_om, c_sob, c_poi = [], [], []
    agree = 0
    total = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        dim = 2 if seed % 3 else 3
        m = 32 if dim == 2 else 16
        g = GridSpec(dim, m, 1.0)
        side = 16 if dim == 2 else 8
        cube = DyadicCube(0, (-side // 2,) * dim, side)
        extent = int(rng.integers(2, 4))
        plane = m // 2 + int(rng.integers(-2, 3))
        from smalljump.generators import CrackPatch, field_with_patches
        lo = tuple(m // 2 - extent // 2 for _ in range(dim - 1))
        patch = CrackPatch(0, plane, lo, tuple(v + extent for v in lo),
                           max(2, extent), 2)
        opening = rng.normal(size=dim)
        opening *= float(rng.uniform(0.05, 0.5)) / np.linalg.norm(opening)
        u, j = field_with_patches(g, [patch], [opening], rng)
        rep = extract_exceptional_set(u, j, symmetric_gradient(u, j), cube,
                                      c_star=4.0)
        if rep.violation:
            continue
        total += 1
        c_om.append(rep.constants["c_omega"])
        if np.isfinite(rep.constants["c_sobolev"]):
            c_sob.append(rep.constants["c_sobolev"])
        if np.isfinite(rep.constants["c_poincare_p"]):
            c_poi.append(rep.constants["c_poincare_p"])
        sl = cube.enlarged_cell_ranges(g, "q2")
        centers = g.cell_center_grid()[sl].reshape(-1, dim)
        vals = u.cell_means()[sl].reshape(-1, dim)
        _, mask, _ = residual_prefix_oracle(centers, vals, rep.budget_cells)
        trim = rep.omega.local_mask.reshape(-1)
        sym = np.count_nonzero(mask != trim)
        union = max(np.count_nonzero(mask | trim), 1)
        if sym / union <= 0.10:
            agree += 1
    print(f"cube suite: {total} cubes in {time.time()-t0:.1f}s, "
          f"oracle agreement {agree}/{total}")
    for name, v in (("c_omega", c_om), ("c_sobolev", c_sob),
                    ("c_poincare_p", c_poi)):
        a = np.array(v)
        print(f"  {name:14s} max={a.max():.4g} p99={np.percentile(a,99):.4g} "
              f"median={np.median(a):.4g}")


if __name__ == "__main__":
    property_suite()
    sweep_suite()
    cube_suite()
