"""Assembly of the smooth approximant and verification of its contract.

The pipeline: pick a crown ring with controlled budgets, tile the
selected box by dyadic cubes, classify cubes by local crack content, fit
a rigid motion and trim an exceptional set on each cracked good cube,
mollify per cube, and blend with the partition of unity.  The original
field is kept on bad cubes and, through the rim patch, outside the
selected box, so the approximant matches the input there exactly and new
jump faces appear only on the bad-set boundary.

Every quantitative property of the construction is measured against its
stated budget; limiting constants are configured, not assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .covering import (
    CrownSelection,
    Partition,
    WhitneyCovering,
    boundary_faces_of_mask,
    build_covering,
    classify,
    default_eta,
    lattice_delta,
    max_feasible_delta,
    partition_of_unity,
    select_crown,
)
from .energy import EnergyParams, f_zero, lp_norm_cells, lp_norm_nodes
from .errors import CoveringError, RegimeError
from .grid import (
    BoxRegion,
    DisplacementField,
    Face,
    GridSpec,
    JumpSet,
    centered_box,
    corner_average,
    faces_in_region,
    node_mask_from_cells,
    region_cell_mask,
)
from .kornfit import FitReport, cube_smoothed_field, extract_exceptional_set
from .mollify import Mollifier, mollify
from .strain import symmetric_gradient

# Frozen calibration (scripts/calibrate.py): c_star covers the realized
# per-cube inequality constants (99th percentile 0.63 for the volume
# bound, < 0.01 for the residual norms) while leaving the trimming
# budget room for the full contaminated support; the property limits sit
# 4-8x above the worst realized constants over the randomized suites,
# including crown cracks that force bad cubes (worst new-jump ratio 21).
C_STAR_DEFAULT = 4.0
SUITE_ETA = 0.5
SIGMA_LIMIT = 16.0
# The plateau profile ramps over side/12 with max slope 2, so the scaled
# gradient constant approaches 24 once the grid resolves the ramp.
PARTITION_GRAD_LIMIT = 32.0

DEFAULT_PROPERTY_LIMITS: dict[str, float] = {
    "p1_match_outside": 1e-12,
    "p1_boundary_faces": 0.0,
    "p2_new_jump": 40.0,
    "p3_strain_error": 4.0,
    "p3_energy": 4.0,
    "p4_volume": 4.0,
    "p4_distance": 1.0,
    "p5_weighted_energy": 2.0,
    "p6_lp_growth": 1.0,
}


@dataclass
class ApproxConfig:
    """Knobs of the approximation pipeline."""

    eta: float | None = None            # gate/classification threshold
    c_star: float = C_STAR_DEFAULT
    delta: float | None = None          # covering scale override
    rho: Mollifier = field(default_factory=Mollifier)
    check_lp: bool = True               # track |u|^p budgets and the L^p bound
    property_limits: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PROPERTY_LIMITS))
    s_budget_exponent: float | None = None   # default 1/(dim*p)

    def resolved_eta(self, dim: int) -> float:
        return self.eta if self.eta is not None else default_eta(dim, self.c_star)


@dataclass
class PropertyCheck:
    name: str
    lhs: float
    budget: float
    realized: float
    limit: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "budget": self.budget,
            "realized_constant": None if math.isinf(self.realized) else self.realized,
            "limit": self.limit,
            "pass": self.passed,
            **self.detail,
        }


@dataclass
class PropertyReport:
    checks: list[PropertyCheck]
    s_budget_exponent: float
    s_reference_formula: str
    smoothness_proxy: dict
    delta: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "delta": self.delta,
            "s_budget_exponent": self.s_budget_exponent,
            "s_reference_formula": self.s_reference_formula,
            "smoothness_proxy": self.smoothness_proxy,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }, sort_keys=True)

    def by_name(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass
class ApproxResult:
    u_tilde: DisplacementField
    new_jump: JumpSet
    omega_cells: np.ndarray
    radius: float
    delta: float
    selection: CrownSelection
    covering: WhitneyCovering
    partition: Partition
    fit_summaries: list[dict]
    demoted_cubes: list[int]
    property_report: PropertyReport | None = None
    s_estimate: float | None = None

    @property
    def omega_volume(self) -> float:
        g = self.u_tilde.grid
        return float(np.count_nonzero(self.omega_cells)) * g.spacing ** g.dim


def _resolve_delta(grid: GridSpec, delta_raw: float, config: ApproxConfig) -> float:
    h = grid.spacing
    if config.delta is not None:
        return lattice_delta(grid, config.delta) * h
    target = max(delta_raw, 4.0 * h)
    m = lattice_delta(grid, target)
    m = min(m, max_feasible_delta(grid))
    return m * h


def approximate(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
                config: ApproxConfig | None = None) -> ApproxResult:
    """Build the smooth approximant of a field with a small crack set."""
    config = config or ApproxConfig()
    grid = u.grid
    if not grid.is_dyadic:
        raise RegimeError("approximation requires a power-of-two grid, M >= 8")
    if grid.half_width != 1.0:
        raise RegimeError("approximation is set on the unit cube (half_width 1)")
    params.require_p_gt_one()

    eta = config.resolved_eta(grid.dim)
    delta_raw = jumps.measure() ** (1.0 / grid.dim)
    if delta_raw >= eta:
        raise RegimeError(
            f"jump too large for approximation regime: delta {delta_raw:.4g} "
            f">= eta {eta:.4g}")

    delta = _resolve_delta(grid, delta_raw, config)
    strain = symmetric_gradient(u, jumps)
    u_cells = u.cell_means()

    selection = select_crown(u, jumps, delta, include_lp_budget=config.check_lp,
                             params=params, strain=strain)
    covering = build_covering(grid, selection, delta)
    classify(covering, jumps, eta)

    fits: dict[int, FitReport] = {}
    demoted: list[int] = []
    for i, cube in enumerate(covering.cubes):
        if not covering.good[i] or covering.crack_in_third[i] == 0.0:
            continue
        rep = extract_exceptional_set(u, jumps, cube, config.c_star,
                                      p=params.p, strain=strain,
                                      u_cells=u_cells)
        if rep.violation:
            covering.good[i] = False
            demoted.append(i)
        else:
            fits[i] = rep
    if demoted:
        from .covering import bad_cell_mask
        covering.bad_cells = bad_cell_mask(covering)
        for i in demoted:
            fits.pop(i, None)

    partition = partition_of_unity(covering)

    node_shape = grid.node_shape
    num = np.zeros(node_shape + (grid.dim,))
    for entry in partition.entries:
        cube = covering.cubes[entry.cube_index]
        fit = fits.get(entry.cube_index)
        u_i, win = cube_smoothed_field(u, cube, fit, config.rho)
        local = tuple(slice(s.start - w.start, s.stop - w.start)
                      for s, w in zip(entry.window, win))
        num[entry.window] += entry.phi_tilde[..., None] * u_i[local]
    num[partition.rim_window] += partition.rim_phi[..., None] * u.values

    blend_nodes = partition.blend_node_mask()
    values = u.values.copy()
    values[blend_nodes] = num[blend_nodes] / partition.densum[blend_nodes][..., None]
    u_tilde = DisplacementField(grid, values)

    new_jump = _compose_jump(grid, covering, jumps)
    omega_cells = _global_omega(grid, covering, fits)

    radius = (covering.w0_h - 0.5) * grid.spacing
    _assert_structure(u, u_tilde, omega_cells, covering, radius, delta)

    fit_summaries = [
        {"cube": i, "level": covering.cubes[i].level, **fits[i].to_summary()}
        for i in sorted(fits)
    ]
    return ApproxResult(
        u_tilde=u_tilde, new_jump=new_jump, omega_cells=omega_cells,
        radius=radius, delta=delta, selection=selection, covering=covering,
        partition=partition, fit_summaries=fit_summaries,
        demoted_cubes=demoted)


def _compose_jump(grid: GridSpec, covering: WhitneyCovering,
                  jumps: JumpSet) -> JumpSet:
    """New jump set: bad-set boundary faces plus retained input faces.

    Input faces are erased only where both adjacent cells lie in the
    pure-blend zone (inside the rim support, outside the bad set), where
    the approximant is genuinely smooth.
    """
    centers = grid.cell_centers_1d() / grid.spacing
    cheb = np.maximum.reduce(np.meshgrid(*[np.abs(centers)] * grid.dim,
                                         indexing="ij"))
    smooth = (cheb < covering.w0_h - 6) & ~covering.bad_cells

    kept: list[Face] = []
    owner_high: list[Face] = []
    for face in jumps.sorted_faces():
        axis, idx = face
        hi_cell = idx
        lo_cell = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1:]
        if smooth[lo_cell] and smooth[hi_cell]:
            continue
        kept.append(face)
        if face in jumps.owner_high:
            owner_high.append(face)

    for face in boundary_faces_of_mask(covering.bad_cells):
        if face in jumps.faces:
            continue
        kept.append(face)
        axis, idx = face
        lo_cell = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1:]
        if covering.bad_cells[lo_cell]:
            owner_high.append(face)   # blended side is high: it owns the plane
    return JumpSet(grid, kept, owner_high)


def _global_omega(grid: GridSpec, covering: WhitneyCovering,
                  fits: dict[int, FitReport]) -> np.ndarray:
    omega = np.zeros(grid.cell_shape, dtype=bool)
    for i in sorted(fits):
        rep = fits[i]
        if rep.omega.n_cells == 0:
            continue
        omega[tuple(rep.omega.global_indices().T)] = True
    omega &= ~covering.bad_cells
    return omega


def _assert_structure(u: DisplacementField, u_tilde: DisplacementField,
                      omega: np.ndarray, covering: WhitneyCovering,
                      radius: float, delta: float) -> None:
    grid = u.grid
    sqrt_d = math.sqrt(delta)
    if not (1.0 - sqrt_d < radius < 1.0):
        raise CoveringError(f"radius {radius} outside (1 - sqrt(delta), 1)")
    coords = np.abs(grid.node_coords_1d())
    outside = np.maximum.reduce(
        np.meshgrid(*[coords] * grid.dim, indexing="ij")) > radius
    if np.any(u.values[outside] != u_tilde.values[outside]):
        raise CoveringError("approximant differs from the input outside Q_R")
    if np.any(omega):
        centers = np.abs(grid.cell_centers_1d())
        cheb = np.maximum.reduce(np.meshgrid(*[centers] * grid.dim, indexing="ij"))
        if np.max(cheb[omega]) >= radius:
            raise CoveringError("exceptional set leaks outside Q_R")


# ---------------------------------------------------------------------------
# Verification of the quantitative properties

def _norm_region_boxes(dim: int, sqrt_d: float) -> list[tuple[str, BoxRegion]]:
    fam = [("Q_quarter", centered_box(0.25, dim)),
           ("Q_half", centered_box(0.5, dim)),
           ("Q_3quarter", centered_box(0.75, dim)),
           ("Q_inner", centered_box(1.0 - sqrt_d, dim)),
           ("offset_box", BoxRegion((-0.75,) * dim, (0.25,) * dim))]
    return fam


_LIPSCHITZ_RAMPS = (("const_one", 0.0), ("ramp_1", 1.0), ("ramp_4", 4.0),
                    ("ramp_16", 16.0))


def _ramp_values(grid: GridSpec, lip: float) -> np.ndarray:
    """Tensor-product Lipschitz ramp sampled at cell centers."""
    if lip == 0.0:
        return np.ones(grid.cell_shape)
    centers = grid.cell_centers_1d()
    vals = np.clip(lip * (centers + 0.3), 0.0, 1.0)
    out = vals
    for _ in range(grid.dim - 1):
        out = np.multiply.outer(out, vals)
    return out


def _ratio(excess: float, budget: float, floor: float = 1e-300) -> float:
    """Realized constant; excesses at the numerical noise floor count as 0."""
    if excess <= floor:
        return 0.0
    if budget > 0:
        return excess / budget
    return math.inf


def verify_properties(u: DisplacementField, jumps: JumpSet,
                      result: ApproxResult, params: EnergyParams,
                      config: ApproxConfig | None = None) -> PropertyReport:
    """Measure every property of the approximant against its budget."""
    config = config or ApproxConfig()
    grid = u.grid
    dim, h = grid.dim, grid.spacing
    p = params.p
    delta = result.delta
    sqrt_d = math.sqrt(delta)
    limits = config.property_limits
    s_ref = config.s_budget_exponent if config.s_budget_exponent is not None \
        else 1.0 / (dim * p)
    hvol = h ** dim

    e_u = symmetric_gradient(u, jumps)
    e_t = symmetric_gradient(result.u_tilde, result.new_jump)
    strain_norm_q = lp_norm_cells(e_u.cell_values, grid, p)
    bulk_u = f_zero(e_u.cell_values, params)
    bulk_t = f_zero(e_t.cell_values, params)
    total_bulk_u = float(np.sum(bulk_u) * hvol)
    u_scale = 1.0 + lp_norm_nodes(u.values, grid, p)
    norm_floor = 1e-12 * u_scale
    energy_floor = 1e-12 * u_scale ** p

    checks: list[PropertyCheck] = []

    # P1: exact match outside Q_R; no jump faces on the R-planes.
    coords = np.abs(grid.node_coords_1d())
    outside = np.maximum.reduce(np.meshgrid(*[coords] * dim, indexing="ij")) \
        > result.radius
    mismatch = float(np.max(np.abs(result.u_tilde.values[outside]
                                   - u.values[outside]))) if outside.any() else 0.0
    checks.append(PropertyCheck("p1_match_outside", mismatch, 1.0, mismatch,
                                limits["p1_match_outside"],
                                mismatch <= limits["p1_match_outside"]))
    r_h = result.radius / h
    on_r = 0
    for js in (jumps, result.new_jump):
        for axis, idx in js.faces:
            plane = abs(idx[axis] - grid.cells_per_side // 2)
            if abs(plane - r_h) < 0.25:
                on_r += 1
    checks.append(PropertyCheck("p1_boundary_faces", float(on_r), 1.0,
                                float(on_r), limits["p1_boundary_faces"],
                                on_r <= limits["p1_boundary_faces"]))

    # P2: new jump area against the outer-shell crack budget, and exact
    # containment of new faces in the bad-set boundary.
    new_faces = result.new_jump.faces - jumps.faces
    lhs2 = len(new_faces) * grid.face_area()
    shell = jumps.measure() - faces_in_region(
        grid, jumps, centered_box(1.0 - sqrt_d, dim)) * grid.face_area()
    budget2 = sqrt_d * shell
    bad_boundary = set(boundary_faces_of_mask(result.covering.bad_cells))
    contained = new_faces <= bad_boundary
    checks.append(PropertyCheck("p2_new_jump", lhs2, budget2,
                                _ratio(lhs2, budget2), limits["p2_new_jump"],
                                _ratio(lhs2, budget2) <= limits["p2_new_jump"]
                                and contained,
                                {"containment": bool(contained)}))

    # P3, strain form: || e(approx) - mollified e(u) || over the inner box.
    mol, margin = mollify(e_u.cell_values, dim, delta, h, config.rho)
    inner_box = centered_box(1.0 - sqrt_d, dim)
    mask3 = region_cell_mask(grid, inner_box)
    valid = np.zeros(grid.cell_shape, dtype=bool)
    core = tuple(slice(margin, n - margin) for n in grid.cell_shape)
    valid[core] = True
    if not np.all(valid[mask3]):
        raise CoveringError("mollification margin covers the inner box")
    diff = np.sqrt(np.sum((e_t.cell_values - mol) ** 2, axis=(-2, -1)))
    lhs3 = float(np.sum(diff[mask3] ** p) * hvol) ** (1.0 / p)
    budget3 = delta ** s_ref * strain_norm_q
    r3 = _ratio(lhs3, budget3, norm_floor)
    checks.append(PropertyCheck("p3_strain_error", lhs3, budget3, r3,
                                limits["p3_strain_error"],
                                r3 <= limits["p3_strain_error"]))

    # P3, energy form over a family of regions with 3*delta-dilated bases.
    worst3b = 0.0
    detail3b = {}
    domain = centered_box(1.0, dim)
    for name, region in _norm_region_boxes(dim, sqrt_d):
        mask = region_cell_mask(grid, region)
        lhs = float(np.sum(bulk_t[mask]) * hvol)
        dilated = region.dilate(3.0 * delta, clip=domain)
        base = float(np.sum(bulk_u[region_cell_mask(grid, dilated)]) * hvol)
        excess = max(0.0, lhs - base)
        realized = _ratio(excess, delta ** s_ref * total_bulk_u, energy_floor)
        detail3b[name] = realized
        worst3b = max(worst3b, realized)
    checks.append(PropertyCheck("p3_energy", worst3b, 1.0, worst3b,
                                limits["p3_energy"],
                                worst3b <= limits["p3_energy"],
                                {"per_region": detail3b}))

    # P4: exceptional volume and field distance off the exceptional set.
    q_r = centered_box(result.radius, dim)
    jump_in_r = faces_in_region(grid, jumps, q_r) * grid.face_area()
    lhs4a = result.omega_volume
    budget4a = delta * jump_in_r
    checks.append(PropertyCheck("p4_volume", lhs4a, budget4a,
                                _ratio(lhs4a, budget4a), limits["p4_volume"],
                                _ratio(lhs4a, budget4a) <= limits["p4_volume"]))
    diff_p = corner_average(
        np.linalg.norm(result.u_tilde.values - u.values, axis=-1) ** p, dim)
    lhs4b = float(np.sum(diff_p[~result.omega_cells]) * hvol)
    budget4b = delta ** p * strain_norm_q ** p
    r4b = _ratio(lhs4b, budget4b, energy_floor)
    checks.append(PropertyCheck("p4_distance", lhs4b, budget4b, r4b,
                                limits["p4_distance"],
                                r4b <= limits["p4_distance"]))

    # P5: weighted energy comparison for Lipschitz weights.
    worst5 = 0.0
    detail5 = {}
    for name, lip in _LIPSCHITZ_RAMPS:
        psi = _ramp_values(grid, lip)
        lhs = float(np.sum(psi * bulk_t) * hvol)
        base = float(np.sum(psi * bulk_u) * hvol)
        excess = max(0.0, lhs - base)
        budget = delta ** s_ref * (1.0 + lip) * strain_norm_q ** p
        realized = _ratio(excess, budget, energy_floor)
        detail5[name] = realized
        worst5 = max(worst5, realized)
    checks.append(PropertyCheck("p5_weighted_energy", worst5, 1.0, worst5,
                                limits["p5_weighted_energy"],
                                worst5 <= limits["p5_weighted_energy"],
                                {"per_weight": detail5}))

    # P6: L^p growth over the region family (tracked when requested).
    if config.check_lp:
        u_norm_q = lp_norm_nodes(u.values, grid, p)
        worst6 = 0.0
        detail6 = {}
        for name, region in _norm_region_boxes(dim, sqrt_d):
            mask = region_cell_mask(grid, region)
            lhs = lp_norm_nodes(result.u_tilde.values, grid, p, cell_mask=mask)
            base = lp_norm_nodes(u.values, grid, p, cell_mask=mask)
            excess = max(0.0, lhs - base)
            budget = delta ** (1.0 / (2.0 * p)) * (u_norm_q + strain_norm_q)
            realized = _ratio(excess, budget, norm_floor)
            detail6[name] = realized
            worst6 = max(worst6, realized)
        checks.append(PropertyCheck("p6_lp_growth", worst6, 1.0, worst6,
                                    limits["p6_lp_growth"],
                                    worst6 <= limits["p6_lp_growth"],
                                    {"per_region": detail6}))

    smooth_proxy = _second_difference_proxy(result.u_tilde, grid, sqrt_d, delta)
    report = PropertyReport(checks=checks, s_budget_exponent=s_ref,
                            s_reference_formula="min(pbar/p, 1/(dim*p))",
                            smoothness_proxy=smooth_proxy, delta=delta)
    result.property_report = report
    return report


def _second_difference_proxy(u_tilde: DisplacementField, grid: GridSpec,
                             sqrt_d: float, delta: float) -> dict:
    mask = region_cell_mask(grid, centered_box(1.0 - sqrt_d, grid.dim))
    nodes = node_mask_from_cells(mask)
    worst = 0.0
    vals = u_tilde.values
    for a in range(grid.dim):
        second = np.abs(np.diff(vals, n=2, axis=a)) / grid.spacing ** 2
        sl = [slice(None)] * grid.dim
        sl[a] = slice(1, -1)
        inner = nodes[tuple(sl)]
        if inner.any():
            worst = max(worst, float(np.max(second[inner])))
    scale = float(np.max(np.abs(vals))) + 1e-300
    return {"max_second_difference": worst,
            "scaled_by_delta_sq": worst * delta ** 2 / scale,
            "finite": bool(math.isfinite(worst))}


def fit_decay_exponent(deltas: list[float], values: list[float]) -> float:
    """Log-log slope of values against deltas (positive = decay)."""
    pairs = [(d, v) for d, v in zip(deltas, values) if v > 0]
    if len(pairs) < 2:
        return math.inf
    x = np.log([d for d, _ in pairs])
    y = np.log([v for _, v in pairs])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


def boundary_trace_check(u: DisplacementField, jumps: JumpSet,
                         result: ApproxResult,
                         epsilons: tuple[float, ...] = (1e-2, 1e-3),
                         radii_cells: tuple[int, ...] = (8, 4, 2)) -> dict:
    """Mismatch fraction in shrinking half-balls at the matching boundary.

    For sample points on the sphere of radius R, reports the volume
    fraction of cells inside the half-ball where the approximant deviates
    from the input by more than each threshold; the fractions must not
    grow as the radius shrinks.
    """
    grid = result.u_tilde.grid
    h = grid.spacing
    r = result.radius
    centers = grid.cell_center_grid()
    diff_cells = corner_average(
        np.linalg.norm(result.u_tilde.values - u.values, axis=-1), grid.dim)

    points = []
    for axis in range(grid.dim):
        for sign in (-1.0, 1.0):
            pt = np.zeros(grid.dim)
            pt[axis] = sign * r
            points.append(pt)

    rows = []
    passed = True
    for pt in points:
        for eps in epsilons:
            fracs = []
            for rc in radii_cells:
                rad = rc * h
                d2 = np.sum((centers - pt) ** 2, axis=-1)
                inside = (d2 < rad ** 2) & (np.max(np.abs(centers), axis=-1) < r)
                n_in = int(np.count_nonzero(inside))
                if n_in == 0:
                    fracs.append(0.0)
                    continue
                bad = int(np.count_nonzero(inside & (diff_cells > eps)))
                fracs.append(bad / n_in)
            monotone = all(fracs[i + 1] <= fracs[i] + 1e-12
                           for i in range(len(fracs) - 1))
            passed = passed and monotone
            rows.append({"point": [float(v) for v in pt], "epsilon": eps,
                         "radii_cells": list(radii_cells),
                         "fractions": fracs, "monotone": monotone})
    return {"pass": passed, "rows": rows}
