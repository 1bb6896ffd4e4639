"""Assembly of the smooth approximant and verification of its contract.

The pipeline: pick a crown ring with controlled budgets, tile the
selected box by dyadic cubes, classify cubes by local crack content, fit
a rigid motion and trim an exceptional set on each cracked good cube,
mollify u once per cube side (cubes with exceptional cells in stacks),
and blend with the partition of unity.  The original field is kept on
bad cubes and, through the rim patch, outside the selected box, so the
approximant matches the input there exactly and new jump faces appear
only on the bad-set boundary.

Every quantitative property of the construction is measured against its
stated budget; the limiting constants are frozen, not assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .covering import (
    CrownSelection,
    Partition,
    WhitneyCovering,
    bad_cell_mask,
    boundary_faces_of_mask,
    build_covering,
    classify,
    default_eta,
    lattice_delta,
    max_feasible_delta,
    partition_of_unity,
    row_groups,
    select_crown,
)
from .energy import (
    EnergyParams,
    cellwise_pth_power,
    f_zero,
    strain_pth_power,
)
from .errors import CoveringError, RegimeError
from .grid import (
    HIGH_OWNED,
    LOW_OWNED,
    BoxRegion,
    DisplacementField,
    GridSpec,
    JumpSet,
    centered_box,
    corner_average,
    faces_in_region,
    window_flat_index,
)
from .kornfit import (
    FitReport,
    extract_exceptional_set,
    smooth_windows,
    smoothing_windows,
)
from .mollify import mollify_stack, mollify_strain_box
from .strain import strain_slabs, symmetric_gradient

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

DEFAULT_PROPERTY_LIMITS = MappingProxyType({
    "p1_match_outside": 1e-12,
    "p1_boundary_faces": 0.0,
    "p2_new_jump": 40.0,
    "p3_strain_error": 4.0,
    "p3_energy": 4.0,
    "p4_volume": 4.0,
    "p4_distance": 1.0,
    "p5_weighted_energy": 2.0,
    "p6_lp_growth": 1.0,
})
# Boundary trace check: mismatch thresholds and half-ball radii (cells).
TRACE_EPSILONS = (1e-2, 1e-3)
TRACE_RADII_CELLS = (8, 4, 2)


@dataclass
class ApproxConfig:
    """Knobs of the approximation pipeline."""

    eta: float | None = None            # gate/classification threshold
    c_star: float = C_STAR_DEFAULT
    delta: float | None = None          # covering scale override

    def resolved_eta(self, dim: int) -> float:
        return self.eta if self.eta is not None else default_eta(dim, self.c_star)


@dataclass
class PropertyCheck:
    """One property against its frozen limit, looked up by name; a check
    with an extra requirement (p2's containment) also needs ``condition``."""

    name: str
    lhs: float
    budget: float
    realized: float
    detail: dict = field(default_factory=dict)
    condition: bool = True

    @property
    def limit(self) -> float:
        return DEFAULT_PROPERTY_LIMITS[self.name]

    @property
    def passed(self) -> bool:
        return self.realized <= self.limit and self.condition

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
    """The approximant and its construction; ``strain`` is e(u) of the
    input, ``strain_norm`` its L^p norm and ``u_pth`` |u|^p per cell of
    the input, each computed once and read by the verification."""

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
    strain: np.ndarray
    strain_norm: float
    u_pth: np.ndarray

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
    params.hooke.validate(grid.dim)

    eta = config.resolved_eta(grid.dim)
    delta_raw = jumps.measure() ** (1.0 / grid.dim)
    if delta_raw >= eta:
        raise RegimeError(
            f"jump too large for approximation regime: delta {delta_raw:.4g} "
            f">= eta {eta:.4g}")

    delta = _resolve_delta(grid, delta_raw, config)
    strain = symmetric_gradient(u, jumps)
    strain_p = strain_pth_power(strain, params.p)
    strain_norm = float(np.sum(strain_p) * grid.spacing ** grid.dim) \
        ** (1.0 / params.p)

    u_pth = cellwise_pth_power(u.values, grid, params.p)
    selection = select_crown(u, jumps, strain_p, u_pth, delta)
    del strain_p
    covering = build_covering(grid, selection)
    classify(covering, jumps, eta)

    fits: dict[int, FitReport] = {}
    demoted: list[int] = []
    cracked = covering.good & (covering.crack_in_third != 0.0)
    for i in np.flatnonzero(cracked).tolist():
        rep = extract_exceptional_set(u, jumps, strain, covering.cubes[i],
                                      config.c_star, p=params.p)
        if rep.violation:
            covering.good[i] = False
            demoted.append(i)
        else:
            fits[i] = rep
    if demoted:
        covering.bad_cells = bad_cell_mask(covering)

    partition = partition_of_unity(covering)
    # u~ in the numerator's buffer: the quotient on blended nodes, u elsewhere
    values = _blend_numerator(u, partition, fits)
    blend_nodes = partition.blend_node_mask()[..., None]
    np.divide(values, partition.densum[..., None], out=values, where=blend_nodes)
    np.copyto(values, u.values, where=~blend_nodes)
    u_tilde = DisplacementField(grid, values)

    new_jump = _compose_jump(grid, covering, jumps)
    omega_cells = _global_omega(grid, covering, fits)

    radius = (covering.w0_h - 0.5) * grid.spacing
    _assert_structure(u, u_tilde, omega_cells, radius, delta)

    fit_summaries = [
        {"cube": i, "level": covering.cubes[i].level, **fits[i].to_summary()}
        for i in sorted(fits)
    ]
    return ApproxResult(
        u_tilde=u_tilde, new_jump=new_jump, omega_cells=omega_cells,
        radius=radius, delta=delta, selection=selection, covering=covering,
        partition=partition, fit_summaries=fit_summaries,
        demoted_cubes=demoted, strain=strain, strain_norm=strain_norm,
        u_pth=u_pth)


def _blend_numerator(u: DisplacementField, partition: Partition,
                     fits: dict[int, FitReport]) -> np.ndarray:
    """sum_i phi~_i u_i + rim_phi u at every node, where u_i is cube i's
    smoothed field.  Without exceptional cells, u_i is u mollified at the
    cube's scale, read from one convolution per side over the box that
    side's smoothing windows span: an entry ``margin`` inside it sums the
    same kernel taps in the same order as on the cube's own window.  Cubes
    with exceptional cells are smoothed in stacks of equal side and window
    shapes.  Values are laid out like ``partition.phi_tilde``, so one
    bincount per component adds each node's terms in entry order."""
    grid = u.grid
    dim = grid.dim
    cov = partition.covering
    index = partition.cube_index
    sides = cov.sides[index]
    lo, hi = (b[index] for b in cov.boxes12["q1"])
    start, stop = smoothing_windows(grid, lo, hi, sides)
    corner, shape = partition.window_start, partition.window_shape
    u_i = np.empty((partition.phi_tilde.size, dim))

    def put(members, field, rel, win):
        # partition windows (low corners rel) of a stack of one field per
        # member, or of one field shared by all members
        pick = window_flat_index(field.shape[1:1 + dim], rel, win)
        pick += math.prod(field.shape[1:1 + dim]) * np.arange(len(field))[:, None]
        rows = partition.offset[members, None] + np.arange(pick.shape[1])
        u_i[rows] = field.reshape(-1, dim)[pick]

    omega = np.array([i in fits and fits[i].omega.n_cells > 0
                      for i in index.tolist()], dtype=bool)
    for side in np.unique(sides[~omega]).tolist():
        level = np.flatnonzero((sides == side) & ~omega)
        box_lo = start[level].min(axis=0)
        box = tuple(map(slice, box_lo.tolist(), stop[level].max(axis=0).tolist()))
        field, _ = mollify_stack(u.values[box][None], dim, side * grid.spacing,
                                 grid.spacing)
        for win, members in row_groups(shape[level]):
            put(level[members], field, corner[level[members]] - box_lo, win)
        del field   # freed before the next side's convolution
    keys = np.column_stack([sides, stop - start, shape])
    for key, members in row_groups(keys[omega]):
        members = np.flatnonzero(omega)[members]
        field, margin = smooth_windows(
            u, key[0], start[members], key[1:1 + dim],
            [fits[i] for i in index[members].tolist()])
        put(members, field, corner[members] - start[members] - margin,
            key[1 + dim:])

    node_index = partition.node_index()
    num = np.empty(grid.node_shape + (dim,))
    for c in range(dim):
        num[..., c] = np.bincount(node_index, partition.phi_tilde * u_i[:, c],
                                  minlength=num[..., c].size
                                  ).reshape(grid.node_shape)
    for c in range(dim):
        num[..., c] += partition.rim_phi * u.values[..., c]
    return num


def _compose_jump(grid: GridSpec, covering: WhitneyCovering,
                  jumps: JumpSet) -> JumpSet:
    """New jump set: bad-set boundary faces plus retained input faces.

    Input faces are erased only where both adjacent cells lie in the
    pure-blend zone (inside the rim support, outside the bad set), where
    the approximant is genuinely smooth.  A new face is owned by its
    blended side, the high one when the bad cell lies below it.
    """
    cheb_h = grid.cell_cheb_norm() / grid.spacing
    smooth = ((cheb_h < covering.w0_h - 6) & ~covering.bad_cells).ravel()
    lo, hi = grid.face_sides(jumps.keys)
    kept = ~(smooth[lo] & smooth[hi])
    new = np.setdiff1d(boundary_faces_of_mask(covering.bad_cells), jumps.keys)
    keys = np.concatenate([jumps.keys[kept], new])
    state = np.concatenate([jumps.state[kept], np.where(
        covering.bad_cells.ravel()[grid.face_sides(new)[0]], HIGH_OWNED, LOW_OWNED)])
    order = np.argsort(keys)
    return JumpSet.from_keys(grid, keys[order], state[order])


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
                      omega: np.ndarray, radius: float, delta: float) -> None:
    grid = u.grid
    sqrt_d = math.sqrt(delta)
    if not (1.0 - sqrt_d < radius < 1.0):
        raise CoveringError(f"radius {radius} outside (1 - sqrt(delta), 1)")
    if any(np.any(u.values[s] != u_tilde.values[s])
           for s in _outside_node_slabs(grid, radius)):
        raise CoveringError("approximant differs from the input outside Q_R")
    omega_centers = grid.cell_centers_1d()[np.argwhere(omega)]
    if omega_centers.size and np.max(np.abs(omega_centers)) >= radius:
        raise CoveringError("exceptional set leaks outside Q_R")


def _outside_node_slabs(grid: GridSpec, radius: float) -> list[tuple[slice, ...]]:
    """Non-empty node slabs whose union is the nodes with max_a |x_a| >
    radius: per axis, the nodes below and above the centred node box."""
    inside = np.flatnonzero(np.abs(grid.node_coords_1d()) <= radius)
    if inside.size == 0:
        return [(slice(None),) * grid.dim]
    n = grid.cells_per_side + 1
    slabs = []
    for a in range(grid.dim):
        for part in (slice(0, int(inside[0])), slice(int(inside[-1]) + 1, n)):
            if part.stop > part.start:
                slabs.append((slice(None),) * a + (part,)
                             + (slice(None),) * (grid.dim - a - 1))
    return slabs


# ---------------------------------------------------------------------------
# Verification of the quantitative properties

def _norm_region_boxes(dim: int, sqrt_d: float) -> list[tuple[str, BoxRegion]]:
    return [("Q_quarter", centered_box(0.25, dim)),
            ("Q_half", centered_box(0.5, dim)),
            ("Q_3quarter", centered_box(0.75, dim)),
            ("Q_inner", centered_box(1.0 - sqrt_d, dim)),
            ("offset_box", BoxRegion((-0.75,) * dim, (0.25,) * dim))]


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
    """Measure every property of the approximant against its budget.

    ``u`` and ``jumps`` are the input that ``result`` was built from;
    its strain, the strain's L^p norm and |u|^p (p of ``params``) are
    read from ``result``.  No check reads ``config``: every property,
    P6 included, is always measured.
    """
    grid = u.grid
    dim, h = grid.dim, grid.spacing
    p = params.p
    delta = result.delta
    sqrt_d = math.sqrt(delta)
    s_ref = 1.0 / (dim * p)
    hvol = h ** dim

    strain_norm_q = result.strain_norm
    bulk_u = f_zero(result.strain, params)
    # e(u~) slab by slab, never whole: its density, and for P3 its distance
    # to the mollified e(u) on the inner box, to the power p
    inner = centered_box(1.0 - sqrt_d, dim).cell_slices(grid)
    mol = mollify_strain_box(result.strain, inner, delta, h)
    bulk_t = np.empty(grid.cell_shape)
    err_p = np.empty(mol.shape[1:])
    r0, r1 = inner[0].start, inner[0].stop
    for sl, e_t in strain_slabs(result.u_tilde, result.new_jump):
        bulk_t[sl] = f_zero(e_t, params)
        lo, hi = max(sl.start, r0), min(sl.stop, r1)
        if lo < hi:
            x = e_t[(slice(None), slice(lo - sl.start, hi - sl.start))
                    + inner[1:]] - mol[:, lo - r0:hi - r0]
            err_p[lo - r0:hi - r0] = strain_pth_power(x, p)
    total_bulk_u = float(np.sum(bulk_u) * hvol)
    u_pth = result.u_pth
    u_norm_q = float(np.sum(u_pth) * hvol) ** (1.0 / p)
    u_scale = 1.0 + u_norm_q
    norm_floor = 1e-12 * u_scale
    energy_floor = 1e-12 * u_scale ** p

    checks: list[PropertyCheck] = []

    # P1: u~ = u outside Q_R, on the nodes and on the crack set: every
    # face of J_u~ delta J_u has its centre strictly inside Q_R, compared
    # in units of h/2, so a face that straddles dQ_R counts too.
    mismatch = max((float(np.max(np.abs(result.u_tilde.values[s] - u.values[s])))
                    for s in _outside_node_slabs(grid, result.radius)),
                   default=0.0)
    checks.append(PropertyCheck("p1_match_outside", mismatch, 1.0, mismatch))
    r2 = round(2 * result.radius / h)
    moved = grid.face_centers2(np.setxor1d(jumps.keys, result.new_jump.keys))
    outside = np.count_nonzero(np.max(np.abs(moved), axis=1, initial=0) >= r2)
    checks.append(PropertyCheck("p1_boundary_faces", float(outside), 1.0,
                                float(outside)))

    # P2: new jump area against the outer-shell crack budget, and exact
    # containment of new faces in the bad-set boundary.
    new_faces = np.setdiff1d(result.new_jump.keys, jumps.keys)
    lhs2 = len(new_faces) * grid.face_area()
    shell = jumps.measure() - faces_in_region(
        grid, jumps, centered_box(1.0 - sqrt_d, dim)) * grid.face_area()
    budget2 = sqrt_d * shell
    contained = bool(np.all(np.isin(
        new_faces, boundary_faces_of_mask(result.covering.bad_cells))))
    checks.append(PropertyCheck("p2_new_jump", lhs2, budget2,
                                _ratio(lhs2, budget2),
                                {"containment": contained},
                                condition=contained))

    # P3, strain form: || e(approx) - mollified e(u) || over the inner box.
    lhs3 = float(np.sum(err_p.ravel()) * hvol) ** (1.0 / p)
    # each whole-grid cell field is released once its property is measured
    del mol, err_p
    budget3 = delta ** s_ref * strain_norm_q
    checks.append(PropertyCheck("p3_strain_error", lhs3, budget3,
                                _ratio(lhs3, budget3, norm_floor)))

    # P3, energy form over a family of regions with 3*delta-dilated bases.
    worst3b = 0.0
    detail3b = {}
    domain = centered_box(1.0, dim)
    for name, region in _norm_region_boxes(dim, sqrt_d):
        lhs = float(np.sum(bulk_t[region.cell_slices(grid)].ravel()) * hvol)
        dilated = region.dilate(3.0 * delta, clip=domain)
        base = float(np.sum(bulk_u[dilated.cell_slices(grid)].ravel()) * hvol)
        excess = max(0.0, lhs - base)
        realized = _ratio(excess, delta ** s_ref * total_bulk_u, energy_floor)
        detail3b[name] = realized
        worst3b = max(worst3b, realized)
    checks.append(PropertyCheck("p3_energy", worst3b, 1.0, worst3b,
                                {"per_region": detail3b}))

    # P4: exceptional volume and field distance off the exceptional set.
    q_r = centered_box(result.radius, dim)
    jump_in_r = faces_in_region(grid, jumps, q_r) * grid.face_area()
    lhs4a = result.omega_volume
    budget4a = delta * jump_in_r
    checks.append(PropertyCheck("p4_volume", lhs4a, budget4a,
                                _ratio(lhs4a, budget4a)))
    diff_p = cellwise_pth_power(result.u_tilde.values, grid, p, u.values)
    lhs4b = float(np.sum(diff_p[~result.omega_cells]) * hvol)
    budget4b = delta ** p * strain_norm_q ** p
    checks.append(PropertyCheck("p4_distance", lhs4b, budget4b,
                                _ratio(lhs4b, budget4b, energy_floor)))
    del diff_p

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
    del psi
    checks.append(PropertyCheck("p5_weighted_energy", worst5, 1.0, worst5,
                                {"per_weight": detail5}))

    # P6: L^p growth over the region family.
    t_pth = cellwise_pth_power(result.u_tilde.values, grid, p)
    worst6 = 0.0
    detail6 = {}
    for name, region in _norm_region_boxes(dim, sqrt_d):
        box = region.cell_slices(grid)
        lhs = float(np.sum(t_pth[box].ravel()) * hvol) ** (1.0 / p)
        base = float(np.sum(u_pth[box].ravel()) * hvol) ** (1.0 / p)
        excess = max(0.0, lhs - base)
        budget = delta ** (1.0 / (2.0 * p)) * (u_norm_q + strain_norm_q)
        realized = _ratio(excess, budget, norm_floor)
        detail6[name] = realized
        worst6 = max(worst6, realized)
    del t_pth
    checks.append(PropertyCheck("p6_lp_growth", worst6, 1.0, worst6,
                                {"per_region": detail6}))

    smooth_proxy = _second_difference_proxy(result.u_tilde, grid, sqrt_d, delta)
    return PropertyReport(checks=checks, s_budget_exponent=s_ref,
                          s_reference_formula="min(pbar/p, 1/(dim*p))",
                          smoothness_proxy=smooth_proxy, delta=delta)


def _second_difference_proxy(u_tilde: DisplacementField, grid: GridSpec,
                             sqrt_d: float, delta: float) -> dict:
    """Largest second difference of the approximant centred on a node of
    the inner box's cells, read on that node box padded by one node along
    the differenced axis."""
    cells = centered_box(1.0 - sqrt_d, grid.dim).cell_slices(grid)
    worst = 0.0
    vals = u_tilde.values
    if cells[0].stop > cells[0].start:
        nodes = tuple(slice(s.start, s.stop + 1) for s in cells)
        n = grid.cells_per_side + 1
        for a in range(grid.dim):
            win = list(nodes)
            win[a] = slice(max(nodes[a].start - 1, 0), min(nodes[a].stop + 1, n))
            second = np.abs(np.diff(vals[tuple(win)], n=2, axis=a))
            # the max before dividing: division by h^2 > 0 is monotone
            worst = max(worst, float(np.max(second) / grid.spacing ** 2))
    scale = max(float(np.max(vals)), -float(np.min(vals))) + 1e-300
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
    return float(np.polyfit(x, y, 1)[0])


def boundary_trace_check(u: DisplacementField, jumps: JumpSet,
                         result: ApproxResult) -> dict:
    """Mismatch fraction in shrinking half-balls at the matching boundary.

    For sample points on the sphere of radius R, reports the volume
    fraction of cells inside the half-ball where the approximant deviates
    from the input by more than each threshold; the fractions must not
    grow as the radius shrinks.
    """
    grid = result.u_tilde.grid
    h = grid.spacing
    r = result.radius
    m = grid.cells_per_side
    reach = max(TRACE_RADII_CELLS) + 1

    points = []
    for axis in range(grid.dim):
        for sign in (-1.0, 1.0):
            pt = np.zeros(grid.dim)
            pt[axis] = sign * r
            points.append(pt)

    rows = []
    passed = True
    for pt in points:
        # every cell whose center is within the largest radius of pt
        cell = np.floor((pt + grid.half_width) / h).astype(int)
        win = tuple(slice(max(c - reach, 0), min(c + reach + 1, m)) for c in cell)
        centers = grid.cell_center_window(win)
        inside_r = np.max(np.abs(centers), axis=-1) < r
        nodes = tuple(slice(s.start, s.stop + 1) for s in win)
        diff_cells = corner_average(np.linalg.norm(
            result.u_tilde.values[nodes] - u.values[nodes], axis=-1), grid.dim)
        d2 = np.sum((centers - pt) ** 2, axis=-1)
        for eps in TRACE_EPSILONS:
            fracs = []
            for rc in TRACE_RADII_CELLS:
                inside = (d2 < (rc * h) ** 2) & inside_r
                n_in = int(np.count_nonzero(inside))
                fracs.append(int(np.count_nonzero(inside & (diff_cells > eps))) / n_in
                             if n_in else 0.0)
            monotone = all(fracs[i + 1] <= fracs[i] + 1e-12
                           for i in range(len(fracs) - 1))
            passed = passed and monotone
            rows.append({"point": [float(v) for v in pt], "epsilon": eps,
                         "radii_cells": list(TRACE_RADII_CELLS),
                         "fractions": fracs, "monotone": monotone})
    return {"pass": passed, "rows": rows}
