"""Exact desk-scale minimization of the Griffith functionals.

For p = 2 the bulk plus fidelity energy is a positive (semi)definite
quadratic form in the node values; each crack configuration decouples
stencils across its faces, and the solver returns the exact minimizer of
that discrete quadratic.  The brute-force oracle enumerates crack
configurations over a candidate face list, re-solving the bulk problem
per configuration, and exposes minimality gaps, density lower bounds and
vanishing-jump convergence experiments built on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams, energy_G0, energy_breakdown, f_zero
from .errors import SolverError
from .grid import (
    BallRegion,
    BoxRegion,
    DisplacementField,
    Face,
    GridSpec,
    JumpSet,
    Region,
    centered_box,
    faces_in_region,
    node_mask_from_cells,
    region_cell_mask,
)
from .strain import (
    CrackContext,
    affected_cells,
    cell_strain_ops,
    symmetric_gradient,
)

EXHAUSTIVE_LIMIT = 24


@dataclass(frozen=True)
class CrackConfig:
    """Subset of an ordered candidate face list, encoded as a bitmask."""

    candidates: tuple[Face, ...]
    active_bits: int

    def __post_init__(self):
        if self.active_bits >> len(self.candidates):
            raise ValueError("active bits outside the candidate list")

    def active_faces(self) -> list[Face]:
        return [f for k, f in enumerate(self.candidates)
                if self.active_bits >> k & 1]

    def bitstring(self) -> str:
        return format(self.active_bits, f"0{len(self.candidates)}b")[::-1]

    @property
    def n_active(self) -> int:
        return bin(self.active_bits).count("1")


@dataclass
class OracleResult:
    best_config: CrackConfig
    minimizer_u: DisplacementField
    min_energy: float
    breakdown: dict
    per_config: list[dict]
    exhaustive: bool
    psi0: float | None = None


DENSE_DOF_LIMIT = 4000


class ElasticSystem:
    """Quadratic form of the p=2 bulk + fidelity energy on node values.

    The local matrix of every cell comes from the strain module's
    stencils, so the solver's internal energy is exactly the quadrature
    energy.  All crack-free cells share one local matrix, which is built
    once and broadcast over the grid as COO triplets together with the
    fidelity diagonal; a crack set adds cached per-cell corrections
    (minus the crack-free block, plus the cracked one) as more triplets.

    The storage form and its solver follow from the DOF count alone.
    Below DENSE_DOF_LIMIT unknowns the Hessian is a dense array solved by
    LU; above, it is CSR solved by conjugate gradients with a Jacobi
    preconditioner to 1e-12 relative residual.  A single CSR path with a
    sparse LU (``splu``) lost on both sides of the limit (2-vCPU host,
    one BLAS thread): the 2D 8^2 exhaustive oracle (162 DOFs) took 8.4 s
    instead of 2.9 s with 16% more peak memory, and the 2D 64^2 CLI
    oracle (8 450 DOFs) ran in the same time with 22% more peak memory
    from factor fill-in.
    """

    def __init__(self, grid: GridSpec, params: EnergyParams,
                 boundary: str = "free", homogeneous: bool = False,
                 pinned_mask: np.ndarray | None = None,
                 pinned_values: np.ndarray | None = None):
        if params.p != 2.0:
            raise SolverError("the elastic solver is quadratic: p must be 2")
        self.grid = grid
        self.params = params
        self.homogeneous = homogeneous
        self.dim = grid.dim
        self.n_nodes = (grid.cells_per_side + 1) ** grid.dim
        self.n_dof = self.n_nodes * grid.dim

        if homogeneous or params.g is None:
            self.g_vals = np.zeros(grid.node_shape + (grid.dim,))
        else:
            self.g_vals = params.g.values

        if boundary == "free":
            pin = np.zeros(grid.node_shape, dtype=bool)
            if params.kappa <= 0 and pinned_mask is None:
                raise SolverError("singular system: add fidelity or boundary data")
        elif boundary == "fixed":
            coords = np.arange(grid.cells_per_side + 1)
            edge = (coords == 0) | (coords == grid.cells_per_side)
            pin = np.zeros(grid.node_shape, dtype=bool)
            for a in range(grid.dim):
                shape = [1] * grid.dim
                shape[a] = -1
                pin |= edge.reshape(shape)
        else:
            raise ValueError(f"unknown boundary mode {boundary!r}")
        if pinned_mask is not None:
            pin = pin | pinned_mask
        self.pinned = pin
        self.pin_values = self.g_vals if pinned_values is None else pinned_values

        self.dense = self.n_dof < DENSE_DOF_LIMIT
        self._base = None
        self._cell_cache: dict = {}
        self._face_cells: dict = {}
        self._counts = _scatter_corner_weights(
            np.ones(grid.cell_shape), grid.dim)
        # crack-free local matrix, the same for every cell up to a dof shift
        origin = (0,) * grid.dim
        self._std_dofs, self._std_loc = self._cell_local(
            origin, CrackContext(grid, JumpSet(grid)))

    # -- assembly -----------------------------------------------------

    def _dof_offset(self, cells) -> np.ndarray:
        return np.ravel_multi_index(cells, self.grid.node_shape) * self.dim

    def _cell_local(self, cell: tuple[int, ...], ctx: CrackContext):
        """(dof_indices, local_matrix) of one cell's bulk energy."""
        grid = self.grid
        dim = self.dim
        ops, dead = cell_strain_ops(grid, ctx, cell)
        nodes: list[tuple[int, ...]] = []
        node_col: dict[tuple[int, ...], int] = {}
        weights = []
        for a in range(dim):
            row = []
            if ops[a] is not None:
                for node, coef in ops[a]:
                    if node not in node_col:
                        node_col[node] = len(nodes)
                        nodes.append(node)
                    row.append((node_col[node], coef))
            weights.append(row)
        n_loc = len(nodes) * dim

        def col(k: int, comp: int) -> int:
            return k * dim + comp

        lam, mu = self.params.hooke.lame_lambda, self.params.hooke.lame_mu
        hvol = grid.spacing ** dim
        loc = np.zeros((n_loc, n_loc))
        trace_row = np.zeros(n_loc)
        for c in range(dim):
            for a in range(dim):
                if a in dead or c in dead:
                    continue
                row = np.zeros(n_loc)
                for k, coef in weights[a]:
                    row[col(k, c)] += 0.5 * coef
                for k, coef in weights[c]:
                    row[col(k, a)] += 0.5 * coef
                loc += 2.0 * mu * np.outer(row, row)
                if a == c:
                    trace_row += row
        loc += lam * np.outer(trace_row, trace_row)
        loc *= hvol
        node_idx = np.array(nodes, dtype=int).reshape(-1, dim).T
        dofs = (self._dof_offset(node_idx)[:, None] + np.arange(dim)).reshape(-1)
        return dofs, loc

    def _base_system(self):
        """Hessian, linear term and constant for the crack-free stencils.

        E = 0.5 u'Hu - f'u + c, with E_cell = 0.5 u loc u per cell.
        """
        if self._base is not None:
            return self._base
        n = self.n_dof
        cells = np.indices(self.grid.cell_shape).reshape(self.dim, -1)
        dofs = self._dof_offset(cells)[:, None] + self._std_dofs
        rows, cols, vals = _triplets(dofs, self._std_loc)
        f = np.zeros(n)
        const = 0.0
        kappa = self.params.kappa
        if kappa > 0:
            w = kappa * self.grid.spacing ** self.dim / 2 ** self.dim
            diag = 2.0 * w * np.repeat(self._counts.reshape(-1), self.dim)
            rows = np.concatenate([rows, np.arange(n)])
            cols = np.concatenate([cols, np.arange(n)])
            vals = np.concatenate([vals, diag])
            f += diag * self.g_vals.reshape(-1)
            const += w * float(np.sum(self._counts[..., None] * self.g_vals ** 2))
        if self.dense:
            H = np.zeros((n, n))
            np.add.at(H, (rows, cols), vals)
        else:
            from scipy import sparse
            H = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        self._base = (H, f, const)
        return self._base

    def _cells_of_face(self, face: Face) -> tuple:
        if face not in self._face_cells:
            probe = JumpSet(self.grid, [face])
            self._face_cells[face] = tuple(sorted(
                affected_cells(self.grid, probe)))
        return self._face_cells[face]

    def _correction(self, cell: tuple[int, ...], ctx: CrackContext):
        """Triplets replacing the cell's crack-free block by its cracked one."""
        std = self._dof_offset(cell) + self._std_dofs
        dofs, loc = self._cell_local(cell, ctx)
        return tuple(np.concatenate(parts) for parts in
                     zip(_triplets(std, -self._std_loc), _triplets(dofs, loc)))

    def system_for(self, jumps: JumpSet):
        H0, f, const = self._base_system()
        corrections = []
        if len(jumps) > 0:
            ctx = CrackContext(self.grid, jumps)
            cell_faces: dict[tuple[int, ...], list] = {}
            for face in jumps.sorted_faces():
                owner = face in jumps.owner_high
                for cell in self._cells_of_face(face):
                    cell_faces.setdefault(cell, []).append((face, owner))
            for cell in sorted(cell_faces):
                key = (cell, frozenset(cell_faces[cell]))
                if key not in self._cell_cache:
                    self._cell_cache[key] = self._correction(cell, ctx)
                corrections.append(self._cell_cache[key])
        if not corrections:
            return H0, f, const
        rows, cols, vals = (np.concatenate(parts) for parts in zip(*corrections))
        if self.dense:
            H = H0.copy()
            np.add.at(H, (rows, cols), vals)
        else:
            from scipy import sparse
            H = (H0 + sparse.coo_matrix((vals, (rows, cols)),
                                        shape=H0.shape)).tocsr()
        return H, f, const

    def fidelity_energy(self, u: DisplacementField) -> float:
        if self.params.kappa <= 0:
            return 0.0
        w = self.params.kappa * self.grid.spacing ** self.dim / 2 ** self.dim
        diff2 = np.sum((u.values - self.g_vals) ** 2, axis=-1)
        return w * float(np.sum(self._counts * diff2))

    def solve(self, jumps: JumpSet) -> tuple[DisplacementField, dict]:
        H, f, const = self.system_for(jumps)
        pin = np.repeat(self.pinned.reshape(-1), self.dim)
        free, pinned = np.flatnonzero(~pin), np.flatnonzero(pin)
        x = self.pin_values.reshape(-1).copy()
        # outer indexing slices a dense array and a CSR matrix alike
        rhs = f[free] - H[free[:, None], pinned] @ x[pinned]
        Hff = H[free[:, None], free]
        if self.dense:
            try:
                sol = np.linalg.solve(Hff, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular elastic system: {exc}") from exc
        else:
            from scipy.sparse import diags
            from scipy.sparse.linalg import cg
            diag = Hff.diagonal()
            if np.any(diag <= 0):
                raise SolverError("singular elastic system: nonpositive diagonal")
            sol, info = cg(Hff, rhs, rtol=1e-12, atol=0.0, M=diags(1.0 / diag),
                           maxiter=20 * rhs.size)
            if info != 0:
                raise SolverError(f"conjugate gradients did not converge ({info})")
        x[free] = sol
        residual = float(np.linalg.norm(Hff @ sol - rhs))
        rel = residual / max(float(np.linalg.norm(rhs)), 1e-300)
        if rel > 1e-10:
            raise SolverError(f"elastic solve did not converge: rel residual {rel:.2e}")
        vals = x.reshape(self.grid.node_shape + (self.dim,))
        u = DisplacementField(self.grid, vals)
        quad_energy = float(0.5 * x @ (H @ x) - f @ x + const)
        return u, {"relative_residual": rel, "quadratic_energy": quad_energy,
                   "energy_scale": abs(const)}


def _triplets(dofs: np.ndarray, loc: np.ndarray):
    """COO (rows, cols, vals) of ``loc`` placed on ``dofs`` x ``dofs``.

    Leading axes of ``dofs`` place one copy of ``loc`` per row.
    """
    shape = dofs.shape + dofs.shape[-1:]
    rows = np.broadcast_to(dofs[..., :, None], shape).reshape(-1)
    cols = np.broadcast_to(dofs[..., None, :], shape).reshape(-1)
    vals = np.broadcast_to(loc, shape).reshape(-1)
    return rows, cols, vals


def _scatter_corner_weights(cell_ones: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(tuple(s + 1 for s in cell_ones.shape))
    for corner in np.ndindex(*(2,) * dim):
        sl = tuple(slice(c, c + s) for c, s in zip(corner, cell_ones.shape))
        out[sl] += cell_ones
    return out


def solve_elastic(grid: GridSpec, jumps: JumpSet, params: EnergyParams,
                  boundary: str = "free", homogeneous: bool = False,
                  pinned_mask: np.ndarray | None = None,
                  pinned_values: np.ndarray | None = None,
                  system: ElasticSystem | None = None
                  ) -> tuple[DisplacementField, dict]:
    """Exact minimizer of the discrete bulk + fidelity energy for a fixed
    crack set; the energy consistency against the quadrature functional
    is returned in the info dictionary."""
    sys_ = system or ElasticSystem(grid, params, boundary, homogeneous,
                                   pinned_mask, pinned_values)
    u, info = sys_.solve(jumps)
    bd = energy_breakdown(u, jumps, params, homogeneous=homogeneous)
    info["bulk_fidelity_energy"] = bd["bulk"] + bd["fidelity"]
    gap = abs(info["quadratic_energy"] - info["bulk_fidelity_energy"])
    scale = max(abs(info["bulk_fidelity_energy"]),
                abs(info["quadratic_energy"]),
                info.get("energy_scale", 0.0), 1e-12)
    info["energy_consistency"] = gap / scale
    return u, info


def _rank_key(energy: float, config: CrackConfig) -> tuple:
    return (energy, config.n_active, config.bitstring())


def brute_force_minimize(grid: GridSpec, candidates: list[Face],
                         params: EnergyParams,
                         region: Region | None = None,
                         base_jumps: JumpSet | None = None,
                         homogeneous: bool = False,
                         boundary: str = "free",
                         pinned_mask: np.ndarray | None = None,
                         pinned_values: np.ndarray | None = None,
                         heuristic: bool = False) -> OracleResult:
    """Enumerate crack configurations, re-solving the bulk per subset.

    Ties are broken by fewer active faces, then lexicographic bitset.
    Above the exhaustive limit a greedy add/remove search from both
    extremes is used and flagged.
    """
    candidates = sorted(candidates)
    k = len(candidates)
    if k > EXHAUSTIVE_LIMIT and not heuristic:
        raise ValueError(f"{k} candidates exceed the exhaustive regime; "
                         "set heuristic=True")
    base = base_jumps or JumpSet(grid)
    base_faces = base.faces - set(candidates)
    system = ElasticSystem(grid, params, boundary, homogeneous,
                           pinned_mask, pinned_values)

    beta_area = params.beta * grid.face_area()

    def eval_config(bits: int) -> tuple[float, DisplacementField, dict]:
        cfg = CrackConfig(tuple(candidates), bits)
        jumps = JumpSet(grid, base_faces | set(cfg.active_faces()))
        u, info = system.solve(jumps)
        if region is None:
            fid = system.fidelity_energy(u)
            bd = {"bulk": info["quadratic_energy"] - fid, "fidelity": fid,
                  "surface": beta_area * len(jumps),
                  "total": info["quadratic_energy"] + beta_area * len(jumps)}
        else:
            bd = energy_breakdown(u, jumps, params, region, homogeneous)
        return bd["total"], u, bd

    per_config: list[dict] = []
    best = None
    if heuristic and k > EXHAUSTIVE_LIMIT:
        visited: dict[int, tuple[float, DisplacementField, dict]] = {}

        def energy_of(bits: int) -> float:
            if bits not in visited:
                visited[bits] = eval_config(bits)
            return visited[bits][0]

        best_bits = greedy_bits(k, energy_of)
        total, u, bd = visited[best_bits]
        best = (CrackConfig(tuple(candidates), best_bits), u, total, bd)
        per_config = [{"bits": CrackConfig(tuple(candidates), b).bitstring(),
                       **{kk: vv for kk, vv in v[2].items()}}
                      for b, v in sorted(visited.items())]
        exhaustive = False
    else:
        for bits in range(2 ** k):
            total, u, bd = eval_config(bits)
            cfg = CrackConfig(tuple(candidates), bits)
            per_config.append({"bits": cfg.bitstring(), **bd})
            if best is None or _rank_key(total, cfg) < _rank_key(best[2], best[0]):
                best = (cfg, u, total, bd)
        exhaustive = True

    cfg, u, total, bd = best
    return OracleResult(best_config=cfg, minimizer_u=u, min_energy=total,
                        breakdown=bd, per_config=per_config,
                        exhaustive=exhaustive)


def greedy_bits(k: int, energy_of) -> int:
    """Best-improvement single-flip descent from both extremes."""
    best_bits, best_e = None, math.inf
    for start in (0, 2 ** k - 1):
        bits = start
        e = energy_of(bits)
        while True:
            cand = [(energy_of(bits ^ (1 << j)), bits ^ (1 << j))
                    for j in range(k)]
            cand.sort(key=lambda t: (t[0], bin(t[1]).count("1"), t[1]))
            if cand and cand[0][0] < e - 1e-15:
                e, bits = cand[0]
            else:
                break
        if e < best_e:
            best_bits, best_e = bits, e
    return best_bits


def deviation_psi0(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
                   region: BoxRegion, candidates: list[Face],
                   margin_cells: int = 1) -> dict:
    """Gap between the field's homogeneous energy and the best competitor
    agreeing with it outside a compactly contained sub-box."""
    grid = u.grid
    h = grid.spacing
    inner = BoxRegion(tuple(v + margin_cells * h for v in region.lo),
                      tuple(v - margin_cells * h for v in region.hi))
    for f in candidates:
        c = grid.face_center(f)
        if not bool(inner.contains_points(c[None, :])[0]):
            raise ValueError("candidate faces must lie inside the inner box")
    node_inside = inner.contains_points(grid.node_coord_grid())
    pinned_mask = ~node_inside
    reg = None if bool(np.all(region.cell_mask(grid))) else region
    own = energy_breakdown(u, jumps, params, reg, homogeneous=True)["total"]

    result = brute_force_minimize(
        grid, candidates, params, region=reg, base_jumps=jumps,
        homogeneous=True, boundary="free", pinned_mask=pinned_mask,
        pinned_values=u.values)
    psi0 = own - result.min_energy
    result.psi0 = psi0
    return {"psi0": psi0, "own_energy": own, "infimum": result.min_energy,
            "oracle": result}


def density_lower_bound_check(u: DisplacementField, jumps: JumpSet,
                              params: EnergyParams,
                              radii: list[float]) -> dict:
    """Scaling of energy and crack area in balls centered on the crack.

    For each crack face center x and radius rho with the ball compactly
    inside the domain, reports G0(u, ball)/rho^(n-1) and crack area over
    rho^(n-1); the minima over centers are the empirical density
    constants."""
    grid = u.grid
    if len(jumps) == 0:
        return {"status": "vacuous", "rows": []}
    strain = symmetric_gradient(u, jumps)
    rows = []
    theta0_min, theta1_min = math.inf, math.inf
    for rho in radii:
        best0, best1 = math.inf, math.inf
        used = 0
        for face in jumps.sorted_faces():
            x = grid.face_center(face)
            if np.max(np.abs(x)) + rho > grid.half_width - grid.spacing:
                continue
            used += 1
            ball = BallRegion(tuple(float(v) for v in x), rho)
            g0 = energy_G0(u, jumps, params, ball, strain=strain)
            area = faces_in_region(grid, jumps, ball) * grid.face_area()
            scale = rho ** (grid.dim - 1)
            best0 = min(best0, g0 / scale)
            best1 = min(best1, area / scale)
        rows.append({"rho": rho, "centers": used,
                     "theta0": None if used == 0 else best0,
                     "theta1": None if used == 0 else best1})
        if used:
            theta0_min = min(theta0_min, best0)
            theta1_min = min(theta1_min, best1)
    ok = math.isfinite(theta1_min) and theta1_min > 0 and theta0_min > 0
    return {"status": "ok" if ok else "degenerate", "rows": rows,
            "theta0": theta0_min, "theta1": theta1_min}


def vanishing_jump_harness(grid: GridSpec, kind: str, levels: int,
                           params: EnergyParams, eta: float,
                           kappa0: float = 0.1, seed: int = 0,
                           t_values: tuple[float, ...] = (0.25, 0.5, 0.75)
                           ) -> dict:
    """Convergence experiment along a built-in vanishing-jump family.

    Per level: run the approximation pipeline, fit the global rigid
    drift, and report (i) the median distance to the limit field off the
    exceptional set, (ii) the tail semicontinuity of the homogeneous bulk
    energy on the boxes Q_t, and (iii) the decay of the weighted crack
    area.  Levels outside the smallness regime are skipped with notice.
    """
    from dataclasses import replace

    from .approximator import ApproxConfig, approximate
    from .generators import vanishing_sequence
    from .kornfit import fit_rigid_motion

    seq = vanishing_sequence(grid, kind, levels, seed=seed)
    centers = grid.cell_center_grid().reshape(-1, grid.dim)
    hvol = grid.spacing ** grid.dim

    runs = []
    skipped = []
    for lv, (u, jumps, meta) in enumerate(seq):
        kappa_lv = kappa0 * 4.0 ** (-lv)
        delta_raw = jumps.measure() ** (1.0 / grid.dim)
        if delta_raw >= eta:
            skipped.append({"level": lv, "delta": delta_raw,
                            "notice": "outside the smallness regime"})
            continue
        params_lv = replace(params, kappa=kappa_lv)
        cfg = ApproxConfig(eta=eta)
        res = approximate(u, jumps, params_lv, cfg)
        motion = fit_rigid_motion(centers, u.cell_means().reshape(-1, grid.dim))
        g0 = energy_G0(u, jumps, params_lv)
        runs.append({"level": lv, "u": u, "jumps": jumps, "res": res,
                     "motion": motion, "kappa": kappa_lv, "meta": meta,
                     "g0_total": g0})
    if not runs:
        return {"status": "all levels skipped", "skipped": skipped}

    coords = grid.node_coord_grid()
    last = runs[-1]
    u_inf_vals = last["res"].u_tilde.values - last["motion"](coords)
    u_inf = DisplacementField(grid, u_inf_vals)
    e_inf = symmetric_gradient(u_inf, last["res"].new_jump)

    reference = max(r["g0_total"] for r in runs)
    tol = 1e-6 * reference

    medians = []
    for r in runs:
        omega_nodes = node_mask_from_cells(r["res"].omega_cells)
        diff = np.linalg.norm(r["u"].values - r["motion"](coords) - u_inf_vals,
                              axis=-1)
        medians.append(float(np.median(diff[~omega_nodes])))

    strain_terms = {}
    for r in runs:
        strain_terms[r["level"]] = symmetric_gradient(r["u"], r["jumps"])

    semicontinuity = []
    for t in t_values:
        box = centered_box(t, grid.dim)
        mask = region_cell_mask(grid, box)
        lhs = float(np.sum(f_zero(e_inf.cell_values, params)[mask]) * hvol)
        tail = [float(np.sum(
            f_zero(strain_terms[r["level"]].cell_values, params)[mask]) * hvol)
            for r in runs]
        bound = min(tail) + tol
        semicontinuity.append({"t": t, "lhs": lhs, "tail_min": min(tail),
                               "tolerance": tol, "pass": lhs <= bound})

    weighted_jump = []
    for t in t_values:
        box = centered_box(t, grid.dim)
        vals = [params.beta * faces_in_region(grid, r["jumps"], box)
                * grid.face_area() for r in runs]
        halving = all(vals[i + 1] <= 0.5 * vals[i] + 1e-15
                      for i in range(len(vals) - 1))
        weighted_jump.append({"t": t, "values": vals, "halving": halving})

    return {
        "status": "ok",
        "kind": kind,
        "skipped": skipped,
        "levels": [r["level"] for r in runs],
        "areas": [r["meta"]["area"] for r in runs],
        "kappas": [r["kappa"] for r in runs],
        "median_distance": medians,
        "median_nonincreasing": all(medians[i + 1] <= medians[i] + 1e-12
                                    for i in range(len(medians) - 1)),
        "semicontinuity": semicontinuity,
        "weighted_jump": weighted_jump,
        "reference_energy": reference,
    }
