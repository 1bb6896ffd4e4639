"""Crown selection, dyadic covering, good/bad cubes, partition of unity.

Geometry is exact-integer: the covering scale delta is a power-of-two
multiple of 4h, cube anchors and sides live on the h-lattice, and the
7/6, 4/3, 3/2 enlargements are compared in units of h/12, so membership
of cells and faces never depends on floating point.

The refinement toward the boundary of the selected box stops at cubes of
side 4h; the leftover shell of thickness 4h (the rim) is covered by one
explicit boundary patch that carries the original field, so the blended
approximant hands off to the untouched field with no artificial jump.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoveringError
from .grid import DisplacementField, GridSpec, JumpSet, StrainField
from .energy import EnergyParams, cellwise_pth_power

ENLARGE12 = {"q1": 14, "q2": 16, "q3": 18}  # 7/6, 4/3, 3/2 in twelfths


def default_eta(dim: int, c_star: float) -> float:
    """Good-cube threshold 1/(2 * 8^dim * c_star)."""
    return 1.0 / (2.0 * 8 ** dim * c_star)


@dataclass(frozen=True)
class DyadicCube:
    """Axis-aligned cube on the h-lattice, coordinates centered at 0."""

    level: int
    anchor: tuple[int, ...]   # low corner, in h units relative to the center
    side: int                 # in h units

    def bounds12(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of the cube or an enlargement, in h/12 units."""
        f12 = ENLARGE12[which] if which != "q" else 12
        extra = (f12 - 12) * self.side // 2
        lo = np.array(self.anchor, dtype=np.int64) * 12 - extra
        hi = (np.array(self.anchor, dtype=np.int64) + self.side) * 12 + extra
        return lo, hi

    def cell_slices(self, grid: GridSpec) -> tuple[slice, ...]:
        """Slices of the cube's own cells in absolute cell indices."""
        off = grid.cells_per_side // 2
        return tuple(slice(a + off, a + off + self.side) for a in self.anchor)

    def enlarged_cell_ranges(self, grid: GridSpec, which: str) -> tuple[slice, ...]:
        """Cells whose center lies strictly inside the enlargement."""
        lo, hi = self.bounds12(which)
        off = grid.cells_per_side // 2
        out = []
        for a in range(grid.dim):
            lo_rel = (int(lo[a]) - 6) // 12 + 1
            hi_rel = -((-(int(hi[a]) - 6)) // 12) - 1
            out.append(slice(max(lo_rel + off, 0),
                             min(hi_rel + off + 1, grid.cells_per_side)))
        return tuple(out)

    def node_window(self, grid: GridSpec, which: str) -> tuple[slice, ...]:
        """Nodes strictly inside the enlargement, absolute indices."""
        lo, hi = self.bounds12(which)
        off = grid.cells_per_side // 2
        out = []
        for a in range(grid.dim):
            lo_rel = int(lo[a]) // 12 + 1
            hi_rel = -((-int(hi[a])) // 12) - 1
            out.append(slice(max(lo_rel + off, 0),
                             min(hi_rel + off + 1, grid.cells_per_side + 1)))
        return tuple(out)

    def center_h(self) -> np.ndarray:
        return np.array(self.anchor, dtype=float) + self.side / 2.0


def count_faces_in_box12(face_coords12: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> int:
    """Faces (given by h/12 center coordinates) strictly inside the box."""
    if face_coords12.shape[0] == 0:
        return 0
    inside = np.all((face_coords12 > lo) & (face_coords12 < hi), axis=1)
    return int(np.count_nonzero(inside))


def face_coords12(grid: GridSpec, jumps: JumpSet) -> np.ndarray:
    """Integer h/12 coordinates of face centers, shape (n, dim)."""
    faces = jumps.sorted_faces()
    if not faces:
        return np.empty((0, grid.dim), dtype=np.int64)
    off = grid.cells_per_side // 2
    out = np.empty((len(faces), grid.dim), dtype=np.int64)
    for i, (axis, idx) in enumerate(faces):
        for a in range(grid.dim):
            if a == axis:
                out[i, a] = 12 * (idx[a] - off)
            else:
                out[i, a] = 12 * (idx[a] - off) + 6
    return out


# ---------------------------------------------------------------------------
# Crown selection

@dataclass(frozen=True)
class CrownSelection:
    """Chosen crown index with the measured ring budgets."""

    i0: int
    delta: float
    n_annuli: int
    budgets: dict
    candidates: tuple[int, ...]
    include_lp: bool


def pick_two_budget_index(per_candidate: list[tuple[float, ...]],
                          totals: tuple[float, ...]) -> int:
    """Index minimizing the normalized budget sum; first wins ties."""
    best, best_val = 0, math.inf
    for i, vals in enumerate(per_candidate):
        s = 0.0
        for v, t in zip(vals, totals):
            if t > 0:
                s += v / t
            elif v > 0:
                s = math.inf
        if s < best_val:
            best, best_val = i, s
    return best


def lattice_delta(grid: GridSpec, delta: float) -> int:
    """Round delta up to the nearest (4 * 2^j) h, returned in h units."""
    h = grid.spacing
    if delta <= 0:
        raise CoveringError("delta must be positive")
    m = 4
    while m * h < delta * (1 - 1e-12):
        m *= 2
    return m


def max_feasible_delta(grid: GridSpec) -> int:
    """Largest lattice delta (h units) with at least one crown candidate."""
    half = grid.cells_per_side // 2
    m = 4
    best = None
    while m <= half:
        if half // m >= 4:
            best = m
        m *= 2
    if best is None:
        raise CoveringError("grid too coarse for covering")
    return best


def select_crown(u: DisplacementField, jumps: JumpSet, delta: float,
                 include_lp_budget: bool = False,
                 params: EnergyParams | None = None,
                 strain: StrainField | None = None) -> CrownSelection:
    """Pick the crown index whose two rings respect the sqrt-delta budgets.

    Budgets follow the averaging argument over disjoint ring pairs: the
    strain energy and crack area of the selected double ring, and
    optionally the |u|^p mass of the single ring, must not exceed
    8*sqrt(delta) times their totals over the outer shell of width
    sqrt(delta).  The valid candidate with the smallest normalized budget
    sum wins, ties going to the smallest index.
    """
    from .strain import symmetric_gradient

    grid = u.grid
    h = grid.spacing
    m = lattice_delta(grid, delta)
    n_ann = (grid.cells_per_side // 2) // m
    i_max = min(n_ann - 3, max(int(math.floor(1.0 / math.sqrt(m * h))) - 3, 1))
    if n_ann < 4 or i_max < 1:
        raise CoveringError("crown selection infeasible: delta too large for the grid")

    p = params.p if params is not None else 2.0
    if strain is None:
        strain = symmetric_gradient(u, jumps)
    strain_p = np.sqrt(np.sum(strain.cell_values ** 2, axis=(-2, -1))) ** p
    lp_cells = cellwise_pth_power(u.values, grid, p)
    hvol = h ** grid.dim

    centers = grid.cell_center_grid()
    cheb = np.max(np.abs(centers), axis=-1)
    fc12 = face_coords12(grid, jumps)
    face_cheb12 = np.max(np.abs(fc12), axis=1) if fc12.shape[0] else np.empty(0)

    def box_cells(w_h: float) -> np.ndarray:
        return cheb < w_h * h - 1e-12 * h

    def box_faces(w_h: float) -> int:
        if fc12.shape[0] == 0:
            return 0
        return int(np.count_nonzero(face_cheb12 < 12 * w_h - 1e-9))

    # Budget totals cover the sqrt(delta) shell and, at desk scales where
    # the rings reach deeper, every candidate ring as well.
    sqrt_d = math.sqrt(m * h)
    shell_w = min((1.0 - sqrt_d) / h, float((n_ann - i_max - 2) * m))
    total_mask = ~box_cells(shell_w)
    tot_strain = float(np.sum(strain_p[total_mask]) * hvol)
    tot_lp = float(np.sum(lp_cells[total_mask]) * hvol)
    tot_jump = (len(jumps) - box_faces(shell_w)) * grid.face_area()

    cands = list(range(1, i_max + 1))
    rows = []
    for i in cands:
        outer = box_cells((n_ann - i) * m)
        inner = box_cells((n_ann - i - 2) * m)
        ring = outer & ~inner
        a_i = float(np.sum(strain_p[ring]) * hvol)
        b_i = (box_faces((n_ann - i) * m) - box_faces((n_ann - i - 2) * m)) \
            * grid.face_area()
        if include_lp_budget:
            single = outer & ~box_cells((n_ann - i - 1) * m)
            c_i = float(np.sum(lp_cells[single]) * hvol)
            rows.append((a_i, b_i, c_i))
        else:
            rows.append((a_i, b_i))

    bound = 8.0 * sqrt_d
    totals = (tot_strain, tot_jump, tot_lp) if include_lp_budget \
        else (tot_strain, tot_jump)

    def ok(vals):
        return all(v <= bound * t + 1e-12 * (1.0 + t)
                   for v, t in zip(vals, totals))

    valid = [(i, vals) for i, vals in zip(cands, rows) if ok(vals)]
    if not valid:
        raise CoveringError("crown selection infeasible: no ring satisfies the budgets")
    pick = pick_two_budget_index([v for _, v in valid], totals)
    i0, vals = valid[pick]

    names = ("strain", "jump", "lp")[: len(totals)]
    budgets = {nm: {"value": v, "total": t, "bound": bound * t}
               for nm, v, t in zip(names, vals, totals)}
    return CrownSelection(i0=i0, delta=m * h, n_annuli=n_ann, budgets=budgets,
                          candidates=tuple(cands), include_lp=include_lp_budget)


# ---------------------------------------------------------------------------
# Covering construction

@dataclass
class WhitneyCovering:
    """Dyadic cubes tiling the selected box, plus the rim shell."""

    grid: GridSpec
    delta: float
    m: int                     # delta in h units
    i0: int
    n_annuli: int
    cubes: list[DyadicCube]
    slab_counts: dict[int, int]
    w0_h: int                  # half-width of the covered box, h units
    w1_h: int                  # half-width of the interior box, h units
    good: np.ndarray | None = None
    bad_cells: np.ndarray | None = None
    crack_in_third: np.ndarray | None = None
    eta: float | None = None
    jumps: JumpSet | None = None

    @property
    def rim_inner_h(self) -> int:
        return self.w0_h - 4

    def covered_cell_mask(self) -> np.ndarray:
        off = self.grid.cells_per_side // 2
        centers = self.grid.cell_centers_1d() / self.grid.spacing
        inside = np.abs(centers) < self.w0_h
        mask = inside
        for _ in range(self.grid.dim - 1):
            mask = np.multiply.outer(mask, inside)
        return mask

    def rim_cell_mask(self) -> np.ndarray:
        centers = self.grid.cell_centers_1d() / self.grid.spacing
        per = np.abs(centers)
        outer = self.covered_cell_mask()
        cheb = None
        grids = np.meshgrid(*[per] * self.grid.dim, indexing="ij")
        cheb = np.maximum.reduce(grids)
        return outer & (cheb > self.rim_inner_h)

    def flagged(self) -> "WhitneyCovering":
        if self.good is None:
            raise CoveringError("covering flags not set; run classify first")
        return self

    def to_json(self) -> str:
        payload = {
            "delta": self.delta,
            "i0": self.i0,
            "cubes": [
                {
                    "level": c.level,
                    "anchor": list(c.anchor),
                    "side": c.side,
                    "good": bool(self.good[i]) if self.good is not None else None,
                }
                for i, c in enumerate(self.cubes)
            ],
            "bad_voxels": (
                [list(map(int, idx)) for idx in np.argwhere(self.bad_cells)]
                if self.bad_cells is not None else []
            ),
        }
        return json.dumps(payload, sort_keys=True)


def build_covering(grid: GridSpec, selection: CrownSelection,
                   delta: float | None = None) -> WhitneyCovering:
    """Tile the selected box: delta-cubes inside, dyadic slabs in the crown.

    Refinement stops at side 4h; the remaining shell of thickness 4h is
    the rim, handled by the boundary patch of the partition.
    """
    if not grid.is_dyadic:
        raise CoveringError("covering requires a power-of-two grid with M >= 8")
    m = lattice_delta(grid, delta if delta is not None else selection.delta)
    if m < 4:
        raise CoveringError("grid too coarse for covering")
    n_ann = (grid.cells_per_side // 2) // m
    i0 = selection.i0
    if i0 + 1 >= n_ann:
        raise CoveringError("crown index leaves no interior box")
    w0 = (n_ann - i0) * m
    w1 = w0 - m

    cubes: list[DyadicCube] = []
    per_axis = range(-w1, w1, m)
    for anchor in itertools.product(per_axis, repeat=grid.dim):
        cubes.append(DyadicCube(0, anchor, m))

    slab_counts: dict[int, int] = {}
    k_max = int(math.log2(m // 4))
    for k in range(1, k_max + 1):
        side = m >> k
        outer = w0 - side          # outer half-width of slab k
        inner = w0 - 2 * side
        count = 0
        rng_all = range(-outer, outer, side)
        for anchor in itertools.product(rng_all, repeat=grid.dim):
            if all(-inner <= a and a + side <= inner for a in anchor):
                continue
            cubes.append(DyadicCube(k, anchor, side))
            count += 1
        slab_counts[k] = count

    cov = WhitneyCovering(grid=grid, delta=m * grid.spacing, m=m, i0=i0,
                          n_annuli=n_ann, cubes=cubes, slab_counts=slab_counts,
                          w0_h=w0, w1_h=w1)
    _check_geometry(cov)
    return cov


def _check_geometry(cov: WhitneyCovering) -> None:
    half = cov.grid.cells_per_side // 2
    for cube in cov.cubes:
        if cube.side < 4:
            raise CoveringError("cube refined below side 4h")
        _, hi = cube.bounds12("q3")
        lo, _ = cube.bounds12("q3")
        if np.any(hi > 12 * half) or np.any(lo < -12 * half):
            raise CoveringError("enlarged cube exits the domain")


def classify(covering: WhitneyCovering, jumps: JumpSet,
             eta: float) -> WhitneyCovering:
    """Set good/bad flags: good iff crack area in the 3/2 enlargement is
    at most eta * side^(dim-1)."""
    grid = covering.grid
    fc12 = face_coords12(grid, jumps)
    area = grid.face_area()
    n = len(covering.cubes)
    good = np.zeros(n, dtype=bool)
    crack = np.zeros(n)
    for i, cube in enumerate(covering.cubes):
        lo, hi = cube.bounds12("q3")
        meas = count_faces_in_box12(fc12, lo, hi) * area
        crack[i] = meas
        good[i] = meas <= eta * (cube.side * grid.spacing) ** (grid.dim - 1) \
            + 1e-15
    covering.good = good
    covering.crack_in_third = crack
    covering.eta = eta
    covering.jumps = jumps
    covering.bad_cells = bad_cell_mask(covering)
    return covering


def bad_cell_mask(covering: WhitneyCovering) -> np.ndarray:
    mask = np.zeros(covering.grid.cell_shape, dtype=bool)
    for i, cube in enumerate(covering.cubes):
        if not covering.good[i]:
            mask[cube.cell_slices(covering.grid)] = True
    return mask


def boundary_faces_of_mask(mask: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
    """Interior grid faces between mask and non-mask cells."""
    dim = mask.ndim
    out = []
    for a in range(dim):
        sl_lo = [slice(None)] * dim
        sl_hi = [slice(None)] * dim
        sl_lo[a] = slice(0, -1)
        sl_hi[a] = slice(1, None)
        diff = mask[tuple(sl_lo)] != mask[tuple(sl_hi)]
        for idx in np.argwhere(diff):
            face_idx = list(int(v) for v in idx)
            face_idx[a] += 1
            out.append((a, tuple(face_idx)))
    return sorted(out)


def bad_set_perimeter(covering: WhitneyCovering) -> dict:
    """Exact face-count perimeter of the bad set, and its ratio to the
    crack area inside the double crown ring."""
    cov = covering.flagged()
    grid = cov.grid
    faces = boundary_faces_of_mask(cov.bad_cells)
    perim = len(faces) * grid.face_area()

    crown_jump = 0.0
    if cov.jumps is not None and len(cov.jumps) > 0:
        fc12 = face_coords12(grid, cov.jumps)
        cheb = np.max(np.abs(fc12), axis=1)
        outer = 12 * (cov.n_annuli - cov.i0) * cov.m
        inner = 12 * (cov.n_annuli - cov.i0 - 2) * cov.m
        crown_jump = int(np.count_nonzero((cheb < outer) & (cheb >= inner))) \
            * grid.face_area()
    ratio = perim / crown_jump if crown_jump > 0 else (0.0 if perim == 0 else math.inf)
    return {"perimeter": perim, "crown_jump": crown_jump, "ratio": ratio,
            "faces": faces}


# ---------------------------------------------------------------------------
# Partition of unity

def _smoothstep(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b)


def plateau_profile(t: np.ndarray) -> np.ndarray:
    """1 on |t| <= 1/2, 0 beyond |t| >= 7/12, smooth ramp between."""
    return _smoothstep((7.0 / 12.0 - np.abs(t)) * 12.0)


@dataclass
class PartitionEntry:
    cube_index: int
    window: tuple[slice, ...]
    phi_tilde: np.ndarray


@dataclass
class Partition:
    """Plateau bumps for good cubes plus the rim patch, normalized on the
    covered box minus the bad set."""

    covering: WhitneyCovering
    entries: list[PartitionEntry]
    rim_window: tuple[slice, ...]
    rim_phi: np.ndarray
    densum: np.ndarray
    overlap_count: np.ndarray
    grad_scaled: dict[int, float]     # cube index -> max |grad phi| * side

    def blend_node_mask(self) -> np.ndarray:
        from .grid import node_mask_from_cells
        cov = self.covering
        blend_cells = cov.covered_cell_mask() & ~cov.bad_cells
        return node_mask_from_cells(blend_cells)

    def partition_sum_error(self) -> float:
        """max |sum_i phi_i - 1| over blended nodes, phi accumulated
        term by term."""
        total = np.zeros_like(self.densum)
        with np.errstate(invalid="ignore", divide="ignore"):
            for e in self.entries:
                total[e.window] += e.phi_tilde / self.densum[e.window]
            total[self.rim_window] += self.rim_phi / self.densum[self.rim_window]
        mask = self.blend_node_mask()
        return float(np.max(np.abs(total[mask] - 1.0)))

    def max_overlap(self) -> int:
        return int(np.max(self.overlap_count[self.blend_node_mask()]))


def partition_of_unity(covering: WhitneyCovering) -> Partition:
    cov = covering.flagged()
    grid = cov.grid
    h = grid.spacing
    coords = grid.node_coords_1d()
    node_shape = grid.node_shape

    densum = np.zeros(node_shape)
    counts = np.zeros(node_shape, dtype=np.int32)
    entries: list[PartitionEntry] = []
    grad_scaled: dict[int, float] = {}

    for i, cube in enumerate(cov.cubes):
        if not cov.good[i]:
            continue
        window = cube.node_window(grid, "q1")
        center = cube.center_h() * h
        side = cube.side * h
        axes_1d = [plateau_profile((coords[window[a]] - center[a]) / side)
                   for a in range(grid.dim)]
        phi = axes_1d[0]
        for a in range(1, grid.dim):
            phi = np.multiply.outer(phi, axes_1d[a])
        entries.append(PartitionEntry(i, window, phi))
        densum[window] += phi
        counts[window] += (phi > 0)

    # The rim bump is 1 outside the (w0-3h)-box and 0 inside the
    # (w0-5h)-box; the 2h ramp keeps every node over a bad boundary cube
    # covered even when the adjacent slab cubes are all bad.
    w0 = cov.w0_h * h
    rim_hi = w0 - 3 * h
    rim_window = tuple(slice(0, s) for s in node_shape)
    inside = np.ones(node_shape)
    for a in range(grid.dim):
        fac = _smoothstep((rim_hi - np.abs(coords)) / (2.0 * h))
        shape = [1] * grid.dim
        shape[a] = -1
        inside = inside * fac.reshape(shape)
    rim_phi = 1.0 - inside
    densum += rim_phi
    counts += (rim_phi > 0)

    part = Partition(covering=cov, entries=entries, rim_window=rim_window,
                     rim_phi=rim_phi, densum=densum, overlap_count=counts,
                     grad_scaled=grad_scaled)

    blend = part.blend_node_mask()
    if np.any(blend & (densum <= 0)):
        raise CoveringError("covering defect: uncovered blended node")

    for e in entries:
        phi = e.phi_tilde / densum[e.window]
        gmax = 0.0
        for a in range(grid.dim):
            if phi.shape[a] < 2:
                continue
            d = np.abs(np.diff(phi, axis=a)) / h
            gmax = max(gmax, float(d.max()))
        side = cov.cubes[e.cube_index].side * h
        grad_scaled[e.cube_index] = gmax * side
    return part


# ---------------------------------------------------------------------------
# Structural checks used by tests and the acceptance suite

def neighbor_pairs(covering: WhitneyCovering, which: str) -> list[tuple[int, int]]:
    """Pairs of good-or-bad cubes whose given enlargements intersect with
    positive volume."""
    cubes = covering.cubes
    n = len(cubes)
    lo = np.empty((n, covering.grid.dim), dtype=np.int64)
    hi = np.empty((n, covering.grid.dim), dtype=np.int64)
    for i, c in enumerate(cubes):
        lo[i], hi[i] = c.bounds12(which)
    pairs = []
    chunk = 512
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        inter_lo = np.maximum(lo[s:e, None, :], lo[None, :, :])
        inter_hi = np.minimum(hi[s:e, None, :], hi[None, :, :])
        ok = np.all(inter_hi > inter_lo, axis=-1)
        for a, b in np.argwhere(ok):
            ia = s + int(a)
            ib = int(b)
            if ia < ib:
                pairs.append((ia, ib))
    return pairs


def covering_structure_report(covering: WhitneyCovering) -> dict:
    """Measured structural constants: tiling exactness, neighbor scale
    ratios, overlap lower bound, per-slab count constant."""
    cov = covering
    grid = cov.grid

    counted = np.zeros(grid.cell_shape, dtype=np.int16)
    for cube in cov.cubes:
        counted[cube.cell_slices(grid)] += 1
    rim = cov.rim_cell_mask()
    covered = cov.covered_cell_mask()
    tiling_exact = (np.all(counted[covered & ~rim] == 1)
                    and np.all(counted[~covered | rim] == 0))

    ratios_ok = True
    min_overlap_const = math.inf
    for ia, ib in neighbor_pairs(cov, "q1"):
        sa, sb = cov.cubes[ia].side, cov.cubes[ib].side
        r = sb / sa
        if r not in (0.5, 1.0, 2.0):
            ratios_ok = False
    for ia, ib in neighbor_pairs(cov, "q2"):
        la, ha = cov.cubes[ia].bounds12("q2")
        lb, hb = cov.cubes[ib].bounds12("q2")
        inter = np.minimum(ha, hb) - np.maximum(la, lb)
        vol12 = float(np.prod(inter.astype(float)))
        big = float(max(cov.cubes[ia].side, cov.cubes[ib].side) * 12) ** grid.dim
        min_overlap_const = min(min_overlap_const, vol12 / big)

    sigma_const = 0.0
    for k, count in cov.slab_counts.items():
        denom = 2.0 ** (k * (grid.dim - 1)) / cov.delta ** (grid.dim - 1)
        sigma_const = max(sigma_const, count / denom)

    return {
        "tiling_exact": bool(tiling_exact),
        "neighbor_ratios_ok": bool(ratios_ok),
        "min_overlap_constant": min_overlap_const,
        "overlap_bound": 4.0 ** (-grid.dim),
        "sigma_constant": sigma_const,
    }
