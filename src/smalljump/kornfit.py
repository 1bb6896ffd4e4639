"""Per-cube rigid-motion fitting and exceptional-set extraction.

On a good cube the displacement is close, away from a small exceptional
cell set, to an infinitesimal rigid motion b + Wx with skew W.  The fit
is exact least squares for p = 2 (IRLS otherwise); the exceptional set
comes from residual trimming with refits, capped by the volume budget
c_star * side * crack_area(q''').  All constants of the underlying
inequalities are measured and reported, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covering import (
    DyadicCube,
    cell_ranges12,
    count_faces_in_boxes12,
    face_coords12,
    inside12,
)
from .energy import strain_pth_power
from .errors import FitError
from .grid import (
    DisplacementField,
    GridSpec,
    JumpSet,
    corner_average,
    node_mask_from_cells,
    window_flat_index,
)
from .mollify import kernel_radius_cells, mollify_stack, mollify_strain_box
from .strain import crack_free_strain

# Iteration caps and the IRLS step tolerance of the fits.
IRLS_MAX_ITER = 50
IRLS_TOL = 1e-10
TRIM_MAX_ITER = 25
# Shrink factor of the inner cube in the theta variant of the affine
# subset bound.
AFFINE_THETA = 2.0 / 3.0


@dataclass(frozen=True)
class AffineMap:
    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.offset + np.einsum("ij,...j->...i", self.matrix, pts)


@dataclass(frozen=True)
class RigidMotion(AffineMap):
    """Affine map with exactly skew matrix: the kernel of the strain."""

    def __post_init__(self):
        super().__post_init__()
        if np.max(np.abs(self.matrix + self.matrix.T)) != 0.0:
            raise ValueError("rigid motion matrix must be exactly skew")


def skew_basis(dim: int) -> list[np.ndarray]:
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            w = np.zeros((dim, dim))
            w[i, j] = -1.0
            w[j, i] = 1.0
            out.append(w)
    return out


def _design_matrix(pts: np.ndarray, dim: int) -> np.ndarray:
    """Rows: point x component; columns: translations then skew modes."""
    basis = skew_basis(dim)
    n = pts.shape[0]
    cols = dim + len(basis)
    a = np.zeros((n * dim, cols))
    for c in range(dim):
        a[c::dim, c] = 1.0
    for k, w in enumerate(basis):
        vals = pts @ w.T
        a[:, dim + k] = vals.reshape(-1)
    return a


def _coeffs_to_motion(coeffs: np.ndarray, dim: int) -> RigidMotion:
    b = coeffs[:dim].copy()
    w = np.zeros((dim, dim))
    for k, wb in enumerate(skew_basis(dim)):
        w = w + coeffs[dim + k] * wb
    w = 0.5 * (w - w.T)  # exact skewness
    return RigidMotion(w, b)


def fit_rigid_motion(points: np.ndarray, values: np.ndarray,
                     p: float = 2.0) -> RigidMotion:
    """Least-squares (or IRLS for p != 2) rigid motion through the samples.

    ``points``/``values`` are (n, dim) arrays, typically cell centers and
    corner-averaged displacements.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    dim = pts.shape[1]
    n_params = dim + dim * (dim - 1) // 2
    if pts.shape[0] < n_params:
        raise FitError("rank-deficient fit: too few sample points")
    a = _design_matrix(pts, dim)
    rhs = vals.reshape(-1)

    def solve(w_row: np.ndarray) -> np.ndarray:
        sw = np.sqrt(np.repeat(w_row, dim))
        coeffs, _, rank, _ = np.linalg.lstsq(a * sw[:, None], rhs * sw, rcond=None)
        if rank < n_params:
            raise FitError("rank-deficient fit: degenerate sample geometry")
        return coeffs

    coeffs = solve(np.ones(pts.shape[0]))
    if p != 2.0:
        for _ in range(IRLS_MAX_ITER):
            res = np.linalg.norm((a @ coeffs - rhs).reshape(-1, dim), axis=1)
            new = solve(np.maximum(res, 1e-12) ** (p - 2.0))
            if np.max(np.abs(new - coeffs)) <= IRLS_TOL * (1.0 + np.max(np.abs(coeffs))):
                coeffs = new
                break
            coeffs = new
    return _coeffs_to_motion(coeffs, dim)


@dataclass
class ExceptionalSet:
    cell_slices: tuple[slice, ...]       # the q'' cell window
    local_mask: np.ndarray               # exceptional cells inside the window
    spacing: float

    @property
    def n_cells(self) -> int:
        return int(np.count_nonzero(self.local_mask))

    @property
    def volume(self) -> float:
        return self.n_cells * self.spacing ** self.local_mask.ndim

    def global_indices(self) -> np.ndarray:
        idx = np.argwhere(self.local_mask)
        offs = np.array([s.start for s in self.cell_slices])
        return idx + offs


@dataclass
class FitReport:
    motion: RigidMotion
    omega: ExceptionalSet
    residual_lp: float
    residual_sobolev: float
    crack_measure: float
    budget_cells: int
    violation: bool
    constants: dict = field(default_factory=dict)

    def to_summary(self) -> dict:
        return {
            "omega_cells": self.omega.n_cells,
            "omega_volume": self.omega.volume,
            "budget_cells": self.budget_cells,
            "crack_measure": self.crack_measure,
            "residual_lp": self.residual_lp,
            "residual_sobolev": self.residual_sobolev,
            "violation": self.violation,
            **{k: (v if math.isfinite(v) else None) for k, v in self.constants.items()},
        }


def _cube_samples(u: DisplacementField, cube: DyadicCube
                  ) -> tuple[tuple[slice, ...], np.ndarray, np.ndarray]:
    """The q'' cell window, its cell centers and corner-averaged values."""
    grid = u.grid
    sl = cube.enlarged_cell_ranges(grid, "q2")
    nodes = tuple(slice(s.start, s.stop + 1) for s in sl)
    vals = corner_average(u.values[nodes], grid.dim).reshape(-1, grid.dim)
    centers = grid.cell_center_window(sl).reshape(-1, grid.dim)
    return sl, centers, vals


def extract_exceptional_set(u: DisplacementField, jumps: JumpSet,
                            strain: np.ndarray, cube: DyadicCube,
                            c_star: float, p: float = 2.0) -> FitReport:
    """Fit-trim-refit until the exceptional set stabilizes or the volume
    budget binds.  A jump-free enlargement has a zero budget, so its set
    is empty.  ``strain``
    is the symmetric gradient of u with the jumps."""
    grid = u.grid
    sl, centers, vals = _cube_samples(u, cube)
    shape = tuple(s.stop - s.start for s in sl)
    dim = grid.dim
    h = grid.spacing
    side = cube.side * h

    lo3, hi3 = cube.bounds12("q3")
    crack = int(count_faces_in_boxes12(face_coords12(grid, jumps), lo3[None],
                                       hi3[None])[0]) * grid.face_area()
    budget_cells = int(math.floor(c_star * side * crack / h ** dim + 1e-9))

    keep = np.ones(centers.shape[0], dtype=bool)
    prev = None
    for _ in range(TRIM_MAX_ITER):
        motion = fit_rigid_motion(centers[keep], vals[keep], p=p)
        res = np.linalg.norm(vals - motion(centers), axis=1)
        want = _noise_threshold_trims(res, keep)
        order = np.lexsort((np.arange(res.size), -res))
        marked = order[want[order]][:budget_cells]
        new_keep = np.ones_like(keep)
        new_keep[marked] = False
        if prev is not None and np.array_equal(new_keep, prev):
            keep = new_keep
            break
        prev, keep = new_keep, new_keep
    motion = fit_rigid_motion(centers[keep], vals[keep], p=p)
    res = np.linalg.norm(vals - motion(centers), axis=1)
    cluster = _separated_cluster(res, keep)
    violation = bool(np.count_nonzero(cluster) > budget_cells)

    omega_mask = (~keep).reshape(shape)
    omega = ExceptionalSet(sl, omega_mask, h)

    hvol = h ** dim
    q_exp = dim * p / (dim - 1)
    kept_res = res[keep]
    residual_lp = float(np.sum(kept_res ** p) * hvol) ** (1.0 / p)
    residual_sobolev = float(np.sum(kept_res ** q_exp) * hvol) ** (1.0 / q_exp)

    sl3 = cube.enlarged_cell_ranges(grid, "q3")
    strain_p = float(np.sum(strain_pth_power(strain[(slice(None),) + sl3],
                                             p)) * hvol)

    def ratio(num: float, den: float) -> float:
        if den > 0:
            return num / den
        return 0.0 if num <= 1e-300 else math.inf

    constants = {
        "c_omega": ratio(omega.volume, side * crack),
        "c_poincare_p": ratio(residual_lp ** p, side ** p * strain_p),
        "c_sobolev": ratio(residual_sobolev ** q_exp,
                           side ** (dim * (p - 1) / (dim - 1))
                           * strain_p ** (dim / (dim - 1))),
        "strain_p_third": strain_p,
    }
    return FitReport(motion=motion, omega=omega, residual_lp=residual_lp,
                     residual_sobolev=residual_sobolev, crack_measure=crack,
                     budget_cells=budget_cells, violation=violation,
                     constants=constants)


def _noise_threshold_trims(res: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Cells whose residual stands clear of the kept population's noise:
    above ten times the kept median, floored near machine precision."""
    kept = res[keep]
    if kept.size == 0:
        return np.zeros_like(keep)
    med = float(np.median(kept))
    floor = 1e-9 * (1.0 + float(np.max(res)))
    return res > max(10.0 * med, floor)


def _separated_cluster(res: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Cells forming a separated top-residual cluster.

    A smooth misfit has slowly decaying sorted residuals and yields no
    cluster; jump pollution is bimodal and separates by a factor gap.
    """
    kept = np.sort(res[keep])[::-1]
    if kept.size < 4:
        return np.zeros_like(keep)
    floor = 1e-9 * (1.0 + float(kept[0]))
    gaps = np.flatnonzero(kept[:-1] > 8.0 * kept[1:] + floor)
    if not gaps.size or gaps[0] >= kept.size // 2:
        return np.zeros_like(keep)
    return res > 0.5 * (kept[gaps[0]] + kept[gaps[0] + 1])


def residual_prefix_oracle(points: np.ndarray, values: np.ndarray,
                           budget_cells: int, p: float = 2.0
                           ) -> tuple[RigidMotion, np.ndarray, int]:
    """Brute-force reference: rank cells by the full-fit residual, refit on
    every prefix complement, keep the smallest prefix whose residual sum
    reaches twice the best achievable plateau."""
    motion = fit_rigid_motion(points, values, p=p)
    res = np.linalg.norm(values - motion(points), axis=1)
    order = np.lexsort((np.arange(res.size), -res))
    budget_cells = min(budget_cells, points.shape[0] - points.shape[1] - 3)
    budget_cells = max(budget_cells, 0)

    rss = []
    motions = []
    for s in range(budget_cells + 1):
        keep = np.ones(points.shape[0], dtype=bool)
        keep[order[:s]] = False
        m_s = fit_rigid_motion(points[keep], values[keep], p=p)
        r = np.linalg.norm(values[keep] - m_s(points[keep]), axis=1)
        rss.append(float(np.sum(r ** p)))
        motions.append(m_s)
    plateau = rss[-1]
    noise = points.shape[0] * (1e-9 * (1.0 + float(np.max(np.abs(values))))) ** p
    best = budget_cells
    for s in range(budget_cells + 1):
        if rss[s] <= 2.0 * plateau + noise:
            best = s
            break
    mask = np.zeros(points.shape[0], dtype=bool)
    mask[order[:best]] = True
    return motions[best], mask, best


def mollified_strain_error(u: DisplacementField, strain: np.ndarray,
                           cube: DyadicCube, fit: FitReport,
                           p: float = 2.0) -> dict:
    """Compare the strain of the cube's smoothed field against the
    mollified strain of the original, over the 7/6 enlargement.
    ``strain`` is the symmetric gradient of u with its jumps."""
    grid = u.grid
    h = grid.spacing
    dim = grid.dim
    side = cube.side * h
    u_i, win = cube_smoothed_field(u, cube, fit)

    sl1 = cube.enlarged_cell_ranges(grid, "q1")
    local = tuple(slice(s.start - w.start, s.stop - w.start)
                  for s, w in zip(sl1, win))
    e_i = crack_free_strain(u_i, h)[(slice(None),) + local]
    ref = mollify_strain_box(strain, sl1, side, h)

    hvol = h ** dim
    lhs = float(np.sum(strain_pth_power(e_i - ref, p)) * hvol)
    strain_p = fit.constants.get("strain_p_third", 0.0)
    density = fit.crack_measure / side ** (dim - 1)
    return {
        "error_p": lhs,
        "strain_p_third": strain_p,
        "crack_density": density,
        "ratio": (lhs / strain_p) if strain_p > 0 else (0.0 if lhs <= 1e-300 else math.inf),
    }


def smoothing_windows(grid: GridSpec, lo12: np.ndarray, hi12: np.ndarray,
                      sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node windows (low, high corners; (k, dim)) that smooth the cubes of
    the given sides (h units) and q' boxes (h/12 units): the nodes of the
    q' cells, one layer beyond the strictly interior nodes, widened by the
    kernel radius of each side.  Raises FitError when one exits the grid."""
    h = grid.spacing
    start, stop = inside12(grid, lo12, hi12)
    levels, inverse = np.unique(sides, return_inverse=True)
    radius = np.array([math.ceil(kernel_radius_cells(s * h, h)) - 1
                       for s in levels.tolist()], dtype=np.int64)
    radius = radius[inverse][:, None]
    start, stop = start - radius, stop + 1 + radius
    if np.any(start < 0) or np.any(stop > grid.cells_per_side + 1):
        raise FitError("smoothing window exits the grid")
    return start, stop


def smooth_windows(u: DisplacementField, side: int, starts: np.ndarray,
                   shape: tuple[int, ...], fits: list[FitReport | None]
                   ) -> tuple[np.ndarray, int]:
    """Smoothed fields of cubes of one side on equal node windows.

    Window j (low corner ``starts[j]``) holds u with the nodes incident to
    the exceptional cells of ``fits[j]``, if any, replaced by its fitted
    rigid motion; all windows are mollified at the cube scale at once (the
    blend reads cubes without such cells from one convolution per side).
    Returns the (k, *inner, dim) exact convolution entries and the margin
    trimmed from each side of a window."""
    grid = u.grid
    flat = window_flat_index(grid.node_shape, starts, shape)
    vals = u.values.reshape(-1, grid.dim)[flat].reshape(
        (len(flat),) + shape + (grid.dim,))
    for j, fit in enumerate(fits):
        if fit is not None and fit.omega.n_cells > 0:
            _rigid_on_omega(vals[j], grid, starts[j], fit)
    out, margin = mollify_stack(vals, grid.dim, side * grid.spacing,
                                grid.spacing)
    inner = tuple(slice(margin, n - margin) for n in shape)
    return out[(slice(None),) + inner], margin


def _rigid_on_omega(vals: np.ndarray, grid: GridSpec, start: np.ndarray,
                    fit: FitReport) -> None:
    """Set the window's nodes incident to the fit's exceptional cells to
    the fitted rigid motion, in place."""
    win = tuple(slice(int(a), int(a) + n) for a, n in zip(start, vals.shape))
    # the cells incident to the window's nodes: one more layer below
    lo = np.array([max(s.start - 1, 0) for s in win])
    hi = np.array([min(s.stop, n) for s, n in zip(win, grid.cell_shape)])
    idx = fit.omega.global_indices()
    idx = idx[np.all((idx >= lo) & (idx < hi), axis=1)] - lo
    cell_mask = np.zeros(tuple(hi - lo), dtype=bool)
    cell_mask[tuple(idx.T)] = True
    node_mask = node_mask_from_cells(cell_mask)[
        tuple(slice(s.start - a, s.stop - a) for s, a in zip(win, lo))]
    if np.any(node_mask):
        axes = [grid.node_coords_1d()[s] for s in win]
        coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals[node_mask] = fit.motion(coords[node_mask])


def cube_smoothed_field(u: DisplacementField, cube: DyadicCube,
                        fit: FitReport | None
                        ) -> tuple[np.ndarray, tuple[slice, ...]]:
    """Mollified (replaced-on-omega) field of one cube on its q' node
    window: ``smooth_windows`` for a stack of one.

    Returns node values covering the q' cells (one node layer beyond the
    strictly interior nodes) together with the absolute window slices;
    every returned entry is a valid convolution.
    """
    lo, hi = cube.bounds12("q1")
    start, stop = smoothing_windows(u.grid, lo[None], hi[None],
                                    np.array([cube.side]))
    out, margin = smooth_windows(u, cube.side, start,
                                 tuple((stop - start)[0].tolist()), [fit])
    final = tuple(slice(int(a) + margin, int(b) - margin)
                  for a, b in zip(start[0], stop[0]))
    return out[0], final


def affine_subset_bound(a: AffineMap, cube: DyadicCube, grid: GridSpec,
                        omega_local: np.ndarray, p: float = 2.0) -> dict:
    """Both sides of the affine subset bound on a cube, plus the
    theta-shrunk variant and the small-volume absorption check."""
    sl = cube.cell_slices(grid)
    centers = grid.cell_center_window(sl)
    mag_p = np.linalg.norm(a(centers), axis=-1) ** p
    hvol = grid.spacing ** grid.dim
    vol_q = mag_p.size * hvol
    int_q = float(np.sum(mag_p) * hvol)

    omega_local = np.asarray(omega_local, dtype=bool)
    if omega_local.shape != mag_p.shape:
        raise ValueError("omega mask must cover the cube's own cells")
    vol_om = float(np.count_nonzero(omega_local)) * hvol
    lhs = float(np.sum(mag_p[omega_local]) * hvol)
    frac = vol_om / vol_q

    rhs = frac * int_q
    realized = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)

    center_h = cube.center_h() * grid.spacing
    half = AFFINE_THETA * cube.side * grid.spacing / 2.0
    inner = np.all(np.abs(centers - center_h) < half, axis=-1)
    shrunk = inner & ~omega_local
    int_theta = float(np.sum(mag_p[shrunk]) * hvol)
    rhs_theta = frac * int_theta
    realized_theta = lhs / rhs_theta if rhs_theta > 0 \
        else (0.0 if lhs == 0 else math.inf)

    return {
        "lhs": lhs,
        "rhs": rhs,
        "realized": realized,
        "rhs_theta": rhs_theta,
        "realized_theta": realized_theta,
        "volume_fraction": frac,
        "absorption_ok": bool(frac <= 0.25),
    }


def neighbor_affine_distance(a_i: AffineMap, a_j: AffineMap, grid: GridSpec,
                             cube_i: DyadicCube, cube_j: DyadicCube,
                             p: float = 2.0) -> float:
    """L^{np/(n-1)} distance of two affine maps over q''_i intersect q''_j."""
    lo_i, hi_i = cube_i.bounds12("q2")
    lo_j, hi_j = cube_j.bounds12("q2")
    lo = np.maximum(lo_i, lo_j)
    hi = np.minimum(hi_i, hi_j)
    if np.any(hi <= lo):
        raise ValueError("enlarged cubes do not overlap")
    centers = grid.cell_center_window(cell_ranges12(grid, lo, hi))
    if centers.size == 0:
        raise ValueError("overlap contains no cell centers")
    q_exp = grid.dim * p / (grid.dim - 1)
    diff = np.linalg.norm(a_i(centers) - a_j(centers), axis=-1)
    hvol = grid.spacing ** grid.dim
    return float(np.sum(diff ** q_exp) * hvol) ** (1.0 / q_exp)
