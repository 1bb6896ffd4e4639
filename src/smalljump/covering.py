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
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CoveringError
from .grid import (
    DisplacementField,
    GridSpec,
    JumpSet,
    node_mask_from_cells,
    window_flat_index,
)

ENLARGE12 = {"q": 12, "q1": 14, "q2": 16, "q3": 18}  # 1, 7/6, 4/3, 3/2 in twelfths
BUCKET12 = 48        # neighbour-search bucket: the finest cube side, 4h, in h/12
# Cube x face-coordinate elements per chunk of the broadcast that counts
# faces in boxes: each boolean temporary of a chunk stays at 4 MB.
FACE_CHUNK = 1 << 22


def default_eta(dim: int, c_star: float) -> float:
    """Good-cube threshold 1/(2 * 8^dim * c_star)."""
    return 1.0 / (2.0 * 8 ** dim * c_star)


def box12(anchors: np.ndarray, sides: np.ndarray,
          which: str) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) in h/12 units of cubes or of one enlargement; ``anchors``
    is (..., dim) in h units and ``sides`` (...) matches its leading
    shape."""
    sides = np.asarray(sides, dtype=np.int64)[..., None]
    anchors = np.asarray(anchors, dtype=np.int64)
    extra = (ENLARGE12[which] - 12) * sides // 2
    return anchors * 12 - extra, (anchors + sides) * 12 + extra


def inside12(grid: GridSpec, lo: np.ndarray, hi: np.ndarray,
             nodes: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges (start, stop), per axis, of the cells whose center (or
    the nodes) lie strictly inside each box (lo, hi), given in h/12 units,
    clipped to the grid."""
    m = grid.cells_per_side
    shift, n = (0, m + 1) if nodes else (6, m)
    start = np.maximum((np.asarray(lo) - shift) // 12 + 1 + m // 2, 0)
    stop = np.minimum(-((shift - np.asarray(hi)) // 12) + m // 2, n)
    return start, stop


@dataclass(frozen=True)
class DyadicCube:
    """Axis-aligned cube on the h-lattice, coordinates centered at 0."""

    level: int
    anchor: tuple[int, ...]   # low corner, in h units relative to the center
    side: int                 # in h units

    def bounds12(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of the cube or an enlargement, in h/12 units."""
        return box12(self.anchor, self.side, which)

    def cell_slices(self, grid: GridSpec) -> tuple[slice, ...]:
        """Slices of the cube's own cells in absolute cell indices."""
        off = grid.cells_per_side // 2
        return tuple(slice(a + off, a + off + self.side) for a in self.anchor)

    def enlarged_cell_ranges(self, grid: GridSpec, which: str) -> tuple[slice, ...]:
        """Cells whose center lies strictly inside the enlargement."""
        return cell_ranges12(grid, *self.bounds12(which))

    def center_h(self) -> np.ndarray:
        return np.array(self.anchor, dtype=float) + self.side / 2.0


def cell_ranges12(grid: GridSpec, lo: np.ndarray,
                  hi: np.ndarray) -> tuple[slice, ...]:
    """Cells whose center lies strictly inside the box (lo, hi), given in
    h/12 units, clipped to the grid."""
    start, stop = inside12(grid, lo, hi)
    return tuple(slice(int(a), int(b)) for a, b in zip(start, stop))


def count_faces_in_boxes12(face_coords12: np.ndarray, lo: np.ndarray,
                           hi: np.ndarray) -> np.ndarray:
    """Faces (given by h/12 center coordinates) strictly inside each of
    the (n, dim) boxes (lo, hi)."""
    out = np.zeros(lo.shape[0], dtype=np.int64)
    if face_coords12.shape[0] == 0:
        return out
    step = max(1, FACE_CHUNK // face_coords12.size)
    fc = face_coords12[None]
    for s in range(0, lo.shape[0], step):
        inside = np.all((fc > lo[s:s + step, None]) & (fc < hi[s:s + step, None]),
                        axis=2)
        out[s:s + step] = np.count_nonzero(inside, axis=1)
    return out


def face_coords12(grid: GridSpec, jumps: JumpSet) -> np.ndarray:
    """Integer h/12 coordinates of face centers, shape (n, dim)."""
    return 6 * grid.face_centers2(jumps.keys)


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


def select_crown(u: DisplacementField, jumps: JumpSet, strain_p: np.ndarray,
                 u_p: np.ndarray, delta: float) -> CrownSelection:
    """Pick the crown index whose two rings respect the sqrt-delta budgets.

    Budgets follow the averaging argument over disjoint ring pairs: the
    strain energy and crack area of the selected double ring, and the
    |u|^p mass of the single ring, must not exceed 8*sqrt(delta) times
    their totals over the outer shell of width sqrt(delta).  The valid
    candidate with the smallest normalized budget sum wins, ties going to
    the smallest index.  ``strain_p`` is |e(u)|^p per cell
    (``energy.strain_pth_power``) and ``u_p`` is |u|^p per cell
    (``energy.cellwise_pth_power``), both with the same p.
    """
    grid = u.grid
    h = grid.spacing
    m = lattice_delta(grid, delta)
    n_ann = (grid.cells_per_side // 2) // m
    i_max = min(n_ann - 3, max(int(math.floor(1.0 / math.sqrt(m * h))) - 3, 1))
    if n_ann < 4 or i_max < 1:
        raise CoveringError("crown selection infeasible: delta too large for the grid")

    hvol = h ** grid.dim

    cheb = grid.cell_cheb_norm()
    face_cheb12 = np.max(np.abs(face_coords12(grid, jumps)), axis=1, initial=0)

    def box_cells(w_h: float) -> np.ndarray:
        return cheb < w_h * h - 1e-12 * h

    def box_faces(w_h: float) -> int:
        return int(np.count_nonzero(face_cheb12 < 12 * w_h - 1e-9))

    # Budget totals cover the sqrt(delta) shell and, at desk scales where
    # the rings reach deeper, every candidate ring as well.
    sqrt_d = math.sqrt(m * h)
    shell_w = min((1.0 - sqrt_d) / h, float((n_ann - i_max - 2) * m))
    total_mask = ~box_cells(shell_w)
    tot_strain = float(np.sum(strain_p[total_mask]) * hvol)
    tot_lp = float(np.sum(u_p[total_mask]) * hvol)
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
        single = outer & ~box_cells((n_ann - i - 1) * m)
        c_i = float(np.sum(u_p[single]) * hvol)
        rows.append((a_i, b_i, c_i))

    bound = 8.0 * sqrt_d
    totals = (tot_strain, tot_jump, tot_lp)

    def ok(vals):
        return all(v <= bound * t + 1e-12 * (1.0 + t)
                   for v, t in zip(vals, totals))

    valid = [(i, vals) for i, vals in zip(cands, rows) if ok(vals)]
    if not valid:
        raise CoveringError("crown selection infeasible: no ring satisfies the budgets")
    pick = pick_two_budget_index([v for _, v in valid], totals)
    i0, vals = valid[pick]

    budgets = {nm: {"value": v, "total": t, "bound": bound * t}
               for nm, v, t in zip(("strain", "jump", "lp"), vals, totals)}
    return CrownSelection(i0=i0, delta=m * h, n_annuli=n_ann, budgets=budgets,
                          candidates=tuple(cands))


# ---------------------------------------------------------------------------
# Covering construction

@dataclass
class WhitneyCovering:
    """Dyadic cubes tiling the selected box, plus the rim shell.

    The cube table (``anchors``, ``sides`` and the h/12 boxes of every
    enlargement, row i for ``cubes[i]``) is built from ``cubes`` on
    construction; ``dataclasses.replace`` with new cubes rebuilds it."""

    grid: GridSpec
    delta: float
    m: int                     # delta in h units
    i0: int
    n_annuli: int
    cubes: tuple[DyadicCube, ...]
    slab_counts: dict[int, int]
    w0_h: int                  # half-width of the covered box, h units
    w1_h: int                  # half-width of the interior box, h units
    good: np.ndarray | None = None
    bad_cells: np.ndarray | None = None
    crack_in_third: np.ndarray | None = None
    jumps: JumpSet | None = None
    anchors: np.ndarray = field(init=False, repr=False)   # (n, dim), h units
    sides: np.ndarray = field(init=False, repr=False)     # (n,), h units
    boxes12: dict = field(init=False, repr=False)         # which -> (lo, hi)

    def __post_init__(self):
        self.cubes = tuple(self.cubes)
        self.anchors = np.array([c.anchor for c in self.cubes],
                                dtype=np.int64).reshape(-1, self.grid.dim)
        self.sides = np.array([c.side for c in self.cubes], dtype=np.int64)
        self.boxes12 = {w: box12(self.anchors, self.sides, w) for w in ENLARGE12}

    def cell_counts(self, select: np.ndarray | None = None) -> np.ndarray:
        """Number of cubes (of the ``select`` mask, if given) whose own
        cells contain each grid cell: +-1 at the 2^dim corners of every
        cube's cell box, summed along each axis."""
        dim = self.grid.dim
        start = self.anchors + self.grid.cells_per_side // 2
        stop = start + self.sides[:, None]
        if select is not None:
            start, stop = start[select], stop[select]
        counts = np.zeros(tuple(n + 1 for n in self.grid.cell_shape),
                          dtype=np.int32)
        for corner in itertools.product((0, 1), repeat=dim):
            idx = tuple(stop[:, a] if c else start[:, a]
                        for a, c in enumerate(corner))
            np.add.at(counts, idx, (-1) ** sum(corner))
        for a in range(dim):
            np.cumsum(counts, axis=a, out=counts)
        return counts[tuple(slice(0, n) for n in self.grid.cell_shape)]

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
        cheb_h = self.grid.cell_cheb_norm() / self.grid.spacing
        return self.covered_cell_mask() & (cheb_h > self.rim_inner_h)

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


def build_covering(grid: GridSpec,
                   selection: CrownSelection) -> WhitneyCovering:
    """Tile the selected box: delta-cubes inside, dyadic slabs in the crown.

    Refinement stops at side 4h; the remaining shell of thickness 4h is
    the rim, handled by the boundary patch of the partition.
    """
    if not grid.is_dyadic:
        raise CoveringError("covering requires a power-of-two grid with M >= 8")
    m = lattice_delta(grid, selection.delta)
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
    if np.any(cov.sides < 4):
        raise CoveringError("cube refined below side 4h")
    lo, hi = cov.boxes12["q3"]
    if np.any(hi > 12 * half) or np.any(lo < -12 * half):
        raise CoveringError("enlarged cube exits the domain")


def classify(covering: WhitneyCovering, jumps: JumpSet,
             eta: float) -> WhitneyCovering:
    """Set good/bad flags: good iff crack area in the 3/2 enlargement is
    at most eta * side^(dim-1)."""
    grid = covering.grid
    crack = count_faces_in_boxes12(face_coords12(grid, jumps),
                                   *covering.boxes12["q3"]) * grid.face_area()
    covering.good = crack <= eta * (covering.sides * grid.spacing) \
        ** (grid.dim - 1) + 1e-15
    covering.crack_in_third = crack
    covering.jumps = jumps
    covering.bad_cells = bad_cell_mask(covering)
    return covering


def bad_cell_mask(covering: WhitneyCovering) -> np.ndarray:
    return covering.cell_counts(~covering.good) > 0


def boundary_faces_of_mask(mask: np.ndarray) -> np.ndarray:
    """Keys (over the lattice (ndim,) + mask.shape) of the interior grid
    faces between mask and non-mask cells, sorted.  An empty mask returns
    after one ``any``."""
    if not mask.any():
        return np.empty(0, dtype=np.int64)
    return np.concatenate([a * mask.size + np.flatnonzero(np.diff(
        mask, axis=a, prepend=np.take(mask, [0], axis=a))) for a in range(mask.ndim)])


def bad_set_perimeter(covering: WhitneyCovering) -> dict:
    """Exact face-count perimeter of the bad set, its face keys, and its
    ratio to the crack area inside the double crown ring."""
    cov = covering.flagged()
    grid = cov.grid
    faces = boundary_faces_of_mask(cov.bad_cells)
    perim = len(faces) * grid.face_area()

    crown_jump = 0.0
    if cov.jumps is not None:
        cheb = np.max(np.abs(grid.face_centers2(cov.jumps.keys)), axis=1, initial=0)
        outer, inner = (2 * (cov.n_annuli - cov.i0 - i) * cov.m for i in (0, 2))
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


def row_groups(keys: np.ndarray):
    """(row, indices) for each distinct row of the (n, c) integer array,
    rows in sorted order, indices ascending."""
    rows, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    bounds = np.cumsum(np.bincount(inverse, minlength=len(rows)))
    for row, members in zip(rows, np.split(order, bounds[:-1])):
        yield tuple(row.tolist()), members


def _entry_node_index(node_shape: tuple[int, ...], start: np.ndarray,
                      shape: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Flat node indices of windows laid out one after another: window j
    (low corner ``start[j]``, extent ``shape[j]``) fills
    ``offset[j]:offset[j + 1]`` in C order."""
    out = np.empty(offset[-1], dtype=np.intp)
    for win, members in row_groups(shape):
        idx = window_flat_index(node_shape, start[members], win)
        out[offset[members, None] + np.arange(idx.shape[1])] = idx
    return out


@dataclass
class Partition:
    """Plateau bumps for good cubes plus the rim patch, normalized on the
    covered box minus the bad set.

    Entry j is good cube ``cube_index[j]``; its bump lives on the node
    window with low corner ``window_start[j]`` and extent
    ``window_shape[j]``, and its values, in C order over that window, are
    ``phi_tilde[offset[j]:offset[j + 1]]``."""

    covering: WhitneyCovering
    cube_index: np.ndarray            # (k,) ascending
    window_start: np.ndarray          # (k, dim) node indices
    window_shape: np.ndarray          # (k, dim)
    offset: np.ndarray                # (k + 1,)
    phi_tilde: np.ndarray             # unnormalized bumps, entry by entry
    rim_phi: np.ndarray               # the rim bump on the whole node grid
    densum: np.ndarray
    grad_scaled: dict[int, float]     # cube index -> max |grad phi| * side

    def node_index(self) -> np.ndarray:
        """Flat node index of every ``phi_tilde`` value."""
        return _entry_node_index(self.densum.shape, self.window_start,
                                 self.window_shape, self.offset)

    def blend_node_mask(self) -> np.ndarray:
        cov = self.covering
        blend_cells = cov.covered_cell_mask() & ~cov.bad_cells
        return node_mask_from_cells(blend_cells)


def partition_of_unity(covering: WhitneyCovering) -> Partition:
    """Bumps of the good cubes and the rim, and their sum.

    A bump is the tensor product of one 1D plateau profile per axis.  Node
    coordinates and cube centres are dyadic, so a profile depends only on
    the side, the window's offset from the cube and its length; each
    distinct one is evaluated once.  Each node's terms are summed in cube
    order."""
    cov = covering.flagged()
    grid = cov.grid
    dim, h = grid.dim, grid.spacing
    coords = grid.node_coords_1d()
    node_shape = grid.node_shape

    index = np.flatnonzero(cov.good)
    anchors, sides = cov.anchors[index], cov.sides[index]
    lo, hi = (b[index] for b in cov.boxes12["q1"])
    start, stop = inside12(grid, lo, hi, nodes=True)
    shape = stop - start
    offset = np.concatenate([[0], np.cumsum(np.prod(shape, axis=1))])

    rel = start - anchors - grid.cells_per_side // 2
    axis_keys = np.stack([np.broadcast_to(sides[:, None], rel.shape), rel, shape],
                         axis=-1).reshape(-1, 3)
    _, first, inverse = np.unique(axis_keys, axis=0, return_index=True,
                                  return_inverse=True)
    profiles = []
    for j, a in (divmod(int(f), dim) for f in first):
        center = (float(anchors[j, a]) + sides[j] / 2.0) * h
        profiles.append(plateau_profile(
            (coords[start[j, a]:stop[j, a]] - center) / (sides[j] * h)))

    phi_tilde = np.empty(offset[-1])
    for ids, members in row_groups(inverse.reshape(-1, dim)):
        phi = profiles[ids[0]]
        for a in range(1, dim):
            phi = np.multiply.outer(phi, profiles[ids[a]])
        phi_tilde[offset[members, None] + np.arange(phi.size)] = phi.ravel()

    # The rim bump is 1 outside the (w0-3h)-box and 0 inside the
    # (w0-5h)-box; the 2h ramp keeps every node over a bad boundary cube
    # covered even when the adjacent slab cubes are all bad.
    w0 = cov.w0_h * h
    rim_hi = w0 - 3 * h
    inside = np.ones(node_shape)
    for a in range(dim):
        fac = _smoothstep((rim_hi - np.abs(coords)) / (2.0 * h))
        shape_a = [1] * dim
        shape_a[a] = -1
        inside = inside * fac.reshape(shape_a)
    rim_phi = 1.0 - inside

    idx = _entry_node_index(node_shape, start, shape, offset)
    densum = np.bincount(idx, phi_tilde, minlength=rim_phi.size).reshape(node_shape)
    densum += rim_phi

    part = Partition(covering=cov, cube_index=index, window_start=start,
                     window_shape=shape, offset=offset, phi_tilde=phi_tilde,
                     rim_phi=rim_phi, densum=densum, grad_scaled={})
    blend = part.blend_node_mask()
    if np.any(blend & (densum <= 0)):
        raise CoveringError("covering defect: uncovered blended node")

    grad = np.empty(len(index))
    for win, members in row_groups(shape):
        phi = phi_tilde[offset[members, None] + np.arange(math.prod(win))] \
            .reshape((-1,) + win)
        phi = phi / sliding_window_view(densum, win)[tuple(start[members].T)]
        gmax = np.zeros(len(members))
        for a in range(dim):
            if win[a] < 2:
                continue
            d = np.abs(np.diff(phi, axis=a + 1)) / h
            gmax = np.maximum(gmax, d.reshape(len(members), -1).max(axis=1))
        grad[members] = gmax * (sides[members] * h)
    part.grad_scaled = dict(zip(index.tolist(), grad.tolist()))
    return part


# ---------------------------------------------------------------------------
# Structural checks used by tests and the acceptance suite

def neighbor_pairs(covering: WhitneyCovering, which: str) -> list[tuple[int, int]]:
    """Pairs (ia < ib), sorted, of good-or-bad cubes whose given
    enlargements intersect with positive volume.

    Every enlarged box is hashed into the buckets of side 4h that it
    meets; exact integer overlap is tested only for cubes sharing a
    bucket, since a positive-volume intersection has an interior point in
    some bucket of both."""
    lo, hi = covering.boxes12[which]
    n, dim = lo.shape
    if n == 0:
        return []
    b_lo, b_hi = lo // BUCKET12, (hi - 1) // BUCKET12 + 1
    base, span = b_lo.min(axis=0), b_hi.max(axis=0) - b_lo.min(axis=0)
    extent = b_hi - b_lo
    count = np.prod(extent, axis=1)
    owner = np.repeat(np.arange(n), count)
    local = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    bucket = np.zeros(owner.size, dtype=np.int64)
    stride = 1
    for a in reversed(range(dim)):
        e = extent[owner, a]
        bucket += (b_lo[owner, a] - base[a] + local % e) * stride
        local //= e
        stride *= int(span[a])

    # every earlier member of a bucket (sorted by cube) is a candidate
    order = np.lexsort((owner, bucket))
    bucket, owner = bucket[order], owner[order]
    pos = np.arange(owner.size)
    first = np.maximum.accumulate(
        np.where(np.r_[True, bucket[1:] != bucket[:-1]], pos, 0))
    rank = pos - first
    partner = np.repeat(first, rank) + np.arange(rank.sum()) \
        - np.repeat(np.cumsum(rank) - rank, rank)
    code = np.unique(owner[partner] * n + np.repeat(owner, rank))
    ia, ib = np.divmod(code, n)
    ok = np.all(np.minimum(hi[ia], hi[ib]) > np.maximum(lo[ia], lo[ib]), axis=1)
    return list(zip(ia[ok].tolist(), ib[ok].tolist()))


def covering_structure_report(covering: WhitneyCovering) -> dict:
    """Measured structural constants: tiling exactness, neighbor scale
    ratios, overlap lower bound, per-slab count constant."""
    cov = covering
    grid = cov.grid

    counted = cov.cell_counts()
    rim = cov.rim_cell_mask()
    covered = cov.covered_cell_mask()
    tiling_exact = (np.all(counted[covered & ~rim] == 1)
                    and np.all(counted[~covered | rim] == 0))

    ia, ib = np.array(neighbor_pairs(cov, "q1"), dtype=np.int64).reshape(-1, 2).T
    ratios_ok = np.all(np.isin(cov.sides[ib] / cov.sides[ia], (0.5, 1.0, 2.0)))

    ia, ib = np.array(neighbor_pairs(cov, "q2"), dtype=np.int64).reshape(-1, 2).T
    lo, hi = cov.boxes12["q2"]
    inter = np.minimum(hi[ia], hi[ib]) - np.maximum(lo[ia], lo[ib])
    vol12 = np.prod(inter.astype(float), axis=1)
    big = (np.maximum(cov.sides[ia], cov.sides[ib]) * 12).astype(float) \
        ** grid.dim
    min_overlap_const = float(np.min(vol12 / big)) if ia.size else math.inf

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
