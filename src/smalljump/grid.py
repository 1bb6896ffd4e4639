"""Cubic grids, node-sampled displacement fields, crack faces, and regions.

The domain is the open cube (-r, r)^dim split into M cells per side
(spacing h = 2r/M).  Displacements live on the (M+1)^dim nodes, strains
and masks on the M^dim cells, and cracks on interior cell faces.

A face ``(axis, idx)`` is the low face of cell idx across ``axis``:
``idx[axis]`` is the index of its node plane (1..M-1), the other entries
cell indices (0..M-1).  Its key is ``np.ravel_multi_index((axis, *idx),
(dim,) + cell_shape)``, so key order is tuple order.  A ``JumpSet`` is
sorted keys with a state beside each, the side whose values the nodes of
the cracked plane carry (the strain stencils encode that convention).
Its centre, in units of h/2, is 2 idx - M along the axis and 2 idx + 1 - M
across it.  Tuples are only read and written at the edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

Face = tuple[int, tuple[int, ...]]
# The state of a cracked face: the side that owns its plane's nodes (the
# strain module's tables mark an uncracked face 0).
LOW_OWNED, HIGH_OWNED = 1, 2


@dataclass(frozen=True)
class GridSpec:
    """Uniform cubic grid on (-half_width, half_width)^dim."""

    dim: int
    cells_per_side: int
    half_width: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.cells_per_side < 2:
            raise ValueError("cells_per_side must be at least 2")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.cells_per_side

    @property
    def node_shape(self) -> tuple[int, ...]:
        return (self.cells_per_side + 1,) * self.dim

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.dim

    @property
    def is_dyadic(self) -> bool:
        """True when M is a power of two >= 8 (required by the covering)."""
        m = self.cells_per_side
        return m >= 8 and (m & (m - 1)) == 0

    def node_coords_1d(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.cells_per_side + 1)

    def cell_centers_1d(self) -> np.ndarray:
        return -self.half_width + self.spacing * (np.arange(self.cells_per_side) + 0.5)

    def cell_center_grid(self) -> np.ndarray:
        """Array of shape cell_shape + (dim,) with all cell centers."""
        return self.cell_center_window((slice(None),) * self.dim)

    def cell_center_window(self, window: tuple[slice, ...]) -> np.ndarray:
        """Centers of the cells in one window of per-axis slices, shape
        window shape + (dim,): ``cell_center_grid()[window]`` without
        building the whole grid."""
        c1d = self.cell_centers_1d()
        axes = np.meshgrid(*[c1d[s] for s in window], indexing="ij")
        return np.stack(axes, axis=-1)

    def node_coord_grid(self) -> np.ndarray:
        axes = np.meshgrid(*[self.node_coords_1d()] * self.dim, indexing="ij")
        return np.stack(axes, axis=-1)

    def cell_cheb_norm(self) -> np.ndarray:
        """max_a |x_a| at every cell center, shape cell_shape."""
        per_axis = np.abs(self.cell_centers_1d())
        out = per_axis
        for _ in range(self.dim - 1):
            out = np.maximum.outer(out, per_axis)
        return out

    @property
    def face_lattice(self) -> tuple[int, ...]:
        """The shape (dim,) + cell_shape over which face keys ravel."""
        return (self.dim,) + self.cell_shape

    def face_keys(self, faces: Iterable[Face]) -> np.ndarray:
        """Keys of ``faces``, in their order.  The first face, in that
        order, that is malformed (not an axis and dim integers), not
        interior or off the grid raises ValueError."""
        dim, m = self.dim, self.cells_per_side
        faces = list(faces)
        rows = [(axis, *idx) for axis, idx in faces]
        arr = np.array(rows) if all(len(r) == dim + 1 for r in rows) else None
        if arr is None or arr.dtype.kind not in "iu":   # entry by entry, clipped
            arr = np.array([[min(max(int(v), -1), m) for v in r] if len(r) == dim + 1
                            and all(isinstance(v, (int, np.integer)) for v in r)
                            else [-1] * (dim + 1) for r in rows], dtype=np.int64)
        arr = arr.astype(np.int64, copy=False).reshape(-1, dim + 1)
        axis, idx = arr[:, 0], arr[:, 1:]
        across = np.arange(dim) != axis[:, None]
        error = np.select([(axis < 0) | (axis >= dim),
                           np.any(~across & ((idx < 1) | (idx >= m)), axis=1),
                           np.any(across & ((idx < 0) | (idx >= m)), axis=1)], [1, 2, 3])
        if np.any(error):
            i = int(np.argmax(error > 0))
            axis, idx = faces[i]
            idx = tuple(int(v) if isinstance(v, np.integer) else v for v in idx)
            face = f"({axis}, {idx})"
            raise ValueError((f"malformed face {face}", f"face {face} is not interior",
                              f"face {face} outside the grid")[error[i] - 1])
        return np.ravel_multi_index((axis, *idx.T), self.face_lattice)

    def face_cells(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(axis (n,), idx (n, dim)) of the faces ``keys``."""
        axis, *idx = np.unravel_index(keys, self.face_lattice)
        return axis, np.stack(idx, axis=1)

    def face_tuples(self, keys: np.ndarray) -> list[Face]:
        """The ``(axis, idx)`` tuples of ``keys``, in their order."""
        axis, idx = self.face_cells(keys)
        return list(zip(axis.tolist(), map(tuple, idx.tolist())))

    def face_sides(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat C-order indices of the low and the high cell of each face."""
        n = self.cells_per_side ** self.dim
        high = keys % n
        return high - self.cells_per_side ** (self.dim - 1 - keys // n), high

    def face_centers2(self, keys: np.ndarray) -> np.ndarray:
        """Face centres in units of h/2, int (n, dim): 2 idx - M along
        each face's axis, 2 idx + 1 - M across it."""
        axis, idx = self.face_cells(keys)
        return 2 * idx + (np.arange(self.dim) != axis[:, None]) - self.cells_per_side

    def face_centers(self, keys: np.ndarray) -> np.ndarray:
        """Face centres as floats, (n, dim)."""
        axis, idx = self.face_cells(keys)
        return -self.half_width + self.spacing * (
            idx + 0.5 * (np.arange(self.dim) != axis[:, None]))

    def face_area(self) -> float:
        return self.spacing ** (self.dim - 1)


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DisplacementField:
    """Vector field sampled at grid nodes, shape node_shape + (dim,)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expected = self.grid.node_shape + (self.grid.dim,)
        if tuple(self.values.shape) != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("displacement values must be finite")
        object.__setattr__(self, "values", _as_readonly(self.values))

    def cell_means(self) -> np.ndarray:
        """Corner-averaged values per cell, shape cell_shape + (dim,)."""
        return corner_average(self.values, self.grid.dim)


class JumpSet:
    """Set of cracked interior cell faces on a grid: sorted unique
    ``keys`` and, beside them, each face's ``state``, LOW_OWNED by default
    and HIGH_OWNED for the faces listed in ``owner_high`` (jumps created
    against already-assigned fields, like the bad-set boundary of the
    approximant).  Both are read-only; ``faces``, ``owner_high`` and
    ``sorted_faces()`` are tuple views, built on each call."""

    def __init__(self, grid: GridSpec, faces: Iterable[Face] = (),
                 owner_high: Iterable[Face] = ()):
        keys = np.unique(grid.face_keys(faces))
        high = grid.face_keys(owner_high)
        if not np.all(np.isin(high, keys)):
            raise ValueError("owner_high must be a subset of the faces")
        self._hold(grid, keys, np.where(np.isin(keys, high), HIGH_OWNED, LOW_OWNED))

    @classmethod
    def from_keys(cls, grid: GridSpec, keys: np.ndarray,
                  state: np.ndarray | int = LOW_OWNED) -> JumpSet:
        """The set of sorted, unique keys of interior faces, unchecked, with
        their states (or one state for all)."""
        out = cls.__new__(cls)
        out._hold(grid, keys, state)
        return out

    def _hold(self, grid: GridSpec, keys, state) -> None:
        self.grid = grid
        self.keys = np.array(keys, dtype=np.int64)
        self.state = np.array(np.broadcast_to(state, self.keys.shape), dtype=np.int8)
        self.keys.flags.writeable = self.state.flags.writeable = False

    @property
    def faces(self) -> frozenset[Face]:
        return frozenset(self.sorted_faces())

    @property
    def owner_high(self) -> frozenset[Face]:
        return frozenset(self.grid.face_tuples(self.keys[self.state == HIGH_OWNED]))

    def sorted_faces(self) -> list[Face]:
        return self.grid.face_tuples(self.keys)

    def measure(self) -> float:
        return len(self) * self.grid.face_area()

    def __len__(self) -> int:
        return self.keys.size

    def __contains__(self, face: Face) -> bool:
        return face in self.faces

    def states(self, keys: np.ndarray) -> np.ndarray:
        """The states of ``keys`` in this set, LOW_OWNED for a key not in
        it."""
        pos = np.where(np.isin(keys, self.keys), np.searchsorted(self.keys, keys), -1)
        return np.append(self.state, np.int8(LOW_OWNED))[pos]

    def face_coord_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(axes, centers): int array (n,), float array (n, dim)."""
        return (self.keys // self.grid.cells_per_side ** self.grid.dim,
                self.grid.face_centers(self.keys))


# ---------------------------------------------------------------------------
# Regions: open boxes and open balls, voxelized by cell-center membership.

@dataclass(frozen=True)
class BoxRegion:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts > lo) & (pts < hi), axis=-1)

    def cell_slices(self, grid: GridSpec) -> tuple[slice, ...]:
        """Per-axis ranges of the cells whose center lies strictly inside;
        empty on every axis when one axis has none.  ``cell_mask`` is
        their product, so ``arr[slices].ravel()`` lists ``arr[mask]`` in
        the same C order."""
        centers = grid.cell_centers_1d()
        out = []
        for a in range(grid.dim):
            idx = np.flatnonzero((centers > self.lo[a]) & (centers < self.hi[a]))
            if idx.size == 0:
                return (slice(0, 0),) * grid.dim
            out.append(slice(int(idx[0]), int(idx[-1]) + 1))
        return tuple(out)

    def cell_mask(self, grid: GridSpec) -> np.ndarray:
        mask = np.zeros(grid.cell_shape, dtype=bool)
        mask[self.cell_slices(grid)] = True
        return mask

    def dilate(self, amount: float, clip: "BoxRegion | None" = None) -> "BoxRegion":
        lo = tuple(v - amount for v in self.lo)
        hi = tuple(v + amount for v in self.hi)
        if clip is not None:
            lo = tuple(max(a, b) for a, b in zip(lo, clip.lo))
            hi = tuple(min(a, b) for a, b in zip(hi, clip.hi))
        return BoxRegion(lo, hi)


@dataclass(frozen=True)
class BallRegion:
    center: tuple[float, ...]
    radius: float

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        d = pts - np.asarray(self.center)
        d2 = d[..., 0] ** 2   # axis by axis, the order of np.sum over them
        for a in range(1, d.shape[-1]):
            d2 += d[..., a] ** 2
        return d2 < self.radius ** 2

    def cell_mask(self, grid: GridSpec) -> np.ndarray:
        return self.contains_points(grid.cell_center_grid())


Region = BoxRegion | BallRegion


def centered_box(half_width: float, dim: int) -> BoxRegion:
    return BoxRegion((-half_width,) * dim, (half_width,) * dim)


def region_cell_mask(grid: GridSpec, region: Region | None) -> np.ndarray:
    if region is None:
        return np.ones(grid.cell_shape, dtype=bool)
    return region.cell_mask(grid)


def faces_in_region(grid: GridSpec, jumps: JumpSet, region: Region | None) -> int:
    """Number of crack faces whose center lies in the (open) region."""
    if region is None:
        return len(jumps)
    return int(np.count_nonzero(region.contains_points(grid.face_centers(jumps.keys))))


# ---------------------------------------------------------------------------
# Small array helpers shared by quadrature and strain code.

# Elementwise whole-grid cell kernels run over slabs of axis-0 cell planes
# whose float field fits this budget.  Sums run on assembled arrays: their
# shape sets numpy's pairwise summation order.
SLAB_BYTES = 1 << 18


def cell_slabs(cell_shape: tuple[int, ...]) -> list[slice]:
    """Axis-0 slices of ``SLAB_BYTES`` slabs (one plane at least)."""
    step = max(1, SLAB_BYTES // (8 * max(int(np.prod(cell_shape[1:])), 1)))
    n = cell_shape[0]
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


def slabwise(cell_shape: tuple[int, ...],
             kernel: Callable[[slice], np.ndarray]) -> np.ndarray:
    """A float array of ``cell_shape``, ``kernel(sl)`` on each slab ``sl``."""
    out = np.empty(cell_shape)
    for sl in cell_slabs(cell_shape):
        out[sl] = kernel(sl)
    return out


def corner_average(node_vals: np.ndarray, dim: int) -> np.ndarray:
    """Average node values over the 2^dim corners of each cell."""
    v = node_vals
    for a in range(dim):
        sl_lo = [slice(None)] * v.ndim
        sl_hi = [slice(None)] * v.ndim
        sl_lo[a] = slice(0, -1)
        sl_hi[a] = slice(1, None)
        v = np.add(v[tuple(sl_lo)], v[tuple(sl_hi)])
        v *= 0.5
    return v


def node_mask_from_cells(cell_mask: np.ndarray) -> np.ndarray:
    """Nodes incident to at least one cell of the mask."""
    dim = cell_mask.ndim
    out = np.zeros(tuple(s + 1 for s in cell_mask.shape), dtype=bool)
    for corner in np.ndindex(*(2,) * dim):
        sl = tuple(slice(c, c + s) for c, s in zip(corner, cell_mask.shape))
        out[sl] |= cell_mask
    return out


def window_flat_index(lattice_shape: tuple[int, ...], starts: np.ndarray,
                      shape: tuple[int, ...]) -> np.ndarray:
    """Flat C-order lattice indices of k equal windows, shape (k, prod(shape)).

    ``starts`` holds the (k, dim) low corners; each row lists its window's
    points in C order."""
    local = np.indices(shape).reshape(len(shape), -1)
    return (np.ravel_multi_index(tuple(np.asarray(starts).T), lattice_shape)[:, None]
            + np.ravel_multi_index(tuple(local), lattice_shape)[None, :])


# ---------------------------------------------------------------------------
# File formats: JSON header + raw little-endian float64 blocks per component;
# jump sets as JSON arrays of (axis, cell-index-tuple).

def save_field(base: str | Path, u: DisplacementField) -> None:
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    g = u.grid
    header = {
        "dim": g.dim,
        "M": g.cells_per_side,
        "r": g.half_width,
        "components": g.dim,
        "dtype": "f64-le",
    }
    base.with_suffix(".json").write_text(json.dumps(header, sort_keys=True))
    with open(base.with_suffix(".bin"), "wb") as fh:
        for c in range(g.dim):
            fh.write(np.ascontiguousarray(u.values[..., c], dtype="<f8").tobytes())


def load_field(base: str | Path) -> DisplacementField:
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    if not isinstance(header, dict):
        raise ValueError("field header is not a JSON object")
    if header.get("dtype") != "f64-le":
        raise ValueError(f"unsupported dtype {header.get('dtype')!r}")
    for key in ("dim", "M", "r"):
        if key not in header:
            raise ValueError(f"field header missing key {key!r}")
    try:
        grid = GridSpec(int(header["dim"]), int(header["M"]), float(header["r"]))
    except TypeError:
        raise ValueError("field header dim, M and r must be numbers") from None
    raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    n_nodes = (grid.cells_per_side + 1) ** grid.dim
    if raw.size != n_nodes * grid.dim:
        raise ValueError("raw payload size does not match the header")
    comps = raw.reshape(grid.dim, *grid.node_shape)
    return DisplacementField(grid, np.stack([comps[c] for c in range(grid.dim)], axis=-1))


def save_jump(path: str | Path, jumps: JumpSet) -> None:
    payload: object = [[axis, list(idx)] for axis, idx in jumps.sorted_faces()]
    high = jumps.grid.face_tuples(jumps.keys[jumps.state == HIGH_OWNED])
    if high:
        payload = {"faces": payload, "owner_high": [[a, list(idx)] for a, idx in high]}
    Path(path).write_text(json.dumps(payload))


def _faces_from_json(entries) -> list[Face]:
    """Faces from JSON ``[axis, [index, ...]]`` pairs of integers."""
    if not isinstance(entries, list):
        raise ValueError("jump file: faces must be a JSON array")
    faces = []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], int) and isinstance(entry[1], list)
                and all(isinstance(i, int) for i in entry[1])):
            raise ValueError(f"jump file: malformed face {json.dumps(entry)}")
        faces.append((entry[0], tuple(entry[1])))
    return faces


def load_jump(path: str | Path, grid: GridSpec) -> JumpSet:
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict):
        if "faces" not in payload:
            raise ValueError("jump file object missing key 'faces'")
        return JumpSet(grid, _faces_from_json(payload["faces"]),
                       _faces_from_json(payload.get("owner_high", [])))
    return JumpSet(grid, _faces_from_json(payload))
