"""Cubic grids, node-sampled displacement fields, crack faces, and regions.

The domain is the open cube (-r, r)^dim split into M cells per side
(spacing h = 2r/M).  Displacements live on the (M+1)^dim nodes, strains
and masks on the M^dim cells, and cracks on interior cell faces.

A face is identified by ``(axis, idx)`` where ``idx[axis]`` is the index
of the node plane the face lies on (1..M-1) and the remaining entries are
cell indices (0..M-1).  Nodes exactly on a cracked plane carry the value
of the low side of the crack; the strain stencils encode that convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

Face = tuple[int, tuple[int, ...]]


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
        axes = np.meshgrid(*[self.cell_centers_1d()] * self.dim, indexing="ij")
        return np.stack(axes, axis=-1)

    def node_coord_grid(self) -> np.ndarray:
        axes = np.meshgrid(*[self.node_coords_1d()] * self.dim, indexing="ij")
        return np.stack(axes, axis=-1)

    def cell_cheb_norm(self) -> np.ndarray:
        """max_a |x_a| at every cell center, shape cell_shape."""
        return _cheb_norm(self.cell_centers_1d(), self.dim)

    def node_cheb_norm(self) -> np.ndarray:
        """max_a |x_a| at every node, shape node_shape."""
        return _cheb_norm(self.node_coords_1d(), self.dim)

    def face_center(self, face: Face) -> np.ndarray:
        axis, idx = face
        out = np.empty(self.dim)
        for a in range(self.dim):
            if a == axis:
                out[a] = -self.half_width + self.spacing * idx[a]
            else:
                out[a] = -self.half_width + self.spacing * (idx[a] + 0.5)
        return out

    def face_area(self) -> float:
        return self.spacing ** (self.dim - 1)


def _cheb_norm(coords_1d: np.ndarray, dim: int) -> np.ndarray:
    per_axis = np.abs(coords_1d)
    out = per_axis
    for _ in range(dim - 1):
        out = np.maximum.outer(out, per_axis)
    return out


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
    """Set of cracked interior cell faces on a grid.

    Nodes on a cracked plane carry the values of the face's owning side:
    the low side by default, the high side for faces listed in
    ``owner_high`` (used for jumps created against already-assigned
    fields, like the bad-set boundary of the approximant).
    """

    def __init__(self, grid: GridSpec, faces: Iterable[Face] = (),
                 owner_high: Iterable[Face] = ()):
        self.grid = grid
        normalized = set()
        m = grid.cells_per_side
        for axis, idx in faces:
            idx = tuple(int(i) for i in idx)
            if not (0 <= axis < grid.dim) or len(idx) != grid.dim:
                raise ValueError(f"malformed face ({axis}, {idx})")
            if not (1 <= idx[axis] <= m - 1):
                raise ValueError(f"face ({axis}, {idx}) is not interior")
            for a in range(grid.dim):
                if a != axis and not (0 <= idx[a] <= m - 1):
                    raise ValueError(f"face ({axis}, {idx}) outside the grid")
            normalized.add((int(axis), idx))
        self._faces = frozenset(normalized)
        oh = frozenset((int(a), tuple(int(i) for i in idx)) for a, idx in owner_high)
        if not oh <= self._faces:
            raise ValueError("owner_high must be a subset of the faces")
        self._owner_high = oh

    @property
    def faces(self) -> frozenset[Face]:
        return self._faces

    @property
    def owner_high(self) -> frozenset[Face]:
        return self._owner_high

    def sorted_faces(self) -> list[Face]:
        return sorted(self._faces)

    def measure(self) -> float:
        return len(self._faces) * self.grid.face_area()

    def __len__(self) -> int:
        return len(self._faces)

    def __contains__(self, face: Face) -> bool:
        return face in self._faces

    def __or__(self, other: "JumpSet") -> "JumpSet":
        return JumpSet(self.grid, self._faces | other._faces,
                       self._owner_high | other._owner_high)

    def difference(self, other: "JumpSet") -> "JumpSet":
        faces = self._faces - other._faces
        return JumpSet(self.grid, faces, self._owner_high & faces)

    def face_coord_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(axes, centers): int array (n,), float array (n, dim)."""
        faces = self.sorted_faces()
        if not faces:
            return np.empty(0, dtype=int), np.empty((0, self.grid.dim))
        axes = np.array([f[0] for f in faces], dtype=int)
        centers = np.array([self.grid.face_center(f) for f in faces])
        return axes, centers


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

    def cell_mask(self, grid: GridSpec) -> np.ndarray:
        per_axis = []
        centers = grid.cell_centers_1d()
        for a in range(grid.dim):
            per_axis.append((centers > self.lo[a]) & (centers < self.hi[a]))
        mask = per_axis[0]
        for a in range(1, grid.dim):
            mask = np.multiply.outer(mask, per_axis[a])
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
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=-1)
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
    _, centers = jumps.face_coord_arrays()
    if centers.shape[0] == 0:
        return 0
    return int(np.count_nonzero(region.contains_points(centers)))


# ---------------------------------------------------------------------------
# Small array helpers shared by quadrature and strain code.

def corner_average(node_vals: np.ndarray, dim: int) -> np.ndarray:
    """Average node values over the 2^dim corners of each cell."""
    v = node_vals
    for a in range(dim):
        sl_lo = [slice(None)] * v.ndim
        sl_hi = [slice(None)] * v.ndim
        sl_lo[a] = slice(0, -1)
        sl_hi[a] = slice(1, None)
        v = 0.5 * (v[tuple(sl_lo)] + v[tuple(sl_hi)])
    return v


def node_mask_from_cells(cell_mask: np.ndarray) -> np.ndarray:
    """Nodes incident to at least one cell of the mask."""
    dim = cell_mask.ndim
    out = np.zeros(tuple(s + 1 for s in cell_mask.shape), dtype=bool)
    for corner in np.ndindex(*(2,) * dim):
        sl = tuple(slice(c, c + s) for c, s in zip(corner, cell_mask.shape))
        out[sl] |= cell_mask
    return out


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
    if jumps.owner_high:
        payload = {
            "faces": payload,
            "owner_high": [[a, list(idx)] for a, idx in sorted(jumps.owner_high)],
        }
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
