"""Synthetic displacement fields with controlled crack sets.

Cracked fields are built as a rigid background plus localized opening
pockets: behind each declared face patch the field gains an affine
offset, ramped to zero away from the patch so the only discontinuities
are the declared faces (whose planes' nodes keep the low-side values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .grid import DisplacementField, GridSpec, JumpSet


@dataclass(frozen=True)
class CrackPatch:
    axis: int
    plane: int                      # node plane index
    trans_lo: tuple[int, ...]       # transverse cell range per other axis
    trans_hi: tuple[int, ...]
    depth: int                      # pocket depth in cells, >= 2
    decay: int                      # ramp length in cells, >= 1

    def face_keys(self, grid: GridSpec) -> np.ndarray:
        """Sorted keys of the patch's faces."""
        idx = [np.arange(lo, hi) for lo, hi in zip(self.trans_lo, self.trans_hi)]
        idx.insert(self.axis, np.array([self.plane]))
        return np.ravel_multi_index(np.ix_([self.axis], *idx),
                                    grid.face_lattice).ravel()

    def support_box(self, dim: int) -> tuple[tuple[int, int], ...]:
        """Node-index box containing the pocket, per axis."""
        out = [(lo, hi + 1) for lo, hi in zip(self.trans_lo, self.trans_hi)]
        out.insert(self.axis, (self.plane, self.plane + self.depth + self.decay + 1))
        return tuple(out)


def _axial_profile(n_nodes: int, patch: CrackPatch) -> np.ndarray:
    prof = np.zeros(n_nodes)
    lo = patch.plane + 1
    hi = min(patch.plane + patch.depth, n_nodes - 1)
    prof[lo:hi + 1] = 1.0
    for k in range(1, patch.decay + 1):
        i = hi + k
        if i < n_nodes:
            prof[i] = max(0.0, 1.0 - k / (patch.decay + 1))
    return prof


def _transverse_profile(n_nodes: int, lo_cell: int, hi_cell: int) -> np.ndarray:
    """0 at the patch's outer nodes, 1 on the inner core."""
    prof = np.zeros(n_nodes)
    width = hi_cell - lo_cell
    ramp = max(1, width // 3)
    for n in range(lo_cell + 1, hi_cell):
        d = min(n - lo_cell, hi_cell - n)
        prof[n] = min(1.0, d / ramp)
    return prof


def pocket_indicator(grid: GridSpec, patch: CrackPatch) -> np.ndarray:
    """Scalar node field in [0,1]: the opening profile of one patch."""
    n = grid.cells_per_side + 1
    axes = [_transverse_profile(n, lo, hi)
            for lo, hi in zip(patch.trans_lo, patch.trans_hi)]
    axes.insert(patch.axis, _axial_profile(n, patch))
    out = axes[0]
    for a in range(1, grid.dim):
        out = np.multiply.outer(out, axes[a])
    return out


def rigid_background(grid: GridSpec, rng: np.random.Generator,
                     scale: float = 0.5) -> np.ndarray:
    a = rng.normal(size=(grid.dim, grid.dim))
    w = 0.5 * (a - a.T) * scale
    b = rng.normal(size=grid.dim) * scale
    x = grid.node_coord_grid()
    return b + np.einsum("ij,...j->...i", w, x)


def rigid_field(grid: GridSpec, seed: int = 0) -> tuple[DisplacementField, JumpSet]:
    rng = np.random.default_rng(seed)
    return DisplacementField(grid, rigid_background(grid, rng)), JumpSet(grid)


def sinusoid_field(grid: GridSpec, seed: int = 0, amplitude: float = 0.05
                   ) -> tuple[DisplacementField, JumpSet]:
    rng = np.random.default_rng(seed)
    x = grid.node_coord_grid()
    vals = rigid_background(grid, rng, scale=0.2)
    for c in range(grid.dim):
        freq = rng.integers(1, 3, size=grid.dim)
        phase = rng.uniform(0, 2 * np.pi, size=grid.dim)
        wave = np.ones(grid.node_shape)
        for a in range(grid.dim):
            wave = wave * np.sin(freq[a] * np.pi * x[..., a] + phase[a])
        vals[..., c] += amplitude * wave
    return DisplacementField(grid, vals), JumpSet(grid)


def field_with_patches(grid: GridSpec, patches: list[CrackPatch],
                       openings: list[np.ndarray],
                       rng: np.random.Generator | None = None
                       ) -> tuple[DisplacementField, JumpSet]:
    rng = rng or np.random.default_rng(0)
    vals = rigid_background(grid, rng)
    keys = [np.empty(0, dtype=np.int64)]
    for patch, opening in zip(patches, openings):
        m = pocket_indicator(grid, patch)
        vals = vals + m[..., None] * np.asarray(opening)
        keys.append(patch.face_keys(grid))
    return DisplacementField(grid, vals), JumpSet.from_keys(
        grid, np.unique(np.concatenate(keys)))


def _patch_at(grid: GridSpec, axis: int, plane: int,
              trans_center: tuple[int, ...], extent: int) -> CrackPatch:
    dim = grid.dim
    m = grid.cells_per_side
    lo, hi = [], []
    for c in trans_center:
        a = max(0, min(c - extent // 2, m - extent))
        lo.append(a)
        hi.append(a + extent)
    depth = max(2, extent)
    decay = max(2, extent // 2)
    return CrackPatch(axis, plane, tuple(lo), tuple(hi), depth, decay)


def _centered_patch(grid: GridSpec, extent: int) -> CrackPatch:
    """Patch on the mid plane across axis 0, centred on the other axes."""
    mid = grid.cells_per_side // 2
    return _patch_at(grid, 0, mid, (mid,) * (grid.dim - 1), extent)


def two_motion_crack_field(grid: GridSpec, area: float, seed: int = 0,
                           amplitude: float = 0.1
                           ) -> tuple[DisplacementField, JumpSet, dict]:
    """One centered crack patch whose measure approximates ``area``."""
    rng = np.random.default_rng(seed)
    dim = grid.dim
    n_faces = max(1, round(area / grid.face_area()))
    extent = max(1, round(n_faces ** (1.0 / (dim - 1))))
    patch = _centered_patch(grid, extent)
    opening = rng.normal(size=dim)
    opening *= amplitude / np.linalg.norm(opening)
    u, jumps = field_with_patches(grid, [patch], [opening], rng)
    return u, jumps, {"requested_area": area, "actual_area": jumps.measure(),
                      "faces": len(jumps)}


def _separated_patches(grid: GridSpec, rng: np.random.Generator, count: int,
                       extent_for: "callable") -> list[CrackPatch]:
    """Up to ``count`` patches in 400 draws, their support boxes at least
    3 cells apart along some axis."""
    margin_cells = 3
    dim = grid.dim
    m = grid.cells_per_side
    patches: list[CrackPatch] = []
    boxes: list[tuple[tuple[int, int], ...]] = []
    attempts = 0
    while len(patches) < count and attempts < 400:
        attempts += 1
        extent = extent_for(rng)
        axis = int(rng.integers(0, dim))
        pad = extent + margin_cells + 4
        if m - pad <= pad:
            raise RegimeError(f"grid too small for the patch extent: {m} "
                              f"cells per side, extent {extent} needs > {2 * pad}")
        plane = int(rng.integers(pad, m - pad))
        trans = tuple(int(rng.integers(pad, m - pad)) for _ in range(dim - 1))
        patch = _patch_at(grid, axis, plane, trans, extent)
        box = patch.support_box(dim)
        if any(all(box[a][0] - margin_cells < other[a][1]
                   and other[a][0] - margin_cells < box[a][1] for a in range(dim))
               for other in boxes):
            continue
        patches.append(patch)
        boxes.append(box)
    return patches


def _pockets_field(grid: GridSpec, count: int, extent_of, seed: int,
                   amplitude: float) -> tuple[DisplacementField, JumpSet, dict]:
    """Separated pockets, each opened by a random direction of length
    ``amplitude``; the patches, openings and field draw from one rng."""
    rng = np.random.default_rng(seed)
    patches = _separated_patches(grid, rng, count, extent_of)
    openings = []
    for _ in patches:
        v = rng.normal(size=grid.dim)
        openings.append(v * amplitude / np.linalg.norm(v))
    u, jumps = field_with_patches(grid, patches, openings, rng)
    return u, jumps, {"patches": len(patches), "area": jumps.measure()}


def random_cracks_field(grid: GridSpec, count: int, max_extent: int,
                        seed: int = 0, amplitude: float = 0.08
                        ) -> tuple[DisplacementField, JumpSet, dict]:
    """Several well-separated small opening pockets."""
    return _pockets_field(grid, count,
                          lambda r: int(r.integers(1, max_extent + 1)),
                          seed, amplitude)


def rigid_patches_field(grid: GridSpec, n_patches: int, extent: int,
                        seed: int = 0, amplitude: float = 0.05
                        ) -> tuple[DisplacementField, JumpSet, dict]:
    """Fixed number of pockets of one size: the oscillating-patch family."""
    return _pockets_field(grid, n_patches, lambda r: extent, seed, amplitude)


def split_target(grid: GridSpec, seed: int = 0) -> DisplacementField:
    """Piecewise-constant target jumping across the mid plane by a random
    offset; the plane nodes carry the low-side values."""
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.3, 0.8, size=grid.dim) * rng.choice(
        [-1.0, 1.0], size=grid.dim)
    x = grid.node_coord_grid()
    base = np.full(grid.node_shape + (grid.dim,), 0.05)
    vals = np.where(x[..., :1] <= 0.0, base, base + offset)
    return DisplacementField(grid, vals)


def shrinking_crack_instance(grid: GridSpec, delta: float, seed: int = 0
                             ) -> tuple[DisplacementField, JumpSet, dict]:
    """Sweep member at scale delta: smooth background plus a centered
    pocket whose area tracks delta^dim and whose opening scales with
    delta (small cracks open less), so every excess channel shrinks
    along the family.

    The patch extent is floored at two faces per transverse axis: a
    single-face patch has no interior node and carries zero opening.
    """
    area = delta ** grid.dim
    n_faces = max(1, round(area / grid.face_area()))
    extent = max(2, round(n_faces ** (1.0 / (grid.dim - 1))))
    patch = _centered_patch(grid, extent)
    rng = np.random.default_rng(seed)
    opening = rng.normal(size=grid.dim)
    opening *= 0.4 * delta / np.linalg.norm(opening)

    base, _ = sinusoid_field(grid, seed=seed + 17)
    mpro = pocket_indicator(grid, patch)
    vals = base.values + mpro[..., None] * opening
    jumps = JumpSet.from_keys(grid, patch.face_keys(grid))
    u = DisplacementField(grid, vals)
    return u, jumps, {"requested_area": area, "actual_area": jumps.measure(),
                      "faces": len(jumps)}


def vanishing_sequence(grid: GridSpec, kind: str, levels: int, seed: int = 0
                       ) -> list[tuple[DisplacementField, JumpSet, dict]]:
    """Built-in vanishing-jump families.

    ``shrinking-crack``: one centered patch whose face count halves per
    level at fixed (small) opening.  ``rigid-patches``: three pockets
    whose sizes halve per level with openings scaled down accordingly.
    """
    out = []
    if kind == "shrinking-crack":
        base_extent = 16 if grid.dim == 2 else 4
        for lv in range(levels):
            patch = _centered_patch(grid, max(1, base_extent >> lv))
            rng = np.random.default_rng(seed)
            opening = rng.normal(size=grid.dim)
            opening *= 0.02 * 0.125 ** lv / np.linalg.norm(opening)
            u, jumps = field_with_patches(grid, [patch], [opening],
                                          np.random.default_rng(seed))
            out.append((u, jumps, {"level": lv, "area": jumps.measure()}))
    elif kind == "rigid-patches":
        base_extent = 8 if grid.dim == 2 else 4
        for lv in range(levels):
            extent = max(1, base_extent >> lv)
            rng = np.random.default_rng(seed)
            patches = _separated_patches(grid, rng, 3, lambda r: extent)
            openings = []
            for _ in patches:
                v = rng.normal(size=grid.dim)
                openings.append(v * 0.02 * 0.5 ** lv / np.linalg.norm(v))
            u, jumps = field_with_patches(grid, patches, openings,
                                          np.random.default_rng(seed + 1))
            out.append((u, jumps, {"level": lv, "area": jumps.measure()}))
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")
    return out
