"""Crack-aware symmetrized finite-difference strain.

Per cell, each partial derivative is the mean of nodal edge differences
along that axis.  Crack faces sit on node planes, and the nodes of a
cracked plane carry the values of the face's owning side: the low side
by default, the high side for faces marked ``owner_high`` in the jump
set.  A cell whose own face is cracked and owned by the other side drops
that node layer and falls back to a one-sided pair on its own side of
the crack (never differencing across another crack); an axis with no
usable same-side pair contributes zero strain.  Bonded faces always
couple through their shared nodes, and rigid motions produce exactly
zero strain in every mode.  This owner rule lives here alone: the
strain and the elastic solver take their per-cell stencils from
``cell_strain_ops``, which reads the jump set through one face lookup.

The strain is stored as its independent components: ``symmetric_gradient``
returns shape ``(npairs,) + cell_shape``, one C-contiguous cell plane per
pair (i, k), i <= k, of ``upper_pairs(dim)`` (3 planes in 2D, 6 in 3D).
Readers reduce over the pairs plane by plane (``energy.frobenius_sq``),
adding the squares in the order a numpy sum over the trailing (dim, dim)
axes of the full symmetric matrix takes: left to right in 2D; in 3D the
first eight pairwise, ((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7)), then the
ninth.  So densities and magnitudes have the bits of that sum.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

import numpy as np

from .grid import DisplacementField, Face, GridSpec, JumpSet, cell_slabs


def _face_owner(jumps: JumpSet, axis: int, cell: tuple[int, ...],
                plane: int) -> bool | None:
    """The owner rule's one lookup: None when the ``axis`` face on node
    plane ``plane``, at ``cell``'s position across that axis, is
    uncracked; else whether its high side owns it."""
    face = (axis, cell[:axis] + (plane,) + cell[axis + 1:])
    if face not in jumps:
        return None
    return face in jumps.owner_high


def cell_strain_ops(grid: GridSpec, jumps: JumpSet, cell: tuple[int, ...]
                    ) -> tuple[list[list[tuple[tuple[int, ...], float]] | None], list[int]]:
    """Difference stencil of each partial derivative at one cell.

    Returns ``(ops, dead_axes)``: ``ops[a]`` lists ``(node, coefficient)``
    pairs realizing d/dx_a for every component, or None when the axis has
    no usable same-side data.  Shared by the strain evaluation and the
    elastic solver so both discretize identically.  It reads only faces
    whose ``face_cells`` include ``cell``.
    """
    dim, m = grid.dim, grid.cells_per_side
    h = grid.spacing
    low = [_face_owner(jumps, b, cell, cell[b]) for b in range(dim)]
    high = [_face_owner(jumps, b, cell, cell[b] + 1) for b in range(dim)]
    # a node layer is dropped where the other side owns the cell's face
    blocked_low = [owner is False for owner in low]
    blocked_high = [owner is True for owner in high]
    tau_options = [tuple(t for t, blocked in enumerate((blocked_low[b],
                                                        blocked_high[b]))
                         if not blocked) for b in range(dim)]

    ops: list[list[tuple[tuple[int, ...], float]] | None] = []
    dead: list[int] = []
    for a in range(dim):
        bl, bh = blocked_low[a], blocked_high[a]
        pair = None
        if not bl and not bh:
            pair = (cell[a], cell[a] + 1)
        elif bl and not bh:
            # one-sided on the high (own) side: legal when it crosses no
            # crack and the far node layer is owned by this side
            if (cell[a] + 2 <= m and high[a] is None
                    and _face_owner(jumps, a, cell, cell[a] + 2) is not True):
                pair = (cell[a] + 1, cell[a] + 2)
        elif bh and not bl:
            if (cell[a] - 1 >= 0 and low[a] is None
                    and _face_owner(jumps, a, cell, cell[a] - 1) is not False):
                pair = (cell[a] - 1, cell[a])
        if pair is None:
            ops.append(None)
            dead.append(a)
            continue

        combos = [()]
        empty = False
        for b in range(dim):
            if b == a:
                continue
            if not tau_options[b]:
                empty = True
                break
            combos = [c + (t,) for c in combos for t in tau_options[b]]
        if empty:
            ops.append(None)
            dead.append(a)
            continue
        coef = 1.0 / (h * len(combos))
        entries = []
        for combo in combos:
            ti = 0
            lo, hi = [], []
            for b in range(dim):
                if b == a:
                    lo.append(pair[0])
                    hi.append(pair[1])
                else:
                    lo.append(cell[b] + combo[ti])
                    hi.append(cell[b] + combo[ti])
                    ti += 1
            entries.append((tuple(hi), coef))
            entries.append((tuple(lo), -coef))
        ops.append(entries)
    return ops, dead


def face_cells(grid: GridSpec, face: Face) -> list[tuple[int, ...]]:
    """Cells whose stencil may read ``face``, in increasing order.

    A face influences the two cells it bounds directly, and through the
    one-sided fallbacks the next cell out on each side.
    """
    axis, idx = face
    k = idx[axis]
    return [idx[:axis] + (ca,) + idx[axis + 1:]
            for ca in range(max(k - 2, 0), min(k + 2, grid.cells_per_side))]


def upper_pairs(dim: int) -> list[tuple[int, int]]:
    """Component pairs (i, k), i <= k, of a symmetric (dim, dim) field, in
    the order of its strain planes."""
    return [(i, k) for i in range(dim) for k in range(i, dim)]


def crack_free_strain(values: np.ndarray, h: float) -> np.ndarray:
    """Crack-free strain of node values shaped nodes + (dim,), on the
    cells between them, as (npairs,) + cells planes.

    Plane (i, k) is (du_i/dx_k + du_k/dx_i) * 0.5, and (g + g) * 0.5 on
    the diagonal, which overflows where the sum does.  Each partial
    derivative is built once, from a contiguous copy of its node
    component, and added into the plane of its pair.
    """
    dim = values.shape[-1]
    index = {ik: n for n, ik in enumerate(upper_pairs(dim))}
    out = np.empty((len(index),) + tuple(s - 1 for s in values.shape[:-1]))
    for c in range(dim):
        comp = np.ascontiguousarray(values[..., c])
        for a in range(dim):
            d = np.diff(comp, axis=a)
            d /= h
            for o in range(dim):
                if o != a:  # mean over the cell's edges along axis a
                    d = d[(slice(None),) * o + (slice(0, -1),)] \
                        + d[(slice(None),) * o + (slice(1, None),)]
                    d *= 0.5
            plane = out[index[min(c, a), max(c, a)]]
            if c == a:
                np.add(d, d, out=plane)
            elif c < a:
                plane[...] = d
            else:
                plane += d
    out *= 0.5
    return out


def symmetric_gradient(u: DisplacementField, jumps: JumpSet) -> np.ndarray:
    """Per-cell symmetrized gradient, shape (npairs,) + cell_shape with
    one contiguous plane per pair of ``upper_pairs``; cracked faces
    contribute no strain.

    Read-only; assembled from ``strain_slabs``.  Finite node values can
    still overflow in the differences; that raises one ValueError
    instead of floating-point warnings.
    """
    e = np.empty((len(upper_pairs(u.grid.dim)),) + u.grid.cell_shape)
    for sl, part in strain_slabs(u, jumps):
        e[:, sl] = part
    e.flags.writeable = False   # shared by every layer of a run
    return e


def strain_slabs(u: DisplacementField, jumps: JumpSet
                 ) -> Iterator[tuple[slice, np.ndarray]]:
    """``(sl, e(u) on the cells of sl)`` for each ``cell_slabs`` slice."""
    grid = u.grid
    jg = jumps.grid
    if jg.dim != grid.dim or jg.cells_per_side != grid.cells_per_side \
            or jg.half_width != grid.half_width:
        raise ValueError("displacement and jump set live on different grids")
    cells = sorted({c for face in jumps.faces for c in face_cells(grid, face)})
    for sl in cell_slabs(grid.cell_shape):   # sorted cells group by axis 0
        yield sl, _strain_slab(u, jumps, sl, cells[
            bisect_left(cells, (sl.start,)):bisect_left(cells, (sl.stop,))])


@np.errstate(over="ignore", invalid="ignore")
def _strain_slab(u: DisplacementField, jumps: JumpSet, sl: slice,
                 cells: list[tuple[int, ...]]) -> np.ndarray:
    """Slab ``sl`` of e(u): the crack-free stencil, then the crack stencils
    of its ``cells``."""
    grid, dim = u.grid, u.grid.dim
    e = crack_free_strain(u.values[sl.start:sl.stop + 1], grid.spacing)
    for cell in cells:
        ops, dead = cell_strain_ops(grid, jumps, cell)
        d_local = np.zeros((dim, dim))
        for a in range(dim):
            if ops[a] is None:
                continue
            acc = np.zeros(dim)
            for node, coef in ops[a]:
                acc += coef * u.values[node]
            d_local[:, a] = acc
        # a dead axis zeroes every pair that contains it
        at = (cell[0] - sl.start,) + cell[1:]
        for n, (i, k) in enumerate(upper_pairs(dim)):
            e[(n,) + at] = 0.0 if i in dead or k in dead \
                else (d_local[i, k] + d_local[k, i]) * 0.5
    if not np.all(np.isfinite(e)):
        raise ValueError("strain values must be finite")
    return e
