"""Crack-aware symmetrized finite-difference strain.

Per cell, each partial derivative is the mean of nodal edge differences
along that axis.  Crack faces sit on node planes, and the nodes of a
cracked plane carry the values of the face's owning side: the low side
by default, the high side for faces whose state in the jump set is
HIGH_OWNED.  A cell whose own face is cracked and owned by the other
side drops that node layer and falls back to a one-sided pair on its own
side of the crack (never differencing across another crack); an axis with no
usable same-side pair contributes zero strain.  Bonded faces always
couple through their shared nodes, and rigid motions produce exactly
zero strain in every mode.

This owner rule lives here alone, in ``stencil_table``: from the states
of the faces that ``face_slots`` places around an array of cells (read
from the jump set's key and state arrays), it gives each cell's
difference terms in one fixed order.  The strain of the cells
that faces reach and the elastic solver's local matrices
(``oracle.ElasticSystem``) are both sums over those terms, so both
discretize identically.

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

from itertools import product
from typing import Iterator

import numpy as np

from .grid import (HIGH_OWNED, LOW_OWNED, DisplacementField, GridSpec,
                   JumpSet, cell_slabs)

# The node planes, relative to cell[a], of the faces across axis a that a
# cell's stencils read.  A face state is 0 (uncracked), LOW_OWNED or
# HIGH_OWNED.
READ_PLANES = np.arange(-1, 3)
# (dim, T, dim) transverse node offsets of the T = 2^(dim-1) terms of
# d/dx_a: product order over the other axes, the last fastest; -1 on a.
_COMBOS = {d: np.array([[c[:a] + (-1,) + c[a:] for c in product((0, 1), repeat=d - 1)]
                        for a in range(d)]) for d in (2, 3)}


def face_slots(grid: GridSpec, jumps: JumpSet, first: np.ndarray = ()
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, slot, state) of the faces ``first`` (keys) and ``jumps``:
    the faces of ``first``, then the other faces of ``jumps`` in key
    order; a face of ``first`` has its state in ``jumps`` (LOW_OWNED off
    it).

    ``cells`` (n, dim), in increasing order, are the cells whose stencils
    may read a listed face: the two cells it bounds, and through the
    one-sided fallbacks the next cell out on each side.  slot[i, a, r]
    is the index in the list of the face across axis a on node plane
    cells[i, a] + READ_PLANES[r], at the cell's position across a, or -1;
    ``state`` holds each listed face's state, then the 0 that -1 picks.
    """
    dim, m = grid.dim, grid.cells_per_side
    first = np.asarray(first, dtype=np.int64)
    f = np.concatenate([first, np.setdiff1d(jumps.keys, first)])
    state = np.append(jumps.states(f), np.int8(0))
    axis, idx = grid.face_cells(f)
    stride = m ** np.arange(dim - 1, -1, -1)
    along = idx[np.arange(len(f)), axis][:, None] - READ_PLANES
    flat = (idx @ stride)[:, None] - READ_PLANES * stride[axis, None]
    j, r = np.nonzero((along >= 0) & (along < m))
    flat, cell = np.unique(flat[j, r], return_inverse=True)
    slot = np.full((len(flat), dim, len(READ_PLANES)), -1)
    slot[cell, axis[j], r] = j
    return (np.stack(np.unravel_index(flat, grid.cell_shape), axis=1), slot,
            state)


def stencil_table(grid: GridSpec, cells: np.ndarray, states: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, weight, dead): the stencils of ``cells`` (n, dim), given
    the states (n, dim, 4) of the faces in their ``face_slots``.

    A node layer is dropped where the other side owns the cell's face.
    An axis that keeps both layers differences them; one that keeps one
    falls back to the pair on its kept side, when that crosses no crack
    and the far node layer belongs to this side; otherwise the axis is
    dead, and so is every axis whose transverse combinations are all
    dropped.  The term of d/dx_a at cell i for combination t of
    ``_COMBOS`` runs from flat node lo[i, a, t] to hi[i, a, t], one layer
    up along a, with weight 1 / (h * usable combinations) on hi, or zero
    where t uses a dropped layer or the axis is dead.
    """
    n, dim = cells.shape
    below, low, high, above = np.moveaxis(states, -1, 0)
    blocked = np.stack([low == LOW_OWNED, high == HIGH_OWNED], axis=-1)
    up, down = blocked[..., 0], blocked[..., 1]   # the pair moves up, down
    dead = (up & ~((cells + 2 <= grid.cells_per_side) & (high == 0)
                   & (above != HIGH_OWNED))) \
        | (down & ~((cells >= 1) & (low == 0) & (below != LOW_OWNED)))
    options = 2 - blocked.sum(axis=-1)
    # an axis without options zeroes the others' products
    combos = np.prod(options, axis=1)[:, None] // np.maximum(options, 1)
    dead |= combos == 0
    stride = (grid.cells_per_side + 1) ** np.arange(dim - 1, -1, -1)
    lo = ((cells @ stride)[:, None, None] + np.maximum(_COMBOS[dim], 0) @ stride
          + (np.where(dead, 0, up.astype(int) - down) * stride)[:, :, None])
    usable = np.concatenate([~blocked, np.ones((n, dim, 1), bool)], axis=2)[
        :, np.arange(dim), _COMBOS[dim]].all(axis=-1) & ~dead[:, :, None]
    return lo, lo + stride[:, None], np.where(usable, 1.0 / (
        grid.spacing * np.maximum(combos, 1))[:, :, None], 0.0), dead


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
    """``(sl, e(u) on the cells of sl)`` for each ``cell_slabs`` slice:
    the crack-free strain, with the cells that a face reaches overwritten
    by the sums of their stencil table."""
    grid = u.grid
    jg = jumps.grid
    if jg.dim != grid.dim or jg.cells_per_side != grid.cells_per_side \
            or jg.half_width != grid.half_width:
        raise ValueError("displacement and jump set live on different grids")
    cells, slot, state = face_slots(grid, jumps)
    crack = _table_strain(u, cells, state[slot])
    for sl in cell_slabs(grid.cell_shape):   # the cells are sorted by axis 0
        rows = slice(*np.searchsorted(cells[:, 0], (sl.start, sl.stop)))
        yield sl, _strain_slab(u, sl, cells[rows], crack[:, rows])


@np.errstate(over="ignore", invalid="ignore")
def _table_strain(u: DisplacementField, cells: np.ndarray,
                  states: np.ndarray) -> np.ndarray:
    """(npairs, n) strain of ``cells`` whose faces have ``states``: each
    d/dx_a adds to zero the weighted hi and lo node values of its terms
    in ``stencil_table`` order (a term of weight zero adds a signed zero,
    which leaves the sum as it was); a dead axis zeroes its pairs."""
    dim = u.grid.dim
    nodes = u.values.reshape(-1, dim)
    lo, hi, w, dead = stencil_table(u.grid, cells, states)
    acc = np.zeros((len(cells), dim, dim))   # acc[:, a, c] = du_c/dx_a
    for t in range(w.shape[2]):
        acc += w[:, :, t, None] * np.take(nodes, hi[:, :, t], axis=0)
        acc += -w[:, :, t, None] * np.take(nodes, lo[:, :, t], axis=0)
    grad = acc.transpose(2, 1, 0)   # grad[c, a] = du_c/dx_a
    return np.stack([np.where(dead[:, i] | dead[:, k], 0.0,
                              (grad[i, k] + grad[k, i]) * 0.5)
                     for i, k in upper_pairs(dim)])


@np.errstate(over="ignore", invalid="ignore")
def _strain_slab(u: DisplacementField, sl: slice, cells: np.ndarray,
                 crack: np.ndarray) -> np.ndarray:
    """Slab ``sl`` of e(u): the crack-free stencil, then the table strain
    ``crack`` of its ``cells``."""
    e = crack_free_strain(u.values[sl.start:sl.stop + 1], u.grid.spacing)
    e[(slice(None), cells[:, 0] - sl.start) + tuple(cells[:, 1:].T)] = crack
    if not np.all(np.isfinite(e)):
        raise ValueError("strain values must be finite")
    return e
