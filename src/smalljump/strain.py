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
zero strain in every mode.
"""

from __future__ import annotations

import numpy as np

from .grid import DisplacementField, GridSpec, JumpSet


class CrackContext:
    """Per-cell face flags of a jump set, for stencil selection."""

    def __init__(self, grid: GridSpec, jumps: JumpSet):
        self.grid = grid
        self.faces = jumps.faces
        self.owner_high = jumps.owner_high
        dim, m = grid.dim, grid.cells_per_side
        shape = (dim,) + grid.cell_shape
        self.cracked_low = np.zeros(shape, dtype=bool)
        self.cracked_high = np.zeros(shape, dtype=bool)
        self.blocked_low = np.zeros(shape, dtype=bool)
        self.blocked_high = np.zeros(shape, dtype=bool)
        for face in jumps.faces:
            axis, idx = face
            k = idx[axis]
            owner_is_high = face in jumps.owner_high
            hi_cell = idx
            lo_cell = idx[:axis] + (k - 1,) + idx[axis + 1:]
            if k <= m - 1:
                self.cracked_low[(axis,) + hi_cell] = True
                if not owner_is_high:
                    self.blocked_low[(axis,) + hi_cell] = True
            self.cracked_high[(axis,) + lo_cell] = True
            if owner_is_high:
                self.blocked_high[(axis,) + lo_cell] = True

    def face_owner_high(self, axis: int, plane: int,
                        trans_cell: tuple[int, ...]) -> bool | None:
        """None when uncracked, else whether the high side owns it."""
        face = (axis, trans_cell[:axis] + (plane,) + trans_cell[axis:])
        if face not in self.faces:
            return None
        return face in self.owner_high


def cell_strain_ops(grid: GridSpec, ctx: CrackContext, cell: tuple[int, ...]
                    ) -> tuple[list[list[tuple[tuple[int, ...], float]] | None], list[int]]:
    """Difference stencil of each partial derivative at one cell.

    Returns ``(ops, dead_axes)``: ``ops[a]`` lists ``(node, coefficient)``
    pairs realizing d/dx_a for every component, or None when the axis has
    no usable same-side data.  Shared by the strain evaluation and the
    elastic solver so both discretize identically.
    """
    dim, m = grid.dim, grid.cells_per_side
    h = grid.spacing

    tau_options: list[tuple[int, ...]] = []
    for b in range(dim):
        opts = []
        if not ctx.blocked_low[(b,) + cell]:
            opts.append(0)
        if not ctx.blocked_high[(b,) + cell]:
            opts.append(1)
        tau_options.append(tuple(opts))

    ops: list[list[tuple[tuple[int, ...], float]] | None] = []
    dead: list[int] = []
    trans_cell_of = {a: tuple(cell[b] for b in range(dim) if b != a)
                     for a in range(dim)}

    for a in range(dim):
        bl = ctx.blocked_low[(a,) + cell]
        bh = ctx.blocked_high[(a,) + cell]
        pair = None
        if not bl and not bh:
            pair = (cell[a], cell[a] + 1)
        elif bl and not bh:
            # one-sided on the high (own) side: legal when it crosses no
            # crack and the far node layer is owned by this side
            far_owner = ctx.face_owner_high(a, cell[a] + 2, trans_cell_of[a]) \
                if cell[a] + 2 <= m - 1 else None
            if (cell[a] + 2 <= m and not ctx.cracked_high[(a,) + cell]
                    and far_owner is not True):
                pair = (cell[a] + 1, cell[a] + 2)
        elif bh and not bl:
            far_owner = ctx.face_owner_high(a, cell[a] - 1, trans_cell_of[a]) \
                if cell[a] - 1 >= 1 else None
            if (cell[a] - 1 >= 0 and not ctx.cracked_low[(a,) + cell]
                    and far_owner is not False):
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


def affected_cells(grid: GridSpec, jumps: JumpSet) -> set[tuple[int, ...]]:
    """Cells whose stencil may differ from the standard one.

    A face influences the two cells it bounds directly, and through the
    one-sided fallbacks the next cell out on each side.
    """
    m = grid.cells_per_side
    out: set[tuple[int, ...]] = set()
    for axis, idx in jumps.faces:
        k = idx[axis]
        for ca in range(k - 2, k + 2):
            if 0 <= ca <= m - 1:
                cell = idx[:axis] + (ca,) + idx[axis + 1:]
                out.add(cell)
    return out


def _standard_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Crack-free gradient of node values shaped nodes + (dim,), on the
    cells between them; entry [..., c, a] is du_c/dx_a."""
    dim = values.shape[-1]
    out = np.empty(tuple(s - 1 for s in values.shape[:-1]) + (dim, dim))
    for a in range(dim):
        d = np.diff(values, axis=a) / h
        for o in range(dim):
            if o == a:
                continue
            sl_lo = [slice(None)] * d.ndim
            sl_hi = [slice(None)] * d.ndim
            sl_lo[o] = slice(0, -1)
            sl_hi[o] = slice(1, None)
            d = 0.5 * (d[tuple(sl_lo)] + d[tuple(sl_hi)])
        out[..., :, a] = d
    return out


@np.errstate(over="ignore", invalid="ignore")
def symmetric_gradient(u: DisplacementField, jumps: JumpSet) -> np.ndarray:
    """Per-cell symmetrized gradient, shape cell_shape + (dim, dim);
    cracked faces contribute no strain.

    Exactly symmetric by construction, and read-only.  Finite node values
    can still overflow in the differences; that raises one ValueError
    instead of floating-point warnings.
    """
    grid = u.grid
    jg = jumps.grid
    if jg.dim != grid.dim or jg.cells_per_side != grid.cells_per_side \
            or jg.half_width != grid.half_width:
        raise ValueError("displacement and jump set live on different grids")
    dim = grid.dim
    grad = _standard_gradient(u.values, grid.spacing)

    dead_cells: list[tuple[tuple[int, ...], list[int]]] = []
    if len(jumps) > 0:
        ctx = CrackContext(grid, jumps)
        for cell in sorted(affected_cells(grid, jumps)):
            ops, dead = cell_strain_ops(grid, ctx, cell)
            d_local = np.zeros((dim, dim))
            for a in range(dim):
                if ops[a] is None:
                    continue
                acc = np.zeros(dim)
                for node, coef in ops[a]:
                    acc += coef * u.values[node]
                d_local[:, a] = acc
            grad[cell] = d_local
            if dead:
                dead_cells.append((cell, dead))

    e = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    for cell, dead in dead_cells:
        for a in dead:
            e[cell][a, :] = 0.0
            e[cell][:, a] = 0.0
    if not np.all(np.isfinite(e)):
        raise ValueError("strain values must be finite")
    e.flags.writeable = False   # shared by every layer of a run
    return e
