"""Test-only strain stencils, trailing-axes strain and energy densities.

The crack stencils used to be chosen from whole-grid face flag arrays
(``CrackContext``) over the cells of ``affected_cells``, as lists of
(node, coefficient) pairs per cell.  Those are kept here as the
independent reference for the owner rule of ``smalljump.strain``, whose
stencil tables ``table_ops`` writes out in the same list form.
``staircase`` is a crack set that reaches many cells: a 45 degree
staircase in (x0, x1).  ``tuple_face_slots`` is ``face_slots`` as it
was written over frozensets of face tuples, before jump sets became key
arrays.

The strain used to be stored as ``cell_shape + (dim, dim)`` and reduced
with numpy sums over the two trailing axes.  These are those functions,
kept as the reference that the packed ``smalljump.strain`` and
``smalljump.energy`` must match bit for bit: the gradient, the
symmetrized strain, the Hooke quadratic form with the densities built on
it, and the Frobenius magnitude with the L^p norm.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from smalljump.grid import GridSpec, JumpSet
from smalljump.strain import READ_PLANES, face_slots, stencil_table


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


def table_ops(grid: GridSpec, jumps: JumpSet, cells) -> list:
    """``cell_strain_ops``' (ops, dead_axes) of each of ``cells``, written
    out from the stencil table of ``smalljump.strain``: a live axis lists
    (hi, weight), (lo, -weight) for each term of nonzero weight; the
    faces of a cell that no face reaches are all uncracked."""
    dim = grid.dim
    cells = np.array(cells, dtype=np.int64).reshape(-1, dim)
    reached, slot, state = face_slots(grid, jumps)
    states = np.zeros((len(cells), dim, 4), dtype=np.int8)
    for i, cell in enumerate(cells):
        hit = np.flatnonzero(np.all(reached == cell, axis=1))
        if hit.size:
            states[i] = state[slot[hit[0]]]
    lo, hi, w, is_dead = stencil_table(grid, cells, states)

    def node(flat):
        return tuple(int(v) for v in np.unravel_index(flat, grid.node_shape))

    out = []
    for i in range(len(cells)):
        ops, dead = [], []
        for a in range(dim):
            if is_dead[i, a]:
                ops.append(None)
                dead.append(a)
                continue
            ops.append([pair for t in np.flatnonzero(w[i, a])
                        for pair in ((node(hi[i, a, t]), float(w[i, a, t])),
                                     (node(lo[i, a, t]), float(-w[i, a, t])))])
        out.append((ops, dead))
    return out


def staircase(grid: GridSpec) -> JumpSet:
    """The faces between the cells with c1 >= c0 and the others, in every
    plane of x2: an axis-0 face on node plane k at c1 = k - 1 and an
    axis-1 face on node plane k at c0 = k, for k = 1..M-1.  A face whose
    k plus x2 cell index is odd is owned by its high side."""
    m = grid.cells_per_side
    rest = [()] if grid.dim == 2 else [(c,) for c in range(m)]
    faces, high = [], []
    for k in range(1, m):
        for r in rest:
            faces += [(0, (k, k - 1) + r), (1, (k, k) + r)]
            if (k + sum(r)) % 2:
                high += faces[-2:]
    return JumpSet(grid, faces, high)


def tuple_face_slots(grid: GridSpec, faces: frozenset, owner_high: frozenset,
                     first=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, slot, state) of ``face_slots`` from face tuples: the faces of
    ``first``, then the other faces, the high-owned ones first, each group
    in set order.  Only ``cells`` and ``state[slot]`` are independent of
    that order."""
    dim, m = grid.dim, grid.cells_per_side
    rest = faces.difference(first)
    high, low = list(rest & owner_high), list(rest - owner_high)
    state = np.array([1 + (f in owner_high) for f in first]
                     + [2] * len(high) + [1] * len(low) + [0], dtype=np.int8)
    f = np.fromiter(chain.from_iterable((a, *idx) for a, idx in (
        *first, *high, *low)), dtype=np.int64).reshape(-1, 1 + dim)
    stride = m ** np.arange(dim - 1, -1, -1)
    along = f[np.arange(len(f)), 1 + f[:, 0]][:, None] - READ_PLANES
    keys = (f[:, 1:] @ stride)[:, None] - READ_PLANES * stride[f[:, 0], None]
    j, r = np.nonzero((along >= 0) & (along < m))
    keys, cell = np.unique(keys[j, r], return_inverse=True)
    slot = np.full((len(keys), dim, len(READ_PLANES)), -1)
    slot[cell, f[j, 0], r] = j
    return (np.stack(np.unravel_index(keys, grid.cell_shape), axis=1), slot,
            state)


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


def standard_gradient(values, h):
    """Crack-free gradient on the cells; entry [..., c, a] is du_c/dx_a."""
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
def symmetric_gradient(u, jumps):
    """e(u) with shape cell_shape + (dim, dim)."""
    grid = u.grid
    dim = grid.dim
    grad = standard_gradient(u.values, grid.spacing)
    dead_cells = []
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
    return e


def quadratic_form(hooke, xi):
    """C xi . xi for an array of matrices (..., d, d)."""
    sym = 0.5 * (xi + np.swapaxes(xi, -1, -2))
    tr = np.trace(sym, axis1=-2, axis2=-1)
    frob2 = np.sum(sym * sym, axis=(-2, -1))
    return hooke.lame_lambda * tr * tr + 2.0 * hooke.lame_mu * frob2


def f_zero(xi, params):
    q = quadratic_form(params.hooke, np.asarray(xi))
    return q ** (params.p / 2.0) / params.p


def magnitude(e):
    """|e| per cell over the trailing (d, d) axes."""
    return np.sqrt(np.sum(e ** 2, axis=(-2, -1)))


def lp_norm_cells(e, grid, p):
    return float(np.sum(magnitude(e) ** p) * grid.spacing ** grid.dim) ** (1.0 / p)


def packed(x):
    """The symmetric part 0.5 * (x + x^T) of a trailing-axes (d, d) field as
    its upper planes (i, k), i <= k, in row-major order: the layout of
    ``smalljump.strain``."""
    sym = 0.5 * (x + np.swapaxes(x, -1, -2))
    d = x.shape[-1]
    return np.stack([sym[..., i, k] for i in range(d) for k in range(i, d)])


def corner_average(node_vals, dim):
    """Mean over the 2^dim corners of each cell, one axis at a time as
    0.5 * (low + high)."""
    v = node_vals
    for a in range(dim):
        keep = (slice(None),) * a
        v = 0.5 * (v[keep + (slice(0, -1),)] + v[keep + (slice(1, None),)])
    return v


def cellwise_pth_power(u_vals, dim, p, subtrahend=None):
    """Corner mean of |u|^p, or of |u - subtrahend|^p, with the vector
    magnitude of np.linalg.norm over the trailing component axis."""
    x = u_vals if subtrahend is None else u_vals - subtrahend
    return corner_average(np.linalg.norm(x, axis=-1) ** p, dim)


def coercivity_constant(hooke, dim):
    """c0 with C xi . xi >= c0 |xi + xi^T|^2 for an isotropic Hooke law."""
    return min(hooke.lame_mu / 2.0,
               (dim * hooke.lame_lambda + 2 * hooke.lame_mu) / 4.0)
