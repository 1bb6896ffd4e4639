"""Test-only trailing-axes strain and energy densities.

The strain used to be stored as ``cell_shape + (dim, dim)`` and reduced
with numpy sums over the two trailing axes.  These are those functions,
kept as the reference that the plane-major ``smalljump.strain`` and
``smalljump.energy`` must match bit for bit: the gradient, the
symmetrized strain, the Hooke quadratic form with the densities built on
it, and the Frobenius magnitude with the L^p norm.
"""

from __future__ import annotations

import numpy as np

from smalljump.strain import CrackContext, affected_cells, cell_strain_ops


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


def f_mu(xi, params):
    q = quadratic_form(params.hooke, np.asarray(xi))
    p, mu = params.p, params.mu_offset
    return ((q + mu) ** (p / 2.0) - mu ** (p / 2.0)) / p


def f_zero(xi, params):
    q = quadratic_form(params.hooke, np.asarray(xi))
    return q ** (params.p / 2.0) / params.p


def magnitude(e):
    """|e| per cell over the trailing (d, d) axes."""
    return np.sqrt(np.sum(e ** 2, axis=(-2, -1)))


def lp_norm_cells(e, grid, p):
    return float(np.sum(magnitude(e) ** p) * grid.spacing ** grid.dim) ** (1.0 / p)


def to_planes(x):
    """A trailing-axes (d, d) field as contiguous (d, d) planes."""
    return np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
