"""Test-only per-cube references for the covering's lattice arithmetic.

Each function computes one quantity of ``covering`` or ``approximate``
the direct way, one cube at a time: the all-pairs overlap scan behind
``neighbor_pairs``, the per-cube plateau bumps of ``partition_of_unity``
and the per-cube smoothing and blending loop of ``approximate``.  The
table-driven code must return the same bits.
"""

from __future__ import annotations

import numpy as np

from smalljump.covering import plateau_profile

from tests import approx_reference


def neighbor_pairs(covering, which):
    """Pairs (ia < ib) of cubes whose enlargements intersect with
    positive volume, from all-pairs broadcasts in chunks of 512 cubes."""
    cubes = covering.cubes
    n = len(cubes)
    lo = np.empty((n, covering.grid.dim), dtype=np.int64)
    hi = np.empty((n, covering.grid.dim), dtype=np.int64)
    for i, c in enumerate(cubes):
        lo[i], hi[i] = c.bounds12(which)
    pairs = []
    chunk = 512
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        inter_lo = np.maximum(lo[s:e, None, :], lo[None, :, :])
        inter_hi = np.minimum(hi[s:e, None, :], hi[None, :, :])
        ok = np.all(inter_hi > inter_lo, axis=-1)
        for a, b in np.argwhere(ok):
            ia = s + int(a)
            ib = int(b)
            if ia < ib:
                pairs.append((ia, ib))
    return pairs


def node_window(grid, cube, which):
    """Nodes strictly inside the enlargement, absolute indices."""
    lo, hi = cube.bounds12(which)
    off = grid.cells_per_side // 2
    out = []
    for a in range(grid.dim):
        lo_rel = int(lo[a]) // 12 + 1
        hi_rel = -((-int(hi[a])) // 12) - 1
        out.append(slice(max(lo_rel + off, 0),
                         min(hi_rel + off + 1, grid.cells_per_side + 1)))
    return tuple(out)


def partition_of_unity(covering, rim_phi):
    """Per-cube bumps summed window by window in cube order: the entries
    as (cube index, window, phi_tilde), densum, overlap count and the
    scaled gradients.  ``rim_phi`` is the rim bump, added last."""
    grid = covering.grid
    h = grid.spacing
    coords = grid.node_coords_1d()
    densum = np.zeros(grid.node_shape)
    counts = np.zeros(grid.node_shape, dtype=np.int32)
    entries = []
    for i, cube in enumerate(covering.cubes):
        if not covering.good[i]:
            continue
        window = node_window(grid, cube, "q1")
        center = cube.center_h() * h
        side = cube.side * h
        axes_1d = [plateau_profile((coords[window[a]] - center[a]) / side)
                   for a in range(grid.dim)]
        phi = axes_1d[0]
        for a in range(1, grid.dim):
            phi = np.multiply.outer(phi, axes_1d[a])
        entries.append((i, window, phi))
        densum[window] += phi
        counts[window] += (phi > 0)
    densum += rim_phi
    counts += (rim_phi > 0)

    grad_scaled = {}
    for i, window, phi_tilde in entries:
        phi = phi_tilde / densum[window]
        gmax = 0.0
        for a in range(grid.dim):
            if phi.shape[a] < 2:
                continue
            d = np.abs(np.diff(phi, axis=a)) / h
            gmax = max(gmax, float(d.max()))
        grad_scaled[i] = gmax * (covering.cubes[i].side * h)
    return entries, densum, counts, grad_scaled


def blend_numerator(u, covering, entries, rim_phi, fits):
    """sum_i phi~_i u_i + rim_phi u, one cube's smoothed field at a time."""
    grid = u.grid
    num = np.zeros(grid.node_shape + (grid.dim,))
    for i, window, phi_tilde in entries:
        u_i, win = approx_reference.cube_smoothed_field(
            u, covering.cubes[i], fits.get(i))
        local = tuple(slice(s.start - w.start, s.stop - w.start)
                      for s, w in zip(window, win))
        num[window] += phi_tilde[..., None] * u_i[local]
    num += rim_phi[..., None] * u.values
    return num


def partition_sum_error(part):
    """max |sum_i phi_i - 1| over the blended nodes of a ``Partition``,
    phi accumulated term by term."""
    idx = part.node_index()
    den = part.densum.ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        total = np.bincount(idx, part.phi_tilde / den[idx],
                            minlength=den.size).reshape(part.densum.shape)
        total += part.rim_phi / part.densum
    mask = part.blend_node_mask()
    return float(np.max(np.abs(total[mask] - 1.0)))


def overlap_count(part):
    """The bumps of a ``Partition``, the rim's included, that are positive
    at each node."""
    counts = np.bincount(part.node_index()[part.phi_tilde > 0],
                         minlength=part.densum.size).reshape(part.densum.shape)
    return counts + (part.rim_phi > 0)


def max_overlap(part):
    """The most bumps of a ``Partition`` that meet at one blended node."""
    return int(np.max(overlap_count(part)[part.blend_node_mask()]))
