"""Test-only whole-grid references for the windowed verification.

Each function evaluates one quantity of ``verify_properties``,
``boundary_trace_check`` or ``mollified_strain_error`` the direct way:
the trailing-axes strain of ``strain_reference`` and its numpy sums,
full-grid mollification of all dim*dim strain components, full-grid
boolean box masks built as outer products of per-axis masks, and
whole-grid distances.  The windowed code must return the same bits.
``residual_prefix_oracle`` is the brute-force exceptional set that
``extract_exceptional_set`` is compared with.
"""

from __future__ import annotations

import math

import numpy as np

from smalljump.approximator import (
    TRACE_EPSILONS,
    TRACE_RADII_CELLS,
    _norm_region_boxes,
    _ratio,
)
from smalljump.energy import cellwise_pth_power
from smalljump.errors import CoveringError, FitError
from smalljump.grid import centered_box, corner_average, node_mask_from_cells
from smalljump.kornfit import RigidMotion, fit_rigid_motion
from smalljump.mollify import kernel_radius_cells, mollify
from tests.strain_reference import (
    f_zero,
    lp_norm_cells,
    standard_gradient,
    symmetric_gradient,
)


def box_cell_mask(grid, box):
    """Cells whose center lies strictly inside the box."""
    centers = grid.cell_centers_1d()
    per_axis = [(centers > box.lo[a]) & (centers < box.hi[a])
                for a in range(grid.dim)]
    mask = per_axis[0]
    for a in range(1, grid.dim):
        mask = np.multiply.outer(mask, per_axis[a])
    return mask


def p3_strain_lhs(u, jumps, result, p):
    """|| e(u_tilde) - mollified e(u) ||_p over the inner box."""
    grid = u.grid
    dim, h = grid.dim, grid.spacing
    e_u = symmetric_gradient(u, jumps)
    e_t = symmetric_gradient(result.u_tilde, result.new_jump)
    mol, margin = mollify(e_u, dim, result.delta, h)
    mask3 = box_cell_mask(grid, centered_box(1.0 - math.sqrt(result.delta), dim))
    valid = np.zeros(grid.cell_shape, dtype=bool)
    valid[tuple(slice(margin, n - margin) for n in grid.cell_shape)] = True
    if not np.all(valid[mask3]):
        raise CoveringError("mollification margin covers the inner box")
    diff = np.sqrt(np.sum((e_t - mol) ** 2, axis=(-2, -1)))
    return float(np.sum(diff[mask3] ** p) * h ** dim) ** (1.0 / p)


def region_checks(u, jumps, result, params):
    """The P3 energy-form and P6 per-region realized constants, and per
    region the four sums behind them: f_0 of e(u_tilde) on the region,
    f_0 of e(u) on its 3*delta dilation, |u_tilde|^p and |u|^p on the
    region."""
    grid = u.grid
    dim, hvol, p = grid.dim, grid.spacing ** grid.dim, params.p
    delta = result.delta
    s_ref = 1.0 / (dim * p)
    e_u = symmetric_gradient(u, jumps)
    bulk_u = f_zero(e_u, params)
    bulk_t = f_zero(symmetric_gradient(result.u_tilde, result.new_jump), params)
    u_pth = cellwise_pth_power(u.values, grid, p)
    t_pth = cellwise_pth_power(result.u_tilde.values, grid, p)
    total_bulk_u = float(np.sum(bulk_u) * hvol)
    strain_norm_q = lp_norm_cells(e_u, grid, p)
    u_norm_q = float(np.sum(u_pth) * hvol) ** (1.0 / p)
    norm_floor = 1e-12 * (1.0 + u_norm_q)
    energy_floor = 1e-12 * (1.0 + u_norm_q) ** p
    domain = centered_box(1.0, dim)
    detail3b, detail6, sums = {}, {}, {}
    for name, region in _norm_region_boxes(dim, math.sqrt(delta)):
        mask = box_cell_mask(grid, region)
        dilated = region.dilate(3.0 * delta, clip=domain)
        sums[name] = (float(np.sum(bulk_t[mask])),
                      float(np.sum(bulk_u[box_cell_mask(grid, dilated)])),
                      float(np.sum(t_pth[mask])), float(np.sum(u_pth[mask])))
        lhs, base = sums[name][0] * hvol, sums[name][1] * hvol
        detail3b[name] = _ratio(max(0.0, lhs - base),
                                delta ** s_ref * total_bulk_u, energy_floor)
        lhs = (sums[name][2] * hvol) ** (1.0 / p)
        base = (sums[name][3] * hvol) ** (1.0 / p)
        detail6[name] = _ratio(
            max(0.0, lhs - base),
            delta ** (1.0 / (2.0 * p)) * (u_norm_q + strain_norm_q), norm_floor)
    return detail3b, detail6, sums


def second_difference_proxy(result):
    """The smoothness proxy from whole-grid second differences masked to
    the nodes of the inner box's cells."""
    u_tilde = result.u_tilde
    grid = u_tilde.grid
    delta = result.delta
    mask = box_cell_mask(grid, centered_box(1.0 - math.sqrt(delta), grid.dim))
    nodes = node_mask_from_cells(mask)
    worst = 0.0
    vals = u_tilde.values
    for a in range(grid.dim):
        second = np.abs(np.diff(vals, n=2, axis=a)) / grid.spacing ** 2
        sl = [slice(None)] * grid.dim
        sl[a] = slice(1, -1)
        inner = nodes[tuple(sl)]
        if inner.any():
            worst = max(worst, float(np.max(second[inner])))
    scale = float(np.max(np.abs(vals))) + 1e-300
    return {"max_second_difference": worst,
            "scaled_by_delta_sq": worst * delta ** 2 / scale,
            "finite": bool(math.isfinite(worst))}


def boundary_trace_rows(u, result):
    """Rows of the boundary trace check from whole-grid distances and
    masks."""
    grid = result.u_tilde.grid
    h, r = grid.spacing, result.radius
    centers = grid.cell_center_grid()
    inside_r = grid.cell_cheb_norm() < r
    diff_cells = corner_average(
        np.linalg.norm(result.u_tilde.values - u.values, axis=-1), grid.dim)
    rows = []
    for axis in range(grid.dim):
        for sign in (-1.0, 1.0):
            pt = np.zeros(grid.dim)
            pt[axis] = sign * r
            d2 = np.sum((centers - pt) ** 2, axis=-1)
            for eps in TRACE_EPSILONS:
                fracs = []
                for rc in TRACE_RADII_CELLS:
                    inside = (d2 < (rc * h) ** 2) & inside_r
                    n_in = int(np.count_nonzero(inside))
                    if n_in == 0:
                        fracs.append(0.0)
                        continue
                    bad = int(np.count_nonzero(inside & (diff_cells > eps)))
                    fracs.append(bad / n_in)
                monotone = all(fracs[i + 1] <= fracs[i] + 1e-12
                               for i in range(len(fracs) - 1))
                rows.append({"point": [float(v) for v in pt], "epsilon": eps,
                             "radii_cells": list(TRACE_RADII_CELLS),
                             "fractions": fracs, "monotone": monotone})
    return rows


def mollified_strain_error_lhs(u, jumps, cube, fit, p):
    """The error_p of ``mollified_strain_error`` from the whole-grid
    mollified strain, sliced to the cube's q1 window, and the reference
    smoothing."""
    grid = u.grid
    h, dim = grid.spacing, grid.dim
    u_i, win = cube_smoothed_field(u, cube, fit)
    sl1 = cube.enlarged_cell_ranges(grid, "q1")
    local = tuple(slice(s.start - w.start, s.stop - w.start)
                  for s, w in zip(sl1, win))
    grad = standard_gradient(u_i, h)[local]
    e_ui = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    mol, _ = mollify(symmetric_gradient(u, jumps), dim, cube.side * h, h)
    diff = np.sqrt(np.sum((e_ui - mol[sl1]) ** 2, axis=(-2, -1)))
    return float(np.sum(diff ** p) * h ** dim)


def cube_smoothed_field(u, cube, fit):
    """``kornfit.cube_smoothed_field`` with the exceptional nodes taken
    from a whole-grid cell mask."""
    grid = u.grid
    h = grid.spacing
    side = cube.side * h
    radius = int(math.ceil(kernel_radius_cells(side, h))) - 1
    cells1 = cube.enlarged_cell_ranges(grid, "q1")
    target = tuple(slice(s.start, s.stop + 1) for s in cells1)
    win = tuple(slice(s.start - radius, s.stop + radius) for s in target)
    for s, n in zip(win, grid.node_shape):
        if s.start < 0 or s.stop > n:
            raise FitError("smoothing window exits the grid")
    vals = u.values[win].copy()
    if fit is not None and fit.omega.n_cells > 0:
        cell_mask = np.zeros(grid.cell_shape, dtype=bool)
        cell_mask[tuple(fit.omega.global_indices().T)] = True
        node_mask = node_mask_from_cells(cell_mask)[win]
        if np.any(node_mask):
            axes = [grid.node_coords_1d()[s] for s in win]
            coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            vals[node_mask] = fit.motion(coords[node_mask])
    out, margin = mollify(vals, grid.dim, side, h)
    inner = tuple(slice(margin, s.stop - s.start - margin) for s in win)
    final = tuple(slice(w.start + margin, w.stop - margin) for w in win)
    return out[inner], final


def residual_prefix_oracle(points: np.ndarray, values: np.ndarray,
                           budget_cells: int, p: float = 2.0
                           ) -> tuple[RigidMotion, np.ndarray, int]:
    """Brute-force reference: rank cells by the full-fit residual, refit on
    every prefix complement, keep the smallest prefix whose residual sum
    reaches twice the best achievable plateau."""
    motion = fit_rigid_motion(points, values, p=p)
    res = np.linalg.norm(values - motion(points), axis=1)
    order = np.lexsort((np.arange(res.size), -res))
    budget_cells = min(budget_cells, points.shape[0] - points.shape[1] - 3)
    budget_cells = max(budget_cells, 0)

    rss = []
    motions = []
    for s in range(budget_cells + 1):
        keep = np.ones(points.shape[0], dtype=bool)
        keep[order[:s]] = False
        m_s = fit_rigid_motion(points[keep], values[keep], p=p)
        r = np.linalg.norm(values[keep] - m_s(points[keep]), axis=1)
        rss.append(float(np.sum(r ** p)))
        motions.append(m_s)
    plateau = rss[-1]
    noise = points.shape[0] * (1e-9 * (1.0 + float(np.max(np.abs(values))))) ** p
    best = budget_cells
    for s in range(budget_cells + 1):
        if rss[s] <= 2.0 * plateau + noise:
            best = s
            break
    mask = np.zeros(points.shape[0], dtype=bool)
    mask[order[:best]] = True
    return motions[best], mask, best
