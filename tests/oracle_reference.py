"""Test-only references for the oracle search: one dense LU solve of the
full system per crack configuration, without condensation; the
elimination tree stepped by gathered fancy-index scatters, whose bits
the broadcast step must keep; the greedy elimination order counted
afresh for every choice; a single-flip descent over the
configurations; and the density check ball by ball."""

from __future__ import annotations

import math

import numpy as np

from smalljump.energy import cellwise_pth_power, energy_breakdown, f_zero
from smalljump.grid import BallRegion, DisplacementField, GridSpec, JumpSet
from smalljump.oracle import CrackConfig, ElasticSystem
from smalljump.strain import symmetric_gradient


def boundary_nodes(grid: GridSpec) -> np.ndarray:
    """Node mask of the grid boundary: Dirichlet data on all of it."""
    mask = np.ones(grid.node_shape, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = False
    return mask


def config_jumps(system: ElasticSystem, candidates, bits: int,
                 base: JumpSet | None = None) -> JumpSet:
    """Base faces plus the active candidates; every face keeps its
    owner_high flag from the base set."""
    base = base or JumpSet(system.grid)
    active = CrackConfig(tuple(candidates), bits).active_faces()
    faces = (base.faces - set(candidates)) | set(active)
    return JumpSet(system.grid, faces, base.owner_high & faces)


def dense_lu_solve(system: ElasticSystem, jumps: JumpSet):
    """Node values and quadratic energy of the crack set's minimizer: LU on
    the dense free-DOF block of H, the energy 0.5 x'Hx - f'x + c taken on
    the full H."""
    H, f, const = system.system_for(jumps)
    H = H.toarray()
    pin = np.repeat(system.pinned.reshape(-1), system.dim)
    free, pinned = np.flatnonzero(~pin), np.flatnonzero(pin)
    x = system.pin_values.reshape(-1).copy()
    x[free] = np.linalg.solve(H[np.ix_(free, free)],
                              f[free] - H[np.ix_(free, pinned)] @ x[pinned])
    return x, float(0.5 * x @ (H @ x) - f @ x + const)


def full_solve_energies(system: ElasticSystem, candidates,
                        base: JumpSet | None = None, quadrature: bool = False):
    """Memoized ``bits -> breakdown`` from one dense_lu_solve per configuration
    (bulk, fidelity, surface, total).  The total is the solve's quadratic
    energy plus surface, or with ``quadrature=True`` the energy_breakdown
    of the solved field."""
    cache: dict[int, dict] = {}
    beta_area = system.params.beta * system.grid.face_area()

    def breakdown(bits: int) -> dict:
        if bits not in cache:
            js = config_jumps(system, candidates, bits, base)
            x, quad = dense_lu_solve(system, js)
            if quadrature:
                u = DisplacementField(system.grid, x.reshape(
                    system.grid.node_shape + (system.dim,)))
                cache[bits] = energy_breakdown(u, js, system.params)
            else:
                fid = float(system.fidelity_energy(x))
                cache[bits] = {"bulk": quad - fid, "fidelity": fid,
                               "surface": beta_area * len(js),
                               "total": quad + beta_area * len(js)}
        return cache[bits]

    return breakdown


def gather_blocks(energies):
    """The search's blocks as the gather-based tree step takes them: each
    block whole, (js, pos, mats, free_pos, coupling), and each level's
    free parts, (js, pos, mats, coupling), with js ascending, mats and
    coupling by subset index and pos relative to the level's front.  They
    are rebuilt from ``_cell_blocks``, in its memory layout."""
    sys_, D = energies.system, energies._D
    pin = np.repeat(sys_.pinned.reshape(-1), sys_.dim)
    pos = np.zeros(sys_.n_dof, dtype=int)
    pos[D] = np.arange(D.size)
    rank = np.argsort(energies._order)
    whole, levels = [], [[] for _ in energies.candidates]
    for js, d, mats, _ in energies._cell_blocks():
        free = ~pin[d]
        coupling = mats[:, free][:, :, ~free] @ energies._xc[d[~free]]
        level = int(rank[js].max())
        whole.append((js, pos[d], mats, pos[d[free]], coupling))
        levels[level].append((js, pos[d[free]] - energies._ends[level],
                              mats[:, free][:, :, free], coupling))
    return whole, levels


def _subsets(bits: np.ndarray, js: np.ndarray) -> np.ndarray:
    return (bits[:, None] >> js & 1) @ (1 << np.arange(js.size))


def gather_leaves(energies, only: int | None = None, level: int = 0,
                  node=None, path: tuple = (), levels=None):
    """(bits, x_Df) batches of the elimination tree with each level's
    blocks added by gathered fancy-index scatters, one matrix per node,
    and the ancestors' solves repeated per leaf: the step the broadcast
    one replaced, batched at the search's ``_batch_level``."""
    if levels is None:
        levels = gather_blocks(energies)[1]
    S, r, bits = node or (energies._S0[None], energies._r0[None],
                          np.zeros(1, dtype=np.int64))
    ends, order = energies._ends, energies._order
    if level == len(energies.candidates):
        x = np.empty((bits.size, energies._Df.size))
        for lv in reversed(range(level)):
            anc = np.repeat(path[lv], bits.size // len(path[lv]), axis=0)
            lo, hi = ends[lv], ends[lv + 1]
            x[:, lo:hi] = (anc[..., -1]
                           - (anc[..., :-1] @ x[:, hi:, None])[..., 0])
        yield bits, x
        return
    bits = (bits[:, None] | np.array([0, 1 << order[level]])).reshape(-1)
    S, r = np.repeat(S, 2, axis=0), np.repeat(r, 2, axis=0)
    for js, pos, mats, coupling in levels[level]:
        t = _subsets(bits, js)
        S[:, pos[:, None], pos] += mats[t]
        r[:, pos] -= coupling[t]
    e = ends[level + 1] - ends[level]
    sol = np.linalg.solve(S[:, :e, :e], np.concatenate(
        [S[:, :e, e:], r[:, :e, None]], axis=2))
    update = S[:, e:, :e] @ sol
    S, r = S[:, e:, e:] - update[..., :-1], r[:, e:] - update[..., -1]
    if only is None and level >= energies._batch_level:
        yield from gather_leaves(energies, None, level + 1, (S, r, bits),
                                 path + (sol,), levels)
        return
    for b in (0, 1):
        if only is None or only >> order[level] & 1 == b:
            yield from gather_leaves(energies, only, level + 1, (
                S[b:b + 1], r[b:b + 1], bits[b:b + 1]),
                path + (sol[b:b + 1],), levels)


def gather_corrections(energies, bits: np.ndarray, x_D: np.ndarray):
    """``_corrections`` with each block's matrices gathered per leaf."""
    dx = np.zeros(x_D.shape)
    coupling = np.zeros((bits.size, energies._Df.size))
    for js, pos, mats, free_pos, cpl in gather_blocks(energies)[0]:
        t = _subsets(bits, js)
        dx[:, pos] += (mats[t] @ x_D[:, pos, None])[..., 0]
        coupling[:, free_pos] += cpl[t]
    return dx, np.sqrt(energies._rhs_inner2 + np.sum(
        (energies._rhs_Df - coupling) ** 2, axis=1))


def elimination_order(blocks, Df: np.ndarray, k: int):
    """``oracle._elimination_order`` as first written: each choice counts,
    for every candidate left, the DOFs that no block with another
    undecided candidate touches, over the whole block x candidate
    matrix."""
    need = np.zeros((len(blocks), k), dtype=bool)
    touch = np.zeros((len(blocks), Df.size), dtype=bool)
    for c, (js, d, *_) in enumerate(blocks):
        need[c, js], touch[c] = True, np.isin(Df, d)
    order: list[int] = []
    for _ in range(k):
        order.append(max((j for j in range(k) if j not in order), key=lambda j: (
            np.count_nonzero(~np.any(touch[np.any(np.delete(
                need, order + [j], axis=1), axis=1)], axis=0)), -j)))
    level = 1 + np.max(np.where(need, np.argsort(order), -1), axis=1, initial=-1)
    return order, level, np.max(np.where(touch, level[:, None], 0), axis=0,
                                initial=0)


def greedy_bits(k: int, energy_of) -> int:
    """Best-improvement single-flip descent from both extremes: a
    reference for the exhaustive search, not part of it."""
    best_bits, best_e = None, math.inf
    for start in (0, 2 ** k - 1):
        bits = start
        e = energy_of(bits)
        while True:
            cand = [(energy_of(bits ^ (1 << j)), bits ^ (1 << j))
                    for j in range(k)]
            cand.sort(key=lambda t: (t[0], bin(t[1]).count("1"), t[1]))
            if cand and cand[0][0] < e - 1e-15:
                e, bits = cand[0]
            else:
                break
        if e < best_e:
            best_bits, best_e = bits, e
    return best_bits


def density_rows(u: DisplacementField, jumps: JumpSet, params, radii) -> list:
    """The rows of ``density_lower_bound_check``, one ball at a time: each
    centre's BallRegion, tested on the cells of its window and on every
    face centre, its densities summed by np.sum in the window's C order."""
    grid = u.grid
    h, hvol = grid.spacing, grid.spacing ** grid.dim
    bulk = f_zero(symmetric_gradient(u, jumps), params)
    fidelity = cellwise_pth_power(u.values, grid, params.p) \
        if params.kappa > 0 else None
    c1d = grid.cell_centers_1d()
    face_centers = grid.face_centers(jumps.keys)
    rows = []
    for rho in radii:
        best0, best1 = math.inf, math.inf
        used = 0
        for x in face_centers:
            if np.max(np.abs(x)) + rho > grid.half_width - h:
                continue
            used += 1
            ball = BallRegion(tuple(float(v) for v in x), rho)
            # one cell of padding keeps every cell of the ball in the window
            win = tuple(slice(int(np.searchsorted(c1d, v - rho - h)),
                              int(np.searchsorted(c1d, v + rho + h)))
                        for v in x)
            mask = ball.contains_points(grid.cell_center_window(win))
            g0_bulk = float(np.sum(bulk[win][mask]) * hvol)
            g0_fid = 0.0 if fidelity is None else \
                params.kappa * float(np.sum(fidelity[win][mask]) * hvol)
            n_faces = int(np.count_nonzero(ball.contains_points(face_centers)))
            g0 = g0_bulk + g0_fid + params.beta * n_faces * grid.face_area()
            area = n_faces * grid.face_area()
            scale = rho ** (grid.dim - 1)
            best0 = min(best0, g0 / scale)
            best1 = min(best1, area / scale)
        rows.append({"rho": rho, "centers": used,
                     "theta0": None if used == 0 else best0,
                     "theta1": None if used == 0 else best1})
    return rows
