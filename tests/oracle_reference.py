"""Test-only reference for the oracle search: one dense LU solve of the
full system per crack configuration, without condensation."""

from __future__ import annotations

import numpy as np

from smalljump.energy import energy_breakdown
from smalljump.grid import DisplacementField, GridSpec, JumpSet
from smalljump.oracle import CrackConfig, ElasticSystem


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
