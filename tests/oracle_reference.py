"""Test-only reference for the oracle search: one full ElasticSystem.solve
per crack configuration, without condensation."""

from __future__ import annotations

from smalljump.energy import energy_breakdown
from smalljump.grid import JumpSet
from smalljump.oracle import CrackConfig, ElasticSystem


def config_jumps(system: ElasticSystem, candidates, bits: int,
                 base: JumpSet | None = None) -> JumpSet:
    """Base faces plus the active candidates; every face keeps its
    owner_high flag from the base set."""
    base = base or JumpSet(system.grid)
    active = CrackConfig(tuple(candidates), bits).active_faces()
    faces = (base.faces - set(candidates)) | set(active)
    return JumpSet(system.grid, faces, base.owner_high & faces)


def full_solve_energies(system: ElasticSystem, candidates,
                        base: JumpSet | None = None, quadrature: bool = False):
    """Memoized ``bits -> breakdown`` from one full solve per configuration
    (bulk, fidelity, surface, total).  The total is the solve's quadratic
    energy plus surface, or with ``quadrature=True`` the energy_breakdown
    of the solved field."""
    cache: dict[int, dict] = {}
    beta_area = system.params.beta * system.grid.face_area()

    def breakdown(bits: int) -> dict:
        if bits not in cache:
            js = config_jumps(system, candidates, bits, base)
            u, info = system.solve(js)
            if quadrature:
                cache[bits] = energy_breakdown(u, js, system.params,
                                               homogeneous=system.homogeneous)
            else:
                quad = info["quadratic_energy"]
                fid = float(system.fidelity_energy(u.values.reshape(-1)))
                cache[bits] = {"bulk": quad - fid, "fidelity": fid,
                               "surface": beta_area * len(js),
                               "total": quad + beta_area * len(js)}
        return cache[bits]

    return breakdown
