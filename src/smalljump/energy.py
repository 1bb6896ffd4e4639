"""Hooke tensor, energy densities, and the Griffith-type functionals.

Bulk terms use the midpoint rule (one strain matrix per cell); zeroth
order terms (|u-g|^p, |u|^p) use the corner-mean rule per cell, which is
positive definite on node values and keeps the elastic solve uniquely
solvable.  The crack term is exact: face count times h^(dim-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DisplacementField,
    GridSpec,
    JumpSet,
    Region,
    StrainField,
    corner_average,
    faces_in_region,
    region_cell_mask,
)
from .strain import symmetric_gradient


@dataclass(frozen=True)
class HookeTensor:
    """Isotropic Hooke law C xi = lam*tr(sym xi)*Id + 2*mu*sym(xi)."""

    lame_lambda: float
    lame_mu: float

    def __post_init__(self):
        if self.lame_mu <= 0:
            raise ValueError("lame_mu must be positive")

    def validate(self, dim: int) -> None:
        if dim * self.lame_lambda + 2 * self.lame_mu <= 0:
            raise ValueError("dim*lambda + 2*mu must be positive")

    def coercivity_constant(self, dim: int) -> float:
        """c0 with C xi . xi >= c0 |xi + xi^T|^2."""
        return min(self.lame_mu / 2.0,
                   (dim * self.lame_lambda + 2 * self.lame_mu) / 4.0)

    def quadratic_form(self, xi: np.ndarray) -> np.ndarray:
        """C xi . xi for an array of matrices (..., d, d)."""
        sym = 0.5 * (xi + np.swapaxes(xi, -1, -2))
        tr = np.trace(sym, axis1=-2, axis2=-1)
        frob2 = np.sum(sym * sym, axis=(-2, -1))
        return self.lame_lambda * tr * tr + 2.0 * self.lame_mu * frob2


@dataclass(frozen=True)
class EnergyParams:
    """Parameters of the Griffith functionals."""

    hooke: HookeTensor
    p: float = 2.0
    mu_offset: float = 0.0
    kappa: float = 0.0
    beta: float = 1.0
    g: DisplacementField | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.kappa < 0 or self.mu_offset < 0:
            raise ValueError("kappa and mu_offset must be nonnegative")

    def require_p_gt_one(self) -> None:
        if self.p <= 1:
            raise ValueError("this routine requires p > 1")


def f_mu(xi: np.ndarray, params: EnergyParams) -> np.ndarray:
    """Energy density (1/p)((C xi.xi + mu)^(p/2) - mu^(p/2))."""
    q = params.hooke.quadratic_form(np.asarray(xi))
    p, mu = params.p, params.mu_offset
    return ((q + mu) ** (p / 2.0) - mu ** (p / 2.0)) / p


def f_zero(xi: np.ndarray, params: EnergyParams) -> np.ndarray:
    """Homogeneous density (1/p)(C xi.xi)^(p/2)."""
    q = params.hooke.quadratic_form(np.asarray(xi))
    return q ** (params.p / 2.0) / params.p


def jump_measure(jumps: JumpSet) -> float:
    return jumps.measure()


def cellwise_pth_power(u_vals: np.ndarray, grid: GridSpec, p: float) -> np.ndarray:
    """Corner-mean of |u|^p per cell (vector magnitude at nodes)."""
    mag_p = np.linalg.norm(u_vals, axis=-1) ** p
    return corner_average(mag_p, grid.dim)


def lp_norm_nodes(u_vals: np.ndarray, grid: GridSpec, p: float,
                  region: Region | None = None,
                  cell_mask: np.ndarray | None = None) -> float:
    """L^p norm of a node field via corner-mean quadrature."""
    cells = cellwise_pth_power(u_vals, grid, p)
    mask = region_cell_mask(grid, region) if cell_mask is None else cell_mask
    return float(np.sum(cells[mask]) * grid.spacing ** grid.dim) ** (1.0 / p)


def lp_norm_cells(cell_vals: np.ndarray, grid: GridSpec, p: float,
                  region: Region | None = None,
                  cell_mask: np.ndarray | None = None) -> float:
    """L^p norm of a cell field of matrices/vectors (Frobenius magnitude)."""
    extra = cell_vals.ndim - grid.dim
    mag = np.sqrt(np.sum(cell_vals ** 2, axis=tuple(range(grid.dim, grid.dim + extra))))
    mask = region_cell_mask(grid, region) if cell_mask is None else cell_mask
    return float(np.sum(mag[mask] ** p) * grid.spacing ** grid.dim) ** (1.0 / p)


def _bulk_and_fidelity(u: DisplacementField, strain: StrainField,
                       params: EnergyParams, mask: np.ndarray,
                       homogeneous: bool) -> tuple[float, float]:
    grid = u.grid
    hvol = grid.spacing ** grid.dim
    dens = f_zero(strain.cell_values, params) if homogeneous \
        else f_mu(strain.cell_values, params)
    bulk = float(np.sum(dens[mask]) * hvol)
    fidelity = 0.0
    if params.kappa > 0:
        if homogeneous:
            delta = u.values
        else:
            if params.g is None:
                raise ValueError("kappa > 0 requires a fidelity target g")
            delta = u.values - params.g.values
        cells = cellwise_pth_power(delta, grid, params.p)
        fidelity = params.kappa * float(np.sum(cells[mask]) * hvol)
    return bulk, fidelity


def energy_G(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
             region: Region | None = None,
             strain: StrainField | None = None) -> float:
    """Bulk f_mu + kappa|u-g|^p + beta * crack area, over a region."""
    if strain is None:
        strain = symmetric_gradient(u, jumps)
    mask = region_cell_mask(u.grid, region)
    bulk, fid = _bulk_and_fidelity(u, strain, params, mask, homogeneous=False)
    surf = params.beta * faces_in_region(u.grid, jumps, region) * u.grid.face_area()
    return bulk + fid + surf


def energy_G0(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
              region: Region | None = None,
              strain: StrainField | None = None) -> float:
    """Homogeneous variant: f_0 bulk and kappa|u|^p fidelity."""
    if strain is None:
        strain = symmetric_gradient(u, jumps)
    mask = region_cell_mask(u.grid, region)
    bulk, fid = _bulk_and_fidelity(u, strain, params, mask, homogeneous=True)
    surf = params.beta * faces_in_region(u.grid, jumps, region) * u.grid.face_area()
    return bulk + fid + surf


def energy_breakdown(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
                     region: Region | None = None, homogeneous: bool = False,
                     strain: StrainField | None = None) -> dict[str, float]:
    """Bulk / fidelity / surface split, matching energy_G / energy_G0."""
    if strain is None:
        strain = symmetric_gradient(u, jumps)
    mask = region_cell_mask(u.grid, region)
    bulk, fid = _bulk_and_fidelity(u, strain, params, mask, homogeneous)
    surf = params.beta * faces_in_region(u.grid, jumps, region) * u.grid.face_area()
    return {"bulk": bulk, "fidelity": fid, "surface": surf,
            "total": bulk + fid + surf}
