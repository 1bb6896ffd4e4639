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
        """C xi . xi for matrices stored as (d, d) planes, shape (d, d, ...)."""
        xi = np.asarray(xi, dtype=float)
        if xi.ndim == 2:
            return self.quadratic_form(xi[..., None])[0]
        dim = xi.shape[0]
        sym = {}
        for i, k in upper_pairs(dim):
            # 0.5*(x + x) on the diagonal, so overflow behaves as off it
            s = xi[i, k] + xi[k, i]
            s *= 0.5
            sym[i, k] = s
        tr = sym[0, 0] + sym[1, 1]
        for i in range(2, dim):
            tr += sym[i, i]
        for s in sym.values():
            s *= s
        frob2 = _sum_squares(sym)
        q = self.lame_lambda * tr
        q *= tr
        frob2 *= 2.0 * self.lame_mu
        q += frob2
        return q


def upper_pairs(dim: int) -> list[tuple[int, int]]:
    """Component pairs (i, k), i <= k, of a symmetric (dim, dim) field."""
    return [(i, k) for i in range(dim) for k in range(i, dim)]


def _sum_squares(sq: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """sum_ik x_ik^2 from the squares ``sq[i, k]``, i <= k, of a symmetric
    2D or 3D field; the squares are overwritten.

    The nine (four) row-major terms are added as a numpy sum over
    trailing (d, d) axes adds them: in 2D left to right,
    ((s00 + s01) + s01) + s11; in 3D the first eight pairwise, then the
    ninth: (((s00 + s01) + (s02 + s01)) + ((s11 + s12) + (s02 + s12))) + s22.
    """
    acc = np.add(sq[0, 0], sq[0, 1], out=sq[0, 0])
    if (2, 2) not in sq:
        acc += sq[0, 1]
        acc += sq[1, 1]
        return acc
    acc += np.add(sq[0, 2], sq[0, 1], out=sq[0, 1])
    mid = np.add(sq[1, 1], sq[1, 2], out=sq[1, 1])
    mid += np.add(sq[0, 2], sq[1, 2], out=sq[0, 2])
    acc += mid
    acc += sq[2, 2]
    return acc


def frobenius_sq(upper: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """|x|^2 per cell of an exactly symmetric matrix field given by its
    planes ``upper[i, k]``, i <= k, summed in the order of ``_sum_squares``."""
    return _sum_squares({ik: x * x for ik, x in upper.items()})


def strain_pth_power(strain: np.ndarray, p: float) -> np.ndarray:
    """|e|^p per cell (Frobenius magnitude) of a symmetric (d, d) plane
    field such as e(u)."""
    frob2 = frobenius_sq({ik: strain[ik] for ik in upper_pairs(strain.shape[0])})
    return np.sqrt(frob2, out=frob2) ** p


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


def lp_norm_cells(cell_vals: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of a symmetric (dim, dim) plane field (Frobenius magnitude)."""
    return float(np.sum(strain_pth_power(cell_vals, p))
                 * grid.spacing ** grid.dim) ** (1.0 / p)


def energy_G(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
             region: Region | None = None) -> float:
    """Bulk f_mu + kappa|u-g|^p + beta * crack area, over a region."""
    return energy_breakdown(u, jumps, params, region)["total"]


def energy_G0(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
              region: Region | None = None) -> float:
    """Homogeneous variant: f_0 bulk and kappa|u|^p fidelity."""
    return energy_breakdown(u, jumps, params, region, homogeneous=True)["total"]


def energy_breakdown(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
                     region: Region | None = None,
                     homogeneous: bool = False) -> dict[str, float]:
    """Bulk / fidelity / surface split of G (or G0 when homogeneous)."""
    strain = symmetric_gradient(u, jumps)
    grid = u.grid
    mask = region_cell_mask(grid, region)
    hvol = grid.spacing ** grid.dim
    dens = f_zero(strain, params) if homogeneous else f_mu(strain, params)
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
    surf = params.beta * faces_in_region(grid, jumps, region) * grid.face_area()
    return {"bulk": bulk, "fidelity": fidelity, "surface": surf,
            "total": bulk + fidelity + surf}
