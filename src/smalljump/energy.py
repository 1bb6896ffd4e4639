"""Hooke tensor, energy densities, and the Griffith-type functionals.

Bulk terms use the midpoint rule (one strain matrix per cell); zeroth
order terms (|u-g|^p, |u|^p) use the corner-mean rule per cell, which is
positive definite on node values and keeps the elastic solve uniquely
solvable.  The crack term is exact: face count times h^(dim-1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    DisplacementField,
    GridSpec,
    JumpSet,
    Region,
    corner_average,
    faces_in_region,
    region_cell_mask,
    slabwise,
)
from .strain import symmetric_gradient


@dataclass(frozen=True)
class HookeTensor:
    """Isotropic Hooke law C xi = lam*tr(xi)*Id + 2*mu*xi on symmetric xi."""

    lame_lambda: float
    lame_mu: float

    def __post_init__(self):
        if self.lame_mu <= 0:
            raise ValueError("lame_mu must be positive")

    def validate(self, dim: int) -> None:
        """Raise unless C is coercive on symmetric dim x dim matrices."""
        bulk = dim * self.lame_lambda + 2 * self.lame_mu
        if bulk <= 0:
            raise ValueError(f"dim*lambda + 2*mu must be positive, got {bulk:g} "
                             f"in {dim}D")

    def quadratic_form(self, xi: np.ndarray) -> np.ndarray:
        """C xi . xi for symmetric matrices stored as their upper planes,
        shape (npairs, ...) in ``upper_pairs`` order; one matrix may be
        given as its (npairs,) vector.  3 planes mean 2D, 6 mean 3D."""
        xi = np.asarray(xi, dtype=float)
        if xi.ndim == 1:
            return self.quadratic_form(xi[:, None])[0]
        diag = {3: (0, 2), 6: (0, 3, 5)}.get(xi.shape[0])  # the (i, i) planes
        if diag is None:
            raise ValueError(f"{xi.shape[0]} strain planes are neither 3 (2D) "
                             "nor 6 (3D)")
        self.validate(len(diag))
        tr = xi[diag[0]] + xi[diag[1]]
        for n in diag[2:]:
            tr += xi[n]
        frob2 = frobenius_sq(xi)
        q = self.lame_lambda * tr
        q *= tr
        frob2 *= 2.0 * self.lame_mu
        q += frob2
        return q


def _sum_squares(sq: np.ndarray) -> np.ndarray:
    """sum_ik x_ik^2 from the squares ``sq[n]`` of the upper planes of a
    symmetric 2D or 3D field; the squares are overwritten.

    The nine (four) row-major terms are added as a numpy sum over
    trailing (d, d) axes adds them: in 2D left to right,
    ((s00 + s01) + s01) + s11; in 3D the first eight pairwise, then the
    ninth: (((s00 + s01) + (s02 + s01)) + ((s11 + s12) + (s02 + s12))) + s22.
    """
    acc = np.add(sq[0], sq[1], out=sq[0])
    if len(sq) == 3:    # s00, s01, s11
        acc += sq[1]
        acc += sq[2]
        return acc
    _, s01, s02, s11, s12, s22 = sq
    acc += np.add(s02, s01, out=s01)
    mid = np.add(s11, s12, out=s11)
    mid += np.add(s02, s12, out=s02)
    acc += mid
    acc += s22
    return acc


def frobenius_sq(planes: np.ndarray) -> np.ndarray:
    """|x|^2 per cell of a symmetric matrix field given by its upper
    planes, summed in the order of ``_sum_squares``."""
    return slabwise(planes.shape[1:],
                    lambda sl: _sum_squares(planes[:, sl] * planes[:, sl]))


def strain_pth_power(strain: np.ndarray, p: float) -> np.ndarray:
    """|e|^p per cell (Frobenius magnitude) of upper planes such as e(u)."""
    return slabwise(strain.shape[1:],
                    lambda sl: np.sqrt(frobenius_sq(strain[:, sl])) ** p)


@dataclass(frozen=True)
class EnergyParams:
    """Parameters of the Griffith functionals."""

    hooke: HookeTensor
    p: float = 2.0
    kappa: float = 0.0
    beta: float = 1.0
    g: DisplacementField | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")

    def homogeneous(self) -> EnergyParams:
        """The parameters of G0: G with no fidelity target."""
        return replace(self, g=None)

    def require_p_gt_one(self) -> None:
        if self.p <= 1:
            raise ValueError("this routine requires p > 1")


def f_zero(xi: np.ndarray, params: EnergyParams) -> np.ndarray:
    """Bulk density (1/p)(C xi.xi)^(p/2) of both G and G0."""
    xi = np.asarray(xi)
    form = params.hooke.quadratic_form
    if xi.ndim == 1:
        return form(xi) ** (params.p / 2.0) / params.p
    return slabwise(xi.shape[1:],
                    lambda sl: form(xi[:, sl]) ** (params.p / 2.0) / params.p)


def cellwise_pth_power(u_vals: np.ndarray, grid: GridSpec, p: float,
                       subtrahend: np.ndarray | None = None) -> np.ndarray:
    """Corner-mean of |u|^p per cell (vector magnitude at nodes), or of
    |u - subtrahend|^p for node values ``subtrahend`` shaped like u."""
    def power(sl: slice) -> np.ndarray:
        x = u_vals[sl.start:sl.stop + 1]    # the slab's cells' nodes
        if subtrahend is not None:
            x = x - subtrahend[sl.start:sl.stop + 1]
        s = x[..., 0] * x[..., 0]   # in component order, as np.linalg.norm
        for c in range(1, grid.dim):
            s += x[..., c] * x[..., c]
        np.sqrt(s, out=s)
        s **= p
        return corner_average(s, grid.dim)
    return slabwise(grid.cell_shape, power)


def lp_norm_cells(cell_vals: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of a strain plane field (Frobenius magnitude)."""
    return float(np.sum(strain_pth_power(cell_vals, p))
                 * grid.spacing ** grid.dim) ** (1.0 / p)


def energy_G(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
             region: Region | None = None) -> float:
    """Bulk f_0 + kappa|u-g|^p + beta * crack area, over a region."""
    return energy_breakdown(u, jumps, params, region)["total"]


def energy_G0(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
              region: Region | None = None) -> float:
    """Homogeneous variant: G with kappa|u|^p fidelity (no target)."""
    return energy_breakdown(u, jumps, params.homogeneous(), region)["total"]


def energy_breakdown(u: DisplacementField, jumps: JumpSet, params: EnergyParams,
                     region: Region | None = None) -> dict[str, float]:
    """Bulk / fidelity / surface split of G; g = None is the zero target."""
    strain = symmetric_gradient(u, jumps)
    grid = u.grid
    mask = region_cell_mask(grid, region)
    hvol = grid.spacing ** grid.dim
    bulk = float(np.sum(f_zero(strain, params)[mask]) * hvol)
    fidelity = 0.0
    if params.kappa > 0:
        cells = cellwise_pth_power(u.values, grid, params.p,
                                   None if params.g is None else params.g.values)
        fidelity = params.kappa * float(np.sum(cells[mask]) * hvol)
    surf = params.beta * faces_in_region(grid, jumps, region) * grid.face_area()
    return {"bulk": bulk, "fidelity": fidelity, "surface": surf,
            "total": bulk + fidelity + surf}
