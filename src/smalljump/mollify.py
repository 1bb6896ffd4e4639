"""Compactly supported radial mollifier sampled on the grid.

The construction uses one mollifier: the standard bump profile with
support radius max(SUPPORT_FRACTION * L, 2h) for smoothing scale L, the
paper-style radius L/6 floored at two grid steps so the sampled kernel
always has interior weight.  Discrete normalization makes the kernel sum
to one exactly, and symmetry of the sample offsets reproduces affine
fields exactly at interior points.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

SUPPORT_FRACTION = 1.0 / 6.0


def standard_bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) on [0,1), zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _kernel(dim: int, radius_in_cells: float) -> np.ndarray:
    """Normalized bump on integer offsets with |o| < radius_in_cells.

    The radius is at least two cells (kernel_radius_cells), so the
    center offset always carries weight."""
    half = max(int(np.ceil(radius_in_cells)) - 1, 0)
    axes = [np.arange(-half, half + 1)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    dist = np.sqrt(sum(m.astype(float) ** 2 for m in mesh))
    w = standard_bump(dist / radius_in_cells)
    w[dist >= radius_in_cells] = 0.0
    return w / w.sum()


_KERNEL_CACHE: dict[tuple, np.ndarray] = {}


def _cached_kernel(dim: int, radius_in_cells: float) -> np.ndarray:
    key = (dim, round(radius_in_cells, 12))
    if key not in _KERNEL_CACHE:
        _KERNEL_CACHE[key] = _kernel(dim, radius_in_cells)
    return _KERNEL_CACHE[key]


def kernel_radius_cells(scale: float, spacing: float) -> float:
    """Support radius in grid steps: max(SUPPORT_FRACTION*scale, 2h) / h."""
    if scale < spacing:
        raise ValueError(f"mollification scale {scale} under-resolved (h={spacing})")
    return max(SUPPORT_FRACTION * scale, 2.0 * spacing) / spacing


def mollify(values: np.ndarray, dim: int, scale: float,
            spacing: float) -> tuple[np.ndarray, int]:
    """Convolve a node or cell lattice field with the sampled kernel.

    The first ``dim`` axes of ``values`` are lattice axes; trailing axes
    are components.  Returns ``(out, margin)``: entries farther than
    ``margin`` lattice steps from every lattice boundary are exact
    convolutions; closer entries read zero padding and are not defined.
    """
    radius = kernel_radius_cells(scale, spacing)
    kern = _cached_kernel(dim, radius)
    margin = (kern.shape[0] - 1) // 2
    flat_comps = values.reshape(values.shape[:dim] + (-1,))
    out = np.empty_like(flat_comps, dtype=float)
    for c in range(flat_comps.shape[-1]):
        out[..., c] = ndimage.convolve(flat_comps[..., c], kern, mode="constant")
    return out.reshape(values.shape), margin
