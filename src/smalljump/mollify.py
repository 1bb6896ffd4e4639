"""Compactly supported radial mollifier sampled on the grid.

The construction uses one mollifier: the standard bump profile with
support radius max(SUPPORT_FRACTION * L, 2h) for smoothing scale L, the
paper-style radius L/6 floored at two grid steps so the sampled kernel
always has interior weight.  Discrete normalization makes the kernel sum
to one exactly, and symmetry of the sample offsets reproduces affine
fields exactly at interior points.  ``scipy.ndimage`` is imported at the
first convolution, so a process that never convolves does not load it.
"""

from __future__ import annotations

import numpy as np

from .errors import CoveringError

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
    out, margin = mollify_stack(np.asarray(values, dtype=float)[None], dim,
                                scale, spacing)
    return out[0], margin


def mollify_stack(stack: np.ndarray, dim: int, scale: float,
                  spacing: float) -> tuple[np.ndarray, int]:
    """``mollify`` of every field of a stack of equal lattice windows.

    Axis 0 indexes the fields, the next ``dim`` axes are lattice axes and
    trailing axes are components.  One convolution with the kernel padded
    by unit axes serves them all: each entry sums the same kernel taps in
    the same order as a convolution of its own field and component.
    """
    from scipy import ndimage
    kern = _cached_kernel(dim, kernel_radius_cells(scale, spacing))
    margin = (kern.shape[0] - 1) // 2
    kern = kern.reshape((1,) + kern.shape + (1,) * (stack.ndim - dim - 1))
    return ndimage.convolve(stack, kern, mode="constant"), margin


def mollify_strain_box(strain: np.ndarray, box: tuple[slice, ...],
                       scale: float, spacing: float) -> np.ndarray:
    """The mollified strain on a box of cells, shape (npairs,) + box, for
    strain planes such as e(u).

    Each plane is convolved over the box plus the kernel halo: an
    interior entry sums the same kernel taps in the same order on a
    window as on the whole lattice.  An empty box gives an empty result.
    Raises CoveringError when the halo leaves the lattice, where the
    whole-lattice convolution would read zero padding.
    """
    dim = len(box)
    shape = tuple(s.stop - s.start for s in box)
    out = np.empty(strain.shape[:1] + shape)
    if 0 in shape:
        return out
    kern = _cached_kernel(dim, kernel_radius_cells(scale, spacing))
    margin = (kern.shape[0] - 1) // 2
    win = tuple(slice(s.start - margin, s.stop + margin) for s in box)
    if any(w.start < 0 or w.stop > n for w, n in zip(win, strain.shape[1:])):
        raise CoveringError("mollification margin covers the inner box")
    core = tuple(slice(margin, margin + n) for n in shape)
    from scipy import ndimage
    for n, plane in enumerate(strain):
        out[n] = ndimage.convolve(plane[win], kern, mode="constant")[core]
    return out
