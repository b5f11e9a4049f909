"""2.5D patch extraction from volumes.

A patch is three orthogonal 32x32 slices through one voxel: the transverse
plane (fixed z), coronal plane (fixed y), and sagittal plane (fixed x),
stacked in that order as one (3, 32, 32) float64 array. Windows that would
leave the volume are clamped to the edge, so every in-bounds center yields a
full patch.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from .data import Volume3D
from .errors import ConfigError, DimensionError

PATCH_SIZE = 32
DEFAULT_CENTER_COUNT = 151
_HALF = PATCH_SIZE // 2

__all__ = ["extract_patch_2_5d", "default_patch_centers", "PATCH_SIZE",
           "DEFAULT_CENTER_COUNT"]


def _clamped(lo: int, n: int, size: int) -> np.ndarray:
    return np.clip(np.arange(lo, lo + size), 0, n - 1)


def extract_patch_2_5d(vol: Volume3D, center) -> np.ndarray:
    cx, cy, cz = (int(c) for c in center)
    dx, dy, dz = vol.dims
    if not (0 <= cx < dx and 0 <= cy < dy and 0 <= cz < dz):
        raise DimensionError(
            f"center {(cx, cy, cz)} outside volume of dims {vol.dims}")
    xs = _clamped(cx - _HALF, dx, PATCH_SIZE)
    ys = _clamped(cy - _HALF, dy, PATCH_SIZE)
    zs = _clamped(cz - _HALF, dz, PATCH_SIZE)
    v = vol.voxels
    transverse = v[np.ix_(xs, ys, [cz])][:, :, 0]
    coronal = v[np.ix_(xs, [cy], zs)][:, 0, :]
    sagittal = v[np.ix_([cx], ys, zs)][0, :, :]
    return np.stack([transverse, coronal, sagittal])


def _check_center_count(count: int) -> None:
    if count < 1:
        raise ConfigError(f"center count must be >= 1, got {count}")


def default_patch_centers(dims, count: int = DEFAULT_CENTER_COUNT) -> list:
    """Centers on a uniform interior lattice, in z-, then y-, then x-major
    order, truncated to `count`.

    The per-axis grid size is the smallest n with n^3 >= count; axis
    positions sit at fractions (i+1)/(n+1) of each dimension.
    """
    _check_center_count(count)
    dx, dy, dz = dims
    n = ceil(count ** (1.0 / 3.0))
    while n ** 3 < count:        # guard the float cube root rounding down
        n += 1
    axis = lambda d: [min(d - 1, int(d * (i + 1) / (n + 1))) for i in range(n)]
    xs, ys, zs = axis(dx), axis(dy), axis(dz)
    centers = []
    for z in zs:
        for y in ys:
            for x in xs:
                centers.append((x, y, z))
                if len(centers) == count:
                    return centers
    return centers
