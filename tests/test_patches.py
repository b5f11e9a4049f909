import numpy as np
import pytest

from enetpipe import (Volume3D, default_patch_centers, extract_patch_2_5d)
from enetpipe.errors import ConfigError, DimensionError


def _arange_volume(dx=48, dy=52, dz=44):
    vox = np.arange(dx * dy * dz, dtype=np.float64).reshape(dx, dy, dz)
    return Volume3D(voxels=vox)


def test_patch_shape_and_channel_order():
    vol = _arange_volume()
    patch = extract_patch_2_5d(vol, (24, 26, 22))
    assert patch.shape == (3, 32, 32)
    assert patch.dtype == np.float64


def test_planes_match_manual_slices():
    vol = _arange_volume()
    cx, cy, cz = 24, 26, 22
    patch = extract_patch_2_5d(vol, (cx, cy, cz))
    xs = np.arange(cx - 16, cx + 16)
    ys = np.arange(cy - 16, cy + 16)
    zs = np.arange(cz - 16, cz + 16)
    np.testing.assert_array_equal(patch[0], vol.voxels[xs][:, ys, cz])
    np.testing.assert_array_equal(patch[1], vol.voxels[xs][:, cy, zs])
    np.testing.assert_array_equal(patch[2], vol.voxels[cx][np.ix_(ys, zs)])


def test_corner_center_clamps_to_volume_edge():
    vol = _arange_volume()
    patch = extract_patch_2_5d(vol, (0, 0, 0))
    # offsets below zero clamp to row 0, so the first rows repeat
    np.testing.assert_array_equal(patch[0][0], patch[0][16])
    assert patch.shape == (3, 32, 32)
    # clamped transverse plane equals clip-indexed manual slice
    xs = np.clip(np.arange(-16, 16), 0, 47)
    ys = np.clip(np.arange(-16, 16), 0, 51)
    np.testing.assert_array_equal(patch[0], vol.voxels[xs][:, ys, 0])


def test_out_of_bounds_center_rejected():
    vol = _arange_volume()
    with pytest.raises(DimensionError):
        extract_patch_2_5d(vol, (48, 0, 0))
    with pytest.raises(DimensionError):
        extract_patch_2_5d(vol, (0, -1, 0))


def test_default_centers_count_and_bounds():
    centers = default_patch_centers((64, 64, 64))
    assert len(centers) == 151
    assert len(set(centers)) == 151
    for cx, cy, cz in centers:
        assert 0 <= cx < 64 and 0 <= cy < 64 and 0 <= cz < 64


def test_default_centers_lattice_positions():
    # count 8 -> a 2x2x2 lattice at the 1/3 and 2/3 marks
    centers = default_patch_centers((60, 90, 30), count=8)
    xs = sorted({c[0] for c in centers})
    ys = sorted({c[1] for c in centers})
    zs = sorted({c[2] for c in centers})
    assert xs == [20, 40]
    assert ys == [30, 60]
    assert zs == [10, 20]


def test_default_centers_deterministic_and_truncated():
    a = default_patch_centers((40, 40, 40), count=10)
    b = default_patch_centers((40, 40, 40), count=10)
    assert a == b
    assert len(a) == 10


def test_center_count_must_be_positive():
    with pytest.raises(ConfigError):
        default_patch_centers((32, 32, 32), count=0)
