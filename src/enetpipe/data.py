"""Dataset ingestion, column standardization and synthetic fixtures.

Feature matrices and label vectors are plain float64 ndarrays; the helpers
here validate them, read/write the two on-disk formats (headerless feature
CSV and the RAW3D volume container) and build the correlated-groups
synthetic datasets used throughout the test and comparison harnesses.

One ``np.loadtxt`` call parses a feature CSV (via :func:`textio.load_matrix`,
so a ragged row, a non-numeric cell or a non-ASCII byte is a
``DataFormatError`` naming the file and numpy's row and column), and
:func:`textio.write_rows` writes it in :data:`textio.FLOAT_FORMAT`, so
doubles round-trip exactly.
"""

import contextlib
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import fanout
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    InsufficientDataError,
)
from .rng import PortableRng
from .textio import load_matrix, write_rows

__all__ = ["StandardizationRecord", "SyntheticSpec", "Volume3D",
           "apply_standardization", "generate_synthetic", "load_feature_csv",
           "load_volume_raw3d", "save_feature_csv", "standardize_columns",
           "validate_feature_matrix", "validate_labels"]

RAW3D_MAGIC = b"R3D1"

# Feature CSVs of fewer values, labels included, are written by one
# process. Written by 1 and by 2 processes (BENCH_31.json), each 200-row
# file of 6,000-100,000 values took longer with 2, up to twice as long;
# each file of 150,000-553,000 values took 0.54-0.76 of the time (minimum
# of 15 runs).
_CSV_FAN_OUT_MIN_VALUES = 150_000

# Population std below this (relative to the column's magnitude) marks the
# column as constant; such columns cannot be rescaled to unit norm.
_DEGENERATE_REL_TOL = 1e-12


def validate_feature_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array and enforce the basic invariants."""
    X = np.asarray(values, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionError(f"feature matrix must be 2-D, got {X.ndim}-D")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise DimensionError(f"feature matrix must be at least 1x1, got {X.shape}")
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0] + 1
        raise DataFormatError(
            f"feature matrix has a non-finite entry at row {row}, column {col}")
    return X


def validate_labels(values, n_samples: int) -> np.ndarray:
    y = np.asarray(values, dtype=np.float64).ravel()
    if y.shape[0] != n_samples:
        raise DimensionError(
            f"label vector has length {y.shape[0]}, expected {n_samples}"
        )
    if not np.all(np.isfinite(y)):
        raise DataFormatError("label vector contains non-finite entries")
    return y


@dataclass(frozen=True)
class Volume3D:
    """3-D scalar image; ``voxels[x, y, z]`` with shape ``(dx, dy, dz)``."""

    voxels: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.voxels, dtype=np.float64)
        if v.ndim != 3 or min(v.shape) < 1:
            raise DimensionError(f"volume must be 3-D and non-empty, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataFormatError("volume contains non-finite voxels")
        object.__setattr__(self, "voxels", v)

    @property
    def dims(self) -> tuple:
        return self.voxels.shape


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column centering/scaling fitted by :func:`standardize_columns`.

    ``column_scales`` are strictly positive; constant columns keep scale 1.0
    and are marked in ``degenerate`` instead of being divided by ~0.
    """

    column_means: np.ndarray
    column_scales: np.ndarray
    degenerate: np.ndarray


def load_feature_csv(path, label_column=None, skip_header=False):
    """Read a headerless comma-separated feature file.

    Returns ``(X, labels)``; ``labels`` is None unless ``label_column``
    names the column (0-based, negative indices allowed) to split out.
    """
    data = load_matrix(path, str(path), delimiter=",",
                       skiprows=1 if skip_header else 0, encoding="ascii")
    if data.size == 0:
        raise DataFormatError(f"empty input: {path}")
    data = validate_feature_matrix(data)
    if label_column is None:
        return data, None
    m = data.shape[1]
    col = label_column + m if label_column < 0 else label_column
    if not 0 <= col < m:
        raise ConfigError(f"label column {label_column} out of range for {m} columns")
    return validate_feature_matrix(np.delete(data, col, axis=1)), data[:, col]


def save_feature_csv(path, X, labels=None):
    """Write a feature matrix (labels appended as the last column if given)
    in the bytes of ``np.savetxt(path, X, fmt=FLOAT_FORMAT, delimiter=",")``.

    From _CSV_FAN_OUT_MIN_VALUES values on, the rows are cut into one
    contiguous block per usable CPU (at most one a row), written by
    fanout._fan_out: this
    process writes block 0 into the file, and block k > 0 goes to the k-th
    of the unlinked temporary files opened beside it, which are then
    appended in order. A block a child did not deliver is written again
    here, over whatever prefix of it the child wrote, so the bytes do not
    depend on the number of processes.
    """
    X = validate_feature_matrix(X)
    if labels is not None:
        labels = validate_labels(labels, X.shape[0])
        X = np.column_stack([X, labels])
    workers = 1
    if X.size >= _CSV_FAN_OUT_MIN_VALUES:
        workers = fanout._processes(min(fanout._WORKERS, X.shape[0]))
    bounds = [X.shape[0] * k // workers for k in range(workers + 1)]
    folder = os.path.dirname(os.path.abspath(path))
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="ascii"))]
        files += [stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="ascii", dir=folder)) for _ in range(1, workers)]

        def write(k):
            fh = files[k]
            # from the start: a child that died may have written a prefix
            fh.seek(0)
            written = write_rows(fh, X[bounds[k]:bounds[k + 1]], ",")
            fh.flush()          # a child leaves through os._exit
            return written

        fanout._fan_out(write, range(workers), workers)
        for block in files[1:]:
            block.seek(0)
            shutil.copyfileobj(block, files[0])


def load_volume_raw3d(path) -> Volume3D:
    """Read a RAW3D file: magic ``R3D1``, three little-endian u32 dims,
    then dx*dy*dz little-endian float32 voxels, x index fastest."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != RAW3D_MAGIC:
        raise DataFormatError(
            f"bad magic in {path}: expected {RAW3D_MAGIC!r}, got {blob[:4]!r}"
        )
    if len(blob) < 16:
        raise DataFormatError(f"truncated header in {path}: {len(blob)} bytes")
    dx, dy, dz = struct.unpack("<III", blob[4:16])
    if dx < 1 or dy < 1 or dz < 1:
        raise DataFormatError(f"degenerate dims ({dx},{dy},{dz}) in {path}")
    expected = 16 + 4 * dx * dy * dz
    if len(blob) != expected:
        raise DataFormatError(
            f"payload length mismatch in {path}: expected {expected} bytes, "
            f"got {len(blob)}"
        )
    flat = np.frombuffer(blob, dtype="<f4", offset=16)
    # x-fastest flat order => C-order shape (dz, dy, dx), then put x first
    voxels = flat.reshape(dz, dy, dx).transpose(2, 1, 0).astype(np.float64)
    return Volume3D(voxels=voxels)


def standardize_columns(X):
    """Center each column and scale it to squared norm N.

    The scale is the population standard deviation, so standardized columns
    satisfy ``mean == 0`` and ``sum(col**2) == N``, the normalization the
    coordinate-descent update assumes.  Constant columns become all-zero and
    are flagged degenerate rather than rejected.
    """
    X = validate_feature_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise InsufficientDataError("standardization needs at least 2 samples")
    means = X.mean(axis=0)
    centered = X - means
    scales = np.sqrt((centered**2).mean(axis=0))
    degenerate = scales <= _DEGENERATE_REL_TOL * np.maximum(1.0, np.abs(means))
    scales[degenerate] = 1.0
    centered /= scales
    centered[:, degenerate] = 0.0
    record = StandardizationRecord(
        column_means=means, column_scales=scales, degenerate=degenerate
    )
    return centered, record


def apply_standardization(record: StandardizationRecord, X):
    """Apply a fitted record to new rows (degenerate columns map to zero)."""
    X = validate_feature_matrix(X)
    if X.shape[1] != record.column_means.shape[0]:
        raise DimensionError(
            f"matrix has {X.shape[1]} columns, record expects "
            f"{record.column_means.shape[0]}"
        )
    out = X - record.column_means
    out /= record.column_scales
    out[:, record.degenerate] = 0.0
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the correlated-groups synthetic dataset."""

    n_samples: int
    n_informative_groups: int
    group_size: int
    within_group_correlation: float
    noise_std: float
    n_noise_features: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.n_informative_groups < 0:
            raise ConfigError("n_informative_groups must be >= 0")
        if self.n_informative_groups > 0 and self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if not 0.0 <= self.within_group_correlation < 1.0:
            raise ConfigError("within_group_correlation must be in [0, 1)")
        if self.noise_std < 0.0:
            raise ConfigError("noise_std must be >= 0")
        if self.n_noise_features < 0:
            raise ConfigError("n_noise_features must be >= 0")
        if self.n_informative_groups * self.group_size + self.n_noise_features < 1:
            raise ConfigError("spec describes a dataset with no features")


def generate_synthetic(spec: SyntheticSpec):
    """Generate ``(X, labels, ground_truth_support)`` from a spec.

    Each informative group shares a latent factor: a member column is
    ``sqrt(rho) * latent + sqrt(1-rho) * eps`` so that the pairwise
    within-group correlation is ``rho``.  Labels are the sign of the equally
    weighted sum of group latents plus ``noise_std`` Gaussian noise; when
    that score is identically zero (no groups, no noise) labels fall back to
    fair coin flips so the null dataset stays balanced.  Draw order is
    fixed, so outputs are a pure function of the spec.
    """
    rng = PortableRng(spec.seed)
    n = spec.n_samples
    rho = spec.within_group_correlation
    blocks = (spec.n_informative_groups * (1 + spec.group_size)
              + spec.n_noise_features + 1)
    draws = iter(rng.normals(blocks * n).reshape(blocks, n))
    cols = []
    latents = []
    for _ in range(spec.n_informative_groups):
        latent = next(draws)
        latents.append(latent)
        for _ in range(spec.group_size):
            eps = next(draws)
            cols.append(np.sqrt(rho) * latent + np.sqrt(1.0 - rho) * eps)
    for _ in range(spec.n_noise_features):
        cols.append(next(draws))
    X = np.column_stack(cols)
    label_noise = next(draws)
    if latents:
        score = np.sum(latents, axis=0) / np.sqrt(len(latents))
        score = score + spec.noise_std * label_noise
    else:
        score = spec.noise_std * label_noise
    if np.all(score == 0.0):
        labels = np.array([1.0 if rng.random() < 0.5 else -1.0 for _ in range(n)])
    else:
        labels = np.where(score >= 0.0, 1.0, -1.0)
    support = np.arange(spec.n_informative_groups * spec.group_size)
    return X, labels, support

