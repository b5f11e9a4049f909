"""Shared fixtures-by-hand for the test suite: instance generators (one
on which the SVM route's solves break down at a tiny lambda2), the
independent grid-search oracle, the reference normal draws and shuffle,
the reference coordinate-descent sweep and per-sweep objectives, the
reference einsum convolution, argmax pool, pool index and unpool and the
CNN forward built on them, the reference ELM solve, the row-by-row PCA
sign convention, a probe that captures each fold's fitted models,
timing-field masking for golden files and benchmark digests, edits that
break a network file, a volume whose patches overflow only in the second
extraction worker, a RAW3D volume writer and the CNN's batched forward.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import fields, is_dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from enetpipe import (PortableRng, Volume3D, elastic_net_objective,
                      save_cnn, soft_threshold, standardize_columns)
from enetpipe.errors import DataFormatError, DimensionError
from enetpipe.textio import read_blocks, write_blocks
from enetpipe.cnn import _NO_GRADIENT, _class_log_probs, _forward_batch
from enetpipe.data import RAW3D_MAGIC
from enetpipe.solvers import _GRAM_COLUMN_LIMIT, _coordinate_descent


def reference_normals(rng: PortableRng, n: int) -> np.ndarray:
    """``n`` draws of the scalar ``normal()``; ``PortableRng.normals`` must
    return the same bytes and leave ``rng`` in the same state."""
    return np.array([rng.normal() for _ in range(n)], dtype=np.float64)


def reference_shuffle(rng: PortableRng, values: np.ndarray) -> None:
    """Fisher-Yates along the first axis, swapping two rows per draw;
    ``PortableRng.shuffle`` must leave the same arrangement and the same
    generator state."""
    for i in range(len(values) - 1, 0, -1):
        j = rng.integer_below(i + 1)
        values[[i, j]] = values[[j, i]]


def regression_instance(seed: int, n: int, m: int, noise: float = 0.25):
    """Standardized (X, y) with a sparse planted signal."""
    rng = PortableRng(seed)
    X = rng.normal_matrix(n, m)
    beta = np.zeros(m)
    k = max(1, m // 2)
    beta[:k] = rng.normals(k) * 2.0
    y = X @ beta + noise * rng.normals(n)
    X_std, _ = standardize_columns(X)
    return X_std, y


def duplicated_instance(seed: int, n: int = 40, m: int = 6):
    """Standardized instance with column 0 duplicated at column 1.

    The copy sits right after the original: cyclic coordinate descent
    leaves the optimality condition of column 0 tight when it reaches
    column 1, so the L1-only solver parks the copy at (numerically) zero
    instead of splitting weight. A copy placed after other columns would
    pick up real weight from their interleaved residual updates; the
    split is path-dependent because the L1 optimum is not unique over
    exact duplicates.
    """
    rng = PortableRng(seed)
    X = rng.normal_matrix(n, m)
    X = np.column_stack([X[:, 0], X[:, 0], X[:, 1:]])
    y = 3.0 * X[:, 0] + 0.5 * X[:, 2] + 0.1 * rng.normals(n)
    X_std, _ = standardize_columns(X)
    # standardization preserves exact duplication (same mean, same scale)
    assert np.array_equal(X_std[:, 0], X_std[:, 1])
    return X_std, y, (0, 1)


def tiny_lambda2_instance(duplicate: bool = False, shape=(40, 6)):
    """Raw 40 x 6 design (7 columns with column 0 copied at the end when
    duplicate) and +-1 targets, sign(x0 + x1 + noise) on the standardized
    columns. At lambda1 0.05 the SVM route's margin solves overflow at
    lambda2 = 1e-320 and its gradient-at-zero pattern is not the optimum's
    at 1e-16, yet its active-set steps certify CD's optimum; with the copy
    its ridge solves are singular at 1e-30 and below and it returns zero
    uncertified. CD converges to objective 0.2317 on both designs. With
    shape (20, 60) the ridge solves take the push-through form, whose
    division by 2 lambda2 overflows at lambda2 = 1e-310 and below."""
    rows, columns = shape
    X = PortableRng(3).normal_matrix(rows, columns)
    X_std, _ = standardize_columns(X)
    y = np.sign(X_std[:, 0] + X_std[:, 1]
                + 0.3 * PortableRng(4).normals(rows))
    if duplicate:
        X = np.column_stack([X, X[:, 0]])
    return X, y


def grid_search_lasso_objective(X, y, lambda1: float,
                                points: int = 13,
                                target_gap: float = 1e-8,
                                max_rounds: int = 24) -> float:
    """Brute-force grid minimum of the L1 objective, refined by zooming.

    Each round lays a `points`-per-axis grid over a box, takes the best
    grid point, and shrinks the box to +-2 grid steps around it. The box
    always contains the true minimizer: the first box uses the bound
    ||beta*||_inf <= ||y||^2 / (2 N lambda1) (any larger beta has an L1
    penalty alone exceeding f(0)), and a convex function's grid argmin is
    within one step of its true argmin per axis. Rounds stop once the
    grid resolution bounds the objective error below target_gap.
    """
    n, m = X.shape
    if lambda1 <= 0.0:
        raise ValueError("oracle needs lambda1 > 0 for its search bound")
    half_width = float(y @ y) / (2.0 * n * lambda1)
    center = np.zeros(m)
    best_obj = np.inf
    axes_cache = np.linspace(-1.0, 1.0, points)
    for _ in range(max_rounds):
        axes = [center[j] + half_width * axes_cache for j in range(m)]
        mesh = np.meshgrid(*axes, indexing="ij")
        B = np.stack([g.ravel() for g in mesh])          # (m, P)
        resid = y[:, None] - X @ B
        objs = (resid**2).sum(axis=0) / (2.0 * n) + lambda1 * np.abs(B).sum(axis=0)
        k = int(np.argmin(objs))
        best_obj = min(best_obj, float(objs[k]))
        center = B[:, k]
        step = 2.0 * half_width / (points - 1)
        # worst-case objective error at this resolution: the L1 term is
        # 1-Lipschitz per axis with slope lambda1, the quadratic term is
        # locally flat at the minimum
        if m * lambda1 * step + step**2 < target_gap:
            break
        half_width = 2.0 * step
    return best_obj


_TEXT_TIME = re.compile(r"[-+]?\d+\.\d{3}s")
_CSV_TIME = re.compile(r"(?m)^((?:[^,]*,){4})\d+\.\d{3}(,)")
_PLOT_TIME = re.compile(r"(time_ms,)-?\d+")


def mask_timing(content: str) -> str:
    """Blank every wall-clock field so reports can be compared byte-wise."""
    content = _TEXT_TIME.sub("X.XXXs", content)
    content = _CSV_TIME.sub(r"\1T\2", content)
    content = _PLOT_TIME.sub(r"\1T", content)
    return content


def _mask_json_value(value, placeholder="T"):
    if isinstance(value, dict):
        return {k: (placeholder if "time" in k
                    else _mask_json_value(v, placeholder))
                for k, v in value.items()}
    if isinstance(value, list):
        return [_mask_json_value(v, placeholder) for v in value]
    return value


def benchmark_masked(payload):
    """A parsed report with every *time* field set to None, as the
    benchmark masks a report before taking its digest."""
    return _mask_json_value(payload, None)


def mask_timing_json(content: str) -> str:
    """Replace every *time* field in a JSON report with a placeholder."""
    return json.dumps(_mask_json_value(json.loads(content)), indent=2)


def reference_coordinate_descent(X, y, lambda1, lambda2, stop_thr, max_sweeps):
    """The cyclic coordinate-descent sweep written plainly: numpy arrays,
    fresh column views and one ``soft_threshold`` call per coordinate.

    ``enetpipe.solvers._coordinate_descent`` must return the same bits.
    """
    n, m = X.shape
    ipy = X.T @ y
    beta = np.zeros(m)
    denom = 1.0 + 2.0 * lambda2
    use_gram = m <= _GRAM_COLUMN_LIMIT
    if use_gram:
        gram = X.T @ X
        gc = np.zeros(m)
    else:
        resid = y.astype(np.float64).copy()
    objectives = []
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        max_dif = 0.0
        for j in range(m):
            if use_gram:
                z = (ipy[j] - gc[j]) / n + beta[j]
            else:
                z = float(X[:, j] @ resid) / n + beta[j]
            b_new = soft_threshold(z, lambda1) / denom
            dif = b_new - beta[j]
            if dif != 0.0:
                beta[j] = b_new
                if use_gram:
                    gc += gram[:, j] * dif
                else:
                    resid -= X[:, j] * dif
                max_dif = max(max_dif, abs(dif))
        sweeps += 1
        objectives.append(elastic_net_objective(X, y, beta, lambda1, lambda2))
        if max_dif < stop_thr:
            converged = True
            break
    return beta, sweeps, converged, objectives


def sweep_objectives(X, y, lambda1, lambda2, stop_thr, sweep_counts):
    """The objective after k sweeps of
    ``enetpipe.solvers._coordinate_descent``, for each k in
    ``sweep_counts``, rebuilt by refitting with ``max_sweeps = k``: the
    sweep is deterministic from beta = 0, so a fit capped at k sweeps stops
    where a longer fit was after k."""
    return [elastic_net_objective(
                X, y, _coordinate_descent(X, y, lambda1, lambda2, stop_thr,
                                          k)[0], lambda1, lambda2)
            for k in sweep_counts]


def capture_fold_fits(monkeypatch) -> list:
    """Wrap the fitting functions ``enetpipe.pipeline`` calls
    (``standardize_columns``, ``pca_fit``, ``elm_train``) so that every
    call's result is appended, as ``(name, result)``, to the returned list.

    A fold ends with its one ``elm_train`` call; see ``fold_fits``.
    """
    import enetpipe.pipeline as pl
    calls = []
    for name in ("standardize_columns", "pca_fit", "elm_train"):
        def wrapper(*args, _name=name, _real=getattr(pl, name), **kwargs):
            result = _real(*args, **kwargs)
            calls.append((_name, result))
            return result
        monkeypatch.setattr(pl, name, wrapper)
    return calls


def fold_fits(calls) -> list:
    """Split ``capture_fold_fits``' record into one list per fold."""
    folds, current = [], []
    for call in calls:
        current.append(call)
        if call[0] == "elm_train":
            folds.append(current)
            current = []
    return folds


def fit_bytes(value):
    """A fitted result as nested tuples of bytes and scalars, for bit-for-bit
    comparison: arrays become (dtype, shape, bytes), dataclasses their
    fields."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if is_dataclass(value):
        return tuple((f.name, fit_bytes(getattr(value, f.name)))
                     for f in fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(fit_bytes(v) for v in value)
    return value


def reference_maxpool(x):
    """2x2 max-pool by ``argmax`` over each window in row-major order, so
    ties go to the first entry. Returns (pooled, window index)."""
    b, c, h, w = x.shape
    tiles = x.reshape(b, c, h // 2, 2, w // 2, 2)
    tiles = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
    idx = np.argmax(tiles, axis=-1)
    out = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]
    return out, idx


def reference_pool_index(x):
    """The pool index of a raw conv map by four masked assignments: the
    first k in row-major window order with ``v_k == m``, or
    ``_NO_GRADIENT`` where ``m <= 0``. ``_pool_then_rectify`` must return
    the same bytes."""
    views = [x[:, :, i::2, j::2] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]
    m = np.maximum(np.maximum(views[0], views[1]),
                   np.maximum(views[2], views[3]))
    dead = m <= 0.0
    idx = np.full(m.shape, _NO_GRADIENT, dtype=np.int8)
    for k in (3, 2, 1, 0):            # the lowest k holding the max wins
        idx[~dead & (views[k] == m)] = k
    return idx


def reference_unpool(dout, idx, pooled_from_shape):
    """Scatter each pooled gradient to the entry ``reference_maxpool`` took."""
    b, c, h, w = pooled_from_shape
    tiles = np.zeros((b, c, h // 2, w // 2, 4))
    np.put_along_axis(tiles, idx[..., None], dout[..., None], axis=-1)
    tiles = tiles.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return tiles.reshape(b, c, h, w)


def reference_conv_same(x, w, b):
    """3x3 same-padding convolution as one einsum over the padded input's
    3x3 windows, plus the bias."""
    x_pad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(x_pad, (3, 3), axis=(2, 3))
    out = np.einsum("bchwij,ocij->bohw", windows, w, optimize=True)
    out += b[None, :, None, None]
    return out


def reference_forward_features(net, x):
    """Per-patch CNN features the plain way: each stage's einsum convolution,
    rectified with its ReLU mask, then the first-occurrence argmax pool.

    ``enetpipe.cnn._forward_batch`` must return the same bytes, the sign of
    every zero included.
    """
    for w, b in zip(net.conv_weights, net.conv_biases):
        out = reference_conv_same(x, w, b)
        x, _ = reference_maxpool(out * (out > 0.0))
    return x.reshape(x.shape[0], -1)


def reference_rbf_gram(A, B, gamma: float) -> np.ndarray:
    """The RBF kernel with both row norms and the product formed in place;
    ``elm_train``'s ridge system and ``elm_predict``'s kernel must hold the
    same bytes."""
    sq = (np.sum(A * A, axis=1)[:, None]
          + np.sum(B * B, axis=1)[None, :]
          - 2.0 * A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def reference_sign_convention(components) -> None:
    """Flip each row whose first largest-magnitude entry is negative, one
    row at a time; ``enetpipe.pca._apply_sign_convention`` must leave the
    same bytes."""
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0


def reference_median_gamma(X) -> float:
    """The median heuristic through ``np.median`` over ``np.triu_indices``'
    fancy-index copy of X's squared distances; ``elm._median_gamma`` must
    return the same bits, NaN included."""
    n, k = X.shape
    if n < 2:
        return 1.0
    sq = (np.sum(X * X, axis=1)[:, None]
          + np.sum(X * X, axis=1)[None, :]
          - 2.0 * X @ X.T)
    med = float(np.median(sq[np.triu_indices(n, k=1)]))
    return 1.0 if med <= 0.0 else 1.0 / (k * med)


def reference_elm_weights(X, labels, gamma=None, ridge_c=100.0):
    """``(output_weights, gamma)`` of ``elm_train`` the plain way: the
    median heuristic and the Gram matrix each from scratch, and the ridge
    system through ``scipy.linalg.solve(..., assume_a="pos")``.

    ``elm_train`` must return the same weight bytes, C-ordered as ``solve``
    returns them, and the same gamma.
    """
    if gamma is None:
        gamma = reference_median_gamma(X)
    classes, class_idx = np.unique(labels, return_inverse=True)
    targets = np.zeros((X.shape[0], classes.shape[0]))
    targets[np.arange(X.shape[0]), class_idx] = 1.0
    system = reference_rbf_gram(X, X, gamma)
    system[np.diag_indices_from(system)] += 1.0 / ridge_c
    return scipy.linalg.solve(system, targets, assume_a="pos"), float(gamma)



# name -> (edit of a network file's blocks, the error load_cnn raises, a
# word its message holds); each is a data error, exit 2 in the CLI
MALFORMED_NETWORK_EDITS = {
    "missing-block": (lambda b: b.pop("conv3_bias"), DataFormatError,
                      "conv3_bias"),
    "short-config": (lambda b: b.update(config=b["config"][:5]),
                     DataFormatError, "config"),
    "bad-config-value": (lambda b: b["config"].__setitem__(0, 30),
                         DataFormatError, "input size"),
    "nan-config-value": (lambda b: b["config"].__setitem__(0, np.nan),
                         DataFormatError, "value nan is not a whole number"),
    "fractional-config-value": (lambda b: b["config"].__setitem__(0, 8.7),
                                DataFormatError,
                                "value 8.7 is not a whole number"),
    "conv2-shape": (lambda b: b.update(conv2_weights=b["conv2_weights"][1:]),
                    DimensionError, "conv2_weights"),
    "fc-shape": (lambda b: b.update(fc_weights=b["fc_weights"].T),
                 DimensionError, "fc_weights"),
}


def save_malformed_network(path, net, edit: str):
    """Save `net` to `path` with the named edit applied; returns the error
    ``load_cnn`` raises on the file and a word of its message."""
    save_cnn(path, net)
    change, error, word = MALFORMED_NETWORK_EDITS[edit]
    blocks = read_blocks(path)
    change(blocks)
    write_blocks(path, blocks)
    return error, word


def write_volume_raw3d(path, vol):
    """Write ``vol`` as RAW3D, the format ``load_volume_raw3d`` reads: magic,
    three little-endian u32 dims, float32 voxels x-fastest."""
    with open(path, "wb") as fh:
        fh.write(RAW3D_MAGIC)
        fh.write(struct.pack("<III", *vol.dims))
        fh.write(vol.voxels.transpose(2, 1, 0).astype("<f4").tobytes())


def forward_batch(net, batch):
    """The network's batched forward: (features (B, F), probabilities
    (B, C))."""
    pooled, _ = _forward_batch(net, np.asarray(batch, dtype=np.float64))
    features = pooled.reshape(pooled.shape[0], -1)
    return features, _class_log_probs(net, features)[1]
