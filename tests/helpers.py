"""Shared fixtures-by-hand for the test suite: instance generators, the
independent grid-search oracle, the reference coordinate-descent sweep and
per-sweep objectives, the reference CNN extraction forward, a probe that
captures each fold's fitted models, and timing-field masking for golden
files.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass

import numpy as np

from enetpipe import (PortableRng, elastic_net_objective, soft_threshold,
                      standardize_columns)
from enetpipe.cnn import _conv_same, _maxpool
from enetpipe.solvers import _GRAM_COLUMN_LIMIT, _coordinate_descent


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


def _mask_json_value(value):
    if isinstance(value, dict):
        return {k: ("T" if "time" in k else _mask_json_value(v))
                for k, v in value.items()}
    if isinstance(value, list):
        return [_mask_json_value(v) for v in value]
    return value


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


def reference_forward_features(net, x):
    """Per-patch CNN features the plain way: each stage rectifies the conv
    output with its ReLU mask, then takes the first-occurrence argmax pool.

    The forward-only branch of ``enetpipe.cnn._forward_batch`` must return
    the same bytes, the sign of every zero included.
    """
    for w, b in zip(net.conv_weights, net.conv_biases):
        out, _ = _conv_same(x, w, b)
        x, _ = _maxpool(out * (out > 0.0))
    return x.reshape(x.shape[0], -1)
