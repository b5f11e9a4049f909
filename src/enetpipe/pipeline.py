"""End-to-end evaluation: k-fold splitting, per-fold fitting, metrics,
and the two-selector comparison.

Every per-fold artifact (column standardization, PCA basis, sparse support,
classifier weights) is fit on that fold's training rows only; the held-out
rows are transformed with the frozen parameters. This is load-bearing: the
leakage tests recompute a fold with garbage test rows and require identical
fitted parameters, which they capture by wrapping the fitting functions this
module calls (standardize_columns, pca_fit, elm_train). A FoldOutcome keeps
none of those models: they are dropped once the fold is scored, so a k-fold
run holds one fold's working set, not k folds' fitted models.

A fold's design (its standardization, PCA and re-standardization, fitted on
its training rows only) does not depend on the selector, so with PCA the two
arms of compare_selectors share it: each fold's design is fitted once and
both arms read the same two read-only matrices.

Determinism: all randomness flows from config.seed through the portable
generator. The only nondeterministic report content is wall-clock timing.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (apply_standardization, standardize_columns,
                   validate_feature_matrix)
from .elm import elm_predict, elm_train
from .errors import (ConfigError, DimensionError, EnetPipeError,
                     UndefinedMetricError)
from .pca import pca_fit, pca_transform
from .rng import PortableRng
from .solvers import (PenaltyConfig, elastic_net_fit_cd, lasso_fit,
                      select_support)
from .sven import elastic_net_fit_svm_reduction

__all__ = ["PipelineConfig", "FoldOutcome", "EvaluationReport",
           "ComparisonBlock", "kfold_split", "holdout_split", "accuracy",
           "stddev_population", "signed_targets", "resolve_lambda2",
           "fit_selector", "choose_lambda1", "run_pipeline",
           "compare_selectors"]

SELECTORS = ("lasso", "elastic_net_cd", "elastic_net_svm", "none")

# Errors that fail one fold instead of the whole run.
_FOLD_ERRORS = (EnetPipeError, np.linalg.LinAlgError)

# Number of lambda1 candidates tried by the per-fold internal validation.
_LAMBDA_GRID_POINTS = 5
_LAMBDA_GRID_DECADES = 3.0


@dataclass(frozen=True)
class PipelineConfig:
    selector: str = "elastic_net_cd"
    use_pca: bool = True
    pca_retain: float | int = 0.95
    lambda1: float | None = None      # None: per-fold internal validation
    lambda2: float | None = None      # None: see resolve_lambda2
    stop_thr: float = 1e-7
    max_sweeps: int = 10_000
    elm_gamma: float | None = None    # None: median heuristic
    elm_ridge: float = 100.0
    k_folds: int = 10
    seed: int = 0
    holdout: float | None = None      # test fraction; None = k-fold protocol
    min_support_magnitude: float = 1e-10
    group_name: str = "synthetic"

    def __post_init__(self):
        if self.selector not in SELECTORS:
            raise ConfigError(
                f"unknown selector {self.selector!r}; choose from {SELECTORS}")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.holdout is not None and not 0.0 < self.holdout < 1.0:
            raise ConfigError(
                f"holdout fraction must be in (0, 1), got {self.holdout}")
        if self.lambda1 is not None and self.lambda1 < 0:
            raise ConfigError(f"lambda1 must be >= 0, got {self.lambda1}")
        if self.lambda2 is not None and self.lambda2 < 0:
            raise ConfigError(f"lambda2 must be >= 0, got {self.lambda2}")
        if self.selector == "lasso" and self.lambda2:
            raise ConfigError(
                f"selector lasso has no ridge term; got lambda2={self.lambda2}")


@dataclass
class FoldOutcome:
    fold_index: int
    test_indices: np.ndarray
    accuracy: float | None
    time_ms: float | None             # median per-sample predict latency
    support: np.ndarray | None
    n_candidate_features: int
    lambda1: float | None
    lambda2: float | None
    warnings: tuple = ()
    failure: str | None = None


@dataclass
class ComparisonBlock:
    baseline_selector: str
    proposed_selector: str
    baseline_mean_accuracy: float
    proposed_mean_accuracy: float
    baseline_mean_time_ms: float
    proposed_mean_time_ms: float
    fold_accuracy_deltas: list
    fold_time_deltas_ms: list
    mean_accuracy_delta: float
    mean_time_delta_ms: float
    baseline_folds: list = field(default_factory=list, repr=False)


@dataclass
class EvaluationReport:
    group: str
    selector: str
    k_folds: int
    seed: int
    folds: list
    mean_accuracy: float
    accuracy_sigma: float
    mean_time_ms: float
    # defaulted so that a report JSON without them still loads
    mean_support_size: float = 0.0
    warnings: tuple = ()
    fold_hash: str = ""
    comparison: ComparisonBlock | None = None


def kfold_split(n: int, k: int, seed: int) -> list:
    """k disjoint, covering, size-balanced (within 1) index arrays."""
    if k < 2 or k > n:
        raise ConfigError(f"fold count must satisfy 2 <= k <= {n}, got {k}")
    order = PortableRng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(order, k)]


def holdout_split(n: int, test_fraction: float, seed: int):
    """Single shuffled (train, test) split with ceil(n*fraction) test rows."""
    n_test = max(1, int(np.ceil(n * test_fraction)))
    if n_test >= n:
        raise ConfigError(
            f"holdout fraction {test_fraction} leaves no training rows")
    order = PortableRng(seed).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def accuracy(predictions, truth) -> float:
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise DimensionError(
            f"length mismatch: {predictions.shape} vs {truth.shape}")
    if predictions.size == 0:
        raise UndefinedMetricError("accuracy of an empty set is undefined")
    return float(np.mean(predictions == truth))


def stddev_population(samples) -> float:
    """Population standard deviation: sqrt(sum|x - mean|^2 / n)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise UndefinedMetricError("standard deviation of an empty set is undefined")
    return float(np.sqrt(np.mean(np.abs(samples - samples.mean()) ** 2)))


def _fold_hash(folds) -> str:
    digest = hashlib.sha256()
    for fold in folds:
        digest.update(np.asarray(fold, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def signed_targets(labels) -> np.ndarray:
    """Map a two-class label vector to -1 (lower class) and +1 targets."""
    classes = np.unique(labels)
    if classes.shape[0] != 2:
        raise ConfigError(
            f"sparse selection needs exactly 2 classes, got {classes.shape[0]}; "
            "use selector='none' for other label sets")
    return np.where(labels == classes[0], -1.0, 1.0)


def resolve_lambda2(selector: str, lambda1: float,
                    lambda2: float | None) -> float:
    """The ridge weight to fit with: lambda2 when given, else 0 for lasso
    and 0.5 * lambda1 for the elastic-net selectors."""
    if lambda2 is not None:
        return lambda2
    return 0.0 if selector == "lasso" else 0.5 * lambda1


def fit_selector(X, y, selector: str, lambda1: float, lambda2: float,
                 cfg: PipelineConfig):
    """Fit the named sparse selector with cfg's stopping rule."""
    pen = PenaltyConfig(lambda1=lambda1, lambda2=lambda2,
                        stop_thr=cfg.stop_thr, max_sweeps=cfg.max_sweeps)
    if selector == "lasso":
        return lasso_fit(X, y, pen)
    if selector == "elastic_net_cd":
        return elastic_net_fit_cd(X, y, pen)
    if selector == "elastic_net_svm":
        if lambda2 <= 0.0:
            raise ConfigError(
                "selector elastic_net_svm needs lambda2 > 0")
        return elastic_net_fit_svm_reduction(X, y, pen)
    raise ConfigError(f"selector {selector!r} does not fit coefficients")


def choose_lambda1(X, y, cfg: PipelineConfig, seed: int):
    """5-point log-grid internal validation of cfg.selector on an 80/20
    split of the training fold; ties prefer the larger (sparser) lambda1."""
    n = X.shape[0]
    n_val = max(1, n // 5)
    if n - n_val < 2:
        # too small to validate; fall back to a mid-grid value
        lam_max = float(np.abs(X.T @ y).max()) / n
        return max(lam_max * 10.0 ** (-_LAMBDA_GRID_DECADES / 2.0), 1e-12)
    order = PortableRng(seed).permutation(n)
    fit_idx, val_idx = order[n_val:], order[:n_val]
    X_fit, rec = standardize_columns(X[fit_idx])
    y_fit = y[fit_idx]
    X_val = apply_standardization(rec, X[val_idx])
    lam_max = float(np.abs(X_fit.T @ y_fit).max()) / X_fit.shape[0]
    if lam_max <= 0.0:
        return 1e-12
    grid = lam_max * 10.0 ** np.linspace(-_LAMBDA_GRID_DECADES, 0.0,
                                         _LAMBDA_GRID_POINTS)
    best_lam, best_mse = None, np.inf
    for lam in grid:
        result = fit_selector(X_fit, y_fit, cfg.selector, lam,
                              resolve_lambda2(cfg.selector, lam, cfg.lambda2),
                              cfg)
        resid = y[val_idx] - X_val @ result.coefficients
        mse = float(resid @ resid) / len(val_idx)
        if mse <= best_mse:          # ascending grid, so ties keep larger lam
            best_lam, best_mse = lam, mse
    return float(best_lam)


@dataclass(frozen=True)
class _FoldDesign:
    """A fold's data after the preprocessing fitted on its training rows;
    the matrices are read-only, so selector arms can share it."""
    X_train: np.ndarray
    X_test: np.ndarray


def _prepare_fold(cfg: PipelineConfig, X, train_idx, test_idx) -> _FoldDesign:
    X_train, record = standardize_columns(X[train_idx])
    X_test = apply_standardization(record, X[test_idx])

    if cfg.use_pca:
        pca_model = pca_fit(X_train, retain=cfg.pca_retain)
        X_train = pca_transform(pca_model, X_train)
        X_test = pca_transform(pca_model, X_test)

    # The selector contract requires unit-variance columns, and PCA output
    # does not have them; re-standardize on the training rows.
    X_train, record = standardize_columns(X_train)
    X_test = apply_standardization(record, X_test)
    X_train.flags.writeable = X_test.flags.writeable = False
    return _FoldDesign(X_train, X_test)


def _evaluate_fold(cfg: PipelineConfig, design: _FoldDesign, labels,
                   train_idx, test_idx, fold_index: int) -> FoldOutcome:
    warnings = []
    X_train, X_test = design.X_train, design.X_test
    y_train_labels = labels[train_idx]
    y_test_labels = labels[test_idx]

    lambda1 = cfg.lambda1
    lambda2 = cfg.lambda2
    support = np.arange(X_train.shape[1])
    if cfg.selector != "none":
        y_signed = signed_targets(labels)[train_idx]
        if lambda1 is None:
            lambda1 = choose_lambda1(X_train, y_signed, cfg,
                                     seed=cfg.seed + 9973 * (fold_index + 1))
        lambda2 = resolve_lambda2(cfg.selector, lambda1, lambda2)
        result = fit_selector(X_train, y_signed, cfg.selector,
                              lambda1, lambda2, cfg)
        if not result.converged:
            warnings.append(
                f"fold {fold_index}: selector did not converge in "
                f"{cfg.max_sweeps} sweeps")
        support = select_support(result, cfg.min_support_magnitude)
        if support.size == 0:
            warnings.append(
                f"fold {fold_index}: empty support, falling back to all "
                f"{X_train.shape[1]} features")
            support = np.arange(X_train.shape[1])

    model = elm_train(X_train[:, support], y_train_labels,
                      gamma=cfg.elm_gamma, ridge_c=cfg.elm_ridge)
    X_test_sel = X_test[:, support]
    predictions = np.empty(len(test_idx), dtype=y_test_labels.dtype)
    latencies = np.empty(len(test_idx))
    for i in range(len(test_idx)):
        started = time.perf_counter()
        scored = elm_predict(model, X_test_sel[i:i + 1])
        latencies[i] = time.perf_counter() - started
        predictions[i] = model.classes[scored.predicted_class[0]]

    return FoldOutcome(
        fold_index=fold_index,
        test_indices=np.asarray(test_idx),
        accuracy=accuracy(predictions, y_test_labels),
        time_ms=float(np.median(latencies) * 1000.0),
        support=support,
        n_candidate_features=X_train.shape[1],
        lambda1=lambda1,
        lambda2=lambda2,
        warnings=tuple(warnings),
    )


def _folds_for(cfg: PipelineConfig, n: int):
    if cfg.holdout is not None:
        _, test_idx = holdout_split(n, cfg.holdout, cfg.seed)
        return [test_idx]
    if cfg.k_folds > n:
        raise ConfigError(
            f"k_folds={cfg.k_folds} exceeds the sample count {n}")
    return kfold_split(n, cfg.k_folds, cfg.seed)


def run_pipeline(cfg: PipelineConfig, features, labels, *,
                 designs: dict | None = None) -> EvaluationReport:
    """Evaluate cfg's pipeline on every fold of features and labels.

    designs, when given, is shared by calls on the same data whose configs
    differ only in selector and lambda2 (see compare_selectors): the first
    call stores each fold's design, or the error its preparation raised,
    under the fold index, and later calls reuse it.
    """
    X = validate_feature_matrix(features)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise DimensionError(
            f"labels have shape {labels.shape}, expected ({X.shape[0]},)")

    folds = _folds_for(cfg, X.shape[0])
    all_indices = np.arange(X.shape[0])
    outcomes = []
    for fold_index, test_idx in enumerate(folds):
        train_mask = np.ones(X.shape[0], dtype=bool)
        train_mask[test_idx] = False
        train_idx = all_indices[train_mask]
        design = None if designs is None else designs.get(fold_index)
        if design is None:
            try:
                design = _prepare_fold(cfg, X, train_idx, test_idx)
            except _FOLD_ERRORS as exc:
                design = exc          # every sharing arm records this failure
            if designs is not None:
                designs[fold_index] = design
        try:
            if isinstance(design, Exception):
                raise design
            outcome = _evaluate_fold(cfg, design, labels, train_idx, test_idx,
                                     fold_index)
        except _FOLD_ERRORS as exc:
            outcome = FoldOutcome(
                fold_index=fold_index, test_indices=np.asarray(test_idx),
                accuracy=None, time_ms=None, support=None,
                n_candidate_features=0, lambda1=None, lambda2=None,
                failure=f"{type(exc).__name__}: {exc}")
        outcomes.append(outcome)

    completed = [o for o in outcomes if o.failure is None]
    if not completed:
        raise EnetPipeError(
            "every fold failed; first failure: " + outcomes[0].failure)
    accuracies = [o.accuracy for o in completed]
    warnings = tuple(w for o in outcomes for w in o.warnings) + tuple(
        f"fold {o.fold_index} failed: {o.failure}"
        for o in outcomes if o.failure is not None)
    return EvaluationReport(
        group=cfg.group_name,
        selector=cfg.selector,
        k_folds=len(folds),
        seed=cfg.seed,
        folds=outcomes,
        mean_accuracy=float(np.mean(accuracies)),
        accuracy_sigma=stddev_population(accuracies),
        mean_time_ms=float(np.mean([o.time_ms for o in completed])),
        mean_support_size=float(np.mean([o.support.size for o in completed])),
        warnings=warnings,
        fold_hash=_fold_hash(folds),
    )


def compare_selectors(cfg: PipelineConfig, features, labels,
                      baseline: str = "lasso",
                      proposed: str | None = None) -> EvaluationReport:
    """Run two selector arms on identical folds and attach paired deltas."""
    proposed = proposed if proposed is not None else cfg.selector
    # an explicit ridge weight belongs to the elastic-net arm only
    base_cfg = replace(cfg, selector=baseline,
                       lambda2=None if baseline == "lasso" else cfg.lambda2)
    # Both arms see each fold's standardization and PCA, fitted once.
    # Without PCA a design is as large as the fold's rows and cheap to
    # rebuild, so each arm builds its own instead of holding all k of them.
    designs = {} if cfg.use_pca else None
    base_report = run_pipeline(base_cfg, features, labels, designs=designs)
    prop_report = run_pipeline(replace(cfg, selector=proposed), features,
                               labels, designs=designs)
    if base_report.fold_hash != prop_report.fold_hash:
        raise EnetPipeError(
            "comparison arms received different fold assignments")

    acc_deltas, time_deltas = [], []
    for b, p in zip(base_report.folds, prop_report.folds):
        if b.failure is None and p.failure is None:
            acc_deltas.append(p.accuracy - b.accuracy)
            time_deltas.append(p.time_ms - b.time_ms)
    comparison = ComparisonBlock(
        baseline_selector=baseline,
        proposed_selector=proposed,
        baseline_mean_accuracy=base_report.mean_accuracy,
        proposed_mean_accuracy=prop_report.mean_accuracy,
        baseline_mean_time_ms=base_report.mean_time_ms,
        proposed_mean_time_ms=prop_report.mean_time_ms,
        fold_accuracy_deltas=acc_deltas,
        fold_time_deltas_ms=time_deltas,
        mean_accuracy_delta=float(np.mean(acc_deltas)) if acc_deltas else 0.0,
        mean_time_delta_ms=float(np.mean(time_deltas)) if time_deltas else 0.0,
        baseline_folds=base_report.folds,
    )
    return replace(prop_report, comparison=comparison,
                   warnings=base_report.warnings + prop_report.warnings)
