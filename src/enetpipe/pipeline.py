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

A fold's design (its standardization, optional PCA and re-standardization,
fitted on its training rows only) does not depend on the selector, so
run_pipeline is the one fold loop for both arms of a comparison: it fits each
fold's design once, every arm reads the same two read-only matrices, and the
design is dropped before the next fold. The classifier depends on the arm
only through its support and ELM settings, so arms that agree on them share
one; each arm still times its own predictions (see _evaluate_fold).

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
from .elm import DEFAULT_RIDGE_C, elm_predict, elm_train, predicted_labels
from .errors import (ConfigError, DimensionError, EnetPipeError,
                     UndefinedMetricError)
from .pca import pca_fit, pca_transform
from .rng import PortableRng
from .solvers import (PenaltyConfig, elastic_net_fit_cd, lasso_fit,
                      select_support)
from .sven import elastic_net_fit_svm_reduction

__all__ = ["PipelineConfig", "FoldOutcome", "EvaluationReport",
           "ComparisonBlock", "kfold_split", "holdout_split", "accuracy",
           "stddev_population", "run_pipeline", "compare_selectors"]

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
    elm_gamma: float | None = None    # None: median heuristic
    elm_ridge: float = DEFAULT_RIDGE_C
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
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < np.inf:
                raise ConfigError(
                    f"{name} must be finite and >= 0, got {value}")
        if self.elm_gamma is not None and not 0.0 < self.elm_gamma < np.inf:
            raise ConfigError(
                f"elm_gamma must be finite and > 0, got {self.elm_gamma}")
        if not self.elm_ridge > 0.0:        # inf: no ridge term
            raise ConfigError(f"elm_ridge must be > 0, got {self.elm_ridge}")
        retain = self.pca_retain        # a count or a variance fraction
        is_count = (isinstance(retain, (int, np.integer))
                    and not isinstance(retain, bool))
        if not (retain >= 1 if is_count else 0.0 < retain <= 1.0):
            raise ConfigError("pca_retain must be an int >= 1 or a float "
                              f"in (0, 1], got {retain}")
        if self.selector == "lasso" and self.lambda2:
            raise ConfigError(
                f"selector lasso has no ridge term; got lambda2={self.lambda2}")
        # lambda2 unset is 0.5 * lambda1 (resolve_lambda2)
        if self.selector == "elastic_net_svm" and (
                self.lambda2 == 0.0
                or self.lambda2 is None and self.lambda1 == 0.0):
            raise ConfigError("selector elastic_net_svm needs lambda2 > 0; "
                              f"got lambda1={self.lambda1}, "
                              f"lambda2={self.lambda2}")


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


def fit_selector(X, y, selector: str, lambda1: float, lambda2: float):
    """Fit the named sparse selector with PenaltyConfig's default stopping
    rule; the SVM route raises ConfigError unless lambda2 > 0."""
    pen = PenaltyConfig(lambda1, lambda2)
    if selector == "lasso":
        return lasso_fit(X, y, pen)
    if selector == "elastic_net_cd":
        return elastic_net_fit_cd(X, y, pen)
    if selector == "elastic_net_svm":
        return elastic_net_fit_svm_reduction(X, y, pen)
    raise ConfigError(f"selector {selector!r} fits no coefficients; pick "
                      "lasso, elastic_net_cd, or elastic_net_svm")


def _not_converged(selector: str, result) -> str:
    """The note's tail for an unconverged fit: ``sweeps_used`` counts CD
    sweeps, or the SVM route's budget solves."""
    unit = "budget solves" if selector == "elastic_net_svm" else "sweeps"
    return f"did not converge in {result.sweeps_used} {unit}"


def choose_lambda1(X, y, cfg: PipelineConfig, seed: int):
    """5-point log-grid internal validation of cfg.selector on an 80/20
    split of the training fold; ties prefer the larger (sparser) lambda1.
    Returns (lambda1, notes), one note for each grid fit that stopped
    unconverged; such a fit still competes."""
    n = X.shape[0]
    n_val = max(1, n // 5)
    if n - n_val < 2:
        # too small to validate; fall back to a mid-grid value
        lam_max = float(np.abs(X.T @ y).max()) / n
        return max(lam_max * 10.0 ** (-_LAMBDA_GRID_DECADES / 2.0), 1e-12), []
    order = PortableRng(seed).permutation(n)
    fit_idx, val_idx = order[n_val:], order[:n_val]
    X_fit, rec = standardize_columns(X[fit_idx])
    y_fit = y[fit_idx]
    X_val = apply_standardization(rec, X[val_idx])
    lam_max = float(np.abs(X_fit.T @ y_fit).max()) / X_fit.shape[0]
    if lam_max <= 0.0:
        return 1e-12, []
    grid = lam_max * 10.0 ** np.linspace(-_LAMBDA_GRID_DECADES, 0.0,
                                         _LAMBDA_GRID_POINTS)
    best_lam, best_mse = None, np.inf
    notes = []
    for lam in grid:
        result = fit_selector(X_fit, y_fit, cfg.selector, lam,
                              resolve_lambda2(cfg.selector, lam, cfg.lambda2))
        if not result.converged:
            notes.append(f"lambda1 grid fit at {lam:.6g} "
                         + _not_converged(cfg.selector, result))
        resid = y[val_idx] - X_val @ result.coefficients
        mse = float(resid @ resid) / len(val_idx)
        if mse <= best_mse:          # ascending grid, so ties keep larger lam
            best_lam, best_mse = lam, mse
    return float(best_lam), notes


def fit_penalized(X, y, cfg: PipelineConfig, seed: int):
    """Fit cfg's selector: lambda1 is cfg.lambda1, or choose_lambda1's
    validation-grid choice seeded by seed when that is unset, and lambda2
    is resolve_lambda2's. Returns (result, lambda1, lambda2, notes): the
    notes are choose_lambda1's, then one more if the fit itself stopped
    unconverged."""
    lambda1, notes = cfg.lambda1, []
    if lambda1 is None:
        lambda1, notes = choose_lambda1(X, y, cfg, seed=seed)
    lambda2 = resolve_lambda2(cfg.selector, lambda1, cfg.lambda2)
    result = fit_selector(X, y, cfg.selector, lambda1, lambda2)
    if not result.converged:
        notes.append("selector " + _not_converged(cfg.selector, result))
    return result, lambda1, lambda2, notes


def _prepare_fold(cfg: PipelineConfig, X, train_idx, test_idx):
    """A fold's training and test matrices after the preprocessing fitted
    on its training rows; both are read-only, so selector arms share them."""
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
    return X_train, X_test


def _select_fold(cfg: PipelineConfig, X_train, targets, train_idx, test_idx,
                 fold_index: int) -> FoldOutcome:
    """One arm's support on one fold, as an outcome whose accuracy and
    time_ms _score_fold sets; targets are signed_targets(labels), or None
    for selector 'none'."""
    warnings = []
    lambda1, lambda2 = cfg.lambda1, cfg.lambda2
    support = np.arange(X_train.shape[1])
    if cfg.selector != "none":
        result, lambda1, lambda2, notes = fit_penalized(
            X_train, targets[train_idx], cfg,
            seed=cfg.seed + 9973 * (fold_index + 1))
        warnings += [f"fold {fold_index}: {note}" for note in notes]
        support = select_support(result.coefficients,
                                 cfg.min_support_magnitude)
        if support.size == 0:
            warnings.append(
                f"fold {fold_index}: empty support, falling back to all "
                f"{X_train.shape[1]} features")
            support = np.arange(X_train.shape[1])

    return FoldOutcome(
        fold_index=fold_index,
        test_indices=np.asarray(test_idx),
        accuracy=None,
        time_ms=None,
        support=support,
        n_candidate_features=X_train.shape[1],
        lambda1=lambda1,
        lambda2=lambda2,
        warnings=tuple(warnings),
    )


def _score_fold(outcome: FoldOutcome, model, X_test, y_test) -> None:
    """Set outcome's accuracy and time_ms, the median latency of one
    elm_predict call on one test row. Only those calls are timed; the
    labels come from one predicted_labels call on all rows' scores after
    the loop, the same argmax row by row."""
    X_test_sel = X_test[:, outcome.support]
    scores = np.empty((len(y_test), model.classes.shape[0]))
    latencies = np.empty(len(y_test))
    for i in range(len(y_test)):
        started = time.perf_counter()
        row_scores = elm_predict(model, X_test_sel[i:i + 1])
        latencies[i] = time.perf_counter() - started
        scores[i] = row_scores[0]
    outcome.accuracy = accuracy(predicted_labels(model, scores), y_test)
    outcome.time_ms = float(np.median(latencies) * 1000.0)


def _evaluate_fold(arms, X_train, X_test, labels, targets, train_idx,
                   test_idx, fold_index: int) -> list:
    """Every arm's outcome on one fold. All arms select before a classifier
    is trained, and an arm whose support and ELM settings match the arm
    before it reuses that arm's classifier, so the fold holds one
    classifier at a time."""
    outcomes = []
    for arm in arms:
        try:
            outcomes.append(_select_fold(arm, X_train, targets, train_idx,
                                         test_idx, fold_index))
        except _FOLD_ERRORS as exc:
            outcomes.append(_failed_fold(fold_index, test_idx, exc))
    key = model = None
    for index, (arm, outcome) in enumerate(zip(arms, outcomes)):
        if outcome.failure is not None:
            continue
        try:
            wanted = (outcome.support.tobytes(), arm.elm_gamma, arm.elm_ridge)
            if wanted != key:
                key = model = None      # freed before the next one trains
                model = elm_train(X_train[:, outcome.support],
                                  labels[train_idx], gamma=arm.elm_gamma,
                                  ridge_c=arm.elm_ridge)
                key = wanted
            _score_fold(outcome, model, X_test, labels[test_idx])
        except _FOLD_ERRORS as exc:
            outcomes[index] = _failed_fold(fold_index, test_idx, exc)
    return outcomes


def _folds_for(cfg: PipelineConfig, n: int):
    if cfg.holdout is not None:
        _, test_idx = holdout_split(n, cfg.holdout, cfg.seed)
        return [test_idx]
    return kfold_split(n, cfg.k_folds, cfg.seed)


def _failed_fold(fold_index: int, test_idx, exc) -> FoldOutcome:
    return FoldOutcome(
        fold_index=fold_index, test_indices=np.asarray(test_idx),
        accuracy=None, time_ms=None, support=None, n_candidate_features=0,
        lambda1=None, lambda2=None, failure=f"{type(exc).__name__}: {exc}")


def _arm_report(cfg: PipelineConfig, folds, outcomes) -> EvaluationReport:
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


def run_pipeline(cfg: PipelineConfig, features, labels, *,
                 baseline: str | None = None) -> EvaluationReport:
    """Evaluate cfg's pipeline on every fold of features and labels.

    With baseline, that selector's arm is scored first, on the same folds
    and the same design of each fold, and cfg's report carries the paired
    ComparisonBlock and the baseline's warnings before its own; a lasso
    baseline ignores cfg.lambda2.
    """
    X = validate_feature_matrix(features)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
        raise DimensionError(
            f"labels have shape {labels.shape}, expected ({X.shape[0]},)")

    arms = [cfg]
    if baseline is not None:
        arms.insert(0, replace(
            cfg, selector=baseline,
            lambda2=None if baseline == "lasso" else cfg.lambda2))
    # a label set the selectors cannot take fails here, not in every fold
    targets = None
    if any(arm.selector != "none" for arm in arms):
        targets = signed_targets(labels)
    folds = _folds_for(cfg, X.shape[0])
    all_indices = np.arange(X.shape[0])
    outcomes = [[] for _ in arms]
    for fold_index, test_idx in enumerate(folds):
        train_mask = np.ones(X.shape[0], dtype=bool)
        train_mask[test_idx] = False
        train_idx = all_indices[train_mask]
        try:
            design = _prepare_fold(cfg, X, train_idx, test_idx)
        except _FOLD_ERRORS as exc:
            for arm_outcomes in outcomes:
                arm_outcomes.append(_failed_fold(fold_index, test_idx, exc))
            continue
        fold_outcomes = _evaluate_fold(arms, *design, labels, targets,
                                       train_idx, test_idx, fold_index)
        for arm_outcomes, outcome in zip(outcomes, fold_outcomes):
            arm_outcomes.append(outcome)
        del design

    reports = [_arm_report(arm, folds, arm_outcomes)
               for arm, arm_outcomes in zip(arms, outcomes)]
    if baseline is None:
        return reports[0]
    base_report, prop_report = reports
    acc_deltas, time_deltas = [], []
    for b, p in zip(base_report.folds, prop_report.folds):
        if b.failure is None and p.failure is None:
            acc_deltas.append(p.accuracy - b.accuracy)
            time_deltas.append(p.time_ms - b.time_ms)
    comparison = ComparisonBlock(
        baseline_selector=baseline,
        proposed_selector=cfg.selector,
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


def compare_selectors(cfg: PipelineConfig, features, labels,
                      baseline: str = "lasso") -> EvaluationReport:
    """Run the baseline and cfg's selector on identical folds and attach
    paired deltas: run_pipeline with baseline."""
    return run_pipeline(cfg, features, labels, baseline=baseline)
