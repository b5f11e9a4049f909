"""End-to-end paired comparison of the two sparse selectors.

Generates a correlated-group dataset with an exactly duplicated column,
runs both pipeline arms on identical folds, and prints the rendered
report. The duplicated pair makes the selector behaviors visible: the
elastic net keeps both twins, the lasso keeps exactly one.
"""

import tempfile

import numpy as np

from enetpipe import (PipelineConfig, SyntheticSpec, compare_selectors,
                      generate_synthetic)
from enetpipe.report import emit_report


def main():
    spec = SyntheticSpec(n_samples=200, n_informative_groups=3, group_size=3,
                         within_group_correlation=0.7, noise_std=0.3,
                         n_noise_features=8, seed=2026)
    X, labels, support = generate_synthetic(spec)
    X = np.insert(X, 1, X[:, 0], axis=1)   # duplicate column 0 next to itself
    print(f"dataset: {X.shape[0]} samples, {X.shape[1]} features, "
          f"{len(support)} informative plus one exact duplicate\n")

    cfg = PipelineConfig(k_folds=10, seed=12, use_pca=False,
                         lambda1=0.02, lambda2=0.01,
                         min_support_magnitude=1e-8, group_name="demo")
    report = compare_selectors(cfg, X, labels)

    for outcome in report.folds:
        twins = sorted(set(outcome.support.tolist()) & {0, 1})
        print(f"elastic net fold {outcome.fold_index}: "
              f"keeps twins {twins}, support size {len(outcome.support)}")
    for outcome in report.comparison.baseline_folds:
        twins = sorted(set(outcome.support.tolist()) & {0, 1})
        print(f"lasso fold {outcome.fold_index}: keeps twins {twins}, "
              f"support size {len(outcome.support)}")

    print()
    with tempfile.TemporaryDirectory() as out:
        print(emit_report(report, "text-table", out).read_text())


if __name__ == "__main__":
    main()
