"""Walk through the sparse solvers on a small synthetic regression.

Shows the soft-thresholding building block, the lasso/elastic-net
coordinate descent fits, what happens on exactly duplicated columns,
and the SVM-reduction route arriving at the same optimum.
"""

import numpy as np

from enetpipe import (PenaltyConfig, PortableRng, elastic_net_fit_cd,
                      elastic_net_fit_svm_reduction, kkt_violation,
                      lasso_fit, select_support, soft_threshold,
                      standardize_columns)


def main():
    print("soft threshold: S(z, t) shrinks toward zero and clips")
    for z in (1.5, 0.3, -2.0):
        print(f"  S({z:+.1f}, 0.5) = {soft_threshold(z, 0.5):+.2f}")

    rng = PortableRng(7)
    n = 60
    base = rng.normal_matrix(n, 5)
    X, _ = standardize_columns(base)
    # plant a sparse signal, then duplicate its strongest column
    y = 2.0 * X[:, 0] + -1.2 * X[:, 3] + 0.1 * rng.normals(n)
    X_dup = np.insert(X, 1, X[:, 0], axis=1)

    cfg = PenaltyConfig(lambda1=0.1)
    lasso = lasso_fit(X_dup, y, cfg)
    print("\nlasso on duplicated columns (0 and 1 are identical):")
    print("  coefficients:", np.round(lasso.coefficients, 4))
    print("  support:", select_support(lasso.coefficients, min_magnitude=1e-8).tolist())
    print("  -> the L1 penalty picks one twin and drops the other")

    enet_cfg = PenaltyConfig(lambda1=0.1, lambda2=0.1, stop_thr=1e-9)
    enet = elastic_net_fit_cd(X_dup, y, enet_cfg)
    b = enet.coefficients
    print("\nelastic net on the same data:")
    print("  coefficients:", np.round(b, 4))
    print(f"  twin gap |b0 - b1| = {abs(b[0] - b[1]):.2e}")
    print("  -> the ridge term splits the weight evenly across twins")

    print(f"\nKKT violation at the elastic-net optimum: "
          f"{kkt_violation(X_dup, y, enet_cfg, b):.2e}")

    sven = elastic_net_fit_svm_reduction(X_dup, y, enet_cfg)
    gap = abs(sven.objective_value - enet.objective_value)
    print(f"SVM-reduction route objective gap vs coordinate descent: "
          f"{gap:.2e}")


if __name__ == "__main__":
    main()
