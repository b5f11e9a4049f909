"""Dimensionality reduction plus the kernel extreme-learning classifier.

Builds three Gaussian blobs in a 10-D space where only two directions
matter, compresses with PCA, and classifies the held-out rows.
"""

import numpy as np

from enetpipe import (PortableRng, accuracy, elm_predict, elm_train,
                      pca_fit, pca_transform, predicted_labels)


def main():
    rng = PortableRng(21)
    centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
    planar = np.vstack([rng.normal_matrix(80, 2) + c for c in centers])
    labels = np.repeat([0.0, 1.0, 2.0], 80)
    # embed the 2-D structure in 10-D with a random rotation plus noise
    embed = rng.normal_matrix(2, 10)
    X = planar @ embed + 0.05 * rng.normal_matrix(240, 10)

    order = rng.permutation(len(X))
    train, test = order[:160], order[160:]

    model = pca_fit(X[train], retain=0.95)
    print(f"PCA keeps {model.n_components} of 10 directions at 95% variance")
    print("explained variance:", np.round(model.explained_variance, 3))

    Z_train = pca_transform(model, X[train])
    Z_test = pca_transform(model, X[test])

    clf = elm_train(Z_train, labels[train])     # median-heuristic gamma
    print(f"median-heuristic kernel width gamma = {clf.gamma:.4f}")
    predictions = predicted_labels(clf, elm_predict(clf, Z_test))
    print(f"holdout accuracy: {accuracy(predictions, labels[test]):.3f}")


if __name__ == "__main__":
    main()
