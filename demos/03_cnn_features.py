"""Patch extraction and the convolutional feature network on 3-D volumes.

Cuts 2.5-D patches (three orthogonal planes around a grid of centers)
out of a synthetic volume, prints the network's stage shapes, trains
briefly on a toy labeling, and extracts a per-volume feature vector.
"""

import numpy as np

from enetpipe import (CnnConfig, PortableRng, Volume3D, cnn_init,
                      cnn_train_sgd, default_patch_centers,
                      extract_image_features, extract_patch_2_5d)


def main():
    cfg = CnnConfig()
    print("network stage shapes (channels, height, width):")
    for shape in cfg.stage_trace():
        print("   ", shape)
    print(f"flattened feature length per patch: {cfg.feature_length}")

    rng = PortableRng(33)
    side = 48
    vol = Volume3D(rng.normal_matrix(side * side, side)
                   .reshape(side, side, side))
    centers = default_patch_centers(vol.voxels.shape, 8)
    print(f"\n{len(centers)} patch centers on a {vol.voxels.shape} volume")

    patch = extract_patch_2_5d(vol, centers[0])
    print(f"one patch: a {patch.dtype} array of shape {patch.shape} "
          f"around center {centers[0]}")

    # toy task: separate bright patches from dark ones
    patches, labels = [], []
    for i, c in enumerate(centers):
        shift = 1.0 if i % 2 == 0 else -1.0
        patches.append(extract_patch_2_5d(vol, c) + shift)
        labels.append(i % 2)
    net = cnn_init(cfg, seed=3)
    result = cnn_train_sgd(net, patches, labels, epochs=3,
                           learning_rate=0.002, batch_size=4, seed=4)
    print(f"\ntrained 3 epochs: loss {result.epoch_losses[0]:.3f} "
          f"-> {result.epoch_losses[-1]:.3f}, diverged={result.diverged}")

    features = extract_image_features(result.network, vol, centers)
    print(f"per-volume feature vector: {features.shape} "
          f"({len(centers)} centers x {cfg.feature_length})")


if __name__ == "__main__":
    main()
