import hashlib
import itertools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from enetpipe import (CnnConfig, CnnNetwork, PortableRng, Volume3D,
                      cnn_init, cnn_loss_grad, cnn_train_sgd,
                      default_patch_centers, extract_image_features,
                      extract_patch_2_5d, load_cnn, save_cnn)
import enetpipe.cnn
from enetpipe.cnn import (_NO_GRADIENT, _forward_batch, _pool_then_rectify,
                          _unpool)
from enetpipe.errors import (ConfigError, ContractError, DataError,
                             DimensionError, NumericalError)

from helpers import (MALFORMED_NETWORK_EDITS, forward_batch,
                     helper_share_ones, reference_forward_features,
                     reference_maxpool, reference_pool_index,
                     reference_unpool, save_malformed_network)

# small configuration for everything gradient- or training-related;
# the full-size network is exercised by the acceptance suite
TINY = CnnConfig(input_size=8, channels=(4, 5, 6))


def test_default_configuration_stage_trace():
    cfg = CnnConfig()
    assert cfg.stage_trace() == [(32, 32, 32), (32, 16, 16), (64, 16, 16),
                                 (64, 8, 8), (64, 8, 8), (64, 4, 4)]
    assert cfg.feature_length == 1024


def test_config_validation():
    with pytest.raises(ConfigError):
        CnnConfig(input_size=30)           # not divisible by 8
    with pytest.raises(ConfigError):
        CnnConfig(channels=(8, 8))         # needs three stages


def test_forward_shapes_probabilities_and_nonnegative_features():
    net = cnn_init(TINY, seed=1)
    x = PortableRng(2).normals(3 * 8 * 8).reshape(1, 3, 8, 8)
    (features,), (probs,) = forward_batch(net, x)
    assert features.shape == (TINY.feature_length,)
    assert np.all(features >= 0.0)         # post-ReLU activations
    assert probs.shape == (2,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_network_gives_uniform_probabilities():
    net = cnn_init(TINY, seed=0)
    for p in net.parameters():
        p[...] = 0.0
    features, probs = forward_batch(net, np.zeros((1, 3, 8, 8)))
    np.testing.assert_array_equal(features, 0.0)
    np.testing.assert_allclose(probs, 0.5, atol=1e-15)


def test_batch_forward_matches_single():
    net = cnn_init(TINY, seed=3)
    batch = PortableRng(4).normals(5 * 3 * 8 * 8).reshape(5, 3, 8, 8)
    feats, probs = forward_batch(net, batch)
    (f0,), (p0,) = forward_batch(net, batch[:1])
    np.testing.assert_allclose(feats[0], f0, atol=1e-14)
    np.testing.assert_allclose(probs[0], p0, atol=1e-14)


def test_gradient_check_against_central_differences():
    net = cnn_init(TINY, seed=5)
    rng = PortableRng(6)
    batch = rng.normals(4 * 3 * 8 * 8).reshape(4, 3, 8, 8)
    labels = np.array([0, 1, 1, 0])
    _, grads = cnn_loss_grad(net, batch, labels)

    step = 1e-5
    worst = 0.0
    for param, grad in zip(net.parameters(), grads.parameters()):
        flat_p = param.ravel()
        flat_g = grad.ravel()
        # probe a deterministic sample of coordinates in each tensor
        for k in range(0, flat_p.size, max(1, flat_p.size // 9)):
            saved = flat_p[k]
            flat_p[k] = saved + step
            up, _ = cnn_loss_grad(net, batch, labels)
            flat_p[k] = saved - step
            down, _ = cnn_loss_grad(net, batch, labels)
            flat_p[k] = saved
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(numeric), abs(flat_g[k]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[k]) / denom)
    assert worst <= 1e-4


def test_maxpool_tie_routes_to_first_window_entry():
    x = np.ones((1, 1, 2, 2))
    pooled, idx = _pool_then_rectify(x, want_index=True)
    assert pooled[0, 0, 0, 0] == 1.0
    assert idx[0, 0, 0, 0] == 0    # row-major first entry wins ties
    grad = _unpool(np.full((1, 1, 1, 1), 2.0), idx)
    np.testing.assert_array_equal(grad[0, 0], [[2.0, 0.0], [0.0, 0.0]])


def test_training_reduces_loss_on_separable_patches():
    rng = PortableRng(7)
    n_per = 20
    a = rng.normals(n_per * 3 * 8 * 8).reshape(n_per, 3, 8, 8) - 1.0
    b = rng.normals(n_per * 3 * 8 * 8).reshape(n_per, 3, 8, 8) + 1.0
    batch = np.concatenate([a, b])
    labels = np.concatenate([np.zeros(n_per, int), np.ones(n_per, int)])
    net = cnn_init(TINY, seed=8)
    start, _ = cnn_loss_grad(net, batch, labels)
    result = cnn_train_sgd(net, batch, labels, epochs=10, learning_rate=0.005,
                           seed=9, batch_size=8)
    assert not result.diverged
    assert result.final_loss < start
    _, probs = forward_batch(result.network, batch)
    accuracy = np.mean(np.argmax(probs, axis=1) == labels)
    assert accuracy >= 0.95


def test_divergent_learning_rate_returns_last_finite_checkpoint():
    # a merely huge rate parks the net in a dead-ReLU oscillation with
    # bounded loss; this one overflows the very next forward pass
    rng = PortableRng(10)
    batch = rng.normals(8 * 3 * 8 * 8).reshape(8, 3, 8, 8)
    labels = np.array([0, 1] * 4)
    net = cnn_init(TINY, seed=11)
    with np.errstate(invalid="ignore", over="ignore"):
        result = cnn_train_sgd(net, batch, labels, epochs=2,
                               learning_rate=1e300, seed=12, batch_size=4)
    assert result.diverged
    for p in result.network.parameters():
        assert np.all(np.isfinite(p))
    # the checkpoint is the pre-explosion net, so its loss is still sane
    loss, _ = cnn_loss_grad(result.network, batch, labels)
    assert np.isfinite(loss)


# Both rates overflow stage 2 of the next forward pass; the expected values
# are those of the argmax pool that turned that overflow into a NaN loss.
@pytest.mark.parametrize("learning_rate, digest, final_loss, epoch_losses", [
    (1e300, "b38c3eab72dff2448b07776ae4338eb205201014dc2dd24c87543a03250bc84c",
     1.1604158723501878, []),
    (1e50, "1712c314fff2e987037478bc74692cfe530a633f2580d3b8e18bdd06eddcea70",
     1.7419193336530066e+202, [8.709596668265033e+201]),
])
def test_diverging_sgd_keeps_pinned_checkpoint(learning_rate, digest,
                                               final_loss, epoch_losses):
    batch = PortableRng(10).normals(8 * 3 * 8 * 8).reshape(8, 3, 8, 8)
    labels = np.array([0, 1] * 4)
    with np.errstate(invalid="ignore", over="ignore"):
        result = cnn_train_sgd(cnn_init(TINY, seed=11), batch, labels,
                               epochs=2, learning_rate=learning_rate, seed=12,
                               batch_size=4)
    assert result.diverged
    params = b"".join(p.tobytes() for p in result.network.parameters())
    assert hashlib.sha256(params).hexdigest() == digest
    assert result.final_loss == final_loss
    assert result.epoch_losses == epoch_losses


def test_sgd_is_deterministic():
    rng = PortableRng(13)
    batch = rng.normals(10 * 3 * 8 * 8).reshape(10, 3, 8, 8)
    labels = np.array([0, 1] * 5)
    r1 = cnn_train_sgd(cnn_init(TINY, seed=14), batch, labels, epochs=2,
                       learning_rate=0.01, seed=15, batch_size=4)
    r2 = cnn_train_sgd(cnn_init(TINY, seed=14), batch, labels, epochs=2,
                       learning_rate=0.01, seed=15, batch_size=4)
    assert r1.epoch_losses == r2.epoch_losses
    for p1, p2 in zip(r1.network.parameters(), r2.network.parameters()):
        np.testing.assert_array_equal(p1, p2)


def test_empty_batch_rejected():
    net = cnn_init(TINY, seed=16)
    with pytest.raises(DataError):
        cnn_loss_grad(net, np.zeros((0, 3, 8, 8)), np.zeros(0, int))


def test_negative_learning_rate_rejected():
    net = cnn_init(TINY, seed=17)
    batch = np.zeros((2, 3, 8, 8))
    for rate in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="learning rate"):
            cnn_train_sgd(net, batch, np.array([0, 1]), epochs=1,
                          learning_rate=rate)
    with pytest.raises(ConfigError, match="epochs must be >= 0, got -1"):
        cnn_train_sgd(net, batch, np.array([0, 1]), epochs=-1,
                      learning_rate=0.1)


@pytest.mark.parametrize("labels", [[0, -1], [0, 5], [0, 0.5], [0, 1, 1]])
def test_labels_outside_the_classes_are_rejected(labels):
    # unchecked, -1 would index the last class and 5 no class at all
    net = cnn_init(TINY, seed=17)
    batch = np.ones((2, 3, 8, 8))
    with pytest.raises(DataError):
        cnn_loss_grad(net, batch, labels)
    with pytest.raises(DataError):
        cnn_train_sgd(net, batch, labels, epochs=1, learning_rate=0.1)


def test_batch_size_below_one_rejected():
    net = cnn_init(TINY, seed=17)
    with pytest.raises(ConfigError):
        cnn_train_sgd(net, np.zeros((2, 3, 8, 8)), [0, 1], epochs=1,
                      learning_rate=0.1, batch_size=0)
    vol = Volume3D(voxels=np.zeros((40, 40, 40)))
    with pytest.raises(ConfigError):
        extract_image_features(cnn_init(seed=17), vol, [(20, 20, 20)],
                               batch_size=0)


def test_input_batch_of_the_wrong_shape_is_a_contract_error():
    net = cnn_init(TINY, seed=17)
    for shape in [(3, 8, 8), (1, 2, 8, 8), (1, 3, 16, 16)]:
        with pytest.raises(ContractError, match="input batch has shape"):
            forward_batch(net, np.zeros(shape))


def test_network_checks_every_parameter_shape():
    net = cnn_init(TINY, seed=17)
    parts = dict(conv_weights=net.conv_weights, conv_biases=net.conv_biases,
                 fc_weights=net.fc_weights, fc_bias=net.fc_bias,
                 config=TINY)
    CnnNetwork(**parts)
    for name, bad in [("conv_weights", net.conv_weights[:2]),
                      ("conv_biases", [net.conv_biases[0]] * 3),
                      ("fc_weights", net.fc_weights.T),
                      ("fc_bias", np.zeros(3))]:
        with pytest.raises(DimensionError):
            CnnNetwork(**{**parts, name: bad})


@pytest.mark.parametrize("edit", sorted(MALFORMED_NETWORK_EDITS))
def test_malformed_network_file_is_a_data_error(tmp_path, edit):
    path = tmp_path / "net.txt"
    error, word = save_malformed_network(path, cnn_init(TINY, seed=17), edit)
    with pytest.raises(error, match=word):
        load_cnn(path)


def test_persistence_round_trip(tmp_path):
    net = cnn_init(TINY, seed=18)
    path = tmp_path / "net.txt"
    save_cnn(path, net)
    loaded = load_cnn(path)
    assert loaded.config == net.config
    x = PortableRng(19).normals(3 * 8 * 8).reshape(1, 3, 8, 8)
    f1, p1 = forward_batch(net, x)
    f2, p2 = forward_batch(loaded, x)
    np.testing.assert_array_equal(f1, f2)
    np.testing.assert_array_equal(p1, p2)


def test_extract_image_features_concatenates_in_center_order():
    # patches are fixed at 32x32, so this needs a full-size network
    net = cnn_init(seed=20)
    vox = PortableRng(21).normals(40 * 40 * 40).reshape(40, 40, 40)
    vol = Volume3D(voxels=vox)
    centers = default_patch_centers(vol.voxels.shape, count=3)
    vec = extract_image_features(net, vol, centers)
    assert vec.shape == (3 * net.config.feature_length,)
    patch = extract_patch_2_5d(vol, centers[0])
    (f0,), _ = forward_batch(net, patch[None])
    np.testing.assert_allclose(vec[:net.config.feature_length], f0,
                               atol=1e-12)


# Forward-only extraction: pool the raw conv map, then rectify. It must give
# the bytes of ReLU-then-argmax-pool, so every comparison below is on
# .tobytes(), where -0.0 and 0.0 differ.

_WINDOW_VALUES = (0.0, -0.0, 1.0, -1.0, 3.5, -3.5, 1e-300, -1e-300)


def test_pool_then_rectify_matches_relu_then_pool_on_every_window():
    windows = np.array(list(itertools.product(_WINDOW_VALUES, repeat=4)))
    x = windows.reshape(-1, 1, 2, 2)                # row-major window order
    assert x.shape[0] == 8 ** 4
    mask = x > 0.0
    expected, ref_idx = reference_maxpool(x * mask)
    assert _pool_then_rectify(x)[0].tobytes() == expected.tobytes()
    pooled, idx = _pool_then_rectify(x, want_index=True)
    assert pooled.tobytes() == expected.tobytes()
    assert idx.dtype == np.int8
    # the index is the argmax where ReLU passes a gradient there
    live = np.take_along_axis(mask.reshape(-1, 4), ref_idx.reshape(-1, 1),
                              axis=1).reshape(idx.shape)
    np.testing.assert_array_equal(idx, np.where(live, ref_idx, _NO_GRADIENT))
    # distinct gradients of both signs; only a zero's sign may differ
    dout = np.arange(1.0, x.shape[0] + 1).reshape(pooled.shape)
    dout[::2] *= -1.0
    np.testing.assert_array_equal(
        _unpool(dout, idx), reference_unpool(dout, ref_idx, x.shape) * mask)


def test_pool_index_matches_the_masked_assignment_loop():
    # maps of the first stage's shape drawn from few values, so that
    # windows tie on their maxima, hold +0.0 and -0.0, and often hold no
    # positive entry at all
    picks = np.random.default_rng(5).integers(0, len(_WINDOW_VALUES),
                                              size=(4, 32, 32, 32))
    x = np.array(_WINDOW_VALUES)[picks]
    windows = x.reshape(4, 32, 16, 2, 16, 2).transpose(0, 1, 2, 4, 3, 5)
    windows = windows.reshape(-1, 4)
    top = windows.max(axis=1, keepdims=True)
    assert (((windows == top).sum(axis=1) > 1) & (top[:, 0] > 0.0)).any()
    assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
    assert (top <= 0.0).any()
    _, idx = _pool_then_rectify(x, want_index=True)
    assert idx.tobytes() == reference_pool_index(x).tobytes()


def _bias_variant(net, kind):
    for b in net.conv_biases:
        if kind == "zero":
            b[...] = 0.0
        elif kind == "negative-zero":
            b[...] = -0.0
        elif kind == "negative":
            b[...] = -0.5 - np.arange(b.size) / b.size
    return net


# Rows of the input set exactly to zero. Below a zero band that starts
# inside a pool window, conv outputs of +0.0 follow negative ones in the
# window. A band from 2/5 of the height keeps such windows alive up to the
# last pool of the default geometry, where they reach the features.
_ZERO_ROWS = {
    "none": lambda s: slice(0, 0),
    "top-half": lambda s: slice(0, s // 2),
    "bottom-half": lambda s: slice(s // 2, None),
    "bottom-from-2/5": lambda s: slice(2 * s // 5, None),
}


@pytest.mark.parametrize("config", [TINY, CnnConfig()], ids=["8x8", "32x32"])
@pytest.mark.parametrize("bias", ["init", "zero", "negative-zero", "negative"])
@pytest.mark.parametrize("zero_rows", sorted(_ZERO_ROWS))
def test_forward_only_features_match_reference_bytes(config, bias, zero_rows):
    net = _bias_variant(cnn_init(config, seed=31), bias)
    size = config.input_size
    batch = PortableRng(32).normals(4 * 3 * size * size).reshape(4, 3, size,
                                                                 size)
    batch[:, :, _ZERO_ROWS[zero_rows](size)] = 0.0
    expected = reference_forward_features(net, batch).tobytes()
    features, _ = forward_batch(net, batch)
    assert features.tobytes() == expected
    cached = _forward_batch(net, batch, want_cache=True)[0]
    assert cached.tobytes() == expected
    (single,), _ = forward_batch(net, batch[1:2])
    assert single.tobytes() == reference_forward_features(
        net, batch[1:2])[0].tobytes()


def _zero_band_volume():
    vox = PortableRng(34).normals(40 * 40 * 40).reshape(40, 40, 40)
    # a zero band from y = 12 starts inside pool windows of every patch,
    # and some of those windows reach the last pool
    vox[:, 12:] = 0.0
    return Volume3D(voxels=vox)


@pytest.mark.parametrize("bias", ["zero", "negative-zero", "negative"])
def test_extract_image_features_matches_reference_bytes(monkeypatch, bias):
    # The bytes depend neither on the worker count nor on the batching.
    # Shares of 27 patches over 2, 3 and 8 workers are uneven, and so are
    # their last batches; 8 workers outnumber the cores, and a short switch
    # interval interleaves them often. Buffers for a batch size far above
    # the patch count would not fit in memory.
    net = _bias_variant(cnn_init(seed=33), bias)
    vol = _zero_band_volume()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for count in (1, 5, 27):
            centers = default_patch_centers(vol.voxels.shape, count=count)
            planes = np.stack([extract_patch_2_5d(vol, c) for c in centers])
            expected = reference_forward_features(net, planes).tobytes()
            for workers, batch_size in itertools.product(
                    [1, 2, 3, 8], [1, 2, 3, 16, 10 ** 9]):
                monkeypatch.setattr(enetpipe.cnn, "_WORKERS", workers)
                vec = extract_image_features(net, vol, centers,
                                             batch_size=batch_size)
                assert vec.tobytes() == expected, (count, workers,
                                                   batch_size)
    finally:
        sys.setswitchinterval(interval)


def test_empty_center_list_is_a_config_error():
    with pytest.raises(ConfigError, match="^center count must be >= 1, got 0$"):
        extract_image_features(cnn_init(seed=17), _zero_band_volume(), [])


def _overflowing_net():
    net = cnn_init(seed=35)
    for w in net.conv_weights:
        w[...] = 1e200
    return net


def test_overflowing_network_raises_numerical_error():
    vol = Volume3D(voxels=np.ones((40, 40, 40)))
    centers = default_patch_centers(vol.voxels.shape, count=3)
    # the typed error is the only signal: warnings are errors in this suite
    with pytest.raises(NumericalError, match="stage 2"):
        extract_image_features(_overflowing_net(), vol, centers)


def test_overflow_in_the_helper_share_alone_raises_after_the_join(
        monkeypatch):
    vol = helper_share_ones()
    centers = default_patch_centers(vol.voxels.shape, count=8)
    net = _overflowing_net()
    # the calling thread's share alone stays finite
    extract_image_features(net, vol, centers[:4])
    monkeypatch.setattr(enetpipe.cnn, "_WORKERS", 2)
    threads = threading.active_count()
    with pytest.raises(NumericalError, match="stage 2"):
        extract_image_features(net, vol, centers)
    assert threading.active_count() == threads


def test_loss_grad_on_overflowing_network_raises_numerical_error():
    planes = np.ones((2, 3, 32, 32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="stage 2"):
            cnn_loss_grad(_overflowing_net(), planes, [0, 1])


def test_loss_grad_peak_memory_has_no_full_size_mask_cache():
    # Under numpy 2.4 the argmax pool with its cached ReLU mask peaked at
    # 19.8 MiB. The strided-view pool peaks at 17.5 MiB; caching a full-size
    # bool mask per stage again would add 0.8 MiB and cross this bound.
    net = cnn_init()
    batch = PortableRng(2).normals(16 * 3 * 32 * 32).reshape(16, 3, 32, 32)
    labels = np.arange(16) % 2
    tracemalloc.start()
    try:
        cnn_loss_grad(net, batch, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18.0 * 2 ** 20
