"""Small convolutional feature extractor trained from scratch.

Three stages of 3x3 same-padding convolution + ReLU + 2x2 max-pool turn a
3-channel square patch into a channels x (size/8)^2 block whose flattening
is the per-patch feature vector; a fully connected layer plus softmax sits
on top for training. At the default geometry (32x32 input, channel widths
32/64/64) the stage trace is

    (32,32,32) -> (32,16,16) -> (64,16,16) -> (64,8,8) -> (64,8,8) -> (64,4,4)

and the feature length is 64*4*4 = 1024. A reduced geometry (8x8 input,
narrow channels) exists solely to make finite-difference gradient checks
affordable; it shares every code path.

All arrays are float64, batch-first, channels-first. Max-pool ties resolve
to the first occurrence in row-major window order, and training uses plain
minibatch SGD on mean cross-entropy with a seeded portable shuffle, so runs
are reproducible bit-for-bit.

Training keeps the ReLU mask and the pool's argmax indices for the
backward pass. Extraction (``cnn_forward``, ``cnn_forward_batch``,
``extract_image_features``) needs neither: it takes the maximum ``m`` of
the raw conv map over the four strided views v0..v3 of each 2x2 window
(row-major order), then rectifies, ``where(m > 0, m, v0 * 0.0)``. This
returns the same bits as ReLU followed by the first-occurrence pool. If
``m > 0``, both give the window's largest value. If ``m <= 0``, ReLU
turns each entry e into ``e * 0``, a zero with e's sign; the four zeros
tie, so the pool keeps the first, ``v0 * 0.0``. The shorter
``m * (m > 0)`` is not exact: ``np.maximum`` may return either zero on a
+0/-0 tie, and ``%.17g`` prints -0.0 as ``-0``. Because the pool would
hide an overflow in a window's smaller entries, extraction raises
NumericalError when a stage's conv output is not finite; numpy's own
overflow warning is silenced there, so that error is the one signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import textio
from .data import Volume3D
from .errors import ConfigError, ContractError, DataError, NumericalError
from .patches import Patch2_5D, extract_patch_2_5d
from .rng import PortableRng

__all__ = ["CnnConfig", "CnnNetwork", "CnnGradients", "CnnTrainResult",
           "cnn_init", "cnn_forward", "cnn_forward_batch", "cnn_loss_grad",
           "cnn_train_sgd", "extract_image_features", "save_cnn", "load_cnn"]

DEFAULT_INPUT_SIZE = 32
DEFAULT_CHANNELS = (32, 64, 64)
DEFAULT_CENTER_COUNT = 151


@dataclass(frozen=True)
class CnnConfig:
    input_size: int = DEFAULT_INPUT_SIZE
    in_channels: int = 3
    channels: tuple = DEFAULT_CHANNELS
    n_classes: int = 2

    def __post_init__(self):
        if self.input_size < 8 or self.input_size % 8 != 0:
            raise ConfigError(
                f"input size must survive three 2x pools, got {self.input_size}")
        if len(self.channels) != 3:
            raise ConfigError("exactly three convolution stages are expected")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")

    @property
    def feature_length(self) -> int:
        return self.channels[2] * (self.input_size // 8) ** 2

    def stage_trace(self) -> list:
        """Expected (channels, height, width) after each conv and pool."""
        s = self.input_size
        trace = []
        for c in self.channels:
            trace.append((c, s, s))
            s //= 2
            trace.append((c, s, s))
        return trace


@dataclass
class CnnNetwork:
    conv_weights: list               # three (c_out, c_in, 3, 3) tensors
    conv_biases: list                # three (c_out,) vectors
    fc_weights: np.ndarray           # (n_classes, feature_length)
    fc_bias: np.ndarray              # (n_classes,)
    config: CnnConfig

    def parameters(self) -> list:
        return [*self.conv_weights, *self.conv_biases,
                self.fc_weights, self.fc_bias]

    def copy(self) -> "CnnNetwork":
        return CnnNetwork(
            conv_weights=[w.copy() for w in self.conv_weights],
            conv_biases=[b.copy() for b in self.conv_biases],
            fc_weights=self.fc_weights.copy(),
            fc_bias=self.fc_bias.copy(),
            config=self.config,
        )


@dataclass
class CnnGradients:
    conv_weights: list
    conv_biases: list
    fc_weights: np.ndarray
    fc_bias: np.ndarray

    def parameters(self) -> list:
        return [*self.conv_weights, *self.conv_biases,
                self.fc_weights, self.fc_bias]


@dataclass(frozen=True)
class CnnTrainResult:
    network: CnnNetwork
    epoch_losses: list
    final_loss: float
    diverged: bool = False


def cnn_init(config: CnnConfig = CnnConfig(), seed: int = 0) -> CnnNetwork:
    """He-style normal initialization from the portable generator."""
    rng = PortableRng(seed)
    widths = (config.in_channels, *config.channels)
    conv_w, conv_b = [], []
    for c_in, c_out in zip(widths[:-1], widths[1:]):
        scale = np.sqrt(2.0 / (c_in * 9))
        w = rng.normals(c_out * c_in * 9).reshape(c_out, c_in, 3, 3) * scale
        conv_w.append(w)
        conv_b.append(np.zeros(c_out))
    fc_scale = np.sqrt(2.0 / config.feature_length)
    fc_w = rng.normals(config.n_classes * config.feature_length)
    fc_w = fc_w.reshape(config.n_classes, config.feature_length) * fc_scale
    return CnnNetwork(conv_w, conv_b, fc_w, np.zeros(config.n_classes), config)


def _check_finite_parameters(net: CnnNetwork) -> None:
    for p in net.parameters():
        if not np.all(np.isfinite(p)):
            raise NumericalError("network parameters contain non-finite values")


def _conv_same(x, w, b):
    """3x3 convolution, stride 1, zero padding. Returns (out, x_padded)."""
    x_pad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(x_pad, (3, 3), axis=(2, 3))
    out = np.einsum("bchwij,ocij->bohw", windows, w, optimize=True)
    out += b[None, :, None, None]
    return out, x_pad


def _conv_param_grad(dout, x_pad):
    """Gradients of a ``_conv_same`` stage's weights and bias."""
    windows = sliding_window_view(x_pad, (3, 3), axis=(2, 3))
    dw = np.einsum("bchwij,bohw->ocij", windows, dout, optimize=True)
    return dw, dout.sum(axis=(0, 2, 3))


def _conv_input_grad(dout, x_pad, w):
    """Gradient of a ``_conv_same`` stage's (unpadded) input."""
    h, wd = dout.shape[2], dout.shape[3]
    dx_pad = np.zeros_like(x_pad)
    for di in range(3):
        for dj in range(3):
            dx_pad[:, :, di:di + h, dj:dj + wd] += np.einsum(
                "bohw,oc->bchw", dout, w[:, :, di, dj], optimize=True)
    return dx_pad[:, :, 1:-1, 1:-1]


def _maxpool(x):
    """2x2 max-pool; ties go to the first entry in row-major window order."""
    b, c, h, w = x.shape
    tiles = x.reshape(b, c, h // 2, 2, w // 2, 2)
    tiles = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h // 2, w // 2, 4)
    idx = np.argmax(tiles, axis=-1)
    out = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]
    return out, idx


def _pool_then_rectify(x):
    """2x2 max-pool of the raw conv map, then ReLU: the same bits as ReLU
    then ``_maxpool``, the sign of zero included (see the module docstring)."""
    v0, v1 = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
    v2, v3 = x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]
    m = np.maximum(np.maximum(v0, v1), np.maximum(v2, v3))
    return np.where(m > 0.0, m, v0 * 0.0)


def _unpool(dout, idx, pooled_from_shape):
    b, c, h, w = pooled_from_shape
    tiles = np.zeros((b, c, h // 2, w // 2, 4))
    np.put_along_axis(tiles, idx[..., None], dout[..., None], axis=-1)
    tiles = tiles.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return tiles.reshape(b, c, h, w)


def _forward_batch(net: CnnNetwork, x, want_cache: bool = False):
    cfg = net.config
    expected = cfg.stage_trace()
    caches = []
    # extraction's finite check below is its one overflow signal
    quiet = None if want_cache else "ignore"
    for stage in range(3):
        with np.errstate(over=quiet, invalid=quiet):
            out, x_pad = _conv_same(x, net.conv_weights[stage],
                                    net.conv_biases[stage])
        if out.shape[1:] != expected[2 * stage]:
            raise ContractError(
                f"stage {stage + 1} conv produced {out.shape[1:]}, "
                f"expected {expected[2 * stage]}")
        if want_cache:
            relu_mask = out > 0.0
            out *= relu_mask            # the bits of out * relu_mask
            pooled, idx = _maxpool(out)
            caches.append((x_pad, relu_mask, idx, out.shape))
        else:
            if not np.isfinite(out).all():
                raise NumericalError(
                    f"stage {stage + 1} convolution output is not finite")
            pooled = _pool_then_rectify(out)
        # free this stage's conv map before the next stage's convolution
        del out, x_pad
        if pooled.shape[1:] != expected[2 * stage + 1]:
            raise ContractError(
                f"stage {stage + 1} pool produced {pooled.shape[1:]}, "
                f"expected {expected[2 * stage + 1]}")
        x = pooled
    features = x.reshape(x.shape[0], -1)
    logits = features @ net.fc_weights.T + net.fc_bias
    shift = logits - logits.max(axis=1, keepdims=True)
    log_probs = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    return features, logits, log_probs, probs, caches


def _as_plane_array(patch) -> np.ndarray:
    if isinstance(patch, Patch2_5D):
        return patch.planes
    return np.asarray(patch, dtype=np.float64)


def cnn_forward(net: CnnNetwork, patch):
    """Single-patch forward pass; returns (feature vector, class probs)."""
    _check_finite_parameters(net)
    x = _as_plane_array(patch)[None]
    features, _, _, probs, _ = _forward_batch(net, x)
    return features[0], probs[0]


def cnn_forward_batch(net: CnnNetwork, batch):
    """Batched forward; returns (features (B,F), class probs (B,C))."""
    _check_finite_parameters(net)
    features, _, _, probs, _ = _forward_batch(net, np.asarray(batch, dtype=np.float64))
    return features, probs


def cnn_loss_grad(net: CnnNetwork, batch, labels):
    """Mean cross-entropy loss and its gradient for a labeled patch batch."""
    if len(batch) == 0:
        raise DataError("batch must be non-empty")
    x = np.stack([_as_plane_array(p) for p in batch])
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    features, _, log_probs, probs, caches = _forward_batch(net, x, want_cache=True)
    loss = float(-log_probs[np.arange(n), labels].mean())

    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    dfc_w = dlogits.T @ features
    dfc_b = dlogits.sum(axis=0)
    dflat = dlogits @ net.fc_weights

    last_pool_shape = caches[-1][3]
    grad = dflat.reshape(last_pool_shape[0], last_pool_shape[1],
                         last_pool_shape[2] // 2, last_pool_shape[3] // 2)
    dconv_w = [None, None, None]
    dconv_b = [None, None, None]
    for stage in (2, 1, 0):
        x_pad, relu_mask, idx, act_shape = caches[stage]
        dact = _unpool(grad, idx, act_shape)
        dact *= relu_mask
        dconv_w[stage], dconv_b[stage] = _conv_param_grad(dact, x_pad)
        if stage > 0:  # the input patch needs no gradient
            grad = _conv_input_grad(dact, x_pad, net.conv_weights[stage])
    return loss, CnnGradients(dconv_w, dconv_b, dfc_w, dfc_b)


def cnn_train_sgd(net: CnnNetwork, batch, labels, epochs: int,
                  learning_rate: float, seed: int = 0,
                  batch_size: int = 16) -> CnnTrainResult:
    """Plain minibatch SGD, seeded shuffle each epoch.

    A non-finite loss, gradient, or parameter after an update aborts
    training and returns the parameters from the last batch whose loss
    was still finite. Saturated ReLU stages can keep the loss bounded
    while weights overflow, so the loss alone is not a safe check.
    """
    if learning_rate < 0:
        raise NumericalError(f"learning rate must be >= 0, got {learning_rate}")
    x = np.stack([_as_plane_array(p) for p in batch])
    labels = np.asarray(labels, dtype=np.int64)
    net = net.copy()
    checkpoint = net.copy()
    rng = PortableRng(seed)
    epoch_losses = []
    last_loss = float("nan")
    for _ in range(int(epochs)):
        order = rng.permutation(x.shape[0])
        batch_losses = []
        for start in range(0, x.shape[0], batch_size):
            take = order[start:start + batch_size]
            loss, grads = cnn_loss_grad(net, x[take], labels[take])
            if not np.isfinite(loss):
                return CnnTrainResult(network=checkpoint,
                                      epoch_losses=epoch_losses,
                                      final_loss=last_loss, diverged=True)
            checkpoint = net.copy()
            last_loss = loss
            batch_losses.append(loss)
            for p, g in zip(net.parameters(), grads.parameters()):
                p -= learning_rate * g
            stable = all(np.all(np.isfinite(p)) for p in net.parameters())
            if not stable:
                return CnnTrainResult(network=checkpoint,
                                      epoch_losses=epoch_losses,
                                      final_loss=last_loss, diverged=True)
        epoch_losses.append(float(np.mean(batch_losses)))
    return CnnTrainResult(network=net, epoch_losses=epoch_losses,
                          final_loss=last_loss, diverged=False)


def extract_image_features(net: CnnNetwork, vol: Volume3D, centers,
                           expected_count: int | None = DEFAULT_CENTER_COUNT,
                           batch_size: int = 16) -> np.ndarray:
    """Concatenated per-patch features over `centers`, in order.

    With the standard census of 151 centers and the default
    geometry the result has length 1024 * 151 = 154624. Pass
    expected_count=None (or the actual count) for desk-scale volumes.
    """
    centers = list(centers)
    if expected_count is not None and len(centers) != expected_count:
        raise DataError(
            f"expected exactly {expected_count} patch centers, got {len(centers)}")
    _check_finite_parameters(net)
    pieces = []
    for start in range(0, len(centers), batch_size):
        block = centers[start:start + batch_size]
        planes = np.stack(
            [extract_patch_2_5d(vol, c).planes for c in block])
        features, _, _, _, _ = _forward_batch(net, planes)
        pieces.append(features.reshape(-1))
    return np.concatenate(pieces)


def save_cnn(path, net: CnnNetwork) -> None:
    cfg = net.config
    blocks = {
        "config": np.array([cfg.input_size, cfg.in_channels, *cfg.channels,
                            cfg.n_classes], dtype=np.float64),
    }
    for i in range(3):
        blocks[f"conv{i + 1}_weights"] = net.conv_weights[i]
        blocks[f"conv{i + 1}_bias"] = net.conv_biases[i]
    blocks["fc_weights"] = net.fc_weights
    blocks["fc_bias"] = net.fc_bias
    textio.write_blocks(path, blocks)


def load_cnn(path) -> CnnNetwork:
    blocks = textio.read_blocks(path)
    raw = blocks["config"].astype(int)
    cfg = CnnConfig(input_size=int(raw[0]), in_channels=int(raw[1]),
                    channels=tuple(int(c) for c in raw[2:5]),
                    n_classes=int(raw[5]))
    conv_w = [np.asarray(blocks[f"conv{i + 1}_weights"]) for i in range(3)]
    conv_b = [np.atleast_1d(blocks[f"conv{i + 1}_bias"]) for i in range(3)]
    return CnnNetwork(conv_w, conv_b, np.atleast_2d(blocks["fc_weights"]),
                      np.atleast_1d(blocks["fc_bias"]), cfg)
