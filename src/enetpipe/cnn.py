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

Training and extraction pool the same way, in ``_pool_then_rectify``.
A stage takes the maximum ``m`` of the raw conv map over the four strided
views v0..v3 of each 2x2 window (row-major order), then rectifies,
``where(m > 0, m, v0 * 0.0)``. This returns the same bits as ReLU
followed by the first-occurrence pool. If ``m > 0``, both give the
window's largest value. If ``m <= 0``, ReLU turns each entry e into
``e * 0``, a zero with e's sign; the four zeros tie, so the pool keeps
the first, ``v0 * 0.0``. The shorter ``m * (m > 0)`` is not exact:
``np.maximum`` may return either zero on a +0/-0 tie, and ``%.17g``
prints -0.0 as ``-0``. For the backward pass training keeps one int8
index per window instead of a ReLU mask: the first k with ``v_k == m``,
where ReLU-then-pool routes the gradient, or ``_NO_GRADIENT`` where
``m <= 0`` and ReLU passes none. Because the pool would hide an overflow
in a window's smaller entries, both passes raise NumericalError when a
stage's conv output is not finite; numpy's own overflow warning is
silenced there, so that error is the one signal. SGD treats it as a
non-finite loss.

Each convolution takes the steps of ``einsum("bchwij,ocij->bohw")`` over
the padded input's 3x3 windows, a copy of the windows and one GEMM, with
its bytes. Extraction takes them in buffers that ``extract_image_features``
allocates once per call and shares out among its worker threads.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import prod

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import textio
from .data import Volume3D
from .errors import (ConfigError, ContractError, DataError, DataFormatError,
                     DimensionError, NumericalError)
from .patches import PATCH_SIZE, _check_center_count, extract_patch_2_5d
from .rng import PortableRng

__all__ = ["DEFAULT_INPUT_SIZE", "DEFAULT_CHANNELS", "CnnConfig",
           "CnnNetwork", "CnnTrainResult", "cnn_init", "cnn_loss_grad",
           "cnn_train_sgd", "extract_image_features", "save_cnn", "load_cnn"]

DEFAULT_INPUT_SIZE = PATCH_SIZE
DEFAULT_CHANNELS = (32, 64, 64)
# (row, column) of the strided views v0..v3 in a 2x2 window, row-major
_WINDOW_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
_NO_GRADIENT = 4
# threads that forward one volume's patches, the calling thread among them
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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


def _stage_geometry(config: CnnConfig) -> list:
    """(input channels, output channels, input size) of each conv stage."""
    sizes = [config.input_size // 2 ** i for i in range(3)]
    return list(zip((config.in_channels, *config.channels), config.channels,
                    sizes))


def _parameter_shapes(config: CnnConfig) -> list:
    """(block name, shape) of each of ``CnnNetwork.parameters()``, in order."""
    stages = list(enumerate(_stage_geometry(config), start=1))
    return ([(f"conv{i}_weights", (c_out, c_in, 3, 3))
             for i, (c_in, c_out, _) in stages]
            + [(f"conv{i}_bias", (c_out,)) for i, (_, c_out, _) in stages]
            + [("fc_weights", (config.n_classes, config.feature_length)),
               ("fc_bias", (config.n_classes,))])


@dataclass
class CnnNetwork:
    """The parameters of a network, or their gradients; every shape is
    checked against ``config`` once, here."""

    conv_weights: list               # three (c_out, c_in, 3, 3) tensors
    conv_biases: list                # three (c_out,) vectors
    fc_weights: np.ndarray           # (n_classes, feature_length)
    fc_bias: np.ndarray              # (n_classes,)
    config: CnnConfig

    def __post_init__(self):
        if len(self.conv_weights) != 3 or len(self.conv_biases) != 3:
            raise DimensionError("a network has 3 conv weights and 3 biases")
        for p, (name, shape) in zip(self.parameters(),
                                    _parameter_shapes(self.config)):
            if np.shape(p) != shape:
                raise DimensionError(
                    f"{name} has shape {np.shape(p)}, expected {shape}")

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


@dataclass(frozen=True)
class CnnTrainResult:
    network: CnnNetwork
    epoch_losses: list
    final_loss: float
    diverged: bool = False


def cnn_init(config: CnnConfig = CnnConfig(), seed: int = 0) -> CnnNetwork:
    """He-style normal initialization from the portable generator: one
    draw for the weights in parameter order; the biases start at zero."""
    shapes = [shape for _, shape in _parameter_shapes(config)]
    weight_shapes = (*shapes[:3], shapes[6])
    draws = PortableRng(seed).normals(sum(prod(s) for s in weight_shapes))
    weights, start = [], 0
    for shape in weight_shapes:
        size = prod(shape)
        fan_in = size // shape[0]
        weights.append(draws[start:start + size].reshape(shape)
                       * np.sqrt(2.0 / fan_in))
        start += size
    return CnnNetwork(weights[:3], [np.zeros(s) for s in shapes[3:6]],
                      weights[3], np.zeros(shapes[7]), config)


def _check_finite_parameters(net: CnnNetwork) -> None:
    for p in net.parameters():
        if not np.all(np.isfinite(p)):
            raise NumericalError("network parameters contain non-finite values")


def _conv_same(x, w, b, pad=None, col=None, out=None):
    """3x3 convolution, stride 1, zero padding. Returns (out, x_pad), out a
    (batch, c_out, h, w) view of c_out-major memory.

    The input goes into the interior of ``pad`` (batch, c, h+2, w+2), whose
    border must be zero; its 3x3 windows are copied into ``col`` (c, 3, 3,
    batch, h, w); one GEMM of the flattened weights with them fills ``out``
    (c_out, batch*h*w). These are the steps and the bytes of
    ``einsum("bchwij,ocij->bohw")`` on the windows. A buffer not given is
    allocated.
    """
    n, c, h, wd = x.shape
    if pad is None:
        pad = np.zeros((n, c, h + 2, wd + 2))
    pad[:, :, 1:-1, 1:-1] = x
    if col is None:
        col = np.empty((c, 3, 3, n, h, wd))
    np.copyto(col, sliding_window_view(pad, (3, 3), axis=(2, 3))
              .transpose(1, 4, 5, 0, 2, 3))
    out = np.matmul(w.reshape(w.shape[0], -1), col.reshape(c * 9, -1),
                    out=out)
    out += b[:, None]
    return out.reshape(-1, n, h, wd).transpose(1, 0, 2, 3), pad


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


def _pool_then_rectify(x, want_index: bool = False, out=None, mask=None):
    """2x2 max-pool of the raw conv map, then ReLU: the same bits as ReLU
    then a first-occurrence pool, the sign of zero included (see the module
    docstring). Returns (pooled, index), the index None unless wanted.
    The pooled map goes into ``out`` and the m <= 0 mask into ``mask``
    (float64 and bool, of the pooled shape), each allocated if not given.
    The order of the maxima does not matter: where m > 0 it is the one
    largest value, and elsewhere v0 * 0.0 replaces it."""
    views = [x[:, :, i::2, j::2] for i, j in _WINDOW_OFFSETS]
    m = np.maximum(views[0], views[1], out=out)
    np.maximum(m, views[2], out=m)
    np.maximum(m, views[3], out=m)
    dead = np.less_equal(m, 0.0, out=mask)
    idx = None
    if want_index:
        # the lowest k with v_k == m is the number of views before it that
        # miss m; one of the four holds m, as the caller's finite check ran
        miss = views[0] != m
        idx = miss.astype(np.int8)
        for view in views[1:3]:
            miss &= view != m
            idx += miss
        idx[dead] = _NO_GRADIENT
    np.multiply(views[0], 0.0, out=m, where=dead)
    return m, idx


def _unpool(dout, idx):
    """Route each pooled gradient to the entry ``idx`` names."""
    b, c, h, w = idx.shape
    dx = np.empty((b, c, 2 * h, 2 * w))
    for k, (i, j) in enumerate(_WINDOW_OFFSETS):
        dx[:, :, i::2, j::2] = np.where(idx == k, dout, 0.0)
    return dx


def _scratch_lengths(stage, n: int) -> list:
    """Float64 lengths of a stage's im2col, GEMM output, pool output and
    (bool) pool mask for n patches; ``stage`` is one of
    ``_stage_geometry``."""
    c_in, c_out, s = stage
    pooled = c_out * n * (s // 2) ** 2
    return [c_in * 9 * n * s * s, c_out * n * s * s, pooled, -(-pooled // 8)]


def _workspace_lengths(config: CnnConfig, n: int) -> list:
    """Float64 lengths of a ``_Workspace``'s regions for n patches: a pad
    per stage, then one scratch region for the stage that needs most."""
    stages = _stage_geometry(config)
    return ([n * c_in * (s + 2) ** 2 for c_in, _, s in stages]
            + [max(sum(_scratch_lengths(stage, n)) for stage in stages)])


class _Workspace:
    """The forward buffers of one extraction worker, for batches of up to
    n patches: views of ``memory``, zeros of ``sum(_workspace_lengths(
    config, n))`` float64s that the caller allocates. Only pad interiors
    are written, so pad borders stay zero. Each stage lays out its im2col,
    GEMM output, pool output and pool mask back to back in the scratch
    region."""

    def __init__(self, config: CnnConfig, n: int, memory):
        self.stages = _stage_geometry(config)
        *self.pads, self.scratch = np.split(
            memory, np.cumsum(_workspace_lengths(config, n))[:-1])

    def stage(self, stage: int, n: int):
        """Buffers for a stage on n patches: ``_conv_same``'s pad, col and
        out, then ``_pool_then_rectify``'s out and mask, c_out-major as the
        GEMM leaves its output."""
        c_in, c_out, s = self.stages[stage]
        lengths = _scratch_lengths(self.stages[stage], n)
        col, out, pool, mask = np.split(self.scratch[:sum(lengths)],
                                        np.cumsum(lengths)[:-1])
        pooled = (c_out, n, s // 2, s // 2)
        mask = mask.view(np.bool_)[:pool.size]
        return ((self.pads[stage][:n * c_in * (s + 2) ** 2]
                 .reshape(n, c_in, s + 2, s + 2),
                 col.reshape(c_in, 3, 3, n, s, s),
                 out.reshape(c_out, n * s * s)),
                (pool.reshape(pooled).transpose(1, 0, 2, 3),
                 mask.reshape(pooled).transpose(1, 0, 2, 3)))


_ALLOCATE = ((None, None, None), (None, None))


def _forward_batch(net: CnnNetwork, x, want_cache: bool = False,
                   workspace: _Workspace = None):
    """The three conv stages on a batch: (last pooled map, caches), the
    caches each stage's padded input and pool index for the backward pass.
    Each stage writes into ``workspace`` if given, else into new arrays."""
    cfg = net.config
    size = cfg.input_size
    if x.ndim != 4 or x.shape[1:] != (cfg.in_channels, size, size):
        raise ContractError(
            f"input batch has shape {x.shape}, expected "
            f"(batch, {cfg.in_channels}, {size}, {size})")
    caches = []
    for stage in range(3):
        conv, pool = (_ALLOCATE if workspace is None
                      else workspace.stage(stage, x.shape[0]))
        # the finite check below is the one overflow signal; the extremes
        # are finite exactly when every entry is
        with np.errstate(over="ignore", invalid="ignore"):
            out, x_pad = _conv_same(x, net.conv_weights[stage],
                                    net.conv_biases[stage], *conv)
            finite = np.isfinite(out.max()) and np.isfinite(out.min())
        if not finite:
            raise NumericalError(
                f"stage {stage + 1} convolution output is not finite")
        pooled, idx = _pool_then_rectify(out, want_cache, *pool)
        if want_cache:
            caches.append((x_pad, idx))
        # free this stage's conv map before the next stage's convolution
        del out, x_pad
        x = pooled
    return x, caches


def _class_log_probs(net: CnnNetwork, features):
    """The fully connected layer's softmax: (log probabilities, probabilities)."""
    logits = features @ net.fc_weights.T + net.fc_bias
    shift = logits - logits.max(axis=1, keepdims=True)
    log_probs = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    return log_probs, np.exp(log_probs)


def _labeled_batch(batch, labels, n_classes: int):
    """The patches as float64 and the labels as int64 class indices;
    DataError unless each patch has one integer label in [0, n_classes)."""
    x = np.asarray(batch, dtype=np.float64)
    if len(x) == 0:
        raise DataError("batch must be non-empty")
    y = np.asarray(labels)
    if y.shape != (len(x),):
        raise DimensionError(f"{y.size} labels for {len(x)} patches")
    if (not np.all((y >= 0) & (y < n_classes))
            or np.any(y.astype(np.int64) != y)):
        raise DataError(f"labels must be integers in [0, {n_classes})")
    return x, y.astype(np.int64)


def cnn_loss_grad(net: CnnNetwork, batch, labels):
    """Mean cross-entropy loss and its gradient for a labeled patch batch;
    the gradient comes as a CnnNetwork of the same shapes."""
    x, labels = _labeled_batch(batch, labels, net.config.n_classes)
    n = x.shape[0]
    pooled, caches = _forward_batch(net, x, want_cache=True)
    features = pooled.reshape(n, -1)
    log_probs, probs = _class_log_probs(net, features)
    loss = float(-log_probs[np.arange(n), labels].mean())

    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    dfc_w = dlogits.T @ features
    dfc_b = dlogits.sum(axis=0)
    dflat = dlogits @ net.fc_weights

    grad = dflat.reshape(caches[-1][1].shape)
    dconv_w = [None, None, None]
    dconv_b = [None, None, None]
    for stage in (2, 1, 0):
        x_pad, idx = caches[stage]
        dact = _unpool(grad, idx)
        dconv_w[stage], dconv_b[stage] = _conv_param_grad(dact, x_pad)
        if stage > 0:  # the input patch needs no gradient
            grad = _conv_input_grad(dact, x_pad, net.conv_weights[stage])
    return loss, CnnNetwork(dconv_w, dconv_b, dfc_w, dfc_b, net.config)


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")


def _check_sgd_settings(epochs: int, learning_rate: float,
                        batch_size: int) -> None:
    if not 0.0 <= learning_rate < np.inf:
        raise ConfigError(
            f"learning rate must be finite and >= 0, got {learning_rate}")
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    _check_batch_size(batch_size)


def cnn_train_sgd(net: CnnNetwork, batch, labels, epochs: int,
                  learning_rate: float, seed: int = 0,
                  batch_size: int = 16) -> CnnTrainResult:
    """Plain minibatch SGD, seeded shuffle each epoch.

    A non-finite loss, conv output, gradient, or parameter after an
    update aborts training and returns the parameters from the last batch
    whose loss was still finite. Saturated ReLU stages can keep the loss
    bounded while weights overflow, so the loss alone is not a safe check.
    """
    _check_sgd_settings(epochs, learning_rate, batch_size)
    x, labels = _labeled_batch(batch, labels, net.config.n_classes)
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
            try:
                loss, grads = cnn_loss_grad(net, x[take], labels[take])
            except NumericalError:     # a stage's conv output overflowed
                loss = float("nan")
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
                           batch_size: int = 16) -> np.ndarray:
    """Concatenated per-patch features over `centers`, in order.

    With the standard census of 151 centers and the default
    geometry the result has length 1024 * 151 = 154624.

    The calling thread cuts every patch, then it and up to ``_WORKERS - 1``
    helper threads forward contiguous shares of them, at most
    ``batch_size`` patches at a time in all. Each worker's buffers are
    views of one array the calling thread allocates, so helper threads
    allocate nothing large. The bytes depend neither on the worker count
    nor on the batching. A worker's error is raised once every helper has
    joined; of several, the one over the earliest patches.
    """
    _check_batch_size(batch_size)
    centers = list(centers)
    _check_center_count(len(centers))
    _check_finite_parameters(net)
    planes = np.stack([extract_patch_2_5d(vol, c) for c in centers])
    n = len(planes)
    workers = min(_WORKERS, batch_size, n)
    per_batch = min(batch_size // workers, -(-n // workers))
    features = np.empty((n, net.config.feature_length))
    length = sum(_workspace_lengths(net.config, per_batch))
    memory = np.zeros(workers * length)
    spaces = [_Workspace(net.config, per_batch,
                         memory[k * length:(k + 1) * length])
              for k in range(workers)]
    bounds = [n * k // workers for k in range(workers + 1)]
    errors = [None] * workers

    def work(k):
        try:
            for start in range(bounds[k], bounds[k + 1], per_batch):
                stop = min(start + per_batch, bounds[k + 1])
                pooled, _ = _forward_batch(net, planes[start:stop],
                                           workspace=spaces[k])
                np.copyto(features[start:stop].reshape(pooled.shape), pooled)
        except Exception as exc:
            errors[k] = exc

    helpers = [threading.Thread(target=work, args=(k,))
               for k in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    for error in errors:
        if error is not None:
            raise error
    return features.reshape(-1)


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
    """Read a network file; a missing block or a config block that is not
    6 valid whole numbers is a DataFormatError, a wrong shape a
    DimensionError."""
    blocks = textio.read_blocks(path)
    try:
        raw = blocks["config"]
        if raw.shape != (6,):
            raise DataFormatError(
                f"{path}: config block holds {raw.size} values, expected 6")
        # blocks hold floats; NaN and inf are no whole numbers either
        bad = [v for v in raw.tolist() if not v.is_integer()]
        if bad:
            raise DataFormatError(
                f"{path}: config block value {bad[0]} is not a whole number")
        cfg = CnnConfig(input_size=int(raw[0]), in_channels=int(raw[1]),
                        channels=tuple(int(c) for c in raw[2:5]),
                        n_classes=int(raw[5]))
        params = [blocks[name] for name, _ in _parameter_shapes(cfg)]
    except KeyError as exc:
        raise DataFormatError(f"{path}: no {exc.args[0]} block") from None
    except ConfigError as exc:
        raise DataFormatError(f"{path}: config block: {exc}") from None
    return CnnNetwork(params[:3], params[3:6], params[6], params[7], cfg)
