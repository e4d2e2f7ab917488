"""Minimal from-scratch CNN engine: layers, backprop, SGD training.

All tensors are float64 numpy arrays, batch-first:
1D signals are (N, channels, length), images are (N, channels, height, width).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BuildError(ValueError):
    """Raised when a layer sequence has incompatible shapes."""


class TrainingError(RuntimeError):
    """Raised when training diverges (non-finite loss)."""


def _init_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base layer; parameterless unless params is overridden."""

    def params(self):
        return []

    def grads(self):
        return []

    def forward(self, x):
        raise NotImplementedError

    def backward(self, gy, need_gx=True):
        """Set the parameter gradients from gy, the loss gradient of the output.

        Returns the loss gradient of the input; with need_gx False the caller
        discards it, and a layer may return None instead of computing it.
        """
        raise NotImplementedError

    def out_shape(self, in_shape):
        raise NotImplementedError


class Conv1D(Layer):
    def __init__(self, in_ch, out_ch, kernel, rng):
        self.kernel = kernel
        self._index_key = None
        self.w = _init_uniform(rng, (out_ch, in_ch, kernel), in_ch * kernel)
        self.b = np.zeros(out_ch)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]

    def out_shape(self, in_shape):
        c, length = in_shape
        if c != self.w.shape[1]:
            raise BuildError(f"conv1d expects {self.w.shape[1]} channels, got {c}")
        if length < self.kernel:
            raise BuildError(f"conv1d kernel {self.kernel} exceeds input length {length}")
        return (self.w.shape[0], length - self.kernel + 1)

    def _gather_index(self, c, length):
        """Flat (Lout, C*K) index of im2col rows into one sample, cached per (C, L)."""
        if self._index_key != (c, length):
            k = self.kernel
            taps = (np.arange(c)[:, None] * length + np.arange(k)).reshape(1, c * k)
            self._index = np.arange(length - k + 1)[:, None] + taps
            self._index_key = (c, length)
        return self._index

    def forward(self, x):
        n, c, length = x.shape
        k = self.kernel
        lout = length - k + 1
        # im2col: (N*Lout, C*K) rows against (O, C*K) filters via BLAS
        index = self._gather_index(c, length)
        self._xcol = np.take(x.reshape(n, c * length), index, axis=1).reshape(n * lout, c * k)
        self._dims = (n, c, length, lout)
        o = self.w.shape[0]
        y = self._xcol @ self.w.reshape(o, -1).T
        # One pass writes the (N*Lout, O) product channel-major and adds the bias
        out = np.empty((n, o, lout))
        np.add(y.reshape(n, lout, o).transpose(0, 2, 1), self.b[:, None], out=out)
        return out

    def backward(self, gy, need_gx=True):
        n, c, length, lout = self._dims
        k = self.kernel
        o = self.w.shape[0]
        gy_mat = np.ascontiguousarray(gy.transpose(0, 2, 1)).reshape(n * lout, o)
        self.gw[...] = (gy_mat.T @ self._xcol).reshape(self.w.shape)
        self.gb[...] = gy.sum(axis=(0, 2))
        if not need_gx:
            return None
        # col2im: gcol[n, t, :, j] is the gradient of x[n, :, t + j]
        gcol = (gy_mat @ self.w.reshape(o, c * k)).reshape(n, lout, c, k)
        gx = np.zeros((n, length, c))
        for j in range(k):
            gx[:, j : j + lout] += gcol[:, :, :, j]
        return gx.transpose(0, 2, 1)


class Conv2D(Layer):
    """3x3 (or any odd-kernel) convolution with 'same' zero padding."""

    def __init__(self, in_ch, out_ch, kernel, rng):
        if kernel % 2 != 1:
            raise BuildError("same-padded conv2d requires an odd kernel")
        self.kernel = kernel
        self.pad = kernel // 2
        self._index_key = None
        self.w = _init_uniform(rng, (out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel)
        self.b = np.zeros(out_ch)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.w.shape[1]:
            raise BuildError(f"conv2d expects {self.w.shape[1]} channels, got {c}")
        return (self.w.shape[0], h, w)

    def _gather_index(self, c, h, w):
        """Flat (H*W, C*K*K) index of im2col rows into one padded sample, cached per (C, H, W)."""
        if self._index_key != (c, h, w):
            k, p = self.kernel, self.pad
            hp, wp = h + 2 * p, w + 2 * p
            taps = (
                np.arange(c)[:, None, None] * (hp * wp)
                + np.arange(k)[:, None] * wp
                + np.arange(k)
            ).reshape(1, c * k * k)
            corners = (np.arange(h)[:, None] * wp + np.arange(w)).reshape(h * w, 1)
            self._index = corners + taps
            self._index_key = (c, h, w)
        return self._index

    def forward(self, x):
        n, c, h, wdt = x.shape
        k, p = self.kernel, self.pad
        xp = np.zeros((n, c, h + 2 * p, wdt + 2 * p))
        xp[:, :, p : p + h, p : p + wdt] = x
        index = self._gather_index(c, h, wdt)
        self._xcol = np.take(xp.reshape(n, -1), index, axis=1).reshape(n * h * wdt, c * k * k)
        self._dims = (n, c, h, wdt)
        o = self.w.shape[0]
        y = self._xcol @ self.w.reshape(o, -1).T
        # One pass writes the (N*H*W, O) product channel-major (NCHW) and adds the bias
        out = np.empty((n, o, h, wdt))
        yt = y.reshape(n, h * wdt, o).transpose(0, 2, 1)
        np.add(yt, self.b[:, None], out=out.reshape(n, o, h * wdt))
        return out

    def backward(self, gy, need_gx=True):
        n, c, h, wdt = self._dims
        k, p = self.kernel, self.pad
        o = self.w.shape[0]
        gy_mat = np.ascontiguousarray(gy.transpose(0, 2, 3, 1)).reshape(n * h * wdt, o)
        self.gw[...] = (gy_mat.T @ self._xcol).reshape(self.w.shape)
        self.gb[...] = gy.sum(axis=(0, 2, 3))
        if not need_gx:
            return None
        # col2im: gcol[n, y, x, :, i, j] is the gradient of the padded input at (y + i, x + j)
        gcol = (gy_mat @ self.w.reshape(o, c * k * k)).reshape(n, h, wdt, c, k, k)
        gxp = np.zeros((n, h + 2 * p, wdt + 2 * p, c))
        for i in range(k):
            for j in range(k):
                gxp[:, i : i + h, j : j + wdt] += gcol[:, :, :, :, i, j]
        return gxp[:, p : p + h, p : p + wdt].transpose(0, 3, 1, 2)


def _pool2_backward(arg, gy, in_shape, slices):
    """Route gy to the input position each output took; the odd tail gets zero."""
    gx = np.zeros(in_shape)
    for k, s in enumerate(slices):
        np.multiply(gy, arg == k, out=gx[s])
    return gx


class MaxPool1D(Layer):
    """Max over non-overlapping pairs; a tie goes to the first, an odd tail is dropped."""

    def __init__(self, pool=2):
        if pool != 2:
            raise BuildError(f"maxpool supports pool 2 only, got {pool}")
        self.pool = pool

    def out_shape(self, in_shape):
        c, length = in_shape
        if length < self.pool:
            raise BuildError(f"maxpool {self.pool} exceeds input length {length}")
        return (c, length // self.pool)

    def forward(self, x):
        end = x.shape[2] // 2 * 2
        self._in_shape = x.shape
        self._slices = [(..., slice(i, end, 2)) for i in (0, 1)]
        a, b = (x[s] for s in self._slices)
        self._arg = b > a
        return np.where(self._arg, b, a)

    def backward(self, gy, need_gx=True):
        return _pool2_backward(self._arg, gy, self._in_shape, self._slices)


class MaxPool2D(Layer):
    """Max over non-overlapping 2x2 blocks, first maximum in (0,0),(0,1),(1,0),(1,1) order.

    Each row's pair is compared first, then the two row winners; every step
    keeps the earlier element on a tie. An odd last row or column is dropped.
    """

    def __init__(self, pool=2):
        if pool != 2:
            raise BuildError(f"maxpool supports pool 2 only, got {pool}")
        self.pool = pool

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if h < self.pool or w < self.pool:
            raise BuildError(f"maxpool {self.pool}x{self.pool} exceeds input {h}x{w}")
        return (c, h // self.pool, w // self.pool)

    def forward(self, x):
        hend, wend = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
        self._in_shape = x.shape
        self._slices = [
            (..., slice(i, hend, 2), slice(j, wend, 2)) for i in (0, 1) for j in (0, 1)
        ]
        a, b, c, d = (x[s] for s in self._slices)
        right_top = b > a
        right_bottom = d > c
        top = np.where(right_top, b, a)
        bottom = np.where(right_bottom, d, c)
        lower = bottom > top
        # The slice index k of the maximum, as 2 * row + column
        column = (right_bottom & lower) | (right_top & ~lower)
        self._arg = (lower.view(np.int8) << 1) | column.view(np.int8)
        return np.where(lower, bottom, top)

    def backward(self, gy, need_gx=True):
        return _pool2_backward(self._arg, gy, self._in_shape, self._slices)


class ReLU(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, gy, need_gx=True):
        return gy * self._mask


class Flatten(Layer):
    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy, need_gx=True):
        return gy.reshape(self._in_shape)


class GlobalAvgPool2D(Layer):
    def out_shape(self, in_shape):
        c, _, _ = in_shape
        return (c,)

    def forward(self, x):
        self._in_shape = x.shape
        # Channels-last, each channel's H*W values are summed one at a time in
        # row-major order; a pairwise sum over a contiguous H*W axis rounds differently
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).mean(axis=(1, 2))

    def backward(self, gy, need_gx=True):
        n, c, h, w = self._in_shape
        return np.broadcast_to(gy[:, :, None, None], self._in_shape) / (h * w)


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng):
        self.w = _init_uniform(rng, (in_dim, out_dim), in_dim)
        self.b = np.zeros(out_dim)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.w.shape[0]:
            raise BuildError(f"dense expects ({self.w.shape[0]},), got {in_shape}")
        return (self.w.shape[1],)

    def forward(self, x):
        self._x = x
        return x @ self.w + self.b

    def backward(self, gy, need_gx=True):
        self.gw[...] = self._x.T @ gy
        self.gb[...] = gy.sum(axis=0)
        return gy @ self.w.T


class Softmax(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        self._y = e / e.sum(axis=1, keepdims=True)
        return self._y

    def backward(self, gy, need_gx=True):
        dot = np.sum(gy * self._y, axis=1, keepdims=True)
        return self._y * (gy - dot)


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must be in [0, 1)")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")


@dataclass
class Model:
    layers: list
    input_shape: tuple
    feature_layer_index: int
    shape_chain: list = field(default_factory=list)
    loss_trace: list = field(default_factory=list)

    def __post_init__(self):
        shape = self.input_shape
        chain = [shape]
        for layer in self.layers:
            shape = layer.out_shape(shape)
            chain.append(shape)
        self.shape_chain = chain
        softmax_idx = max(
            (i for i, l in enumerate(self.layers) if isinstance(l, Softmax)), default=None
        )
        if softmax_idx is not None and self.feature_layer_index >= softmax_idx:
            raise BuildError("feature tap must come before the softmax layer")

    @property
    def feature_dim(self) -> int:
        return self.shape_chain[self.feature_layer_index + 1][0]

    def parameters(self):
        return [p for layer in self.layers for p in layer.params()]

    def gradients(self):
        return [g for layer in self.layers for g in layer.grads()]

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"expected input shape {self.input_shape}, got {x.shape[1:]}")
        return x

    def forward(self, x, upto: int | None = None):
        x = self._check_input(x)
        stop = len(self.layers) if upto is None else upto + 1
        for layer in self.layers[:stop]:
            x = layer.forward(x)
        return x

    def logits(self, x):
        """Forward pass stopping before the final softmax."""
        return self.forward(x, upto=len(self.layers) - 2)


def build_cnn1d(input_len: int = 256, classes: int = 3, feature_dim: int = 32, seed: int = 0) -> Model:
    """1D CNN for raw one-second snippets.

    conv(5,k5) -> relu -> pool2 -> conv(10,k5) -> relu -> pool2 ->
    conv(10,k4) -> relu -> pool2 -> flatten -> fc(feature_dim) -> relu ->
    fc(classes) -> softmax. The feature tap is the first fully-connected
    output (post-activation).
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x1D])
    layers = [
        Conv1D(1, 5, 5, rng),
        ReLU(),
        MaxPool1D(2),
        Conv1D(5, 10, 5, rng),
        ReLU(),
        MaxPool1D(2),
        Conv1D(10, 10, 4, rng),
        ReLU(),
        MaxPool1D(2),
        Flatten(),
    ]
    # Derive the flattened size by walking the shape chain so far
    shape = (1, input_len)
    for layer in layers:
        shape = layer.out_shape(shape)
    rng2 = np.random.default_rng([seed & 0xFFFFFFFF, 0x1D, 1])
    layers += [
        Dense(shape[0], feature_dim, rng2),
        ReLU(),
        Dense(feature_dim, classes, rng2),
        Softmax(),
    ]
    return Model(layers=layers, input_shape=(1, input_len), feature_layer_index=11)


def build_cnn2d(input_shape=(33, 13), classes: int = 3, feature_dim: int = 32, seed: int = 0) -> Model:
    """Small 2D CNN over normalized spectrogram images.

    conv(8) -> relu -> pool -> conv(16) -> relu -> pool -> conv(32) -> relu ->
    global-avg-pool -> fc(feature_dim) -> relu -> fc(classes) -> softmax.
    The feature tap is the first fully-connected output (post-activation).
    """
    h, w = input_shape
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x2D])
    layers = [
        Conv2D(1, 8, 3, rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(8, 16, 3, rng),
        ReLU(),
        MaxPool2D(2),
        Conv2D(16, 32, 3, rng),
        ReLU(),
        GlobalAvgPool2D(),
        Dense(32, feature_dim, rng),
        ReLU(),
        Dense(feature_dim, classes, rng),
        Softmax(),
    ]
    return Model(layers=layers, input_shape=(1, h, w), feature_layer_index=10)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    n = len(labels)
    loss = -logp[np.arange(n), labels].mean()
    probs = np.exp(logp)
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def train(model: Model, inputs, labels, cfg: TrainConfig) -> Model:
    """Mini-batch SGD with momentum on mean cross-entropy; deterministic by seed."""
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if len(x) != len(y):
        raise ValueError("inputs and labels must have equal length")
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFF, 0x7124])
    params = model.parameters()
    velocity = [np.zeros_like(p) for p in params]
    model.loss_trace = []
    n = len(x)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            logits = model.logits(x[batch])
            loss, glogits = softmax_cross_entropy(logits, y[batch])
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            epoch_loss += loss * len(batch)
            grad = glogits
            # Nothing consumes the first layer's input gradient
            for i in reversed(range(len(model.layers) - 1)):
                grad = model.layers[i].backward(grad, need_gx=i > 0)
            for p, v, g in zip(params, velocity, model.gradients()):
                v *= cfg.momentum
                v -= cfg.learning_rate * g
                p += v
        model.loss_trace.append(epoch_loss / n)
    return model


def extract_features(model: Model, inputs) -> np.ndarray:
    """Penultimate-layer features: forward pass truncated at the feature tap."""
    return model.forward(inputs, upto=model.feature_layer_index)


def predict_proba(model: Model, inputs) -> np.ndarray:
    return model.forward(inputs)
