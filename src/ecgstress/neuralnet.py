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
    """Base layer; parameterless unless params is overridden.

    `saved` names the attributes forward sets for backward alone; infer, the
    inference forward (Model.forward with keep False), does not keep them.
    """

    saved: tuple = ()

    def params(self):
        return []

    def grads(self):
        return []

    def forward(self, x):
        raise NotImplementedError

    def infer(self, x):
        """forward without keeping the backward-only state, as inference runs it."""
        y = self.forward(x)
        self.release()
        return y

    def backward(self, gy, need_gx=True):
        """Set the parameter gradients from gy, the loss gradient of the output.

        Returns the loss gradient of the input; with need_gx False the caller
        discards it, and a layer may return None instead of computing it.
        """
        raise NotImplementedError

    def out_shape(self, in_shape):
        raise NotImplementedError

    def release(self):
        """Drop the backward-only state of the last forward."""
        for name in self.saved:
            self.__dict__.pop(name, None)


class _Weighted(Layer):
    """A layer with weights w and bias b, and the gradients gw and gb of both."""

    def __init__(self, w, bias_len):
        self.w = w
        self.b = np.zeros(bias_len)
        self.gw = np.zeros_like(w)
        self.gb = np.zeros_like(self.b)

    def params(self):
        return [self.w, self.b]

    def grads(self):
        return [self.gw, self.gb]


class _Conv(_Weighted):
    """im2col convolution over the last `rank` axes, zero-padded by `pad` on each side.

    Weights are (O, C, k[, k]); an input (N, C, *size) gives (N, O, *out) with
    out = size + 2*pad - k + 1 on each spatial axis. The im2col matrix is kept
    for backward only by a forward with keep True.
    """

    saved = ("_xcol",)

    def __init__(self, in_ch, out_ch, kernel, rng, rank, pad):
        self.kernel, self.rank, self.pad = kernel, rank, pad
        self._key = None
        shape = (out_ch, in_ch) + (kernel,) * rank
        super().__init__(_init_uniform(rng, shape, in_ch * kernel**rank), out_ch)

    def out_shape(self, in_shape):
        name = type(self).__name__.lower()
        c, *size = in_shape
        if c != self.w.shape[1]:
            raise BuildError(f"{name} expects {self.w.shape[1]} channels, got {c}")
        if min(size) + 2 * self.pad < self.kernel:
            raise BuildError(f"{name} kernel {self.kernel} exceeds input length {min(size)}")
        return (self.w.shape[0], *(s + 2 * self.pad - self.kernel + 1 for s in size))

    def _layout(self, in_shape):
        """Cache, per input (C, *size), the flat im2col index into one padded sample and
        the slices that pad, col2im and crop use."""
        if self._key == in_shape:
            return
        c, *size = in_shape
        k, p = self.kernel, self.pad
        padded = [s + 2 * p for s in size]
        out = [s - k + 1 for s in padded]
        flat = np.arange(c * np.prod(padded)).reshape(c, *padded)
        # Row r of the index is output position r; its columns are the (C, k[, k]) taps
        taps = flat[(slice(None),) + (slice(k),) * self.rank].reshape(1, -1)
        self._index = flat[(0, *(slice(o) for o in out))].reshape(-1, 1) + taps
        self._padded, self._out = (c, *padded), tuple(out)
        inner = tuple(slice(p, p + s) for s in size)
        self._inner, self._crop = (..., *inner), (slice(None), *inner)
        # col2im: tap t of the channels-last gradient adds onto the padded input shifted by t
        self._col2im = [
            ((slice(None), *(slice(i, i + o) for i, o in zip(tap, out))), (..., *tap))
            for tap in np.ndindex(*(k,) * self.rank)
        ]
        self._key = in_shape

    def _padded_input(self, x):
        if not self.pad:
            return x
        xp = np.zeros((x.shape[0], *self._padded))
        xp[self._inner] = x
        return xp

    def forward(self, x, keep=True):
        n = x.shape[0]
        self._layout(x.shape[1:])
        # im2col: (N*positions, C*k[*k]) rows against (O, C*k[*k]) filters via BLAS
        index = self._index
        xcol = np.take(self._padded_input(x).reshape(n, -1), index, axis=1)
        xcol = xcol.reshape(-1, index.shape[1])
        o = self.w.shape[0]
        y = xcol @ self.w.reshape(o, -1).T
        if keep:
            self._xcol = xcol
        del xcol  # inference frees the matrix before the output is allocated
        # One pass writes the (N*positions, O) product channel-major and adds the bias
        out = np.empty((n, o, *self._out))
        np.add(y.reshape(n, -1, o).transpose(0, 2, 1), self.b[:, None], out=out.reshape(n, o, -1))
        return out

    def infer(self, x):
        return self.forward(x, keep=False)

    def backward(self, gy, need_gx=True):
        n, o = gy.shape[:2]
        spatial = tuple(range(2, gy.ndim))
        gy_mat = np.ascontiguousarray(gy.transpose(0, *spatial, 1)).reshape(-1, o)
        self.gw[...] = (gy_mat.T @ self._xcol).reshape(self.w.shape)
        self.gb[...] = gy.sum(axis=(0, *spatial))
        if not need_gx:
            return None
        # col2im: gcol[n, *position, :, *tap] is the gradient of the padded input at position + tap
        c = self.w.shape[1]
        gcol = (gy_mat @ self.w.reshape(o, -1)).reshape(n, *self._out, *self.w.shape[1:])
        gxp = np.zeros((n, *self._padded[1:], c))
        for dst, src in self._col2im:
            gxp[dst] += gcol[src]
        return gxp[self._crop].transpose(0, self.rank + 1, *range(1, self.rank + 1))


class Conv1D(_Conv):
    """Valid (unpadded) 1D convolution."""

    def __init__(self, in_ch, out_ch, kernel, rng):
        super().__init__(in_ch, out_ch, kernel, rng, rank=1, pad=0)


class Conv2D(_Conv):
    """3x3 (or any odd-kernel) convolution with 'same' zero padding."""

    def __init__(self, in_ch, out_ch, kernel, rng):
        if kernel % 2 != 1:
            raise BuildError("same-padded conv2d requires an odd kernel")
        super().__init__(in_ch, out_ch, kernel, rng, rank=2, pad=kernel // 2)


def _pairs(shape, axis):
    """Slices of the first and second elements of each non-overlapping pair along axis."""
    end = shape[axis] // 2 * 2
    rest = (slice(None),) * (-1 - axis)
    return [(..., slice(i, end, 2), *rest) for i in (0, 1)]


class _PairMax(Layer):
    """Max over non-overlapping pairs along the last axis, then (2D) the one before it.

    Each step keeps the earlier element on a tie, so a 2x2 block gives its first
    maximum in (0,0),(0,1),(1,0),(1,1) order. An odd last row or column is dropped.
    """

    rank: int
    saved = ("_steps",)

    def out_shape(self, in_shape):
        c, *size = in_shape
        if min(size) < 2:
            raise BuildError(f"maxpool 2 exceeds input {'x'.join(map(str, size))}")
        return (c, *(s // 2 for s in size))

    def forward(self, x):
        self._steps = []
        for axis in range(-1, -1 - self.rank, -1):
            pairs = _pairs(x.shape, axis)
            a, b = x[pairs[0]], x[pairs[1]]
            second = b > a
            self._steps.append((x.shape, pairs, second))
            x = np.where(second, b, a)
        return x

    def backward(self, gy, need_gx=True):
        # Route gy to the element each step took; a dropped odd tail gets zero
        for shape, (first_at, second_at), second in reversed(self._steps):
            gx = np.zeros(shape)
            np.multiply(gy, ~second, out=gx[first_at])
            np.multiply(gy, second, out=gx[second_at])
            gy = gx
        return gy


class MaxPool1D(_PairMax):
    rank = 1


class MaxPool2D(_PairMax):
    rank = 2


class ReLU(Layer):
    saved = ("_mask",)

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, gy, need_gx=True):
        return gy * self._mask


class Flatten(Layer):
    saved = ("_in_shape",)

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy, need_gx=True):
        return gy.reshape(self._in_shape)


class GlobalAvgPool2D(Layer):
    saved = ("_in_shape",)

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


class Dense(_Weighted):
    saved = ("_x",)

    def __init__(self, in_dim, out_dim, rng):
        super().__init__(_init_uniform(rng, (in_dim, out_dim), in_dim), out_dim)

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
    saved = ("_y",)

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
        if not (0 <= self.learning_rate < np.inf):
            raise ValueError("learning_rate must be finite and nonnegative")
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

    def forward(self, x, upto: int | None = None, keep: bool = True):
        """Run layers 0..upto (all by default); with keep False, as in inference,
        each layer drops its backward-only state once its forward returns."""
        x = self._check_input(x)
        stop = len(self.layers) if upto is None else upto + 1
        for layer in self.layers[:stop]:
            x = layer.forward(x) if keep else layer.infer(x)
        return x

    def release(self):
        """Drop every layer's backward-only state."""
        for layer in self.layers:
            layer.release()

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
        MaxPool1D(),
        Conv1D(5, 10, 5, rng),
        ReLU(),
        MaxPool1D(),
        Conv1D(10, 10, 4, rng),
        ReLU(),
        MaxPool1D(),
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
        MaxPool2D(),
        Conv2D(8, 16, 3, rng),
        ReLU(),
        MaxPool2D(),
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
    model.release()
    return model


def extract_features(model: Model, inputs) -> np.ndarray:
    """Penultimate-layer features: forward pass truncated at the feature tap."""
    return model.forward(inputs, upto=model.feature_layer_index, keep=False)


def predict_proba(model: Model, inputs) -> np.ndarray:
    return model.forward(inputs, keep=False)
