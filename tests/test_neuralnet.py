"""CNN engine: shapes, training, feature extraction and spot gradient checks."""

import tracemalloc

import numpy as np
import pytest

from ecgstress import neuralnet
from ecgstress.neuralnet import (
    BuildError,
    Conv1D,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    Layer,
    MaxPool1D,
    MaxPool2D,
    Model,
    ReLU,
    Softmax,
    TrainConfig,
    TrainingError,
    build_cnn1d,
    build_cnn2d,
    extract_features,
    predict_proba,
    train,
)
import oracles
from oracles import numeric_gradient

EXPECTED_1D_CHAIN = [
    (1, 256),
    (5, 252),
    (5, 252),
    (5, 126),
    (10, 122),
    (10, 122),
    (10, 61),
    (10, 58),
    (10, 58),
    (10, 29),
    (290,),
    (32,),
    (32,),
    (3,),
    (3,),
]


class TestBuild:
    def test_cnn1d_shape_chain(self):
        model = build_cnn1d()
        assert model.shape_chain == EXPECTED_1D_CHAIN

    def test_cnn1d_feature_tap(self):
        model = build_cnn1d(feature_dim=32)
        assert model.shape_chain[model.feature_layer_index + 1][0] == 32
        x = np.random.default_rng(0).standard_normal((2, 1, 256))
        assert extract_features(model, x).shape == (2, 32)

    def test_cnn2d_shape_chain(self):
        model = build_cnn2d(input_shape=(33, 13))
        chain = model.shape_chain
        assert chain[0] == (1, 33, 13)
        # Two floor 2x2 pools: 33x13 -> 16x6 -> 8x3, then global pool -> 32
        assert (16, 16, 6) in chain
        assert (32, 8, 3) in chain
        assert chain[-1] == (3,)
        assert model.shape_chain[model.feature_layer_index + 1][0] == 32

    def test_input_too_short(self):
        with pytest.raises(BuildError):
            build_cnn1d(input_len=8)

    def test_feature_tap_before_softmax(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BuildError):
            Model(
                layers=[Dense(4, 3, rng), Softmax()],
                input_shape=(4,),
                feature_layer_index=1,
            )


class TestForward:
    def test_softmax_sums_to_one(self):
        model = build_cnn1d()
        x = np.random.default_rng(1).standard_normal((4, 1, 256))
        probs = predict_proba(model, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_identical_inputs_identical_features(self):
        model = build_cnn2d()
        x = np.random.default_rng(2).standard_normal((1, 1, 33, 13))
        f1 = extract_features(model, x)
        f2 = extract_features(model, x.copy())
        np.testing.assert_array_equal(f1, f2)

    def test_zero_image_logits_from_biases(self):
        model = build_cnn2d()
        x = np.zeros((2, 1, 33, 13))
        logits = model.logits(x)
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_argmax_tie_breaks_low(self):
        model = build_cnn1d()
        for p in model.parameters():
            p[...] = 0.0
        x = np.random.default_rng(3).standard_normal((3, 1, 256))
        assert np.all(np.argmax(predict_proba(model, x), axis=1) == 0)

    def test_input_shape_mismatch(self):
        model = build_cnn1d()
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 1, 100)))


def _separable_snippets(n_per_class=16, seed=0):
    """Two trivially separable 1D classes: flat noise vs a strong sinusoid."""
    rng = np.random.default_rng(seed)
    t = np.arange(256) / 256.0
    xs, ys = [], []
    for _ in range(n_per_class):
        xs.append(0.05 * rng.standard_normal(256))
        ys.append(0)
        xs.append(np.sin(2 * np.pi * 8 * t) + 0.05 * rng.standard_normal(256))
        ys.append(1)
    return np.stack(xs)[:, None, :], np.array(ys)


class TestTrain:
    def test_separable_fixture_reaches_full_accuracy(self):
        x, y = _separable_snippets()
        model = build_cnn1d(classes=3, seed=0)
        train(model, x, y, TrainConfig(epochs=30, learning_rate=0.02, seed=0))
        assert np.mean(np.argmax(predict_proba(model, x), axis=1) == y) == 1.0

    def test_determinism(self):
        x, y = _separable_snippets()
        params = []
        for _ in range(2):
            model = build_cnn1d(seed=5)
            train(model, x, y, TrainConfig(epochs=3, seed=5))
            params.append([p.copy() for p in model.parameters()])
        for a, b in zip(*params):
            np.testing.assert_array_equal(a, b)

    def test_zero_learning_rate(self):
        x, y = _separable_snippets(n_per_class=4)
        model = build_cnn1d(seed=1)
        before = [p.copy() for p in model.parameters()]
        train(model, x, y, TrainConfig(epochs=2, learning_rate=0.0))
        for a, b in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_divergence_names_epoch(self):
        x, y = _separable_snippets(n_per_class=4)
        model = build_cnn1d(seed=1)
        with pytest.raises(TrainingError, match="epoch"), np.errstate(all="ignore"):
            train(model, x, y, TrainConfig(epochs=5, learning_rate=1e300))

    def test_loss_trace_recorded(self):
        x, y = _separable_snippets(n_per_class=4)
        model = build_cnn1d(seed=2)
        train(model, x, y, TrainConfig(epochs=4, learning_rate=0.01))
        assert len(model.loss_trace) == 4
        assert model.loss_trace[-1] < model.loss_trace[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestGradientSpotChecks:
    """Quick single-case checks; the exhaustive sweep lives in the acceptance suite."""

    def test_conv1d(self):
        rng = np.random.default_rng(0)
        layer = Conv1D(2, 3, 3, rng)
        x = rng.standard_normal((2, 2, 8))
        r = rng.standard_normal((2, 3, 6))
        layer.forward(x)
        gx = layer.backward(r)
        num = numeric_gradient(lambda: float(np.sum(layer.forward(x) * r)), x)
        assert np.linalg.norm(gx - num) / max(np.linalg.norm(num), 1e-12) < 1e-4

    def test_dense_params(self):
        rng = np.random.default_rng(1)
        layer = Dense(5, 4, rng)
        x = rng.standard_normal((3, 5))
        r = rng.standard_normal((3, 4))
        layer.forward(x)
        layer.backward(r)
        num_w = numeric_gradient(lambda: float(np.sum(layer.forward(x) * r)), layer.w)
        assert np.linalg.norm(layer.gw - num_w) / np.linalg.norm(num_w) < 1e-4

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 1, 2, 1])
        _, grad = neuralnet.softmax_cross_entropy(logits, labels)
        num = numeric_gradient(
            lambda: neuralnet.softmax_cross_entropy(logits, labels)[0], logits
        )
        assert np.linalg.norm(grad - num) / np.linalg.norm(num) < 1e-4


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


class TestBackwardMatchesIm2colOracle:
    """The col2im backward against the im2col one it replaced, on awkward shapes."""

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize(
        "batch,channels,extra", [(1, 1, 7), (3, 4, 9), (2, 3, 0)], ids=["b1c1", "b3c4", "len-eq-k"]
    )
    def test_conv1d(self, kernel, batch, channels, extra):
        rng = np.random.default_rng([kernel, batch, channels])
        layer = Conv1D(channels, 6, kernel, rng)
        y = layer.forward(rng.standard_normal((batch, channels, kernel + extra)))
        gy = rng.standard_normal(y.shape)
        gx = layer.backward(gy)
        gw, gb = layer.gw.copy(), layer.gb.copy()
        gx_ref = oracles.im2col_conv1d_backward(layer, gy)
        assert gx.shape == gx_ref.shape
        assert _max_rel(gx, gx_ref) <= 1e-12
        assert _max_rel(gw, layer.gw) <= 1e-12
        assert _max_rel(gb, layer.gb) <= 1e-12

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize(
        "batch,channels,h,w",
        [(1, 1, 9, 6), (3, 4, 7, 5), (2, 2, 1, 1)],
        ids=["b1c1", "b3c4", "1x1"],
    )
    def test_conv2d(self, kernel, batch, channels, h, w):
        rng = np.random.default_rng([kernel, batch, channels, h])
        layer = Conv2D(channels, 5, kernel, rng)
        y = layer.forward(rng.standard_normal((batch, channels, h, w)))
        gy = rng.standard_normal(y.shape)
        gx = layer.backward(gy)
        gw, gb = layer.gw.copy(), layer.gb.copy()
        gx_ref = oracles.im2col_conv2d_backward(layer, gy)
        assert gx.shape == gx_ref.shape
        assert _max_rel(gx, gx_ref) <= 1e-12
        assert _max_rel(gw, layer.gw) <= 1e-12
        assert _max_rel(gb, layer.gb) <= 1e-12


class TestMaxPoolRouting:
    def test_1d_tie_goes_to_first_and_tail_gets_zero(self):
        layer = MaxPool1D()
        x = np.array([[[3.0, 3.0, -1.0, 2.0, 9.0]]])  # tie, then max second, odd tail
        np.testing.assert_array_equal(layer.forward(x), [[[3.0, 2.0]]])
        gx = layer.backward(np.array([[[5.0, 7.0]]]))
        np.testing.assert_array_equal(gx, [[[5.0, 0.0, 0.0, 7.0, 0.0]]])

    def test_2d_tie_goes_to_first_and_tail_gets_zero(self):
        layer = MaxPool2D()
        x = np.array(
            [[[[4.0, 1.0, 0.0, 2.0, 9.0],
               [4.0, 4.0, 2.0, 1.0, 9.0],
               [9.0, 9.0, 9.0, 9.0, 9.0]]]]
        )  # a three-way tie, a tie across rows, then a tail row and column
        np.testing.assert_array_equal(layer.forward(x), [[[[4.0, 2.0]]]])
        gx = layer.backward(np.array([[[[5.0, 7.0]]]]))
        expected = np.zeros_like(x)
        expected[0, 0, 0, 0] = 5.0
        expected[0, 0, 0, 3] = 7.0
        np.testing.assert_array_equal(gx, expected)

    @pytest.mark.parametrize("h, w", [(3, 4), (2, 5)], ids=["odd-height", "odd-width"])
    def test_2d_one_odd_side_gets_zero(self, h, w):
        # The last-axis step also pairs up the odd last row, which the row step then drops
        x = np.array(
            [[[[1.0, 3.0, 0.0, 2.0, 9.0],
               [3.0, 2.0, 5.0, 1.0, 9.0],
               [9.0, 9.0, 9.0, 9.0, 9.0]]]]
        )[..., :h, :w]
        layer = MaxPool2D()
        np.testing.assert_array_equal(layer.forward(x), [[[[3.0, 5.0]]]])
        gx = layer.backward(np.array([[[[-5.0, 7.0]]]]))
        expected = np.zeros_like(x)
        expected[0, 0, 0, 1] = -5.0
        expected[0, 0, 1, 2] = 7.0
        np.testing.assert_array_equal(gx, expected)
        np.testing.assert_array_equal(np.signbit(gx[..., :2, :4]), [[[[1, 1, 0, 0], [1, 1, 0, 0]]]])
        assert not np.signbit(gx[..., 2:, :]).any() and not np.signbit(gx[..., 4:]).any()


def _assert_same_values(a, b):
    """Equal elementwise, signed zeros included."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


class TestForwardMatchesOracle:
    """Gather im2col, contiguous conv outputs and the pair-max pool against the earlier forward."""

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize(
        "batch,channels,extra", [(1, 1, 7), (3, 4, 9), (2, 3, 0)], ids=["b1c1", "b3c4", "len-eq-k"]
    )
    def test_conv1d_and_relu(self, kernel, batch, channels, extra):
        rng = np.random.default_rng([kernel, batch, channels, 1])
        layer = Conv1D(channels, 6, kernel, rng)
        layer.b[...] = rng.standard_normal(6)
        x = rng.standard_normal((batch, channels, kernel + extra))
        y = layer.forward(x)
        xcol = layer._xcol.copy()
        ref = oracles.sliding_window_conv1d_forward(layer, x)
        assert y.flags.c_contiguous
        _assert_same_values(y, ref)
        np.testing.assert_array_equal(xcol, layer._xcol)
        _assert_same_values(ReLU().forward(y), ReLU().forward(ref))

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize(
        "batch,channels,h,w",
        [(1, 1, 9, 6), (3, 4, 7, 5), (2, 2, 1, 1)],
        ids=["b1c1", "b3c4-odd", "1x1"],
    )
    def test_conv2d_and_relu(self, kernel, batch, channels, h, w):
        rng = np.random.default_rng([kernel, batch, channels, h, 1])
        layer = Conv2D(channels, 5, kernel, rng)
        layer.b[...] = rng.standard_normal(5)
        x = rng.standard_normal((batch, channels, h, w))
        y = layer.forward(x)
        xcol = layer._xcol.copy()
        ref = oracles.sliding_window_conv2d_forward(layer, x)
        assert y.flags.c_contiguous
        _assert_same_values(y, ref)
        np.testing.assert_array_equal(xcol, layer._xcol)
        _assert_same_values(ReLU().forward(y), ReLU().forward(ref))

    def test_gather_index_follows_input_shape(self):
        rng = np.random.default_rng(7)
        conv1, conv2 = Conv1D(2, 3, 3, rng), Conv2D(2, 3, 3, rng)
        for length, (h, w) in ((9, (5, 4)), (12, (7, 6)), (9, (5, 4))):
            x1 = rng.standard_normal((2, 2, length))
            ref1 = oracles.sliding_window_conv1d_forward(conv1, x1)
            _assert_same_values(conv1.forward(x1), ref1)
            x2 = rng.standard_normal((2, 2, h, w))
            ref2 = oracles.sliding_window_conv2d_forward(conv2, x2)
            _assert_same_values(conv2.forward(x2), ref2)

    @pytest.mark.parametrize(
        "batch,channels,length",
        [(1, 1, 8), (3, 4, 9), (1, 2, 2)],
        ids=["b1c1", "b3c4-odd", "one-pair"],
    )
    def test_maxpool1d(self, batch, channels, length):
        rng = np.random.default_rng([batch, channels, length])
        # Rounded ReLU outputs: ties, and zeros of either sign
        x = ReLU().forward(np.round(rng.standard_normal((batch, channels, length))))
        layer, ref = MaxPool1D(), MaxPool1D()
        _assert_same_values(layer.forward(x), oracles.argmax_maxpool1d_forward(ref, x))
        gy = rng.standard_normal((batch, channels, length // 2))
        gx_ref = oracles.indices_maxpool1d_backward(ref, gy)
        np.testing.assert_array_equal(layer.backward(gy), gx_ref)

    @pytest.mark.parametrize(
        "batch,channels,h,w",
        [(1, 1, 6, 4), (3, 4, 7, 5), (2, 3, 33, 13), (1, 1, 2, 2), (2, 3, 7, 4), (2, 3, 6, 5)],
        ids=["b1c1", "b3c4-odd", "spectrogram", "one-block", "odd-height", "odd-width"],
    )
    def test_maxpool2d(self, batch, channels, h, w):
        rng = np.random.default_rng([batch, channels, h, w])
        x = ReLU().forward(np.round(rng.standard_normal((batch, channels, h, w))))
        layer, ref = MaxPool2D(), MaxPool2D()
        _assert_same_values(layer.forward(x), oracles.argmax_maxpool2d_forward(ref, x))
        gy = rng.standard_normal((batch, channels, h // 2, w // 2))
        gx_ref = oracles.indices_maxpool2d_backward(ref, gy)
        np.testing.assert_array_equal(layer.backward(gy), gx_ref)

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (-0.0, 0.0), (0.0, -0.0)])
    def test_maxpool2d_every_tie_pattern(self, low, high):
        # 16 blocks of a 9x9 image, block b holding `high` where bit k of b is set
        # (k = 2 * row + column); the odd last row and column hold a larger value
        x = np.full((1, 1, 9, 9), 5.0)
        for b in range(16):
            for k in range(4):
                x[0, 0, 2 * (b // 4) + k // 2, 2 * (b % 4) + k % 2] = high if b >> k & 1 else low
        layer, ref = MaxPool2D(), MaxPool2D()
        _assert_same_values(layer.forward(x), oracles.argmax_maxpool2d_forward(ref, x))
        gy = np.arange(1.0, 17.0).reshape(1, 1, 4, 4)
        gx = layer.backward(gy)
        np.testing.assert_array_equal(gx, oracles.indices_maxpool2d_backward(ref, gy))
        assert np.count_nonzero(gx) == 16 and not gx[..., 8, :].any() and not gx[..., 8].any()

    @pytest.mark.parametrize("shape", [(3, 4, 8, 3), (2, 16, 5, 7), (1, 1, 1, 1)])
    def test_global_avg_pool_sums_in_row_major_order(self, shape):
        x = np.random.default_rng(list(shape)).standard_normal(shape) * 1e3
        layer = GlobalAvgPool2D()
        ref = oracles.sequential_global_avg_pool2d_forward(layer, x)
        np.testing.assert_array_equal(layer.forward(x), ref)


def _install_oracle_layers(monkeypatch):
    """Install the earlier conv and max-pool passes; their backward always returns gx.

    The earlier conv forward serves inference too: it runs, then drops its state.
    """
    monkeypatch.setattr(Conv1D, "forward", oracles.sliding_window_conv1d_forward)
    monkeypatch.setattr(Conv2D, "forward", oracles.sliding_window_conv2d_forward)
    monkeypatch.setattr(Conv1D, "infer", Layer.infer)
    monkeypatch.setattr(Conv2D, "infer", Layer.infer)
    monkeypatch.setattr(Conv1D, "backward", oracles.im2col_conv1d_backward)
    monkeypatch.setattr(Conv2D, "backward", oracles.im2col_conv2d_backward)
    monkeypatch.setattr(MaxPool1D, "forward", oracles.argmax_maxpool1d_forward)
    monkeypatch.setattr(MaxPool2D, "forward", oracles.argmax_maxpool2d_forward)
    monkeypatch.setattr(MaxPool1D, "backward", oracles.indices_maxpool1d_backward)
    monkeypatch.setattr(MaxPool2D, "backward", oracles.indices_maxpool2d_backward)


def _cnn_fixture(kind):
    rng = np.random.default_rng(11)
    y = np.arange(24) % 3
    if kind == "cnn1d":
        return build_cnn1d(seed=4), rng.standard_normal((24, 1, 256)), y
    return build_cnn2d(input_shape=(33, 13), seed=4), rng.standard_normal((24, 1, 33, 13)), y


class TestSkippedFirstInputGradient:
    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d"])
    def test_first_layer_params_match_full_backward(self, kind):
        model, x, y = _cnn_fixture(kind)
        _, grad = neuralnet.softmax_cross_entropy(model.logits(x), y)
        for layer in reversed(model.layers[1:-1]):
            grad = layer.backward(grad)
        first = model.layers[0]
        assert first.backward(grad, need_gx=False) is None
        skipped = [g.copy() for g in first.grads()]
        gx = first.backward(grad)  # a standalone call still returns the input gradient
        assert gx.shape == x.shape
        for a, b in zip(skipped, first.grads()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d"])
    def test_train_asks_no_input_gradient_of_first_layer(self, kind):
        model, x, y = _cnn_fixture(kind)
        first, seen = model.layers[0], []
        full = first.backward

        def spy(gy, need_gx=True):
            seen.append(need_gx)
            return full(gy, need_gx=need_gx)

        first.backward = spy
        train(model, x, y, TrainConfig(epochs=1, batch_size=8, seed=0))
        assert seen == [False, False, False]

    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d"])
    def test_ten_epochs_match_oracle_training(self, kind, monkeypatch):
        cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=0.02, seed=3)
        model, x, y = _cnn_fixture(kind)
        train(model, x, y, cfg)
        with monkeypatch.context() as m:
            _install_oracle_layers(m)
            ref, _, _ = _cnn_fixture(kind)
            train(ref, x, y, cfg)
        for a, b in zip(model.parameters(), ref.parameters()):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.loss_trace, ref.loss_trace, rtol=1e-12)


def _held_state(model):
    """(layer index, attribute) of every backward-only attribute the layers hold."""
    return [
        (i, name)
        for i, layer in enumerate(model.layers)
        for name in layer.saved
        if hasattr(layer, name)
    ]


def _traced(fn):
    """fn(), and the bytes it left allocated and its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained, peak


class TestInferenceKeepsNoBackwardState:
    """extract_features and predict_proba drop what only backward reads, bit for bit."""

    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d"])
    @pytest.mark.parametrize("n", [1, 2, 33, 180])
    def test_equal_to_training_forward(self, kind, n):
        rng = np.random.default_rng([n, 12])
        if kind == "cnn1d":
            model, x = build_cnn1d(seed=6), rng.standard_normal((n, 1, 256))
        else:
            model, x = build_cnn2d(seed=6), rng.standard_normal((n, 1, 33, 13))
        features = extract_features(model, x)
        assert _held_state(model) == []
        proba = predict_proba(model, x)
        assert _held_state(model) == []
        tap = model.feature_layer_index
        _assert_same_values(features, model.forward(x, upto=tap, keep=True))
        _assert_same_values(proba, model.forward(x, keep=True))
        # The training forward holds every attribute each layer names
        every = [(i, name) for i, layer in enumerate(model.layers) for name in layer.saved]
        assert _held_state(model) == every

    def test_cnn2d_extract_retains_only_its_output(self):
        x = np.random.default_rng(13).standard_normal((180, 1, 33, 13))
        model = build_cnn2d(seed=6)
        extract_features(model, x[:2])  # the im2col index caches are not backward state
        features, retained, peak = _traced(lambda: extract_features(model, x))
        assert retained <= features.nbytes + 2**20
        _, kept, keep_peak = _traced(lambda: model.forward(x, upto=model.feature_layer_index))
        assert kept > 10 * 2**20  # what inference used to pin
        assert peak <= 0.75 * keep_peak

    @pytest.mark.parametrize("kind, index", [("cnn1d", 0), ("cnn2d", 0), ("cnn2d", 3)])
    def test_conv_infer_frees_im2col_before_its_output(self, kind, index):
        rng = np.random.default_rng(14)
        if kind == "cnn1d":
            model, x = build_cnn1d(seed=6), rng.standard_normal((180, 1, 256))
        else:
            model, x = build_cnn2d(seed=6), rng.standard_normal((180, 1, 33, 13))
        h = model.forward(x, upto=index - 1, keep=False) if index else x
        layer = model.layers[index]
        layer.infer(h[:2])  # the im2col index cache is not part of the peak
        out, _, peak = _traced(lambda: layer.infer(h))
        assert _held_state(model) == []
        _assert_same_values(out, layer.forward(h))
        # The GEMM product is as large as the output; all three alive at once is the old peak
        assert peak < layer._xcol.nbytes + 1.5 * out.nbytes

    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d"])
    def test_train_after_inference_is_unchanged(self, kind):
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.02, seed=3)
        model, x, y = _cnn_fixture(kind)
        train(model, x, y, cfg)
        assert _held_state(model) == []  # train drops the last batch's state
        ref, _, _ = _cnn_fixture(kind)
        extract_features(ref, x)
        predict_proba(ref, x[:5])
        train(ref, x, y, cfg)
        for a, b in zip(model.parameters(), ref.parameters()):
            np.testing.assert_array_equal(a, b)
        assert model.loss_trace == ref.loss_trace

    @pytest.mark.parametrize("kind", ["cnn1d", "cnn2d"])
    def test_oracle_layers_serve_inference(self, kind, monkeypatch):
        model, x, _ = _cnn_fixture(kind)
        features, proba = extract_features(model, x), predict_proba(model, x)
        _install_oracle_layers(monkeypatch)
        _assert_same_values(extract_features(model, x), features)
        _assert_same_values(predict_proba(model, x), proba)
