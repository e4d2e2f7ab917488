"""Acceptance suite: eleven go/no-go checks with runtime budgets.

Each test records one PASS/FAIL line, echoed after the pytest summary.
"""

import time

import numpy as np

from ecgstress.dsp import lomb_scargle
from ecgstress.evaluation import (
    Metrics,
    RunResult,
    krippendorff_alpha,
    render_report,
)
from ecgstress.fusion import (
    FusionWeights,
    average_fuse,
    eig_sym,
    gram_covariance,
    principal_weights,
    weighted_fuse,
)
from ecgstress.hrv import freq_features, time_features
from ecgstress.neuralnet import (
    Conv1D,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    MaxPool1D,
    MaxPool2D,
    ReLU,
    Softmax,
    TrainConfig,
    build_cnn1d,
)
from ecgstress.pipeline import (
    PipelineConfig,
    evaluate_loso,
    featurize,
    fit_rows,
    fold_seed,
)

import conftest
from conftest import make_dataset, make_rater_tracks, taint
from oracles import numeric_gradient


def _verdict(name: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, name


def test_01_interrater_agreement():
    """Ordinal agreement on the three-annotator table is 0.44 +/- 0.05, < 1 s."""
    start = time.perf_counter()
    alpha = krippendorff_alpha(make_rater_tracks())
    elapsed = time.perf_counter() - start
    ok = abs(alpha - 0.44) <= 0.05 and elapsed < 1.0
    _verdict(f"acceptance-01 inter-rater agreement (alpha={alpha:.4f}, {elapsed:.2f}s)", ok)


def test_02_cnn1d_shape_chain():
    """The 1D CNN's build-time shape chain matches the derived sequence."""
    expected = [
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
    chain = build_cnn1d(input_len=256, classes=3, feature_dim=32).shape_chain
    _verdict("acceptance-02 cnn1d shape chain", chain == expected)


def _rel_err(a, b):
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / max(
        np.linalg.norm(np.ravel(a)), np.linalg.norm(np.ravel(b)), 1e-12
    )


def _check_layer_grads(layer, x, rng) -> float:
    """Worst relative error across input and parameter gradients for one case."""
    y = layer.forward(x)
    r = rng.standard_normal(y.shape)

    def loss():
        return float(np.sum(layer.forward(x) * r))

    gx = layer.backward(r)
    worst = _rel_err(gx, numeric_gradient(loss, x))
    for p, g in zip(layer.params(), layer.grads()):
        layer.forward(x)
        layer.backward(r)
        analytic = g.copy()
        worst = max(worst, _rel_err(analytic, numeric_gradient(loss, p)))
    return worst


def test_03_gradient_checks():
    """Analytic gradients of every layer kind match finite differences, < 60 s."""
    start = time.perf_counter()
    cases = 20
    worst = 0.0
    for case in range(cases):
        rng = np.random.default_rng([case, 0xACC3])

        def smooth(shape):
            # Keep values away from ReLU/maxpool kinks so finite differences
            # see a locally linear function
            x = rng.standard_normal(shape)
            return x + np.sign(x) * 0.01

        layers_inputs = [
            (Conv1D(2, 3, 3, rng), rng.standard_normal((2, 2, 8))),
            (Conv2D(2, 3, 3, rng), rng.standard_normal((2, 2, 5, 4))),
            (MaxPool1D(), smooth((2, 2, 8))),
            (MaxPool2D(), smooth((2, 2, 6, 4))),
            (ReLU(), smooth((2, 3, 7))),
            (Flatten(), rng.standard_normal((2, 2, 3, 4))),
            (GlobalAvgPool2D(), rng.standard_normal((2, 3, 4, 5))),
            (Dense(6, 4, rng), rng.standard_normal((3, 6))),
            (Softmax(), rng.standard_normal((3, 5))),
        ]
        for layer, x in layers_inputs:
            worst = max(worst, _check_layer_grads(layer, x, rng))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(
        f"acceptance-03 gradient checks ({cases} cases/layer, worst={worst:.2e}, "
        f"{elapsed:.1f}s)",
        ok,
    )


def test_04_eigensolver():
    """100 random symmetric matrices up to 64x64: residual, orthonormality, order."""
    start = time.perf_counter()
    rng = np.random.default_rng(0xE16)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        values, vectors = eig_sym(A)
        norm_a = np.linalg.norm(A)
        for i in range(n):
            residual = np.linalg.norm(A @ vectors[:, i] - values[i] * vectors[:, i])
            ok = ok and residual < 1e-8 * (1.0 + norm_a)
        ok = ok and np.abs(vectors.T @ vectors - np.eye(n)).max() < 1e-9
        ok = ok and np.all(np.diff(values) <= 1e-12)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(f"acceptance-04 eigensolver ({elapsed:.1f}s)", ok)


def test_05_fusion_identities():
    """Gram example exact; weight scale invariance; 0.5-scalar substitution."""
    ok = np.array_equal(
        gram_covariance([[1.0, 2.0], [3.0, 4.0]]), [[10.0, 14.0], [14.0, 20.0]]
    )
    rng = np.random.default_rng(0xF5)
    F = rng.standard_normal((9, 6))
    w = principal_weights(F)
    for a in (0.5, 2.0, 1e3):
        ok = ok and np.abs(principal_weights(a * F) - w).max() < 1e-12
    F1 = rng.standard_normal((7, 5))
    F2 = rng.standard_normal((7, 5))
    half = np.full(5, 0.5)
    norm = np.linalg.norm(half)
    scaled = weighted_fuse(F1, F2, FusionWeights(w1=half / norm, w2=half / norm)) * norm * 2 / 2
    # average_fuse must equal the weighted formula with both vectors at 0.5
    direct = F1 * half[None, :] + F2 * half[None, :]
    ok = ok and np.array_equal(average_fuse(F1, F2), direct)
    ok = ok and np.allclose(scaled, direct)
    _verdict("acceptance-05 fusion identities", ok)


def _oracle_time_features(rr_s):
    import math

    rr_ms = [r * 1000.0 for r in rr_s]
    n = len(rr_ms)
    avnn = sum(rr_ms) / n
    hr = 60000.0 / avnn
    sdnn = math.sqrt(sum((r - avnn) ** 2 for r in rr_ms) / n)
    diffs = [rr_ms[i + 1] - rr_ms[i] for i in range(n - 1)]
    rmssd = math.sqrt(sum(d * d for d in diffs) / len(diffs))
    pnn50 = 100.0 * sum(1 for d in diffs if abs(d) > 50.0) / len(diffs)
    return hr, rmssd, avnn, sdnn, pnn50


def _oracle_freq_features(times_s, rr_s):
    import math

    grid = np.linspace(0.0033, 0.40, 512)
    t = np.asarray(times_s)
    y = np.asarray(rr_s, dtype=float)
    yc = y - y.mean()
    var = float(np.sum(yc**2)) / (len(y) - 1)
    power = np.empty(len(grid))
    for i, f in enumerate(grid):
        w = 2.0 * math.pi * f
        tau = math.atan2(float(np.sum(np.sin(2 * w * t))), float(np.sum(np.cos(2 * w * t)))) / (
            2.0 * w
        )
        arg = w * (t - tau)
        c, s = np.cos(arg), np.sin(arg)
        power[i] = 0.5 * (
            float(np.sum(yc * c)) ** 2 / float(np.sum(c * c))
            + float(np.sum(yc * s)) ** 2 / float(np.sum(s * s))
        )
    if var > 0:
        power = power / var
    power = np.maximum(power, 0.0)

    def band(lo, hi):
        mask = (grid >= lo) & (grid <= hi)
        return float(np.trapezoid(power[mask], grid[mask]))

    return band(0.0033, 0.04), band(0.04, 0.15), band(0.15, 0.40), float(
        np.trapezoid(power, grid)
    )


def test_06_hrv_oracle_equivalence():
    """100 random RR series match brute-force oracles, < 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(0x487)
    worst_time, worst_freq = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(10, 60))
        rr = 0.7 + 0.3 * rng.random(n)
        got = time_features(rr)
        want = _oracle_time_features(rr.tolist())
        for g, w in zip(got, want):
            worst_time = max(worst_time, abs(g - w) / max(abs(w), 1e-9))
        times = np.cumsum(rr)
        got_f = freq_features(times, rr)
        want_f = _oracle_freq_features(times, rr)
        for g, w in zip(got_f, want_f):
            worst_freq = max(worst_freq, abs(g - w) / max(abs(w), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst_time < 1e-9 and worst_freq < 1e-6 and elapsed < 30.0
    _verdict(
        f"acceptance-06 hrv oracle equivalence (time={worst_time:.1e}, "
        f"freq={worst_freq:.1e}, {elapsed:.1f}s)",
        ok,
    )


def test_07_lomb_scargle_uniform_agreement():
    """LS peak equals the DFT periodogram peak on 50 uniform sinusoids, < 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(0x15)
    fs, n = 4.0, 256
    t = np.arange(n) / fs
    freqs = np.fft.rfftfreq(n, 1 / fs)[1:]
    ok = True
    for _ in range(50):
        bin_idx = int(rng.integers(4, len(freqs) - 4))
        f0 = freqs[bin_idx]
        y = (
            (0.5 + rng.random()) * np.sin(2 * np.pi * f0 * t + 2 * np.pi * rng.random())
            + 0.05 * rng.standard_normal(n)
        )
        psd = lomb_scargle(t, y, freqs)
        periodogram = np.abs(np.fft.rfft(y - y.mean())[1:]) ** 2
        ok = ok and np.argmax(psd) == np.argmax(periodogram)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(f"acceptance-07 uniform-grid periodogram agreement ({elapsed:.1f}s)", ok)


ACCEPT_TRAIN = TrainConfig(epochs=20, learning_rate=0.02, batch_size=32)


def test_08_end_to_end_loso():
    """Weighted fusion: >= 0.95 clean accuracy; >= average fusion when one
    modality carries heavy seeded noise. Budget: 5 minutes."""
    start = time.perf_counter()
    data = make_dataset(n_subjects=4, duration_s=60.0)

    clean = evaluate_loso(
        data, PipelineConfig(method="fusion_weighted", cnn_train=ACCEPT_TRAIN, seed=1), 256.0
    )
    noisy_args = dict(cnn_train=ACCEPT_TRAIN, seed=1, corrupt_modality="raw", corrupt_noise_std=0.6)
    weighted = evaluate_loso(data, PipelineConfig(method="fusion_weighted", **noisy_args), 256.0)
    averaged = evaluate_loso(data, PipelineConfig(method="fusion_avg", **noisy_args), 256.0)

    elapsed = time.perf_counter() - start
    ok = (
        clean.mean.accuracy >= 0.95
        and weighted.mean.accuracy >= averaged.mean.accuracy
        and elapsed < 300.0
    )
    _verdict(
        "acceptance-08 end-to-end LOSO "
        f"(clean={clean.mean.accuracy:.3f}, noisy weighted={weighted.mean.accuracy:.3f} "
        f">= average={averaged.mean.accuracy:.3f}, {elapsed:.0f}s)",
        ok,
    )


def test_09_no_leakage_taint(fitted):
    """Perturbing one subject's windows leaves every parameter trained by the LOSO fold
    that tests that subject bit-identical, and changes the fold that trains on it."""
    start = time.perf_counter()
    data = make_dataset(n_subjects=2, duration_s=12.0)
    cfg = PipelineConfig(
        method="fusion_weighted",
        cnn_train=TrainConfig(epochs=2, learning_rate=0.02),
        seed=1,
    )
    evaluate_loso(data, cfg, 256.0)
    evaluate_loso(taint(data, "subj0"), cfg, 256.0)

    def same(a, b):
        ok = True
        for key in ("cnn1d", "cnn2d"):
            for pa, pb in zip(a[key].parameters(), b[key].parameters()):
                ok = ok and np.array_equal(pa, pb)
        ok = ok and np.array_equal(a["fusion_weights"].w1, b["fusion_weights"].w1)
        ok = ok and np.array_equal(a["fusion_weights"].w2, b["fusion_weights"].w2)
        ok = ok and np.array_equal(a["stats"].mean, b["stats"].mean)
        ok = ok and np.array_equal(a["stats"].std, b["stats"].std)
        ok = ok and np.array_equal(a["svm"].weights, b["svm"].weights)
        ok = ok and np.array_equal(a["svm"].biases, b["svm"].biases)
        return ok and a["svm_lambda"] == b["svm_lambda"]

    # Folds train in subject order: clean subj0, clean subj1, tainted subj0, tainted subj1
    fits = fitted()
    ok = len(fits) == 4 and same(fits[0], fits[2]) and not same(fits[1], fits[3])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict(f"acceptance-09 no-leakage taint ({elapsed:.0f}s)", ok)


def test_10_determinism_and_persistence(tmp_path):
    """Identical seeded runs agree; save/load/predict round-trips, < 1 min."""
    from ecgstress.bundle import load_bundle, save_bundle
    from ecgstress.pipeline import fusion_predict

    start = time.perf_counter()
    data = make_dataset(n_subjects=2, duration_s=12.0)
    cfg = PipelineConfig(
        method="cnn1d", cnn_train=TrainConfig(epochs=3, learning_rate=0.02), seed=4
    )
    r1 = evaluate_loso(data, cfg, 256.0)
    r2 = evaluate_loso(data, cfg, 256.0)
    ok = r1.mean.to_dict() == r2.mean.to_dict()
    for (s1, m1), (s2, m2) in zip(r1.per_fold, r2.per_fold):
        ok = ok and s1 == s2 and m1.to_dict() == m2.to_dict()

    fcfg = PipelineConfig(
        method="fusion_weighted", cnn_train=TrainConfig(epochs=2, learning_rate=0.02), seed=4
    )
    comps = fit_rows(featurize(data.windows, fcfg, 256.0), fcfg, fold_seed(fcfg.seed, ""))
    path = tmp_path / "bundle.json"
    save_bundle(
        path,
        method=fcfg.method,
        components=comps,
        window_seconds=1.0,
        sample_rate_hz=256.0,
        feature_dim=fcfg.feature_dim,
        spectrogram=fcfg.spectrogram,
        seed=fcfg.seed,
    )
    loaded = load_bundle(path)
    rows = featurize(data.windows[:12], fcfg, 256.0).x
    ok = ok and np.array_equal(
        fusion_predict(comps, rows),
        fusion_predict(loaded["components"], rows),
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(f"acceptance-10 determinism and persistence ({elapsed:.0f}s)", ok)


def test_11_report_fidelity():
    """A result with 72.7% accuracy and 73.1 F1 renders with one-decimal percents."""
    m = Metrics(0.727, 0.72, 0.72, 0.731, np.zeros((3, 3), dtype=np.int64))
    res = RunResult(method="fusion_weighted", per_fold=(("s0", m),), mean=m, seed=0)
    report = render_report([res])
    row = next(l for l in report.splitlines() if "72.7" in l)
    ok = "72.7" in row and "73.1" in row
    _verdict("acceptance-11 report fidelity", ok)
