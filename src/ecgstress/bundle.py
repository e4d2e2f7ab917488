"""Versioned JSON persistence for trained pipelines."""

from __future__ import annotations

import base64
import datetime
import json
import math
import os
from dataclasses import asdict, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import neuralnet
from .classifiers import StandardizationStats, SvmModel
from .dsp import SpectrogramParams
from .fusion import FusionWeights
from .hrv import FEATURE_NAMES
from .pipeline import METHODS
from .signal_core import LEVELS

FORMAT_VERSION = 2  # version 1 stored arrays as nested JSON lists; it still loads

# Array dtype by numpy kind; "<i8" holds knn.train_y, "<f8" every other array
_DTYPES = {"f": "<f8", "i": "<i8"}


class BundleError(ValueError):
    pass


def _pack(a: np.ndarray) -> dict:
    """An array as {"dtype", "shape", "b64"}: its little-endian bytes in base64."""
    dtype = _DTYPES.get(a.dtype.kind)
    if dtype is None:
        raise TypeError(f"cannot store a {a.dtype} array in a bundle")
    if not np.isfinite(a).all():
        raise ValueError("cannot save a non-finite value in a bundle")
    data = np.ascontiguousarray(a, dtype=dtype).tobytes()
    return {"dtype": dtype, "shape": list(a.shape), "b64": base64.b64encode(data).decode("ascii")}


def _array(value, name: str) -> np.ndarray:
    """The array of field `name`, a version-1 nested list of integers or floats or a
    _pack object; the latter must be finite."""
    if isinstance(value, list):
        arr = np.asarray(value)
        if arr.dtype.kind not in _DTYPES:  # as the dtype check below: no strings or bools
            raise BundleError(f"{name} must hold integers or floats, got {arr.dtype} values")
        return arr
    dtype, shape = value["dtype"], value["shape"]
    if dtype not in _DTYPES.values():
        raise BundleError(f"{name}: unknown array dtype {dtype!r}")
    if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
        raise BundleError(f"{name}: array shape must be a list of sizes, got {shape!r}")
    data = base64.b64decode(value["b64"], validate=True)
    if len(data) != 8 * math.prod(shape):
        raise BundleError(f"{name}: array of shape {shape} holds {len(data)} bytes")
    arr = np.frombuffer(data, dtype=dtype).reshape(shape)
    if not np.isfinite(arr).all():
        raise BundleError(f"{name}: array holds a non-finite value")
    return arr


def _cnn(build, shape_key: str, shape_of):
    """Codec of a CNN: its input shape under shape_key, plus its parameter tensors."""

    def encode(model) -> dict:
        params = [_pack(a) for a in model.parameters()]
        return {shape_key: shape_of(model.input_shape), "params": params}

    def decode(doc: dict, key: str):
        section = doc[key]
        model = build(section[shape_key], feature_dim=doc["feature_dim"], seed=doc["seed"])
        params, stored = model.parameters(), section["params"]
        if len(params) != len(stored):
            raise BundleError(
                f"{key}: expected {len(params)} parameter tensors, found {len(stored)}"
            )
        for i, (p, values) in enumerate(zip(params, stored)):
            name = f"{key}.params[{i}]"
            arr = _array(values, name)
            if arr.shape != p.shape:
                raise BundleError(f"{name}: shape {arr.shape} does not match model {p.shape}")
            p[...] = arr
        return model

    return encode, decode


def _record(cls):
    """Codec of a dataclass (or dict) of scalars and arrays; arrays are stored by _pack."""

    def encode(value) -> dict:
        if not isinstance(value, dict):
            value = {f.name: getattr(value, f.name) for f in fields(value)}
        return {k: _pack(v) if isinstance(v, np.ndarray) else v for k, v in value.items()}

    def decode(doc: dict, key: str):
        return cls(**{k: _array(v, f"{key}.{k}") if isinstance(v, (list, dict)) else v
                      for k, v in doc[key].items()})

    return encode, decode


# Component key -> (encode(component), decode(doc, key)). A bundle holds one
# section per component, under the component's key and in this order.
CODECS = {
    "cnn1d": _cnn(neuralnet.build_cnn1d, "input_len", lambda shape: shape[1]),
    "cnn2d": _cnn(neuralnet.build_cnn2d, "input_shape", lambda shape: list(shape[1:])),
    "fusion_weights": _record(FusionWeights),
    "stats": _record(StandardizationStats),
    "svm": _record(SvmModel),
    "knn": _record(dict),
}


class Bundle(NamedTuple):
    """A trained pipeline: the header fields in the file's order, then its components."""

    method: str
    window_seconds: float
    sample_rate_hz: float
    feature_dim: int
    spectrogram: SpectrogramParams
    seed: int
    components: dict  # component key -> trained component, the method's keys only


HEADER_KEYS = Bundle._fields[:-1]

# Fields that bundles stored until they became constants, with their one value: such a
# bundle still loads, and any other value is refused
_RETIRED = {"spectrogram": ("window_fn", "hanning"),
            "fusion_weights": ("sign_convention", "first-nonzero-nonnegative")}
# The arrays that run over the features on their last axis: (section, field, axes)
_FEATURE_ARRAYS = (
    ("stats", "mean", 1), ("stats", "std", 1), ("svm", "weights", 2), ("knn", "train_X", 2),
    ("fusion_weights", "w1", 1), ("fusion_weights", "w2", 1),
)


def _check_header(doc: dict) -> None:
    """Raise BundleError unless the header fields have the types predict needs.

    JSON numbers load as plain int or float, so an exact type test also refuses bools.
    """
    if not isinstance(doc["method"], str):
        raise BundleError(f"bundle method must be a string, got {doc['method']!r}")
    for key in ("window_seconds", "sample_rate_hz"):
        value = doc[key]
        if type(value) not in (int, float) or not 0 < value < math.inf:
            raise BundleError(f"bundle {key} must be a positive number, got {value!r}")
    for key in ("feature_dim", "seed"):
        if type(doc[key]) is not int:
            raise BundleError(f"bundle {key} must be an integer, got {doc[key]!r}")
    if doc["feature_dim"] < 1:
        raise BundleError(f"bundle feature_dim must be at least 1, got {doc['feature_dim']}")


def _check_shapes(components: dict, method: str, width: int, path) -> None:
    """Raise BundleError unless each array that runs over the features is `width` wide,
    and the SVM scores at most one class per level."""
    for key, name, ndim in _FEATURE_ARRAYS:
        if key in components:
            section = components[key]
            shape = np.shape(section[name] if key == "knn" else getattr(section, name))
            if len(shape) != ndim or shape[-1] != width:
                want = f"({width},)" if ndim == 1 else f"(rows, {width})"
                raise BundleError(
                    f"bundle {path}: {key}.{name} must have shape {want} for the {width} {method} "
                    f"features, got {shape}"
                )
    svm = components.get("svm")
    if svm is not None and (len(svm.weights) > len(LEVELS) or svm.biases.ndim != 1):
        raise BundleError(
            f"bundle {path}: svm must hold one weight row and one bias per class, at most "
            f"{len(LEVELS)}, got shapes {svm.weights.shape} and {svm.biases.shape}"
        )


def _check_cnn_inputs(components: dict, doc: dict, path) -> None:
    """Raise BundleError unless each CNN takes the input that the header's window gives:
    its samples, or the spectrogram of them (see dsp.stft_spectrogram)."""
    wlen = round(doc["window_seconds"] * doc["sample_rate_hz"])
    window = f"{wlen}-sample windows ({doc['window_seconds']:g} s at {doc['sample_rate_hz']:g} Hz)"
    if "cnn1d" in components:
        (got,) = components["cnn1d"].input_shape[1:]
        if got != wlen:
            raise BundleError(f"bundle {path}: cnn1d.input_len must be {wlen} for {window}, "
                              f"got {got}")
    if "cnn2d" in components:
        spec = doc["spectrogram"]
        want = [spec.window_len // 2 + 1, (wlen - spec.window_len) // spec.hop + 1]
        got = list(components["cnn2d"].input_shape[1:])
        if got != want:
            raise BundleError(
                f"bundle {path}: cnn2d.input_shape must be {want} for {window} and "
                f"spectrogram window_len {spec.window_len} and hop {spec.hop}, got {got}"
            )


def _check_knn(knn: dict, path) -> None:
    """Raise BundleError unless the knn section is what classifiers.knn_predict_batch reads."""
    if set(knn) != {"train_X", "train_y", "k"}:
        raise BundleError(f"bundle {path}: knn must hold train_X, train_y and k, got {sorted(knn)}")
    train_X, train_y, k = np.asarray(knn["train_X"]), np.asarray(knn["train_y"]), knn["k"]
    if train_X.ndim != 2:
        raise BundleError(f"bundle {path}: knn train_X must be 2-D, got shape {train_X.shape}")
    one_per_row = train_y.dtype.kind == "i" and train_y.shape == (len(train_X),)
    if not (one_per_row and np.isin(train_y, LEVELS).all()):
        raise BundleError(
            f"bundle {path}: knn train_y must hold one level of {LEVELS} per train_X row "
            f"({len(train_X)}), got {train_y.dtype} of shape {train_y.shape}"
        )
    if type(k) is not int:
        raise BundleError(f"bundle {path}: knn k must be an integer, got {k!r}")
    if not 1 <= k <= len(train_X):
        raise BundleError(f"bundle {path}: knn k must be in [1, {len(train_X)}], got {k}")


def save_bundle(path, bundle: Bundle) -> None:
    """Write the bundle through a temporary file, so a failed save leaves `path` as it was."""
    doc = {"format_version": FORMAT_VERSION, **bundle._asdict()}
    components = doc.pop("components")
    doc["spectrogram"] = asdict(bundle.spectrogram)
    doc["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    for key, (encode, _) in CODECS.items():
        if components.get(key) is not None:
            doc[key] = encode(components[key])
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(doc, allow_nan=False))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_bundle(path) -> Bundle:
    """Load and validate a bundle; its components are ready to use."""
    non_finite = []  # NaN and ±Infinity tokens; save_bundle never writes them

    def note(token: str) -> float:
        non_finite.append(token)
        return float(token)

    try:
        doc = json.loads(Path(path).read_text(), parse_constant=note)
    except (OSError, json.JSONDecodeError) as exc:
        raise BundleError(f"cannot read bundle {path}: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise BundleError(f"unrecognized bundle format_version {version!r}")
    missing = [key for key in HEADER_KEYS if key not in doc]
    if missing:
        raise BundleError(f"bundle lacks {', '.join(missing)}")
    _check_header(doc)
    if non_finite:
        raise BundleError(f"bundle holds the non-finite constant {non_finite[0]}")
    method = doc["method"]
    if method not in METHODS:
        raise BundleError(f"unknown method {method!r} in bundle")
    needed = METHODS[method].components
    missing = [key for key in needed if key not in doc]
    if missing:
        raise BundleError(f"{method} bundle lacks {', '.join(missing)}")
    for key in ("spectrogram", *needed):
        if not isinstance(doc[key], dict):
            raise BundleError(
                f"bundle {path}: {key} must be a JSON object, got {type(doc[key]).__name__}"
            )
    for key, (name, value) in _RETIRED.items():
        stored = doc[key].pop(name, value) if isinstance(doc.get(key), dict) else value
        if stored != value:
            raise BundleError(f"bundle {path}: {key}.{name} must be {value!r}, got {stored!r}")
    try:
        components = {key: CODECS[key][1](doc, key) for key in needed}
        doc["spectrogram"] = SpectrogramParams(**doc["spectrogram"])
    except BundleError as exc:
        raise BundleError(f"bundle {path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"malformed bundle {path}: {exc!r}") from exc
    _check_cnn_inputs(components, doc, path)
    if "knn" in components:
        _check_knn(components["knn"], path)
    # The features are the HRV vector's, or the fused CNN features
    width = len(FEATURE_NAMES) if "hrv" in METHODS[method].inputs else doc["feature_dim"]
    _check_shapes(components, method, width, path)
    return Bundle(*(doc[key] for key in HEADER_KEYS), components)
