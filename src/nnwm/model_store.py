"""Sequential CNN container with a bit-exact on-disk format.

A model is an ordered list of layers (conv2d, batchnorm, relu, maxpool,
global_avg_pool, linear) plus an input shape.  On disk it is a pair of
files:

* architecture manifest -- JSON with top level
  ``{"format": "nnwm-v1", "input": [C, H, W], "layers": [...]}``;
* weight blob -- an 8-byte header (magic ``NNWM``, version u32
  little-endian) followed by the raw float32 tensors, little-endian,
  row-major, concatenated in graph order.  Each layer class lists the
  arrays it owns once, in blob order, in ``ARRAYS`` (conv: weights
  (c_out, c_in, kh, kw) then the optional bias; batchnorm: gamma, beta,
  running_mean, running_var; linear: weights then bias) and the ones SGD
  updates in ``TRAINABLE``.  Copies, blob I/O, casts and channel slicing
  all walk ``layer_arrays``.

Tensor offsets are always derived from the manifest shapes, never stored,
so the manifest is the single source of truth.  load/save round-trip at
byte level.

A parsed manifest holds each declared tensor as a read-only, zero-stride
zero placeholder (``np.broadcast_to``): its shape and size give the blob
layout, but it allocates nothing, so a manifest that declares a huge
tensor costs no memory.  ``load_arch`` stops there and runs only the
structural checks; ``load_model`` compares the blob size against the
placeholder sizes before it reads any tensor, then swaps in owned arrays
and runs the full ``validate``, which also checks values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    BlobFormatError,
    BlobSizeError,
    ManifestError,
    ShapeConsistencyError,
)

MAGIC = b"NNWM"
VERSION = 1
MANIFEST_FORMAT = "nnwm-v1"
DEFAULT_BN_EPS = 1e-5


@dataclass
class ConvLayer:
    """2-D convolution; weights shaped (c_out, c_in, kh, kw)."""

    ARRAYS = TRAINABLE = ("weights", "bias")
    weights: np.ndarray
    bias: np.ndarray | None = None
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    @property
    def c_out(self) -> int:
        return int(self.weights.shape[0])

    @property
    def c_in(self) -> int:
        return int(self.weights.shape[1])


@dataclass
class BatchNormLayer:
    """Per-channel affine normalization over a (N, C, H, W) map."""

    ARRAYS = ("gamma", "beta", "running_mean", "running_var")
    TRAINABLE = ("gamma", "beta")
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = DEFAULT_BN_EPS

    @property
    def channels(self) -> int:
        return int(self.gamma.shape[0])


@dataclass
class ReluLayer:
    ARRAYS = TRAINABLE = ()


@dataclass
class MaxPoolLayer:
    ARRAYS = TRAINABLE = ()
    kernel: int
    stride: int


@dataclass
class GlobalAvgPoolLayer:
    ARRAYS = TRAINABLE = ()


@dataclass
class LinearLayer:
    """Fully connected layer; weights shaped (out_features, in_features)."""

    ARRAYS = TRAINABLE = ("weights", "bias")
    weights: np.ndarray
    bias: np.ndarray | None = None

    @property
    def out_features(self) -> int:
        return int(self.weights.shape[0])

    @property
    def in_features(self) -> int:
        return int(self.weights.shape[1])


Layer = ConvLayer | BatchNormLayer | ReluLayer | MaxPoolLayer | GlobalAvgPoolLayer | LinearLayer


def layer_arrays(ly: Layer) -> Iterator[tuple[str, np.ndarray]]:
    """(attribute, array) pairs of one layer in pinned blob order; an absent bias is skipped."""
    for attr in ly.ARRAYS:
        arr = getattr(ly, attr)
        if arr is not None:
            yield attr, arr


@dataclass
class ModelGraph:
    """Straight-line layer list; the host signal for watermarking."""

    layers: list[Layer]
    input_shape: tuple[int, int, int]
    name: str = "model"


def conv_layer_indices(model: ModelGraph) -> list[int]:
    """Graph positions of all conv layers, in order."""
    return [i for i, ly in enumerate(model.layers) if isinstance(ly, ConvLayer)]


def channel_counts(model: ModelGraph) -> list[int]:
    """Output-channel count of each conv layer, in graph order."""
    return [ly.c_out for ly in model.layers if isinstance(ly, ConvLayer)]


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeConsistencyError(msg)


def _check_vector(name: str, v: np.ndarray, length: int | None = None) -> None:
    _check(isinstance(v, np.ndarray) and v.ndim == 1, f"{name} must be a 1-D array")
    _check(v.size >= 1, f"{name} must be non-empty")
    if length is not None:
        _check(v.shape[0] == length, f"{name} has length {v.shape[0]}, expected {length}")


def layer_input_shapes(model: ModelGraph) -> list[tuple]:
    """Activation shape entering each layer.

    Entries are ("map", C, H, W) for spatial activations and ("vec", F)
    after global pooling or a linear layer.  Raises ShapeConsistencyError
    on any adjacent-shape mismatch.
    """
    c, h, w = (int(x) for x in model.input_shape)
    _check(c >= 1 and h >= 1 and w >= 1, f"input shape {model.input_shape} not positive")
    shape: tuple = ("map", c, h, w)
    shapes = []
    for pos, ly in enumerate(model.layers):
        shapes.append(shape)
        where = f"layer {pos} ({type(ly).__name__})"
        if isinstance(ly, ConvLayer):
            _check(shape[0] == "map", f"{where}: conv applied to non-spatial input")
            _, c, h, w = shape
            _check(ly.c_in == c, f"{where}: c_in {ly.c_in} != incoming channels {c}")
            kh, kw = int(ly.weights.shape[2]), int(ly.weights.shape[3])
            (sy, sx), (py, px) = ly.stride, ly.padding
            ho = (h + 2 * py - kh) // sy + 1
            wo = (w + 2 * px - kw) // sx + 1
            _check(h + 2 * py >= kh and w + 2 * px >= kw and ho >= 1 and wo >= 1,
                   f"{where}: kernel {kh}x{kw} too large for {h}x{w} input")
            shape = ("map", ly.c_out, ho, wo)
        elif isinstance(ly, BatchNormLayer):
            _check(shape[0] == "map", f"{where}: batchnorm applied to non-spatial input")
            _check(ly.channels == shape[1],
                   f"{where}: batchnorm length {ly.channels} != incoming channels {shape[1]}")
        elif isinstance(ly, ReluLayer):
            pass
        elif isinstance(ly, MaxPoolLayer):
            _check(shape[0] == "map", f"{where}: maxpool applied to non-spatial input")
            _, c, h, w = shape
            _check(h >= ly.kernel and w >= ly.kernel,
                   f"{where}: pool kernel {ly.kernel} too large for {h}x{w} input")
            shape = ("map", c, (h - ly.kernel) // ly.stride + 1, (w - ly.kernel) // ly.stride + 1)
        elif isinstance(ly, GlobalAvgPoolLayer):
            _check(shape[0] == "map", f"{where}: global pool applied to non-spatial input")
            shape = ("vec", shape[1])
        elif isinstance(ly, LinearLayer):
            feats = shape[1] * shape[2] * shape[3] if shape[0] == "map" else shape[1]
            _check(ly.in_features == feats,
                   f"{where}: in_features {ly.in_features} != incoming features {feats}")
            shape = ("vec", ly.out_features)
        else:
            raise ShapeConsistencyError(f"{where}: unknown layer type")
    return shapes


def _check_structure(model: ModelGraph) -> None:
    """The rules a manifest alone decides: ranks, dims, lengths, strides, eps and shapes."""
    _check(len(model.layers) >= 1, "model has no layers")
    for pos, ly in enumerate(model.layers):
        where = f"layer {pos} ({type(ly).__name__})"
        if isinstance(ly, ConvLayer):
            _check(isinstance(ly.weights, np.ndarray) and ly.weights.ndim == 4,
                   f"{where}: conv weights must be 4-D")
            _check(all(d >= 1 for d in ly.weights.shape), f"{where}: non-positive weight dim")
            if ly.bias is not None:
                _check_vector(f"{where} bias", ly.bias, ly.c_out)
            _check(ly.stride[0] >= 1 and ly.stride[1] >= 1, f"{where}: stride must be >= 1")
            _check(ly.padding[0] >= 0 and ly.padding[1] >= 0, f"{where}: negative padding")
        elif isinstance(ly, BatchNormLayer):
            n = ly.gamma.shape[0] if isinstance(ly.gamma, np.ndarray) and ly.gamma.ndim == 1 else -1
            _check(n >= 1, f"{where}: gamma must be a non-empty 1-D array")
            for attr in ("beta", "running_mean", "running_var"):
                _check_vector(f"{where} {attr}", getattr(ly, attr), n)
            _check(float(ly.eps) > 0 and np.isfinite(ly.eps), f"{where}: eps must be positive")
        elif isinstance(ly, MaxPoolLayer):
            _check(ly.kernel >= 1 and ly.stride >= 1, f"{where}: kernel and stride must be >= 1")
        elif isinstance(ly, LinearLayer):
            _check(isinstance(ly.weights, np.ndarray) and ly.weights.ndim == 2,
                   f"{where}: linear weights must be 2-D")
            if ly.bias is not None:
                _check_vector(f"{where} bias", ly.bias, ly.out_features)
    _check(len(conv_layer_indices(model)) >= 1, "model has no conv layer")
    layer_input_shapes(model)


def validate(model: ModelGraph) -> None:
    """Check every structural invariant and that every array holds finite values.

    Raises ShapeConsistencyError if either is violated.
    """
    _check_structure(model)
    for pos, ly in enumerate(model.layers):
        where = f"layer {pos} ({type(ly).__name__})"
        for attr, arr in layer_arrays(ly):
            _check(bool(np.isfinite(arr).all()), f"{where}: non-finite {attr}")
        if isinstance(ly, BatchNormLayer):
            _check(bool((ly.running_var >= 0).all()), f"{where}: negative running_var")


def clone_graph(model: ModelGraph) -> ModelGraph:
    """Deep copy; all weight arrays are owned by the copy."""
    layers = [replace(ly, **{attr: arr.copy() for attr, arr in layer_arrays(ly)})
              for ly in model.layers]
    return ModelGraph(layers, tuple(model.input_shape), model.name)


def iter_named_params(model: ModelGraph) -> Iterator[tuple[int, str, np.ndarray]]:
    """Yield (layer position, attribute name, array) for every trainable tensor."""
    for pos, ly in enumerate(model.layers):
        for attr, arr in layer_arrays(ly):
            if attr in ly.TRAINABLE:
                yield pos, attr, arr


# --- serialization ---------------------------------------------------------

def _layer_to_record(ly: Layer) -> dict:
    if isinstance(ly, ConvLayer):
        kh, kw = int(ly.weights.shape[2]), int(ly.weights.shape[3])
        return {"type": "conv2d", "out_channels": ly.c_out, "in_channels": ly.c_in,
                "kernel": [kh, kw], "stride": [int(ly.stride[0]), int(ly.stride[1])],
                "padding": [int(ly.padding[0]), int(ly.padding[1])],
                "bias": ly.bias is not None}
    if isinstance(ly, BatchNormLayer):
        return {"type": "batchnorm", "channels": ly.channels, "eps": float(ly.eps)}
    if isinstance(ly, ReluLayer):
        return {"type": "relu"}
    if isinstance(ly, MaxPoolLayer):
        return {"type": "maxpool", "kernel": int(ly.kernel), "stride": int(ly.stride)}
    if isinstance(ly, GlobalAvgPoolLayer):
        return {"type": "global_avg_pool"}
    if isinstance(ly, LinearLayer):
        return {"type": "linear", "out": ly.out_features, "in": ly.in_features,
                "bias": ly.bias is not None}
    raise ShapeConsistencyError(f"unknown layer type {type(ly).__name__}")


def _require(rec: dict, key: str, idx: int):
    if key not in rec:
        raise ManifestError(f"layer {idx}: missing field '{key}'")
    return rec[key]


def _int(rec: dict, key: str, idx: int) -> int:
    v = _require(rec, key, idx)
    if type(v) is not int:
        raise ManifestError(f"layer {idx}: '{key}' must be an integer, got {v!r}")
    return v


def _int_pair(rec: dict, key: str, idx: int) -> tuple[int, int]:
    v = _require(rec, key, idx)
    if not (isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v)):
        raise ManifestError(f"layer {idx}: '{key}' must be a pair of integers")
    return v[0], v[1]


_ZERO = np.zeros((), dtype=np.float32)


def _placeholder(shape: tuple[int, ...], idx: int) -> np.ndarray:
    """Read-only zero view of the declared shape; allocates nothing, whatever the shape."""
    try:
        return np.broadcast_to(_ZERO, shape)
    except (ValueError, OverflowError) as e:
        raise ManifestError(f"layer {idx}: cannot represent a tensor of shape {shape}: {e}") from e


def _bias(rec: dict, idx: int, n: int) -> np.ndarray | None:
    v = _require(rec, "bias", idx)
    if type(v) is not bool:
        raise ManifestError(f"layer {idx}: 'bias' must be true or false, got {v!r}")
    return _placeholder((n,), idx) if v else None


def _record_to_layer(rec: dict, idx: int) -> Layer:
    """Build a layer of placeholder arrays; their shapes give the blob layout."""
    if not isinstance(rec, dict) or "type" not in rec:
        raise ManifestError(f"layer {idx}: record must be an object with a 'type' field")
    t = rec["type"]
    if t == "conv2d":
        co, ci = _int(rec, "out_channels", idx), _int(rec, "in_channels", idx)
        kh, kw = _int_pair(rec, "kernel", idx)
        stride = _int_pair(rec, "stride", idx)
        padding = _int_pair(rec, "padding", idx)
        if min(co, ci, kh, kw) < 1:
            raise ManifestError(f"layer {idx}: conv2d dims must be positive")
        return ConvLayer(_placeholder((co, ci, kh, kw), idx), _bias(rec, idx, co),
                         stride, padding)
    if t == "batchnorm":
        n = _int(rec, "channels", idx)
        if n < 1:
            raise ManifestError(f"layer {idx}: batchnorm channels must be positive")
        eps = rec.get("eps", DEFAULT_BN_EPS)
        if type(eps) not in (int, float):
            raise ManifestError(f"layer {idx}: 'eps' must be a number, got {eps!r}")
        try:
            eps = float(eps)
        except OverflowError:
            raise ManifestError(f"layer {idx}: 'eps' {eps} is out of float range") from None
        vec = _placeholder((n,), idx)
        return BatchNormLayer(vec, vec, vec, vec, eps)
    if t == "relu":
        return ReluLayer()
    if t == "maxpool":
        return MaxPoolLayer(_int(rec, "kernel", idx), _int(rec, "stride", idx))
    if t == "global_avg_pool":
        return GlobalAvgPoolLayer()
    if t == "linear":
        out, inp = _int(rec, "out", idx), _int(rec, "in", idx)
        if min(out, inp) < 1:
            raise ManifestError(f"layer {idx}: linear dims must be positive")
        return LinearLayer(_placeholder((out, inp), idx), _bias(rec, idx, out))
    raise ManifestError(f"layer {idx}: unknown layer type '{t}'")


def _parse_manifest(arch_path: str | Path) -> ModelGraph:
    """Parse a manifest into a graph of placeholder arrays."""
    try:
        text = Path(arch_path).read_bytes()
    except OSError as e:
        raise ManifestError(f"cannot read manifest {arch_path}: {e}") from e
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON or bad UTF-8
        raise ManifestError(f"manifest {arch_path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ManifestError("manifest top level must be an object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ManifestError(f"manifest format must be '{MANIFEST_FORMAT}', got {doc.get('format')!r}")
    inp = doc.get("input")
    if not (isinstance(inp, list) and len(inp) == 3 and all(type(x) is int and x >= 1 for x in inp)):
        raise ManifestError("manifest 'input' must be [C, H, W] positive integers")
    recs = doc.get("layers")
    if not isinstance(recs, list) or not recs:
        raise ManifestError("manifest 'layers' must be a non-empty list")
    layers = [_record_to_layer(rec, i) for i, rec in enumerate(recs)]
    return ModelGraph(layers, (inp[0], inp[1], inp[2]), str(doc.get("name", "model")))


def load_arch(arch_path: str | Path) -> ModelGraph:
    """Load the manifest alone, for operations that read only the structure.

    Every array is a read-only zero placeholder that allocates nothing, so
    the cost does not grow with the declared tensor sizes, and only the
    structural checks run: the values are zero by construction.  Enough
    for channel counts, extraction, verification and capacity.
    """
    model = _parse_manifest(arch_path)
    _check_structure(model)
    return model


def load_model(arch_path: str | Path, weights_path: str | Path) -> ModelGraph:
    """Load a manifest + weight blob pair; bit-exact float payload."""
    model = _parse_manifest(arch_path)
    blob = Path(weights_path).read_bytes()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise BlobFormatError(f"weight blob {weights_path} has bad magic (expected {MAGIC!r})")
    version = int.from_bytes(blob[4:8], "little")
    if version != VERSION:
        raise BlobFormatError(f"unsupported blob version {version} (expected {VERSION})")
    expected = 8 + 4 * sum(arr.size for ly in model.layers for _, arr in layer_arrays(ly))
    if len(blob) != expected:
        raise BlobSizeError(f"weight blob is {len(blob)} bytes, manifest declares {expected}")
    off = 8
    for ly in model.layers:
        for attr, shaped in list(layer_arrays(ly)):
            arr = np.frombuffer(blob, dtype="<f4", count=shaped.size, offset=off)
            setattr(ly, attr, arr.reshape(shaped.shape).copy())
            off += 4 * shaped.size
    validate(model)
    return model


def save_model(model: ModelGraph, arch_path: str | Path, weights_path: str | Path) -> None:
    """Write the manifest/blob pair; deterministic bytes for identical input."""
    validate(model)
    manifest = {
        "format": MANIFEST_FORMAT,
        "name": model.name,
        "input": [int(x) for x in model.input_shape],
        "layers": [_layer_to_record(ly) for ly in model.layers],
    }
    Path(arch_path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    parts = [MAGIC, VERSION.to_bytes(4, "little")]
    for ly in model.layers:
        for _, arr in layer_arrays(ly):
            parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    Path(weights_path).write_bytes(b"".join(parts))
