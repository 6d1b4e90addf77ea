"""Sequential CNN container with a bit-exact on-disk format.

A model is an ordered list of layers plus an input shape.  Each layer type
is one class that describes that type once (see ``_LayerBase``): its
manifest ``TYPE`` and record, its structural checks and output shape, how
it follows a pruning of its input channels, and the arrays it owns, in
blob order, in ``ARRAYS`` (conv: weights (c_out, c_in, kh, kw) then the
optional bias; batchnorm: gamma, beta, running_mean, running_var; linear:
weights then bias) and the ones SGD updates in ``TRAINABLE``.
``LAYER_TYPES`` maps each manifest type back to its class.  Copies, blob
I/O, casts and channel slicing all walk ``layer_arrays``.

On disk a model is a pair of files: an architecture manifest, JSON with
top level ``{"format": "nnwm-v1", "input": [C, H, W], "layers": [...]}``,
and a weight blob, an 8-byte header (magic ``NNWM``, version u32
little-endian) followed by the raw float32 tensors, little-endian,
row-major, concatenated in graph order.  Tensor offsets are always derived
from the manifest shapes, never stored, so the manifest is the single
source of truth.  load/save round-trip at byte level.

A parsed manifest holds each declared tensor as a read-only, zero-stride
zero placeholder (``np.broadcast_to``): its shape and size give the blob
layout, but it allocates nothing, so a manifest that declares a huge
tensor costs no memory.

The checks come in two parts, run where each is needed.  The structural
part, ``layer_input_shapes``, needs only the manifest; the value part,
``check_values`` (every value finite, every ``running_var`` >= 0), needs
the weights; ``validate`` runs both.
- ``load_arch`` runs the structural checks and stops.
- ``load_model`` starts from ``load_arch``, checks the blob's header and
  compares its size with the placeholder sizes before it reads any tensor,
  reads each tensor into an owned, writable array of its own, then runs
  the value checks.
- ``pruner.apply_prune`` reruns only the structural checks: slicing loaded
  arrays cannot create a bad value.
- ``save_model`` runs the full ``validate`` before it writes anything.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
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


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeConsistencyError(msg)


def _check_vector(name: str, v: np.ndarray, length: int | None = None) -> None:
    _check(isinstance(v, np.ndarray) and v.ndim == 1, f"{name} must be a 1-D array")
    _check(v.size >= 1, f"{name} must be non-empty")
    if length is not None:
        _check(v.shape[0] == length, f"{name} has length {v.shape[0]}, expected {length}")


def _check_weights(ly: Layer, ndim: int, where: str) -> None:
    _check(isinstance(ly.weights, np.ndarray) and ly.weights.ndim == ndim,
           f"{where}: weights must be {ndim}-D")
    _check(all(d >= 1 for d in ly.weights.shape), f"{where}: non-positive weight dim")
    if ly.bias is not None:
        _check_vector(f"{where} bias", ly.bias, int(ly.weights.shape[0]))


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


class _LayerBase:
    """Defaults for a layer that owns no arrays, keeps its input shape and
    stores each of its fields as a manifest integer of the same name."""

    ARRAYS = TRAINABLE = ()

    @classmethod
    def from_record(cls, rec: dict, idx: int):
        """The layer a manifest record describes, with placeholder arrays."""
        return cls(*(_int(rec, f.name, idx) for f in fields(cls)))

    def record(self) -> dict:
        """The manifest fields that follow "type", in pinned order."""
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    def out_shape(self, shape: tuple, where: str) -> tuple:
        """Check the layer against its input activation shape, ("map", C, H, W)
        or ("vec", F); return the shape it emits."""
        return shape

    def keep_inputs(self, retained: list[int], in_shape: tuple) -> bool:
        """Keep only the retained input channels.

        Returns True when the layer absorbs the channel axis, so nothing
        after it needs rewiring; False when it passes the channels on.  The
        default slices every owned (per-channel) array and passes them on.
        """
        keep_channels(self, retained)
        return False


@dataclass
class ConvLayer(_LayerBase):
    """2-D convolution; weights shaped (c_out, c_in, kh, kw)."""

    TYPE = "conv2d"
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

    @classmethod
    def from_record(cls, rec: dict, idx: int) -> ConvLayer:
        co, ci = _int(rec, "out_channels", idx), _int(rec, "in_channels", idx)
        kh, kw = _int_pair(rec, "kernel", idx)
        stride = _int_pair(rec, "stride", idx)
        padding = _int_pair(rec, "padding", idx)
        return cls(_placeholder((co, ci, kh, kw), idx), _bias(rec, idx, co), stride, padding)

    def record(self) -> dict:
        return {"out_channels": self.c_out, "in_channels": self.c_in,
                "kernel": [int(d) for d in self.weights.shape[2:]],
                "stride": [int(self.stride[0]), int(self.stride[1])],
                "padding": [int(self.padding[0]), int(self.padding[1])],
                "bias": self.bias is not None}

    def out_shape(self, shape: tuple, where: str) -> tuple:
        _check_weights(self, 4, where)
        (sy, sx), (py, px) = self.stride, self.padding
        _check(sy >= 1 and sx >= 1, f"{where}: stride must be >= 1")
        _check(py >= 0 and px >= 0, f"{where}: negative padding")
        _check(shape[0] == "map", f"{where}: conv applied to non-spatial input")
        _, c, h, w = shape
        _check(self.c_in == c, f"{where}: c_in {self.c_in} != incoming channels {c}")
        kh, kw = int(self.weights.shape[2]), int(self.weights.shape[3])
        ho = (h + 2 * py - kh) // sy + 1
        wo = (w + 2 * px - kw) // sx + 1
        _check(h + 2 * py >= kh and w + 2 * px >= kw and ho >= 1 and wo >= 1,
               f"{where}: kernel {kh}x{kw} too large for {h}x{w} input")
        return ("map", self.c_out, ho, wo)

    def keep_inputs(self, retained: list[int], in_shape: tuple) -> bool:
        # the bytes of weights[:, retained], but faster and in an array of its own
        self.weights = np.take(self.weights, retained, axis=1)
        return True


@dataclass
class BatchNormLayer(_LayerBase):
    """Per-channel affine normalization over a (N, C, H, W) map."""

    TYPE = "batchnorm"
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

    @classmethod
    def from_record(cls, rec: dict, idx: int) -> BatchNormLayer:
        n = _int(rec, "channels", idx)
        eps = rec.get("eps", DEFAULT_BN_EPS)
        if type(eps) not in (int, float):
            raise ManifestError(f"layer {idx}: 'eps' must be a number, got {eps!r}")
        try:
            eps = float(eps)
        except OverflowError:
            raise ManifestError(f"layer {idx}: 'eps' {eps} is out of float range") from None
        vec = _placeholder((n,), idx)
        return cls(vec, vec, vec, vec, eps)

    def record(self) -> dict:
        return {"channels": self.channels, "eps": float(self.eps)}

    def out_shape(self, shape: tuple, where: str) -> tuple:
        _check_vector(f"{where} gamma", self.gamma)
        for attr in self.ARRAYS[1:]:
            _check_vector(f"{where} {attr}", getattr(self, attr), self.channels)
        _check(float(self.eps) > 0 and np.isfinite(self.eps), f"{where}: eps must be positive")
        _check(shape[0] == "map", f"{where}: batchnorm applied to non-spatial input")
        _check(self.channels == shape[1],
               f"{where}: batchnorm length {self.channels} != incoming channels {shape[1]}")
        return shape


@dataclass
class ReluLayer(_LayerBase):
    TYPE = "relu"


@dataclass
class MaxPoolLayer(_LayerBase):
    TYPE = "maxpool"
    kernel: int
    stride: int

    def out_shape(self, shape: tuple, where: str) -> tuple:
        k, s = self.kernel, self.stride
        _check(k >= 1 and s >= 1, f"{where}: kernel and stride must be >= 1")
        _check(shape[0] == "map", f"{where}: maxpool applied to non-spatial input")
        _, c, h, w = shape
        _check(h >= k and w >= k, f"{where}: pool kernel {k} too large for {h}x{w} input")
        return ("map", c, (h - k) // s + 1, (w - k) // s + 1)


@dataclass
class GlobalAvgPoolLayer(_LayerBase):
    TYPE = "global_avg_pool"

    def out_shape(self, shape: tuple, where: str) -> tuple:
        _check(shape[0] == "map", f"{where}: global pool applied to non-spatial input")
        return ("vec", shape[1])


@dataclass
class LinearLayer(_LayerBase):
    """Fully connected layer; weights shaped (out_features, in_features)."""

    TYPE = "linear"
    ARRAYS = TRAINABLE = ("weights", "bias")
    weights: np.ndarray
    bias: np.ndarray | None = None

    @property
    def out_features(self) -> int:
        return int(self.weights.shape[0])

    @property
    def in_features(self) -> int:
        return int(self.weights.shape[1])

    @classmethod
    def from_record(cls, rec: dict, idx: int) -> LinearLayer:
        out, inp = _int(rec, "out", idx), _int(rec, "in", idx)
        return cls(_placeholder((out, inp), idx), _bias(rec, idx, out))

    def record(self) -> dict:
        return {"out": self.out_features, "in": self.in_features,
                "bias": self.bias is not None}

    def out_shape(self, shape: tuple, where: str) -> tuple:
        _check_weights(self, 2, where)
        feats = shape[1] * shape[2] * shape[3] if shape[0] == "map" else shape[1]
        _check(self.in_features == feats,
               f"{where}: in_features {self.in_features} != incoming features {feats}")
        return ("vec", self.out_features)

    def keep_inputs(self, retained: list[int], in_shape: tuple) -> bool:
        # a flattened map feeds h*w consecutive columns per channel
        per_channel = in_shape[2] * in_shape[3] if in_shape[0] == "map" else 1
        cols = (np.asarray(retained)[:, None] * per_channel + np.arange(per_channel)).ravel()
        self.weights = np.take(self.weights, cols, axis=1)
        return True


Layer = ConvLayer | BatchNormLayer | ReluLayer | MaxPoolLayer | GlobalAvgPoolLayer | LinearLayer

LAYER_TYPES: dict[str, type] = {cls.TYPE: cls for cls in Layer.__args__}


def layer_arrays(ly: Layer) -> Iterator[tuple[str, np.ndarray]]:
    """(attribute, array) pairs of one layer in pinned blob order; an absent bias is skipped."""
    for attr in ly.ARRAYS:
        arr = getattr(ly, attr)
        if arr is not None:
            yield attr, arr


def keep_channels(ly: Layer, retained: list[int]) -> None:
    """Slice every array the layer owns down to the retained channels (axis 0)."""
    for attr, arr in list(layer_arrays(ly)):
        setattr(ly, attr, arr[retained])


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
    return [model.layers[i].c_out for i in conv_layer_indices(model)]


def layer_input_shapes(model: ModelGraph) -> list[tuple]:
    """Activation shape entering each layer (see ``_LayerBase.out_shape``).

    Checks every rule a manifest alone decides on the way: ranks, dims,
    lengths, strides, eps, at least one conv and each adjacent shape.
    Raises ShapeConsistencyError on the first violation.
    """
    _check(len(conv_layer_indices(model)) >= 1, "model has no conv layer")
    c, h, w = (int(x) for x in model.input_shape)
    _check(c >= 1 and h >= 1 and w >= 1, f"input shape {model.input_shape} not positive")
    shape: tuple = ("map", c, h, w)
    shapes = []
    for pos, ly in enumerate(model.layers):
        shapes.append(shape)
        shape = ly.out_shape(shape, f"layer {pos} ({type(ly).__name__})")
    return shapes


def check_values(model: ModelGraph) -> None:
    """Check that every array holds finite values and no running_var is negative.

    Raises ShapeConsistencyError on the first violation.
    """
    for pos, ly in enumerate(model.layers):
        where = f"layer {pos} ({type(ly).__name__})"
        for attr, arr in layer_arrays(ly):
            _check(bool(np.isfinite(arr).all()), f"{where}: non-finite {attr}")
        if isinstance(ly, BatchNormLayer):
            _check(bool((ly.running_var >= 0).all()), f"{where}: negative running_var")


def validate(model: ModelGraph) -> None:
    """Check every structural invariant, then every value; raise ShapeConsistencyError."""
    layer_input_shapes(model)
    check_values(model)


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

def _record_to_layer(rec: dict, idx: int) -> Layer:
    """Build a layer of placeholder arrays; their shapes give the blob layout."""
    if not isinstance(rec, dict) or "type" not in rec:
        raise ManifestError(f"layer {idx}: record must be an object with a 'type' field")
    t = rec["type"]
    cls = LAYER_TYPES.get(t) if type(t) is str else None
    if cls is None:
        raise ManifestError(f"layer {idx}: unknown layer type '{t}'")
    return cls.from_record(rec, idx)


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
    layer_input_shapes(model)
    return model


def load_model(arch_path: str | Path, weights_path: str | Path) -> ModelGraph:
    """Load a manifest + weight blob pair; bit-exact float payload.

    The structural checks run first, then the blob's header and size are
    checked before any tensor is read, and the value checks run last.
    """
    model = load_arch(arch_path)
    with open(weights_path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise BlobFormatError(f"weight blob {weights_path} has bad magic (expected {MAGIC!r})")
        version = int.from_bytes(head[4:8], "little")
        if version != VERSION:
            raise BlobFormatError(f"unsupported blob version {version} (expected {VERSION})")
        size = os.fstat(fh.fileno()).st_size
        expected = 8 + 4 * sum(arr.size for ly in model.layers for _, arr in layer_arrays(ly))
        if size != expected:
            raise BlobSizeError(f"weight blob is {size} bytes, manifest declares {expected}")
        for pos, ly in enumerate(model.layers):
            for attr, shaped in list(layer_arrays(ly)):
                arr = np.fromfile(fh, dtype="<f4", count=shaped.size)
                if arr.size != shaped.size:  # the file shrank after the size check
                    raise BlobSizeError(f"weight blob {weights_path} ended inside "
                                        f"layer {pos} {attr}")
                arr.shape = shaped.shape  # in place: a reshape would not own its data
                setattr(ly, attr, arr)
    check_values(model)
    return model


def save_model(model: ModelGraph, arch_path: str | Path, weights_path: str | Path) -> None:
    """Write the manifest/blob pair; deterministic bytes for identical input."""
    validate(model)
    manifest = {
        "format": MANIFEST_FORMAT,
        "name": model.name,
        "input": [int(x) for x in model.input_shape],
        "layers": [{"type": ly.TYPE, **ly.record()} for ly in model.layers],
    }
    Path(arch_path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    with open(weights_path, "wb") as fh:
        fh.write(MAGIC + VERSION.to_bytes(4, "little"))
        for ly in model.layers:
            for _, arr in layer_arrays(ly):
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))
