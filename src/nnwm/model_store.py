"""Sequential CNN container with a bit-exact on-disk format.

A model is an ordered list of layers plus an input shape.  Each layer type
is one class that describes that type once (see ``_LayerBase``): its
manifest ``TYPE`` and record, its structural checks and output shape, how
it follows a pruning of its input channels, and the arrays it owns, in
blob order, in ``ARRAYS`` (conv: weights (c_out, c_in, kh, kw) then the
optional bias; batchnorm: gamma, beta, running_mean, running_var; linear:
weights then bias) and the ones SGD updates in ``TRAINABLE``.
``LAYER_TYPES`` maps each manifest type back to its class.  Copies and
casts (``map_arrays``), blob I/O and channel slicing all walk
``layer_arrays``.

On disk a model is a pair of files: an architecture manifest, JSON with
top level ``{"format": "nnwm-v1", "input": [C, H, W], "layers": [...]}``,
and a weight blob, an 8-byte header (magic ``NNWM``, version u32
little-endian) followed by the raw float32 tensors, little-endian,
row-major, concatenated in graph order.  Tensor offsets are always derived
from the manifest shapes, never stored, so the manifest is the single
source of truth.  load/save round-trip at byte level.

A parsed manifest holds each declared tensor as a read-only zero
placeholder: an ``np.ndarray`` of the declared shape whose strides are all
zero, a view of one immutable 4-byte buffer.  Its shape and size give the
blob layout, but it allocates nothing, so a manifest that declares a huge
tensor costs no memory.

The checks come in two parts, run where each is needed.  The structural
part, ``layer_input_shapes``, needs only the manifest; the value part,
``check_values`` (every value finite, every ``running_var`` >= 0, layer
by layer through ``check_layer_values``), needs the weights; ``validate``
runs both.  Every check passes ``_check`` a message template and its
arguments, so a message is formatted only when its check fails and a
passing check builds no text.
- ``load_arch`` runs the structural checks and stops.
- ``open_blob`` checks a blob's header and compares its size with the
  placeholder sizes before any tensor is read; ``read_layer`` then reads
  one layer's tensors, each with one ``readinto`` call into a new owned,
  writable array, and checks their values.  ``load_model`` is
  ``load_arch`` followed by both; ``nnwm embed`` reads and prunes one
  layer at a time (``pipeline.embed_stream``).
- ``pruner.apply_prune`` runs the structural checks before it slices any
  array and reruns them after.  Slicing loaded arrays cannot create a
  bad value, and slicing a placeholder (``take``) gives a placeholder, so
  pruning a manifest-only graph allocates nothing.
- ``save_model`` runs the full ``validate`` before it writes anything.

Writers create their files with ``open_new`` and never truncate or write
through an existing one.  ``staged_outputs`` gives a command's outputs
fresh names beside their targets and moves them into place only after
every write has succeeded, so the outputs appear whole or not at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import secrets
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .errors import (
    BlobFormatError,
    BlobSizeError,
    ManifestError,
    NnwmError,
    ShapeConsistencyError,
)

MAGIC = b"NNWM"
VERSION = 1
BLOB_HEADER = MAGIC + VERSION.to_bytes(4, "little")
MANIFEST_FORMAT = "nnwm-v1"
DEFAULT_BN_EPS = 1e-5


def _check(cond: bool, template: str, *args) -> None:
    """Raise ShapeConsistencyError(template.format(*args)) unless cond holds."""
    if not cond:
        raise ShapeConsistencyError(template.format(*args))


class _Where:
    """A layer's message prefix, "layer {pos} ({type})", formatted only when shown."""

    __slots__ = ("pos", "layer")

    def __init__(self, pos: int, layer: Layer):
        self.pos, self.layer = pos, layer

    def __format__(self, spec: str) -> str:
        return f"layer {self.pos} ({type(self.layer).__name__})"


def _check_vector(where, attr: str, v: np.ndarray, length: int | None = None) -> None:
    _check(isinstance(v, np.ndarray) and v.ndim == 1, "{} {} must be a 1-D array", where, attr)
    _check(v.size >= 1, "{} {} must be non-empty", where, attr)
    if length is not None:
        _check(v.shape[0] == length, "{} {} has length {}, expected {}",
               where, attr, v.shape[0], length)


def _check_weights(ly: Layer, ndim: int, where) -> tuple[int, ...]:
    """Check the weights' rank and dims and the bias length; return the weights' shape."""
    w = ly.weights
    _check(isinstance(w, np.ndarray) and w.ndim == ndim, "{}: weights must be {}-D", where, ndim)
    shape = w.shape
    _check(min(shape) >= 1, "{}: non-positive weight dim", where)
    if ly.bias is not None:
        _check_vector(where, "bias", ly.bias, shape[0])
    return shape


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
    if not (isinstance(v, list) and len(v) == 2 and type(v[0]) is int and type(v[1]) is int):
        raise ManifestError(f"layer {idx}: '{key}' must be a pair of integers")
    return v[0], v[1]


_ZERO = bytes(4)  # one float32 zero; immutable, so every view of it is read-only


def _zero_view(shape: tuple[int, ...]) -> np.ndarray:
    """The all-zero-stride view of _ZERO that every placeholder is."""
    return np.ndarray(shape, np.float32, _ZERO, 0, (0,) * len(shape))


def _placeholder(shape: tuple[int, ...], idx: int) -> np.ndarray:
    """Read-only zero view of the declared shape; allocates nothing, whatever the shape."""
    try:
        return _zero_view(shape)
    except (ValueError, OverflowError) as e:  # numpy's own text varies by version
        reason = "a dimension is negative" if min(shape) < 0 else "it is too large to address"
        raise ManifestError(f"layer {idx}: cannot represent a tensor of shape {shape}: "
                            f"{reason}") from e


def _bias(rec: dict, idx: int, n: int) -> np.ndarray | None:
    v = _require(rec, "bias", idx)
    if type(v) is not bool:
        raise ManifestError(f"layer {idx}: 'bias' must be true or false, got {v!r}")
    return _placeholder((n,), idx) if v else None


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


class _LayerBase:
    """Defaults for a layer that owns no arrays, keeps its input shape and
    stores each of its fields as a manifest integer of the same name."""

    ARRAYS = TRAINABLE = ()

    @classmethod
    def from_record(cls, rec: dict, idx: int):
        """The layer a manifest record describes, with placeholder arrays."""
        return cls(*[_int(rec, name, idx) for name in _field_names(cls)])

    def record(self) -> dict:
        """The manifest fields that follow "type", in pinned order."""
        return {name: int(getattr(self, name)) for name in _field_names(type(self))}

    def out_shape(self, shape: tuple, where) -> tuple:
        """Check the layer against its input activation shape, ("map", C, H, W)
        or ("vec", F); return the shape it emits.  ``where`` formats as the
        prefix of its messages."""
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

    def out_shape(self, shape: tuple, where) -> tuple:
        co, ci, kh, kw = _check_weights(self, 4, where)
        (sy, sx), (py, px) = self.stride, self.padding
        _check(sy >= 1 and sx >= 1, "{}: stride must be >= 1", where)
        _check(py >= 0 and px >= 0, "{}: negative padding", where)
        _check(shape[0] == "map", "{}: conv applied to non-spatial input", where)
        _, c, h, w = shape
        _check(ci == c, "{}: c_in {} != incoming channels {}", where, ci, c)
        ho = (h + 2 * py - kh) // sy + 1
        wo = (w + 2 * px - kw) // sx + 1
        _check(h + 2 * py >= kh and w + 2 * px >= kw and ho >= 1 and wo >= 1,
               "{}: kernel {}x{} too large for {}x{} input", where, kh, kw, h, w)
        return ("map", co, ho, wo)

    def keep_inputs(self, retained: list[int], in_shape: tuple) -> bool:
        self.weights = take(self.weights, retained, axis=1)
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

    def out_shape(self, shape: tuple, where) -> tuple:
        _check_vector(where, "gamma", self.gamma)
        n = self.gamma.shape[0]
        for attr in self.ARRAYS[1:]:
            _check_vector(where, attr, getattr(self, attr), n)
        _check(0 < float(self.eps) < math.inf, "{}: eps must be positive", where)
        _check(shape[0] == "map", "{}: batchnorm applied to non-spatial input", where)
        _check(n == shape[1], "{}: batchnorm length {} != incoming channels {}",
               where, n, shape[1])
        return shape


@dataclass
class ReluLayer(_LayerBase):
    TYPE = "relu"


@dataclass
class MaxPoolLayer(_LayerBase):
    TYPE = "maxpool"
    kernel: int
    stride: int

    def out_shape(self, shape: tuple, where) -> tuple:
        k, s = self.kernel, self.stride
        _check(k >= 1 and s >= 1, "{}: kernel and stride must be >= 1", where)
        _check(shape[0] == "map", "{}: maxpool applied to non-spatial input", where)
        _, c, h, w = shape
        _check(h >= k and w >= k, "{}: pool kernel {} too large for {}x{} input", where, k, h, w)
        return ("map", c, (h - k) // s + 1, (w - k) // s + 1)


@dataclass
class GlobalAvgPoolLayer(_LayerBase):
    TYPE = "global_avg_pool"

    def out_shape(self, shape: tuple, where) -> tuple:
        _check(shape[0] == "map", "{}: global pool applied to non-spatial input", where)
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

    def out_shape(self, shape: tuple, where) -> tuple:
        out, inp = _check_weights(self, 2, where)
        feats = shape[1] * shape[2] * shape[3] if shape[0] == "map" else shape[1]
        _check(inp == feats, "{}: in_features {} != incoming features {}", where, inp, feats)
        return ("vec", out)

    def keep_inputs(self, retained: list[int], in_shape: tuple) -> bool:
        # a flattened map feeds h*w consecutive columns per channel
        per_channel = in_shape[2] * in_shape[3] if in_shape[0] == "map" else 1
        cols = (np.asarray(retained)[:, None] * per_channel + np.arange(per_channel)).ravel()
        self.weights = take(self.weights, cols, axis=1)
        return True


Layer = ConvLayer | BatchNormLayer | ReluLayer | MaxPoolLayer | GlobalAvgPoolLayer | LinearLayer

LAYER_TYPES: dict[str, type] = {cls.TYPE: cls for cls in Layer.__args__}


def layer_arrays(ly: Layer) -> Iterator[tuple[str, np.ndarray]]:
    """(attribute, array) pairs of one layer in pinned blob order; an absent bias is skipped."""
    for attr in ly.ARRAYS:
        arr = getattr(ly, attr)
        if arr is not None:
            yield attr, arr


def is_placeholder(arr: np.ndarray) -> bool:
    """True for a manifest's read-only zero placeholder (see ``load_arch``)."""
    return arr.base is _ZERO


def take(arr: np.ndarray, indices, axis: int) -> np.ndarray:
    """The entries of arr at indices along axis, in an array of its own.

    The bytes of the matching fancy index, but faster; a placeholder gives
    a placeholder of the new shape, so it allocates nothing.
    """
    if is_placeholder(arr):
        shape = list(arr.shape)
        shape[axis] = len(indices)
        return _zero_view(tuple(shape))
    return np.take(arr, indices, axis=axis)


def keep_channels(ly: Layer, retained: list[int]) -> None:
    """Slice every array the layer owns down to the retained channels (axis 0)."""
    for attr, arr in list(layer_arrays(ly)):
        setattr(ly, attr, take(arr, retained, axis=0))


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
    _check(any(isinstance(ly, ConvLayer) for ly in model.layers), "model has no conv layer")
    c, h, w = map(int, model.input_shape)
    _check(c >= 1 and h >= 1 and w >= 1, "input shape {} not positive", model.input_shape)
    shape: tuple = ("map", c, h, w)
    shapes = []
    for pos, ly in enumerate(model.layers):
        shapes.append(shape)
        shape = ly.out_shape(shape, _Where(pos, ly))
    return shapes


def _all_finite(arr: np.ndarray) -> bool:
    """True if every value of arr is finite.

    One pass decides almost every tensor: a NaN or inf makes the sum of
    squares NaN or inf, so a finite self-dot means every value is finite.
    A dot that overflows, or a tensor that is not C-contiguous, falls back
    to min and max: NaN propagates through both, so both are finite only
    if every value is.
    """
    if arr.flags.c_contiguous:
        flat = arr.reshape(-1)
        with np.errstate(all="ignore"):
            if np.isfinite(np.dot(flat, flat)):
                return True
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def check_layer_values(pos: int, ly: Layer) -> None:
    """Check that the layer at this position holds finite values and no negative running_var.

    Raises ShapeConsistencyError on the first violation, in blob order.
    """
    where = _Where(pos, ly)
    for attr, arr in layer_arrays(ly):
        _check(_all_finite(arr), "{}: non-finite {}", where, attr)
    if isinstance(ly, BatchNormLayer):
        _check(bool((ly.running_var >= 0).all()), "{}: negative running_var", where)


def check_values(model: ModelGraph) -> None:
    """``check_layer_values`` for every layer, in graph order."""
    for pos, ly in enumerate(model.layers):
        check_layer_values(pos, ly)


def validate(model: ModelGraph) -> None:
    """Check every structural invariant, then every value; raise ShapeConsistencyError."""
    layer_input_shapes(model)
    check_values(model)


def map_arrays(model: ModelGraph, make) -> ModelGraph:
    """A new graph whose layers hold make(layer, attr, array) in place of each array.

    ``make`` is called in blob order: layer by layer, each layer's arrays
    in ``ARRAYS`` order.
    """
    layers = [replace(ly, **{attr: make(ly, attr, arr) for attr, arr in layer_arrays(ly)})
              for ly in model.layers]
    return ModelGraph(layers, tuple(model.input_shape), model.name)


def clone_graph(model: ModelGraph) -> ModelGraph:
    """Deep copy; all weight arrays are owned by the copy."""
    return map_arrays(model, lambda ly, attr, arr: arr.copy())


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
    name = doc.get("name", "model")
    if type(name) is not str:
        raise ManifestError(f"manifest 'name' must be a string, got {name!r}")
    layers = [_record_to_layer(rec, i) for i, rec in enumerate(recs)]
    return ModelGraph(layers, (inp[0], inp[1], inp[2]), name)


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


def layer_floats(ly: Layer) -> int:
    """How many floats the layer's arrays hold in the blob."""
    return sum(arr.size for _, arr in layer_arrays(ly))


@contextlib.contextmanager
def open_blob(model: ModelGraph, weights_path: str | Path) -> Iterator[BinaryIO]:
    """Open a weight blob for ``read_layer``, positioned at the first tensor.

    The header and the size the model's arrays declare are checked before
    any tensor is read, so a blob too short for a huge manifest fails
    without allocating.
    """
    with open(weights_path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise BlobFormatError(f"weight blob {weights_path} has bad magic (expected {MAGIC!r})")
        version = int.from_bytes(head[4:8], "little")
        if version != VERSION:
            raise BlobFormatError(f"unsupported blob version {version} (expected {VERSION})")
        size = os.fstat(fh.fileno()).st_size
        expected = 8 + 4 * sum(layer_floats(ly) for ly in model.layers)
        if size != expected:
            raise BlobSizeError(f"weight blob is {size} bytes, manifest declares {expected}")
        yield fh


def read_layer(fh: BinaryIO, pos: int, ly: Layer) -> Layer:
    """A copy of the layer at this position holding its arrays read from the blob, values checked.

    Reads from fh's position (``open_blob``) the tensors ly's arrays
    declare, each into a new owned, writable array.
    """
    arrays = {}
    for attr, shaped in layer_arrays(ly):
        arr = np.empty(shaped.shape, "<f4")
        if fh.readinto(arr) != arr.nbytes:  # the file shrank after the size check
            raise BlobSizeError(f"weight blob {fh.name} ended inside layer {pos} {attr}")
        arrays[attr] = arr
    ly = replace(ly, **arrays)
    check_layer_values(pos, ly)
    return ly


def load_model(arch_path: str | Path, weights_path: str | Path) -> ModelGraph:
    """Load a manifest + weight blob pair; bit-exact float payload.

    The structural checks run first, then the blob's header and size are
    checked before any tensor is read, and each layer's values are
    checked as it is read.
    """
    model = load_arch(arch_path)
    with open_blob(model, weights_path) as fh:
        model.layers = [read_layer(fh, pos, ly) for pos, ly in enumerate(model.layers)]
    return model


def write_manifest(model: ModelGraph, arch_path: str | Path) -> None:
    """Write the model's manifest as a new file; the caller has checked the structure."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "name": model.name,
        "input": [int(x) for x in model.input_shape],
        "layers": [{"type": ly.TYPE, **ly.record()} for ly in model.layers],
    }
    with open_new(arch_path) as fh:
        fh.write((json.dumps(manifest, indent=2) + "\n").encode("utf-8"))


def write_layer(fh: BinaryIO, ly: Layer) -> None:
    """Append the layer's arrays to a blob, in blob order."""
    for _, arr in layer_arrays(ly):
        fh.write(np.ascontiguousarray(arr, dtype="<f4"))


def save_model(model: ModelGraph, arch_path: str | Path, weights_path: str | Path) -> None:
    """Write the manifest/blob pair as new files; deterministic bytes for identical input."""
    validate(model)
    write_manifest(model, arch_path)
    with open_new(weights_path) as fh:
        fh.write(BLOB_HEADER)
        for ly in model.layers:
            write_layer(fh, ly)


# --- writing outputs -------------------------------------------------------
#
# On ext4 (auto_da_alloc, the default) truncating a file and renaming over
# one both start writeback of the new data at once, which for a large blob
# costs more than writing it.  A new file under a free name waits for
# ordinary writeback, so writers only ever create new files.

def open_new(path: str | Path):
    """Open path for binary writing as a new file: O_EXCL, mode 0o666 & ~umask.

    A file already there is removed first, never truncated or written
    through, so a symlink at path is replaced, not followed.
    """
    try:
        return open(path, "xb")
    except FileExistsError:
        os.unlink(path)
        return open(path, "xb")


@contextlib.contextmanager
def staged_outputs(*targets: str | Path) -> Iterator[list[Path]]:
    """Yield one temp path per target; move each onto its target once the block succeeds.

    Every target is checked before the block runs: a directory or a target
    in a missing directory raises NnwmError.  Each temp is a fresh name in
    its target's directory, for a writer to create with ``open_new``.  When
    the block returns, two targets that name one directory entry raise
    NnwmError, since one output would replace the other; the check comes
    after the block so that the block's own errors come first.  Otherwise
    each old target is removed and its temp renamed onto the freed name.
    When anything raises, every temp is deleted and the old targets are
    left as they were.
    """
    paths = [Path(t) for t in targets]
    for p in paths:
        if p.is_dir():
            raise NnwmError(f"output {p} is a directory")
        if not p.parent.is_dir():
            raise NnwmError(f"output {p}: no directory {p.parent}")
    temps = [p.with_name(f".{p.name}.{secrets.token_hex(8)}.tmp") for p in paths]
    try:
        yield temps
        # a symlinked target is replaced, not followed, so only its directory resolves
        entries = {}
        for p in paths:
            first = entries.setdefault(p.parent.resolve() / p.name, p)
            if first is not p:
                raise NnwmError(f"outputs {first} and {p} name one file")
        for tmp, p in zip(temps, paths):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(p)
            os.rename(tmp, p)
    finally:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
