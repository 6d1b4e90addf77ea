"""Structural channel pruning: remove output channels and rewire consumers.

Pruning a conv layer slices its weight rows (and bias), then walks the
layers after it and asks each to ``keep_inputs`` the retained channels:
a batchnorm slices its vectors and relu and the pools pass the channels
on unchanged, until the next conv (input channels) or a linear head (the
matching columns, per channel of a flattened map) absorbs them.  The
per-type rules live on the layer classes in ``model_store``.  The result
is a new graph that owns every array it holds; inputs are never mutated.
"""

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import importance
from .errors import PlanError
from .model_store import (
    ConvLayer,
    ModelGraph,
    keep_channels,
    layer_arrays,
    layer_input_shapes,
)
# Not called here: bound only because perfbench/tests/test_perfbench.py patches them here.
from .model_store import clone_graph, validate  # noqa: F401

RECEIPT_FORMAT = "nnwm-receipt-v1"


@dataclass(frozen=True)
class PlanEntry:
    """One conv layer to prune: graph position and the surviving channels."""

    conv_index: int
    retained: tuple[int, ...]


def plan_layer(model: ModelGraph, conv_index: int, k: int, criterion: str) -> list[int]:
    """Channels to retain after dropping the k least important ones.

    Ties are broken by dropping the higher channel index, so the retained
    list is deterministic; original channel order is preserved.
    """
    scores = importance.score(model, conv_index, criterion)
    c = scores.shape[0]
    if not (0 <= k <= c - 1):
        raise PlanError(f"k={k} out of range for a {c}-channel layer (need 0 <= k <= {c - 1})")
    drop_order = sorted(range(c), key=lambda i: (scores[i], -i))
    dropped = set(drop_order[:k])
    return [i for i in range(c) if i not in dropped]


def _check_entry(model: ModelGraph, entry: PlanEntry) -> None:
    if not (0 <= entry.conv_index < len(model.layers)):
        raise PlanError(f"plan entry at position {entry.conv_index}: no such layer")
    ly = model.layers[entry.conv_index]
    if not isinstance(ly, ConvLayer):
        raise PlanError(f"plan entry at position {entry.conv_index}: not a conv layer")
    c = ly.c_out
    r = entry.retained
    if not r or list(r) != sorted(set(r)) or r[0] < 0 or r[-1] >= c:
        raise PlanError(
            f"plan entry at position {entry.conv_index}: retained list must be "
            f"non-empty and strictly increasing within [0, {c})")


def _rewire_consumers(layers: list, pos: int, retained: list[int],
                      input_shapes: list[tuple]) -> None:
    """Slice every layer downstream of a pruned conv that shares its channels."""
    for j in range(pos + 1, len(layers)):
        if layers[j].keep_inputs(retained, input_shapes[j]):
            return


def apply_prune(model: ModelGraph, entries: tuple[PlanEntry, ...]) -> ModelGraph:
    """Apply the plan entries, returning a new graph that satisfies all invariants."""
    positions = [e.conv_index for e in entries]
    if len(set(positions)) != len(positions):
        raise PlanError("plan contains duplicate conv positions")
    for entry in entries:
        _check_entry(model, entry)
    input_shapes = layer_input_shapes(model)  # also proves every consumer's width
    out = ModelGraph([replace(ly) for ly in model.layers], tuple(model.input_shape), model.name)
    for entry in entries:
        retained = list(entry.retained)
        keep_channels(out.layers[entry.conv_index], retained)
        _rewire_consumers(out.layers, entry.conv_index, retained, input_shapes)
    # slicing made new arrays; copy only the ones no entry touched
    for src, ly in zip(model.layers, out.layers):
        for attr, arr in list(layer_arrays(ly)):
            if np.may_share_memory(arr, getattr(src, attr)):
                setattr(ly, attr, arr.copy())
    layer_input_shapes(out)  # slicing creates no value; save_model checks the values
    return out


# --- receipts ---------------------------------------------------------------

@dataclass(frozen=True)
class ReceiptLayer:
    """One marked layer: index is the position in the conv-layer sequence."""

    index: int
    c: int
    c_pruned: int
    target_rate: float
    realized_rate: float


@dataclass(frozen=True)
class Receipt:
    """Portable record of the original channel counts and scheme parameters.

    Carries a key fingerprint (SHA-256), never the key itself, so it can be
    published without weakening the watermark.
    """

    segment_length: int
    p_min: float
    p_max: float
    criterion: str
    layers: tuple[ReceiptLayer, ...]
    payload_bits: int
    key_fingerprint: str

    def to_json(self) -> str:
        doc = {
            "format": RECEIPT_FORMAT,
            "params": {
                "l": self.segment_length,
                "p_min": self.p_min,
                "p_max": self.p_max,
                "criterion": self.criterion,
            },
            "layers": [vars(e) for e in self.layers],
            "payload_bits": self.payload_bits,
            "key_fingerprint": self.key_fingerprint,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "Receipt":
        """Parse and check a receipt; any malformed field raises PlanError."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:  # bad JSON or bad UTF-8
            raise PlanError(f"receipt is not valid JSON: {e}") from None
        if type(doc) is not dict or doc.get("format") != RECEIPT_FORMAT:
            raise PlanError(f"receipt format must be '{RECEIPT_FORMAT}'")
        params = _field(doc, "params", dict)
        recs = _field(doc, "layers", list)
        layers = []
        for rec in recs:
            if type(rec) is not dict:
                raise PlanError("receipt layers must be objects")
            # field types are classes here: this module does not postpone annotations
            e = ReceiptLayer(*(_field(rec, f.name, f.type) for f in fields(ReceiptLayer)))
            if e.index < 0 or (layers and e.index <= layers[-1].index):
                raise PlanError(f"receipt layer index {e.index}: indices must be "
                                "non-negative and strictly increasing")
            if not 0 <= e.c_pruned <= e.c or e.c < 1:
                raise PlanError(f"receipt layer {e.index}: need 0 <= c_pruned {e.c_pruned} "
                                f"<= c {e.c} and c >= 1")
            if not math.isclose(e.realized_rate, (e.c - e.c_pruned) / e.c, abs_tol=1e-9):
                raise PlanError(f"receipt layer {e.index}: realized_rate inconsistent with counts")
            layers.append(e)
        return cls(_field(params, "l", int), _field(params, "p_min", float),
                   _field(params, "p_max", float), _field(params, "criterion", str),
                   tuple(layers), _field(doc, "payload_bits", int),
                   _field(doc, "key_fingerprint", str))


def _field(doc: dict, key: str, kind: type):
    """doc[key] as a JSON value of the given kind; ints count as floats, bools as neither."""
    if key not in doc:
        raise PlanError(f"receipt is missing '{key}'")
    v = doc[key]
    if kind is float and type(v) is int:
        try:
            return float(v)
        except OverflowError:
            raise PlanError(f"receipt field '{key}' is out of range") from None
    if type(v) is not kind:
        raise PlanError(f"receipt field '{key}' must be of type {kind.__name__}, got {v!r}")
    return v


def save_receipt(receipt: Receipt, path: str | Path) -> None:
    Path(path).write_text(receipt.to_json(), encoding="utf-8")


def load_receipt(path: str | Path) -> Receipt:
    return Receipt.from_json(Path(path).read_bytes())
