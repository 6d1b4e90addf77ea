"""Structural channel pruning: remove output channels and rewire consumers.

A plan maps each conv layer's graph position to the output channels it
retains, so no plan can name a conv twice.  Pruning a conv layer
slices its weight rows (and bias), then walks the layers after it and
asks each to ``keep_inputs`` the retained channels: a batchnorm slices
its vectors and relu and the pools pass the channels on unchanged, until
the next conv (input channels) or a linear head (the matching columns,
per channel of a flattened map) absorbs them.  The per-type rules live
on the layer classes in ``model_store``.  ``apply_prune`` leaves its
input as it was and returns a new graph that owns every array it holds;
with ``in_place=True`` it prunes the graph it is given.

``save_receipt`` writes a receipt as a new file, like ``save_model``.
``nnwm embed`` stages it with the marked model's two files through
``model_store.staged_outputs``, so the three appear together or not at all.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import importance
from .errors import CriterionError, PlanError
from .model_store import (
    ConvLayer,
    ModelGraph,
    keep_channels,
    layer_arrays,
    layer_input_shapes,
    map_arrays,
    open_new,
)
# Not called here: bound only because perfbench/tests/test_perfbench.py patches them here.
from .model_store import clone_graph, validate  # noqa: F401

RECEIPT_FORMAT = "nnwm-receipt-v1"


def plan_layer(model: ModelGraph, conv_index: int, k: int, criterion: str) -> list[int]:
    """Channels to retain after dropping the k least important ones.

    Ties are broken by dropping the higher channel index, so the retained
    list is deterministic; original channel order is preserved.
    """
    scores = importance.score(model, conv_index, criterion)
    c = scores.shape[0]
    if not (0 <= k <= c - 1):
        raise PlanError(f"k={k} out of range for a {c}-channel layer (need 0 <= k <= {c - 1})")
    drop_order = np.lexsort((-np.arange(c), scores))  # by score, then by index descending
    return np.sort(drop_order[k:]).tolist()


def _check_entry(model: ModelGraph, pos: int, r: list[int]) -> None:
    if not (0 <= pos < len(model.layers)):
        raise PlanError(f"plan entry at position {pos}: no such layer")
    ly = model.layers[pos]
    if not isinstance(ly, ConvLayer):
        raise PlanError(f"plan entry at position {pos}: not a conv layer")
    c = ly.c_out
    if not r or r != sorted(set(r)) or r[0] < 0 or r[-1] >= c:
        raise PlanError(
            f"plan entry at position {pos}: retained list must be "
            f"non-empty and strictly increasing within [0, {c})")


def _rewire_consumers(layers: list, pos: int, retained: list[int],
                      input_shapes: list[tuple]) -> None:
    """Slice every layer downstream of a pruned conv that shares its channels."""
    for j in range(pos + 1, len(layers)):
        if layers[j].keep_inputs(retained, input_shapes[j]):
            return


def apply_prune(model: ModelGraph, plan: dict[int, list[int]], *,
                in_place: bool = False) -> ModelGraph:
    """Prune each planned conv to its retained channels; the result satisfies all invariants.

    The plan is read through ``dict``, so pairs serve as well as a mapping
    and ``()`` is the empty plan.  By default the model is left as it was
    and the result is a new graph that owns every array it holds.  With
    in_place=True the model itself is pruned and returned: each pruned
    array is a new one sliced from the old, every other array stays the
    one it was.  Either way every check runs before the first array is
    replaced, so a plan that fails leaves the model exactly as it was.
    """
    plan = {pos: list(retained) for pos, retained in dict(plan).items()}
    for pos, retained in plan.items():
        _check_entry(model, pos, retained)
    input_shapes = layer_input_shapes(model)  # also proves every consumer's width
    out = model if in_place else map_arrays(model, lambda ly, attr, arr: arr)
    for pos, retained in plan.items():
        keep_channels(out.layers[pos], retained)
        _rewire_consumers(out.layers, pos, retained, input_shapes)
    if not in_place:
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

    Carries a key fingerprint (SHA-256), never the key itself.  It does list
    every carrier's conv index and original width, so publishing it shows
    anyone which layers carry the mark, and re-pruning those layers past
    their decode cells erases it: a published receipt weakens the watermark.
    It also states the payload: each ``target_rate`` is the midpoint of the
    cell that encodes its segment, and ``c`` with ``c_pruned`` (the width
    after pruning) give a realized rate that decodes to the same value.
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
        try:
            criterion = importance.normalize_criterion(_field(params, "criterion", str))
        except CriterionError as e:
            raise PlanError(f"receipt: {e}") from None
        return cls(_field(params, "l", int), _field(params, "p_min", float),
                   _field(params, "p_max", float), criterion, tuple(layers),
                   _field(doc, "payload_bits", int), _field(doc, "key_fingerprint", str))


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
    """Write the receipt as a new file (see ``model_store.open_new``)."""
    with open_new(path) as fh:
        fh.write(receipt.to_json().encode("utf-8"))


def load_receipt(path: str | Path) -> Receipt:
    return Receipt.from_json(Path(path).read_bytes())
