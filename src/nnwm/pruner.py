"""Structural channel pruning: remove output channels and rewire consumers.

A plan maps each planned conv layer's graph position to the output
channels it retains.  Pruning is one pass over the layers in graph order
(``prune_layer``): a planned conv slices its weight rows (and bias), and
its retained list stays pending while each later layer is asked to
``keep_inputs`` it: a batchnorm slices its vectors and relu and the pools
pass the channels on unchanged, until the next conv (input channels) or a
linear head (the matching columns, per channel of a flattened map)
absorbs them.  The per-type rules live on the layer classes in
``model_store``.  ``apply_prune`` runs that pass over a graph through
``model_store.edit_layers``, leaving its input as it was and returning a
new graph that owns every array it holds; ``pipeline.embed_stream`` and
the streamed ``pipeline.attack_structural`` run it over layers as a
``model_store.BlobStream`` reads them from a blob.

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
    Layer,
    ModelGraph,
    edit_layers,
    keep_channels,
    layer_input_shapes,
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


def prune_layer(ly: Layer, in_shape: tuple, pending: list[int] | None,
                retained: list[int] | None) -> list[int] | None:
    """One step of the pruning pass: prune ly itself; return the list pending after it.

    ``retained``, None unless ly is a planned conv, keeps those output channels.
    ``pending`` is the retained list of the last pruned conv that no layer
    has absorbed yet; ly, entered by ``in_shape``, keeps those input
    channels.  Every array either step touches is replaced by a new one.
    """
    if retained is not None:
        keep_channels(ly, retained)
    if pending is not None and ly.keep_inputs(pending, in_shape):
        pending = None
    return pending if retained is None else retained


def apply_prune(model: ModelGraph, plan) -> ModelGraph:
    """Prune each planned conv to its retained channels; the result satisfies all invariants.

    The plan is a mapping from conv position to retained channels.  Every
    entry and the structure are checked before any array is sliced.  The
    model is left as it was; the result is a new graph that owns every
    array it holds, except that a placeholder stays one.
    """
    retained_at = {pos: list(retained) for pos, retained in plan.items()}
    for pos, retained in retained_at.items():
        _check_entry(model, pos, retained)
    input_shapes = layer_input_shapes(model)  # also proves every consumer's width
    pending = None

    def prune(pos: int, ly: Layer) -> None:
        nonlocal pending
        pending = prune_layer(ly, input_shapes[pos], pending, retained_at.get(pos))

    out = edit_layers(model, prune)
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
