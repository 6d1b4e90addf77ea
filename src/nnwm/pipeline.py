"""End-to-end embed / extract / verify plus the attack harness.

Embedding prunes one key-selected conv layer per payload segment, at the
rate encoding that segment.  One planner works out, from the host's
structure and the key alone, how many channels each conv drops and the
receipt; ``plan_layer`` then picks the channels from the weights.
``embed`` prunes a copy of a loaded host; ``embed_stream`` reads the
host's blob one layer at a time and writes the marked model as it goes
(``model_store.BlobStream``), so its working memory is bounded by the
largest layer.  Both end in one self-check, which decodes the carriers
the key selects from the widths the plan started from.  Extraction names
the carriers as (conv ordinal, original width) pairs, from a receipt or
by key from the original model (``extract``, whose every check needs
only the suspect's conv count); ``decode_segments`` decodes each rate
from the suspect's width.
Attacks either perturb parameters (which provably cannot change the
extracted bits) or re-prune the structure (which degrades them measurably).
Each takes a loaded model, or a ``BlobStream`` of a host, which it attacks
and writes one layer at a time through the walk ``embed_stream`` uses;
one per-layer edit does the arithmetic for both.  The fine-tuning attack
is ``toy_trainer.finetune`` itself, which this module does not import:
the watermark core never trains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import wm_codec
from .errors import (
    ArchitectureMismatchError,
    AttackConfigError,
    CapacityError,
    CodecError,
    NnwmError,
)
from .importance import CRITERION_BN, criterion_applicable, normalize_criterion
from .model_store import (
    BlobStream,
    ModelGraph,
    channel_counts,
    conv_layer_indices,
    edit_layers,
    layer_arrays,
    layer_input_shapes,
    open_blob,
    write_manifest,
)
# Not called here: bound only because perfbench/tests/test_perfbench.py patches it here.
from .model_store import clone_graph  # noqa: F401
from .pruner import Receipt, ReceiptLayer, apply_prune, plan_layer, prune_layer
from .wm_codec import EmbedParams, KeyStream, WatermarkPayload


@dataclass
class SegmentDecode:
    """Decode detail for one carrier layer (index = conv ordinal)."""

    layer_index: int
    c: int
    c_suspect: int
    rate: float
    value: int
    clamped: bool


@dataclass
class ExtractionResult:
    bits: str
    segments: list[SegmentDecode]
    warnings: list[str] = field(default_factory=list)


@dataclass
class VerifyReport:
    """Outcome of comparing expected vs extracted bits."""

    extracted: str
    ber: float
    theta: float
    matched: bool


def eligible_layers(model: ModelGraph, params: EmbedParams, criterion: str,
                    required: int = 0) -> list[int]:
    """Conv ordinals wide enough to decode losslessly and scorable by the criterion.

    Fewer than `required` of them raise CapacityError, with the reasons.
    """
    crit = normalize_criterion(criterion)
    positions = conv_layer_indices(model)
    counts = channel_counts(model)
    c_min = wm_codec.min_channels(params)
    eligible = [i for i, (pos, c) in enumerate(zip(positions, counts))
                if c >= c_min and criterion_applicable(model, pos, crit)]
    if len(eligible) < required:
        too_narrow = sum(1 for c in counts if c < c_min)
        raise CapacityError(
            required=required, available=len(eligible),
            detail=f"{len(counts)} conv layers total, {too_narrow} narrower than "
                   f"{c_min} channels, criterion '{crit}' inapplicable to "
                   f"{len(counts) - too_narrow - len(eligible)} of the rest")
    return eligible


@dataclass
class _EmbedPlan:
    """An embed worked out from the host's structure and the key alone."""

    drops: dict[int, int]  # graph position of each conv to prune -> channels it drops
    receipt: Receipt
    carriers: list[tuple[int, int]]  # (conv ordinal, host width), selected as extraction does
    values: list[int]  # the segment values the carriers must decode to

    def self_check(self, marked: ModelGraph, params: EmbedParams) -> None:
        """Decode the carriers against the marked widths; each must give back its value."""
        decoded = decode_segments(self.carriers, channel_counts(marked), params)
        if [s.value for s in decoded] != self.values:
            raise NnwmError("internal error: freshly embedded payload failed to extract")


def _plan(model: ModelGraph, payload: WatermarkPayload, params: EmbedParams,
          criterion: str, decoy: bool) -> _EmbedPlan:
    """Select the carriers, their rates and (with decoy) the decoys' from the key.

    Reads only the structure, so a manifest's placeholder graph serves.
    The self-check's carriers are selected by key, as extraction does,
    with the host's widths, taken before pruning.
    """
    crit = normalize_criterion(criterion)
    if payload.segment_length != params.segment_length:
        raise CodecError(
            f"payload segment length {payload.segment_length} != params "
            f"segment length {params.segment_length}")
    values = wm_codec.segment(payload)
    m = len(values)
    positions = conv_layer_indices(model)
    counts = channel_counts(model)
    eligible = eligible_layers(model, params, crit, required=m)
    stream = KeyStream(params.key)
    selected = sorted(wm_codec.keyed_shuffle(eligible, stream)[:m])
    # carriers first, then (with decoy) every other conv in ascending order
    rates = {o: wm_codec.encode_rate(v, params) for v, o in zip(values, selected)}
    if decoy:
        rates.update({o: params.p_min + stream.uniform() * (params.p_max - params.p_min)
                      for o in range(len(positions)) if o not in rates})
    pruned = {o: wm_codec.rate_to_channel_count(rate, counts[o]) for o, rate in rates.items()}
    # a carrier is eligible and prunes k >= 1, so only a decoy is ever skipped
    drops = {positions[o]: k for o, k in pruned.items()
             if k and criterion_applicable(model, positions[o], crit)}
    receipt = Receipt(
        segment_length=params.segment_length,
        p_min=params.p_min,
        p_max=params.p_max,
        criterion=crit,
        layers=tuple(
            ReceiptLayer(index=o, c=counts[o], c_pruned=counts[o] - pruned[o],
                         target_rate=rates[o], realized_rate=pruned[o] / counts[o])
            for o in selected),
        payload_bits=payload.n,
        key_fingerprint=wm_codec.key_fingerprint(params.key),
    )
    carriers = [(o, counts[o]) for o in wm_codec.select_layers(eligible, m, params.key)]
    return _EmbedPlan(drops, receipt, carriers, values)


def embed(model: ModelGraph, payload: WatermarkPayload, params: EmbedParams,
          criterion: str = "l1_norm", decoy: bool = False) -> tuple[ModelGraph, Receipt]:
    """Prune the payload into a copy of the model; returns (marked model, receipt).

    The model is left as it was.  With decoy=True, every non-selected conv
    layer is additionally pruned at a key-stream rate from [p_min, p_max),
    so carriers do not stand out.
    """
    plan = _plan(model, payload, params, criterion, decoy)
    crit = plan.receipt.criterion
    marked = apply_prune(model, {pos: plan_layer(model, pos, k, crit)
                                 for pos, k in plan.drops.items()})
    plan.self_check(marked, params)
    return marked, plan.receipt


def embed_stream(host: ModelGraph, weights_path: str | Path, payload: WatermarkPayload,
                 params: EmbedParams, out_arch: str | Path, out_weights: str | Path,
                 criterion: str = "l1_norm", decoy: bool = False) -> Receipt:
    """``embed`` from the host's blob to new files, one layer at a time; returns the receipt.

    ``host`` is the host's manifest graph (``load_arch``).  Once the blob's
    header and size are checked, the plan is worked out from the manifest
    and the key.  One ``BlobStream`` walk then reads each layer, picks a
    planned conv's channels from the weights just read, or with bn from
    the batchnorm after it, read one layer early, prunes the layer and
    writes it to ``out_weights`` (``_prune_stream``).  The marked
    structure that walk returns is what the self-check decodes and
    ``out_arch`` gets.  The bytes are those of ``embed`` on the loaded
    host and ``save_model``.
    """
    with open_blob(host, weights_path) as blob:
        plan = _plan(host, payload, params, criterion, decoy)
        crit = plan.receipt.criterion
        src = BlobStream(host, blob, out_weights)

        def retain(pos: int, ly) -> list[int] | None:
            if pos not in plan.drops:
                return None
            # with bn the scores are the gammas of the batchnorm after the conv
            scored = [ly, src.layer(pos + 1)] if crit == CRITERION_BN else [ly]
            return plan_layer(ModelGraph(scored, host.input_shape), 0, plan.drops[pos], crit)

        marked = _prune_stream(src, retain)
    plan.self_check(marked, params)
    write_manifest(marked, out_arch)
    return plan.receipt


def _prune_stream(src: BlobStream, retain) -> ModelGraph:
    """Prune each layer as the stream passes it; returns the pruned structure.

    retain(pos, layer) gives the channels a conv keeps, or None for every
    layer it leaves whole; ``prune_layer`` slices each layer as
    ``apply_prune`` does.  Last, ``apply_prune`` on the manifest graph
    checks every entry and gives the pruned structure, allocating nothing.
    """
    in_shapes = layer_input_shapes(src.host)
    retained, pending = {}, None

    def prune(pos: int, ly) -> None:
        nonlocal pending
        keep = retain(pos, ly)
        if keep is not None:
            retained[pos] = keep
        pending = prune_layer(ly, in_shapes[pos], pending, keep)

    src.rewrite(prune)
    return apply_prune(src.host, retained)


def one_value_warnings(values: list[int], what: str) -> list[str]:
    """A warning when two or more segment values are all one value, else none.

    A uniform re-pruning of an unmarked model puts every carrier in about
    the same cell, so it reads as such a payload without any mark.
    """
    if len(values) < 2 or len(set(values)) > 1:
        return []
    return [f"all {len(values)} {what} value {values[0]}; a uniform re-pruning "
            "of an unmarked model reads the same"]


def decode_segments(carriers: list[tuple[int, int]], suspect_counts: list[int],
                    params: EmbedParams) -> list[SegmentDecode]:
    """Decode each (conv ordinal, original width) carrier against the suspect's widths.

    Every ordinal must index ``suspect_counts`` (``extract`` checks a
    receipt's).  An out-of-range rate decodes by clamping and is flagged
    in the result.
    """
    segments = []
    for ordinal, c in carriers:
        c_susp = suspect_counts[ordinal]
        p_hat = (c - c_susp) / c
        value, clamped = wm_codec.decode_rate_clamped(p_hat, params)
        segments.append(SegmentDecode(ordinal, c, c_susp, p_hat, value, clamped))
    return segments


def matched_channel_counts(original: ModelGraph, suspect: ModelGraph) -> tuple[list, list]:
    """Both models' conv widths; ArchitectureMismatchError unless they have as many convs."""
    c_orig, c_susp = channel_counts(original), channel_counts(suspect)
    if len(c_orig) != len(c_susp):
        raise ArchitectureMismatchError(
            f"original has {len(c_orig)} conv layers, suspect has {len(c_susp)}")
    return c_orig, c_susp


def extract(original: ModelGraph | Receipt, suspect: ModelGraph,
            key: bytes | None = None, params: EmbedParams | None = None,
            n: int | None = None, criterion: str | None = None) -> ExtractionResult:
    """Recover payload bits by comparing channel counts.

    `original` may be the unmarked model (selection is then recomputed from
    the key, `params.key` unless `key` is given, over the layers eligible
    under `criterion`, l1_norm when None) or a receipt (selection, params
    and length are pinned by the receipt itself, so none of `params`, `n`
    and `criterion` may be given; `key` is only checked against it).
    Out-of-range rates decode by clamping and are reported as warnings.

    Every error raised depends on the suspect's conv count alone, never on
    its widths, so a caller can run this before work that keeps that count,
    such as an attack, and get the error a call after it would give.
    """
    warnings = []
    if isinstance(original, Receipt):
        if params is not None or n is not None or criterion is not None:
            raise CodecError("extraction from a receipt takes params and the payload "
                             "length from the receipt, and needs no criterion")
        if key is not None and wm_codec.key_fingerprint(key) != original.key_fingerprint:
            warnings.append("key does not match the receipt fingerprint")
        params = EmbedParams(segment_length=original.segment_length, key=b"",
                             p_min=original.p_min, p_max=original.p_max)
        n = original.payload_bits
        counts_susp = channel_counts(suspect)
        for e in original.layers:
            if e.index >= len(counts_susp):
                raise ArchitectureMismatchError(f"receipt refers to conv layer {e.index}, "
                                                f"suspect has only {len(counts_susp)}")
        carriers = [(e.index, e.c) for e in original.layers]
    else:
        if params is None or n is None:
            raise CodecError("extraction from a model needs params and the payload length")
        if n < 1:
            raise CodecError("payload length must be >= 1")
        counts_orig, counts_susp = matched_channel_counts(original, suspect)
        m = -(-n // params.segment_length)
        eligible = eligible_layers(original, params, criterion or "l1_norm")
        selected = wm_codec.select_layers(eligible, m, params.key if key is None else key)
        carriers = [(i, counts_orig[i]) for i in selected]
    segments = decode_segments(carriers, counts_susp, params)
    warnings += [f"conv layer {s.layer_index}: observed rate {s.rate:.6f} outside "
                 f"[{params.p_min}, {params.p_max}); decoded by clamping"
                 for s in segments if s.clamped]
    warnings += [f"conv layer {s.layer_index}: width {s.c} unchanged, no channel pruned; "
                 "the model may be unmarked" for s in segments if s.c_suspect == s.c]
    values = [s.value for s in segments]
    warnings += one_value_warnings(values, "carriers decode to")
    bits = wm_codec.assemble_bits(values, params.segment_length, n)
    return ExtractionResult(bits=bits, segments=segments, warnings=warnings)


def check_theta(theta: float) -> float:
    """The match threshold, if it lies in [0, 1]; CodecError otherwise (nan included)."""
    if not 0.0 <= theta <= 1.0:
        raise CodecError(f"theta must lie in [0, 1], got {theta}")
    return theta


def verify(expected: str, extracted: str | ExtractionResult,
           theta: float = 0.0) -> VerifyReport:
    """Bit error rate between expected and extracted; match iff BER <= theta."""
    check_theta(theta)
    if isinstance(extracted, ExtractionResult):
        extracted = extracted.bits
    if len(expected) != len(extracted):
        raise CodecError(
            f"expected {len(expected)} bits but extracted {len(extracted)}")
    if not expected or set(expected) - {"0", "1"} or set(extracted) - {"0", "1"}:
        raise CodecError("verify needs non-empty '0'/'1' strings")
    errors = sum(a != b for a, b in zip(expected, extracted))
    ber = errors / len(expected)
    return VerifyReport(extracted=extracted, ber=ber, theta=theta, matched=ber <= theta)


# --- attacks ----------------------------------------------------------------
#
# Each attack takes a loaded model or a BlobStream of one.  A loaded model
# is left as it was and the attacked copy returned; a stream is attacked as
# it is read, its blob written as it goes, and the attacked structure is
# returned for the caller's manifest.  Either way one per-layer edit does
# the arithmetic: edit_layers runs it on a graph, BlobStream.rewrite on a
# stream.

def _structure(model: ModelGraph | BlobStream) -> ModelGraph:
    """The graph whose shapes the attack reads: the model, or the stream's manifest graph."""
    return model if isinstance(model, ModelGraph) else model.host


def _edited(model: ModelGraph | BlobStream, edit) -> ModelGraph:
    """``edit_layers`` on a graph; a stream is rewritten and keeps its structure."""
    if isinstance(model, ModelGraph):
        return edit_layers(model, edit)
    model.rewrite(edit)
    return model.host


def _standard_normal(rng: np.random.Generator, n: int, dtype: np.dtype) -> np.ndarray:
    """n standard normal values of the given float dtype, by the Box–Muller transform.

    One draw of 2⌈n/2⌉ uniforms u in [0, 1): the first half gives the radii
    r = sqrt(−2·log1p(−u₁)), the second the angles θ = 2π·u₂, and the
    result is r·cos θ followed by r·sin θ, cut to n values.
    """
    m = -(-n // 2)
    u = rng.random(2 * m, dtype=dtype)
    r, theta = u[:m], u[m:]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2
    np.sqrt(r, out=r)
    theta *= 2 * np.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return u[:n]


def attack_noise(model: ModelGraph | BlobStream, sigma_rel: float,
                 seed: int = 0) -> ModelGraph:
    """Add zero-mean Gaussian noise, std = sigma_rel * per-tensor weight std.

    Each trainable tensor gets its own draw, in blob order and in the
    tensor's dtype, by the Box–Muller transform, from one generator that
    continues across the tensors; its std is computed in float64, where
    the square of a finite float32 cannot overflow.  Float32 uniforms lie
    on a 2⁻²⁴ grid, so a float32 draw never exceeds sqrt(48·ln 2) ≈ 5.77
    standard deviations (a normal does with probability about 8·10⁻⁹).  A
    tensor of zero scale is kept; sigma_rel = 0 computes no std, so it
    keeps any valid model.  An overflow anywhere raises AttackConfigError.
    A stream is noised layer by layer as it is read (see the note above).
    """
    if not 0.0 <= sigma_rel < np.inf:
        raise AttackConfigError(f"noise sigma must be finite and >= 0, got {sigma_rel}")
    if seed < 0:
        raise AttackConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    def noisy(pos: int, ly) -> None:
        for attr, arr in list(layer_arrays(ly)):
            if attr in ly.TRAINABLE and sigma_rel:
                # a numpy product, unlike a float one, reports overflow to errstate
                scale = np.float64(sigma_rel) * arr.std(dtype=np.float64)
                if scale > 0:
                    z = _standard_normal(rng, arr.size, arr.dtype)
                    z *= arr.dtype.type(scale)  # the cast, too, reports overflow
                    setattr(ly, attr, arr + z.reshape(arr.shape))

    try:
        with np.errstate(over="raise"):
            return _edited(model, noisy)
    except FloatingPointError:
        raise AttackConfigError(f"noise sigma {sigma_rel} overflows the weights") from None


def attack_zero_weights(model: ModelGraph | BlobStream, fraction: float) -> ModelGraph:
    """Zero the given fraction of smallest-magnitude conv/linear weights, globally.

    Ties at the cut go to the earlier weights in blob order, as in a stable
    ascending sort of the (finite, validated) magnitudes.  A zeroed weight
    becomes +0.0 and every other weight keeps its exact bits.  The model is
    read twice.  The first pass puts every weight's magnitude in one array
    and partitions it in place for the cut (the k-th smallest magnitude)
    and the count below it.  The second clears each tensor's weights below
    the cut and the earliest ties, k in all; any other count means the
    weights changed between the passes, and raises NnwmError.  A stream
    is read twice and written in the second pass (see the note above).
    """
    if not (0.0 <= fraction <= 1.0):
        raise AttackConfigError(f"zeroed fraction must lie in [0, 1], got {fraction}")
    structure = _structure(model)
    tensors = [ly.weights for ly in structure.layers if "weights" in ly.ARRAYS]
    total = sum(t.size for t in tensors)
    k = min(wm_codec.round_half_up(fraction * total), total)
    if k == 0:
        return _edited(model, lambda pos, ly: None)
    magnitudes = np.empty(total, np.result_type(*tensors))
    end = 0
    for _, ly in enumerate(model.layers) if model is structure else model.read_layers():
        if "weights" in ly.ARRAYS:
            w = ly.weights
            np.abs(w, out=magnitudes[end:end + w.size].reshape(w.shape))
            end += w.size
    # a non-negative float orders as its bit pattern, and integers partition faster
    bits = magnitudes.view(f"u{magnitudes.itemsize}")
    bits.partition(k - 1)
    cut = magnitudes[k - 1]
    below = bits[:k - 1]
    np.subtract(below, bits[k - 1], out=below)  # wraps: non-zero below the cut, 0 for a tie
    ties = k - np.count_nonzero(below)  # the earliest ties in blob order, the cut's own among them
    del magnitudes, bits, below
    cleared = 0

    def clear(pos: int, ly) -> None:
        nonlocal ties, cleared
        if "weights" not in ly.ARRAYS:
            return
        w = ly.weights
        magnitude = np.abs(w)
        kill = magnitude < cut
        if ties:
            tie = magnitude == cut
            n = np.count_nonzero(tie)
            if n > ties:  # the ties run out inside this tensor
                tie.reshape(-1)[np.flatnonzero(tie)[ties]:] = False
                n = ties
            kill |= tie
            ties -= n
        cleared += np.count_nonzero(kill)
        # AND with all ones (kill 0 - 1 wraps) keeps a weight, with zeros clears it;
        # the mask takes the magnitudes' buffer
        uint = f"u{w.itemsize}"
        mask = np.subtract(kill, 1, dtype=uint, out=magnitude.view(uint))
        ly.weights = np.empty(w.shape, w.dtype)
        np.bitwise_and(w.view(uint), mask, out=ly.weights.view(uint))

    attacked = _edited(model, clear)
    if cleared != k:
        raise NnwmError(f"the zero attack's second read cleared {cleared} weights, not {k}: "
                        "the weights changed between its two reads")
    return attacked


def attack_structural(model: ModelGraph | BlobStream, extra_rate: float,
                      seed: int = 0) -> ModelGraph:
    """Prune extra channels uniformly at random from every conv layer.

    The only attack here that changes the architecture; used to measure how
    fast the watermark degrades, not to make any robustness claim.  The
    plan comes from the structure and the seed alone; a loaded model is
    pruned by ``apply_prune``, a stream by the walk ``embed_stream`` uses.
    """
    if not (0.0 <= extra_rate < 1.0):
        raise AttackConfigError(f"extra pruning rate must lie in [0, 1), got {extra_rate}")
    if seed < 0:
        raise AttackConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    structure = _structure(model)
    plan = {}
    for pos, c in zip(conv_layer_indices(structure), channel_counts(structure)):
        k = wm_codec.rate_to_channel_count(extra_rate, c)
        if k == 0:
            continue
        dropped = set(rng.choice(c, size=k, replace=False).tolist())
        plan[pos] = [i for i in range(c) if i not in dropped]
    if model is structure:
        return apply_prune(model, plan)
    return _prune_stream(model, lambda pos, ly: plan.get(pos))
