"""End-to-end embed / extract / verify plus the attack harness.

Embedding prunes one key-selected conv layer per payload segment, at the
rate encoding that segment.  One planner works out, from the host's
structure and the key alone, how many channels each conv drops and the
receipt; ``plan_layer`` then picks the channels from the weights.
``embed`` prunes a copy of a loaded host; ``embed_stream`` reads the
host's blob one layer at a time and writes the marked model as it goes,
so its working memory is bounded by the largest layer.  Both end in one
self-check, which decodes the carriers the key selects from the widths
the plan started from.  Extraction names the carriers as (conv ordinal,
original width) pairs, from a receipt or by key from the original model
(``extract``, whose every check needs only the suspect's conv count);
``decode_segments`` decodes each rate from the suspect's width.
Attacks either perturb parameters (which provably cannot change the
extracted bits) or re-prune the structure (which degrades them measurably).
Each weight attack builds its output in one ``map_arrays`` walk.  The
fine-tuning attack is ``toy_trainer.finetune`` itself, which this module
does not import: the watermark core never trains.
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
    BLOB_HEADER,
    ModelGraph,
    channel_counts,
    clone_graph,
    conv_layer_indices,
    layer_input_shapes,
    map_arrays,
    open_blob,
    open_new,
    read_layer,
    write_layer,
    write_manifest,
)
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
    and the key.  One pass then reads each layer (``read_layer`` checks
    its values), picks a planned conv's channels from the weights just
    read, or with bn from the batchnorm after it, read one layer early,
    prunes the layer (``prune_layer``) and writes it to ``out_weights``.
    Last, ``apply_prune`` on the manifest graph checks every entry and
    gives the marked structure, which the self-check decodes and
    ``out_arch`` gets.
    The bytes are those of ``embed`` on the loaded host and ``save_model``.
    """
    in_shapes = layer_input_shapes(host)
    retained, pending, ahead = {}, None, None
    with open_blob(host, weights_path) as blob:
        plan = _plan(host, payload, params, criterion, decoy)
        crit = plan.receipt.criterion
        with open_new(out_weights) as out:
            out.write(BLOB_HEADER)
            for pos, placeholder in enumerate(host.layers):
                ly = read_layer(blob, pos, placeholder) if ahead is None else ahead
                ahead = None
                if pos in plan.drops:
                    scored = [ly]
                    if crit == CRITERION_BN:  # the scores are the next layer's gammas
                        ahead = read_layer(blob, pos + 1, host.layers[pos + 1])
                        scored.append(ahead)
                    retained[pos] = plan_layer(ModelGraph(scored, host.input_shape), 0,
                                               plan.drops[pos], crit)
                pending = prune_layer(ly, in_shapes[pos], pending, retained.get(pos))
                write_layer(out, ly)
    marked = apply_prune(host, retained)
    plan.self_check(marked, params)
    write_manifest(marked, out_arch)
    return plan.receipt


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


def attack_noise(model: ModelGraph, sigma_rel: float, seed: int = 0) -> ModelGraph:
    """Add zero-mean Gaussian noise, std = sigma_rel * per-tensor weight std.

    Each trainable tensor gets its own draw, in blob order and in the
    tensor's dtype, by the Box–Muller transform; its std is computed in
    float64, where the square of a finite float32 cannot overflow.
    Float32 uniforms lie on a 2⁻²⁴ grid, so a float32 draw never exceeds
    sqrt(48·ln 2) ≈ 5.77 standard deviations (a normal does with
    probability about 8·10⁻⁹).  A tensor of zero scale is copied;
    sigma_rel = 0 computes no std, so it copies any valid model.  An
    overflow anywhere raises AttackConfigError.  The model is left as it
    was.
    """
    if not 0.0 <= sigma_rel < np.inf:
        raise AttackConfigError(f"noise sigma must be finite and >= 0, got {sigma_rel}")
    if seed < 0:
        raise AttackConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    def noisy(ly, attr: str, arr: np.ndarray) -> np.ndarray:
        if attr in ly.TRAINABLE and sigma_rel:
            # a numpy product, unlike a float one, reports overflow to errstate
            scale = np.float64(sigma_rel) * arr.std(dtype=np.float64)
            if scale > 0:
                z = _standard_normal(rng, arr.size, arr.dtype)
                z *= arr.dtype.type(scale)  # the cast, too, reports overflow
                return arr + z.reshape(arr.shape)
        return arr.copy()

    try:
        with np.errstate(over="raise"):
            return map_arrays(model, noisy)
    except FloatingPointError:
        raise AttackConfigError(f"noise sigma {sigma_rel} overflows the weights") from None


def attack_zero_weights(model: ModelGraph, fraction: float) -> ModelGraph:
    """Zero the given fraction of smallest-magnitude conv/linear weights, globally.

    Ties at the cut go to the earlier weights in blob order, as in a stable
    ascending sort of the (finite, validated) magnitudes.  A zeroed weight
    becomes +0.0 and every other weight keeps its exact bits.  The model is
    left as it was.
    """
    if not (0.0 <= fraction <= 1.0):
        raise AttackConfigError(f"zeroed fraction must lie in [0, 1], got {fraction}")
    tensors = [ly.weights for ly in model.layers if "weights" in ly.ARRAYS]
    total = sum(t.size for t in tensors)
    k = min(wm_codec.round_half_up(fraction * total), total)
    if k == 0:
        return clone_graph(model)
    splits = np.cumsum([t.size for t in tensors[:-1]])
    magnitudes = np.empty(total, np.result_type(*tensors))
    for t, m in zip(tensors, np.split(magnitudes, splits)):
        np.abs(t, out=m.reshape(t.shape))
    # a non-negative float orders as its bit pattern, and integers partition faster
    bits = magnitudes.view(f"u{magnitudes.itemsize}")
    cut = np.partition(bits, k - 1)[k - 1]  # the k-th smallest magnitude
    kill = bits < cut
    kill[np.flatnonzero(bits == cut)[:k - np.count_nonzero(kill)]] = True
    masks = iter(np.split(kill, splits))  # one per "weights" tensor, in blob order

    def cleared(ly, attr: str, arr: np.ndarray) -> np.ndarray:
        if attr != "weights":
            return arr.copy()
        # AND with all ones (kill 0 - 1 wraps) keeps a weight, with zeros clears it
        uint = f"u{arr.itemsize}"
        out = np.empty(arr.shape, arr.dtype)
        np.bitwise_and(arr.reshape(-1).view(uint), np.subtract(next(masks), 1, dtype=uint),
                       out=out.reshape(-1).view(uint))
        return out

    return map_arrays(model, cleared)


def attack_structural(model: ModelGraph, extra_rate: float, seed: int = 0) -> ModelGraph:
    """Prune extra channels uniformly at random from every conv layer.

    The only attack here that changes the architecture; used to measure how
    fast the watermark degrades, not to make any robustness claim.
    """
    if not (0.0 <= extra_rate < 1.0):
        raise AttackConfigError(f"extra pruning rate must lie in [0, 1), got {extra_rate}")
    if seed < 0:
        raise AttackConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    positions = conv_layer_indices(model)
    counts = channel_counts(model)
    plan = {}
    for pos, c in zip(positions, counts):
        k = wm_codec.rate_to_channel_count(extra_rate, c)
        if k == 0:
            continue
        dropped = set(rng.choice(c, size=k, replace=False).tolist())
        plan[pos] = [i for i in range(c) if i not in dropped]
    return apply_prune(model, plan)
