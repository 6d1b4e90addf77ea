"""End-to-end embed / extract / verify plus the attack harness.

Embedding prunes one key-selected conv layer per payload segment, at the
rate encoding that segment.  Extraction names the carriers as (conv
ordinal, original width) pairs, from a receipt or by key from the original
model; ``decode_segments`` decodes each rate from the suspect's width.
Attacks either perturb parameters (which provably cannot change the
extracted bits) or re-prune the structure (which degrades them measurably).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import wm_codec
from .errors import (
    ArchitectureMismatchError,
    AttackConfigError,
    CapacityError,
    CodecError,
    NnwmError,
)
from .importance import criterion_applicable, normalize_criterion
from .model_store import (
    ConvLayer,
    LinearLayer,
    ModelGraph,
    channel_counts,
    clone_graph,
    conv_layer_indices,
    iter_named_params,
)
from .pruner import PlanEntry, Receipt, ReceiptLayer, apply_prune, plan_layer
from .toy_trainer import Batch, TrainConfig, finetune
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


def embed(model: ModelGraph, payload: WatermarkPayload, params: EmbedParams,
          criterion: str = "l1_norm", decoy: bool = False) -> tuple[ModelGraph, Receipt]:
    """Prune the payload into the model; returns (marked model, receipt).

    With decoy=True, every non-selected conv layer is additionally pruned
    at a key-stream rate from [p_min, p_max), so carriers do not stand out.
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
    entries, pruned = [], {}
    for ordinal, rate in rates.items():
        k = pruned[ordinal] = wm_codec.rate_to_channel_count(rate, counts[ordinal])
        # a carrier is eligible and prunes k >= 1, so only a decoy is ever skipped
        if k and criterion_applicable(model, positions[ordinal], crit):
            retained = plan_layer(model, positions[ordinal], k, crit)
            entries.append(PlanEntry(positions[ordinal], tuple(retained)))
    marked = apply_prune(model, tuple(entries))
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
    check = extract(model, marked, params=params, n=payload.n, criterion=crit)
    if check.bits != payload.bits:
        raise NnwmError("internal error: freshly embedded payload failed to extract")
    return marked, receipt


def decode_segments(carriers: list[tuple[int, int]], suspect_counts: list[int],
                    params: EmbedParams) -> list[SegmentDecode]:
    """Decode each (conv ordinal, original width) carrier against the suspect's widths.

    An out-of-range rate decodes by clamping and is flagged in the result.
    """
    segments = []
    for ordinal, c in carriers:
        if ordinal >= len(suspect_counts):
            raise ArchitectureMismatchError(f"receipt refers to conv layer {ordinal}, "
                                            f"suspect has only {len(suspect_counts)}")
        c_susp = suspect_counts[ordinal]
        p_hat = (c - c_susp) / c
        value, clamped = wm_codec.decode_rate_clamped(p_hat, params)
        segments.append(SegmentDecode(ordinal, c, c_susp, p_hat, value, clamped))
    return segments


def extract(original: ModelGraph | Receipt, suspect: ModelGraph,
            key: bytes | None = None, params: EmbedParams | None = None,
            n: int | None = None, criterion: str = "l1_norm") -> ExtractionResult:
    """Recover payload bits by comparing channel counts.

    `original` may be the unmarked model (selection is then recomputed from
    the key, `params.key` unless `key` is given) or a receipt (selection is
    pinned by the receipt itself; `key` is only checked against it).
    Out-of-range rates decode by clamping and are reported as warnings.
    """
    counts_susp = channel_counts(suspect)
    warnings = []
    if isinstance(original, Receipt):
        if key is not None and wm_codec.key_fingerprint(key) != original.key_fingerprint:
            warnings.append("key does not match the receipt fingerprint")
        carriers = [(e.index, e.c) for e in original.layers]
        params = EmbedParams(segment_length=original.segment_length, key=b"",
                             p_min=original.p_min, p_max=original.p_max)
        n = original.payload_bits
    else:
        if params is None or n is None:
            raise CodecError("extraction from a model needs params and the payload length")
        if n < 1:
            raise CodecError("payload length must be >= 1")
        counts_orig = channel_counts(original)
        if len(counts_orig) != len(counts_susp):
            raise ArchitectureMismatchError(
                f"original has {len(counts_orig)} conv layers, suspect has {len(counts_susp)}")
        m = -(-n // params.segment_length)
        eligible = eligible_layers(original, params, criterion)
        selected = wm_codec.select_layers(eligible, m, params.key if key is None else key)
        carriers = [(i, counts_orig[i]) for i in selected]
    segments = decode_segments(carriers, counts_susp, params)
    warnings += [f"conv layer {s.layer_index}: observed rate {s.rate:.6f} outside "
                 f"[{params.p_min}, {params.p_max}); decoded by clamping"
                 for s in segments if s.clamped]
    bits = wm_codec.assemble_bits([s.value for s in segments], params.segment_length, n)
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

def attack_noise(model: ModelGraph, sigma_rel: float, seed: int = 0) -> ModelGraph:
    """Add zero-mean Gaussian noise, std = sigma_rel * per-tensor weight std."""
    if not 0.0 <= sigma_rel < np.inf:
        raise AttackConfigError(f"noise sigma must be finite and >= 0, got {sigma_rel}")
    if seed < 0:
        raise AttackConfigError(f"seed must be >= 0, got {seed}")
    out = clone_graph(model)
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(over="raise"):
            for _, _, arr in iter_named_params(out):
                # a numpy product, unlike a float one, reports overflow to errstate
                scale = np.float64(sigma_rel) * float(arr.std())
                if scale > 0:
                    arr += rng.normal(0.0, scale, size=arr.shape).astype(arr.dtype)
    except FloatingPointError:
        raise AttackConfigError(f"noise sigma {sigma_rel} overflows the weights") from None
    return out


def attack_zero_weights(model: ModelGraph, fraction: float) -> ModelGraph:
    """Zero the given fraction of smallest-magnitude conv/linear weights, globally.

    Ties at the cut go to the earlier weights in blob order, as in a stable
    ascending sort of the (finite, validated) magnitudes.
    """
    if not (0.0 <= fraction <= 1.0):
        raise AttackConfigError(f"zeroed fraction must lie in [0, 1], got {fraction}")
    out = clone_graph(model)
    tensors = [ly.weights for ly in out.layers if isinstance(ly, (ConvLayer, LinearLayer))]
    total = sum(t.size for t in tensors)
    k = min(wm_codec.round_half_up(fraction * total), total)
    if k == 0:
        return out
    magnitudes = np.concatenate([np.abs(t).ravel() for t in tensors])
    cut = np.partition(magnitudes, k - 1)[k - 1]  # the k-th smallest magnitude
    kill = magnitudes < cut
    kill[np.flatnonzero(magnitudes == cut)[:k - np.count_nonzero(kill)]] = True
    off = 0
    for t in tensors:
        mask = kill[off:off + t.size].reshape(t.shape)
        t[mask] = 0.0
        off += t.size
    return out


def attack_finetune(model: ModelGraph, train: Batch,
                    epochs: int, lr: float = 0.001, seed: int = 0) -> ModelGraph:
    """Fine-tune the suspect model; parameters move, architecture cannot."""
    return finetune(model, train, TrainConfig(epochs=epochs, lr=lr, seed=seed))


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
    entries = []
    for pos, c in zip(positions, counts):
        k = wm_codec.rate_to_channel_count(extra_rate, c)
        if k == 0:
            continue
        dropped = set(rng.choice(c, size=k, replace=False).tolist())
        entries.append(PlanEntry(pos, tuple(i for i in range(c) if i not in dropped)))
    return apply_prune(model, tuple(entries))
