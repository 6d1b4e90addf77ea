"""Watermark arithmetic: bit segmentation, rate quantization, keyed layer choice.

The payload is cut into segments of ``l`` bits.  Each segment's decimal
value selects one cell of a uniform quantizer over the pruning-rate range
[p_min, p_max): the target rate is the cell midpoint, and decoding floor-
divides the observed rate by the cell width.  A keyed, bit-exact shuffle
picks which conv layers carry the segments.

Keyed stream (pinned so independent implementations agree):
  seed      = SHA-256(key bytes)
  block_i   = SHA-256(seed || i as 8-byte little-endian), i = 0, 1, 2, ...
  words     = each 32-byte block read as four big-endian u64, in order
Bounded draws use rejection sampling (reject words >= the largest multiple
of n below 2^64), which keeps the shuffle unbiased.  The shuffle itself is
a Fisher-Yates pass from the last position down to index 1.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityError, CodecError

DEFAULT_P_MIN = 0.0
DEFAULT_P_MAX = 0.7
# A longer segment needs a carrier wider than 2^32 channels; near l = 1024 the
# float cell width (p_max - p_min) / 2^l no longer exists at all.
MAX_SEGMENT_LENGTH = 32

_U64 = 1 << 64
# Rates lie in [0, 1] and each costs a few ulps of 1.0 to compute; a realized
# rate must sit this far inside its cell to decode the same on every path.
_RATE_SLACK = 64 * sys.float_info.epsilon


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero (x >= 0 here)."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class WatermarkPayload:
    """Bit sequence plus the segment length used to partition it."""

    bits: str
    segment_length: int

    def __post_init__(self):
        if not self.bits:
            raise CodecError("payload must contain at least one bit")
        if set(self.bits) - {"0", "1"}:
            raise CodecError("payload bits must be '0'/'1' characters")
        if self.segment_length < 1:
            raise CodecError("segment length must be >= 1")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def num_segments(self) -> int:
        return -(-self.n // self.segment_length)


@dataclass(frozen=True)
class EmbedParams:
    """Scheme parameters shared by embedding and extraction."""

    segment_length: int
    key: bytes
    p_min: float = DEFAULT_P_MIN
    p_max: float = DEFAULT_P_MAX

    def __post_init__(self):
        if not 1 <= self.segment_length <= MAX_SEGMENT_LENGTH:
            raise CodecError(f"segment length must lie in [1, {MAX_SEGMENT_LENGTH}]")
        if not isinstance(self.key, (bytes, bytearray)):
            raise CodecError("key must be bytes")
        if not (0.0 <= self.p_min < self.p_max <= 1.0):
            raise CodecError(f"need 0 <= p_min < p_max <= 1, got [{self.p_min}, {self.p_max})")
        if self.delta == 0:  # decoding divides by it; min_channels asks for more
            raise CodecError(f"cell width of [{self.p_min}, {self.p_max}) at l = "
                             f"{self.segment_length} underflows to 0")

    @property
    def num_levels(self) -> int:
        return 1 << self.segment_length

    @property
    def delta(self) -> float:
        """Width of one quantizer cell."""
        return (self.p_max - self.p_min) / self.num_levels


def segment(payload: WatermarkPayload) -> list[int]:
    """Split the payload into per-segment decimal values.

    Bits are big-endian within a segment; the last segment is padded with
    trailing zeros.
    """
    l = payload.segment_length
    bits = payload.bits
    padded = bits + "0" * (-len(bits) % l)
    return [int(padded[i:i + l], 2) for i in range(0, len(padded), l)]


def assemble_bits(values: Sequence[int], segment_length: int, n: int) -> str:
    """Inverse of segment: concatenate values as bits, truncated to n."""
    l = segment_length
    m = len(values)
    if n < 1:
        raise CodecError("payload length must be >= 1")
    if not ((m - 1) * l < n <= m * l):
        raise CodecError(f"{m} segment(s) of {l} bits cannot carry a {n}-bit payload")
    out = []
    for v in values:
        if not (0 <= v < (1 << l)):
            raise CodecError(f"segment value {v} out of [0, {1 << l})")
        out.append(format(v, f"0{l}b"))
    return "".join(out)[:n]


def encode_rate(value: int, params: EmbedParams) -> float:
    """Target pruning rate for one segment value: the midpoint of its cell."""
    if not (0 <= value < params.num_levels):
        raise CodecError(f"segment value {value} out of [0, {params.num_levels})")
    return params.p_min + (value + 0.5) * params.delta


def decode_rate_clamped(p_hat: float, params: EmbedParams) -> tuple[int, bool]:
    """Decode with clamping; second element reports an out-of-range rate."""
    if p_hat < params.p_min:
        return 0, True
    if not p_hat < params.p_max:  # NaN lands here too
        return params.num_levels - 1, True
    cell = math.floor((p_hat - params.p_min) / params.delta)
    return min(cell, params.num_levels - 1), False


def rate_to_channel_count(rate: float, channels: int) -> int:
    """Number of channels to remove so the realized rate is nearest to `rate`.

    Capped at channels - 1 so at least one channel survives.
    """
    if channels < 1:
        raise CodecError("channel count must be >= 1")
    if not (0.0 <= rate < 1.0):
        raise CodecError(f"rate {rate} outside [0, 1)")
    return min(round_half_up(rate * channels), channels - 1)


def min_channels(params: EmbedParams) -> int:
    """Smallest layer width that decodes losslessly.

    With k = round_half_up(p * c) the realized rate misses the target by at
    most 0.5/c, so 0.5/c < delta/2 keeps the error inside half a cell.  The
    gap must also outlast float rounding: where c * delta is 1 up to an ulp,
    the realized rate lands on the cell edge and decodes one level up.
    """
    half_cell = params.delta / 2 - _RATE_SLACK
    if half_cell <= 0:
        raise CodecError(f"cell width {params.delta} is below float resolution")
    c = int(math.floor(0.5 / half_cell)) + 1
    while 0.5 / c >= half_cell:
        c += 1
    return c


def capacity(t: int, segment_length: int, r_cov: float) -> int:
    """Embeddable bits for t conv layers at coverage r_cov."""
    if t < 1:
        raise CodecError("conv-layer count must be >= 1")
    if not 1 <= segment_length <= MAX_SEGMENT_LENGTH:
        raise CodecError(f"segment length must lie in [1, {MAX_SEGMENT_LENGTH}]")
    if not (0.0 < r_cov <= 1.0):
        raise CodecError("r_cov must lie in (0, 1]")
    try:
        return segment_length * round_half_up(t * r_cov)
    except OverflowError:  # t beyond float range
        raise CodecError("conv-layer count is too large") from None


class KeyStream:
    """Deterministic word stream derived from a secret key (see module doc)."""

    def __init__(self, key: bytes):
        self._seed = hashlib.sha256(bytes(key)).digest()
        self._counter = 0
        self._pending: list[int] = []

    def next_u64(self) -> int:
        if not self._pending:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "little")).digest()
            self._counter += 1
            self._pending = [int.from_bytes(block[k:k + 8], "big")
                             for k in (0, 8, 16, 24)]
        return self._pending.pop(0)

    def bounded(self, n: int) -> int:
        """Unbiased uniform draw from [0, n) by rejection sampling."""
        if n < 1:
            raise CodecError("bound must be >= 1")
        limit = _U64 - (_U64 % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u64() / _U64


def keyed_shuffle(items: Sequence, stream: KeyStream) -> list:
    """Fisher-Yates permutation driven by the key stream (pinned order)."""
    perm = list(items)
    for i in range(len(perm) - 1, 0, -1):
        j = stream.bounded(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def select_layers(eligible: Sequence[int], m: int, key: bytes) -> list[int]:
    """Pick m carrier layers from the eligible list, ascending.

    The first m entries of the keyed permutation, sorted.  Deterministic in
    (eligible, m, key); raises CapacityError when m exceeds the pool.
    """
    if m < 0:
        raise CodecError("segment count must be >= 0")
    if m > len(eligible):
        raise CapacityError(required=m, available=len(eligible))
    perm = keyed_shuffle(eligible, KeyStream(key))
    return sorted(perm[:m])


def key_fingerprint(key: bytes) -> str:
    """SHA-256 hex of the key; safe to publish in receipts."""
    return hashlib.sha256(bytes(key)).hexdigest()
