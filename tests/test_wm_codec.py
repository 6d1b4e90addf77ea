"""Codec tests: segmentation, rate quantization, keyed selection, capacity."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnwm.errors import CapacityError, CodecError
from nnwm.wm_codec import (
    MAX_SEGMENT_LENGTH,
    EmbedParams,
    KeyStream,
    WatermarkPayload,
    assemble_bits,
    capacity,
    decode_rate_clamped,
    encode_rate,
    min_channels,
    rate_to_channel_count,
    segment,
    select_layers,
)


def params(l, p_min=0.0, p_max=0.7, key=b"k"):
    return EmbedParams(segment_length=l, key=key, p_min=p_min, p_max=p_max)


# --- segmentation -----------------------------------------------------------

def test_segment_pads_and_reads_big_endian():
    assert segment(WatermarkPayload("10110", 2)) == [2, 3, 0]
    assert segment(WatermarkPayload("111", 3)) == [7]
    assert segment(WatermarkPayload("101", 1)) == [1, 0, 1]


def test_empty_payload_rejected():
    with pytest.raises(CodecError):
        WatermarkPayload("", 2)


def test_assemble_inverts_segment_examples():
    assert assemble_bits([2, 3, 0], 2, 5) == "10110"
    assert assemble_bits([5], 3, 3) == "101"


def test_assemble_length_mismatch():
    with pytest.raises(CodecError):
        assemble_bits([1, 2], 2, 5)  # two segments cannot carry five bits
    with pytest.raises(CodecError):
        assemble_bits([1, 2, 3], 2, 4)  # three segments is one too many
    with pytest.raises(CodecError):
        assemble_bits([4], 2, 2)  # value out of range


@given(st.lists(st.sampled_from("01"), min_size=1, max_size=64).map("".join),
       st.integers(min_value=1, max_value=8))
def test_assemble_segment_roundtrip(bits, l):
    p = WatermarkPayload(bits, l)
    assert assemble_bits(segment(p), l, p.n) == bits


# --- rate quantization ------------------------------------------------------

def test_encode_rate_matches_direct_arithmetic():
    # independent evaluation of the midpoint formula
    p = params(3)
    delta = 0.7 / 8
    assert p.delta == pytest.approx(delta, abs=1e-15)
    assert encode_rate(5, p) == pytest.approx(0.48125, abs=1e-12)
    p1 = params(1)
    assert encode_rate(0, p1) == pytest.approx(0.175, abs=1e-12)
    assert encode_rate(1, p1) == pytest.approx(0.525, abs=1e-12)


def test_encode_rate_rejects_out_of_range():
    with pytest.raises(CodecError):
        encode_rate(8, params(3))
    with pytest.raises(CodecError):
        encode_rate(-1, params(3))


@given(st.integers(min_value=1, max_value=8))
def test_encode_strictly_increasing(l):
    p = params(l)
    rates = [encode_rate(d, p) for d in range(1 << l)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(p.p_min <= r < p.p_max for r in rates)


def test_decode_rate_examples():
    assert decode_rate_clamped(0.484375, params(3)) == (5, False)
    p = params(3)
    for d in range(8):
        assert decode_rate_clamped(encode_rate(d, p), p) == (d, False)  # cell centers
    assert decode_rate_clamped(0.7, p) == (7, True)  # half-open interval
    assert decode_rate_clamped(-0.01, p) == (0, True)
    for bad in (float("nan"), float("inf")):
        assert decode_rate_clamped(bad, p) == (7, True)


def test_decode_rate_clamped_flags_out_of_range():
    p = params(3)
    assert decode_rate_clamped(0.75, p) == (7, True)
    assert decode_rate_clamped(-0.1, p) == (0, True)
    assert decode_rate_clamped(0.484375, p) == (5, False)


def test_rate_to_channel_count_closes_roundtrip():
    assert rate_to_channel_count(0.48125, 64) == 31
    assert decode_rate_clamped(31 / 64, params(3)) == (5, False)
    assert rate_to_channel_count(0.04375, 12) == 1
    assert decode_rate_clamped(1 / 12, params(3)) == (0, False)
    assert rate_to_channel_count(0.0, 7) == 0
    assert rate_to_channel_count(0.99, 4) == 3  # capped at c - 1


def test_min_channels_values():
    assert min_channels(params(3)) == 12
    assert min_channels(params(1)) == 3
    assert min_channels(params(2, p_min=0.0, p_max=1.0)) == 5
    # delta = 0.025 computes a hair wide, so 40 * delta > 1 in floats, yet 40
    # channels put level 0 on the edge of level 1
    assert min_channels(params(1, p_min=0.5, p_max=0.55)) == 41
    with pytest.raises(CodecError):
        min_channels(params(32, p_min=0.5, p_max=0.5 + 1e-6))


def test_exhaustive_roundtrip_small():
    # the acceptance suite runs the full sweep; spot-check a dense slice here
    for l in (1, 2, 3):
        p = params(l)
        c_min = min_channels(p)
        for c in range(c_min, c_min + 40):
            for d in range(1 << l):
                k = rate_to_channel_count(encode_rate(d, p), c)
                assert 0 <= k <= c - 1
                assert decode_rate_clamped(k / c, p) == (d, False)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.55, max_value=1.0),
       st.integers(min_value=0, max_value=400))
@settings(max_examples=200)
@example(l=1, p_min=0.5, p_max=0.55, c_extra=0)  # float c * delta just above 1
def test_roundtrip_random_ranges(l, p_min, p_max, c_extra):
    p = EmbedParams(segment_length=l, key=b"x", p_min=p_min, p_max=p_max)
    c = min_channels(p) + c_extra
    for d in range(1 << l):
        k = rate_to_channel_count(encode_rate(d, p), c)
        assert decode_rate_clamped(k / c, p) == (d, False)


# --- capacity ---------------------------------------------------------------

@pytest.mark.parametrize("t,l,r,expected", [
    (162, 1, 0.4, 65), (162, 2, 0.4, 130), (162, 3, 0.8, 390),
    (39, 3, 0.6, 69), (16, 3, 1.0, 48),
    # additional grid points covered by the same rounding rule
    (16, 1, 0.2, 3), (16, 2, 0.6, 20), (16, 2, 0.8, 26), (16, 3, 0.8, 39),
    (162, 1, 0.6, 97), (162, 2, 1.0, 324), (162, 3, 0.2, 96),
    (39, 1, 0.2, 8), (39, 1, 0.8, 31), (39, 2, 0.6, 46), (39, 3, 1.0, 117),
])
def test_capacity_table(t, l, r, expected):
    assert capacity(t, l, r) == expected


def test_capacity_rejects_bad_args():
    with pytest.raises(CodecError):
        capacity(0, 1, 0.5)
    with pytest.raises(CodecError):
        capacity(10, 1, 0.0)
    with pytest.raises(CodecError):
        capacity(10, 1, 1.5)
    assert capacity(10, MAX_SEGMENT_LENGTH, 1.0) == 10 * MAX_SEGMENT_LENGTH
    for l in (0, MAX_SEGMENT_LENGTH + 1):  # the range EmbedParams accepts
        with pytest.raises(CodecError):
            capacity(10, l, 0.5)
    with pytest.raises(CodecError):  # a layer count beyond float range
        capacity(10 ** 400, 1, 0.5)


# --- keyed selection --------------------------------------------------------

def _reference_select(eligible, m, key):
    """Independent implementation of the pinned keyed-stream shuffle."""
    seed = hashlib.sha256(key).digest()
    words, counter = [], 0

    def next_word():
        nonlocal counter, words
        if not words:
            block = hashlib.sha256(seed + counter.to_bytes(8, "little")).digest()
            counter += 1
            words = [int.from_bytes(block[i:i + 8], "big") for i in range(0, 32, 8)]
        return words.pop(0)

    def draw(n):
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = next_word()
            if u < limit:
                return u % n

    a = list(eligible)
    for i in range(len(a) - 1, 0, -1):
        j = draw(i + 1)
        a[i], a[j] = a[j], a[i]
    return sorted(a[:m])


def test_select_layers_frozen_reference_values():
    # frozen outputs of _reference_select, computed once and pinned
    assert select_layers(list(range(16)), 8, b"k1") == [0, 4, 8, 10, 12, 13, 14, 15]
    assert select_layers(list(range(16)), 8, b"k2") == [1, 2, 6, 8, 10, 13, 14, 15]
    assert select_layers(list(range(7)), 3, b"abc") == [2, 4, 5]


@given(st.integers(min_value=1, max_value=24), st.binary(min_size=0, max_size=16),
       st.data())
def test_select_layers_matches_reference(size, key, data):
    eligible = list(range(100, 100 + size))
    m = data.draw(st.integers(min_value=0, max_value=size))
    assert select_layers(eligible, m, key) == _reference_select(eligible, m, key)


def test_select_layers_determinism_and_full_set():
    eligible = [3, 5, 9, 11, 20]
    assert select_layers(eligible, 5, b"any") == eligible
    a = select_layers(eligible, 2, b"same-key")
    b = select_layers(eligible, 2, b"same-key")
    assert a == b
    assert len(a) == 2 and a == sorted(a)


def test_select_layers_capacity_error():
    with pytest.raises(CapacityError) as exc:
        select_layers([0, 1, 2], 4, b"k")
    assert exc.value.required == 4
    assert exc.value.available == 3


def test_selection_uniform_over_subsets():
    # 2-of-5 subsets should be uniform: chi-square over 10 cells,
    # 10^4 draws, critical value 27.88 at alpha = 1e-3 (df = 9)
    from itertools import combinations
    cells = {c: 0 for c in combinations(range(5), 2)}
    draws = 10_000
    for i in range(draws):
        sel = tuple(select_layers(list(range(5)), 2, f"key-{i}".encode()))
        cells[sel] += 1
    expected = draws / len(cells)
    chi2 = sum((obs - expected) ** 2 / expected for obs in cells.values())
    assert chi2 < 27.88, f"chi-square {chi2:.1f} exceeds the 0.001 critical value"


def test_keystream_uniform_unit_interval():
    s = KeyStream(b"stats")
    xs = [s.uniform() for _ in range(4000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02


# --- parameter validation ---------------------------------------------------

def test_embed_params_validation():
    with pytest.raises(CodecError):
        EmbedParams(segment_length=0, key=b"k")
    with pytest.raises(CodecError):
        EmbedParams(segment_length=1, key=b"k", p_min=0.5, p_max=0.5)
    with pytest.raises(CodecError):
        EmbedParams(segment_length=1, key=b"k", p_min=-0.1)
    with pytest.raises(CodecError):
        EmbedParams(segment_length=1, key=b"k", p_max=1.1)
    with pytest.raises(CodecError):
        EmbedParams(segment_length=33, key=b"k")  # 2^33 levels: no layer is that wide
    p = EmbedParams(segment_length=2, key=b"k")
    assert (p.p_min, p.p_max) == (0.0, 0.7)


def test_embed_params_refuse_a_cell_width_that_underflows_to_zero():
    with pytest.raises(CodecError, match="underflows to 0"):
        EmbedParams(segment_length=3, key=b"k", p_max=5e-324)
    p = EmbedParams(segment_length=1, key=b"k", p_max=1e-323)  # cell width 5e-324
    assert decode_rate_clamped(0.0, p) == (0, False)
    with pytest.raises(CodecError, match="below float resolution"):
        min_channels(p)  # stricter: no layer is wide enough to carry it
