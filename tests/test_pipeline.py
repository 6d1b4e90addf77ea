"""Pipeline tests: embed/extract round trips, verification, attacks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _params import trainable_params

from nnwm.errors import ArchitectureMismatchError, CapacityError, CodecError, NnwmError
from nnwm.fixtures import _bn, _conv, _linear, random_conv_net, vgg16_style, vgg_tiny
from nnwm.model_store import (
    ConvLayer,
    GlobalAvgPoolLayer,
    LinearLayer,
    ModelGraph,
    ReluLayer,
    channel_counts,
    clone_graph,
    conv_layer_indices,
    layer_arrays,
)
from nnwm.pipeline import (
    _standard_normal,
    attack_noise,
    attack_structural,
    attack_zero_weights,
    eligible_layers,
    embed,
    extract,
    verify,
)
from nnwm.pruner import apply_prune
from nnwm.toy_trainer import TrainConfig, finetune, synth_dataset, to_precision
from nnwm.wm_codec import EmbedParams, WatermarkPayload, min_channels, round_half_up


def random_bits(rng, n):
    return "".join(rng.choice(["0", "1"], size=n))


@pytest.fixture(scope="module")
def marked_deep():
    model = vgg16_style(0)
    rng = np.random.default_rng(77)
    bits = random_bits(rng, 48)
    params = EmbedParams(segment_length=3, key=b"owner-key")
    marked, receipt = embed(model, WatermarkPayload(bits, 3), params, criterion="l1")
    return model, marked, receipt, bits, params


def test_embed_extract_full_coverage(marked_deep):
    model, marked, receipt, bits, params = marked_deep
    res = extract(model, marked, params=params, n=48)
    assert res.bits == bits
    assert not res.warnings
    assert verify(bits, res).ber == 0.0
    res2 = extract(receipt, marked)
    assert res2.bits == bits


def test_embed_reports_capacity_error(deep_model):
    params = EmbedParams(segment_length=3, key=b"k")
    bits = "1" * (17 * 3)  # 17 segments, 16 eligible layers
    with pytest.raises(CapacityError) as exc:
        embed(deep_model, WatermarkPayload(bits, 3), params)
    assert exc.value.required == 17
    assert exc.value.available == 16


def test_embed_rejects_segment_length_mismatch(deep_model):
    params = EmbedParams(segment_length=3, key=b"k")
    with pytest.raises(CodecError):
        embed(deep_model, WatermarkPayload("1010", 2), params)


def test_empty_payload_is_impossible():
    with pytest.raises(CodecError):
        WatermarkPayload("", 3)


def test_eligibility_excludes_narrow_layers():
    model = random_conv_net(seed=5, n_convs=10, c_lo=4, c_hi=64)
    params = EmbedParams(segment_length=3, key=b"k")
    c_min = min_channels(params)
    counts = channel_counts(model)
    eligible = eligible_layers(model, params, "l1")
    assert eligible == [i for i, c in enumerate(counts) if c >= c_min]


def test_eligibility_respects_bn_criterion(tiny_model):
    # strip the batchnorm after the last conv; bn eligibility shrinks, l1 does not
    model = clone_graph(tiny_model)
    positions = conv_layer_indices(model)
    del model.layers[positions[-1] + 1]
    params = EmbedParams(segment_length=3, key=b"k")
    assert eligible_layers(model, params, "l1") == [0, 1, 2, 3, 4]
    assert eligible_layers(model, params, "bn") == [0, 1, 2, 3]


def test_roundtrip_random_models_keys_payloads():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        l = int(rng.integers(1, 4))
        params = EmbedParams(segment_length=l, key=bytes(rng.bytes(8)))
        model = random_conv_net(seed=trial + 500,
                                c_lo=min_channels(params), c_hi=96)
        t = len(channel_counts(model))
        m = int(rng.integers(1, t + 1))
        n = int(rng.integers((m - 1) * l + 1, m * l + 1))
        bits = random_bits(rng, n)
        criterion = "bn" if rng.random() < 0.5 else "l1"
        marked, receipt = embed(model, WatermarkPayload(bits, l), params, criterion)
        assert extract(model, marked, params=params, n=n, criterion=criterion).bits == bits
        assert extract(receipt, marked).bits == bits


def test_unmarked_suspect_decodes_to_zero_bits(marked_deep):
    model, _, _, bits, params = marked_deep
    res = extract(model, model, params=params, n=48)
    assert res.bits == "0" * 48
    assert all(s.rate == 0.0 and not s.clamped for s in res.segments)
    assert verify(bits, res).matched is False


def test_wrong_key_scrambles_partial_coverage():
    model = vgg16_style(0)
    rng = np.random.default_rng(3)
    bits = random_bits(rng, 24)  # 8 of 16 layers
    params = EmbedParams(segment_length=3, key=b"right")
    marked, _ = embed(model, WatermarkPayload(bits, 3), params)
    bers = []
    for t in range(200):
        res = extract(model, marked, key=f"wrong-{t}".encode(), params=params, n=24)
        bers.append(verify(bits, res).ber)
    assert 0.35 <= float(np.mean(bers)) <= 0.65


def test_extract_architecture_mismatch(marked_deep):
    model, _, _, _, params = marked_deep
    other = random_conv_net(seed=9, n_convs=9)
    with pytest.raises(ArchitectureMismatchError):
        extract(model, other, params=params, n=48)


def test_receipt_carrier_beyond_suspect(marked_deep):
    _, _, receipt, _, _ = marked_deep
    assert receipt.layers[-1].index >= len(channel_counts(vgg_tiny(0)))
    with pytest.raises(ArchitectureMismatchError):
        extract(receipt, vgg_tiny(0))


def test_extract_needs_params_for_model_path(marked_deep):
    model, marked, *_ = marked_deep
    with pytest.raises(CodecError):
        extract(model, marked)


@pytest.mark.parametrize("given", [{"params": EmbedParams(3, b"owner-key")}, {"n": 48},
                                   {"criterion": "l1_norm"}])
def test_extract_from_a_receipt_refuses_params_and_length(marked_deep, given):
    _, marked, receipt, _, _ = marked_deep
    with pytest.raises(CodecError, match="takes params and the payload length"):
        extract(receipt, marked, **given)


def test_receipt_key_fingerprint_warning(marked_deep):
    _, marked, receipt, bits, _ = marked_deep
    res = extract(receipt, marked, key=b"not-the-key")
    assert res.bits == bits  # receipt pins the selection; key only cross-checked
    assert any("fingerprint" in w for w in res.warnings)


@pytest.fixture(scope="module")
def extraction_cases():
    """Name -> (unmarked host, marked model, extract's source and keywords, error or None).

    Each host bounds the widths of the suspects drawn for its case, and the
    marked model has its conv count.
    """
    host, short = vgg_tiny(0), random_conv_net(0, n_convs=3)
    params = EmbedParams(3, b"k")
    marked, receipt = embed(host, WatermarkPayload("101100111", 3), params)
    assert [e.index for e in receipt.layers] == [0, 2, 3]
    by_key = {"params": params, "n": 9}
    return {
        "receipt": (host, marked, receipt, {}, None),
        "receipt_payload_bits": (host, marked, replace(receipt, payload_bits=20), {},
                                 CodecError),
        "receipt_beyond_suspect": (short, short, receipt, {}, ArchitectureMismatchError),
        "original": (host, marked, host, by_key, None),
        "original_conv_count": (host, marked, random_conv_net(3, n_convs=6), by_key,
                                ArchitectureMismatchError),
        "original_capacity": (host, marked, host, {**by_key, "n": 18}, CapacityError),
    }


def _extract_outcome(source, suspect, kwargs):
    """"ok" when extract succeeds, else the type and message of its error."""
    try:
        extract(source, suspect, **kwargs)
    except NnwmError as e:
        return type(e), str(e)
    return "ok"


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(["receipt", "receipt_payload_bits", "receipt_beyond_suspect",
                             "original", "original_conv_count", "original_capacity"]),
       data=st.data())
def test_extract_outcome_depends_on_the_conv_count_alone(extraction_cases, case, data):
    # so that attack --expect can extract from the model it is about to attack
    host, marked, source, kwargs, error = extraction_cases[case]
    expected = _extract_outcome(source, marked, kwargs)
    assert (expected == "ok") if error is None else (expected[0] is error), expected
    plan = {}
    for pos, c in zip(conv_layer_indices(host), channel_counts(host)):
        w = data.draw(st.integers(1, c), label=f"width of layer {pos}")
        if w < c:
            plan[pos] = list(range(w))
    suspect = apply_prune(host, plan)
    assert _extract_outcome(source, suspect, kwargs) == expected


def test_verify_examples():
    assert verify("1010", "1000").ber == pytest.approx(0.25)
    assert verify("1010", "1000").matched is False
    assert verify("1010", "1010").ber == 0.0
    assert verify("1010", "1010").matched is True
    assert verify("1010", "0101").ber == 1.0
    assert verify("1010", "1000", theta=0.3).matched is True
    with pytest.raises(CodecError):
        verify("101", "10")
    for theta in (float("nan"), float("inf"), -0.1, 1.5):
        with pytest.raises(CodecError):
            verify("1010", "1010", theta=theta)


def test_embed_that_fails_its_self_check_raises_and_leaves_the_host(misselected_carriers):
    host = vgg16_style(0)
    before = raw_arrays(host)
    payload = WatermarkPayload("101110011111", 3)  # segments 5, 6, 3, 7: none decodes as 0
    with pytest.raises(NnwmError, match="^internal error: freshly embedded payload failed"):
        embed(host, payload, EmbedParams(3, b"owner"))
    assert raw_arrays(host) == before


def test_decoy_mode_still_roundtrips():
    model = vgg16_style(0)
    rng = np.random.default_rng(8)
    bits = random_bits(rng, 12)  # 4 segments on 16 layers; 12 decoys
    params = EmbedParams(segment_length=3, key=b"decoy-key")
    marked, receipt = embed(model, WatermarkPayload(bits, 3), params, decoy=True)
    pruned_layers = sum(1 for a, b in zip(channel_counts(model), channel_counts(marked))
                       if b < a)
    assert pruned_layers > 4  # decoys actually pruned something
    assert extract(model, marked, params=params, n=12).bits == bits
    assert extract(receipt, marked).bits == bits


def test_out_of_range_rate_clamps_with_warning(marked_deep):
    model, marked, receipt, bits, params = marked_deep
    # attacker prunes away so much that a carrier rate leaves [p_min, p_max)
    attacked = attack_structural(marked, 0.5, seed=0)
    res = extract(model, attacked, params=params, n=48)
    assert res.warnings
    assert any(s.clamped for s in res.segments)
    assert len(res.bits) == 48  # still produces a full-length estimate


# --- attacks ----------------------------------------------------------------

def test_attack_noise_zero_sigma_is_identity(marked_deep):
    _, marked, *_ = marked_deep
    out = attack_noise(marked, 0.0, seed=1)
    for a, b in zip(marked.layers, out.layers):
        if hasattr(a, "weights"):
            np.testing.assert_array_equal(a.weights, b.weights)


@pytest.mark.parametrize("sigma", [0.1, 10.0])
def test_attack_noise_preserves_watermark(marked_deep, sigma):
    model, marked, receipt, bits, params = marked_deep
    out = attack_noise(marked, sigma, seed=2)
    assert channel_counts(out) == channel_counts(marked)
    assert extract(receipt, out).bits == bits
    assert extract(model, out, params=params, n=48).bits == bits


@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_attack_zero_weights_preserves_watermark(marked_deep, fraction):
    model, marked, receipt, bits, params = marked_deep
    out = attack_zero_weights(marked, fraction)
    assert channel_counts(out) == channel_counts(marked)
    assert extract(receipt, out).bits == bits
    if fraction == 1.0:
        assert not any(ly.weights.any() for ly in out.layers if hasattr(ly, "weights"))


def test_attack_zero_weights_fraction_is_global():
    model = vgg_tiny(0)
    out = attack_zero_weights(model, 0.25)
    total = zeroed = 0
    for ly in out.layers:
        if hasattr(ly, "weights"):
            total += ly.weights.size
            zeroed += int((ly.weights == 0).sum())
    assert zeroed == round(0.25 * total)


SMALL_NET = random_conv_net(0, n_convs=3, c_lo=2, c_hi=6)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_attack_zero_weights_matches_stable_sort(seed, levels, fraction):
    # magnitudes on a small non-zero grid, so most of them tie; a weight is zero
    # after the attack iff the attack zeroed it
    model = clone_graph(SMALL_NET)
    tensors = [ly.weights for ly in model.layers if isinstance(ly, (ConvLayer, LinearLayer))]
    rng = np.random.default_rng(seed)
    for t in tensors:
        t[...] = rng.integers(1, levels + 1, t.shape) * rng.choice([-1.0, 1.0], t.shape)
    magnitudes = np.concatenate([np.abs(t).ravel() for t in tensors])
    k = round_half_up(fraction * magnitudes.size)
    expected = np.zeros(magnitudes.size, dtype=bool)
    expected[np.argsort(magnitudes, kind="stable")[:k]] = True
    out = attack_zero_weights(model, fraction)
    zeroed = np.concatenate([(ly.weights == 0).ravel() for ly in out.layers
                             if isinstance(ly, (ConvLayer, LinearLayer))])
    assert np.array_equal(zeroed, expected)


def zero_weights_reference(model, fraction):
    """attack_zero_weights by a stable argsort: the first k magnitudes become +0.0."""
    out = clone_graph(model)
    tensors = [ly.weights for ly in out.layers if isinstance(ly, (ConvLayer, LinearLayer))]
    magnitudes = np.concatenate([np.abs(t).ravel() for t in tensors])
    k = min(round_half_up(fraction * magnitudes.size), magnitudes.size)
    kill = np.zeros(magnitudes.size, dtype=bool)
    kill[np.argsort(magnitudes, kind="stable")[:k]] = True
    off = 0
    for t in tensors:
        t.reshape(-1)[np.flatnonzero(kill[off:off + t.size])] = 0.0  # a view of the clone
        off += t.size
    return out


# the four largest float32 values, one ulp apart
F32_TOP = (np.array(np.finfo(np.float32).max).view(np.uint32)
           - np.arange(4, dtype=np.uint32)).view(np.float32)


def raw_arrays(model):
    return [(arr.dtype.str, arr.shape, arr.tobytes())
            for ly in model.layers for _, arr in layer_arrays(ly)]


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.0, max_value=1.0), st.sampled_from(["f32", "f64", "mixed"]))
@settings(max_examples=200, deadline=None)
def test_attack_zero_weights_matches_the_reference_bit_for_bit(seed, levels, fraction,
                                                               precision):
    # many ties on a small grid, with -0.0, subnormals of the tensor's own dtype and values
    # near the float32 maximum mixed in; survivors keep their exact bits and zeroed
    # weights become +0.0
    model = to_precision(SMALL_NET, "f64" if precision == "f64" else "f32")
    tensors = [ly for ly in model.layers if isinstance(ly, (ConvLayer, LinearLayer))]
    if precision == "mixed":
        for ly in tensors[::2]:
            ly.weights = ly.weights.astype(np.float64)
    rng = np.random.default_rng(seed)
    for ly in tensors:
        t = ly.weights
        tiny = np.finfo(t.dtype).smallest_subnormal
        grid = rng.integers(1, levels + 1, t.shape) * rng.choice([-1.0, 1.0], t.shape)
        kind = rng.integers(0, 5, t.shape)  # 0, 1: grid; 2: signed zero; 3: subnormal; 4: huge
        t[...] = np.where(kind < 2, grid, 0.0)
        t[kind == 2] = np.copysign(0.0, grid[kind == 2])
        t[kind == 3] = (grid[kind == 3] * tiny).astype(t.dtype)
        t[kind == 4] = np.sign(grid[kind == 4]) * F32_TOP[np.abs(grid[kind == 4]).astype(int) - 1]
    before = raw_arrays(model)
    out = attack_zero_weights(model, fraction)
    assert raw_arrays(out) == raw_arrays(zero_weights_reference(model, fraction))
    assert raw_arrays(model) == before


def arrays(model):
    return [arr for ly in model.layers for _, arr in layer_arrays(ly)]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("attack", [
    lambda m: attack_noise(m, 0.0), lambda m: attack_noise(m, 0.5, seed=1),
    lambda m: attack_zero_weights(m, 0.0), lambda m: attack_zero_weights(m, 0.3)],
    ids=["noise_0", "noise_0.5", "zero_0", "zero_0.3"])
def test_weight_attacks_are_pure_and_keep_dtypes(deep_model, precision, attack):
    model = to_precision(deep_model, precision)
    before = raw_arrays(model)
    out = attack(model)
    assert raw_arrays(model) == before
    ins, outs = arrays(model), arrays(out)
    assert [(a.dtype, a.shape) for a in outs] == [(a.dtype, a.shape) for a in ins]
    assert all(a.flags.owndata for a in outs)
    assert not any(np.may_share_memory(a, b) for a in outs for b in ins)


def test_attack_noise_is_gaussian_at_the_stated_scale():
    rng = np.random.default_rng(5)
    conv = _conv(rng, 256, 512)  # 1.18M values, more than any fixture tensor
    model = ModelGraph([conv, _bn(256), ReluLayer(), GlobalAvgPoolLayer(),
                        _linear(rng, 2, 256)], (512, 4, 4), "wide")
    before = conv.weights.astype(np.float64)
    out = attack_noise(model, 0.5, seed=11)
    z = (out.layers[0].weights - before) / (0.5 * before.std())
    assert abs(z.mean()) < 0.005
    assert abs(z.std() - 1.0) < 0.01
    # two-sided normal tails beyond 1, 2 and 3 standard deviations
    for k, share, tol in [(1, 0.3173, 0.005), (2, 0.0455, 0.002), (3, 0.0027, 0.0003)]:
        assert abs(np.mean(np.abs(z) > k) - share) < tol, k
    assert np.abs(z).max() <= 5.78  # float32 uniforms bound the draw at 5.77
    assert raw_arrays(attack_noise(model, 0.5, seed=11)) == raw_arrays(out)
    assert raw_arrays(attack_noise(model, 0.5, seed=12)) != raw_arrays(out)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_attack_noise_draws_for_each_trainable_tensor_in_turn(precision, sigma):
    # a reference on this host, since tests/test_golden.py leaves the noise bytes out
    model = vgg_tiny(0)
    rng = np.random.default_rng(3)
    for ly in model.layers:  # spread the constant vectors, so a widened walk shows
        for _, arr in layer_arrays(ly):
            if arr.ndim == 1:
                arr[...] = rng.uniform(0.5, 1.5, arr.shape)
    model = to_precision(model, precision)
    rng = np.random.default_rng(3)
    noisy = {}
    for pos, attr, arr in trainable_params(model):
        scale = np.float64(sigma) * arr.std(dtype=np.float64)
        if scale > 0:
            z = _standard_normal(rng, arr.size, arr.dtype) * arr.dtype.type(scale)
            noisy[pos, attr] = arr + z.reshape(arr.shape)
    expected = [(arr.dtype.str, arr.shape, noisy.get((pos, attr), arr).tobytes())
                for pos, ly in enumerate(model.layers) for attr, arr in layer_arrays(ly)]
    assert len(noisy) == (0 if sigma == 0 else 17)
    assert raw_arrays(attack_noise(model, sigma, seed=3)) == expected


def test_attack_finetune_preserves_watermark():
    model = vgg_tiny(0)
    rng = np.random.default_rng(1)
    bits = random_bits(rng, 15)
    params = EmbedParams(segment_length=3, key=b"ft")
    marked, receipt = embed(model, WatermarkPayload(bits, 3), params)
    train, _ = synth_dataset(5, 96, 32)
    tuned = finetune(marked, train, TrainConfig(epochs=2, lr=0.001, seed=0))
    assert channel_counts(tuned) == channel_counts(marked)
    assert extract(receipt, tuned).bits == bits
    # parameters did move
    assert not np.array_equal(tuned.layers[0].weights, marked.layers[0].weights)


def test_attack_finetune_loss_trend():
    # fine-tuning should make progress on the easy synthetic task
    deltas = []
    for seed in range(3):
        model = vgg_tiny(seed)
        train, _ = synth_dataset(40 + seed, 128, 32)
        losses = []
        finetune(model, train, TrainConfig(epochs=5, lr=0.01, seed=seed),
                 lambda epoch, tuned, loss: losses.append(loss))
        deltas.append(losses[0] - losses[-1])
    assert sorted(deltas)[len(deltas) // 2] >= 0  # median seed improved


def test_attack_structural_zero_rate_identity(marked_deep):
    _, marked, receipt, bits, _ = marked_deep
    out = attack_structural(marked, 0.0, seed=0)
    assert channel_counts(out) == channel_counts(marked)
    assert extract(receipt, out).bits == bits


def test_attack_structural_degrades_ber(marked_deep):
    model, marked, receipt, bits, params = marked_deep
    bers = []
    for seed in range(10):
        out = attack_structural(marked, 0.10, seed=seed)
        bers.append(verify(bits, extract(receipt, out)).ber)
    assert float(np.mean(bers)) > 0.0  # a 10% re-prune flips segments (delta = 0.0875)
    deep = attack_structural(marked, 0.5, seed=0)
    assert verify(bits, extract(receipt, deep)).ber > 0.2


def test_attacks_are_deterministic_given_seed(marked_deep):
    _, marked, *_ = marked_deep
    a = attack_noise(marked, 0.5, seed=9)
    b = attack_noise(marked, 0.5, seed=9)
    for la, lb in zip(a.layers, b.layers):
        if hasattr(la, "weights"):
            np.testing.assert_array_equal(la.weights, lb.weights)
    s1 = attack_structural(marked, 0.2, seed=4)
    s2 = attack_structural(marked, 0.2, seed=4)
    assert channel_counts(s1) == channel_counts(s2)
    # the rate alone fixes the counts, so the watermark reads the same for every seed
    assert channel_counts(attack_structural(marked, 0.2, seed=5)) == channel_counts(s1)
