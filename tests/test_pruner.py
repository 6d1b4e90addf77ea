"""Pruner tests: planning, graph surgery, receipts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nnwm import importance
from nnwm.errors import PlanError
from nnwm.fixtures import random_conv_net, vgg16_style, vgg_tiny
from nnwm.model_store import (
    BatchNormLayer,
    ConvLayer,
    ModelGraph,
    channel_counts,
    conv_layer_indices,
    layer_arrays,
    validate,
)
from nnwm.pipeline import embed
from nnwm.pruner import (
    Receipt,
    ReceiptLayer,
    apply_prune,
    load_receipt,
    plan_layer,
    save_receipt,
)
from nnwm.toy_trainer import forward
from nnwm.wm_codec import EmbedParams, WatermarkPayload


def scored_model(scores):
    """Conv layer whose l1 scores equal `scores` (one positive weight each)."""
    c = len(scores)
    w = np.zeros((c, 1, 1, 1), dtype=np.float32)
    w[:, 0, 0, 0] = scores
    return ModelGraph([ConvLayer(w)], (1, 2, 2))


def test_plan_layer_drops_smallest_scores():
    m = scored_model([0.9, 0.1, 0.5, 0.7])
    assert plan_layer(m, 0, 2, "l1") == [0, 3]
    assert plan_layer(m, 0, 0, "l1") == [0, 1, 2, 3]


def test_plan_layer_tie_drops_highest_index():
    m = scored_model([0.5] * 6)
    assert plan_layer(m, 0, 1, "l1") == [0, 1, 2, 3, 4]
    assert plan_layer(m, 0, 3, "l1") == [0, 1, 2]


def test_plan_layer_k_out_of_range():
    m = scored_model([1.0, 2.0])
    with pytest.raises(PlanError):
        plan_layer(m, 0, 2, "l1")
    with pytest.raises(PlanError):
        plan_layer(m, 0, -1, "l1")


@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=2,
                max_size=24),
       st.data())
def test_plan_layer_nesting(scores, data):
    m = scored_model(scores)
    k = data.draw(st.integers(min_value=0, max_value=len(scores) - 2))
    larger = set(plan_layer(m, 0, k, "l1"))
    smaller = set(plan_layer(m, 0, k + 1, "l1"))
    assert smaller <= larger


@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False)
                | st.integers(min_value=0, max_value=3).map(float), min_size=1, max_size=40),
       st.data())
def test_plan_layer_matches_the_sorted_reference(scores, data):
    # drop the k smallest scores, ties by the higher index; the grid draws make ties common
    m = scored_model(scores)
    k = data.draw(st.integers(min_value=0, max_value=len(scores) - 1))
    s = importance.score(m, 0, "l1")
    drop_order = sorted(range(len(s)), key=lambda i: (s[i], -i))
    assert plan_layer(m, 0, k, "l1") == sorted(drop_order[k:])


def test_apply_prune_k0_is_identity(tiny_model):
    positions = conv_layer_indices(tiny_model)
    plan = {pos: list(range(tiny_model.layers[pos].c_out)) for pos in positions}
    out = apply_prune(tiny_model, plan)
    for a, b in zip(tiny_model.layers, out.layers):
        if isinstance(a, ConvLayer):
            assert a.weights.tobytes() == b.weights.tobytes()


def test_apply_prune_rewires_counts_and_next_conv(tiny_model):
    positions = conv_layer_indices(tiny_model)
    pos = positions[2]  # third conv, 64 channels
    out = apply_prune(tiny_model, {pos: plan_layer(tiny_model, pos, 3, "l1")})
    assert channel_counts(out) == [32, 32, 61, 64, 64]
    next_conv = out.layers[positions[3]]
    assert next_conv.c_in == 61
    bn = out.layers[pos + 1]
    assert isinstance(bn, BatchNormLayer) and bn.channels == 61
    validate(out)


def test_apply_prune_slices_linear_after_gap(tiny_model):
    positions = conv_layer_indices(tiny_model)
    pos = positions[-1]  # last conv feeds GAP then linear
    retained = plan_layer(tiny_model, pos, 10, "l1")
    out = apply_prune(tiny_model, {pos: retained})
    linear = out.layers[-1]
    assert linear.in_features == 54
    np.testing.assert_array_equal(
        linear.weights, tiny_model.layers[-1].weights[:, retained])
    validate(out)


def test_apply_prune_slices_flattened_linear_columns():
    # conv straight into a linear head: each channel owns an h*w block
    rng = np.random.default_rng(5)
    conv = ConvLayer(rng.normal(size=(4, 1, 1, 1)).astype(np.float32))
    linear_w = rng.normal(size=(3, 4 * 2 * 2)).astype(np.float32)
    from nnwm.model_store import LinearLayer
    model = ModelGraph([conv, LinearLayer(linear_w.copy())], (1, 2, 2))
    validate(model)
    retained = [0, 2, 3]
    out = apply_prune(model, {0: retained})
    cols = [c for ch in retained for c in range(ch * 4, ch * 4 + 4)]
    np.testing.assert_array_equal(out.layers[1].weights, linear_w[:, cols])
    validate(out)


def all_arrays(model: ModelGraph) -> list[tuple[int, str, np.ndarray]]:
    return [(pos, attr, arr) for pos, ly in enumerate(model.layers)
            for attr, arr in layer_arrays(ly)]


@pytest.mark.parametrize("plan", ["empty", "carriers", "decoy"])
def test_apply_prune_output_aliases_nothing(plan):
    model = vgg16_style(0)
    before = [arr.tobytes() for _, _, arr in all_arrays(model)]
    if plan == "empty":
        out = apply_prune(model, {})
    else:  # 2 carriers leave 14 convs untouched; decoys prune the other 14 too
        out, _ = embed(model, WatermarkPayload("110011", 3), EmbedParams(3, b"owner"),
                       decoy=plan == "decoy")
    untouched = sum(a == b for a, b in zip(channel_counts(model), channel_counts(out)))
    assert untouched == {"empty": 16, "carriers": 14, "decoy": 0}[plan]
    inputs = [arr for _, _, arr in all_arrays(model)]
    for pos, attr, arr in all_arrays(out):
        assert arr.flags.owndata and arr.flags.writeable, (pos, attr)
        assert not any(np.shares_memory(arr, src) for src in inputs), (pos, attr)
        arr[...] = 7.0
    assert [arr.tobytes() for arr in inputs] == before


def test_apply_prune_rejects_bad_plans(tiny_model):
    c0 = tiny_model.layers[0].c_out
    with pytest.raises(PlanError):
        apply_prune(tiny_model, {1: list(range(c0 - 1))})  # not a conv
    for retained in [[], list(range(1, c0))[::-1], [0, 1, 1, 2], [0, c0], [-1, 0]]:
        with pytest.raises(PlanError):  # empty, not increasing, repeated, out of range
            apply_prune(tiny_model, {0: retained})


def test_functional_equivalence_when_pruned_channels_are_silenced(tiny_model):
    # silence 7 channels of conv ordinal 1 and 9 of the last conv:
    # with gamma = beta = 0 their post-bn output is exactly zero, so removing
    # them cannot change the network function
    model = vgg_tiny(0)
    positions = conv_layer_indices(model)
    silenced = {positions[1]: list(range(3, 10)), positions[4]: list(range(50, 59))}
    plan = {}
    for pos, dead in silenced.items():
        bn = model.layers[pos + 1]
        bn.gamma[dead] = 0.0
        bn.beta[dead] = 0.0
        plan[pos] = [i for i in range(model.layers[pos].c_out) if i not in set(dead)]
    pruned = apply_prune(model, plan)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(100, 1, 16, 16)).astype(np.float32)
    out_full, _ = forward(model, x, mode="eval")
    out_pruned, _ = forward(pruned, x, mode="eval")
    assert np.max(np.abs(out_full - out_pruned)) <= 1e-5


def test_plan_layer_selects_silenced_channels_first(tiny_model):
    pos = conv_layer_indices(tiny_model)[0]
    bn = tiny_model.layers[pos + 1]
    bn.gamma[[4, 9, 17]] = 0.0
    retained = plan_layer(tiny_model, pos, 3, "bn")
    assert set(range(32)) - set(retained) == {4, 9, 17}


def test_apply_prune_fuzz_random_models_and_plans():
    rng = np.random.default_rng(99)
    for trial in range(25):
        model = random_conv_net(seed=trial, c_lo=4, c_hi=24)
        positions = conv_layer_indices(model)
        counts = channel_counts(model)
        chosen = rng.choice(len(positions), size=rng.integers(1, len(positions) + 1),
                            replace=False)
        plan = {}
        expect = list(counts)
        for ordinal in chosen:
            c = counts[ordinal]
            k = int(rng.integers(0, c))
            plan[positions[ordinal]] = plan_layer(model, positions[ordinal], k,
                                                  "bn" if rng.random() < 0.5 else "l1")
            expect[ordinal] = c - k
        out = apply_prune(model, plan)
        validate(out)
        assert channel_counts(out) == expect


def test_receipt_roundtrip(tmp_path):
    receipt = Receipt(
        segment_length=3, p_min=0.0, p_max=0.7, criterion="l1_norm",
        layers=(ReceiptLayer(0, 64, 33, 0.48125, 31 / 64),),
        payload_bits=3, key_fingerprint="ab" * 32)
    path = tmp_path / "r.json"
    save_receipt(receipt, path)
    again = load_receipt(path)
    assert again == receipt
    doc = path.read_text()
    assert '"format": "nnwm-receipt-v1"' in doc


def test_receipt_rejects_inconsistent_rates(tmp_path):
    receipt = Receipt(
        segment_length=3, p_min=0.0, p_max=0.7, criterion="l1_norm",
        layers=(ReceiptLayer(0, 64, 33, 0.48125, 0.9),),
        payload_bits=3, key_fingerprint="ab" * 32)
    path = tmp_path / "r.json"
    save_receipt(receipt, path)
    with pytest.raises(PlanError):
        load_receipt(path)
