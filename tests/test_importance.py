"""Importance scoring tests: examples, equivariances, criterion errors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nnwm.errors import CriterionError
from nnwm.importance import (
    CRITERION_BN,
    CRITERION_L1,
    criterion_applicable,
    normalize_criterion,
    score,
)
from nnwm.model_store import (
    BatchNormLayer,
    ConvLayer,
    ModelGraph,
    ReluLayer,
)


def conv_model(weights, follow_bn=None):
    layers = [ConvLayer(np.asarray(weights, dtype=np.float32))]
    if follow_bn is not None:
        c = layers[0].c_out
        layers.append(BatchNormLayer(
            np.asarray(follow_bn, dtype=np.float32),
            np.zeros(c, dtype=np.float32), np.zeros(c, dtype=np.float32),
            np.ones(c, dtype=np.float32)))
    return ModelGraph(layers, (layers[0].c_in, 4, 4))


def test_bn_gamma_absolute_value():
    m = conv_model(np.ones((4, 1, 1, 1)), follow_bn=[0.5, -0.2, 0.0, 1.3])
    np.testing.assert_allclose(score(m, 0, "bn"), [0.5, 0.2, 0.0, 1.3], atol=1e-7)


def test_bn_gamma_all_equal_is_pure_tie():
    m = conv_model(np.random.default_rng(0).normal(size=(5, 2, 3, 3)),
                   follow_bn=[0.7] * 5)
    scores = score(m, 0, "bn")
    assert np.all(scores == scores[0])


def test_bn_gamma_requires_following_bn():
    m = ModelGraph([ConvLayer(np.ones((3, 1, 1, 1), dtype=np.float32)), ReluLayer()],
                   (1, 2, 2))
    with pytest.raises(CriterionError):
        score(m, 0, "bn")
    assert not criterion_applicable(m, 0, "bn")
    assert criterion_applicable(m, 0, "l1")


def test_l1_sums_absolute_filter_weights():
    w = np.zeros((2, 1, 2, 2))
    w[0, 0] = [[1, -2], [3, -4]]
    w[1, 0] = [[0, 0], [0, 0.5]]
    np.testing.assert_allclose(score(conv_model(w), 0, "l1"), [10.0, 0.5], atol=1e-7)


def test_l1_zero_filter_scores_zero():
    w = np.zeros((3, 2, 2, 2))
    w[0] = 1.0
    scores = score(conv_model(w), 0, "l1")
    assert scores[1] == 0.0 and scores[2] == 0.0


def test_l1_ignores_bias():
    w = np.ones((2, 1, 2, 2), dtype=np.float32)
    m = conv_model(w)
    m.layers[0].bias = np.array([100.0, -100.0], dtype=np.float32)
    np.testing.assert_allclose(score(m, 0, "l1"), [4.0, 4.0])


@given(st.integers(min_value=0, max_value=10_000))
def test_l1_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(6, 3, 2, 2))
    perm = rng.permutation(6)
    base = score(conv_model(w), 0, "l1")
    permuted = score(conv_model(w[perm]), 0, "l1")
    # brute force: permuting filters permutes the scores identically
    np.testing.assert_allclose(permuted, base[perm], rtol=1e-6)


@given(st.integers(min_value=0, max_value=10_000))
def test_l1_sign_flip_invariant(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(4, 2, 3, 3))
    flips = rng.choice([-1.0, 1.0], size=w.shape)
    np.testing.assert_allclose(score(conv_model(w * flips), 0, "l1"),
                               score(conv_model(w), 0, "l1"), rtol=1e-6)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_scale_homogeneous_and_rank_preserving(lam):
    rng = np.random.default_rng(7)
    w = rng.normal(size=(5, 2, 2, 2))
    gamma = rng.normal(size=5)
    base_l1 = score(conv_model(w), 0, "l1")
    scaled_l1 = score(conv_model(w * lam), 0, "l1")
    np.testing.assert_allclose(scaled_l1, lam * base_l1, rtol=1e-5)
    base_bn = score(conv_model(w, follow_bn=gamma), 0, "bn")
    scaled_bn = score(conv_model(w, follow_bn=gamma * lam), 0, "bn")
    np.testing.assert_allclose(scaled_bn, lam * base_bn, rtol=1e-5)
    assert list(np.argsort(scaled_l1)) == list(np.argsort(base_l1))
    assert list(np.argsort(scaled_bn)) == list(np.argsort(base_bn))


def test_bn_score_depends_on_gamma_only():
    rng = np.random.default_rng(3)
    gamma = rng.normal(size=4)
    m1 = conv_model(rng.normal(size=(4, 2, 3, 3)), follow_bn=gamma)
    m2 = conv_model(rng.normal(size=(4, 2, 3, 3)), follow_bn=gamma)
    bn2 = m2.layers[1]
    bn2.beta = rng.normal(size=4).astype(np.float32)
    bn2.running_mean = rng.normal(size=4).astype(np.float32)
    bn2.running_var = np.abs(rng.normal(size=4)).astype(np.float32)
    np.testing.assert_allclose(score(m1, 0, "bn"),
                               score(m2, 0, "bn"), atol=1e-7)


def test_score_dispatch_and_aliases(tiny_model):
    assert normalize_criterion("L1") == CRITERION_L1
    assert normalize_criterion("bn") == CRITERION_BN
    with pytest.raises(CriterionError):
        normalize_criterion("taylor")
    conv, bn = tiny_model.layers[0], tiny_model.layers[1]
    np.testing.assert_array_equal(score(tiny_model, 0, "l1"),
                                  np.abs(conv.weights).sum(axis=(1, 2, 3)))
    np.testing.assert_array_equal(score(tiny_model, 0, "bn"), np.abs(bn.gamma))


def test_scores_non_negative_on_fixture(tiny_model):
    from nnwm.model_store import conv_layer_indices
    for pos in conv_layer_indices(tiny_model):
        for crit in ("l1", "bn"):
            scores = score(tiny_model, pos, crit)
            assert scores.shape == (tiny_model.layers[pos].c_out,)
            assert np.all(scores >= 0) and np.all(np.isfinite(scores))


def test_bad_position_raises():
    m = conv_model(np.ones((2, 1, 1, 1)), follow_bn=[1.0, 1.0])
    for pos in (5, -1, 1):  # 1 is the batchnorm, not a conv
        for crit in ("l1", "bn"):
            assert not criterion_applicable(m, pos, crit)
            with pytest.raises(CriterionError):
                score(m, pos, crit)
