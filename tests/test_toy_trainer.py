"""Trainer tests: forward values, gradient oracles, SGD, synthetic data."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from _params import trainable_params

from nnwm.errors import ShapeConsistencyError, TrainConfigError
from nnwm.fixtures import vgg16_style, vgg_tiny
from nnwm.model_store import (
    BatchNormLayer,
    ConvLayer,
    GlobalAvgPoolLayer,
    LinearLayer,
    MaxPoolLayer,
    ModelGraph,
    channel_counts,
    layer_input_shapes,
)
from nnwm.toy_trainer import (
    BATCH_SIZE,
    WEIGHT_DECAY,
    Batch,
    KERNELS,
    TrainConfig,
    _bn_backward,
    _bn_forward,
    _channel_rows,
    _conv_backward,
    _conv_forward,
    _maxpool_backward,
    _maxpool_forward,
    backward,
    evaluate,
    finetune,
    forward,
    loss_softmax_ce,
    sgd_step,
    synth_dataset,
    to_precision,
)


def test_conv_forward_hand_value():
    # 2x2 all-ones input, single 2x2 all-ones filter, no padding -> 4.0
    model = ModelGraph([ConvLayer(np.ones((1, 1, 2, 2), dtype=np.float32))], (1, 2, 2))
    out, _ = forward(model, np.ones((1, 1, 2, 2)), mode="eval")
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == pytest.approx(4.0)


def naive_conv(x, w, b, stride, padding):
    """Direct-loop reference convolution (cross-correlation, as in the trainer)."""
    (sy, sx), (py, px) = stride, padding
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.zeros((n, x.shape[1], h + 2 * py, wd + 2 * px))
    xp[:, :, py:py + h, px:px + wd] = x
    ho, wo = (h + 2 * py - kh) // sy + 1, (wd + 2 * px - kw) // sx + 1
    out = np.zeros((n, co, ho, wo))
    for a in range(n):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[a, :, i * sy:i * sy + kh, j * sx:j * sx + kw]
                    out[a, o, i, j] = np.sum(patch * w[o]) + b[o]
    return out


@pytest.mark.parametrize("kernel,stride,padding", [((3, 3), (2, 2), (1, 0)),
                                                   ((3, 2), (2, 1), (0, 2)),
                                                   ((3, 3), (1, 1), (1, 1)),
                                                   ((1, 1), (2, 1), (1, 1))])
def test_conv_kernels_vs_naive_reference(kernel, stride, padding):
    rng = np.random.default_rng(17)
    w = rng.normal(size=(4, 3, *kernel))
    b = rng.normal(size=4)
    ly = ConvLayer(w, b, stride, padding)
    x = rng.normal(size=(5, 3, 9, 11))
    ref = naive_conv(x, w, b, stride, padding)
    # inside the net a conv's input is an NCHW view of channel-major memory
    channel_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    for xin in (x, channel_major):
        out, ctx = _conv_forward(ly, xin, "eval")
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        # adjoint identities of the linear maps x -> conv(x) and W -> conv(x)
        dout = rng.normal(size=out.shape)
        dx, dw, db = _conv_backward(ly, ctx, dout)
        assert dx.shape == x.shape and dw.shape == w.shape
        lin = float(np.vdot(dout, out - b.reshape(1, -1, 1, 1)))
        assert float(np.vdot(dx, x)) == pytest.approx(lin, rel=1e-12)
        assert float(np.vdot(dw, w)) == pytest.approx(lin, rel=1e-12)
        np.testing.assert_allclose(db, dout.sum(axis=(0, 2, 3)), rtol=1e-12)


def one_gemm_conv_dx(ly, ctx, dout):
    """Input gradient with the whole (Ci*kh*kw, N*Hp*Wp) patch gradient from one
    product, then the kh*kw shifted adds in (i, j) order."""
    cols, (hp, wp), in_shape = ctx
    (sy, sx), (py, px) = ly.stride, ly.padding
    co, ci, kh, kw = ly.weights.shape
    n, _, ho, wo = dout.shape
    grid = np.zeros((co, n, hp, wp), dtype=dout.dtype)
    grid[:, :, :sy * ho:sy, :sx * wo:sx] = dout.transpose(1, 0, 2, 3)
    size = n * hp * wp
    dcols = (ly.weights.reshape(co, -1).T @ grid.reshape(co, size)).reshape(ci, kh, kw, size)
    dxp = np.zeros((ci, size + (kh - 1) * wp + kw - 1), dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i * wp + j:i * wp + j + size] += dcols[:, i, j]
    dx = dxp[:, :size].reshape(ci, n, hp, wp).transpose(1, 0, 2, 3)
    return dx[:, :, py:py + in_shape[2], px:px + in_shape[3]]


def fixture_conv_cases():
    """(conv layer, input shape) for each distinct conv of the fixture models."""
    cases = {}
    for model in (vgg_tiny(0), vgg16_style(0)):
        for pos, (ly, shape) in enumerate(zip(model.layers, layer_input_shapes(model))):
            if isinstance(ly, ConvLayer):
                key = (ly.weights.shape, ly.stride, ly.padding, shape)
                cases.setdefault(key, pytest.param(ly, shape[1:], id=f"{model.name}-{pos}"))
    return list(cases.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("conv,in_shape", fixture_conv_cases())
def test_conv_backward_by_kernel_row_matches_one_gemm(conv, in_shape, dtype):
    rng = np.random.default_rng(29)
    ly = replace(conv, weights=conv.weights.astype(dtype))
    x = rng.normal(size=(BATCH_SIZE, *in_shape)).astype(dtype)
    out, ctx = _conv_forward(ly, x, "train")
    dout = rng.normal(size=out.shape).astype(dtype)
    dx = _conv_backward(ly, ctx, dout)[0]
    ref = one_gemm_conv_dx(ly, ctx, dout)
    assert dx.dtype == ref.dtype and dx.shape == ref.shape
    assert dx.tobytes() == ref.tobytes()


def naive_maxpool(x, dout, k, s):
    """Loop reference: window max, and each window's gradient added at the
    first position (row-major) holding it, as argmax picks it."""
    n, c, h, w = x.shape
    ho, wo = (h - k) // s + 1, (w - k) // s + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    dx = np.zeros_like(x)
    for a in range(n):
        for o in range(c):
            for i in range(ho):
                for j in range(wo):
                    win = x[a, o, i * s:i * s + k, j * s:j * s + k]
                    first = int(np.argmax(win))
                    out[a, o, i, j] = win.max()
                    dx[a, o, i * s + first // k, j * s + first % k] += dout[a, o, i, j]
    return out, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (2, 3), (1, 1)])
def test_maxpool_kernels_vs_naive_reference(k, s, dtype):
    rng = np.random.default_rng(23)
    # few distinct values, so most windows hold ties; relu makes all-zero windows
    x = np.maximum(rng.integers(-2, 3, size=(3, 4, 8, 9)), 0).astype(dtype)
    x[:, :, :k, :k] = 0
    ly = MaxPoolLayer(k, s)
    channel_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    for xin in (x, channel_major):
        out, ctx = _maxpool_forward(ly, xin, "train")
        # integer gradients add up exactly in any order, so routing is compared bit for bit
        dout = rng.integers(-8, 9, size=out.shape).astype(dtype)
        ref_out, ref_dx = naive_maxpool(x, dout, k, s)
        np.testing.assert_array_equal(out, ref_out)
        (dx,) = _maxpool_backward(ly, ctx, dout)
        assert dx.shape == x.shape and dx.dtype == dtype
        np.testing.assert_array_equal(dx, ref_dx)
        # an all-zero window sends its whole gradient to its first position
        np.testing.assert_array_equal(dx[:, :, 0, 0], dout[:, :, 0, 0])
        if k <= s:  # no other window covers the rest of the first one
            rest = dx[:, :, :k, :k].reshape(3, 4, -1)[:, :, 1:]
            assert not rest.any()


def bn_only_model(gamma, beta, mean, var, eps=1e-5, channels=1):
    conv = ConvLayer(np.ones((channels, channels, 1, 1), dtype=np.float32) *
                     np.eye(channels, dtype=np.float32).reshape(channels, channels, 1, 1))
    bn = BatchNormLayer(np.full(channels, gamma, dtype=np.float32),
                        np.full(channels, beta, dtype=np.float32),
                        np.full(channels, mean, dtype=np.float32),
                        np.full(channels, var, dtype=np.float32), eps)
    return ModelGraph([conv, bn], (channels, 1, 1))


def test_bn_eval_identity_case():
    model = bn_only_model(gamma=1.0, beta=0.0, mean=0.0, var=1.0 - 1e-5)
    x = np.linspace(-2, 2, 8).reshape(8, 1, 1, 1)
    out, _ = forward(model, x, mode="eval")
    np.testing.assert_allclose(out, x, atol=1e-6)


def test_bn_eval_hand_value():
    # z_in = 2, mu = 0, var = 1, eps = 1e-5, gamma = 3, beta = 1 -> ~6.99997
    model = bn_only_model(gamma=3.0, beta=1.0, mean=0.0, var=1.0)
    out, _ = forward(model, np.full((1, 1, 1, 1), 2.0), mode="eval")
    assert out[0, 0, 0, 0] == pytest.approx(6.99997, abs=1e-4)


def channel_major(x):
    """x as an (N, C, H, W) view of (C, N, H, W) memory, as a conv returns its output."""
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def textbook_bn(x, dout, gamma, beta, eps):
    """Float64 train-mode batchnorm: np.mean/np.var over (0, 2, 3), then the
    backward pass with the two sums s1 = sum(dxhat) and s2 = sum(dxhat * xhat)."""
    x, dout = x.astype(np.float64), dout.astype(np.float64)
    g = gamma.astype(np.float64).reshape(1, -1, 1, 1)
    n = x.size // x.shape[1]
    mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(1, -1, 1, 1)
    xhat = (x - mu.reshape(1, -1, 1, 1)) * inv_std
    out = xhat * g + beta.astype(np.float64).reshape(1, -1, 1, 1)
    dxhat = dout * g
    s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    dx = (inv_std / n) * (n * dxhat - s1 - xhat * s2)
    return (out, xhat, mu, var * n / (n - 1), dx,
            (dout * xhat).sum(axis=(0, 2, 3)), dout.sum(axis=(0, 2, 3)))


def bn_case(dtype, seed=31, shape=(8, 6, 5, 7)):
    """A batchnorm layer with random parameters and a map and gradient for it;
    channels differ in mean and scale."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    ly = BatchNormLayer(*(a.astype(dtype) for a in (
        rng.normal(size=c), rng.normal(size=c), rng.normal(size=c), rng.uniform(0.5, 2, c))))
    x = rng.normal(size=shape) * rng.uniform(0.5, 3, (1, c, 1, 1)) + rng.normal(size=(1, c, 1, 1))
    return ly, x.astype(dtype), rng.normal(size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bn_train_kernels_match_textbook_reference(dtype):
    ly, x, dout = bn_case(dtype)
    ref_out, ref_xhat, mu, var_unbiased, ref_dx, ref_dgamma, ref_dbeta = textbook_bn(
        x, dout, ly.gamma, ly.beta, ly.eps)
    running = [ly.running_mean.astype(np.float64), ly.running_var.astype(np.float64)]
    out, ctx = _bn_forward(ly, channel_major(x), "train")
    dx, dgamma, dbeta = _bn_backward(ly, ctx, channel_major(dout))
    tol = {"rtol": 1e-4, "atol": 1e-5} if dtype == np.float32 else {"rtol": 1e-10, "atol": 1e-12}
    for got, want in [(out, ref_out), (ctx[0], _channel_rows(ref_xhat)), (dx, ref_dx),
                      (dgamma, ref_dgamma), (dbeta, ref_dbeta),
                      (ly.running_mean, 0.9 * running[0] + 0.1 * mu),
                      (ly.running_var, 0.9 * running[1] + 0.1 * var_unbiased)]:
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, **tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bn_train_kernels_give_the_same_bytes_for_either_memory_order(dtype):
    results = []
    for layout in (np.ascontiguousarray, channel_major):
        ly, x, dout = bn_case(dtype)
        out, ctx = _bn_forward(ly, layout(x), "train")
        grads = _bn_backward(ly, ctx, layout(dout))
        results.append([a.tobytes() for a in (out, *grads, ly.running_mean, ly.running_var)])
    assert results[0] == results[1]


def test_bn_rows_share_memory_with_a_channel_major_map():
    ly, x, dout = bn_case(np.float32)
    x, nchw = channel_major(x), x
    assert np.shares_memory(_channel_rows(x), x)
    assert not np.shares_memory(_channel_rows(nchw), nchw)
    out, ctx = _bn_forward(ly, x, "train")
    (dx, *_) = _bn_backward(ly, ctx, channel_major(dout))
    for m in (out, dx):  # both come back channel-major
        assert np.shares_memory(_channel_rows(m), m)


def test_every_map_gradient_reaches_bn_and_conv_backward_as_channel_rows(tiny_model,
                                                                         monkeypatch):
    seen = []
    for cls in (BatchNormLayer, ConvLayer):
        fwd, bwd = KERNELS[cls]

        def recording(ly, ctx, dout, bwd=bwd):
            seen.append((type(ly).__name__, np.shares_memory(_channel_rows(dout), dout)))
            return bwd(ly, ctx, dout)

        monkeypatch.setitem(KERNELS, cls, (fwd, recording))
    x = np.random.default_rng(0).normal(size=(4, 1, 16, 16)).astype(np.float32)
    gradients(tiny_model, x, np.array([0, 1, 0, 1]))
    assert len(seen) == 10 and all(view for _, view in seen), seen


def test_bn_non_finite_batch_statistic_is_train_config_error():
    # the per-channel sum of 3e38s overflows float32; a BLAS product need not
    # report that to np.errstate, so the forward pass checks the statistics itself
    ly = BatchNormLayer(*(np.full(2, v, dtype=np.float32) for v in (1, 0, 0, 1)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainConfigError, match="non-finite batchnorm statistic"):
        _bn_forward(ly, np.full((4, 2, 3, 3), 3e38, dtype=np.float32), "train")


def test_finetune_with_overflowing_batch_statistics_is_train_config_error():
    model = bn_only_model(gamma=1.0, beta=0.0, mean=0.0, var=1.0)
    model = ModelGraph([*model.layers, GlobalAvgPoolLayer(),
                        LinearLayer(np.ones((2, 1), dtype=np.float32), None)], (1, 1, 1))
    train = Batch(np.full((8, 1, 1, 1), 3e38, dtype=np.float32), np.arange(8) % 2)
    with pytest.raises(TrainConfigError, match="training diverged"):
        finetune(model, train, TrainConfig(epochs=1))


def test_loss_examples():
    assert loss_softmax_ce(np.array([[0.0, 0.0]]), np.array([0]))[0] == pytest.approx(
        math.log(2), abs=1e-12)
    assert loss_softmax_ce(np.array([[100.0, 0.0]]), np.array([0]))[0] == pytest.approx(
        0.0, abs=1e-12)
    logits = np.array([[0.3, -1.2, 2.0], [0.0, 0.5, -0.5]])
    labels = np.array([2, 1])
    perm = np.array([2, 0, 1])
    permuted = logits[:, perm]
    relabeled = np.array([np.where(perm == y)[0][0] for y in labels])
    assert loss_softmax_ce(permuted, relabeled)[0] == pytest.approx(
        loss_softmax_ce(logits, labels)[0], abs=1e-12)
    for bad in (np.array([2, 0]), np.array([-1, 0]), np.array([1]), np.array([0, 1, 1])):
        with pytest.raises(ValueError, match="one class index"):
            loss_softmax_ce(np.zeros((2, 2)), bad)


def gradients(model, x, y):
    """One train-mode forward, the loss gradient and the backward pass."""
    logits, contexts = forward(model, x, mode="train")
    return backward(model, contexts, loss_softmax_ce(logits, y)[1])


def test_zero_loss_configuration_gives_zero_gradients():
    # huge margin drives softmax to exactly one-hot in float
    model = ModelGraph([LinearLayer(np.zeros((2, 4)), np.array([1000.0, 0.0]))],
                       (4, 1, 1))
    x = np.ones((3, 4, 1, 1))
    y = np.zeros(3, dtype=np.int64)
    assert loss_softmax_ce(forward(model, x, mode="train")[0], y)[0] == 0.0
    grads = gradients(model, x, y)
    assert all(not g.any() for g in grads.values())


def test_linear_gradient_matches_closed_form():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=3)
    model = ModelGraph([LinearLayer(w.copy(), b.copy())], (5, 1, 1))
    x = rng.normal(size=(8, 5, 1, 1))
    y = rng.integers(0, 3, size=8)
    grads = gradients(model, x, y)
    logits, _ = forward(model, x, mode="train")
    # closed form: d logits = (softmax - onehot)/N, dW = dlogits^T x, db = sum
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[np.arange(8), y] -= 1
    p /= 8
    xflat = x.reshape(8, 5)
    np.testing.assert_allclose(grads[(0, "weights")], p.T @ xflat, rtol=1e-10)
    np.testing.assert_allclose(grads[(0, "bias")], p.sum(axis=0), rtol=1e-10)


def central_difference(model, x, y, pos, name, index, h=1e-5):
    arr = getattr(model.layers[pos], name).ravel()
    orig = arr[index]
    arr[index] = orig + h
    lp = loss_softmax_ce(forward(model, x, mode="train")[0], y)[0]
    arr[index] = orig - h
    lm = loss_softmax_ce(forward(model, x, mode="train")[0], y)[0]
    arr[index] = orig
    return (lp - lm) / (2 * h)


def test_full_model_gradients_vs_finite_differences():
    model = to_precision(vgg_tiny(1), "f64")
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 1, 16, 16))
    y = rng.integers(0, 2, size=4)
    grads = gradients(model, x, y)
    checked = 0
    for pos, name, arr in trainable_params(model):
        for _ in range(2):
            i = int(rng.integers(0, arr.size))
            fd = central_difference(model, x, y, pos, name, i)
            an = grads[(pos, name)].ravel()[i]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            assert rel < 1e-4, f"layer {pos} {name}[{i}]: analytic {an}, fd {fd}"
            checked += 1
    assert checked >= 20


def test_per_layer_type_gradients():
    # one conv+bn+relu+maxpool+gap+linear unit, every parameter checked
    rng = np.random.default_rng(3)
    from nnwm.fixtures import _bn, _conv, _linear
    from nnwm.model_store import GlobalAvgPoolLayer, MaxPoolLayer, ReluLayer
    layers = [_conv(rng, 3, 2), _bn(3), ReluLayer(), MaxPoolLayer(2, 2),
              _conv(rng, 4, 3), _bn(4), GlobalAvgPoolLayer(), _linear(rng, 2, 4)]
    model = to_precision(ModelGraph(layers, (2, 6, 6)), "f64")
    x = rng.normal(size=(5, 2, 6, 6))
    y = rng.integers(0, 2, size=5)
    grads = gradients(model, x, y)
    for pos, name, arr in trainable_params(model):
        idx = rng.choice(arr.size, size=min(4, arr.size), replace=False)
        for i in idx:
            fd = central_difference(model, x, y, pos, name, int(i))
            an = grads[(pos, name)].ravel()[int(i)]
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-6) < 1e-4


def test_strided_conv_and_overlapping_pool_gradients():
    # stride-2 conv, asymmetric padding, overlapping 3x3/2 pooling
    rng = np.random.default_rng(13)
    from nnwm.fixtures import _bn, _linear
    from nnwm.model_store import GlobalAvgPoolLayer, MaxPoolLayer, ReluLayer
    conv = ConvLayer(rng.normal(0, 0.5, size=(3, 2, 3, 3)).astype(np.float32),
                     rng.normal(size=3).astype(np.float32), (2, 2), (1, 0))
    layers = [conv, _bn(3), ReluLayer(), MaxPoolLayer(3, 2),
              GlobalAvgPoolLayer(), _linear(rng, 2, 3)]
    model = to_precision(ModelGraph(layers, (2, 9, 11)), "f64")
    x = rng.normal(size=(3, 2, 9, 11))
    y = rng.integers(0, 2, size=3)
    grads = gradients(model, x, y)
    for pos, name, arr in trainable_params(model):
        for i in rng.choice(arr.size, size=min(5, arr.size), replace=False):
            fd = central_difference(model, x, y, pos, name, int(i))
            an = grads[(pos, name)].ravel()[int(i)]
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-6) < 1e-4, (pos, name, i)


def test_sgd_step_examples():
    for w, g, lr in [(1.0, 0.5, 0.1), (1.0, 0.0, 0.1), (-2.0, 0.25, 0.01)]:
        model = ModelGraph([LinearLayer(np.array([[w]]), None)], (1, 1, 1))
        sgd_step(model, {(0, "weights"): np.array([[g]])}, TrainConfig(epochs=1, lr=lr))
        assert model.layers[0].weights[0, 0] == pytest.approx(
            w - lr * (g + WEIGHT_DECAY * w), rel=1e-12)
    with pytest.raises(ShapeConsistencyError):
        sgd_step(model, {(0, "weights"): np.zeros((2, 2))},
                 TrainConfig(epochs=1, lr=0.1))


def test_sgd_step_updates_in_place(tiny_model):
    x = np.random.default_rng(0).normal(size=(2, 1, 16, 16)).astype(np.float32)
    y = np.array([0, 1])
    grads = gradients(tiny_model, x, y)
    weights = tiny_model.layers[0].weights
    before = weights.copy()
    assert sgd_step(tiny_model, grads, TrainConfig(epochs=1, lr=0.1)) is None
    assert tiny_model.layers[0].weights is weights
    np.testing.assert_allclose(
        weights, before - 0.1 * (grads[(0, "weights")] + WEIGHT_DECAY * before), rtol=1e-6)
    assert not np.array_equal(weights, before)


def test_bn_train_eval_consistency():
    # after running stats converge on a fixed batch, both modes agree
    model = to_precision(vgg_tiny(2), "f64")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 1, 16, 16))
    for _ in range(200):
        train_out, _ = forward(model, x, mode="train")
    eval_out, _ = forward(model, x, mode="eval")
    assert np.max(np.abs(train_out - eval_out)) < 1e-2


def traced_peak(fn, *args) -> int:
    """Peak bytes that numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_forward_keeps_no_contexts(tiny_model):
    x = np.zeros((2, 1, 16, 16), dtype=np.float32)
    assert forward(tiny_model, x, mode="eval")[1] is None
    assert len(forward(tiny_model, x, mode="train")[1]) == len(tiny_model.layers)
    model, test = vgg_tiny(0), synth_dataset(0, 16, 256)[1]
    peak = traced_peak(forward, model, test.inputs, "eval")
    # no conv patch matrix outlives its layer (about 135 MiB when all were kept)
    assert peak < 120 * 2**20


def test_evaluate_peak_stays_within_one_batch():
    model, test = vgg_tiny(0), synth_dataset(0, 16, 256)[1]
    # about 12 MiB in BATCH_SIZE chunks; 98 MiB when all 256 samples ran at once
    assert traced_peak(evaluate, model, test) < 24 * 2**20


def test_evaluate_counts_the_hits_of_one_full_batch_forward():
    train, test = synth_dataset(2, 64, 100)  # 100 is not a multiple of BATCH_SIZE
    model = finetune(vgg_tiny(0), train, TrainConfig(epochs=1, lr=0.01))
    logits, _ = forward(model, test.inputs, mode="eval")
    hits = int((logits.argmax(axis=1) == test.labels).sum())
    assert 0 < hits < test.size  # neither bound, so a miscount shows
    assert evaluate(model, test) == hits / test.size


def test_forward_mode_and_shape_validation(tiny_model):
    with pytest.raises(ValueError):
        forward(tiny_model, np.zeros((1, 1, 16, 16)), mode="predict")
    with pytest.raises(ShapeConsistencyError):
        forward(tiny_model, np.zeros((1, 3, 16, 16)))


def test_finetune_identity_at_zero_epochs(tiny_model):
    train, _ = synth_dataset(0, 8, 8)
    calls = []
    out = finetune(tiny_model, train, TrainConfig(epochs=0),
                   lambda *row: calls.append(row))
    assert calls == []
    for (p1, n1, a1), (p2, n2, a2) in zip(trainable_params(tiny_model),
                                          trainable_params(out)):
        np.testing.assert_array_equal(a1, a2)


def test_finetune_never_changes_shapes(tiny_model):
    train, test = synth_dataset(3, 64, 16)
    calls = []
    before = [arr.copy() for _, _, arr in trainable_params(tiny_model)]
    out = finetune(tiny_model, train, TrainConfig(epochs=1, lr=0.01),
                   lambda *row: calls.append(row))
    assert channel_counts(out) == channel_counts(tiny_model)
    for (_, _, arr), old in zip(trainable_params(tiny_model), before):
        np.testing.assert_array_equal(arr, old)  # trains a private copy
    assert len(calls) == 1
    epoch, model, loss = calls[0]
    assert epoch == 0 and model is out and loss > 0
    assert 0.0 <= evaluate(out, test) <= 1.0


def test_finetune_never_evaluates(tiny_model, monkeypatch):
    import nnwm.toy_trainer as tt

    def refuse(*args, **kwargs):
        raise AssertionError("finetune scored a model it was only asked to train")

    train_forward = tt.forward

    def forward_train_only(model, inputs, mode="eval"):
        if mode == "eval":
            refuse()
        return train_forward(model, inputs, mode)

    monkeypatch.setattr(tt, "evaluate", refuse)
    monkeypatch.setattr(tt, "forward", forward_train_only)
    train, _ = synth_dataset(3, 64, 16)
    out = finetune(tiny_model, train, TrainConfig(epochs=1, lr=0.01))
    assert channel_counts(out) == channel_counts(tiny_model)


def test_finetune_determinism_f64(tiny_model):
    train, _ = synth_dataset(9, 48, 16)
    model = to_precision(tiny_model, "f64")
    cfg = TrainConfig(epochs=2, lr=0.01, seed=5)
    h1, h2 = [], []
    out1 = finetune(model, train, cfg, lambda e, m, loss: h1.append((e, loss)))
    out2 = finetune(model, train, cfg, lambda e, m, loss: h2.append((e, loss)))
    assert len(h1) == 2 and h1 == h2
    for (p1, n1, a1), (p2, n2, a2) in zip(trainable_params(out1),
                                          trainable_params(out2)):
        assert a1.dtype == np.float64  # trained in the model's own dtype
        assert a1.tobytes() == a2.tobytes()


def test_synth_dataset_properties():
    tr1, te1 = synth_dataset(4, 32, 32)
    tr2, te2 = synth_dataset(4, 32, 32)
    assert tr1.inputs.tobytes() == tr2.inputs.tobytes()
    assert te1.inputs.tobytes() == te2.inputs.tobytes()
    assert tr1.inputs.tobytes() != te1.inputs.tobytes()  # disjoint streams
    assert tr1.inputs.shape == (32, 1, 16, 16)
    counts = np.bincount(tr1.labels, minlength=2)
    assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_synth_dataset_linear_probe():
    train, test = synth_dataset(21, 256, 128)
    xtr = train.inputs.reshape(train.size, -1).astype(np.float64)
    xte = test.inputs.reshape(test.size, -1).astype(np.float64)
    ytr = 2.0 * train.labels - 1.0
    w, *_ = np.linalg.lstsq(np.c_[xtr, np.ones(train.size)], ytr, rcond=None)
    pred = (np.c_[xte, np.ones(test.size)] @ w > 0).astype(int)
    accuracy = float((pred == test.labels).mean())
    assert accuracy > 0.8


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 1, 4, 4)), np.zeros(3, dtype=np.int64))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, lr=0.0)
    for bad in ({"epochs": -1}, {"epochs": 1, "lr": float("nan")},
                {"epochs": 1, "lr": float("inf")}, {"epochs": 1, "seed": -1}):
        with pytest.raises(TrainConfigError):
            TrainConfig(**bad)
    cfg = TrainConfig(epochs=1)
    assert [f.name for f in fields(cfg)] == ["epochs", "lr", "seed"]
    assert cfg.lr == pytest.approx(0.001)
    assert WEIGHT_DECAY == 1e-4
