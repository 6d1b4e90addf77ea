"""Minimal numpy forward/backward engine and SGD loop for fixture CNNs.

Just enough to fine-tune the toy models after pruning and to run the
fine-tuning attack: conv2d as one matrix product, batchnorm with batch
statistics in train mode, relu, maxpool, global average pooling and a
linear head, plus softmax cross-entropy and plain SGD with weight decay.
``finetune`` only trains; callers score the result with ``evaluate``.

``KERNELS`` maps each layer class to its forward and backward kernel, so
``forward`` and ``backward`` are one loop each over the graph.  Only
train-mode ``forward`` returns the per-layer kernel contexts (eval keeps
none), and ``loss_softmax_ce`` returns the loss with its gradient w.r.t.
the logits; ``backward`` takes those contexts and that gradient.

No temporary is larger than one training batch needs.  ``evaluate`` runs
eval-mode ``forward`` over BATCH_SIZE samples at a time; every eval kernel
treats each sample on its own, so the chunking changes no prediction.  The
contexts of a train-mode step live until ``backward`` returns.  Freeing
each one as ``backward`` consumes it lowers a fine-tune's peak by about a
quarter, but glibc then trims the freed top of the heap and faults it back
in on every step: some 20 times the minor page faults, and a slower
fine-tune.

A conv pads its input once into a zeroed channel-major (Ci, N, Hp, Wp)
grid.  Each of the kh*kw window offsets is one strided slice of that grid,
and the slices are copied into a (Ci*kh*kw, N*Ho*Wo) patch matrix that
is multiplied once by the (Co, Ci*kh*kw) weight matrix.  The (Co, N*Ho*Wo)
product is returned as an (N, Co, Ho, Wo) view, not copied back to NCHW
memory; batchnorm, relu and maxpool keep that channel-major order, and so
do the map gradients of the backward pass, so the (C, N*H*W) rows of every
map and gradient that batchnorm and the conv backward pass read are views.

The conv backward pass places the output gradient on a zeroed grid of the
same (N, Hp, Wp) shape, at each window's top-left corner (s*y, s*x), and
takes the patch gradient over every grid column, one kernel row i at a
time: the (Ci*kw, Co) slice of the transposed weights for row i times the
(Co, N*Hp*Wp) grid, into one reused buffer a kh-th the size of the whole
patch gradient.  Each element is the same sum over Co as in one product
over all rows.  In the flat grid, the input position for window offset
(i, j) is the corner plus i*Wp + j, so the input gradient is kh*kw shifted
adds of whole (Ci, N*Hp*Wp) rows into one flat buffer, in (i, j) order;
the padding border is cut off at the end.

Maxpool is a running maximum over its k*k strided window views.  Its
backward pass walks the same views of a zeroed channel-major gradient in
row-major order and gives each window's gradient to the first view equal
to the max, keeping a mask of the windows still unrouted, so ties go where
argmax would send them.
With non-overlapping windows (k <= s) every result is bit for bit that
of the argmax scatter; with overlapping windows an input's gradient is
summed in view order, so it may differ in the last bits.

Batchnorm normalizes with the biased (1/n) batch variance in train mode
and updates running statistics with momentum 0.1 (running variance uses
the unbiased estimate).  It works on the map's (C, n = N*H*W) rows: the
mean is one matrix-vector product with a ones vector, the centred rows
are the one copy of the map and become xhat in place, and the variance is
one row dot of the centred rows.  The backward pass needs two sums per
channel, dbeta = sum(dout) (a matrix-vector product) and dgamma =
sum(dout * xhat) (a row dot), and forms dx = (gamma * inv_std / n) *
(n * dout - dbeta - xhat * dgamma) in one buffer.  BLAS need not report
an overflow to ``np.errstate``, so a non-finite batch variance raises
TrainConfigError itself.  Train-mode forward updates the running buffers
of the graph it is given, and ``sgd_step`` updates its parameters:
finetune clones the model once and trains that private copy in place, in
the model's own dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeConsistencyError, TrainConfigError
from .model_store import (
    BatchNormLayer,
    ConvLayer,
    GlobalAvgPoolLayer,
    LinearLayer,
    MaxPoolLayer,
    ModelGraph,
    ReluLayer,
    channel_counts,
    clone_graph,
    layer_arrays,
    layer_input_shapes,
    map_arrays,
)

BN_MOMENTUM = 0.1
BATCH_SIZE = 32  # samples per SGD step and per eval-mode forward in evaluate
WEIGHT_DECAY = 1e-4

_DTYPES = {"f32": np.float32, "f64": np.float64}


@dataclass(frozen=True)
class Batch:
    """A stack of images with integer class labels."""

    inputs: np.ndarray  # (N, C, H, W)
    labels: np.ndarray  # (N,)

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.inputs.shape[0] < 1:
            raise ValueError("inputs must be a non-empty (N, C, H, W) array")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels must be one integer per sample")

    @property
    def size(self) -> int:
        return int(self.inputs.shape[0])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise TrainConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise TrainConfigError(f"learning rate must be finite and positive, got {self.lr}")
        if self.seed < 0:
            raise TrainConfigError(f"seed must be >= 0, got {self.seed}")


def to_precision(model: ModelGraph, precision: str) -> ModelGraph:
    """Copy of the model with all arrays cast to the requested dtype."""
    dtype = _DTYPES[precision]
    return map_arrays(model, lambda ly, attr, arr: arr.astype(dtype))


def _model_dtype(model: ModelGraph) -> np.dtype:
    for ly in model.layers:
        for _, arr in layer_arrays(ly):
            return arr.dtype
    raise ShapeConsistencyError("model has no parameterized layer")


def _window_views(x: np.ndarray, kernel: tuple[int, int],
                  stride: tuple[int, int]) -> list[np.ndarray]:
    """For each window offset (i, j), in row-major order, the strided view of
    x's last two axes that holds that offset's element of every window."""
    (kh, kw), (sy, sx) = kernel, stride
    ho, wo = (x.shape[2] - kh) // sy + 1, (x.shape[3] - kw) // sx + 1
    return [x[:, :, i:i + sy * ho:sy, j:j + sx * wo:sx] for i in range(kh) for j in range(kw)]


def _conv_forward(ly: ConvLayer, x: np.ndarray, mode: str):
    """Output as an (N, Co, Ho, Wo) view of (Co, N, Ho, Wo) memory, plus the
    patch matrix and shapes that the backward pass needs."""
    py, px = ly.padding
    co, ci, kh, kw = ly.weights.shape
    n, _, h, w = x.shape
    hp, wp = h + 2 * py, w + 2 * px
    xp = np.zeros((ci, n, hp, wp), dtype=x.dtype)
    xp[:, :, py:py + h, px:px + w] = x.transpose(1, 0, 2, 3)
    views = _window_views(xp, (kh, kw), ly.stride)
    ho, wo = views[0].shape[2:]
    cols = np.stack(views, axis=1).reshape(ci * kh * kw, n * ho * wo)
    out = ly.weights.reshape(co, -1) @ cols
    if ly.bias is not None:
        out += ly.bias[:, None]
    return out.reshape(co, n, ho, wo).transpose(1, 0, 2, 3), (cols, (hp, wp), x.shape)


def _conv_backward(ly: ConvLayer, ctx, dout: np.ndarray):
    cols, (hp, wp), in_shape = ctx
    (sy, sx), (py, px) = ly.stride, ly.padding
    co, ci, kh, kw = ly.weights.shape
    n, _, ho, wo = dout.shape
    d = dout.transpose(1, 0, 2, 3).reshape(co, n * ho * wo)
    dw = (d @ cols.T).reshape(co, ci, kh, kw)
    db = d.sum(axis=1) if ly.bias is not None else None
    # col2im as kh*kw flat shifts of the padded grid (see the module docstring)
    grid = np.zeros((co, n, hp, wp), dtype=dout.dtype)
    grid[:, :, :sy * ho:sy, :sx * wo:sx] = dout.transpose(1, 0, 2, 3)
    size = n * hp * wp
    flat = grid.reshape(co, size)
    dxp = np.zeros((ci, size + (kh - 1) * wp + kw - 1), dtype=dout.dtype)
    drow = np.empty((ci, kw, size), dtype=dout.dtype)  # patch gradient of one kernel row
    for i in range(kh):
        np.matmul(ly.weights[:, :, i].reshape(co, ci * kw).T, flat,
                  out=drow.reshape(ci * kw, size))
        for j in range(kw):
            dxp[:, i * wp + j:i * wp + j + size] += drow[:, j]
    dx = dxp[:, :size].reshape(ci, n, hp, wp).transpose(1, 0, 2, 3)
    return dx[:, :, py:py + in_shape[2], px:px + in_shape[3]], dw, db


def _channel_rows(x: np.ndarray) -> np.ndarray:
    """The (C, N*H*W) rows of an (N, C, H, W) map: a view when the map is
    channel-major, a copy in the same element order otherwise."""
    return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)


def _as_map(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """(C, N*H*W) rows back as an (N, C, H, W) view of their memory."""
    n, c, h, w = shape
    return rows.reshape(c, n, h, w).transpose(1, 0, 2, 3)


def _bn_forward(ly: BatchNormLayer, x: np.ndarray, mode: str):
    if mode == "eval":
        g = ly.gamma.reshape(1, -1, 1, 1)
        b = ly.beta.reshape(1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(ly.running_var + ly.eps)
        out = (x - ly.running_mean.reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1) * g + b
        return out, None
    rows = _channel_rows(x)
    n = rows.shape[1]
    mu = rows @ np.ones(n, dtype=rows.dtype)
    mu /= n
    xhat = rows - mu[:, None]
    var = np.einsum("ij,ij->i", xhat, xhat)  # biased, used for normalization
    var /= n
    if not np.isfinite(var).all():  # BLAS need not raise under np.errstate
        raise TrainConfigError("training diverged (non-finite batchnorm statistic); lower lr")
    inv_std = 1.0 / np.sqrt(var + ly.eps)
    xhat *= inv_std[:, None]
    out = xhat * ly.gamma[:, None]
    out += ly.beta[:, None]
    var_running = var * n / (n - 1) if n > 1 else var
    ly.running_mean[...] = (1 - BN_MOMENTUM) * ly.running_mean + BN_MOMENTUM * mu
    ly.running_var[...] = (1 - BN_MOMENTUM) * ly.running_var + BN_MOMENTUM * var_running
    return _as_map(out, x.shape), (xhat, inv_std, x.shape)


def _bn_backward(ly: BatchNormLayer, ctx, dout: np.ndarray):
    xhat, inv_std, shape = ctx
    d = _channel_rows(dout)
    n = d.shape[1]
    dbeta = d @ np.ones(n, dtype=d.dtype)
    dgamma = np.einsum("ij,ij->i", d, xhat)
    # (gamma * inv_std / n) * (n * dout - dbeta - xhat * dgamma), in one buffer
    dx = xhat * (dgamma / n)[:, None]
    dx += (dbeta / n)[:, None]
    np.subtract(d, dx, out=dx)
    dx *= (ly.gamma * inv_std)[:, None]
    return _as_map(dx, shape), dgamma, dbeta


def _maxpool_forward(ly: MaxPoolLayer, x: np.ndarray, mode: str):
    k, s = ly.kernel, ly.stride
    views = _window_views(x, (k, k), (s, s))
    out = views[0].copy(order="K")
    for v in views[1:]:
        np.maximum(out, v, out=out)
    return out, (x, out)


def _maxpool_backward(ly: MaxPoolLayer, ctx, dout: np.ndarray):
    """Each window's gradient goes to its first position (row-major) that
    holds the max, as argmax would pick it."""
    x, out = ctx
    k, s = ly.kernel, ly.stride
    dx = _as_map(np.zeros((x.shape[1], x.size // x.shape[1]), dtype=dout.dtype), x.shape)
    free = np.ones_like(out, dtype=bool)  # windows not yet routed
    for v, dv in zip(_window_views(x, (k, k), (s, s)), _window_views(dx, (k, k), (s, s))):
        hit = v == out
        hit &= free
        dv += dout * hit
        free ^= hit
    return (dx,)


def _linear_forward(ly: LinearLayer, x: np.ndarray, mode: str):
    """A spatial input is flattened per sample; its shape is kept to unflatten dx."""
    flat_from = None
    if x.ndim == 4:
        flat_from = x.shape
        x = x.reshape(x.shape[0], -1)
    out = x @ ly.weights.T
    if ly.bias is not None:
        out = out + ly.bias
    return out, (x, flat_from)


def _linear_backward(ly: LinearLayer, ctx, dout: np.ndarray):
    xin, flat_from = ctx
    dw = dout.T @ xin
    db = dout.sum(axis=0) if ly.bias is not None else None
    dx = dout @ ly.weights
    if flat_from is not None:
        dx = dx.reshape(flat_from)
    return dx, dw, db


# Per layer class: forward(ly, x, mode) -> (out, ctx) and
# backward(ly, ctx, dout) -> (dx, *grads), grads aligned with ly.TRAINABLE
# (None for an absent bias).
KERNELS = {
    ConvLayer: (_conv_forward, _conv_backward),
    BatchNormLayer: (_bn_forward, _bn_backward),
    ReluLayer: (lambda ly, x, mode: (np.maximum(x, 0), x > 0),
                lambda ly, positive, dout: (dout * positive,)),
    MaxPoolLayer: (_maxpool_forward, _maxpool_backward),
    GlobalAvgPoolLayer: (lambda ly, x, mode: (x.mean(axis=(2, 3)), x.shape),
                         lambda ly, shape, dout: (_as_map(np.repeat(
                             (dout / (shape[2] * shape[3])).T, shape[2] * shape[3], axis=1),
                             shape),)),
    LinearLayer: (_linear_forward, _linear_backward),
}


def forward(model: ModelGraph, inputs: np.ndarray, mode: str = "eval"):
    """Run the network; returns (logits, contexts).

    Train mode uses batch statistics in batchnorm layers, updates their
    running buffers in place and returns the kernel contexts for ``backward``.
    Eval mode is a pure function; its contexts are None, each layer's dropped
    as that layer finishes.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    dtype = _model_dtype(model)
    x = np.ascontiguousarray(inputs, dtype=dtype)
    if x.ndim != 4 or x.shape[1:] != tuple(model.input_shape):
        raise ShapeConsistencyError(
            f"input shape {x.shape} does not match model input {model.input_shape}")
    contexts = [] if mode == "train" else None
    for ly in model.layers:
        x, ctx = KERNELS[type(ly)][0](ly, x, mode)
        if contexts is not None:
            contexts.append(ctx)
        del ctx
    return x, contexts


def loss_softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits, from one exp pass."""
    if not np.isfinite(logits).all():
        raise TrainConfigError("training diverged (non-finite logits); lower lr")
    n, k = logits.shape
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must be one class index in [0, {k}) per row of logits")
    rows = np.arange(n)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    dlogits = e / total
    dlogits[rows, labels] -= 1.0
    return float(np.mean(np.log(total[:, 0]) - z[rows, labels])), dlogits / n


def backward(model: ModelGraph, contexts: list, dlogits: np.ndarray) -> dict:
    """Gradients w.r.t. every trainable tensor, by the chain rule from the
    loss gradient ``dlogits`` through the contexts of a train-mode forward."""
    grads: dict[tuple[int, str], np.ndarray] = {}
    dx = dlogits
    for pos in range(len(model.layers) - 1, -1, -1):
        ly = model.layers[pos]
        dx, *layer_grads = KERNELS[type(ly)][1](ly, contexts[pos], dx)
        for attr, g in zip(ly.TRAINABLE, layer_grads):
            if g is not None:
                grads[(pos, attr)] = g
    return grads


def sgd_step(model: ModelGraph, grads: dict, config: TrainConfig) -> None:
    """One in-place update w <- w - lr * (g + WEIGHT_DECAY * w)."""
    for (pos, name), g in grads.items():
        arr = getattr(model.layers[pos], name)
        if arr is None or arr.shape != g.shape:
            raise ShapeConsistencyError(
                f"gradient shape {getattr(g, 'shape', None)} does not match "
                f"parameter {name} at layer {pos}")
        arr -= config.lr * (g + WEIGHT_DECAY * arr)


def evaluate(model: ModelGraph, batch: Batch) -> float:
    """Top-1 accuracy in eval mode."""
    hits = 0
    for i in range(0, batch.size, BATCH_SIZE):
        logits, _ = forward(model, batch.inputs[i:i + BATCH_SIZE], mode="eval")
        hits += int((logits.argmax(axis=1) == batch.labels[i:i + BATCH_SIZE]).sum())
    return hits / batch.size


def check_fit(model: ModelGraph, train: Batch) -> None:
    """TrainConfigError unless the model takes the images and scores every label."""
    if tuple(model.input_shape) != train.inputs.shape[1:]:
        raise TrainConfigError(f"model input {tuple(model.input_shape)} does not match "
                               f"the training images {train.inputs.shape[1:]}")
    out = model.layers[-1].out_shape(layer_input_shapes(model)[-1], "model output")
    if out[0] != "vec" or out[1] <= train.labels.max():
        raise TrainConfigError(f"model output {out} is not a vector of one logit "
                               "per class of the training labels")


def finetune(model: ModelGraph, train: Batch, config: TrainConfig,
             after_epoch=None) -> ModelGraph:
    """Shuffled mini-batch SGD on ``train``; returns the trained copy.

    ``after_epoch(epoch, model, mean_train_loss)``, if given, runs after
    each epoch.  The architecture is never altered; epochs=0 returns an
    unchanged copy.  TrainConfigError: ``check_fit`` fails, or training
    diverged (float overflow or invalid op).
    """
    check_fit(model, train)
    work = clone_graph(model)
    rng = np.random.default_rng(config.seed)
    counts_before = channel_counts(work)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(config.epochs):
                perm = rng.permutation(train.size)
                losses = []
                for start in range(0, train.size, BATCH_SIZE):
                    idx = perm[start:start + BATCH_SIZE]
                    xb, yb = train.inputs[idx], train.labels[idx]
                    logits, contexts = forward(work, xb, mode="train")
                    loss, dlogits = loss_softmax_ce(logits, yb)
                    losses.append(loss)
                    sgd_step(work, backward(work, contexts, dlogits), config)
                if after_epoch is not None:
                    after_epoch(epoch, work, float(np.mean(losses)))
    except FloatingPointError as e:
        raise TrainConfigError(f"training diverged ({e}); lower lr") from None
    if channel_counts(work) != counts_before:
        raise ShapeConsistencyError("fine-tuning must not alter the architecture")
    return work


def synth_dataset(seed: int, n_train: int, n_test: int) -> tuple[Batch, Batch]:
    """Deterministic 2-class 1x16x16 stripe dataset.

    Class 0 is a horizontal stripe pattern, class 1 vertical, both with
    Gaussian noise (sigma 0.3).  Labels alternate so classes stay balanced;
    train and test use disjoint seeded streams.
    """
    if n_train < 1 or n_test < 1:
        raise ValueError("dataset sizes must be >= 1")
    if seed < 0:
        raise TrainConfigError(f"seed must be >= 0, got {seed}")
    rows = np.where(np.arange(16) % 2 == 0, 1.0, -1.0)
    horizontal = np.tile(rows[:, None], (1, 16))
    vertical = np.tile(rows[None, :], (16, 1))

    def make(n: int, stream: int) -> Batch:
        rng = np.random.default_rng([seed, stream])
        labels = np.arange(n) % 2
        base = np.where(labels[:, None, None] == 0, horizontal, vertical)
        x = base + rng.normal(0.0, 0.3, size=(n, 16, 16))
        return Batch(x[:, None, :, :].astype(np.float32), labels.astype(np.int64))

    return make(n_train, 0), make(n_test, 1)
