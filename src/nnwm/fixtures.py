"""Fixture CNNs used by the tests, the CLI demo and the experiment scripts."""

from __future__ import annotations

import numpy as np

from .model_store import (
    BatchNormLayer,
    ConvLayer,
    GlobalAvgPoolLayer,
    LinearLayer,
    MaxPoolLayer,
    ModelGraph,
    ReluLayer,
    validate,
)


def _conv(rng: np.random.Generator, c_out: int, c_in: int, k: int = 3) -> ConvLayer:
    # He-normal init, bias-free (batchnorm follows every conv)
    std = np.sqrt(2.0 / (c_in * k * k))
    w = rng.normal(0.0, std, size=(c_out, c_in, k, k)).astype(np.float32)
    return ConvLayer(w, None, (1, 1), (k // 2, k // 2))


def _bn(channels: int) -> BatchNormLayer:
    return BatchNormLayer(
        gamma=np.ones(channels, dtype=np.float32),
        beta=np.zeros(channels, dtype=np.float32),
        running_mean=np.zeros(channels, dtype=np.float32),
        running_var=np.ones(channels, dtype=np.float32),
    )


def _linear(rng: np.random.Generator, out: int, inp: int) -> LinearLayer:
    std = np.sqrt(2.0 / inp)
    w = rng.normal(0.0, std, size=(out, inp)).astype(np.float32)
    return LinearLayer(w, np.zeros(out, dtype=np.float32))


def _vgg(seed: int, plan: list, input_shape: tuple[int, int, int], classes: int,
         name: str) -> ModelGraph:
    """conv/bn/relu blocks of the planned widths ("M" = 2x2 max-pool), then a linear head."""
    rng = np.random.default_rng(seed)
    layers = []
    c_in = input_shape[0]
    for w in plan:
        if w == "M":
            layers.append(MaxPoolLayer(2, 2))
            continue
        layers += [_conv(rng, w, c_in), _bn(w), ReluLayer()]
        c_in = w
    layers += [GlobalAvgPoolLayer(), _linear(rng, classes, c_in)]
    model = ModelGraph(layers, input_shape, name)
    validate(model)
    return model


def vgg_tiny(seed: int = 0) -> ModelGraph:
    """Five-conv net for the 1x16x16 two-class stripe task.

    Channel counts are [32, 32, 64, 64, 64].
    """
    return _vgg(seed, [32, 32, "M", 64, "M", 64, 64], (1, 16, 16), 2, "vgg-tiny")


def vgg16_style(seed: int = 0) -> ModelGraph:
    """Sixteen-conv VGG-style net (3x32x32 input), every width >= 32."""
    plan = [32, 32, "M", 64, 64, "M", 128, 128, 128, 128, "M",
            128, 128, 128, 128, "M", 128, 128, 128, 128]
    return _vgg(seed, plan, (3, 32, 32), 10, "vgg16-style")


def random_conv_net(seed: int, n_convs: int | None = None,
                    c_lo: int = 12, c_hi: int = 256) -> ModelGraph:
    """Random conv/bn/relu stack with 1x1 kernels, for fuzz-style tests."""
    rng = np.random.default_rng(seed)
    if n_convs is None:
        n_convs = int(rng.integers(8, 21))
    widths = [int(rng.integers(c_lo, c_hi + 1)) for _ in range(n_convs)]
    layers = []
    c_in = 3
    for w in widths:
        layers += [_conv(rng, w, c_in, k=1), _bn(w), ReluLayer()]
        c_in = w
    layers += [GlobalAvgPoolLayer(), _linear(rng, 2, c_in)]
    model = ModelGraph(layers, (3, 4, 4), f"random-{seed}")
    validate(model)
    return model
