"""Container tests: byte-exact round trips, format errors, shape invariants."""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nnwm import model_store
from nnwm.errors import (
    BlobFormatError,
    BlobSizeError,
    ManifestError,
    NnwmError,
    ShapeConsistencyError,
)
from nnwm.fixtures import _bn, _conv, _linear, vgg16_style, vgg_tiny
from nnwm.model_store import (
    LAYER_TYPES,
    BatchNormLayer,
    ConvLayer,
    GlobalAvgPoolLayer,
    Layer,
    LinearLayer,
    MaxPoolLayer,
    ModelGraph,
    ReluLayer,
    channel_counts,
    clone_graph,
    conv_layer_indices,
    layer_arrays,
    load_arch,
    load_model,
    save_model,
    validate,
)
from nnwm.toy_trainer import KERNELS, to_precision


def saved(tmp_path, model, stem="m"):
    arch, weights = tmp_path / f"{stem}.json", tmp_path / f"{stem}.bin"
    save_model(model, arch, weights)
    return arch, weights


def test_roundtrip_byte_identity(tmp_path, tiny_model):
    arch, weights = saved(tmp_path, tiny_model)
    again = load_model(arch, weights)
    arch2, weights2 = saved(tmp_path, again, "m2")
    assert arch.read_bytes() == arch2.read_bytes()
    assert weights.read_bytes() == weights2.read_bytes()
    # and the float payload is bit-identical in memory
    for a, b in zip(tiny_model.layers, again.layers):
        if isinstance(a, ConvLayer):
            assert a.weights.tobytes() == b.weights.tobytes()


def test_truncated_blob_raises_size_error(tmp_path, tiny_model):
    arch, weights = saved(tmp_path, tiny_model)
    blob = weights.read_bytes()
    weights.write_bytes(blob[:-4])
    with pytest.raises(BlobSizeError):
        load_model(arch, weights)


@pytest.mark.parametrize("whole", [False, True], ids=["inside_last_tensor", "whole_last_tensor"])
def test_blob_that_shrinks_after_the_size_check_raises_size_error(tmp_path, tiny_model,
                                                                 monkeypatch, whole):
    # the size check passes on the full size; the read then runs out of file
    arch, weights = saved(tmp_path, tiny_model)
    full = weights.stat().st_size
    attr, last = list(layer_arrays(tiny_model.layers[-1]))[-1]
    weights.write_bytes(weights.read_bytes()[:-4 * last.size if whole else -4])
    monkeypatch.setattr(model_store.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
    pos = len(tiny_model.layers) - 1
    with pytest.raises(BlobSizeError, match=f"ended inside layer {pos} {attr}$"):
        load_model(arch, weights)


def blob_offset(model, pos: int, attr: str) -> int:
    """Byte offset of layer pos's attr in the model's blob."""
    off = 8
    for p, ly in enumerate(model.layers):
        for a, arr in layer_arrays(ly):
            if (p, a) == (pos, attr):
                return off
            off += 4 * arr.size
    raise KeyError((pos, attr))


@pytest.mark.parametrize("pos, attr, value, message", [
    (0, "weights", np.nan, "non-finite weights"),
    (3, "weights", -np.inf, "non-finite weights"),
    (1, "running_var", -1.0, "negative running_var")])
def test_load_rejects_bad_values_in_the_blob(tmp_path, tiny_model, pos, attr, value, message):
    arch, weights = saved(tmp_path, tiny_model)
    blob = bytearray(weights.read_bytes())
    off = blob_offset(tiny_model, pos, attr)
    blob[off:off + 4] = np.array([value], dtype="<f4").tobytes()
    weights.write_bytes(bytes(blob))
    with pytest.raises(ShapeConsistencyError, match=f"layer {pos} .*{message}"):
        load_model(arch, weights)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("place", ["first", "middle", "last"])
def test_a_non_finite_value_anywhere_is_rejected_on_load_and_save(tmp_path, value, place):
    model = vgg_tiny(0)
    arch, weights = saved(tmp_path, model)
    blob = weights.read_bytes()
    for pos, ly in enumerate(model.layers):
        for attr, arr in list(layer_arrays(ly)):
            i = {"first": 0, "middle": arr.size // 2, "last": arr.size - 1}[place]
            off = blob_offset(model, pos, attr) + 4 * i
            weights.write_bytes(blob[:off] + np.array([value], "<f4").tobytes() + blob[off + 4:])
            match = f"layer {pos} .*non-finite {attr}"
            with pytest.raises(ShapeConsistencyError, match=match):
                load_model(arch, weights)
            bad = arr.copy()
            bad.flat[i] = value
            setattr(ly, attr, bad)
            with pytest.raises(ShapeConsistencyError, match=match):
                save_model(model, tmp_path / "x.json", tmp_path / "x.bin")
            assert not (tmp_path / "x.json").exists()
            setattr(ly, attr, arr)


def test_save_rejects_a_nan_and_writes_no_blob(tmp_path, tiny_model):
    tiny_model.layers[0].weights[1, 0, 0, 0] = np.nan
    arch, weights = tmp_path / "x.json", tmp_path / "x.bin"
    with pytest.raises(ShapeConsistencyError, match="non-finite weights"):
        save_model(tiny_model, arch, weights)
    assert not arch.exists() and not weights.exists()


def test_bad_magic_and_version(tmp_path, tiny_model):
    arch, weights = saved(tmp_path, tiny_model)
    blob = bytearray(weights.read_bytes())
    blob[0] ^= 0xFF
    weights.write_bytes(bytes(blob))
    with pytest.raises(BlobFormatError):
        load_model(arch, weights)
    blob[0] ^= 0xFF
    blob[4] = 2  # unsupported version
    weights.write_bytes(bytes(blob))
    with pytest.raises(BlobFormatError):
        load_model(arch, weights)


def test_malformed_manifest(tmp_path, tiny_model):
    arch, weights = saved(tmp_path, tiny_model)
    arch.write_text("{not json")
    with pytest.raises(ManifestError):
        load_model(arch, weights)
    arch.write_text(json.dumps({"format": "other", "input": [1, 16, 16], "layers": []}))
    with pytest.raises(ManifestError):
        load_model(arch, weights)
    arch.write_text(json.dumps({"format": "nnwm-v1", "input": [1, 16, 16],
                                "layers": [{"type": "wavelet"}]}))
    with pytest.raises(ManifestError):
        load_model(arch, weights)


def test_manifest_bn_length_mismatch_is_consistency_error(tmp_path):
    # blob sized to the (inconsistent) manifest so the shape check is reached
    manifest = {
        "format": "nnwm-v1", "input": [1, 4, 4],
        "layers": [
            {"type": "conv2d", "out_channels": 32, "in_channels": 1,
             "kernel": [1, 1], "stride": [1, 1], "padding": [0, 0], "bias": False},
            {"type": "batchnorm", "channels": 16, "eps": 1e-5},
        ],
    }
    arch = tmp_path / "bad.json"
    weights = tmp_path / "bad.bin"
    arch.write_text(json.dumps(manifest))
    payload = np.zeros(32 + 4 * 16, dtype="<f4").tobytes()
    weights.write_bytes(b"NNWM" + (1).to_bytes(4, "little") + payload)
    with pytest.raises(ShapeConsistencyError):
        load_model(arch, weights)


def test_eps_default_when_manifest_omits_it(tmp_path, tiny_model):
    arch, weights = saved(tmp_path, tiny_model)
    doc = json.loads(arch.read_text())
    for rec in doc["layers"]:
        rec.pop("eps", None)
    arch.write_text(json.dumps(doc))
    model = load_model(arch, weights)
    bn = next(ly for ly in model.layers if isinstance(ly, BatchNormLayer))
    assert bn.eps == pytest.approx(1e-5)


# VGG16 conv widths: 13 convs, 14.7M parameters at 3x32x32 with a 10-way head.
VGG16_WIDTHS = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
                512, 512, 512, "M", 512, 512, 512]


def vgg16_width(seed: int = 0) -> ModelGraph:
    rng = np.random.default_rng(seed)
    layers, c_in = [], 3
    for w in VGG16_WIDTHS:
        if w == "M":
            layers.append(MaxPoolLayer(2, 2))
            continue
        layers += [_conv(rng, w, c_in), _bn(w), ReluLayer()]
        c_in = w
    layers += [GlobalAvgPoolLayer(), _linear(rng, 10, c_in)]
    return ModelGraph(layers, (3, 32, 32), "vgg16-width")


def peak_mb(fn):
    """(what fn() returned or the NnwmError it raised, tracemalloc peak in MB during the call)."""
    tracemalloc.start()
    try:
        try:
            result = fn()
        except NnwmError as e:
            result = e
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_load_arch_is_structure_only(tmp_path, tiny_model):
    arch, _ = saved(tmp_path, tiny_model)
    skeleton = load_arch(arch)
    assert channel_counts(skeleton) == channel_counts(tiny_model)
    for ly in skeleton.layers:
        for attr, arr in layer_arrays(ly):
            assert not arr.flags.writeable, attr
            assert not arr.any(), attr

    big = vgg16_width()
    arch, weights = saved(tmp_path, big, "vgg16w")
    skeleton, peak = peak_mb(lambda: load_arch(arch))
    assert channel_counts(skeleton) == channel_counts(big)
    assert peak < 1.0, f"load_arch peaked at {peak:.1f} MB"

    loaded = load_model(arch, weights)
    for a, b in zip(big.layers, loaded.layers):
        for (attr, want), (_, got) in zip(layer_arrays(a), layer_arrays(b)):
            assert got.flags.writeable and got.flags.owndata, attr
            assert got.tobytes() == want.tobytes(), attr


def one_conv_manifest(tmp_path, c_out: int, c_in: int, kernel: int):
    arch = tmp_path / "one.json"
    arch.write_text(json.dumps({
        "format": "nnwm-v1", "input": [c_in, 8, 8],
        "layers": [{"type": "conv2d", "out_channels": c_out, "in_channels": c_in,
                    "kernel": [kernel, kernel], "stride": [1, 1], "padding": [1, 1],
                    "bias": False}]}))
    return arch


def test_huge_declared_tensor_fails_before_allocating(tmp_path):
    arch = one_conv_manifest(tmp_path, 1024, 1024, 3)
    weights = tmp_path / "one.bin"
    weights.write_bytes(b"NNWM" + (1).to_bytes(4, "little"))
    err, peak = peak_mb(lambda: load_model(arch, weights))
    assert isinstance(err, BlobSizeError)
    assert peak < 1.0, f"load_model peaked at {peak:.1f} MB before rejecting the blob"


def test_zero_width_conv_reports_the_dimension(tmp_path):
    # the blob holds a 1-channel conv, so a size check first would hide the zero
    arch = one_conv_manifest(tmp_path, 0, 1, 3)
    weights = tmp_path / "one.bin"
    weights.write_bytes(b"NNWM" + (1).to_bytes(4, "little") + bytes(4 * 9))
    with pytest.raises(ShapeConsistencyError, match="non-positive weight dim"):
        load_model(arch, weights)


def test_unrepresentable_shape_is_manifest_error(tmp_path):
    err, peak = peak_mb(lambda: load_arch(one_conv_manifest(tmp_path, 10**30, 1, 1)))
    assert isinstance(err, ManifestError) and "cannot represent" in str(err)
    assert peak < 1.0


def test_conv_layer_indices_by_construction():
    model = ModelGraph(
        layers=[
            ConvLayer(np.ones((4, 1, 1, 1), dtype=np.float32)),
            BatchNormLayer(*(np.ones(4, dtype=np.float32) for _ in range(4))),
            ReluLayer(),
            ConvLayer(np.ones((2, 4, 1, 1), dtype=np.float32)),
            GlobalAvgPoolLayer(),
            LinearLayer(np.ones((2, 2), dtype=np.float32)),
        ],
        input_shape=(1, 3, 3))
    assert conv_layer_indices(model) == [0, 3]
    assert channel_counts(model) == [4, 2]


def test_no_conv_model_gives_empty_lists():
    model = ModelGraph([LinearLayer(np.ones((2, 4), dtype=np.float32))],
                       input_shape=(4, 1, 1))
    assert conv_layer_indices(model) == []
    assert channel_counts(model) == []
    with pytest.raises(ShapeConsistencyError):
        validate(model)  # strict validation still requires a conv layer


def test_vgg_fixture_channel_counts(tiny_model, deep_model):
    assert channel_counts(tiny_model) == [32, 32, 64, 64, 64]
    assert len(conv_layer_indices(deep_model)) == 16
    assert all(c >= 32 for c in channel_counts(deep_model))


MUTATIONS = [
    ("bn_gamma_length", lambda m: setattr(
        m.layers[1], "gamma", np.ones(33, dtype=np.float32))),
    ("conv_cin", lambda m: setattr(
        m.layers[3], "weights", np.ones((32, 33, 3, 3), dtype=np.float32))),
    ("linear_in", lambda m: setattr(
        m.layers[-1], "weights", np.ones((2, 63), dtype=np.float32))),
    ("bias_length", lambda m: setattr(
        m.layers[0], "bias", np.zeros(31, dtype=np.float32))),
    ("negative_running_var", lambda m: m.layers[1].running_var.__setitem__(0, -1.0)),
    ("zero_eps", lambda m: setattr(m.layers[1], "eps", 0.0)),
    ("nan_weight", lambda m: m.layers[0].weights.__setitem__((0, 0, 0, 0), np.nan)),
    ("input_channels", lambda m: setattr(m, "input_shape", (2, 16, 16))),
    ("pool_kernel", lambda m: setattr(
        m.layers[[i for i, l in enumerate(m.layers)
                  if isinstance(l, MaxPoolLayer)][0]], "kernel", 99)),
    ("zero_stride", lambda m: setattr(m.layers[0], "stride", (0, 1))),
]


@pytest.mark.parametrize("name,mutate", MUTATIONS, ids=[n for n, _ in MUTATIONS])
def test_single_field_mutations_rejected(name, mutate):
    model = vgg_tiny(0)
    validate(model)  # fixture itself is accepted
    mutate(model)
    with pytest.raises(ShapeConsistencyError):
        validate(model)


def test_validate_accepts_all_fixtures():
    validate(vgg_tiny(3))
    validate(vgg16_style(3))


def test_clone_graph_is_deep(tiny_model):
    copy = clone_graph(tiny_model)
    copy.layers[0].weights[0, 0, 0, 0] = 123.0
    assert tiny_model.layers[0].weights[0, 0, 0, 0] != 123.0
    assert channel_counts(copy) == channel_counts(tiny_model)


def test_save_rejects_invalid_model(tmp_path, tiny_model):
    tiny_model.layers[1].gamma = np.ones(7, dtype=np.float32)
    with pytest.raises(ShapeConsistencyError):
        save_model(tiny_model, tmp_path / "x.json", tmp_path / "x.bin")


def test_save_is_deterministic(tmp_path, tiny_model):
    a1, w1 = saved(tmp_path, tiny_model, "a")
    a2, w2 = saved(tmp_path, tiny_model, "b")
    assert a1.read_bytes() == a2.read_bytes()
    assert w1.read_bytes() == w2.read_bytes()


def test_every_layer_type_is_registered_and_round_trips_its_record():
    # a new layer type must join the union, the manifest registry and the
    # trainer's kernel table, and read back the record it writes
    assert set(Layer.__args__) == set(LAYER_TYPES.values()) == set(KERNELS)
    rng = np.random.default_rng(0)
    samples = [_conv(rng, 4, 3), ConvLayer(np.ones((4, 3, 3, 2)), np.zeros(4), (2, 1), (1, 0)),
               _bn(4), ReluLayer(), MaxPoolLayer(3, 2), GlobalAvgPoolLayer(),
               _linear(rng, 2, 4), LinearLayer(np.ones((2, 4)))]
    assert {type(ly) for ly in samples} == set(LAYER_TYPES.values())
    for ly in samples:
        cls = type(ly)
        assert LAYER_TYPES[cls.TYPE] is cls
        assert cls.from_record({"type": cls.TYPE, **ly.record()}, 0).record() == ly.record()


# --- exact message text -------------------------------------------------------
#
# One bad graph per structural or value check, each with the full text it
# must raise.  Builders mutate a fresh vgg_tiny: layer 0 a 1->32 conv on
# 1x16x16, 1 its batchnorm, 3 a 32->32 conv, 6 a 2x2 max-pool, 17 the global
# pool and 18 the 64->2 linear head.

def _set(pos, **attrs):
    def mutate(m):
        for attr, value in attrs.items():
            setattr(m.layers[pos], attr, value)
    return mutate


def _insert(pos, layer):
    return lambda m: m.layers.insert(pos, layer)


def _bn_of(n):
    return _set(1, **{attr: np.ones(n, dtype=np.float32) for attr in BatchNormLayer.ARRAYS})


def _fill(pos, attr, index, value):
    def mutate(m):
        arr = getattr(m.layers[pos], attr)
        arr[index] = value
    return mutate


def _ones(*shape):
    return np.ones(shape, dtype=np.float32)


MESSAGES = [
    ("no_conv", lambda m: setattr(m, "layers", [ReluLayer()]), "model has no conv layer"),
    ("input_zero", lambda m: setattr(m, "input_shape", (0, 16, 16)),
     "input shape (0, 16, 16) not positive"),
    ("conv_rank", _set(0, weights=_ones(32, 1, 3)), "layer 0 (ConvLayer): weights must be 4-D"),
    ("conv_zero_dim", _set(0, weights=_ones(32, 1, 0, 3)),
     "layer 0 (ConvLayer): non-positive weight dim"),
    ("conv_bias_rank", _set(0, bias=_ones(32, 1)),
     "layer 0 (ConvLayer) bias must be a 1-D array"),
    ("conv_bias_empty", _set(0, bias=_ones(0)), "layer 0 (ConvLayer) bias must be non-empty"),
    ("conv_bias_length", _set(0, bias=_ones(31)),
     "layer 0 (ConvLayer) bias has length 31, expected 32"),
    ("conv_stride", _set(0, stride=(1, 0)), "layer 0 (ConvLayer): stride must be >= 1"),
    ("conv_padding", _set(0, padding=(0, -1)), "layer 0 (ConvLayer): negative padding"),
    ("conv_on_vector", _insert(18, ConvLayer(_ones(64, 64, 1, 1))),
     "layer 18 (ConvLayer): conv applied to non-spatial input"),
    ("conv_c_in", _set(3, weights=_ones(32, 33, 3, 3)),
     "layer 3 (ConvLayer): c_in 33 != incoming channels 32"),
    ("conv_kernel", _set(0, weights=_ones(32, 1, 19, 3)),
     "layer 0 (ConvLayer): kernel 19x3 too large for 16x16 input"),
    ("bn_gamma_rank", _set(1, gamma=_ones(32, 1)),
     "layer 1 (BatchNormLayer) gamma must be a 1-D array"),
    ("bn_gamma_empty", _set(1, gamma=_ones(0)),
     "layer 1 (BatchNormLayer) gamma must be non-empty"),
    ("bn_beta_length", _set(1, beta=_ones(33)),
     "layer 1 (BatchNormLayer) beta has length 33, expected 32"),
    ("bn_var_not_array", _set(1, running_var=[1.0] * 32),
     "layer 1 (BatchNormLayer) running_var must be a 1-D array"),
    ("bn_eps_zero", _set(1, eps=0.0), "layer 1 (BatchNormLayer): eps must be positive"),
    ("bn_eps_nan", _set(1, eps=float("nan")), "layer 1 (BatchNormLayer): eps must be positive"),
    ("bn_eps_inf", _set(1, eps=float("inf")), "layer 1 (BatchNormLayer): eps must be positive"),
    ("bn_on_vector", _insert(18, BatchNormLayer(*(_ones(64) for _ in range(4)))),
     "layer 18 (BatchNormLayer): batchnorm applied to non-spatial input"),
    ("bn_length", _bn_of(33),
     "layer 1 (BatchNormLayer): batchnorm length 33 != incoming channels 32"),
    ("pool_stride", _set(6, stride=0), "layer 6 (MaxPoolLayer): kernel and stride must be >= 1"),
    ("pool_on_vector", _insert(18, MaxPoolLayer(1, 1)),
     "layer 18 (MaxPoolLayer): maxpool applied to non-spatial input"),
    ("pool_kernel", _set(6, kernel=17),
     "layer 6 (MaxPoolLayer): pool kernel 17 too large for 16x16 input"),
    ("gap_on_vector", _insert(18, GlobalAvgPoolLayer()),
     "layer 18 (GlobalAvgPoolLayer): global pool applied to non-spatial input"),
    ("linear_rank", _set(18, weights=_ones(2, 64, 1)),
     "layer 18 (LinearLayer): weights must be 2-D"),
    ("linear_zero_dim", _set(18, weights=_ones(2, 0)),
     "layer 18 (LinearLayer): non-positive weight dim"),
    ("linear_bias_length", _set(18, bias=_ones(3)),
     "layer 18 (LinearLayer) bias has length 3, expected 2"),
    ("linear_in", _set(18, weights=_ones(2, 63)),
     "layer 18 (LinearLayer): in_features 63 != incoming features 64"),
    ("linear_on_map", lambda m: m.layers.__setitem__(17, ReluLayer()),
     "layer 18 (LinearLayer): in_features 64 != incoming features 1024"),
    ("nan_weight", _fill(3, "weights", (0, 0, 0, 0), np.nan),
     "layer 3 (ConvLayer): non-finite weights"),
    ("inf_bias", _fill(18, "bias", 1, -np.inf), "layer 18 (LinearLayer): non-finite bias"),
    ("nan_running_mean", _fill(1, "running_mean", 5, np.nan),
     "layer 1 (BatchNormLayer): non-finite running_mean"),
    ("negative_running_var", _fill(1, "running_var", 0, -1.0),
     "layer 1 (BatchNormLayer): negative running_var"),
]


@pytest.mark.parametrize("mutate,message", [m[1:] for m in MESSAGES],
                         ids=[m[0] for m in MESSAGES])
def test_every_check_raises_its_exact_message(mutate, message):
    model = vgg_tiny(0)
    mutate(model)
    with pytest.raises(ShapeConsistencyError) as err:
        validate(model)
    assert str(err.value) == message


@pytest.mark.parametrize("precision,big", [("f32", 1e20), ("f64", 1e200)])
def test_a_weight_whose_square_overflows_still_validates(precision, big):
    model = to_precision(vgg_tiny(0), precision)
    w = model.layers[0].weights
    w[0, 0, 0, 0] = big
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(w.ravel(), w.ravel()))  # the one-pass test gives up
    validate(model)


@pytest.mark.parametrize("layout", ["C", "F"])  # an F-order 2-D+ tensor goes to min/max
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("place", ["first", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_end_value_raises_the_exact_message(value, place, precision, layout):
    model = to_precision(vgg_tiny(0), precision)
    for pos, ly in enumerate(model.layers):
        for attr, arr in list(layer_arrays(ly)):
            bad = np.array(arr, order=layout)
            bad.flat[0 if place == "first" else -1] = value
            setattr(ly, attr, bad)
            with pytest.raises(ShapeConsistencyError) as err:
                validate(model)
            assert str(err.value) == f"layer {pos} ({type(ly).__name__}): non-finite {attr}"
            setattr(ly, attr, arr)
    validate(model)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_a_negative_running_var_raises_the_exact_message(precision):
    model = to_precision(vgg_tiny(0), precision)
    for pos, ly in enumerate(model.layers):
        if isinstance(ly, BatchNormLayer):
            ly.running_var[-1] = -1e-30
            with pytest.raises(ShapeConsistencyError) as err:
                validate(model)
            assert str(err.value) == f"layer {pos} (BatchNormLayer): negative running_var"
            ly.running_var[-1] = 1.0


DELETE_FIELD = object()

MANIFEST_MESSAGES = [
    ("kernel_too_large", ("layers", 0, "kernel"), [19, 3], ShapeConsistencyError,
     "layer 0 (ConvLayer): kernel 19x3 too large for 16x16 input"),
    ("zero_channels", ("layers", 1, "channels"), 0, ShapeConsistencyError,
     "layer 1 (BatchNormLayer) gamma must be non-empty"),
    ("kernel_not_a_pair", ("layers", 0, "kernel"), [3, 3, 3], ManifestError,
     "layer 0: 'kernel' must be a pair of integers"),
    ("stride_with_a_float", ("layers", 0, "stride"), [1, 1.0], ManifestError,
     "layer 0: 'stride' must be a pair of integers"),
    ("missing_padding", ("layers", 3, "padding"), DELETE_FIELD, ManifestError,
     "layer 3: missing field 'padding'"),
    ("channels_string", ("layers", 1, "channels"), "32", ManifestError,
     "layer 1: 'channels' must be an integer, got '32'"),
    ("pool_kernel_bool", ("layers", 6, "kernel"), True, ManifestError,
     "layer 6: 'kernel' must be an integer, got True"),
    ("bias_int", ("layers", 18, "bias"), 1, ManifestError,
     "layer 18: 'bias' must be true or false, got 1"),
    ("eps_string", ("layers", 1, "eps"), "x", ManifestError,
     "layer 1: 'eps' must be a number, got 'x'"),
    ("unknown_type", ("layers", 2, "type"), "gelu", ManifestError,
     "layer 2: unknown layer type 'gelu'"),
    ("record_not_an_object", ("layers", 2), [], ManifestError,
     "layer 2: record must be an object with a 'type' field"),
    ("format", ("format",), "nnwm-v2", ManifestError,
     "manifest format must be 'nnwm-v1', got 'nnwm-v2'"),
    ("input", ("input",), [1, 16], ManifestError,
     "manifest 'input' must be [C, H, W] positive integers"),
    ("layers", ("layers",), [], ManifestError, "manifest 'layers' must be a non-empty list"),
]


@pytest.mark.parametrize("path,value,kind,message", [m[1:] for m in MANIFEST_MESSAGES],
                         ids=[m[0] for m in MANIFEST_MESSAGES])
def test_every_manifest_check_raises_its_exact_message(tmp_path, path, value, kind, message):
    arch, _ = saved(tmp_path, vgg_tiny(0))
    doc = json.loads(arch.read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE_FIELD:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    arch.write_text(json.dumps(doc))
    with pytest.raises(kind) as err:
        load_arch(arch)
    assert type(err.value) is kind and str(err.value) == message


@pytest.mark.parametrize("dim, reason", [(-1, "a dimension is negative"),
                                         (10**30, "it is too large to address"),
                                         (2**62, "it is too large to address")],
                         ids=["negative", "10^30", "2^62"])
def test_an_unrepresentable_shape_names_the_layer_and_shape(tmp_path, dim, reason):
    arch = one_conv_manifest(tmp_path, dim, 1, 3)
    with pytest.raises(ManifestError) as err:
        load_arch(arch)
    assert str(err.value) == ("layer 0: cannot represent a tensor of shape "
                              f"({dim}, 1, 3, 3): {reason}")


def test_placeholders_are_zero_views_that_cannot_be_made_writable(tmp_path):
    arch, _ = saved(tmp_path, vgg_tiny(0))
    for ly in load_arch(arch).layers:
        for attr, arr in layer_arrays(ly):
            assert arr.dtype == np.float32 and not any(arr.strides), attr
            with pytest.raises(ValueError):
                arr.flags.writeable = True
