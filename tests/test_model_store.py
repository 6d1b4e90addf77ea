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
from nnwm.toy_trainer import KERNELS


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
    _, last = list(layer_arrays(tiny_model.layers[-1]))[-1]
    weights.write_bytes(weights.read_bytes()[:-4 * last.size if whole else -4])
    monkeypatch.setattr(model_store.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
    with pytest.raises(BlobSizeError, match="ended inside layer"):
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
