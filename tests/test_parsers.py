"""Receipt and manifest parsers: a malformed field is a typed error, never a crash.

A crash would exit 1, the verify *mismatch* code, so every defect below
must surface as an NnwmError (exit 2).
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nnwm.cli import main
from nnwm.errors import ManifestError, NnwmError, PlanError
from nnwm.fixtures import vgg_tiny
from nnwm.model_store import load_arch, load_model, save_model
from nnwm.pipeline import embed
from nnwm.pruner import Receipt, load_receipt, save_receipt
from nnwm.wm_codec import EmbedParams, WatermarkPayload

BITS = "101100111"  # three 3-bit segments on vgg_tiny's five convs
DELETE = object()


@pytest.fixture(scope="module")
def marked(tmp_path_factory):
    d = tmp_path_factory.mktemp("parsers")
    model, receipt = embed(vgg_tiny(0), WatermarkPayload(BITS, 3),
                           EmbedParams(segment_length=3, key=b"owner"))
    save_model(model, d / "marked.json", d / "marked.bin")
    save_receipt(receipt, d / "r.json")
    return d


def mutated(doc, path, value):
    """Copy of a JSON document with the entry at path replaced, or removed for DELETE."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def paths(doc, prefix=()):
    """Every key path in a JSON document, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out += paths(value, prefix + (key,))
    return out


def verify_rc(receipt, suspect) -> int:
    return main(["verify", "--receipt", str(receipt), "--suspect", str(suspect),
                 "--expect", BITS])


# --- receipts ---------------------------------------------------------------

BAD_RECEIPTS = [
    ("missing_params", ("params",), DELETE),
    ("missing_layer_index", ("layers", 0, "index"), DELETE),
    ("layers_not_a_list", ("layers",), {"0": 1}),
    ("layer_not_an_object", ("layers", 0), 5),
    ("l_string", ("params", "l"), "3"),
    ("l_bool", ("params", "l"), True),
    ("c_fraction", ("layers", 0, "c"), 32.5),
    ("c_pruned_bool", ("layers", 0, "c_pruned"), True),
    ("p_min_string", ("params", "p_min"), "0"),
    ("criterion_number", ("params", "criterion"), 1),
    ("criterion_unknown", ("params", "criterion"), "banana"),
    ("payload_bits_null", ("payload_bits",), None),
    ("negative_index", ("layers", 0, "index"), -1),
    ("c_pruned_negative", ("layers", 0, "c_pruned"), -1),
]


@pytest.mark.parametrize("path,value", [b[1:] for b in BAD_RECEIPTS],
                         ids=[b[0] for b in BAD_RECEIPTS])
def test_bad_receipt_field_is_plan_error(marked, tmp_path, capsys, path, value):
    doc = json.loads((marked / "r.json").read_text())
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps(mutated(doc, path, value)))
    with pytest.raises(PlanError):
        load_receipt(bad)
    assert verify_rc(bad, marked / "marked.json") == 2


@pytest.mark.parametrize("reorder", ["duplicate", "unsorted"])
def test_receipt_indices_must_increase(marked, tmp_path, reorder):
    doc = json.loads((marked / "r.json").read_text())
    if reorder == "duplicate":
        doc["layers"][1]["index"] = doc["layers"][0]["index"]
    else:
        doc["layers"].reverse()
    bad = tmp_path / "r.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(PlanError, match="strictly increasing"):
        load_receipt(bad)


@pytest.mark.parametrize("raw", [b"{not json", b"[1, 2]", b"\xff\xfe\x00", b"null"])
def test_receipt_that_is_not_a_json_object(marked, tmp_path, raw):
    bad = tmp_path / "r.json"
    bad.write_bytes(raw)
    with pytest.raises(PlanError):
        load_receipt(bad)
    assert verify_rc(bad, marked / "marked.json") == 2


def test_receipt_accepts_ints_where_floats_are_expected(marked, tmp_path):
    doc = json.loads((marked / "r.json").read_text())
    doc["params"]["p_min"] = 0
    doc["params"]["p_max"] = 1
    doc["params"]["l"] = 2
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    receipt = load_receipt(path)
    assert (receipt.p_min, receipt.p_max) == (0.0, 1.0)
    assert isinstance(receipt.p_min, float)


def test_receipt_criterion_is_parsed_like_the_flag(marked, tmp_path):
    doc = json.loads((marked / "r.json").read_text())
    path = tmp_path / "r.json"
    path.write_text(json.dumps(mutated(doc, ("params", "criterion"), "l1")))
    assert load_receipt(path).criterion == "l1_norm"
    assert main(["verify", "--receipt", str(path), "--suspect", str(marked / "marked.json"),
                 "--expect", BITS, "--criterion", "l1"]) == 0


# --- manifests --------------------------------------------------------------

INT_FIELDS = [("conv2d", "out_channels"), ("conv2d", "in_channels"),
              ("batchnorm", "channels"), ("linear", "out"), ("linear", "in"),
              ("maxpool", "kernel"), ("maxpool", "stride")]


def first_record(doc, kind):
    return next(i for i, rec in enumerate(doc["layers"]) if rec["type"] == kind)


@pytest.mark.parametrize("kind,key", INT_FIELDS, ids=[f"{k}.{f}" for k, f in INT_FIELDS])
@pytest.mark.parametrize("value", ["abc", 32.9, True], ids=["string", "fraction", "bool"])
def test_manifest_int_fields_must_be_json_ints(marked, tmp_path, kind, key, value):
    doc = json.loads((marked / "marked.json").read_text())
    doc["layers"][first_record(doc, kind)][key] = value
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=key):
        load_arch(bad)


@pytest.mark.parametrize("kind,key,value", [
    ("conv2d", "bias", 1), ("linear", "bias", "yes"), ("conv2d", "bias", None),
    ("batchnorm", "eps", "abc"), ("batchnorm", "eps", True),
    pytest.param("batchnorm", "eps", 10**400, id="batchnorm-eps-1e400")])
def test_manifest_bias_and_eps_types(marked, tmp_path, kind, key, value):
    doc = json.loads((marked / "marked.json").read_text())
    doc["layers"][first_record(doc, kind)][key] = value
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=key):
        load_arch(bad)


def test_manifest_input_rejects_bools(marked, tmp_path):
    doc = json.loads((marked / "marked.json").read_text())
    doc["input"] = [True, 16, 16]
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_arch(bad)


def test_manifest_accepts_int_eps(marked, tmp_path):
    doc = json.loads((marked / "marked.json").read_text())
    pos = first_record(doc, "batchnorm")
    doc["layers"][pos]["eps"] = 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert load_model(path, marked / "marked.bin").layers[pos].eps == 1.0


@pytest.mark.parametrize("dim", [2**31, 10**30], ids=["2^31", "10^30"])
@pytest.mark.parametrize("command", ["verify", "extract", "embed"])
def test_huge_manifest_dimension_exits_two(marked, tmp_path, capsys, command, dim):
    doc = json.loads((marked / "marked.json").read_text())
    doc["layers"][first_record(doc, "conv2d")]["out_channels"] = dim
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    receipt = marked / "r.json"
    argv = {
        "verify": ["verify", "--receipt", receipt, "--suspect", bad, "--expect", BITS],
        "extract": ["extract", "--receipt", receipt, "--suspect", bad],
        "embed": ["embed", "--arch", bad, "--weights", marked / "marked.bin",
                  "--payload", "101", "--key", "k", "--out-prefix", tmp_path / "e",
                  "--receipt", tmp_path / "er.json"],
    }[command]
    assert main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("name", [[1, 2], 7, None, {"a": 1}], ids=["list", "int", "null", "object"])
def test_manifest_name_must_be_a_string(marked, tmp_path, capsys, name):
    doc = json.loads((marked / "marked.json").read_text())
    doc["name"] = name
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="'name' must be a string"):
        load_arch(bad)
    assert verify_rc(marked / "r.json", bad) == 2
    assert "'name' must be a string" in capsys.readouterr().err


def test_manifest_name_is_optional_and_round_trips(marked, tmp_path):
    doc = json.loads((marked / "marked.json").read_text())
    path = tmp_path / "m.json"
    for name, want in ((DELETE, "model"), ("héllo [1, 2]", "héllo [1, 2]")):
        path.write_text(json.dumps(mutated(doc, ("name",), name)))
        assert load_arch(path).name == want


# --- one-field fuzzing ------------------------------------------------------

def json_values(ints):
    leaves = st.one_of(st.none(), st.booleans(), ints, st.floats(), st.text(max_size=4))
    return st.one_of(leaves, st.lists(leaves, max_size=3),
                     st.dictionaries(st.text(max_size=3), leaves, max_size=2))


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.data())
def test_fuzz_one_receipt_field(marked, capsys, data):
    doc = json.loads((marked / "r.json").read_text())
    path = data.draw(st.sampled_from(paths(doc)))
    value = data.draw(st.one_of(st.just(DELETE), json_values(st.integers())))
    text = json.dumps(mutated(doc, path, value))
    try:
        Receipt.from_json(text)
    except NnwmError:
        pass
    fuzzed = marked / "fuzz-r.json"
    fuzzed.write_text(text)
    assert verify_rc(fuzzed, marked / "marked.json") in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_fuzz_one_manifest_field(marked, capsys, data):
    doc = json.loads((marked / "marked.json").read_text())
    path = data.draw(st.sampled_from(paths(doc)))
    value = data.draw(st.one_of(st.just(DELETE), json_values(st.integers())))
    fuzzed = marked / "fuzz-m.json"
    fuzzed.write_text(json.dumps(mutated(doc, path, value)))
    for load in (lambda: load_arch(fuzzed), lambda: load_model(fuzzed, marked / "marked.bin")):
        try:
            load()
        except NnwmError:
            pass
    assert verify_rc(marked / "r.json", fuzzed) in (0, 1, 2)


# --- blob fuzzing -----------------------------------------------------------

@FUZZ
@given(data=st.data())
def test_fuzz_blob_bytes(marked, capsys, data):
    blob = bytearray((marked / "marked.bin").read_bytes())
    edit = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
    if edit == "flip":
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[pos] ^= data.draw(st.integers(1, 255))
    elif edit == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=16))
    fuzzed = marked / "fuzz.bin"
    fuzzed.write_bytes(bytes(blob))
    try:
        load_model(marked / "marked.json", fuzzed)
    except NnwmError:
        pass
    rc = main(["inspect", "--scores", "--arch", str(marked / "marked.json"),
               "--weights", str(fuzzed)])
    assert rc in (0, 2)
