"""CLI tests: flows, exit codes, JSON output."""

import dataclasses
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nnwm import cli, model_store, pipeline, pruner, wm_codec
from nnwm.cli import main
from nnwm.errors import NnwmError
from nnwm.fixtures import random_conv_net, vgg16_style, vgg_tiny
from nnwm.model_store import (
    BLOB_HEADER,
    conv_layer_indices,
    layer_arrays,
    layer_floats,
    load_arch,
    load_model,
    save_model,
    write_manifest,
)
from nnwm.toy_trainer import TrainConfig, finetune, synth_dataset
from nnwm.wm_codec import EmbedParams, WatermarkPayload

BITS48 = "110100101011110000101001101111000010100110111100"


@pytest.fixture(scope="module")
def host(tmp_path_factory):
    d = tmp_path_factory.mktemp("host")
    save_model(vgg16_style(0), d / "host.json", d / "host.bin")
    return d


@pytest.fixture(scope="module")
def marked(host):
    rc = main(["embed", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"),
               "--payload", BITS48, "--key", "owner", "--l", "3",
               "--out-prefix", str(host / "marked"),
               "--receipt", str(host / "r.json")])
    assert rc == 0
    return host


def test_embed_writes_model_and_receipt(marked, capsys):
    capsys.readouterr()
    model = load_model(marked / "marked.json", marked / "marked.bin")
    assert model.name == "vgg16-style"
    doc = json.loads((marked / "r.json").read_text())
    assert doc["format"] == "nnwm-receipt-v1"
    assert doc["payload_bits"] == 48
    assert doc["params"]["criterion"] == "l1_norm"
    assert len(doc["layers"]) == 16


def test_embed_prints_summary(host, capsys):
    rc = main(["embed", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"),
               "--payload", "101101", "--key", "owner2", "--l", "3",
               "--out-prefix", str(host / "m2"), "--receipt", str(host / "r2.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "m=2" in out
    assert "2 of 16 eligible" in out
    assert "N=48" in out


def test_extract_prints_bits(marked, capsys):
    rc = main(["extract", "--original", str(marked / "host.json"),
               "--suspect", str(marked / "marked.json"),
               "--key", "owner", "--n", "48", "--l", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == BITS48


def test_extract_via_receipt(marked, capsys):
    rc = main(["extract", "--receipt", str(marked / "r.json"),
               "--suspect", str(marked / "marked.json")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == BITS48


def receipt_argv(command, marked, out_dir, *flags):
    """extract, verify or attack --expect on the marked model, by receipt."""
    source = ["--receipt", str(marked / "r.json"), *flags]
    suspect = ["--suspect", str(marked / "marked.json")]
    return {"extract": ["extract", *suspect, *source],
            "verify": ["verify", *suspect, "--expect", BITS48, *source],
            "attack": ["attack", "--type", "noise", "--sigma", "0",
                       "--arch", str(marked / "marked.json"),
                       "--weights", str(marked / "marked.bin"),
                       "--out-prefix", str(out_dir / "atk-flags"),
                       "--expect", BITS48, *source]}[command]


@pytest.mark.parametrize("command", ["extract", "verify", "attack"])
@pytest.mark.parametrize("flag, value, pinned", [
    ("--n", "999", "48"), ("--l", "7", "3"), ("--pmax", "inf", "0.7"),
    ("--criterion", "bn", "l1_norm")], ids=["n", "l", "pmax", "criterion"])
def test_receipt_with_other_flag_exit_two(marked, capsys, tmp_path, command, flag, value,
                                          pinned):
    rc = main(receipt_argv(command, marked, tmp_path, flag, value))
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: {flag} {value} does not match the receipt's {pinned}")
    assert list(tmp_path.iterdir()) == []  # attack checks the flags before it attacks


@pytest.mark.parametrize("command", ["extract", "verify", "attack"])
def test_receipt_equal_flags_accepted(marked, capsys, tmp_path, command):
    rc = main(receipt_argv(command, marked, tmp_path, "--l", "3", "--pmax", "0.7",
                           "--criterion", "l1", "--n", "48", "--json"))
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.rindex('{\n  "command"'):])  # attack prints two documents
    assert doc["bits" if command == "extract" else "extracted"] == BITS48


@pytest.mark.parametrize("argv", [
    ["extract", "--suspect", "s.json", "--original", "o.json", "--receipt", "r.json"],
    ["verify", "--suspect", "s.json", "--expect", "1", "--original", "o.json",
     "--receipt", "r.json"],
    ["capacity", "--t", "5", "--arch", "host.json", "--l", "3", "--rcov", "1"],
    ["capacity", "--l", "3", "--rcov", "1"]])
def test_exclusive_inputs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2  # argparse: not allowed with / one of the arguments


def test_receipt_carrier_beyond_suspect_exit_two(marked, tiny_host, capsys):
    # the receipt marks all 16 convs of vgg16_style; vgg_tiny has 5
    rc = main(["extract", "--receipt", str(marked / "r.json"),
               "--suspect", str(tiny_host / "tiny.json")])
    assert rc == 2
    assert "suspect has only 5" in capsys.readouterr().err


def test_verify_match_exit_zero(marked, capsys):
    rc = main(["verify", "--original", str(marked / "host.json"),
               "--suspect", str(marked / "marked.json"),
               "--key", "owner", "--n", "48", "--l", "3", "--expect", BITS48])
    out = capsys.readouterr().out
    assert rc == 0
    assert "BER 0.000000" in out and "match" in out


def test_verify_wrong_key_mismatch_exit_one(host, capsys, tmp_path):
    # partial coverage (8 of 16 layers), so the key governs the selection
    bits = BITS48[:24]
    rc = main(["embed", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"),
               "--payload", bits, "--key", "owner", "--l", "3",
               "--out-prefix", str(tmp_path / "part"),
               "--receipt", str(tmp_path / "part-receipt.json")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", "--original", str(host / "host.json"),
               "--suspect", str(tmp_path / "part.json"),
               "--key", "intruder", "--n", "24", "--l", "3", "--expect", bits])
    assert rc == 1
    assert "mismatch" in capsys.readouterr().out


def test_verify_n_expect_mismatch_exit_two(marked, capsys):
    rc = main(["verify", "--original", str(marked / "host.json"),
               "--suspect", str(marked / "marked.json"),
               "--key", "owner", "--n", "47", "--l", "3", "--expect", BITS48])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_key_is_usage_error(marked, capsys):
    rc = main(["extract", "--original", str(marked / "host.json"),
               "--suspect", str(marked / "marked.json"), "--n", "48", "--l", "3"])
    assert rc == 2
    assert "--key" in capsys.readouterr().err


def test_payload_beyond_capacity_exit_two(host, capsys):
    rc = main(["embed", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"),
               "--payload", "1" * 51, "--key", "k", "--l", "3",
               "--out-prefix", str(host / "nope"), "--receipt", str(host / "nope.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "17" in err and "16" in err  # required m vs eligible detail


def test_capacity_prints_table_value(capsys):
    assert main(["capacity", "--t", "162", "--l", "2", "--rcov", "0.4"]) == 0
    assert capsys.readouterr().out.strip() == "130"


@pytest.mark.parametrize("l, rc", [(32, 0), (33, 2)])
def test_capacity_segment_length_bound_matches_embed(capsys, l, rc):
    assert main(["capacity", "--t", "16", "--l", str(l), "--rcov", "1"]) == rc
    out = capsys.readouterr()
    if rc == 0:
        assert out.out.strip() == str(16 * l)
    else:
        assert "segment length must lie in [1, 32]" in out.err


def test_capacity_json(capsys):
    assert main(["capacity", "--t", "39", "--l", "3", "--rcov", "0.6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"command": "capacity", "t": 39, "l": 3, "r_cov": 0.6,
                   "capacity_bits": 69}


@pytest.fixture(scope="module")
def narrow_host(tmp_path_factory):
    """Conv widths [18, 14, 12, 8, 9, 4]: 3 eligible at l=3 over [0, 0.7)."""
    d = tmp_path_factory.mktemp("narrow")
    save_model(random_conv_net(0, n_convs=6, c_lo=4, c_hi=20), d / "h.json", d / "h.bin")
    return d


def test_capacity_arch_counts_only_eligible_layers(narrow_host, capsys, tmp_path):
    arch = str(narrow_host / "h.json")
    assert main(["capacity", "--arch", arch, "--l", "3", "--rcov", "1.0"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    # embed accepts exactly that many bits at full coverage
    for bits, rc in (("101" * 3, 0), ("101" * 4, 2)):
        assert main(["embed", "--arch", arch, "--weights", str(narrow_host / "h.bin"),
                     "--payload", bits, "--key", "k", "--l", "3",
                     "--out-prefix", str(tmp_path / "m"),
                     "--receipt", str(tmp_path / "r.json")]) == rc
    assert "3 eligible" in capsys.readouterr().err


def test_capacity_arch_takes_the_scheme_flags(narrow_host, capsys):
    arch = str(narrow_host / "h.json")
    # a wider rate range lets narrower layers decode; every conv is followed by a batchnorm
    assert main(["capacity", "--arch", arch, "--l", "1", "--rcov", "1.0", "--pmax", "0.9",
                 "--criterion", "bn", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "t", "l", "r_cov", "capacity_bits"}
    assert doc["t"] == 6 and doc["capacity_bits"] == 6
    # at l=5 no layer is wide enough: the error says why, not "count must be >= 1"
    assert main(["capacity", "--arch", arch, "--l", "5", "--rcov", "1.0"]) == 2
    assert "6 conv layers total, 6 narrower than" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--pmin", "0"), ("--pmax", "0.7"),
                                         ("--criterion", "bn")])
def test_capacity_t_with_scheme_flag_exit_two(capsys, flag, value):
    assert main(["capacity", "--t", "5", "--l", "3", "--rcov", "1", flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: used only by capacity --arch")


def test_inspect_unmarked_pair_all_zero(host, capsys):
    rc = main(["inspect", "--original", str(host / "host.json"),
               "--suspect", str(host / "host.json"), "--l", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(row["rate"] == 0.0 for row in doc["layers"])
    assert len(doc["layers"]) == 16


def test_inspect_marked_pair_decodes(marked, capsys):
    rc = main(["inspect", "--original", str(marked / "host.json"),
               "--suspect", str(marked / "marked.json"), "--l", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    values = [row["value"] for row in doc["layers"]]
    expected = [int(BITS48[i:i + 3], 2) for i in range(0, 48, 3)]
    assert values == expected


def test_inspect_scores(host, capsys):
    rc = main(["inspect", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"), "--scores",
               "--criterion", "l1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["layers"]) == 16
    assert len(doc["layers"][0]["scores"]) == 32


def test_attack_then_chained_verify(marked, capsys):
    rc = main(["attack", "--type", "noise", "--sigma", "0.1",
               "--arch", str(marked / "marked.json"),
               "--weights", str(marked / "marked.bin"),
               "--out-prefix", str(marked / "atk"),
               "--expect", BITS48, "--receipt", str(marked / "r.json"),
               "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "BER 0.000000" in out


def test_attack_unknown_type_exit_two(marked, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--type", "melt", "--arch", str(marked / "marked.json"),
              "--weights", str(marked / "marked.bin"),
              "--out-prefix", str(marked / "x")])
    assert exc.value.code == 2  # argparse rejects unknown choices


@pytest.mark.parametrize("theta", ["nan", "-0.1", "1.5"])
def test_verify_bad_theta_exit_two(marked, capsys, theta):
    rc = main(["verify", "--receipt", str(marked / "r.json"),
               "--suspect", str(marked / "marked.json"),
               "--expect", BITS48, "--theta", theta])
    assert rc == 2
    assert "theta" in capsys.readouterr().err


def test_attack_expect_bad_theta_exit_two(marked, capsys, tmp_path):
    rc = main(["attack", "--type", "noise", "--sigma", "0.0",
               "--arch", str(marked / "marked.json"),
               "--weights", str(marked / "marked.bin"),
               "--out-prefix", str(tmp_path / "atk-theta"),
               "--expect", BITS48, "--receipt", str(marked / "r.json"),
               "--theta", "nan"])
    assert rc == 2
    assert "theta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # checked before the attack


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if any fine-tuning starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("training started before the flags were checked")
    monkeypatch.setattr("nnwm.cli.finetune", refuse)


@pytest.mark.parametrize("flags", [["--epochs", "-1"], ["--finetune-epochs", "-2"],
                                   ["--seed", "-1"]])
def test_train_demo_bad_epochs_exit_two(no_training, capsys, flags):
    rc = main(["train-demo", "--seed", "0", *flags])
    assert rc == 2
    # "--finetune-epochs" -> "epochs must be >= 0", "--seed" -> "seed must be >= 0"
    assert f"{flags[0].rsplit('-', 1)[1]} must be >= 0" in capsys.readouterr().err


def test_train_demo_capacity_checked_before_training(no_training, capsys):
    rc = main(["train-demo", "--l", "5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: capacity exceeded: 5 segment(s) required, 3 eligible")


def test_train_demo_bad_segment_length_exit_two(no_training, capsys):
    rc = main(["train-demo", "--l", "-1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: segment length")


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_train_demo_bad_metrics_csv_exit_two_before_training(no_training, capsys,
                                                            tmp_path, where):
    path = tmp_path / "absent" / "m.csv" if where == "missing_dir" else tmp_path
    rc = main(["train-demo", "--metrics-csv", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and str(path) in err


@pytest.mark.parametrize("command", ["train-demo", "embed", "noise", "structural",
                                     "finetune"])
def test_negative_nnwm_seed_exit_two(no_training, tiny_host, monkeypatch, capsys,
                                     tmp_path, command):
    monkeypatch.setenv("NNWM_SEED", "-1")
    host = ["--arch", str(tiny_host / "tiny.json"), "--weights", str(tiny_host / "tiny.bin"),
            "--out-prefix", str(tmp_path / "m")]
    argv = {"train-demo": ["train-demo"],
            "embed": ["embed", *host, "--payload", "101", "--key", "k",
                      "--finetune-epochs", "1", "--receipt", str(tmp_path / "r.json")]
            }.get(command, ["attack", "--type", command, *host])
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == "error: NNWM_SEED must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_embed_bad_finetune_epochs_exit_two(no_training, tiny_host, capsys, tmp_path):
    rc = main(["embed", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"),
               "--payload", "101", "--key", "k", "--l", "3",
               "--finetune-epochs", "-3", "--out-prefix", str(tmp_path / "m"),
               "--receipt", str(tmp_path / "r.json")])
    assert rc == 2
    assert "epochs must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flags", [
    ["--type", "finetune", "--lr", "nan"], ["--type", "finetune", "--lr", "-0.1"],
    ["--type", "finetune", "--lr", "inf"], ["--type", "finetune", "--epochs", "-1"],
    ["--type", "noise", "--sigma", "-1"], ["--type", "zero", "--fraction", "2"],
    ["--type", "structural", "--extra-rate", "1.5"], ["--type", "noise", "--seed", "-1"],
    ["--type", "structural", "--seed", "-1"], ["--type", "finetune", "--seed", "-1"]])
def test_attack_finetune_bad_flags_exit_two(no_training, tiny_host, capsys, tmp_path,
                                            flags):
    rc = main(["attack", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"),
               "--out-prefix", str(tmp_path / "a"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "a.json").exists()


ATTACK_OWN_FLAGS = {"noise": ["--sigma"], "zero": ["--fraction"],
                    "finetune": ["--epochs", "--lr"], "structural": ["--extra-rate"]}


@pytest.mark.parametrize("kind, flag, value", [
    (kind, flag, value) for kind in ATTACK_OWN_FLAGS
    for flag, value in [("--sigma", "5"), ("--fraction", "0.5"), ("--epochs", "3"),
                        ("--lr", "0.01"), ("--extra-rate", "0.1")]
    if flag not in ATTACK_OWN_FLAGS[kind]])
def test_attack_flag_of_another_type_exit_two(tiny_host, capsys, tmp_path, kind, flag, value):
    # --seed is valid with every type
    rc = main(["attack", "--type", kind, "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--out-prefix", str(tmp_path / "a"),
               flag, value, "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag}: not used by attack --type {kind}"]
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def unfit_hosts(tmp_path_factory):
    """Valid models the 2-class 1x16x16 synthetic task cannot train."""
    d = tmp_path_factory.mktemp("unfit")
    one_way = vgg_tiny(0)
    head = one_way.layers[-1]
    head.weights, head.bias = head.weights[:1], head.bias[:1]
    conv_ended = vgg_tiny(0)
    conv_ended.layers = conv_ended.layers[:-2]
    for name, model in [("one_way_head", one_way), ("conv_ended", conv_ended),
                        ("vgg16_style", vgg16_style(0))]:
        save_model(model, d / f"{name}.json", d / f"{name}.bin")
    return d


@pytest.mark.parametrize("command", ["attack", "embed"])
@pytest.mark.parametrize("model", ["one_way_head", "conv_ended", "vgg16_style"])
def test_finetune_unfit_model_exit_two(unfit_hosts, capsys, tmp_path, monkeypatch,
                                      model, command):
    def embed_runs(*args, **kwargs):
        raise AssertionError("embed ran before the fit check")

    monkeypatch.setattr(pipeline, "embed_stream", embed_runs)
    host = ["--arch", str(unfit_hosts / f"{model}.json"),
            "--weights", str(unfit_hosts / f"{model}.bin"),
            "--out-prefix", str(tmp_path / "m")]
    argv = {"attack": ["attack", "--type", "finetune", "--epochs", "1", *host],
            "embed": ["embed", *host, "--payload", "101", "--key", "k",
                      "--finetune-epochs", "1", "--receipt", str(tmp_path / "r.json")]}
    rc = main(argv[command])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: model ")
    assert list(tmp_path.iterdir()) == []


def test_attack_overflowing_noise_exit_two(tiny_host, capsys, recwarn, tmp_path):
    rc = main(["attack", "--type", "noise", "--sigma", "1e300",
               "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"),
               "--out-prefix", str(tmp_path / "a")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: noise sigma 1e+300 overflows")
    assert not recwarn.list, [str(w.message) for w in recwarn]
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def huge_host(tmp_path_factory):
    """vgg_tiny(0) with one weight of 1e20: valid, though its float32 self-dot overflows."""
    d = tmp_path_factory.mktemp("huge")
    model = vgg_tiny(0)
    model.layers[0].weights[0, 0, 0, 0] = 1e20
    save_model(model, d / "huge.json", d / "huge.bin")
    return d


def test_attack_noise_on_huge_weights(huge_host, capsys, tmp_path):
    host = ["--arch", str(huge_host / "huge.json"), "--weights", str(huge_host / "huge.bin")]
    assert main(["attack", "--type", "noise", "--sigma", "0", *host,
                 "--out-prefix", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (huge_host / "huge.bin").read_bytes()
    assert main(["attack", "--type", "noise", "--sigma", "0.1", *host,
                 "--out-prefix", str(tmp_path / "b")]) == 0
    noisy = load_model(tmp_path / "b.json", tmp_path / "b.bin")
    assert all(np.isfinite(arr).all() for ly in noisy.layers for _, arr in layer_arrays(ly))
    assert capsys.readouterr().err == ""


FUZZ_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, -0.0, 0.0, 5e-324,
                     1e-310, 1e308, 0.5, 1.0]),
    st.floats(0.0, 1.0), st.floats())
FUZZ_INTS = st.one_of(st.sampled_from([-1, 0, 2**63, 2**64 + 1, -2**63 - 1]),
                      st.integers(-2**128, 2**128))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["noise", "zero", "structural"]),
       values=st.fixed_dictionaries({}, optional={
           "--sigma": FUZZ_FLOATS, "--fraction": FUZZ_FLOATS, "--extra-rate": FUZZ_FLOATS,
           "--seed": FUZZ_INTS}),
       theta=st.none() | FUZZ_FLOATS)
def test_fuzz_attack_flags(tiny_host, capsys, kind, values, theta):
    # --theta comes with a chained verify, without which it exits 2 on its own
    capsys.readouterr()
    inputs = {p: p.read_bytes() for p in (tiny_host / "tiny.json", tiny_host / "tiny.bin")}
    flags = [f"{flag}={value}" for flag, value in values.items()]  # "=" passes "-inf"
    if theta is not None:
        flags += [f"--theta={theta}", "--expect", "000",
                  "--original", str(tiny_host / "tiny.json"), "--key", "k", "--n", "3"]
    with tempfile.TemporaryDirectory() as out:
        rc = main(["attack", "--type", kind, "--arch", str(tiny_host / "tiny.json"),
                   "--weights", str(tiny_host / "tiny.bin"),
                   "--out-prefix", str(Path(out) / "a"), *flags])
        assert rc in (0, 1, 2)
        if rc == 2:
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert list(Path(out).iterdir()) == []
    assert {p: p.read_bytes() for p in inputs} == inputs


def test_attack_diverging_finetune_exit_two(tiny_host, capsys, recwarn, tmp_path):
    rc = main(["attack", "--type", "finetune", "--lr", "1e6", "--epochs", "1",
               "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"),
               "--out-prefix", str(tmp_path / "a")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged")
    assert "RuntimeWarning" not in err
    assert not recwarn.list, [str(w.message) for w in recwarn]
    assert not (tmp_path / "a.json").exists() and not (tmp_path / "a.bin").exists()


def test_hex_key_and_payload(host, capsys, tmp_path):
    rc = main(["embed", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"),
               "--payload", "hex:a5", "--key", "hex:00ff",
               "--l", "2", "--out-prefix", str(tmp_path / "hx"),
               "--receipt", str(tmp_path / "hxr.json")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["extract", "--receipt", str(tmp_path / "hxr.json"),
               "--suspect", str(tmp_path / "hx.json")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "10100101"  # hex:a5 as bits
    rc = main(["extract", "--original", str(host / "host.json"),
               "--suspect", str(tmp_path / "hx.json"),
               "--key", "hex:00ff", "--n", "8", "--l", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "10100101"


def test_empty_key_marks_and_verifies_from_the_original(host, capsys, tmp_path):
    rc = main(["embed", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"),
               "--payload", "101101", "--key", "", "--l", "3",
               "--out-prefix", str(tmp_path / "ek"), "--receipt", str(tmp_path / "ekr.json")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", "--original", str(host / "host.json"),
               "--suspect", str(tmp_path / "ek.json"),
               "--key", "", "--n", "6", "--l", "3", "--expect", "101101"])
    assert rc == 0, capsys.readouterr().err
    assert "BER 0.000000" in capsys.readouterr().out


def test_payload_from_file(host, capsys, tmp_path):
    payload_file = tmp_path / "payload.txt"
    payload_file.write_text("101101\n")
    rc = main(["embed", "--arch", str(host / "host.json"),
               "--weights", str(host / "host.bin"),
               "--payload", f"@{payload_file}", "--key", "k", "--l", "3",
               "--out-prefix", str(tmp_path / "pf"),
               "--receipt", str(tmp_path / "pfr.json")])
    assert rc == 0
    capsys.readouterr()
    rc = main(["extract", "--receipt", str(tmp_path / "pfr.json"),
               "--suspect", str(tmp_path / "pf.json")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "101101"


@pytest.mark.parametrize("expect, message", [("102", " must be a '0'/'1' string"),
                                             ("hex:zz", ": invalid hex string 'zz'")],
                         ids=["bits", "hex"])
def test_bad_expect_names_its_flag(marked, capsys, expect, message):
    rc = main(["verify", "--receipt", str(marked / "r.json"),
               "--suspect", str(marked / "marked.json"), "--expect", expect])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: --expect{message}")


def test_payload_file_not_utf8_exit_two(tiny_host, capsys, tmp_path):
    payload_file = tmp_path / "payload.bin"
    payload_file.write_bytes(b"\xff\xfe101")
    rc = main(["embed", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"),
               "--payload", f"@{payload_file}", "--key", "k", "--l", "3",
               "--out-prefix", str(tmp_path / "m"), "--receipt", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --payload file")
    assert not (tmp_path / "r.json").exists()


def test_payload_file_path_with_nul_exit_two(tiny_host, capsys, tmp_path):
    # argv from a shell cannot hold a NUL, but an in-process caller of main can pass one
    rc = main(["embed", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--payload", "@a\x00b",
               "--key", "k", "--out-prefix", str(tmp_path / "m"),
               "--receipt", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: --payload file 'a\\x00b': embedded null byte\n"
    assert list(tmp_path.iterdir()) == []


def _valid_runs(host: Path, marked: Path, out: Path) -> list[list[str]]:
    """One valid argv for each way each command takes its path flags."""
    arch, weights = str(host / "tiny.json"), str(host / "tiny.bin")
    suspect = ["--suspect", str(marked / "m.json")]
    sources = [["--receipt", str(marked / "r.json")],
               ["--original", arch, "--key", "k", "--n", "6"]]
    attack = ["attack", "--type", "zero", "--arch", arch, "--weights", weights,
              "--out-prefix", str(out / "a"), "--expect", "101100"]
    return [["embed", "--arch", arch, "--weights", weights, "--payload", "101", "--key", "k",
             "--out-prefix", str(out / "m"), "--receipt", str(out / "r.json")],
            *(["extract", *suspect, *source] for source in sources),
            *(["verify", *suspect, *source, "--expect", "101100"] for source in sources),
            ["capacity", "--arch", arch, "--l", "3", "--rcov", "1"],
            ["inspect", "--original", arch, *suspect],
            ["inspect", "--scores", "--arch", arch, "--weights", weights],
            *([*attack, *source] for source in sources),
            ["train-demo", "--epochs", "0", "--finetune-epochs", "0",
             "--metrics-csv", str(out / "metrics.csv")]]


PATH_FLAGS = [("embed", "--arch"), ("embed", "--weights"), ("embed", "--out-prefix"),
              ("embed", "--receipt"), ("extract", "--suspect"), ("extract", "--receipt"),
              ("extract", "--original"), ("verify", "--suspect"), ("verify", "--receipt"),
              ("verify", "--original"), ("capacity", "--arch"), ("inspect", "--original"),
              ("inspect", "--suspect"), ("inspect", "--arch"), ("inspect", "--weights"),
              ("attack", "--arch"), ("attack", "--weights"), ("attack", "--out-prefix"),
              ("attack", "--receipt"), ("attack", "--original"), ("train-demo", "--metrics-csv")]


@pytest.mark.parametrize("command, flag", PATH_FLAGS, ids=[" ".join(p) for p in PATH_FLAGS])
def test_path_flag_with_nul_is_a_usage_error(tiny_host, tiny_marked, capsys, tmp_path,
                                             command, flag):
    # argv from a shell cannot hold a NUL, but an in-process caller of main can pass one
    inputs = {p: p.read_bytes() for d in (tiny_host, tiny_marked) for p in d.iterdir()}
    argv = next(a for a in _valid_runs(tiny_host, tiny_marked, tmp_path)
                if a[0] == command and flag in a)
    argv[argv.index(flag) + 1] = "a\x00b"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: path 'a\\x00b' holds a NUL byte\n")
    assert list(tmp_path.iterdir()) == []
    assert {p: p.read_bytes() for d in (tiny_host, tiny_marked) for p in d.iterdir()} == inputs


@pytest.mark.parametrize("command", ["embed", "extract", "verify", "attack"])
def test_key_not_utf8_exit_two(tiny_host, capsys, tmp_path, command):
    # "\udcff" is how Python hands over the argv byte 0xff that is not UTF-8
    arch, weights = str(tiny_host / "tiny.json"), str(tiny_host / "tiny.bin")
    extract = ["--original", arch, "--suspect", arch, "--key", "\udcff", "--n", "3"]
    argv = {"embed": ["embed", "--arch", arch, "--weights", weights, "--payload", "101",
                      "--key", "\udcff", "--out-prefix", str(tmp_path / "m"),
                      "--receipt", str(tmp_path / "r.json")],
            "extract": ["extract", *extract],
            "verify": ["verify", *extract, "--expect", "101"],
            "attack": ["attack", "--type", "zero", "--arch", arch, "--weights", weights,
                       "--out-prefix", str(tmp_path / "a"), "--expect", "101",
                       "--original", arch, "--key", "\udcff", "--n", "3"]}[command]
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --key")
    assert list(tmp_path.iterdir()) == []


def test_train_demo_small(capsys, tmp_path):
    csv = tmp_path / "metrics.csv"
    rc = main(["train-demo", "--seed", "0", "--epochs", "2",
               "--finetune-epochs", "2", "--l", "3", "--json",
               "--metrics-csv", str(csv)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ber"] == 0.0 and doc["matched"] is True
    assert doc["payload_bits"] == 15
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,test_accuracy"
    assert len(lines) == 1 + 4
    # the last epoch of each phase scores the model that --json reports on
    assert lines[2].split(",")[2] == f"{doc['baseline_accuracy']:.6f}"
    assert lines[4].split(",")[2] == f"{doc['marked_accuracy']:.6f}"


def test_main_builds_parser_once(capsys):
    cli.build_parser.cache_clear()
    for t in ("5", "6", "7"):
        assert main(["capacity", "--t", t, "--l", "2", "--rcov", "1"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert capsys.readouterr().out.split() == ["10", "12", "14"]


def test_main_reads_nnwm_seed_per_call(monkeypatch, capsys):
    seeds = []

    def stop(seed):
        seeds.append(seed)
        raise NnwmError("stop before training")

    monkeypatch.setattr("nnwm.cli.vgg_tiny", stop)
    for env in ("11", "12", "not-a-number", "-1"):
        monkeypatch.setenv("NNWM_SEED", env)
        assert main(["train-demo"]) == 2
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "error: NNWM_SEED must be an integer, got 'not-a-number'",
        "error: NNWM_SEED must be >= 0, got -1"]
    assert main(["train-demo", "--seed", "5"]) == 2
    assert seeds == [11, 12, 5]


def test_scheme_flag_does_not_leak_into_next_call(marked, capsys):
    rc = main(["extract", "--original", str(marked / "host.json"),
               "--suspect", str(marked / "marked.json"), "--key", "owner", "--n", "24",
               "--l", "4", "--pmax", "0.6", "--criterion", "bn"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["extract", "--receipt", str(marked / "r.json"),
               "--suspect", str(marked / "marked.json")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == BITS48


@pytest.mark.parametrize("flag, value", [
    ("--receipt", "r.json"), ("--original", "o.json"), ("--key", "k"), ("--n", "3"),
    ("--l", "3"), ("--pmin", "0"), ("--pmax", "0.7"), ("--criterion", "l1"),
    ("--theta", "0.5")])
def test_attack_extraction_flag_without_expect_exit_two(tiny_host, capsys, tmp_path, flag,
                                                        value):
    rc = main(["attack", "--type", "noise", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"),
               "--out-prefix", str(tmp_path / "a"), flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: used only by attack --expect")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scores, flag, value", [
    (False, "--criterion", "bn"), (False, "--arch", "tiny.json"),
    (False, "--weights", "tiny.bin"), (True, "--l", "3"), (True, "--pmin", "0"),
    (True, "--pmax", "0.7"), (True, "--original", "tiny.json"),
    (True, "--suspect", "tiny.json")])
def test_inspect_flag_of_other_mode_exit_two(tiny_host, capsys, scores, flag, value):
    arch, weights = str(tiny_host / "tiny.json"), str(tiny_host / "tiny.bin")
    mode = (["--scores", "--arch", arch, "--weights", weights] if scores
            else ["--original", arch, "--suspect", arch])
    rc = main(["inspect", *mode, flag,
               str(tiny_host / value) if value.startswith("tiny") else value])
    assert rc == 2
    why = "not used by inspect --scores" if scores else "used only by inspect --scores"
    assert capsys.readouterr().err.startswith(f"error: {flag}: {why}")


def test_json_outputs_are_schema_stable(marked, capsys):
    main(["extract", "--receipt", str(marked / "r.json"),
          "--suspect", str(marked / "marked.json"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "bits", "segments", "warnings"}
    assert set(doc["segments"][0]) == {"layer_index", "c", "c_suspect", "rate",
                                       "value", "clamped"}
    main(["verify", "--receipt", str(marked / "r.json"),
          "--suspect", str(marked / "marked.json"), "--expect", BITS48, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "ber", "theta", "matched", "extracted"}
    assert doc["theta"] == 0.0  # the default of an omitted --theta


def _embed_tiny(tiny_host, tmp_path, payload):
    return main(["embed", "--arch", str(tiny_host / "tiny.json"),
                 "--weights", str(tiny_host / "tiny.bin"), "--payload", payload,
                 "--key", "k", "--l", "3", "--out-prefix", str(tmp_path / "m"),
                 "--receipt", str(tmp_path / "r.json")])


def test_embed_that_fails_its_self_check_exit_two_and_writes_nothing(
        misselected_carriers, tiny_host, capsys, tmp_path):
    assert _embed_tiny(tiny_host, tmp_path, "101110011") == 2  # segments 5, 6, 3
    err = capsys.readouterr().err
    assert err == "error: internal error: freshly embedded payload failed to extract\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("payload, warned", [("000000000", True), ("010010010", True),
                                             ("101100111", False), ("101", False)])
def test_embed_warns_when_all_segments_share_one_value(tiny_host, capsys, tmp_path,
                                                       payload, warned):
    assert _embed_tiny(tiny_host, tmp_path, payload) == 0
    err = capsys.readouterr().err
    assert ("warning: all 3 segments have value" in err) == warned, err


def test_embed_that_exits_two_prints_no_payload_warning(tiny_host, capsys, tmp_path):
    # six one-value segments at l = 1 need six carriers; vgg_tiny has five
    rc = main(["embed", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--payload", "000000",
               "--key", "k", "--l", "1", "--out-prefix", str(tmp_path / "m"),
               "--receipt", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: capacity exceeded"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("by_receipt", [True, False])
def test_unmarked_host_extracts_only_with_warnings(tiny_host, capsys, tmp_path, by_receipt):
    # an unpruned carrier reads as rate 0, cell 0: the unmarked host "carries" 000000000
    assert _embed_tiny(tiny_host, tmp_path, "000000000") == 0
    capsys.readouterr()
    source = (["--receipt", str(tmp_path / "r.json")] if by_receipt else
              ["--original", str(tiny_host / "tiny.json"), "--key", "k", "--n", "9",
               "--l", "3"])
    suspect = ["--suspect", str(tiny_host / "tiny.json")]
    assert main(["verify", *suspect, *source, "--expect", "000000000"]) == 0
    err = capsys.readouterr().err
    assert err.count("unchanged, no channel pruned; the model may be unmarked") == 3, err
    assert "warning: all 3 carriers decode to value 0" in err
    assert main(["extract", *suspect, *source, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bits"] == "000000000" and len(doc["warnings"]) == 4


def test_uniformly_repruned_unmarked_host_warns(tiny_host, capsys, tmp_path):
    # a keyless uniform re-pruning puts every carrier of the unmarked host in one cell
    assert _embed_tiny(tiny_host, tmp_path, "010010010") == 0
    capsys.readouterr()
    rc = main(["attack", "--type", "structural", "--extra-rate", "0.2",
               "--arch", str(tiny_host / "tiny.json"), "--weights", str(tiny_host / "tiny.bin"),
               "--out-prefix", str(tmp_path / "a"), "--receipt", str(tmp_path / "r.json"),
               "--expect", "010010010"])
    assert rc == 0
    assert "warning: all 3 carriers decode to value 2" in capsys.readouterr().err


# --- embed streams the host one layer at a time -----------------------------

def _embed_files(tmp_path, arch, weights, payload, *flags):
    """Run nnwm embed into tmp_path; the bytes of its manifest, blob and receipt."""
    assert main(["embed", "--arch", str(arch), "--weights", str(weights),
                 "--payload", payload, "--key", "owner", "--l", "3", *flags,
                 "--out-prefix", str(tmp_path / "cli"),
                 "--receipt", str(tmp_path / "cli-r.json")]) == 0
    return tuple((tmp_path / name).read_bytes()
                 for name in ("cli.json", "cli.bin", "cli-r.json"))


def _library_files(tmp_path, marked, receipt):
    """The bytes save_model and the receipt give for the model embed returned."""
    save_model(marked, tmp_path / "lib.json", tmp_path / "lib.bin")
    return ((tmp_path / "lib.json").read_bytes(), (tmp_path / "lib.bin").read_bytes(),
            receipt.to_json().encode("utf-8"))


@pytest.mark.parametrize("make_host", [lambda: vgg16_style(0), lambda: random_conv_net(3)],
                         ids=["vgg16_style", "random_conv_net_3"])
@pytest.mark.parametrize("criterion", ["l1", "bn"])
@pytest.mark.parametrize("decoy", [False, True])
def test_embed_cli_writes_the_bytes_of_the_pure_embed(tmp_path, capsys, make_host,
                                                      criterion, decoy):
    save_model(make_host(), tmp_path / "host.json", tmp_path / "host.bin")
    bits = BITS48[:24]  # 8 carriers: both hosts keep convs for the decoys
    got = _embed_files(tmp_path, tmp_path / "host.json", tmp_path / "host.bin", bits,
                       "--criterion", criterion, *(["--decoy"] if decoy else []))
    marked, receipt = pipeline.embed(make_host(), WatermarkPayload(bits, 3),
                                     EmbedParams(3, b"owner"), criterion=criterion,
                                     decoy=decoy)
    assert got == _library_files(tmp_path, marked, receipt)


def test_embed_cli_finetune_writes_the_bytes_of_embed_then_finetune(tiny_host, tmp_path,
                                                                    capsys):
    bits = "101100111"
    got = _embed_files(tmp_path, tiny_host / "tiny.json", tiny_host / "tiny.bin", bits,
                       "--finetune-epochs", "1", "--seed", "0")
    marked, receipt = pipeline.embed(vgg_tiny(0), WatermarkPayload(bits, 3),
                                     EmbedParams(3, b"owner"))
    train, _ = synth_dataset(0, 512, 256)
    tuned = finetune(marked, train, TrainConfig(epochs=1, lr=0.001, seed=0))
    assert got == _library_files(tmp_path, tuned, receipt)


@pytest.mark.parametrize("segments, flags", [(1, []), (8, []), (8, ["--decoy"]), (16, []),
                                             (16, ["--criterion", "bn"])])
def test_embed_working_memory_is_bounded_by_the_largest_layer(host, tmp_path, capsys,
                                                              segments, flags):
    # numpy reports its buffers to tracemalloc; the bound does not grow with the host
    largest = max(4 * layer_floats(ly) for ly in load_arch(host / "host.json").layers)
    bound = 3 * largest + 256 * 1024
    tracemalloc.start()
    try:
        rc = main(["embed", "--arch", str(host / "host.json"),
                   "--weights", str(host / "host.bin"), "--payload", BITS48[:3 * segments],
                   "--key", "owner", "--l", "3", *flags, "--out-prefix", str(tmp_path / "m"),
                   "--receipt", str(tmp_path / "r.json"), "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


def _host_with_bad_values(d: Path, model, spots) -> None:
    """Write model to d/h.json and d/h.bin with value v at the first entry of each
    (position, attr, v) spot; save_model would refuse such a model."""
    for pos, attr, value in spots:
        getattr(model.layers[pos], attr).flat[0] = value
    write_manifest(model, d / "h.json")
    (d / "h.bin").write_bytes(BLOB_HEADER + b"".join(
        arr.astype("<f4").tobytes() for ly in model.layers for _, arr in layer_arrays(ly)))


@pytest.mark.parametrize("case", ["non_carrier_conv_nan", "linear_bias_inf",
                                  "negative_running_var", "bn_carrier_gamma_nan",
                                  "first_of_two"])
def test_embed_reports_a_bad_host_value_as_load_model_does(tmp_path, capsys, case):
    crit = "bn" if case == "bn_carrier_gamma_nan" else "l1"
    model = vgg_tiny(0)
    _, receipt = pipeline.embed(model, WatermarkPayload("101", 3), EmbedParams(3, b"k"),
                                criterion=crit)
    positions = conv_layer_indices(model)
    carrier = positions[receipt.layers[0].index]
    other = next(p for p in positions if p != carrier)
    head = len(model.layers) - 1
    spots = {"non_carrier_conv_nan": [(other, "weights", np.nan)],
             "linear_bias_inf": [(head, "bias", np.inf)],
             "negative_running_var": [(carrier + 1, "running_var", -1.0)],
             "bn_carrier_gamma_nan": [(carrier + 1, "gamma", np.nan)],
             "first_of_two": [(head, "weights", np.nan), (carrier, "weights", -np.inf)]}[case]
    _host_with_bad_values(tmp_path, model, spots)
    with pytest.raises(NnwmError) as loaded:
        load_model(tmp_path / "h.json", tmp_path / "h.bin")
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["embed", "--arch", str(tmp_path / "h.json"), "--weights", str(tmp_path / "h.bin"),
               "--payload", "101", "--key", "k", "--l", "3", "--criterion", crit,
               "--out-prefix", str(out / "m"), "--receipt", str(out / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {loaded.value}\n"
    assert list(out.iterdir()) == []


def test_embed_reports_a_plan_error_before_a_bad_host_value(tmp_path, capsys):
    # the plan needs only the manifest and the key, so it is worked out before the pass
    _host_with_bad_values(tmp_path, vgg_tiny(0), [(0, "weights", np.nan)])
    rc = main(["embed", "--arch", str(tmp_path / "h.json"), "--weights", str(tmp_path / "h.bin"),
               "--payload", "1" * 18, "--key", "k", "--l", "3",
               "--out-prefix", str(tmp_path / "m"), "--receipt", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: capacity exceeded: 6 segment(s)")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["h.bin", "h.json"]


def test_embed_json_counts_come_from_the_host_before_pruning(tiny_host, tmp_path, capsys):
    # value 7 prunes each 32-wide carrier to 11 channels, below min_channels 12
    assert wm_codec.min_channels(EmbedParams(3, b"")) == 12
    rc = main(["embed", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--payload", "1" * 15,
               "--key", "k", "--l", "3", "--out-prefix", str(tmp_path / "m"),
               "--receipt", str(tmp_path / "r.json"), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["c_pruned"] for e in doc["layers"]][:2] == [11, 11]
    assert doc["eligible"] == 5 and doc["capacity_bits"] == wm_codec.capacity(5, 3, 1.0)


# --- extraction reads its source before any work ----------------------------

@pytest.fixture(scope="module")
def tiny_marked(tmp_path_factory):
    """Directory holding vgg_tiny(0) marked with 101100 under key "k": m.json/.bin, r.json."""
    d = tmp_path_factory.mktemp("tiny-marked")
    marked, receipt = pipeline.embed(vgg_tiny(0), WatermarkPayload("101100", 3),
                                     EmbedParams(3, b"k"))
    save_model(marked, d / "m.json", d / "m.bin")
    pruner.save_receipt(receipt, d / "r.json")
    return d


@pytest.mark.parametrize("case", ["missing", "malformed", "other_arch", "expect_length"])
def test_attack_expect_bad_source_exit_two_and_writes_nothing(tiny_host, capsys, tmp_path,
                                                              case):
    original = tmp_path / "original.json"
    if case == "malformed":
        original.write_text("{")
    elif case == "other_arch":  # 6 convs against the attacked model's 5, seen only in extract
        save_model(random_conv_net(3, n_convs=6), original, tmp_path / "original.bin")
    elif case == "expect_length":
        original = tiny_host / "tiny.json"
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["attack", "--type", "zero", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--out-prefix", str(out / "a"),
               "--expect", "101", "--original", str(original), "--key", "k",
               "--n", "4" if case == "expect_length" else "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("attack", ["zero", "finetune"])
@pytest.mark.parametrize("case, n, message", [
    ("capacity", 18, "error: capacity exceeded: 6 segment(s) required, "
                     "5 eligible layer(s) available\n"),
    ("other_arch", 3, "error: original has 6 conv layers, suspect has 5\n"),
    ("payload_bits", 20, "error: 3 segment(s) of 3 bits cannot carry a 20-bit payload\n")],
    ids=["capacity", "other_arch", "payload_bits"])
def test_attack_expect_selects_carriers_before_attacking(tiny_host, capsys, tmp_path,
                                                         monkeypatch, attack, case, n,
                                                         message):
    def refuse(*args, **kwargs):
        raise AssertionError("the attack ran before the carriers were selected")

    monkeypatch.setattr(pipeline, "attack_zero_weights", refuse)
    monkeypatch.setattr("nnwm.cli.finetune", refuse)
    original = tiny_host / "tiny.json"
    if case == "other_arch":
        original = tmp_path / "original.json"
        save_model(random_conv_net(3, n_convs=6), original, tmp_path / "original.bin")
    source = ["--original", str(original), "--key", "k", "--n", str(n)]
    if case == "payload_bits":  # the receipt's 3 carriers of 3 bits hold 7 to 9 bits
        _, receipt = pipeline.embed(vgg_tiny(0), WatermarkPayload("101100111", 3),
                                    EmbedParams(3, b"k"))
        pruner.save_receipt(dataclasses.replace(receipt, payload_bits=n), tmp_path / "r.json")
        source = ["--receipt", str(tmp_path / "r.json")]
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["attack", "--type", attack, "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--out-prefix", str(out / "a"),
               "--expect", "0" * n, *source])
    assert rc == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--payload", "102"], ["--payload", "hex:zz"], ["--payload", "101", "--l", "0"],
    ["--payload", "101", "--l", "33"], ["--payload", "101", "--pmax", "5e-324"]],
    ids=["bits", "hex", "l0", "l33", "pmax"])
def test_embed_checks_payload_and_scheme_flags_before_reading_the_host(
        tiny_host, capsys, tmp_path, monkeypatch, flags):
    def refuse(*args):
        raise AssertionError("embed read the host before checking its flags")

    monkeypatch.setattr("nnwm.cli.load_arch", refuse)
    monkeypatch.setattr("nnwm.cli.load_model", refuse)
    rc = main(["embed", "--arch", str(tiny_host / "tiny.json"),
               "--weights", str(tiny_host / "tiny.bin"), "--key", "k", *flags,
               "--out-prefix", str(tmp_path / "m"), "--receipt", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_inspect_underflowing_cell_width_exit_two(tiny_host, tiny_marked, capsys):
    rc = main(["inspect", "--original", str(tiny_host / "tiny.json"),
               "--suspect", str(tiny_marked / "m.json"), "--pmax", "5e-324"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: cell width of [0.0, 5e-324) at l = 3 "
                                       "underflows to 0\n")


def test_verify_receipt_with_underflowing_cell_width_exit_two(tiny_marked, capsys, tmp_path):
    doc = json.loads((tiny_marked / "r.json").read_text())
    doc["params"]["p_max"] = 5e-324
    (tmp_path / "r.json").write_text(json.dumps(doc))
    rc = main(["verify", "--receipt", str(tmp_path / "r.json"),
               "--suspect", str(tiny_marked / "m.json"), "--expect", "101100"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cell width of [0.0, 5e-324)")


FUZZ_SMALL_INTS = st.integers(1, 8) | FUZZ_INTS  # lengths that reach the decode, and others
FUZZ_KEYS = st.one_of(st.text(max_size=8),
                      st.text("0123456789abcdefABCDEF xg", max_size=8).map("hex:".__add__))
# the flags each command takes; inspect has no --receipt, --key, --n or --theta
FUZZ_EXTRACT_FLAGS = {"extract": ("--n", "--l", "--pmin", "--pmax", "--key"),
                      "verify": ("--n", "--l", "--pmin", "--pmax", "--key", "--theta"),
                      "inspect": ("--l", "--pmin", "--pmax")}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(FUZZ_EXTRACT_FLAGS)), by_receipt=st.booleans(),
       values=st.fixed_dictionaries({}, optional={
           "--n": FUZZ_SMALL_INTS, "--l": FUZZ_SMALL_INTS, "--pmin": FUZZ_FLOATS,
           "--pmax": FUZZ_FLOATS, "--theta": FUZZ_FLOATS, "--key": FUZZ_KEYS}))
def test_fuzz_extraction_flags(tiny_host, tiny_marked, capsys, command, by_receipt, values):
    capsys.readouterr()
    paths = [tiny_host / "tiny.json", *(tiny_marked / f for f in ("m.json", "r.json"))]
    inputs = {p: p.read_bytes() for p in paths}
    if by_receipt and command != "inspect":
        source = ["--receipt", str(tiny_marked / "r.json")]
    else:  # the original path gets a key and a length unless the fuzz gives its own
        source = ["--original", str(tiny_host / "tiny.json")]
        if command != "inspect":
            values = {"--key": "k", "--n": 6, **values}
    flags = [f"{flag}={value}" for flag, value in values.items()  # "=" passes "-inf"
             if flag in FUZZ_EXTRACT_FLAGS[command]]
    expect = ["--expect", "101100"] if command == "verify" else []
    rc = main([command, "--suspect", str(tiny_marked / "m.json"), *source, *expect, *flags])
    assert rc in (0, 1, 2)
    if rc == 2:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
    assert {p: p.read_bytes() for p in inputs} == inputs


FUZZ_EPOCHS = st.integers(-1, 1)  # each trained epoch costs about half a second
FUZZ_PAYLOADS = st.one_of(
    st.text("01", min_size=1, max_size=15), st.text(max_size=8),
    st.text("0123456789abcdefABCDEF xg", max_size=4).map("hex:".__add__),
    st.sampled_from(["@", "@.", "@missing.txt", "@/dev/null", "@a\x00b", "0" * 15]),
    st.binary(max_size=16).map(lambda b: ("@file", b)),  # "@" + a file of these bytes
    st.text("01", min_size=1, max_size=15).map(lambda t: ("@file", t.encode())))
# each scheme flag valid for vgg_tiny about half the time, so that runs get past the checks
FUZZ_SCHEME = {"--l": st.integers(1, 4) | FUZZ_SMALL_INTS,
               "--pmin": st.floats(0.0, 0.3) | FUZZ_FLOATS,
               "--pmax": st.floats(0.5, 1.0) | FUZZ_FLOATS,
               "--criterion": st.sampled_from(["l1", "bn"])}


def _run_fuzzed(capsys, argv: list, inputs: list, out: Path) -> None:
    """main(argv) must exit 0, 1 or 2, print one error line and write nothing in
    ``out`` when it exits 2, and leave every input file as it was."""
    capsys.readouterr()
    before = {p: p.read_bytes() for p in inputs}
    rc = main([str(a) for a in argv])
    assert rc in (0, 1, 2)
    if rc == 2:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert list(out.iterdir()) == []
    assert {p: p.read_bytes() for p in inputs} == before


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=FUZZ_PAYLOADS, decoy=st.booleans(), values=st.fixed_dictionaries({}, optional={
    "--key": FUZZ_KEYS, "--finetune-epochs": FUZZ_EPOCHS, "--seed": FUZZ_INTS,
    **FUZZ_SCHEME}))
def test_fuzz_embed_flags(tiny_host, capsys, payload, decoy, values):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        out.mkdir()
        if isinstance(payload, tuple):
            (Path(tmp) / "payload").write_bytes(payload[1])
            payload = f"@{Path(tmp) / 'payload'}"
        values = {"--key": "k", **values}
        flags = [f"{flag}={value}" for flag, value in values.items()]  # "=" passes "-inf"
        _run_fuzzed(capsys, ["embed", "--arch", tiny_host / "tiny.json",
                             "--weights", tiny_host / "tiny.bin", f"--payload={payload}",
                             *flags, *(["--decoy"] if decoy else []),
                             "--out-prefix", out / "m", "--receipt", out / "r.json"],
                    [tiny_host / "tiny.json", tiny_host / "tiny.bin"], out)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(by_arch=st.booleans(), t=st.integers(1, 100) | FUZZ_INTS, l=FUZZ_SCHEME["--l"],
       rcov=FUZZ_FLOATS,
       values=st.fixed_dictionaries({}, optional=FUZZ_SCHEME))
def test_fuzz_capacity_flags(tiny_host, capsys, tmp_path, by_arch, t, l, rcov, values):
    layers = ["--arch", tiny_host / "tiny.json"] if by_arch else [f"--t={t}"]
    values = {**values, "--l": l, "--rcov": rcov}
    _run_fuzzed(capsys, ["capacity", *layers,
                         *(f"{flag}={value}" for flag, value in values.items())],
                [tiny_host / "tiny.json"], tmp_path)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.fixed_dictionaries({}, optional={
    "--epochs": FUZZ_EPOCHS, "--finetune-epochs": FUZZ_EPOCHS, "--seed": FUZZ_INTS,
    "--key": FUZZ_KEYS, **FUZZ_SCHEME}))
def test_fuzz_train_demo_flags(capsys, tmp_path, values):
    # an omitted epoch flag would train 5 epochs
    values = {"--epochs": 0, "--finetune-epochs": 0, **values}
    _run_fuzzed(capsys, ["train-demo", *(f"{flag}={value}" for flag, value in values.items())],
                [], tmp_path)


# output paths: the input fixtures' own names, the cwd, a missing directory, a name
# longer than any file system allows, a NUL; relative ones land in the example's cwd
FUZZ_OUTPUTS = st.sampled_from(["{host}/tiny", "{host}/tiny.json", "{host}/tiny.bin",
                                "{marked}/m", "{marked}/m.json", "{marked}/r.json",
                                "", ".", "missing/o", "x" * 300, "a\x00b", "o", "o.json"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["embed", "attack", "train-demo"]),
       first=FUZZ_OUTPUTS, second=FUZZ_OUTPUTS)
def test_fuzz_output_flags(tiny_host, tiny_marked, capsys, monkeypatch, command, first,
                           second):
    first, second = (p.format(host=tiny_host, marked=tiny_marked) for p in (first, second))
    host = ["--arch", tiny_host / "tiny.json", "--weights", tiny_host / "tiny.bin"]
    argv = {"embed": ["embed", *host, "--payload", "101", "--key", "k",
                      "--out-prefix", first, "--receipt", second],
            "attack": ["attack", "--type", "zero", *host, "--out-prefix", first,
                       "--expect", "101100", "--receipt", tiny_marked / "r.json"],
            "train-demo": ["train-demo", "--epochs", "0", "--finetune-epochs", "0",
                           "--metrics-csv", first]}[command]
    inputs = {p: p.read_bytes() for d in (tiny_host, tiny_marked) for p in d.iterdir()}
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as out:
        monkeypatch.chdir(out)
        try:
            try:
                rc = main([str(a) for a in argv])
            except SystemExit as e:  # an argparse usage error, which prints the usage too
                assert e.code == 2
                rc = None
            assert rc in (0, 1, 2, None)
            if rc == 2:
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: "), err
            if rc in (2, None):
                assert os.listdir(out) == []
                assert {p: p.read_bytes() for d in (tiny_host, tiny_marked)
                        for p in d.iterdir()} == inputs
        finally:  # an output may have replaced an input or landed beside it
            for p in {p for d in (tiny_host, tiny_marked) for p in d.iterdir()} - set(inputs):
                p.unlink()
            for p, data in inputs.items():
                p.write_bytes(data)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(epochs=st.sampled_from([0, 1]), lr=FUZZ_FLOATS)
def test_fuzz_attack_finetune_flags(tiny_host, capsys, tmp_path, epochs, lr):
    _run_fuzzed(capsys, ["attack", "--type", "finetune", "--epochs", epochs, f"--lr={lr}",
                         "--arch", tiny_host / "tiny.json", "--weights", tiny_host / "tiny.bin",
                         "--out-prefix", tmp_path / "a"],
                [tiny_host / "tiny.json", tiny_host / "tiny.bin"], tmp_path)
    for p in tmp_path.iterdir():  # a run that exits 0 writes; the next must start empty
        p.unlink()


@pytest.fixture(scope="module")
def other_host(tmp_path_factory):
    """Directory holding random_conv_net(3) saved as o.json / o.bin: 1x1 kernels, 3 convs."""
    d = tmp_path_factory.mktemp("other")
    save_model(random_conv_net(3, n_convs=3), d / "o.json", d / "o.bin")
    return d


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arch=st.sampled_from(["tiny.json", "m.json", "o.json"]),
       weights=st.sampled_from(["tiny.bin", "m.bin", "o.bin"]),
       criterion=st.sampled_from(["l1", "bn"]))
def test_fuzz_inspect_scores_fixtures(tiny_host, tiny_marked, other_host, capsys, tmp_path,
                                      arch, weights, criterion):
    # the manifest and the blob come from fixtures that need not match
    where = {"tiny": tiny_host, "m": tiny_marked, "o": other_host}
    arch, weights = (where[name.split(".")[0]] / name for name in (arch, weights))
    _run_fuzzed(capsys, ["inspect", "--scores", "--arch", arch, "--weights", weights,
                         "--criterion", criterion], [arch, weights], tmp_path)


# --- attack streams the host one layer at a time ----------------------------

# streamed type -> (its flag, two values, the library attack at a value)
STREAMED_ATTACKS = {
    "noise": ("--sigma", ("0", "0.5"), lambda m, v: pipeline.attack_noise(m, v, seed=3)),
    "zero": ("--fraction", ("0.3", "1"), pipeline.attack_zero_weights),
    "structural": ("--extra-rate", ("0.1", "0.5"),
                   lambda m, v: pipeline.attack_structural(m, v, seed=3)),
}
ATTACK_HOSTS = {"vgg_tiny": lambda: vgg_tiny(0), "vgg16_style": lambda: vgg16_style(0),
                "random_conv_net_1": lambda: random_conv_net(1),
                "random_conv_net_2": lambda: random_conv_net(2)}


@pytest.fixture(scope="module")
def attack_hosts(tmp_path_factory):
    """Each host of ATTACK_HOSTS marked with 101 under key k: <name>.json/.bin, <name>-r.json."""
    d = tmp_path_factory.mktemp("attack-hosts")
    for name, make in ATTACK_HOSTS.items():
        marked, receipt = pipeline.embed(make(), WatermarkPayload("101", 3), EmbedParams(3, b"k"))
        save_model(marked, d / f"{name}.json", d / f"{name}.bin")
        pruner.save_receipt(receipt, d / f"{name}-r.json")
    return d


@pytest.mark.parametrize("expect", [False, True], ids=["plain", "expect"])
@pytest.mark.parametrize("value", [0, 1], ids=["first_value", "second_value"])
@pytest.mark.parametrize("host", sorted(ATTACK_HOSTS))
@pytest.mark.parametrize("kind", sorted(STREAMED_ATTACKS))
def test_attack_cli_writes_the_bytes_of_the_library_attack(attack_hosts, tmp_path, capsys,
                                                           kind, host, value, expect):
    flag, values, attack = STREAMED_ATTACKS[kind]
    arch, blob = attack_hosts / f"{host}.json", attack_hosts / f"{host}.bin"
    chained = ["--receipt", str(attack_hosts / f"{host}-r.json"), "--expect", "101"]
    rc = main(["attack", "--type", kind, flag, values[value], "--seed", "3",
               "--arch", str(arch), "--weights", str(blob),
               "--out-prefix", str(tmp_path / "cli"), *(chained if expect else [])])
    assert rc == 0 or (rc == 1 and kind == "structural" and expect)
    save_model(attack(load_model(arch, blob), float(values[value])),
               tmp_path / "lib.json", tmp_path / "lib.bin")
    for suffix in (".json", ".bin"):
        assert (tmp_path / f"cli{suffix}").read_bytes() == (tmp_path / f"lib{suffix}").read_bytes()


@pytest.mark.parametrize("case", ["conv_nan", "linear_bias_inf", "negative_running_var",
                                  "gamma_nan", "first_of_two"])
@pytest.mark.parametrize("kind", sorted(STREAMED_ATTACKS))
def test_attack_reports_a_bad_host_value_as_load_model_does(tmp_path, capsys, kind, case):
    model = vgg_tiny(0)
    conv, head = conv_layer_indices(model)[1], len(model.layers) - 1
    spots = {"conv_nan": [(conv, "weights", np.nan)],
             "linear_bias_inf": [(head, "bias", np.inf)],
             "negative_running_var": [(conv + 1, "running_var", -1.0)],
             "gamma_nan": [(conv + 1, "gamma", np.nan)],
             "first_of_two": [(head, "weights", np.nan), (conv, "weights", -np.inf)]}[case]
    _host_with_bad_values(tmp_path, model, spots)
    with pytest.raises(NnwmError) as loaded:
        load_model(tmp_path / "h.json", tmp_path / "h.bin")
    out = tmp_path / "out"
    out.mkdir()
    flag, values, _ = STREAMED_ATTACKS[kind]
    rc = main(["attack", "--type", kind, flag, values[1], "--arch", str(tmp_path / "h.json"),
               "--weights", str(tmp_path / "h.bin"), "--out-prefix", str(out / "a")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {loaded.value}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", sorted(STREAMED_ATTACKS))
def test_attack_reports_an_extraction_error_before_a_bad_host_value(tmp_path, capsys, kind):
    # the extraction reads only the manifest, so it runs before any tensor is read
    _host_with_bad_values(tmp_path, vgg_tiny(0), [(0, "weights", np.nan)])
    save_model(random_conv_net(3, n_convs=6), tmp_path / "o.json", tmp_path / "o.bin")
    rc = main(["attack", "--type", kind, "--arch", str(tmp_path / "h.json"),
               "--weights", str(tmp_path / "h.bin"), "--out-prefix", str(tmp_path / "a"),
               "--expect", "101", "--original", str(tmp_path / "o.json"), "--key", "k",
               "--n", "3"])
    assert rc == 2
    assert capsys.readouterr().err == "error: original has 6 conv layers, suspect has 5\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["h.bin", "h.json", "o.bin", "o.json"]


@pytest.mark.parametrize("kind", sorted(STREAMED_ATTACKS))
def test_attack_working_memory_is_bounded_by_the_largest_layer(marked, tmp_path, capsys, kind):
    # the zero attack also holds one magnitude of 4 bytes per weight between its reads
    host = load_arch(marked / "marked.json")
    largest = max(4 * layer_floats(ly) for ly in host.layers)
    weights = sum(ly.weights.size for ly in host.layers if "weights" in ly.ARRAYS)
    bound = 4 * largest + 256 * 1024 + (4 * weights if kind == "zero" else 0)
    tracemalloc.start()
    try:
        rc = main(["attack", "--type", kind, "--arch", str(marked / "marked.json"),
                   "--weights", str(marked / "marked.bin"), "--out-prefix", str(tmp_path / "a"),
                   "--receipt", str(marked / "r.json"), "--expect", BITS48, "--seed", "7",
                   "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc in (0, 1)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


def test_zero_attack_whose_second_read_differs_exit_two_and_writes_nothing(
        tiny_host, tmp_path, capsys, monkeypatch):
    host = load_arch(tiny_host / "tiny.json")
    weights = sum(ly.weights.size for ly in host.layers if "weights" in ly.ARRAYS)
    k = wm_codec.round_half_up(0.3 * weights)
    read_layer, reads = model_store.read_layer, []

    def changing_read_layer(fh, pos, ly):
        ly = read_layer(fh, pos, ly)
        reads.append(pos)
        if len(reads) == len(host.layers) + 1:  # the second read of the first conv
            w = ly.weights.reshape(-1)
            w[np.argmax(np.abs(w))] = 0.0  # from the largest magnitude to below the cut
        return ly

    monkeypatch.setattr(model_store, "read_layer", changing_read_layer)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["attack", "--type", "zero", "--fraction", "0.3",
               "--arch", str(tiny_host / "tiny.json"), "--weights", str(tiny_host / "tiny.bin"),
               "--out-prefix", str(out / "a")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: the zero attack's second read cleared {k + 1} weights, not {k}: "
        "the weights changed between its two reads\n")
    assert reads == 2 * list(range(len(host.layers)))
    assert list(out.iterdir()) == []
