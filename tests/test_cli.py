"""CLI tests: flows, exit codes, JSON output."""

import json

import numpy as np
import pytest

from nnwm import cli, pipeline
from nnwm.cli import main
from nnwm.errors import NnwmError
from nnwm.fixtures import random_conv_net, vgg16_style, vgg_tiny
from nnwm.model_store import load_model, save_model

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
    monkeypatch.setattr("nnwm.pipeline.finetune", refuse)


@pytest.fixture(scope="module")
def tiny_host(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    save_model(vgg_tiny(0), d / "tiny.json", d / "tiny.bin")
    return d


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
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")
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

    monkeypatch.setattr(pipeline, "embed", embed_runs)
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


def test_nnwm_seed_env_default(monkeypatch):
    from nnwm.cli import build_parser
    monkeypatch.setenv("NNWM_SEED", "42")
    args = build_parser().parse_args(["train-demo"])
    assert args.seed == 42
    monkeypatch.setenv("NNWM_SEED", "not-a-number")
    args = build_parser().parse_args(["train-demo"])
    assert args.seed == 0


def test_main_builds_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(1)
        return real()

    real = cli._build_parsers
    monkeypatch.setattr(cli, "_build_parsers", counting)
    cli._parsers.cache_clear()
    try:
        for t in ("5", "6", "7"):
            assert main(["capacity", "--t", t, "--l", "2", "--rcov", "1"]) == 0
    finally:
        cli._parsers.cache_clear()
    assert built == [1]
    assert capsys.readouterr().out.split() == ["10", "12", "14"]


def test_main_reads_nnwm_seed_per_call(monkeypatch, capsys):
    seeds = []

    def stop(seed):
        seeds.append(seed)
        raise NnwmError("stop before training")

    monkeypatch.setattr("nnwm.cli.vgg_tiny", stop)
    for env in ("11", "12", "not-a-number"):
        monkeypatch.setenv("NNWM_SEED", env)
        assert main(["train-demo"]) == 2
    assert main(["train-demo", "--seed", "5"]) == 2
    assert seeds == [11, 12, 0, 5]


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
