"""Smoke tests: each experiment script in scripts/ runs end to end at minimal size."""

import importlib.util
from pathlib import Path

from nnwm.fixtures import vgg16_style
from nnwm.model_store import channel_counts
from nnwm.wm_codec import EmbedParams

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_capacity_table(capsys):
    assert load("capacity_table").main() == 0
    assert "DenseNet-40" in capsys.readouterr().out


def test_robustness_experiment(capsys):
    assert load("robustness_experiment").main(["--rates", "0.05"]) == 0
    out = capsys.readouterr().out
    parameter_space = out.split("structural re-pruning sweep")[0].strip().splitlines()[1:]
    assert len(parameter_space) == 6
    assert all(line.endswith("(intact)") for line in parameter_space)


def test_carrier_detector_flags_every_carrier():
    # decoys do not hide the carriers from one who knows the original widths
    survey = load("robustness_experiment").carrier_survey()
    assert survey["carriers"] == survey["decoys"] == 40 * 8  # 8 of 16 convs carry
    assert survey["carriers_flagged"] == survey["carriers"]
    assert survey["decoys_flagged"] < survey["decoys"]


def test_carrier_detector_flags_no_unpruned_conv():
    widths = channel_counts(vgg16_style(0))
    flag = load("robustness_experiment").flag_carriers
    assert flag(widths, widths, EmbedParams(segment_length=3, key=b"")) == []


def test_fidelity_experiment(capsys, tmp_path):
    csv = tmp_path / "fidelity.csv"
    rc = load("fidelity_experiment").main(
        ["--seeds", "1", "--coverages", "1.0", "--epochs", "0", "--finetune-epochs", "0",
         "--n-train", "16", "--n-test", "16", "--out", str(csv)])
    assert rc == 0
    assert len(csv.read_text().strip().splitlines()) == 1 + 3  # header, baseline, l1, bn


def test_output_hashes_prints_one_line_per_named_output(capsys):
    names = ["attack_noise_blob", "inspect_scores_l1", "inspect_scores_bn"]  # the cheap ones
    assert load("output_hashes").main(names) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == names
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in rows)
