"""Smoke tests: each experiment script in scripts/ runs end to end at minimal size."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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


def test_fidelity_tail_mode(capsys, monkeypatch):
    # spawned workers import the script by name, from the sys.path the parent passes them
    monkeypatch.syspath_prepend(str(SCRIPTS))
    fidelity = importlib.import_module("fidelity_experiment")
    # untrained models miss the accuracy bounds, so every run is listed as a break
    assert fidelity.main(["--tail", "1", "--epochs", "0", "--finetune-epochs", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("train-demo tail: seeds 0..0 and 485599788, 0 + 0 epochs")
    for crit in ("l1", "bn"):
        assert f"{crit} seed 485599788: baseline 0.5000, marked 0.5000, delta +0.0000, BER 0.0" \
            in out
        assert f"{crit}: 1 of 1 seeds break the bounds, rate 1.0000 " \
               "(95% interval 0.2065-1.0000)" in out


def _synthetic_run(pair, side, order, ops_per_s, peak, failed=0):
    result = {"correct": not failed, "attempted": 40, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                          "peak_rss_mb": {"value": peak, "unit": "MB"}}}
    return {"pair": pair, "seed": 100 + pair, "side": side, "order": order,
            "result": None if ops_per_s is None else result, "returncode": 0 if ops_per_s else 1,
            "cpu_s": 1.0, "minflt": 10, "loadavg_start": 0.5, "loadavg_end": 0.6}


def test_bench_pairs_summary_on_synthetic_runs():
    bench_pairs = load("bench_pairs")
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]
    runs = []
    for pair in range(10):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in sides:
            wobble = (-1) ** pair
            if side == "parent":
                run = _synthetic_run(pair, side, len(runs), None if pair == 3 else 100 + wobble,
                                     60 + 0.1 * pair)
            else:
                run = _synthetic_run(pair, side, len(runs), 100 - wobble, 55 + 0.1 * pair,
                                     failed=int(pair == 5))
            runs.append(run)
    record = bench_pairs.summarize(runs, end_to_end)
    assert record["pairs"] == 10 and record["seeds"] == list(range(100, 110))
    assert record["first_side"] == ["parent", "change"] * 5
    assert record["incorrect_runs"] == ["parent pair 3 (seed 103): no result, exit 1",
                                        "change pair 5 (seed 105): 1 of 40 ops failed"]
    assert record["failed_ops"]["change"][5] == 1 and record["failed_ops"]["parent"][3] is None
    rss = record["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["losses"], rss["pairs"]) == (9, 0, 9)
    assert rss["sign_test_p"] == 2 / 2 ** 9
    assert rss["parent_median"] == 60.5 and rss["change_median"] == pytest.approx(55.45)
    assert rss["verdict"] == "gain"
    ops = record["metrics"]["ops_per_s"]
    assert ops["pairs"] == 9 and ops["parent"][3] is None  # the run without a result is kept
    assert (ops["wins"], ops["losses"]) == (4, 5)
    assert ops["sign_test_p"] == 1.0
    assert ops["verdict"] == "within bound"
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_bench_pairs_verdicts():
    verdict = lambda parent, change, better="higher", bound=0.25: \
        load("bench_pairs").summarize_metric(parent, change, better, bound)["verdict"]
    assert verdict([100.0] * 10, [70.0] * 10) == "regression"
    assert verdict([100.0] * 10, [130.0] * 10, better="lower") == "regression"
    assert verdict([50.0, 100, 150, 200], [90.0, 90, 90, 90]) == "unresolved"
    assert verdict([50.0, 100, 150, 200], [250.0, 260, 270, 280]) == "gain"
