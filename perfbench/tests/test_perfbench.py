"""Tests of the benchmark itself: statistics, span arithmetic, and tiny runs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_interpolates_like_numpy():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    for q in (0, 50, 75, 90, 100):
        assert run.percentile(values, q) == pytest.approx(float(np.percentile(values, q)))
    assert run.percentile([7.0], 75) == 7.0
    assert run.percentile([10.0, 20.0], 50) == 15.0


def test_tail_needs_ten_samples_beyond_it():
    assert run.beyond(100, 90) == 10 and run.beyond(99, 90) == 9
    assert min(n for n in range(1, 1000) if run.beyond(n, 90) >= 10) == 100
    assert min(n for n in range(1, 1000) if run.beyond(n, run.TAIL) >= 10) == 40


def test_self_time_subtracts_children():
    tree = [Span(0, None, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 4.0),
            Span(2, 1, "a1", 2.0, 3.0), Span(3, 0, "b", 5.0, 6.5)]
    got = self_times(tree)
    assert got == {0: 10.0 - 3.0 - 1.5, 1: 2.0, 2: 1.0, 3: 1.5}
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [Span(0, None, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 4.0),
            Span(2, 0, "b", 3.0, 6.0), Span(3, 0, "c", 9.0, 12.0)]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_patches_every_namespace_that_binds_a_function():
    import nnwm
    from nnwm import cli, model_store, pipeline, pruner, toy_trainer

    originals = {(m.__name__, a): getattr(m, a) for m, a in [
        (cli, "load_arch"), (cli, "finetune"), (cli, "score"), (pipeline, "apply_prune"),
        (pipeline, "clone_graph"), (pruner, "validate"), (pruner, "clone_graph"),
        (nnwm, "load_model"), (model_store, "validate"), (toy_trainer, "forward")]}
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), fn in originals.items():
            assert getattr(sys.modules[module], attr) is not fn, f"{module}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn


def test_benchmark_lists_every_traced_metric():
    names = [m["name"] for m in BENCH["per_layer"]]
    expected = [f"{s}.{k}" for s in spans.span_names() for k in ("calls", "self_ms")]
    assert names == expected + ["model_store.bytes_read", "model_store.bytes_written"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, tmp_path):
    lines, result = run.run(workload, 0, 0.3, False, tmp_path, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines}
    op = run.OP_NAMES[workload]
    assert {f"{op}_per_s", f"{op}_ms_p50", f"{op}_ms_p{run.TAIL}", "setup_s",
            "peak_rss_mb", "failed_frac"} <= printed
    assert ("train_samples_per_s" in printed) == (workload == "train_demo")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_traced_run_reports_layers(workload, tmp_path):
    lines, result = run.run(workload, 0, 0.3, True, tmp_path, tiny=True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == result["attempted"]
    # The self times of an op's spans must add up to its wall time.
    trace_line = next(line for line in lines if line.startswith("trace: "))
    assert trace_line.endswith(" met") and "NOT met" not in trace_line
    assert (tmp_path / "perfbench" / "out" / f"trace-{workload}-seed0.json").is_file()
    layer = {"train_demo": "toy_trainer.backward", "embed_vgg16w": "pruner.apply_prune",
             "verify_sweep": "pipeline.extract", "attack_vgg16": "pipeline.attack_noise"}
    assert result["metrics"][f"{layer[workload]}.calls"]["value"] >= 1


def test_forced_wrong_verdict_raises_failed_frac(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.VERDICT_RC, "flip", 0)
    lines, result = run.run("verify_sweep", 0, 0.3, False, tmp_path, tiny=True)
    assert not result["correct"] and result["failed"] > 0
    failed_frac = next(float(line.split()[1]) for line in lines if line.startswith("failed_frac"))
    assert failed_frac == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "verify_sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
