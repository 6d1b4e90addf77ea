"""The benchmark harness in perfbench/ imports and traces library names and drives the CLI.

Renaming one of those names, or a parser change that rejects a benchmark
op, would break only the benchmark run, which is not part of this suite;
these tests make the change fail here instead.
"""

import importlib
import itertools
from pathlib import Path

import pytest

import nnwm
from nnwm import cli, importance, model_store, pipeline, pruner, toy_trainer
from nnwm.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")  # fails if a name the workloads import is gone
    spans = importlib.import_module("spans")
    missing = [f"nnwm.{module}.{name}" for module, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"nnwm.{module}"), name, None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["train_demo", "embed_vgg16w", "verify_sweep",
                                      "attack_vgg16"])
def test_benchmark_ops_parse(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    warmup, ops = importlib.import_module("workloads").WORKLOADS[workload](
        tmp_path, 0, tiny=True)
    parser = build_parser()
    for op in [warmup, *itertools.islice(ops, 60)]:
        parser.parse_args(op.argv)  # a rejected op exits 2 through SystemExit


def test_namespaces_the_benchmark_tracer_patches_bind_the_traced_functions():
    # the pairs perfbench/tests/test_perfbench.py reads; that suite is not part of this one
    bindings = [
        (cli, "load_arch", model_store.load_arch), (cli, "finetune", toy_trainer.finetune),
        (cli, "score", importance.score), (pipeline, "apply_prune", pruner.apply_prune),
        (pipeline, "clone_graph", model_store.clone_graph),
        (pruner, "validate", model_store.validate),
        (pruner, "clone_graph", model_store.clone_graph),
        (nnwm, "load_model", model_store.load_model),
        (model_store, "validate", model_store.validate),
        (toy_trainer, "forward", toy_trainer.forward)]
    assert [f"{m.__name__}.{name}" for m, name, fn in bindings
            if getattr(m, name, None) is not fn] == []
