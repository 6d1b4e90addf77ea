"""The benchmark harness in perfbench/ imports and traces library names and drives the CLI.

Renaming one of those names, or a parser change that rejects a benchmark
op, would break only the benchmark run, which is not part of this suite;
these tests make the change fail here instead.
"""

import importlib
import itertools
from pathlib import Path

import pytest

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
