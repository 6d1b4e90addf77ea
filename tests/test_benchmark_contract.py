"""The benchmark harness in perfbench/ imports and traces library names.

Renaming one of them would break only the traced benchmark run, which is
not part of this suite; this test makes the rename fail here instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")  # fails if a name the workloads import is gone
    spans = importlib.import_module("spans")
    missing = [f"nnwm.{module}.{name}" for module, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"nnwm.{module}"), name, None))]
    assert missing == []
