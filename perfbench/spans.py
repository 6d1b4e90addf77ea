"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each ``nnwm`` module from outside
the library.  A module that did ``from .model_store import load_arch``
holds its own reference, so ``install`` rebinds every ``nnwm.*`` namespace
entry that is one of the wrapped functions; patching only the defining
module would silently miss those calls.  Spans are kept in memory with
their parent ids and written out when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

# Public functions timed per module.  toy_trainer.forward is reported as
# forward_train / forward_eval, split by its ``mode`` argument.
TRACED = {
    "cli": ["main"],
    "model_store": ["load_arch", "load_model", "save_model", "validate", "clone_graph"],
    "importance": ["score"],
    "wm_codec": ["select_layers", "keyed_shuffle"],
    "pruner": ["plan_layer", "apply_prune", "load_receipt", "save_receipt"],
    "pipeline": ["embed", "extract", "verify", "eligible_layers", "attack_noise",
                 "attack_zero_weights", "attack_structural"],
    "toy_trainer": ["finetune", "forward", "backward", "loss_softmax_ce", "sgd_step",
                    "evaluate", "to_precision"],
}

# File arguments whose sizes give the computed byte counts: (direction, arg positions).
FILE_ARGS = {
    "model_store.load_arch": ("read", (0,)),
    "model_store.load_model": ("read", (0, 1)),
    "model_store.save_model": ("written", (1, 2)),
    "pruner.load_receipt": ("read", (0,)),
    "pruner.save_receipt": ("written", (1,)),
}


def span_names() -> list[str]:
    """Every span name the tracer can record, in report order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            if module == "toy_trainer" and fn == "forward":
                names += ["toy_trainer.forward_train", "toy_trainer.forward_eval"]
            else:
                names.append(f"{module}.{fn}")
    return names


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: its duration minus the union of its children's intervals.

    Child intervals are clipped to the parent, so the self times of a tree
    sum to the root's duration.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Records spans around wrapped nnwm functions while ``active`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.bytes = {"read": 0, "written": 0}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        io = FILE_ARGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name
            if name == "toy_trainer.forward":
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
                span_name = f"toy_trainer.forward_{mode}"
            sid = len(self.spans)
            span = Span(sid, self._stack[-1] if self._stack else None, span_name,
                        time.perf_counter(), 0.0)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if io is not None:
                    direction, positions = io
                    self.bytes[direction] += sum(
                        os.path.getsize(args[i]) for i in positions
                        if i < len(args) and os.path.exists(args[i]))

        return wrapper

    def install(self) -> None:
        """Rebind every nnwm namespace entry that refers to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nnwm" or n.startswith("nnwm."))]
        for module, functions in TRACED.items():
            home = sys.modules[f"nnwm.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def per_layer(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time in ms, by span name."""
        selfs = self_times(self.spans)
        out = {name: (0, 0.0) for name in span_names()}
        for s in self.spans:
            calls, ms = out[s.name]
            out[s.name] = (calls + 1, ms + 1000.0 * selfs[s.id])
        return out
