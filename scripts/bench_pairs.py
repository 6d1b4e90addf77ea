#!/usr/bin/env python3
"""Judge a change against its parent by alternating pairs of benchmark runs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W --pairs N \
        [--first-seed N] [--out BENCH_N.json]

Each tree is a checkout (for example one made by ``git archive``).  Pair i
runs the tree's own, unchanged ``perfbench/run.py`` once in each tree with
seed ``first-seed + i`` for ``run_seconds`` of the change's
``BENCHMARK.json``, one run at a time, each in a subprocess with its tree
as the working directory; even pairs run the parent first, odd pairs the
change.  For each run it records the result line (correct, attempted and
failed ops, the end-to-end metrics), the child CPU time and minor faults
(``RUSAGE_CHILDREN`` deltas), the wall time and the load average at its
start and end.  A run that is not correct, or that printed
no result, is reported, never dropped.

For each end-to-end metric of ``BENCHMARK.json`` it reports both sides'
medians, the parent's interquartile range as a share of its median, each
pair's change/parent ratio, the pairs the change won, a two-sided sign-test
p-value, and a verdict: a gain is resolved when the change wins at least
nine tenths of the pairs and its median beats the parent's by more than the
parent's IQR; a metric worse by more than its bound regresses, unless the
parent's IQR is wider than the bound, which leaves it unresolved, as it
does a metric within its bound whose IQR is wider.  With ``--out`` the
workload's record is merged into that JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, interpolated linearly (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value for wins against losses, ties left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def summarize_metric(parent: list[float | None], change: list[float | None], better: str,
                     bound: float) -> dict:
    """The pairwise comparison of one metric; None marks a run that printed no value."""
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    p_vals = [p for p in parent if p is not None]
    c_vals = [c for c in change if c is not None]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p1, p_med, p3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    iqr = p3 - p1
    rel_iqr = iqr / p_med if p_med else math.inf
    worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0  # > 0: the change is worse
    all_better = bool(p_vals and c_vals) and (
        min(c_vals) > max(p_vals) if better == "higher" else max(c_vals) < min(p_vals))
    if wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > iqr:
        verdict = "gain"
    elif rel_iqr > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {"parent": parent, "change": change,
            "parent_median": p_med, "change_median": c_med,
            "change_vs_parent": c_med / p_med - 1 if p_med else None,
            "parent_iqr_rel": rel_iqr, "ratios": [c / p if p else None for p, c in pairs],
            "wins": wins, "losses": losses, "pairs": len(pairs),
            "sign_test_p": sign_test(wins, losses), "bound": bound, "verdict": verdict}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The workload's record from its runs, each {"pair", "side", "result", ...} in run order.

    ``end_to_end`` is BENCHMARK.json's list of metrics (name, better, bound).
    """
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
               for side in SIDES}
    results = {side: [r["result"] or {} for r in by_side[side]] for side in SIDES}
    record = {
        "pairs": len(by_side["parent"]),
        "seeds": [r["seed"] for r in by_side["parent"]],
        "first_side": [min((r for r in runs if r["pair"] == p["pair"]),
                           key=lambda r: r["order"])["side"] for p in by_side["parent"]],
        "incorrect_runs": [f"{r['side']} pair {r['pair']} (seed {r['seed']}): "
                           + (f"{r['result']['failed']} of {r['result']['attempted']} ops failed"
                              if r["result"] else f"no result, exit {r['returncode']}")
                           for r in runs if not (r["result"] or {}).get("correct")],
        "attempted_ops": {s: [res.get("attempted") for res in results[s]] for s in SIDES},
        "failed_ops": {s: [res.get("failed") for res in results[s]] for s in SIDES},
        "child_cpu_s": {s: [r["cpu_s"] for r in by_side[s]] for s in SIDES},
        "minor_faults": {s: [r["minflt"] for r in by_side[s]] for s in SIDES},
        "loadavg_1min": {s: [[r["loadavg_start"], r["loadavg_end"]] for r in by_side[s]]
                         for s in SIDES},
        "metrics": {},
    }
    for m in end_to_end:
        values = {s: [res.get("metrics", {}).get(m["name"], {}).get("value")
                      for res in results[s]] for s in SIDES}
        if any(v is not None for v in values["parent"]) and \
                any(v is not None for v in values["change"]):
            record["metrics"][m["name"]] = summarize_metric(
                values["parent"], values["change"], m["better"], m["bound"])
    return record


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in tree, with its rusage and load average."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    load_start, t0 = os.getloadavg()[0], time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    wall, load_end = time.perf_counter() - t0, os.getloadavg()[0]
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return {"result": result, "returncode": proc.returncode, "wall_s": wall,
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "minflt": after.ru_minflt - before.ru_minflt,
            "loadavg_start": load_start, "loadavg_end": load_end,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:] if result is None else []}


def report(workload: str, record: dict) -> list[str]:
    lines = [f"{workload}: {record['pairs']} pairs, seeds {record['seeds'][0]}.."
             f"{record['seeds'][-1]}"]
    lines += [f"  incorrect run: {r}" for r in record["incorrect_runs"]]
    for name, m in record["metrics"].items():
        change = "n/a" if m["change_vs_parent"] is None else f"{m['change_vs_parent']:+.1%}"
        lines.append(f"  {name:12} parent {m['parent_median']:.6g}  change "
                     f"{m['change_median']:.6g}  ({change}; parent IQR "
                     f"{m['parent_iqr_rel']:.1%}; wins {m['wins']}/{m['pairs']}, "
                     f"sign test p={m['sign_test_p']:.3g}; bound {m['bound']:.0%}): "
                     f"{m['verdict']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="JSON record to merge this workload into")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            run = run_once(trees[side], args.workload, seed, seconds)
            runs.append({"pair": pair, "seed": seed, "side": side, "order": len(runs), **run})
            res = run["result"]
            print(f"pair {pair} seed {seed} {side}: "
                  + (f"ops {res['attempted']} failed {res['failed']}" if res
                     else f"no result (exit {run['returncode']})"), flush=True)
    record = summarize(runs, bench["end_to_end"])
    # the metric values are in record["metrics"]; each run keeps its outcome and costs
    record["runs"] = [{**{k: v for k, v in r.items() if k != "result"},
                       **{k: (r["result"] or {}).get(k) for k in ("correct", "attempted", "failed")}}
                      for r in runs]
    print("\n".join(report(args.workload, record)))
    if args.out is not None:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc.setdefault("method", {
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} "
                       "--trace 0",
            "pairs": "scripts/bench_pairs.py: one run per tree per seed, alternating which "
                     "tree runs first",
            "quartiles": "statistics.quantiles(values, n=4, method='inclusive')"})
        doc.setdefault("end_to_end", {})[args.workload] = record
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
