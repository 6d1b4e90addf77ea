"""nnwm benchmark: run one workload as a closed loop of in-process CLI ops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``nnwm`` from ``./src`` and
refuses to run without it.  One client in one process sends the next op
when the previous one returns; ops call ``nnwm.cli.main(argv)`` directly,
since a fresh interpreter per op would cost more than most ops.  Every op's
result is checked against the answer known from how its inputs were built.

Standard output is a machine note, the workload's metrics as
``name value unit`` lines, and last one JSON object.  With ``--trace 0``
its metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the tracer wraps the nnwm modules and the metrics are the
per-layer calls and self times, and the spans go to
``perfbench/out/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_demo", "embed_vgg16w", "verify_sweep", "attack_vgg16")
SETUP_REPEATS = 3
TAIL = 75  # the tail percentile reported; needs >= 40 ops per run for 10 beyond it
MIN_BEYOND = 10
# A traced op's wall time may exceed the sum of its spans' self times by the
# tracer's and the harness's own work around the root span.
SELF_SUM_TOLERANCE = (0.02, 0.0005)  # (share of op wall time, seconds)
# Prefix of each workload's op name in the human-readable metric lines.
OP_NAMES = {"train_demo": "train", "embed_vgg16w": "embed",
            "verify_sweep": "verify", "attack_vgg16": "attack"}


def percentile(values: list[float], q: float) -> float:
    """q-th percentile, interpolated linearly between the closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def beyond(n: int, q: float) -> int:
    """Samples beyond the q-th percentile of n, counted conservatively (p90 needs n >= 100)."""
    return n - max(1, math.ceil(q / 100 * n))


def import_nnwm(root: Path) -> float:
    """Import nnwm from ``root/src``, and the workloads built on it; returns seconds taken."""
    src = root / "src"
    if not (src / "nnwm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nnwm sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import nnwm.cli  # noqa: F401
    import workloads  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(nnwm.__file__).resolve().parent != (src / "nnwm").resolve():
        raise SystemExit(f"perfbench: imported nnwm from {nnwm.__file__}, not {src}")
    return elapsed


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_note(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "NUMPY_MADVISE_HUGEPAGE")},
        "loadavg_at_start": os.getloadavg(),
    }


def run_op(op, tracer=None) -> tuple[float, str | None]:
    """Time one CLI op, then check it; returns (seconds, failure or None)."""
    from nnwm import cli
    from workloads import CheckFailed

    out = io.StringIO()
    failure = None
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(op.argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:
        failure = f"{op.argv[0]}: {type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    if failure is None:
        try:
            op.check(rc, out.getvalue())
        except (CheckFailed, ValueError, KeyError, IndexError, OSError) as e:
            failure = f"{op.argv[0]}: {type(e).__name__}: {e}"
    return elapsed, failure


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        import_s: float = 0.0, tiny: bool = False) -> tuple[list[str], dict]:
    """Set up, warm up, measure; returns (human-readable lines, result object)."""
    import workloads
    from spans import Tracer, self_times, span_names

    note = machine_note(workload, seed)
    work_root = root / "perfbench" / "out" / f"work-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            work = work_root / f"setup{rep}"
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            warmup, ops = workloads.WORKLOADS[workload](work, seed, tiny)
            _, failure = run_op(warmup)
            setups.append(time.perf_counter() - t0)
            if failure:
                raise SystemExit(f"perfbench: warm-up op failed: {failure}")
            if rep < SETUP_REPEATS - 1:
                shutil.rmtree(work)

        if tracer is not None:
            tracer.install()
        latencies, failures, samples, self_share = [], [], [], []
        start = time.perf_counter()
        while True:
            op = next(ops)
            first_span = len(tracer.spans) if tracer else 0
            elapsed, failure = run_op(op, tracer)
            latencies.append(elapsed)
            if failure:
                failures.append(failure)
            if op.train_samples:
                samples.append(op.train_samples / elapsed)
            if tracer is not None:
                op_spans = tracer.spans[first_span:]
                self_share.append((sum(self_times(op_spans).values()), elapsed))
            # Closed loop: the op in flight when the window ends still counts.
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)

    n = len(latencies)
    name = OP_NAMES[workload]
    e2e = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_ms_p50": (1000 * percentile(latencies, 50), "ms"),
        f"op_ms_p{TAIL}": (1000 * percentile(latencies, TAIL), "ms"),
    }
    lines = [f"machine {json.dumps(note)}",
             f"workload {workload} seed {seed} ops {n} failed {len(failures)}"
             f"{' (traced)' if trace else ''}"]
    tail_note = "" if beyond(n, TAIL) >= MIN_BEYOND else \
        f"  (only {beyond(n, TAIL)} ops beyond it: not a tail estimate)"
    lines += [f"{name}_per_s {e2e['ops_per_s'][0]:.6g} 1/s",
              f"{name}_ms_p50 {e2e['op_ms_p50'][0]:.6g} ms",
              f"{name}_ms_p{TAIL} {e2e[f'op_ms_p{TAIL}'][0]:.6g} ms{tail_note}"]
    if samples:
        lines.append(f"train_samples_per_s {statistics.median(samples):.6g} samples/s")
    lines += [f"setup_s {e2e['setup_s'][0]:.6g} s",
              f"peak_rss_mb {e2e['peak_rss_mb'][0]:.6g} MB",
              f"failed_frac {len(failures) / n:.6g} (of {n} ops)"]
    lines += [f"failure: {f}" for f in failures[:5]]

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if tracer is not None:
        shares = [s / wall for s, wall in self_share]
        worst = max(wall - s - SELF_SUM_TOLERANCE[0] * wall for s, wall in self_share)
        lines.append(f"trace: self times sum to {min(shares):.4f}..{max(shares):.4f} of op "
                     f"wall time; tolerance {SELF_SUM_TOLERANCE[0]:.0%} + "
                     f"{SELF_SUM_TOLERANCE[1] * 1000:g} ms "
                     f"{'met' if worst <= SELF_SUM_TOLERANCE[1] else 'NOT met'}")
        metrics = {}
        for span, (calls, self_ms) in tracer.per_layer().items():
            metrics[f"{span}.calls"] = {"value": calls, "unit": "count"}
            metrics[f"{span}.self_ms"] = {"value": self_ms, "unit": "ms"}
        for direction, count in tracer.bytes.items():
            metrics[f"model_store.bytes_{direction}"] = {"value": count,
                                                         "unit": "computed_bytes"}
        trace_path = root / "perfbench" / "out" / f"trace-{workload}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "machine": note, "end_to_end_traced": {k: v for k, (v, _) in e2e.items()},
            "per_layer": metrics, "span_names": span_names(),
            "spans": [[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans],
        }), encoding="utf-8")
        lines.append(f"trace written to {trace_path.relative_to(root)}")
    result = {"correct": not failures, "attempted": n, "failed": len(failures),
              "metrics": metrics}
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    import_s = import_nnwm(root)
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), root,
                        import_s=import_s)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
