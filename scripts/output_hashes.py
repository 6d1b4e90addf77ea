#!/usr/bin/env python3
"""SHA-256 of the outputs that tests/test_golden.py leaves out on purpose.

Trained weights (also the blob ``embed --finetune-epochs`` writes),
``attack_noise`` and ``inspect --scores`` go through BLAS and SIMD
reductions, so their bytes may differ between hosts and no test pins
them.  On one host a change that keeps behaviour must keep them: run this
on both sides of a change and compare the lines.  ``attack_noise_blob``
moved once on purpose, when ``attack_noise`` changed from
``Generator.normal`` in float64 to a Box–Muller draw in the tensor's dtype
(``abf87db505f7…`` to ``18cf14d85048…``; see CHANGES.md).  The four
trained-weight lines moved once on purpose, when train-mode batchnorm
moved to channel-major rows and sums its statistics by a BLAS product and
a row dot: ``finetune_f32_5`` ``576e98abc78c…`` to ``98d086b8dc33…``,
``finetune_f64_2`` ``cb4d574ff940…`` to ``b978feac4b8a…``,
``train_demo_csv`` ``fb3dc07dcdab…`` to ``f6b4db25aba2…`` and
``embed_cli_finetune`` ``ece6038de733…`` to ``b2916a105df0…``;
``train_demo_stdout`` held.

    PYTHONPATH=src python scripts/output_hashes.py [NAME ...]

Prints one ``name sha256`` line per output, all of them by default or the
named ones in the given order.  The trained-weight entries and the
``train-demo`` pair take a few seconds each; the rest are cheap.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from nnwm.cli import main as nnwm
from nnwm.fixtures import vgg16_style, vgg_tiny
from nnwm.model_store import layer_arrays, save_model
from nnwm.pipeline import attack_noise
from nnwm.toy_trainer import TrainConfig, finetune, synth_dataset, to_precision


def _weights(precision: str, epochs: int) -> bytes:
    """Every array of finetune(vgg_tiny(0)) in blob order, at the given precision."""
    train, _ = synth_dataset(0, 512, 256)
    tuned = finetune(to_precision(vgg_tiny(0), precision), train,
                     TrainConfig(epochs=epochs, lr=0.01, seed=0))
    return b"".join(arr.tobytes() for ly in tuned.layers for _, arr in layer_arrays(ly))


def _stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = nnwm(argv)
    if rc != 0:
        raise SystemExit(f"nnwm {' '.join(argv)} exited {rc}")
    return out.getvalue().encode("utf-8")


@functools.cache  # one run gives both outputs
def _train_demo(tmp: Path) -> tuple[bytes, bytes]:
    csv = tmp / "metrics.csv"
    stdout = _stdout(["train-demo", "--seed", "0", "--epochs", "2", "--finetune-epochs", "2",
                      "--json", "--metrics-csv", str(csv)])
    return stdout, csv.read_bytes()


def _noise_blob(tmp: Path) -> bytes:
    save_model(attack_noise(vgg16_style(0), 0.1, seed=3), tmp / "noise.json", tmp / "noise.bin")
    return (tmp / "noise.bin").read_bytes()


def _embed_finetune_blob(tmp: Path) -> bytes:
    """The blob ``nnwm embed --finetune-epochs 1`` writes for vgg_tiny(0)."""
    save_model(vgg_tiny(0), tmp / "tiny.json", tmp / "tiny.bin")
    _stdout(["embed", "--arch", str(tmp / "tiny.json"), "--weights", str(tmp / "tiny.bin"),
             "--payload", "101100111", "--key", "owner", "--l", "3",
             "--finetune-epochs", "1", "--seed", "0",
             "--out-prefix", str(tmp / "embedded"), "--receipt", str(tmp / "embedded-r.json")])
    return (tmp / "embedded.bin").read_bytes()


def _scores(tmp: Path, criterion: str) -> bytes:
    arch, weights = tmp / "vgg16_style.json", tmp / "vgg16_style.bin"
    if not weights.exists():
        save_model(vgg16_style(0), arch, weights)
    return _stdout(["inspect", "--scores", "--arch", str(arch), "--weights", str(weights),
                    "--criterion", criterion, "--json"])


# name -> bytes of the output, given a temporary directory
OUTPUTS = {
    "finetune_f32_5": lambda tmp: _weights("f32", 5),
    "finetune_f64_2": lambda tmp: _weights("f64", 2),
    "train_demo_stdout": lambda tmp: _train_demo(tmp)[0],
    "train_demo_csv": lambda tmp: _train_demo(tmp)[1],
    "attack_noise_blob": _noise_blob,
    "embed_cli_finetune": _embed_finetune_blob,
    "inspect_scores_l1": lambda tmp: _scores(tmp, "l1"),
    "inspect_scores_bn": lambda tmp: _scores(tmp, "bn"),
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help=f"outputs to hash (default: all): {', '.join(OUTPUTS)}")
    names = ap.parse_args(argv).names or list(OUTPUTS)
    unknown = [n for n in names if n not in OUTPUTS]
    if unknown:
        ap.error(f"unknown output {', '.join(unknown)} (choose from {', '.join(OUTPUTS)})")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            print(name, hashlib.sha256(OUTPUTS[name](Path(tmp))).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
