"""The benchmark's four workloads, each a closed loop of real ``nnwm`` CLI ops.

Each workload function builds its inputs under ``work`` from ``seed`` and
returns ``(warmup, ops)``: one untimed warm-up op and an endless iterator
of measured ops.  The op mix (payload length, criterion, suspect kind,
attack type) rotates in a fixed order, so every seed runs the same mix;
the seed only changes payload bits, keys, model inits and attack seeds.
``tiny=True`` swaps in the smallest models so the tests can run every
workload in seconds.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from nnwm import fixtures, pipeline, pruner
from nnwm.model_store import (
    GlobalAvgPoolLayer,
    MaxPoolLayer,
    ModelGraph,
    ReluLayer,
    channel_counts,
    load_arch,
    save_model,
)
from nnwm.wm_codec import EmbedParams, WatermarkPayload

L = 3  # bits per segment in every workload

# Exit code `verify` must return for each kind of suspect in verify_sweep.
VERDICT_RC = {"match": 0, "flip": 1, "unmarked": 1}
VERIFY_VARIANTS = 6  # marked suspects per model size in verify_sweep

ATTACKS = ("noise", "zero", "structural")
EXTRA_RATES = ("0.02", "0.05", "0.1")
ATTACK_TARGETS = 8  # marked models attack_vgg16 rotates over

# VGG16 conv widths (13 convs, 14.7M parameters at 3x32x32 with a 10-way head).
VGG16_WIDTHS = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
                512, 512, 512, "M", 512, 512, 512]


class CheckFailed(Exception):
    """An op returned a result that differs from the known answer."""


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], None]  # (exit code, stdout) -> raises CheckFailed
    train_samples: int = 0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def json_docs(text: str) -> list[dict]:
    """Every JSON document printed back to back (``attack --expect`` prints two)."""
    decoder = json.JSONDecoder()
    docs, i, text = [], 0, text.strip()
    while i < len(text):
        doc, i = decoder.raw_decode(text, i)
        docs.append(doc)
        while i < len(text) and text[i].isspace():
            i += 1
    return docs


def vgg16_width(seed: int) -> ModelGraph:
    """VGG16-width host built from the fixture helpers."""
    rng = np.random.default_rng(seed)
    layers, c_in = [], 3
    for w in VGG16_WIDTHS:
        if w == "M":
            layers.append(MaxPoolLayer(2, 2))
            continue
        layers += [fixtures._conv(rng, w, c_in), fixtures._bn(w), ReluLayer()]
        c_in = w
    layers += [GlobalAvgPoolLayer(), fixtures._linear(rng, 10, c_in)]
    return ModelGraph(layers, (3, 32, 32), "vgg16-width")


def manifest_params(arch_path: Path) -> int:
    """Float count the blob of a manifest holds, computed from the manifest alone."""
    total = 0
    for rec in json.loads(arch_path.read_text(encoding="utf-8"))["layers"]:
        if rec["type"] == "conv2d":
            kh, kw = rec["kernel"]
            total += rec["out_channels"] * (rec["in_channels"] * kh * kw + bool(rec["bias"]))
        elif rec["type"] == "batchnorm":
            total += 4 * rec["channels"]
        elif rec["type"] == "linear":
            total += rec["out"] * (rec["in"] + bool(rec["bias"]))
    return total


def _payload(rng: np.random.Generator, n: int) -> str:
    """Random bits whose first segment is non-zero, so an unmarked model mismatches."""
    bits = "".join(rng.choice(["0", "1"], size=n))
    return "1" + bits[1:] if "1" not in bits[:L] else bits


def _segments(t: int, variant: int, variants: int) -> int:
    """Segments for one of several variants, spread evenly from 1 to ``t``."""
    return max(1, round(t * (variant + 1) / variants))


def _save_manifest(model: ModelGraph, arch: Path) -> None:
    """Write only the manifest; verify never reads a blob."""
    blob = arch.with_suffix(".bin")
    save_model(model, arch, blob)
    blob.unlink()


# --- train_demo -------------------------------------------------------------

def _check_train_demo(rc: int, out: str, accuracy: bool = True) -> None:
    _require(rc == 0, f"train-demo exit {rc}")
    doc = json.loads(out)
    _require(doc["matched"] and doc["ber"] == 0, f"train-demo BER {doc['ber']}")
    if accuracy:
        _require(doc["baseline_accuracy"] >= 0.90,
                 f"baseline accuracy {doc['baseline_accuracy']} < 0.90")
        _require(doc["accuracy_delta"] <= 0.05,
                 f"accuracy delta {doc['accuracy_delta']} > 0.05")


def train_demo(work: Path, seed: int, tiny: bool = False) -> tuple[Op, Iterator[Op]]:
    """`train-demo` on vgg_tiny: 512/256 stripe task, 5 + 5 epochs, full coverage.

    The warm-up op trains 1 + 1 epochs: enough to pay the slow first epoch
    without adding a whole 5 + 5 op to set-up.  One epoch each is too short
    for the accuracy bounds, so the warm-up checks only the watermark.
    """
    rng = np.random.default_rng(seed)
    epochs = 2 if tiny else 5

    def op(base_epochs: int, finetune_epochs: int, accuracy: bool = True) -> Op:
        s = int(rng.integers(2**31))
        return Op(["train-demo", "--json", "--seed", str(s), "--key", f"demo-{s}",
                   "--epochs", str(base_epochs), "--finetune-epochs", str(finetune_epochs)],
                  lambda rc, out: _check_train_demo(rc, out, accuracy),
                  train_samples=(base_epochs + finetune_epochs) * 512)

    return op(1, 1, accuracy=False), (op(epochs, epochs) for _ in itertools.count())


# --- embed_vgg16w -----------------------------------------------------------

def _check_embed(work: Path, bits: str, rc: int, out: str) -> None:
    _require(rc == 0, f"embed exit {rc}")
    arch, blob = work / "marked.json", work / "marked.bin"
    size, expected = blob.stat().st_size, 8 + 4 * manifest_params(arch)
    _require(size == expected, f"blob is {size} bytes, manifest needs {expected}")
    got = pipeline.extract(pruner.load_receipt(work / "receipt.json"), load_arch(arch)).bits
    _require(got == bits, "receipt does not extract the payload")


def embed_vgg16w(work: Path, seed: int, tiny: bool = False) -> tuple[Op, Iterator[Op]]:
    """`embed` on a VGG16-width host; 1..13 segments, criterion alternating l1/bn."""
    rng = np.random.default_rng(seed)
    host = fixtures.vgg16_style(seed) if tiny else vgg16_width(seed)
    save_model(host, work / "host.json", work / "host.bin")
    t = len(channel_counts(host))
    key = f"owner-{seed}"

    def ops() -> Iterator[Op]:
        for i in itertools.count():
            bits = _payload(rng, L * (1 + i % t))
            yield Op(["embed", "--arch", str(work / "host.json"),
                      "--weights", str(work / "host.bin"), "--payload", bits,
                      "--key", key, "--l", str(L), "--criterion", ("l1", "bn")[i % 2],
                      "--out-prefix", str(work / "marked"),
                      "--receipt", str(work / "receipt.json"), "--json"],
                     lambda rc, out, bits=bits: _check_embed(work, bits, rc, out))

    it = ops()
    return next(it), it


# --- verify_sweep -----------------------------------------------------------

def _check_verdict(kind: str, rc: int, out: str) -> None:
    _require(rc == VERDICT_RC[kind], f"verify ({kind}) exit {rc}, expected {VERDICT_RC[kind]}")
    _require(json_docs(out)[-1]["matched"] == (rc == 0), "verdict disagrees with exit code")


def verify_sweep(work: Path, seed: int, tiny: bool = False) -> tuple[Op, Iterator[Op]]:
    """`verify` over a pool of suspects on three model sizes, half by receipt.

    Per size: six marked variants whose payloads run from one segment to
    full coverage, criterion alternating l1/bn, each checked as a match,
    against one flipped expected bit, and as the unmarked host.  Every case
    runs once by receipt and once by original manifest plus key.  Many
    variants spread the latencies evenly, so no percentile sits on a gap
    between two clusters of cases.
    """
    rng = np.random.default_rng(seed)
    hosts = [("vgg_tiny", fixtures.vgg_tiny(seed)), ("vgg16_style", fixtures.vgg16_style(seed)),
             ("vgg16_width", fixtures.vgg16_style(seed + 1) if tiny else vgg16_width(seed))]
    cases = []
    for name, host in hosts:
        host_json = work / f"{name}.json"
        _save_manifest(host, host_json)
        t = len(channel_counts(host))
        for variant in range(VERIFY_VARIANTS):
            crit = ("l1", "bn")[variant % 2]
            bits = _payload(rng, L * _segments(t, variant, VERIFY_VARIANTS))
            key = f"owner-{seed}-{name}-{variant}"
            marked, receipt = pipeline.embed(host, WatermarkPayload(bits, L),
                                             EmbedParams(L, key.encode()), criterion=crit)
            marked_json = work / f"{name}-{variant}.json"
            receipt_path = work / f"{name}-{variant}.receipt.json"
            _save_manifest(marked, marked_json)
            pruner.save_receipt(receipt, receipt_path)
            flip = int(rng.integers(len(bits)))
            flipped = bits[:flip] + "10"[int(bits[flip])] + bits[flip + 1:]
            for kind, suspect, expect in (("match", marked_json, bits),
                                          ("flip", marked_json, flipped),
                                          ("unmarked", host_json, bits)):
                by_receipt = ["--receipt", str(receipt_path)]
                by_original = ["--original", str(host_json), "--key", key,
                               "--n", str(len(bits)), "--l", str(L), "--criterion", crit]
                for source in (by_receipt, by_original):
                    cases.append(Op(["verify", "--suspect", str(suspect), "--expect", expect,
                                     "--json", *source],
                                    lambda rc, out, kind=kind: _check_verdict(kind, rc, out)))
    it = itertools.cycle(cases)
    return next(it), it


# --- attack_vgg16 -----------------------------------------------------------

def _check_attack(kind: str, rc: int, out: str) -> None:
    verdict = json_docs(out)[-1]
    _require(verdict["matched"] == (rc == 0), "verdict disagrees with exit code")
    if kind == "structural":
        _require(rc in (0, 1), f"structural attack exit {rc}")
    else:
        _require(rc == 0, f"{kind} attack moved the watermark (exit {rc})")


def attack_vgg16(work: Path, seed: int, tiny: bool = False) -> tuple[Op, Iterator[Op]]:
    """`attack --expect` rotating noise / zero / structural on marked vgg16_style models.

    The attacks cost in proportion to the marked model's size, which the
    payload sets; rotating over several marked models, whose payloads run
    from 2 segments to full coverage, keeps that cost from swinging with
    the seed.
    """
    rng = np.random.default_rng(seed)
    host = fixtures.vgg_tiny(seed) if tiny else fixtures.vgg16_style(seed)
    t = len(channel_counts(host))
    targets = []
    for v in range(ATTACK_TARGETS):
        bits = _payload(rng, L * _segments(t, v, ATTACK_TARGETS))
        marked, receipt = pipeline.embed(host, WatermarkPayload(bits, L),
                                         EmbedParams(L, f"owner-{seed}-{v}".encode()),
                                         criterion="l1")
        save_model(marked, work / f"marked{v}.json", work / f"marked{v}.bin")
        pruner.save_receipt(receipt, work / f"receipt{v}.json")
        targets.append(bits)

    def ops() -> Iterator[Op]:
        for i in itertools.count():
            kind = ATTACKS[i % len(ATTACKS)]
            v = (i // len(ATTACKS)) % ATTACK_TARGETS
            argv = ["attack", "--type", kind, "--arch", str(work / f"marked{v}.json"),
                    "--weights", str(work / f"marked{v}.bin"),
                    "--out-prefix", str(work / "attacked"),
                    "--receipt", str(work / f"receipt{v}.json"), "--expect", targets[v],
                    "--seed", str(int(rng.integers(2**31))), "--json"]
            if kind == "structural":
                argv += ["--extra-rate", EXTRA_RATES[v % len(EXTRA_RATES)]]
            yield Op(argv, lambda rc, out, kind=kind: _check_attack(kind, rc, out))

    it = ops()
    return next(it), it


WORKLOADS = {f.__name__: f for f in (train_demo, embed_vgg16w, verify_sweep, attack_vgg16)}
