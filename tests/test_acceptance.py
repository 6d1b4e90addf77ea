"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  The fidelity experiments (criteria 7 and 9) share a session
fixture that runs its 5 seeds in 2 worker processes; it dominates the
runtime (about half a minute).
"""

import multiprocessing
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from _fidelity import fidelity_seed, random_bits
from _params import trainable_params

from nnwm.fixtures import random_conv_net, vgg16_style, vgg_tiny
from nnwm.model_store import channel_counts, conv_layer_indices
from nnwm.pipeline import (
    attack_noise,
    attack_zero_weights,
    embed,
    extract,
    verify,
)
from nnwm.pruner import apply_prune
from nnwm.toy_trainer import (
    TrainConfig,
    backward,
    finetune,
    forward,
    loss_softmax_ce,
    synth_dataset,
    to_precision,
)
from nnwm.wm_codec import (
    EmbedParams,
    WatermarkPayload,
    capacity,
    decode_rate_clamped,
    encode_rate,
    min_channels,
    rate_to_channel_count,
)


def criterion(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_capacity_reproduction():
    t0 = time.perf_counter()
    cells = {(162, 1, 0.4): 65, (162, 2, 0.4): 130, (162, 3, 0.8): 390,
             (39, 3, 0.6): 69, (16, 3, 1.0): 48}
    got = {args: capacity(*args) for args in cells}
    elapsed = time.perf_counter() - t0
    ok = got == cells and elapsed < 1.0
    criterion(1, "capacity reproduction", ok,
              f"{sum(got[a] == cells[a] for a in cells)}/5 cells, {elapsed:.3f}s")


def test_criterion_2_reliability_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240)
    failures = 0
    for trial in range(200):
        l = int(rng.integers(1, 4))
        params = EmbedParams(segment_length=l, key=bytes(rng.bytes(12)))
        model = random_conv_net(seed=9000 + trial,
                                n_convs=int(rng.integers(8, 21)),
                                c_lo=min_channels(params), c_hi=256)
        t = len(channel_counts(model))
        m = int(rng.integers(1, t + 1))
        n = int(rng.integers((m - 1) * l + 1, m * l + 1))
        bits = random_bits(rng, n)
        crit = "bn" if rng.random() < 0.5 else "l1"
        marked, receipt = embed(model, WatermarkPayload(bits, l), params, crit)
        out = extract(model, marked, params=params, n=n, criterion=crit)
        ok = (out.bits == bits and verify(bits, out).ber == 0.0
              and extract(receipt, marked).bits == bits)
        failures += 0 if ok else 1
    elapsed = time.perf_counter() - t0
    criterion(2, "reliability over 200 randomized trials",
              failures == 0 and elapsed < 60.0,
              f"{failures} failures, {elapsed:.1f}s")


def test_criterion_3_qim_exhaustive_roundtrip():
    failures = 0
    total = 0
    for l in (1, 2, 3, 4):
        params = EmbedParams(segment_length=l, key=b"")
        c_min = min_channels(params)
        for c in range(c_min, 513):
            for d in range(1 << l):
                k = rate_to_channel_count(encode_rate(d, params), c)
                total += 1
                if decode_rate_clamped(k / c, params) != (d, False):
                    failures += 1
    criterion(3, "exhaustive rate round trip", failures == 0,
              f"{failures} failures out of {total} combinations")


@pytest.fixture(scope="session")
def marked_tiny():
    """A marked five-conv fixture plus everything needed to re-extract."""
    model = vgg_tiny(0)
    rng = np.random.default_rng(4)
    bits = random_bits(rng, 15)
    params = EmbedParams(segment_length=3, key=b"attack-target")
    marked, receipt = embed(model, WatermarkPayload(bits, 3), params, criterion="l1")
    return model, marked, receipt, bits, params


def test_criterion_4_structural_robustness(marked_tiny):
    model, marked, receipt, bits, params = marked_tiny
    suspects = {
        "noise 0.1": attack_noise(marked, 0.1, seed=1),
        "noise 1.0": attack_noise(marked, 1.0, seed=2),
        "zero 30%": attack_zero_weights(marked, 0.3),
        "zero 90%": attack_zero_weights(marked, 0.9),
        "finetune 5 epochs": finetune(
            marked, synth_dataset(4, 256, 64)[0], TrainConfig(epochs=5, lr=0.001, seed=3)),
    }
    bad = []
    for name, suspect in suspects.items():
        via_receipt = extract(receipt, suspect).bits
        via_model = extract(model, suspect, params=params, n=15).bits
        if via_receipt != bits or via_model != bits:
            bad.append(name)
    criterion(4, "robustness to parameter-space attacks", not bad,
              f"BER exactly 0 after {len(suspects)} attacks" if not bad
              else f"corrupted by: {bad}")


def test_criterion_5_pruning_functional_equivalence():
    model = vgg_tiny(0)
    positions = conv_layer_indices(model)
    silenced = {positions[1]: list(range(5, 13)), positions[4]: list(range(40, 52))}
    entries = []
    for pos, dead in silenced.items():
        bn = model.layers[pos + 1]
        bn.gamma[dead] = 0.0
        bn.beta[dead] = 0.0
        retained = tuple(i for i in range(model.layers[pos].c_out)
                         if i not in set(dead))
        entries.append((pos, retained))
    pruned = apply_prune(model, dict(entries))
    x = np.random.default_rng(55).normal(size=(100, 1, 16, 16)).astype(np.float32)
    full, _ = forward(model, x, mode="eval")
    cut, _ = forward(pruned, x, mode="eval")
    gap = float(np.max(np.abs(full - cut)))
    criterion(5, "functional equivalence of silenced-channel pruning",
              gap <= 1e-5, f"max-abs difference {gap:.2e} over 100 inputs")


def test_criterion_6_gradient_correctness():
    model = to_precision(vgg_tiny(1), "f64")
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 1, 16, 16))
    y = rng.integers(0, 2, size=4)
    logits, contexts = forward(model, x, mode="train")
    grads = backward(model, contexts, loss_softmax_ce(logits, y)[1])
    h = 1e-5
    worst, checked = 0.0, 0
    kinds = set()
    for pos, name, arr in trainable_params(model):
        kinds.add(type(model.layers[pos]).__name__)
        flat = arr.ravel()
        for _ in range(3):
            i = int(rng.integers(0, flat.size))
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_softmax_ce(forward(model, x, mode="train")[0], y)[0]
            flat[i] = orig - h
            lm = loss_softmax_ce(forward(model, x, mode="train")[0], y)[0]
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[(pos, name)].ravel()[i]
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
            checked += 1
    ok = worst < 1e-4 and checked >= 50 and kinds >= {"ConvLayer", "BatchNormLayer",
                                                      "LinearLayer"}
    criterion(6, "analytic gradients vs central differences", ok,
              f"{checked} parameters across {sorted(kinds)}, worst rel err {worst:.2e}")


@pytest.fixture(scope="session")
def fidelity_runs():
    """Each arm's accuracies over 5 seeds (see ``_fidelity.fidelity_seed``).

    The seeds run in 2 worker processes with one BLAS thread each.  Returns
    the arms and the wall time the runs took, which criterion 7 bounds.
    """
    t0 = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(2, mp_context=spawn) as pool:  # joins its workers on exit
        threads = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read by each worker as submit starts it
        try:
            runs = [pool.submit(fidelity_seed, seed) for seed in range(5)]
        finally:
            if threads is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = threads
        per_seed = [run.result() for run in runs]
    results = {arm: [acc[arm] for acc in per_seed] for arm in per_seed[0]}
    return results, time.perf_counter() - t0


def test_criterion_7_toy_fidelity(fidelity_runs):
    runs, train_s = fidelity_runs
    t0 = time.perf_counter()
    med = {arm: statistics.median(accs) for arm, accs in runs.items()}
    ok = (med["baseline"] >= 0.90
          and med["baseline"] - med["l1"] <= 0.05
          and med["baseline"] - med["bn"] <= 0.05)
    criterion(7, "toy fidelity after full-coverage marking", ok,
              f"median baseline {med['baseline']:.3f}, l1 {med['l1']:.3f}, "
              f"bn {med['bn']:.3f}, training {train_s:.1f}s")
    assert train_s + time.perf_counter() - t0 < 600.0


def test_criterion_8_wrong_key_ber():
    model = vgg16_style(0)
    rng = np.random.default_rng(88)
    bits = random_bits(rng, 24)  # 8 of 16 layers: the key governs selection
    params = EmbedParams(segment_length=3, key=b"true-owner")
    marked, _ = embed(model, WatermarkPayload(bits, 3), params)
    bers = []
    for trial in range(1000):
        res = extract(model, marked, key=f"imposter-{trial}".encode(),
                      params=params, n=24)
        bers.append(verify(bits, res).ber)
    mean_ber = float(np.mean(bers))
    criterion(8, "wrong-key extraction looks random", 0.4 <= mean_ber <= 0.6,
              f"mean BER {mean_ber:.4f} over 1000 trials")


def test_criterion_9_monotone_fidelity_trend(fidelity_runs):
    runs, _ = fidelity_runs
    med_quarter = statistics.median(runs["quarter"])
    med_full = statistics.median(runs["l1"])
    criterion(9, "lighter coverage is never much worse",
              med_quarter >= med_full - 0.02,
              f"median quarter-coverage {med_quarter:.3f} vs full {med_full:.3f}")
