#!/usr/bin/env python3
"""Accuracy vs layer coverage on the synthetic task.

Trains the five-conv fixture, embeds random payloads at several coverage
levels for both importance criteria, fine-tunes, and reports recovered
accuracy per arm.  Writes one CSV row per (seed, criterion, coverage).
"""

import argparse
import csv
import statistics
import sys
from collections import defaultdict

import numpy as np

from nnwm.fixtures import vgg_tiny
from nnwm.model_store import channel_counts
from nnwm.pipeline import embed, extract, verify
from nnwm.toy_trainer import TrainConfig, evaluate, finetune, synth_dataset
from nnwm.wm_codec import EmbedParams, WatermarkPayload, round_half_up


def run(args) -> list[dict]:
    rows = []
    for seed in range(args.seeds):
        train, test = synth_dataset(args.data_seed + seed, args.n_train, args.n_test)
        base = finetune(vgg_tiny(seed), train,
                        TrainConfig(epochs=args.epochs, lr=0.01, seed=seed))
        acc_base = evaluate(base, test)
        t = len(channel_counts(base))
        rng = np.random.default_rng(seed)
        rows.append({"seed": seed, "criterion": "none", "r_cov": 0.0,
                     "bits": 0, "accuracy": acc_base, "ber": 0.0})
        for criterion in ("l1", "bn"):
            for r_cov in args.coverages:
                m = max(1, round_half_up(t * r_cov))
                bits = "".join(rng.choice(["0", "1"], size=args.l * m))
                params = EmbedParams(segment_length=args.l,
                                     key=f"fidelity-{seed}-{criterion}".encode())
                marked, receipt = embed(base, WatermarkPayload(bits, args.l),
                                        params, criterion)
                tuned = finetune(marked, train, TrainConfig(
                    epochs=args.finetune_epochs, lr=0.001, seed=seed + 1))
                acc = evaluate(tuned, test)
                ber = verify(bits, extract(receipt, tuned)).ber
                rows.append({"seed": seed, "criterion": criterion, "r_cov": r_cov,
                             "bits": len(bits), "accuracy": acc, "ber": ber})
                print(f"seed {seed} {criterion:>3} r_cov {r_cov:.2f}: "
                      f"accuracy {acc:.4f} (baseline {acc_base:.4f}), BER {ber}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--coverages", type=float, nargs="+",
                        default=[0.25, 0.5, 0.75, 1.0])
    parser.add_argument("--l", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--finetune-epochs", type=int, default=5)
    parser.add_argument("--n-train", type=int, default=512)
    parser.add_argument("--n-test", type=int, default=256)
    parser.add_argument("--data-seed", type=int, default=1000)
    parser.add_argument("--out", default="fidelity.csv")
    args = parser.parse_args(argv)

    rows = run(args)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nwrote {len(rows)} rows to {args.out}")

    by_arm = defaultdict(list)
    for r in rows:
        by_arm[(r["criterion"], r["r_cov"])].append(r["accuracy"])
    print(f"\n{'criterion':>9} {'r_cov':>6} {'median accuracy':>16}")
    for (criterion, r_cov), accs in sorted(by_arm.items()):
        print(f"{criterion:>9} {r_cov:>6.2f} {statistics.median(accs):>16.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
