#!/usr/bin/env python3
"""Watermark survival under attack.

Parameter-space attacks (noise, weight zeroing, fine-tuning) must leave the
extracted bits untouched; the structural re-pruning attack is swept over
increasing extra rates to chart how fast the bits decay without the key.
The watermark reads only channel counts, which the extra rate alone fixes,
so one re-pruning per rate gives the BER of every seed.
"""

import argparse
import sys

import numpy as np

from nnwm.fixtures import vgg_tiny
from nnwm.pipeline import (
    attack_finetune,
    attack_noise,
    attack_structural,
    attack_zero_weights,
    embed,
    extract,
    verify,
)
from nnwm.toy_trainer import synth_dataset
from nnwm.wm_codec import EmbedParams, WatermarkPayload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--l", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.01, 0.02, 0.05, 0.0875, 0.15, 0.3])
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    model = vgg_tiny(args.seed)
    bits = "".join(rng.choice(["0", "1"], size=args.l * 5))
    params = EmbedParams(segment_length=args.l, key=b"robustness-key")
    marked, receipt = embed(model, WatermarkPayload(bits, args.l), params)
    train, _ = synth_dataset(args.seed, 256, 64)

    print("parameter-space attacks (bit-identical extraction expected):")
    attacks = {
        "noise sigma=0.1": attack_noise(marked, 0.1, seed=1),
        "noise sigma=1.0": attack_noise(marked, 1.0, seed=2),
        "noise sigma=10": attack_noise(marked, 10.0, seed=3),
        "zero 30% weights": attack_zero_weights(marked, 0.3),
        "zero 90% weights": attack_zero_weights(marked, 0.9),
        "finetune 5 epochs": attack_finetune(marked, train, epochs=5, seed=4),
    }
    for name, suspect in attacks.items():
        ber = verify(bits, extract(receipt, suspect)).ber
        print(f"  {name:<20} BER {ber:.4f} {'(intact)' if ber == 0 else '(CORRUPTED)'}")

    print(f"\nstructural re-pruning sweep (cell width delta = {params.delta:.4f}):")
    print(f"  {'extra rate':>10} {'BER':>9}")
    for rate in args.rates:
        ber = verify(bits, extract(receipt, attack_structural(marked, rate, seed=1000))).ber
        print(f"  {rate:>10.4f} {ber:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
