#!/usr/bin/env python3
"""Watermark survival under attack.

Parameter-space attacks (noise, weight zeroing, fine-tuning) must leave the
extracted bits untouched; the structural re-pruning attack is swept over
increasing extra rates to chart how fast the bits decay without the key.
The watermark reads only channel counts, which the extra rate alone fixes,
so one re-pruning per rate gives the BER of every seed.

Last, ``carrier_survey`` asks whether decoys hide the carriers from an
adversary who knows the original widths but not the key.  A carrier is
pruned to the width nearest its cell midpoint, so its realized rate lies
within 0.5/c of that midpoint, while a decoy's rate is uniform over the
range; ``flag_carriers`` flags every conv that sits that close.
"""

import argparse
import sys

import numpy as np

from nnwm.fixtures import vgg16_style, vgg_tiny
from nnwm.model_store import channel_counts
from nnwm.pipeline import (
    attack_noise,
    attack_structural,
    attack_zero_weights,
    embed,
    extract,
    verify,
)
from nnwm.toy_trainer import TrainConfig, finetune, synth_dataset
from nnwm.wm_codec import EmbedParams, WatermarkPayload, decode_rate_clamped, encode_rate


def flag_carriers(original: list[int], suspect: list[int], params: EmbedParams) -> list[int]:
    """Conv ordinals whose realized rate (c - c') / c lies within 0.5 / c of its
    cell's midpoint, as every carrier's does."""
    flagged = []
    for ordinal, (c, c_susp) in enumerate(zip(original, suspect)):
        rate = (c - c_susp) / c
        if abs(rate - encode_rate(decode_rate_clamped(rate, params)[0], params)) <= 0.5 / c:
            flagged.append(ordinal)
    return flagged


def carrier_survey() -> dict[str, int]:
    """Run ``flag_carriers`` on vgg16_style(0) marked with decoys (l = 3, fixed
    24-bit payloads) under each of 40 fixed keys."""
    host = vgg16_style(0)
    widths = channel_counts(host)
    rng = np.random.default_rng(0)
    counts = dict.fromkeys(["carriers", "carriers_flagged", "decoys", "decoys_flagged",
                            "exact"], 0)
    for i in range(40):
        params = EmbedParams(segment_length=3, key=f"survey-{i}".encode())
        bits = "".join(rng.choice(["0", "1"], size=24))
        marked, receipt = embed(host, WatermarkPayload(bits, 3), params, decoy=True)
        carriers = {e.index for e in receipt.layers}
        flagged = set(flag_carriers(widths, channel_counts(marked), params))
        counts["carriers"] += len(carriers)
        counts["carriers_flagged"] += len(carriers & flagged)
        counts["decoys"] += len(widths) - len(carriers)
        counts["decoys_flagged"] += len(flagged - carriers)
        counts["exact"] += flagged == carriers
    return counts


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
        "finetune 5 epochs": finetune(marked, train, TrainConfig(epochs=5, lr=0.001, seed=4)),
    }
    for name, suspect in attacks.items():
        ber = verify(bits, extract(receipt, suspect)).ber
        print(f"  {name:<20} BER {ber:.4f} {'(intact)' if ber == 0 else '(CORRUPTED)'}")

    print(f"\nstructural re-pruning sweep (cell width delta = {params.delta:.4f}):")
    print(f"  {'extra rate':>10} {'BER':>9}")
    for rate in args.rates:
        ber = verify(bits, extract(receipt, attack_structural(marked, rate, seed=1000))).ber
        print(f"  {rate:>10.4f} {ber:>9.4f}")

    survey = carrier_survey()
    print("\ncarrier detector on vgg16_style (40 keys, decoys, l=3, 24 bits):")
    print(f"  carriers flagged {survey['carriers_flagged']}/{survey['carriers']}, "
          f"decoys flagged {survey['decoys_flagged']}/{survey['decoys']}, "
          f"exact carrier set for {survey['exact']} of 40 keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
