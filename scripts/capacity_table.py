#!/usr/bin/env python3
"""Print the watermark capacity table for three reference architectures."""

import sys

from nnwm.wm_codec import capacity

ARCHITECTURES = [("VGG-19", 16), ("ResNet-164", 162), ("DenseNet-40", 39)]
COVERAGES = [0.2, 0.4, 0.6, 0.8, 1.0]


def main() -> int:
    header = f"{'architecture':<12} {'t':>4} {'l':>3} " + " ".join(
        f"r={r:<4}" for r in COVERAGES)
    print(header)
    print("-" * len(header))
    for name, t in ARCHITECTURES:
        for l in (1, 2, 3):
            cells = " ".join(f"{capacity(t, l, r):>6}" for r in COVERAGES)
            print(f"{name:<12} {t:>4} {l:>3} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
