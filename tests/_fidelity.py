"""One seed of the acceptance suite's fidelity experiment (criteria 7 and 9).

A module of its own, so that the worker processes the fixture starts with
``spawn`` can import ``fidelity_seed`` by name.
"""

import numpy as np

from nnwm.fixtures import vgg_tiny
from nnwm.pipeline import embed
from nnwm.toy_trainer import TrainConfig, evaluate, finetune, synth_dataset
from nnwm.wm_codec import EmbedParams, WatermarkPayload


def random_bits(rng, n):
    return "".join(rng.choice(["0", "1"], size=n))


def fidelity_seed(seed: int) -> dict[str, float]:
    """Test accuracy of each arm for one seed.

    Arms: baseline, marked at full coverage for both criteria, and marked at
    quarter coverage (one of five layers) for the trend check.
    """
    train, test = synth_dataset(1000 + seed, 512, 256)
    base = finetune(vgg_tiny(seed), train, TrainConfig(epochs=5, lr=0.01, seed=seed))
    accuracy = {"baseline": evaluate(base, test)}
    rng = np.random.default_rng(seed)
    params = EmbedParams(segment_length=3, key=f"owner-{seed}".encode())
    full_bits = random_bits(rng, 15)      # r_cov = 1.0: all 5 conv layers
    quarter_bits = random_bits(rng, 3)    # r_cov = 0.25: 1 of 5 layers
    for crit in ("l1", "bn"):
        marked, _ = embed(base, WatermarkPayload(full_bits, 3), params, crit)
        tuned = finetune(marked, train, TrainConfig(epochs=5, lr=0.001, seed=seed + 100))
        accuracy[crit] = evaluate(tuned, test)
    marked, _ = embed(base, WatermarkPayload(quarter_bits, 3), params, "l1")
    tuned = finetune(marked, train, TrainConfig(epochs=5, lr=0.001, seed=seed + 200))
    accuracy["quarter"] = evaluate(tuned, test)
    return accuracy
