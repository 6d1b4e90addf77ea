"""Channel importance scores for conv layers.

Two criteria: the magnitude of the trailing batchnorm scale per channel
(network-slimming style), and the L1 norm of each output filter (bias
excluded).  ``score`` returns either as a plain array of non-negative
scores in output-channel order; smaller means safer to prune.
``criterion_applicable`` is the one rule for which positions a criterion
can score.
"""

from __future__ import annotations

import numpy as np

from .errors import CriterionError
from .model_store import BatchNormLayer, ConvLayer, ModelGraph

CRITERION_BN = "bn_gamma"
CRITERION_L1 = "l1_norm"

_ALIASES = {
    "bn": CRITERION_BN, "bn_gamma": CRITERION_BN, "l1": CRITERION_L1, "l1_norm": CRITERION_L1,
}


def normalize_criterion(name: str) -> str:
    try:
        return _ALIASES[name.lower()]
    except KeyError:
        raise CriterionError(f"unknown criterion '{name}' (expected l1 or bn)") from None


def criterion_applicable(model: ModelGraph, conv_index: int, criterion: str) -> bool:
    """True when the criterion can score a conv layer at this position.

    bn_gamma also needs the next layer to be a batchnorm of the same width.
    """
    crit = normalize_criterion(criterion)
    layers = model.layers
    if not (0 <= conv_index < len(layers) and isinstance(layers[conv_index], ConvLayer)):
        return False
    if crit == CRITERION_L1:
        return True
    nxt = layers[conv_index + 1] if conv_index + 1 < len(layers) else None
    return isinstance(nxt, BatchNormLayer) and nxt.channels == layers[conv_index].c_out


def score(model: ModelGraph, conv_index: int, criterion: str) -> np.ndarray:
    """One score per output channel of the conv layer at this position.

    CriterionError exactly when ``criterion_applicable`` is False.
    """
    crit = normalize_criterion(criterion)
    if not criterion_applicable(model, conv_index, crit):
        raise CriterionError(f"{crit} criterion not applicable at layer position {conv_index}")
    if crit == CRITERION_BN:
        return np.abs(model.layers[conv_index + 1].gamma)
    return np.abs(model.layers[conv_index].weights).sum(axis=(1, 2, 3))
