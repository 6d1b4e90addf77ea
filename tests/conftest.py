import numpy as np
import pytest

from nnwm import wm_codec
from nnwm.fixtures import vgg16_style, vgg_tiny
from nnwm.model_store import save_model


@pytest.fixture
def tiny_model():
    return vgg_tiny(0)


@pytest.fixture(scope="session")
def deep_model():
    return vgg16_style(0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def tiny_host(tmp_path_factory):
    """Directory holding vgg_tiny(0) saved as tiny.json / tiny.bin."""
    d = tmp_path_factory.mktemp("tiny")
    save_model(vgg_tiny(0), d / "tiny.json", d / "tiny.bin")
    return d


@pytest.fixture
def misselected_carriers(monkeypatch):
    """Make select_layers put the eligible layers it would not select first.

    With more eligible layers than carriers, the m layers it then names
    include one that embed did not prune (without decoys), which decodes
    as value 0: a self-check mismatch for a payload with no zero segment.
    """
    select = wm_codec.select_layers

    def misselect(eligible, m, key):
        chosen = select(eligible, m, key)
        return sorted(([o for o in eligible if o not in chosen] + chosen)[:m])

    monkeypatch.setattr(wm_codec, "select_layers", misselect)
