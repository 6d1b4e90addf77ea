import numpy as np
import pytest

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
