import numpy as np
import pytest

from lchoice import DataSpec
from lchoice.numcore import TrainConfig


@pytest.fixture(scope="session")
def binary_data():
    """Small fixed train/test pair shared by the cheaper fitting tests."""
    train, test, _ = DataSpec(n_train=400, n_test=100).make(11)
    return train, test


@pytest.fixture()
def quick_config():
    return TrainConfig(epochs=6, batch_size=64, dropout=0.0, seed=3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
