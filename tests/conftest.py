import multiprocessing

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


@pytest.fixture(autouse=True)
def no_worker_left_alive():
    """Fail a test that leaves a worker process running, as a replication runner
    whose pool is not shut down would, and stop the worker, so that the next
    test starts with none: a benchmark run must end with no process left."""
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join()
    assert not alive, f"worker processes left running: {alive}"
