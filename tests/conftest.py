import importlib.util
from pathlib import Path

import numpy as np
import pytest

from symbolkit import (
    CutoffFunction,
    DiscreteMeasure,
    LevyTriplet,
    StableMeasure,
    StateModel,
    ZeroMeasure,
)


@pytest.fixture
def bm_triplet():
    return LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure())


@pytest.fixture
def bm_drift_triplet():
    return LevyTriplet(0.0, [1.0], [[1.0]], ZeroMeasure())


@pytest.fixture
def cauchy_triplet():
    return LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))


@pytest.fixture
def cp_triplet():
    # compound Poisson, rate 1, jump +2; unit-ball cut-off so the atom
    # is uncompensated
    return LevyTriplet(0.0, [0.0], [[0.0]], DiscreteMeasure([[2.0]], [1.0]),
                       CutoffFunction(radius=1.0))


@pytest.fixture
def killed_triplet():
    return LevyTriplet(0.5, [0.0], [[0.0]], ZeroMeasure())


@pytest.fixture
def bm_model(bm_triplet):
    return StateModel.from_triplet(bm_triplet)


@pytest.fixture
def cauchy_model(cauchy_triplet):
    return StateModel.from_triplet(cauchy_triplet)


def complex_se(samples: np.ndarray) -> float:
    n = samples.shape[0]
    return float(np.sqrt((samples.real.var(ddof=1) + samples.imag.var(ddof=1)) / n))


DATA = Path(__file__).parent / "data"


def load_data_module(name: str):
    """Import the capture script ``tests/data/<name>.py``, which defines
    the cases behind one of the pinned data files."""
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
