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
