"""Helpers shared by the test modules.  They live here, not in
``conftest.py``, because ``perfbench/tests`` has a ``conftest`` module
of its own, and the two cannot both be imported by that name in one
pytest run."""

import importlib.util
from pathlib import Path

import numpy as np


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
