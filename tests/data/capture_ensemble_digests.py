#!/usr/bin/env python3
"""Capture the ensemble digests pinned by
``tests/test_simulate.py::test_ensembles_bit_identical``.

Every fixture is simulated at SYMBOLKIT_THREADS=1 and 2.  An ensemble
fixture records a sha256 of its ``values``, ``status`` and ``invalid``
arrays (dtype and shape included) and its ``bias_notes``; a
``snapshot_run`` or ``PathSampler.running_max`` fixture records a sha256
of each returned array.  The fixtures cover every measure kind,
constant and state-dependent killing rates, an SDE driver, explosion,
invalid paths, runs of more than one 16,384-path chunk and a chunk of
a single row.  Run from the repository root:

    PYTHONPATH=src python3 tests/data/capture_ensemble_digests.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from symbolkit.expr import parse_expression
from symbolkit.simulate import (
    PathSampler,
    SimSpec,
    sample_autonomous,
    sample_levy,
    sample_sde,
    snapshot_run,
)
from symbolkit.triplet import (
    Coefficient,
    CutoffFunction,
    DensityMeasure,
    DiscreteMeasure,
    LevyTriplet,
    MatrixCoefficient,
    StableMeasure,
    StateModel,
    VectorCoefficient,
    ZeroMeasure,
)

OUT = Path(__file__).with_name("ensemble_digests.json")
THREADS = ("1", "2")


def _expr(text, dim=1):
    return parse_expression(text, dim=dim)


def _model(kill, drift, cov, measures, box=((-10.0, 10.0),), cutoff=None):
    d = len(drift)
    return StateModel(dim=d, kill=Coefficient(kill), drift=VectorCoefficient(drift, d),
                      covariance=MatrixCoefficient(cov, d),
                      measures=measures, cutoff=cutoff or CutoffFunction(),
                      domain_box=np.asarray(box))


def _spec(n, seed, x0=(0.0,), dt=0.01, horizon=0.5, **kw):
    return SimSpec(x0=list(x0), horizon=horizon, dt=dt, n_paths=n, rng_seed=seed, **kw)


def _density():
    # asymmetric tempered density, 1.5 |y|^-1.5 e^-|y| for y > 0 and
    # |y|^-1.5 e^-|y| for y < 0: the compensator drift is not zero
    return DensityMeasure(_expr("exp(-abs(x1))/abs(x1)^1.5*(1.25 + 0.25*x1/abs(x1))"),
                          1e-3, 20.0)


def _cauchy():
    return LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))


# name -> zero-argument call returning an Ensemble
ENSEMBLES = {
    "gauss_2d": lambda: sample_levy(
        LevyTriplet(0.0, [0.3, -0.1], [[1.0, 0.4], [0.4, 0.5]], ZeroMeasure()),
        _spec(2000, 11, x0=(0.5, -0.5))),
    "atoms_clock": lambda: sample_levy(
        LevyTriplet(0.7, [0.1], [[0.2]],
                    DiscreteMeasure([[0.5], [-0.3], [1.5]], [1.0, 2.0, 0.5])),
        _spec(3000, 12)),
    "atoms_2d_product_cutoff": lambda: sample_levy(
        LevyTriplet(0.0, [0.0, 0.2], [[0.3, 0.0], [0.0, 0.0]],
                    DiscreteMeasure([[0.4, 0.0], [0.0, -1.2], [0.3, 0.3]], [1.5, 0.7, 2.0]),
                    CutoffFunction(kind="product_indicator", radii=(0.5, 1.0))),
        _spec(2000, 13, x0=(0.0, 0.0))),
    # 20,000 paths: two chunks, one per worker at two threads
    "stable_two_chunks": lambda: sample_levy(
        LevyTriplet(0.0, [0.2], [[0.0]], StableMeasure(1.5, 0.8)),
        _spec(20_000, 14, horizon=0.2)),
    "density_auto_cut": lambda: sample_levy(
        LevyTriplet(0.0, [0.0], [[0.0]], _density()), _spec(2000, 15)),
    "density_fixed_cut_gauss": lambda: sample_levy(
        LevyTriplet(0.2, [0.1], [[0.4]], _density()), _spec(2000, 16, small_jump_cut=0.05)),
    "atom_family_hazard": lambda: sample_autonomous(
        _model(_expr("0.5 + 0.1*x1^2"), [0.2], [[_expr("0.5 + 0.1*sin(x1)")]],
               DiscreteMeasure([[0.3], [-0.3], [2.0]],
                               [_expr("1 + x1^2"), 2.0, _expr("0.5*abs(x1)")])),
        _spec(3000, 17)),
    "stable_family": lambda: sample_autonomous(
        _model(0.0, [_expr("-x1")], [[0.0]],
               StableMeasure(_expr("0.8 + 0.7/(1+x1^2)"), _expr("1 + 0.2*x1^2"))),
        _spec(3000, 18)),
    # order min(1, 0.5 + x1^2): the first step draws at orders below 1
    # only, later steps at both 1 exactly and below 1
    "stable_family_mixed_order": lambda: sample_autonomous(
        _model(0.0, [0.0], [[0.5]],
               StableMeasure(_expr("min(1, 0.5 + x1^2)"), 1.0)),
        _spec(3000, 27, x0=(0.5,))),
    "sde_killed_cauchy_driver": lambda: sample_sde(
        _expr("x1"), LevyTriplet(0.3, [0.0], [[0.0]], StableMeasure(1.0, 1.0)),
        _spec(3000, 19, x0=(1.0,))),
    "sde_density_driver": lambda: sample_sde(
        _expr("1 + 0.5*sin(x1)"), LevyTriplet(0.0, [0.0], [[0.0]], _density()),
        _spec(2000, 20, x0=(0.5,))),
    "exploding": lambda: sample_autonomous(
        _model(1.0, [_expr("x1^3")], [[0.1]], ZeroMeasure(),
               box=((-20.0, 20.0),)),
        _spec(2000, 21, x0=(4.0,), dt=0.002, horizon=0.1, explosion_threshold=10.0)),
    # 16,385 paths: a full chunk and a chunk of one row
    "bm_one_row_chunk": lambda: sample_levy(
        LevyTriplet(0.0, [0.3], [[1.0]], ZeroMeasure()), _spec(16_385, 28, horizon=0.2)),
    "invalid_paths": lambda: sample_autonomous(
        _model(0.0, [_expr("log(x1)")], [[0.01]], ZeroMeasure(),
               box=((0.1, 3.0),)),
        _spec(500, 22, x0=(0.5,))),
}

_SNAP_TIMES = (0.05, 0.1, 0.2)

# name -> zero-argument call returning a tuple of arrays
ARRAYS = {
    # two chunks; stopped at the largest finite radius, held at the others
    "snapshot_cauchy_radii": lambda: snapshot_run(
        StateModel.from_triplet(_cauchy()), [0.0], _SNAP_TIMES, 20_000, 0.01, 23,
        radii=(0.5, 1.0, 2.0)),
    "snapshot_hazard_jumps": lambda: snapshot_run(
        _model(_expr("x1^2"), [1.0], [[0.3]],
               DiscreteMeasure([[0.4], [-0.6]], [1.0, 1.5])),
        [0.0], _SNAP_TIMES, 3000, 0.01, 24, radii=(math.inf, 0.5)),
    "running_max_density": lambda: PathSampler(
        StateModel.from_triplet(LevyTriplet(0.5, [0.0], [[0.2]], _density())),
        dt=0.01, seed=25).running_max([0.0], _SNAP_TIMES, 3000),
    "running_max_stable_family_two_chunks": lambda: PathSampler(
        _model(0.0, [0.0], [[0.0]],
               StableMeasure(_expr("0.3 + 0.4/(1+x1^2)"), 1.0),
               box=((-15.0, 15.0),)),
        dt=0.005, seed=26).running_max([0.0], (0.05, 0.1), 17_000),
}

FIXTURES = {**ENSEMBLES, **ARRAYS}


def sha(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def digest(name: str) -> dict:
    """Digest of one fixture at the current SYMBOLKIT_THREADS."""
    out = FIXTURES[name]()
    if name in ARRAYS:
        return {f"array_{i}": sha(a) for i, a in enumerate(out)}
    return {"values": sha(out.values), "status": sha(out.status),
            "invalid": sha(out.invalid), "bias_notes": json.loads(json.dumps(out.bias_notes))}


def digest_at(name: str, threads: str) -> dict:
    old = os.environ.get("SYMBOLKIT_THREADS")
    os.environ["SYMBOLKIT_THREADS"] = threads
    try:
        return digest(name)
    finally:
        if old is None:
            del os.environ["SYMBOLKIT_THREADS"]
        else:
            os.environ["SYMBOLKIT_THREADS"] = old


def main() -> int:
    data = {name: {t: digest_at(name, t) for t in THREADS} for name in FIXTURES}
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} fixtures to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
