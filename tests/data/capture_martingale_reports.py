#!/usr/bin/env python3
"""Capture the martingale-check reports pinned by
``tests/test_martingale.py::test_reports_bit_identical`` and
``test_streamed_reports_bit_identical``.

Each case simulates a stored ensemble with its sampler and replays it
through the killing, exponential and (for models without an SDE block)
canonical checks; every report field is written as ``float.hex``.  The
cases cover constant and state-dependent killing, drift, covariance and
jump families (atoms, stable, density), an SDE driver, explosion, a 2-d
model, and frequencies with a zero or a negative component.  Run from
the repository root:

    PYTHONPATH=src python3 tests/data/capture_martingale_reports.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from symbolkit.config import bundled_model_path, load_model
from symbolkit.expr import parse_expression
from symbolkit.martingale import (
    canonical_representation_residual,
    exponential_martingale_check,
    killing_compensator_check,
)
from symbolkit.simulate import (
    SimSpec,
    make_sde_model,
    sample_autonomous,
    sample_levy,
    sample_sde,
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

OUT = Path(__file__).with_name("martingale_reports.json")
N = 20_000


def spec(n=N, dt=0.005, horizon=1.0, seed=71, x0=(0.0,)):
    return SimSpec(x0=list(x0), horizon=horizon, dt=dt, n_paths=n, rng_seed=seed)


def model(kill, drift, cov, measures=None, box=((-10.0, 10.0),)):
    d = len(drift)
    return StateModel(
        dim=d, kill=Coefficient(kill),
        drift=VectorCoefficient(drift, d),
        covariance=MatrixCoefficient(cov, d),
        measures=measures or ZeroMeasure(),
        cutoff=CutoffFunction(),
        domain_box=np.asarray(box),
    )


def _expr(text, dim=1):
    return parse_expression(text, dim=dim)


class Case(NamedTuple):
    """A report case: the model the checks read, the simulation spec and
    the sampler."""

    model: object
    spec: SimSpec
    sample: Callable


def _levy_case(tri, spec):
    return Case(tri, spec, lambda: sample_levy(tri, spec))


def _autonomous_case(model, spec):
    return Case(model, spec, lambda: sample_autonomous(model, spec))


def _sde_case():
    driver = LevyTriplet(0.4, [0.0], [[1.0]], ZeroMeasure())
    sde = make_sde_model(_expr("1 + 0.1*x1"), driver)
    sde_spec = spec(n=10_000, dt=0.005, seed=86, x0=(0.5,))
    return Case(sde, sde_spec,
                lambda: sample_sde(sde.sde, driver, sde_spec))


def _bundled_case(name, dt):
    bundled = load_model(bundled_model_path(name))
    return _autonomous_case(bundled, SimSpec(x0=[0.0], horizon=1.0, dt=dt,
                                             n_paths=10_000, rng_seed=101))


def _density():
    # asymmetric tempered density, 1.5 |y|^-1.5 e^-|y| for y > 0 and
    # |y|^-1.5 e^-|y| for y < 0
    return DensityMeasure(_expr("exp(-abs(x1))/abs(x1)^1.5*(1.25 + 0.25*x1/abs(x1))"),
                          eps=1e-3, y_max=30.0)


def _model_2d():
    # state-dependent killing, drift and atom rates in two dimensions
    return model(_expr("0.1 + 0.1*x2^2", 2), [_expr("-0.5*x1", 2), 0.2],
                 [[1.0, 0.3], [0.3, 0.5]],
                 DiscreteMeasure([[0.5, 0.0], [0.0, -0.8]],
                                 [_expr("1 + 0.5*sin(x1)", 2), 0.5]),
                 box=((-10.0, 10.0), (-10.0, 10.0)))


BM = LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure())
T3 = (0.25, 0.5, 1.0)
EXPLODING = dict(x0=[1.0], horizon=1.0, dt=1e-3, explosion_threshold=1e5)

# name -> (case builder, u, t_grid)
CASES = {
    **{f"constant_rate_{a}": (
        lambda a=a: _autonomous_case(model(a, [0.0], [[0.0]]),
                                     spec(n=10_000, dt=0.002, seed=73)),
        [1.0], T3) for a in (0.0, 0.1, 0.5, 2.0)},
    "state_dependent_rate": (
        lambda: _autonomous_case(
            model(_expr("x1^2"), [1.0], [[0.0]], box=((-3.0, 3.0),)),
            spec(dt=0.005, seed=74)),
        [1.0], T3),
    "explosions": (
        lambda: _autonomous_case(
            model(0.3, [_expr("x1^3")], [[0.0]], box=((-2.0, 2.0),)),
            SimSpec(n_paths=200, rng_seed=75, **EXPLODING)),
        [1.0], (0.1,)),
    "bm": (lambda: _levy_case(BM, spec(dt=0.01, seed=76)), [1.0], T3),
    "killed_levy": (
        lambda: _levy_case(LevyTriplet(0.5, [0.0], [[0.0]], ZeroMeasure()),
                           spec(dt=0.01, seed=77)),
        [1.7], T3),
    "autonomous_killing_diffusion": (
        lambda: _autonomous_case(
            model(_expr("1 + sin(x1)^2"), [0.0], [[1.0]]),
            spec(dt=0.005, seed=78)),
        [1.0], T3),
    "compound_poisson": (
        lambda: _levy_case(
            LevyTriplet(0.0, [0.0], [[0.0]], DiscreteMeasure([[2.0]], [1.0]),
                        CutoffFunction(radius=1.0)),
            spec(n=10_000, dt=0.05, seed=79)),
        [1.0], (0.5, 1.0)),
    "bm_small": (lambda: _levy_case(BM, spec(n=50, dt=0.1, seed=80)),
                 [1.0], (0.5, 1.0)),
    "bm_drift": (
        lambda: _levy_case(LevyTriplet(0.0, [2.0], [[1.0]], ZeroMeasure()),
                           spec(dt=0.01, seed=81)),
        [1.0], T3),
    "all_jumps_big": (
        lambda: _levy_case(
            LevyTriplet(0.0, [0.0], [[0.0]], DiscreteMeasure([[3.0]], [1.0]),
                        CutoffFunction(radius=1.0)),
            spec(n=4000, dt=0.01, seed=82)),
        [1.0], T3),
    "alpha_stable": (
        lambda: _levy_case(LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.5, 1.0)),
                           spec(n=N, dt=0.005, seed=83)),
        [1.0], T3),
    "killed_drift_diffusion": (
        lambda: _autonomous_case(model(0.8, [1.0], [[1.0]]),
                                 spec(n=5000, dt=0.01, seed=84)),
        [1.0], T3),
    "killing_and_explosion": (
        lambda: _autonomous_case(
            model(_expr("0.5 + 0*x1"), [_expr("x1^3")],
                  [[0.0]], box=((-2.0, 2.0),)),
            SimSpec(n_paths=300, rng_seed=85, **EXPLODING)),
        [0.5], (0.1, 0.2)),
    "sde_killed_driver": (_sde_case, [0.8], T3),
    "killed_autonomous": (lambda: _bundled_case("killed_autonomous", 0.01), [1.0], T3),
    "stable_like": (lambda: _bundled_case("stable_like", 0.005), [1.0], T3),
    # each model kind that the symbol at a fixed frequency evaluates
    # term by term
    "atom_family": (
        lambda: _autonomous_case(
            model(0.2, [0.0], [[0.25]],
                  DiscreteMeasure([[0.3], [-0.3], [2.0]],
                                  [_expr("1 + x1^2"), 2.0, 0.5])),
            spec(n=4000, dt=0.01, seed=90)),
        [1.0], T3),
    "state_dependent_covariance": (
        lambda: _autonomous_case(
            model(0.3, [0.5], [[_expr("0.5 + 0.25*sin(x1)")]]),
            spec(n=4000, dt=0.01, seed=91)),
        [1.3], T3),
    "two_dim": (lambda: _autonomous_case(_model_2d(),
                                         spec(n=4000, dt=0.01, seed=92, x0=(0.2, -0.1))),
                [1.0, -0.5], T3),
    "density_autonomous": (
        lambda: _autonomous_case(
            model(0.0, [_expr("-x1")], [[0.0]], _density()),
            spec(n=2000, dt=0.025, seed=93)),
        [1.0], T3),
    "stable_family_scale": (
        lambda: _autonomous_case(
            model(0.1, [0.0], [[0.0]],
                  StableMeasure(1.5, _expr("1 + 0.5*sin(x1)"))),
            spec(n=4000, dt=0.01, seed=94)),
        [1.0], T3),
    "u_zero_component": (lambda: _autonomous_case(_model_2d(),
                                                  spec(n=4000, dt=0.01, seed=95,
                                                       x0=(0.0, 0.0))),
                         [0.0, 1.2], T3),
    "u_negative": (
        lambda: _autonomous_case(
            model(_expr("0.2 + 0.1*x1^2"), [_expr("-x1")], [[0.0]],
                  _density()),
            spec(n=2000, dt=0.025, seed=96)),
        [-1.5], T3),
}


def hexed(value):
    """Report JSON with every float written exactly (float.hex)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    return value


def state_model(m) -> StateModel:
    return StateModel.from_triplet(m) if isinstance(m, LevyTriplet) else m


def reports(case: str) -> dict:
    """Hexed report JSON of every check of a case, replayed on its
    stored ensemble."""
    build, u, t_grid = CASES[case]
    m, _, sample = build()
    ens = sample()
    sm = state_model(m)
    out = {
        "killing": killing_compensator_check(ens, sm, t_grid),
        "exponential": exponential_martingale_check(ens, m, u, t_grid),
    }
    if sm.sde is None:
        out["canonical"] = canonical_representation_residual(ens, sm)
    return {k: hexed(rep.to_json()) for k, rep in out.items()}


def main() -> int:
    data = {name: reports(name) for name in CASES}
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
