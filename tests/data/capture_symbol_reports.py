#!/usr/bin/env python3
"""Capture the symbol-probe reports pinned by
``tests/test_symbol.py::test_reports_bit_identical``.

Each case is probed one frequency and one exit radius at a time through
``estimate_symbol``; every ``SymbolReport`` field is written as
``float.hex``.  The two CLI cases keep the text of the files the
``symbol`` command writes.  Run from the repository root:

    PYTHONPATH=src python3 tests/data/capture_symbol_reports.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from symbolkit import cli
from symbolkit.expr import parse_expression
from symbolkit.simulate import PathSampler, make_sde_model
from symbolkit.symbol import ProbeSettings, estimate_symbol
from symbolkit.triplet import (
    CutoffFunction,
    DiscreteMeasure,
    LevyTriplet,
    StableMeasure,
    StateModel,
    ZeroMeasure,
)

OUT = Path(__file__).with_name("symbol_reports.json")
N = 2000
C03_XI = (0.5, 1.0, 1.5, 2.0, 3.0)
C03_X = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _levy(*args):
    return lambda: StateModel.from_triplet(LevyTriplet(*args))


# the models of acceptance criterion 03, in its order
C03_MODELS = {
    "bm": _levy(0.0, [0.0], [[1.0]], ZeroMeasure()),
    "cauchy": _levy(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0)),
    "compound_poisson": _levy(0.0, [0.0], [[0.0]], DiscreteMeasure([[2.0]], [1.0]),
                              CutoffFunction(radius=1.0)),
    "killed_levy": _levy(0.5, [0.0], [[0.0]], ZeroMeasure()),
}


def _sde_cauchy():
    driver = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))
    return make_sde_model(parse_expression("x1"), driver)


def _case(model, x, xis, radii, seed, n=N, ladder=(0.04, 0.02, 0.01, 0.005), dt=None):
    return {"model": model, "x": list(x), "xis": [list(np.atleast_1d(v)) for v in xis],
            "radii": list(radii), "seed": seed, "n": n, "ladder": ladder, "dt": dt}


# name -> probe case: model factory, start x, frequencies, exit radii,
# seed, samples, ladder, dt (None: min(ladder) / 50)
CASES = {}
for m_i, name in enumerate(C03_MODELS):
    for x_i, x in enumerate(C03_X):
        CASES[f"c03_{name}_x{x:g}"] = _case(C03_MODELS[name], [x], C03_XI, [1.0],
                                            seed=1000 + 31 * m_i + x_i)
    CASES[f"c03_{name}_radii"] = _case(C03_MODELS[name], [0.0], [1.0], [1.0, 2.0, 4.0],
                                       seed=2000 + m_i, dt=1e-4)
for i, x in enumerate((0.5, 1.0, 2.0)):
    CASES[f"c04_x{x:g}"] = _case(_sde_cauchy, [x], (0.5, 1.0, 2.0), [x / 2.0],
                                 seed=3000 + i, ladder=(0.08, 0.04, 0.02, 0.01))
CASES["sde_cauchy_radii"] = _case(_sde_cauchy, [1.0], (0.5, 2.0), [0.25, 0.5, 1.0],
                                  seed=3100, ladder=(0.08, 0.04, 0.02, 0.01), dt=0.002)
# 20,000 samples span two 16,384-path chunks
CASES["cauchy_two_chunks"] = _case(C03_MODELS["cauchy"], [0.0], (1.0, 2.0),
                                   [0.5, 1.0, 2.0], seed=3200, n=20_000,
                                   ladder=(0.2, 0.1, 0.05), dt=0.01)
# paths killed after leaving the smaller balls
CASES["killed_jump_diffusion_inf"] = _case(
    _levy(3.0, [0.2], [[0.5]], DiscreteMeasure([[1.0]], [2.0])), [0.0], (0.5, 1.5),
    [math.inf, 0.5, 1.0], seed=3300, ladder=(0.04, 0.02, 0.01), dt=1e-3)
CASES["killed_bm_radii"] = _case(_levy(5.0, [0.0], [[1.0]], ZeroMeasure()), [0.0],
                                 (1.0, 3.0), [0.1, 0.3], seed=3350,
                                 ladder=(0.04, 0.02, 0.01), dt=1e-3)
CASES["bm_2d"] = _case(_levy(0.0, [0.5, -0.5], [[1.0, 0.3], [0.3, 2.0]], ZeroMeasure()),
                       [0.5, -1.0], ([1.0, 0.0], [0.5, -1.0]), [0.5, 1.0], seed=3400,
                       dt=5e-4)

CLI_PROBE = ["--samples", str(N), "--seed", "5", "--ladder", "0.2,0.1,0.05", "--dt", "0.01"]
# name -> (symbol command arguments without --out, files it writes)
CLI_CASES = {
    "cli_radii": (["symbol", "--model", "cauchy", "--x", "0", "--xi", "1",
                   "--radii", "1,2,4", *CLI_PROBE],
                  ("symbol_report.json", "independence.json")),
    "cli_xi_grid": (["symbol", "--model", "compound_poisson", "--x", "0",
                     "--xi-grid", "0.5:1.5:3", *CLI_PROBE], ("symbol_grid.csv",)),
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


def setup(case: dict):
    """(sampler, base settings) of a probe case."""
    settings = ProbeSettings(k_radius=case["radii"][0], t_ladder=case["ladder"],
                             n_samples=case["n"])
    dt = settings.default_dt if case["dt"] is None else case["dt"]
    sampler = PathSampler(model=case["model"](), dt=dt, seed=case["seed"])
    return sampler, settings


def capture(case: dict) -> list[list]:
    """Hexed report JSON per radius, then per frequency, one
    ``estimate_symbol`` call each."""
    sampler, settings = setup(case)
    return [[hexed(estimate_symbol(sampler, case["x"], xi,
                                   ProbeSettings(k_radius=r, t_ladder=settings.t_ladder,
                                                 n_samples=settings.n_samples)).to_json())
             for xi in case["xis"]]
            for r in case["radii"]]


def cli_outputs(argv, files, out: Path) -> dict:
    cli.main([*argv, "--out", str(out)])
    return {f: (out / f).read_text() for f in files}


def main() -> int:
    data = {name: capture(case) for name, case in CASES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, files) in CLI_CASES.items():
            data[name] = cli_outputs(argv, files, Path(tmp) / name)
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
