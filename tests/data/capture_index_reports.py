#!/usr/bin/env python3
"""Capture the index reports pinned by
``tests/test_indices.py::test_index_reports_bit_identical``.

Each case runs ``estimate_indices`` as ``symbolkit indices`` does, with
the sector constant estimated on the command's default grids when the
case asks for it, and stores every field of the ``IndexReport`` with
each float written as ``float.hex``; a case that fails stores the
error's type and message.  The cases cover the bundled models and the
benchmark's tempered density at the origin (R = 1e2 .. 1e6) and at
infinity (R = 1e-6 .. 1e-2, x = 0 and x = 0.5), with and without the
sector estimate, a 2-d model with three atoms, an SDE with a density
driver, the maximal-inequality ratios (which carry H and h), and the
exit code, stderr and written report of ``indices`` on the tempered
density at infinity.  Run from the repository root:

    PYTHONPATH=src python3 tests/data/capture_index_reports.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from symbolkit.cli import main as cli_main
from symbolkit.config import bundled_model_path, load_model
from symbolkit.expr import parse_expression
from symbolkit.indices import estimate_indices, verify_maximal_inequality
from symbolkit.quadrature import QuadratureError
from symbolkit.simulate import PathSampler, make_sde_model
from symbolkit.triplet import (
    DensityMeasure,
    DiscreteMeasure,
    LevyTriplet,
    StateModel,
    check_sector,
)

OUT = Path(__file__).with_name("index_reports.json")
REPO = Path(__file__).resolve().parents[2]
DENSITY_MODEL = REPO / "perfbench" / "models" / "tempered_stable.model"

BUNDLED = ("bm", "bm_drift", "cauchy", "compound_poisson", "killed_autonomous",
           "killed_levy", "pure_drift", "sde_cauchy", "stable_like")
MODEL_PATHS = {**{name: bundled_model_path(name) for name in BUNDLED},
               "tempered_stable": DENSITY_MODEL}

# direction -> (R_min, R_max, states x); None is the global quantity
RUNS = {
    "origin": (1e2, 1e6, (None,)),
    "infinity": (1e-6, 1e-2, (0.0, 0.5)),
}

# the default grids of ``indices --sector-from-grid``
SECTOR_X = np.linspace(-5.0, 5.0, 21).reshape(-1, 1)
SECTOR_XI = np.linspace(-10.0, 10.0, 41).reshape(-1, 1)


def hexed(value):
    """Report data with every float written exactly (float.hex)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return hexed(value.tolist())
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    return value


def report_fields(rep) -> dict:
    """Every field of a report dataclass, hexed."""
    return {f.name: hexed(getattr(rep, f.name)) for f in dataclasses.fields(rep)}


def indices_case(model, direction, x, sector, c0=None, radii=None) -> dict:
    """The report of ``indices`` on a model, or the error it raises;
    ``radii`` (R_min, R_max) replaces the direction's range."""
    r_min, r_max = radii or RUNS[direction][:2]
    try:
        if sector:
            c0 = check_sector(model, SECTOR_X, SECTOR_XI)
        rep = estimate_indices(model, r_min, r_max, n_points=16, direction=direction,
                               x=None if x is None else np.atleast_1d(x), c0=c0)
    except (ValueError, QuadratureError) as err:
        return {"error": type(err).__name__, "message": str(err)}
    return report_fields(rep)


def _atoms_2d() -> StateModel:
    # three asymmetric atoms; the symbol is complex, so h needs a c0
    measure = DiscreteMeasure([[0.5, 0.0], [0.0, -0.8], [1.5, 2.0]], [1.0, 0.5, 2.0])
    tri = LevyTriplet(0.1, [0.2, -0.1], [[1.0, 0.3], [0.3, 0.5]], measure)
    return StateModel.from_triplet(tri)


def _sde_density() -> StateModel:
    density = DensityMeasure(parse_expression("exp(-abs(x1))/abs(x1)^1.5", dim=1),
                             eps=1e-3, y_max=20.0)
    driver = LevyTriplet(0.0, [0.0], [[0.0]], density)
    return make_sde_model(parse_expression("1 + 0.5*sin(x1)", dim=1), driver)


def model_cases() -> dict:
    """name -> thunk returning the case's hexed report (or error)."""
    cases = {}
    for name, path in MODEL_PATHS.items():
        for direction, (_, _, xs) in RUNS.items():
            for x in xs:
                for sector in (False, True):
                    key = f"{name}/{direction}/x={x}/sector={sector}"
                    cases[key] = (lambda path=path, direction=direction, x=x, sector=sector:
                                  indices_case(load_model(path), direction, x, sector))
    for direction, x in (("origin", None), ("infinity", (0.0, 0.5))):
        for c0 in (None, 0.5):
            cases[f"atoms_2d/{direction}/c0={c0}"] = (
                lambda direction=direction, x=x, c0=c0:
                indices_case(_atoms_2d(), direction, x, False, c0))
    # the range pinned when the driver's density still failed at
    # R = 1e-6; it converges there now, as the tempered model does
    cases["sde_density/origin"] = lambda: indices_case(_sde_density(), "origin", None, False)
    cases["sde_density/infinity"] = lambda: indices_case(
        _sde_density(), "infinity", 0.5, False, radii=(1e-2, 1e1))
    return cases


def maximal_case() -> dict:
    """The maximal-inequality report of a state-dependent model: its
    ratios divide by t H(x, R) and multiply by t h(x, R)."""
    model = load_model(bundled_model_path("stable_like"))
    sampler = PathSampler(model=model, dt=0.01, seed=5)
    rep = verify_maximal_inequality(sampler, [0.0], (0.1, 1.0),
                                    (0.5, 1.0, 3.0, 10.0), 2000)
    return report_fields(rep)


def cli_case() -> dict:
    """Exit code, stderr and the written ``index_report.json`` of
    ``indices`` on the tempered density at infinity, where frequencies
    reach 10^6."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["indices", "--model", str(DENSITY_MODEL), "--direction", "infinity",
                         "--rmin", "1e-6", "--rmax", "1e-2", "--x", "0", "--out", out])
        report = Path(out, "index_report.json")
        written = hexed(json.loads(report.read_text())) if report.is_file() else None
    return {"exit_code": code, "stderr": err.getvalue(), "report": written}


def capture() -> dict:
    data = {name: case() for name, case in model_cases().items()}
    data["maximal/stable_like"] = maximal_case()
    data["cli/tempered_stable/infinity"] = cli_case()
    return data


def main() -> int:
    data = capture()
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
