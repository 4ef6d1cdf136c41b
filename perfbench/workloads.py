"""The three benchmark workloads: CLI commands, how their outputs are
read back, and how they are checked.

An operation is one ``symbolkit.cli.main(argv)`` call.  Its outputs are
read from its own output directory (timed with the command) and then
checked against ``checks`` (not timed).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
DENSITY_MODEL = BENCH_DIR / "models" / "tempered_stable.model"

# Probe sizing: with these ladders a step of t_min / 5 keeps exit
# detection on the grid while the paths per probe give a stderr of
# about 3 % of |p|, so the checks' 6 standard errors still test the
# estimator.  (The probe's default dt, t_min / 50, would cost 10x the
# path-steps for the same check.)
PROBE_SAMPLES = 100_000
LEVY_PROBE = {"ladder": (0.2, 0.1, 0.05), "dt": 0.01, "k_radius": 1.0}
SDE_PROBE = {"ladder": (0.08, 0.04, 0.02, 0.01), "dt": 0.002, "k_radius": 0.5}
PROBE_SWEEPS = (
    # model, x, xi grid (lo:hi:n), settings
    ("bm", 0.0, "1:2:3", LEVY_PROBE),
    ("cauchy", 0.0, "1:2:3", LEVY_PROBE),
    ("compound_poisson", 0.0, "0.5:1.5:3", LEVY_PROBE),
    ("killed_levy", 0.0, "1:2:2", LEVY_PROBE),
    ("sde_cauchy", 1.0, "1:2:2", SDE_PROBE),
)
RADII = (1.0, 2.0, 4.0)

VERIFY_PATHS = 10_000

INDEX_RANGE = {"origin": (1e2, 1e6), "infinity": (1e-6, 1e-2)}
CONDITIONS_XI = "-4:4:9"


@dataclass
class Operation:
    name: str
    argv: list[str]                      # without --out
    out: Path
    read: Callable[[Path], object]       # parses the outputs in ``out``
    check: Callable[[object], list[str]]
    # exit code 1 is a Monte-Carlo verdict of the program (a 3-stderr
    # test), recorded but checked here with wider bounds
    verdict_exit: bool = False
    fates: Callable[[object], dict] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Operation]
    models: list[str]                    # model specs compiled at set-up


def _grid(spec: str) -> np.ndarray:
    lo, hi, n = spec.split(":")
    return np.linspace(float(lo), float(hi), int(n))


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# probe

def _probe_argv(model, x, settings, seed):
    return ["symbol", "--model", model, "--x", f"{x:g}", "--seed", str(seed),
            "--samples", str(PROBE_SAMPLES), "--dt", f"{settings['dt']:g}",
            "--k-radius", f"{settings['k_radius']:g}",
            "--ladder", ",".join(f"{t:g}" for t in settings["ladder"])]


def _check_sweep(model, x, grid, settings):
    def check(rows):
        if len(rows) != len(grid) or not np.allclose([r["xi1"] for r in rows], grid):
            return [f"{model}: sweep rows do not match the grid {list(grid)}"]
        problems = []
        for r in rows:
            problems += checks.check_probe(
                model, x, r["xi1"], settings["ladder"],
                complex(r["analytic_re"], r["analytic_im"]),
                complex(r["estimate_re"], r["estimate_im"]), r["stderr"])
        return problems
    return check


def _report_problems(model, x, xi, settings, rep) -> list[str]:
    if rep["settings"]["k_radius"] != settings["k_radius"]:
        return [f"{model}: report radius {rep['settings']['k_radius']}"]
    return checks.check_probe(model, x, xi, settings["ladder"],
                              checks.as_complex(rep["analytic"]),
                              checks.as_complex(rep["extrapolated"]), rep["extrapolated_stderr"])


def probe(seed: int, out: Path) -> Workload:
    ops = []
    for model, x, spec, settings in PROBE_SWEEPS:
        ops.append(Operation(
            f"sweep_{model}",
            _probe_argv(model, x, settings, seed) + ["--xi-grid", spec],
            out / f"sweep_{model}",
            read=lambda d: _read_csv(d / "symbol_grid.csv"),
            check=_check_sweep(model, x, _grid(spec), settings),
            verdict_exit=True))

    def read_radii(d):
        return _read_json(d / "symbol_report.json"), _read_json(d / "independence.json")

    def check_radii(data):
        single, indep = data
        problems = _report_problems("cauchy", 0.0, 1.0, LEVY_PROBE, single)
        if tuple(indep["radii"]) != RADII:
            problems.append(f"independence radii {indep['radii']}")
        for radius, rep in zip(RADII, indep["reports"]):
            problems += _report_problems("cauchy", 0.0, 1.0,
                                         dict(LEVY_PROBE, k_radius=radius), rep)
        return problems

    ops.append(Operation(
        "radii_cauchy",
        _probe_argv("cauchy", 0.0, LEVY_PROBE, seed)
        + ["--xi", "1", "--radii", ",".join(f"{r:g}" for r in RADII)],
        out / "radii_cauchy", read=read_radii, check=check_radii, verdict_exit=True))
    return Workload("probe", ops, models=[m for m, *_ in PROBE_SWEEPS])


# ---------------------------------------------------------------------------
# verify

def _read_verify(d: Path) -> dict:
    return {s: _read_json(d / f"verify_{s}.json")
            for s in ("killing", "exponential", "canonical")}


def _fates(reports: dict) -> dict:
    excluded = reports["killing"]["excluded_paths"]
    valid = VERIFY_PATHS - excluded
    last = reports["killing"]["rows"][-1]
    return {"paths": VERIFY_PATHS, "excluded": excluded,
            "killed_by_t": {str(last["t"]): round(last["kill_prob"] * valid)}}


def verify(seed: int, out: Path) -> Workload:
    ops = []
    for model, check in (
        ("killed_autonomous",
         lambda reps: checks.check_killed_autonomous(reps, VERIFY_PATHS, dt=0.01)),
        ("stable_like", lambda reps: checks.check_stable_like(reps, VERIFY_PATHS)),
    ):
        ops.append(Operation(
            f"verify_{model}",
            ["verify", "--model", model, "--suite", "all", "--paths", str(VERIFY_PATHS),
             "--seed", str(seed)],
            out / f"verify_{model}", read=_read_verify, check=check,
            verdict_exit=True, fates=_fates))
    return Workload("verify", ops, models=["killed_autonomous", "stable_like"])


# ---------------------------------------------------------------------------
# indices

def _indices_op(name, model, direction, expected, out, extra=(), extra_check=None):
    rmin, rmax = INDEX_RANGE[direction]

    def check(rep):
        problems = checks.check_indices(rep, expected, rmin, rmax)
        return problems + (extra_check(rep) if extra_check else [])

    return Operation(
        name,
        ["indices", "--model", model, "--direction", direction,
         "--rmin", f"{rmin:g}", "--rmax", f"{rmax:g}", *extra],
        out / name, read=lambda d: _read_json(d / "index_report.json"), check=check)


def indices(seed: int, out: Path) -> Workload:
    # no Monte Carlo: the seed changes no input here
    del seed
    model = str(DENSITY_MODEL)
    origin = checks.INDEX_FIELDS["origin"]
    at_inf = checks.INDEX_FIELDS["infinity"]
    xi_grid = _grid(CONDITIONS_XI)
    ops = [
        _indices_op("indices_density", model, "origin", dict.fromkeys(origin, 2.0), out,
                    extra_check=checks.check_density_H),
        Operation(
            "conditions_density",
            ["conditions", "--model", model, "--x-grid=-1:1:3",
             f"--xi-grid={CONDITIONS_XI}"],
            out / "conditions_density", read=lambda d: _read_json(d / "conditions.json"),
            check=lambda rep: checks.check_density_conditions(rep, xi_grid)),
        _indices_op("indices_cauchy", "cauchy", "origin", dict.fromkeys(origin, 1.0), out),
        _indices_op("indices_stable_like", "stable_like", "origin",
                    dict(zip(origin, (0.3, 0.3, 0.7, 0.7))), out),
        _indices_op("indices_stable_like_inf", "stable_like", "infinity",
                    dict.fromkeys(at_inf, 0.7), out, extra=("--x", "0")),
    ]
    return Workload("indices", ops, models=[model, "cauchy", "stable_like"])


WORKLOADS = {"probe": probe, "verify": verify, "indices": indices}
