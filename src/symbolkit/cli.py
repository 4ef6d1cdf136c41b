"""Command line interface.

Subcommands: simulate, symbol, indices, conditions, verify, scaling.
Exit codes: 0 success, 1 a requested check failed, 2 usage or
configuration error.  Every command writes its artifacts into the
directory given by --out (created on demand).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .config import (
    ModelConfigError,
    ModelInvariantError,
    compile_model,
    load_config,
    resolve_model_path,
)
from .indices import estimate_indices, scaling_diagnostic, verify_maximal_inequality
from .martingale import (
    canonical_representation,
    exponential_martingale,
    killing_compensator,
    run_checks,
)
from .quadrature import QuadratureError
from .serialize import dump_json
from .simulate import PathSampler, PathWriter, SimSpec, simulate
# perfbench's tracer test checks that it replaces this name here too
from .simulate import sample_autonomous  # noqa: F401
from .symbol import IndependenceReport, ProbeSettings, estimate_symbol_grid, write_grid_csv
from .triplet import check_growth, check_sector

__all__ = ["main"]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


_NUMBERS = {
    "numbers": lambda v: True,
    "finite numbers": math.isfinite,
    "finite positive numbers": lambda v: math.isfinite(v) and v > 0,
}


def _numbers(text: str, flag: str, kind: str = "numbers") -> list[float]:
    """A comma list of one or more ``kind`` (a key of _NUMBERS)."""
    try:
        values = _floats(text)
    except ValueError:
        values = []
    if not values or not all(map(_NUMBERS[kind], values)):
        raise ValueError(f"{flag} {text!r}: need one or more {kind}")
    return values


def _linspace_spec(text: str, flag: str) -> np.ndarray:
    """Parse "lo:hi:n" into a linear grid, or a comma list into points;
    every point must be finite."""
    try:
        if ":" in text:
            lo, hi, n = text.split(":")
            with np.errstate(invalid="ignore"):
                grid = np.linspace(float(lo), float(hi), int(n))
        else:
            grid = np.asarray(_floats(text))
    except ValueError:
        grid = None
    if grid is None or not np.all(np.isfinite(grid)):
        raise ValueError(f"{flag} {text!r}: need \"lo:hi:n\" or a comma list, "
                         f"with finite points")
    return grid


def _load(spec: str):
    path = resolve_model_path(spec)
    cfg = load_config(path)
    model = compile_model(cfg)
    return cfg, model


def _vector(text: str, dim: int, flag: str) -> np.ndarray:
    """A comma list of ``dim`` finite numbers."""
    v = np.asarray(_floats(text), dtype=float)
    if v.shape != (dim,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{flag} {text!r}: need {dim} finite number(s) for a "
                         f"{dim}-dimensional model")
    return v


@dataclass(frozen=True)
class _Run:
    """A command's run settings: each from its flag, else from the model
    file's ``simulation`` block, else the default."""

    x0: np.ndarray
    dt: float
    seed: int
    n_paths: int
    horizon: float
    explosion_threshold: float
    small_jump_cut: float | None

    @classmethod
    def of(cls, cfg, args) -> "_Run":
        sim = cfg.simulation
        horizon = getattr(args, "horizon", None)
        return cls(
            x0=(_vector(args.x0, cfg.dim, "--x0") if args.x0
                else np.asarray(sim.get("x0", [0.0] * cfg.dim), dtype=float)),
            dt=args.dt if args.dt is not None else float(sim.get("dt", 0.01)),
            seed=args.seed if args.seed is not None else int(sim.get("seed", 0)),
            n_paths=args.paths if args.paths is not None else int(sim.get("n_paths", 1000)),
            horizon=horizon if horizon is not None else float(sim.get("horizon", 1.0)),
            explosion_threshold=float(sim.get("explosion_threshold", 1e9)),
            small_jump_cut=sim.get("small_jump_cut"),
        )

    def spec(self) -> SimSpec:
        return SimSpec(x0=self.x0, horizon=self.horizon, dt=self.dt, n_paths=self.n_paths,
                       rng_seed=self.seed, explosion_threshold=self.explosion_threshold,
                       small_jump_cut=self.small_jump_cut)

    def sampler(self, model, dt: float | None = None) -> PathSampler:
        return PathSampler(model=model, dt=self.dt if dt is None else dt, seed=self.seed,
                           explosion_threshold=self.explosion_threshold,
                           small_jump_cut=self.small_jump_cut)


def _outdir(args) -> FsPath:
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(obj))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    cfg, model = _load(args.model)
    spec = _Run.of(cfg, args).spec()
    folder = FsPath(args.out) / "paths"
    sim = simulate(model, spec, {"paths": lambda paths: PathWriter(folder, spec, paths)})
    out = _outdir(args)
    invalid = int(sim.invalid.sum())
    manifest = {
        "schema": "symbolkit-ensemble/1",
        "model": model.name,
        "spec": spec.to_json(),
        "seed_ledger": sim.ledger,
        "invalid_count": invalid,
        "bias_notes": sim.bias_notes,
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {spec.n_paths} paths to {out} (invalid: {invalid})")
    return 0


def _cmd_symbol(args) -> int:
    if args.xi_grid and args.radii:
        raise ValueError("--radii runs the exit-ball check for one --xi, not for --xi-grid")
    cfg, model = _load(args.model)
    run = _Run.of(cfg, args)
    x = _vector(args.x, cfg.dim, "--x")
    k_radius = _numbers(args.k_radius, "--k-radius", "finite positive numbers")
    if len(k_radius) > 1:
        raise ValueError(f"--k-radius {args.k_radius!r}: one radius; --radii takes several")
    settings = ProbeSettings(
        k_radius=k_radius[0],
        t_ladder=tuple(_numbers(args.ladder, "--ladder", "finite positive numbers")),
        n_samples=run.n_paths if args.paths is not None else args.samples,
        extrapolate=not args.no_extrapolate,
    )
    sampler = run.sampler(model, args.dt if args.dt is not None else settings.default_dt)
    base = settings.k_radius
    failed = False
    if args.xi_grid:
        grid = _linspace_spec(args.xi_grid, "--xi-grid")
        if grid.size == 0:
            raise ValueError(f"--xi-grid {args.xi_grid}: no frequency")
        reports = estimate_symbol_grid(sampler, x, grid, [base], settings)[base]
        out = _outdir(args)
        write_grid_csv(out / "symbol_grid.csv", reports)
        for rep in reports:
            failed |= _symbol_failed(rep)
        print(f"wrote {len(reports)} probes to {out / 'symbol_grid.csv'}")
    else:
        if args.xi is None:
            raise ValueError("symbol needs --xi or --xi-grid")
        xi = _numbers(args.xi, "--xi", "finite numbers")
        radii = (tuple(_numbers(args.radii, "--radii", "finite positive numbers"))
                 if args.radii else ())
        # the base radius is simulated with the --radii, once
        probes = estimate_symbol_grid(sampler, x, [xi],
                                      radii if base in radii else (base, *radii), settings)
        rep = probes[base][0]
        out = _outdir(args)
        rep.write_json(out / "symbol_report.json")
        print(f"analytic {rep.analytic:.6g}  estimate {rep.extrapolated:.6g} "
              f"(stderr {rep.extrapolated_stderr:.3g})")
        failed |= _symbol_failed(rep)
        if radii:
            indep = IndependenceReport.from_reports([probes[r][0] for r in radii])
            _write_json(out / "independence.json", indep.to_json())
            print(f"independence over radii {args.radii}: "
                  f"{'consistent' if indep.consistent else 'INCONSISTENT'}")
            failed |= not indep.consistent
    return 1 if failed else 0


def _symbol_failed(rep) -> bool:
    if rep.analytic is None:
        return False
    tol = max(0.10 * abs(rep.analytic), 3.0 * rep.extrapolated_stderr)
    return abs(rep.extrapolated - rep.analytic) > tol


def _cmd_indices(args) -> int:
    for flag, r in (("--rmin", args.rmin), ("--rmax", args.rmax)):
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"{flag} {r}: need a finite positive radius")
    if not args.rmin < args.rmax:
        raise ValueError(f"--rmax {args.rmax} must exceed --rmin {args.rmin}")
    cfg, model = _load(args.model)
    x = _vector(args.x, cfg.dim, "--x") if args.x else None
    c0 = None
    if args.sector_from_grid:
        xg = _linspace_spec(args.sector_x_grid, "--sector-x-grid").reshape(-1, 1) \
            if cfg.dim == 1 else None
        kg = _linspace_spec(args.sector_xi_grid, "--sector-xi-grid").reshape(-1, 1) \
            if cfg.dim == 1 else None
        c0 = check_sector(model, xg, kg)
    rep = estimate_indices(model, args.rmin, args.rmax, n_points=args.points,
                           direction=args.direction, x=x, c0=c0)
    out = _outdir(args)
    rep.write_json(out / "index_report.json")
    rep.write_slopes_csv(out / "index_slopes.csv")
    if args.direction == "origin":
        print(f"beta0={rep.beta0}  beta0_lower={rep.beta0_lower}  "
              f"delta0_upper={rep.delta0_upper}  delta0={rep.delta0}")
    else:
        print(f"beta_inf={rep.beta_inf_x}  beta_inf_lower={rep.beta_inf_x_lower}  "
              f"delta_inf_upper={rep.delta_inf_x_upper}  delta_inf={rep.delta_inf_x}")
    if rep.indeterminate:
        print("warning: slope proxies flagged indeterminate")
    return 0


def _cmd_conditions(args) -> int:
    cfg, model = _load(args.model)
    if cfg.dim != 1:
        print("conditions grids are one-dimensional in this build", file=sys.stderr)
        return 2
    xg = _linspace_spec(args.x_grid, "--x-grid").reshape(-1, 1)
    kg = _linspace_spec(args.xi_grid, "--xi-grid").reshape(-1, 1)
    growth = check_growth(model, xg, kg)
    sector = check_sector(model, xg, kg)
    out = _outdir(args)
    _write_json(out / "conditions.json", {"growth": growth.to_json(), "sector": sector.to_json()})
    print(f"growth constant {growth.constant:.6g}; sector "
          + (f"constant {sector.constant:.6g}" if sector.satisfied else "FAILED"))
    return 0


def _cmd_verify(args) -> int:
    cfg, model = _load(args.model)
    spec = _Run.of(cfg, args).spec()
    t_grid = _floats(args.t_grid)
    suites = ("killing", "exponential", "canonical") if args.suite == "all" else (args.suite,)
    # every check is set up, and its input checked, before any path is simulated
    checks = {}
    for suite in suites:
        if suite == "killing":
            checks[suite] = killing_compensator(model, spec, t_grid)
        elif suite == "exponential":
            checks[suite] = exponential_martingale(model, spec,
                                                   _vector(args.u, cfg.dim, "--u"), t_grid)
        elif cfg.mode != "sde":
            checks[suite] = canonical_representation(model, spec)
    reports = run_checks(checks, model, spec) if checks else {}
    out = _outdir(args)
    all_passed = True
    for suite in suites:
        rep = reports.get(suite)
        if rep is None:
            print("canonical: skipped (not defined for sde-mode models)")
            continue
        rep.write_json(out / f"verify_{suite}.json")
        print(f"{rep.name}: {'pass' if rep.passed else 'FAIL'} "
              f"(excluded {rep.excluded_paths})")
        all_passed &= rep.passed
    return 0 if all_passed else 1


def _cmd_scaling(args) -> int:
    cfg, model = _load(args.model)
    run = _Run.of(cfg, args)
    t_grid = _numbers(args.t_grid, "--t-grid")
    lambdas = _numbers(args.lambdas, "--lambdas", "finite positive numbers")
    rep = scaling_diagnostic(run.sampler(model), run.x0, lambdas, t_grid,
                             args.direction, n_paths=run.n_paths)
    out = _outdir(args)
    _write_json(out / "scaling.json", rep.to_json())
    for lam, cls in rep.classifications.items():
        print(f"lambda={lam}: {cls} (slope {rep.slopes[lam]:.3f})")
    return 0


def _cmd_maximal(args) -> int:
    cfg, model = _load(args.model)
    run = _Run.of(cfg, args)
    if run.n_paths < 2:
        raise ValueError(f"--paths {run.n_paths}: the stability check halves the sample, "
                         "so at least 2 paths are needed")
    rep = verify_maximal_inequality(run.sampler(model), model, run.x0,
                                    _numbers(args.t_grid, "--t-grid"),
                                    _numbers(args.r_grid, "--r-grid",
                                             "finite positive numbers"),
                                    run.n_paths)
    out = _outdir(args)
    _write_json(out / "maximal_inequality.json", rep.to_json())
    print(f"sup ratio (upper bound) {rep.sup_ratio_upper:.4g}; "
          f"stability {rep.stability:.2%}; {'stable' if rep.stable else 'UNSTABLE'}")
    return 0 if rep.stable else 1


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parse_args does
    not change it."""
    p = argparse.ArgumentParser(prog="symbolkit",
                                description="Levy-type process toolkit")
    p.add_argument("--version", action="version", version=f"symbolkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, horizon=False):
        sp.add_argument("--model", required=True, help="model file path or bundled name")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--paths", type=int, default=None)
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--out", default="symbolkit_out")
        sp.add_argument("--x0", default=None, help="start point, comma separated")
        if horizon:
            sp.add_argument("--horizon", type=float, default=None)

    sp = sub.add_parser("simulate", help="generate and export a path ensemble")
    common(sp, horizon=True)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("symbol", help="Monte-Carlo symbol probe")
    common(sp)
    sp.add_argument("--x", required=True, help="probe state, comma separated")
    sp.add_argument("--xi", default=None, help="frequency, comma separated")
    sp.add_argument("--xi-grid", default=None, help="lo:hi:n scalar frequency grid")
    sp.add_argument("--k-radius", default="1.0")
    sp.add_argument("--ladder", default="0.04,0.02,0.01,0.005")
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--no-extrapolate", action="store_true")
    sp.add_argument("--radii", default=None,
                    help="also run the exit-ball independence check over these radii")
    sp.set_defaults(fn=_cmd_symbol)

    sp = sub.add_parser("indices", help="index estimation from symbol decay")
    common(sp)
    sp.add_argument("--direction", choices=["origin", "infinity"], default="origin")
    sp.add_argument("--rmin", type=float, required=True)
    sp.add_argument("--rmax", type=float, required=True)
    sp.add_argument("--points", type=int, default=16)
    sp.add_argument("--x", default=None)
    sp.add_argument("--sector-from-grid", action="store_true",
                    help="estimate the sector constant before computing h")
    sp.add_argument("--sector-x-grid", default="-5:5:21")
    sp.add_argument("--sector-xi-grid", default="-10:10:41")
    sp.set_defaults(fn=_cmd_indices)

    sp = sub.add_parser("conditions", help="growth and sector condition estimates")
    common(sp)
    sp.add_argument("--x-grid", default="-5:5:21")
    sp.add_argument("--xi-grid", default="-10:10:41")
    sp.set_defaults(fn=_cmd_conditions)

    sp = sub.add_parser("verify", help="martingale oracle battery")
    common(sp, horizon=True)
    sp.add_argument("--suite", choices=["killing", "exponential", "canonical", "all"],
                    default="all")
    sp.add_argument("--u", default="1.0", help="frequency for the exponential check")
    sp.add_argument("--t-grid", default="0.25,0.5,1.0")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("scaling", help="pathwise scaling classification")
    common(sp)
    sp.add_argument("--direction", choices=["zero", "infinity"], required=True)
    sp.add_argument("--lambdas", required=True)
    sp.add_argument("--t-grid", required=True)
    sp.set_defaults(fn=_cmd_scaling)

    sp = sub.add_parser("maximal", help="maximal inequality ratio check")
    common(sp)
    sp.add_argument("--t-grid", default="0.1,1.0")
    sp.add_argument("--r-grid", default="1,3,10")
    sp.set_defaults(fn=_cmd_maximal)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ModelConfigError, ModelInvariantError, FileNotFoundError, ValueError,
            QuadratureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
