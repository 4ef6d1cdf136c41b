"""Command line interface.

Subcommands: simulate, symbol, indices, conditions, verify, scaling.
Exit codes: 0 success, 1 a requested check failed, 2 usage or
configuration error.  Every command writes its artifacts into the
directory given by --out (created on demand).
"""

from __future__ import annotations

import argparse
import sys
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
from .serialize import dump_json
from .simulate import PathSampler, PathWriter, SimSpec, simulate
# perfbench's tracer test checks that it replaces this name here too
from .simulate import sample_autonomous  # noqa: F401
from .symbol import IndependenceReport, ProbeSettings, estimate_symbol_grid, write_grid_csv
from .triplet import QuadratureError, check_growth, check_sector, eval_symbol

__all__ = ["main"]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _linspace_spec(text: str) -> np.ndarray:
    """Parse "lo:hi:n" into a linear grid, or a comma list into points."""
    if ":" in text:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    return np.asarray(_floats(text))


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


def _sim_args(cfg, args):
    sim = dict(cfg.simulation)
    x0 = _vector(args.x0, cfg.dim, "--x0") if args.x0 else \
        np.asarray(sim.get("x0", [0.0] * cfg.dim), dtype=float)
    dt = args.dt if args.dt is not None else float(sim.get("dt", 0.01))
    seed = args.seed if args.seed is not None else int(sim.get("seed", 0))
    n_paths = args.paths if args.paths is not None else int(sim.get("n_paths", 1000))
    horizon = getattr(args, "horizon", None)
    horizon = horizon if horizon is not None else float(sim.get("horizon", 1.0))
    expl = float(sim.get("explosion_threshold", 1e9))
    cut = sim.get("small_jump_cut")
    return x0, dt, seed, n_paths, horizon, expl, cut


def _outdir(args) -> FsPath:
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _make_spec(x0, dt, seed, n_paths, horizon, expl, cut) -> SimSpec:
    return SimSpec(x0=x0, horizon=horizon, dt=dt, n_paths=n_paths, rng_seed=seed,
                   explosion_threshold=expl, small_jump_cut=cut)


def _killing_mode(cfg) -> str:
    """The killing mode of ``simulate`` and ``verify``: the exact clock
    for levy and sde models, hazard killing for autonomous ones even at a
    constant rate."""
    return "hazard" if cfg.mode == "autonomous" else "clock"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    cfg, model = _load(args.model)
    spec = _make_spec(*_sim_args(cfg, args))
    folder = FsPath(args.out) / "paths"
    sim = simulate(model, spec, {"paths": lambda paths: PathWriter(folder, spec, paths)},
                   _killing_mode(cfg))
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
    with open(out / "manifest.json", "w") as fh:
        fh.write(dump_json(manifest))
    print(f"wrote {spec.n_paths} paths to {out} (invalid: {invalid})")
    return 0


def _cmd_symbol(args) -> int:
    if args.xi_grid and args.radii:
        raise ValueError("--radii runs the exit-ball check for one --xi, not for --xi-grid")
    cfg, model = _load(args.model)
    x0, dt, seed, n_paths, _, expl, cut = _sim_args(cfg, args)
    x = np.asarray(_floats(args.x), dtype=float)
    settings = ProbeSettings(
        k_radius=args.k_radius,
        t_ladder=tuple(_floats(args.ladder)),
        n_samples=n_paths if args.paths is not None else args.samples,
        extrapolate=not args.no_extrapolate,
        dt=args.dt,
    )
    sampler = PathSampler(model=model, dt=settings.step, seed=seed,
                          explosion_threshold=expl, small_jump_cut=cut)
    base = settings.k_radius
    out = _outdir(args)
    failed = False
    if args.xi_grid:
        grid = _linspace_spec(args.xi_grid)
        if grid.size == 0:
            raise ValueError(f"--xi-grid {args.xi_grid}: no frequency")
        reports = estimate_symbol_grid(sampler, x, grid, [base], settings)[base]
        write_grid_csv(out / "symbol_grid.csv", reports)
        for rep in reports:
            failed |= _symbol_failed(rep)
        print(f"wrote {len(reports)} probes to {out / 'symbol_grid.csv'}")
    else:
        if args.xi is None:
            raise ValueError("symbol needs --xi or --xi-grid")
        radii = tuple(_floats(args.radii)) if args.radii else ()
        # the base radius is simulated with the --radii, once
        probes = estimate_symbol_grid(sampler, x, [_floats(args.xi)],
                                      radii if base in radii else (base, *radii), settings)
        rep = probes[base][0]
        rep.write_json(out / "symbol_report.json")
        print(f"analytic {rep.analytic:.6g}  estimate {rep.extrapolated:.6g} "
              f"(stderr {rep.extrapolated_stderr:.3g})")
        failed |= _symbol_failed(rep)
        if radii:
            indep = IndependenceReport.from_reports([probes[r][0] for r in radii])
            with open(out / "independence.json", "w") as fh:
                fh.write(dump_json(indep.to_json()))
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
    cfg, model = _load(args.model)
    x = np.asarray(_floats(args.x), dtype=float) if args.x else None
    direction = {"origin": "origin", "infinity": "infinity"}[args.direction]
    c0 = None
    if args.sector_from_grid:
        xg = _linspace_spec(args.sector_x_grid).reshape(-1, 1) if cfg.dim == 1 else None
        kg = _linspace_spec(args.sector_xi_grid).reshape(-1, 1) if cfg.dim == 1 else None
        c0 = check_sector(model, xg, kg)
    rep = estimate_indices(model, args.rmin, args.rmax, n_points=args.points,
                           direction=direction, x=x, c0=c0)
    out = _outdir(args)
    rep.write_json(out / "index_report.json")
    rep.write_slopes_csv(out / "index_slopes.csv")
    if direction == "origin":
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
    xg = _linspace_spec(args.x_grid).reshape(-1, 1)
    kg = _linspace_spec(args.xi_grid).reshape(-1, 1)
    growth = check_growth(model, xg, kg)
    sector = check_sector(model, xg, kg)
    out = _outdir(args)
    with open(out / "conditions.json", "w") as fh:
        fh.write(dump_json({"growth": growth.to_json(), "sector": sector.to_json()}))
    print(f"growth constant {growth.constant:.6g}; sector "
          + (f"constant {sector.constant:.6g}" if sector.satisfied else "FAILED"))
    return 0


def _cmd_verify(args) -> int:
    cfg, model = _load(args.model)
    spec = _make_spec(*_sim_args(cfg, args))
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
    reports = run_checks(checks, model, spec, _killing_mode(cfg)) if checks else {}
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
    x0, dt, seed, n_paths, _, expl, cut = _sim_args(cfg, args)
    sampler = PathSampler(model=model, dt=dt, seed=seed,
                          explosion_threshold=expl, small_jump_cut=cut)
    direction = {"zero": "zero", "infinity": "infinity"}[args.direction]
    t_grid = _floats(args.t_grid)
    rep = scaling_diagnostic(sampler, x0, _floats(args.lambdas), t_grid,
                             direction, n_paths=n_paths)
    out = _outdir(args)
    with open(out / "scaling.json", "w") as fh:
        fh.write(dump_json(rep.to_json()))
    for lam, cls in rep.classifications.items():
        print(f"lambda={lam}: {cls} (slope {rep.slopes[lam]:.3f})")
    return 0


def _cmd_maximal(args) -> int:
    cfg, model = _load(args.model)
    x0, dt, seed, n_paths, _, expl, cut = _sim_args(cfg, args)
    sampler = PathSampler(model=model, dt=dt, seed=seed,
                          explosion_threshold=expl, small_jump_cut=cut)
    rep = verify_maximal_inequality(sampler, model, x0, _floats(args.t_grid),
                                    _floats(args.r_grid), n_paths)
    out = _outdir(args)
    with open(out / "maximal_inequality.json", "w") as fh:
        fh.write(dump_json(rep.to_json()))
    print(f"sup ratio (upper bound) {rep.sup_ratio_upper:.4g}; "
          f"stability {rep.stability:.2%}; {'stable' if rep.stable else 'UNSTABLE'}")
    return 0 if rep.stable else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--k-radius", type=float, default=1.0)
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
