"""Model configuration files (JSON, schema ``symbolkit-model/1``).

Coefficients are written as expression strings in the variables
x1..xd (plain numbers are accepted and treated as constants).  Unknown
fields are errors: scientific runs should fail closed rather than run
with silently ignored settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path as FsPath

import numpy as np

from .expr import ExpressionDomainError, ExpressionSyntaxError, parse_expression
from .quadrature import QuadratureError
from .triplet import (
    Coefficient,
    CutoffFunction,
    DensityMeasure,
    DiscreteMeasure,
    MatrixCoefficient,
    StableMeasure,
    StateModel,
    VectorCoefficient,
    ZeroMeasure,
    _atom_problem,
    _violation,
)

__all__ = [
    "SCHEMA",
    "ModelConfig",
    "ModelConfigError",
    "ModelInvariantError",
    "load_model",
    "bundled_model_path",
]

SCHEMA = "symbolkit-model/1"


class ModelConfigError(ValueError):
    """Schema violation; carries the offending field and the reason."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(f"{field_name}: {reason}")
        self.field = field_name
        self.reason = reason


class ModelInvariantError(ValueError):
    """The configuration parsed but fails a model invariant at some
    probe point of the domain box."""


@dataclass
class ModelConfig:
    """Parsed configuration prior to model compilation."""

    dim: int
    mode: str
    killing_rate: object
    drift: list
    covariance: list
    levy_measure: dict
    cutoff: CutoffFunction
    domain_box: np.ndarray
    sde: dict | None = None
    simulation: dict = field(default_factory=dict)
    name: str = "model"


_ALLOWED_TOP = {
    "schema", "name", "dim", "mode", "killing_rate", "drift", "covariance",
    "levy_measure", "cutoff", "domain_box", "sde", "simulation",
}
_ALLOWED_MEASURE = {
    "zero": {"kind"},
    "discrete": {"kind", "atoms"},
    "alpha_stable": {"kind", "alpha", "scale"},
    "density": {"kind", "density", "eps", "y_max"},
}
_ALLOWED_SIM = {"dt", "horizon", "n_paths", "x0", "explosion_threshold",
                "small_jump_cut", "seed"}

CONTINUITY_GRID = 33
OSCILLATION_LIMIT = 1e6


def _coeff_spec(raw, dim: int, field_name: str, constant: bool = False):
    """A float, or an Expression in x1..xd unless ``constant``."""
    if isinstance(raw, bool):
        raise ModelConfigError(field_name, "expected a number or expression string")
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, str):
        try:
            e = parse_expression(raw, dim=dim)
        except ExpressionSyntaxError as err:
            raise ModelConfigError(field_name, f"bad expression: {err}") from err
        if e.max_var() == 0:
            # constant-fold variable-free expressions so models written
            # with quoted numbers still count as constant coefficient
            try:
                return float(e.evaluate(np.zeros(dim)))
            except ExpressionDomainError:
                pass
        if constant:
            raise ModelConfigError(field_name, f"a levy model needs a constant, got {raw!r}; "
                                   "state-dependent models use mode autonomous")
        return e
    raise ModelConfigError(field_name, "expected a number or expression string")


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ModelConfigError(where, f"unknown fields {sorted(unknown)}")


def parse_config(raw: dict, name: str = "model") -> ModelConfig:
    if not isinstance(raw, dict):
        raise ModelConfigError("<root>", "model file must hold a JSON object")
    _check_keys(raw, _ALLOWED_TOP, "<root>")
    if raw.get("schema") != SCHEMA:
        raise ModelConfigError("schema", f"expected {SCHEMA!r}, got {raw.get('schema')!r}")
    dim = raw.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise ModelConfigError("dim", "must be a positive integer")
    mode = raw.get("mode", "autonomous")
    if mode not in ("levy", "autonomous", "sde"):
        raise ModelConfigError("mode", "must be one of levy, autonomous, sde")

    drift_raw = raw.get("drift", [0.0] * dim)
    if not isinstance(drift_raw, list) or len(drift_raw) != dim:
        raise ModelConfigError("drift", f"expected a list of {dim} entries")
    cov_raw = raw.get("covariance", [[0.0] * dim for _ in range(dim)])
    if (not isinstance(cov_raw, list) or len(cov_raw) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in cov_raw)):
        raise ModelConfigError("covariance", f"expected a {dim}x{dim} matrix")

    cut_raw = raw.get("cutoff", {"kind": "indicator_ball", "radius": 1.0})
    _check_keys(cut_raw, {"kind", "radius", "radii"}, "cutoff")
    try:
        if cut_raw.get("kind") == "product_indicator":
            cutoff = CutoffFunction(kind="product_indicator",
                                    radii=tuple(cut_raw["radii"]))
        else:
            cutoff = CutoffFunction(kind=cut_raw.get("kind", "indicator_ball"),
                                    radius=float(cut_raw.get("radius", 1.0)))
    except (KeyError, ValueError) as err:
        raise ModelConfigError("cutoff", str(err)) from err

    box_raw = raw.get("domain_box", [[-10.0, 10.0]] * dim)
    box = np.asarray(box_raw, dtype=float)
    if box.shape != (dim, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise ModelConfigError("domain_box", "expected d rows [lo, hi] with lo < hi")

    measure_raw = raw.get("levy_measure", {"kind": "zero"})
    kind = measure_raw.get("kind")
    if kind not in _ALLOWED_MEASURE:
        raise ModelConfigError("levy_measure.kind", f"unknown kind {kind!r}")
    _check_keys(measure_raw, _ALLOWED_MEASURE[kind], "levy_measure")

    sde_raw = raw.get("sde")
    if mode == "sde":
        if not isinstance(sde_raw, dict):
            raise ModelConfigError("sde", "sde mode requires an sde block")
        _check_keys(sde_raw, {"coefficient", "driver"}, "sde")
        if dim != 1:
            raise ModelConfigError("dim", "sde mode is one-dimensional")
        # the characteristics are the driver's: the top-level ones must
        # be absent or at their defaults
        at_default = {
            "killing_rate": _is_zero(raw.get("killing_rate", 0.0)),
            "drift": all(map(_is_zero, drift_raw)),
            "covariance": all(_is_zero(v) for row in cov_raw for v in row),
            "levy_measure": kind == "zero",
            "cutoff": cutoff == CutoffFunction(),
        }
        for key, ok in at_default.items():
            if not ok:
                raise ModelConfigError(key, "sde mode takes its characteristics from "
                                       "sde.driver; omit this field or give its default")
    elif sde_raw is not None:
        raise ModelConfigError("sde", "sde block only valid in sde mode")

    sim_raw = raw.get("simulation", {})
    _check_keys(sim_raw, _ALLOWED_SIM, "simulation")

    return ModelConfig(
        dim=dim, mode=mode,
        killing_rate=raw.get("killing_rate", 0.0),
        drift=drift_raw, covariance=cov_raw, levy_measure=measure_raw,
        cutoff=cutoff, domain_box=box, sde=sde_raw, simulation=sim_raw,
        name=raw.get("name", name),
    )


def _is_zero(raw) -> bool:
    """A number (not a boolean) equal to 0."""
    return isinstance(raw, (int, float)) and not isinstance(raw, bool) and raw == 0


def _build_measure(measure_raw: dict, dim: int, constant: bool):
    kind = measure_raw["kind"]
    if kind == "zero":
        return ZeroMeasure()
    if kind == "discrete":
        atoms = measure_raw.get("atoms", [])
        if not atoms:
            raise ModelConfigError("levy_measure.atoms", "at least one atom required")
        jumps, rate_specs = [], []
        for i, atom in enumerate(atoms):
            where = f"levy_measure.atoms[{i}]"
            _check_keys(atom, {"jump", "rate"}, where)
            jumps.append(np.atleast_1d(np.asarray(atom["jump"], dtype=float)))
            if jumps[-1].shape != (dim,):
                raise ModelConfigError(where, f"jump {atom['jump']!r} has {jumps[-1].size} "
                                       f"components; the model is {dim}-dimensional")
            rate_specs.append(_coeff_spec(atom["rate"], dim, f"{where}.rate", constant))
            problem = _atom_problem(jumps[-1], rate_specs[-1])
            if problem is not None:
                raise ModelConfigError(where, problem)
        return DiscreteMeasure(np.stack(jumps), rate_specs)
    if kind == "alpha_stable":
        alpha = _coeff_spec(measure_raw.get("alpha", 1.0), dim, "levy_measure.alpha", constant)
        scale = _coeff_spec(measure_raw.get("scale", 1.0), dim, "levy_measure.scale", constant)
        try:
            return StableMeasure(alpha, scale)
        except ValueError as err:
            raise ModelConfigError("levy_measure", str(err)) from err
    if kind == "density":
        for key in ("density", "eps", "y_max"):
            if key not in measure_raw:
                raise ModelConfigError(f"levy_measure.{key}", "required for a density measure")
        expr = _coeff_spec(measure_raw["density"], 1, "levy_measure.density")
        if isinstance(expr, float):
            raise ModelConfigError("levy_measure.density", "expected an expression in x1")
        bounds = []
        for key in ("eps", "y_max"):
            try:
                bounds.append(float(measure_raw[key]))
            except (ValueError, TypeError) as err:
                raise ModelConfigError(f"levy_measure.{key}",
                                       f"expected a number, got {measure_raw[key]!r}") from err
        try:
            return DensityMeasure(expr, *bounds)
        except (ValueError, TypeError, QuadratureError) as err:
            raise ModelConfigError("levy_measure", str(err)) from err
    raise AssertionError(kind)


def compile_model(cfg: ModelConfig) -> StateModel:
    if cfg.mode == "sde":
        # the driver's own characteristics, scaled by f
        driver_raw = cfg.sde.get("driver")
        if not isinstance(driver_raw, dict):
            raise ModelConfigError("sde.driver", "expected a driver triplet object")
        _check_keys(driver_raw, {"killing_rate", "drift", "covariance",
                                 "levy_measure", "cutoff"}, "sde.driver")
        driver_cfg = parse_config({"schema": SCHEMA, "dim": 1, "mode": "levy",
                                   **driver_raw}, name="driver")
        try:
            driver = compile_model(driver_cfg).constant_triplet()
        except ValueError as err:
            raise ModelConfigError("sde.driver", f"driver must be constant: {err}") from err
        f = Coefficient(_coeff_spec(cfg.sde.get("coefficient"), 1, "sde.coefficient"))
        model = StateModel.from_triplet(driver, cfg.domain_box, cfg.name, sde=f)
    else:
        dim = cfg.dim
        # a levy model's characteristics do not depend on the state
        constant = cfg.mode == "levy"
        kill = Coefficient(_coeff_spec(cfg.killing_rate, dim, "killing_rate", constant))
        drift = VectorCoefficient(
            [_coeff_spec(v, dim, f"drift[{i}]", constant) for i, v in enumerate(cfg.drift)], dim)
        cov = MatrixCoefficient(
            [[_coeff_spec(v, dim, f"covariance[{i}][{j}]", constant) for j, v in enumerate(row)]
             for i, row in enumerate(cfg.covariance)], dim)
        measures = _build_measure(cfg.levy_measure, dim, constant)
        try:
            model = StateModel(dim=dim, kill=kill, drift=drift, covariance=cov,
                               measures=measures, cutoff=cfg.cutoff,
                               domain_box=cfg.domain_box, name=cfg.name)
        except ValueError as err:  # the measure's dimension; the box is checked
            raise ModelConfigError("levy_measure", str(err)) from err
    _validate_on_box(model)
    return model


def _probe_grid(box: np.ndarray, per_dim: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _validate_on_box(model: StateModel) -> None:
    """Spot-check the coefficients on a grid over the domain box: finite
    values (an undefined coefficient reads NaN), no wild oscillation,
    killing rate non-negative, covariance positive semidefinite, the
    measure's own invariants (``box_violation``); an SDE's f is
    checked as the other coefficients are.  Each failure names the field and the probe point."""
    per_dim = CONTINUITY_GRID if model.dim == 1 else 9
    pts = _probe_grid(model.domain_box, per_dim)
    values = model.coefficient_values(pts)
    a = values[model.kill]
    _finite_and_tame(a, pts, "killing_rate")
    _fail(_violation("killing_rate negative", a < 0, pts))
    _finite_and_tame(values[model.drift], pts, "drift")
    q = values[model.covariance]
    _finite_and_tame(q, pts, "covariance")
    eigs = np.linalg.eigvalsh(0.5 * (q + np.swapaxes(q, -1, -2)))
    _fail(_violation("covariance not positive semidefinite", eigs.min(axis=-1) < -1e-12, pts))
    _fail(model.measures.box_violation(values, pts))
    if model.sde is not None:
        _finite_and_tame(values[model.sde], pts, "sde coefficient")


def _fail(message: str | None) -> None:
    if message is not None:
        raise ModelInvariantError(message)


def _finite_and_tame(values: np.ndarray, pts: np.ndarray, what: str) -> None:
    flat = np.asarray(values, dtype=float).reshape(pts.shape[0], -1)
    _fail(_violation(f"{what} not finite", ~np.isfinite(flat), pts))
    if flat.shape[0] > 1:
        osc = np.abs(np.diff(flat, axis=0)).max()
        if osc > OSCILLATION_LIMIT:
            raise ModelInvariantError(
                f"{what} oscillates beyond {OSCILLATION_LIMIT:g} between probe points")


def load_config(path) -> ModelConfig:
    """Read and validate a model file."""
    p = FsPath(path)
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ModelConfigError(str(path), f"invalid JSON: {err}") from err
    return parse_config(raw, name=p.stem)


def load_model(path) -> StateModel:
    """Read, validate and compile a model file."""
    return compile_model(load_config(path))


def bundled_model_path(name: str) -> FsPath:
    """Path of a model file shipped with the package (e.g. "bm")."""
    fname = name if name.endswith(".model") else f"{name}.model"
    ref = resources.files("symbolkit") / "models" / fname
    with resources.as_file(ref) as p:
        return FsPath(p)


def resolve_model_path(spec: str) -> FsPath:
    """Interpret a --model argument: an existing file path, or the name
    of a bundled model."""
    p = FsPath(spec)
    if p.exists():
        return p
    try:
        q = bundled_model_path(spec)
    except (FileNotFoundError, ModuleNotFoundError):
        raise FileNotFoundError(f"model file {spec!r} not found")
    if q.exists():
        return q
    raise FileNotFoundError(f"model file {spec!r} not found")
