"""Frequency-ball symbol statistics and generalized path-scaling indices.

For a symbol p the two working quantities at radius R are

    H(x, R) = sup_{|y-x| <= 2R} sup_{|eps| <= 1} |p(y, eps / R)|
    h(x, R) = inf_{|y-x| <= 2R} sup_{|eps| <= 1} Re p(y, eps / (4 kappa R))

with kappa = 1 / (4 arctan(1 / (2 c0))) from the sector constant c0
(limit 1 / (2 pi) at c0 = 0); the global versions replace the y-ball by
the model's domain box.  Suprema are grid suprema; the grids used are
part of every report.

H and h over a grid of radii come from one symbol evaluation per
quantity and block of consecutive radii, a block holding at most
GRID_PAIRS_PER_CALL (state, frequency) pairs, with each radius's
suprema read from its slice.  Every symbol value is a function of its
(state, frequency) pair alone, so the values do not depend on the
grid.

Power-law decay of H and h in R yields eight scaling indices: the
R -> infinity family (indices at the origin) and the R -> 0 family
(indices at infinity).  Local log-log slopes over the tail decade stand
in for the limsup/liminf defining the indices; the full slope sequence
is reported so oscillating symbols are visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ExpressionDomainError
from .serialize import dump_json, write_csv
from .simulate import PathSampler
from .triplet import (
    ConditionEstimate,
    SectorConditionError,
    StateModel,
)

__all__ = [
    "IndexReport",
    "MaximalInequalityReport",
    "ScalingReport",
    "kappa",
    "quantity_H",
    "quantity_h",
    "estimate_indices",
    "verify_maximal_inequality",
    "scaling_diagnostic",
]


def kappa(c0: float) -> float:
    """Frequency rescaling constant 1/(4 arctan(1/(2 c0))); strictly
    increasing in c0 with limit 1/(2 pi) as c0 -> 0."""
    if c0 < 0:
        raise ValueError("sector constant must be non-negative")
    if c0 == 0.0:
        return 1.0 / (2.0 * math.pi)
    return 1.0 / (4.0 * math.atan(1.0 / (2.0 * c0)))


# the frequency grid over the unit ball: directions (in two or more
# dimensions) times radii, plus the origin
BALL_DIRECTIONS, BALL_RADII = 64, 8
# the state grid: points per axis, lowered until the grid holds at most
# Y_GRID_CAP points
Y_RESOLUTION, Y_GRID_CAP = 41, 2048


def _unit_ball_grid(dim: int) -> np.ndarray:
    """Grid over the closed unit ball with the boundary covered densely."""
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif dim == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, BALL_DIRECTIONS, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        rng = np.random.default_rng(20240501)
        raw = rng.standard_normal((BALL_DIRECTIONS, dim))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    radii = np.linspace(1.0 / BALL_RADII, 1.0, BALL_RADII)
    pts = (dirs[None, :, :] * radii[:, None, None]).reshape(-1, dim)
    return np.concatenate([np.zeros((1, dim)), pts], axis=0)


def _y_grid(model: StateModel, R: float, x=None) -> np.ndarray:
    """State grid: the ball |y - x| <= 2R intersected with the domain
    box, or the whole box for the global quantities.  Constant models
    collapse to a single representative point."""
    if model.is_constant:
        return np.zeros((1, model.dim))
    box = model.domain_box
    d = model.dim
    if x is not None:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo = np.maximum(box[:, 0], x - 2.0 * R)
        hi = np.minimum(box[:, 1], x + 2.0 * R)
    else:
        lo, hi = box[:, 0], box[:, 1]
    res = Y_RESOLUTION
    while res ** d > Y_GRID_CAP and res > 3:
        res -= 2
    axes = [np.linspace(lo[k], hi[k], res) for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if x is not None:
        keep = np.linalg.norm(pts - x, axis=1) <= 2.0 * R + 1e-12
        pts = pts[keep]
        if pts.shape[0] == 0:
            pts = x[None, :]
    return pts


# (state, frequency) pairs per symbol_many call of _radius_grid: enough
# for every one-dimensional grid of radii, density models included, so
# a 1-d quantity takes one call
GRID_PAIRS_PER_CALL = 1 << 17


def _state_grids(model: StateModel, R, x=None) -> list:
    """The state grid of each radius of R (``_y_grid``), built once when
    it does not depend on the radius: the global quantities, and
    constant models."""
    R = np.atleast_1d(np.asarray(R, dtype=float))
    if x is None or model.is_constant:
        return [_y_grid(model, R[0], x=x)] * len(R)
    return [_y_grid(model, r, x=x) for r in R]


def _radius_grid(model: StateModel, R, c0=None, x=None, grids=None) -> np.ndarray:
    """H at each radius of the grid R, or h when a sector constant c0
    (a number or a ConditionEstimate) is given.

    At radius r each state y of the r-grid takes the sup over the eps
    grid of |p(y, eps / r)| (of Re p(y, eps / (4 kappa r)) for h); H is
    their max over the states, h their min.  Consecutive radii share one
    symbol_many call of at most GRID_PAIRS_PER_CALL pairs; a radius over
    that budget has a call of its own.  A caller that evaluates H and h
    on the same radii passes their ``_state_grids`` as ``grids``."""
    R = np.atleast_1d(np.asarray(R, dtype=float))
    if not np.all(R > 0):
        raise ValueError("R must be positive")
    if c0 is None:
        scale = 1.0 / R
    else:
        if isinstance(c0, ConditionEstimate):
            if not c0.satisfied:
                raise SectorConditionError("sector condition failed on the probe grid")
            c0 = c0.constant
        scale = 1.0 / (4.0 * kappa(float(c0)) * R)
    eps_grid = _unit_ball_grid(model.dim)
    n_e = eps_grid.shape[0]
    ys = _state_grids(model, R, x) if grids is None else grids
    pairs = np.array([y.shape[0] * n_e for y in ys])
    out = np.empty(len(R))
    start = 0
    while start < len(R):
        stop = start + 1
        while stop < len(R) and pairs[start:stop + 1].sum() <= GRID_PAIRS_PER_CALL:
            stop += 1
        block = range(start, stop)
        xs = np.concatenate([np.repeat(ys[i], n_e, axis=0) for i in block])
        xis = np.concatenate([np.tile(eps_grid * scale[i], (ys[i].shape[0], 1))
                              for i in block])
        vals = model.symbol_many(xs, xis)
        table = np.abs(vals) if c0 is None else vals.real
        for i, part in zip(block, np.split(table, np.cumsum(pairs[start:stop])[:-1])):
            per_y = part.reshape(-1, n_e).max(axis=1)
            out[i] = per_y.max() if c0 is None else per_y.min()
        start = stop
    return out


def quantity_H(model: StateModel, R: float, x=None) -> float:
    """Grid supremum of |p(y, eps/R)| over the state ball (or box) and
    the unit frequency ball."""
    return float(_radius_grid(model, R, x=x)[0])


def quantity_h(model: StateModel, R: float, c0, x=None) -> float:
    """Grid inf over states of the sup over frequencies of
    Re p(y, eps/(4 kappa R)); requires the sector condition."""
    return float(_radius_grid(model, R, c0, x=x)[0])


@dataclass
class IndexReport:
    direction: str                      # "origin" or "infinity"
    x: np.ndarray | None
    R_grid: np.ndarray
    H_values: np.ndarray
    h_values: np.ndarray | None
    kappa: float | None
    c0: float | None
    beta0: float | None = None
    beta0_lower: float | None = None
    delta0_upper: float | None = None
    delta0: float | None = None
    beta_inf_x: float | None = None
    beta_inf_x_lower: float | None = None
    delta_inf_x_upper: float | None = None
    delta_inf_x: float | None = None
    H_slopes: np.ndarray | None = None
    h_slopes: np.ndarray | None = None
    tail_H_slope_range: tuple[float, float] | None = None
    tail_h_slope_range: tuple[float, float] | None = None
    indeterminate: bool = False
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        def opt(v):
            return None if v is None else float(v)
        return {
            "direction": self.direction,
            "x": None if self.x is None else [float(v) for v in self.x],
            "R_grid": [float(v) for v in self.R_grid],
            "H_values": [float(v) for v in self.H_values],
            "h_values": None if self.h_values is None else [float(v) for v in self.h_values],
            "kappa": opt(self.kappa),
            "c0": opt(self.c0),
            "beta0": opt(self.beta0),
            "beta0_lower": opt(self.beta0_lower),
            "delta0_upper": opt(self.delta0_upper),
            "delta0": opt(self.delta0),
            "beta_inf_x": opt(self.beta_inf_x),
            "beta_inf_x_lower": opt(self.beta_inf_x_lower),
            "delta_inf_x_upper": opt(self.delta_inf_x_upper),
            "delta_inf_x": opt(self.delta_inf_x),
            "H_slopes": None if self.H_slopes is None else [float(v) for v in self.H_slopes],
            "h_slopes": None if self.h_slopes is None else [float(v) for v in self.h_slopes],
            "indeterminate": self.indeterminate,
            "notes": self.notes,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(dump_json(self.to_json()))

    def write_slopes_csv(self, path) -> None:
        rows = []
        mid = np.sqrt(self.R_grid[:-1] * self.R_grid[1:])
        for i, r in enumerate(mid):
            row = [float(r), float(self.H_slopes[i])]
            row.append(float(self.h_slopes[i]) if self.h_slopes is not None else float("nan"))
            rows.append(row)
        write_csv(path, ["R_mid", "H_slope", "h_slope"], rows)


def _local_slopes(R: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Local decay orders -dlog(val)/dlog(R) between consecutive grid
    points; non-positive values yield NaN entries."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lv = np.where(vals > 0, np.log(vals), np.nan)
    return -(np.diff(lv) / np.diff(np.log(R)))


def estimate_indices(model: StateModel, R_min: float, R_max: float,
                     n_points: int = 16, direction: str = "origin",
                     x=None, c0=None) -> IndexReport:
    """Estimate the four indices in the requested direction from grid
    slopes of H (and of h when the sector condition holds).

    ``direction="origin"`` uses the global quantities as R grows;
    ``direction="infinity"`` uses the local quantities at ``x`` as R
    shrinks (x required).  ``c0`` may be a number or a sector
    ConditionEstimate; when omitted the h-based indices are skipped
    for models whose symbol is not real.
    """
    if direction not in ("origin", "infinity"):
        raise ValueError("direction must be 'origin' or 'infinity'")
    if n_points < 16:
        raise ValueError("need at least 16 grid points")
    if not (math.isfinite(R_max) and 0 < R_min < R_max):
        raise ValueError(f"need finite 0 < R_min < R_max, got R_min={R_min}, R_max={R_max}")
    if R_max / R_min < 1000 * (1 - 1e-9):
        raise ValueError("R range must span at least three decades")
    if direction == "infinity" and x is None:
        raise ValueError("indices at infinity are local: x is required")

    R = np.geomspace(R_min, R_max, n_points)
    notes: list[str] = []
    x_arr = None if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    grids = _state_grids(model, R, x_arr)
    H_vals = _radius_grid(model, R, x=x_arr, grids=grids)

    h_vals = None
    kap = None
    c0_val = None
    if c0 is not None or _symbol_known_real(model):
        try:
            c0_eff = c0 if c0 is not None else 0.0
            h_vals = _radius_grid(model, R, c0_eff, x=x_arr, grids=grids)
            c0_val = c0_eff.constant if isinstance(c0_eff, ConditionEstimate) else float(c0_eff)
            kap = kappa(c0_val)
        except SectorConditionError as err:
            notes.append(str(err))

    H_slopes = _local_slopes(R, H_vals)
    h_slopes = _local_slopes(R, h_vals) if h_vals is not None else None

    # tail window: last decade for R -> infinity, first for R -> 0
    if direction == "origin":
        tail = R[:-1] >= R_max / 10.0
    else:
        tail = R[1:] <= R_min * 10.0
    indeterminate = False

    def tail_range(slopes):
        nonlocal indeterminate
        s = slopes[tail]
        s = s[np.isfinite(s)]
        if s.size == 0:
            indeterminate = True
            return (math.nan, math.nan)
        return (float(s.min()), float(s.max()))

    rep = IndexReport(direction=direction, x=x_arr, R_grid=R, H_values=H_vals,
                      h_values=h_vals, kappa=kap, c0=c0_val,
                      H_slopes=H_slopes, h_slopes=h_slopes, notes=notes)

    lo, hi = tail_range(H_slopes)
    rep.tail_H_slope_range = (lo, hi)
    if direction == "origin":
        rep.beta0, rep.beta0_lower = lo, hi
    else:
        rep.beta_inf_x, rep.beta_inf_x_lower = hi, lo
    if h_slopes is not None:
        lo, hi = tail_range(h_slopes)
        rep.tail_h_slope_range = (lo, hi)
        if direction == "origin":
            rep.delta0_upper, rep.delta0 = lo, hi
        else:
            rep.delta_inf_x_upper, rep.delta_inf_x = hi, lo

    # H is nonincreasing in R for well-behaved symbols; growth over the
    # tail window flags the slope proxies as unreliable
    window = R >= R_max / 10.0 if direction == "origin" else R <= R_min * 10.0
    vals_tail = H_vals[window]
    if vals_tail.size >= 2 and np.any(
            np.diff(vals_tail) > 1e-9 * np.maximum(np.abs(vals_tail[:-1]), 1e-300)):
        indeterminate = True
        notes.append("H not monotone over the tail window")
    rep.indeterminate = indeterminate
    return rep


def _symbol_known_real(model: StateModel) -> bool:
    """Cheap structural test: zero drift and a symmetric measure force a
    real symbol, making c0 = 0 valid without a grid estimate.  A
    density that fails to evaluate at a symmetry probe proves nothing."""
    try:
        if not model.drift.is_constant:
            return False
        if np.any(model.drift.constant_value() != 0.0):
            return False
        return model.measures.is_symmetric()
    except ExpressionDomainError:
        return False


# ---------------------------------------------------------------------------
# maximal inequality and scaling diagnostics

@dataclass
class MaximalInequalityReport:
    x: np.ndarray
    t_grid: tuple[float, ...]
    R_grid: tuple[float, ...]
    n_paths: int
    exceed_prob: np.ndarray          # (T, Rn) P(max >= R)
    ratio_upper: np.ndarray          # P / (t H(x, R))
    ratio_lower: np.ndarray | None   # P(max < R) * t * h(x, R)
    sup_ratio_upper: float
    sup_ratio_lower: float | None
    half_sup_ratio_upper: float
    half_sup_ratio_lower: float | None
    stability: float
    stable: bool
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "t_grid": list(self.t_grid),
            "R_grid": list(self.R_grid),
            "n_paths": self.n_paths,
            "exceed_prob": [[float(v) for v in row] for row in self.exceed_prob],
            "ratio_upper": [[float(v) for v in row] for row in self.ratio_upper],
            "ratio_lower": None if self.ratio_lower is None else
                [[float(v) for v in row] for row in self.ratio_lower],
            "sup_ratio_upper": self.sup_ratio_upper,
            "sup_ratio_lower": self.sup_ratio_lower,
            "stability": self.stability,
            "stable": self.stable,
            "notes": self.notes,
        }


def verify_maximal_inequality(sampler: PathSampler, model: StateModel, x,
                              t_grid, R_grid, n_paths: int,
                              c0=None) -> MaximalInequalityReport:
    """Estimate P(sup_{s<=t} |X_s - x| >= R) over the grids and check
    that the ratios against t*H(x,R) (and 1/(t h(x,R)) when the sector
    condition holds) stay bounded and stable under halving the sample.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths = {n_paths}: the stability check halves the sample, "
                         "so at least 2 paths are needed")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    R_grid = tuple(float(r) for r in R_grid)
    t_actual, maxima = sampler.running_max(x, t_grid, n_paths)   # (n, T)
    t_grid = tuple(float(t) for t in t_actual)
    half = maxima[: n_paths // 2]

    grids = _state_grids(model, R_grid, x)
    H = _radius_grid(model, R_grid, x=x, grids=grids)
    h = None
    notes = []
    try:
        c0_eff = c0 if c0 is not None else (0.0 if _symbol_known_real(model) else None)
        if c0_eff is None:
            raise SectorConditionError("no sector estimate supplied")
        h = _radius_grid(model, R_grid, c0_eff, x=x, grids=grids)
    except SectorConditionError as err:
        notes.append(f"lower ratio skipped: {err}")

    def ratios(block):
        p_ge = np.stack([(block >= r).mean(axis=0) for r in R_grid], axis=1)  # (T, Rn)
        denom = np.asarray(t_grid)[:, None] * H[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(denom > 0, p_ge / np.where(denom > 0, denom, 1.0),
                          np.where(p_ge > 0, np.inf, 0.0))
        low = None
        if h is not None:
            low = (1.0 - p_ge) * np.asarray(t_grid)[:, None] * h[None, :]
        return p_ge, up, low

    p_ge, up, low = ratios(maxima)
    _, up_h, low_h = ratios(half)
    sup_up, sup_up_h = float(up.max()), float(up_h.max())
    sup_low = float(low.max()) if low is not None else None
    sup_low_h = float(low_h.max()) if low_h is not None else None
    parts = [abs(sup_up - sup_up_h) / sup_up if sup_up > 0 else 0.0]
    if sup_low is not None and sup_low > 0:
        parts.append(abs(sup_low - sup_low_h) / sup_low)
    stability = max(parts)
    return MaximalInequalityReport(
        x=x, t_grid=t_grid, R_grid=R_grid, n_paths=n_paths,
        exceed_prob=p_ge, ratio_upper=up, ratio_lower=low,
        sup_ratio_upper=sup_up, sup_ratio_lower=sup_low,
        half_sup_ratio_upper=sup_up_h, half_sup_ratio_lower=sup_low_h,
        stability=stability,
        stable=bool(math.isfinite(sup_up) and stability < 0.5),
        notes=notes,
    )


@dataclass
class ScalingReport:
    direction: str
    x: np.ndarray
    t_grid: tuple[float, ...]
    classifications: dict[float, str]
    slopes: dict[float, float]
    median_stats: dict[float, list[float]]

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "x": [float(v) for v in self.x],
            "t_grid": list(self.t_grid),
            "classifications": {str(k): v for k, v in self.classifications.items()},
            "slopes": {str(k): float(v) for k, v in self.slopes.items()},
            "median_stats": {str(k): [float(v) for v in vals]
                             for k, vals in self.median_stats.items()},
        }


SLOPE_THRESHOLD = 0.2


def scaling_diagnostic(sampler: PathSampler, x, lambdas, t_grid,
                       direction: str, n_paths: int = 1000) -> ScalingReport:
    """Trend classification of t^(-1/lambda) * sup_{s<=t}|X_s - x|.

    The median over paths of the statistic is fit log-log against t; the
    slope sign (threshold 0.2) decides between "->0", "->inf" and
    "indeterminate" toward the direction's limit.
    """
    if direction not in ("zero", "infinity"):
        raise ValueError("direction must be 'zero' (t->0) or 'infinity' (t->inf)")
    t_grid = tuple(sorted(float(t) for t in t_grid))
    if t_grid[-1] / t_grid[0] < 100 * (1 - 1e-9):
        raise ValueError("t grid must span at least two decades")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ts, maxima = sampler.running_max(x, t_grid, n_paths)   # (n, T)
    t_grid = tuple(float(t) for t in ts)
    med = np.median(maxima, axis=0)
    classifications: dict[float, str] = {}
    slopes: dict[float, float] = {}
    stats: dict[float, list[float]] = {}
    for lam in lambdas:
        lam = float(lam)
        stat = ts ** (-1.0 / lam) * med
        stats[lam] = list(stat)
        if np.any(~np.isfinite(stat)) or np.any(stat <= 0):
            classifications[lam] = "indeterminate"
            slopes[lam] = math.nan
            continue
        slope = float(np.polyfit(np.log(ts), np.log(stat), 1)[0])
        slopes[lam] = slope
        if direction == "infinity":
            cls = "->inf" if slope > SLOPE_THRESHOLD else (
                "->0" if slope < -SLOPE_THRESHOLD else "indeterminate")
        else:
            cls = "->0" if slope > SLOPE_THRESHOLD else (
                "->inf" if slope < -SLOPE_THRESHOLD else "indeterminate")
        classifications[lam] = cls
    return ScalingReport(direction=direction, x=x, t_grid=t_grid,
                         classifications=classifications, slopes=slopes,
                         median_stats=stats)
