"""Constant-expectation checks for the compensator structure of
simulated ensembles.

Local-martingale claims are tested as constant-expectation claims at
fixed grid times on bounded fixtures.  Each check is a per-path
accumulator: an observer with the simulator's recorder protocol
``record(j, x, status)``, fed the ensemble's grid columns one at a time.
It keeps running trapezoid sums, the last finite state, the kill flag
and its values at the T requested grid times, so a check needs
O(n * (d + T)) memory beyond the ensemble, never a (paths x steps)
copy.  Observers read ``x`` only where ``status`` is finite: the kernel
holds the last finite state there, stored ensemble columns hold NaN.
Conventions shared by the checks:

* time integrals are trapezoidal along each path, summed step by step;
* a path killed during step ``kappa`` contributes a half-step
  ``g(X_{kappa-1}) dt / 2`` to compensator-type integrals (the kill
  lands mid-step on average, making the constant-rate case exact to
  O(dt^2));
* drift reconstruction integrates only over steps whose both endpoints
  are finite, matching the stored trajectory which freezes at the last
  finite sample;
* exploded and invalid paths are excluded, with counts reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .extended import Path, STATUS_DELTA, STATUS_FINITE, STATUS_INFINITY
from .serialize import dump_json
from .simulate import Ensemble
from .triplet import LevyTriplet, StateModel, eval_exponent

__all__ = [
    "TruncationDecomposition",
    "CheckReport",
    "truncate_jumps",
    "killing_compensator_check",
    "exponential_martingale_check",
    "canonical_representation_residual",
]


@dataclass(frozen=True)
class TruncationDecomposition:
    """Split of a trajectory into its big-jump sum and the remainder.

    ``truncated + big_jump_part == values`` on the finite segment; the
    split routes whole grid increments larger than the truncation
    radius, so diffusion and jump contributions within one step are
    conflated at grid resolution.
    """

    times: np.ndarray
    truncated: np.ndarray        # X(h), includes the start value
    big_jump_part: np.ndarray    # running sum of big increments
    h_radius: float


def truncate_jumps(path: Path, h_radius: float) -> TruncationDecomposition:
    """Route grid increments with norm above ``h_radius`` into the
    big-jump series; the remainder keeps the start value."""
    finite = np.flatnonzero(path.status != STATUS_FINITE)
    end = int(finite[0]) if finite.size else len(path)
    vals = path.values[:end]
    times = path.times[:end]
    inc = np.diff(vals, axis=0)
    big = np.linalg.norm(inc, axis=1) > h_radius
    big_series = np.zeros_like(vals)
    big_series[1:] = np.cumsum(inc * big[:, None], axis=0)
    return TruncationDecomposition(
        times=times, truncated=vals - big_series, big_jump_part=big_series,
        h_radius=float(h_radius),
    )


@dataclass
class CheckReport:
    name: str
    t_grid: tuple[float, ...]
    rows: list[dict]
    passed: bool
    excluded_paths: int = 0
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "t_grid": list(self.t_grid),
            "rows": self.rows,
            "passed": self.passed,
            "excluded_paths": self.excluded_paths,
            "notes": self.notes,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(dump_json(self.to_json()))


def _valid_mask(ens: Ensemble) -> np.ndarray:
    """Paths neither exploded (explosion is absorbing, so the last
    status tells) nor invalid."""
    return (ens.status[:, -1] != STATUS_INFINITY) & ~ens.invalid


def _kill_rate_fn(model: StateModel):
    """Killing rate as a function of the state; for coefficient-driven
    equations the rate sits on the driver."""
    if model.sde is not None:
        a = model.sde.driver.killing_rate
        return lambda xs: np.full(xs.shape[0], a)
    return model.kill.lenient


def _add_step(total, inc, j: int):
    """Running sum over steps 1..j formed as ``np.cumsum`` forms it: the
    first step is taken as is, not added to 0.0, keeping a zero's sign."""
    if j == 1:
        return inc
    total += inc
    return total


class _RunningTrapezoid:
    """Per-path running trapezoid sum of ``field(X_s) ds``.  The field
    reads 0 on cemetery states, which gives the half step at a kill;
    with ``pairwise`` only steps whose both endpoints are finite add."""

    def __init__(self, field, dt: float, vec_dim: int = 0, dtype=float,
                 pairwise: bool = False):
        self.field, self.dt, self.dtype, self.pairwise = field, dt, dtype, pairwise
        self.tail = (vec_dim,) if vec_dim else ()
        self.value = self.prev = self.prev_finite = None

    def record(self, j, x, status):
        finite = status == STATUS_FINITE
        g = np.zeros(finite.shape + self.tail, dtype=self.dtype)
        if finite.any():
            g[finite] = self.field(x[finite])
        if j == 0:
            self.value = np.zeros_like(g)
        else:
            inc = 0.5 * (g + self.prev) * self.dt
            if self.pairwise:
                inc *= (finite & self.prev_finite)[:, None]
            self.value = _add_step(self.value, inc, j)
        self.prev, self.prev_finite = g, finite


class _KillingObserver:
    """Kill indicator and accumulated hazard integral(a(X_s) ds)."""

    def __init__(self, model: StateModel, dt: float, columns):
        self.hazard = _RunningTrapezoid(_kill_rate_fn(model), dt)
        self.columns = set(columns)
        self.kept = {}

    def record(self, j, x, status):
        self.hazard.record(j, x, status)
        if j in self.columns:
            self.kept[j] = ((status == STATUS_DELTA).astype(float),
                            self.hazard.value.copy())


class _ExponentialObserver:
    """Compensated exponential V_t = e^{i<u, H_t>} - integral of
    e^{i<u, X_s>} (e^{i<u, 1>} a(X_s) - p(X_s, u)) ds, with
    H_t = X_t^{stopped} + 1 * [t >= kill time]."""

    def __init__(self, model: StateModel, u: np.ndarray, dt: float, columns):
        self.u = u
        self.phase_one = np.exp(1j * float(u.sum()))
        kill_rate = _kill_rate_fn(model)

        # complex products are not bitwise commutative: the operand
        # order below is the one the reported numbers were fixed with
        def integrand(xs):
            p = model.symbol_many(xs, np.tile(u, (xs.shape[0], 1)))
            return (self.phase_one * kill_rate(xs) - p) * np.exp(1j * (xs @ u))

        self.compensator = _RunningTrapezoid(integrand, dt, dtype=complex)
        self.columns = set(columns)
        self.kept = {}
        self.stopped = None

    def record(self, j, x, status):
        self.compensator.record(j, x, status)
        finite = status == STATUS_FINITE
        self.stopped = x.copy() if j == 0 else np.where(finite[:, None], x, self.stopped)
        if j in self.columns:
            h = (np.where(status == STATUS_DELTA, self.phase_one, 1.0)
                 * np.exp(1j * (self.stopped @ self.u)))
            self.kept[j] = h - self.compensator.value


class _CanonicalObserver:
    """Residual X_t^{stopped} - x0 - B_t - (sum of increments above
    h_radius), B the drift integral over finite steps."""

    def __init__(self, model: StateModel, x0: np.ndarray, h_radius: float,
                 dt: float, columns):
        self.drift = _RunningTrapezoid(model.drift, dt, vec_dim=model.dim, pairwise=True)
        self.x0, self.h_radius = x0, h_radius
        self.columns = set(columns)
        self.kept = {}
        self.stopped = self.big_sum = None

    def record(self, j, x, status):
        self.drift.record(j, x, status)
        if j == 0:
            self.stopped = x.copy()
            self.big_sum = np.zeros_like(self.stopped)
        else:
            stopped = np.where((status == STATUS_FINITE)[:, None], x, self.stopped)
            inc = stopped - self.stopped
            big = inc * (np.linalg.norm(inc, axis=1) > self.h_radius)[:, None]
            self.big_sum = _add_step(self.big_sum, big, j)
            self.stopped = stopped
        if j in self.columns:
            self.kept[j] = self.stopped - self.x0[None, :] - self.drift.value - self.big_sum


def _feed(ens: Ensemble, valid: np.ndarray, observer):
    """Pass the valid paths of an ensemble through an observer, one grid
    column at a time."""
    rows = np.flatnonzero(valid)
    for j in range(len(ens.times)):
        observer.record(j, ens.values[rows, j], ens.status[rows, j])
    return observer.kept


def killing_compensator_check(ens: Ensemble, model: StateModel, t_grid) -> CheckReport:
    """Compare the empirical kill frequency P(zeta <= t) with the mean
    of the accumulated hazard integral(a(X_s) ds, s <= t and pre-kill);
    their difference is a mean-zero martingale evaluation."""
    t_grid = tuple(float(t) for t in t_grid)
    valid = _valid_mask(ens)
    n = int(valid.sum())
    if n == 0:
        raise ValueError("no valid paths")
    columns = [ens.time_index(t) for t in t_grid]
    kept = _feed(ens, valid, _KillingObserver(model, ens.spec.dt, columns))
    rows = []
    passed = True
    for t, j in zip(t_grid, columns):
        indicator, compensator = kept[j]
        diff = indicator - compensator
        mean = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        ok = abs(mean) <= 3.0 * se + 1e-12
        passed &= ok
        rows.append({
            "t": t,
            "kill_prob": float(indicator.mean()),
            "mean_compensator": float(compensator.mean()),
            "difference": mean,
            "stderr": se,
            "pass": ok,
        })
    return CheckReport(
        name="killing_compensator", t_grid=t_grid, rows=rows, passed=passed,
        excluded_paths=int((~valid).sum()),
    )


def exponential_martingale_check(ens: Ensemble, model, u, t_grid) -> CheckReport:
    """Constant-expectation test of the exponential compensation
    identity.

    Constant models: mean e_u(X_t - x0) * exp(t phi(u)) must equal 1.
    State-dependent models: the compensated process

        V_t = e^{i<u, H_t>} - integral e^{i<u, X_s>} dL(u)_s,
        L(u)_t = integral_0^{t ^ kill} (e^{i<u,1>} a(X_s) - p(X_s, u)) ds,
        H_t = X_t^{stopped} + 1 * [t >= kill time],

    must keep the constant mean V_0 = e^{i<u, x0>}.
    """
    if isinstance(model, LevyTriplet):
        model = StateModel.from_triplet(model)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    t_grid = tuple(float(t) for t in t_grid)
    valid = _valid_mask(ens)
    n = int(valid.sum())
    rows = []
    passed = True

    if model.is_constant:
        triplet = model.constant_triplet()
        phi = eval_exponent(triplet, u)
        for t in t_grid:
            e_vals = ens.e_xi_at(t, u)[valid]
            amp = np.exp(t * phi)
            stat = e_vals.mean() * amp
            se = math.sqrt((e_vals.real.var(ddof=1) + e_vals.imag.var(ddof=1)) / n) * abs(amp)
            ok = abs(stat - 1.0) <= 3.0 * se + 1e-12
            passed &= ok
            rows.append({"t": t, "statistic": complex(stat), "stderr": se, "pass": ok})
        name = "exponential_martingale_constant"
    else:
        columns = [ens.time_index(t) for t in t_grid]
        kept = _feed(ens, valid, _ExponentialObserver(model, u, ens.spec.dt, columns))
        v0 = complex(np.exp(1j * float(ens.spec.x0 @ u)))
        for t, j in zip(t_grid, columns):
            col = kept[j]
            mean = complex(col.mean())
            se = math.sqrt((col.real.var(ddof=1) + col.imag.var(ddof=1)) / n)
            ok = abs(mean - v0) <= 3.0 * se + 1e-12
            passed &= ok
            rows.append({"t": t, "statistic": mean, "reference": v0,
                         "stderr": se, "pass": ok})
        name = "exponential_martingale_autonomous"

    return CheckReport(name=name, t_grid=t_grid, rows=rows, passed=passed,
                       excluded_paths=int((~valid).sum()))


def canonical_representation_residual(ens: Ensemble, model: StateModel,
                                      h_radius: float | None = None) -> CheckReport:
    """Reconstruct the drift integral and the big-jump sum from the
    sampled paths and verify that the leftover (the martingale part of
    the representation) has mean zero at each grid time."""
    if model.sde is not None:
        raise ValueError("canonical representation check expects an autonomous "
                         "or constant-coefficient model")
    if h_radius is None:
        h_radius = model.cutoff.support_radius
    valid = _valid_mask(ens)
    n = int(valid.sum())
    t_grid = tuple(float(t) for t in ens.times[1:][:: max(1, (len(ens.times) - 1) // 8)])
    columns = [ens.time_index(t) for t in t_grid]
    kept = _feed(ens, valid, _CanonicalObserver(model, ens.spec.x0, h_radius,
                                                ens.spec.dt, columns))
    rows = []
    passed = True
    for t, j in zip(t_grid, columns):
        col = kept[j]
        mean = col.mean(axis=0)
        se = col.std(axis=0, ddof=1) / math.sqrt(n)
        ok = bool(np.all(np.abs(mean) <= 3.0 * se + 1e-12))
        passed &= ok
        rows.append({
            "t": t,
            "mean_residual": [float(v) for v in mean],
            "stderr": [float(v) for v in se],
            "pass": ok,
        })
    return CheckReport(name="canonical_representation_residual", t_grid=t_grid,
                       rows=rows, passed=passed, excluded_paths=int((~valid).sum()),
                       notes=[f"h_radius={h_radius}"])
