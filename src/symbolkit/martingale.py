"""Constant-expectation checks for the compensator structure of
simulated paths.

Local-martingale claims are tested as constant-expectation claims at
fixed grid times on bounded fixtures.  Each check (a ``Check``) is a
per-path accumulator, an observer with the simulator's protocol
``record(j, x, status, values)`` and ``finish(valid)``, plus the report
built from what ``finish`` returns.  ``run_checks`` streams: the
observers of several checks run inside one simulation
(``simulate.simulate``), so no (paths x steps) array is ever formed.
The functions that take an ``Ensemble`` replay its stored grid columns
through the same observers, in the chunks of ``simulate``, so both give
the same bits.  An observer keeps running trapezoid sums and, at the T
requested grid times, its values and the states they were taken at,
for the n paths of its chunk: O(n * (d + T)) memory per worker.  When
the chunk ends, ``finish(valid)`` reduces each grid time's values on
the chunk's valid paths (not exploded, not invalid) to
``simulate._Moments`` and drops them; a value that is not finite on a
valid path fails the check closed there, naming the grid time and the
state.  The report merges the chunks in chunk order
(``simulate._merged``) into each mean and standard error it states.
Each step works in place, in buffers of the observer's own chunk: the
sums, the increment and its norm, the symbol's state-dependent terms
and the phase.  The frequency u of the exponential check is fixed for
the run, so its compensator evaluates ``StateModel.symbol_at(u, n)``,
whose state-free terms are formed once per chunk.  The coefficients are
read from the kernel's ``values`` at x, never evaluated again; ``x``,
``status`` and ``values`` are the kernel's buffers, so an observer
copies what it keeps.  Every <u, x> is summed row by row
(``triplet._row_dot``), so a path's phase has the same bits in any
chunk.  No observer is part of a reference cycle, which would keep its
chunk's buffers alive until the next full garbage collection.

``x`` holds every path's last finite state, as the kernel holds it; a
replay rebuilds that from the stored columns, which hold NaN on
cemetery states, and evaluates the coefficients there.  Observers see
every path, including one that the kernel flags invalid only after the
observer has seen the state where its coefficients fail; there the
coefficient values are NaN, and so are the observer's (``symbol_at``
keeps NaN rows).
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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .extended import Path, STATUS_DELTA, STATUS_FINITE
from .serialize import dump_json
from .simulate import Ensemble, SimSpec, _Moments, _chunks, _merged, _norm, simulate
from .triplet import CoefficientValues, LevyTriplet, StateModel, _row_dot, eval_exponent

__all__ = [
    "TruncationDecomposition",
    "CheckReport",
    "Check",
    "truncate_jumps",
    "killing_compensator",
    "exponential_martingale",
    "canonical_representation",
    "run_checks",
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


class _RunningTrapezoid:
    """Per-path running trapezoid sum of ``field(X_s) ds``;
    ``field(x, values, out)`` writes the field at the states x, whose
    coefficient values are ``values``, into out.  The field reads 0 on
    cemetery states, which gives the half step at a kill; with
    ``pairwise`` only steps whose both endpoints are finite add.  The sum
    is formed in place, in buffers made at the first step: the field's
    values alternate between two of them, and the older one takes the
    step's increment before the field overwrites it."""

    def __init__(self, field, dt: float, vec_dim: int = 0, dtype=float,
                 pairwise: bool = False):
        self.field, self.dt, self.dtype, self.pairwise = field, dt, dtype, pairwise
        self.tail = (vec_dim,) if vec_dim else ()
        self.value = self.g = self.prev = self.finite = self.prev_finite = None

    def record(self, j, x, status, values):
        # every row of x holds a finite state, so the field is evaluated
        # on all of them and then zeroed on the cemetery rows
        if j == 0:
            n = x.shape[0]
            shape = (n, *self.tail)
            self.value = np.zeros(shape, dtype=self.dtype)
            self.g, self.prev = (np.empty(shape, dtype=self.dtype) for _ in range(2))
            self.finite, self.prev_finite, self.dead = (np.empty(n, dtype=bool)
                                                        for _ in range(3))
        g, inc, finite = self.g, self.prev, self.finite
        np.equal(status, STATUS_FINITE, out=finite)
        self.field(x, values, g)
        if not finite.all():
            dead = np.logical_not(finite, out=self.dead)
            np.copyto(g, 0.0, where=dead[:, None] if self.tail else dead)
        if j > 0:
            # 0.5 * (g + prev) * dt, in place of prev, which the next
            # step's field overwrites
            np.add(g, inc, out=inc)
            inc *= 0.5
            inc *= self.dt
            if self.pairwise:
                inc *= np.logical_and(finite, self.prev_finite, out=self.dead)[:, None]
            # the first step is taken as is, not added to 0.0, keeping a
            # zero's sign, as np.cumsum forms the sum
            if j == 1:
                np.copyto(self.value, inc)
            else:
                self.value += inc
        self.g, self.prev = inc, g
        self.finite, self.prev_finite = self.prev_finite, finite


class _Columns:
    """Per-path ``(states, *values)`` kept at the columns of the report's
    (t, column) pairs ``grid``, until ``finish(valid)`` reduces each
    pair's values on the valid paths to ``_Moments`` of check ``name``."""

    def __init__(self, name: str, grid):
        self.name, self.grid = name, grid
        self.columns = {j for _, j in grid}
        self.kept = {}

    def finish(self, valid):
        reduced = []
        for t, j in self.grid:
            states, *values = (a[valid] for a in self.kept[j])
            for v in values:
                bad = ~np.isfinite(v).all(axis=tuple(range(1, v.ndim)))
                if bad.any():
                    raise ValueError(f"{self.name}: value not finite at t = {t:g} on a valid "
                                     f"path, at state x = {states[np.argmax(bad)].tolist()}")
            reduced.append([_Moments.of(v) for v in values])
        self.kept = None
        return reduced


class _KillingObserver(_Columns):
    """Kill indicator, hazard integral(a(X_s) ds) and their difference."""

    def __init__(self, model: StateModel, dt: float, name, grid):
        super().__init__(name, grid)
        self.hazard = _RunningTrapezoid(
            lambda x, values, out: np.copyto(out, values[model.kill]), dt)

    def record(self, j, x, status, values):
        self.hazard.record(j, x, status, values)
        if j in self.columns:
            indicator = (status == STATUS_DELTA).astype(float)
            self.kept[j] = (x.copy(), indicator, self.hazard.value.copy(),
                            indicator - self.hazard.value)


class _PhaseObserver(_Columns):
    """e^{i<u, X_t - x0>} on finite states, 0 on cemetery states."""

    def __init__(self, x0: np.ndarray, u: np.ndarray, name, grid):
        super().__init__(name, grid)
        self.x0, self.u = x0, u

    def record(self, j, x, status, values):
        if j in self.columns:
            phase = np.exp(1j * _row_dot(x - self.x0, self.u))
            phase[status != STATUS_FINITE] = 0.0
            self.kept[j] = (x.copy(), phase)


class _ExponentialObserver(_Columns):
    """Compensated exponential V_t = e^{i<u, H_t>} - integral of
    e^{i<u, X_s>} (e^{i<u, 1>} a(X_s) - p(X_s, u)) ds, with
    H_t = X_t^{stopped} + 1 * [t >= kill time]."""

    def __init__(self, model: StateModel, u: np.ndarray, dt: float, name, grid, n: int):
        super().__init__(name, grid)
        self.u = u
        # one per chunk: chunks may run on different threads
        symbol = model.symbol_at(u, n)
        phase_one = self.phase_one = np.exp(1j * float(u.sum()))
        killing = model.kill
        # e^{i<u, 1>} a, formed once when the rate is constant
        constant_kill = (np.multiply(phase_one, np.full(n, killing.value))
                         if killing.is_constant else None)
        p, bracket, phase = (np.empty(n, dtype=complex) for _ in range(3))
        angle = np.empty(n)

        # complex products are not bitwise commutative: the operand
        # order below is the one the reported numbers were fixed with.
        # The last product writes into a buffer that neither operand
        # uses: an in-place complex product of one element is rounded
        # otherwise than the same element in a longer array.
        # The closure holds no reference to the observer: a cycle would
        # keep the chunk's buffers until the next full collection
        def integrand(xs, values, out):
            if constant_kill is None:
                np.multiply(phase_one, values[killing], out=bracket)
                np.subtract(bracket, symbol(xs, values, p), out=bracket)
            else:
                np.subtract(constant_kill, symbol(xs, values, p), out=bracket)
            np.multiply(1j, _row_dot(xs, u, out=angle), out=phase)
            np.multiply(bracket, np.exp(phase, out=phase), out=out)

        self.compensator = _RunningTrapezoid(integrand, dt, dtype=complex)

    def record(self, j, x, status, values):
        self.compensator.record(j, x, status, values)
        if j in self.columns:
            h = (np.where(status == STATUS_DELTA, self.phase_one, 1.0)
                 * np.exp(1j * _row_dot(x, self.u)))
            self.kept[j] = (x.copy(), h - self.compensator.value)


class _CanonicalObserver(_Columns):
    """Residual X_t^{stopped} - x0 - B_t - (sum of increments above
    h_radius), B the drift integral over finite steps."""

    def __init__(self, model: StateModel, x0: np.ndarray, h_radius: float,
                 dt: float, name, grid, n: int):
        super().__init__(name, grid)
        drift = model.drift
        self.drift = _RunningTrapezoid(lambda x, values, out: np.copyto(out, values[drift]),
                                       dt, vec_dim=model.dim, pairwise=True)
        self.x0, self.h_radius = x0, h_radius
        self.prev, self.big_sum, self.inc, self.sq = (np.empty((n, model.dim))
                                                      for _ in range(4))
        self.norm, self.big = np.empty(n), np.empty(n, dtype=bool)

    def record(self, j, x, status, values):
        self.drift.record(j, x, status, values)
        if j == 0:
            self.big_sum.fill(0.0)
        else:
            # the increments above h_radius; the first is taken as is
            inc = np.subtract(x, self.prev, out=self.inc)
            big = np.greater(_norm(inc, out=self.norm, sq=self.sq), self.h_radius, out=self.big)
            np.multiply(inc, big[:, None], out=inc)
            if j == 1:
                np.copyto(self.big_sum, inc)
            else:
                self.big_sum += inc
        np.copyto(self.prev, x)
        if j in self.columns:
            self.kept[j] = (x.copy(), x - self.x0[None, :] - self.drift.value - self.big_sum)


def _feed(ens: Ensemble, model: StateModel, observer) -> list:
    """Replay an ensemble's grid columns through an observer per chunk of
    ``simulate``, each path held at its last finite state as the kernel
    holds it, with the coefficient values there; the ``finish`` results."""
    valid, done = ens.valid, []
    for paths in _chunks(ens.n_paths):
        obs = observer(paths)
        values = CoefficientValues(model.coefficient_blocks(), paths.stop - paths.start)
        x = ens.values[paths, 0]
        for j in range(len(ens.times)):
            status = ens.status[paths, j]
            x = np.where((status == STATUS_FINITE)[:, None], ens.values[paths, j], x)
            obs.record(j, x, status, values.evaluate(x))
        done.append(obs.finish(valid[paths]))
    return done


# ---------------------------------------------------------------------------
# checks: an observer factory and a report builder

@dataclass(frozen=True)
class Check:
    """One check of ``model``, set up before any path is simulated:
    ``observer(paths)`` builds the accumulator for the chunk of the paths
    in the slice ``paths``, and ``report(chunks, valid)`` the report from
    the accumulators' ``finish`` results and the valid-path mask."""

    model: StateModel
    observer: Callable[[slice], object]
    report: Callable[[list, np.ndarray], CheckReport]

    def replay(self, ens: Ensemble) -> CheckReport:
        """The report on a stored ensemble."""
        return self.report(_feed(ens, self.model, self.observer), ens.valid)


def run_checks(checks: dict, model: StateModel, spec: SimSpec) -> dict:
    """Run every check inside one simulation of ``model`` under ``spec``
    (``simulate.simulate``, whose killing follows the model's rate);
    returns the reports by the checks' keys."""
    sim = simulate(model, spec, {name: c.observer for name, c in checks.items()})
    valid = sim.valid
    return {name: c.report(sim.observed[name], valid) for name, c in checks.items()}


def _grid(name: str, spec: SimSpec, t_grid) -> tuple[tuple[float, ...], list]:
    """The grid times and the report's (t, grid index) pairs."""
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError(f"{name}: the time grid is empty")
    # at t = 0 every path sits at x0: a row there has stderr 0 and checks nothing
    if not all(t > 0 for t in t_grid):
        raise ValueError(f"{name}: grid times must be positive, got {list(t_grid)}")
    return t_grid, [(t, spec.time_index(t)) for t in t_grid]


def _check(name: str, model: StateModel, t_grid, observer, row, notes=()) -> Check:
    """A check whose report has one row per grid time, ``row(t, *stats)``
    of the (mean, stderr) of each value kept there, merged over the
    chunks' valid paths.  Fewer than 2 valid paths fail closed."""

    def report(chunks, valid):
        n = int(valid.sum())
        if n < 2:
            raise ValueError(f"{name}: {n} valid paths of {valid.size}; "
                             "a standard error needs at least 2")
        rows = []
        for k, t in enumerate(t_grid):
            # each value's moments at t, one per chunk
            rows.append(row(t, *(_merged(m) for m in zip(*(c[k] for c in chunks)))))
        return CheckReport(name=name, t_grid=t_grid, rows=rows,
                           passed=all(r["pass"] for r in rows),
                           excluded_paths=int((~valid).sum()), notes=list(notes))

    return Check(model, observer, report)


def killing_compensator(model: StateModel, spec: SimSpec, t_grid) -> Check:
    """Compare the empirical kill frequency P(zeta <= t) with the mean
    of the accumulated hazard integral(a(X_s) ds, s <= t and pre-kill);
    their difference is a mean-zero martingale evaluation."""
    name = "killing_compensator"
    t_grid, grid = _grid(name, spec, t_grid)

    def row(t, indicator, compensator, diff):
        mean, se = float(diff[0]), float(diff[1])
        return {
            "t": t,
            "kill_prob": float(indicator[0]),
            "mean_compensator": float(compensator[0]),
            "difference": mean,
            "stderr": se,
            "pass": abs(mean) <= 3.0 * se + 1e-12,
        }

    return _check(name, model, t_grid,
                  lambda paths: _KillingObserver(model, spec.dt, name, grid), row)


def exponential_martingale(model, spec: SimSpec, u, t_grid) -> Check:
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
    if u.shape != (model.dim,) or not np.all(np.isfinite(u)):
        raise ValueError(f"frequency u must be {model.dim} finite number(s), "
                         f"got {u.tolist()}")

    if model.is_constant:
        name = "exponential_martingale_constant"
        phi = eval_exponent(model.constant_triplet(), u)

        def observer(paths):
            return _PhaseObserver(spec.x0, u, name, grid)

        def row(t, e_vals):
            amp = np.exp(t * phi)
            stat = e_vals[0] * amp
            se = e_vals[1] * abs(amp)
            ok = abs(stat - 1.0) <= 3.0 * se + 1e-12
            return {"t": t, "statistic": complex(stat), "stderr": se, "pass": ok}
    else:
        name = "exponential_martingale_autonomous"
        v0 = complex(np.exp(1j * float(spec.x0 @ u)))

        def observer(paths):
            return _ExponentialObserver(model, u, spec.dt, name, grid,
                                        paths.stop - paths.start)

        def row(t, col):
            mean, se = complex(col[0]), col[1]
            ok = abs(mean - v0) <= 3.0 * se + 1e-12
            return {"t": t, "statistic": mean, "reference": v0, "stderr": se, "pass": ok}

    t_grid, grid = _grid(name, spec, t_grid)
    return _check(name, model, t_grid, observer, row)


def canonical_representation(model: StateModel, spec: SimSpec,
                             h_radius: float | None = None) -> Check:
    """Reconstruct the drift integral and the big-jump sum along each
    path and verify that the leftover (the martingale part of the
    representation) has mean zero at every s-th grid time from the first
    step on, s = max(1, n_steps // 8): each of the n_steps grid times
    when n_steps < 16, and 8 to 12 of them otherwise."""
    if model.sde is not None:
        raise ValueError("canonical representation check expects an autonomous "
                         "or constant-coefficient model")
    if h_radius is None:
        h_radius = model.cutoff.support_radius
    name = "canonical_representation_residual"
    times = spec.times
    t_grid, grid = _grid(name, spec, times[1:][:: max(1, (len(times) - 1) // 8)])

    def row(t, col):
        mean, se = col
        return {
            "t": t,
            "mean_residual": [float(v) for v in mean],
            "stderr": [float(v) for v in se],
            "pass": bool(np.all(np.abs(mean) <= 3.0 * se + 1e-12)),
        }

    return _check(name, model, t_grid,
                  lambda paths: _CanonicalObserver(model, spec.x0, h_radius, spec.dt, name, grid,
                                                   paths.stop - paths.start),
                  row, notes=[f"h_radius={h_radius}"])


# ---------------------------------------------------------------------------
# the checks on a stored ensemble

def killing_compensator_check(ens: Ensemble, model: StateModel, t_grid) -> CheckReport:
    """``killing_compensator`` on a stored ensemble."""
    return killing_compensator(model, ens.spec, t_grid).replay(ens)


def exponential_martingale_check(ens: Ensemble, model, u, t_grid) -> CheckReport:
    """``exponential_martingale`` on a stored ensemble."""
    return exponential_martingale(model, ens.spec, u, t_grid).replay(ens)


def canonical_representation_residual(ens: Ensemble, model: StateModel,
                                      h_radius: float | None = None) -> CheckReport:
    """``canonical_representation`` on a stored ensemble."""
    return canonical_representation(model, ens.spec, h_radius).replay(ens)
