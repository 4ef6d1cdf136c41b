"""Path ensemble generation.

One driver, ``simulate(model, spec, observers, killing_mode)``, serves
every output.  It alone cuts the paths into chunks, picks the worker
count, compiles the dynamics, runs the vectorised stepping kernel
(``_run_chunk``) on each chunk and writes the seed ledger.  Every
output is an observer: ``observers`` maps a name to a factory that
receives the slice of the chunk's path indices, so an observer can
write straight into its slice of an output that the caller allocated,
or keep per-path state that ``simulate`` joins in chunk order.  After
the start and after each step the kernel calls ``record(j, x, status,
values)`` with the grid index, the (n, d) states, the (n,) status codes
and the coefficient values at the states
(``triplet.CoefficientValues``); rows whose status is not finite still
hold the last finite state.  The kernel can freeze each path at its
first grid exit from a ball around the start point.

Buffers.  Each chunk makes its step arrays once (the increment, the
proposal, the norms, the masks, the hazard uniforms) and draws into
them in place (``standard_normal(out=...)`` and ``random(out=...)``
consume a stream exactly as the sized calls do).  Per step, only the
expression evaluator's temporaries, Poisson counts (``poisson`` takes
no ``out``) and the state-dependent covariance's factorisation are new
arrays.  ``x``, ``status`` and ``values``
handed to a recorder are these buffers: the next step overwrites them,
so a recorder copies whatever it keeps and writes into none of them.
The jump samplers (``JumpSampler.for_chunk``), the Gaussian part
(``_Dynamics.scratch``) and the observers have scratch buffers of their
own, which belong to one chunk: chunks run on worker threads, so
nothing shared by the run (``_Dynamics``, the samplers' closures) holds
a buffer.

One evaluation per coefficient per step.  The kernel evaluates each
state-dependent coefficient (killing rate, drift, covariance, atom
rates, stable order and scale, the SDE coefficient f) once per step, at
the proposal, and carries the values to the new x where the path moves;
the jump samplers, the hazard and the observers read them.  The values
are those an evaluation at x would give, because a coefficient is
evaluated entry by entry.

The observers: the full trajectory (``_FullRecorder``, behind
``sample_levy``, ``sample_autonomous`` and ``sample_sde``, which return
an ``Ensemble``); the per-path CSV files of ``simulate --out``
(``PathWriter``, which holds one chunk's trajectory at a time); stopped
snapshots at chosen times (``snapshot_run``); the running maximum
(``PathSampler.running_max``); and the martingale checks' accumulators
(``martingale.run_checks``).  Only the first holds a (paths x steps)
array.  No other code drives the kernel.

One snapshot run serves every stopping radius of a probe.  The kernel
freezes paths at the largest radius; the snapshot recorder holds each
path at its first exit from every smaller ball.  This is bit-identical
to one run per radius because the kernel draws every stream for every
path at every step, frozen or not; it tests for an exit only on paths
that moved; and a frozen path is never killed, exploded or flagged
invalid afterwards, so a path held at its exit is finite there, as in
the run stopped at that radius.  The exception is a state-dependent
atom family: its Poisson counts are drawn at the paths' current rates,
so the smaller radii get other draws of the same law.

The dynamics are chosen by the entry point:

* ``sample_levy`` -- constant triplet, exact-in-law increments per step
  (Gaussian part, Poisson counts per atom, stable increments) and an
  exact exponential killing clock when the killing rate is positive;
* ``sample_autonomous`` -- Euler scheme freezing the state-dependent
  triplet at the left endpoint of each step, with hazard killing
  (probability 1 - exp(-abar dt) per step, abar the endpoint average)
  and absorption at the explosion threshold;
* ``sample_sde`` -- Euler scheme dX = f(X) dZ against a constant driver.

Snapshots and running maxima use the exact clock when the killing rate
is constant (or sits on an SDE driver) and hazard killing otherwise
(``_killing_mode``); the ``simulate`` and ``verify`` commands choose by
the model kind instead (``cli._killing_mode``).

The kernel knows no measure kind.  Each step it puts the drift (with
the constant part of the jump compensator) and the Gaussian part into
the increment array, then asks the model's measure family for the
jumps: ``measures.jump_sampler(...)`` is built once per run, and the
step function that its ``for_chunk(n)`` makes adds them in place.  The
measure owns its random streams (``jump``, ``stable``, ``small``);
``triplet.py`` records what each kind draws, in order and shape.  The
stable sampler draws both of its uniforms every step but evaluates only
the branch it returns: tan(u) where the order is 1, the
Chambers-Mallows-Stuck formula elsewhere, both only when a step mixes
the two.

Determinism contract: draws come from per-(seed, purpose, chunk)
substreams with a fixed chunk size, so results are bit-identical for a
given spec and seed regardless of worker count, and ensembles sharing a
seed share path prefixes chunk by chunk.  The environment variable
SYMBOLKIT_THREADS caps the number of chunk workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .extended import (
    Path,
    STATUS_DELTA,
    STATUS_FINITE,
    STATUS_INFINITY,
)
from .triplet import Coefficient, CoefficientValues, LevyTriplet, SdeBlock, StateModel
from .expr import Expression

__all__ = [
    "SimSpec",
    "Ensemble",
    "PathSampler",
    "PathWriter",
    "sample_levy",
    "sample_autonomous",
    "sample_sde",
    "simulate",
    "Simulation",
    "snapshot_run",
]

CHUNK_SIZE = 1 << 14

# stream purposes
_P_GAUSS, _P_JUMP, _P_STABLE, _P_HAZARD, _P_CLOCK, _P_SMALL = range(1, 7)
_PURPOSES = {
    "gauss": _P_GAUSS,
    "jump": _P_JUMP,
    "stable": _P_STABLE,
    "hazard": _P_HAZARD,
    "clock": _P_CLOCK,
    "small": _P_SMALL,
}


def _worker_count() -> int:
    raw = os.environ.get("SYMBOLKIT_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SYMBOLKIT_THREADS must be a positive integer, got {raw!r}")
    return workers


@dataclass(frozen=True)
class SimSpec:
    """Ensemble parameters; the model is passed to the sampling call."""

    x0: np.ndarray
    horizon: float
    dt: float
    n_paths: int
    rng_seed: int = 0
    explosion_threshold: float = 1e9
    small_jump_cut: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least one step")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        norm = float(np.linalg.norm(self.x0))
        if not self.explosion_threshold > norm:
            raise ValueError(f"explosion threshold {self.explosion_threshold} must exceed "
                             f"|x0| = {norm}")

    @property
    def n_steps(self) -> int:
        steps = round(self.horizon / self.dt)
        if abs(steps * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError("horizon must be an integer multiple of dt")
        return int(steps)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def time_index(self, t: float) -> int:
        """Grid index of the time ``t``, which must lie on the grid."""
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        i = int(round(t / self.dt))
        if not math.isclose(i * self.dt, t, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"time {t} is not on the grid")
        if not 0 <= i <= self.n_steps:
            raise ValueError(f"time {t} outside the horizon")
        return i

    def to_json(self) -> dict:
        return {
            "x0": [float(v) for v in self.x0],
            "horizon": self.horizon,
            "dt": self.dt,
            "n_paths": self.n_paths,
            "rng_seed": self.rng_seed,
            "explosion_threshold": self.explosion_threshold,
            "small_jump_cut": self.small_jump_cut,
        }


class Ensemble:
    """Simulated paths on a shared time grid, columnar storage."""

    def __init__(self, times, values, status, spec: SimSpec, seed_ledger, invalid,
                 bias_notes):
        self.times = np.asarray(times, dtype=float)
        self.values = values          # (n, m, d)
        self.status = status          # (n, m) int8
        self.spec = spec
        self.seed_ledger = seed_ledger
        self.invalid = invalid
        self.bias_notes = bias_notes

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def invalid_count(self) -> int:
        return int(self.invalid.sum())

    def path(self, i: int) -> Path:
        return Path(self.times, self.values[i], self.status[i],
                    dt=self.spec.dt, validate=False)

    @property
    def valid(self) -> np.ndarray:
        """Paths neither exploded (explosion is absorbing, so the last
        status tells) nor invalid."""
        return (self.status[:, -1] != STATUS_INFINITY) & ~self.invalid

    def time_index(self, t: float) -> int:
        return self.spec.time_index(t)


# ---------------------------------------------------------------------------
# dynamics compiled from a model

class _Dynamics:
    """Precompiled per-step drift, Gaussian part and killing of one run,
    shared by the chunk workers; the jumps come from the measure
    family's JumpSampler.  Buffers live in each chunk's ``scratch(n)``,
    never here."""

    def __init__(self, model: StateModel, dt: float, small_jump_cut: float | None,
                 killing_mode: str):
        self.model = model
        self.dt = dt
        self.dim = model.dim
        self.killing_mode = killing_mode
        self.blocks = model.coefficient_blocks()
        killing = model.killing
        self.kill_const = killing.value if killing.is_constant else None
        if model.sde is not None:
            driver_model = StateModel.from_triplet(model.sde.driver)
            self.driver = _Dynamics(driver_model, dt, small_jump_cut, "clock")
            self.f_coeff = model.sde.coefficient
            self.bias_notes = self.driver.bias_notes
            return
        self.driver = None

        if killing_mode == "clock" and self.kill_const is None:
            raise ValueError("exact killing clock requires a constant killing rate")

        # covariance
        if model.covariance.is_constant:
            q = model.covariance.constant_value()
            self.chol_const = LevyTriplet(0.0, np.zeros(self.dim), q).cholesky()
            self.has_gauss = bool(np.any(self.chol_const != 0.0))
        else:
            q = np.eye(self.dim)
            self.chol_const = None
            self.has_gauss = True
        self.jumps = model.measures.jump_sampler(model.cutoff, float(np.trace(q)),
                                                 small_jump_cut)
        self.bias_notes = self.jumps.bias_notes
        # the drift with the constant part of the jump compensator, times
        # dt, as np.zeros(...) + it would add it (the sign of a zero too)
        self.drift_step = None
        if model.drift.is_constant:
            self.drift_step = (model.drift.constant_value() + self.jumps.drift) * dt + 0.0

    # -- per-step pieces ----------------------------------------------------

    def clock_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        a = self.kill_const
        u = rng.random(n)
        if a is None or a <= 0.0:
            return np.full(n, np.inf)
        with np.errstate(divide="ignore"):
            return -np.log(u) / a

    def scratch(self, n: int) -> dict:
        """The buffers of one chunk of n paths that ``increments`` uses."""
        if self.driver is not None:
            return {"driver": self.driver.scratch(n)}
        scratch = {"jumps": self.jumps.for_chunk(n)}
        if self.has_gauss:
            scratch["z"], scratch["gauss"] = np.empty((n, self.dim)), np.empty((n, self.dim))
        return scratch

    def increments(self, values: CoefficientValues, rngs: dict, out: np.ndarray,
                   scratch: dict) -> None:
        """One-step increments of every path (dead paths included; the
        caller masks) at the states whose coefficient values are
        ``values``, written into the (n, d) array out; NaN rows flag
        evaluation failure."""
        dt = self.dt
        if self.driver is not None:
            # the driver is constant: it reads no coefficient values
            self.driver.increments(values, rngs, out, scratch["driver"])
            np.multiply(values[self.f_coeff][:, None], out, out=out)
            return

        if self.drift_step is not None:
            np.copyto(out, self.drift_step)
        else:
            np.copyto(out, values[self.model.drift])
            out += self.jumps.drift
            out *= dt
            out += 0.0
        # Gaussian part
        if self.has_gauss:
            z = rngs["gauss"].standard_normal(out=scratch["z"])
            if self.chol_const is not None:
                np.multiply(math.sqrt(dt), z, out=z)
                out += np.matmul(z, self.chol_const.T, out=scratch["gauss"])
            else:
                q = np.nan_to_num(values[self.model.covariance], nan=np.nan,
                                  posinf=np.nan, neginf=np.nan)
                bad_q = ~np.all(np.isfinite(q), axis=(1, 2))
                q[bad_q] = np.eye(self.dim)
                chol = _batched_cholesky(q)
                gauss = math.sqrt(dt) * np.einsum("nij,nj->ni", chol, z)
                gauss[bad_q] = np.nan
                out += gauss
        scratch["jumps"](out, values, dt, rngs)

    def hazard_prob(self, a0: np.ndarray, a1: np.ndarray, out: np.ndarray,
                    finite: np.ndarray) -> None:
        """Per-step killing probability 1 - exp(-abar dt) of n paths,
        abar the average of the state-dependent killing rates a0 and a1
        at the step endpoints (second order), written into out; finite
        is an (n,) bool buffer."""
        # -expm1(-max(0.5 * (a0 + a1'), 0) * dt), a1' = a1 where finite
        # else a0, formed in out
        np.copyto(out, a0)
        np.copyto(out, a1, where=np.isfinite(a1, out=finite))
        np.add(a0, out, out=out)
        out *= 0.5
        np.maximum(out, 0.0, out=out)
        np.negative(out, out=out)
        out *= self.dt
        np.expm1(out, out=out)
        np.negative(out, out=out)


def _batched_cholesky(q: np.ndarray) -> np.ndarray:
    if q.shape[-1] == 1:
        return np.sqrt(np.maximum(q, 0.0))
    try:
        return np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * np.eye(q.shape[-1])
        return np.linalg.cholesky(q + jitter)


# ---------------------------------------------------------------------------
# recorders

class _FullRecorder:
    """Every grid state and status, written into one chunk's slices
    ``values`` (n, m, d) and ``status`` (n, m) of the run's output."""

    def __init__(self, values, status):
        self.values, self.status = values, status

    def record(self, j, x, status, values):
        np.copyto(self.values[:, j, :], x, where=(status == STATUS_FINITE)[:, None])
        self.status[:, j] = status


class PathWriter(_FullRecorder):
    """Writes its chunk's paths of ``spec`` into ``folder`` at the last
    step, one ``extended.Path`` CSV file per path named by its index in
    the run, and then frees them: ``simulate`` keeps every chunk's
    observers until the run ends."""

    def __init__(self, folder, spec: SimSpec, paths: slice):
        m = spec.n_steps + 1
        n = paths.stop - paths.start
        super().__init__(np.full((n, m, spec.x0.shape[0]), np.nan),
                         np.zeros((n, m), dtype=np.int8))
        self.folder, self.spec, self.start, self.last = FsPath(folder), spec, paths.start, m - 1
        self.width = max(5, len(str(spec.n_paths - 1)))

    def record(self, j, x, status, values):
        super().record(j, x, status, values)
        if j == self.last:
            self.folder.mkdir(parents=True, exist_ok=True)
            times = self.spec.times
            for i in range(self.status.shape[0]):
                Path(times, self.values[i], self.status[i], dt=self.spec.dt,
                     validate=False).to_csv(
                    self.folder / f"path_{self.start + i:0{self.width}d}.csv")
            self.values = self.status = None


class _Tee:
    """One chunk's named observers, fed in turn."""

    def __init__(self, observers: dict):
        self.observers = observers

    def record(self, j, x, status, values):
        for obs in self.observers.values():
            obs.record(j, x, status, values)

    def per_path(self) -> dict:
        return {name: obs.per_path() for name, obs in self.observers.items()
                if hasattr(obs, "per_path")}


class _SnapshotRecorder:
    """State and status at the snapshot indices, one slot per stopping
    radius, written into one chunk's slices ``values`` (T, n, R, d) and
    ``status`` (T, n, R) of the run's output; ``per_path()`` flags, per
    path and radius, an exit from the ball in the first step.  The kernel
    freezes paths at the largest radius itself; a smaller radius is
    watched here: a path is held, finite, at its first grid exit from
    that ball."""

    def __init__(self, values, status, snap_idx, center, radii):
        n, dim = values.shape[1], values.shape[3]
        self.snap_idx = {int(i): k for k, i in enumerate(snap_idx)}
        self.values, self.status = values, status
        self.center = center
        self.radii = radii
        self.first_step_left = np.empty((n, len(radii)), dtype=bool)
        # slot: (held mask, held states) of each radius below the largest
        self.watched = {r: (np.zeros(n, dtype=bool), np.empty((n, dim)))
                        for r, k in enumerate(radii) if k < max(radii)}
        self.diff, self.dist = np.empty((n, dim)), np.empty(n)
        self.new, self.fresh, self.finite = (np.empty(n, dtype=bool) for _ in range(3))

    def record(self, j, x, status, values):
        if j == 1 or (j > 1 and self.watched):
            # the kernel's exit test: only moved paths can be outside a
            # ball they have not left, and moved paths are finite
            dist = _norm(np.subtract(x, self.center, out=self.diff), out=self.dist,
                         sq=self.diff)
            if j == 1:
                np.greater(dist[:, None], self.radii, out=self.first_step_left)
            new = self.new
            for r, (held, held_x) in self.watched.items():
                np.greater(dist, self.radii[r], out=new)
                new &= np.logical_not(held, out=self.fresh)
                np.copyto(held_x, x, where=new[:, None])
                held |= new
        k = self.snap_idx.get(j)
        if k is None:
            return
        finite = np.equal(status, STATUS_FINITE, out=self.finite)[:, None]
        for r in range(len(self.radii)):
            np.copyto(self.values[k, :, r], x, where=finite)
            self.status[k, :, r] = status
            if r in self.watched:
                held, held_x = self.watched[r]
                np.copyto(self.values[k, :, r], held_x, where=held[:, None])
                np.copyto(self.status[k, :, r], STATUS_FINITE, where=held)

    def per_path(self):
        return self.first_step_left


class _MaxRecorder:
    """Running maximum of |x - x_ref| (+inf on cemetery states), written
    at the snapshot indices into one chunk's slice ``out`` (T, n) of the
    run's output."""

    def __init__(self, out, snap_idx, dim, x_ref):
        n = out.shape[1]
        self.snap_idx = {int(i): k for k, i in enumerate(snap_idx)}
        self.x_ref = x_ref
        self.out = out
        self.running = np.zeros(n)
        self.diff, self.norm = np.empty((n, dim)), np.empty(n)
        self.dead = np.empty(n, dtype=bool)

    def record(self, j, x, status, values):
        norm = _norm(np.subtract(x, self.x_ref, out=self.diff), out=self.norm, sq=self.diff)
        np.copyto(norm, np.inf, where=np.not_equal(status, STATUS_FINITE, out=self.dead))
        np.maximum(self.running, norm, out=self.running)
        k = self.snap_idx.get(j)
        if k is not None:
            self.out[k] = self.running


# ---------------------------------------------------------------------------
# kernel

def _chunk_streams(seed: int, chunk_id: int) -> dict:
    return {
        name: np.random.default_rng(np.random.SeedSequence([seed, code, chunk_id]))
        for name, code in _PURPOSES.items()
    }


def _norm(a: np.ndarray, out: np.ndarray | None = None,
          sq: np.ndarray | None = None) -> np.ndarray:
    """Row norms of a real (n, d) array: np.linalg.norm(a, axis=1)'s
    arithmetic without its dispatch.  ``out`` (n,) and ``sq`` (n, d),
    which may be a itself, are buffers to write into."""
    sq = np.multiply(a, a, out=sq)
    return np.sqrt(np.add.reduce(sq, axis=1, out=out), out=out)


def _run_chunk(dyn: _Dynamics, x0: np.ndarray, n: int, n_steps: int, dt: float,
               seed: int, chunk_id: int, expl: float, recorder,
               stop_radius: float = math.inf):
    """Run one chunk of n paths.  Every step array is made here, once;
    the recorder is handed the state x, the status and the coefficient
    values at x, which the next step overwrites."""
    rngs = _chunk_streams(seed, chunk_id)
    scratch = dyn.scratch(n)
    x = np.tile(x0, (n, 1))
    inc, prop, sq = (np.empty_like(x) for _ in range(3))
    inc_finite = np.empty(x.shape, dtype=bool)
    norm = np.empty(n)
    status = np.zeros(n, dtype=np.int8)
    # finite, not frozen at the stopping radius, not invalid
    active = np.ones(n, dtype=bool)
    invalid = np.zeros(n, dtype=bool)
    move, explode, stay, ring, ok, flag = (np.empty(n, dtype=bool) for _ in range(6))
    use_clock = dyn.killing_mode == "clock"
    t_kill = dyn.clock_times(n, rngs["clock"]) if use_clock else None

    # the coefficient values at x, carried from the step that set x, and
    # at the step's proposal
    at_x, at_prop = (CoefficientValues(dyn.blocks, n) for _ in range(2))
    at_x.evaluate(x)
    killing = dyn.model.killing
    if not use_clock:
        u_haz = np.empty(n)
        if dyn.kill_const is None:
            q = np.empty(n)
        else:
            # exact for a constant rate
            q = np.full(n, -math.expm1(-dyn.kill_const * dt))

    stopping = math.isfinite(stop_radius)

    recorder.record(0, x, status, at_x)
    for i in range(n_steps):
        t_next = (i + 1) * dt
        dyn.increments(at_x, rngs, inc, scratch)
        np.add(x, inc, out=prop)
        # proposals of rows that do not move may overflow; the masks drop them
        with np.errstate(over="ignore", invalid="ignore"):
            at_prop.evaluate(prop)
        # paths whose coefficients failed to evaluate freeze in place:
        # move = active & the increment (and the hazard) finite
        np.logical_and.reduce(np.isfinite(inc, out=inc_finite), axis=1, out=move)
        if not use_clock:
            if dyn.kill_const is None:
                dyn.hazard_prob(at_x[killing], at_prop[killing], q, flag)
            rngs["hazard"].random(out=u_haz)
            move &= np.isfinite(q, out=flag)
        invalid |= np.logical_and(active, np.logical_not(move, out=flag), out=flag)
        move &= active
        # the norms also see rows that do not move, whose proposals may
        # overflow; the masks drop those rows
        with np.errstate(over="ignore"):
            np.greater_equal(_norm(prop, out=norm, sq=sq), expl, out=explode)
            explode &= move
            np.logical_and(move, np.logical_not(explode, out=stay), out=stay)
            if use_clock:
                np.less_equal(t_kill, t_next + 1e-15, out=ring)
            else:
                np.less(u_haz, q, out=ring)
            ring &= stay
            np.logical_and(stay, np.logical_not(ring, out=ok), out=ok)
            if stopping:
                _norm(np.subtract(prop, x0, out=sq), out=norm, sq=sq)
                np.logical_not(np.greater(norm, stop_radius, out=active), out=active)
                active &= ok
            else:
                np.copyto(active, ok)
        np.copyto(x, prop, where=ok[:, None])
        at_x.carry(at_prop, ok)
        np.copyto(status, STATUS_INFINITY, where=explode)
        np.copyto(status, STATUS_DELTA, where=ring)
        recorder.record(i + 1, x, status, at_x)
    return recorder, invalid, status


def _killing_mode(model: StateModel) -> str:
    """Exact clock for a constant rate (an SDE's sits on its constant
    driver), hazard otherwise."""
    return "clock" if model.killing.is_constant else "hazard"


def _join(parts):
    """Concatenate per-chunk observer states in chunk order: arrays with
    the paths on the first axis, possibly in dicts and tuples."""
    first = parts[0]
    if isinstance(first, dict):
        return {k: _join([p[k] for p in parts]) for k in first}
    if isinstance(first, tuple):
        return tuple(_join(list(col)) for col in zip(*parts))
    return first if len(parts) == 1 else np.concatenate(parts, axis=0)


@dataclass
class Simulation:
    """One streamed run: each observer's per-path state joined in chunk
    order, and every path's status at the horizon and invalid flag."""

    observed: dict
    status: np.ndarray
    invalid: np.ndarray
    ledger: list
    bias_notes: dict

    @property
    def valid(self) -> np.ndarray:
        """Paths neither exploded nor invalid."""
        return (self.status != STATUS_INFINITY) & ~self.invalid


def simulate(model: StateModel, spec: SimSpec, observers: dict, killing_mode: str,
             stop_radius: float = math.inf) -> Simulation:
    """Run the kernel once over the paths of ``spec``, in chunks of
    CHUNK_SIZE paths on up to SYMBOLKIT_THREADS workers.  ``observers``
    maps a name to a factory ``paths -> observer``, paths the slice of
    the chunk's path indices; every chunk gets a fresh set, fed
    ``record(j, x, status, values)`` after the start and after each step,
    and the ``per_path()`` state of each observer that has one is joined
    in chunk order.  ``killing_mode`` is "clock" (exact exponential
    clock, constant rate) or "hazard"; each path freezes at its first
    grid exit from the ball of radius ``stop_radius`` around x0."""
    if spec.x0.shape[0] != model.dim:
        raise ValueError("x0 dimension mismatch")
    dyn = _Dynamics(model, spec.dt, spec.small_jump_cut, killing_mode)
    n_steps, seed = spec.n_steps, spec.rng_seed
    chunks = [slice(start, min(start + CHUNK_SIZE, spec.n_paths))
              for start in range(0, spec.n_paths, CHUNK_SIZE)]

    def work(cid):
        paths = chunks[cid]
        tee = _Tee({name: make(paths) for name, make in observers.items()})
        return _run_chunk(dyn, spec.x0, paths.stop - paths.start, n_steps, spec.dt, seed,
                          cid, spec.explosion_threshold, tee, stop_radius)

    workers = _worker_count()
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, range(len(chunks))))
    else:
        results = [work(cid) for cid in range(len(chunks))]

    ledger = [{
        "chunk": cid,
        "paths": [paths.start, paths.stop],
        "streams": {name: [seed, code, cid] for name, code in _PURPOSES.items()},
    } for cid, paths in enumerate(chunks)]
    return Simulation(
        observed=_join([tee.per_path() for tee, _, _ in results]),
        status=np.concatenate([status for _, _, status in results]),
        invalid=np.concatenate([invalid for _, invalid, _ in results]),
        ledger=ledger, bias_notes=dyn.bias_notes,
    )


def sample_levy(triplet: LevyTriplet, spec: SimSpec) -> Ensemble:
    """Simulate a constant-triplet ensemble with an exact exponential
    killing clock when the killing rate is positive."""
    model = StateModel.from_triplet(triplet)
    return _sample(model, spec, killing_mode="clock")


def sample_autonomous(model: StateModel, spec: SimSpec) -> Ensemble:
    """Euler scheme for a state-dependent model with hazard killing and
    explosion absorption."""
    return _sample(model, spec, killing_mode="hazard")


def sample_sde(f, driver: LevyTriplet, spec: SimSpec) -> Ensemble:
    """Euler scheme for dX = f(X-) dZ with a constant driving triplet."""
    model = make_sde_model(f, driver)
    return _sample(model, spec, killing_mode="clock")


def make_sde_model(f, driver: LevyTriplet) -> StateModel:
    if driver.dim != 1:
        raise ValueError("sde mode is one-dimensional")
    if isinstance(f, Coefficient):
        coeff = f
    elif isinstance(f, (Expression, int, float)):
        coeff = Coefficient(f, 1)
    else:
        raise TypeError("f must be an Expression, number or Coefficient")
    base = StateModel.from_triplet(driver)
    return StateModel(
        dim=1, kill=base.kill, drift=base.drift, covariance=base.covariance,
        measures=base.measures, cutoff=driver.cutoff, domain_box=base.domain_box,
        sde=SdeBlock(coeff, driver), name="sde",
    )


def _sample(model: StateModel, spec: SimSpec, killing_mode: str) -> Ensemble:
    # every chunk writes its paths' slice of the output
    values = np.full((spec.n_paths, spec.n_steps + 1, model.dim), np.nan)
    status = np.zeros(values.shape[:2], dtype=np.int8)
    sim = simulate(model, spec,
                   {"full": lambda paths: _FullRecorder(values[paths], status[paths])},
                   killing_mode)
    return Ensemble(spec.times, values, status, spec, sim.ledger, sim.invalid, sim.bias_notes)


def snap_times(times, dt: float) -> tuple[list[int], np.ndarray]:
    """Round finite positive times to grid indices (at least one step,
    distinct required after rounding); returns (indices, actual)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    for t in times:
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"snapshot time must be finite and positive, got {t}")
    idx = [max(1, int(round(t / dt))) for t in times]
    if len(set(idx)) != len(idx):
        raise ValueError("snapshot times collapse on the dt grid; reduce dt")
    return idx, np.asarray(idx, dtype=float) * dt


def snapshot_run(model: StateModel, x0, snap_times_req, n: int, dt: float, seed: int,
                 radii=(math.inf,), explosion_threshold: float = 1e9, small_jump_cut=None):
    """Evolve ``n`` paths and capture state and status at the requested
    times only, once per stopping radius: slot r holds each path at
    min(t, its first grid exit from the closed ball of radius radii[r]
    around x0); ``math.inf`` never stops.  Times snap to the dt grid.
    Returns (actual_times, values (T, n, R, d), status (T, n, R),
    first_step_frozen (R,)), the last counting the paths that left each
    ball in the first step.  One run serves every radius (see the module
    docstring)."""
    radii = tuple(float(r) for r in radii)
    if not radii or not all(r > 0 for r in radii):
        raise ValueError(f"stopping radii must be positive, got {list(radii)}")
    snap_idx, actual = snap_times(snap_times_req, dt)
    spec = SimSpec(x0=x0, horizon=max(snap_idx) * dt, dt=dt, n_paths=n, rng_seed=seed,
                   explosion_threshold=explosion_threshold, small_jump_cut=small_jump_cut)
    # every chunk writes its paths' slice of the output
    values = np.full((len(snap_idx), n, len(radii), model.dim), np.nan)
    status = np.zeros((len(snap_idx), n, len(radii)), dtype=np.int8)
    sim = simulate(
        model, spec,
        {"snap": lambda paths: _SnapshotRecorder(values[:, paths], status[:, paths],
                                                 snap_idx, spec.x0, radii)},
        _killing_mode(model), stop_radius=max(radii),
    )
    return actual, values, status, sim.observed["snap"].sum(axis=0)


@dataclass(frozen=True)
class PathSampler:
    """Bundles a model with discretisation and seeding choices; the
    probe and diagnostic modules draw their ensembles through this."""

    model: StateModel
    dt: float
    seed: int = 0
    explosion_threshold: float = 1e9
    small_jump_cut: float | None = None

    def snapshots(self, x0, times, n, dt=None, radii=(math.inf,)):
        return snapshot_run(self.model, x0, times, n, self.dt if dt is None else dt,
                            self.seed, radii=radii,
                            explosion_threshold=self.explosion_threshold,
                            small_jump_cut=self.small_jump_cut)

    def running_max(self, x0, times, n, dt=None):
        """Running maximum of |X_s - x0| captured at the requested times
        (snapped to the dt grid); returns (actual_times, (n, T) array).
        Cemetery states count as +inf."""
        dt = self.dt if dt is None else dt
        snap_idx, actual = snap_times(times, dt)
        spec = SimSpec(x0=x0, horizon=max(snap_idx) * dt, dt=dt, n_paths=n, rng_seed=self.seed,
                       explosion_threshold=self.explosion_threshold,
                       small_jump_cut=self.small_jump_cut)
        # every chunk writes its paths' slice of the output
        out = np.zeros((len(snap_idx), n))
        simulate(self.model, spec,
                 {"max": lambda paths: _MaxRecorder(out[:, paths], snap_idx, self.model.dim,
                                                    spec.x0)},
                 _killing_mode(self.model))
        return actual, out.T
