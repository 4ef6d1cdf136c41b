"""Path ensemble generation.

One driver, ``simulate(model, spec, observers, stop_radius)``, serves
every output.  It alone cuts the paths into chunks, picks the worker
count, compiles the dynamics, runs the vectorised stepping kernel
(``_run_chunk``) on each chunk and writes the seed ledger.  Every
output is an observer: ``observers`` maps a name to a factory that
receives the slice of the chunk's path indices, so an observer can
write straight into its slice of an output that the caller allocated,
or reduce its chunk when the chunk ends (see Chunk end below).  After
the start and after each step the kernel calls ``record(j, x, status,
values)`` with the grid index, the (n, d) states, the (n,) status codes
and the coefficient values at the states
(``triplet.CoefficientValues``); rows whose status is not finite still
hold the last finite state.  The kernel can freeze each path at its
first grid exit from a ball around the start point.

Buffers.  Each chunk makes its step arrays once (the increment, the
proposal, the norms, the masks, the cumulative hazard and its step)
and draws into them in place (``standard_normal(out=...)`` and
``random(out=...)`` consume a stream exactly as the sized calls do).
Per step, only the expression evaluator's temporaries, Poisson counts
(``poisson`` takes no ``out``) and the state-dependent covariance's
factorisation are new arrays.  ``x``, ``status`` and ``values``
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
the jump samplers, the hazard step and the observers read them.  The
values are those an evaluation at x would give, because a coefficient
is evaluated entry by entry.

The observers: the full trajectory (``_FullRecorder``, behind
``sample_levy``, ``sample_autonomous`` and ``sample_sde``, which return
an ``Ensemble``); the per-path CSV files of ``simulate --out``
(``PathWriter``, which holds one chunk's trajectory at a time); stopped
snapshots at chosen times (``_SnapshotRecorder``, behind
``snapshot_run``); the symbol probe's per-chunk phase statistics
(``symbol.estimate_symbol_grid``, which holds one chunk's snapshots at a
time); the running maximum (``PathSampler.running_max``); and the
martingale checks' accumulators (``martingale.run_checks``).  Only the
first holds a (paths x steps) array.  No other code drives the kernel.

Chunk end.  After a chunk's last step ``simulate`` calls
``finish(valid)`` on each of its observers, ``valid`` the chunk's mask
of paths neither exploded nor invalid (``_valid``), and drops them;
``Simulation.observed[name]`` lists the results in chunk order.  A
writer returns None; a reduction returns statistics (``_Moments``) that
a report merges in chunk order (``_merged``), at the same bits on any
worker count.

One run serves every stopping radius of a probe.  The kernel freezes
paths at the largest radius; the snapshot recorder holds each path at
its first exit from every smaller ball.  This is bit-identical
to one run per radius because the kernel draws every stream for every
path at every step, frozen or not; it tests for an exit only on paths
that moved; and a frozen path is never killed, exploded or flagged
invalid afterwards, so a path held at its exit is finite there, as in
the run stopped at that radius.  The exception is an atom measure with
state-dependent rates: its Poisson counts are drawn at the paths'
current rates, so the smaller radii get other draws of the same law.

The entry points build the model; the dynamics follow from it:

* ``sample_levy`` -- constant triplet, exact-in-law increments per step
  (Gaussian part, Poisson counts per atom, stable increments);
* ``sample_autonomous`` -- Euler scheme freezing the state-dependent
  triplet at the left endpoint of each step, with absorption at the
  explosion threshold;
* ``sample_sde`` -- Euler scheme dX = f(X-) dZ against a constant
  driver: the model is the driver's own (``StateModel.sde`` is f), so
  each increment is formed as for a constant model and multiplied by
  f at the left endpoint.

One killing construction, for every killing rate ``StateModel.kill``
(an SDE's is its driver's): a path dies at zeta = inf{t : Lambda_t >=
E}, E = -log u an exponential level drawn once per path from the
``clock`` stream and Lambda the cumulative hazard, which each step
raises by max(abar, 0) dt, abar the average of the rate at the step's
start and proposal (the start's where the proposal's is not finite).
Given both, the step kills with probability 1 - exp(-abar dt).  A
constant rate's Lambda is one number for all paths, so it costs one
comparison per path-step.  A NaN hazard step flags the path invalid;
an infinite one kills it.

The kernel knows no measure kind.  Each step it puts the drift (with
the constant part of the jump compensator) and the Gaussian part into
the increment array, then asks the model's measure for the
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
seed share path prefixes chunk by chunk.

Workers.  A run uses one worker per usable CPU
(``os.sched_getaffinity``), or the positive integer in the environment
variable SYMBOLKIT_THREADS when it is set, and never more workers than
chunks.  The calling thread works chunks beside workers - 1 helper
threads; each takes the next chunk id in order (``_run_chunks``).  A
chunk's buffers and observers live while it runs, so memory holds one
chunk's step and per-path state per worker.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path as FsPath

import numpy as np

from .extended import (
    Path,
    STATUS_DELTA,
    STATUS_FINITE,
    STATUS_INFINITY,
)
from .triplet import Coefficient, CoefficientValues, LevyTriplet, StateModel
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

# the exit step of a path that has not left its ball
_INSIDE = np.iinfo(np.intp).max

# stream purposes and their seed codes; code 4 is retired, so that no
# other stream moves
_PURPOSES = {"gauss": 1, "jump": 2, "stable": 3, "clock": 5, "small": 6}


def _worker_count() -> int:
    """The chunk workers of a run: SYMBOLKIT_THREADS if it is set, else
    the number of CPUs this process may run on."""
    raw = os.environ.get("SYMBOLKIT_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # a platform without CPU affinity
            return os.cpu_count() or 1
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


def _valid(status: np.ndarray, invalid: np.ndarray) -> np.ndarray:
    """Paths neither exploded (by their status at the horizon) nor invalid."""
    return (status != STATUS_INFINITY) & ~invalid


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
        return _valid(self.status[:, -1], self.invalid)

    def time_index(self, t: float) -> int:
        return self.spec.time_index(t)


# ---------------------------------------------------------------------------
# dynamics compiled from a model

class _Dynamics:
    """Precompiled per-step drift, Gaussian part and killing of one run,
    shared by the chunk workers; the jumps come from the measure's
    JumpSampler, and an SDE model's increments are multiplied by its
    coefficient f.  Buffers live in each chunk's ``scratch(n)``,
    never here."""

    def __init__(self, model: StateModel, dt: float, small_jump_cut: float | None):
        self.model = model
        self.dt = dt
        self.dim = model.dim
        self.blocks = model.coefficient_blocks()
        # a constant rate's hazard step, shared by every path; None when
        # the rate depends on the state
        self.hazard_const = None
        if model.kill.is_constant:
            a = model.kill.value
            self.hazard_const = max((a + a) * 0.5, 0.0) * dt
        # covariance; only an exactly zero matrix has no Gaussian part
        if model.covariance.is_constant:
            q = model.covariance.constant_value()
            self.chol_const = _batched_cholesky(q[None])[0]
            self.has_gauss = bool(np.any(q != 0.0))
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

    def scratch(self, n: int) -> dict:
        """The buffers of one chunk of n paths that ``increments`` uses."""
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
                if self.dim == 1:
                    # z c, the one product of the (n, 1) @ (1, 1) matmul;
                    # out is never -0.0 here, so a zero's sign is moot
                    out += np.multiply(z, self.chol_const[0, 0], out=scratch["gauss"])
                else:
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
        if self.model.sde is not None:
            np.multiply(values[self.model.sde][:, None], out, out=out)

    def hazard_step(self, a0: np.ndarray, a1: np.ndarray, out: np.ndarray,
                    finite: np.ndarray) -> None:
        """The cumulative hazard's increment max(abar, 0) dt of n paths,
        abar the average of the state-dependent killing rates a0 and a1
        at the step endpoints (a1 replaced by a0 where it is not finite),
        written into out; finite is an (n,) bool buffer.  The arithmetic
        is that of ``hazard_const``."""
        np.copyto(out, a0)
        np.copyto(out, a1, where=np.isfinite(a1, out=finite))
        np.add(a0, out, out=out)
        out *= 0.5
        np.maximum(out, 0.0, out=out)
        out *= self.dt


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

    def finish(self, valid):
        return None


class PathWriter(_FullRecorder):
    """Writes its chunk's paths of ``spec`` into ``folder`` when the chunk
    ends, one ``extended.Path`` CSV file per path named by its index in
    the run."""

    def __init__(self, folder, spec: SimSpec, paths: slice):
        m = spec.n_steps + 1
        n = paths.stop - paths.start
        super().__init__(np.full((n, m, spec.x0.shape[0]), np.nan),
                         np.zeros((n, m), dtype=np.int8))
        self.folder, self.spec, self.start = FsPath(folder), spec, paths.start
        self.width = max(5, len(str(spec.n_paths - 1)))

    def finish(self, valid):
        self.folder.mkdir(parents=True, exist_ok=True)
        times = self.spec.times
        for i in range(self.status.shape[0]):
            Path(times, self.values[i], self.status[i], dt=self.spec.dt,
                 validate=False).to_csv(
                self.folder / f"path_{self.start + i:0{self.width}d}.csv")


class _SnapshotRecorder:
    """One chunk's states and statuses at the snapshot indices, for every
    stopping radius.  The kernel freezes paths at the largest radius
    itself, and ``values`` (T, n, d) and ``status`` (T, n) hold its
    snapshots; a smaller radius is watched here: each path's first grid
    exit from that ball, its step and the state there.  ``slot(k, r)``
    is snapshot k at radius r, where a path that has left ball r is held,
    finite, at its exit.  With ``out``, slices (T, n, R, d) and (T, n, R)
    of a run's output, every slot is written there when the chunk ends.
    ``finish`` returns, per radius, the count of paths that left the ball
    in the first step."""

    def __init__(self, n, dim, snap_idx, center, radii, out=None):
        self.snap_idx = [int(i) for i in snap_idx]
        self.snapshot_at = {i: k for k, i in enumerate(self.snap_idx)}
        self.values = np.full((len(snap_idx), n, dim), np.nan)
        self.status = np.zeros((len(snap_idx), n), dtype=np.int8)
        self.center, self.radii, self.out = center, radii, out
        # per radius below the largest: (exit step, state at the exit);
        # a path still inside has the step _INSIDE
        self.watched = {r: (np.full(n, _INSIDE), np.empty((n, dim)))
                        for r, k in enumerate(radii) if k < max(radii)}
        self.dist = np.empty(n)
        self.diff = self.dist[:, None] if dim == 1 else np.empty((n, dim))
        self.new, self.fresh, self.finite = (np.empty(n, dtype=bool) for _ in range(3))

    def record(self, j, x, status, values):
        if j == 1 or (j > 1 and self.watched):
            # the kernel's exit test: only moved paths can be outside a
            # ball they have not left, and moved paths are finite
            dist = _radius(np.subtract(x, self.center, out=self.diff), out=self.dist,
                           sq=self.diff)
            if j == 1:
                self.first_step_exits = np.count_nonzero(dist[:, None] > self.radii, axis=0)
            new = self.new
            for r, (step, held_x) in self.watched.items():
                np.greater(dist, self.radii[r], out=new)
                new &= np.greater_equal(step, j, out=self.fresh)
                np.copyto(held_x, x, where=new[:, None])
                np.copyto(step, j, where=new)
        k = self.snapshot_at.get(j)
        if k is None:
            return
        finite = np.equal(status, STATUS_FINITE, out=self.finite)[:, None]
        np.copyto(self.values[k], x, where=finite)
        self.status[k] = status

    def slot(self, k, r):
        """Snapshot k at radius r: the (n, d) states and (n,) statuses."""
        if r not in self.watched:
            return self.values[k], self.status[k]
        step, held_x = self.watched[r]
        held = step <= self.snap_idx[k]
        return (np.where(held[:, None], held_x, self.values[k]),
                np.where(held, STATUS_FINITE, self.status[k]))

    def finish(self, valid):
        if self.out is not None:
            values_out, status_out = self.out
            for t in range(len(self.snap_idx)):
                for r in range(len(self.radii)):
                    values_out[t, :, r], status_out[t, :, r] = self.slot(t, r)
        return self.first_step_exits


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

    def finish(self, valid):
        return None


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
    which may be a itself, are buffers to write into; a column is
    squared into ``out``, the one term of its sum."""
    if a.shape[1] == 1:
        return np.sqrt(np.multiply(a[:, 0], a[:, 0], out=out), out=out)
    sq = np.multiply(a, a, out=sq)
    return np.sqrt(np.add.reduce(sq, axis=1, out=out), out=out)


def _radius(a: np.ndarray, out: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Row norms of a real (n, d) array for the exit and explosion tests,
    into ``out``: ``_norm`` for d > 1, and |a| for d = 1.  The two are
    equal wherever a*a neither overflows nor underflows (sqrt(fl(a*a))
    = |a| in binary floating point), so a comparison with a threshold
    between 1e-150 and 1e150 gives the same answer; outside that range
    |a| is the exact one."""
    if a.shape[1] == 1:
        return np.abs(a[:, 0], out=out)
    return _norm(a, out=out, sq=sq)


def _run_chunk(dyn: _Dynamics, x0: np.ndarray, n: int, n_steps: int, seed: int,
               chunk_id: int, expl: float, observers, stop_radius: float = math.inf):
    """Run one chunk of n paths; returns its invalid flags and statuses
    at the horizon.  Every step array is made here, once; the observers
    are handed in turn the state x, the status and the coefficient values
    at x, which the next step overwrites."""
    rngs = _chunk_streams(seed, chunk_id)
    scratch = dyn.scratch(n)
    x = np.tile(x0, (n, 1))
    inc, prop = np.empty_like(x), np.empty_like(x)
    norm = np.empty(n)
    # the (n, d) scratch of the norms; for d = 1, |.| needs none, and the
    # exit test's difference is formed in norm itself
    sq = norm[:, None] if x.shape[1] == 1 else np.empty_like(x)
    inc_finite = None if x.shape[1] == 1 else np.empty(x.shape, dtype=bool)
    status = np.zeros(n, dtype=np.int8)
    # finite, not frozen at the stopping radius, not invalid
    active = np.ones(n, dtype=bool)
    invalid = np.zeros(n, dtype=bool)
    move, explode, stay, ring, ok, flag = (np.empty(n, dtype=bool) for _ in range(6))
    # killing: each path's exponential level E against its cumulative
    # hazard Lambda, one number for all paths when the rate is constant
    with np.errstate(divide="ignore"):
        level = -np.log(rngs["clock"].random(n))
    varying = dyn.hazard_const is None
    hazard, d_hazard = (np.zeros(n), np.empty(n)) if varying else (0.0, dyn.hazard_const)

    # the coefficient values at x, carried from the step that set x, and
    # at the step's proposal
    at_x, at_prop = (CoefficientValues(dyn.blocks, n) for _ in range(2))
    at_x.evaluate(x)
    killing = dyn.model.kill

    stopping = math.isfinite(stop_radius)

    for obs in observers:
        obs.record(0, x, status, at_x)
    for i in range(n_steps):
        dyn.increments(at_x, rngs, inc, scratch)
        np.add(x, inc, out=prop)
        # proposals of rows that do not move may overflow; the masks drop them
        with np.errstate(over="ignore", invalid="ignore"):
            at_prop.evaluate(prop)
        # paths whose coefficients failed to evaluate freeze in place:
        # move = active & the increment finite & the hazard step not NaN
        # (an infinite step kills)
        if inc_finite is None:
            np.isfinite(inc[:, 0], out=move)
        else:
            np.logical_and.reduce(np.isfinite(inc, out=inc_finite), axis=1, out=move)
        if varying:
            dyn.hazard_step(at_x[killing], at_prop[killing], d_hazard, flag)
            move &= np.logical_not(np.isnan(d_hazard, out=flag), out=flag)
        hazard += d_hazard
        invalid |= np.logical_and(active, np.logical_not(move, out=flag), out=flag)
        move &= active
        # the norms also see rows that do not move, whose proposals may
        # overflow; the masks drop those rows
        with np.errstate(over="ignore"):
            np.greater_equal(_radius(prop, out=norm, sq=sq), expl, out=explode)
            explode &= move
            np.logical_and(move, np.logical_not(explode, out=stay), out=stay)
            np.less_equal(level, hazard, out=ring)
            ring &= stay
            np.logical_and(stay, np.logical_not(ring, out=ok), out=ok)
            if stopping:
                _radius(np.subtract(prop, x0, out=sq), out=norm, sq=sq)
                np.logical_not(np.greater(norm, stop_radius, out=active), out=active)
                active &= ok
            else:
                np.copyto(active, ok)
        np.copyto(x, prop, where=ok[:, None])
        at_x.carry(at_prop, ok)
        np.copyto(status, STATUS_INFINITY, where=explode)
        np.copyto(status, STATUS_DELTA, where=ring)
        for obs in observers:
            obs.record(i + 1, x, status, at_x)
    return invalid, status


@dataclass(frozen=True, slots=True)
class _Moments:
    """One chunk's (n,) or (n, d) samples reduced along the paths to their
    count n, their sum, and ``parts``: (sum, M2) of a real sample, (sum,
    M2) of the real and then of the imaginary part of a complex one, M2
    the centred second moment; each is formed as ``np.mean`` and
    ``np.var`` form it."""

    n: int
    total: np.generic | np.ndarray
    parts: tuple

    @classmethod
    def of(cls, samples: np.ndarray, dev: np.ndarray | None = None) -> "_Moments":
        """``dev`` is a real buffer of the samples' shape for the
        deviations; an empty chunk (n = 0) has zero sums, and no mean."""
        n = len(samples)
        complex_ = np.iscomplexobj(samples)
        parts = ()
        for part in (samples.real, samples.imag) if complex_ else (samples,):
            s = np.add.reduce(part, axis=0)
            dev = np.subtract(part, s / max(n, 1), out=dev)
            parts += (s, np.add.reduce(np.square(dev, out=dev), axis=0))
        return cls(n, np.add.reduce(samples, axis=0) if complex_ else parts[0], parts)


def _merged(chunks) -> tuple:
    """The mean and its standard error over the chunks' samples, the
    chunks added left to right, those with no sample skipped: each part's
    M2 = sum M2_c + sum n_c (mean_c - mean)^2 (Chan, Golub and LeVeque,
    1983); the stderr is sqrt(var) / sqrt(n) of a real sample and
    sqrt((var_re + var_im) / n) of a complex one.  One chunk keeps the
    bits of ``np.mean`` and of ``np.var(ddof=1)`` or ``np.std(ddof=1)``."""
    chunks = [c for c in chunks if c.n]
    n = sum(c.n for c in chunks)
    var = []
    for k in range(0, len(chunks[0].parts), 2):
        mean = reduce(add, [c.parts[k] for c in chunks]) / n
        spread = [c.n * (c.parts[k] / c.n - mean) ** 2 for c in chunks]
        m2 = reduce(add, [c.parts[k + 1] for c in chunks]) + reduce(add, spread)
        var.append(m2 / (n - 1))
    mean = reduce(add, [c.total for c in chunks]) / n
    if len(var) == 2:
        return mean, math.sqrt((var[0] + var[1]) / n)
    return mean, np.sqrt(var[0]) / math.sqrt(n)


def _chunks(n_paths: int) -> list[slice]:
    """The path slices of a run's chunks of CHUNK_SIZE paths."""
    return [slice(start, min(start + CHUNK_SIZE, n_paths))
            for start in range(0, n_paths, CHUNK_SIZE)]


def _run_chunks(work, n_chunks: int, workers: int) -> list:
    """``work(cid)`` for every chunk id, on the calling thread and
    ``workers - 1`` helper threads, each taking the next id in order;
    the results in chunk order.  No chunk starts after an error, or
    after the calling thread stops (having taken the last id, or been
    interrupted).  Once every helper has joined, the error of the first
    failed chunk is raised: every chunk before it has run, so it is the
    error that a run on one worker raises."""
    results, errors = [None] * n_chunks, [None] * n_chunks
    ids, lock, stop = itertools.count(), threading.Lock(), threading.Event()

    def drain():
        while True:
            with lock:
                cid = n_chunks if stop.is_set() else next(ids)
            if cid >= n_chunks:
                return
            try:
                results[cid] = work(cid)
            except BaseException as exc:
                errors[cid] = exc
                stop.set()

    helpers = [threading.Thread(target=drain, daemon=True) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


@dataclass
class Simulation:
    """One streamed run: each observer's ``finish`` results in chunk
    order, and every path's status at the horizon and invalid flag."""

    observed: dict
    status: np.ndarray
    invalid: np.ndarray
    ledger: list
    bias_notes: dict

    @property
    def valid(self) -> np.ndarray:
        """Paths neither exploded nor invalid."""
        return _valid(self.status, self.invalid)


def simulate(model: StateModel, spec: SimSpec, observers: dict,
             stop_radius: float = math.inf) -> Simulation:
    """Run the kernel once over the paths of ``spec``, in chunks of
    CHUNK_SIZE paths on the workers of the module docstring.  ``observers``
    maps a name to a factory ``paths -> observer``, paths the slice of
    the chunk's path indices; every chunk gets a fresh set, fed
    ``record(j, x, status, values)`` after the start and after each step
    and ``finish(valid)`` after the last, whose results
    ``Simulation.observed`` lists in chunk order.  Killing follows the
    module docstring; each path freezes at its first grid exit from the
    ball of radius ``stop_radius`` around x0."""
    if spec.x0.shape[0] != model.dim:
        raise ValueError("x0 dimension mismatch")
    dyn = _Dynamics(model, spec.dt, spec.small_jump_cut)
    n_steps, seed = spec.n_steps, spec.rng_seed
    chunks = _chunks(spec.n_paths)

    def work(cid):
        paths = chunks[cid]
        chunk = {name: make(paths) for name, make in observers.items()}
        invalid, status = _run_chunk(dyn, spec.x0, paths.stop - paths.start, n_steps, seed,
                                     cid, spec.explosion_threshold, chunk.values(), stop_radius)
        valid = _valid(status, invalid)
        return {name: obs.finish(valid) for name, obs in chunk.items()}, invalid, status

    results = _run_chunks(work, len(chunks), min(_worker_count(), len(chunks)))
    ledger = [{
        "chunk": cid,
        "paths": [paths.start, paths.stop],
        "streams": {name: [seed, code, cid] for name, code in _PURPOSES.items()},
    } for cid, paths in enumerate(chunks)]
    return Simulation(
        observed={name: [done[name] for done, _, _ in results] for name in observers},
        status=np.concatenate([status for _, _, status in results]),
        invalid=np.concatenate([invalid for _, invalid, _ in results]),
        ledger=ledger, bias_notes=dyn.bias_notes,
    )


def sample_levy(triplet: LevyTriplet, spec: SimSpec) -> Ensemble:
    """Simulate a constant-triplet ensemble."""
    return _sample(StateModel.from_triplet(triplet), spec)


def sample_autonomous(model: StateModel, spec: SimSpec) -> Ensemble:
    """Euler scheme for a state-dependent model with explosion
    absorption."""
    return _sample(model, spec)


def sample_sde(f, driver: LevyTriplet, spec: SimSpec) -> Ensemble:
    """Euler scheme for dX = f(X-) dZ with a constant driving triplet."""
    return _sample(make_sde_model(f, driver), spec)


def make_sde_model(f, driver: LevyTriplet) -> StateModel:
    if driver.dim != 1:
        raise ValueError("sde mode is one-dimensional")
    if isinstance(f, Coefficient):
        coeff = f
    elif isinstance(f, (Expression, int, float)):
        coeff = Coefficient(f)
    else:
        raise TypeError("f must be an Expression, number or Coefficient")
    return StateModel.from_triplet(driver, name="sde", sde=coeff)


def _sample(model: StateModel, spec: SimSpec) -> Ensemble:
    # every chunk writes its paths' slice of the output
    values = np.full((spec.n_paths, spec.n_steps + 1, model.dim), np.nan)
    status = np.zeros(values.shape[:2], dtype=np.int8)
    sim = simulate(model, spec,
                   {"full": lambda paths: _FullRecorder(values[paths], status[paths])})
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
    snap_idx, actual, spec = PathSampler(
        model, dt, seed, explosion_threshold, small_jump_cut).snapshot_spec(
        x0, snap_times_req, n)
    # every chunk writes its paths' slice of the output
    values = np.full((len(snap_idx), n, len(radii), model.dim), np.nan)
    status = np.zeros((len(snap_idx), n, len(radii)), dtype=np.int8)
    sim = simulate(
        model, spec,
        {"snap": lambda paths: _SnapshotRecorder(
            paths.stop - paths.start, model.dim, snap_idx, spec.x0, radii,
            out=(values[:, paths], status[:, paths]))},
        stop_radius=max(radii),
    )
    return actual, values, status, sum(sim.observed["snap"])


@dataclass(frozen=True)
class PathSampler:
    """Bundles a model with discretisation and seeding choices; the
    probe and diagnostic modules draw their ensembles through this."""

    model: StateModel
    dt: float
    seed: int = 0
    explosion_threshold: float = 1e9
    small_jump_cut: float | None = None

    def snapshot_spec(self, x0, times, n):
        """The grid indices and times of the requested ``times`` (snapped
        to the dt grid; see ``snap_times``) and the spec of n paths from
        x0 that ends at the last of them."""
        snap_idx, actual = snap_times(times, self.dt)
        spec = SimSpec(x0=x0, horizon=max(snap_idx) * self.dt, dt=self.dt, n_paths=n,
                       rng_seed=self.seed, explosion_threshold=self.explosion_threshold,
                       small_jump_cut=self.small_jump_cut)
        return snap_idx, actual, spec

    def running_max(self, x0, times, n):
        """Running maximum of |X_s - x0| captured at the requested times
        (snapped to the dt grid); returns (actual_times, (n, T) array).
        Cemetery states count as +inf."""
        snap_idx, actual, spec = self.snapshot_spec(x0, times, n)
        # every chunk writes its paths' slice of the output
        out = np.zeros((len(snap_idx), n))
        simulate(self.model, spec,
                 {"max": lambda paths: _MaxRecorder(out[:, paths], snap_idx, self.model.dim,
                                                    spec.x0)})
        return actual, out.T
