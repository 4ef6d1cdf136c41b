"""Monte-Carlo estimation of the probabilistic symbol.

The estimator freezes each path at its first grid exit from the closed
ball of radius K around the start point x, evaluates e_xi(X_t - x) with
cemetery states contributing zero, and forms

    p_hat(t) = -(mean - 1) / t

on a decreasing time ladder.  The estimator carries an O(t) bias, so a
least-squares line through the ladder is extrapolated to t = 0.  All
rungs reuse the same trajectories (nested prefixes), and the intercept
standard error is computed from per-path linear-combination values so
the rung correlation is accounted for exactly.

One ensemble serves every frequency and every radius of a command.  xi
enters only after the stopped snapshots are taken, and the limit does
not depend on K, so ``estimate_symbol_grid`` makes one ``simulate`` run
and builds every (xi, K) report from it.  Its observer (``_ProbeChunk``,
the recorder of ``snapshot_run``) holds each path of its chunk at
min(t, its exit from each ball) and, when the chunk ends, reduces it to
``simulate._Moments`` per (K, xi) and rung, and of the per-path
intercept term, so a probe holds one chunk's snapshots per worker.  A
report merges the chunks in chunk order (``simulate._merged``), so any
worker count gives the same bits, and a run of at most one chunk has the
bits of ``np.mean`` and ``np.var`` over all its paths.  The reports are
bit-identical to one simulation per (xi, K) with the same seed: the
paths are the same ones, each radius sees exactly the snapshots a run
stopped at that radius would take (see the ``simulate`` docstring for
the one model class where the smaller radii change bits), and each
report repeats the arithmetic of a lone probe.  ``estimate_symbol`` and
``symbol_independence_check`` are its one-frequency cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .serialize import dump_json, write_csv
from .extended import STATUS_FINITE
from .simulate import PathSampler, _Moments, _SnapshotRecorder, _merged, simulate
from .triplet import _row_dot, eval_symbol

__all__ = [
    "ProbeSettings",
    "SymbolReport",
    "IndependenceReport",
    "ProbeImmediateExitError",
    "estimate_symbol",
    "estimate_symbol_grid",
    "symbol_independence_check",
]

EXIT_FRACTION_LIMIT = 0.999


class ProbeImmediateExitError(RuntimeError):
    """Effectively every path left the stopping ball within one step;
    the radius is too small for the step size."""


@dataclass(frozen=True)
class ProbeSettings:
    k_radius: float = 1.0
    t_ladder: tuple[float, ...] = (0.04, 0.02, 0.01, 0.005)
    n_samples: int = 10_000
    extrapolate: bool = True

    def __post_init__(self):
        tl = tuple(float(t) for t in self.t_ladder)
        if any(t <= 0 for t in tl) or any(a <= b for a, b in zip(tl, tl[1:])):
            raise ValueError("t_ladder must be strictly decreasing and positive")
        if not self.k_radius > 0:
            raise ValueError("k_radius must be positive")
        if not self.n_samples >= 2:
            raise ValueError(f"n_samples must be at least 2, got {self.n_samples}")
        object.__setattr__(self, "t_ladder", tl)

    @property
    def default_dt(self) -> float:
        """The step to build a probe's sampler at when none is chosen."""
        return min(self.t_ladder) / 50.0


@dataclass
class SymbolReport:
    x: np.ndarray
    xi: np.ndarray
    analytic: complex | None
    t_ladder: tuple[float, ...]
    estimates: list[complex]
    stderrs: list[float]
    extrapolated: complex
    extrapolated_stderr: float
    abs_error: float | None = None
    rel_error: float | None = None
    low_confidence: bool = False
    settings: ProbeSettings | None = None
    dt: float | None = None  # the sampler's step

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in np.atleast_1d(self.x)],
            "xi": [float(v) for v in np.atleast_1d(self.xi)],
            "analytic": None if self.analytic is None else complex(self.analytic),
            "ladder": [
                {"t": t, "estimate": complex(p), "stderr": s}
                for t, p, s in zip(self.t_ladder, self.estimates, self.stderrs)
            ],
            "extrapolated": complex(self.extrapolated),
            "extrapolated_stderr": self.extrapolated_stderr,
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "low_confidence": self.low_confidence,
            "settings": None if self.settings is None else {
                "k_radius": self.settings.k_radius,
                "t_ladder": list(self.settings.t_ladder),
                "n_samples": self.settings.n_samples,
                "extrapolate": self.settings.extrapolate,
                "dt": self.dt,
            },
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(dump_json(self.to_json()))


def _point(name: str, value, dim: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.ndim != 1 or v.size != dim:
        raise ValueError(f"{name} = {v.tolist()} has {v.size} components; "
                         f"the model is {dim}-dimensional")
    return v


class _ProbeChunk(_SnapshotRecorder):
    """The observer of one chunk of a probe's run: the snapshot recorder
    of its paths at each rung and stopping radius, whose ``finish``
    returns the counts of paths that left each ball in the first step and
    ``moments``, where ``moments[r][i]`` is the chunk's statistics for
    radius r and frequency ``xis[i]``: a ``_Moments`` per rung in
    ``ladder`` order, and one of the per-path intercept term (None
    without a fit)."""

    def __init__(self, n, snap_idx, x, xis, radii, ladder, w0):
        super().__init__(n, x.shape[0], snap_idx, x, radii)
        self.xis, self.ladder, self.w0 = xis, ladder, w0

    def finish(self, valid):
        """Each (radius, xi): each rung's phase and, with the fit's
        intercept weights w0, the per-path intercept term, formed in
        buffers that live for this reduction only.  The in-place ufuncs
        perform the operations of ``np.exp(1j * <X_t - x, xi>)`` and
        ``sum(w0 * (-(phase - 1) / t))`` in their order; the sum starts
        from 0 as Python's sum does, which sets the sign of a zero."""
        n, d = self.values.shape[1:]
        angle, dev = np.empty(n), np.empty(n)
        diff = angle[:, None] if d == 1 else np.empty((n, d))
        phase, term, per_path = (np.empty(n, dtype=complex) for _ in range(3))
        moments = []
        for r in range(len(self.radii)):
            moments.append([])
            for xi in self.xis:
                rungs = []
                for rung, (t, k) in enumerate(self.ladder):
                    values, status = self.slot(k, r)
                    _row_dot(np.subtract(values, self.center, out=diff), xi, out=angle)
                    np.exp(np.multiply(1j, angle, out=phase), out=phase)
                    np.copyto(phase, 0.0, where=status != STATUS_FINITE)
                    rungs.append(_Moments.of(phase, dev))
                    if self.w0 is not None:
                        np.negative(np.subtract(phase, 1.0, out=term), out=term)
                        np.divide(term, t, out=term)
                        np.multiply(self.w0[rung], term, out=term)
                        np.add(per_path if rung else 0, term, out=per_path)
                moments[-1].append(
                    (rungs, None if self.w0 is None else _Moments.of(per_path, dev)))
        return super().finish(valid), moments


def estimate_symbol_grid(sampler: PathSampler, x, xis, radii,
                         settings: ProbeSettings) -> dict[float, list[SymbolReport]]:
    """Estimate p(x, xi) for every frequency in ``xis`` and every
    exit-ball radius in ``radii`` (distinct; ``math.inf`` never stops)
    from one simulation.  Returns {radius: [report per frequency]} in the
    given orders; each report carries ``settings`` with its own radius
    and the sampler's step ``dt``.

    Raises ProbeImmediateExitError when the exit ball of some radius
    loses essentially all paths within the first step.  A report whose
    combined stderr exceeds the estimate magnitude is flagged
    low-confidence.
    """
    radii = tuple(radii)
    if not radii:
        raise ValueError("radii holds no radius")
    if len(set(radii)) != len(radii):
        raise ValueError("radii must be distinct")
    per_radius = [replace(settings, k_radius=r) for r in radii]
    model = sampler.model
    x = _point("x", x, model.dim)
    xis = [_point("xi", xi, model.dim) for xi in xis]
    if not xis:
        raise ValueError("xis holds no frequency")
    n = settings.n_samples
    snap_idx, times, spec = sampler.snapshot_spec(x, sorted(settings.t_ladder), n)
    ladder = sorted((float(t), k) for k, t in enumerate(times))[::-1]
    w0 = None
    if settings.extrapolate and len(ladder) >= 2:
        ts = np.asarray([t for t, _ in ladder])
        design = np.stack([np.ones_like(ts), ts], axis=1)
        # intercept weights of the least-squares line fit
        w0 = (np.linalg.pinv(design.T @ design) @ design.T)[0]

    stops = tuple(float(r) for r in radii)
    chunks = simulate(model, spec, {"probe": lambda paths: _ProbeChunk(
        paths.stop - paths.start, snap_idx, spec.x0, xis, stops, ladder, w0)},
        stop_radius=max(stops)).observed["probe"]
    for r, s in enumerate(per_radius):
        frozen = sum(int(exits[r]) for exits, _ in chunks)
        if frozen >= EXIT_FRACTION_LIMIT * n:
            raise ProbeImmediateExitError(
                f"{frozen} of {n} paths left the radius-{s.k_radius} ball in the "
                "first step; increase k_radius or shrink dt")

    analytic = [complex(eval_symbol(model, x, xi)) for xi in xis]
    reports = {}
    for r, s in enumerate(per_radius):
        reports[s.k_radius] = []
        for i, (xi, a) in enumerate(zip(xis, analytic)):
            estimates, stderrs = [], []
            for rung, (t, _) in enumerate(ladder):
                mean, se = _merged([m[r][i][0][rung] for _, m in chunks])
                estimates.append(complex(-(mean - 1.0) / t))
                stderrs.append(se / t)
            if w0 is not None:
                mean, extrapolated_stderr = _merged([m[r][i][1] for _, m in chunks])
                extrapolated = complex(mean)
            else:
                extrapolated, extrapolated_stderr = estimates[-1], stderrs[-1]
            abs_err = abs(extrapolated - a)
            reports[s.k_radius].append(SymbolReport(
                x=x, xi=xi, analytic=a, t_ladder=tuple(t for t, _ in ladder),
                estimates=estimates, stderrs=stderrs,
                extrapolated=extrapolated, extrapolated_stderr=extrapolated_stderr,
                abs_error=abs_err,
                rel_error=abs_err / abs(a) if abs(a) > 1e-8 else None,
                low_confidence=extrapolated_stderr > abs(extrapolated),
                settings=s, dt=sampler.dt,
            ))
    return reports


def estimate_symbol(sampler: PathSampler, x, xi, settings: ProbeSettings) -> SymbolReport:
    """Estimate p(x, xi) from stopped small-time increments, with the
    exit radius ``settings.k_radius``; see ``estimate_symbol_grid``."""
    radius = settings.k_radius
    return estimate_symbol_grid(sampler, x, [xi], [radius], settings)[radius][0]


@dataclass
class IndependenceReport:
    radii: tuple[float, ...]
    reports: list[SymbolReport]
    max_pair_z: float
    consistent: bool

    @classmethod
    def from_reports(cls, reports: list[SymbolReport]) -> "IndependenceReport":
        """Estimates of one (x, xi) at several radii must agree pairwise
        within 3 combined standard errors."""
        max_z = 0.0
        for i in range(len(reports)):
            for j in range(i + 1, len(reports)):
                se = math.hypot(reports[i].extrapolated_stderr,
                                reports[j].extrapolated_stderr)
                diff = abs(reports[i].extrapolated - reports[j].extrapolated)
                if se > 0:
                    max_z = max(max_z, diff / se)
                elif diff > 0:
                    max_z = math.inf
        return cls(radii=tuple(r.settings.k_radius for r in reports), reports=reports,
                   max_pair_z=max_z, consistent=max_z <= 3.0)

    def to_json(self) -> dict:
        return {
            "radii": list(self.radii),
            "reports": [r.to_json() for r in self.reports],
            "max_pair_z": self.max_pair_z,
            "consistent": self.consistent,
        }


def symbol_independence_check(sampler: PathSampler, x, xi, radii,
                              settings: ProbeSettings | None = None) -> IndependenceReport:
    """Probe the same (x, xi) with several exit-ball radii from one
    simulation; estimates must agree pairwise within 3 combined
    standard errors."""
    radii = tuple(float(r) for r in radii)
    base = settings if settings is not None else ProbeSettings()
    grid = estimate_symbol_grid(sampler, x, [xi], radii, base)
    return IndependenceReport.from_reports([grid[r][0] for r in radii])


def write_grid_csv(path, reports: list[SymbolReport]) -> None:
    """Flat CSV table of probe results over a frequency grid."""
    rows = []
    for r in reports:
        rows.append(list(np.atleast_1d(r.x)) + list(np.atleast_1d(r.xi)) + [
            r.analytic.real if r.analytic is not None else float("nan"),
            r.analytic.imag if r.analytic is not None else float("nan"),
            r.extrapolated.real, r.extrapolated.imag,
            r.extrapolated_stderr,
            r.rel_error if r.rel_error is not None else float("nan"),
        ])
    d = len(np.atleast_1d(reports[0].x))
    header = [f"x{i+1}" for i in range(d)] + [f"xi{i+1}" for i in range(d)] + [
        "analytic_re", "analytic_im", "estimate_re", "estimate_im", "stderr", "rel_error"]
    write_csv(path, header, rows)
