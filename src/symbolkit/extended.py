"""Extended state space: R^d plus the two absorbing cemetery points.

The point ``Delta`` is reached by a sudden jump and is absorbing.  The
point ``Infinity`` is reached by explosion (announced by the path norm
blowing up) and may only be followed by ``Infinity`` or ``Delta``.
Arithmetic follows fixed rules: adding a finite vector to a cemetery
point leaves it unchanged, Delta dominates Infinity under addition,
scaling by zero collapses a cemetery point to the origin, and both
cemetery points have norm +infinity.  ``Infinity + Infinity`` is left
undefined and raises.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "PointKind",
    "ExtPoint",
    "Path",
    "KillingTimes",
    "UndefinedExtendedOperation",
    "PathInvariantError",
    "ext_add",
    "ext_scale",
    "ext_norm",
    "e_xi",
    "classify_killing",
    "STATUS_FINITE",
    "STATUS_INFINITY",
    "STATUS_DELTA",
]

# integer status codes used in vectorised path storage
STATUS_FINITE = 0
STATUS_INFINITY = 1
STATUS_DELTA = 2

_STATUS_FLAGS = {STATUS_FINITE: "F", STATUS_INFINITY: "INF", STATUS_DELTA: "DELTA"}
_FLAG_STATUS = {v: k for k, v in _STATUS_FLAGS.items()}


class PointKind(Enum):
    FINITE = "finite"
    INFINITY = "infinity"
    DELTA = "delta"


class UndefinedExtendedOperation(ArithmeticError):
    """Operation outside the defined arithmetic tables (infinity + infinity)."""


class PathInvariantError(ValueError):
    """A trajectory violates the absorbing-state structure."""


class ExtPoint:
    """A point of R^d extended by the cemetery points."""

    __slots__ = ("kind", "value", "dim")

    def __init__(self, kind: PointKind, value: np.ndarray | None, dim: int):
        self.kind = kind
        self.value = value
        self.dim = dim

    @staticmethod
    def finite(vec) -> "ExtPoint":
        v = np.atleast_1d(np.asarray(vec, dtype=float))
        if v.ndim != 1:
            raise ValueError("finite point must be a vector")
        if np.any(np.isnan(v)):
            raise ValueError("finite point must not contain NaN")
        return ExtPoint(PointKind.FINITE, v, v.shape[0])

    @staticmethod
    def infinity(dim: int = 1) -> "ExtPoint":
        return ExtPoint(PointKind.INFINITY, None, dim)

    @staticmethod
    def delta(dim: int = 1) -> "ExtPoint":
        return ExtPoint(PointKind.DELTA, None, dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtPoint):
            return NotImplemented
        if self.kind is not other.kind:
            return False
        if self.kind is PointKind.FINITE:
            return self.value.shape == other.value.shape and bool(
                np.all(self.value == other.value)
            )
        return True

    def __hash__(self):
        if self.kind is PointKind.FINITE:
            return hash((self.kind, self.value.tobytes()))
        return hash(self.kind)

    def __repr__(self) -> str:
        if self.kind is PointKind.FINITE:
            return f"ExtPoint.finite({self.value.tolist()})"
        return f"ExtPoint.{self.kind.value}(dim={self.dim})"


def _coerce(q) -> ExtPoint:
    if isinstance(q, ExtPoint):
        return q
    return ExtPoint.finite(q)


def ext_add(p: ExtPoint, q) -> ExtPoint:
    """Extended addition.  Delta absorbs everything; a finite shift of
    Infinity stays Infinity; Infinity + Infinity is undefined."""
    q = _coerce(q)
    if p.kind is PointKind.DELTA or q.kind is PointKind.DELTA:
        return ExtPoint.delta(max(p.dim, q.dim))
    if p.kind is PointKind.INFINITY and q.kind is PointKind.INFINITY:
        raise UndefinedExtendedOperation("infinity + infinity is undefined")
    if p.kind is PointKind.INFINITY or q.kind is PointKind.INFINITY:
        return ExtPoint.infinity(max(p.dim, q.dim))
    if p.value.shape != q.value.shape:
        raise ValueError("dimension mismatch in extended addition")
    return ExtPoint.finite(p.value + q.value)


def ext_scale(p: ExtPoint, r: float) -> ExtPoint:
    """Extended scalar multiplication; scaling by exactly zero maps the
    cemetery points to the finite origin."""
    r = float(r)
    if p.kind is PointKind.FINITE:
        return ExtPoint.finite(p.value * r)
    if r == 0.0:
        return ExtPoint.finite(np.zeros(p.dim))
    return ExtPoint(p.kind, None, p.dim)


def ext_norm(p: ExtPoint) -> float:
    """Euclidean norm, with norm(+infinity point) = norm(Delta) = inf."""
    if p.kind is PointKind.FINITE:
        return float(np.linalg.norm(p.value))
    return math.inf


def e_xi(p: ExtPoint, xi) -> complex:
    """exp(i <x, xi>) on finite states, 0 on the cemetery points."""
    if p.kind is not PointKind.FINITE:
        return 0.0 + 0.0j
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(np.exp(1j * float(np.dot(p.value, xi))))


@dataclass(frozen=True)
class KillingTimes:
    """Classified killing data of one trajectory.

    ``zeta_partial`` is the first time the path leaves R^d; it splits
    into ``zeta_delta`` (sudden killing) and ``zeta_infty`` (explosion),
    at most one of which is finite.  ``sigma_prime[n]`` is the first
    time the path norm reaches level n, ``alpha[n]`` the pre-explosion
    sequence min(sigma[n], n, zeta_delta).
    """

    zeta_partial: float
    zeta_delta: float
    zeta_infty: float
    sigma_prime: dict[int, float] = field(default_factory=dict)
    sigma: dict[int, float] = field(default_factory=dict)
    alpha: dict[int, float] = field(default_factory=dict)


class Path:
    """A discretely sampled trajectory on the extended state space.

    Stored columnar: ``times`` (m,), ``values`` (m, d) with NaN rows at
    cemetery states, ``status`` (m,) with codes 0=finite, 1=infinity,
    2=delta.
    """

    def __init__(self, times, values, status, dt: float | None = None,
                 annotations: KillingTimes | None = None, validate: bool = True):
        self.times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self.values = values
        self.status = np.asarray(status, dtype=np.int8)
        self.dt = float(dt) if dt is not None else float(np.median(np.diff(self.times)))
        self.annotations = annotations
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]

    def validate(self) -> None:
        m = len(self)
        if self.values.shape[0] != m or self.status.shape[0] != m:
            raise PathInvariantError("times/values/status length mismatch")
        if m == 0:
            raise PathInvariantError("empty path")
        if self.times[0] != 0.0:
            raise PathInvariantError("paths start at t=0")
        if np.any(np.diff(self.times) <= 0):
            raise PathInvariantError("times must be strictly increasing")
        st = self.status
        for i in range(1, m):
            if st[i - 1] == STATUS_DELTA and st[i] != STATUS_DELTA:
                raise PathInvariantError(f"state after Delta at index {i} is not Delta")
            if st[i - 1] == STATUS_INFINITY and st[i] == STATUS_FINITE:
                raise PathInvariantError(f"finite state after Infinity at index {i}")
        finite = st == STATUS_FINITE
        if np.any(np.isnan(self.values[finite])):
            raise PathInvariantError("NaN in a finite state")

    def norms(self) -> np.ndarray:
        """Per-sample path norm; +inf at cemetery states."""
        out = np.linalg.norm(self.values, axis=1)
        out[self.status != STATUS_FINITE] = np.inf
        return out

    # -- serialization -----------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time"] + [f"x{i + 1}" for i in range(self.dim)] + ["status"])
            for i in range(len(self)):
                row = [format(self.times[i], ".17g")]
                if self.status[i] == STATUS_FINITE:
                    row += [format(v, ".17g") for v in self.values[i]]
                else:
                    row += [""] * self.dim
                row.append(_STATUS_FLAGS[int(self.status[i])])
                w.writerow(row)

    @staticmethod
    def from_csv(path) -> "Path":
        times, values, status = [], [], []
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            d = len(header) - 2
            for row in r:
                times.append(float(row[0]))
                flag = row[-1]
                status.append(_FLAG_STATUS[flag])
                if flag == "F":
                    values.append([float(v) for v in row[1:1 + d]])
                else:
                    values.append([np.nan] * d)
        return Path(times, np.asarray(values), status)


def classify_killing(path: Path, n_max: int = 10) -> KillingTimes:
    """Classify a path's exit from R^d into sudden killing vs explosion.

    The level-hitting time sigma'_n is the first grid time where the
    current or previous state norm reaches n (grid left limits are the
    previous sample).  The exit time zeta_partial is attributed to
    sudden killing when some sigma'_n coincides with it, and to
    explosion when every computed sigma'_n strictly precedes it.
    """
    path.validate()
    norms = path.norms()
    times = path.times
    exit_idx = np.flatnonzero(path.status != STATUS_FINITE)
    zeta_partial = float(times[exit_idx[0]]) if exit_idx.size else math.inf

    prev = np.concatenate(([norms[0]], norms[:-1]))
    reach = np.maximum(norms, prev)

    sigma_prime: dict[int, float] = {}
    sigma: dict[int, float] = {}
    alpha: dict[int, float] = {}
    any_equal = False
    all_before = True
    for n in range(1, n_max + 1):
        hit = np.flatnonzero(reach >= n)
        sp = float(times[hit[0]]) if hit.size else math.inf
        sigma_prime[n] = sp
        if math.isfinite(zeta_partial):
            if sp == zeta_partial:
                any_equal = True
            if not sp < zeta_partial:
                all_before = False
        sigma[n] = sp if sp < zeta_partial else math.inf

    if not math.isfinite(zeta_partial):
        zeta_delta = math.inf
        zeta_infty = math.inf
    else:
        zeta_delta = zeta_partial if any_equal else math.inf
        zeta_infty = zeta_partial if all_before else math.inf

    for n in range(1, n_max + 1):
        tau_n = min(sigma[n], float(n))
        alpha[n] = min(tau_n, zeta_delta)

    return KillingTimes(
        zeta_partial=zeta_partial,
        zeta_delta=zeta_delta,
        zeta_infty=zeta_infty,
        sigma_prime=sigma_prime,
        sigma=sigma,
        alpha=alpha,
    )
