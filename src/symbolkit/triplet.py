"""Triplet data (killing rate, drift, covariance, jump measure, cut-off)
and evaluation of characteristic exponents and state-dependent symbols.

The exponent of a triplet (a, l, Q, N) relative to a cut-off chi is

    phi(xi) = a - i <l, xi> + 0.5 <xi, Q xi>
              - integral of (e^{i<y,xi>} - 1 - i<y,xi> chi(y)) N(dy).

Discrete measures evaluate the integral as an exact finite sum,
symmetric one-dimensional stable measures contribute the closed form
c |xi|^alpha, and density measures are integrated by adaptive
quadrature split at the cut-off radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .expr import Expression

__all__ = [
    "CutoffFunction",
    "LevyMeasure",
    "ZeroMeasure",
    "DiscreteMeasure",
    "StableMeasure",
    "DensityMeasure",
    "MeasureFamily",
    "ConstantMeasureFamily",
    "DiscreteMeasureFamily",
    "StableMeasureFamily",
    "LevyTriplet",
    "StateModel",
    "SdeBlock",
    "ConditionEstimate",
    "Coefficient",
    "QuadratureError",
    "SectorConditionError",
    "eval_exponent",
    "eval_symbol",
    "check_growth",
    "check_sector",
]

PSD_EIGENVALUE_FLOOR = -1e-12
SECTOR_REAL_FLOOR = 1e-12
SECTOR_IMAG_LEAK = 1e-9
QUAD_REL_TOL = 1e-8


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


class SectorConditionError(ValueError):
    """Raised when an operation requires the sector condition and the
    supplied estimate says it fails."""


# ---------------------------------------------------------------------------
# cut-off functions

@dataclass(frozen=True)
class CutoffFunction:
    """{0,1}-valued cut-off: indicator of a centered ball, or a product
    of per-coordinate interval indicators."""

    kind: str = "indicator_ball"  # or "product_indicator"
    radius: float = 1.0
    radii: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("indicator_ball", "product_indicator"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "indicator_ball" and not self.radius > 0:
            raise ValueError("cutoff radius must be positive")
        if self.kind == "product_indicator":
            if not self.radii or any(r <= 0 for r in self.radii):
                raise ValueError("product cutoff needs positive per-coordinate radii")

    def __call__(self, y) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if self.kind == "indicator_ball":
            out = (np.linalg.norm(y, axis=-1) <= self.radius).astype(float)
        else:
            radii = np.asarray(self.radii, dtype=float)
            out = np.all(np.abs(y) <= radii, axis=-1).astype(float)
        return out

    def scalar(self, y) -> float:
        return float(self(np.atleast_1d(y))[0])

    @property
    def support_radius(self) -> float:
        """Radius below which chi is identically 1 on the line (used to
        split quadrature domains for one-dimensional measures)."""
        if self.kind == "indicator_ball":
            return self.radius
        return min(self.radii)


# ---------------------------------------------------------------------------
# jump measures

def _sin_minus_theta(theta: float) -> float:
    """sin(theta) - theta without cancellation for small theta; the
    compensated integrand is O(theta^3) there."""
    if abs(theta) < 1e-3:
        t2 = theta * theta
        return -theta * t2 / 6.0 * (1.0 - t2 / 20.0)
    return math.sin(theta) - theta


class LevyMeasure:
    """Base class; subclasses implement the exponent integral

    I(xi) = integral (e^{i<y,xi>} - 1 - i<y,xi> chi(y)) N(dy),

    to be subtracted from the polynomial part of the exponent.
    """

    def exponent_term(self, xis: np.ndarray, cutoff: CutoffFunction) -> np.ndarray:
        raise NotImplementedError

    def is_symmetric(self) -> bool:
        raise NotImplementedError

    def validate(self, dim: int) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroMeasure(LevyMeasure):
    def exponent_term(self, xis, cutoff):
        xis = np.atleast_2d(xis)
        return np.zeros(xis.shape[0], dtype=complex)

    def is_symmetric(self):
        return True

    def validate(self, dim):
        pass


@dataclass(frozen=True)
class DiscreteMeasure(LevyMeasure):
    """Finitely many atoms (jump vector, rate)."""

    jumps: np.ndarray  # (K, d)
    rates: np.ndarray  # (K,)

    def __post_init__(self):
        object.__setattr__(self, "jumps", np.atleast_2d(np.asarray(self.jumps, dtype=float)))
        object.__setattr__(self, "rates", np.atleast_1d(np.asarray(self.rates, dtype=float)))
        if self.jumps.shape[0] != self.rates.shape[0]:
            raise ValueError("one rate per atom required")
        if np.any(self.rates <= 0):
            raise ValueError("atom rates must be positive")
        if np.any(np.linalg.norm(self.jumps, axis=1) == 0):
            raise ValueError("atoms at the origin are not allowed")

    def exponent_term(self, xis, cutoff):
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        theta = xis @ self.jumps.T                       # (N, K)
        chi = cutoff(self.jumps)                         # (K,)
        vals = np.exp(1j * theta) - 1.0 - 1j * theta * chi
        return vals @ self.rates.astype(complex)

    def is_symmetric(self):
        # symmetric iff atoms come in (+y, -y) pairs with equal rates
        items = {tuple(np.round(j, 12)): r for j, r in zip(self.jumps, self.rates)}
        for j, r in items.items():
            neg = tuple(-v for v in j)
            if neg not in items or not math.isclose(items[neg], r, rel_tol=1e-12):
                return False
        return True

    def validate(self, dim):
        if self.jumps.shape[1] != dim:
            raise ValueError("atom dimension mismatch")


@dataclass(frozen=True)
class StableMeasure(LevyMeasure):
    """Symmetric one-dimensional stable jump component with closed-form
    exponent contribution c |xi|^alpha (alpha in (0, 2], c > 0)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def exponent_term(self, xis, cutoff):
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        if xis.shape[1] != 1:
            raise ValueError("stable measures are one-dimensional")
        return (-self.scale * np.abs(xis[:, 0]) ** self.alpha).astype(complex)

    def is_symmetric(self):
        return True

    def validate(self, dim):
        if dim != 1:
            raise ValueError("stable measures are one-dimensional")


class DensityMeasure(LevyMeasure):
    """One-dimensional measure with density level(y) on the truncated
    support eps <= |y| <= y_max.

    Construction integrates (1 ∧ y^2) level(y) to certify finiteness,
    tabulates the jump-size CDF for sampling, and fits a local power law
    at the lower truncation to bound the exponent mass that the
    truncation discards (reported, never silently dropped).
    """

    def __init__(self, density, eps: float, y_max: float):
        if not (0 < eps < y_max):
            raise ValueError("need 0 < eps < y_max")
        if isinstance(density, Expression):
            fn = lambda y: float(density.evaluate(np.array([y])))
        elif callable(density):
            fn = density
        else:
            raise TypeError("density must be an Expression or callable")
        self.density = fn
        self.eps = float(eps)
        self.y_max = float(y_max)
        self._validate_density()
        self._build_tables()

    def _validate_density(self):
        probes = np.concatenate([
            -np.geomspace(self.eps, self.y_max, 31),
            np.geomspace(self.eps, self.y_max, 31),
        ])
        vals = np.array([self.density(float(y)) for y in probes])
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("density must be finite and non-negative on its support")
        total, err = _quad_two_sided(lambda y: min(1.0, y * y) * self.density(y),
                                     self.eps, self.y_max)
        if not math.isfinite(total):
            raise ValueError("density fails the (1 ^ y^2) integrability check")
        self.second_moment_check = total
        self.quad_check_error = err

    def _build_tables(self):
        n = 2048
        grid = np.geomspace(self.eps, self.y_max, n)
        pos = np.array([self.density(float(y)) for y in grid])
        neg = np.array([self.density(float(-y)) for y in grid])
        self._grid = grid
        total_pos = np.trapezoid(pos, grid)
        total_neg = np.trapezoid(neg, grid)
        self.total_rate = total_pos + total_neg
        # signed support laid out [-y_max .. -eps] ++ [eps .. y_max]
        ys = np.concatenate([-grid[::-1], grid])
        dens = np.concatenate([neg[::-1], pos])
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(ys)
        )])
        # the gap (-eps, eps) carries no mass; fix the plateau by
        # subtracting the spurious trapezoid across the gap
        mid = len(grid)
        gap = 0.5 * (dens[mid - 1] + dens[mid]) * (ys[mid] - ys[mid - 1])
        cdf[mid:] -= gap
        self._cdf_ys = ys
        self._cdf = cdf / cdf[-1]
        # local power-law fit lambda(y) ~ C |y|^-(1+alpha) near eps,
        # used for the truncated small-jump second moment bound
        y1, y2 = self.eps, min(2 * self.eps, self.y_max)
        d1 = 0.5 * (self.density(y1) + self.density(-y1))
        d2 = 0.5 * (self.density(y2) + self.density(-y2))
        if d1 > 0 and d2 > 0 and y2 > y1:
            slope = math.log(d2 / d1) / math.log(y2 / y1)
            alpha_hat = max(0.0, -slope - 1.0)
        else:
            alpha_hat = 0.0
        self.alpha_hat = alpha_hat
        c_hat = 2 * d1 * self.eps ** (1.0 + alpha_hat)
        if alpha_hat < 2.0:
            self.small_mass_second_moment = c_hat * self.eps ** (2.0 - alpha_hat) / (2.0 - alpha_hat)
        else:
            self.small_mass_second_moment = math.inf

    def truncation_bias_bound(self, xi) -> float:
        """Bound on |exponent error| from the mass discarded below the
        support truncation, 0.5 |xi|^2 * (extrapolated second moment)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return 0.5 * float(xi[0] ** 2) * self.small_mass_second_moment

    def second_moment_band(self, lo: float, hi: float) -> float:
        """integral of y^2 level(y) over lo <= |y| <= hi."""
        lo = max(lo, self.eps)
        hi = min(hi, self.y_max)
        if hi <= lo:
            return 0.0
        val, _ = _quad_two_sided(lambda y: y * y * self.density(y), lo, hi)
        return val

    def rate_above(self, cut: float) -> float:
        cut = max(cut, self.eps)
        if cut >= self.y_max:
            return 0.0
        val, _ = _quad_two_sided(self.density, cut, self.y_max)
        return val

    def mean_band(self, lo: float, hi: float) -> float:
        """integral of y level(y) over lo <= |y| <= hi (signed)."""
        lo = max(lo, self.eps)
        hi = min(hi, self.y_max)
        if hi <= lo:
            return 0.0
        plus, _ = integrate.quad(lambda y: y * self.density(y), lo, hi, limit=200)
        minus, _ = integrate.quad(lambda y: y * self.density(y), -hi, -lo, limit=200)
        return plus + minus

    def sample_sizes(self, n: int, rng: np.random.Generator, cut: float | None = None) -> np.ndarray:
        """Draw n jump sizes by inverse CDF, optionally restricted to
        |y| >= cut."""
        if cut is None or cut <= self.eps:
            u = rng.random(n)
            return np.interp(u, self._cdf, self._cdf_ys)
        ys = self._cdf_ys
        # renormalise the tabulated CDF to the restricted support
        lo_mass = np.interp(-cut, ys, self._cdf)
        hi_mass = 1.0 - np.interp(cut, ys, self._cdf)
        total = lo_mass + hi_mass
        u = rng.random(n) * total
        left = u < lo_mass
        out = np.empty(n)
        out[left] = np.interp(u[left], self._cdf, ys)
        out[~left] = np.interp(u[~left] - lo_mass + np.interp(cut, ys, self._cdf), self._cdf, ys)
        return out

    def exponent_term(self, xis, cutoff):
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        if xis.shape[1] != 1:
            raise ValueError("density measures are one-dimensional")
        out = np.empty(xis.shape[0], dtype=complex)
        cache: dict[float, complex] = {}
        for i, xi in enumerate(xis[:, 0]):
            key = float(xi)
            if key not in cache:
                cache[key] = self._exponent_scalar(key, cutoff)
            out[i] = cache[key]
        return out

    def _exponent_scalar(self, xi: float, cutoff: CutoffFunction) -> complex:
        if xi == 0.0:
            return 0.0 + 0.0j
        r = cutoff.support_radius
        pieces = []
        # compensated region |y| <= r, uncompensated beyond
        comp_hi = min(r, self.y_max)
        if comp_hi > self.eps:
            pieces.append((self.eps, comp_hi, True))
        if self.y_max > r:
            pieces.append((max(r, self.eps), self.y_max, False))
        total = 0.0 + 0.0j
        err = 0.0
        for lo, hi, compensated in pieces:
            for sign in (1.0, -1.0):
                if compensated:
                    f_re = lambda y: (-2.0 * math.sin(sign * y * xi / 2.0) ** 2) * self.density(sign * y)
                    f_im = lambda y: _sin_minus_theta(sign * y * xi) * self.density(sign * y)
                else:
                    f_re = lambda y: (math.cos(sign * y * xi) - 1.0) * self.density(sign * y)
                    f_im = lambda y: math.sin(sign * y * xi) * self.density(sign * y)
                re, e1 = integrate.quad(f_re, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-10)
                im, e2 = integrate.quad(f_im, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-10)
                total += re + 1j * im
                err += e1 + e2
        if err > max(QUAD_REL_TOL * abs(total), 1e-11):
            raise QuadratureError("exponent quadrature did not converge",
                                  err / max(abs(total), 1e-300))
        return total

    def is_symmetric(self):
        probes = np.geomspace(self.eps, self.y_max, 17)
        return all(math.isclose(self.density(float(y)), self.density(float(-y)),
                                rel_tol=1e-9, abs_tol=1e-12) for y in probes)

    def validate(self, dim):
        if dim != 1:
            raise ValueError("density measures are one-dimensional")


def _quad_two_sided(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    plus, e1 = integrate.quad(f, lo, hi, limit=200)
    minus, e2 = integrate.quad(lambda y: f(-y), lo, hi, limit=200)
    return plus + minus, e1 + e2


# ---------------------------------------------------------------------------
# coefficient functions (constant or expression-backed)

class Coefficient:
    """Scalar coefficient of the state, broadcasting over (n, d) batches."""

    def __init__(self, spec, dim: int):
        self.dim = dim
        if isinstance(spec, Expression):
            self.expr: Expression | None = spec
            self.value = None
        else:
            self.expr = None
            self.value = float(spec)

    @property
    def is_constant(self) -> bool:
        return self.expr is None

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.is_constant:
            return np.full(xs.shape[0], self.value)
        return np.broadcast_to(np.asarray(self.expr.evaluate(xs), dtype=float),
                               (xs.shape[0],)).copy()

    def lenient(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.is_constant:
            return np.full(xs.shape[0], self.value)
        return np.broadcast_to(np.asarray(self.expr.evaluate_lenient(xs), dtype=float),
                               (xs.shape[0],)).copy()


class VectorCoefficient:
    def __init__(self, specs: Sequence, dim: int):
        self.parts = [Coefficient(s, dim) for s in specs]
        self.dim = dim
        if len(self.parts) != dim:
            raise ValueError("drift needs one entry per coordinate")

    @property
    def is_constant(self) -> bool:
        return all(p.is_constant for p in self.parts)

    def constant_value(self) -> np.ndarray:
        return np.array([p.value for p in self.parts])

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.stack([p(xs) for p in self.parts], axis=-1)

    def lenient(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return np.stack([p.lenient(xs) for p in self.parts], axis=-1)


class MatrixCoefficient:
    def __init__(self, specs: Sequence[Sequence], dim: int):
        self.rows = [[Coefficient(s, dim) for s in row] for row in specs]
        self.dim = dim
        if len(self.rows) != dim or any(len(r) != dim for r in self.rows):
            raise ValueError("covariance must be d x d")

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for row in self.rows for c in row)

    def constant_value(self) -> np.ndarray:
        return np.array([[c.value for c in row] for row in self.rows])

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        cols = [np.stack([c(xs) for c in row], axis=-1) for row in self.rows]
        return np.stack(cols, axis=-2)

    def lenient(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        cols = [np.stack([c.lenient(xs) for c in row], axis=-1) for row in self.rows]
        return np.stack(cols, axis=-2)


# ---------------------------------------------------------------------------
# measure families (possibly state dependent)

class MeasureFamily:
    def at(self, x: np.ndarray) -> LevyMeasure:
        raise NotImplementedError

    def exponent_term_many(self, xs: np.ndarray, xis: np.ndarray,
                           cutoff: CutoffFunction) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantMeasureFamily(MeasureFamily):
    measure: LevyMeasure

    def at(self, x):
        return self.measure

    def exponent_term_many(self, xs, xis, cutoff):
        return self.measure.exponent_term(xis, cutoff)

    @property
    def is_constant(self):
        return True


class DiscreteMeasureFamily(MeasureFamily):
    """Fixed atom locations with state-dependent rates."""

    def __init__(self, jumps, rate_specs: Sequence, dim: int):
        self.jumps = np.atleast_2d(np.asarray(jumps, dtype=float))
        self.rate_coeffs = [Coefficient(s, dim) for s in rate_specs]
        if self.jumps.shape[0] != len(self.rate_coeffs):
            raise ValueError("one rate per atom required")

    def at(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rates = np.array([c(x[None, :])[0] for c in self.rate_coeffs])
        return DiscreteMeasure(self.jumps, rates)

    def rates_many(self, xs: np.ndarray) -> np.ndarray:
        return np.stack([c(xs) for c in self.rate_coeffs], axis=-1)

    def rates_many_lenient(self, xs: np.ndarray) -> np.ndarray:
        return np.stack([c.lenient(xs) for c in self.rate_coeffs], axis=-1)

    def exponent_term_many(self, xs, xis, cutoff):
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        theta = xis @ self.jumps.T
        chi = cutoff(self.jumps)
        vals = np.exp(1j * theta) - 1.0 - 1j * theta * chi   # (N, K)
        rates = self.rates_many(np.atleast_2d(xs))           # (N, K)
        return np.sum(vals * rates, axis=1)

    @property
    def is_constant(self):
        return all(c.is_constant for c in self.rate_coeffs)


class StableMeasureFamily(MeasureFamily):
    """Symmetric 1-d stable component with state-dependent order/scale."""

    def __init__(self, alpha_spec, scale_spec, dim: int):
        self.alpha_coeff = Coefficient(alpha_spec, dim)
        self.scale_coeff = Coefficient(scale_spec, dim)

    def at(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
        return StableMeasure(float(self.alpha_coeff(x)[0]), float(self.scale_coeff(x)[0]))

    def exponent_term_many(self, xs, xis, cutoff):
        xs = np.atleast_2d(xs)
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        alpha = self.alpha_coeff(xs)
        scale = self.scale_coeff(xs)
        if np.any(alpha <= 0) or np.any(alpha > 2):
            raise ValueError("stable order must stay in (0, 2] on the evaluation set")
        absxi = np.abs(xis[:, 0])
        with np.errstate(divide="ignore"):
            out = np.where(absxi > 0, scale * absxi ** alpha, 0.0)
        return (-out).astype(complex)

    @property
    def is_constant(self):
        return self.alpha_coeff.is_constant and self.scale_coeff.is_constant


# ---------------------------------------------------------------------------
# triplet and state model

@dataclass(frozen=True)
class LevyTriplet:
    """Constant characteristic data (a, l, Q, N, chi)."""

    killing_rate: float
    drift: np.ndarray
    covariance: np.ndarray
    measure: LevyMeasure
    cutoff: CutoffFunction = field(default_factory=CutoffFunction)

    def __post_init__(self):
        object.__setattr__(self, "drift", np.atleast_1d(np.asarray(self.drift, dtype=float)))
        q = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "covariance", q)
        if self.killing_rate < 0:
            raise ValueError("killing rate must be non-negative")
        if q.shape[0] != q.shape[1] or q.shape[0] != self.drift.shape[0]:
            raise ValueError("covariance must be d x d matching the drift")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(q).min() < PSD_EIGENVALUE_FLOOR:
            raise ValueError("covariance must be positive semidefinite")
        self.measure.validate(self.dim)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def exponent_many(self, xis: np.ndarray) -> np.ndarray:
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        poly = (self.killing_rate
                - 1j * (xis @ self.drift)
                + 0.5 * np.einsum("ni,ij,nj->n", xis, self.covariance, xis))
        return poly - self.measure.exponent_term(xis, self.cutoff)

    def cholesky(self, jitter: float = 1e-10) -> np.ndarray:
        """Covariance factor for simulation; adds diagonal jitter up to
        ``jitter`` if the matrix is singular to rounding."""
        q = self.covariance
        if np.allclose(q, 0.0):
            return np.zeros_like(q)
        try:
            return np.linalg.cholesky(q)
        except np.linalg.LinAlgError:
            return np.linalg.cholesky(q + jitter * np.eye(q.shape[0]))


@dataclass(frozen=True)
class SdeBlock:
    """One-dimensional state coefficient applied to a driving process."""

    coefficient: Coefficient
    driver: LevyTriplet


class StateModel:
    """State-dependent characteristic data over a rectangular domain box.

    Evaluating at a point of the box yields a valid LevyTriplet; the
    vectorised ``symbol_many`` evaluates the frozen-coefficient symbol
    over batches of (state, frequency) pairs.
    """

    def __init__(self, dim: int, kill: Coefficient, drift: VectorCoefficient,
                 covariance: MatrixCoefficient, measures: MeasureFamily,
                 cutoff: CutoffFunction, domain_box: np.ndarray,
                 sde: SdeBlock | None = None, name: str = "model"):
        self.dim = dim
        self.kill = kill
        self.drift = drift
        self.covariance = covariance
        self.measures = measures
        self.cutoff = cutoff
        self.domain_box = np.atleast_2d(np.asarray(domain_box, dtype=float))
        self.sde = sde
        self.name = name
        if self.domain_box.shape != (dim, 2):
            raise ValueError("domain box must be (d, 2)")

    @staticmethod
    def from_triplet(triplet: LevyTriplet, domain_box=None, name: str = "levy") -> "StateModel":
        d = triplet.dim
        if domain_box is None:
            domain_box = np.tile([-10.0, 10.0], (d, 1))
        return StateModel(
            dim=d,
            kill=Coefficient(triplet.killing_rate, d),
            drift=VectorCoefficient(list(triplet.drift), d),
            covariance=MatrixCoefficient(triplet.covariance.tolist(), d),
            measures=ConstantMeasureFamily(triplet.measure),
            cutoff=triplet.cutoff,
            domain_box=domain_box,
            name=name,
        )

    @property
    def is_constant(self) -> bool:
        if self.sde is not None:
            return False
        return (self.kill.is_constant and self.drift.is_constant
                and self.covariance.is_constant and self.measures.is_constant)

    def triplet_at(self, x) -> LevyTriplet:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs = x[None, :]
        return LevyTriplet(
            killing_rate=float(self.kill(xs)[0]),
            drift=self.drift(xs)[0],
            covariance=self.covariance(xs)[0],
            measure=self.measures.at(x),
            cutoff=self.cutoff,
        )

    def constant_triplet(self) -> LevyTriplet:
        if not (self.kill.is_constant and self.drift.is_constant
                and self.covariance.is_constant and self.measures.is_constant):
            raise ValueError("model is state dependent")
        return self.triplet_at(np.zeros(self.dim))

    def symbol_many(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """Frozen-coefficient symbol p(x, xi) over batched inputs
        (both (N, d)); includes the killing rate."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        if self.sde is not None:
            f = self.sde.coefficient(xs)                      # (N,)
            eff = f[:, None] * xis
            return self.sde.driver.exponent_many(eff)
        a = self.kill(xs)
        ell = self.drift(xs)
        q = self.covariance(xs)
        poly = (a
                - 1j * np.einsum("nd,nd->n", ell, xis)
                + 0.5 * np.einsum("ni,nij,nj->n", xis, q, xis))
        return poly - self.measures.exponent_term_many(xs, xis, self.cutoff)


# ---------------------------------------------------------------------------
# operations

def eval_exponent(triplet: LevyTriplet, xi) -> complex:
    """Killing-inclusive characteristic exponent at a single frequency."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(xi)):
        raise ValueError("frequency must be finite")
    return complex(triplet.exponent_many(xi[None, :])[0])


def eval_symbol(model: StateModel, x, xi) -> complex:
    """Symbol p(x, xi) of a state model at one (state, frequency) pair."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(model.symbol_many(x[None, :], xi[None, :])[0])


@dataclass(frozen=True)
class ConditionEstimate:
    """Grid estimate of a symbol-bound constant: the supremum of the
    defining ratio over the supplied grids."""

    constant: float
    witnessed_at: tuple[np.ndarray, np.ndarray]
    satisfied: bool
    grid_spec: dict

    def to_json(self) -> dict:
        return {
            "constant": self.constant,
            "witness_x": list(map(float, np.atleast_1d(self.witnessed_at[0]))),
            "witness_xi": list(map(float, np.atleast_1d(self.witnessed_at[1]))),
            "satisfied": self.satisfied,
            "grid_spec": self.grid_spec,
        }


def _pairs(x_grid, xi_grid, dim):
    xg = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if xg.shape[1] != dim:
        xg = xg.reshape(-1, dim)
    kg = np.atleast_2d(np.asarray(xi_grid, dtype=float))
    if kg.shape[1] != dim:
        kg = kg.reshape(-1, dim)
    xs = np.repeat(xg, kg.shape[0], axis=0)
    xis = np.tile(kg, (xg.shape[0], 1))
    return xg, kg, xs, xis


def check_growth(model: StateModel, x_grid, xi_grid) -> ConditionEstimate:
    """Estimate the constant in |p(x, xi)| <= c (1 + |xi|^2) as a grid
    supremum of the ratio.  Finiteness over the grid always holds, so
    the estimate is reported with satisfied=True."""
    xg, kg, xs, xis = _pairs(x_grid, xi_grid, model.dim)
    if xg.size == 0 or kg.size == 0:
        raise ValueError("grids must be nonempty")
    vals = model.symbol_many(xs, xis)
    ratio = np.abs(vals) / (1.0 + np.einsum("nd,nd->n", xis, xis))
    k = int(np.argmax(ratio))
    return ConditionEstimate(
        constant=float(ratio[k]),
        witnessed_at=(xs[k], xis[k]),
        satisfied=True,
        grid_spec={"n_x": int(xg.shape[0]), "n_xi": int(kg.shape[0])},
    )


def check_sector(model: StateModel, x_grid, xi_grid) -> ConditionEstimate:
    """Estimate the constant in |Im p| <= c0 Re p over the grids.

    Points with Re p at numerical zero but non-negligible Im p witness a
    failure and set satisfied=False.
    """
    xg, kg, xs, xis = _pairs(x_grid, xi_grid, model.dim)
    if xg.size == 0 or kg.size == 0:
        raise ValueError("grids must be nonempty")
    vals = model.symbol_many(xs, xis)
    re, im = vals.real, np.abs(vals.imag)
    ok = re > SECTOR_REAL_FLOOR
    violated = (~ok) & (im > SECTOR_IMAG_LEAK)
    if np.any(ok):
        ratio = np.where(ok, im / np.where(ok, re, 1.0), -np.inf)
        k = int(np.argmax(ratio))
        c0 = float(ratio[k])
        witness = (xs[k], xis[k])
    else:
        c0 = 0.0
        witness = (xs[0], xis[0])
    if np.any(violated):
        k = int(np.argmax(violated))
        witness = (xs[k], xis[k])
    return ConditionEstimate(
        constant=c0,
        witnessed_at=witness,
        satisfied=not bool(np.any(violated)),
        grid_spec={"n_x": int(xg.shape[0]), "n_xi": int(kg.shape[0])},
    )
