"""Triplet data (killing rate, drift, covariance, jump measure, cut-off)
and evaluation of characteristic exponents and state-dependent symbols.

The exponent of a triplet (a, l, Q, N) relative to a cut-off chi is

    phi(xi) = a - i <l, xi> + 0.5 <xi, Q xi>
              - integral of (e^{i<y,xi>} - 1 - i<y,xi> chi(y)) N(dy).

Discrete measures evaluate the integral as an exact finite sum, and
symmetric one-dimensional stable measures contribute the closed form
c |xi|^alpha.  Density measures fold the two sides of the support onto
eps <= y <= y_max and integrate every distinct frequency of a call at
once with one adaptive composite Gauss–Kronrod (7–15) rule on log-spaced
panels, split at the cut-off radius (relative tolerance QUAD_REL_TOL;
QuadratureError with the achieved error when the panel cap is reached).
Their moments (jump rate, second moment, mean over a band) use the same
rule.

Every measure and measure family also owns its simulation draws
(``jump_sampler``); each docstring records the streams drawn per step.
State-dependent coefficients are read through ``CoefficientValues``, the
values of a model's coefficients at one batch of states: the simulation
kernel evaluates them once per step and hands the same values to the
jump samplers and to the symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import Expression

__all__ = [
    "CutoffFunction",
    "LevyMeasure",
    "ZeroMeasure",
    "DiscreteMeasure",
    "StableMeasure",
    "DensityMeasure",
    "JumpSampler",
    "MeasureFamily",
    "ConstantMeasureFamily",
    "DiscreteMeasureFamily",
    "StableMeasureFamily",
    "LevyTriplet",
    "StateModel",
    "SdeBlock",
    "ConditionEstimate",
    "Coefficient",
    "CoefficientValues",
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

def _sin_minus_chi_theta(theta: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """sin(theta) - chi theta for chi in {0, 1}, without cancellation
    where chi = 1 and theta is small; the compensated integrand is
    O(theta^3) there.  Below |theta| = 0.5 the Taylor series through
    theta^13 is accurate to about 1e-15 relative, where the direct
    difference loses 6 eps / theta^2."""
    t2 = theta * theta
    series = -theta * t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0 * (
        1.0 - t2 / 72.0 * (1.0 - t2 / 110.0 * (1.0 - t2 / 156.0)))))
    return np.where(chi & (np.abs(theta) < 0.5), series, np.sin(theta) - chi * theta)


@dataclass(frozen=True)
class JumpSampler:
    """A measure's jumps as one simulation draws them.

    ``for_chunk(n)`` makes the step function of one chunk of n paths,
    with scratch buffers that belong to that chunk alone: ``add(inc,
    values, dt, rngs)`` adds one step's jumps into the (n, d) array inc,
    in place, on top of the drift and Gaussian part, at the states whose
    coefficient values are ``values`` (``CoefficientValues``); it draws
    from the named streams in rngs and writes NaN rows for paths whose
    coefficients fail.  ``drift`` is the constant part of the
    compensator, summed with l before the product with dt;
    ``bias_notes`` describe the approximations made."""

    for_chunk: Callable[[int], Callable[[np.ndarray, "CoefficientValues", float, dict], None]]
    drift: float | np.ndarray = 0.0
    bias_notes: dict = field(default_factory=dict)


def _no_jumps(inc, values, dt, rngs):
    pass


class LevyMeasure:
    """Base class; subclasses implement the exponent integral

    I(xi) = integral (e^{i<y,xi>} - 1 - i<y,xi> chi(y)) N(dy),

    to be subtracted from the polynomial part of the exponent, and the
    JumpSampler of a run with cut-off chi, Gaussian covariance trace
    q_trace (d if state dependent) and an optional small-jump cut.
    """

    def exponent_term(self, xis: np.ndarray, cutoff: CutoffFunction) -> np.ndarray:
        raise NotImplementedError

    def jump_sampler(self, cutoff: CutoffFunction, q_trace: float,
                     small_jump_cut: float | None) -> JumpSampler:
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

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """No jumps and no draws."""
        return JumpSampler(lambda n: _no_jumps)

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

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """Per step, Poisson counts of shape (n, K), one column per atom,
        from the ``jump`` stream.  The compensator -sum rate chi(y) y is
        the constant drift."""

        def chunk(n):
            jumps = np.empty((n, self.jumps.shape[1]))

            def add(inc, values, dt, rngs):
                counts = rngs["jump"].poisson(self.rates * dt, size=(n, len(self.rates)))
                inc += np.matmul(counts, self.jumps, out=jumps)

            return add

        return JumpSampler(chunk, -(self.rates * cutoff(self.jumps)) @ self.jumps)

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

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """Per step, (n,) uniforms u and then (n,) uniforms w from the
        ``stable`` stream (``_stable_standard``), scaled by
        (scale dt)^(1/alpha).  The symmetric measure has no compensator."""

        def chunk(n):
            draw = _StableDraw(n)
            draw.orders(np.full(n, self.alpha))

            def add(inc, values, dt, rngs):
                s = draw.draw(rngs["stable"])
                np.multiply((self.scale * dt) ** (1.0 / self.alpha), s, out=s)
                inc[:, 0] += s

            return add

        return JumpSampler(chunk)

    def is_symmetric(self):
        return True

    def validate(self, dim):
        if dim != 1:
            raise ValueError("stable measures are one-dimensional")


def _stable_standard(alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One symmetric stable variate with characteristic function
    exp(-|xi|^alpha) per entry of alpha (``_StableDraw``)."""
    draw = _StableDraw(alpha.shape[0])
    draw.orders(alpha)
    return draw.draw(rng)


class _StableDraw:
    """Symmetric stable variates for one chunk of n paths, by the polar
    (Chambers-Mallows-Stuck) method, in buffers that belong to the chunk.
    ``orders(alpha)`` sets the n orders (alpha is read, not copied, by
    the next ``draw``); ``draw(rng)`` draws (n,) uniforms for the angle
    u, then (n,) uniforms for the exponential w, from rng, and returns
    the variates in a buffer that the next draw overwrites.  Only the
    branch that is returned is evaluated: tan(u) where alpha is 1, the
    general formula

        sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / w)^((1 - alpha)/alpha)

    elsewhere, left to right; a mixed alpha evaluates both."""

    def __init__(self, n: int):
        self.u, self.v, self.out, self.work = (np.empty(n) for _ in range(4))
        # 1/alpha, 1 - alpha and (1 - alpha)/alpha
        self.inv, self.one_minus, self.power = (np.empty(n) for _ in range(3))
        self.cauchy = np.empty(n, dtype=bool)

    def orders(self, alpha: np.ndarray) -> None:
        self.alpha = alpha
        np.subtract(alpha, 1.0, out=self.inv)
        np.less(np.abs(self.inv, out=self.inv), 1e-12, out=self.cauchy)
        self.all_cauchy = bool(self.cauchy.all())
        self.any_cauchy = self.all_cauchy or bool(self.cauchy.any())
        np.divide(1.0, alpha, out=self.inv)
        if not self.all_cauchy:
            np.subtract(1.0, alpha, out=self.one_minus)
            np.divide(self.one_minus, alpha, out=self.power)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        u, w, s, work = self.u, self.v, self.out, self.work
        rng.random(out=u)
        u -= 0.5
        u *= math.pi
        rng.random(out=w)
        if self.all_cauchy:
            return np.tan(u, out=s)
        # w = max(-log(max(v, 1e-300)), 1e-300)
        np.maximum(w, 1e-300, out=w)
        np.negative(np.log(w, out=w), out=w)
        np.maximum(w, 1e-300, out=w)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.sin(np.multiply(self.alpha, u, out=s), out=s)
            s /= np.power(np.cos(u, out=work), self.inv, out=work)
            np.cos(np.multiply(self.one_minus, u, out=work), out=work)
            work /= w
            s *= np.power(work, self.power, out=work)
        if self.any_cauchy:
            np.copyto(s, np.tan(u, out=work), where=self.cauchy)
        return s


def _vectorised(density) -> Callable[[np.ndarray], np.ndarray]:
    """The density as a map from a 1-d array of jump sizes to its levels:
    one evaluation of an Expression on an (n, 1) array, or one loop of a
    scalar Python callable over the points."""
    if isinstance(density, Expression):
        return lambda ys: np.broadcast_to(
            np.asarray(density.evaluate(ys[:, None]), dtype=float), ys.shape)
    if callable(density):
        return lambda ys: np.fromiter((density(float(y)) for y in ys), dtype=float, count=len(ys))
    raise TypeError("density must be an Expression or callable")


# Gauss–Kronrod 7–15 rule on [-1, 1] (QUADPACK's qk15): the 15 Kronrod
# nodes with their weights, and the 7-point Gauss weights, which vanish
# at the Kronrod-only nodes.
_GK_HALF_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_GK_HALF_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_HALF_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327])
_GK_X = np.concatenate([-_GK_HALF_X[:-1], _GK_HALF_X[::-1]])
_GK_WK = np.concatenate([_GK_HALF_WK[:-1], _GK_HALF_WK[::-1]])
_GK_DW = _GK_WK - np.concatenate([_GK_HALF_WG[:-1], _GK_HALF_WG[::-1]])  # K - G

QUAD_MAX_PANELS = 1 << 16    # cap on the panels of one integral
QUAD_WORK_ITEMS = 1 << 17    # integrand values per work block (2 MB complex)


class DensityMeasure(LevyMeasure):
    """One-dimensional measure with density level(y) on the truncated
    support eps <= |y| <= y_max.

    Construction integrates (1 ∧ y^2) level(y) to certify finiteness,
    tabulates the jump-size CDF for sampling, and fits a local power law
    at the lower truncation to bound the exponent mass that the
    truncation discards (reported, never silently dropped).

    Every integral over the support folds the two sides onto
    eps <= y <= y_max and runs through ``_integrate``, one adaptive
    Gauss–Kronrod rule that evaluates the density once per refinement
    round on all new nodes.
    """

    def __init__(self, density, eps: float, y_max: float):
        if not (0 < eps < y_max):
            raise ValueError("need 0 < eps < y_max")
        self.levels = _vectorised(density)
        self.eps = float(eps)
        self.y_max = float(y_max)
        self._validate_density()
        self._build_tables()

    def _validate_density(self):
        probes = np.geomspace(self.eps, self.y_max, 31)
        vals = self.levels(np.concatenate([-probes, probes]))
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("density must be finite and non-negative on its support")
        total = (self._band(self.eps, 1.0, lambda y: y * y, "(1 ^ y^2) integral").sum()
                 + self._band(1.0, self.y_max, lambda y: 1.0, "(1 ^ y^2) integral").sum())
        self.second_moment_check = float(total)

    def _build_tables(self):
        n = 2048
        grid = np.geomspace(self.eps, self.y_max, n)
        levels = self.levels(np.concatenate([grid, -grid]))
        pos, neg = levels[:n], levels[n:]
        self._grid = grid
        total_pos = np.trapezoid(pos, grid)
        total_neg = np.trapezoid(neg, grid)
        self.total_rate = total_pos + total_neg
        # signed support laid out [-y_max .. -eps] ++ [eps .. y_max]
        ys = np.concatenate([-grid[::-1], grid])
        dens = np.concatenate([neg[::-1], pos])
        steps = 0.5 * (dens[1:] + dens[:-1]) * np.diff(ys)
        # the gap (-eps, eps) carries no mass: an exactly flat plateau
        # keeps the CDF non-decreasing for np.interp
        steps[n - 1] = 0.0
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        self._cdf_ys = ys
        self._cdf = cdf / cdf[-1]
        # local power-law fit lambda(y) ~ C |y|^-(1+alpha) near eps,
        # used for the truncated small-jump second moment bound
        y1, y2 = self.eps, min(2 * self.eps, self.y_max)
        l1p, l1n, l2p, l2n = self.levels(np.array([y1, -y1, y2, -y2]))
        d1 = 0.5 * (l1p + l1n)
        d2 = 0.5 * (l2p + l2n)
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

    def _band(self, lo: float, hi: float, weight, what: str) -> np.ndarray:
        """integral of weight(y) (level(y), level(-y)) over
        max(lo, eps) <= y <= min(hi, y_max), one value per side."""
        lo = max(lo, self.eps)
        hi = min(hi, self.y_max)
        if hi <= lo:
            return np.zeros(2)
        kernel = lambda y, pos, neg, rows: np.stack([weight(y) * pos, weight(y) * neg])
        total, achieved = self._integrate([lo, hi], kernel, 2)
        if not np.all(np.isfinite(total)):
            raise ValueError(f"density fails the {what} check: not finite")
        _require_converged(achieved, what)
        return total.real

    def second_moment_band(self, lo: float, hi: float) -> float:
        """integral of y^2 level(y) over lo <= |y| <= hi."""
        return float(self._band(lo, hi, lambda y: y * y, "second moment").sum())

    def rate_above(self, cut: float) -> float:
        return float(self._band(cut, self.y_max, lambda y: 1.0, "jump rate").sum())

    def mean_band(self, lo: float, hi: float) -> float:
        """integral of y level(y) over lo <= |y| <= hi (signed)."""
        plus, minus = self._band(lo, hi, lambda y: y, "mean")
        return float(plus - minus)

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
        # inverting the interpolated CDF can land an ulp inside the cut
        out[left] = np.minimum(np.interp(u[left], self._cdf, ys), -cut)
        out[~left] = np.maximum(
            np.interp(u[~left] - lo_mass + np.interp(cut, ys, self._cdf), self._cdf, ys), cut)
        return out

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """Compound Poisson jumps above a cut and a Gaussian of the same
        variance below it.  The cut is small_jump_cut if given, else the
        largest of 41 log-spaced candidates from eps whose band second
        moment stays within 1e-4 (q_trace + second moment below 1); it is
        kept inside [eps, r], r the cut-off's support radius.

        Per step, from the ``jump`` stream: (n,) Poisson counts, then
        (total,) uniforms for the sizes (``sample_sizes``), total the sum
        of the counts, assigned to the paths in path order; then, if the
        substituted variance is positive, (n,) normals from ``small``.
        The compensator of the jumps between the cut and r is the
        constant drift."""
        r_chi = cutoff.support_radius
        if small_jump_cut is None:
            budget = 1e-4 * (q_trace + self.second_moment_band(0.0, 1.0))
            cut = self.eps
            for cand in np.geomspace(self.eps, max(r_chi, self.eps * 1.0001), 41):
                if self.second_moment_band(self.eps, cand) <= budget:
                    cut = float(cand)
                else:
                    break
        else:
            cut = float(small_jump_cut)
        cut = min(max(cut, self.eps), r_chi)
        sub_var = self.second_moment_band(self.eps, cut)
        rate = self.rate_above(cut)
        sub_std = math.sqrt(max(sub_var, 0.0))

        def chunk(n):
            paths, small = np.arange(n), np.empty(n)

            def add(inc, values, dt, rngs):
                counts = rngs["jump"].poisson(rate * dt, size=n)
                total = int(counts.sum())
                if total:
                    sizes = self.sample_sizes(total, rngs["jump"], cut=cut)
                    np.add.at(inc[:, 0], np.repeat(paths, counts), sizes)
                if sub_std > 0.0:
                    rngs["small"].standard_normal(out=small)
                    inc[:, 0] += np.multiply(sub_std * math.sqrt(dt), small, out=small)

            return add

        return JumpSampler(chunk, np.array([-self.mean_band(cut, r_chi)]), {
            "small_jump_cut": cut,
            "substituted_variance": sub_var,
            "discarded_second_moment_bound": self.small_mass_second_moment,
        })

    def exponent_term(self, xis, cutoff):
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        if xis.shape[1] != 1:
            raise ValueError("density measures are one-dimensional")
        # I(-xi) is the conjugate of I(xi): integrate each distinct |xi| once
        absxi, inverse = np.unique(np.abs(xis[:, 0]), return_inverse=True)
        vals = np.zeros(absxi.shape, dtype=complex)
        todo = absxi != 0.0
        if np.any(todo):
            vals[todo] = self._exponents(absxi[todo], cutoff.support_radius)
        out = vals[inverse.ravel()]
        return np.where(xis[:, 0] < 0, out.conj(), out)

    def _exponent_scalar(self, xi: float, cutoff: CutoffFunction) -> complex:
        return complex(self.exponent_term(np.array([[xi]]), cutoff)[0])

    def _exponents(self, xi: np.ndarray, r: float) -> np.ndarray:
        """I(xi) at positive frequencies xi, with the compensator on
        y <= r (r the cut-off support radius, a panel break).  The real
        part -2 sin^2(y xi / 2) (level(y) + level(-y)) does not cancel at
        small xi; the imaginary part carries level(y) - level(-y), so it
        is exactly 0 for symmetric densities."""

        def kernel(y, pos, neg, rows):
            theta = xi[rows, None, None] * y
            f = np.zeros(theta.shape, dtype=complex)
            f.real = -2.0 * np.sin(0.5 * theta) ** 2 * (pos + neg)
            odd = pos - neg
            if np.any(odd):
                f.imag = _sin_minus_chi_theta(theta, y <= r) * odd
            return f

        breaks = [self.eps, r, self.y_max] if self.eps < r < self.y_max else [self.eps, self.y_max]
        total, achieved = self._integrate(breaks, kernel, len(xi))
        _require_converged(achieved, "exponent", at=xi)
        return total

    def _integrate(self, breaks, kernel, n_out: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Integrals over breaks[0] <= y <= breaks[-1] of
        kernel(y, level(y), level(-y), rows), where rows is a slice of the
        n_out outputs and the kernel returns one integrand per output
        row, of shape (rows, *y.shape).

        Composite Gauss–Kronrod 7–15 on panels equally spaced in log y
        between consecutive breaks (log width at most 1 to start).  While
        an output's summed |K - G| exceeds QUAD_REL_TOL |total|, every
        panel whose own |K - G| for that output exceeds its share of the
        tolerance (in proportion to its log width) is bisected; the
        density is evaluated once per round, on the new nodes only.
        Stops when all outputs converge, a total is not finite, or the
        bisections would pass QUAD_MAX_PANELS.  Returns the totals and
        the achieved relative error estimates (NaN for a non-finite
        total).
        """
        logs = np.log(breaks)
        edges = np.concatenate([np.linspace(a, b, max(1, math.ceil(b - a)) + 1)[:-1]
                                for a, b in zip(logs[:-1], logs[1:])] + [logs[-1:]])
        lo_u, hi_u = edges[:-1], edges[1:]
        y, pos, neg = self._panel_nodes(lo_u, hi_u)
        total = np.empty(n_out, dtype=complex)
        err = np.empty(n_out)
        while True:
            n_panels = len(lo_u)
            width = hi_u - lo_u
            share = QUAD_REL_TOL * width / (logs[-1] - logs[0])
            refine = np.zeros(n_panels, dtype=bool)
            row_step = max(1, QUAD_WORK_ITEMS // y.size)
            for r0 in range(0, n_out, row_step):
                rows = slice(r0, min(r0 + row_step, n_out))
                n_rows = rows.stop - r0
                sums = np.empty((n_rows, n_panels), dtype=complex)
                diff = np.empty((n_rows, n_panels))
                panel_step = max(1, QUAD_WORK_ITEMS // (n_rows * y.shape[1]))
                for p0 in range(0, n_panels, panel_step):
                    blk = slice(p0, p0 + panel_step)
                    f = kernel(y[blk], pos[blk], neg[blk], rows) * (0.5 * width[blk, None] * y[blk])
                    sums[:, blk] = f @ _GK_WK
                    diff[:, blk] = np.abs(f @ _GK_DW)
                total[rows] = sums.sum(axis=1)
                err[rows] = diff.sum(axis=1)
                scale = np.abs(total[rows])
                open_ = err[rows] > QUAD_REL_TOL * scale
                refine |= np.any(diff[open_] > scale[open_, None] * share, axis=0)
            n_refine = int(refine.sum())
            if n_refine == 0 or n_panels + n_refine > QUAD_MAX_PANELS:
                break
            keep = ~refine
            mid = 0.5 * (lo_u[refine] + hi_u[refine])
            new_lo = np.concatenate([lo_u[refine], mid])
            new_hi = np.concatenate([mid, hi_u[refine]])
            y, pos, neg = (np.concatenate([old[keep], new]) for old, new
                           in zip((y, pos, neg), self._panel_nodes(new_lo, new_hi)))
            lo_u = np.concatenate([lo_u[keep], new_lo])
            hi_u = np.concatenate([hi_u[keep], new_hi])
        with np.errstate(divide="ignore", invalid="ignore"):
            achieved = np.where(err == 0.0, 0.0, err / np.abs(total))
        return total, achieved

    def _panel_nodes(self, lo_u: np.ndarray, hi_u: np.ndarray):
        """Nodes y of the panels lo_u <= log y <= hi_u and the density on
        both sides, level(y) and level(-y)."""
        y = np.exp(0.5 * (lo_u + hi_u)[:, None] + 0.5 * (hi_u - lo_u)[:, None] * _GK_X)
        levels = self.levels(np.concatenate([y.ravel(), -y.ravel()])).reshape(2, *y.shape)
        return y, levels[0], levels[1]

    def is_symmetric(self):
        probes = np.geomspace(self.eps, self.y_max, 17)
        pos, neg = self.levels(np.concatenate([probes, -probes])).reshape(2, -1)
        # math.isclose(pos, neg, rel_tol=1e-9, abs_tol=1e-12) at every probe
        tol = np.maximum(1e-9 * np.maximum(np.abs(pos), np.abs(neg)), 1e-12)
        return bool(np.all(np.abs(pos - neg) <= tol))

    def validate(self, dim):
        if dim != 1:
            raise ValueError("density measures are one-dimensional")


def _require_converged(achieved: np.ndarray, what: str, at: np.ndarray | None = None) -> None:
    """Raise QuadratureError unless every achieved relative error is
    within QUAD_REL_TOL (a NaN, from a non-finite total, never is)."""
    failed = np.flatnonzero(~(achieved <= QUAD_REL_TOL))
    if failed.size:
        k = failed[0]
        where = "" if at is None else f" at xi = {at[k]:.6g}"
        raise QuadratureError(f"{what} quadrature did not converge{where}", float(achieved[k]))

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

    def __call__(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The values at the (n, d) states, written into the (n,) array
        ``out`` if given; an undefined expression raises."""
        return self._values(xs, out, strict=True)

    def lenient(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """As a call, but NaN where the expression is undefined."""
        return self._values(xs, out, strict=False)

    def _values(self, xs, out, strict: bool) -> np.ndarray:
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.is_constant:
            values = self.value
        elif strict:
            values = np.asarray(self.expr.evaluate(xs), dtype=float)
        else:
            values = np.asarray(self.expr.evaluate_lenient(xs), dtype=float)
        if out is None:
            return np.broadcast_to(values, (xs.shape[0],)).copy()
        np.copyto(out, values)
        return out


class CoefficientValues:
    """The values of a model's coefficients at one batch of n states.

    ``blocks`` lists (key, coefficients, shape) triples: ``values[key]``
    is the (n, *shape) array whose [:, k] entries, in C order, are the
    k-th coefficient's values, laid out as ``np.stack`` lays out the
    coefficients' own arrays.  A block whose coefficients are all
    constant is filled once, when it is first read; ``evaluate(xs)``
    writes the others' values at the (n, d) states xs, one evaluation
    per coefficient, and ``carry(other, where)`` copies another batch's
    values on the rows where ``where`` holds.  The arrays are buffers
    that the next ``evaluate`` or ``carry`` overwrites: a reader copies
    what it keeps and never writes into them."""

    def __init__(self, blocks, n: int):
        self.n = n
        self.layout, self.arrays, self.varying = {}, {}, []
        for key, coeffs, shape in blocks:
            self.layout[key] = (coeffs, shape)
            if any(c.expr is not None for c in coeffs):
                self._make(key)

    def _make(self, key) -> np.ndarray:
        coeffs, shape = self.layout[key]
        block = self.arrays[key] = np.empty((self.n, *shape))
        flat = block.reshape(self.n, -1)
        for k, c in enumerate(coeffs):
            if c.is_constant:
                flat[:, k] = c.value
            else:
                self.varying.append((c, flat[:, k]))
        return block

    def __getitem__(self, key) -> np.ndarray:
        block = self.arrays.get(key)
        return self._make(key) if block is None else block

    def evaluate(self, xs: np.ndarray, lenient: bool = True) -> "CoefficientValues":
        """Evaluate every state-dependent coefficient at the (n, d)
        states xs; with ``lenient`` a failure gives NaN, else it raises."""
        for c, out in self.varying:
            (c.lenient if lenient else c)(xs, out=out)
        return self

    def carry(self, other: "CoefficientValues", where: np.ndarray) -> None:
        for (_, out), (_, new) in zip(self.varying, other.varying):
            np.copyto(out, new, where=where)


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


# ---------------------------------------------------------------------------
# measure families (possibly state dependent)

class MeasureFamily:
    """Jump measures N(x, dy) indexed by the state, with the same
    jump sampler protocol as LevyMeasure."""

    def at(self, x: np.ndarray) -> LevyMeasure:
        raise NotImplementedError

    def exponent_at(self, xis: np.ndarray, cutoff: CutoffFunction,
                    lenient: bool = False):
        """Jump part of the symbol at the (N, d) frequencies xis, with its
        frequency-only part evaluated here, once: the (N,) values when the
        family is constant, else a function of the ``CoefficientValues``
        at N states, which returns the term in a buffer of its own that
        the next call overwrites.  With ``lenient`` (values evaluated
        leniently) a state where the family is undefined gives NaN."""
        raise NotImplementedError

    def coefficient_blocks(self) -> list:
        """The family's coefficients as ``CoefficientValues`` blocks."""
        return []

    def jump_sampler(self, cutoff: CutoffFunction, q_trace: float,
                     small_jump_cut: float | None) -> JumpSampler:
        raise NotImplementedError

    def box_violation(self, pts: np.ndarray) -> str | None:
        """The first invariant the family breaks at the (m, d) probe
        points, as a message, or None."""
        return None

    @property
    def is_constant(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantMeasureFamily(MeasureFamily):
    measure: LevyMeasure

    def at(self, x):
        return self.measure

    def exponent_at(self, xis, cutoff, lenient=False):
        return self.measure.exponent_term(xis, cutoff)

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        return self.measure.jump_sampler(cutoff, q_trace, small_jump_cut)

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

    def coefficient_blocks(self):
        """The (n, K) rates, keyed by the family."""
        return [(self, self.rate_coeffs, (len(self.rate_coeffs),))]

    def exponent_at(self, xis, cutoff, lenient=False):
        theta = xis @ self.jumps.T
        chi = cutoff(self.jumps)
        vals = np.exp(1j * theta) - 1.0 - 1j * theta * chi   # (N, K)
        terms, out = np.empty(vals.shape, dtype=complex), np.empty(len(vals), dtype=complex)
        return lambda values: np.sum(np.multiply(vals, values[self], out=terms), axis=1, out=out)

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """Per step, Poisson counts of shape (n, K) from the ``jump``
        stream at the paths' current rates, compensated within the step.
        A rate that is NaN, infinite or negative draws at rate 0 and
        makes its path's row NaN."""
        chi = cutoff(self.jumps)
        k, d = self.jumps.shape

        def chunk(n):
            r, work = np.empty((n, k)), np.empty((n, k))
            ok, rate_ok = np.empty((n, k), dtype=bool), np.empty((n, k), dtype=bool)
            failed = np.empty(n, dtype=bool)
            jumps, compensator = np.empty((n, d)), np.empty((n, d))

            def add(inc, values, dt, rngs):
                rates = values[self]
                # r = rates where finite and non-negative, else 0
                np.greater_equal(rates, 0, out=rate_ok)
                np.logical_and(np.isfinite(rates, out=ok), rate_ok, out=ok)
                np.copyto(r, 0.0)
                np.copyto(r, rates, where=ok)
                counts = rngs["jump"].poisson(np.multiply(r, dt, out=work))
                np.matmul(counts, self.jumps, out=jumps)
                np.matmul(np.multiply(r, chi, out=work), self.jumps, out=compensator)
                np.multiply(compensator, dt, out=compensator)
                inc += np.subtract(jumps, compensator, out=jumps)
                np.logical_not(np.logical_and.reduce(ok, axis=1, out=failed), out=failed)
                np.copyto(inc, np.nan, where=failed[:, None])

            return add

        return JumpSampler(chunk)

    def box_violation(self, pts):
        bad = np.any(self.rates_many(pts) < 0, axis=1)
        if np.any(bad):
            return f"atom rate negative at x={pts[int(np.argmax(bad))].tolist()}"
        return None

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

    def coefficient_blocks(self):
        return [(self.alpha_coeff, [self.alpha_coeff], ()),
                (self.scale_coeff, [self.scale_coeff], ())]

    def exponent_at(self, xis, cutoff, lenient=False):
        """-scale |xi|^alpha, 0 at xi = 0; with ``lenient`` an order
        outside (0, 2] gives NaN, else it raises."""
        absxi = np.abs(xis[:, 0])
        zero = ~(absxi > 0)
        n = len(xis)
        alpha_ok, power, out = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
        in_range, below = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

        def term(values):
            alpha, scale = values[self.alpha_coeff], values[self.scale_coeff]
            if lenient:
                # np.where((alpha > 0) & (alpha <= 2), alpha, nan)
                np.greater(alpha, 0, out=in_range)
                np.logical_and(in_range, np.less_equal(alpha, 2, out=below), out=in_range)
                np.copyto(alpha_ok, np.nan)
                np.copyto(alpha_ok, alpha, where=in_range)
                alpha = alpha_ok
            elif np.any(alpha <= 0) or np.any(alpha > 2):
                raise ValueError("stable order must stay in (0, 2] on the evaluation set")
            with np.errstate(divide="ignore"):
                np.multiply(scale, np.power(absxi, alpha, out=power), out=power)
            np.copyto(power, 0.0, where=zero)
            return np.negative(power, out=out)

        return term

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """As StableMeasure's, at each path's order (clipped to
        [1e-6, 2]) and scale (floored at 0)."""

        def chunk(n):
            draw = _StableDraw(n)
            alpha, jump = np.empty(n), np.empty(n)

            def add(inc, values, dt, rngs):
                draw.orders(np.clip(values[self.alpha_coeff], 1e-6, 2.0, out=alpha))
                # (scale dt)^(1/alpha) * the standard variate
                np.maximum(values[self.scale_coeff], 0.0, out=jump)
                np.multiply(jump, dt, out=jump)
                np.power(jump, draw.inv, out=jump)
                inc[:, 0] += np.multiply(jump, draw.draw(rngs["stable"]), out=jump)

            return add

        return JumpSampler(chunk)

    def box_violation(self, pts):
        alpha = self.alpha_coeff(pts)
        bad = (alpha <= 0) | (alpha > 2)
        if np.any(bad):
            return f"stable order outside (0,2] at x={pts[int(np.argmax(bad))].tolist()}"
        bad = self.scale_coeff(pts) < 0
        if np.any(bad):
            return f"stable scale negative at x={pts[int(np.argmax(bad))].tolist()}"
        return None

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
    measure: LevyMeasure = field(default_factory=ZeroMeasure)
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
        # the rate that kills the process: an SDE's sits on its driver
        self.killing = kill if sde is None else Coefficient(sde.driver.killing_rate, dim)
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

    def coefficient_blocks(self) -> list:
        """The coefficients that the simulation and the symbol read, as
        ``CoefficientValues`` blocks keyed by their holders: the killing
        rate (``killing``), the (n, d) drift, the (n, d, d) covariance and
        the measure family's coefficients, or for an SDE the killing rate
        and f."""
        if self.sde is not None:
            f = self.sde.coefficient
            return [(self.killing, [self.killing], ()), (f, [f], ())]
        d = self.dim
        return [(self.kill, [self.kill], ()),
                (self.drift, self.drift.parts, (d,)),
                (self.covariance, [c for row in self.covariance.rows for c in row], (d, d)),
                *self.measures.coefficient_blocks()]

    def coefficient_values(self, xs: np.ndarray, lenient: bool = False) -> CoefficientValues:
        """The coefficients' values at the (N, d) states xs; with
        ``lenient`` a coefficient that cannot be evaluated gives NaN
        instead of raising."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return CoefficientValues(self.coefficient_blocks(), xs.shape[0]).evaluate(xs, lenient)

    def symbol_many(self, xs: np.ndarray, xis: np.ndarray,
                    lenient: bool = False) -> np.ndarray:
        """Frozen-coefficient symbol p(x, xi) over batched inputs
        (both (N, d)); includes the killing rate.  With ``lenient`` a
        coefficient that cannot be evaluated gives NaN in its row
        instead of raising; the other rows keep their bits."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        # a constant model's symbol reads no coefficient values
        values = None if self.is_constant else self.coefficient_values(xs, lenient)
        return self._symbol_rows(xis, lenient)(values)

    def symbol_at(self, u, lenient: bool = False) -> Callable[..., np.ndarray]:
        """p(., u) at one fixed frequency u: ``symbol_at(u)(xs)`` equals
        ``symbol_many(xs, np.tile(u, (N, 1)))`` bit for bit.  The returned
        ``symbol(xs, values=None, out=None)`` reads the coefficients from
        ``values`` (``coefficient_values(xs, lenient)``, evaluated if not
        given) and writes into the complex (N,) array ``out`` if given.
        The terms that do not depend on the state, and scratch buffers
        for the others, are made once per batch size N, on the tiled
        frequency, by the code ``symbol_many`` runs; BLAS products of one
        row and of N copies of it need not agree in the last bit, so one
        row is not enough.  The buffers make one ``symbol`` unsafe to
        share between threads."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        by_size = {}

        def symbol(xs, values=None, out=None):
            if values is None:
                values = self.coefficient_values(xs, lenient)
            rows = by_size.get(values.n)
            if rows is None:
                rows = by_size[values.n] = self._symbol_rows(np.tile(u, (values.n, 1)), lenient)
            return rows(values, out)

        return symbol

    def _symbol_rows(self, xis: np.ndarray, lenient: bool) -> Callable[..., np.ndarray]:
        """p(., xi) at the (N, d) frequencies xis as a function
        ``symbol(values, out=None)`` of the coefficient values at N states
        (evaluated leniently if ``lenient``),

            ((a - i <l, xi>) + <xi, Q xi> / 2) - jump part,

        summed in this order into out, or into a new array.  A term whose
        coefficient is constant is evaluated here, once, as is the
        frequency-only part of the jump term (``MeasureFamily.exponent_at``);
        a leading run of constant terms is summed here too, all but the
        last sum.  The state-dependent terms are formed in buffers made
        here."""
        if self.sde is not None:
            def sde(values, out=None):
                p = self._sde_symbol(values, xis)
                if out is None:
                    return p
                np.copyto(out, p)
                return out

            return sde
        n = len(xis)

        if self.kill.is_constant:
            first = self.kill(xis)
        else:
            first = lambda values: values[self.kill]

        if self.drift.is_constant:
            drift = 1j * np.einsum("nd,nd->n", self.drift(xis), xis)
        else:
            real, imag = np.empty(n), np.empty(n, dtype=complex)

            def drift(values):
                np.einsum("nd,nd->n", values[self.drift], xis, out=real)
                return np.multiply(1j, real, out=imag)

        if self.covariance.is_constant:
            covariance = 0.5 * np.einsum("ni,nij,nj->n", xis, self.covariance(xis), xis)
        else:
            quad = np.empty(n)

            def covariance(values):
                np.einsum("ni,nij,nj->n", xis, values[self.covariance], xis, out=quad)
                return np.multiply(0.5, quad, out=quad)

        rest = [
            (np.subtract, drift),
            (np.add, covariance),
            (np.subtract, self.measures.exponent_at(xis, self.cutoff, lenient)),
        ]
        while len(rest) > 1 and not callable(first) and not callable(rest[0][1]):
            op, value = rest.pop(0)
            first = op(first, value)

        def symbol(values, out=None):
            total = first(values) if callable(first) else first
            # the first sum writes out (or makes a new array); the others add into it
            (op, value), *more = rest
            out = op(total, value(values) if callable(value) else value, out=out)
            for op, value in more:
                op(out, value(values) if callable(value) else value, out=out)
            return out

        return symbol

    def _sde_symbol(self, values, xis):
        f = values[self.sde.coefficient]  # (N,)
        eff = f[:, None] * xis
        ok = np.isfinite(f)
        if ok.all():
            return self.sde.driver.exponent_many(eff)
        out = np.full(len(f), np.nan, dtype=complex)
        out[ok] = self.sde.driver.exponent_many(eff[ok])
        return out


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
