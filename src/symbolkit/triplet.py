"""Triplet data (killing rate, drift, covariance, jump measure, cut-off)
and evaluation of characteristic exponents and state-dependent symbols.

The exponent of a triplet (a, l, Q, N) relative to a cut-off chi is

    phi(xi) = a - i <l, xi> + 0.5 <xi, Q xi>
              - integral of (e^{i<y,xi>} - 1 - i<y,xi> chi(y)) N(dy).

Discrete measures evaluate the integral as an exact finite sum, and
symmetric one-dimensional stable measures contribute the closed form
c |xi|^alpha.  Density measures integrate by the rules of
``quadrature``: the exponent on one panel set per cut-off radius, fixed
by the density alone (``ExponentPanels``), their moments (jump rate,
second moment, mean over a band) by an adaptive Gauss–Kronrod rule.

Every term of the symbol is row-local: one (state, frequency) row has
the same value in any batch.  ``_row_dot``, ``_row_quad`` and
``_atom_block`` sum coordinates left to right with elementwise numpy,
where BLAS or einsum may sum in an order that depends on the batch.

One class per measure kind: an atom or stable measure holds its rates,
or its order and scale, as Coefficients, each a number or an Expression
of the state.  A measure whose coefficients are all numbers is constant
(``MeasureFamily.is_constant``), a Levy measure: it returns exponent
values, reads no coefficient values and puts its compensator into the
drift.  Every measure owns its simulation draws (``jump_sampler``); each
docstring records the streams drawn per step.  State-dependent
coefficients are read through ``CoefficientValues``, the values of a
model's coefficients at one batch of states: the simulation kernel
evaluates them once per step and hands the same values to the jump
samplers and to the symbol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import Expression
from .quadrature import ExponentPanels, adaptive_kronrod, require_converged

__all__ = [
    "CutoffFunction",
    "ZeroMeasure",
    "DiscreteMeasure",
    "StableMeasure",
    "DensityMeasure",
    "JumpSampler",
    "MeasureFamily",
    "LevyTriplet",
    "StateModel",
    "ConditionEstimate",
    "Coefficient",
    "CoefficientValues",
    "SectorConditionError",
    "eval_exponent",
    "eval_symbol",
    "check_growth",
    "check_sector",
]

PSD_EIGENVALUE_FLOOR = -1e-12
SECTOR_REAL_FLOOR = 1e-12
SECTOR_IMAG_LEAK = 1e-9


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

    @property
    def support_radius(self) -> float:
        """Radius below which chi is identically 1 on the line (used to
        split quadrature domains for one-dimensional measures)."""
        if self.kind == "indicator_ball":
            return self.radius
        return min(self.radii)


# ---------------------------------------------------------------------------
# row-local arithmetic

def _row_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """<a, b> over the last axis, broadcast over the others: the
    coordinates' products summed left to right, into ``out`` if given."""
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _row_quad(xis: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """<xi, Q xi> per row of the (N, d) xis, for a (d, d) or an (N, d, d)
    Q: the terms (xi_i Q_ij) xi_j summed over (i, j) in C order, into
    ``out`` if given."""
    d = xis.shape[1]
    out = np.multiply(xis[:, 0], q[..., 0, 0], out=out)
    out *= xis[:, 0]
    for i in range(d):
        for j in range(d):
            if i or j:
                out += xis[:, i] * q[..., i, j] * xis[:, j]
    return out


def _atom_block(xis: np.ndarray, jumps: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """e^{i theta} - 1 - i theta chi(y) for each row of the (N, d) xis
    and each of the K atoms y, as an (N, K) array, theta = <xi, y> by
    ``_row_dot``; the measure sums it over the atoms by ``np.sum`` over
    axis 1, weighted by the rates."""
    theta = _row_dot(xis[:, None, :], jumps)
    return np.exp(1j * theta) - 1.0 - 1j * theta * chi


# ---------------------------------------------------------------------------
# jump measures

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


class MeasureFamily:
    """A jump measure N(x, dy): constant, or indexed by the state through
    coefficients that are numbers or Expressions.  A Levy measure is one
    whose coefficients are all numbers (``is_constant``).

    ``exponent_at`` gives the jump part of the symbol, the integral

        I(xi) = integral (e^{i<y,xi>} - 1 - i<y,xi> chi(y)) N(x, dy),

    which is subtracted from the polynomial part; ``jump_sampler`` gives
    the JumpSampler of a run with cut-off chi, Gaussian covariance trace
    q_trace (d if state dependent) and an optional small-jump cut.
    Every measure's I at one frequency is a function of that frequency
    (and the state) alone: it has the same bits in any batch.
    """

    is_constant = True

    def exponent_at(self, xis: np.ndarray, cutoff: CutoffFunction):
        """I at the (N, d) frequencies xis.  A constant measure returns
        the (N,) values.  Otherwise the measure evaluates its
        frequency-only part here, once, and returns a function of the
        ``CoefficientValues`` at N states, which writes the term into a
        buffer of its own that the next call overwrites; a state where
        the measure is undefined (a NaN value, or a stable order outside
        (0, 2]) gives NaN in its row."""
        raise NotImplementedError

    def coefficient_blocks(self) -> list:
        """The coefficients as ``CoefficientValues`` blocks; none for a
        constant measure, which reads no coefficient values."""
        return []

    def jump_sampler(self, cutoff: CutoffFunction, q_trace: float,
                     small_jump_cut: float | None) -> JumpSampler:
        raise NotImplementedError

    def box_violation(self, values: "CoefficientValues", pts: np.ndarray) -> str | None:
        """The first invariant the measure breaks at the (m, d) probe
        points, whose coefficient values are ``values``, as a message
        naming the point, or None."""
        return None

    def is_symmetric(self) -> bool:
        """N(x, dy) = N(x, -dy) at every state."""
        raise NotImplementedError

    def validate(self, dim: int) -> None:
        """Raise ValueError unless the measure lives in dimension dim."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroMeasure(MeasureFamily):
    def exponent_at(self, xis, cutoff):
        return np.zeros(len(xis), dtype=complex)

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """No jumps and no draws."""
        return JumpSampler(lambda n: _no_jumps)

    def is_symmetric(self):
        return True

    def validate(self, dim):
        pass


def _atom_problem(jump: np.ndarray, rate) -> str | None:
    """What is wrong with one atom, a jump vector and a rate (a number or
    an Expression): an atom at the origin or a number rate that is not
    positive; None if nothing is."""
    if np.linalg.norm(jump) == 0:
        return "atoms at the origin are not allowed"
    if not isinstance(rate, Expression) and float(rate) <= 0:
        return "atom rates must be positive"
    return None


class DiscreteMeasure(MeasureFamily):
    """Finitely many atoms: the (K, d) jump vectors ``jumps`` and one rate
    per atom, a number or an Expression of the state (``rates``, as
    Coefficients).  No atom sits at the origin and a number rate is
    positive; a state-dependent rate is checked on a model's domain box
    (``box_violation``)."""

    def __init__(self, jumps, rates: Sequence):
        self.jumps = np.atleast_2d(np.asarray(jumps, dtype=float))
        if self.jumps.shape[0] != len(rates):
            raise ValueError("one rate per atom required")
        for k, (jump, rate) in enumerate(zip(self.jumps, rates)):
            problem = _atom_problem(jump, rate)
            if problem is not None:
                raise ValueError(f"atom {k}: {problem}")
        self.rates = [Coefficient(r) for r in rates]
        self.is_constant = all(c.is_constant for c in self.rates)

    def coefficient_blocks(self):
        """The (n, K) rates, keyed by the measure, unless constant."""
        return [] if self.is_constant else [(self, self.rates, (len(self.rates),))]

    def exponent_at(self, xis, cutoff):
        vals = _atom_block(xis, self.jumps, cutoff(self.jumps))
        if self.is_constant:
            return np.sum(vals * np.array([c.value for c in self.rates]), axis=1)
        terms, out = np.empty(vals.shape, dtype=complex), np.empty(len(vals), dtype=complex)
        return lambda values: np.sum(np.multiply(vals, values[self], out=terms), axis=1, out=out)

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """Per step, Poisson counts of shape (n, K), one column per atom,
        from the ``jump`` stream, at the paths' current rates.  Constant
        rates are compensated by the constant drift -sum rate chi(y) y.
        State-dependent rates are compensated within the step; a rate
        that is NaN, infinite or negative draws at rate 0 and makes its
        path's row NaN."""
        chi = cutoff(self.jumps)
        k, d = self.jumps.shape
        constant = np.array([c.value for c in self.rates]) if self.is_constant else None

        def chunk(n):
            jumps = np.empty((n, d))
            if constant is not None:
                def add_constant(inc, values, dt, rngs):
                    # the (K,) rates draw the counts that the (n, K)
                    # rates they broadcast to draw; one rate is passed as
                    # a scalar, which numpy draws faster than an array
                    lam = constant * dt
                    counts = rngs["jump"].poisson(lam[0] if k == 1 else lam, size=(n, k))
                    inc += np.matmul(counts, self.jumps, out=jumps)

                return add_constant
            r, work = np.empty((n, k)), np.empty((n, k))
            ok, rate_ok = np.empty((n, k), dtype=bool), np.empty((n, k), dtype=bool)
            failed, compensator = np.empty(n, dtype=bool), np.empty((n, d))

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

        if constant is None:
            return JumpSampler(chunk)
        return JumpSampler(chunk, -(constant * chi) @ self.jumps)

    def box_violation(self, values, pts):
        if self.is_constant:
            return None
        rates = values[self]
        return (_violation("atom rate not finite", ~np.isfinite(rates), pts)
                or _violation("atom rate negative", rates < 0, pts))

    def is_symmetric(self):
        """Atoms in (+y, -y) pairs with equal constant rates; never for
        state-dependent rates."""
        if not self.is_constant:
            return False
        items = {tuple(np.round(j, 12)): c.value for j, c in zip(self.jumps, self.rates)}
        for j, r in items.items():
            neg = tuple(-v for v in j)
            if neg not in items or not math.isclose(items[neg], r, rel_tol=1e-12):
                return False
        return True

    def validate(self, dim):
        if self.jumps.shape[1] != dim:
            raise ValueError(f"atoms have {self.jumps.shape[1]} components; "
                             f"the model is {dim}-dimensional")


class StableMeasure(MeasureFamily):
    """Symmetric one-dimensional stable jump component with exponent
    contribution scale |xi|^alpha.  The order alpha and the scale are
    each a number or an Expression of the state (Coefficients); a number
    order lies in (0, 2] and a number scale is positive, and a
    state-dependent one is checked on a model's domain box
    (``box_violation``)."""

    def __init__(self, alpha, scale=1.0):
        self.alpha, self.scale = Coefficient(alpha), Coefficient(scale)
        if self.alpha.is_constant and not (0.0 < self.alpha.value <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if self.scale.is_constant and not self.scale.value > 0:
            raise ValueError("scale must be positive")
        self.is_constant = self.alpha.is_constant and self.scale.is_constant

    def coefficient_blocks(self):
        if self.is_constant:
            return []
        return [(self.alpha, [self.alpha], ()), (self.scale, [self.scale], ())]

    def exponent_at(self, xis, cutoff):
        """-scale |xi|^alpha, 0 at xi = 0; NaN where a state-dependent
        order is outside (0, 2]."""
        if xis.shape[1] != 1:
            raise ValueError("stable measures are one-dimensional")
        if self.is_constant:
            return (-self.scale.value * np.abs(xis[:, 0]) ** self.alpha.value).astype(complex)
        absxi = np.abs(xis[:, 0])
        zero = ~(absxi > 0)
        n = len(xis)
        alpha_ok, power, out = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
        in_range, below = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

        def term(values):
            alpha, scale = values[self.alpha], values[self.scale]
            # np.where((alpha > 0) & (alpha <= 2), alpha, nan)
            np.greater(alpha, 0, out=in_range)
            np.logical_and(in_range, np.less_equal(alpha, 2, out=below), out=in_range)
            np.copyto(alpha_ok, np.nan)
            np.copyto(alpha_ok, alpha, where=in_range)
            with np.errstate(divide="ignore"):
                np.multiply(scale, np.power(absxi, alpha_ok, out=power), out=power)
            np.copyto(power, 0.0, where=zero)
            return np.negative(power, out=out)

        return term

    def jump_sampler(self, cutoff, q_trace, small_jump_cut):
        """Per step, (n,) uniforms u and then (n,) uniforms w from the
        ``stable`` stream (``_StableDraw``), scaled by (scale dt)^(1/alpha)
        at each path's order (clipped to [1e-6, 2]) and scale (floored at
        0).  The symmetric measure has no compensator."""

        def chunk(n):
            draw = _StableDraw(n, self.alpha.value if self.is_constant else None)
            if not self.is_constant:
                alpha, scale_dt = np.empty(n), np.empty(n)

            def add(inc, values, dt, rngs):
                if self.is_constant:
                    # a Python float power: np.power differs from it by an
                    # ulp on some inputs
                    jump = (self.scale.value * dt) ** (1.0 / self.alpha.value)
                else:
                    draw.orders(np.clip(values[self.alpha], 1e-6, 2.0, out=alpha))
                    np.maximum(values[self.scale], 0.0, out=scale_dt)
                    np.multiply(scale_dt, dt, out=scale_dt)
                    jump = np.power(scale_dt, draw.inv, out=scale_dt)
                s = draw.draw(rngs["stable"])
                inc[:, 0] += np.multiply(jump, s, out=s)

            return add

        return JumpSampler(chunk)

    def box_violation(self, values, pts):
        if self.is_constant:
            return None
        alpha, scale = values[self.alpha], values[self.scale]
        return (_violation("stable order not finite", ~np.isfinite(alpha), pts)
                or _violation("stable order outside (0,2]", (alpha <= 0) | (alpha > 2), pts)
                or _violation("stable scale not finite", ~np.isfinite(scale), pts)
                or _violation("stable scale negative", scale < 0, pts))

    def is_symmetric(self):
        return True

    def validate(self, dim):
        if dim != 1:
            raise ValueError("stable measures are one-dimensional")


class _StableDraw:
    """Symmetric stable variates for one chunk of n paths, by the polar
    (Chambers-Mallows-Stuck) method, in buffers that belong to the chunk.
    ``alpha`` is the order of a constant measure; without it,
    ``orders(alpha)`` sets the n orders (alpha is read, not copied, by
    the next ``draw``).  ``draw(rng)`` draws (n,) uniforms for the angle
    u, then (n,) uniforms for the exponential w, from rng, and returns
    the variates in a buffer that the next draw overwrites.  Only the
    branch that is returned is evaluated: tan(u) where alpha is 1, the
    general formula

        sin(alpha u) / cos(u)^(1/alpha) * (cos((1 - alpha) u) / w)^((1 - alpha)/alpha)

    elsewhere, left to right; a mixed alpha evaluates both."""

    def __init__(self, n: int, alpha: float | None = None):
        self.u, self.out = np.empty(n), np.empty(n)
        # a constant order of 1 draws tan(u) alone: no per-path order,
        # and w is drawn into the output that tan(u) then overwrites
        self.all_cauchy = alpha is not None and abs(alpha - 1.0) < 1e-12
        if self.all_cauchy:
            return
        self.v, self.work = np.empty(n), np.empty(n)
        # 1/alpha, 1 - alpha and (1 - alpha)/alpha
        self.inv, self.one_minus, self.power = (np.empty(n) for _ in range(3))
        self.cauchy = np.empty(n, dtype=bool)
        if alpha is not None:
            self.orders(np.full(n, alpha))

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
        u, s = self.u, self.out
        rng.random(out=u)
        u -= 0.5
        u *= math.pi
        if self.all_cauchy:
            rng.random(out=s)
            return np.tan(u, out=s)
        w, work = self.v, self.work
        rng.random(out=w)
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


class DensityMeasure(MeasureFamily):
    """One-dimensional measure with density level(y) on the truncated
    support eps <= |y| <= y_max.

    Construction integrates (1 ∧ y^2) level(y) to certify finiteness and
    fits a local power law at the lower truncation to bound the exponent
    mass that the truncation discards (reported, never silently
    dropped).  The jump-size CDF for sampling is tabulated at the first
    draw (``_cdf_table``), so commands that never sample skip it.

    Every integral over the support folds the two sides onto
    eps <= y <= y_max.  The exponent runs on one panel set per cut-off
    radius, fixed by the density alone and built at the first exponent
    call (``ExponentPanels``: a Kronrod rule at small xi h, a Filon-type
    rule elsewhere), so I(xi) does not depend on the other frequencies of
    a call.  The moments that set the jump sampler (jump rate, second
    moment, mean over a band) run through ``adaptive_kronrod``, which
    evaluates the density once per refinement round on all new nodes.
    """

    def __init__(self, density, eps: float, y_max: float):
        if not (0 < eps < y_max):
            raise ValueError("need 0 < eps < y_max")
        self.levels = _vectorised(density)
        self.eps = float(eps)
        self.y_max = float(y_max)
        self._panel_sets = {}  # cut-off radius -> ExponentPanels
        self._validate_density()
        self._fit_truncation()

    def _validate_density(self):
        probes = np.geomspace(self.eps, self.y_max, 31)
        vals = self.levels(np.concatenate([-probes, probes]))
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("density must be finite and non-negative on its support")
        # _band raises unless (1 ^ y^2) level(y) integrates
        self._band(self.eps, 1.0, lambda y: y * y, "(1 ^ y^2) integral")
        self._band(1.0, self.y_max, lambda y: 1.0, "(1 ^ y^2) integral")

    @functools.cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Signed jump sizes laid out [-y_max .. -eps] ++ [eps .. y_max]
        (2048 log-spaced points a side) and the jump-size CDF at them, by
        trapezoid steps."""
        n = 2048
        grid = np.geomspace(self.eps, self.y_max, n)
        levels = self.levels(np.concatenate([grid, -grid]))
        pos, neg = levels[:n], levels[n:]
        ys = np.concatenate([-grid[::-1], grid])
        dens = np.concatenate([neg[::-1], pos])
        steps = 0.5 * (dens[1:] + dens[:-1]) * np.diff(ys)
        # the gap (-eps, eps) carries no mass: an exactly flat plateau
        # keeps the CDF non-decreasing for np.interp
        steps[n - 1] = 0.0
        cdf = np.concatenate([[0.0], np.cumsum(steps)])
        return ys, cdf / cdf[-1]

    def _fit_truncation(self):
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

    def _band(self, lo: float, hi: float, weight, what: str) -> np.ndarray:
        """integral of weight(y) (level(y), level(-y)) over
        max(lo, eps) <= y <= min(hi, y_max), one value per side."""
        lo = max(lo, self.eps)
        hi = min(hi, self.y_max)
        if hi <= lo:
            return np.zeros(2)
        kernel = lambda y, pos, neg, rows: np.stack([weight(y) * pos, weight(y) * neg])
        total, achieved = adaptive_kronrod(self.levels, [lo, hi], kernel, 2)
        if not np.all(np.isfinite(total)):
            raise ValueError(f"density fails the {what} check: not finite")
        require_converged(achieved, what)
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
        ys, cdf = self._cdf_table
        if cut is None or cut <= self.eps:
            u = rng.random(n)
            return np.interp(u, cdf, ys)
        # renormalise the tabulated CDF to the restricted support
        lo_mass = np.interp(-cut, ys, cdf)
        hi_mass = 1.0 - np.interp(cut, ys, cdf)
        total = lo_mass + hi_mass
        u = rng.random(n) * total
        left = u < lo_mass
        out = np.empty(n)
        # inverting the interpolated CDF can land an ulp inside the cut
        out[left] = np.minimum(np.interp(u[left], cdf, ys), -cut)
        out[~left] = np.maximum(
            np.interp(u[~left] - lo_mass + np.interp(cut, ys, cdf), cdf, ys), cut)
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

    def exponent_at(self, xis, cutoff):
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
        return complex(self.exponent_at(np.array([[xi]]), cutoff)[0])

    def _exponents(self, xi: np.ndarray, r: float) -> np.ndarray:
        """I(xi) at positive frequencies xi, with the compensator on
        y <= r (r the cut-off support radius), on the panel set of r,
        built at the first call (``ExponentPanels``)."""
        panels = self._panel_sets.get(r)
        if panels is None:
            panels = self._panel_sets[r] = ExponentPanels(self.levels, self.eps, self.y_max, r)
        return panels.exponents(xi)

    def is_symmetric(self):
        probes = np.geomspace(self.eps, self.y_max, 17)
        pos, neg = self.levels(np.concatenate([probes, -probes])).reshape(2, -1)
        # math.isclose(pos, neg, rel_tol=1e-9, abs_tol=1e-12) at every probe
        tol = np.maximum(1e-9 * np.maximum(np.abs(pos), np.abs(neg)), 1e-12)
        return bool(np.all(np.abs(pos - neg) <= tol))

    def validate(self, dim):
        if dim != 1:
            raise ValueError("density measures are one-dimensional")


# ---------------------------------------------------------------------------
# coefficient functions (constant or expression-backed)

class Coefficient:
    """Scalar coefficient of the state: a constant ``value`` or an
    Expression ``expr``, read through ``CoefficientValues``."""

    def __init__(self, spec):
        if isinstance(spec, Expression):
            self.expr: Expression | None = spec
            self.value = None
        else:
            self.expr = None
            self.value = float(spec)

    @property
    def is_constant(self) -> bool:
        return self.expr is None


class CoefficientValues:
    """The values of a model's coefficients at one batch of n states.

    ``blocks`` lists (key, coefficients, shape) triples: ``values[key]``
    is the (n, *shape) array whose [:, k] entries, in C order, are the
    k-th coefficient's values.  A block whose coefficients are all
    constant is filled once, when it is first read; ``evaluate(xs)``
    writes the others' values at the (n, d) states xs, one lenient
    Expression evaluation per coefficient, so NaN where a coefficient is
    undefined; ``carry(other, where)`` copies another batch's values on
    the rows where ``where`` holds.  The arrays are buffers
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

    def evaluate(self, xs: np.ndarray) -> "CoefficientValues":
        for c, out in self.varying:
            np.copyto(out, c.expr.evaluate_lenient(xs))
        return self

    def carry(self, other: "CoefficientValues", where: np.ndarray) -> None:
        for (_, out), (_, new) in zip(self.varying, other.varying):
            np.copyto(out, new, where=where)


class VectorCoefficient:
    def __init__(self, specs: Sequence, dim: int):
        self.parts = [Coefficient(s) for s in specs]
        if len(self.parts) != dim:
            raise ValueError("drift needs one entry per coordinate")

    @property
    def is_constant(self) -> bool:
        return all(p.is_constant for p in self.parts)

    def constant_value(self) -> np.ndarray:
        return np.array([p.value for p in self.parts])


class MatrixCoefficient:
    def __init__(self, specs: Sequence[Sequence], dim: int):
        self.rows = [[Coefficient(s) for s in row] for row in specs]
        if len(self.rows) != dim or any(len(r) != dim for r in self.rows):
            raise ValueError("covariance must be d x d")

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for row in self.rows for c in row)

    def constant_value(self) -> np.ndarray:
        return np.array([[c.value for c in row] for row in self.rows])


def _violation(what: str, bad: np.ndarray, pts: np.ndarray) -> str | None:
    """The message "<what> at x=<point>" for the first of the probe
    points pts whose row of ``bad`` holds, or None."""
    rows = bad.reshape(len(pts), -1).any(axis=1)
    return f"{what} at x={pts[int(np.argmax(rows))].tolist()}" if rows.any() else None


# ---------------------------------------------------------------------------
# triplet and state model

@dataclass(frozen=True)
class LevyTriplet:
    """Constant characteristic data (a, l, Q, N, chi)."""

    killing_rate: float
    drift: np.ndarray
    covariance: np.ndarray
    measure: MeasureFamily = field(default_factory=ZeroMeasure)
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
        if not self.measure.is_constant:
            raise ValueError(f"a Levy triplet needs a constant measure, got a "
                             f"{type(self.measure).__name__} with state-dependent coefficients")
        self.measure.validate(self.dim)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def exponent_many(self, xis: np.ndarray) -> np.ndarray:
        """The exponent at the (N, d) frequencies xis: the symbol of the
        triplet's constant model, which reads no state."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        return StateModel.from_triplet(self)._symbol_rows(xis)(None)


class StateModel:
    """State-dependent characteristic data over a rectangular domain box.

    Evaluating at a point of the box yields a valid LevyTriplet; the
    vectorised ``symbol_many`` evaluates the frozen-coefficient symbol
    over batches of (state, frequency) pairs.

    ``sde`` is None, or the coefficient f of an SDE dX = f(X-) dZ with
    a one-dimensional Levy driver Z.  Such a model holds the driver's
    constant triplet as its own characteristics (``from_triplet(driver,
    sde=f)``): its symbol is the driver's exponent at f(x) xi, and its
    increments are the driver's, scaled by f.
    """

    def __init__(self, dim: int, kill: Coefficient, drift: VectorCoefficient,
                 covariance: MatrixCoefficient, measures: MeasureFamily,
                 cutoff: CutoffFunction, domain_box: np.ndarray,
                 sde: Coefficient | None = None, name: str = "model"):
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
        measures.validate(dim)

    @staticmethod
    def from_triplet(triplet: LevyTriplet, domain_box=None, name: str = "levy",
                     sde: Coefficient | None = None) -> "StateModel":
        d = triplet.dim
        if domain_box is None:
            domain_box = [[-10.0, 10.0]] * d
        return StateModel(
            dim=d,
            kill=Coefficient(triplet.killing_rate),
            drift=VectorCoefficient(list(triplet.drift), d),
            covariance=MatrixCoefficient(triplet.covariance.tolist(), d),
            measures=triplet.measure,
            cutoff=triplet.cutoff,
            domain_box=domain_box,
            sde=sde,
            name=name,
        )

    @property
    def is_constant(self) -> bool:
        """Constant coefficients, a constant measure and no SDE
        coefficient."""
        return (self.sde is None and self.kill.is_constant and self.drift.is_constant
                and self.covariance.is_constant and self.measures.is_constant)

    def constant_triplet(self) -> LevyTriplet:
        if not self.is_constant:
            raise ValueError("model is state dependent")
        return LevyTriplet(
            killing_rate=self.kill.value,
            drift=self.drift.constant_value(),
            covariance=self.covariance.constant_value(),
            measure=self.measures,
            cutoff=self.cutoff,
        )

    def coefficient_blocks(self) -> list:
        """The coefficients that the simulation and the symbol read, as
        ``CoefficientValues`` blocks keyed by their holders: the killing
        rate ``kill``, the (n, d) drift, the (n, d, d) covariance, the
        measure's coefficients and the SDE coefficient f."""
        d = self.dim
        sde = [] if self.sde is None else [(self.sde, [self.sde], ())]
        return [(self.kill, [self.kill], ()),
                (self.drift, self.drift.parts, (d,)),
                (self.covariance, [c for row in self.covariance.rows for c in row], (d, d)),
                *self.measures.coefficient_blocks(), *sde]

    def coefficient_values(self, xs: np.ndarray) -> CoefficientValues:
        """The coefficients' values at the (N, d) states xs, NaN where a
        coefficient is undefined."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return CoefficientValues(self.coefficient_blocks(), xs.shape[0]).evaluate(xs)

    def symbol_many(self, xs: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """Frozen-coefficient symbol p(x, xi) over batched inputs
        (both (N, d)); includes the killing rate.  Raises ValueError
        naming the first (x, xi) whose value is not finite, e.g. where a
        coefficient is undefined."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        # a constant model's symbol reads no coefficient values
        values = None if self.is_constant else self.coefficient_values(xs)
        out = self._symbol_rows(xis)(values)
        bad = ~np.isfinite(out)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"symbol {out[k]} not finite at x={xs[k].tolist()}, "
                             f"xi={xis[k].tolist()}")
        return out

    def symbol_at(self, u, n: int) -> Callable[..., np.ndarray]:
        """p(., u) at one fixed frequency u for batches of n states:
        ``symbol_at(u, n)(xs)`` equals ``symbol_many`` on xs and n copies
        of u bit for bit, except that a row whose value is not finite
        (NaN where a coefficient is undefined) is kept, not raised.  The
        returned ``symbol(xs, values=None, out=None)`` reads the
        coefficients from ``values`` (``coefficient_values(xs)``,
        evaluated if not given) and writes into the complex (n,) array
        ``out`` if given.  The terms that do not depend on the state are
        formed once, here, from u broadcast to the n rows, and so are
        scratch buffers for the others, which make one ``symbol`` unsafe
        to share between threads."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        rows = self._symbol_rows(np.broadcast_to(u, (n, len(u))))

        def symbol(xs, values=None, out=None):
            if values is None:
                values = self.coefficient_values(xs)
            return rows(values, out)

        return symbol

    def _symbol_rows(self, xis: np.ndarray) -> Callable[..., np.ndarray]:
        """p(., xi) at the (N, d) frequencies xis as a function
        ``symbol(values, out=None)`` of the coefficient values at N states:
        the rows of ``_characteristic_rows``, or for an SDE model those
        rows, all constant, evaluated at f(x) xi when called, NaN where f
        is not finite."""
        if self.sde is None:
            return self._characteristic_rows(xis)

        def sde(values, out=None):
            f = values[self.sde]
            ok = np.isfinite(f)
            if out is None:
                out = np.empty(len(f), dtype=complex)
            out[~ok] = np.nan
            out[ok] = self._characteristic_rows(f[ok, None] * xis[ok])(None)
            return out

        return sde

    def _characteristic_rows(self, xis: np.ndarray) -> Callable[..., np.ndarray]:
        """The symbol of the model's own characteristics at the (N, d)
        frequencies xis, as ``symbol(values, out=None)``,

            ((a - i <l, xi>) + <xi, Q xi> / 2) - jump part,

        summed in this order into out, or into a new array.  A term whose
        coefficient is constant is evaluated here, once, from the (d,)
        drift or (d, d) covariance, as is the frequency-only part of the
        jump term (``MeasureFamily.exponent_at``); a leading run of
        constant terms is summed here too, all but the last sum.  The
        state-dependent terms are formed in buffers made here."""
        n = len(xis)

        if self.kill.is_constant:
            first = self.kill.value
        else:
            first = lambda values: values[self.kill]

        if self.drift.is_constant:
            drift = 1j * _row_dot(xis, self.drift.constant_value())
        else:
            real, imag = np.empty(n), np.empty(n, dtype=complex)

            def drift(values):
                return np.multiply(1j, _row_dot(values[self.drift], xis, out=real), out=imag)

        if self.covariance.is_constant:
            covariance = 0.5 * _row_quad(xis, self.covariance.constant_value())
        else:
            quad = np.empty(n)

            def covariance(values):
                return np.multiply(0.5, _row_quad(xis, values[self.covariance], out=quad), out=quad)

        rest = [
            (np.subtract, drift),
            (np.add, covariance),
            (np.subtract, self.measures.exponent_at(xis, self.cutoff)),
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
    if xg.size == 0 or kg.size == 0:
        raise ValueError("grids must be nonempty")
    xs = np.repeat(xg, kg.shape[0], axis=0)
    xis = np.concatenate([kg] * xg.shape[0])
    return xg, kg, xs, xis


def check_growth(model: StateModel, x_grid, xi_grid) -> ConditionEstimate:
    """Estimate the constant in |p(x, xi)| <= c (1 + |xi|^2) as a grid
    supremum of the ratio.  Finiteness over the grid always holds, so
    the estimate is reported with satisfied=True."""
    xg, kg, xs, xis = _pairs(x_grid, xi_grid, model.dim)
    vals = model.symbol_many(xs, xis)
    ratio = np.abs(vals) / (1.0 + _row_dot(xis, xis))
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
