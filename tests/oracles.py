"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written without touching the production
evaluation paths: brute-force grid loops, textbook closed forms and
direct samplers.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from symbolkit.expr import Binary, Const, ExpressionDomainError, Unary, Var
from symbolkit.extended import STATUS_FINITE


def bm_max_abs_cdf(r: float, t: float, terms: int = 30) -> float:
    """P(sup_{s<=t} |W_s| <= r) for standard one-dimensional Brownian
    motion, by the reflection (alternating images) series."""
    if r <= 0:
        return 0.0
    s = math.sqrt(t)
    total = 0.0
    for k in range(-terms, terms + 1):
        total += (-1) ** k * (norm.cdf((2 * k + 1) * r / s) - norm.cdf((2 * k - 1) * r / s))
    return float(total)


def bm_max_abs_exceed(r: float, t: float) -> float:
    """P(sup_{s<=t} |W_s| >= r)."""
    return 1.0 - bm_max_abs_cdf(r, t)


def compound_poisson_cf(xi: float, t: float, rate: float, jump: float,
                        n: int = 200_000, seed: int = 123) -> complex:
    """Monte-Carlo characteristic function of a compound Poisson process
    with a single atom, sampled directly (no path machinery)."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rate * t, size=n)
    return complex(np.exp(1j * xi * jump * counts).mean())


def grid_max_ratio(symbol_fn, x_grid, xi_grid, weight_fn):
    """Brute-force double loop supremum of |symbol| * weight over two
    scalar grids; oracle for the growth/sector estimates."""
    best = -math.inf
    arg = None
    for x in x_grid:
        for xi in xi_grid:
            v = symbol_fn(x, xi)
            w = weight_fn(v, xi)
            if w > best:
                best = w
                arg = (x, xi)
    return best, arg


def brute_quantity_H(symbol_fn, R: float, ys, n_dirs: int = 2, n_radii: int = 8) -> float:
    """Loop-based H(R) for scalar models: sup over y and over the unit
    ball grid of |p(y, eps/R)|."""
    eps = [0.0]
    for r in np.linspace(1.0 / n_radii, 1.0, n_radii):
        eps.extend([r, -r])
    best = 0.0
    for y in ys:
        for e in eps:
            best = max(best, abs(symbol_fn(y, e / R)))
    return best


def atom_exponent_fsum(xi, jumps, rates, chi) -> tuple[complex, float]:
    """The sum over atoms y_k of rate_k (e^{i theta_k} - 1 - i theta_k chi_k),
    theta_k = <xi, y_k>, with every sum a math.fsum: theta_k over the
    coordinates' products, then the real and the imaginary parts over
    the atoms.  Each term takes numpy's e^{i theta}, as the exponent
    does, so only the sums differ.  Returns the value and the sum of the
    terms' moduli."""
    theta = np.array([math.fsum(float(a) * float(b) for a, b in zip(xi, y)) for y in jumps])
    e = np.exp(1j * theta)
    re = [(float(c) - 1.0) * float(r) for c, r in zip(e.real, rates)]
    im = [(float(s) - float(t) * float(h)) * float(r)
          for s, t, h, r in zip(e.imag, theta, chi, rates)]
    return complex(math.fsum(re), math.fsum(im)), math.fsum(map(math.hypot, re, im))


def stable_standard_reference(alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One symmetric stable variate with characteristic function
    exp(-|xi|^alpha) per entry of alpha, by the polar
    (Chambers-Mallows-Stuck) method: draws (n,) uniforms for the angle u,
    then (n,) uniforms for the exponential w, from rng.  Evaluates both
    branches for every entry and picks one with np.where."""
    n = alpha.shape[0]
    u = (rng.random(n) - 0.5) * math.pi
    w = np.maximum(-np.log(np.maximum(rng.random(n), 1e-300)), 1e-300)
    tan_branch = np.tan(u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
             * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))
    return np.where(np.abs(alpha - 1.0) < 1e-12, tan_branch, s)


def expr_reference(e, x) -> float:
    """Value of the expression e at the point x by a scalar tree walk on
    the math module, independent of ``Expression.evaluate``; raises
    ExpressionDomainError where the expression is undefined."""
    return _walk(e, [float(v) for v in np.atleast_1d(x)])


def _walk(e, xs: list[float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index > len(xs):
            raise ExpressionDomainError(f"x{e.index} undefined for dim {len(xs)}")
        return xs[e.index - 1]
    if isinstance(e, Unary):
        a = _walk(e.arg, xs)
        if e.op == "neg":
            return -a
        if e.op == "exp":
            try:
                return math.exp(a)
            except OverflowError:
                return math.inf
        if e.op == "log":
            if a <= 0.0:
                raise ExpressionDomainError("log of non-positive value")
            return math.log(a)
        if e.op == "sin":
            return math.sin(a)
        if e.op == "cos":
            return math.cos(a)
        if e.op == "abs":
            return abs(a)
        if e.op == "arctan":
            return math.atan(a)
        raise AssertionError(e.op)
    assert isinstance(e, Binary)
    a = _walk(e.left, xs)
    b = _walk(e.right, xs)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        if b == 0.0:
            raise ExpressionDomainError("division by zero")
        return a / b
    if e.op == "^":
        if a < 0 and b != math.floor(b):
            raise ExpressionDomainError("fractional power of negative base")
        if a == 0 and b < 0:
            raise ExpressionDomainError("0^negative")
        try:
            return math.pow(a, b)
        except OverflowError:
            return math.inf
    if e.op == "min":
        return min(a, b)
    if e.op == "max":
        return max(a, b)
    raise AssertionError(e.op)


def e_xi_at(ens, t: float, xi) -> np.ndarray:
    """Per-path e_xi(X_t - x0) of a stored ensemble: the complex phase on
    finite states, zero on cemetery states, NaN on invalid paths."""
    j = ens.time_index(t)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.exp(1j * ((ens.values[:, j, :] - ens.spec.x0) @ xi))
    out[ens.status[:, j] != STATUS_FINITE] = 0.0
    out[ens.invalid] = np.nan
    return out


def _sin_minus_theta(theta: float) -> float:
    """sin(theta) - theta for 0 <= theta <= 1, by its Taylor series."""
    term, total = theta, 0.0
    for k in range(1, 12):
        term *= -theta * theta / ((2 * k) * (2 * k + 1))
        total += term
    return total


def density_exponent_quad(level, eps: float, y_max: float, r: float, xi: float) -> complex:
    """The integral of (e^{i y xi} - 1 - i y xi 1{|y| <= r}) level(y) over
    eps <= |y| <= y_max at xi > 0, by scipy.integrate.quad (QUADPACK) on
    the folded sides g = level(y) + level(-y) and o = level(y) - level(-y).

    Where y xi < 1 it integrates -2 sin^2(y xi / 2) g and (sin(y xi) -
    y xi) o without cancellation (the latter by its series); above, QAWO
    (weight cos or sin, wvar = xi, absolute tolerance 1e-13 of the piece's
    mass) on pieces at most a factor e long, since one piece over several
    decades misses its tolerance at xi = 1e7, less the integrals of g and
    of xi y o (up to r) by plain quad."""
    g = lambda y: level(y) + level(-y)
    o = lambda y: level(y) - level(-y)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=2000)
    split = min(max(1.0 / xi, eps), y_max)
    re = im = 0.0
    if split > eps:
        points = [r] if eps < r < split else None
        re += quad(lambda y: -2.0 * math.sin(0.5 * xi * y) ** 2 * g(y), eps, split,
                   points=points, **opts)[0]
        im += quad(lambda y: (_sin_minus_theta(xi * y) if y <= r else math.sin(xi * y)) * o(y),
                   eps, split, points=points, **opts)[0]
    if split < y_max:
        edges = np.geomspace(split, y_max, math.ceil(math.log(y_max / split)) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            # the oscillatory parts are small against the piece's mass at
            # high xi: ask for 1e-13 of the mass (|o| <= g as level >= 0)
            mass = quad(g, lo, hi, **opts)[0]
            wave = dict(opts, epsabs=1e-13 * mass)
            re += quad(g, lo, hi, weight="cos", wvar=xi, **wave)[0] - mass
            im += quad(o, lo, hi, weight="sin", wvar=xi, **wave)[0]
        if split < r:
            im -= xi * quad(lambda y: y * o(y), split, min(r, y_max), **opts)[0]
    return complex(re, im)
