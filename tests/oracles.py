"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written without touching the production
evaluation paths: brute-force grid loops, textbook closed forms and
direct samplers.
"""

import math

import numpy as np
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
