"""Reference values computed apart from symbolkit, and the checks that
compare the program's outputs with them.

Nothing here imports symbolkit.  Every check returns a list of problems;
an empty list means the output passed.  Monte-Carlo checks allow
``Z_MC`` standard errors plus a stated discretization bias, so a correct
method passes them with overwhelming probability on any seed.
"""

from __future__ import annotations

import math

import numpy as np

Z_MC = 6.0          # standard errors allowed in Monte-Carlo checks
INDEX_TOL = 0.05    # absolute tolerance on an index
STOP_BIAS = 0.02    # share of |p| allowed for exit-ball stopping and Euler freezing

# The benchmark's density model (models/tempered_stable.model):
# N(dy) = exp(-|y|) |y|^-1.5 dy on DENSITY_EPS <= |y| <= DENSITY_YMAX.
DENSITY_EPS = 1e-3
DENSITY_YMAX = 20.0


def density(y):
    y = np.abs(y)
    return np.exp(-y) * y ** -1.5


def _log_panel_rule(lo: float, hi: float, panels: int = 256, order: int = 20):
    """Composite Gauss-Legendre nodes and weights on log-spaced panels."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.geomspace(lo, hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * nodes + 0.5 * (b + a)).ravel(), (0.5 * (b - a) * weights).ravel()


_Y, _W = _log_panel_rule(DENSITY_EPS, DENSITY_YMAX)


def density_moment(k: int) -> float:
    """integral of |y|^k N(dy) over the two-sided support, by quadrature."""
    return float(2.0 * np.sum(_W * _Y ** k * density(_Y)))


def density_symbol(xi: float) -> float:
    """p(xi) = integral (1 - cos(xi y)) N(dy); the measure is symmetric, so
    the compensator term cancels and the symbol is real."""
    return float(2.0 * np.sum(_W * 2.0 * np.sin(0.5 * xi * _Y) ** 2 * density(_Y)))


# ---------------------------------------------------------------------------
# closed-form symbols of the bundled models probed by the benchmark

def closed_form_symbol(model: str, x: float, xi: float) -> complex:
    if model == "bm":
        return complex(0.5 * xi * xi)
    if model == "cauchy":
        return complex(abs(xi))
    if model == "compound_poisson":
        return 1.0 - complex(math.cos(2.0 * xi), math.sin(2.0 * xi))
    if model == "killed_levy":
        return complex(0.5)
    if model == "sde_cauchy":
        return complex(abs(x * xi))
    raise KeyError(model)


def ladder_bias(p: complex, ladder) -> float:
    """|intercept - p| of the least-squares line through the ladder values
    (1 - exp(-t p)) / t, which a Levy process without stopping gives in
    expectation: the curvature the extrapolation leaves in place."""
    ts = np.asarray(sorted(ladder, reverse=True), dtype=float)
    means = -np.expm1(-ts * p) / ts
    design = np.stack([np.ones_like(ts), ts], axis=1)
    intercept = (np.linalg.pinv(design.T @ design) @ design.T @ means)[0]
    return float(abs(intercept - p))


def probe_tolerance(p: complex, ladder, stderr: float) -> float:
    """Z_MC standard errors plus the ladder curvature and STOP_BIAS |p|."""
    return Z_MC * stderr + ladder_bias(p, ladder) + STOP_BIAS * abs(p)


def check_probe(model: str, x: float, xi: float, ladder, analytic: complex,
                estimate: complex, stderr: float) -> list[str]:
    where = f"{model} x={x:g} xi={xi:g}"
    p = closed_form_symbol(model, x, xi)
    problems = []
    if not abs(analytic - p) <= 1e-12 * max(1.0, abs(p)):
        problems.append(f"{where}: analytic {analytic} != closed form {p}")
    if not (math.isfinite(stderr) and stderr > 0.0):
        problems.append(f"{where}: stderr {stderr} is not a positive number")
        return problems
    tol = probe_tolerance(p, ladder, stderr)
    if not abs(estimate - p) <= tol:
        problems.append(f"{where}: estimate {estimate:.6g} is {abs(estimate - p):.3g} "
                        f"from {p:.6g}, allowed {tol:.3g}")
    return problems


# ---------------------------------------------------------------------------
# verify reports

def killing_law(t: float) -> float:
    """P(zeta <= t) for killed_autonomous: X_t = t exactly and the
    killing rate is x^2, so the hazard integral is t^3 / 3."""
    return -math.expm1(-t ** 3 / 3.0)


def check_killed_autonomous(reports: dict, n_paths: int, dt: float) -> list[str]:
    problems = []
    for name, rep in reports.items():
        if rep["excluded_paths"] != 0:
            problems.append(f"{name}: {rep['excluded_paths']} paths excluded, "
                            "but X_t = t never explodes")
    n = n_paths
    for row in reports["killing"]["rows"]:
        t = row["t"]
        p = killing_law(t)
        bias = t * dt * dt / 6.0     # trapezoid hazard: the discrete law adds t dt^2 / 6
        tol = Z_MC * math.sqrt(p * (1.0 - p) / n) + bias
        if not abs(row["kill_prob"] - p) <= tol:
            problems.append(f"killing t={t}: P(zeta <= t) {row['kill_prob']:.6g} vs "
                            f"{p:.6g}, allowed {tol:.3g}")
        # A_t = (t ^ zeta)^3 / 3 lies in [0, t^3/3]; its mean equals the
        # law above up to the half-step kill convention (at most a dt / 2)
        tol = Z_MC * (t ** 3 / 3.0) / math.sqrt(n) + 0.5 * t * t * dt
        if not abs(row["mean_compensator"] - p) <= tol:
            problems.append(f"killing t={t}: mean compensator {row['mean_compensator']:.6g}"
                            f" vs {p:.6g}, allowed {tol:.3g}")
    problems += _check_exponential(reports["exponential"], 1.0 + 0.0j)
    problems += _check_canonical(reports["canonical"])
    return problems


def check_stable_like(reports: dict, n_paths: int) -> list[str]:
    problems = []
    excluded = {rep["excluded_paths"] for rep in reports.values()}
    if len(excluded) != 1:
        problems.append(f"suites disagree on excluded paths: {sorted(excluded)}")
    elif not 0 <= excluded.pop() < n_paths:
        problems.append("every path excluded")
    for row in reports["killing"]["rows"]:
        if row["kill_prob"] != 0.0 or row["mean_compensator"] != 0.0:
            problems.append(f"killing t={row['t']}: killing rate is 0, got "
                            f"{row['kill_prob']} / {row['mean_compensator']}")
    problems += _check_exponential(reports["exponential"], 1.0 + 0.0j)
    problems += _check_canonical(reports["canonical"])
    return problems


def as_complex(v) -> complex:
    """A complex number as the program's JSON writer renders it."""
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)


def _check_exponential(rep: dict, v0: complex) -> list[str]:
    problems = []
    for row in rep["rows"]:
        if "reference" in row and abs(as_complex(row["reference"]) - v0) > 1e-12:
            problems.append(f"exponential t={row['t']}: reference {row['reference']} != {v0}")
        stat, se = as_complex(row["statistic"]), row["stderr"]
        if not abs(stat - v0) <= Z_MC * se + 1e-12:
            problems.append(f"exponential t={row['t']}: statistic {stat:.6g} vs {v0}, "
                            f"allowed {Z_MC * se:.3g}")
    return problems


def _check_canonical(rep: dict) -> list[str]:
    problems = []
    for row in rep["rows"]:
        for mean, se in zip(row["mean_residual"], row["stderr"]):
            if not abs(mean) <= Z_MC * se + 1e-9:
                problems.append(f"canonical t={row['t']}: mean residual {mean:.3g}, "
                                f"allowed {Z_MC * se + 1e-9:.3g}")
    return problems


# ---------------------------------------------------------------------------
# index and condition reports

INDEX_FIELDS = {
    "origin": ("beta0", "beta0_lower", "delta0_upper", "delta0"),
    "infinity": ("beta_inf_x", "beta_inf_x_lower", "delta_inf_x_upper", "delta_inf_x"),
}


def check_indices(rep: dict, expected: dict, rmin: float, rmax: float,
                  points: int = 16) -> list[str]:
    """``expected`` maps index field names to their exact values."""
    problems = []
    grid = np.geomspace(rmin, rmax, points)
    if len(rep["R_grid"]) != points or not np.allclose(rep["R_grid"], grid, rtol=1e-12):
        problems.append("R grid differs from the requested geometric grid")
    for key, value in expected.items():
        got = rep[key]
        if got is None or not abs(got - value) <= INDEX_TOL:
            problems.append(f"{key} = {got}, expected {value} +- {INDEX_TOL}")
    return problems


def check_density_H(rep: dict, rel_slack: float = 1e-4) -> list[str]:
    """H(R) = p(1/R) for the symmetric density model, and
    m2 xi^2 / 2 - m4 xi^4 / 24 <= p(xi) <= m2 xi^2 / 2."""
    m2, m4 = density_moment(2), density_moment(4)
    problems = []
    for r, h in zip(rep["R_grid"], rep["H_values"]):
        scaled = h * r * r
        lo, hi = 0.5 * m2 - m4 / (24.0 * r * r), 0.5 * m2
        if not lo * (1.0 - rel_slack) <= scaled <= hi * (1.0 + rel_slack):
            problems.append(f"H({r:.4g}) R^2 = {scaled:.9g} outside [{lo:.9g}, {hi:.9g}]")
    return problems


def check_density_conditions(rep: dict, xi_grid) -> list[str]:
    problems = []
    ratios = [density_symbol(xi) / (1.0 + xi * xi) for xi in xi_grid]
    growth = max(ratios)
    got = rep["growth"]["constant"]
    if not abs(got - growth) <= 1e-6 * growth:
        problems.append(f"growth constant {got} vs {growth}")
    sector = rep["sector"]
    if not sector["satisfied"] or not sector["constant"] <= 1e-9:
        problems.append(f"sector condition of a symmetric measure: {sector}")
    return problems
