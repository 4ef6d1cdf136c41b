"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every tolerance is pinned here; Monte-Carlo criteria use fixed seeds so
the suite is deterministic.
"""

import math

import numpy as np
import pytest

from symbolkit.expr import parse_expression
from symbolkit.extended import (
    ExtPoint,
    STATUS_FINITE,
    UndefinedExtendedOperation,
    classify_killing,
    e_xi,
    ext_add,
    ext_norm,
    ext_scale,
)
from symbolkit.indices import estimate_indices, scaling_diagnostic, verify_maximal_inequality
from symbolkit.martingale import killing_compensator_check
from symbolkit.simulate import (
    PathSampler,
    SimSpec,
    make_sde_model,
    sample_autonomous,
    sample_levy,
)
from symbolkit.symbol import ProbeSettings, estimate_symbol_grid, symbol_independence_check
from symbolkit.triplet import (
    Coefficient,
    CutoffFunction,
    DiscreteMeasure,
    LevyTriplet,
    MatrixCoefficient,
    StableMeasure,
    StateModel,
    VectorCoefficient,
    ZeroMeasure,
    eval_exponent,
)

from helpers import complex_se
from oracles import bm_max_abs_exceed, e_xi_at, expr_reference

N_BIG = 100_000


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _levy_fixtures():
    return {
        "bm": LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()),
        "bm_drift": LevyTriplet(0.0, [1.0], [[1.0]], ZeroMeasure()),
        "compound_poisson": LevyTriplet(0.0, [0.0], [[0.0]],
                                        DiscreteMeasure([[2.0]], [1.0]),
                                        CutoffFunction(radius=1.0)),
        "cauchy": LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0)),
    }


def _scalar_model(kill, drift, cov, measures=None, box=((-10.0, 10.0),)):
    return StateModel(
        dim=1, kill=Coefficient(kill),
        drift=VectorCoefficient([drift], 1),
        covariance=MatrixCoefficient([[cov]], 1),
        measures=measures or ZeroMeasure(),
        cutoff=CutoffFunction(),
        domain_box=np.asarray(box),
    )


# ---------------------------------------------------------------------------

def test_criterion_01_levy_exponent_identity():
    """Empirical characteristic function against exp(-t phi(xi))."""
    xi_grid = (-2.0, -1.0, 0.5, 1.0, 2.0)
    t_grid = (0.25, 0.5, 1.0)
    worst = 0.0
    ok = True
    for seed, (name, tri) in enumerate(_levy_fixtures().items(), start=101):
        spec = SimSpec(x0=[0.0], horizon=1.0, dt=0.05, n_paths=N_BIG, rng_seed=seed)
        ens = sample_levy(tri, spec)
        for t in t_grid:
            for xi in xi_grid:
                e = e_xi_at(ens, t, [xi])
                target = np.exp(-t * eval_exponent(tri, [xi]))
                err = abs(e.mean() - target)
                se = complex_se(e)
                z = err / se if se > 0 else 0.0
                worst = max(worst, z)
                ok &= err <= 3.0 * se + 1e-12
    _report(1, "Levy exponent identity on 4 fixtures x 3 times x 5 frequencies",
            ok, f"worst z = {worst:.2f}")


def test_criterion_02_killing_law():
    ok = True
    details = []
    for seed, a in ((111, 0.1), (112, 0.5), (113, 2.0)):
        tri = LevyTriplet(a, [0.0], [[0.0]], ZeroMeasure())
        ens = sample_levy(tri, SimSpec(x0=[0.0], horizon=1.0, dt=0.01,
                                       n_paths=N_BIG, rng_seed=seed))
        surv = (ens.status[:, -1] == STATUS_FINITE).mean()
        p = math.exp(-a)
        tol = 3.0 * math.sqrt(p * (1 - p) / N_BIG)
        ok &= abs(surv - p) <= tol
        details.append(f"a={a}: {surv:.4f} vs {p:.4f}")
    model = _scalar_model(parse_expression("x1^2"), 1.0, 0.0, box=((-3.0, 3.0),))
    ens = sample_autonomous(model, SimSpec(x0=[0.0], horizon=1.0, dt=0.005,
                                           n_paths=N_BIG, rng_seed=114))
    surv = (ens.status[:, -1] == STATUS_FINITE).mean()
    p = math.exp(-1.0 / 3.0)
    ok &= abs(surv - p) <= 3.0 * math.sqrt(p * (1 - p) / N_BIG)
    details.append(f"a=x^2: {surv:.4f} vs {p:.4f}")
    _report(2, "killing law, constant and state-dependent rates", ok,
            "; ".join(details))


def _probe_models():
    fx = _levy_fixtures()
    return {
        "bm": StateModel.from_triplet(fx["bm"]),
        "cauchy": StateModel.from_triplet(fx["cauchy"]),
        "compound_poisson": StateModel.from_triplet(fx["compound_poisson"]),
        "killed_levy": StateModel.from_triplet(
            LevyTriplet(0.5, [0.0], [[0.0]], ZeroMeasure())),
    }


def test_criterion_03_symbol_probe_vs_analytic():
    x_grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    xi_grid = (0.5, 1.0, 1.5, 2.0, 3.0)
    ok = True
    worst_rel = 0.0
    n_checked = 0
    for m_i, (name, model) in enumerate(_probe_models().items()):
        for x_i, x in enumerate(x_grid):
            settings = ProbeSettings(k_radius=1.0, n_samples=N_BIG)
            sampler = PathSampler(model=model, dt=settings.default_dt,
                                  seed=1000 + 31 * m_i + x_i)
            # one simulation serves every frequency of the sampler
            grid = estimate_symbol_grid(sampler, [x], [[xi] for xi in xi_grid],
                                        [settings.k_radius], settings)
            for rep in grid[settings.k_radius]:
                tol = max(0.10 * abs(rep.analytic), 3.0 * rep.extrapolated_stderr)
                err = abs(rep.extrapolated - rep.analytic)
                ok &= err <= tol
                if abs(rep.analytic) > 1e-8:
                    worst_rel = max(worst_rel, err / abs(rep.analytic))
                n_checked += 1
    # exit-ball independence over radii {1, 2, 4}
    for m_i, (name, model) in enumerate(_probe_models().items()):
        sampler = PathSampler(model=model, dt=1e-4, seed=2000 + m_i)
        indep = symbol_independence_check(sampler, [0.0], [1.0], (1.0, 2.0, 4.0),
                                          ProbeSettings(n_samples=N_BIG))
        ok &= indep.consistent
    _report(3, f"symbol probe vs analytic on {n_checked} probes + K-independence",
            ok, f"worst rel err {worst_rel:.3f}")


def test_criterion_04_sde_symbol_identity():
    driver = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))
    model = make_sde_model(parse_expression("x1"), driver)
    ok = True
    worst = 0.0
    for i, x in enumerate((0.5, 1.0, 2.0)):
        settings = ProbeSettings(k_radius=x / 2.0, n_samples=200_000,
                                 t_ladder=(0.08, 0.04, 0.02, 0.01))
        sampler = PathSampler(model=model, dt=settings.default_dt, seed=3000 + i)
        grid = estimate_symbol_grid(sampler, [x], [[0.5], [1.0], [2.0]],
                                    [settings.k_radius], settings)
        for rep in grid[settings.k_radius]:
            xi = rep.xi[0]
            target = abs(x * xi)
            rel = abs(rep.extrapolated - target) / target
            worst = max(worst, rel)
            ok &= rel <= 0.15
    _report(4, "SDE symbol identity p(x, xi) = psi(f(x) xi) for multiplicative Cauchy",
            ok, f"worst rel err {worst:.3f}")


def test_criterion_05_index_recovery():
    ok = True
    details = []
    for alpha in (0.5, 1.0, 2.0):
        model = StateModel.from_triplet(
            LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(alpha, 1.0)))
        rep = estimate_indices(model, 1e2, 1e6, 16, "origin")
        vals = (rep.beta0, rep.beta0_lower, rep.delta0_upper, rep.delta0)
        ok &= all(abs(v - alpha) <= 0.05 for v in vals)
        details.append(f"alpha={alpha}: beta0={rep.beta0:.3f}")
    stable_like = StateModel(
        dim=1, kill=Coefficient(0.0), drift=VectorCoefficient([0.0], 1),
        covariance=MatrixCoefficient([[0.0]], 1),
        measures=StableMeasure(parse_expression("0.3 + 0.4/(1+x1^2)"), 1.0),
        cutoff=CutoffFunction(), domain_box=[[-15.0, 15.0]])
    rep = estimate_indices(stable_like, 1e2, 1e6, 16, "origin")
    ok &= abs(rep.beta0 - 0.3) <= 0.05
    ok &= abs(rep.delta0 - 0.7) <= 0.05
    details.append(f"stable-like: beta0={rep.beta0:.3f}, delta0={rep.delta0:.3f}")
    _report(5, "index recovery (deterministic grids)", ok, "; ".join(details))


def test_criterion_06_maximal_inequality():
    ok = True
    details = []
    # Brownian case with the reflection-principle cross-check
    bm = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    sampler = PathSampler(model=bm, dt=1e-4, seed=4001)
    rep = verify_maximal_inequality(sampler, [0.0], (0.1, 1.0),
                                    (1.0, 3.0, 10.0), N_BIG)
    ok &= math.isfinite(rep.sup_ratio_upper) and rep.stability < 0.5
    ti, ri = rep.t_grid.index(1.0), rep.R_grid.index(3.0)
    p_hat = rep.exceed_prob[ti][ri]
    p_true = bm_max_abs_exceed(3.0, 1.0)
    se = math.sqrt(p_true * (1 - p_true) / N_BIG)
    ok &= abs(p_hat - p_true) <= 3.0 * se
    details.append(f"bm: sup ratio {rep.sup_ratio_upper:.3g}, "
                   f"crosscheck z={(p_hat - p_true) / se:.2f}")
    # Cauchy case: boundedness and stability only
    cauchy = StateModel.from_triplet(
        LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0)))
    sampler = PathSampler(model=cauchy, dt=1e-3, seed=4002)
    rep2 = verify_maximal_inequality(sampler, [0.0], (0.1, 1.0),
                                     (1.0, 3.0, 10.0), N_BIG)
    ok &= math.isfinite(rep2.sup_ratio_upper) and rep2.stability < 0.5
    details.append(f"cauchy: sup ratio {rep2.sup_ratio_upper:.3g}, "
                   f"stability {rep2.stability:.2%}")
    _report(6, "maximal inequality ratios bounded, stable, BM cross-checked",
            ok, "; ".join(details))


def test_criterion_07_scaling_theorems():
    bm = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    sampler = PathSampler(model=bm, dt=1e-4, seed=4101)
    rep = scaling_diagnostic(sampler, [0.0], (4.0, 1.0),
                             np.geomspace(1e-3, 1e-1, 9), "zero", n_paths=1000)
    ok = rep.classifications[4.0] == "->0" and rep.classifications[1.0] == "->inf"
    cauchy = StateModel.from_triplet(
        LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0)))
    sampler = PathSampler(model=cauchy, dt=0.01, seed=4102)
    rep2 = scaling_diagnostic(sampler, [0.0], (0.5, 2.0),
                              np.geomspace(1.0, 100.0, 9), "infinity", n_paths=1000)
    ok &= rep2.classifications[0.5] == "->0" and rep2.classifications[2.0] == "->inf"
    _report(7, "scaling classification (BM t->0, Cauchy t->inf)", ok,
            f"bm slopes {rep.slopes}, cauchy slopes {rep2.slopes}")


def test_criterion_08_fourth_characteristic_compensator():
    t_grid = (0.25, 0.5, 1.0)
    fixtures = [
        ("a=0.5", _scalar_model(0.5, 0.0, 0.0), 4201),
        ("a=0", _scalar_model(0.0, 0.0, 0.0), 4202),
        ("a=x^2 drifting", _scalar_model(parse_expression("x1^2"), 1.0, 0.0,
                                         box=((-3.0, 3.0),)), 4203),
    ]
    ok = True
    details = []
    for name, model, seed in fixtures:
        ens = sample_autonomous(model, SimSpec(x0=[0.0], horizon=1.0, dt=0.005,
                                               n_paths=30_000, rng_seed=seed))
        rep = killing_compensator_check(ens, model, t_grid)
        ok &= rep.passed
        worst = max(abs(r["difference"]) for r in rep.rows)
        details.append(f"{name}: worst |diff| {worst:.4f}")
    _report(8, "fourth-characteristic compensator identity on 3 fixtures", ok,
            "; ".join(details))


def test_criterion_09_extended_arithmetic():
    inf2, delta2 = ExtPoint.infinity(2), ExtPoint.delta(2)
    fin = ExtPoint.finite([1.0, 2.0])
    ok = (
        ext_add(delta2, [1.0, 2.0]) == ExtPoint.delta(2)
        and ext_add(inf2, delta2) == ExtPoint.delta(2)
        and ext_add(delta2, delta2) == ExtPoint.delta(2)
        and ext_add(inf2, [5.0, 5.0]) == ExtPoint.infinity(2)
        and ext_add(fin, [3.0, 4.0]) == ExtPoint.finite([4.0, 6.0])
        and ext_scale(delta2, 0.0) == ExtPoint.finite([0.0, 0.0])
        and ext_scale(inf2, 0.0) == ExtPoint.finite([0.0, 0.0])
        and ext_scale(inf2, 3.0) == ExtPoint.infinity(2)
        and ext_scale(delta2, -2.0) == ExtPoint.delta(2)
        and ext_norm(delta2) == math.inf
        and ext_norm(inf2) == math.inf
        and ext_norm(ExtPoint.finite([3.0, 4.0])) == 5.0
        and e_xi(delta2, [1.0, 1.0]) == 0.0
        and abs(e_xi(ExtPoint.finite([math.pi]), [1.0]) + 1.0) < 1e-12
    )
    try:
        ext_add(inf2, inf2)
        ok = False
    except UndefinedExtendedOperation:
        pass
    _report(9, "extended-state arithmetic tables and undefined inf+inf", ok)


def test_criterion_10_killing_time_classification():
    from symbolkit.extended import Path

    ok = True
    # constant path: no killing at all
    times = np.linspace(0.0, 1.0, 11)
    p1 = Path(times, np.zeros((11, 1)), np.zeros(11, dtype=np.int8))
    kt = classify_killing(p1, n_max=5)
    ok &= kt.zeta_partial == math.inf and kt.zeta_delta == math.inf \
        and kt.zeta_infty == math.inf \
        and all(v == math.inf for v in kt.sigma_prime.values())

    # sudden kill from a bounded state
    vals = np.full((11, 1), 0.5)
    status = np.zeros(11, dtype=np.int8)
    status[3:] = 2
    vals[3:] = np.nan
    kt = classify_killing(Path(times, vals, status), n_max=4)
    ok &= kt.zeta_delta == pytest.approx(0.3) and kt.sigma_prime[1] == pytest.approx(0.3)
    ok &= kt.zeta_infty == math.inf

    # explosion along tan(pi t / 2)
    dt = 0.001
    times = np.arange(0.0, 1.0 + dt / 2, dt)
    vals = np.concatenate([np.tan(math.pi * times[:-1] / 2.0), [np.nan]])[:, None]
    status = np.zeros(len(times), dtype=np.int8)
    status[-1] = 1
    kt = classify_killing(Path(times, vals, status), n_max=8)
    ok &= kt.zeta_infty == pytest.approx(1.0) and kt.zeta_delta == math.inf
    prev = 0.0
    for n in range(1, 9):
        target = (2.0 / math.pi) * math.atan(n)
        ok &= abs(kt.sigma_prime[n] - target) <= dt + 1e-12
        ok &= prev <= kt.sigma_prime[n] < 1.0
        prev = kt.sigma_prime[n]
    _report(10, "killing-time classification on the three fixtures", ok)


def test_criterion_11_expression_parser():
    from test_expr import _corpus, REF_TOLERANCE

    corpus = _corpus()
    ok = len(corpus) == 500
    for e, probes in corpus:
        back = parse_expression(e.to_text())
        ok &= back == e
        for p in probes:
            ref = expr_reference(e, p)
            got = float(e.evaluate(p))
            denom = max(1.0, abs(ref))
            ok &= abs(got - ref) / denom <= REF_TOLERANCE
    _report(11, "expression parser: 500-case round trip and reference agreement",
            ok)
