import json
import math
import os
import re
import sys
import threading
from pathlib import Path as FsPath

import numpy as np
import pytest
from scipy import stats

import symbolkit
import symbolkit.simulate as simulate_module
from symbolkit.cli import main
from symbolkit.config import compile_model, load_config, resolve_model_path
from symbolkit.expr import Expression, parse_expression
from symbolkit.extended import STATUS_DELTA, STATUS_FINITE, STATUS_INFINITY
from symbolkit.martingale import (
    canonical_representation,
    exponential_martingale,
    killing_compensator,
    run_checks,
)
from symbolkit.simulate import (
    PathSampler,
    SimSpec,
    _norm,
    _radius,
    _worker_count,
    make_sde_model,
    sample_autonomous,
    sample_levy,
    sample_sde,
    snapshot_run,
)
from symbolkit.symbol import ProbeSettings, estimate_symbol_grid
from symbolkit.triplet import (
    Coefficient,
    CutoffFunction,
    DensityMeasure,
    DiscreteMeasure,
    LevyTriplet,
    MatrixCoefficient,
    StableMeasure,
    StateModel,
    VectorCoefficient,
    ZeroMeasure,
    eval_exponent,
)

from helpers import complex_se, load_data_module
from oracles import e_xi_at

DATA = FsPath(__file__).parent / "data"
N_UNIT = 20_000


def _spec(n=N_UNIT, dt=0.01, horizon=1.0, seed=21, **kw):
    return SimSpec(x0=kw.pop("x0", [0.0]), horizon=horizon, dt=dt,
                   n_paths=n, rng_seed=seed, **kw)


def _model(kill, drift, cov, measures=None, box=((-10.0, 10.0),)):
    d = len(drift)
    return StateModel(
        dim=d,
        kill=Coefficient(kill),
        drift=VectorCoefficient(drift, d),
        covariance=MatrixCoefficient(cov, d),
        measures=measures or ZeroMeasure(),
        cutoff=CutoffFunction(),
        domain_box=np.asarray(box),
    )


class TestSampleLevy:
    def test_bm_terminal_moments(self, bm_triplet):
        ens = sample_levy(bm_triplet, _spec())
        xT = ens.values[:, -1, 0]
        assert abs(xT.mean()) <= 3.0 / math.sqrt(N_UNIT)
        assert xT.var() == pytest.approx(1.0, rel=0.05)

    def test_killing_survival(self):
        tri = LevyTriplet(0.5, [0.0], [[0.0]], ZeroMeasure())
        ens = sample_levy(tri, _spec())
        surv = (ens.status[:, -1] == STATUS_FINITE).mean()
        p = math.exp(-0.5)
        assert abs(surv - p) <= 3.0 * math.sqrt(p * (1 - p) / N_UNIT)

    def test_cauchy_empirical_cf(self, cauchy_triplet):
        ens = sample_levy(cauchy_triplet, _spec(seed=4))
        e = e_xi_at(ens, 1.0, [1.0])
        target = math.exp(-1.0)
        assert abs(e.mean() - target) <= 3.0 * complex_se(e)

    def test_exponent_consistency_grid(self, bm_drift_triplet, cp_triplet):
        # empirical CF against exp(-t phi(xi)) for drifting and jumping fixtures
        for tri, seed in ((bm_drift_triplet, 5), (cp_triplet, 6)):
            ens = sample_levy(tri, _spec(seed=seed, dt=0.05))
            for t in (0.25, 0.5, 1.0):
                for xi in (-1.0, 0.5, 2.0):
                    e = e_xi_at(ens, t, [xi])
                    target = np.exp(-t * eval_exponent(tri, [xi]))
                    assert abs(e.mean() - target) <= 3.0 * complex_se(e) + 1e-12, (t, xi)

    def test_reproducibility_bitwise(self, cauchy_triplet):
        a = sample_levy(cauchy_triplet, _spec(n=3000))
        b = sample_levy(cauchy_triplet, _spec(n=3000))
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.status, b.status)

    def test_paths_satisfy_invariants(self):
        tri = LevyTriplet(1.0, [0.0], [[1.0]], ZeroMeasure())
        ens = sample_levy(tri, _spec(n=200))
        for i in range(ens.n_paths):
            ens.path(i).validate()

    def test_small_constant_covariance_is_simulated(self):
        # a covariance within np.allclose's tolerance of zero was once
        # dropped, while the symbol carries 0.5 * 4e-9 * xi^2
        ens = sample_levy(LevyTriplet(0.0, [0.0], [[4e-9]], ZeroMeasure()),
                          _spec(dt=0.1, seed=57))
        var = ens.values[:, -1, 0].var()
        assert var == pytest.approx(4e-9, rel=5.0 * math.sqrt(2.0 / N_UNIT))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(x0=[0.0], horizon=1.0, dt=0.0, n_paths=1)
        with pytest.raises(ValueError):
            SimSpec(x0=[0.0], horizon=0.001, dt=0.01, n_paths=1)
        with pytest.raises(ValueError):
            SimSpec(x0=[5.0], horizon=1.0, dt=0.01, n_paths=1, explosion_threshold=2.0)


class TestDensitySimulation:
    def test_tempered_density_cf(self):
        # lambda(y) = e^{-|y|}/|y| truncated; moderate activity
        dens = lambda y: math.exp(-abs(y)) / abs(y)
        m = DensityMeasure(dens, 1e-3, 20.0)
        tri = LevyTriplet(0.0, [0.0], [[0.0]], m, CutoffFunction(radius=1.0))
        ens = sample_levy(tri, _spec(n=40_000, dt=0.01, seed=9))
        assert "small_jump_cut" in ens.bias_notes
        for xi in (0.7, 1.5):
            e = e_xi_at(ens, 1.0, [xi])
            target = np.exp(-eval_exponent(tri, [xi]))
            # allow the documented substitution bias on top of MC noise
            tol = 3.0 * complex_se(e) + 2e-3
            assert abs(e.mean() - target) <= tol, xi


class _KillStep:
    """The step at which each path of a chunk is killed, 0 if never."""

    def __init__(self, paths):
        self.steps = np.zeros(paths.stop - paths.start, dtype=int)

    def record(self, j, x, status, values):
        np.copyto(self.steps, j, where=(status == STATUS_DELTA) & (self.steps == 0))

    def per_path(self):
        return self.steps


class TestSampleAutonomous:
    def test_constant_model_matches_levy_in_law(self, bm_triplet, bm_model):
        a = sample_levy(bm_triplet, _spec(n=5000, seed=31))
        b = sample_autonomous(bm_model, _spec(n=5000, seed=77))
        ks = stats.ks_2samp(a.values[:, -1, 0], b.values[:, -1, 0])
        assert ks.pvalue > 0.01

    def test_constant_rate_uses_the_levy_clock(self):
        # one killing rule, decided by the rate: a constant rate is killed
        # by the exact clock whichever entry point builds the model
        tri = LevyTriplet(0.7, [0.2], [[0.5]], DiscreteMeasure([[0.4], [-1.2]], [1.0, 0.5]))
        spec = _spec(n=3000, seed=58)
        a = sample_autonomous(StateModel.from_triplet(tri), spec)
        b = sample_levy(tri, spec)
        assert (b.status == STATUS_DELTA).any()
        for x, y in ((a.values, b.values), (a.status, b.status), (a.invalid, b.invalid)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()

    def test_state_dependent_killing_survival(self):
        model = _model(parse_expression("x1^2"), [1.0], [[0.0]], box=((-3.0, 3.0),))
        ens = sample_autonomous(model, _spec(n=N_UNIT, dt=0.005, seed=32))
        surv = (ens.status[:, -1] == STATUS_FINITE).mean()
        p = math.exp(-1.0 / 3.0)
        assert abs(surv - p) <= 3.0 * math.sqrt(p * (1 - p) / N_UNIT)

    def test_linear_ode_limit(self):
        model = _model(0.0, [parse_expression("-x1")], [[0.0]])
        dt = 1e-3
        ens = sample_autonomous(model, _spec(n=10, dt=dt, x0=[1.0], seed=33))
        x1 = ens.values[:, -1, 0]
        assert np.allclose(x1, math.exp(-1.0), atol=5 * dt)

    def test_explosion_absorbs_at_infinity(self):
        model = _model(0.0, [parse_expression("x1^3")], [[0.0]], box=((-2.0, 2.0),))
        spec = SimSpec(x0=[1.0], horizon=2.0, dt=1e-3, n_paths=5,
                       rng_seed=34, explosion_threshold=1e6)
        ens = sample_autonomous(model, spec)
        assert np.all(np.any(ens.status == STATUS_INFINITY, axis=1))
        for i in range(ens.n_paths):
            ens.path(i).validate()

    def test_killing_monotonicity_coupling(self):
        # raising the rate pointwise with shared streams never delays a kill
        lo = _model(parse_expression("0.2 + 0*x1"), [0.0], [[1.0]])
        hi = _model(parse_expression("0.7 + 0*x1"), [0.0], [[1.0]])
        # both rates are expressions, so each path's hazard is an array;
        # the two runs share every path's exponential level
        e_lo = sample_autonomous(lo, _spec(n=4000, seed=35))
        e_hi = sample_autonomous(hi, _spec(n=4000, seed=35))
        k_lo = np.where((e_lo.status == STATUS_DELTA).any(axis=1),
                        (e_lo.status == STATUS_DELTA).argmax(axis=1), 1 << 30)
        k_hi = np.where((e_hi.status == STATUS_DELTA).any(axis=1),
                        (e_hi.status == STATUS_DELTA).argmax(axis=1), 1 << 30)
        assert np.all(k_hi <= k_lo)

    def test_grid_law_of_the_killing_time(self):
        # killed_autonomous: X_t = t until the kill, rate x^2, so the kill
        # step follows P(zeta <= t_k) = 1 - exp(-dt sum_{j<k} abar_j),
        # abar_j = (t_j^2 + t_{j+1}^2) / 2, exactly: chi-square over the
        # grid cells (the first ones pooled to 5 expected) and survival
        model = compile_model(load_config(resolve_model_path("killed_autonomous")))
        n, dt = 100_000, 0.01
        spec = _spec(n=n, dt=dt, seed=37)
        sim = simulate_module.simulate(model, spec, {"kill": _KillStep})
        steps = sim.observed["kill"]
        t = spec.times
        hazard = np.concatenate([[0.0], np.cumsum(dt * 0.5 * (t[:-1] ** 2 + t[1:] ** 2))])
        p = np.append(np.diff(-np.expm1(-hazard)), np.exp(-hazard[-1]))
        counts = np.bincount(np.where(steps > 0, steps - 1, spec.n_steps),
                             minlength=spec.n_steps + 1)
        assert counts.sum() == n and not sim.invalid.any()
        first = int(np.argmax(np.cumsum(p) * n >= 5.0)) + 1
        observed = np.concatenate([[counts[:first].sum()], counts[first:]])
        expected = n * np.concatenate([[p[:first].sum()], p[first:]])
        assert len(observed) > 90
        assert stats.chisquare(observed, expected).pvalue > 1e-3
        # the survival cell alone: a rate off by 5 % is about 7 se away
        survival = np.exp(-hazard[-1])
        assert abs(counts[-1] / n - survival) <= 4.0 * math.sqrt(survival * (1 - survival) / n)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_one_killing_construction_for_both_rate_kinds(self, monkeypatch, threads):
        # a number rate and the same rate as an expression share each
        # path's exponential level and add the same hazard step
        monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
        spec = _spec(n=N_UNIT, seed=38)
        number = sample_autonomous(_model(0.5, [0.1], [[1.0]]), spec)
        expr = sample_autonomous(_model(parse_expression("0.5 + 0*x1"), [0.1], [[1.0]]), spec)
        assert 0.3 < (number.status[:, -1] == STATUS_DELTA).mean() < 0.5
        for a, b in ((number.values, expr.values), (number.status, expr.status),
                     (number.invalid, expr.invalid)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_infinite_rate_kills_at_once(self):
        # an infinite hazard step reaches every exponential level: the
        # path is killed in its first step, not flagged invalid
        model = _model(parse_expression("exp(x1^4)"), [0.0], [[0.0]])
        ens = sample_autonomous(model, _spec(n=64, x0=[30.0], seed=39))
        assert np.all(ens.status[:, 1] == STATUS_DELTA) and not ens.invalid.any()

    def test_invalid_paths_flagged(self):
        model = _model(0.0, [parse_expression("log(x1)")], [[0.0]], box=((0.1, 3.0),))
        spec = SimSpec(x0=[0.5], horizon=1.0, dt=0.01, n_paths=64, rng_seed=36)
        ens = sample_autonomous(model, spec)
        # drift log(x1) pushes x below zero: evaluation fails eventually
        assert ens.invalid_count > 0


class TestSampleSde:
    def test_identity_coefficient_reproduces_driver(self, cauchy_triplet):
        f1 = Coefficient(1.0)
        a = sample_sde(f1, cauchy_triplet, _spec(n=2000, seed=41))
        b = sample_levy(cauchy_triplet, _spec(n=2000, seed=41))
        assert np.allclose(a.values, b.values, equal_nan=True)

    def test_linear_bm_mean_preserved(self):
        driver = LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure())
        ens = sample_sde(parse_expression("x1"), driver,
                         _spec(n=N_UNIT, dt=0.005, x0=[1.0], seed=42))
        xT = ens.values[:, -1, 0]
        assert abs(xT.mean() - 1.0) <= 3.0 * xT.std() / math.sqrt(N_UNIT)


def _sde_cauchy_models():
    """The bundled sde_cauchy model file and the same SDE built in code."""
    driver = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))
    return (compile_model(load_config(resolve_model_path("sde_cauchy"))),
            make_sde_model(parse_expression("x1"), driver))


def test_sde_model_file_matches_make_sde_model_in_symbol():
    xs = np.repeat(np.linspace(-10.0, 10.0, 50), 5)[:, None]
    xis = np.tile([-3.0, -0.5, 0.0, 1.0, 7.5], 50)[:, None]
    loaded, built = (m.symbol_many(xs, xis) for m in _sde_cauchy_models())
    assert loaded.tobytes() == built.tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sde_model_file_matches_make_sde_model_in_snapshots(monkeypatch, threads):
    # several chunks, so that two workers share the run
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 64)
    monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
    loaded, built = (snapshot_run(m, [1.0], [0.01, 0.02], 200, 0.002, 43, radii=(0.5, math.inf))
                     for m in _sde_cauchy_models())
    for a, b in zip(loaded, built, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", ["atoms", "stable"])
def test_hand_built_constant_model_matches_its_triplet_in_snapshots(monkeypatch, kind,
                                                                    threads):
    # a measure whose coefficients are numbers is constant whoever builds
    # the model: its compensator joins the drift and its draws are the
    # triplet's, bit for bit; several chunks, so that two workers share
    # the run
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 64)
    monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
    measure = {"atoms": lambda: DiscreteMeasure([[0.4], [-1.5]], [1.0, 2.5]),
               "stable": lambda: StableMeasure(1.5, 0.8)}[kind]
    hand_built = _model(0.3, [0.2], [[0.5]], measure())
    assert hand_built.is_constant
    from_triplet = StateModel.from_triplet(LevyTriplet(0.3, [0.2], [[0.5]], measure()))
    runs = (snapshot_run(m, [0.0], [0.01, 0.05], 200, 0.005, 44, radii=(1.0, math.inf))
            for m in (hand_built, from_triplet))
    for a, b in zip(*runs, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_verify_on_sde_evaluates_only_f(monkeypatch, tmp_path):
    # the driver's characteristics are constants: the expression
    # evaluator sees f alone, once at the start and once per step, after
    # the box check of the model file
    calls = []

    def spy(method):
        evaluate = getattr(Expression, method)

        def call(self, x):
            calls.append((method, self.to_text(), np.shape(x)))
            return evaluate(self, x)

        return call

    for method in ("evaluate", "evaluate_lenient"):
        monkeypatch.setattr(Expression, method, spy(method))
    rc = main(["verify", "--model", "sde_cauchy", "--suite", "all", "--paths", "200",
               "--dt", "0.01", "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert calls == ([("evaluate_lenient", "x1", (33, 1))]
                     + [("evaluate_lenient", "x1", (200, 1))] * 101)


BUNDLED = sorted(f.stem for f in (FsPath(symbolkit.__file__).parent / "models").glob("*.model"))


def _export(out, model, *args):
    return main(["simulate", "--model", model, "--out", str(out), *args])


class TestEnsembleExport:
    def test_export_manifest_and_paths(self, tmp_path):
        assert _export(tmp_path, "bm", "--paths", "3", "--dt", "0.25") == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == "symbolkit-ensemble/1"
        assert manifest["model"] == "bm"
        assert manifest["spec"]["n_paths"] == 3
        files = sorted((tmp_path / "paths").glob("*.csv"))
        assert [f.name for f in files] == [f"path_{i:05d}.csv" for i in range(3)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_export_streams_the_sampled_paths(self, monkeypatch, tmp_path, name, threads):
        # the files written chunk by chunk equal the stored ensemble's
        # paths byte for byte, over several chunks and at any worker count
        assert len(BUNDLED) == 9
        monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 16)
        monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
        out = tmp_path / "cli"
        assert _export(out, name, "--paths", "40", "--horizon", "0.2", "--dt", "0.02") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [c["paths"] for c in manifest["seed_ledger"]] == [[0, 16], [16, 32], [32, 40]]
        monkeypatch.setenv("SYMBOLKIT_THREADS", "1")
        cfg = load_config(resolve_model_path(name))
        model = compile_model(cfg)
        spec = SimSpec(**manifest["spec"])
        if cfg.mode == "levy":
            ens = sample_levy(model.constant_triplet(), spec)
        else:
            ens = sample_autonomous(model, spec)
        assert manifest["model"] == name
        assert manifest["invalid_count"] == ens.invalid_count
        assert manifest["seed_ledger"] == ens.seed_ledger
        assert manifest["bias_notes"] == json.loads(json.dumps(ens.bias_notes))
        files = sorted((out / "paths").iterdir())
        assert len(files) == 40
        for i, f in enumerate(files):
            ref = tmp_path / "ref.csv"
            ens.path(i).to_csv(ref)
            assert f.name == f"path_{i:05d}.csv"
            assert f.read_bytes() == ref.read_bytes(), f.name

    def test_snapshots_match_full_run(self, bm_triplet, bm_model):
        # the snapshot runner must agree with the full ensemble sharing
        # the same seed and chunking
        spec = _spec(n=1000, dt=0.05, seed=51)
        full = sample_levy(bm_triplet, spec)
        sampler = PathSampler(model=bm_model, dt=0.05, seed=51)
        times, vals, status, _ = snapshot_run(bm_model, [0.0], [0.5, 1.0], 1000, 0.05, 51)
        assert np.allclose(times, [0.5, 1.0])
        j = full.time_index(0.5)
        assert np.allclose(vals[0, :, 0, 0], full.values[:, j, 0])
        times2, maxima = sampler.running_max([0.0], [1.0], 1000)
        running = np.abs(full.values[:, :, 0]).max(axis=1)
        assert np.allclose(maxima[:, 0], running)

    def test_zero_dt_is_not_replaced(self, bm_model):
        # snapshot_run and running_max step at the given dt
        sampler = PathSampler(model=bm_model, dt=0.0, seed=51)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            snapshot_run(bm_model, [0.0], [0.5], 10, 0.0, 51)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            sampler.running_max([0.0], [0.5], 10)


class TestMultiDimensional:
    def test_2d_bm_exponent_identity(self):
        tri = LevyTriplet(0.0, [0.5, -0.5], [[1.0, 0.3], [0.3, 2.0]], ZeroMeasure())
        ens = sample_levy(tri, SimSpec(x0=[0.0, 0.0], horizon=1.0, dt=0.05,
                                       n_paths=N_UNIT, rng_seed=91))
        for xi in ([1.0, 0.0], [0.5, -1.0]):
            e = e_xi_at(ens, 1.0, xi)
            target = np.exp(-eval_exponent(tri, xi))
            assert abs(e.mean() - target) <= 3.0 * complex_se(e)

    def test_2d_atoms_with_product_cutoff(self):
        cut = CutoffFunction(kind="product_indicator", radii=(1.0, 1.0))
        tri = LevyTriplet(0.0, [0.0, 0.0], np.zeros((2, 2)),
                          DiscreteMeasure([[0.5, 0.5], [2.0, 0.0]], [1.0, 0.5]), cut)
        ens = sample_levy(tri, SimSpec(x0=[0.0, 0.0], horizon=1.0, dt=0.02,
                                       n_paths=N_UNIT, rng_seed=92))
        for xi in ([1.0, 1.0], [-0.7, 0.2]):
            e = e_xi_at(ens, 1.0, xi)
            target = np.exp(-eval_exponent(tri, xi))
            assert abs(e.mean() - target) <= 3.0 * complex_se(e)


def _threaded_runs(bm_triplet):
    """Runs of 40,000 paths, two full chunks and a part, over every kind
    of per-chunk buffer: each sampler kind, the SDE driver, hazard
    killing with a state-dependent covariance, the snapshot and
    running-maximum recorders that write into one shared output, the
    symbol probe, whose reports merge per-chunk statistics, and the
    martingale checks of ``verify``, whose per-path state is joined in
    chunk order."""
    spec = SimSpec(x0=[0.0], horizon=0.2, dt=0.01, n_paths=40_000, rng_seed=93)
    expr = parse_expression
    stable_family = _model(0.0, [expr("-x1")], [[0.0]],
                           StableMeasure(expr("0.8 + 0.7/(1+x1^2)"),
                                         expr("1 + 0.2*x1^2")))
    atom_family = _model(expr("0.5 + x1^2"), [0.1], [[0.2]],
                         DiscreteMeasure([[0.3], [-0.5]], [expr("1 + x1^2"), 2.0]))
    hazard = _model(expr("x1^2"), [expr("-x1")], [[expr("0.5 + 0.1*sin(x1)")]])
    density = DensityMeasure(expr("exp(-abs(x1))/abs(x1)^1.5"), 1e-3, 20.0)
    cauchy = StateModel.from_triplet(LevyTriplet(0.3, [0.0], [[0.0]], StableMeasure(1.0, 1.0)))
    return {
        "bm": lambda: sample_levy(bm_triplet, spec),
        "stable_family": lambda: sample_autonomous(stable_family, spec),
        "atom_family": lambda: sample_autonomous(atom_family, spec),
        "hazard": lambda: sample_autonomous(hazard, spec),
        "density": lambda: sample_levy(LevyTriplet(0.0, [0.0], [[0.1]], density), spec),
        "sde": lambda: sample_sde(expr("1 + 0.5*sin(x1)"),
                                  LevyTriplet(0.2, [0.0], [[0.0]], StableMeasure(1.5, 1.0)),
                                  spec),
        "snapshots": lambda: snapshot_run(cauchy, [0.0], (0.05, 0.2), 40_000, 0.01, 93,
                                          radii=(0.5, 2.0)),
        "running_max": lambda: PathSampler(stable_family, dt=0.01, seed=93).running_max(
            [0.0], (0.05, 0.2), 40_000),
        "probe": lambda: estimate_symbol_grid(
            PathSampler(cauchy, dt=0.01, seed=93), [0.0], [[1.0], [2.0]], (0.5, 2.0),
            ProbeSettings(t_ladder=(0.2, 0.1, 0.05), n_samples=40_000)),
        "checks": lambda: run_checks(
            {"killing": killing_compensator(atom_family, spec, (0.1, 0.2)),
             "exponential": exponential_martingale(atom_family, spec, (1.0,), (0.1, 0.2)),
             "canonical": canonical_representation(atom_family, spec)},
            atom_family, spec),
    }


def _arrays(result):
    if isinstance(result, dict):
        # a probe's reports per radius, or the checks' reports by name,
        # every field written exactly
        return [np.array(repr({k: [vars(rep) for rep in v] if isinstance(v, list)
                               else v.to_json() for k, v in result.items()}))]
    if isinstance(result, tuple):
        return [np.asarray(a) for a in result]
    return [result.values, result.status, result.invalid]


def test_seed_ledger_names_every_stream(monkeypatch):
    # each chunk's ledger names its streams and their seed codes, and the
    # chunk's Gaussian steps and exponential levels come from the streams
    # it names (one step of length 1: X_1 = z, killed iff -log u <= 0.5)
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 16)
    tri = LevyTriplet(0.5, [0.0], [[1.0]], ZeroMeasure())
    ens = sample_levy(tri, _spec(n=40, dt=1.0, seed=39))
    assert [c["chunk"] for c in ens.seed_ledger] == [0, 1, 2]
    assert (ens.status[:, 1] == STATUS_DELTA).any() and (ens.status[:, 1] == STATUS_FINITE).any()
    for c in ens.seed_ledger:
        cid = c["chunk"]
        assert c["streams"] == {"gauss": [39, 1, cid], "jump": [39, 2, cid],
                                "stable": [39, 3, cid], "clock": [39, 5, cid],
                                "small": [39, 6, cid]}
        start, stop = c["paths"]
        rng = {name: np.random.default_rng(np.random.SeedSequence(seeds))
               for name, seeds in c["streams"].items()}
        z = rng["gauss"].standard_normal(stop - start)
        killed = -np.log(rng["clock"].random(stop - start)) <= 0.5
        assert np.array_equal(ens.status[start:stop, 1] == STATUS_DELTA, killed)
        assert ens.values[start:stop, 1, 0][~killed].tobytes() == z[~killed].tobytes()


def test_worker_count_does_not_change_results(monkeypatch, bm_triplet):
    # every chunk owns its step buffers: threads that shared one would
    # mix their paths' numbers; the last run has the default worker count
    for name, run in _threaded_runs(bm_triplet).items():
        monkeypatch.setenv("SYMBOLKIT_THREADS", "1")
        base = _arrays(run())
        for threads in ("4", None):
            if threads is None:
                monkeypatch.delenv("SYMBOLKIT_THREADS")
            else:
                monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
            threaded = _arrays(run())
            for a, b in zip(base, threaded, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape, (name, threads)
                assert a.tobytes() == b.tobytes(), (name, threads)


def test_default_worker_count_is_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("SYMBOLKIT_THREADS", raising=False)
    assert _worker_count() == len(os.sched_getaffinity(0))
    for threads in ("1", "3"):
        monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
        assert _worker_count() == int(threads)


class _LaterChunkError(Exception):
    pass


class _FailingObserver:
    """Fails in the chunk at path 192 at its first step, and in the chunk
    at path 128 at step 9, after the one at 192 has failed when ``wait``:
    the later chunk fails first."""

    def __init__(self, paths, failed, wait):
        self.start, self.failed, self.wait = paths.start, failed, wait

    def record(self, j, x, status, values):
        if self.start == 192 and j == 1:
            self.failed.set()
            raise _LaterChunkError("chunk at 192")
        if self.start == 128 and j == 9:
            if self.wait:
                assert self.failed.wait(timeout=10)
            raise _LaterChunkError("chunk at 128")


@pytest.mark.parametrize("threads", ["1", "2", "4"])
def test_simulate_joins_its_workers_and_raises_a_chunk_error(monkeypatch, bm_triplet,
                                                             threads):
    # of four chunks, the last fails first and the third after it: simulate
    # raises the third's own error, as one worker does; no helper thread
    # outlives the run, raised or not
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 64)
    monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
    model = StateModel.from_triplet(bm_triplet)
    spec = _spec(n=250, dt=0.01, horizon=0.1, seed=95)
    before = set(threading.enumerate())
    assert simulate_module.simulate(model, spec, {}).status.shape == (250,)
    assert set(threading.enumerate()) == before
    failed = threading.Event()
    with pytest.raises(_LaterChunkError, match="^chunk at 128$"):
        simulate_module.simulate(model, spec, {"fails": lambda paths: _FailingObserver(
            paths, failed, wait=threads != "1")})
    assert set(threading.enumerate()) == before


class _ChunkLog:
    """Appends its chunk's first path index to ``log`` at the start."""

    def __init__(self, paths, log):
        self.start, self.log = paths.start, log

    def record(self, j, x, status, values):
        if j == 0:
            self.log.append(self.start)


def test_many_workers_take_every_chunk_once(monkeypatch, bm_triplet):
    # 100 chunks on 8 workers, with the interpreter switching threads as
    # often as it can: a chunk id taken twice, or never, would show in
    # the log and in the paths
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 4)
    model = StateModel.from_triplet(bm_triplet)
    spec = _spec(n=400, dt=0.01, horizon=0.05, seed=97)
    runs = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in ("1", "8"):
            monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
            log, values = [], np.full((400, 6, 1), np.nan)
            simulate_module.simulate(model, spec, {
                "log": lambda paths: _ChunkLog(paths, log),
                "full": lambda paths: simulate_module._FullRecorder(
                    values[paths], np.zeros((paths.stop - paths.start, 6), dtype=np.int8))})
            assert sorted(log) == list(range(0, 400, 4)), threads
            runs[threads] = values
    finally:
        sys.setswitchinterval(interval)
    assert runs["1"].tobytes() == runs["8"].tobytes()


@pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5", ""])
def test_bad_worker_count_is_an_error(monkeypatch, capsys, tmp_path, bm_triplet, raw):
    monkeypatch.setenv("SYMBOLKIT_THREADS", raw)
    message = f"SYMBOLKIT_THREADS must be a positive integer, got {raw!r}"
    spec = SimSpec(x0=[0.0], horizon=0.1, dt=0.01, n_paths=10, rng_seed=94)
    with pytest.raises(ValueError, match=message):
        sample_levy(bm_triplet, spec)
    assert main(["simulate", "--model", "bm", "--paths", "10", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("t, message", [
    (math.inf, "time must be finite, got inf"),
    (-math.inf, "time must be finite, got -inf"),
    (math.nan, "time must be finite, got nan"),
    (0.123, "time 0.123 is not on the grid"),
    (1.5, "time 1.5 outside the horizon"),
])
def test_time_index_rejects_times_off_the_grid(t, message):
    spec = SimSpec(x0=[0.0], horizon=1.0, dt=0.25, n_paths=1)
    with pytest.raises(ValueError, match=re.escape(message)):
        spec.time_index(t)
    assert [spec.time_index(t) for t in (0.0, 0.25, 1.0)] == [0, 1, 4]


DIGESTS = load_data_module("capture_ensemble_digests")


@pytest.mark.parametrize("threads", DIGESTS.THREADS)
@pytest.mark.parametrize("name", sorted(DIGESTS.FIXTURES))
def test_ensembles_bit_identical(monkeypatch, name, threads):
    # digests of every measure kind's ensembles, snapshots and running
    # maxima, captured before the measures owned their sampling
    monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
    ref = json.loads((DATA / "ensemble_digests.json").read_text())
    assert DIGESTS.digest(name) == ref[name][threads]


_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1.0, -3.5, 1e200, -1e200,
                     1.7e154, math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_matches_linalg_norm(d):
    # every ordered d-tuple of special values, plus random rows
    grid = np.stack(np.meshgrid(*[_SPECIAL] * d, indexing="ij"), axis=-1).reshape(-1, d)
    rows = np.concatenate([grid, np.random.default_rng(d).standard_normal((500, d)) * 1e3])
    with np.errstate(over="ignore"):
        got, want = _norm(rows), np.linalg.norm(rows, axis=1)
    assert got.dtype == want.dtype and got.shape == want.shape == (rows.shape[0],)
    assert got.tobytes() == want.tobytes()


def test_radius_comparisons_match_the_square_root_in_one_dimension():
    # for d = 1 the exit and explosion tests compare |x| where they
    # compared sqrt(x*x); at any threshold in [1e-150, 1e150] the answers
    # agree, on edge inputs (x*x overflowing or subnormal, subnormal x,
    # +-inf, NaN) and on values spread over 600 decades
    rng = np.random.default_rng(96)
    edge = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-160, 1.5e-154, 1e-150,
                     1e150, -1.4e154, 1e200, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan])
    spread = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
    x = np.concatenate([edge, spread])[:, None]
    inside = np.abs(x[:, 0])
    inside = inside[(inside >= 1e-150) & (inside <= 1e150)]
    thresholds = np.concatenate([[1e-150, 1e150, 1.0, 1e9],
                                 10.0 ** rng.uniform(-150.0, 150.0, 100), inside[:100]])
    got = _radius(x, out=np.empty(len(x)), sq=np.empty_like(x))
    assert got.tobytes() == np.abs(x[:, 0]).tobytes()
    with np.errstate(over="ignore", under="ignore"):
        root = np.sqrt(x[:, 0] * x[:, 0])
    for compare in (np.greater, np.greater_equal):
        assert np.array_equal(compare(got[:, None], thresholds),
                              compare(root[:, None], thresholds))
    # and the values themselves wherever x*x neither overflows nor underflows
    normal = (np.abs(x[:, 0]) > 1.5e-154) & (np.abs(x[:, 0]) < 1.3e154)
    assert got[normal].tobytes() == root[normal].tobytes()

