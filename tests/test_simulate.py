import json
import math
import re
from pathlib import Path as FsPath

import numpy as np
import pytest
from scipy import stats

import symbolkit
import symbolkit.simulate as simulate_module
from symbolkit.cli import main
from symbolkit.config import compile_model, load_config, resolve_model_path
from symbolkit.expr import parse_expression
from symbolkit.extended import STATUS_DELTA, STATUS_FINITE, STATUS_INFINITY
from symbolkit.simulate import (
    PathSampler,
    SimSpec,
    _norm,
    sample_autonomous,
    sample_levy,
    sample_sde,
)
from symbolkit.triplet import (
    Coefficient,
    ConstantMeasureFamily,
    CutoffFunction,
    DensityMeasure,
    DiscreteMeasure,
    DiscreteMeasureFamily,
    LevyTriplet,
    MatrixCoefficient,
    StableMeasure,
    StableMeasureFamily,
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
        kill=Coefficient(kill, d),
        drift=VectorCoefficient(drift, d),
        covariance=MatrixCoefficient(cov, d),
        measures=measures or ConstantMeasureFamily(ZeroMeasure()),
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


class TestSampleAutonomous:
    def test_constant_model_matches_levy_in_law(self, bm_triplet, bm_model):
        a = sample_levy(bm_triplet, _spec(n=5000, seed=31))
        b = sample_autonomous(bm_model, _spec(n=5000, seed=77))
        ks = stats.ks_2samp(a.values[:, -1, 0], b.values[:, -1, 0])
        assert ks.pvalue > 0.01

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
        # state-dependent path so both run in hazard mode with one
        # hazard uniform per step
        e_lo = sample_autonomous(lo, _spec(n=4000, seed=35))
        e_hi = sample_autonomous(hi, _spec(n=4000, seed=35))
        k_lo = np.where((e_lo.status == STATUS_DELTA).any(axis=1),
                        (e_lo.status == STATUS_DELTA).argmax(axis=1), 1 << 30)
        k_hi = np.where((e_hi.status == STATUS_DELTA).any(axis=1),
                        (e_hi.status == STATUS_DELTA).argmax(axis=1), 1 << 30)
        assert np.all(k_hi <= k_lo)

    def test_invalid_paths_flagged(self):
        model = _model(0.0, [parse_expression("log(x1)")], [[0.0]], box=((0.1, 3.0),))
        spec = SimSpec(x0=[0.5], horizon=1.0, dt=0.01, n_paths=64, rng_seed=36)
        ens = sample_autonomous(model, spec)
        # drift log(x1) pushes x below zero: evaluation fails eventually
        assert ens.invalid_count > 0


class TestSampleSde:
    def test_identity_coefficient_reproduces_driver(self, cauchy_triplet):
        f1 = Coefficient(1.0, 1)
        a = sample_sde(f1, cauchy_triplet, _spec(n=2000, seed=41))
        b = sample_levy(cauchy_triplet, _spec(n=2000, seed=41))
        assert np.allclose(a.values, b.values, equal_nan=True)

    def test_linear_bm_mean_preserved(self):
        driver = LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure())
        ens = sample_sde(parse_expression("x1"), driver,
                         _spec(n=N_UNIT, dt=0.005, x0=[1.0], seed=42))
        xT = ens.values[:, -1, 0]
        assert abs(xT.mean() - 1.0) <= 3.0 * xT.std() / math.sqrt(N_UNIT)


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
        elif cfg.mode == "sde":
            ens = sample_sde(model.sde.coefficient, model.sde.driver, spec)
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
        times, vals, status, _ = sampler.snapshots([0.0], [0.5, 1.0], 1000)
        assert np.allclose(times, [0.5, 1.0])
        j = full.time_index(0.5)
        assert np.allclose(vals[0, :, 0, 0], full.values[:, j, 0])
        times2, maxima = sampler.running_max([0.0], [1.0], 1000)
        running = np.abs(full.values[:, :, 0]).max(axis=1)
        assert np.allclose(maxima[:, 0], running)

    def test_zero_dt_is_not_replaced(self, bm_model):
        sampler = PathSampler(model=bm_model, dt=0.05, seed=51)
        for run in (sampler.snapshots, sampler.running_max):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                run([0.0], [0.5], 10, dt=0.0)


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
    killing with a state-dependent covariance, and the snapshot and
    running-maximum recorders that write into one shared output."""
    spec = SimSpec(x0=[0.0], horizon=0.2, dt=0.01, n_paths=40_000, rng_seed=93)
    expr = parse_expression
    stable_family = _model(0.0, [expr("-x1")], [[0.0]],
                           StableMeasureFamily(expr("0.8 + 0.7/(1+x1^2)"),
                                               expr("1 + 0.2*x1^2"), 1))
    atom_family = _model(expr("0.5 + x1^2"), [0.1], [[0.2]],
                         DiscreteMeasureFamily([[0.3], [-0.5]], [expr("1 + x1^2"), 2.0], 1))
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
        "snapshots": lambda: PathSampler(cauchy, dt=0.01, seed=93).snapshots(
            [0.0], (0.05, 0.2), 40_000, radii=(0.5, 2.0)),
        "running_max": lambda: PathSampler(stable_family, dt=0.01, seed=93).running_max(
            [0.0], (0.05, 0.2), 40_000),
    }


def _arrays(result):
    if isinstance(result, tuple):
        return [np.asarray(a) for a in result]
    return [result.values, result.status, result.invalid]


def test_worker_count_does_not_change_results(monkeypatch, bm_triplet):
    # every chunk owns its step buffers: threads that shared one would
    # mix their paths' numbers
    for name, run in _threaded_runs(bm_triplet).items():
        monkeypatch.setenv("SYMBOLKIT_THREADS", "1")
        base = _arrays(run())
        monkeypatch.setenv("SYMBOLKIT_THREADS", "4")
        threaded = _arrays(run())
        for a, b in zip(base, threaded, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


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
