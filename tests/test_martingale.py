import json
import math
import tracemalloc
from pathlib import Path as FsPath

import numpy as np
import pytest

import symbolkit.simulate as simulate_module
from symbolkit.expr import parse_expression
from symbolkit.extended import Path
from symbolkit.martingale import (
    canonical_representation,
    canonical_representation_residual,
    exponential_martingale,
    exponential_martingale_check,
    killing_compensator,
    killing_compensator_check,
    run_checks,
    truncate_jumps,
)
from symbolkit.simulate import (
    SimSpec,
    make_sde_model,
    sample_autonomous,
    sample_levy,
    sample_sde,
)
from symbolkit.triplet import (
    CutoffFunction,
    DiscreteMeasure,
    LevyTriplet,
    StableMeasure,
    StateModel,
    ZeroMeasure,
)

from helpers import load_data_module
from oracles import e_xi_at

DATA = FsPath(__file__).parent / "data"
CAPTURE = load_data_module("capture_martingale_reports")
N = CAPTURE.N
_spec = CAPTURE.spec
_model = CAPTURE.model


class TestTruncateJumps:
    def test_two_jump_fixture(self):
        times = np.arange(0.0, 1.05, 0.1)
        vals = np.zeros((len(times), 1))
        vals[times >= 0.3] += 2.0
        vals[times >= 0.7] += 0.1
        p = Path(times, vals, np.zeros(len(times), dtype=np.int8))
        dec = truncate_jumps(p, 1.0)
        assert dec.big_jump_part[-1, 0] == pytest.approx(2.0)
        assert dec.truncated[-1, 0] == pytest.approx(0.1)
        assert np.allclose(dec.truncated + dec.big_jump_part, vals, atol=1e-12, rtol=0)

    def test_continuous_path_no_big_jumps(self):
        times = np.linspace(0.0, 1.0, 101)
        vals = np.sin(times)[:, None]
        p = Path(times, vals, np.zeros(101, dtype=np.int8))
        dec = truncate_jumps(p, 0.5)
        assert np.all(dec.big_jump_part == 0.0)
        assert np.allclose(dec.truncated, vals, atol=1e-12)

    def test_compound_poisson_big_jump_mean(self):
        tri = LevyTriplet(0.0, [0.0], [[0.0]], DiscreteMeasure([[3.0]], [1.0]),
                          CutoffFunction(radius=1.0))
        ens = sample_levy(tri, _spec(n=5000, dt=0.01, seed=72))
        totals = [truncate_jumps(ens.path(i), 1.0).big_jump_part[-1, 0]
                  for i in range(ens.n_paths)]
        totals = np.asarray(totals)
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean() - 3.0) <= 3.0 * se

    def test_exact_split_on_killed_path(self):
        times = np.arange(0.0, 0.5, 0.1)
        vals = np.array([[0.0], [2.0], [2.1], [np.nan], [np.nan]])
        status = np.array([0, 0, 0, 2, 2], dtype=np.int8)
        p = Path(times, vals, status)
        dec = truncate_jumps(p, 1.0)
        assert dec.times.shape[0] == 3
        assert dec.big_jump_part[-1, 0] == pytest.approx(2.0)


class TestKillingCompensator:
    @pytest.mark.parametrize("a", [0.0, 0.1, 0.5, 2.0])
    def test_constant_rates(self, a):
        model = _model(a, [0.0], [[0.0]])
        ens = sample_autonomous(model, _spec(n=10_000, dt=0.002, seed=73))
        rep = killing_compensator_check(ens, model, (0.25, 0.5, 1.0))
        assert rep.passed, rep.rows

    def test_state_dependent_rate(self):
        model = _model(parse_expression("x1^2"), [1.0], [[0.0]], box=((-3.0, 3.0),))
        ens = sample_autonomous(model, _spec(dt=0.005, seed=74))
        rep = killing_compensator_check(ens, model, (0.25, 0.5, 1.0))
        assert rep.passed
        # closed-form survival along the deterministic ramp
        j = ens.time_index(1.0)
        surv = (ens.status[:, j] == 0).mean()
        assert surv == pytest.approx(math.exp(-1.0 / 3.0), abs=0.01)

    def test_explosions_excluded(self):
        model = _model(0.3, [parse_expression("x1^3")], [[0.0]], box=((-2.0, 2.0),))
        spec = SimSpec(x0=[1.0], horizon=1.0, dt=1e-3, n_paths=200, rng_seed=75,
                       explosion_threshold=1e5)
        ens = sample_autonomous(model, spec)
        rep = killing_compensator_check(ens, model, (0.1,))
        assert rep.excluded_paths > 0


class TestExponentialMartingale:
    def test_bm_closed_form(self, bm_triplet, bm_model):
        ens = sample_levy(bm_triplet, _spec(dt=0.01, seed=76))
        rep = exponential_martingale_check(ens, bm_model, [1.0], (0.25, 0.5, 1.0))
        assert rep.passed

    def test_killed_levy(self):
        tri = LevyTriplet(0.5, [0.0], [[0.0]], ZeroMeasure())
        ens = sample_levy(tri, _spec(dt=0.01, seed=77))
        rep = exponential_martingale_check(ens, tri, [1.7], (0.25, 0.5, 1.0))
        assert rep.passed

    def test_autonomous_killing_and_diffusion(self):
        model = _model(parse_expression("1 + sin(x1)^2"), [0.0], [[1.0]])
        ens = sample_autonomous(model, _spec(dt=0.005, seed=78))
        rep = exponential_martingale_check(ens, model, [1.0], (0.25, 0.5, 1.0))
        assert rep.passed, rep.rows

    def test_agrees_with_simulator_invariant(self, cp_triplet):
        # the constant-model statistic and the raw exponent identity must
        # deliver the same verdict on a shared ensemble
        ens = sample_levy(cp_triplet, _spec(n=10_000, dt=0.05, seed=79))
        rep = exponential_martingale_check(ens, cp_triplet, [1.0], (0.5, 1.0))
        from symbolkit.triplet import eval_exponent
        from helpers import complex_se
        verdicts = []
        for t in (0.5, 1.0):
            e = e_xi_at(ens, t, [1.0])
            target = np.exp(-t * eval_exponent(cp_triplet, [1.0]))
            verdicts.append(abs(e.mean() - target) <= 3 * complex_se(e))
        assert rep.passed == all(verdicts)

class TestCanonicalResidual:
    def test_bm_with_drift(self):
        tri = LevyTriplet(0.0, [2.0], [[1.0]], ZeroMeasure())
        ens = sample_levy(tri, _spec(dt=0.01, seed=81))
        model = StateModel.from_triplet(tri)
        rep = canonical_representation_residual(ens, model)
        assert rep.passed
        # residual at T reduces to X_T - 2T whose mean is ~0
        j = ens.time_index(1.0)
        assert abs(ens.values[:, j, 0].mean() - 2.0) < 0.02

    def test_compound_poisson_all_jumps_big(self):
        tri = LevyTriplet(0.0, [0.0], [[0.0]], DiscreteMeasure([[3.0]], [1.0]),
                          CutoffFunction(radius=1.0))
        ens = sample_levy(tri, _spec(n=4000, dt=0.01, seed=82))
        rep = canonical_representation_residual(ens, StateModel.from_triplet(tri))
        assert rep.passed
        for row in rep.rows:
            # all jumps are big: the residual is identically zero
            assert abs(row["mean_residual"][0]) < 1e-12

    def test_alpha_stable_symmetric(self):
        tri = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.5, 1.0))
        ens = sample_levy(tri, _spec(n=N, dt=0.005, seed=83))
        rep = canonical_representation_residual(ens, StateModel.from_triplet(tri))
        assert rep.passed

    def test_killed_paths_handled(self):
        model = _model(0.8, [1.0], [[1.0]])
        ens = sample_autonomous(model, _spec(n=5000, dt=0.01, seed=84))
        rep = canonical_representation_residual(ens, model)
        assert rep.passed


def test_stopped_data_never_breaks_checks():
    # ensemble mixing explosion and killing; checks must run without
    # raising and report exclusions
    model = _model(parse_expression("0.5 + 0*x1"), [parse_expression("x1^3")],
                   [[0.0]], box=((-2.0, 2.0),))
    spec = SimSpec(x0=[1.0], horizon=1.0, dt=1e-3, n_paths=300, rng_seed=85,
                   explosion_threshold=1e5)
    ens = sample_autonomous(model, spec)
    rep1 = killing_compensator_check(ens, model, (0.1, 0.2))
    rep2 = exponential_martingale_check(ens, model, [0.5], (0.1, 0.2))
    rep3 = canonical_representation_residual(ens, model)
    assert rep1.excluded_paths == rep2.excluded_paths == rep3.excluded_paths > 0


class TestSdeEnsembles:
    def test_killed_driver_compensator_and_exponential(self):
        driver = LevyTriplet(0.4, [0.0], [[1.0]], ZeroMeasure())
        model = make_sde_model(parse_expression("1 + 0.1*x1"), driver)
        ens = sample_sde(model.sde, driver,
                         _spec(n=10_000, dt=0.005, seed=86, x0=(0.5,)))
        rep = killing_compensator_check(ens, model, (0.25, 0.5, 1.0))
        assert rep.passed, rep.rows
        rep2 = exponential_martingale_check(ens, model, [0.8], (0.25, 0.5, 1.0))
        assert rep2.passed, rep2.rows
        with pytest.raises(ValueError, match="autonomous or constant"):
            canonical_representation_residual(ens, model)


# ---------------------------------------------------------------------------
# reports pinned bit for bit: the ensembles of the tests above, the two
# bundled verify models at 10^4 paths and seed 101, and one case per
# model kind that the symbol at a fixed frequency evaluates term by term
# (tests/data/capture_martingale_reports.py)

REPORT_CASES = CAPTURE.CASES
_hex = CAPTURE.hexed
_reports = CAPTURE.reports
_BM, _T3 = CAPTURE.BM, CAPTURE.T3


def _streamed_reports(case: str) -> dict:
    """The reports of ``_reports`` from one simulation with the checks'
    observers inside the kernel."""
    build, u, t_grid = REPORT_CASES[case]
    model, spec, _ = build()
    state_model = CAPTURE.state_model(model)
    checks = {
        "killing": killing_compensator(state_model, spec, t_grid),
        "exponential": exponential_martingale(model, spec, u, t_grid),
    }
    if state_model.sde is None:
        checks["canonical"] = canonical_representation(state_model, spec)
    reports = run_checks(checks, state_model, spec)
    return {k: _hex(rep.to_json()) for k, rep in reports.items()}


def _pinned_reports() -> dict:
    return json.loads((DATA / "martingale_reports.json").read_text())


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_reports_bit_identical(case):
    # numbers captured before the checks became per-path accumulators
    assert _reports(case) == _pinned_reports()[case]


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_streamed_reports_bit_identical(case):
    # the same numbers with no stored ensemble
    assert _streamed_reports(case) == _pinned_reports()[case]


def test_checks_keep_per_path_state_only():
    # each check streams the grid columns; its traced peak stays far
    # below one (paths x steps) copy of the ensemble
    model = _model(parse_expression("1 + sin(x1)^2"), [parse_expression("0.5*x1")],
                   [[1.0]])
    ens = sample_autonomous(model, _spec(n=2000, dt=0.002, seed=87))
    assert len(ens.times) > 500
    checks = (
        lambda: killing_compensator_check(ens, model, _T3),
        lambda: exponential_martingale_check(ens, model, [1.0], _T3),
        lambda: canonical_representation_residual(ens, model),
    )
    for check in checks:
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ens.values.nbytes / 4, (peak, ens.values.nbytes)


def _checks(model, spec, t_grid, u=(1.0,)):
    return {
        "killing": killing_compensator(model, spec, t_grid),
        "exponential": exponential_martingale(model, spec, u, t_grid),
        "canonical": canonical_representation(model, spec),
    }


def _replayed(ens, model, t_grid, u=(1.0,)):
    return {
        "killing": killing_compensator_check(ens, model, t_grid),
        "exponential": exponential_martingale_check(ens, model, u, t_grid),
        "canonical": canonical_representation_residual(ens, model),
    }


def _hexed(reports):
    return {k: _hex(rep.to_json()) for k, rep in reports.items()}


def test_streamed_two_chunks_match_ensemble_checks(monkeypatch):
    # 20,000 paths are two kernel chunks: the observers' per-path state is
    # joined in chunk order, so the reports match at any worker count
    model = _model(parse_expression("0.5 + 0.2*x1^2"), [parse_expression("-x1")],
                   [[parse_expression("0.5 + 0.1*sin(x1)")]],
                   DiscreteMeasure([[0.3], [-0.3], [2.0]],
                                   [parse_expression("1 + x1^2"), 2.0, 0.5]))
    spec = _spec(n=20_000, dt=0.01, horizon=0.5, seed=88)
    t_grid = (0.1, 0.25, 0.5)
    monkeypatch.setenv("SYMBOLKIT_THREADS", "1")
    expected = _hexed(_replayed(sample_autonomous(model, spec), model, t_grid))
    for threads in ("1", "2"):
        monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
        got = _hexed(run_checks(_checks(model, spec, t_grid), model, spec))
        assert got == expected, threads


def _log_drift():
    # drift log(x1): a path that steps below 0 turns invalid at its next
    # step, after the observers have seen the state where the drift fails;
    # a path that does so in the last step stays valid
    model = _model(0.0, [parse_expression("log(x1)")], [[0.01]], box=((0.1, 3.0),))
    return model, SimSpec(x0=[0.5], horizon=0.5, dt=0.01, n_paths=500, rng_seed=22)


def test_invalid_paths_do_not_break_streamed_checks():
    model, spec = _log_drift()
    ens = sample_autonomous(model, spec)
    assert ens.invalid_count > 0
    streamed = run_checks(_checks(model, spec, (0.25,)), model, spec)
    assert _hexed(streamed) == _hexed(_replayed(ens, model, (0.25,)))
    for rep in streamed.values():
        assert rep.excluded_paths == int((~ens.valid).sum())


def test_non_finite_value_on_valid_path_fails_closed():
    model, spec = _log_drift()
    with pytest.raises(ValueError, match=r"exponential_martingale_autonomous: value not "
                                         r"finite at t = 0\.5 on a valid path, at state "
                                         r"x = \[-"):
        run_checks(_checks(model, spec, (0.25, 0.5)), model, spec)


def test_non_finite_value_error_does_not_depend_on_the_worker_count(monkeypatch):
    # in chunks of 64 paths, each chunk checks its own values when it ends;
    # the error raised is the first failed chunk's, at any worker count
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 64)
    model, spec = _log_drift()
    messages = set()
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("SYMBOLKIT_THREADS", threads)
        with pytest.raises(ValueError, match="value not finite at t = .* on a valid path, "
                                             r"at state x = \[-") as err:
            run_checks(_checks(model, spec, (0.25, 0.5)), model, spec)
        messages.add(str(err.value))
    assert len(messages) == 1, messages


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chunk_with_no_valid_path_is_skipped(monkeypatch):
    # x' = x^3 from 1 explodes near t = 0.5 unless the path is killed
    # first; in chunks of 4 paths some chunk has no valid path, and its
    # empty moments must not enter a mean
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 4)
    model = _model(0.3, [parse_expression("x1^3")], [[0.0]], box=((-2.0, 2.0),))
    spec = SimSpec(x0=[1.0], horizon=1.0, dt=0.01, n_paths=40, rng_seed=75,
                   explosion_threshold=1e5)
    valid = simulate_module.simulate(model, spec, {}).valid
    chunk_valid = valid.reshape(-1, 4).sum(axis=1)
    assert (chunk_valid == 0).any() and valid.sum() >= 2, chunk_valid
    reports = run_checks(_checks(model, spec, (0.1, 0.5)), model, spec)
    for rep in reports.values():
        assert rep.excluded_paths == int((~valid).sum())
        for row in rep.rows:
            numbers = [v for k, v in row.items() if k != "pass"]
            assert np.all(np.isfinite(np.hstack(numbers))), row


def test_streamed_checks_hold_one_chunk_of_per_path_state(monkeypatch):
    # every chunk's observers reduce their kept columns to moments when it
    # ends: 16 chunks peak within one chunk's kept columns of 4 chunks
    monkeypatch.setattr(simulate_module, "CHUNK_SIZE", 256)
    monkeypatch.setenv("SYMBOLKIT_THREADS", "1")
    d, t_grid = 3, (0.1, 0.25, 0.5)
    model = _model(parse_expression("0.5 + 0.1*x1^2", dim=d),
                   [parse_expression("-x1", dim=d), 0.2, parse_expression("-x3", dim=d)],
                   (0.5 * np.eye(d)).tolist(), box=((-10.0, 10.0),) * d)
    peaks = {}
    for chunks in (1, 4, 16):   # the first run only warms up
        spec = _spec(n=256 * chunks, dt=0.01, horizon=0.5, seed=98, x0=(0.0,) * d)
        checks = _checks(model, spec, t_grid, u=(1.0,) * d)
        tracemalloc.start()
        try:
            reports = run_checks(checks, model, spec)
            peaks[chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # per path: at each grid time the state and the kept values (killing
    # 3 reals, exponential 1 complex), and the state and the residual at
    # each canonical time
    n_canonical = len(reports["canonical"].t_grid)
    one_chunk = 256 * 8 * (len(t_grid) * ((d + 3) + (d + 2)) + n_canonical * 2 * d)
    assert peaks[16] - peaks[4] < one_chunk, (peaks, one_chunk)


@pytest.mark.parametrize("build, message", [
    (lambda spec: killing_compensator(_model(0.1, [0.0], [[1.0]]), spec, ()),
     "time grid is empty"),
    (lambda spec: exponential_martingale(_BM, spec, [1.0, 2.0], _T3), r"u must be 1 finite"),
    (lambda spec: exponential_martingale(_BM, spec, [math.inf], _T3), r"got \[inf\]"),
    (lambda spec: killing_compensator(_model(0.1, [0.0], [[1.0]]), spec, (0.123,)),
     "not on the grid"),
], ids=["empty_t_grid", "u_dimension", "u_not_finite", "t_off_grid"])
def test_check_input_rejected_before_simulating(build, message):
    with pytest.raises(ValueError, match=message):
        build(_spec(n=10, dt=0.01))


def test_fewer_than_two_valid_paths_fails_closed():
    model, spec = StateModel.from_triplet(_BM), _spec(n=1, dt=0.25)
    with pytest.raises(ValueError, match="1 valid paths of 1"):
        run_checks({"killing": killing_compensator(model, spec, _T3)}, model, spec)


def test_cli_verify_keeps_no_paths_by_steps_array(tmp_path):
    # the streamed verify command peaks far below one (paths x steps)
    # float array of the run it checks
    import contextlib
    import io

    from symbolkit.cli import main

    n_paths, n_steps = 2000, 1000
    argv = ["verify", "--model", "killed_autonomous", "--paths", str(n_paths),
            "--dt", str(1.0 / n_steps), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc in (0, 1)
    one_array = n_paths * (n_steps + 1) * 8
    assert peak < one_array / 4, (peak, one_array)


def test_streamed_checks_leave_no_reference_cycles():
    # an observer in a reference cycle keeps its chunk's buffers until
    # the next full collection; across repeated verify runs that raised
    # the peak RSS
    import gc

    model = _model(parse_expression("0.5 + 0.2*x1^2"), [parse_expression("-x1")],
                   [[1.0]])
    spec = _spec(n=500, dt=0.01, horizon=0.5, seed=89)
    gc.collect()
    gc.disable()
    try:
        run_checks(_checks(model, spec, (0.25, 0.5)), model, spec)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        ours = [repr(o)[:80] for o in gc.garbage
                if (getattr(o, "__module__", None) or type(o).__module__ or "")
                .startswith("symbolkit")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not ours


@pytest.mark.parametrize("name, expression, steps", [
    ("killed_autonomous", "x1^2", 100),         # the killing rate
    ("stable_like", "0.3 + 0.4/(1 + x1^2)", 200),  # the stable order
])
def test_verify_evaluates_each_coefficient_once_per_step(monkeypatch, tmp_path, name,
                                                         expression, steps):
    # the kernel evaluates every state-dependent coefficient once at the
    # start and once per step, at the proposal; the jump sampler, the
    # hazard and the observers read those values
    from symbolkit.cli import main
    from symbolkit.config import CONTINUITY_GRID
    from symbolkit.expr import Expression

    calls = {}
    lenient = Expression.evaluate_lenient

    def counted(self, xs):
        key = (self.to_text(), len(xs))
        calls[key] = calls.get(key, 0) + 1
        return lenient(self, xs)

    monkeypatch.setattr(Expression, "evaluate_lenient", counted)
    rc = main(["verify", "--model", name, "--suite", "all", "--paths", "10000",
               "--seed", "1", "--out", str(tmp_path)])
    assert rc in (0, 1)
    # loading the model checks it once on its probe grid
    assert calls == {(expression, CONTINUITY_GRID): 1, (expression, 10000): steps + 1}


@pytest.mark.parametrize("d", [2, 3])
def test_phase_of_a_path_does_not_depend_on_its_chunk(d):
    # <u, x> is summed row by row: each of 300 paths recorded alone keeps
    # the bits it has inside one chunk of 300 (a BLAS product need not)
    from symbolkit.martingale import _ExponentialObserver, _PhaseObserver

    rng = np.random.default_rng(40 + d)
    n = 300
    x0, u = rng.standard_normal(d), 3.0 * rng.standard_normal(d)
    steps = [5.0 * rng.standard_normal((n, d)) for _ in range(3)]
    model = _model(parse_expression("0.1 + 0.05*x1^2", dim=d), [0.1] * d,
                   (0.5 * np.eye(d)).tolist(), box=((-10.0, 10.0),) * d)
    grid = [(0.02, 2)]
    observers = {
        "phase": lambda n: _PhaseObserver(x0, u, "phase", grid),
        "exponential": lambda n: _ExponentialObserver(model, u, 0.01, "exponential", grid, n),
    }

    def recorded(make, rows):
        # the values kept at the last column, before the chunk ends
        observer = make(len(rows[0]))
        status = np.zeros(len(rows[0]), dtype=np.int8)
        for j, x in enumerate(rows):
            observer.record(j, x, status, model.coefficient_values(x))
        return observer.kept[2][1]

    for name, make in observers.items():
        chunk = recorded(make, steps)
        alone = np.concatenate([recorded(make, [x[k:k + 1] for x in steps]) for k in range(n)])
        assert chunk.tobytes() == alone.tobytes(), name
