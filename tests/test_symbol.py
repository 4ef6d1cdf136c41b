import json
import math
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from symbolkit.config import bundled_model_path, load_model
from symbolkit.expr import parse_expression
from symbolkit.simulate import PathSampler, make_sde_model
from symbolkit.symbol import (
    ProbeImmediateExitError,
    ProbeSettings,
    estimate_symbol,
    estimate_symbol_grid,
    symbol_independence_check,
)
from symbolkit.triplet import (
    Coefficient,
    ConstantMeasureFamily,
    CutoffFunction,
    DiscreteMeasureFamily,
    LevyTriplet,
    MatrixCoefficient,
    StableMeasure,
    StateModel,
    VectorCoefficient,
    ZeroMeasure,
    eval_exponent,
)

from helpers import load_data_module

DATA = FsPath(__file__).parent / "data"
CAPTURE = load_data_module("capture_symbol_reports")

N_PROBE = 30_000


def _sampler(model, seed=1):
    return PathSampler(model=model, dt=1e-4, seed=seed)


@pytest.fixture(scope="module")
def bm_report():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    settings = ProbeSettings(k_radius=1.0, n_samples=N_PROBE)
    return estimate_symbol(_sampler(model), [0.0], [2.0], settings)


def test_bm_probe_hits_analytic(bm_report):
    assert bm_report.analytic == pytest.approx(2.0 + 0j)
    assert abs(bm_report.extrapolated - 2.0) <= max(
        0.10 * 2.0, 3.0 * bm_report.extrapolated_stderr)
    assert not bm_report.low_confidence


def test_bm_probe_bias_decays_with_t(bm_report):
    # |p_hat(t) - analytic| should shrink as t halves, up to noise slack
    errs = [abs(p - 2.0) for p in bm_report.estimates]
    ses = bm_report.stderrs
    for k in range(len(errs) - 1):
        assert errs[k + 1] <= errs[k] + 2.0 * (ses[k] + ses[k + 1])


def test_killed_levy_probe():
    model = StateModel.from_triplet(LevyTriplet(0.5, [0.0], [[0.0]], ZeroMeasure()))
    rep = estimate_symbol(_sampler(model, seed=2), [3.0], [1.3],
                          ProbeSettings(k_radius=1.0, n_samples=N_PROBE))
    assert rep.analytic == pytest.approx(0.5 + 0j)
    assert abs(rep.extrapolated - 0.5) <= 3.0 * rep.extrapolated_stderr + 1e-9


def test_space_homogeneity_of_constant_triplet():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    reps = [estimate_symbol(_sampler(model, seed=3 + i), [x], [1.0],
                            ProbeSettings(k_radius=1.0, n_samples=N_PROBE))
            for i, x in enumerate((0.0, 2.5))]
    diff = abs(reps[0].extrapolated - reps[1].extrapolated)
    se = math.hypot(reps[0].extrapolated_stderr, reps[1].extrapolated_stderr)
    assert diff <= 3.0 * se


def test_conjugate_symmetry_of_estimates():
    model = StateModel.from_triplet(LevyTriplet(0.0, [1.0], [[1.0]], ZeroMeasure()))
    s = _sampler(model, seed=5)
    settings = ProbeSettings(k_radius=1.0, n_samples=N_PROBE)
    plus = estimate_symbol(s, [0.0], [1.5], settings)
    minus = estimate_symbol(s, [0.0], [-1.5], settings)
    # same seed and ladder: estimates are exactly conjugate
    diff = abs(np.conj(plus.extrapolated) - minus.extrapolated)
    se = math.hypot(plus.extrapolated_stderr, minus.extrapolated_stderr)
    assert diff <= 3.0 * se


def test_zero_frequency_estimates_killing_rate():
    model = StateModel.from_triplet(LevyTriplet(0.3, [0.0], [[1.0]], ZeroMeasure()))
    rep = estimate_symbol(_sampler(model, seed=6), [0.0], [0.0],
                          ProbeSettings(k_radius=2.0, n_samples=N_PROBE))
    assert abs(rep.extrapolated - 0.3) <= 3.0 * rep.extrapolated_stderr + 1e-9
    conservative = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    rep0 = estimate_symbol(_sampler(conservative, seed=7), [0.0], [0.0],
                           ProbeSettings(k_radius=2.0, n_samples=5000))
    assert abs(rep0.extrapolated) <= 3.0 * rep0.extrapolated_stderr + 1e-12


def test_unstopped_mode_matches_on_levy():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    s = _sampler(model, seed=8)
    stopped = estimate_symbol(s, [0.0], [1.0], ProbeSettings(k_radius=2.0, n_samples=N_PROBE))
    free = estimate_symbol(s, [0.0], [1.0],
                           ProbeSettings(k_radius=math.inf, n_samples=N_PROBE))
    diff = abs(stopped.extrapolated - free.extrapolated)
    se = math.hypot(stopped.extrapolated_stderr, free.extrapolated_stderr)
    assert diff <= 3.0 * se + 1e-12


def test_independence_check_bm():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    rep = symbol_independence_check(_sampler(model, seed=9), [0.0], [1.0],
                                    radii=(1.0, 2.0, 4.0),
                                    settings=ProbeSettings(n_samples=N_PROBE))
    assert rep.consistent, rep.max_pair_z


def test_immediate_exit_error():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    s = PathSampler(model=model, dt=1e-3, seed=10)
    with pytest.raises(ProbeImmediateExitError):
        estimate_symbol(s, [0.0], [1.0],
                        ProbeSettings(k_radius=1e-6, n_samples=1000, dt=1e-3))


def test_sde_probe_matches_driver_composition():
    driver = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))
    model = make_sde_model(1.0, driver)  # f constant 1: symbol psi(xi)
    rep = estimate_symbol(_sampler(model, seed=11), [0.5], [2.0],
                          ProbeSettings(k_radius=1.0, n_samples=N_PROBE))
    assert rep.analytic == pytest.approx(complex(eval_exponent(driver, [2.0])))
    assert abs(rep.extrapolated - rep.analytic) <= max(
        0.15 * abs(rep.analytic), 3.0 * rep.extrapolated_stderr)


def test_settings_validation():
    with pytest.raises(ValueError):
        ProbeSettings(t_ladder=(0.01, 0.02))
    with pytest.raises(ValueError):
        ProbeSettings(k_radius=0.0)
    for dt in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            ProbeSettings(dt=dt)
    with pytest.raises(ValueError, match="n_samples must be at least 2"):
        ProbeSettings(n_samples=1)
    with pytest.raises(ValueError):
        symbol_independence_check(None, [0.0], [1.0], radii=(1.0, 1.0))


def test_report_json_round_trip(tmp_path, bm_report):
    f = tmp_path / "report.json"
    bm_report.write_json(f)
    import json
    data = json.loads(f.read_text())
    assert data["analytic"]["re"] == pytest.approx(2.0)
    assert len(data["ladder"]) == 4


def test_no_extrapolation_uses_smallest_rung():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    s = PathSampler(model=model, dt=1e-4, seed=12)
    rep = estimate_symbol(s, [0.0], [1.0],
                          ProbeSettings(k_radius=2.0, n_samples=5000, extrapolate=False))
    assert rep.extrapolated == rep.estimates[-1]
    assert rep.t_ladder[-1] == min(rep.t_ladder)


def test_low_confidence_flag_on_tiny_signal():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    s = PathSampler(model=model, dt=1e-4, seed=13)
    rep = estimate_symbol(s, [0.0], [0.05],
                          ProbeSettings(k_radius=2.0, n_samples=200))
    # analytic 0.00125 is far below the noise floor at n=200
    assert rep.low_confidence


@pytest.mark.parametrize("case", sorted(CAPTURE.CASES) + sorted(CAPTURE.CLI_CASES))
def test_reports_bit_identical(case, tmp_path):
    # reports captured with one simulation per (xi, K), before one
    # simulation served every frequency and radius of a call
    if case in CAPTURE.CLI_CASES:
        got = CAPTURE.cli_outputs(*CAPTURE.CLI_CASES[case], tmp_path)
    else:
        spec = CAPTURE.CASES[case]
        sampler, settings = CAPTURE.setup(spec)
        grid = estimate_symbol_grid(sampler, spec["x"], spec["xis"], spec["radii"], settings)
        got = [[CAPTURE.hexed(rep.to_json()) for rep in grid[r]] for r in spec["radii"]]
    ref = json.loads((DATA / "symbol_reports.json").read_text())
    assert got == ref[case]


def _atoms_model():
    return StateModel(
        dim=1, kill=Coefficient(0.0, 1), drift=VectorCoefficient([0.0], 1),
        covariance=MatrixCoefficient([[0.5]], 1),
        measures=DiscreteMeasureFamily([[0.3], [-0.3]],
                                       [parse_expression("1 + x1^2"), 2.0], 1),
        cutoff=CutoffFunction(), domain_box=[[-10.0, 10.0]])


def _exploding_model():
    # dx = x^3 dt + noise from x = 4 reaches |x| = 10 near t = 0.026
    return StateModel(
        dim=1, kill=Coefficient(1.0, 1),
        drift=VectorCoefficient([parse_expression("x1^3")], 1),
        covariance=MatrixCoefficient([[0.1]], 1),
        measures=ConstantMeasureFamily(ZeroMeasure()),
        cutoff=CutoffFunction(), domain_box=[[-20.0, 20.0]])


# name: (model, start point, explosion threshold, whether every radius
# keeps the bits of a run stopped at that radius alone)
GRID_MODELS = {
    "stable_like": (lambda: load_model(bundled_model_path("stable_like")), 0.5, 1e9, True),
    "killed_autonomous": (lambda: load_model(bundled_model_path("killed_autonomous")),
                          0.5, 1e9, True),
    "sde_cauchy": (lambda: load_model(bundled_model_path("sde_cauchy")), 0.5, 1e9, True),
    "exploding": (_exploding_model, 4.0, 10.0, True),
    # Poisson counts drawn at state-dependent rates follow the state, so
    # only the radius the kernel stops at keeps its bits
    "state_dependent_atoms": (_atoms_model, 0.5, 1e9, False),
}


@pytest.mark.parametrize("radii", [(0.2, 0.5), (0.5, math.inf, 0.2)])
@pytest.mark.parametrize("name", sorted(GRID_MODELS))
def test_grid_matches_one_run_per_radius(name, radii):
    build, x, expl, every_radius = GRID_MODELS[name]
    sampler = PathSampler(model=build(), dt=0.002, seed=41, explosion_threshold=expl)
    settings = ProbeSettings(t_ladder=(0.04, 0.02, 0.01), n_samples=3000)
    xis = [[1.0], [2.0]]
    grid = estimate_symbol_grid(sampler, [x], xis, radii, settings)
    for r in radii if every_radius else [max(radii)]:
        for xi, rep in zip(xis, grid[r]):
            alone = estimate_symbol(sampler, [x], xi, replace(settings, k_radius=r))
            assert CAPTURE.hexed(rep.to_json()) == CAPTURE.hexed(alone.to_json()), (r, xi)


def test_grid_validates_start_point_and_frequencies():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[1.0]], ZeroMeasure()))
    s = _sampler(model)
    settings = ProbeSettings(n_samples=100)
    with pytest.raises(ValueError, match=r"x = \[0.0, 0.0\] has 2 components; "
                                         "the model is 1-dimensional"):
        estimate_symbol_grid(s, [0.0, 0.0], [[1.0]], [1.0], settings)
    with pytest.raises(ValueError, match="no frequency"):
        estimate_symbol_grid(s, [0.0], [], [1.0], settings)
