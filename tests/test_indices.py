import json
import math

import numpy as np
import pytest

from symbolkit.config import bundled_model_path, load_model
from symbolkit.expr import parse_expression
from symbolkit.indices import (
    GRID_PAIRS_PER_CALL,
    estimate_indices,
    kappa,
    quantity_H,
    quantity_h,
    scaling_diagnostic,
    verify_maximal_inequality,
)
from symbolkit.simulate import PathSampler
from symbolkit.triplet import (
    Coefficient,
    CutoffFunction,
    DensityMeasure,
    LevyTriplet,
    MatrixCoefficient,
    SectorConditionError,
    StableMeasure,
    StateModel,
    VectorCoefficient,
    ZeroMeasure,
    check_sector,
    eval_symbol,
)

from helpers import DATA, load_data_module
from oracles import bm_max_abs_exceed, brute_quantity_H

CAPTURE = load_data_module("capture_index_reports")


def test_kappa_limit_and_monotonicity():
    assert kappa(0.0) == pytest.approx(1.0 / (2.0 * math.pi))
    cs = np.linspace(0.0, 5.0, 11)
    ks = [kappa(c) for c in cs]
    assert all(a < b for a, b in zip(ks, ks[1:]))


class TestQuantities:
    def test_H_cauchy(self, cauchy_model):
        assert quantity_H(cauchy_model, 10.0) == pytest.approx(0.1, abs=1e-3)

    def test_H_bm(self, bm_model):
        assert quantity_H(bm_model, 2.0) == pytest.approx(0.125)

    def test_H_zero_model(self):
        model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[0.0]], ZeroMeasure()))
        for r in (0.5, 2.0, 50.0):
            assert quantity_H(model, r) == 0.0

    def test_H_matches_brute_force_state_dependent(self):
        model = load_model(bundled_model_path("stable_like"))
        for R in (5.0, 50.0):
            got = quantity_H(model, R)
            ys = np.linspace(-15, 15, 41)
            oracle = brute_quantity_H(
                lambda y, xi: eval_symbol(model, [y], [xi]), R, ys)
            assert got == pytest.approx(oracle)

    def test_h_cauchy_closed_form(self, cauchy_model):
        for R in (1.0, 4.0):
            assert quantity_h(cauchy_model, R, 0.0) == pytest.approx(math.pi / (2 * R))

    def test_h_bm_closed_form(self, bm_model):
        R = 3.0
        k = kappa(0.0)
        assert quantity_h(bm_model, R, 0.0) == pytest.approx(0.5 / (4 * k * R) ** 2)

    def test_h_requires_sector(self):
        drift = StateModel.from_triplet(LevyTriplet(0.0, [1.0], [[0.0]], ZeroMeasure()))
        est = check_sector(drift, np.zeros((1, 1)), np.linspace(-5, 5, 11).reshape(-1, 1))
        with pytest.raises(SectorConditionError):
            quantity_h(drift, 1.0, est)

    def test_H_nonincreasing_in_R(self, cauchy_model, bm_model):
        for model in (cauchy_model, bm_model):
            rs = np.geomspace(0.1, 100.0, 12)
            hs = [quantity_H(model, r) for r in rs]
            assert all(b <= a + 1e-9 for a, b in zip(hs, hs[1:]))

    def test_local_equals_global_for_constant(self, bm_model):
        for r in (0.5, 5.0):
            assert quantity_H(bm_model, r, x=[1.0]) == quantity_H(bm_model, r)
            assert quantity_h(bm_model, r, 0.0, x=[1.0]) == quantity_h(bm_model, r, 0.0)

    def test_scale_covariance(self):
        base = StateModel.from_triplet(
            LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.5, 1.0)))
        scaled = StateModel.from_triplet(
            LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.5, 3.0)))
        for r in (2.0, 20.0):
            assert quantity_H(scaled, r) == pytest.approx(3.0 * quantity_H(base, r))
        rep_a = estimate_indices(base, 1e2, 1e6, 16, "origin")
        rep_b = estimate_indices(scaled, 1e2, 1e6, 16, "origin")
        assert rep_a.beta0 == pytest.approx(rep_b.beta0, abs=1e-9)
        assert rep_a.delta0 == pytest.approx(rep_b.delta0, abs=1e-9)


class TestIndexEstimation:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_stable_recovery(self, alpha):
        model = StateModel.from_triplet(
            LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(alpha, 1.0)))
        rep = estimate_indices(model, 1e2, 1e6, 16, "origin")
        for v in (rep.beta0, rep.beta0_lower, rep.delta0_upper, rep.delta0):
            assert v == pytest.approx(alpha, abs=0.02)

    def test_bm_origin(self, bm_model):
        rep = estimate_indices(bm_model, 1e2, 1e6, 16, "origin")
        assert rep.beta0 == pytest.approx(2.0, abs=0.02)

    def test_indices_at_infinity_bm(self, bm_model):
        rep = estimate_indices(bm_model, 1e-6, 1e-2, 16, "infinity", x=[0.0])
        assert rep.beta_inf_x == pytest.approx(2.0, abs=0.05)
        assert rep.delta_inf_x == pytest.approx(2.0, abs=0.05)

    def test_stable_like_fixture(self):
        model = load_model(bundled_model_path("stable_like"))
        rep = estimate_indices(model, 1e2, 1e6, 16, "origin")
        assert rep.beta0 == pytest.approx(0.3, abs=0.05)
        assert rep.delta0 == pytest.approx(0.7, abs=0.05)
        assert rep.beta0 <= rep.beta0_lower
        assert rep.delta0_upper <= rep.delta0

    def test_grid_validation(self, bm_model):
        with pytest.raises(ValueError):
            estimate_indices(bm_model, 1.0, 10.0, 16, "origin")
        with pytest.raises(ValueError):
            estimate_indices(bm_model, 1.0, 1e5, 8, "origin")
        with pytest.raises(ValueError):
            estimate_indices(bm_model, 1.0, 1e5, 16, "infinity")
        for r_min, r_max in ((0.0, 1e5), (math.nan, 1e5), (-1.0, 1e5), (1e-6, math.inf),
                             (1e5, 1.0)):
            with pytest.raises(ValueError, match="need finite 0 < R_min < R_max"):
                estimate_indices(bm_model, r_min, r_max, 16, "origin")

    def test_report_serialisation(self, tmp_path, bm_model):
        rep = estimate_indices(bm_model, 1e2, 1e6, 16, "origin")
        rep.write_json(tmp_path / "rep.json")
        rep.write_slopes_csv(tmp_path / "slopes.csv")
        import json
        data = json.loads((tmp_path / "rep.json").read_text())
        assert data["beta0"] == pytest.approx(2.0, abs=0.02)
        lines = (tmp_path / "slopes.csv").read_text().splitlines()
        assert lines[0] == "R_mid,H_slope,h_slope"
        assert len(lines) == 16  # header + 15 slope rows


class TestMaximalInequality:
    def test_bm_ratio_finite_and_crosschecked(self, bm_model):
        n = 20_000
        sampler = PathSampler(model=bm_model, dt=5e-4, seed=61)
        rep = verify_maximal_inequality(sampler, [0.0],
                                        t_grid=(0.1, 1.0), R_grid=(1.0, 3.0),
                                        n_paths=n)
        assert math.isfinite(rep.sup_ratio_upper)
        assert rep.stable
        # reflection-principle cross-check at (t=1, R=1)
        ti = rep.t_grid.index(1.0)
        ri = rep.R_grid.index(1.0)
        p_hat = rep.exceed_prob[ti][ri]
        p_true = bm_max_abs_exceed(1.0, 1.0)
        se = math.sqrt(p_true * (1 - p_true) / n)
        # grid maxima undershoot the continuous maximum by O(sqrt(dt))
        assert p_hat <= p_true + 3 * se
        assert p_hat >= p_true - 3 * se - 0.02

    def test_zero_model_all_zero_ratios(self):
        model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[0.0]], ZeroMeasure()))
        sampler = PathSampler(model=model, dt=0.01, seed=62)
        rep = verify_maximal_inequality(sampler, [0.0], (0.5, 1.0),
                                        (1.0, 10.0), 500)
        assert np.all(rep.exceed_prob == 0.0)
        assert rep.sup_ratio_upper == 0.0

    def test_one_path_is_refused(self, bm_model):
        sampler = PathSampler(model=bm_model, dt=0.01, seed=62)
        with pytest.raises(ValueError, match="n_paths = 1: the stability check halves"):
            verify_maximal_inequality(sampler, [0.0], (0.5,), (1.0,), 1)

    def test_lower_ratio_skipped_without_sector(self):
        drift = StateModel.from_triplet(LevyTriplet(0.0, [1.0], [[0.0]], ZeroMeasure()))
        sampler = PathSampler(model=drift, dt=0.01, seed=63)
        est = check_sector(drift, np.zeros((1, 1)), np.linspace(-5, 5, 11).reshape(-1, 1))
        rep = verify_maximal_inequality(sampler, [0.0], (0.5, 1.0),
                                        (0.5, 2.0), 500, c0=est)
        assert rep.ratio_lower is None
        assert rep.notes


class TestScaling:
    def test_bm_small_time(self, bm_model):
        sampler = PathSampler(model=bm_model, dt=1e-4, seed=64)
        t_grid = np.geomspace(1e-3, 1e-1, 7)
        rep = scaling_diagnostic(sampler, [0.0], [4.0, 1.0], t_grid, "zero")
        assert rep.classifications[4.0] == "->0"
        assert rep.classifications[1.0] == "->inf"

    def test_cauchy_large_time(self, cauchy_model):
        sampler = PathSampler(model=cauchy_model, dt=0.01, seed=65)
        t_grid = np.geomspace(1.0, 100.0, 7)
        rep = scaling_diagnostic(sampler, [0.0], [0.5, 2.0], t_grid, "infinity")
        assert rep.classifications[0.5] == "->0"
        assert rep.classifications[2.0] == "->inf"

    def test_t_grid_span_validation(self, bm_model):
        sampler = PathSampler(model=bm_model, dt=1e-3, seed=66)
        with pytest.raises(ValueError):
            scaling_diagnostic(sampler, [0.0], [1.0], (0.1, 0.5), "zero")


def test_H_2d_bm():
    tri = LevyTriplet(0.0, [0.0, 0.0], np.eye(2), ZeroMeasure())
    model = StateModel.from_triplet(tri)
    # sup over the unit frequency ball of 0.5 |eps/R|^2 sits on the boundary
    assert quantity_H(model, 2.0) == pytest.approx(0.125)


def test_h_accepts_satisfied_estimate(bm_model):
    est = check_sector(bm_model, np.zeros((1, 1)),
                       np.linspace(-5, 5, 11).reshape(-1, 1))
    assert est.satisfied
    k = kappa(est.constant)
    assert quantity_h(bm_model, 2.0, est) == pytest.approx(0.5 / (4 * k * 2.0) ** 2)


def test_indeterminate_flag_on_nonmonotone_grid_H(bm_model):
    # ball suprema of a true symbol are monotone in R; inject an
    # oscillating stub to exercise the diagnostic path
    def fake(xs, xis):
        r = np.linalg.norm(np.atleast_2d(xis), axis=1)
        return (1.0 + 0.9 * np.sin(40 * np.log(np.maximum(r, 1e-300)))).astype(complex)

    bm_model.symbol_many = fake
    rep = estimate_indices(bm_model, 1e2, 1e6, 16, "origin", c0=0.0)
    assert rep.indeterminate
    assert any("not monotone" in n for n in rep.notes)



def test_symbol_known_real_propagates_unrelated_errors(monkeypatch, bm_model):
    # a density failing a symmetry probe proves nothing; any other error
    # is a fault and must surface
    from symbolkit.expr import ExpressionDomainError
    from symbolkit.indices import _symbol_known_real

    def failing(error):
        def is_symmetric(self):
            raise error
        return is_symmetric

    monkeypatch.setattr(ZeroMeasure, "is_symmetric",
                        failing(ExpressionDomainError("log of non-positive value")))
    assert _symbol_known_real(bm_model) is False
    monkeypatch.setattr(ZeroMeasure, "is_symmetric", failing(RuntimeError("unrelated")))
    with pytest.raises(RuntimeError, match="unrelated"):
        _symbol_known_real(bm_model)


def test_index_reports_bit_identical():
    # every report field, bit for bit, as captured by
    # tests/data/capture_index_reports.py
    pinned = json.loads((DATA / "index_reports.json").read_text())
    got = CAPTURE.capture()
    assert sorted(got) == sorted(pinned)
    assert [case for case in pinned if got[case] != pinned[case]] == []


def _symbol_calls(monkeypatch, model, *args, **kwargs) -> list[int]:
    """The pair count of each StateModel.symbol_many call made by
    estimate_indices(model, *args, **kwargs)."""
    calls = []
    symbol_many = StateModel.symbol_many

    def counting(self, xs, xis):
        calls.append(len(xs))
        return symbol_many(self, xs, xis)

    monkeypatch.setattr(StateModel, "symbol_many", counting)
    estimate_indices(model, *args, **kwargs)
    return calls


def _tempered_density_model() -> StateModel:
    density = DensityMeasure(parse_expression("exp(-abs(x1))/abs(x1)^1.5", dim=1),
                             eps=1e-3, y_max=20.0)
    return StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[0.0]], density))


_CALL_MODELS = {
    "stable_like": lambda: load_model(bundled_model_path("stable_like")),
    "cauchy": lambda: load_model(bundled_model_path("cauchy")),
    # a density's exponent at one frequency does not depend on the others
    "tempered_density": _tempered_density_model,
}


@pytest.mark.parametrize("name", list(_CALL_MODELS))
def test_one_symbol_call_per_quantity(monkeypatch, name):
    # all 16 radii of H share one call, and so do those of h
    calls = _symbol_calls(monkeypatch, _CALL_MODELS[name](), 1e2, 1e6, 16, "origin")
    assert len(calls) == 2
    assert all(n <= GRID_PAIRS_PER_CALL for n in calls)


def test_grid_over_budget_runs_one_radius_per_call(monkeypatch):
    # 41 x 41 states times 513 frequencies exceed the budget at each
    # radius; the drift makes the symbol complex, so h is skipped
    model = StateModel(
        dim=2, kill=Coefficient(parse_expression("0.1*x1^2 + x2^2", dim=2)),
        drift=VectorCoefficient([0.5, 0.0], 2),
        covariance=MatrixCoefficient([[1.0, 0.0], [0.0, 1.0]], 2),
        measures=ZeroMeasure(), cutoff=CutoffFunction(),
        domain_box=np.array([[-10.0, 10.0], [-10.0, 10.0]]))
    calls = _symbol_calls(monkeypatch, model, 1e2, 1e6, 16, "origin")
    assert calls == [41 * 41 * 513] * 16
    assert calls[0] > GRID_PAIRS_PER_CALL
