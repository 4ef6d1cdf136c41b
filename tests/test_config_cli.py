import json
import math

import numpy as np
import pytest

from symbolkit.cli import main
from symbolkit.config import (
    ModelConfigError,
    ModelInvariantError,
    bundled_model_path,
    load_model,
    resolve_model_path,
)
from symbolkit.serialize import dump_json, fmt_float
from symbolkit.triplet import (
    CutoffFunction,
    DensityMeasure,
    LevyTriplet,
    eval_exponent,
    eval_symbol,
)


def _write(tmp_path, body: dict, name="m.model"):
    f = tmp_path / name
    f.write_text(json.dumps(body))
    return f


BASE = {
    "schema": "symbolkit-model/1",
    "dim": 1,
    "mode": "levy",
    "killing_rate": 0.0,
    "drift": [0.0],
    "covariance": [[1.0]],
    "levy_measure": {"kind": "zero"},
    "cutoff": {"kind": "indicator_ball", "radius": 1.0},
    "domain_box": [[-5.0, 5.0]],
}


class TestLoadModel:
    def test_bundled_bm(self):
        model = load_model(bundled_model_path("bm"))
        assert model.is_constant
        assert eval_symbol(model, [0.0], [2.0]) == pytest.approx(2.0 + 0j)

    def test_bundled_stable_like_valid(self):
        model = load_model(bundled_model_path("stable_like"))
        alpha = model.measures.alpha_coeff(np.array([[0.0]]))[0]
        assert alpha == pytest.approx(0.7)

    def test_negative_killing_rate_reports_point(self, tmp_path):
        f = _write(tmp_path, {**BASE, "killing_rate": "-1"})
        with pytest.raises(ModelInvariantError, match="killing_rate negative at x="):
            load_model(f)

    def test_unknown_field_fails_closed(self, tmp_path):
        f = _write(tmp_path, {**BASE, "volatility": 1.0})
        with pytest.raises(ModelConfigError, match="unknown fields"):
            load_model(f)

    def test_schema_version_mismatch(self, tmp_path):
        f = _write(tmp_path, {**BASE, "schema": "symbolkit-model/2"})
        with pytest.raises(ModelConfigError, match="schema"):
            load_model(f)

    def test_non_psd_covariance_reports_point(self, tmp_path):
        f = _write(tmp_path, {**BASE, "covariance": [["-1 - x1^2"]]})
        with pytest.raises(ModelInvariantError, match="positive semidefinite at x="):
            load_model(f)

    def test_bad_expression_position(self, tmp_path):
        f = _write(tmp_path, {**BASE, "killing_rate": "1 +"})
        with pytest.raises(ModelConfigError, match="bad expression"):
            load_model(f)

    def test_stable_order_range_checked(self, tmp_path):
        f = _write(tmp_path, {**BASE, "mode": "autonomous",
                              "levy_measure": {"kind": "alpha_stable",
                                               "alpha": "2 + x1^2", "scale": 1.0},
                              "covariance": [[0.0]]})
        with pytest.raises(ModelInvariantError, match="stable order"):
            load_model(f)

    def test_resolve_prefers_filesystem(self, tmp_path):
        f = _write(tmp_path, BASE)
        assert resolve_model_path(str(f)) == f
        assert resolve_model_path("bm").name == "bm.model"
        with pytest.raises(FileNotFoundError):
            resolve_model_path("does_not_exist")


class TestSerialize:
    def test_fmt_float_17_digits(self):
        assert fmt_float(1.0 / 3.0) == "0.33333333333333331"
        assert fmt_float(float("inf")) == "Infinity"

    def test_dump_json_parses_back(self):
        obj = {"a": 1.5, "b": [1, 2.25], "c": {"d": None, "e": True},
               "z": complex(1.0, -2.0)}
        text = dump_json(obj)
        back = json.loads(text)
        assert back["a"] == 1.5
        assert back["z"] == {"re": 1.0, "im": -2.0}


class TestCli:
    def test_symbol_command(self, tmp_path, capsys):
        rc = main(["symbol", "--model", "bm", "--x", "0", "--xi", "2",
                   "--samples", "20000", "--seed", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "symbol_report.json").read_text())
        assert report["analytic"]["re"] == pytest.approx(2.0)

    def test_indices_command(self, tmp_path):
        rc = main(["indices", "--model", "cauchy", "--direction", "origin",
                   "--rmin", "1e2", "--rmax", "1e6", "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "index_report.json").read_text())
        assert rep["beta0"] == pytest.approx(1.0, abs=0.05)

    def test_verify_killing_suite(self, tmp_path):
        rc = main(["verify", "--model", "killed_levy", "--suite", "killing",
                   "--paths", "20000", "--dt", "0.005", "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "verify_killing.json").read_text())
        assert rep["passed"] is True

    def test_conditions_command(self, tmp_path):
        rc = main(["conditions", "--model", "pure_drift", "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "conditions.json").read_text())
        assert rep["sector"]["satisfied"] is False

    def test_config_error_exit_code(self, tmp_path):
        bad = _write(tmp_path, {**BASE, "killing_rate": "-1"})
        rc = main(["symbol", "--model", str(bad), "--x", "0", "--xi", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        rc = main(["symbol", "--model", "missing_model", "--x", "0", "--xi", "1",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_simulate_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["simulate", "--model", "compound_poisson", "--paths", "7",
                       "--seed", "9", "--out", str(out)])
            assert rc == 0
        for f1 in sorted((out1 / "paths").glob("*.csv")):
            f2 = out2 / "paths" / f1.name
            assert f1.read_text() == f2.read_text()
        m1 = (out1 / "manifest.json").read_text()
        m2 = (out2 / "manifest.json").read_text()
        assert m1 == m2

    def test_scaling_command(self, tmp_path):
        rc = main(["scaling", "--model", "bm", "--direction", "zero",
                   "--lambdas", "4", "--t-grid", "0.001,0.01,0.1",
                   "--paths", "400", "--dt", "0.0001", "--out", str(tmp_path)])
        assert rc == 0
        rep = json.loads((tmp_path / "scaling.json").read_text())
        assert rep["classifications"]["4.0"] == "->0"


def test_symbol_xi_grid_csv(tmp_path):
    rc = main(["symbol", "--model", "killed_levy", "--x", "0",
               "--xi-grid", "0.5:2:4", "--samples", "5000",
               "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "symbol_grid.csv").read_text().splitlines()
    assert lines[0].startswith("x1,xi1,analytic_re")
    assert len(lines) == 5


@pytest.mark.parametrize("args, message", [
    (["--xi", "1", "--dt", "0"], "dt must be finite and positive, got 0.0"),
    (["--xi", "1", "--dt", "-0.01"], "dt must be finite and positive, got -0.01"),
    (["--xi", "1", "--samples", "1"], "n_samples must be at least 2, got 1"),
    (["--xi-grid", "1:2:0"], "--xi-grid 1:2:0: no frequency"),
    (["--xi", "1,2"], "xi = [1.0, 2.0] has 2 components; the model is 1-dimensional"),
    ([], "symbol needs --xi or --xi-grid"),
    (["--xi-grid", "1:2:2", "--radii", "1,2"], "--radii runs the exit-ball check for one --xi"),
])
def test_symbol_invalid_input_exit_code(tmp_path, capsys, args, message):
    rc = main(["symbol", "--model", "bm", "--x", "0", "--out", str(tmp_path), *args])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_simulate_non_finite_horizon_exit_code(tmp_path, capsys, horizon):
    rc = main(["simulate", "--model", "bm", "--horizon", horizon, "--out", str(tmp_path)])
    assert rc == 2
    assert f"horizon must be finite, got {horizon}" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--u", "1,2"], "--u '1,2': need 1 finite number(s)"),
    (["--u", "nan"], "--u 'nan': need 1 finite number(s)"),
    (["--t-grid="], "killing_compensator: the time grid is empty"),
    (["--t-grid", "0,0.5"], "killing_compensator: grid times must be positive"),
    (["--paths", "1"], "killing_compensator: 1 valid paths of 1"),
    (["--x0", "1,2"], "--x0 '1,2': need 1 finite number(s)"),
    (["--t-grid=0.5,inf"], "time must be finite, got inf"),
    (["--t-grid=1e400"], "time must be finite, got inf"),
    (["--t-grid=nan"], "killing_compensator: grid times must be positive, got [nan]"),
], ids=["u_dimension", "u_nan", "empty_t_grid", "zero_time", "one_path", "x0_dimension",
        "inf_time", "overflowing_time", "nan_time"])
def test_verify_degenerate_input_exit_code(tmp_path, capsys, args, message):
    # fails closed before any report is written; --u and --t-grid before
    # any path is simulated
    out = tmp_path / "out"
    rc = main(["verify", "--model", "killed_autonomous", "--paths", "200", *args,
               "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_non_finite_value_on_valid_path_exit_code(tmp_path, capsys):
    # drift log(x1): 7 of the 35 valid paths step below 0 in the last
    # step, where the exponential check's compensator is not defined
    f = _write(tmp_path, {
        **BASE, "mode": "autonomous", "drift": ["log(x1)"], "covariance": [[0.01]],
        "domain_box": [[0.1, 3.0]],
        "simulation": {"dt": 0.01, "horizon": 0.5, "n_paths": 500, "x0": [0.5], "seed": 22},
    })
    out = tmp_path / "out"
    rc = main(["verify", "--model", str(f), "--t-grid", "0.25,0.5", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("exponential_martingale_autonomous: value not finite at t = 0.5 on a valid "
            "path, at state x = [-") in err
    assert not out.exists()


@pytest.mark.parametrize("t_grid, bad", [
    ("-0.1,0.2", "-0.1"), ("0,0.2", "0.0"), ("0.1,nan", "nan"), ("0.1,inf", "inf"),
])
def test_maximal_non_positive_time_exit_code(tmp_path, capsys, t_grid, bad):
    # a time at or below zero used to snap silently to one step
    rc = main(["maximal", "--model", "bm", f"--t-grid={t_grid}", "--r-grid", "1",
               "--paths", "100", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"snapshot time must be finite and positive, got {bad}" in err
    assert not (tmp_path / "maximal_inequality.json").exists()


def test_maximal_command(tmp_path):
    rc = main(["maximal", "--model", "bm", "--t-grid", "0.5,1.0",
               "--r-grid", "1,3", "--paths", "4000", "--dt", "0.002",
               "--seed", "8", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "maximal_inequality.json").read_text())
    assert rep["stable"] is True


def test_density_model_file(tmp_path):
    # an Expression density from a model file must give the same exponent
    # as the same density passed as a Python callable
    f = _write(tmp_path, {
        **BASE,
        "covariance": [[0.0]],
        "levy_measure": {"kind": "density", "density": "exp(-abs(x1))/abs(x1)",
                         "eps": 1e-3, "y_max": 20.0},
    })
    model = load_model(f)
    dens = lambda y: math.exp(-abs(y)) / abs(y)
    tri = LevyTriplet(0.0, [0.0], [[0.0]], DensityMeasure(dens, 1e-3, 20.0),
                      CutoffFunction(radius=1.0))
    expected = eval_exponent(tri, [1.5])
    assert eval_symbol(model, [0.0], [1.5]) == pytest.approx(expected, rel=1e-9)
    rc = main(["symbol", "--model", str(f), "--x", "0", "--xi", "1.5",
               "--samples", "2000", "--out", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("missing", ["density", "eps", "y_max"])
def test_density_keys_required(tmp_path, capsys, missing):
    measure = {"kind": "density", "density": "exp(-abs(x1))/abs(x1)",
               "eps": 1e-3, "y_max": 20.0}
    del measure[missing]
    f = _write(tmp_path, {**BASE, "covariance": [[0.0]], "levy_measure": measure})
    rc = main(["symbol", "--model", str(f), "--x", "0", "--xi", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"levy_measure.{missing}" in capsys.readouterr().err


def test_truncated_model_file(tmp_path, capsys):
    f = tmp_path / "m.model"
    f.write_text(json.dumps(BASE)[:40])
    rc = main(["symbol", "--model", str(f), "--x", "0", "--xi", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{f}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["eps", "y_max"])
def test_density_bound_not_numeric(tmp_path, capsys, key):
    measure = {"kind": "density", "density": "exp(-abs(x1))/abs(x1)",
               "eps": 1e-3, "y_max": 20.0, key: "abc"}
    f = _write(tmp_path, {**BASE, "covariance": [[0.0]], "levy_measure": measure})
    rc = main(["symbol", "--model", str(f), "--x", "0", "--xi", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"levy_measure.{key}" in capsys.readouterr().err


def test_density_indices_at_infinity(tmp_path):
    # R down to 1e-4 asks for the exponent at frequencies up to 1.6e4
    f = _write(tmp_path, {
        **BASE,
        "covariance": [[0.0]],
        "levy_measure": {"kind": "density", "density": "exp(-abs(x1))/abs(x1)^1.5",
                         "eps": 1e-3, "y_max": 20.0},
        "domain_box": [[-10.0, 10.0]],
    })
    rc = main(["indices", "--model", str(f), "--direction", "infinity", "--x", "0",
               "--rmin", "1e-4", "--rmax", "1e-1", "--out", str(tmp_path / "out")])
    assert rc == 0


def test_quadrature_error_exit_code(tmp_path, capsys, monkeypatch):
    import symbolkit.cli
    from symbolkit.triplet import QuadratureError

    def fail(*args, **kwargs):
        raise QuadratureError("density exponent did not converge", 1e-5)

    monkeypatch.setattr(symbolkit.cli, "estimate_indices", fail)
    rc = main(["indices", "--model", "bm", "--rmin", "0.1", "--rmax", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["symbol", "--x", "2", "--xi", "1"],
    ["maximal", "--x0", "2"],
    ["scaling", "--x0", "2", "--t-grid", "0.01,0.1,1", "--direction", "zero",
     "--lambdas", "4"],
    ["simulate", "--x0", "2"],
    ["verify", "--x0", "2"],
])
def test_explosion_threshold_below_start_exit_code(tmp_path, capsys, args):
    # a start point on or outside the explosion threshold would count
    # every path as exploded at once
    model = _write(tmp_path, {**BASE, "simulation": {"explosion_threshold": 1}})
    rc = main([*args, "--model", str(model), "--paths", "100", "--out", str(tmp_path)])
    assert rc == 2
    assert "explosion threshold 1.0 must exceed |x0| = 2.0" in capsys.readouterr().err
