import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import symbolkit
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

# a top-level characteristic, not at its default, for each field that an
# sde model takes from its driver instead
SDE_TOP_LEVEL = {
    "killing_rate": 0.5,
    "drift": ["log(x1)"],
    "covariance": [[1.0]],
    "levy_measure": {"kind": "density", "density": "exp(-abs(x1))/abs(x1)^1.5",
                     "eps": 1e-3, "y_max": 20.0},
    "cutoff": {"kind": "indicator_ball", "radius": 2.0},
}


class TestLoadModel:
    def test_bundled_bm(self):
        model = load_model(bundled_model_path("bm"))
        assert model.is_constant
        assert eval_symbol(model, [0.0], [2.0]) == pytest.approx(2.0 + 0j)

    def test_bundled_stable_like_valid(self):
        model = load_model(bundled_model_path("stable_like"))
        alpha = model.coefficient_values(np.array([[0.0]]))[model.measures.alpha][0]
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
        f = _write(tmp_path, {**BASE, "mode": "autonomous", "covariance": [["-1 - x1^2"]]})
        with pytest.raises(ModelInvariantError, match="positive semidefinite at x="):
            load_model(f)

    @pytest.mark.parametrize("body, field", [
        ({"killing_rate": "x1^2"}, "killing_rate"),
        ({"killing_rate": "x1^2", "drift": ["sin(x1)"]}, "killing_rate"),
        ({"dim": 2, "drift": [0.0, "x2"], "covariance": [[1.0, 0.0], [0.0, "1 + x1^2"]],
          "domain_box": [[-5.0, 5.0]] * 2}, "drift[1]"),
        ({"covariance": [["1 + x1^2"]]}, "covariance[0][0]"),
        ({"levy_measure": {"kind": "discrete", "atoms": [{"jump": [1.0], "rate": 1.0},
                                                         {"jump": [-1.0], "rate": "1 + x1^2"}]}},
         "levy_measure.atoms[1].rate"),
        ({"covariance": [[0.0]], "levy_measure": {"kind": "alpha_stable", "alpha": 1.5,
                                                  "scale": "1 + x1^2"}}, "levy_measure.scale"),
    ])
    def test_levy_mode_rejects_state_dependent_coefficient(self, tmp_path, capsys, body, field):
        # a Levy process has constant characteristics: the first
        # state-dependent field is named, and the CLI exits 2
        f = _write(tmp_path, {**BASE, **body})
        with pytest.raises(ModelConfigError) as err:
            load_model(f)
        assert err.value.field == field
        rc = main(["symbol", "--model", str(f), "--x", "0", "--xi", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert f"error: {field}: a levy model needs a constant" in capsys.readouterr().err

    def test_sde_driver_must_be_constant(self, tmp_path):
        f = _write(tmp_path, {**BASE, "mode": "sde", "covariance": [[0.0]],
                              "sde": {"coefficient": "1 + 0.1*x1",
                                      "driver": {"killing_rate": "x1^2",
                                                 "covariance": [[1.0]]}}})
        with pytest.raises(ModelConfigError, match=r"^sde\.driver: .*killing_rate") as err:
            load_model(f)
        assert err.value.field == "sde.driver"

    def test_sde_coefficient_required(self, tmp_path):
        f = _write(tmp_path, {**BASE, "mode": "sde", "covariance": [[0.0]],
                              "sde": {"driver": {"covariance": [[1.0]]}}})
        with pytest.raises(ModelConfigError) as err:
            load_model(f)
        assert err.value.field == "sde.coefficient"

    def test_sde_coefficient_oscillation_checked(self, tmp_path):
        # f is checked as every other coefficient is
        f = _write(tmp_path, {**BASE, "mode": "sde", "covariance": [[0.0]],
                              "sde": {"coefficient": "1e7*x1",
                                      "driver": {"covariance": [[1.0]]}}})
        with pytest.raises(ModelInvariantError, match="sde coefficient oscillates"):
            load_model(f)

    @pytest.mark.parametrize("field", sorted(SDE_TOP_LEVEL))
    def test_sde_mode_rejects_top_level_characteristics(self, tmp_path, capsys, field):
        # an sde model's characteristics are its driver's: a top-level one
        # that is not at its default is named, not ignored, and the CLI
        # exits 2
        f = _write(tmp_path, {**BASE, "mode": "sde", "covariance": [[0.0]],
                              field: SDE_TOP_LEVEL[field],
                              "sde": {"coefficient": "x1",
                                      "driver": {"covariance": [[1.0]]}}})
        with pytest.raises(ModelConfigError, match="characteristics from sde.driver") as err:
            load_model(f)
        assert err.value.field == field
        rc = main(["conditions", "--model", str(f), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {field}: sde mode takes" in capsys.readouterr().err

    def test_bad_expression_position(self, tmp_path):
        f = _write(tmp_path, {**BASE, "killing_rate": "1 +"})
        with pytest.raises(ModelConfigError, match="bad expression"):
            load_model(f)

    @pytest.mark.parametrize("atoms, index, reason", [
        ([{"jump": [1.0], "rate": "1 + x1^2"}, {"jump": [0.0], "rate": 1.0}], 1, "origin"),
        ([{"jump": [0.0], "rate": "1 + x1^2"}], 0, "origin"),
        ([{"jump": [1.0], "rate": "1 + x1^2"}, {"jump": [-1.0], "rate": 0.0}], 1, "positive"),
    ], ids=["number_rate_at_origin", "expression_rate_at_origin", "zero_rate"])
    def test_atoms_checked_whatever_their_rates(self, tmp_path, atoms, index, reason):
        # the atoms of a state-dependent measure obey the rules of
        # constant ones: none at the origin, every number rate positive
        f = _write(tmp_path, {**BASE, "mode": "autonomous",
                              "levy_measure": {"kind": "discrete", "atoms": atoms}})
        with pytest.raises(ModelConfigError, match=reason) as err:
            load_model(f)
        assert err.value.field == f"levy_measure.atoms[{index}]"

    @pytest.mark.parametrize("dim, atoms, index", [
        (1, [{"jump": [1.0, 2.0], "rate": 1.0}], 0),
        (1, [{"jump": [1.0], "rate": 1.0}, {"jump": [1.0, 2.0], "rate": "1 + x1^2"}], 1),
        (2, [{"jump": [1.0, 0.0], "rate": 1.0}, {"jump": [1.0], "rate": 1.0}], 1),
    ], ids=["too_long", "unequal_lengths", "too_short"])
    def test_atom_dimension_checked(self, tmp_path, dim, atoms, index):
        # an atom of another dimension is named at load, not mixed into
        # the symbol or left to np.stack
        body = {**BASE, "mode": "autonomous", "dim": dim, "drift": [0.0] * dim,
                "covariance": np.eye(dim).tolist(), "domain_box": [[-3.0, 3.0]] * dim,
                "levy_measure": {"kind": "discrete", "atoms": atoms}}
        with pytest.raises(ModelConfigError, match=f"the model is {dim}-dimensional") as err:
            load_model(_write(tmp_path, body))
        assert err.value.field == f"levy_measure.atoms[{index}]"

    @pytest.mark.parametrize("mode", ["levy", "autonomous"])
    def test_stable_measure_dimension_checked(self, tmp_path, mode):
        body = {**BASE, "mode": mode, "dim": 2, "drift": [0.0, 0.0],
                "covariance": [[0.0, 0.0], [0.0, 0.0]], "domain_box": [[-3.0, 3.0]] * 2,
                "levy_measure": {"kind": "alpha_stable", "alpha": 1.5, "scale": 1.0}}
        with pytest.raises(ModelConfigError, match="one-dimensional") as err:
            load_model(_write(tmp_path, body))
        assert err.value.field == "levy_measure"

    def test_stable_order_range_checked(self, tmp_path):
        f = _write(tmp_path, {**BASE, "mode": "autonomous",
                              "levy_measure": {"kind": "alpha_stable",
                                               "alpha": "2 + x1^2", "scale": 1.0},
                              "covariance": [[0.0]]})
        with pytest.raises(ModelInvariantError, match="stable order"):
            load_model(f)

    @pytest.mark.parametrize("body, field", [
        ({"killing_rate": "log(x1)"}, "killing_rate"),
        ({"drift": ["log(x1)"]}, "drift"),
        ({"covariance": [["x1^0.5"]]}, "covariance"),
        ({"levy_measure": {"kind": "discrete", "atoms": [{"jump": [1.0], "rate": "x1^0.5"}]}},
         "atom rate"),
        ({"covariance": [[0.0]], "levy_measure": {"kind": "alpha_stable",
                                                  "alpha": "1 + x1^0.5", "scale": 1.0}},
         "stable order"),
        ({"covariance": [[0.0]], "levy_measure": {"kind": "alpha_stable",
                                                  "alpha": 1.5, "scale": "x1^0.5"}},
         "stable scale"),
        ({"mode": "sde", "covariance": [[0.0]],
          "sde": {"coefficient": "log(x1)", "driver": {"covariance": [[1.0]]}}},
         "sde coefficient"),
    ])
    def test_undefined_coefficient_reports_field_and_point(self, tmp_path, capsys, body, field):
        # log(x1) and x1^0.5 are undefined on half of the box [-1, 1]: the
        # first probe point, -1, is named with the field, and the CLI exits 2
        f = _write(tmp_path, {**BASE, "mode": "autonomous", "domain_box": [[-1.0, 1.0]],
                              **body})
        message = f"{field} not finite at x=[-1.0]"
        with pytest.raises(ModelInvariantError, match=re.escape(message)):
            load_model(f)
        rc = main(["conditions", "--model", str(f), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
    (["--xi", "1", "--x", "nan"], "--x 'nan': need 1 finite number(s)"),
    (["--xi", "1", "--k-radius", "nan"], "--k-radius 'nan': need one or more finite positive"),
    (["--xi", "1", "--radii", "nan"], "--radii 'nan': need one or more finite positive"),
    (["--xi", "1", "--ladder", "nan,0.02"], "--ladder 'nan,0.02': need one or more finite"),
    (["--xi", "1", "--k-radius", "1,2"], "--k-radius '1,2': one radius"),
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


def test_maximal_needs_two_paths(tmp_path, capsys):
    # the stability check compares the sample with its first half, which
    # one path leaves empty: it used to warn, write NaN and exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["maximal", "--model", "bm", "--paths", "1", "--t-grid", "0.5",
                   "--r-grid", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert ("--paths 1: the stability check halves the sample, so at least 2 paths "
            "are needed") in capsys.readouterr().err
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


def test_density_the_panels_cannot_resolve_names_the_field(tmp_path, capsys):
    # the pole at 0.7 inside the support defeats the panel set's
    # interpolation; the model is refused when it is loaded
    measure = {"kind": "density", "density": "1/abs(x1-0.7)", "eps": 0.5, "y_max": 1.0}
    f = _write(tmp_path, {**BASE, "covariance": [[0.0]], "levy_measure": measure})
    rc = main(["symbol", "--model", str(f), "--x", "0", "--xi", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "levy_measure" in err
    assert "did not converge" in err


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
    from symbolkit.quadrature import QuadratureError

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


@pytest.mark.parametrize("args, message", [
    (["--rmin", "0"], "--rmin 0.0: need a finite positive radius"),
    (["--rmin", "nan"], "--rmin nan: need a finite positive radius"),
    (["--rmin=-1"], "--rmin -1.0: need a finite positive radius"),
    (["--rmax", "inf"], "--rmax inf: need a finite positive radius"),
    (["--x", "nan"], "--x 'nan': need 1 finite number(s)"),
    (["--x", "1,2"], "--x '1,2': need 1 finite number(s) for a 1-dimensional model"),
])
def test_indices_invalid_input_exit_code(tmp_path, capsys, args, message):
    rc = main(["indices", "--model", "stable_like", "--direction", "infinity", "--x", "0",
               "--rmin", "1e-6", "--rmax", "1e-2", "--out", str(tmp_path), *args])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["symbol", "--x", "0", "--xi", "nan"], "--xi 'nan': need one or more finite numbers"),
    (["symbol", "--x", "0", "--xi", "inf"], "--xi 'inf': need one or more finite numbers"),
    (["symbol", "--x", "0", "--xi-grid", "nan:1:3"], "--xi-grid 'nan:1:3': need"),
    *[(["scaling", "--direction", "zero", "--t-grid", "0.01,0.1,1", f"--lambdas={lam}"],
       f"--lambdas '{lam}': need one or more finite positive numbers")
      for lam in ("0", "nan", "inf", "-1", "")],
    (["conditions", "--x-grid=nan:1:3"], "--x-grid 'nan:1:3': need"),
    (["conditions", "--xi-grid=0:inf:3"], "--xi-grid '0:inf:3': need"),
    (["maximal", "--t-grid="], "--t-grid '': need one or more numbers"),
    (["maximal", "--r-grid="], "--r-grid '': need one or more finite positive numbers"),
], ids=["xi_nan", "xi_inf", "xi_grid_nan", "lambda_zero", "lambda_nan", "lambda_inf",
        "lambda_negative", "lambdas_empty", "x_grid_nan", "xi_grid_inf", "t_grid_empty",
        "r_grid_empty"])
def test_grid_and_frequency_input_exit_code(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    # a short run for the Monte-Carlo commands; conditions takes no --paths
    paths = [] if args[0] == "conditions" else ["--paths", "100"]
    rc = main([*args, "--model", "bm", *paths, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    *[(["indices", "--rmin", "0.1", "--rmax", "1"], flag)
      for flag in ("--seed", "--paths", "--dt", "--x0")],
    *[(["conditions"], flag) for flag in ("--seed", "--paths", "--dt", "--x0")],
    (["symbol", "--x", "0", "--xi", "1"], "--x0"),
], ids=["indices-seed", "indices-paths", "indices-dt", "indices-x0", "conditions-seed",
        "conditions-paths", "conditions-dt", "conditions-x0", "symbol-x0"])
def test_run_flag_the_command_ignores_is_refused(tmp_path, capsys, command, flag):
    # these commands never read the flag: it is a usage error, not a no-op
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, "--model", "bm", flag, "1", "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_kills_by_the_rate_not_the_model_kind(tmp_path):
    # one constant-rate model, written as a levy and as an autonomous
    # model file, is killed at the same exponential levels and gives the
    # same reports
    body = {**BASE, "killing_rate": 0.8, "drift": [0.3],
            "simulation": {"n_paths": 2000, "seed": 5}}
    outs, codes = [], []
    for mode in ("levy", "autonomous"):
        (tmp_path / mode).mkdir()
        f = _write(tmp_path / mode, {**body, "mode": mode})
        out = tmp_path / mode / "out"
        codes.append(main(["verify", "--model", str(f), "--suite", "all", "--out", str(out)]))
        outs.append(out)
    assert codes[0] == codes[1] in (0, 1)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["verify_canonical.json", "verify_exponential.json",
                     "verify_killing.json"]
    assert sorted(p.name for p in outs[1].iterdir()) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_commands_in_one_process_match_separate_runs(tmp_path):
    # the parser is built once per process; a second command through it
    # writes the same files as a fresh process does
    commands = [
        ["conditions", "--model", "killed_levy"],
        ["indices", "--model", "stable_like", "--direction", "infinity", "--x", "0.5",
         "--rmin", "1e-6", "--rmax", "1e-2"],
    ]
    src = str(Path(symbolkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for i, cmd in enumerate(commands):
        subprocess.run([sys.executable, "-m", "symbolkit", *cmd,
                        "--out", str(tmp_path / "separate" / str(i))],
                       env=env, check=True, capture_output=True)
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    for i, cmd in enumerate(commands):
        assert main([*cmd, "--out", str(tmp_path / "shared" / str(i))]) == 0
    separate = sorted(p.relative_to(tmp_path / "separate")
                      for p in (tmp_path / "separate").rglob("*") if p.is_file())
    shared = sorted(p.relative_to(tmp_path / "shared")
                    for p in (tmp_path / "shared").rglob("*") if p.is_file())
    assert separate == shared and len(shared) == 3
    for rel in shared:
        assert (tmp_path / "shared" / rel).read_bytes() == \
            (tmp_path / "separate" / rel).read_bytes()
