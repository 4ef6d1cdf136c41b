"""The benchmark's checks accept what symbolkit outputs today, on two
seeds, and reject a copy of those outputs moved past a tolerance.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import copy
import io
import math

import numpy as np
import pytest
from scipy.special import gamma, gammainc

import checks
import workloads
from symbolkit.cli import main

SEEDS = (1, 2)


def _run(workload) -> dict:
    """Run every operation of a workload once; outputs by operation name."""
    data = {}
    for op in workload.ops:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*op.argv, "--out", str(op.out)])
        assert code in ((0, 1) if op.verdict_exit else (0,)), op.name
        data[op.name] = op.read(op.out)
    return data


@pytest.fixture(scope="module", params=[(w, s) for w in ("probe", "verify") for s in SEEDS]
                + [("indices", SEEDS[0])], ids=lambda p: f"{p[0]}-seed{p[1]}")
def outputs(request, tmp_path_factory):
    name, seed = request.param
    wl = workloads.WORKLOADS[name](seed, tmp_path_factory.mktemp(f"{name}{seed}"))
    return wl, _run(wl)


def test_outputs_pass(outputs):
    wl, data = outputs
    for op in wl.ops:
        assert op.check(data[op.name]) == [], op.name


def _rejected(op, data):
    return op.check(data) != []


def _perturbations(name, data):
    """Copies of one operation's outputs, each moved past one tolerance."""
    if name.startswith("sweep_"):
        model = name[len("sweep_"):]
        settings = next(s for m, _, _, s in workloads.PROBE_SWEEPS if m == model)
        x = next(x for m, x, _, _ in workloads.PROBE_SWEEPS if m == model)
        rows = copy.deepcopy(data)
        r = rows[0]
        p = checks.closed_form_symbol(model, x, r["xi1"])
        r["estimate_re"] = p.real + 1.01 * checks.probe_tolerance(p, settings["ladder"],
                                                                  r["stderr"])
        r["estimate_im"] = p.imag
        yield rows
        rows = copy.deepcopy(data)
        rows[-1]["analytic_re"] += 1e-6
        yield rows
        yield data[:-1]
    elif name == "radii_cauchy":
        single, indep = copy.deepcopy(data)
        rep = indep["reports"][2]
        tol = checks.probe_tolerance(1.0, workloads.LEVY_PROBE["ladder"],
                                     rep["extrapolated_stderr"])
        rep["extrapolated"] = {"re": 1.0 - 1.01 * tol, "im": 0.0}
        yield single, indep
    elif name.startswith("verify_"):
        n = workloads.VERIFY_PATHS
        reps = copy.deepcopy(data)
        row = reps["killing"]["rows"][-1]
        row["kill_prob"] += 0.05 if name == "verify_killed_autonomous" else 1.0 / n
        yield reps
        reps = copy.deepcopy(data)
        row = reps["exponential"]["rows"][0]
        row["statistic"] = {"re": 1.0 + 7.0 * row["stderr"], "im": 0.0}
        yield reps
        reps = copy.deepcopy(data)
        row = reps["canonical"]["rows"][0]
        row["mean_residual"] = [7.0 * row["stderr"][0] + 1e-8]
        yield reps
        reps = copy.deepcopy(data)
        reps["canonical"]["excluded_paths"] += 1
        yield reps
    elif name == "conditions_density":
        rep = copy.deepcopy(data)
        rep["growth"]["constant"] *= 1.0 + 1e-5
        yield rep
        rep = copy.deepcopy(data)
        rep["sector"]["satisfied"] = False
        yield rep
    elif name.startswith("indices_"):
        direction = data["direction"]
        for key in checks.INDEX_FIELDS[direction]:
            rep = copy.deepcopy(data)
            rep[key] += 0.1
            yield rep
        if name == "indices_density":
            rep = copy.deepcopy(data)
            rep["H_values"][0] *= 1.0 + 1e-3
            yield rep
    else:
        raise AssertionError(f"no perturbation for {name}")


def test_perturbed_outputs_fail(outputs):
    wl, data = outputs
    for op in wl.ops:
        for i, bad in enumerate(_perturbations(op.name, data[op.name])):
            assert _rejected(op, bad), f"{op.name}: perturbation {i} accepted"


# ---------------------------------------------------------------------------
# the references themselves

@pytest.mark.parametrize("k", [2, 4])
def test_density_quadrature_matches_incomplete_gamma(k):
    s = k - 0.5
    closed = 2.0 * gamma(s) * (gammainc(s, checks.DENSITY_YMAX) - gammainc(s, checks.DENSITY_EPS))
    assert math.isclose(checks.density_moment(k), closed, rel_tol=1e-10)


def test_density_symbol_small_and_moderate_xi():
    m2, m4 = checks.density_moment(2), checks.density_moment(4)
    for xi in (1e-6, 1e-3, 1e-2):
        p = checks.density_symbol(xi)
        assert 0.5 * m2 * xi ** 2 - m4 * xi ** 4 / 24 <= p * (1 + 1e-12)
        assert p <= 0.5 * m2 * xi ** 2 * (1 + 1e-12)
    # 1 - cos <= 2 bounds the symbol by twice the mass
    assert 0 < checks.density_symbol(4.0) < 2 * checks.density_moment(0)


def test_killing_law():
    assert checks.killing_law(1.0) == pytest.approx(1 - math.exp(-1 / 3), rel=1e-15)
    assert checks.killing_law(0.0) == 0.0


def test_ladder_bias_vanishes_for_small_t_p():
    assert checks.ladder_bias(0.5, (2e-6, 1e-6)) < 1e-12
    assert checks.ladder_bias(1.0, (0.2, 0.1, 0.05)) < 0.01


def test_tracer_restores_every_replaced_function():
    import symbolkit.cli as cli
    import symbolkit.simulate as simulate
    import symbolkit.triplet as triplet
    from symbolkit.expr import Expression
    from tracing import Tracer

    before = (cli.sample_autonomous, simulate.snapshot_run,
              triplet.StateModel.symbol_many, Expression.evaluate)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.sample_autonomous is not before[0]
        assert simulate.snapshot_run is not before[1]
        np.testing.assert_allclose(
            triplet.StateModel.from_triplet(
                triplet.LevyTriplet(0.0, [0.0], [[1.0]], triplet.ZeroMeasure())
            ).symbol_many(np.zeros((3, 1)), np.ones((3, 1))), 0.5)
    finally:
        tracer.uninstall()
    after = (cli.sample_autonomous, simulate.snapshot_run,
             triplet.StateModel.symbol_many, Expression.evaluate)
    assert all(a is b for a, b in zip(before, after))
    assert [s.name for s in tracer.spans] == ["triplet.StateModel.symbol_many"]
    assert tracer.spans[0].counts == {"pairs": 3}
