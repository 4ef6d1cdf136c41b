import math
import re
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbolkit
from symbolkit.config import bundled_model_path, load_model
from symbolkit.expr import parse_expression
from symbolkit.simulate import make_sde_model
from symbolkit.triplet import (
    Coefficient,
    CoefficientValues,
    CutoffFunction,
    DensityMeasure,
    DiscreteMeasure,
    LevyTriplet,
    MatrixCoefficient,
    StableMeasure,
    StateModel,
    VectorCoefficient,
    ZeroMeasure,
    _StableDraw,
    _phase,
    check_growth,
    check_sector,
    eval_exponent,
    eval_symbol,
)

from helpers import load_data_module
from oracles import (
    atom_exponent_fsum,
    density_exponent_quad,
    grid_max_ratio,
    stable_standard_reference,
)


def test_gaussian_exponent():
    t = LevyTriplet(0.0, [0.0, 0.0], np.eye(2), ZeroMeasure())
    assert eval_exponent(t, [1.0, 1.0]) == pytest.approx(1.0 + 0.0j)


def test_stable_exponent_closed_form():
    t = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))
    assert eval_exponent(t, [3.0]) == pytest.approx(3.0 + 0.0j)
    t2 = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(0.5, 2.0))
    assert eval_exponent(t2, [4.0]) == pytest.approx(2.0 * 2.0 + 0.0j)


def test_discrete_exponent_exact_sum():
    t = LevyTriplet(0.0, [0.0], [[0.0]], DiscreteMeasure([[2.0]], [0.5]),
                    CutoffFunction(radius=1.0))
    for xi in (0.5, 1.0, -2.0):
        expected = 0.5 * (1.0 - np.exp(2j * xi))
        assert eval_exponent(t, [xi]) == pytest.approx(expected)


def test_discrete_compensated_atom():
    # atom inside the cut-off ball picks up the linear compensator term
    t = LevyTriplet(0.0, [0.0], [[0.0]], DiscreteMeasure([[0.5]], [2.0]),
                    CutoffFunction(radius=1.0))
    xi = 1.7
    expected = -2.0 * (np.exp(0.5j * xi) - 1.0 - 0.5j * xi)
    assert eval_exponent(t, [xi]) == pytest.approx(expected)


def test_killing_only_exponent():
    t = LevyTriplet(0.7, [0.0], [[0.0]], ZeroMeasure())
    assert eval_exponent(t, [0.0]) == pytest.approx(0.7 + 0j)
    assert eval_exponent(t, [5.0]) == pytest.approx(0.7 + 0j)


def test_density_measure_matches_discretised_stable():
    # density c/|y|^(1+alpha) truncated to [eps, ymax] must agree with a
    # fine discrete approximation of the same measure
    alpha, eps, ymax = 1.2, 1e-3, 50.0
    dens = lambda y: abs(y) ** (-1.0 - alpha)
    m = DensityMeasure(dens, eps, ymax)
    cutoff = CutoffFunction(radius=1.0)
    t = LevyTriplet(0.0, [0.0], [[0.0]], m, cutoff)

    grid = np.geomspace(eps, ymax, 20001)
    mids = 0.5 * (grid[1:] + grid[:-1])
    w = np.diff(grid) * dens(mids)
    for xi in (0.5, 2.0):
        inner = np.where(mids <= 1.0,
                         np.exp(1j * mids * xi) - 1 - 1j * mids * xi,
                         np.exp(1j * mids * xi) - 1)
        both = (inner * w).sum() + (np.conj(inner) * w).sum()
        expected = -both
        got = eval_exponent(t, [xi])
        assert got == pytest.approx(expected, rel=1e-4)


def test_density_truncation_bias_bound():
    alpha = 1.2
    m = DensityMeasure(lambda y: abs(y) ** (-1.0 - alpha), 1e-3, 50.0)
    assert m.alpha_hat == pytest.approx(alpha, rel=0.05)
    # extrapolated second moment below eps: 2 eps^(2-alpha)/(2-alpha)
    expected = 2.0 * (1e-3) ** (2 - alpha) / (2 - alpha)
    assert m.small_mass_second_moment == pytest.approx(expected, rel=0.1)


def test_psd_validation():
    with pytest.raises(ValueError):
        LevyTriplet(0.0, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]], ZeroMeasure())
    with pytest.raises(ValueError):
        LevyTriplet(-0.1, [0.0], [[1.0]], ZeroMeasure())


def test_invalid_measures():
    # a number coefficient obeys the same rule beside an expression one
    rate = parse_expression("1 + x1^2")
    for make in (lambda: StableMeasure(2.5, 1.0), lambda: StableMeasure(2.5, rate),
                 lambda: StableMeasure(rate, 0.0), lambda: DiscreteMeasure([[0.0]], [1.0]),
                 lambda: DiscreteMeasure([[0.0]], [rate]),
                 lambda: DiscreteMeasure([[1.0], [2.0]], [rate, -1.0])):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("name, measure", [
    ("DiscreteMeasure", lambda: DiscreteMeasure([[0.5], [-0.5]],
                                                [1.0, parse_expression("1 + x1^2")])),
    ("StableMeasure", lambda: StableMeasure(parse_expression("1 + 0.5/(1+x1^2)"), 1.0)),
    ("StableMeasure", lambda: StableMeasure(1.5, parse_expression("1 + x1^2"))),
], ids=["atom_rate", "stable_order", "stable_scale"])
def test_levy_triplet_rejects_a_state_dependent_measure(name, measure):
    # a Levy triplet's measure does not depend on the state
    with pytest.raises(ValueError, match=f"{name} with state-dependent coefficients"):
        LevyTriplet(0.0, [0.0], [[1.0]], measure())


@pytest.mark.parametrize("dim, measure, message", [
    (1, lambda: DiscreteMeasure([[1.0, 2.0]], [parse_expression("1 + x1^2")]),
     "atoms have 2 components; the model is 1-dimensional"),
    (2, lambda: DiscreteMeasure([[1.0]], [1.0]),
     "atoms have 1 components; the model is 2-dimensional"),
    (2, lambda: StableMeasure(parse_expression("1 + 0.5/(1+x1^2)"), 1.0),
     "stable measures are one-dimensional"),
], ids=["atoms_too_long", "atoms_too_short", "stable"])
def test_state_model_checks_its_measure_dimension(dim, measure, message):
    with pytest.raises(ValueError, match=message):
        StateModel(dim=dim, kill=Coefficient(0.0), drift=VectorCoefficient([0.0] * dim, dim),
                   covariance=MatrixCoefficient(np.eye(dim).tolist(), dim),
                   measures=measure(), cutoff=CutoffFunction(),
                   domain_box=[[-1.0, 1.0]] * dim)


# ---------------------------------------------------------------------------
# symbol of state models

def _stable_like_model():
    return StateModel(
        dim=1,
        kill=Coefficient(0.0),
        drift=VectorCoefficient([0.0], 1),
        covariance=MatrixCoefficient([[0.0]], 1),
        measures=StableMeasure(parse_expression("0.3 + 0.4/(1+x1^2)"), 1.0),
        cutoff=CutoffFunction(),
        domain_box=[[-15.0, 15.0]],
    )


def test_symbol_constant_model_x_independent(bm_model):
    vals = [eval_symbol(bm_model, [x], [1.5]) for x in (-3.0, 0.0, 7.0)]
    assert vals[0] == vals[1] == vals[2]
    assert vals[0] == pytest.approx(0.5 * 1.5 ** 2)


def test_symbol_state_dependent_killing():
    model = StateModel(
        dim=1,
        kill=Coefficient(parse_expression("1 + x1^2")),
        drift=VectorCoefficient([0.0], 1),
        covariance=MatrixCoefficient([[0.0]], 1),
        measures=ZeroMeasure(),
        cutoff=CutoffFunction(),
        domain_box=[[-5.0, 5.0]],
    )
    assert eval_symbol(model, [1.0], [9.0]) == pytest.approx(2.0 + 0j)


def test_symbol_of_a_family_with_constant_coefficients():
    # an atom or stable measure whose coefficients are all numbers is
    # constant, so the model is a constant one
    measures = {
        "atoms": DiscreteMeasure([[0.3], [-0.5]], [1.0, 2.0]),
        "stable": StableMeasure(1.5, 0.8),
    }
    for name, measure in measures.items():
        model = StateModel(dim=1, kill=Coefficient(0.2), drift=VectorCoefficient([0.1], 1),
                           covariance=MatrixCoefficient([[0.5]], 1), measures=measure,
                           cutoff=CutoffFunction(), domain_box=[[-5.0, 5.0]])
        assert model.is_constant, name
        tri = LevyTriplet(0.2, [0.1], [[0.5]], measure)
        for xi in (-2.0, 0.7):
            assert eval_symbol(model, [1.0], [xi]) == pytest.approx(eval_exponent(tri, [xi]),
                                                                    rel=1e-12), name


def test_symbol_stable_like():
    model = _stable_like_model()
    assert eval_symbol(model, [0.0], [2.0]) == pytest.approx(2.0 ** 0.7)
    assert eval_symbol(model, [10.0], [2.0]) == pytest.approx(2.0 ** (0.3 + 0.4 / 101.0))


def test_sde_symbol():
    from symbolkit.simulate import make_sde_model
    driver = LevyTriplet(0.0, [0.0], [[0.0]], StableMeasure(1.0, 1.0))
    model = make_sde_model(parse_expression("x1"), driver)
    assert eval_symbol(model, [2.0], [1.0]) == pytest.approx(2.0 + 0j)
    assert eval_symbol(model, [-3.0], [2.0]) == pytest.approx(6.0 + 0j)


# ---------------------------------------------------------------------------
# the symbol at a fixed frequency

PINNED = load_data_module("capture_martingale_reports")
BUNDLED = sorted(p.stem for p in (FsPath(symbolkit.__file__).parent / "models").glob("*.model"))
SYMBOL_AT_MODELS = [f"bundled_{name}" for name in BUNDLED] + [f"pinned_{name}"
                                                              for name in PINNED.CASES]


def _symbol_at_model(name):
    kind, _, rest = name.partition("_")
    if kind == "bundled":
        return load_model(bundled_model_path(rest))
    return PINNED.state_model(PINNED.CASES[rest][0]().model)


def _frequencies(dim):
    if dim == 1:
        return [[0.0], [1.3], [-2.7], [1e-3]]
    return [[0.0, 0.0], [1.0, -0.5], [0.0, 1.2], [-2.0, 0.7]]


def _states(model, n, rng):
    lo, hi = model.domain_box[:, 0], model.domain_box[:, 1]
    # inside the box, where the model's coefficients are checked
    return lo + (hi - lo) * (0.05 + 0.9 * rng.random((n, model.dim)))


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# the two readers of the coefficients: "strict" lets symbol_at evaluate
# them, as symbol_many (which fails closed) does; "lenient" hands it one
# CoefficientValues buffer per batch size, evaluated afresh for each
# batch, as the simulation kernel hands its values to the observers
@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("name", SYMBOL_AT_MODELS)
def test_symbol_at_matches_symbol_many_bit_for_bit(name, lenient):
    model = _symbol_at_model(name)
    rng = np.random.default_rng(7)
    sizes = (1, 5, 300, 2000)
    buffers = {n: CoefficientValues(model.coefficient_blocks(), n) for n in sizes}
    for u in _frequencies(model.dim):
        at = {n: model.symbol_at(u, n) for n in sizes}
        # batch sizes that take different BLAS kernels, each twice so the
        # second call reuses the terms and buffers the first one used
        for n in (1, 5, 300, 2000, 5, 2000):
            xs = _states(model, n, rng)
            got = at[n](xs, buffers[n].evaluate(xs)) if lenient else at[n](xs)
            _same_bits(got, model.symbol_many(xs, np.tile(u, (n, 1))))


def _failing(term):
    """A 1-d model whose ``term`` is undefined at x1 < 0."""
    bad = parse_expression("x1^0.5")
    families = {
        "atoms": DiscreteMeasure([[0.3], [-1.5]], [bad, 2.0]),
        "stable_order": StableMeasure(parse_expression("1 + 0.5*x1^0.5"), 1.0),
        "stable_scale": StableMeasure(1.5, bad),
    }
    if term == "sde":
        return make_sde_model(parse_expression("log(x1)"),
                              LevyTriplet(0.2, [0.1], [[1.0]], DiscreteMeasure([[0.5]], [1.0])))
    return PINNED.model(parse_expression("log(x1)") if term == "kill" else 0.5,
                        [bad if term == "drift" else 0.3],
                        [[bad if term == "covariance" else 0.4]],
                        families.get(term))


@pytest.mark.parametrize("term", ["kill", "drift", "covariance", "atoms", "stable_order",
                                  "stable_scale", "sde"])
def test_symbol_at_failing_rows(term):
    model = _failing(term)
    xs = np.array([[1.5], [-0.5], [0.25], [-2.0], [3.0], [-1e-3]])
    bad = xs[:, 0] < 0
    for u in ([1.3], [-0.7]):
        tiled = np.tile(u, (len(xs), 1))
        # symbol_at: NaN on the failing rows only, the others keep
        # symbol_many's bits
        got = model.symbol_at(u, len(xs))(xs)
        assert np.array_equal(np.isnan(got), bad)
        want = model.symbol_many(xs[~bad], tiled[~bad])
        _same_bits(got[~bad], want)
        _same_bits(model.symbol_at(u, len(xs[~bad]))(xs[~bad]), want)
        # symbol_many fails closed at the first failing row, naming it
        with pytest.raises(ValueError, match=re.escape(f"not finite at x={xs[1].tolist()}, "
                                                       f"xi={u}")):
            model.symbol_many(xs, tiled)


# ---------------------------------------------------------------------------
# the symbol of one (state, frequency) pair does not depend on its batch

def _random_constant(rng, d, atoms=True, covariance=True):
    """A constant triplet with a random killing rate, drift, covariance
    (zero unless ``covariance``) and atoms (none unless ``atoms``)."""
    a = rng.standard_normal((d, d))
    q = a @ a.T if covariance else np.zeros((d, d))
    measure = ZeroMeasure()
    if atoms:
        k = int(rng.integers(1, 9))
        measure = DiscreteMeasure(rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-1, 0.5, (k, 1)),
                                  10.0 ** rng.uniform(-1, 1, k))
    return LevyTriplet(float(rng.uniform(0.0, 2.0)), rng.standard_normal(d), 0.5 * (q + q.T),
                       measure, CutoffFunction(radius=float(rng.uniform(0.3, 2.0))))


def _state_model(d, kill, drift, covariance, measures=None):
    coeff = lambda v: parse_expression(v) if isinstance(v, str) else v
    return StateModel(dim=d, kill=Coefficient(coeff(kill)),
                      drift=VectorCoefficient([coeff(v) for v in drift], d),
                      covariance=MatrixCoefficient([[coeff(v) for v in row] for row in covariance], d),
                      measures=measures or ZeroMeasure(), cutoff=CutoffFunction(),
                      domain_box=[[-3.0, 3.0]] * d)


# each entry makes the models of one kind from a random generator
ROW_LOCAL_MODELS = {
    "atoms_1d": lambda rng: [StateModel.from_triplet(_random_constant(rng, 1, covariance=False))
                             for _ in range(3)],
    "atoms_2d": lambda rng: [StateModel.from_triplet(_random_constant(rng, 2, covariance=False))
                             for _ in range(3)],
    "atom_family_2d": lambda rng: [_state_model(
        2, "1 + 0.5*sin(x1)", [0.3, "x1 - x2"], [[0.0, 0.0], [0.0, 0.0]],
        DiscreteMeasure(rng.standard_normal((5, 2)), [
            parse_expression("1 + 0.5*sin(x1*x2)"), 0.7, parse_expression("2 + cos(x2)"), 1.3,
            parse_expression("x1^2")]))],
    "covariance_2d": lambda rng: [StateModel.from_triplet(_random_constant(rng, 2, atoms=False))
                                  for _ in range(3)],
    "covariance_3d": lambda rng: [StateModel.from_triplet(_random_constant(rng, 3, atoms=False))
                                  for _ in range(3)],
    "state_covariance_2d": lambda rng: [_state_model(
        2, 0.2, ["x2", "-x1"], [["1 + 0.5*sin(x1)", "0.3*cos(x2)"], ["0.3*cos(x2)", "2 + x1^2"]])],
    "state_covariance_3d": lambda rng: [_state_model(
        3, "x3^2", [0.1, "x1", -0.4],
        [["1 + x1^2", "0.2*x2", 0.1], ["0.2*x2", 2.0, "0.3*sin(x3)"],
         [0.1, "0.3*sin(x3)", "1.5 + cos(x1)"]])],
    "stable": lambda rng: [StateModel.from_triplet(
        LevyTriplet(0.1, [0.2], [[0.3]], StableMeasure(1.3, 0.7))), _stable_like_model()],
    "sde": lambda rng: [make_sde_model(parse_expression("1 + 0.5*sin(x1)"),
                                       _random_constant(rng, 1)) for _ in range(2)],
}


@pytest.mark.parametrize("name", list(ROW_LOCAL_MODELS))
def test_symbol_of_a_pair_does_not_depend_on_its_batch(name):
    # one pair alone, first, in the middle and last in batches of mixed
    # frequencies, and at its frequency from symbol_at: the same bits
    rng = np.random.default_rng(list(ROW_LOCAL_MODELS).index(name))
    for model in ROW_LOCAL_MODELS[name](rng):
        d = model.dim
        lo, hi = model.domain_box[:, 0], model.domain_box[:, 1]
        states = lambda n: lo + (hi - lo) * (0.05 + 0.9 * rng.random((n, d)))
        frequencies = lambda n: rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 1.5, (n, 1))
        for x, xi in zip(states(3), frequencies(3)):
            for n in (1, 5, 300, 2000, 10_000):
                at = sorted({0, n // 2, n - 1})
                want = np.full(len(at), eval_symbol(model, x, xi))
                xs, xis = states(n), frequencies(n)
                xs[at], xis[at] = x, xi
                _same_bits(model.symbol_many(xs, xis)[at], want)
                _same_bits(model.symbol_at(xi, n)(xs)[at], want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exponent_of_a_triplet_is_the_symbol_of_its_model(d):
    rng = np.random.default_rng(30 + d)
    for k in range(60):
        triplet = _random_constant(rng, d, atoms=k % 2 == 1)
        model = StateModel.from_triplet(triplet)
        x = rng.uniform(-5.0, 5.0, d)
        for xi in rng.standard_normal((5, d)) * 10.0 ** rng.uniform(-2, 1.5, (5, 1)):
            _same_bits(np.array([eval_exponent(triplet, xi)]),
                       np.array([eval_symbol(model, x, xi)]))


def test_atom_exponent_within_two_eps_of_an_fsum_oracle():
    # 200 random 1-d and 2-d atom measures at 50 frequencies each: within
    # 2 eps * sum |terms| of sums taken with math.fsum
    rng = np.random.default_rng(16)
    eps = np.finfo(float).eps
    for m in range(200):
        d = 1 + m % 2
        k = int(rng.integers(1, 13))
        measure = DiscreteMeasure(rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-2, 1, (k, 1)),
                                  10.0 ** rng.uniform(-1, 2, k))
        cutoff = CutoffFunction(radius=float(rng.uniform(0.3, 3.0)))
        xis = rng.standard_normal((50, d)) * 10.0 ** rng.uniform(-2, 2, (50, 1))
        chi = cutoff(measure.jumps)
        for xi, got in zip(xis, measure.exponent_at(xis, cutoff)):
            want, scale = atom_exponent_fsum(xi, measure.jumps,
                                             [c.value for c in measure.rates], chi)
            assert abs(got - want) <= 2.0 * eps * scale, (m, xi)


def test_half_angle_phase_matches_complex_exp():
    # 10^6 angles of both signs, log-uniform over 1e-300 ... 1e300, and
    # the special angles: within 4.5e-16 of np.exp(1j * theta) and of the
    # unit circle; NaN and +-inf give NaN, as np.exp does
    rng = np.random.default_rng(31)
    n = 10**6
    theta = np.concatenate([
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n),
        [0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, 1e-300, 1e300],
    ])
    got = _phase(theta.copy(), np.empty(theta.size, dtype=complex), np.empty(theta.size))
    want = np.exp(1j * theta)
    assert np.abs(got - want).max() <= 4.5e-16
    assert np.abs(np.abs(got) - 1.0).max() <= 4.5e-16
    bad = np.array([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        out = _phase(bad.copy(), np.empty(3, dtype=complex), np.empty(3))
    assert np.isnan(out.real).all() and np.isnan(out.imag).all()
    # the two known differences from np.exp(1j * theta): at -0.0 the
    # imaginary part is -0.0 (the sign sin(-0.0) has), where the complex
    # product 1j * -0.0 gives exp an argument of +0.0 and the result +0.0;
    # at 5e-324 the half angle rounds to 0, so the imaginary part is 0
    # where exp gives 5e-324
    edge = _phase(np.array([-0.0, 5e-324]), np.empty(2, dtype=complex), np.empty(2))
    assert edge.real.tolist() == [1.0, 1.0]
    assert math.copysign(1.0, edge.imag[0]) == -1.0
    assert math.copysign(1.0, np.exp(1j * np.array([-0.0])).imag[0]) == 1.0
    assert edge.imag[1] == 0.0 and np.exp(1j * np.array([5e-324])).imag[0] == 5e-324


# ---------------------------------------------------------------------------
# growth and sector conditions

def test_growth_bm(bm_model):
    xg = np.linspace(-1, 1, 5).reshape(-1, 1)
    kg = np.linspace(-10, 10, 41).reshape(-1, 1)
    est = check_growth(bm_model, xg, kg)
    oracle, _ = grid_max_ratio(
        lambda x, xi: eval_symbol(bm_model, [x], [xi]),
        xg[:, 0], kg[:, 0],
        lambda v, xi: abs(v) / (1 + xi ** 2))
    assert est.constant == pytest.approx(oracle)
    assert est.satisfied
    # ratio increases toward the grid edge for the Gaussian symbol
    assert abs(est.witnessed_at[1][0]) == pytest.approx(10.0)


def test_growth_cauchy(cauchy_model):
    kg = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
    est = check_growth(cauchy_model, np.zeros((1, 1)), kg)
    assert est.constant == pytest.approx(0.5)  # max |xi|/(1+xi^2) at |xi|=1


def test_growth_zero_model():
    model = StateModel.from_triplet(LevyTriplet(0.0, [0.0], [[0.0]], ZeroMeasure()))
    est = check_growth(model, np.zeros((1, 1)), np.linspace(-5, 5, 11).reshape(-1, 1))
    assert est.constant == 0.0


def test_sector_symmetric_real(cauchy_model):
    est = check_sector(cauchy_model, np.zeros((1, 1)),
                       np.linspace(-10, 10, 21).reshape(-1, 1))
    assert est.satisfied
    assert est.constant == pytest.approx(0.0, abs=1e-12)


def test_sector_pure_drift_fails():
    model = StateModel.from_triplet(LevyTriplet(0.0, [1.0], [[0.0]], ZeroMeasure()))
    est = check_sector(model, np.zeros((1, 1)),
                       np.linspace(-10, 10, 21).reshape(-1, 1))
    assert not est.satisfied


def test_sector_bm_drift_constant():
    model = StateModel.from_triplet(LevyTriplet(0.0, [1.0], [[1.0]], ZeroMeasure()))
    grid = np.linspace(-10, 10, 41)
    grid = grid[grid != 0.0]
    est = check_sector(model, np.zeros((1, 1)), grid.reshape(-1, 1))
    assert est.satisfied
    assert est.constant == pytest.approx(2.0 / np.abs(grid).min())


# ---------------------------------------------------------------------------
# structural properties (randomised)

def _random_triplet(rng, symmetric=False, kill=0.0):
    d = 1
    ell = np.zeros(d) if symmetric else rng.normal(size=d)
    q = np.array([[abs(rng.normal()) + 0.1]])
    jumps = rng.uniform(0.2, 3.0, size=(2, 1))
    rates = rng.uniform(0.1, 2.0, size=2)
    if symmetric:
        jumps = np.vstack([jumps, -jumps])
        rates = np.concatenate([rates, rates])
    return LevyTriplet(kill, ell, q, DiscreteMeasure(jumps, rates))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_symmetric_triplets_have_real_exponent(seed):
    rng = np.random.default_rng(seed)
    t = _random_triplet(rng, symmetric=True)
    xi = rng.uniform(-8, 8)
    val = eval_exponent(t, [xi])
    assert abs(val.imag) < 1e-10
    assert val.real >= -1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_exponent_at_zero_equals_killing_rate(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0, 2))
    t = _random_triplet(rng, kill=a)
    assert eval_exponent(t, [0.0]) == pytest.approx(a + 0j, abs=1e-14)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_conjugate_symmetry_and_nonneg_real(seed):
    rng = np.random.default_rng(seed)
    t = _random_triplet(rng)
    xi = rng.uniform(-8, 8)
    a = eval_exponent(t, [xi])
    b = eval_exponent(t, [-xi])
    assert b == pytest.approx(np.conj(a))
    assert a.real >= -1e-12


def test_measure_additivity():
    cutoff = CutoffFunction(radius=1.0)
    m1 = DiscreteMeasure([[0.4]], [1.3])
    m2 = DiscreteMeasure([[2.5]], [0.7])
    union = DiscreteMeasure([[0.4], [2.5]], [1.3, 0.7])
    base = dict(killing_rate=0.3, drift=[0.5], covariance=[[2.0]], cutoff=cutoff)
    t1 = LevyTriplet(measure=m1, **base)
    t2 = LevyTriplet(measure=m2, **base)
    tu = LevyTriplet(measure=union, **base)
    t0 = LevyTriplet(measure=ZeroMeasure(), **base)
    xi = [1.9]
    assert eval_exponent(tu, xi) == pytest.approx(
        eval_exponent(t1, xi) + eval_exponent(t2, xi) - eval_exponent(t0, xi))


def test_quadrature_nonconvergence_is_diagnostic():
    from symbolkit.quadrature import INTERP_REL_TOL, QUAD_MAX_PANELS, QuadratureError

    # a ripple of relative size 1e-9 and wavelength 6e-8 on 0.5 <= |y| <= 1:
    # resolving it to INTERP_REL_TOL would take about 10^6 panels, so the
    # panel set that construction builds fails
    with pytest.raises(QuadratureError) as err:
        DensityMeasure(parse_expression("exp(-abs(x1))/abs(x1)^1.5*(1 + 1e-9*sin(1e8*x1))"),
                       0.5, 1.0)
    assert f"within {QUAD_MAX_PANELS} panels" in str(err.value)
    assert err.value.achieved > INTERP_REL_TOL


# ---------------------------------------------------------------------------
# density measures against Gauss–Legendre references on log panels

TEMPERED = "exp(-abs(x1))/abs(x1)^1.5"   # on 1e-3 <= |y| <= 20


def _tempered(y):
    return np.exp(-np.abs(y)) / np.abs(y) ** 1.5


def _log_leggauss(f, lo, hi, n_panels, order=20):
    """Integral of f over [lo, hi]: order-point Gauss–Legendre on n_panels
    panels equally spaced in log y."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(math.log(lo), math.log(hi), n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    y = np.exp(0.5 * (edges[1:] + edges[:-1])[:, None] + half * x)
    return float(np.sum(f(y) * half * w * y))


def _tempered_triplet():
    m = DensityMeasure(parse_expression(TEMPERED), 1e-3, 20.0)
    return LevyTriplet(0.0, [0.0], [[0.0]], m, CutoffFunction(radius=1.0))


def test_density_exponent_converges_at_high_frequency():
    # xi = 1e3 puts about 3,000 oscillations on the support; 20,000 log
    # panels give the reference at most 2 oscillations per panel
    xi = 1e3
    ref = _log_leggauss(lambda y: 4.0 * np.sin(0.5 * xi * y) ** 2 * _tempered(y),
                        1e-3, 20.0, 20_000)
    got = eval_exponent(_tempered_triplet(), [xi])
    assert got.real == pytest.approx(ref, rel=1e-8)
    assert got.imag == 0.0


@pytest.mark.parametrize("xi", [1e-6, 1e-8])
def test_density_exponent_small_frequency_moment_series(xi):
    # p(xi) = m2 xi^2 / 2 - m4 xi^4 / 24 + O(xi^6); cos(y xi) - 1 would
    # cancel catastrophically here
    m2 = _log_leggauss(lambda y: 2.0 * y ** 2 * _tempered(y), 1e-3, 20.0, 2_000)
    m4 = _log_leggauss(lambda y: 2.0 * y ** 4 * _tempered(y), 1e-3, 20.0, 2_000)
    got = eval_exponent(_tempered_triplet(), [xi])
    assert got.real == pytest.approx(m2 * xi ** 2 / 2 - m4 * xi ** 4 / 24, rel=1e-12, abs=0.0)
    assert got.imag == 0.0


def test_density_sector_constant_exactly_zero():
    t = _tempered_triplet()
    grid = np.linspace(-10.0, 10.0, 41).reshape(-1, 1)
    est = check_sector(StateModel.from_triplet(t), np.zeros((1, 1)), grid)
    assert est.satisfied
    assert est.constant == 0.0
    assert all(eval_exponent(t, [xi]).imag == 0.0 for xi in (0.3, 2.0, 50.0))


def test_asymmetric_density_exponent():
    # level 1.5 lambda(y) for y > 0 and 0.5 lambda(y) for y < 0: the odd
    # part enters the imaginary part, compensated below the cut-off radius
    m = DensityMeasure(lambda y: (1.5 if y > 0 else 0.5) * _tempered(y), 1e-3, 20.0)
    t = LevyTriplet(0.0, [0.0], [[0.0]], m, CutoffFunction(radius=1.0))
    xi = 2.0
    re = _log_leggauss(lambda y: 4.0 * np.sin(0.5 * xi * y) ** 2 * _tempered(y),
                       1e-3, 20.0, 2_000)
    im = (_log_leggauss(lambda y: (np.sin(xi * y) - xi * y) * _tempered(y), 1e-3, 1.0, 2_000)
          + _log_leggauss(lambda y: np.sin(xi * y) * _tempered(y), 1.0, 20.0, 2_000))
    got = eval_exponent(t, [xi])
    assert got == pytest.approx(re - 1j * im, rel=1e-9)
    assert eval_exponent(t, [-xi]) == got.conjugate()


# the symmetric tempered density and the asymmetric one of the ensemble
# pins (tests/data/capture_ensemble_digests.py), as expressions and levels
_ORACLE_DENSITIES = {
    "symmetric": (TEMPERED, lambda y: math.exp(-abs(y)) / abs(y) ** 1.5),
    "asymmetric": ("exp(-abs(x1))/abs(x1)^1.5*(1.25 + 0.25*x1/abs(x1))",
                   lambda y: math.exp(-abs(y)) / abs(y) ** 1.5 * (1.5 if y > 0 else 1.0)),
}


def _oracle_triplet(kind):
    m = DensityMeasure(parse_expression(_ORACLE_DENSITIES[kind][0]), 1e-3, 20.0)
    return LevyTriplet(0.0, [0.0], [[0.0]], m, CutoffFunction(radius=1.0))


@pytest.mark.parametrize("kind", sorted(_ORACLE_DENSITIES))
def test_density_exponent_matches_quadpack(kind):
    # Kronrod panels at small xi, Filon panels at large xi and both in
    # between; p = -I here, so the exponent's relative error is I's
    xis = np.geomspace(1e-3, 1e7, 21)
    got = _oracle_triplet(kind).exponent_many(xis[:, None])
    level = _ORACLE_DENSITIES[kind][1]
    want = -np.array([density_exponent_quad(level, 1e-3, 20.0, 1.0, xi) for xi in xis])
    assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))


@pytest.mark.parametrize("kind", sorted(_ORACLE_DENSITIES))
def test_density_exponent_does_not_depend_on_its_batch(kind):
    t = _oracle_triplet(kind)
    alone = lambda xi: eval_exponent(t, [xi])
    # I(10) moved by 2 ulp next to I(3000) when a call shared its panels
    pair = t.exponent_many(np.array([[10.0], [3000.0]]))
    assert [pair[0], pair[1]] == [alone(10.0), alone(3000.0)]
    rng = np.random.default_rng(26)
    xis = rng.permutation(np.geomspace(1e-3, 1e7, 128) * rng.choice([-1.0, 1.0], 128))
    batch = t.exponent_many(xis[:, None])
    assert np.array([alone(xi) for xi in xis]).tobytes() == batch.tobytes()


@pytest.mark.parametrize("kind", sorted(_ORACLE_DENSITIES))
@pytest.mark.parametrize("lo, hi", [(1e-3, 0.0017), (0.3, 7.0), (1.0, 20.0)])
def test_density_moments_match_reference(kind, lo, hi):
    # on the panel set of radius 1: two bands whose ends cut panels
    # mid-way, and the band from the break at 1 to y_max
    t = _oracle_triplet(kind)
    m = t.measure
    level = np.vectorize(_ORACLE_DENSITIES[kind][1])
    side = lambda power, sign, top: _log_leggauss(
        lambda y: y ** power * (level(y) + sign * level(-y)), lo, top, 2_000)
    for got, want in [(m.rate_above(lo), side(0, 1.0, 20.0)),
                      (m.second_moment_band(lo, hi), side(2, 1.0, hi)),
                      (m.mean_band(lo, hi), side(1, -1.0, hi))]:
        assert abs(got - want) <= 1e-12 * abs(want)
    m.jump_sampler(t.cutoff, 0.0, None)
    StateModel.from_triplet(t).symbol_many(np.zeros((3, 1)), np.array([[-2.0], [0.5], [1e4]]))
    # the moments, the sampler and the exponent share one panel set
    assert len(m._panel_sets) == 1


class _FixedDraws:
    """Generator stand-in whose random(n) returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u


_DENSITIES = {
    "symmetric": parse_expression(TEMPERED),
    "asymmetric": lambda y: (1.5 if y > 0 else 0.5) * math.exp(-abs(y)) / abs(y) ** 2.2,
}


@pytest.mark.parametrize("kind", sorted(_DENSITIES))
def test_sample_sizes_skip_the_gap(kind):
    m = DensityMeasure(_DENSITIES[kind], 1e-3, 20.0)
    ys, cdf = m._cdf_table
    assert np.all(np.diff(cdf) >= 0.0)
    plateau = cdf[len(ys) // 2]
    u = np.concatenate([[plateau, np.nextafter(plateau, 0.0), np.nextafter(plateau, 1.0), 0.0],
                        np.linspace(0.0, 1.0, 2001)[:-1]])
    y = m.sample_sizes(u.size, _FixedDraws(u))
    assert not np.any(np.isnan(y))
    assert np.all(np.abs(y) >= m.eps)
    assert np.all(np.abs(y) <= m.y_max)


@pytest.mark.parametrize("kind", sorted(_DENSITIES))
@pytest.mark.parametrize("cut", [0.01, 0.1, 0.5])
def test_sample_sizes_respect_the_cut(kind, cut):
    m = DensityMeasure(_DENSITIES[kind], 1e-3, 20.0)
    ys, cdf = m._cdf_table
    lo_mass = np.interp(-cut, ys, cdf)
    split = lo_mass / (lo_mass + 1.0 - np.interp(cut, ys, cdf))
    u = np.concatenate([[split, np.nextafter(split, 0.0), np.nextafter(split, 1.0),
                         0.0, np.nextafter(1.0, 0.0)], np.linspace(0.0, 1.0, 10_001)[:-1]])
    y = m.sample_sizes(u.size, _FixedDraws(u), cut=cut)
    assert not np.any(np.isnan(y))
    assert np.all(np.abs(y) >= cut)


_N_STABLE = 4000
_STABLE_ORDERS = {
    # within the sampler's 1e-12 tolerance of 1 counts as 1
    "all_one": np.where(np.arange(_N_STABLE) % 3 == 0, 1.0 + 5e-13, 1.0),
    "none_one_0.3": np.full(_N_STABLE, 0.3),
    "none_one_1.5": np.full(_N_STABLE, 1.5),
    "none_one_2.0": np.full(_N_STABLE, 2.0),
    "none_one_spread": np.linspace(1e-6, 0.999, _N_STABLE),
    "mixed": np.array([0.3, 1.0, 1.5, 2.0, 1.0 - 5e-13, 0.999])[np.arange(_N_STABLE) % 6],
}


@pytest.mark.parametrize("case", sorted(_STABLE_ORDERS))
def test_stable_standard_matches_both_branch_reference(case):
    # the sampler evaluates only the branch it returns when every order
    # is 1 or none is; its values and its use of the stream stay those
    # of the formula that evaluates both and picks with np.where
    alpha = _STABLE_ORDERS[case]
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    draw = _StableDraw(len(alpha))
    draw.orders(alpha)
    got = draw.draw(rng)
    want = stable_standard_reference(alpha, ref_rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.random() == ref_rng.random()
