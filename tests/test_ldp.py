"""Legendre transforms, Lagrangian tables, the rate function on the circle,
and the small-parameter scaling identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nmhl import (
    FractionalPower,
    FrequencyGrid,
    Hamiltonian,
    Lagrangian,
    Levy,
    Perturbed,
    PurePower,
    QuadraticForm,
    action,
    biconjugate,
    build_symbol,
    growth_fit,
    lagrangian_table,
    legendre,
    maslov_scaled_spec,
    parse_config,
    rate_function,
    run,
    straight_path,
)
from nmhl import ldp
from nmhl.errors import OptimizerStalled, SupUnbounded, ValidationError
from nmhl.grids import TWO_PI
from nmhl.cli import main
from nmhl.ldp import RESIDUAL_TOL, _legendre_full
from nmhl.presets import flat_density
from nmhl.spectral import Rescaled, levy_hamiltonian, levy_symbol

EPS = float(np.finfo(float).eps)


def h_power(k):
    return PurePower(k=k).hamiltonian()


# ---------------------------------------------------------------------------
# Legendre transform against closed forms


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_legendre_refuses_a_nonfinite_slope(p):
    with pytest.raises(ValidationError, match="finite"):
        legendre(h_power(1), p)


def test_conjugate_of_quadratic_is_quarter_square():
    h = h_power(1)
    assert legendre(h, 1.0) == pytest.approx(0.25, abs=1e-10)
    assert legendre(h, 4.0) == pytest.approx(4.0, abs=1e-8)
    assert legendre(h, -3.0) == pytest.approx(2.25, abs=1e-9)


def test_conjugate_of_quartic_closed_form():
    h = h_power(2)
    assert legendre(h, 4.0) == pytest.approx(3.0, abs=1e-8)
    for p in (0.5, 1.0, 2.0, 7.0):
        assert legendre(h, p) == pytest.approx(
            oracles.power_legendre(2, p), abs=1e-8
        )


@given(p=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_conjugate_matches_power_law_oracle(p):
    assert legendre(h_power(1), p) == pytest.approx(
        oracles.power_legendre(1, p), abs=1e-9
    )


@given(k=st.sampled_from([1, 2, 3]),
       p=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_newton_solve_lands_on_the_power_closed_form(k, p):
    xi_exact, l_exact = oracles.power_conjugate(k, p)
    value, xi = _legendre_full(h_power(k), np.array([p]))
    assert abs(xi[0] - xi_exact) <= 4.0 * EPS * (1.0 + abs(xi_exact))
    # the absolute floor covers momenta whose conjugate leaves the normal range
    assert abs(value[0] - l_exact) <= 1e-15 * l_exact + 1e-300
    if abs(p) >= 1e-3:
        # the double-precision closed form carries an inexact exponent
        assert value[0] == pytest.approx(oracles.power_legendre(k, p), rel=2e-15)


def test_conjugate_vanishes_at_zero_momentum():
    for k in (1, 2, 3):
        assert legendre(h_power(k), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_subquadratic_hamiltonian_has_unbounded_conjugate():
    h = Hamiltonian(fun=lambda xi: np.abs(np.asarray(xi, dtype=float)),
                    grad=np.sign, hess=np.zeros_like, order=1.0)
    with pytest.raises(SupUnbounded):
        legendre(h, 2.0)


def test_sublinear_hamiltonian_has_no_conjugate_maximum():
    # H = |xi|^0.8 is concave: H' = p has a root, but it minimizes p xi - H
    h = FractionalPower(base=PurePower(k=1), alpha_frac=0.4).hamiltonian()
    for p in (0.5, 2.0):
        with pytest.raises(SupUnbounded):
            legendre(h, p)


def test_convexity_check_accepts_powers_and_rejects_wells():
    h_power(2).validate_convex()
    bad = Hamiltonian(fun=lambda xi: -np.asarray(xi, dtype=float) ** 2,
                      grad=lambda xi: -2.0 * xi, hess=lambda xi: -2.0 + 0.0 * xi,
                      order=2.0)
    with pytest.raises(ValidationError):
        bad.validate_convex()


# ---------------------------------------------------------------------------
# Hamiltonians per generator variant


def test_fractional_hamiltonian_composes_orders():
    from nmhl import FractionalPower

    h = FractionalPower(base=PurePower(k=2), alpha_frac=0.5).hamiltonian()
    assert h.order == pytest.approx(2.0)
    assert h(np.array([2.0]))[0] == pytest.approx(4.0)


def test_jump_hamiltonian_uses_hyperbolic_kernel():
    spec = Levy(l=1, alpha_levy=-0.5, density=flat_density())
    h = spec.hamiltonian()
    assert h(2.0) == pytest.approx(0.5748611643472, abs=1e-10)
    # the hyperbolic version dominates the oscillatory one at matching xi
    sym = build_symbol(spec, FrequencyGrid(1, 4))
    at_two = sym.values.real[sym.grid.points[:, 0] == 2][0]
    assert h(2.0) >= at_two - 1e-12


VARIANTS = {
    "power_k1": PurePower(k=1),
    "power_k3": PurePower(k=3),
    "quadratic_form": QuadraticForm(k=2, a_matrix=np.array([[2.5]])),
    "fractional": FractionalPower(base=PurePower(k=2), alpha_frac=0.75),
    "rescaled": Rescaled(PurePower(k=2), prefactor=0.3, freq_scale=1.7),
    "levy": Levy(l=1, alpha_levy=-0.5, density=flat_density()),
    "rescaled_levy": Rescaled(Levy(l=1, alpha_levy=-0.25, density=flat_density()),
                              prefactor=2.0, freq_scale=0.5),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_hamiltonian_derivatives_match_central_differences(name):
    h = VARIANTS[name].hamiltonian()
    xi = np.array([-4.0, -1.3, -0.2, 0.35, 1.0, 2.7, 6.0])
    step = 1e-5 * (1.0 + np.abs(xi))
    dh = (h(xi + step) - h(xi - step)) / (2.0 * step)
    d2h = (h.grad(xi + step) - h.grad(xi - step)) / (2.0 * step)
    np.testing.assert_allclose(h.grad(xi), dh, rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(h.hess(xi), d2h, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("name", ["fractional", "rescaled", "levy"])
def test_tables_agree_with_the_bounded_search(name):
    # the search is good to about 1e-8 |xi| in the maximizer and 1e-15 in
    # the value (see legendre_search)
    h = VARIANTS[name].hamiltonian()
    table = lagrangian_table(h, p_max=12.0, n=33)
    for p, value, slope in zip(table.p_grid, table.values, table.slopes):
        ref_value, ref_xi = oracles.legendre_search(h, float(p))
        assert value == pytest.approx(ref_value, rel=1e-13, abs=1e-13)
        assert slope == pytest.approx(ref_xi, rel=1e-7, abs=1e-9)
        # the exact maximizer is at least as stationary as the searched one
        assert value >= ref_value - 1e-15 * (1.0 + abs(ref_value))


def test_no_real_phase_hamiltonian_for_drift_perturbations():
    with pytest.raises(ValidationError):
        Perturbed(base=PurePower(k=2), q_coeffs={(1,): 0.3}).hamiltonian()


def test_jump_hamiltonian_has_two_derivatives():
    with pytest.raises(ValidationError, match="derivative"):
        levy_hamiltonian(flat_density(), 1, -0.5, 1.0, derivative=3)


def test_real_phase_hamiltonian_is_one_dimensional():
    with pytest.raises(ValidationError, match="one-dimensional"):
        PurePower(k=1, d=2).hamiltonian()


# ---------------------------------------------------------------------------
# Lagrangian table, biconjugate, growth sandwich


def test_table_interpolates_conjugate_tightly():
    table = lagrangian_table(h_power(2), p_max=8.0)
    probes = np.concatenate([np.linspace(-7.5, 7.5, 101), table.p_grid])
    exact = np.array([oracles.power_conjugate(2, p)[1] for p in probes])
    np.testing.assert_allclose(table(probes), exact, rtol=1e-14, atol=0)
    assert np.all(np.diff(table.slopes) >= -1e-12)  # conjugate slopes monotone


def test_table_falls_back_to_exact_transform_off_grid():
    table = lagrangian_table(h_power(1), p_max=2.0)
    assert table(5.0) == pytest.approx(oracles.power_legendre(1, 5.0), abs=1e-9)


def test_off_table_derivatives_are_the_exact_maximizer_and_curvature():
    table = lagrangian_table(h_power(2), p_max=2.0)
    # off the table, between nodes and on nodes alike
    p = np.concatenate([[-7.0, 3.0, 5.5, 1.0, -0.3], table.p_grid[::37]])
    xi = np.array([oracles.power_conjugate(2, v)[0] for v in p])
    d1, d2 = table.derivatives(p)
    assert np.all(np.isfinite(d2))
    # xi* and L'' = 1 / H''(xi*) exactly, at every momentum
    np.testing.assert_allclose(d1, xi, rtol=4 * EPS)
    np.testing.assert_allclose(d2, 1.0 / (12.0 * xi ** 2), rtol=1e-14)


def test_biconjugate_recovers_convex_hamiltonian():
    table = lagrangian_table(h_power(2), p_max=12.0)
    for xi in (0.5, 1.0, 1.5):
        assert biconjugate(table, xi) == pytest.approx(xi**4, abs=1e-6)


@pytest.mark.parametrize("k, xi", [(2, 0.115), (2, 0.118), (3, 0.25), (3, 0.255)])
def test_biconjugate_steps_past_where_the_spline_is_not_convex(k, xi):
    # maximizers near the first node of a p_max = 12 table, where an
    # interpolant of the samples can turn concave
    table = lagrangian_table(h_power(k), p_max=12.0)
    value = biconjugate(table, xi)
    assert value == pytest.approx(oracles.legendre_search(table, xi)[0], rel=1e-12)
    assert value == pytest.approx(xi ** (2 * k), abs=1e-4)


@pytest.mark.parametrize("k, xi", [(2, 0.1205), (3, 0.265)])
def test_biconjugate_returns_a_local_maximum_where_the_spline_has_two(k, xi):
    # an interpolant of the samples can give xi p - L a second, spurious
    # maximum here; the exact L is convex, so its one maximum is H(xi)
    table = lagrangian_table(h_power(k), p_max=12.0)
    value = biconjugate(table, xi)
    assert value == pytest.approx(xi ** (2 * k), rel=1e-12)
    assert value == pytest.approx(oracles.legendre_search(table, xi)[0], rel=1e-12)


def test_growth_sandwich_for_quartic():
    table = lagrangian_table(h_power(2), p_max=10.0)
    fit = growth_fit(table)
    assert fit.exponent == pytest.approx(4.0 / 3.0)
    assert abs(fit.slope - 4.0 / 3.0) < 0.05
    assert fit.r_squared >= 0.99
    assert fit.sandwich_holds
    assert 0.0 < fit.c_lower <= 1.0


def test_table_validates_inputs():
    with pytest.raises(ValidationError):
        lagrangian_table(h_power(1), p_max=0.0)
    with pytest.raises(ValidationError):
        lagrangian_table(h_power(1), p_max=1.0, n=5)


# ---------------------------------------------------------------------------
# paths and the action functional


def test_straight_path_action_equals_conjugate_of_mean_velocity():
    table = lagrangian_table(h_power(1), p_max=8.0)
    path = straight_path(0.0, 1.0, 0)
    assert action(path, table) == pytest.approx(0.25, abs=1e-9)
    wound = straight_path(0.0, 1.0, 1)
    assert action(wound, table) == pytest.approx(
        (1.0 + TWO_PI) ** 2 / 4.0, abs=1e-6
    )


# ---------------------------------------------------------------------------
# rate function: the straight line of the cheapest winding class


def test_rate_matches_straight_line_oracle_short_hop():
    table = lagrangian_table(h_power(1), p_max=8.0)
    res = rate_function(0.0, 1.0, table)
    assert res.l_value == pytest.approx(oracles.quadratic_rate(0.0, 1.0), abs=1e-6)
    assert res.winding == 0
    assert res.residual <= 1e-8


@pytest.mark.parametrize("k, y, perturb", [(1, 1.0, 0.0), (1, 5.0, 0.0),
                                           (2, 1.0, 0.3), (2, 5.0, 0.3),
                                           (3, 1.0, 0.3), (3, 5.0, 0.0)])
def test_rate_is_the_conjugate_of_the_mean_velocity_to_rounding(k, y, perturb):
    # the straight line of the winning class is the minimizer (Jensen), so
    # l = L(y + 2 pi w); (2, 5.0, 0.3) is the perturbed quartic preset
    res = rate_function(0.0, y, Lagrangian(h_power(k)), perturb=perturb)
    assert res.winding == (-1 if y > np.pi else 0)
    ref = oracles.power_conjugate(k, y + TWO_PI * res.winding)[1]
    assert res.l_value == pytest.approx(ref, rel=1e-14, abs=0)


def test_rate_prefers_winding_for_long_displacement():
    # going 5 forward costs more than 2 pi - 5 backward: the w = -1 class wins
    table = lagrangian_table(h_power(1), p_max=16.0)
    res = rate_function(0.0, 5.0, table)
    assert res.winding == -1
    assert res.l_value == pytest.approx((TWO_PI - 5.0) ** 2 / 4.0, abs=1e-6)
    assert res.l_value == pytest.approx(0.4116411331403923, abs=1e-6)


def test_rate_tie_break_picks_smallest_winding():
    # displacement exactly pi: both classes tie, the unwound path is reported
    table = lagrangian_table(h_power(1), p_max=16.0)
    res = rate_function(0.0, np.pi, table)
    assert res.winding == 0
    assert res.l_value == pytest.approx(np.pi**2 / 4.0, abs=1e-6)


def test_rate_function_validates_inputs():
    table = lagrangian_table(h_power(1), p_max=4.0)
    with pytest.raises(ValidationError):
        rate_function(0.0, 1.0, table, m=1)
    with pytest.raises(ValidationError):
        rate_function(0.0, 1.0, table, winding_max=-1)


def test_non_finite_action_stalls_at_once():
    # the conjugate is solved on a Hamiltonian that returns nan, so the
    # action of the first path is nan
    table = lagrangian_table(h_power(1), p_max=2.0)
    nan = lambda xi: xi * np.nan
    table.hamiltonian = Hamiltonian(fun=nan, grad=nan, hess=nan, order=2.0)
    with pytest.raises(OptimizerStalled, match="not finite"):
        rate_function(0.0, 3.0, table, winding_max=0)


@pytest.mark.parametrize("name", ["x", "y", "perturb"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rate_function_rejects_non_finite_inputs(name, bad):
    table = lagrangian_table(h_power(1), p_max=4.0)
    args = {"x": 0.0, "y": 1.0, "perturb": 0.0, name: bad}
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        rate_function(args["x"], args["y"], table, perturb=args["perturb"])


@pytest.mark.parametrize("p_max, n", [(np.nan, 513), (np.inf, 513),
                                      (4.0, np.nan), (4.0, np.inf), (4.0, 33.0)])
def test_lagrangian_table_rejects_non_finite_arguments(p_max, n):
    with pytest.raises(ValidationError):
        lagrangian_table(h_power(1), p_max, n=n)


@given(y=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=15, deadline=None)
def test_rate_agrees_with_wound_quadratic_oracle(y):
    table = lagrangian_table(h_power(1), p_max=16.0)
    res = rate_function(0.0, y, table, m=32)
    assert res.l_value == pytest.approx(oracles.quadratic_rate(0.0, y), abs=1e-6)


@pytest.mark.parametrize("name", ["x", "y", "perturb"])
def test_rate_function_refuses_an_array_argument(name):
    # an array x once ended in numpy's untyped broadcast ValueError
    args = {"x": 0.0, "y": 1.0, "perturb": 0.0, name: np.array([0.0, 1.0])}
    with pytest.raises(ValidationError, match=f"^{name} must be one number, got "):
        rate_function(args["x"], args["y"], Lagrangian(h_power(1)),
                      perturb=args["perturb"])


def _levy_h():
    return Levy(l=1, alpha_levy=-0.5, density=flat_density()).hamiltonian()


def _fold(actions):
    """The (w, action) pairs folded in w order: the least action wins, and
    within 1e-12 of it the smallest (|w|, w)."""
    best = None
    for w, s_val in actions:
        if (best is None or s_val < best[1] - 1e-12
                or (abs(s_val - best[1]) <= 1e-12 and (abs(w), w) < (abs(best[0]), best[0]))):
            best = (w, s_val)
    return best[0], max(best[1], 0.0)


# the levy H takes a quadrature rule that grows with the largest momentum of
# a solve, so a class's action solved alone moves by a few ulps
@pytest.mark.parametrize("h, ulps", [(h_power(1), 0), (h_power(2), 0), (h_power(3), 0),
                                     (_levy_h(), 16)], ids=["k1", "k2", "k3", "levy"])
def test_rate_is_the_fold_of_the_per_class_straight_actions(h, ulps):
    # displacements of pi and pi +- 1e-13 put two classes within the tie
    # window; the bent competitor changes no part of the answer
    lagrangian = Lagrangian(h)
    for x in (0.0, -1.3):
        for y in sorted({np.pi, x + np.pi, x + np.pi + 1e-13, x + np.pi - 1e-13}):
            actions = [(w, action(straight_path(x, y, w, 8), lagrangian))
                       for w in range(-3, 4)]
            for winding_max in range(4):
                w, l_value = _fold(actions[3 - winding_max:4 + winding_max])
                got = rate_function(x, y, lagrangian, m=8, winding_max=winding_max)
                bent = rate_function(x, y, lagrangian, m=8, winding_max=winding_max,
                                     perturb=0.3)
                assert got.winding == w, (x, y, winding_max)
                assert abs(got.l_value - l_value) <= ulps * EPS * l_value
                assert ((bent.l_value, bent.winding, bent.residual)
                        == (got.l_value, got.winding, got.residual))
                assert got.passed and bent.passed and bent.jensen_gap > 0
                assert got.iterations == bent.iterations == 0


def test_the_bent_quartic_preset_costs_more_than_its_line():
    # the paths/rate_k2_perturbed preset: Jensen's inequality with room to spare
    res = rate_function(0.0, 5.0, Lagrangian(h_power(2)), perturb=0.3)
    assert res.winding == -1 and res.passed
    assert res.residual <= RESIDUAL_TOL
    assert res.jensen_gap == pytest.approx(0.1347, abs=1e-4)


def _rate_rows(tmp_path, operator, perturb):
    """The rows below the # lines of the rate.csv of a y = 5 run."""
    text = f"[operator]\n{operator}\n[experiment]\nkind = rate\ny = 5.0\nperturb = {perturb}\n"
    out = tmp_path / f"perturb_{perturb}"
    run(parse_config(text), out_dir=str(out))
    lines = (out / "rate.csv").read_text(encoding="utf-8").splitlines()
    return [line for line in lines if not line.startswith("#")]


@pytest.mark.parametrize("operator", [
    "variant = pure_power\nk = 1", "variant = pure_power\nk = 2",
    "variant = pure_power\nk = 3", "variant = levy\nl = 1\nalpha_levy = -0.5"])
def test_the_rate_table_does_not_depend_on_perturb(tmp_path, operator):
    assert _rate_rows(tmp_path, operator, 0.3) == _rate_rows(tmp_path, operator, 0.0)


def test_a_non_convex_lagrangian_fails_the_run_by_the_jensen_check(
        tmp_path, monkeypatch, capsys):
    # L^(1/4) of the quadratic is concave on each side of 0: the bent
    # competitor undercuts the line, though the line is still stationary
    legendre_full = ldp._legendre_full

    def concave(h, p):
        values, xi = legendre_full(h, p)
        return values ** 0.25, xi

    monkeypatch.setattr(ldp, "_legendre_full", concave)
    res = rate_function(0.0, 5.0, Lagrangian(h_power(1)), perturb=0.3)
    assert res.residual <= RESIDUAL_TOL and res.jensen_gap < -1e-3
    assert not res.passed
    config = tmp_path / "rate.cfg"
    config.write_text("[operator]\nvariant = pure_power\nk = 1\n"
                      "[experiment]\nkind = rate\ny = 5.0\nperturb = 0.3\n")
    assert main(["rate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "rate: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("name, bad", [("m", 2.5), ("m", True), ("m", np.float64(64.0)),
                                       ("winding_max", 1.5), ("winding_max", True),
                                       ("winding_max", None)])
def test_rate_function_refuses_counts_that_are_not_integers(name, bad):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        rate_function(0.0, 1.0, Lagrangian(h_power(1)), **{name: bad})


# ---------------------------------------------------------------------------
# scaling utilities


def test_differential_symbol_scales_by_power_of_eps():
    sym = build_symbol(PurePower(k=2), FrequencyGrid(1, 8))
    eps = 0.3
    scaled = build_symbol(maslov_scaled_spec(sym.spec, 2, eps), sym.grid)
    assert np.allclose(scaled.values, eps**3 * sym.values, rtol=1e-13)


def test_jump_symbol_scales_in_frequency():
    spec = Levy(l=1, alpha_levy=-0.5, density=flat_density())
    sym = build_symbol(spec, FrequencyGrid(1, 4))
    eps = 0.5
    scaled = build_symbol(maslov_scaled_spec(spec, 1, eps), sym.grid)
    xi = sym.grid.points[:, 0].astype(float)
    expect = np.array(
        [levy_symbol(spec.density, 1, -0.5, eps * v) / eps for v in xi]
    )
    assert np.max(np.abs(scaled.values - expect)) < 1e-10


def test_scaling_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        maslov_scaled_spec(PurePower(k=1), 1, 0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_scaling_names_an_eps_that_is_not_finite_and_positive(eps):
    # nan and inf once gave a Rescaled spec with a nan or inf prefactor
    with pytest.raises(ValidationError, match="^eps must be > 0 and finite, got "):
        maslov_scaled_spec(PurePower(k=1), 1, eps)

