"""Small-time upper-bound curves, set estimates, exit fits, tilted norms, and
localized derivative bounds."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nmhl import (
    FractionalPower,
    FrequencyGrid,
    PurePower,
    build_symbol,
    chernoff_extremize,
    exit_bound_check,
    legendre,
    localized_estimate,
    plateau_bump,
    straight_rate,
    tilted_bound_check,
    varadhan_curve,
    wf_set_estimate,
)
from nmhl import spectral
from nmhl.cli import main
from nmhl.errors import FitUnstable, SupUnbounded, ValidationError
from nmhl.grids import TWO_PI
from nmhl.presets import EXIT_DELTA, EXIT_S, exit_grid
from nmhl.spectral import auto_cutoff
from nmhl.varadhan import C_SLACK, ScalingCurve, _judge, _log_interval_mass


def power_symbol(k, t_min):
    spec = PurePower(k=k)
    return build_symbol(spec, FrequencyGrid(1, auto_cutoff(spec, t_min)))


def geometric(t0, factor, count):
    return t0 * factor ** np.arange(count)


# ---------------------------------------------------------------------------
# straight-line rate


def test_straight_rate_short_and_wound():
    h = PurePower(k=1).hamiltonian()
    assert straight_rate(h, 0.0, 1.0) == pytest.approx(0.25, abs=1e-10)
    assert straight_rate(h, 0.0, 5.0) == pytest.approx(
        (TWO_PI - 5.0) ** 2 / 4.0, abs=1e-9
    )


@pytest.mark.parametrize("x, y", [(0.0, math.nan), (math.nan, 0.0), (0.0, math.inf)])
def test_straight_rate_refuses_a_nonfinite_endpoint(x, y):
    with pytest.raises(ValidationError, match="finite"):
        straight_rate(PurePower(k=1).hamiltonian(), x, y)


@given(y=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_straight_rate_matches_wound_oracle(y):
    h = PurePower(k=1).hamiltonian()
    assert straight_rate(h, 0.0, y) == pytest.approx(
        oracles.quadratic_rate(0.0, y), abs=1e-8
    )


HAMILTONIANS = {"k1": PurePower(k=1), "k2": PurePower(k=2), "k3": PurePower(k=3),
                "fractional": FractionalPower(PurePower(k=2), 0.75)}


@pytest.mark.parametrize("name", HAMILTONIANS)
def test_straight_rate_on_arrays_equals_the_scalar_calls(name):
    # every endpoint and winding in one Legendre solve, bit for bit
    h = HAMILTONIANS[name].hamiltonian()
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-7.0, 7.0, 64), rng.uniform(-20.0, 20.0, 64)
    many = straight_rate(h, x, y)
    assert many.shape == (64,)
    assert many.tolist() == [straight_rate(h, a, b) for a, b in zip(x, y)]
    assert straight_rate(h, 0.5, y).tolist() == [straight_rate(h, 0.5, b) for b in y]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_straight_rate_is_the_conjugate_to_two_ulps(k):
    h = PurePower(k=k).hamiltonian()
    for z in np.linspace(-math.pi, math.pi, 257):
        ref = oracles.power_conjugate(k, float(z))[1]
        assert abs(straight_rate(h, 0.0, float(z)) - ref) <= 2 * np.spacing(ref)


# ---------------------------------------------------------------------------
# Chernoff extremization


def test_chernoff_closed_forms():
    h1 = PurePower(k=1).hamiltonian()
    xi, val = chernoff_extremize(h1, 1.0, 1.0)
    assert xi == pytest.approx(0.5, abs=1e-9)
    assert val == pytest.approx(-0.25, abs=1e-10)
    h2 = PurePower(k=2).hamiltonian()
    xi, val = chernoff_extremize(h2, 1.0, 1.0)
    assert xi == pytest.approx(0.25 ** (1.0 / 3.0), abs=1e-8)
    assert val == pytest.approx(-3.0 * 0.25 ** (4.0 / 3.0), abs=1e-8)
    assert chernoff_extremize(h2, 0.0, 1.0) == (0.0, 0.0)


@given(
    delta=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    s=st.floats(min_value=0.05, max_value=1.5, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_chernoff_is_dual_to_legendre(delta, s):
    # inf_xi (-delta xi + s H(xi)) = -s L(delta / s) for even convex H
    h = PurePower(k=2).hamiltonian()
    _, val = chernoff_extremize(h, delta, s)
    assert val == pytest.approx(-s * legendre(h, delta / s), abs=1e-8)


def test_chernoff_oracle_agreement():
    h = PurePower(k=2).hamiltonian()
    for delta, s in ((0.5, 0.1), (1.0, 0.3), (2.0, 1.0)):
        xi_o, val_o = oracles.chernoff_exponent(2, delta, s)
        xi, val = chernoff_extremize(h, delta, s)
        assert xi == pytest.approx(xi_o, abs=1e-8)
        assert val == pytest.approx(val_o, abs=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chernoff_is_the_conjugate_to_rounding(k):
    # xi* = L'(delta / s) and the minimum -s L(delta / s), against the
    # 40-digit closed form
    h = PurePower(k=k).hamiltonian()
    for delta, s in ((0.5, 0.1), (1.0, 0.3), (2.0, 1.0)):
        xi_o, l_o = oracles.power_conjugate(k, delta / s)
        xi, val = chernoff_extremize(h, delta, s)
        assert xi == pytest.approx(xi_o, rel=1e-14, abs=0)
        assert val == pytest.approx(-s * l_o, rel=1e-14, abs=0)


def test_chernoff_refuses_a_sublinear_hamiltonian():
    # H = |xi|^0.8 grows sublinearly: -delta xi + s H(xi) falls without
    # bound, so there is no minimizer to return
    h = FractionalPower(PurePower(k=1), 0.4).hamiltonian()
    with pytest.raises(SupUnbounded):
        chernoff_extremize(h, 0.5, 1.0)


def test_chernoff_validates_inputs():
    h = PurePower(k=1).hamiltonian()
    with pytest.raises(ValidationError):
        chernoff_extremize(h, -0.1, 1.0)
    with pytest.raises(ValidationError):
        chernoff_extremize(h, 1.0, 0.0)


@pytest.mark.parametrize("delta, s", [(math.nan, 1.0), (1.0, math.nan),
                                      (math.inf, 1.0), (1.0, math.inf)])
def test_chernoff_refuses_nonfinite_arguments(delta, s):
    with pytest.raises(ValidationError, match="finite"):
        chernoff_extremize(PurePower(k=1).hamiltonian(), delta, s)


# ---------------------------------------------------------------------------
# pointwise curves


def test_gaussian_curve_converges_to_quarter_square():
    sym = power_symbol(1, 1e-3)
    curve = varadhan_curve(sym, 1, 0.0, 1.0, geometric(0.1, 0.5, 8))
    assert curve.passed
    assert curve.pointwise_pass.all()
    assert curve.extrapolated == pytest.approx(-0.24961297289966325, abs=1e-8)
    assert abs(curve.extrapolated + 0.25) <= 0.02 * 0.25


def test_gaussian_curve_value_deep_in_time():
    # by t = 1e-3 the normalized log-kernel sits within 3% of its limit
    sym = power_symbol(1, 1e-3)
    curve = varadhan_curve(sym, 1, 0.0, 1.0, np.geomspace(0.1, 1e-3, 5))
    assert abs(curve.values[-1] + 0.25) <= 0.03 * 0.25


def test_gaussian_curve_monotone_on_coarse_window():
    # before the on-diagonal prefactor turns over, v(t) climbs toward its limit
    sym = power_symbol(1, 0.04)
    curve = varadhan_curve(sym, 1, 0.0, 1.0, geometric(0.64, 0.5, 5))
    assert np.all(np.diff(curve.values) > 0)


def test_quartic_curve_upper_bound_holds_pointwise():
    sym = power_symbol(2, 0.2 * 0.5**7)
    curve = varadhan_curve(sym, 2, 0.0, 1.0, geometric(0.2, 0.5, 8))
    assert curve.pointwise_pass.all()
    assert curve.target == pytest.approx(-oracles.power_legendre(2, 1.0), abs=1e-9)


def test_curve_validates_inputs():
    sym = power_symbol(1, 0.05)
    with pytest.raises(ValidationError):
        varadhan_curve(sym, 0, 0.0, 1.0, geometric(0.1, 0.5, 4))
    with pytest.raises(ValidationError):
        varadhan_curve(sym, 1, 0.0, 0.0, geometric(0.1, 0.5, 4))
    with pytest.raises(ValidationError):
        varadhan_curve(sym, 1, 0.0, 1.0, [0.1, 0.05])
    with pytest.raises(ValidationError):
        varadhan_curve(sym, 1, 0.0, 1.0, [0.1, 0.07, 0.05])  # not geometric
    with pytest.raises(ValidationError):
        varadhan_curve(sym, 1, 0.0, 1.0, [0.1, 0.2, 0.4])  # increasing


def test_slack_calibration_constant_is_frozen():
    assert C_SLACK == 0.5


# ---------------------------------------------------------------------------
# set-level estimates


def test_set_estimate_exterior_interval():
    sym = power_symbol(1, 0.1 * 0.5**7)
    curve = wf_set_estimate(sym, 1, 0.0, (2.0, 3.0), geometric(0.1, 0.5, 8))
    assert curve.passed
    assert curve.target == pytest.approx(-1.0, abs=1e-9)
    assert abs(curve.extrapolated + 1.0) <= 0.02


def test_set_estimate_near_edge_controls_the_rate():
    sym = power_symbol(1, 0.1 * 0.5**7)
    curve = wf_set_estimate(sym, 1, 0.0, (0.9, 1.1), geometric(0.1, 0.5, 8))
    assert curve.passed
    assert curve.target == pytest.approx(-0.2025, abs=1e-9)
    assert curve.extrapolated == pytest.approx(-0.2025, abs=2e-3)


def test_set_estimate_quartic_bound_holds_pointwise():
    sym = power_symbol(2, 0.2 * 0.5**7)
    curve = wf_set_estimate(sym, 2, 0.0, (0.9, 1.1), geometric(0.2, 0.5, 8))
    assert curve.pointwise_pass.all()


def test_set_estimate_interior_point_has_zero_target():
    sym = power_symbol(1, 0.1 * 0.5**7)
    curve = wf_set_estimate(sym, 1, 2.5, (2.0, 3.0), geometric(0.1, 0.5, 8))
    assert curve.passed
    assert curve.target == 0.0
    assert abs(curve.extrapolated) <= 1e-3


@pytest.mark.parametrize("turns", [2, -2])
def test_set_estimate_is_the_same_on_every_turn_of_the_arc(turns):
    # (2 + 4 pi, 3 + 4 pi) is the arc (2, 3); sampling it on [0, 2 pi) once
    # found no mass at all, so v = -inf passed every bound
    sym = power_symbol(1, 0.1 * 0.5**7)
    ts = geometric(0.1, 0.5, 8)
    base = wf_set_estimate(sym, 1, 0.0, (2.0, 3.0), ts)
    shift = turns * TWO_PI
    curve = wf_set_estimate(sym, 1, 0.0, (2.0 + shift, 3.0 + shift), ts)
    assert curve.target == base.target == -1.0
    assert curve.values.tolist() == base.values.tolist()
    assert np.all(np.isfinite(curve.values))


@pytest.mark.parametrize("k", [1, 2])
def test_set_estimate_long_arc_interior_point_has_zero_target(k):
    # x = 4.06 lies in (0.5, 4.5), but more than pi from lo; a 33-point
    # sample of the arc once gave the target -0.0009 (k = 1), -0.0111 (k = 2)
    sym = power_symbol(k, 0.2 * 0.5**7)
    curve = wf_set_estimate(sym, k, 4.06, (0.5, 4.5), geometric(0.2, 0.5, 8))
    assert curve.target == 0.0


def test_set_estimate_deep_gaussian_mass_off_the_origin():
    # x = 1, arc (2.5, 3): l_inf = 1.5^2 / 4, so l_inf / t > 25 at every t
    # and each sample takes the contour mass of the arc as seen from x
    x, lo, hi = 1.0, 2.5, 3.0
    ts = geometric(0.02, 0.5, 8)
    curve = wf_set_estimate(power_symbol(1, ts[-1]), 1, x, (lo, hi), ts)
    assert curve.target == pytest.approx(-0.5625, abs=1e-12)
    with mp.workdps(40):
        for t, v in zip(ts, curve.values):
            s = 2 * mp.sqrt(t)
            mass = sum(mp.erfc((lo - x + TWO_PI * w) / s) - mp.erfc((hi - x + TWO_PI * w) / s)
                       for w in range(-4, 5)) / 2
            assert v == pytest.approx(float(t * mp.log(mass)), rel=1e-10), t


@pytest.mark.parametrize("t, lo, hi", [(0.01, 0.5, 1.5), (0.002, 2.0, 3.0),
                                       (0.1 * 0.5**7, -1.1, -0.9),
                                       # arcs over the images of 0 and 2 pi
                                       (1e-3, -0.1, 0.2), (0.05, 5.0, 7.0)])
def test_mp_interval_mass_matches_termwise_sum(t, lo, hi):
    l_floor = min(lo * lo, hi * hi) / 4.0      # nearest endpoint, k = 1
    need = l_floor / t + 100.0                 # |log mass| with room to spare
    ref = oracles.mp_fourier_log(
        lambda n: n**2,
        lambda n: (mp.sin(n * hi) - mp.sin(n * lo)) / n if n else mp.mpf(hi - lo),
        t, n_cut=int(math.sqrt(need / t)), dps=30 + int(need / math.log(10.0)),
    )
    got = _log_interval_mass(PurePower(k=1), t, lo, hi)
    assert got == pytest.approx(ref, rel=1e-12)


def test_set_estimate_validates_intervals():
    sym = power_symbol(1, 0.05)
    ts = geometric(0.1, 0.5, 4)
    with pytest.raises(ValidationError):
        wf_set_estimate(sym, 1, 0.0, (2.0, 2.0), ts)
    with pytest.raises(ValidationError):
        wf_set_estimate(sym, 1, 0.0, (0.0, TWO_PI), ts)


# ---------------------------------------------------------------------------
# exit bounds


def test_exit_fit_matches_gaussian_tail():
    sym = power_symbol(1, 0.1)
    fit = exit_bound_check(sym, 1, 0.5, 0.1, np.geomspace(0.25, 0.05, 6))
    assert fit.r_squared >= 0.99
    assert fit.fit_c == pytest.approx(0.6638631685874966, rel=1e-6)
    # Chernoff constant for the Gaussian is delta^2 / 4s
    assert fit.chernoff_c == pytest.approx(0.5**2 / 0.4, abs=1e-9)
    assert abs(fit.ratio - 1.0) <= 0.15


def test_exit_mass_shrinks_even_at_the_largest_epsilon():
    sym = power_symbol(1, 0.1)
    fit = exit_bound_check(sym, 1, 0.5, 0.1, np.geomspace(0.25, 0.05, 6))
    assert np.all(fit.log_mass < 0.0)


def test_exit_fit_flags_underflowed_masses():
    sym = power_symbol(1, 0.1)
    with pytest.raises(FitUnstable):
        exit_bound_check(sym, 1, 0.5, 0.1, [0.004, 0.002, 0.001])


def count_build_symbol(monkeypatch) -> list:
    """Count `build_symbol` calls made from any nmhl module: every module
    name bound to the function is rebound to a counting wrapper."""
    calls, original = [], spectral.build_symbol

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "nmhl" or name.startswith("nmhl.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_exit_fit_builds_each_scaled_symbol_once(monkeypatch):
    # each eps-scaled spec is built once, on the larger of the base lattice
    # and its own cutoff rule; it was built on the base lattice and then
    # again on the larger one (12 builds for these 6 points)
    sym = power_symbol(1, EXIT_S)
    start, factor, count = exit_grid(1)
    calls = count_build_symbol(monkeypatch)
    exit_bound_check(sym, 1, EXIT_DELTA, EXIT_S, start * factor ** np.arange(count))
    assert len(calls) == count == 6


def test_cli_exit_run_builds_seven_symbols(monkeypatch, tmp_path):
    # the base symbol and one symbol per eps (13 before)
    cfg = tmp_path / "exit.cfg"
    cfg.write_text("[operator]\nvariant = pure_power\nk = 1\n\n"
                   "[experiment]\nkind = exit\n")
    calls = count_build_symbol(monkeypatch)
    assert main(["exit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 7


def test_exit_fit_validates_inputs():
    sym = power_symbol(1, 0.1)
    eps = np.geomspace(0.25, 0.05, 4)
    with pytest.raises(ValidationError):
        exit_bound_check(sym, 1, 0.0, 0.1, eps)
    with pytest.raises(ValidationError):
        exit_bound_check(sym, 1, 4.0, 0.1, eps)  # past half-circumference
    with pytest.raises(ValidationError):
        exit_bound_check(sym, 1, 0.5, -1.0, eps)
    with pytest.raises(ValidationError):
        exit_bound_check(sym, 1, 0.5, 0.1, eps[::-1])


# ---------------------------------------------------------------------------
# tilted norms


def test_tilted_norm_without_tilt_is_unit():
    sym = power_symbol(1, 1.0)
    res = tilted_bound_check(sym, 1, 0.0, 1.0)
    assert res.measured == pytest.approx(1.0, abs=1e-12)
    assert res.passed


def test_tilted_norm_gaussian_equality():
    # completing the square is exact: the L1 norm equals exp(s xi_tilt^2)
    sym = power_symbol(1, 1.0)
    for tilt, s in ((0.1, 1.0), (0.3, 1.0), (0.25, 2.0)):
        res = tilted_bound_check(sym, 1, tilt, s)
        assert abs(res.measured - res.predicted) <= 1e-10 * res.predicted
        assert res.passed


def test_tilted_norm_quartic_stays_under_bound():
    sym = build_symbol(PurePower(k=2), FrequencyGrid(1, 16))
    res = tilted_bound_check(sym, 2, 0.2, 1.0)
    assert res.passed
    assert res.measured <= res.bound
    assert abs(res.measured - res.predicted) <= 0.05 * res.predicted


def test_tilted_check_validates_inputs():
    sym = power_symbol(1, 1.0)
    with pytest.raises(ValidationError):
        tilted_bound_check(sym, 1, 0.1, 0.0)
    with pytest.raises(ValidationError):
        tilted_bound_check(sym, 1, 0.1, 1.0, eps=0.0)


# ---------------------------------------------------------------------------
# localized derivative estimates


BUMP = plateau_bump(math.pi, 0.5, 1.0)


def test_plateau_bump_shape():
    ys = np.linspace(0.0, TWO_PI, 2049)
    vals = BUMP(ys)
    dist = np.abs((ys - math.pi + math.pi) % TWO_PI - math.pi)
    assert np.all(vals[dist <= 0.5] == pytest.approx(1.0, abs=1e-12))
    assert np.all(vals[dist >= 1.0] == 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    with pytest.raises(ValidationError):
        plateau_bump(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        plateau_bump(0.0, 0.5, 4.0)


def test_localized_limit_reaches_nearest_support_rate():
    sym = power_symbol(1, 0.5 * 0.7**6)
    curve = localized_estimate(sym, 1, 0.0, BUMP, geometric(0.5, 0.7, 7))
    assert curve.passed
    assert curve.r_alpha == 0.0
    l_near = oracles.quadratic_rate(0.0, math.pi - 1.0)
    # the support edge is located on the quadrature grid, one step inside
    assert curve.target == pytest.approx(-0.95 * l_near, rel=3e-3)
    assert abs(curve.extrapolated + l_near) <= 0.25 * l_near


def test_localized_first_derivative_costs_half_an_exponent():
    sym = power_symbol(1, 0.5 * 0.7**6)
    curve = localized_estimate(
        sym, 1, 0.0, BUMP, geometric(0.5, 0.7, 7), alpha_order=1
    )
    assert curve.passed
    assert curve.r_alpha == pytest.approx(0.5, abs=0.01)


def test_localized_second_derivative_quartic():
    sym = power_symbol(2, 0.1 * 0.5**5)
    curve = localized_estimate(
        sym, 2, 0.0, BUMP, geometric(0.1, 0.5, 6), alpha_order=2
    )
    assert curve.passed
    assert curve.r_alpha == pytest.approx(0.5, abs=0.01)


def test_localized_empty_bump_is_a_sentinel():
    sym = power_symbol(1, 0.1)
    curve = localized_estimate(
        sym, 1, 0.0, lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        geometric(0.1, 0.5, 4),
    )
    assert curve.passed
    assert curve.target == -math.inf
    assert np.all(np.isneginf(curve.values))
    assert curve.extrapolated == -math.inf


def test_a_curve_ending_in_minus_inf_passes_its_limit_clause():
    # a kernel that is exactly 0 at the last samples lies below every bound;
    # the two-term fit alone would give nan there and fail the limit clause
    ts = geometric(0.1, 0.5, 5)
    vals = np.array([-1.0, -1.1, -math.inf, -math.inf, -math.inf])
    curve = _judge(1, ts, vals, -0.5, -0.5)
    assert curve.extrapolated == -math.inf
    assert curve.extrapolation_pass
    assert curve.passed
    one = _judge(1, ts, np.array([-1.0, -1.1, -1.2, -1.3, -math.inf]), -0.5, -0.5)
    assert one.extrapolated == -math.inf and one.passed


def test_localized_validates_inputs():
    sym = power_symbol(1, 0.1)
    ts = geometric(0.1, 0.5, 4)
    with pytest.raises(ValidationError):
        localized_estimate(sym, 1, 0.0, BUMP, ts, alpha_order=3)
    with pytest.raises(ValidationError, match="k must be >= 1"):
        # no order-0 curve: its power 1/(2k - 1) would be -1
        localized_estimate(sym, 0, 0.0, BUMP, ts)
    with pytest.raises(ValidationError):
        # bump support contains the base point: the rate target degenerates
        localized_estimate(sym, 1, 0.0, plateau_bump(0.0, 0.5, 1.0), ts)


ESTIMATES = {
    "varadhan_curve": lambda: varadhan_curve(
        power_symbol(1, 0.1 * 0.5**7), 1, 0.0, 1.0, geometric(0.1, 0.5, 8)),
    "wf_set_estimate": lambda: wf_set_estimate(
        power_symbol(2, 0.2 * 0.5**7), 2, 0.0, (0.9, 1.1), geometric(0.2, 0.5, 8)),
    "localized_estimate": lambda: localized_estimate(
        power_symbol(1, 0.5 * 0.7**6), 1, 0.0, BUMP, geometric(0.5, 0.7, 7),
        alpha_order=1),
}


@pytest.mark.parametrize("name", ESTIMATES)
def test_every_small_time_estimate_is_one_curve_under_one_verdict(name):
    curve = ESTIMATES[name]()
    assert type(curve) is ScalingCurve
    ts, p = curve.t, 1.0 / (2 * curve.k - 1)
    slack = (curve.r_alpha + C_SLACK) * ts**p * np.log(1.0 / ts)
    assert curve.slack.tolist() == slack.tolist()
    assert curve.passed == (bool(np.all(curve.pointwise_pass))
                            and curve.extrapolation_pass)
    if name == "localized_estimate":
        # judged on the pointwise clause alone
        assert curve.r_alpha > 0.0
        assert curve.extrapolation_pass is True
        pointwise = curve.values <= curve.target + curve.slack + 1e-12
        assert curve.passed == bool(np.all(pointwise))


def test_varadhan_curve_refuses_deep_samples_the_lattice_sum_cannot_resolve():
    # (xi^4)^(1/2) = xi^2 is no even polynomial spec, so its deep samples take
    # the lattice sum, whose rounding noise (log ~ -36) would pass for a
    # kernel far above the true -1.5625 / t
    spec = FractionalPower(PurePower(k=2), 0.5)
    sym = build_symbol(spec, FrequencyGrid(1, auto_cutoff(spec, 0.002)))
    with pytest.raises(ValidationError, match="rounding floor"):
        varadhan_curve(sym, 1, 0.0, 2.5, geometric(0.008, 0.5, 3))


def test_varadhan_curve_takes_deep_samples_on_the_contour():
    # the lattice sum's rounding noise would read as v = -0.241, -0.148,
    # -0.079, -0.039 here, and a false FAIL
    sym = power_symbol(1, 1e-3)
    assert varadhan_curve(sym, 1, 0.0, 1.0, geometric(0.008, 0.5, 4),
                          l_value=0.25).passed


def test_varadhan_curve_refuses_a_two_dimensional_symbol():
    # every sample is past the cancellation floor of the lattice sum, and
    # the image sum is one-dimensional: a 2-D symbol must not reach it
    sym = build_symbol(PurePower(k=1, d=2), FrequencyGrid(2, 8))
    with pytest.raises(ValidationError):
        varadhan_curve(sym, 1, 0.0, 1.0, geometric(0.005, 0.5, 3), l_value=0.25)
