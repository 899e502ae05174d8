"""Small-time upper-bound curves, exit fits, and tilted norms."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nmhl import (
    FractionalPower,
    PurePower,
    chernoff_extremize,
    exit_bound_check,
    legendre,
    straight_rate,
    tilted_bound_check,
    varadhan_curve,
)
from nmhl import spectral
from nmhl.cli import main
from nmhl.errors import FitUnstable, SupUnbounded, ValidationError
from nmhl.grids import TWO_PI
from nmhl.presets import EXIT_DELTA, EXIT_S, exit_grid
from nmhl.spectral import auto_cutoff
from nmhl.varadhan import C_SLACK, ScalingCurve, _judge


def power_cutoff(k, t_min):
    return auto_cutoff(PurePower(k=k), t_min)


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
    curve = varadhan_curve(PurePower(k=1), 1, 0.0, 1.0, geometric(0.1, 0.5, 8),
                           cutoff=power_cutoff(1, 1e-3))
    assert curve.passed
    assert curve.pointwise_pass.all()
    assert curve.extrapolated == pytest.approx(-0.24961297289966325, abs=1e-8)
    assert abs(curve.extrapolated + 0.25) <= 0.02 * 0.25


def test_gaussian_curve_value_deep_in_time():
    # by t = 1e-3 the normalized log-kernel sits within 3% of its limit
    curve = varadhan_curve(PurePower(k=1), 1, 0.0, 1.0, np.geomspace(0.1, 1e-3, 5),
                           cutoff=power_cutoff(1, 1e-3))
    assert abs(curve.values[-1] + 0.25) <= 0.03 * 0.25


def test_gaussian_curve_monotone_on_coarse_window():
    # before the on-diagonal prefactor turns over, v(t) climbs toward its limit
    curve = varadhan_curve(PurePower(k=1), 1, 0.0, 1.0, geometric(0.64, 0.5, 5),
                           cutoff=power_cutoff(1, 0.04))
    assert np.all(np.diff(curve.values) > 0)


def test_quartic_curve_upper_bound_holds_pointwise():
    curve = varadhan_curve(PurePower(k=2), 2, 0.0, 1.0, geometric(0.2, 0.5, 8),
                           cutoff=power_cutoff(2, 0.2 * 0.5**7))
    assert curve.pointwise_pass.all()
    assert curve.target == pytest.approx(-oracles.power_legendre(2, 1.0), abs=1e-9)


def test_curve_validates_inputs():
    spec, cutoff = PurePower(k=1), power_cutoff(1, 0.05)
    with pytest.raises(ValidationError):
        varadhan_curve(spec, 0, 0.0, 1.0, geometric(0.1, 0.5, 4), cutoff=cutoff)
    with pytest.raises(ValidationError):
        varadhan_curve(spec, 1, 0.0, 0.0, geometric(0.1, 0.5, 4), cutoff=cutoff)
    with pytest.raises(ValidationError):
        varadhan_curve(spec, 1, 0.0, 1.0, [0.1, 0.05], cutoff=cutoff)
    with pytest.raises(ValidationError):  # not geometric
        varadhan_curve(spec, 1, 0.0, 1.0, [0.1, 0.07, 0.05], cutoff=cutoff)
    with pytest.raises(ValidationError):  # increasing
        varadhan_curve(spec, 1, 0.0, 1.0, [0.1, 0.2, 0.4], cutoff=cutoff)


def test_slack_calibration_constant_is_frozen():
    assert C_SLACK == 0.5


# ---------------------------------------------------------------------------
# exit bounds


def test_exit_fit_matches_gaussian_tail():
    fit = exit_bound_check(PurePower(k=1), 1, 0.5, 0.1, np.geomspace(0.25, 0.05, 6),
                           cutoff=power_cutoff(1, 0.1))
    assert fit.r_squared >= 0.99
    assert fit.fit_c == pytest.approx(0.6638631685874966, rel=1e-6)
    # Chernoff constant for the Gaussian is delta^2 / 4s
    assert fit.chernoff_c == pytest.approx(0.5**2 / 0.4, abs=1e-9)
    assert abs(fit.ratio - 1.0) <= 0.15


def test_exit_mass_shrinks_even_at_the_largest_epsilon():
    fit = exit_bound_check(PurePower(k=1), 1, 0.5, 0.1, np.geomspace(0.25, 0.05, 6),
                           cutoff=power_cutoff(1, 0.1))
    assert np.all(fit.log_mass < 0.0)


def test_exit_fit_flags_underflowed_masses():
    with pytest.raises(FitUnstable):
        exit_bound_check(PurePower(k=1), 1, 0.5, 0.1, [0.004, 0.002, 0.001],
                         cutoff=power_cutoff(1, 0.1))


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
    # each eps-scaled spec is built once, on the larger of the floor and its
    # own cutoff rule; it was built on the base lattice and then
    # again on the larger one (12 builds for these 6 points)
    start, factor, count = exit_grid(1)
    calls = count_build_symbol(monkeypatch)
    exit_bound_check(PurePower(k=1), 1, EXIT_DELTA, EXIT_S,
                     start * factor ** np.arange(count), cutoff=power_cutoff(1, EXIT_S))
    assert len(calls) == count == 6


def test_cli_exit_run_builds_six_symbols(monkeypatch, tmp_path):
    # one symbol per eps: the floor of their lattices takes no build
    cfg = tmp_path / "exit.cfg"
    cfg.write_text("[operator]\nvariant = pure_power\nk = 1\n\n"
                   "[experiment]\nkind = exit\n")
    calls = count_build_symbol(monkeypatch)
    assert main(["exit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 6


def test_a_deep_varadhan_window_builds_no_lattice(monkeypatch, tmp_path):
    # every sample takes the contour, so no lattice is built and the CSV
    # names no cutoff
    cfg = tmp_path / "varadhan.cfg"
    cfg.write_text("[operator]\nvariant = pure_power\nk = 1\n\n"
                   "[experiment]\nkind = varadhan\nt_start = 1e-30\n")
    calls = count_build_symbol(monkeypatch)
    out = tmp_path / "o"
    assert main(["varadhan", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == []
    assert b"# grid.cutoff_used=" not in (out / "varadhan.csv").read_bytes()


def test_a_deep_quartic_window_sits_on_the_sharp_rate():
    curve = varadhan_curve(PurePower(k=2), 2, 0.0, 1.0, geometric(1e-30, 0.5, 8))
    assert curve.cutoff is None
    np.testing.assert_allclose(curve.values, -oracles.power_sharp_rate(2, 1.0),
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("kind, text, builds", [
    ("report", "kind = report\nfast = true\n", 25),
    ("ibp", "kind = ibp\n", 2),
])
def test_cli_run_build_counts(kind, text, builds, monkeypatch, tmp_path):
    # the exit and tilted floors take no build, and ibp builds one base per k
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[operator]\nvariant = pure_power\nk = 1\n\n[experiment]\n{text}")
    calls = count_build_symbol(monkeypatch)
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == builds


def test_exit_fit_validates_inputs():
    spec, cutoff = PurePower(k=1), power_cutoff(1, 0.1)
    eps = np.geomspace(0.25, 0.05, 4)
    with pytest.raises(ValidationError):
        exit_bound_check(spec, 1, 0.0, 0.1, eps, cutoff=cutoff)
    with pytest.raises(ValidationError):  # past half-circumference
        exit_bound_check(spec, 1, 4.0, 0.1, eps, cutoff=cutoff)
    with pytest.raises(ValidationError):
        exit_bound_check(spec, 1, 0.5, -1.0, eps, cutoff=cutoff)
    with pytest.raises(ValidationError):
        exit_bound_check(spec, 1, 0.5, 0.1, eps[::-1], cutoff=cutoff)


@pytest.mark.parametrize("s, eps, name", [
    (math.nan, (0.25, 0.2, 0.1), "s"),
    (math.inf, (0.25, 0.2, 0.1), "s"),
    (0.1, (0.25, math.nan, 0.1), "eps_list"),
    (0.1, (math.inf, 0.2, 0.1), "eps_list"),
    (0.1, (0.25, 0.2, -math.inf), "eps_list"),
])
def test_exit_fit_names_a_nonfinite_argument(s, eps, name):
    # s = nan and a nan epsilon once ran on to "no admissible cutoff"
    with pytest.raises(ValidationError, match=f"^{name} must be > 0 and finite, got "):
        exit_bound_check(PurePower(k=1), 1, 0.5, s, eps)


# ---------------------------------------------------------------------------
# tilted norms


def test_tilted_norm_without_tilt_is_unit():
    res = tilted_bound_check(PurePower(k=1), 1, 0.0, 1.0,
                             min_cutoff=power_cutoff(1, 1.0))
    assert res.measured == pytest.approx(1.0, abs=1e-12)
    assert res.passed


def test_tilted_norm_gaussian_equality():
    # completing the square is exact: the L1 norm equals exp(s xi_tilt^2)
    for tilt, s in ((0.1, 1.0), (0.3, 1.0), (0.25, 2.0)):
        res = tilted_bound_check(PurePower(k=1), 1, tilt, s,
                                 min_cutoff=power_cutoff(1, 1.0))
        assert abs(res.measured - res.predicted) <= 1e-10 * res.predicted
        assert res.passed


def test_tilted_norm_quartic_stays_under_bound():
    res = tilted_bound_check(PurePower(k=2), 2, 0.2, 1.0, min_cutoff=16)
    assert res.passed
    assert res.measured <= res.bound
    assert abs(res.measured - res.predicted) <= 0.05 * res.predicted


def test_tilted_check_validates_inputs():
    spec, cutoff = PurePower(k=1), power_cutoff(1, 1.0)
    with pytest.raises(ValidationError):
        tilted_bound_check(spec, 1, 0.1, 0.0, min_cutoff=cutoff)
    with pytest.raises(ValidationError):
        tilted_bound_check(spec, 1, 0.1, 1.0, eps=0.0, min_cutoff=cutoff)


@pytest.mark.parametrize("xi_tilt, s, eps, name", [
    (math.nan, 1.0, 1.0, "xi_tilt"),
    (math.inf, 1.0, 1.0, "xi_tilt"),
    (0.1, math.nan, 1.0, "s"),
    (0.1, math.inf, 1.0, "s"),
    (0.1, 1.0, math.nan, "eps"),
    (0.1, 1.0, math.inf, "eps"),
])
def test_tilted_check_names_a_nonfinite_argument(xi_tilt, s, eps, name):
    # a nan tilt once doubled the cutoff 20 times and raised CutoffTooSmall
    with pytest.raises(ValidationError, match=f"^{name} must be (> 0 and )?finite, got "):
        tilted_bound_check(PurePower(k=1), 1, xi_tilt, s, eps=eps)


# ---------------------------------------------------------------------------
# the shared verdict


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


ESTIMATES = {
    "varadhan_curve": lambda: varadhan_curve(
        PurePower(k=1), 1, 0.0, 1.0, geometric(0.1, 0.5, 8),
        cutoff=power_cutoff(1, 0.1 * 0.5**7)),
}


@pytest.mark.parametrize("name", ESTIMATES)
def test_every_small_time_estimate_is_one_curve_under_one_verdict(name):
    curve = ESTIMATES[name]()
    assert type(curve) is ScalingCurve
    ts, p = curve.t, 1.0 / (2 * curve.k - 1)
    slack = C_SLACK * ts**p * np.log(1.0 / ts)
    assert curve.slack.tolist() == slack.tolist()
    assert curve.passed == (bool(np.all(curve.pointwise_pass))
                            and curve.extrapolation_pass)


def test_varadhan_curve_refuses_deep_samples_the_lattice_sum_cannot_resolve():
    # (xi^4)^(1/2) = xi^2 is no even polynomial spec, so its deep samples take
    # the lattice sum, whose rounding noise (log ~ -36) would pass for a
    # kernel far above the true -1.5625 / t
    spec = FractionalPower(PurePower(k=2), 0.5)
    with pytest.raises(ValidationError, match="rounding floor"):
        varadhan_curve(spec, 1, 0.0, 2.5, geometric(0.008, 0.5, 3),
                       cutoff=auto_cutoff(spec, 0.002))


def test_varadhan_curve_takes_deep_samples_on_the_contour():
    # the lattice sum's rounding noise would read as v = -0.241, -0.148,
    # -0.079, -0.039 here, and a false FAIL
    assert varadhan_curve(PurePower(k=1), 1, 0.0, 1.0, geometric(0.008, 0.5, 4),
                          l_value=0.25, cutoff=power_cutoff(1, 1e-3)).passed


def test_varadhan_curve_refuses_a_two_dimensional_symbol():
    # every sample is past the cancellation floor of the lattice sum, and
    # the image sum is one-dimensional: a 2-D symbol must not reach it
    with pytest.raises(ValidationError):
        varadhan_curve(PurePower(k=1, d=2), 1, 0.0, 1.0, geometric(0.005, 0.5, 3),
                       l_value=0.25, cutoff=8)


@pytest.mark.parametrize("delta, s, name", [(math.nan, 1.0, "delta"), (0.5, math.inf, "s"),
                                            (np.array([0.5, 0.6]), 1.0, "delta")])
def test_chernoff_extremize_names_an_argument_that_is_not_one_finite_number(delta, s, name):
    with pytest.raises(ValidationError, match=f"^{name} must be one finite number, got "):
        chernoff_extremize(PurePower(k=1).hamiltonian(), delta, s)


def test_cli_exit_on_a_flat_window_exits_two_naming_it(tmp_path, capsys):
    # at eps_start = 1e10 the scaled kernel is flat, every log mass is the
    # arc's share of the circle, and the run once exited 1 with fit_C = 9.3e-8
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[operator]\nvariant = pure_power\nk = 1\n\n"
                   "[experiment]\nkind = exit\neps_start = 1e10\n")
    out = tmp_path / "o"
    assert main(["exit", "--config", str(cfg), "--out", str(out)]) == 2
    assert "FitUnstable: exit mass is flat over the window eps in [" in capsys.readouterr().err
    assert not out.exists()
