"""Acceptance suite: one test per ship criterion, tolerances pinned inline.

Each test prints a single machine-greppable verdict line (visible with -s, or
in the failure report otherwise).  The quartic (k=2) kernel changes sign and
its saddle frequencies are complex, so its small-time constants are the
complex-saddle ones from ``oracles.power_sharp_rate`` and
``oracles.saddle_factor``, not the Legendre and Chernoff values that hold for
k=1.  Do not loosen the tolerances to make a criterion green.
"""

import math

import numpy as np
import pytest

import oracles
from nmhl import (
    AugmentedOperator,
    FrequencyGrid,
    PurePower,
    bounded_moment_check,
    build_symbol,
    biconjugate,
    chapman_kolmogorov_check,
    default_gauge,
    exit_bound_check,
    exponent_fit,
    gauge_conjugate,
    growth_fit,
    heat_kernel,
    ibp_check,
    kernel_symmetry_check,
    lagrangian_table,
    legendre,
    rate_function,
    tilted_bound_check,
    varadhan_curve,
)
from nmhl.grids import TWO_PI, spatial_grid
from nmhl.presets import (
    EXPONENT_PRESETS,
    EXPONENT_TIMES,
    IBP_CUTOFF,
    IBP_PRESETS,
    IBP_RESOLUTION,
    IBP_TIME,
    exit_grid,
    exponent_symbol,
)
from nmhl.spectral import auto_cutoff


def check(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"[{tag}] {detail}"


def power_symbol(k: int, t_min: float):
    spec = PurePower(k=k)
    return build_symbol(spec, FrequencyGrid(1, auto_cutoff(spec, t_min)))


def power_cutoff(k: int, t_min: float) -> int:
    return auto_cutoff(PurePower(k=k), t_min)


def test_01_gaussian_kernel_and_rate_ground_truth():
    sym = power_symbol(1, 0.01)
    err = 0.0
    for t in (0.01, 0.1, 1.0):
        kern = heat_kernel(sym, t, resolution=2048)
        gap = np.max(np.abs(kern.values - oracles.wrapped_gaussian(t, kern.points)))
        err = max(err, float(gap))
    table = lagrangian_table(PurePower(k=1).hamiltonian(), p_max=8.0)
    l01 = rate_function(0.0, 1.0, table).l_value
    ok = err < 1e-8 and abs(l01 - 0.25) < 1e-6
    check("01", ok,
          f"kernel max abs err {err:.2e} (tol 1e-8); "
          f"l(0,1) err {abs(l01 - 0.25):.2e} (tol 1e-6)")


def test_02_quartic_kernel_changes_sign():
    kern = heat_kernel(power_symbol(2, 0.01), 0.01, resolution=2048)
    low = float(np.min(kern.values))
    check("02", low < 0.0, f"min_y p_0.01(0,y) = {low:.6f} < 0")


def test_03_cascade_ibp_identity_across_presets():
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    worst_rel, worst_gap = 0.0, 0.0
    for k, alpha, r, n in IBP_PRESETS:
        base = build_symbol(PurePower(k=k), FrequencyGrid(1, IBP_CUTOFF))
        op = AugmentedOperator(base=base, n=n, alpha_frac=alpha, r=r)
        analytic = ibp_check(op, f, IBP_TIME, moment_path="analytic")
        quad = ibp_check(op, f, IBP_TIME, moment_path="quadrature")
        worst_rel = max(worst_rel, analytic.rel_error, quad.rel_error)
        worst_gap = max(worst_gap,
                        abs(analytic.lhs - quad.lhs) / (abs(analytic.lhs) + 1e-300))
    ok = worst_rel < 1e-8 and worst_gap < 1e-6
    check("03", ok,
          f"{len(IBP_PRESETS)} presets: worst rel err {worst_rel:.2e} (tol 1e-8); "
          f"moment paths differ by {worst_gap:.2e} (tol 1e-6)")


def test_05_legendre_transform_oracles():
    h1, h2 = PurePower(k=1).hamiltonian(), PurePower(k=2).hamiltonian()
    conj_err = max(abs(legendre(h1, p) - p * p / 4.0)
                   for p in (-3.0, -1.0, 0.5, 1.0, 2.0, 4.0))
    quartic_err = abs(legendre(h2, 4.0) - 3.0)
    table = lagrangian_table(h2, p_max=12.0)
    biconj_err = max(abs(biconjugate(table, xi) - xi**4)
                     for xi in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0))
    fit = growth_fit(lagrangian_table(h2, p_max=10.0))
    ok = (conj_err < 1e-8 and quartic_err < 1e-8 and biconj_err < 1e-6
          and fit.r_squared >= 0.99 and fit.sandwich_holds)
    check("05", ok,
          f"conjugate err {max(conj_err, quartic_err):.2e} (tol 1e-8); "
          f"biconjugate err {biconj_err:.2e} (tol 1e-6); "
          f"growth fit R^2 {fit.r_squared:.4f} (min 0.99)")


def test_06_rate_minimizer_matches_straight_line_oracle():
    t1 = lagrangian_table(PurePower(k=1).hamiltonian(), p_max=16.0)
    t2 = lagrangian_table(PurePower(k=2).hamiltonian(), p_max=16.0)
    short = rate_function(0.0, 1.0, t1)
    wound = rate_function(0.0, 5.0, t1)  # displacement beyond half circumference
    quartic = rate_function(0.0, 1.0, t2)
    err = max(abs(short.l_value - 0.25),
              abs(wound.l_value - (TWO_PI - 5.0) ** 2 / 4.0),
              abs(quartic.l_value - oracles.power_legendre(2, 1.0)))
    ok = err < 1e-6 and wound.winding == -1
    check("06", ok,
          f"worst optimizer err {err:.2e} (tol 1e-6); "
          f"long hop picked winding {wound.winding}")


def test_07_small_time_log_kernel_upper_bound():
    c1 = varadhan_curve(PurePower(k=1), 1, 0.0, 1.0, 0.1 * 0.5 ** np.arange(8),
                        cutoff=power_cutoff(1, 0.1 * 0.5**7))
    c2 = varadhan_curve(PurePower(k=2), 2, 0.0, 1.0, 0.2 * 0.5 ** np.arange(8),
                        cutoff=power_cutoff(2, 0.2 * 0.5**7))
    gauss_dev = abs(c1.extrapolated + 0.25) / 0.25
    ok = (bool(c1.pointwise_pass.all()) and bool(c2.pointwise_pass.all())
          and gauss_dev <= 0.02)
    check("07", ok,
          f"pointwise bound holds at all 8 times for both orders; "
          f"gaussian extrapolated limit off by {gauss_dev:.2%} (tol 2%)")


def _crest_limit(ts: np.ndarray, vals: np.ndarray, power: float,
                 n_crests: int = 6) -> tuple[float, int]:
    """Limit of the local maxima of v(t), fitted over the last n_crests as
    v_inf + t^power (A log(1/t) + B); returns (v_inf, number of crests)."""
    crest = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    tc, vc = ts[crest[-n_crests:]], vals[crest[-n_crests:]]
    g = tc**power
    design = np.column_stack([np.ones_like(g), g * np.log(1.0 / tc), g])
    sol, *_ = np.linalg.lstsq(design, vc, rcond=None)
    return float(sol[0]), int(crest.size)


def test_07_quartic_extrapolated_limit_reaches_the_rate():
    """The crests of the quartic log-kernel curve reach -sigma_2.

    For a fourth-order generator the saddle frequencies are complex, so
    |p_t(0,1)| ~ C t^{-1/6} exp(-sigma_2 t^{-1/3}) |cos(...)| with
    sigma_2 = L_2(1) sin(pi/6) = 0.2362, half the Legendre value.
    v(t) = t^{1/3} log|p_t| has no limit, since the cosine zeros send it to
    -inf in every small-t window; its lim sup is -sigma_2.  A dense geometric
    grid resolves the oscillation: every sample sits below -sigma_2 + slack,
    and the crests (local maxima) extrapolate to -sigma_2 within 2% on both
    sides.  Against the Legendre target -0.4725 both clauses fail.
    """
    sigma = oracles.power_sharp_rate(2, 1.0)
    ts = np.geomspace(1e-2, 1e-6, 400)
    curve = varadhan_curve(PurePower(k=2), 2, 0.0, 1.0, ts, l_value=sigma,
                           cutoff=power_cutoff(2, ts[-1]))
    limit, n_crests = _crest_limit(ts, curve.values, curve.power)
    dev = abs(limit + sigma) / sigma
    held = int(curve.pointwise_pass.sum())
    ok = held == ts.size and n_crests >= 6 and dev <= 0.02
    check("07", ok,
          f"pointwise bound vs -sigma_2 holds at {held}/{ts.size} times; "
          f"limit of {n_crests} crests {limit:+.5f} vs -sigma_2 {-sigma:+.5f}, "
          f"off by {dev:.2%} (tol 2%)")


def test_08_exit_time_constant_positive_and_gaussian_calibrated():
    f1 = exit_bound_check(PurePower(k=1), 1, 0.5, 0.1,
                          oracles.geometric_grid(*exit_grid(1)),
                          cutoff=power_cutoff(1, 0.1))
    f2 = exit_bound_check(PurePower(k=2), 2, 0.5, 0.1,
                          oracles.geometric_grid(*exit_grid(2)),
                          cutoff=power_cutoff(2, 0.1 * 0.02**3))
    gauss_dev = abs(f1.ratio - 1.0)
    ok = (f1.fit_c > 0.0 and f2.fit_c > 0.0
          and f1.r_squared >= 0.99 and f2.r_squared >= 0.99
          and gauss_dev <= 0.15)
    check("08", ok,
          f"fitted C {f1.fit_c:.4f} / {f2.fit_c:.4f} > 0, "
          f"R^2 {f1.r_squared:.4f} / {f2.r_squared:.4f} (min 0.99); "
          f"gaussian C within {gauss_dev:.2%} of d^2/4s (tol 15%)")


def test_08_quartic_exit_constant_matches_chernoff():
    """The quartic exit constant matches Chernoff at the complex saddle.

    The exit exponent is the Chernoff extremization of -delta xi + s xi^4
    taken at the complex saddle, where its real part is sin(pi/6) = 1/2 of the
    real Chernoff value, exactly as for the pointwise rate in criterion 07.
    The fitted constant lands near 55% of the real Chernoff value, inside the
    20% band around the saddle value and far outside the band around the real
    one.  Smaller eps cannot tighten this: the exit mass falls below double
    precision and the fit degrades (R^2 0.97 for eps in [0.05, 0.005]).
    """
    delta, s = 0.5, 0.1
    fit = exit_bound_check(PurePower(k=2), 2, delta, s,
                           oracles.geometric_grid(*exit_grid(2)),
                           cutoff=power_cutoff(2, 0.1 * 0.02**3))
    sharp_c = -oracles.chernoff_exponent(2, delta, s)[1] * oracles.saddle_factor(2)
    dev = abs(fit.fit_c / sharp_c - 1.0)
    check("08", dev <= 0.20,
          f"quartic C / (chernoff * sin(pi/6)) = {fit.fit_c / sharp_c:.4f} "
          f"(tol 20%); C / chernoff = {fit.ratio:.4f}")


def test_09_tilted_norm_bound_across_preset_grid():
    from nmhl.presets import TILT_PRESETS

    cutoffs = {1: power_cutoff(1, 1.0), 2: 16}
    all_pass, worst_eq = True, 0.0
    for k, tilt, s in TILT_PRESETS:
        res = tilted_bound_check(PurePower(k=k), k, tilt, s, min_cutoff=cutoffs[k])
        all_pass = all_pass and res.passed
        if k == 1:
            worst_eq = max(worst_eq, abs(res.measured - res.predicted)
                           / res.predicted)
    ok = all_pass and worst_eq <= 1e-10
    check("09", ok,
          f"{len(TILT_PRESETS)} tilts under exp(1.05 s H/eps); "
          f"gaussian equality dev {worst_eq:.2e} (tol 1e-10)")


def test_10_seminorm_decay_exponents_scale_and_add():
    worst = 0.0
    for k, alpha, l, expected in EXPONENT_PRESETS:
        fit = exponent_fit(exponent_symbol(PurePower(k=k)), alpha, l, EXPONENT_TIMES)
        assert fit.r_squared >= 0.99
        worst = max(worst, abs(fit.r - expected) / expected)
    sym = exponent_symbol(PurePower(k=1))
    r1 = exponent_fit(sym, 0.5, 1, EXPONENT_TIMES).r
    r2 = exponent_fit(sym, 0.5, 2, EXPONENT_TIMES).r
    r3 = exponent_fit(sym, 0.5, 3, EXPONENT_TIMES).r
    add_dev = abs(r1 + r2 - r3) / r3
    ok = worst <= 0.05 and add_dev <= 0.05
    check("10", ok,
          f"fitted r within {worst:.2%} of alpha*l (tol 5%); "
          f"additivity dev {add_dev:.2%} (tol 5%)")


def test_11_gauge_potential_and_bounded_moments():
    pot = gauge_conjugate(default_gauge())
    base = build_symbol(PurePower(k=1), FrequencyGrid(1, 8))
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    res = bounded_moment_check(op, np.ones(256), 0.5, resolution=256)
    ok = (abs(pot.sup_c - 0.5) <= 1e-10
          and res.doubling_drift is not None and res.doubling_drift < 0.02)
    check("11", ok,
          f"sup|C| = {pot.sup_c:.12f} (0.5 +- 1e-10); "
          f"moment drift under domain doubling {res.doubling_drift:.2%} (tol 2%)")


def test_12_structural_suite():
    gauss = power_symbol(1, 0.05)
    quartic = build_symbol(PurePower(k=2), FrequencyGrid(1, 16))
    ck = max(chapman_kolmogorov_check(gauss, 0.05, 0.07),
             chapman_kolmogorov_check(quartic, 0.05, 0.07))
    symm = max(kernel_symmetry_check(gauss, 0.05),
               kernel_symmetry_check(quartic, 0.05))
    mass_err = max(abs(heat_kernel(gauss, 0.1, resolution=512).mass() - 1.0),
                   abs(heat_kernel(quartic, 0.1, resolution=512).mass() - 1.0))
    ok = ck < 1e-8 and symm < 1e-10 and mass_err < 1e-12
    check("12", ok,
          f"chapman-kolmogorov {ck:.2e} (tol 1e-8); symmetry {symm:.2e} "
          f"(tol 1e-10); mass err {mass_err:.2e}")
