"""Cascade semigroups, integration-by-parts identities, the gauge potential,
and the covariance / decay-exponent machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmhl.malliavin
import oracles
from nmhl import (
    AugmentedOperator,
    AuxDomainTooSmall,
    FrequencyGrid,
    GaugeFunction,
    MomentDiverged,
    PurePower,
    ValidationError,
    aux_moment,
    augmented_multiplier,
    bounded_moment_check,
    build_symbol,
    default_gauge,
    exponent_fit,
    gauge_conjugate,
    ibp_check,
    spatial_grid,
)
from nmhl.presets import (
    EXPONENT_PRESETS,
    EXPONENT_TIMES,
    IBP_CUTOFF,
    IBP_PRESETS,
    IBP_RESOLUTION,
    IBP_TIME,
    exponent_symbol,
)
from nmhl.runner import _ibp_columns


def _base(k=1, cutoff=16):
    return build_symbol(PurePower(k=k), FrequencyGrid(1, cutoff))


# ---------------------------------------------------------------------------
# augmented multiplier


def test_augmented_multiplier_closed_form():
    op = AugmentedOperator(base=_base(k=2, cutoff=8), n=2, alpha_frac=0.5, r=1.0)
    t, xi, eta = 0.7, 2, np.array([0.3, -1.1])
    got = augmented_multiplier(op, t, xi, eta)
    a = 16.0
    w = t**2 / 2.0
    want = np.exp(-t * a + 1j * w * np.sqrt(a) * eta.sum() - t * np.sum(eta**2))
    assert got == pytest.approx(want, rel=1e-14)


def test_augmented_multiplier_identity_at_zero_time():
    op = AugmentedOperator(base=_base(), n=1, alpha_frac=0.5)
    assert augmented_multiplier(op, 0.0, 3, [0.4]) == pytest.approx(1.0)


@given(
    xi=st.integers(min_value=-8, max_value=8),
    eta=st.floats(min_value=-3, max_value=3, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_augmented_multiplier_is_a_contraction(xi, eta, t):
    # dissipative base + purely imaginary coupling: modulus can never exceed 1
    op = AugmentedOperator(base=_base(cutoff=8), n=1, alpha_frac=0.5, r=0.0)
    assert abs(augmented_multiplier(op, t, xi, [eta])) <= 1.0 + 1e-12


def test_augmented_operator_rejects_bad_parameters():
    base = _base(cutoff=8)
    with pytest.raises(ValidationError):
        AugmentedOperator(base=base, n=-1, alpha_frac=0.5)
    with pytest.raises(ValidationError):
        AugmentedOperator(base=base, n=1, alpha_frac=1.0)
    with pytest.raises(ValidationError):
        AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=-0.5)
    with pytest.raises(ValidationError):
        AugmentedOperator(base=base, n=1, alpha_frac=0.5, aux_order=3)
    op = AugmentedOperator(base=base, n=2, alpha_frac=0.5)
    with pytest.raises(ValidationError):
        augmented_multiplier(op, 1.0, 0, [0.1])  # eta length mismatch
    with pytest.raises(ValidationError):
        augmented_multiplier(op, -1.0, 0, [0.1, 0.2])


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("t", NON_FINITE)
def test_every_time_taking_front_end_refuses_a_non_finite_time(t):
    base = _base(k=1, cutoff=8)
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    calls = {
        "augmented_multiplier": lambda: augmented_multiplier(op, t, 0, [0.1]),
        "aux_moment": lambda: aux_moment(op, t),
        "ibp_check": lambda: ibp_check(op, np.cos(spatial_grid(64)), t),
        "bounded_moment_check":
            lambda: bounded_moment_check(op, np.ones(256), t, resolution=256),
    }
    for name, call in calls.items():
        with pytest.raises(ValidationError, match="finite"):
            call()
            pytest.fail(f"{name} accepted t = {t}")


def test_aux_moment_refuses_a_non_positive_time():
    op = AugmentedOperator(base=_base(cutoff=8), n=1, alpha_frac=0.5)
    for t in (0.0, -1.0):
        with pytest.raises(ValidationError, match="t must be > 0"):
            aux_moment(op, t)


def test_weight_integral_closed_form_and_quadrature_agree():
    base = _base(cutoff=8)
    power = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=2.0)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for t in (0.3, 1.0, 2.5):
        s = 0.5 * t * (nodes + 1.0)
        quadrature = float(0.5 * t * weights @ s**2)
        assert quadrature == pytest.approx(
            power.weight_integral(t), rel=1e-12
        )
        assert power.weight_integral(t) == pytest.approx(t**3 / 3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# auxiliary moments: analytic derivative vs honest quadrature


def test_aux_moment_paths_agree():
    op = AugmentedOperator(base=_base(k=1, cutoff=8), n=1, alpha_frac=0.5, r=0.0)
    analytic = aux_moment(op, 0.5, path="analytic").real
    quad = aux_moment(op, 0.5, path="quadrature")
    assert np.max(np.abs(analytic - quad)) < 1e-7


def test_aux_moment_start_offset_translates():
    op = AugmentedOperator(base=_base(k=2, cutoff=8), n=1, alpha_frac=0.25, r=1.0)
    base_m = aux_moment(op, 1.0, start=0.0, path="quadrature")
    shifted = aux_moment(op, 1.0, start=0.7, path="quadrature")
    assert np.max(np.abs(shifted - base_m - 0.7)) < 1e-7


def test_aux_moment_rejects_unknown_path():
    op = AugmentedOperator(base=_base(cutoff=8), n=1, alpha_frac=0.5)
    with pytest.raises(ValidationError):
        aux_moment(op, 1.0, path="monte-carlo")


@pytest.mark.parametrize("start", NON_FINITE)
@pytest.mark.parametrize("path", ["analytic", "quadrature"])
def test_moments_and_ibp_checks_refuse_a_non_finite_start(start, path):
    # a nan or inf start used to give rel_error = nan without a word
    base = build_symbol(PurePower(k=1), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    with pytest.raises(ValidationError, match="start must be one finite"):
        aux_moment(op, IBP_TIME, start=start, path=path)
    with pytest.raises(ValidationError, match="start must be one finite"):
        ibp_check(op, f, IBP_TIME, starts=[start], moment_path=path)


def test_aux_moment_refuses_a_start_that_is_not_one_number():
    op = AugmentedOperator(base=_base(cutoff=8), n=1, alpha_frac=0.5)
    for start in (np.zeros(17), [0.0], np.array([[0.5]]), [0.0, [1.0]], 1j,
                  "zero"):
        with pytest.raises(ValidationError, match="start must be one finite"):
            aux_moment(op, 1.0, start=start, path="quadrature")


def test_aux_moment_refuses_a_start_whose_window_doubles_cannot_resolve():
    # at 1e300 the 4097 window nodes collapse onto a few doubles, the
    # trapezoid reads 0, and lhs = rhs = 0 would pass vacuously
    base = build_symbol(PurePower(k=1), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    with pytest.raises(AuxDomainTooSmall, match="not resolved"):
        aux_moment(op, IBP_TIME, start=1e300, path="quadrature")
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    with pytest.raises(AuxDomainTooSmall, match="not resolved"):
        ibp_check(op, f, IBP_TIME, starts=[1e300], moment_path="quadrature")
    analytic = ibp_check(op, f, IBP_TIME, starts=[1e300])
    assert analytic.lhs > 1e299 and analytic.rel_error < 1e-10


def test_aux_moment_quadrature_holds_up_to_the_resolution_limit():
    # the largest power of ten the windows still resolve keeps the moment
    # to rounding; the next one is refused
    op = AugmentedOperator(base=_base(cutoff=8), n=1, alpha_frac=0.5, r=1.0)
    quad = aux_moment(op, 1.0, start=1e13, path="quadrature")
    analytic = aux_moment(op, 1.0, start=1e13).real
    assert np.max(np.abs(quad - analytic) / np.abs(analytic)) < 1e-14
    with pytest.raises(AuxDomainTooSmall):
        aux_moment(op, 1.0, start=1e14, path="quadrature")


# ---------------------------------------------------------------------------
# cascade integration by parts


@pytest.mark.parametrize("k,alpha,r,n", IBP_PRESETS)
def test_cascade_identity_holds_analytically(k, alpha, r, n):
    base = build_symbol(PurePower(k=k), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=n, alpha_frac=alpha, r=r)
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    res = ibp_check(op, f, IBP_TIME)
    assert res.rel_error < 1e-10


def test_cascade_identity_survives_quadrature_moments():
    base = build_symbol(PurePower(k=1), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    analytic = ibp_check(op, f, IBP_TIME, moment_path="analytic")
    quad = ibp_check(op, f, IBP_TIME, moment_path="quadrature")
    assert quad.rel_error < 1e-6
    assert abs(analytic.lhs - quad.lhs) < 1e-6 * (abs(analytic.lhs) + 1e-12)


def test_cascade_identity_away_from_origin():
    base = build_symbol(PurePower(k=2), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=0, alpha_frac=0.5, r=0.0)
    f = 1.0 + 0.5 * np.sin(2.0 * spatial_grid(IBP_RESOLUTION))
    res = ibp_check(op, f, 0.5, x=1.3)
    assert res.rel_error < 1e-10


def test_cascade_identity_with_nonzero_starts():
    base = build_symbol(PurePower(k=1), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=2, alpha_frac=0.25, r=1.0)
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    res = ibp_check(op, f, 1.0, starts=[0.3, -0.2])
    assert res.rel_error < 1e-10


def test_aliased_test_function_is_rejected():
    base = build_symbol(PurePower(k=1), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=0, alpha_frac=0.5)
    f = np.cos((IBP_CUTOFF - 1) * spatial_grid(IBP_RESOLUTION))
    with pytest.raises(MomentDiverged):
        ibp_check(op, f, 1.0)


def test_ibp_check_validates_inputs():
    base = build_symbol(PurePower(k=1), FrequencyGrid(1, IBP_CUTOFF))
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5)
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    with pytest.raises(ValidationError):
        ibp_check(op, f, 0.0)
    with pytest.raises(ValidationError):
        ibp_check(op, f, 1.0, starts=[0.1, 0.2])
    with pytest.raises(ValidationError):
        ibp_check(op, np.cos(spatial_grid(16)), 1.0)  # grid too coarse
    with pytest.raises(ValidationError, match="unknown moment path"):
        ibp_check(op, f, 1.0, moment_path="bogus")


def test_ibp_check_refuses_a_two_dimensional_base():
    # the check reads a grid function of one variable; a d = 2 lattice once
    # took its coefficients by the first coordinate alone and passed
    base = build_symbol(PurePower(k=1, d=2), FrequencyGrid(2, 8))
    op = AugmentedOperator(base=base, n=0, alpha_frac=0.5)
    with pytest.raises(ValidationError, match="one-dimensional"):
        ibp_check(op, np.cos(spatial_grid(64)), 0.5)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _preset_op(k, alpha, r, n):
    base = build_symbol(PurePower(k=k), FrequencyGrid(1, IBP_CUTOFF))
    return AugmentedOperator(base=base, n=n, alpha_frac=alpha, r=r)


@pytest.mark.parametrize("path", ["analytic", "quadrature"])
def test_shared_moments_match_independent_checks_bit_for_bit(path):
    columns = _ibp_columns(IBP_TIME, path)
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    alone = [ibp_check(_preset_op(*p), f, IBP_TIME, moment_path=path)
             for p in IBP_PRESETS]
    for name in ("lhs", "rhs", "rel_error"):
        assert np.array_equal(_bits(columns[name]),
                              _bits([getattr(res, name) for res in alone]))


def test_shared_moments_evaluate_each_distinct_moment_once(monkeypatch):
    calls, tables = [], []
    moment, table = nmhl.malliavin.aux_moment, nmhl.malliavin._aux_kernel_table

    def counted_moment(*args, **kwargs):
        calls.append(args)
        return moment(*args, **kwargs)

    def counted_table(*args):
        tables.append(args)
        return table(*args)

    monkeypatch.setattr(nmhl.malliavin, "aux_moment", counted_moment)
    monkeypatch.setattr(nmhl.malliavin, "_aux_kernel_table", counted_table)
    _ibp_columns(IBP_TIME, "quadrature")
    keys, table_keys = set(), set()
    for preset in IBP_PRESETS:
        op = _preset_op(*preset)
        shift = op.coupling_shift(IBP_TIME).tobytes()
        for start in [0.0] * op.n + [0.0]:
            keys.add((np.float64(start).tobytes(), IBP_TIME, op.aux_order,
                      shift))
        table_keys.add((IBP_TIME, op.aux_order))
    assert len(keys) < len(IBP_PRESETS)
    assert len(calls) == len(keys)
    assert len(tables) == len(table_keys)


@pytest.mark.parametrize("path", ["analytic", "quadrature"])
def test_ibp_check_alone_keeps_the_unshared_bits(path):
    f = np.cos(spatial_grid(IBP_RESOLUTION))
    cases = [(p, None) for p in IBP_PRESETS]
    cases += [((1, 0.25, 1.0, 2), [0.3, -0.2]), ((2, 0.5, 1.0, 1), [-0.0])]
    for preset, starts in cases:
        op = _preset_op(*preset)
        res = ibp_check(op, f, IBP_TIME, starts=starts, moment_path=path)
        want = oracles.ibp_check_unshared(op, f, IBP_TIME, starts=starts,
                                          moment_path=path)
        assert np.array_equal(_bits([res.lhs, res.rhs, res.rel_error]),
                              _bits(want)), (preset, starts)


# ---------------------------------------------------------------------------
# gauge potential


def test_default_gauge_potential_peaks_at_one_half():
    pot = gauge_conjugate(default_gauge())
    # C(u) = u / (1 + u^2) attains |C| = 1/2 exactly at u = +-1
    assert abs(pot.sup_c - 0.5) < 1e-10
    assert pot.bounded
    assert pot.sup_c1 <= 1.0 + 1e-6
    assert np.max(np.abs(pot.c_values)) <= 0.5 + 1e-12


def test_gauge_potential_numeric_derivative_fallback():
    analytic = gauge_conjugate(default_gauge())
    numeric = gauge_conjugate(GaugeFunction(g=lambda u: np.sqrt(1.0 + u**2), dg=None))
    assert abs(numeric.sup_c - analytic.sup_c) < 1e-8


# ---------------------------------------------------------------------------
# bounded-moment estimate


def test_bounded_moment_stable_under_domain_doubling():
    base = _base(k=1, cutoff=8)
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    h = np.ones(256)
    res = bounded_moment_check(op, h, 0.5, resolution=256)
    assert res.constant > 0.0
    assert np.isfinite(res.constant)
    assert res.doubling_drift is not None and res.doubling_drift < 0.02


def test_bounded_moment_scales_with_test_function():
    base = _base(k=1, cutoff=8)
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    grid = spatial_grid(256)
    one = bounded_moment_check(op, np.ones(256), 0.5, resolution=256,
                               check_doubling=False)
    bumpy = bounded_moment_check(op, 2.0 + np.cos(grid), 0.5, resolution=256,
                                 check_doubling=False)
    # dividing by ||h||_inf makes the constant insensitive to overall scale
    assert bumpy.constant == pytest.approx(one.constant, rel=0.5)


def test_bounded_moment_flags_short_domain():
    base = _base(k=1, cutoff=8)
    op = AugmentedOperator(base=base, n=1, alpha_frac=0.5, r=1.0)
    with pytest.raises(AuxDomainTooSmall):
        bounded_moment_check(op, np.ones(256), 0.5, u_max=0.05, resolution=256)


def test_bounded_moment_requires_single_auxiliary():
    op = AugmentedOperator(base=_base(cutoff=8), n=2, alpha_frac=0.5)
    with pytest.raises(ValidationError):
        bounded_moment_check(op, np.ones(256), 0.5, resolution=256)


# ---------------------------------------------------------------------------
# seminorm decay exponents


@pytest.mark.parametrize("k,alpha,l,expected", EXPONENT_PRESETS)
def test_decay_exponent_matches_alpha_times_order(k, alpha, l, expected):
    fit = exponent_fit(exponent_symbol(PurePower(k=k)), alpha, l, EXPONENT_TIMES)
    assert fit.r_squared >= 0.99
    assert abs(fit.r - expected) <= 0.05 * expected


def test_decay_exponents_add_over_derivative_order():
    sym = exponent_symbol(PurePower(k=1))
    r1 = exponent_fit(sym, 0.5, 1, EXPONENT_TIMES).r
    r2 = exponent_fit(sym, 0.5, 2, EXPONENT_TIMES).r
    r3 = exponent_fit(sym, 0.5, 3, EXPONENT_TIMES).r
    assert abs(r1 + r2 - r3) <= 0.05 * r3


def test_zero_order_seminorm_is_flat():
    fit = exponent_fit(exponent_symbol(PurePower(k=1)), 0.5, 0, EXPONENT_TIMES)
    assert fit.r == 0.0
    assert fit.r_squared == 1.0


def test_exponent_fit_validates_time_window():
    sym = exponent_symbol(PurePower(k=1))
    with pytest.raises(ValidationError):
        exponent_fit(sym, 0.5, 1, [1e-3, 2e-3])
    with pytest.raises(ValidationError):
        exponent_fit(sym, 0.5, 1, [1e-3, 2e-3, 4e-3])  # spans less than a decade
