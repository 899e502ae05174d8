import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest

import oracles
from nmhl import (
    FractionalPower,
    FrequencyGrid,
    Levy,
    Perturbed,
    PurePower,
    auto_cutoff,
    build_symbol,
    chapman_kolmogorov_check,
    derivative_seminorm,
    heat_kernel,
    kernel_symmetry_check,
    kernel_values,
    log_abs_kernel,
    spatial_grid,
    tilted_semigroup,
)
from nmhl import semigroup
from nmhl.errors import (ComplexResidue, CutoffTooSmall, QuadratureNonConverged,
                         ValidationError)
from nmhl.presets import flat_density, varadhan_grid

GAUSS_DIAG_T1 = 0.28212397345676224   # (1/2pi) sum exp(-n^2), two oracle routes


def gaussian_symbol(cutoff=32):
    return build_symbol(PurePower(k=1), FrequencyGrid(1, cutoff))


def quartic_symbol(cutoff=16):
    return build_symbol(PurePower(k=2), FrequencyGrid(1, cutoff))


def test_gaussian_kernel_matches_image_sum():
    sym = gaussian_symbol()
    kern = heat_kernel(sym, 0.1, resolution=512)
    np.testing.assert_allclose(
        kern.values, oracles.wrapped_gaussian(0.1, kern.points), atol=1e-12
    )


def test_gaussian_diagonal_value():
    kern = heat_kernel(gaussian_symbol(), 1.0, resolution=256)
    assert kern.values[0] == pytest.approx(GAUSS_DIAG_T1, abs=1e-14)


def test_quartic_kernel_goes_negative_at_short_time():
    kern = heat_kernel(quartic_symbol(24), 0.01, resolution=512)
    assert float(np.min(kern.values)) < 0.0
    # but total mass is still exactly that of the zero mode
    assert kern.mass() == pytest.approx(1.0, abs=1e-12)


def test_drift_term_translates_the_kernel():
    # the odd first-order coefficient acts as pure transport by c*t
    c, t = 0.8, 0.2
    spec = Perturbed(base=PurePower(k=1), q_coeffs={(1,): c})
    kern = heat_kernel(build_symbol(spec, FrequencyGrid(1, 32)), t, resolution=512)
    np.testing.assert_allclose(
        kern.values, oracles.wrapped_gaussian(t, kern.points - c * t), atol=1e-12
    )


def test_2d_kernel_takes_a_scalar_source_point():
    # a scalar x in 2-D stands for (x, x); the Gaussian kernel factorizes
    sym = build_symbol(PurePower(k=1, d=2), FrequencyGrid(2, 24))
    t, x = 0.1, 0.7
    assert np.array_equal(heat_kernel(sym, t).values,
                          heat_kernel(sym, t, x=(0.0, 0.0)).values)
    kern = heat_kernel(sym, t, x=x, resolution=64)
    assert np.array_equal(kern.values,
                          heat_kernel(sym, t, x=np.array([x, x]), resolution=64).values)
    pts = kern.points
    expected = (oracles.wrapped_gaussian(t, pts[..., 0] - x)
                * oracles.wrapped_gaussian(t, pts[..., 1] - x))
    np.testing.assert_allclose(kern.values, expected, atol=1e-12)
    for bad in [(0.0, 1.0, 2.0), [[0.0, 1.0]], math.nan, (0.0, math.inf), "origin"]:
        with pytest.raises(ValidationError, match="source point"):
            heat_kernel(sym, t, x=bad)
    with pytest.raises(ValidationError, match="source point"):
        heat_kernel(gaussian_symbol(), t, x=math.nan)


def test_kernel_values_agree_with_dense_grid():
    sym = quartic_symbol()
    dense = heat_kernel(sym, 0.1, resolution=4096)
    idx = np.array([0, 300, 1024, 2000])
    vals = kernel_values(sym, 0.1, dense.points[idx])
    np.testing.assert_allclose(vals, dense.values[idx], atol=1e-12)


#: every time of both varadhan preset windows
LOOP_TIMES = sorted(set(oracles.geometric_grid(*varadhan_grid(1))
                        + oracles.geometric_grid(*varadhan_grid(2))))
LOOP_SPECS = {
    "k1": PurePower(k=1),
    "k2": PurePower(k=2),
    "k3": PurePower(k=3),
    "fractional": FractionalPower(base=PurePower(k=2), alpha_frac=0.75),
    "perturbed": Perturbed(base=PurePower(k=2), q_coeffs={(2,): 0.1, (1,): 0.3}),
    "levy": Levy(l=1, alpha_levy=-0.5, density=flat_density()),
}


@functools.cache
def loop_symbol(name):
    # one lattice per spec, damped at the smallest time
    spec = LOOP_SPECS[name]
    return build_symbol(spec, FrequencyGrid(1, auto_cutoff(spec, LOOP_TIMES[0])))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", LOOP_SPECS)
@pytest.mark.parametrize("t", LOOP_TIMES)
def test_kernel_values_has_the_bits_of_the_per_mode_loop(name, t):
    sym = loop_symbol(name)
    line = np.linspace(-math.pi, 2 * math.pi, 12)
    for offsets in (0.7, 2.5, np.float64(1.0), np.array(3.0), line[:1], line,
                    line.reshape(3, 4)):
        assert_same_bits(kernel_values(sym, t, offsets),
                         oracles.kernel_values_loop(sym, t, offsets))


@pytest.mark.parametrize("name", LOOP_SPECS)
def test_kernel_values_keeps_the_bits_across_blocks(name):
    # under the module's block size: an offset count that splits the modes
    # into four blocks, the last one partial, then one that splits the
    # offsets into three blocks, the last one partial
    sym = loop_symbol(name)
    modes, block = sym.grid.size, semigroup._SUM_BLOCK
    few = 3 * block // modes + 1
    rows = block // few
    assert modes // rows == 3 and modes % rows
    t = LOOP_TIMES[0]
    for count in (few, 2 * block + 5):
        offsets = np.linspace(-4.0, 4.0, count)
        assert_same_bits(kernel_values(sym, t, offsets),
                         oracles.kernel_values_loop(sym, t, offsets))


def test_chapman_kolmogorov_and_symmetry():
    sym = quartic_symbol()
    assert chapman_kolmogorov_check(sym, 0.05, 0.07) < 1e-10
    assert kernel_symmetry_check(sym, 0.05) < 1e-12


def test_symmetry_check_judges_the_tabulated_values():
    odd_drift = build_symbol(Perturbed(base=PurePower(k=2), q_coeffs={(1,): 0.3}),
                             FrequencyGrid(1, 16))
    with pytest.raises(ValidationError, match="real even"):
        kernel_symmetry_check(odd_drift, 0.05)
    # a real table that is not even is refused whatever its spec says
    even = build_symbol(PurePower(k=1), FrequencyGrid(1, 16))
    xi = even.grid.points[:, 0].astype(float)
    uneven = dataclasses.replace(even, values=xi**2 + 0.5 * xi + 0j)
    with pytest.raises(ValidationError, match="real even"):
        kernel_symmetry_check(uneven, 0.5)
    assert kernel_symmetry_check(even, 0.5) < 1e-12


def test_cutoff_too_small_carries_usable_suggestion():
    sym = build_symbol(PurePower(k=1), FrequencyGrid(1, 4))
    with pytest.raises(CutoffTooSmall) as exc_info:
        heat_kernel(sym, 0.001, resolution=64)
    suggested = exc_info.value.suggested_cutoff
    assert suggested is not None and suggested > 4
    retry = build_symbol(PurePower(k=1), FrequencyGrid(1, suggested))
    kern = heat_kernel(retry, 0.001, resolution=2 * suggested + 2)
    assert np.all(np.isfinite(kern.values))


@pytest.mark.parametrize("evaluate, suggests", [
    (lambda sym: heat_kernel(sym, 1e-3, resolution=64), True),
    (lambda sym: kernel_values(sym, 1e-3, 0.5), True),
    (lambda sym: derivative_seminorm(sym, 0.5, 1, 1e-3), False),
], ids=["heat_kernel", "kernel_values", "derivative_seminorm"])
def test_every_truncated_evaluation_refuses_an_undamped_edge(evaluate, suggests):
    # at t = 1e-3 the edge mode 8 keeps exp(-0.064) of its weight
    sym = build_symbol(PurePower(k=1), FrequencyGrid(1, 8))
    with pytest.raises(CutoffTooSmall) as exc_info:
        evaluate(sym)
    suggested = exc_info.value.suggested_cutoff
    if suggests:
        assert suggested is not None and suggested > 8
    else:
        assert suggested is None


def test_non_hermitian_multiplier_rejected():
    # no spec tabulates such a table: the values are altered after the build
    sym = build_symbol(PurePower(k=1), FrequencyGrid(1, 4))
    values = sym.values.copy()               # dissipative, passes truncation
    values[sym.grid.points[:, 0] == 1] += 1.0j  # breaks a(-xi) == conj(a(xi))
    sym = dataclasses.replace(sym, values=values)
    with pytest.raises(ComplexResidue):
        heat_kernel(sym, 2.5, resolution=64)


def test_tilted_semigroup_reduces_to_heat_kernel_at_zero_tilt():
    sym = gaussian_symbol()
    op = tilted_semigroup(sym, 0.0, 0.5, eps=1.0)
    np.testing.assert_allclose(
        op.kernel(resolution=512),
        heat_kernel(sym, 0.5, resolution=512).values,
        atol=1e-13,
    )
    assert op.l1_norm(resolution=512) == pytest.approx(1.0, abs=1e-12)


def test_tilted_2d_gaussian_shifts_both_coordinates():
    s, tau = 0.5, (0.3, -0.2)
    sym = build_symbol(PurePower(k=1, d=2), FrequencyGrid(2, 24))
    op = tilted_semigroup(sym, tau, s, eps=1.0)
    assert oracles.norm_on_constants(op) == pytest.approx(math.exp(s * 0.13), rel=1e-12)
    flat = tilted_semigroup(sym, (0.0, 0.0), s)
    np.testing.assert_allclose(flat.kernel(resolution=64),
                               heat_kernel(sym, s, resolution=64).values, atol=1e-13)


@pytest.mark.parametrize("xi_tilt, eps, name", [
    (math.nan, 1.0, "xi_tilt"),
    (-math.inf, 1.0, "xi_tilt"),
    (0.3, math.nan, "eps"),
    (0.3, math.inf, "eps"),
    (0.3, 0.0, "eps"),
])
def test_tilted_semigroup_names_a_nonfinite_argument(xi_tilt, eps, name):
    # a nan tilt once gave an operator whose L1 norm was nan
    with pytest.raises(ValidationError, match=f"^{name} must be (> 0 and )?finite, got "):
        tilted_semigroup(gaussian_symbol(), xi_tilt, 0.5, eps)


def test_tilted_semigroup_names_a_nonfinite_tilt_axis():
    sym = build_symbol(PurePower(k=1, d=2), FrequencyGrid(2, 8))
    with pytest.raises(ValidationError, match=r"^xi_tilt must be finite, got \(0\.3, nan\)"):
        tilted_semigroup(sym, (0.3, math.nan), 0.5)


def test_tilted_gaussian_matches_completed_square():
    s, tau = 0.7, 0.3
    sym = gaussian_symbol()
    op = tilted_semigroup(sym, tau, s, eps=1.0)
    z = spatial_grid(1024)
    z = np.where(z > np.pi, z - 2 * np.pi, z)
    np.testing.assert_allclose(
        op.kernel(resolution=1024),
        oracles.tilted_gaussian_kernel(s, tau, z),
        atol=1e-12,
    )
    assert oracles.norm_on_constants(op) == pytest.approx(math.exp(s * tau**2), rel=1e-12)


def test_log_abs_kernel_matches_dense_evaluation():
    spec = PurePower(k=2)
    sym = build_symbol(spec, FrequencyGrid(1, 24))
    dense = heat_kernel(sym, 0.05, resolution=256)
    z = float(dense.points[64])    # pi/2 exactly on the grid
    assert log_abs_kernel(spec, 0.05, z) == pytest.approx(
        math.log(abs(float(dense.values[64]))), abs=1e-9
    )


@pytest.mark.parametrize("t, z", [(0.01, 2.0), (0.002, 1.0), (0.002, 3.0)])
def test_log_abs_kernel_of_a_perturbed_quartic_matches_termwise_sum(t, z):
    # q = 0.5 (i xi)^2 + 1: a(n) = n^4 - 0.5 n^2 + 1
    spec = Perturbed(base=PurePower(k=2), q_coeffs={(2,): 0.5, (0,): 1.0})
    ref = oracles.mp_fourier_log(lambda n: n**4 - 0.5 * n**2 + 1,
                                 lambda n: mp.cos(n * z), t, n_cut=80)
    assert log_abs_kernel(spec, t, z) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("t, z", [(0.05, 1.0), (0.01, 2.5)])
def test_log_abs_kernel_of_a_fractional_power_matches_termwise_sum(t, z):
    # a(n) = (n^2)^(3/4) = |n|^(3/2)
    spec = FractionalPower(base=PurePower(k=1), alpha_frac=0.75)
    ref = oracles.mp_fourier_log(lambda n: n**1.5, lambda n: mp.cos(n * z),
                                 t, n_cut=4000)
    assert log_abs_kernel(spec, t, z) == pytest.approx(ref, rel=1e-12)


def test_log_abs_kernel_of_a_square_root_quartic_is_the_gaussian_where_resolvable():
    # (xi^4)^(1/2) = xi^2 takes the lattice sum; at t = 0.01, z = 1 the kernel
    # is 1.4e-11 of the sum's scale, so about five digits of p survive
    spec = FractionalPower(base=PurePower(k=2), alpha_frac=0.5)
    exact = oracles.wrapped_gaussian_log(0.01, 1.0)
    assert log_abs_kernel(spec, 0.01, 1.0) == pytest.approx(exact, abs=1e-5)


@pytest.mark.parametrize("spec, t", [
    # symbol xi^2: the exact log is -1560.31
    (FractionalPower(base=PurePower(k=2), alpha_frac=0.5), 1e-3),
    # a drift only translates the quartic kernel; |p| ~ 4e-17
    (Perturbed(base=PurePower(k=2), q_coeffs={(1,): 0.3}), 1e-5),
    # compactly supported density: an entire symbol; |p| ~ 9e-14
    (Levy(l=1, alpha_levy=-0.5, density=flat_density()), 1e-4),
])
def test_log_abs_kernel_refuses_a_kernel_below_the_lattice_rounding_floor(spec, t):
    # none is an even polynomial, and each kernel sinks into the rounding
    # noise of the lattice sum: a refusal, not the log of that noise
    with pytest.raises(ValidationError, match="rounding floor"):
        log_abs_kernel(spec, t, 2.5)


def test_log_abs_kernel_refuses_a_two_dimensional_symbol():
    # the image sum is one-dimensional: a 2-D spec must be refused,
    # not summed as if it were 1-D
    with pytest.raises(ValidationError, match="one-dimensional"):
        log_abs_kernel(PurePower(k=1, d=2), 0.05, 1.0)


@pytest.mark.parametrize("t, z", [(math.nan, 1.0), (math.inf, 1.0),
                                  (0.05, math.nan), (0.05, math.inf)])
def test_log_abs_kernel_refuses_nonfinite_arguments(t, z):
    with pytest.raises(ValidationError, match="finite"):
        log_abs_kernel(PurePower(k=1), t, z)


@pytest.mark.parametrize("t, offsets", [(math.nan, 0.5), (math.inf, 0.5),
                                        (0.5, math.nan), (0.5, [0.1, math.inf])])
def test_kernel_values_refuses_nonfinite_arguments(t, offsets):
    with pytest.raises(ValidationError, match="finite"):
        kernel_values(gaussian_symbol(), t, offsets)


def test_log_abs_kernel_never_returns_an_unsettled_estimate():
    # |log p| ~ 998 and ~ 1560, far past where a lattice sum cancels; the
    # periodized Gaussian is dominated by its m = 0 image at these t
    for t, z in [(0.1 * 0.5**6, 2.5), (1e-3, 2.5)]:
        exact = -z * z / (4 * t) - 0.5 * math.log(4 * math.pi * t)
        assert log_abs_kernel(PurePower(k=1), t, z) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", np.geomspace(1e-6, 1e-1, 6).tolist())
@pytest.mark.parametrize("z", [0.05, 0.3, 1.0, 2.5, math.pi])
def test_log_abs_kernel_matches_the_reference_at_every_depth(k, t, z):
    got = log_abs_kernel(PurePower(k=k), t, z)
    if k == 1:
        ref = oracles.wrapped_gaussian_log(t, z)
    else:
        # the termwise sum at the cutoff and precision that |log p| asks for
        need = abs(got) + 40.0
        n_cut = int(math.ceil((need / t) ** (1.0 / (2 * k)))) + 4
        if n_cut > 3000:
            pytest.skip(f"termwise reference needs {n_cut} terms")
        ref = oracles.mp_fourier_log(lambda n: n ** (2 * k), lambda n: mp.cos(n * z),
                                     t, n_cut, dps=30 + int(need / math.log(10.0)))
    assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("t", [1e-2, 1e-20, 1e-50, 1e-100, 1e-150])
@pytest.mark.parametrize("z", [0.05, 1.0, math.pi])
def test_gaussian_log_abs_kernel_holds_to_the_double_range(t, z):
    # the worst relative error measured over 149 times from 1e-2 to 1e-150
    # and six offsets was 4.6e-16
    got = log_abs_kernel(PurePower(k=1), t, z)
    assert got == pytest.approx(oracles.wrapped_gaussian_log(t, z), rel=1e-15)


def test_a_contour_whose_powers_overflow_is_refused():
    with pytest.raises(QuadratureNonConverged, match=r"reaches \|xi\| = 5e\+159, "
                       r"where \|xi\|\^2 overflows a double"):
        log_abs_kernel(PurePower(k=1), 1e-160, 1.0)


def test_derivative_seminorm_grows_as_t_shrinks():
    sym = build_symbol(PurePower(k=1), FrequencyGrid(1, 128))
    c_small = derivative_seminorm(sym, 0.5, 1, 0.01)
    c_large = derivative_seminorm(sym, 0.5, 1, 0.1)
    assert c_small > c_large > 0.0
