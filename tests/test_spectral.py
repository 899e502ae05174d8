import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nmhl import (
    FractionalPower,
    FrequencyGrid,
    Levy,
    LevyDensity,
    Perturbed,
    PurePower,
    QuadraticForm,
    Rescaled,
    auto_cutoff,
    build_symbol,
    levy_hamiltonian,
    levy_symbol,
    multi_indices,
)
from nmhl.errors import (
    BranchCut,
    DegreeViolation,
    NonPositiveDefiniteForm,
    ValidationError,
)
from nmhl.spectral import _negation_permutation

# frozen from tests/oracles.py (midpoint Riemann + Richardson, flat density
# on (0,1], l=1, alpha=-0.5)
LEVY_A = {1.0: 0.0327236161954, 2.0: 0.4957159646602, 5.0: 13.6228401258693}
LEVY_H = {1.0: 0.0339583137818, 2.0: 0.5748611643472}


def flat_density(tol=1e-12):
    return LevyDensity(
        h=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        support=1.0,
        tol=tol,
    )


def test_pure_power_lattice_values():
    sym = build_symbol(PurePower(k=2), FrequencyGrid(1, 6))
    xi = sym.grid.points[:, 0].astype(float)
    np.testing.assert_allclose(sym.values.real, xi**4, rtol=0, atol=0)
    neg = _negation_permutation(sym.grid)
    assert np.all(sym.values.imag == 0) and np.all(sym.values == sym.values[neg])
    assert sym.lattice_min_real() >= 0.0
    assert sym.spec.order == 4


def test_pure_power_2d_sums_axis_powers():
    sym = build_symbol(PurePower(k=1, d=2), FrequencyGrid(2, 3))
    pts = sym.grid.points.astype(float)
    np.testing.assert_allclose(sym.values.real, pts[:, 0] ** 2 + pts[:, 1] ** 2)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 4), n=st.integers(4, 12))
def test_symbol_even_under_frequency_negation(k, n):
    sym = build_symbol(PurePower(k=k), FrequencyGrid(1, n))
    xi = sym.grid.points[:, 0]
    by_freq = dict(zip(xi.tolist(), sym.values))
    for f in xi.tolist():
        assert by_freq[f] == pytest.approx(np.conj(by_freq[-f]))


@pytest.mark.parametrize("d, n", [(1, 1), (1, 7), (2, 1), (2, 9)])
def test_negation_permutation_maps_each_point_to_its_negative(d, n):
    grid = FrequencyGrid(d, n)
    neg = _negation_permutation(grid)
    np.testing.assert_array_equal(grid.points[neg], -grid.points)
    np.testing.assert_array_equal(np.sort(neg), np.arange(grid.size))


def test_pure_power_adds_its_coordinates_from_zero_as_np_sum():
    # (-1 + 0j)**2 = 1 - 0j: the sum starts from 0.0, as np.sum does, so
    # the imaginary part is +0.0, which symbol.csv writes as "0"
    value = PurePower(k=1).value(-1.0)
    assert value == 1.0 and math.copysign(1.0, value.imag) == 1.0
    zeros = [complex(a, b) for a in (0.0, -0.0, -1.0) for b in (0.0, -0.0, 1.0)]
    zz = np.array([[p, q] for p in zeros for q in zeros])
    for k in (1, 2, 3):
        got = PurePower(k=k, d=2).value(zz)
        assert got.tobytes() == np.sum(zz ** (2 * k), axis=-1).tobytes()
        got = PurePower(k=k).value(zz[:, 0])
        assert got.tobytes() == np.sum(zz[:, :1] ** (2 * k), axis=-1).tobytes()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_build_symbol_refuses_a_symbol_that_is_not_finite(bad):
    class Broken(PurePower):
        def _at(self, zz):
            out = super()._at(zz)
            out[-1] = bad
            return out

    with pytest.raises(ValidationError, match="^the Broken symbol is not finite "
                                              "on the lattice of cutoff N=4 on d = 1"):
        build_symbol(Broken(k=1), FrequencyGrid(1, 4))


def test_quadratic_form_identity_matches_pure_power():
    k = 2
    n = len(multi_indices(1, k))
    qf = QuadraticForm(k=k, a_matrix=np.eye(n))
    grid = FrequencyGrid(1, 5)
    np.testing.assert_allclose(
        build_symbol(qf, grid).values, build_symbol(PurePower(k=k), grid).values
    )


def test_quadratic_form_rejects_bad_matrices():
    n = len(multi_indices(2, 1))
    asym = np.eye(n)
    asym[0, 1] = 0.5
    with pytest.raises(NonPositiveDefiniteForm):
        QuadraticForm(k=1, a_matrix=asym, d=2)
    with pytest.raises(NonPositiveDefiniteForm):
        QuadraticForm(k=1, a_matrix=-np.eye(n), d=2)


def test_quadratic_form_cross_terms():
    # v = (xi_1, xi_2) for d=2, k=1; A adds a coupling below the diagonal cap
    a = np.array([[1.0, 0.4], [0.4, 1.0]])
    sym = build_symbol(QuadraticForm(k=1, a_matrix=a, d=2), FrequencyGrid(2, 3))
    pts = sym.grid.points.astype(float)
    expect = pts[:, 0] ** 2 + pts[:, 1] ** 2 + 0.8 * pts[:, 0] * pts[:, 1]
    np.testing.assert_allclose(sym.values.real, expect)


def test_perturbed_adds_lower_order_polynomial():
    spec = Perturbed(base=PurePower(k=2), q_coeffs={(2,): 0.1, (0,): 0.3})
    sym = build_symbol(spec, FrequencyGrid(1, 5))
    xi = sym.grid.points[:, 0].astype(float)
    np.testing.assert_allclose(sym.values.real, xi**4 - 0.1 * xi**2 + 0.3)


def test_perturbed_degree_capped_below_base_order():
    with pytest.raises(DegreeViolation):
        Perturbed(base=PurePower(k=1), q_coeffs={(2,): 1.0})
    with pytest.raises(DegreeViolation):
        Perturbed(base=PurePower(k=2), q_coeffs={(5,): 0.1})


def test_fractional_power_is_principal_branch():
    spec = FractionalPower(base=PurePower(k=2), alpha_frac=0.5)
    sym = build_symbol(spec, FrequencyGrid(1, 5))
    xi = sym.grid.points[:, 0].astype(float)
    np.testing.assert_allclose(sym.values.real, xi**2, atol=1e-12)
    assert spec.order == pytest.approx(2.0)


def test_fractional_power_branch_cut_on_negative_base():
    # shifting the base below zero puts a lattice value on the cut
    neg = Perturbed(base=PurePower(k=1), q_coeffs={(0,): -0.5})
    with pytest.raises(BranchCut):
        build_symbol(FractionalPower(base=neg, alpha_frac=0.5), FrequencyGrid(1, 4))


def test_rescaled_composes_prefactor_and_frequency_scale():
    base = PurePower(k=1)
    spec = Rescaled(base, prefactor=3.0, freq_scale=0.5)
    sym = build_symbol(spec, FrequencyGrid(1, 5))
    xi = sym.grid.points[:, 0].astype(float)
    np.testing.assert_allclose(sym.values.real, 3.0 * (0.5 * xi) ** 2)


def test_operator_value_accepts_complex_argument():
    z = 1.0 + 1.0j
    assert PurePower(k=2).value(z) == pytest.approx(z**4)
    assert Perturbed(base=PurePower(k=2), q_coeffs={(2,): 0.1}).value(z) \
        == pytest.approx(z**4 - 0.1 * z**2)


def test_levy_symbol_matches_riemann_oracle():
    dens = flat_density()
    for xi, expect in LEVY_A.items():
        assert levy_symbol(dens, 1, -0.5, xi).real == pytest.approx(expect, abs=1e-11)
        assert oracles.levy_symbol_riemann(xi) == pytest.approx(expect, abs=1e-9)


def test_levy_hamiltonian_matches_riemann_oracle():
    dens = flat_density()
    for xi, expect in LEVY_H.items():
        assert levy_hamiltonian(dens, 1, -0.5, xi) == pytest.approx(expect, abs=1e-11)
        assert oracles.levy_hamiltonian_riemann(xi) == pytest.approx(expect, abs=1e-9)


def test_levy_lattice_symbol_is_dissipative_and_even():
    spec = Levy(l=1, alpha_levy=-0.5, density=flat_density(tol=1e-10))
    sym = build_symbol(spec, FrequencyGrid(1, 8))
    neg = _negation_permutation(sym.grid)
    assert np.all(sym.values.imag == 0) and np.all(sym.values == sym.values[neg])
    assert sym.lattice_min_real() >= 0.0
    assert sym.spec.order == pytest.approx(2.5)


def test_levy_parameter_ranges():
    with pytest.raises(ValidationError):
        Levy(l=0, alpha_levy=-0.5, density=flat_density())
    with pytest.raises(ValidationError):
        Levy(l=1, alpha_levy=0.25, density=flat_density())


@pytest.mark.parametrize("spec,t", [
    (PurePower(k=1), 0.05),
    (PurePower(k=2), 0.01),
    (Perturbed(base=PurePower(k=2), q_coeffs={(2,): 0.1}), 0.02),
])
def test_auto_cutoff_is_the_smallest_admissible(spec, t):
    n = auto_cutoff(spec, t)
    damp_at = lambda m: float(np.exp(-t * spec.value(float(m)).real))
    assert damp_at(n) < 1e-16
    if n > 4:
        assert damp_at(n - 1) >= 1e-16


# ---------------------------------------------------------------------------
# the operator layer: which variants are even polynomials (the contour of
# `log_abs_kernel`), and each variant's Hamiltonian against its own symbol

@pytest.mark.parametrize("spec", [
    PurePower(k=2),
    QuadraticForm(k=1, a_matrix=np.array([[2.5]])),
    Perturbed(base=PurePower(k=2), q_coeffs={(2,): 0.1, (0,): 0.25}),
    Rescaled(Perturbed(base=PurePower(k=2), q_coeffs={(2,): -0.5}),
             prefactor=3.0, freq_scale=0.5),
], ids=lambda s: type(s).__name__)
def test_poly_degree_is_the_degree_of_an_even_polynomial(spec):
    degree = spec.poly_degree
    assert degree == spec.order
    n = np.arange(-4.0, 5.0)
    np.testing.assert_array_equal(spec.value(n), spec.value(-n))
    # the degree-th difference of a polynomial of that degree is constant
    diffs = np.diff(spec.value(n).real, degree)
    np.testing.assert_allclose(diffs, diffs[0], rtol=1e-12)


@pytest.mark.parametrize("spec", [
    PurePower(k=1, d=2),
    QuadraticForm(k=1, a_matrix=np.eye(2), d=2),
    FractionalPower(base=PurePower(k=2), alpha_frac=0.75),
    Perturbed(base=PurePower(k=2), q_coeffs={(1,): 0.3}),
    Levy(l=1, alpha_levy=-0.5, density=flat_density()),
], ids=lambda s: type(s).__name__)
def test_poly_degree_is_none_where_no_even_polynomial_exists(spec):
    assert spec.poly_degree is None


@pytest.mark.parametrize("spec", [
    PurePower(k=1),
    PurePower(k=3),
    QuadraticForm(k=2, a_matrix=np.array([[0.7]])),
    Rescaled(PurePower(k=2), prefactor=2.0, freq_scale=0.5),
], ids=lambda s: type(s).__name__)
def test_polynomial_hamiltonian_is_the_symbol_at_real_frequencies(spec):
    xi = np.linspace(-3.0, 3.0, 41)
    np.testing.assert_allclose(spec.hamiltonian()(xi), spec.value(xi).real,
                               rtol=1e-14, atol=0)
