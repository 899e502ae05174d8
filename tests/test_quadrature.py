"""The two array quadratures against independent references: the auxiliary
kernel table (closed form and FFT) against the trapezoid cosine table it
replaced, and the Gauss-Jacobi jump symbol against the flat density's power
series and scipy's adaptive quad."""

import math
import time
import warnings

import numpy as np
import pytest

import oracles
from nmhl import Levy, levy_hamiltonian, levy_symbol
from nmhl.errors import QuadratureNonConverged, TiltOutOfDomain
from nmhl.ldp import lagrangian_table, legendre
from nmhl.malliavin import _aux_kernel_table
from nmhl.presets import flat_density


def table_against_trapezoid(t: float, aux_order: int) -> float:
    """Largest gap between the package's table and the trapezoid reference
    on every 64th table point, relative to the kernel's peak."""
    z, kappa = _aux_kernel_table(t, aux_order, 16.0 * t ** (1.0 / aux_order))
    ref = oracles.aux_kernel_trapezoid(t, aux_order, z[::64])
    return float(np.max(np.abs(kappa[::64] - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("t", [0.01, 0.25, 1.0])
def test_second_order_kernel_is_the_closed_form_gaussian(t):
    assert table_against_trapezoid(t, 2) <= 1e-14


@pytest.mark.parametrize("aux_order", [4, 6])
@pytest.mark.parametrize("t", [0.01, 1.0])
def test_higher_order_kernels_by_fft_match_the_trapezoid(aux_order, t):
    assert table_against_trapezoid(t, aux_order) <= 1e-12


@pytest.mark.parametrize("l,alpha", [(1, -0.5), (1, -0.25), (3, -0.5)])
def test_jump_symbol_matches_the_flat_density_series(l, alpha):
    xi = np.arange(65.0)
    got = levy_symbol(flat_density(tol=1e-12), l, alpha, xi)
    ref = np.array([oracles.levy_flat_series(v, l, alpha) for v in xi])
    assert got.shape == xi.shape
    assert np.all(got.imag == 0.0)
    assert np.all(np.abs(got.real - ref) <= 1e-13 * np.abs(ref))


def test_jump_hamiltonian_matches_the_positive_term_series():
    xi = np.arange(0.0, 33.0)
    got = levy_hamiltonian(flat_density(tol=1e-12), 1, -0.5, xi)
    ref = np.array([oracles.levy_flat_series(v, 1, -0.5, hyperbolic=True)
                    for v in xi])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_shifted_jump_symbol_matches_adaptive_quadrature():
    z = 3.0 - 2.0j
    got = levy_symbol(flat_density(tol=1e-12), 1, -0.5, z)
    ref = oracles.levy_symbol_quad(lambda y: 1.0, 1.0, 1, -0.5, z)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_jump_rule_reports_a_tolerance_it_cannot_reach():
    with pytest.raises(QuadratureNonConverged, match="Gauss-Jacobi"):
        levy_symbol(flat_density(tol=1e-22), 1, -0.5, 5.0)


def test_jump_symbol_refuses_shifts_past_the_budget():
    dens = flat_density(support=0.5)
    levy_symbol(dens, 1, -0.5, 1.0 - 59.0j)
    with pytest.raises(TiltOutOfDomain):
        levy_symbol(dens, 1, -0.5, np.array([1.0, 1.0 - 61.0j]))


def test_jump_lagrangian_table_is_quick_and_below_every_tangent():
    spec = Levy(l=1, alpha_levy=-0.5, density=flat_density())
    p_max = 2.0 * (1.0 + 4.0 * math.pi)
    start = time.perf_counter()
    lag = lagrangian_table(spec.hamiltonian(), p_max, n=33)
    # the scalar-quadrature table this replaces took 13.6 s
    assert time.perf_counter() - start < 8.0
    # Fenchel: L(p) >= p xi - H(xi) for every p and xi, with equality at the
    # maximizer; the table's slopes are its maximizers, so probe there
    xi = lag.slopes
    h = np.array([oracles.levy_hamiltonian_riemann(v) for v in xi])
    gap = lag.values[:, None] - (np.outer(lag.p_grid, xi) - h[None, :])
    scale = 1.0 + np.abs(lag.values)
    assert np.all(gap >= -1e-9 * scale[:, None])
    assert np.all(np.abs(np.diag(gap)) <= 1e-9 * scale)


def test_jump_hamiltonian_names_the_cosh_overflow():
    # past support * |xi| = log(max float) cosh overflows: the error names the
    # overflow, and no numpy warning comes before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TiltOutOfDomain, match="overflows"):
            levy_hamiltonian(flat_density(), 1, -0.5, 800.0)
    # a large momentum keeps its maximizer well inside the limit
    h = Levy(l=1, alpha_levy=-0.5, density=flat_density()).hamiltonian()
    assert legendre(h, 1e6) == pytest.approx(15436992.467835128, rel=1e-12)
