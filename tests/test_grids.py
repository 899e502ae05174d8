import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from nmhl import TWO_PI, FrequencyGrid, spatial_grid, wrap_angle
from nmhl.errors import ValidationError
from nmhl.grids import _ordered_lattice


def test_frequency_grid_orders_by_magnitude_then_lex():
    g = FrequencyGrid(1, 3)
    xi = g.points[:, 0].tolist()
    assert xi[0] == 0
    assert sorted(np.abs(xi)) == list(np.abs(xi))
    assert set(xi) == {-3, -2, -1, 0, 1, 2, 3}


def test_frequency_grid_2d_size_and_zero_first():
    g = FrequencyGrid(2, 4)
    assert g.points.shape == (9 * 9, 2)
    assert not np.any(g.points[0])
    # every lattice point within the box exactly once
    seen = {tuple(p) for p in g.points}
    assert len(seen) == 81


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 5, 32, 64, 128])
def test_lattice_order_matches_the_lexsort_order(d, n):
    assert np.array_equal(_ordered_lattice(d, n),
                          oracles.ordered_lattice_lexsort(d, n))


def test_boundary_shell_is_the_outer_layer():
    g = FrequencyGrid(1, 5)
    shell = g.points[g.boundary_shell()][:, 0]
    assert set(shell.tolist()) == {-5, 5}
    g2 = FrequencyGrid(2, 3)
    shell2 = g2.points[g2.boundary_shell()]
    assert np.all(np.max(np.abs(shell2), axis=1) == 3)


def test_grid_validation():
    with pytest.raises(ValidationError):
        FrequencyGrid(3, 4)
    with pytest.raises(ValidationError):
        FrequencyGrid(1, 0)


def test_spatial_grid_layout():
    x = spatial_grid(8)
    assert x.shape == (8,)
    assert x[0] == 0.0
    assert np.allclose(np.diff(x), TWO_PI / 8)
    xy = spatial_grid(8, 2)
    assert xy.shape == (8, 8, 2)
    assert xy[3, 5, 0] == x[3] and xy[3, 5, 1] == x[5]


@given(st.floats(-1e6, 1e6))
def test_wrap_angle_lands_in_fundamental_domain(z):
    w = float(wrap_angle(z))
    assert -np.pi < w <= np.pi
    # congruent mod 2 pi
    assert abs((z - w) / TWO_PI - round((z - w) / TWO_PI)) < 1e-6


@given(st.floats(-10.0, 10.0))
def test_wrap_angle_idempotent(z):
    w = float(wrap_angle(z))
    assert float(wrap_angle(w)) == pytest.approx(w, abs=1e-12)
