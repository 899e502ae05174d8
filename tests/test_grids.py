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


def lattice_by_row_reduction(d: int, n: int) -> np.ndarray:
    """The lattice as one `axis=1` norm reduction and an int64 stable
    argsort laid it out before its passes ran coordinate by coordinate."""
    axes = [np.arange(-n, n + 1)] * d
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    norms = np.sum(pts.astype(np.int64) ** 2, axis=1)
    return pts[np.argsort(norms, kind="stable")]


# N on both sides of the uint8 and uint16 bounds of the sort key d N^2:
# d = 1 at N = 15/16 and 255/256, d = 2 at N = 11/12 and 181/182
@pytest.mark.parametrize("d, n", [(1, 15), (1, 16), (1, 255), (1, 256), (1, 4096),
                                  (2, 11), (2, 12), (2, 181), (2, 182)])
def test_lattice_and_shell_match_the_row_reduction(d, n):
    points = _ordered_lattice(d, n)
    expected = lattice_by_row_reduction(d, n)
    assert points.dtype == expected.dtype and points.flags.c_contiguous
    assert np.array_equal(points, expected)
    shell = FrequencyGrid(d, n).boundary_shell()
    assert np.array_equal(shell, np.max(np.abs(expected), axis=1) == n)


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
