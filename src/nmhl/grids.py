"""Frequency lattices and spatial grids on the circle and torus, and the
least-squares line that the package's fits share.

The torus has circumference 2*pi in every coordinate, so the dual lattice is
the integer lattice Z^d truncated to a box |xi_i| <= N.  All reductions over
lattice points run in a fixed order (ascending |xi|, ties broken
lexicographically) so results are bit-reproducible regardless of how the
tabulation itself was scheduled.

Lattice-sized passes run coordinate by coordinate, as flat elementwise
operations on one column at a time: numpy reduces a short trailing axis
(`axis=1` over d = 2) many times slower than it adds two flat columns, and
the per-coordinate form gives the same integers.  The norm sort runs on the
smallest unsigned dtype that holds d N^2, which numpy sorts stably by radix
up to 16 bits; equal keys keep their order, so the permutation is that of
an int64 stable sort.  Float sums over coordinates (`spectral.PurePower`)
follow the same rule and start from `0.0 +`, as `np.sum` does, so a -0.0
part such as the imaginary part of (-1 + 0j)**2 comes out +0.0 as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * np.pi

#: the most points a frequency lattice may hold, (2N + 1)^d: 15x the largest
#: preset lattice (d = 2, N = 128: 66,049 points); building a full one takes
#: about 65 MB
MAX_LATTICE_POINTS = 1 << 20
#: the most points of an FFT grid, M^d: 31x the largest preset one (d = 2,
#: M = 258: 66,564 points); 32 MB per complex array
MAX_FFT_POINTS = 1 << 21


def max_cutoff(d: int) -> int:
    """The largest cutoff N whose lattice on T^d fits MAX_LATTICE_POINTS."""
    return (_max_side(MAX_LATTICE_POINTS, d) - 1) // 2


def max_resolution(d: int) -> int:
    """The largest FFT size M per axis whose grid on T^d fits MAX_FFT_POINTS."""
    return _max_side(MAX_FFT_POINTS, d)


def _max_side(points: int, d: int) -> int:
    return points if d == 1 else math.isqrt(points)


@dataclass(frozen=True)
class FrequencyGrid:
    """Truncated integer frequency lattice for T^d, d in {1, 2}."""

    dimension: int
    cutoff: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValidationError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.cutoff < 1:
            raise ValidationError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.cutoff > max_cutoff(self.dimension):
            raise ValidationError(
                f"cutoff N={self.cutoff} exceeds {max_cutoff(self.dimension)}, the "
                f"largest on d = {self.dimension} (MAX_LATTICE_POINTS)")
        object.__setattr__(self, "points", _ordered_lattice(self.dimension, self.cutoff))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def fft_size(self, floor: int) -> int:
        """The FFT size a kernel on this lattice takes: 2N + 2, which
        resolves it, or `floor` where that is larger."""
        return max(floor, 2 * self.cutoff + 2)

    def fft_bins(self, m: int) -> tuple:
        """The FFT bins of the lattice on a grid of m points per axis, one
        index array per axis: point p goes in bin p mod m, for a grid that
        resolves the lattice and fits MAX_FFT_POINTS, 2N+1 <= m <= max_resolution(d)."""
        if m < 2 * self.cutoff + 1:
            raise ValidationError(
                f"resolution M={m} must be >= 2N+1={2 * self.cutoff + 1} to resolve the lattice"
            )
        if m > max_resolution(self.dimension):
            raise ValidationError(
                f"resolution M={m} exceeds {max_resolution(self.dimension)}, the largest "
                f"on d = {self.dimension} (grids.MAX_FFT_POINTS)")
        return tuple(np.mod(self.points, m).T)

    def boundary_shell(self) -> np.ndarray:
        """Mask of lattice points with max coordinate magnitude equal to N:
        since no coordinate exceeds N, those where some |p_i| == N."""
        shell = np.abs(self.points[:, 0]) == self.cutoff
        for i in range(1, self.dimension):
            shell |= np.abs(self.points[:, i]) == self.cutoff
        return shell

    def box_index(self) -> np.ndarray:
        """Lattice index of every point p of the box [-N, N]^d, at p + N."""
        n = self.cutoff
        box = np.empty((2 * n + 1,) * self.dimension, dtype=np.intp)
        box[tuple((self.points + n).T)] = np.arange(self.size)
        return box


def _ordered_lattice(d: int, n: int) -> np.ndarray:
    axes = [np.arange(-n, n + 1, dtype=np.int64)] * d
    coords = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
    # ascending Euclidean norm, lexicographic tie-break: the "ij" mesh is
    # already in lexicographic order, so a stable sort on the norm keeps it
    norms = coords[0] ** 2
    for c in coords[1:]:
        norms += c ** 2
    order = np.argsort(norms.astype(np.min_scalar_type(d * n * n)), kind="stable")
    return np.take(np.stack(coords, axis=1), order, axis=0)


def spatial_grid(m: int, d: int = 1) -> np.ndarray:
    """Uniform grid of m points per axis on [0, 2*pi)."""
    return axis_mesh(TWO_PI * np.arange(m) / m, d)


def axis_mesh(x: np.ndarray, d: int) -> np.ndarray:
    """The points of x^d with the coordinates on the last axis; for d = 1,
    x itself (a one-dimensional symbol takes bare frequencies)."""
    if d == 1:
        return x
    return np.stack(np.meshgrid(*[x] * d, indexing="ij"), axis=-1)


def wrap_angle(z):
    """Reduce to the centered fundamental domain (-pi, pi]."""
    out = np.mod(np.asarray(z, dtype=float) + np.pi, TWO_PI) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def line_fit(x, y) -> tuple:
    """Least-squares line through (x, y): the `np.polyfit` coefficients
    (slope, intercept) and R^2, which is 1 when y is constant."""
    coef = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - np.polyval(coef, x)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return coef, (1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)
