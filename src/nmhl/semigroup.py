"""Heat kernels and semigroup actions evaluated from Fourier symbols.

Everything here is spectral and exact in time: the kernel is a truncated
Fourier series with multiplier exp(-t a(xi)), a small-time kernel too deep
for that sum is an image sum of saddle-shifted contour integrals, and tilts
are complex frequency shifts.  Kernels are functions of the difference
y - x; the (x, y) interface wraps this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ComplexResidue, CutoffTooSmall, QuadratureNonConverged,
                     ValidationError)
from .grids import TWO_PI, FrequencyGrid, _require_finite, _require_int, spatial_grid
from .spectral import (OperatorSpec, Symbol, _negation_permutation, auto_cutoff,
                       lattice_symbol)

_IMAG_TOL = 1e-10
#: largest |multiplier| a truncated series may keep on its outermost
#: frequencies; above it every evaluation raises CutoffTooSmall
EDGE_DAMPING = 1e-12
# grid size of the Chapman-Kolmogorov and symmetry checks
_CHECK_RESOLUTION = 512
# most modes x offsets elements one block of `kernel_values` holds: 256 KB
# of complex terms, which stay in cache
_SUM_BLOCK = 1 << 14


@dataclass
class KernelField:
    """Heat kernel p_t(x, .) sampled on the uniform spatial grid."""

    x: float | np.ndarray
    t: float
    resolution: int
    values: np.ndarray  # real, shape (M,) or (M, M)
    truncation: float   # max over the boundary shell of |exp(-t a)|
    dimension: int

    @property
    def points(self) -> np.ndarray:
        return spatial_grid(self.resolution, self.dimension)

    def mass(self) -> float:
        cell = (TWO_PI / self.resolution) ** self.dimension
        return float(np.sum(self.values) * cell)


def _require_time(t: float, zero_ok: bool = False):
    """Refuse a time that is not finite and > 0 (>= 0 with `zero_ok`)."""
    if not (math.isfinite(t) and (t > 0 or (zero_ok and t == 0))):
        bound = ">= 0" if zero_ok else "> 0"
        raise ValidationError(f"t must be {bound} and finite, got {t}")


def _require_dissipative(symbol: Symbol):
    # what the multiplier actually needs: Re a >= 0 at the lattice points
    lo = symbol.lattice_min_real()
    scale = max(1.0, float(np.max(np.abs(symbol.values))))
    if lo < -1e-12 * scale:
        raise ValidationError(
            f"kernel evaluation needs Re a >= 0 on the lattice (min {lo:.3e})"
        )


def _check_edge(edge: np.ndarray, t: float, what: str, spec) -> float:
    """max |edge|, the multiplier on the outermost frequencies of a truncated
    series, or CutoffTooSmall once it passes EDGE_DAMPING; a `spec` (not
    None) adds the `auto_cutoff` lattice as the suggested cutoff."""
    diag = float(np.max(np.abs(edge)))
    if diag > EDGE_DAMPING:
        suggested = None
        if spec is not None:
            try:
                suggested = auto_cutoff(spec, t)
            except ValidationError:
                suggested = None
        raise CutoffTooSmall(
            f"{what} damping {diag:.3e} exceeds threshold {EDGE_DAMPING:.1e} "
            f"at t={t:.3g}" + (f"; suggested cutoff N={suggested}" if suggested else ""),
            suggested_cutoff=suggested,
        )
    return diag


def _check_truncation(symbol: Symbol, t: float) -> float:
    shell = np.exp(-t * symbol.values[symbol.grid.boundary_shell()])
    return _check_edge(shell, t, "boundary-shell", symbol.spec)


def _ifft_field(grid: FrequencyGrid, coeffs: np.ndarray, m: int) -> np.ndarray:
    d, at = grid.dimension, grid.fft_bins(m)
    bins = np.zeros((m,) * d, dtype=complex)
    bins[at] = coeffs
    return np.fft.ifftn(bins) * (m**d / TWO_PI**d)


def _real_part(values: np.ndarray, context: str) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(values.real))))
    resid = float(np.max(np.abs(values.imag)))
    if resid > _IMAG_TOL * scale:
        raise ComplexResidue(
            f"{context}: imaginary residue {resid:.3e} above tolerance "
            f"(non-symmetric symbol fed to a real-kernel path?)"
        )
    return values.real


def _source_point(x, d: int) -> np.ndarray:
    """x as a finite point of T^d; a scalar is broadcast to every axis."""
    _require_finite("source point", x)
    xv = np.asarray(x, dtype=float)
    if xv.ndim == 0:
        xv = np.full(d, xv)
    if xv.shape != (d,):
        raise ValidationError(
            f"source point must be a scalar or have shape ({d},), got shape {xv.shape}")
    return xv


def heat_kernel(symbol: Symbol, t: float, x=0.0, resolution: int = 256) -> KernelField:
    """Kernel p_t(x, y_j) on the uniform grid, via the inverse transform of
    exp(-t a(xi)) exp(-i xi x).  In 2-D a scalar x stands for (x, x)."""
    _require_time(t)
    _require_dissipative(symbol)
    xv = _source_point(x, symbol.grid.dimension)
    diag = _check_truncation(symbol, t)
    mult = np.exp(-t * symbol.values)
    phase = np.exp(-1j * (symbol.grid.points.astype(float) @ xv))
    vals = _ifft_field(symbol.grid, mult * phase, resolution)
    out = _real_part(vals, "heat_kernel")
    if not np.all(np.isfinite(out)):
        raise ValidationError("kernel values are not finite")
    return KernelField(
        x=x, t=t, resolution=resolution, values=out,
        truncation=diag, dimension=symbol.grid.dimension,
    )


def kernel_values(symbol: Symbol, t: float, offsets):
    """p_t(0, z) at arbitrary offsets by the direct lattice sum (d = 1).

    The modes are added one after another in lattice order (ascending
    |xi|), by a cumulative sum down the mode axis, so the bits are those of
    a per-mode loop; `np.sum` would add in pairs and round differently.  The
    terms go through in blocks of at most `_SUM_BLOCK` modes x offsets
    elements, whatever the lattice and the number of offsets.  A block of
    modes starts from the running sums of the blocks before it, and each
    offset's sum is its own column, so blocking leaves the bits unchanged.
    """
    _require_time(t)
    _require_dissipative(symbol)
    if symbol.grid.dimension != 1:
        raise ValidationError("direct evaluation is one-dimensional")
    _check_truncation(symbol, t)
    _require_finite("offsets", offsets)
    z = np.asarray(offsets, dtype=float)
    flat = z.ravel()
    mult = np.exp(-t * symbol.values)[:, None]
    phase = 1j * symbol.grid.points[:, :1].astype(float)
    cols = max(1, min(flat.size, _SUM_BLOCK))
    rows = _SUM_BLOCK // cols
    acc = np.zeros(flat.shape, dtype=complex)
    for lo in range(0, flat.size, cols):
        zb = flat[lo:lo + cols]
        running = acc[lo:lo + cols]
        for r in range(0, len(mult), rows):
            terms = mult[r:r + rows] * np.exp(phase[r:r + rows] * zb)
            terms[0] += running
            running[...] = np.cumsum(terms, axis=0)[-1]
    out = _real_part(acc / TWO_PI, "kernel_values").reshape(z.shape)
    return out if z.ndim else float(out)


# ---------------------------------------------------------------------------
# pointwise logarithm of small-time kernels, which dip far below the
# double-precision cancellation floor of the lattice sum

_IMAGE_EFOLDS = 40.0   # image pairs this far below the largest one are dropped
#: the most image pairs one sum takes: 372x the 11 the preset curves take at
#: t = 0.1; k = 1 at t = 1e6 takes 2,014 (0.1 s)
_IMAGE_PAIRS_MAX = 4096
#: the most trapezoid nodes a side of one contour: 107x the 611 of k = 2 at
#: t = 1e-6, 3.8x the 17,169 of the k = 2 curve from t = 1e-30
_CONTOUR_NODES_MAX = 1 << 16

#: smallest |p| / (sum_n |exp(-t a(n))| / 2 pi) the lattice sum resolves: its
#: rounding error stays near 3e-17 of that scale, so past this floor fewer
#: than five digits of p survive
_LATTICE_FLOOR = 1e-12

#: log of the largest |xi|^m a contour may reach: a factor e below the
#: largest double, so no power of a node overflows
_LOG_POWER_MAX = math.log(np.finfo(float).max) - 1.0


def _image_integral(spec: OperatorSpec, t: float, m: int, c: float,
                    x: float) -> tuple[float, float]:
    """(E, S) with exp(E) S = (1/2 pi) int exp(-t a(xi) + i xi x) d xi, the
    real-line kernel at x >= 0, for an even polynomial symbol
    a = c xi^m + ....

    The line moves to Im xi = eta through the dominant saddles
    r exp(i theta) and -r exp(-i theta) of -t c xi^m + i xi x, where
    r = (x / (m c t))^(1/(m-1)) and theta = pi / (2(m-1)) (the saddle behind
    the sharp constant sigma_k); for m = 2 the two meet at i r.  There the
    integrand is O(1) once its largest exponent E is taken out, and the
    trapezoid rule converges geometrically (Trefethen-Weideman, SIAM Review
    56, 2014).  Nodes come in pairs +-u + i eta with conjugate values, so the
    sum is real.
    """
    width = (c * t) ** (-1.0 / m)
    theta = math.pi / (2 * (m - 1))
    r = (x / (m * c * t)) ** (1.0 / (m - 1))
    eta = r * math.sin(theta)
    # for m = 2 the saddle is i r; r cos(pi / 2), with cos(pi / 2) = 6.1e-17
    # rather than 0, would widen the line like 1/t
    half = (0.0 if m == 2 else r * math.cos(theta)) + 14.0 * width
    nodes = half / (0.03 * width)
    if not nodes <= _CONTOUR_NODES_MAX:
        raise QuadratureNonConverged(
            f"the contour at t={t:.3g}, x={x:.3g} needs {nodes:.3g} nodes a side, "
            f"above _CONTOUR_NODES_MAX = {_CONTOUR_NODES_MAX}")
    reach = math.hypot(half, eta)
    if not m * math.log(reach) < _LOG_POWER_MAX:
        raise QuadratureNonConverged(
            f"the contour at t={t:.3g}, x={x:.3g} reaches |xi| = {reach:.3g}, "
            f"where |xi|^{m} overflows a double")
    n = int(math.ceil(nodes))
    xi = np.linspace(-half, half, 2 * n + 1) + 1j * eta
    expo = -t * spec.value(xi) + 1j * x * xi
    top = float(np.max(expo.real))
    terms = np.exp(expo - top)
    return top, float(np.sum(terms.real)) * (half / n) / TWO_PI


def _log_image_sum(spec: OperatorSpec, t: float, z: float) -> float:
    """log |p_t(0, z)| for z in [-pi, pi], by Poisson summation
    p_t(z) = sum_w P_t(z + 2 pi w) over the real-line kernel P_t, each image
    an `_image_integral` at |z + 2 pi w|.  w runs 0, then +-1, +-2, ...,
    until a pair lies `_IMAGE_EFOLDS` below the largest image, or raises
    QuadratureNonConverged past `_IMAGE_PAIRS_MAX` pairs."""
    m = spec.poly_degree
    # a = c xi^m + lower terms: the m-th difference at 0..m is m! c
    c = float(np.diff(spec.value(np.arange(m + 1.0)).real, m)[0]) / math.factorial(m)
    exps, sums = [], []
    for n in range(_IMAGE_PAIRS_MAX + 1):
        batch = [_image_integral(spec, t, m, c, abs(z + TWO_PI * w))
                 for w in ((0,) if n == 0 else (n, -n))]
        if n and max(e for e, _ in batch) < max(exps) - _IMAGE_EFOLDS:
            break
        exps += [e for e, _ in batch]
        sums += [s for _, s in batch]
    else:
        raise QuadratureNonConverged(
            f"the image sum at t={t:.3g} is still above its cut after "
            f"_IMAGE_PAIRS_MAX = {_IMAGE_PAIRS_MAX} image pairs")
    top = max(exps)
    total = math.fsum(s * math.exp(e - top) for e, s in zip(exps, sums))
    return top + math.log(abs(total)) if total else -math.inf


def log_abs_kernel(spec: OperatorSpec, t: float, z: float) -> float:
    """log |p_t(0, z)| for a one-dimensional symbol, free of the cancellation
    that sinks the lattice sum once |log p| passes about 30.

    An even polynomial symbol (`poly_degree` not None) takes the image sum of
    `_log_image_sum` on saddle-shifted contours, accurate to about 1e-14
    relative at any depth.  Any other symbol takes the ordered lattice sum
    `kernel_values` on its `lattice_symbol` lattice, which resolves a kernel
    that decays only algebraically, as a fractional power's does, but not
    one that sinks to the rounding noise of its terms: below
    `_LATTICE_FLOOR` times their total magnitude the call raises
    ValidationError instead of returning the log of that noise.
    """
    _require_time(t)
    _require_finite("offset z", z, scalar=True)
    if spec.dimension != 1:
        raise ValidationError(
            f"log_abs_kernel is one-dimensional, got d = {spec.dimension}")
    if spec.poly_degree is None:
        sym = lattice_symbol(spec, t)
        p = kernel_values(sym, t, z)
        scale = float(np.sum(np.abs(np.exp(-t * sym.values)))) / TWO_PI
        if abs(p) < _LATTICE_FLOOR * scale:
            raise ValidationError(
                f"|p_t(0, {z})| = {abs(p):.3e} at t = {t} is below the rounding "
                f"floor {_LATTICE_FLOOR * scale:.3e} of the lattice sum, and "
                f"{type(spec).__name__} takes no contour (poly_degree None)")
        return math.log(abs(p))
    z -= TWO_PI * round(z / TWO_PI)
    return _log_image_sum(spec, t, z)


# ---------------------------------------------------------------------------
# tilted semigroups


@dataclass
class TiltedOperator:
    """Multiplier operator exp(-s a(xi - i c)) with c = xi_tilt / eps."""

    symbol: Symbol
    multiplier: np.ndarray

    def kernel(self, resolution: int = 1024) -> np.ndarray:
        vals = _ifft_field(self.symbol.grid, self.multiplier, resolution)
        # Hermitian multiplier (even real-coefficient symbols): kernel is real
        return _real_part(vals, "tilted kernel")

    def l1_norm(self, resolution: int = 1024) -> float:
        vals = self.kernel(resolution)
        d = self.symbol.grid.dimension
        return float(np.sum(np.abs(vals)) * (TWO_PI / resolution) ** d)


def tilted_semigroup(symbol: Symbol, xi_tilt, s: float,
                     eps: float = 1.0) -> TiltedOperator:
    """Conjugation by exp(<x, xi_tilt>/eps), realized as a complex frequency
    shift of the symbol the caller provides (pre-scale it for small-eps runs).
    `xi_tilt` is a number or, in d > 1, one per axis."""
    _require_time(s)
    _require_finite("eps", eps, positive=True)
    _require_finite("xi_tilt", xi_tilt)
    shift = np.asarray(xi_tilt, dtype=float) / eps
    z = symbol.grid.points.astype(float) - 1j * shift
    mult = np.exp(-s * symbol.spec.value(z).reshape(symbol.grid.size))
    return TiltedOperator(symbol=symbol, multiplier=mult)


# ---------------------------------------------------------------------------
# structural checks


def chapman_kolmogorov_check(symbol: Symbol, t: float, s: float) -> float:
    """max_y |p_{t+s}(0, y) - int p_t(0, z) p_s(z, y) dz| by grid quadrature."""
    _require_time(t)
    _require_time(s)
    d = symbol.grid.dimension
    pt = heat_kernel(symbol, t, resolution=_CHECK_RESOLUTION)
    ps = heat_kernel(symbol, s, resolution=_CHECK_RESOLUTION)
    conv = np.fft.ifftn(np.fft.fftn(pt.values) * np.fft.fftn(ps.values)).real
    conv *= (TWO_PI / _CHECK_RESOLUTION) ** d
    pts_combined = heat_kernel(symbol, t + s, resolution=_CHECK_RESOLUTION)
    return float(np.max(np.abs(pts_combined.values - conv)))


def kernel_symmetry_check(symbol: Symbol, t: float) -> float:
    """max |p_t(x, y) - p_t(y, x)|; the kernel is a function of y - x, so this
    is the deviation of the difference kernel from evenness."""
    a = symbol.values
    tol = 1e-12 * max(1.0, float(np.max(np.abs(a))))
    neg = _negation_permutation(symbol.grid)
    if np.max(np.abs(a.imag)) > tol or np.max(np.abs(a - a[neg])) > tol:
        raise ValidationError("symmetry check applies to real even symbols")
    f = heat_kernel(symbol, t, resolution=_CHECK_RESOLUTION)
    rev = np.roll(np.flip(f.values), 1, axis=tuple(range(f.values.ndim)))
    return float(np.max(np.abs(f.values - rev)))


def derivative_seminorm(symbol: Symbol, frac_alpha: float, l: int, t: float,
                        resolution: int | None = None) -> float:
    """L1 norm in y of the kernel of (L^alpha)^l exp(-t L) — the sharp constant
    in the sup-norm bound |P_t (L^alpha)^l f| <= C(t) ||f||_inf."""
    _require_time(t)
    _require_finite("frac_alpha", frac_alpha)
    _require_int("l", l)
    if resolution is None:
        resolution = symbol.grid.fft_size(2048)
    if l < 0:
        raise ValidationError(f"l must be >= 0, got {l}")
    a = symbol.values
    if l == 0:
        weight = np.ones_like(a)
    else:
        weight = np.zeros_like(a)
        nz = a != 0
        weight[nz] = np.exp(frac_alpha * l * np.log(a[nz].astype(complex)))
        weight[~nz] = 0.0
    coeffs = weight * np.exp(-t * a)
    _check_edge(coeffs[symbol.grid.boundary_shell()], t, "weighted boundary-shell",
                None)
    vals = _ifft_field(symbol.grid, coeffs, resolution)
    d = symbol.grid.dimension
    return float(np.sum(np.abs(vals)) * (TWO_PI / resolution) ** d)
