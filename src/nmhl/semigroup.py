"""Heat kernels and semigroup actions evaluated from Fourier symbols.

Everything here is spectral and exact in time: the kernel is a truncated
Fourier series with multiplier exp(-t a(xi)), perturbations enter through a
Volterra series whose iterated integrals are polynomial in the inner times
(hence integrated exactly by Gauss-Legendre rules), and tilts are complex
frequency shifts.  Kernels are functions of the difference y - x; the (x, y)
interface wraps this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ComplexResidue, CutoffTooSmall, QuadratureNonConverged,
                     SeriesDiverged, ValidationError)
from .grids import TWO_PI, FrequencyGrid, spatial_grid
from .spectral import (OperatorSpec, Perturbed, Symbol, _negation_permutation,
                       auto_cutoff, build_symbol, lattice_symbol)

_IMAG_TOL = 1e-10
#: largest |multiplier| a truncated series may keep on its outermost
#: frequencies; above it every evaluation raises CutoffTooSmall
EDGE_DAMPING = 1e-12
# grid size of the Chapman-Kolmogorov and symmetry checks
_CHECK_RESOLUTION = 512
# Gauss-Legendre nodes of the Volterra series, at least l_max + 3
_DUHAMEL_NODES = 16
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
    try:
        xv = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"source point must be numeric, got {x!r}") from None
    if xv.ndim == 0:
        xv = np.full(d, xv)
    if xv.shape != (d,):
        raise ValidationError(
            f"source point must be a scalar or have shape ({d},), got shape {xv.shape}")
    if not np.all(np.isfinite(xv)):
        raise ValidationError(f"source point must be finite, got {x!r}")
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
    z = np.asarray(offsets, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValidationError(f"offsets must be finite, got {offsets!r}")
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

#: smallest |p| / (sum_n |exp(-t a(n))| / 2 pi) the lattice sum resolves: its
#: rounding error stays near 3e-17 of that scale, so past this floor fewer
#: than five digits of p survive
_LATTICE_FLOOR = 1e-12


def _image_integral(spec: OperatorSpec, t: float, m: int, c: float, x: float,
                    tail: bool = False) -> tuple[float, float]:
    """(E, S) with exp(E) S = (1/2 pi) int exp(-t a(xi) + i xi x) w(xi) d xi
    over the real line for an even polynomial symbol a = c xi^m + ..., with
    w = 1 (the real-line kernel at x >= 0) or, with `tail`, w = i / xi (its
    mass beyond x).

    The line moves to Im xi = eta through the dominant saddles
    r exp(i theta) and -r exp(-i theta) of -t c xi^m + i xi x, where
    r = (x / (m c t))^(1/(m-1)) and theta = pi / (2(m-1)) (the saddle behind
    the sharp constant sigma_k); `tail` keeps the line a kernel width above
    the pole at 0.  There the integrand is O(1) once its largest exponent E is
    taken out, and the trapezoid rule converges geometrically
    (Trefethen-Weideman, SIAM Review 56, 2014).  Nodes come in pairs
    +-u + i eta with conjugate values, so the sum is real.
    """
    width = (c * t) ** (-1.0 / m)
    theta = math.pi / (2 * (m - 1))
    r = (x / (m * c * t)) ** (1.0 / (m - 1))
    eta = r * math.sin(theta)
    if tail:
        eta = max(eta, width)
    half = r * math.cos(theta) + 14.0 * width
    n = int(math.ceil(half / (0.03 * width)))
    xi = np.linspace(-half, half, 2 * n + 1) + 1j * eta
    expo = -t * spec.value(xi) + 1j * x * xi
    top = float(np.max(expo.real))
    terms = np.exp(expo - top)
    if tail:
        terms *= 1j / xi
    return top, float(np.sum(terms.real)) * (half / n) / TWO_PI


def _log_image_sum(spec: OperatorSpec, t: float, images) -> tuple[float, int]:
    """(log |s|, sign of s) for s = sum over w of the terms of image w, by
    Poisson summation p_t(z) = sum_w P_t(z + 2 pi w) over the real-line
    kernel P_t.  ``images(w)`` lists the terms (coefficient, x, tail) of
    image w, each a `_image_integral`; w runs 0, then +-1, +-2, ..., until a
    pair lies `_IMAGE_EFOLDS` below the largest term, or raises
    QuadratureNonConverged past `_IMAGE_PAIRS_MAX` pairs."""
    m = spec.poly_degree
    # a = c xi^m + lower terms: the m-th difference at 0..m is m! c
    c = float(np.diff(spec.value(np.arange(m + 1.0)).real, m)[0]) / math.factorial(m)
    exps, coeffs = [], []
    for n in range(_IMAGE_PAIRS_MAX + 1):
        batch = [(coef, *_image_integral(spec, t, m, c, x, tail))
                 for w in ((0,) if n == 0 else (n, -n))
                 for coef, x, tail in images(w)]
        if n and max(e for _, e, _ in batch) < max(exps) - _IMAGE_EFOLDS:
            break
        exps += [e for _, e, _ in batch]
        coeffs += [coef * s for coef, _, s in batch]
    else:
        raise QuadratureNonConverged(
            f"the image sum at t={t:.3g} is still above its cut after "
            f"_IMAGE_PAIRS_MAX = {_IMAGE_PAIRS_MAX} image pairs")
    top = max(exps)
    total = math.fsum(s * math.exp(e - top) for e, s in zip(exps, coeffs))
    if total == 0:
        return -math.inf, 0
    return top + math.log(abs(total)), (1 if total > 0 else -1)


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
    if not math.isfinite(z):
        raise ValidationError(f"offset z must be finite, got {z}")
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
    return _log_image_sum(spec, t, lambda w: [(1.0, abs(z + TWO_PI * w), False)])[0]


# ---------------------------------------------------------------------------
# Volterra series for perturbed generators


@dataclass
class DuhamelResult:
    multiplier: np.ndarray      # truncated series, per lattice point
    remainder_bound: float      # sup over the lattice of the tail bound
    level_bounds: np.ndarray    # tail bound after truncating at each level
    levels: int


def _integration_matrix(nodes: np.ndarray, t: float) -> np.ndarray:
    """Map values at Gauss-Legendre nodes to values of the antiderivative
    (from 0) at the same nodes; exact for polynomials of degree < len(nodes).

    Built in the Legendre basis: analysis is the discrete transform (exact by
    quadrature), synthesis uses int P_k = (P_{k+1} - P_{k-1})/(2k+1), so the
    matrix stays well conditioned where a monomial Vandermonde would lose
    six digits at n = 16.
    """
    n = len(nodes)
    u, w = np.polynomial.legendre.leggauss(n)
    # p[k, i] = P_k(u_i), through degree n (synthesis needs one extra row)
    p = np.zeros((n + 1, n))
    p[0] = 1.0
    p[1] = u
    for k in range(1, n):
        p[k + 1] = ((2 * k + 1) * u * p[k] - k * p[k - 1]) / (k + 1)
    analysis = ((2 * np.arange(n) + 1)[:, None] / 2.0) * p[:n] * w
    synth = np.zeros((n, n))
    synth += (p[1] + p[0])[:, None] * analysis[0]          # int P_0 = u + 1
    for k in range(1, n):
        synth += ((p[k + 1] - p[k - 1]) / (2 * k + 1))[:, None] * analysis[k]
    return (t / 2.0) * synth


def duhamel_series(perturbed: Symbol, t: float, l_max: int = 8) -> DuhamelResult:
    """exp(-t(a+q)) for a `Perturbed` symbol a + q, as a truncated Volterra
    series around exp(-t a) of its base, tabulated on the same lattice;
    q is the difference of the two tables.

    The level-l iterated integral equals exp(-t a) (-t q)^l / l! analytically;
    numerically it is built by the nested quadrature, whose integrands are
    polynomial in the inner time, and the returned tail bound
    |exp(-t a)| (t|q|)^(L+1)/(L+1)! exp(t|q|) is checked per frequency.
    """
    _require_time(t)
    if l_max < 1:
        raise ValidationError(f"l_max must be >= 1, got {l_max}")
    if not isinstance(perturbed.spec, Perturbed):
        raise ValidationError(f"duhamel_series expands a Perturbed symbol, "
                              f"got {type(perturbed.spec).__name__}")
    a = build_symbol(perturbed.spec.base, perturbed.grid).values
    q = perturbed.values - a
    n_nodes = max(_DUHAMEL_NODES, l_max + 3)
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
    nodes = 0.5 * t * (gl_x + 1.0)
    weights = 0.5 * t * gl_w
    k_mat = _integration_matrix(nodes, t)

    # J_l(s) = exp(s a) I_l(s) is a degree-l polynomial: J_l = -q * int_0^s J_{l-1},
    # so both the node values and the endpoint integral are quadrature-exact.
    damp = np.exp(-t * a)
    tq = t * np.abs(q)
    tail = np.abs(damp) * np.exp(tq)
    j_nodes = np.ones((len(nodes), a.size), dtype=complex)
    partial = damp.copy()
    level_bounds = [float(np.max(tail * tq))]  # tail after keeping level 0
    for level in range(1, l_max + 1):
        j_t = -q * (weights @ j_nodes)       # J_level(t)
        j_nodes = -q * (k_mat @ j_nodes)     # J_level at the nodes
        partial = partial + damp * j_t
        level_bounds.append(
            float(np.max(tail * tq ** (level + 1) / math.factorial(level + 1)))
        )
    bounds = np.asarray(level_bounds)
    if len(bounds) >= 2 and bounds[-1] >= bounds[-2]:
        raise SeriesDiverged(
            f"remainder bound is not decreasing at l_max={l_max}; "
            f"increase l_max or shrink t*|q|"
        )
    return DuhamelResult(
        multiplier=partial,
        remainder_bound=float(bounds[-1]),
        level_bounds=bounds,
        levels=l_max,
    )


# ---------------------------------------------------------------------------
# tilted semigroups


@dataclass(frozen=True)
class TiltSpec:
    xi_tilt: float | tuple
    eps: float = 1.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValidationError(f"eps must be > 0, got {self.eps}")


@dataclass
class TiltedOperator:
    """Multiplier operator exp(-s a(xi - i c)) with c = xi_tilt / eps."""

    symbol: Symbol
    tilt: TiltSpec
    s: float
    multiplier: np.ndarray

    def kernel(self, resolution: int = 1024) -> np.ndarray:
        vals = _ifft_field(self.symbol.grid, self.multiplier, resolution)
        # Hermitian multiplier (even real-coefficient symbols): kernel is real
        return _real_part(vals, "tilted kernel")

    def l1_norm(self, resolution: int = 1024) -> float:
        vals = self.kernel(resolution)
        d = self.symbol.grid.dimension
        return float(np.sum(np.abs(vals)) * (TWO_PI / resolution) ** d)


def tilted_semigroup(symbol: Symbol, tilt: TiltSpec, s: float) -> TiltedOperator:
    """Conjugation by exp(<x, xi_tilt>/eps), realized as a complex frequency
    shift of the symbol the caller provides (pre-scale it for small-eps runs)."""
    _require_time(s)
    shift = np.asarray(tilt.xi_tilt, dtype=float) / tilt.eps
    z = symbol.grid.points.astype(float) - 1j * shift
    mult = np.exp(-s * symbol.spec.value(z).reshape(symbol.grid.size))
    return TiltedOperator(symbol=symbol, tilt=tilt, s=s, multiplier=mult)


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
