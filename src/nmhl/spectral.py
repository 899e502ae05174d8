"""Symbol calculus for invariant generators on the circle and flat torus.

Every generator is described by an OperatorSpec and realized as a Fourier
multiplier a(xi) tabulated on a truncated integer lattice.  One sign
convention is fixed throughout: symbols satisfy Re a >= 0 and the semigroup
is the multiplier exp(-t a(xi)), so even-order derivative operators enter as
a(xi) = sum_i xi_i^(2k) with no alternating-sign bookkeeping anywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .errors import (
    BranchCut,
    DegreeViolation,
    NonPositiveDefiniteForm,
    QuadratureNonConverged,
    SupUnbounded,
    TiltOutOfDomain,
    ValidationError,
)
from .grids import FrequencyGrid, max_cutoff

# quadrature error above this multiple of the requested tolerance is a failure
_QUAD_SLACK = 10.0
# exp(support * |Im xi|) amplifies quadrature error; beyond this we refuse
_LEVY_IM_BUDGET = 30.0
# cosh overflows double precision past this argument
_COSH_LIMIT = math.log(np.finfo(float).max)
# Gauss-Jacobi nodes beyond max |xi| * support, and the series terms past
# degree 2l that reach double precision for |u| <= 2
_RULE_NODES = 24
_TAIL_TERMS = 12
#: the most nodes of the coarse jump rule (the check rule takes twice as
#: many): 11x the 88 of the preset levy kernel, and above the 734 of the
#: widest levy Hamiltonian (support * |xi| up to _COSH_LIMIT).  The check
#: rule's dense Jacobi matrix is then at most 2048^2 doubles (32 MB)
_RULE_NODES_MAX = 1024
#: the largest l of a levy generator: `_compensated` takes Taylor
#: coefficients up to 1/(2l + 2 _TAIL_TERMS)!, and 170! is the largest
#: factorial below the double range
LEVY_L_MAX = (max(n for n in range(200) if math.lgamma(n + 1) < _COSH_LIMIT)
              - 2 * _TAIL_TERMS) // 2
# nodes x frequencies evaluated at once by the jump quadrature
_BLOCK_ELEMENTS = 1 << 20
# the discrete convexity check of a Hamiltonian: nodes on [-xi_max, xi_max]
_CONVEX_XI_MAX = 10.0
_CONVEX_NODES = 2001
#: `auto_cutoff` sizes the lattice until max |exp(-t Re a)| on its boundary
#: shell is below this, and gives up past _CUTOFF_MAX, or past the largest
#: lattice `grids.MAX_LATTICE_POINTS` admits (N = 511 on d = 2)
CUTOFF_DAMPING = 1e-16
_CUTOFF_MAX = 1 << 16


# ---------------------------------------------------------------------------
# operator descriptions


@dataclass
class Hamiltonian:
    """Convex even real-phase symbol xi -> H(xi), H(0) = 0 for the presets,
    with its derivatives `grad` (H') and `hess` (H''), which the Legendre
    solve takes its Newton steps on."""

    fun: Callable
    grad: Callable
    hess: Callable
    order: float

    def __call__(self, xi):
        return self.fun(np.asarray(xi, dtype=float))

    def validate_convex(self):
        xi = np.linspace(-_CONVEX_XI_MAX, _CONVEX_XI_MAX, _CONVEX_NODES)
        vals = np.asarray(self(xi), dtype=float)
        d2 = np.diff(vals, 2)
        if float(np.min(d2)) < -1e-10 * max(1.0, float(np.max(np.abs(vals)))):
            raise ValidationError("Hamiltonian fails the discrete convexity check")


class OperatorSpec:
    """Base class for generator descriptions; concrete variants below.

    A variant is one subclass.  It gives its `dimension`, `order` and
    `_at(zz)`, the symbol on a complex array whose last axis holds the d
    coordinates, and overrides the defaults below where they do not hold:
    `hamiltonian`, `poly_degree`, `maslov_factors` and `_check_branch`.
    """

    @property
    def dimension(self) -> int:
        raise NotImplementedError

    @property
    def order(self) -> float:
        raise NotImplementedError

    def value(self, z):
        """The symbol at arbitrary (real or complex) frequencies.

        For d = 1, `z` is any scalar or array; for d = 2 the last axis holds
        the two coordinates.  Returns complex values of matching shape.
        """
        d = self.dimension
        z = np.asarray(z, dtype=complex)
        if d == 1:
            return self._at(z[..., np.newaxis])
        if z.ndim == 0 or z.shape[-1] != d:
            raise ValidationError(f"frequency array must have last axis {d}")
        return self._at(z)

    def hamiltonian(self) -> Hamiltonian:
        """The real-phase Hamiltonian xi -> H(xi) of the generator."""
        raise ValidationError(f"no real-phase Hamiltonian for {type(self).__name__}")

    @property
    def poly_degree(self) -> int | None:
        """Degree of a one-dimensional symbol as an even polynomial, or None:
        the one fact the saddle-shifted contour of `semigroup.log_abs_kernel`
        needs."""
        return None

    def maslov_factors(self, k: int, eps: float) -> tuple[float, float]:
        """(prefactor, freq_scale) of the eps-scaled symbol: eps^(2k-1) a(xi)
        for differential symbols."""
        return float(eps) ** (2 * k - 1), 1.0

    def _check_branch(self, points: np.ndarray, scale: float):
        """Raise BranchCut where a fractional power meets Re < 0 on the
        lattice; nothing to check for other variants."""


class _Homogeneous(OperatorSpec):
    """A homogeneous polynomial symbol of degree 2k in d variables."""

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.d not in (1, 2):
            raise ValidationError(f"d must be 1 or 2, got {self.d}")

    @property
    def dimension(self) -> int:
        return self.d

    @property
    def order(self) -> float:
        return 2 * self.k

    def hamiltonian(self) -> Hamiltonian:
        # in one dimension a(xi) = c xi^(2k) with c = Re a(1)
        if self.d != 1:
            raise ValidationError(
                f"the real-phase Hamiltonian is one-dimensional, got d = {self.d}")
        c, m = float(np.real(self.value(1.0))), self.order
        return Hamiltonian(fun=lambda xi: c * xi ** m,
                           grad=lambda xi: m * c * xi ** (m - 1),
                           hess=lambda xi: m * (m - 1) * c * xi ** (m - 2),
                           order=m)

    @property
    def poly_degree(self) -> int | None:
        return 2 * self.k if self.d == 1 else None


@dataclass(frozen=True)
class PurePower(_Homogeneous):
    """a(xi) = sum_i xi_i^(2k), the constant-coefficient power of the Laplacian."""

    k: int
    d: int = 1

    def _at(self, zz):
        # coordinate by coordinate from 0.0, as np.sum adds: the start turns
        # a -0.0 imaginary part, such as that of (-1 + 0j)**2, into +0.0
        out = 0.0 + zz[..., 0] ** (2 * self.k)
        for i in range(1, zz.shape[-1]):
            out += zz[..., i] ** (2 * self.k)
        return out


def multi_indices(d: int, k: int) -> list[tuple[int, ...]]:
    """Length-k multi-indices over d coordinates, in deterministic order."""
    return list(combinations_with_replacement(range(d), k))


@dataclass(frozen=True, eq=False)
class QuadraticForm(_Homogeneous):
    """a(xi) = v(xi)^T A v(xi) with v the vector of degree-k monomials.

    A is indexed by `multi_indices(d, k)` and must be symmetric positive
    definite (checked by Cholesky).
    """

    k: int
    a_matrix: np.ndarray
    d: int = 1

    def __post_init__(self):
        super().__post_init__()
        a = np.asarray(self.a_matrix, dtype=float)
        # n = len(multi_indices(d, k)), counted without listing them
        n = math.comb(self.d + self.k - 1, self.k)
        if a.shape != (n, n):
            raise ValidationError(f"a_matrix must be {n}x{n} for d={self.d}, "
                                  f"k={self.k}, got {a.shape}")
        if not np.allclose(a, a.T, rtol=0, atol=1e-12):
            raise NonPositiveDefiniteForm("a_matrix is not symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NonPositiveDefiniteForm("a_matrix fails Cholesky") from None
        object.__setattr__(self, "a_matrix", a)

    def _at(self, zz):
        idx = multi_indices(self.d, self.k)
        mono = np.empty(zz.shape[:-1] + (len(idx),), dtype=complex)
        for m, ind in enumerate(idx):
            v = np.ones(zz.shape[:-1], dtype=complex)
            for j in ind:
                v = v * zz[..., j]
            mono[..., m] = v
        return np.einsum("...i,ij,...j->...", mono, self.a_matrix, mono)


@dataclass(frozen=True)
class LevyDensity:
    """Even, nonnegative jump density with compact support and h(0) = 1.

    `h` maps an array of jump sizes to their densities elementwise: the jump
    quadrature evaluates it on all of its nodes in one call.
    """

    h: Callable[[np.ndarray], np.ndarray]
    support: float
    tol: float = 1e-8

    def __post_init__(self):
        if self.support <= 0:
            raise ValidationError(f"support must be > 0, got {self.support}")
        if abs(float(self.h(np.zeros(1))[0]) - 1.0) > 1e-12:
            raise ValidationError("density must satisfy h(0) = 1")
        y = np.linspace(0.0, self.support, 17)[1:]
        vals = np.asarray(self.h(y), dtype=float)
        if np.any(np.abs(vals - np.asarray(self.h(-y), dtype=float)) > 1e-12):
            raise ValidationError("density must be even")
        if np.any(vals < -1e-15):
            raise ValidationError("density must be nonnegative")


@dataclass(frozen=True)
class Levy(OperatorSpec):
    """Compensated jump generator of effective order 2l + 1 + alpha_levy."""

    l: int
    alpha_levy: float
    density: LevyDensity

    def __post_init__(self):
        _check_levy_parameters(self.l, self.alpha_levy)

    @property
    def dimension(self) -> int:
        return 1

    @property
    def order(self) -> float:
        return 2 * self.l + 1 + self.alpha_levy

    def _at(self, zz):
        return np.asarray(levy_symbol(self.density, self.l, self.alpha_levy, zz[..., 0]))

    def hamiltonian(self) -> Hamiltonian:
        # the oscillatory kernel switched for its hyperbolic version; with
        # even l the compensated cosh is negative and concave, and so is H
        if self.l % 2 == 0:
            raise SupUnbounded(f"the real-phase Hamiltonian of a levy generator "
                               f"with even l = {self.l} is concave, not convex")
        args = (self.density, self.l, self.alpha_levy)
        return Hamiltonian(
            fun=lambda xi: levy_hamiltonian(*args, xi),
            grad=lambda xi: levy_hamiltonian(*args, xi, derivative=1),
            hess=lambda xi: levy_hamiltonian(*args, xi, derivative=2),
            order=2 * self.l)

    def maslov_factors(self, k: int, eps: float) -> tuple[float, float]:
        # (1/eps) a(eps xi), re-quadratured since eps*xi leaves the lattice
        return 1.0 / eps, eps


class _Wrapper(OperatorSpec):
    """A variant built on a `base` spec, whose dimension and order it keeps
    unless it overrides them."""

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @property
    def order(self) -> float:
        return self.base.order


@dataclass(frozen=True)
class FractionalPower(_Wrapper):
    """a(xi) = a_base(xi)^alpha_frac, principal branch on Re >= 0."""

    base: OperatorSpec
    alpha_frac: float

    def __post_init__(self):
        if not (0.0 < self.alpha_frac < 1.0):
            raise ValidationError(
                f"alpha_frac must lie in (0, 1), got {self.alpha_frac}"
            )

    @property
    def order(self) -> float:
        return self.alpha_frac * self.base.order

    def _at(self, zz):
        return _principal_power(self.base._at(zz), self.alpha_frac)

    def hamiltonian(self) -> Hamiltonian:
        base, alpha = self.base.hamiltonian(), self.alpha_frac

        def grad(xi):
            b = np.asarray(base.fun(xi))
            return alpha * b ** (alpha - 1.0) * base.grad(xi)

        def hess(xi):
            b = np.asarray(base.fun(xi))
            return alpha * b ** (alpha - 2.0) * (
                (alpha - 1.0) * base.grad(xi) ** 2 + b * base.hess(xi))

        return Hamiltonian(fun=lambda xi: np.asarray(base.fun(xi)) ** alpha,
                           grad=grad, hess=hess, order=alpha * base.order)

    def _check_branch(self, points: np.ndarray, scale: float):
        # reject fractional powers of symbols that dip into Re < 0
        if float(np.min(self.base.value(points).real)) < -1e-12 * scale:
            raise BranchCut("fractional power of a symbol with negative real part")


@dataclass(frozen=True, eq=False)
class Perturbed(_Wrapper):
    """a(xi) = a_base(xi) + Q(i xi) with deg Q strictly below the base order.

    q_coeffs maps exponent multi-indices (tuples of length d) to real
    coefficients of the polynomial Q evaluated at (i xi_1, ..., i xi_d).
    """

    base: OperatorSpec
    q_coeffs: dict

    def __post_init__(self):
        coeffs = dict(self.q_coeffs)
        d = self.base.dimension
        for expo, c in coeffs.items():
            if len(expo) != d or any(e < 0 for e in expo):
                raise ValidationError(f"bad exponent {expo} for d={d}")
            float(c)
        degree = max((sum(e) for e in coeffs), default=0)
        if degree >= self.base.order:
            raise DegreeViolation(
                f"perturbation degree {degree} must be < base order {self.base.order}"
            )
        object.__setattr__(self, "q_coeffs", coeffs)

    def _at(self, zz):
        out = self.base._at(zz)
        iz = 1j * zz
        for expo, c in self.q_coeffs.items():
            term = np.full(zz.shape[:-1], complex(c))
            for j, e in enumerate(expo):
                if e:
                    term = term * iz[..., j] ** e
            out = out + term
        return out

    @property
    def poly_degree(self) -> int | None:
        # the perturbation has a lower degree; an odd power breaks evenness
        if any(e % 2 for expo in self.q_coeffs for e in expo):
            return None
        return self.base.poly_degree


@dataclass(frozen=True)
class Rescaled(_Wrapper):
    """prefactor * a_base(freq_scale * xi): the eps-scaled symbol of the
    Maslov normalization (`ldp.maslov_scaled_spec`)."""

    base: OperatorSpec
    prefactor: float = 1.0
    freq_scale: float = 1.0

    def __post_init__(self):
        if self.prefactor <= 0 or self.freq_scale <= 0:
            raise ValidationError("prefactor and freq_scale must be > 0")

    def _at(self, zz):
        return self.prefactor * self.base._at(zz * self.freq_scale)

    def hamiltonian(self) -> Hamiltonian:
        inner = self.base.hamiltonian()
        pref, scale = self.prefactor, self.freq_scale
        at = lambda xi: np.asarray(xi, dtype=float) * scale
        return Hamiltonian(
            fun=lambda xi: pref * inner.fun(at(xi)),
            grad=lambda xi: pref * scale * inner.grad(at(xi)),
            hess=lambda xi: pref * scale**2 * inner.hess(at(xi)),
            order=inner.order)

    @property
    def poly_degree(self) -> int | None:
        return self.base.poly_degree

    def maslov_factors(self, k: int, eps: float) -> tuple[float, float]:
        return self.base.maslov_factors(k, eps)

    def _check_branch(self, points: np.ndarray, scale: float):
        self.base._check_branch(points, scale)


# ---------------------------------------------------------------------------
# the jump quadrature: one Gauss-Jacobi rule for every frequency


def _horner(coeffs, x):
    acc = np.zeros_like(x)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _compensated(u, l: int, odd: bool):
    """cos(u) minus its Taylor polynomial through degree 2l, or with `odd`
    sin(u) minus its Taylor polynomial through degree 2l - 1, elementwise for
    real or complex u: the series tail where |u| <= 2 (the direct difference
    would cancel there), the direct difference beyond."""
    u2 = u * u
    kept = l if odd else l + 1      # Taylor terms subtracted
    coeffs = [(-1.0) ** j / math.factorial(2 * j + odd)
              for j in range(kept + _TAIL_TERMS)]
    small = np.abs(u) <= 2.0
    s2 = u2[small]
    tail = s2 ** kept * _horner(coeffs[kept:], s2)
    if odd:
        out = np.sin(u) - u * _horner(coeffs[:kept], u2)
        out[small] = u[small] * tail
    else:
        out = np.cos(u) - _horner(coeffs[:kept], u2)
        out[small] = tail
    return out


@lru_cache(maxsize=16)
def _gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point rule for int_0^1 s^beta f(s) ds: Golub-Welsch on the Jacobi
    matrix of the weight (1 + x)^beta on [-1, 1], mapped by s = (1 + x)/2."""
    k = np.arange(n, dtype=float)
    m = 2.0 * k + beta
    diag = beta * beta / (m * (m + 2.0))
    kk, mm = k[1:], m[1:]
    off = 2.0 * kk * (kk + beta) / (mm * np.sqrt((mm + 1.0) * (mm - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    nodes, weights = 0.5 * (1.0 + x), vec[0] ** 2 / (beta + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _jump_integral(density: LevyDensity, l: int, alpha_levy: float, z,
                   odd: bool = False):
    """(-1)^(l+1) 2 int_0^S cos_comp(y z) h(y) y^-(2l+1+alpha) dy for every z,
    or with `odd` the same with sin_comp(y z) and y^-(2l+alpha).

    The integrand is y^(1-alpha) times an entire function of y, so a
    Gauss-Jacobi rule with that weight converges spectrally; its size follows
    max |z| S (the entire part oscillates or grows at that rate).  A rule of
    about twice the size checks it.  Weights that overflow, where the power of
    y underflows at the smallest nodes, raise QuadratureNonConverged.
    """
    z = np.asarray(z)
    flat = z.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValidationError("jump symbol frequencies must be finite")
    if not np.any(flat.imag):
        flat = flat.real
    supp, tol = density.support, density.tol
    reach = supp * float(np.max(np.abs(flat), initial=0.0))
    n = _RULE_NODES + int(math.ceil(reach))
    if n > _RULE_NODES_MAX:
        raise QuadratureNonConverged(
            f"the jump quadrature at support * max |xi| = {reach:.6g} needs a rule "
            f"of {n} nodes, above _RULE_NODES_MAX = {_RULE_NODES_MAX}")
    scale = (-1.0) ** (l + 1) * 2.0 * supp ** (2.0 - alpha_levy)
    rules = []
    for m in (n, 2 * n):
        s, w = _gauss_jacobi(m, 1.0 - alpha_levy)
        y = supp * s
        h = np.asarray(density.h(y), dtype=float)
        power = 2 * l + 2 - odd
        with np.errstate(all="ignore"):
            wt = scale * w * h / y ** power
        if not np.all(np.isfinite(wt)):
            raise QuadratureNonConverged(
                f"the jump rule of {m} nodes divides by y**{power}, which "
                f"overflows its weights at the smallest node y = {y[0]:.3e}")
        rules.append((y, wt))

    out = np.empty(flat.shape, dtype=complex)
    block = max(1, _BLOCK_ELEMENTS // (2 * n))
    for lo in range(0, flat.size, block):
        zb = flat[lo : lo + block]
        coarse, fine = (wt @ _compensated(np.multiply.outer(y, zb), l, odd)
                        for y, wt in rules)
        err = np.abs(fine - coarse)
        if not np.all(err <= _QUAD_SLACK * tol * (1.0 + np.abs(fine))):
            raise QuadratureNonConverged(
                f"Gauss-Jacobi rules of {n} and {2 * n} nodes differ by "
                f"{float(np.max(err)):.3e}, above tolerance {tol:.1e}"
            )
        out[lo : lo + block] = fine
    return out.reshape(z.shape)


def _check_levy_parameters(l: int, alpha_levy: float):
    if not (-1.0 < alpha_levy < 0.0):
        raise ValidationError(f"alpha_levy must lie in (-1, 0), got {alpha_levy}")
    if l < 1:
        raise ValidationError(f"l must be >= 1, got {l}")
    if l > LEVY_L_MAX:
        raise ValidationError(
            f"l must be <= LEVY_L_MAX = {LEVY_L_MAX}, got {l}: the series of "
            f"the compensated kernel needs (2l + {2 * _TAIL_TERMS})!, which "
            f"overflows double precision past it")


def levy_symbol(density: LevyDensity, l: int, alpha_levy: float, xi):
    """Compensated jump symbol at (possibly complex) frequencies.

    `xi` is a scalar or an array; the result is complex, of the same shape.
    For real xi the even density makes the result real; complex shifts are
    admitted while exp(support * |Im xi|) stays within the quadrature budget.
    The shifted symbol uses exp_comp(iyz) + exp_comp(-iyz) = 2 cos_comp(yz).
    """
    _check_levy_parameters(l, alpha_levy)
    z = np.asarray(xi, dtype=complex)
    shift = float(np.max(np.abs(z.imag), initial=0.0))
    if density.support * shift > _LEVY_IM_BUDGET:
        raise TiltOutOfDomain(
            f"imaginary shift {shift:.3g} exceeds the quadrature budget "
            f"{_LEVY_IM_BUDGET / density.support:.3g} for support {density.support:.3g}"
        )
    return _jump_integral(density, l, alpha_levy, z)[()]


def levy_hamiltonian(density: LevyDensity, l: int, alpha_levy: float, xi,
                     derivative: int = 0):
    """Real-phase version of levy_symbol, cos_comp(i y xi) = cosh_comp(y xi):
    even and vanishing at 0; convex for odd l, negative and concave for even
    l.  `xi` is a real scalar or array.

    `derivative` 1 or 2 gives H' or H'' by the same rule: differentiating
    cosh_comp(y xi) gives y sinh_comp(y xi), and sin_comp(i u) = i sinh_comp(u),
    so H' is the odd integral at i xi; a second derivative gives
    y^2 cosh_comp at one order lower, so H'' = -J_(l-1)(i xi) with J the
    cosine integral of `_jump_integral`.
    """
    _check_levy_parameters(l, alpha_levy)
    if derivative not in (0, 1, 2):
        raise ValidationError(f"derivative must be 0, 1 or 2, got {derivative!r}")
    xi = np.asarray(xi, dtype=float)
    reach = density.support * float(np.max(np.abs(xi), initial=0.0))
    if reach > _COSH_LIMIT:
        raise TiltOutOfDomain(
            f"cosh(support * xi) overflows double precision: support * |xi| = "
            f"{reach:.6g} exceeds {_COSH_LIMIT:.6g}"
        )
    if derivative == 1:
        return _jump_integral(density, l, alpha_levy, 1j * xi, odd=True).imag[()]
    if derivative == 2:
        return -_jump_integral(density, l - 1, alpha_levy, 1j * xi).real[()]
    return _jump_integral(density, l, alpha_levy, 1j * xi).real[()]


def _principal_power(w, alpha: float):
    w = np.asarray(w, dtype=complex)
    on_cut = (w.real < 0) & (np.abs(w.imag) <= 1e-14 * np.abs(w))
    if np.any(on_cut):
        raise BranchCut("fractional power hit the negative real axis")
    out = np.zeros_like(w)
    nz = w != 0
    out[nz] = np.exp(alpha * np.log(w[nz]))
    return out


# ---------------------------------------------------------------------------
# the tabulated symbol


@dataclass(eq=False)
class Symbol:
    """The Fourier multiplier of `spec` tabulated on a frequency lattice;
    `build_symbol` makes it."""

    grid: FrequencyGrid
    values: np.ndarray
    spec: OperatorSpec

    def lattice_min_real(self) -> float:
        return float(np.min(self.values.real))


def _negation_permutation(grid: FrequencyGrid) -> np.ndarray:
    """Lattice index of -p for every point p, looked up in the dense box
    [-N, N]^d that the lattice fills."""
    return grid.box_index()[tuple((grid.cutoff - grid.points).T)]


def build_symbol(spec: OperatorSpec, grid: FrequencyGrid) -> Symbol:
    """Tabulate an operator's symbol on a frequency lattice."""
    if spec.dimension != grid.dimension:
        raise ValidationError(
            f"spec dimension {spec.dimension} != grid dimension {grid.dimension}"
        )
    points = grid.points.astype(float)
    values = np.asarray(spec.value(points), dtype=complex).reshape(grid.size)
    peak = float(np.max(np.abs(values)))
    if not math.isfinite(peak):
        raise ValidationError(
            f"the {type(spec).__name__} symbol is not finite on the lattice of "
            f"cutoff N={grid.cutoff} on d = {grid.dimension} (max |a| = {peak})")
    spec._check_branch(points, max(1.0, peak))
    return Symbol(grid=grid, values=values, spec=spec)


# ---------------------------------------------------------------------------
# lattice cutoff


def _shell_min_real(spec: OperatorSpec, n: int) -> float:
    if spec.dimension == 1:
        return float(np.min(spec.value(np.array([-float(n), float(n)])).real))
    edge = np.arange(-n, n + 1, dtype=float)
    side = np.full_like(edge, float(n))
    ring = np.concatenate(
        [
            np.stack([side, edge], axis=-1),
            np.stack([-side, edge], axis=-1),
            np.stack([edge, side], axis=-1),
            np.stack([edge, -side], axis=-1),
        ]
    )
    return float(np.min(spec.value(ring).real))


def auto_cutoff(spec: OperatorSpec, t: float) -> int:
    """Smallest lattice cutoff N whose boundary shell satisfies
    max |exp(-t Re a)| < CUTOFF_DAMPING."""
    if t <= 0:
        raise ValidationError(f"t must be > 0, got {t}")
    target = -math.log(CUTOFF_DAMPING)

    def ok(n: int) -> bool:
        return t * _shell_min_real(spec, n) > target

    cap = min(_CUTOFF_MAX, max_cutoff(spec.dimension))
    n = 4
    while not ok(n):
        if n >= cap:
            raise ValidationError(f"no admissible cutoff below {cap} for t={t:.3g}")
        n = min(2 * n, cap)
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return max(hi, 4)


def lattice_symbol(spec: OperatorSpec, t: float, min_cutoff: int = 0) -> Symbol:
    """The symbol on the lattice a run at time t takes: the `auto_cutoff`
    lattice, or the `min_cutoff` one where that is larger."""
    cutoff = max(min_cutoff, auto_cutoff(spec, t))
    return build_symbol(spec, FrequencyGrid(spec.dimension, cutoff))
