"""Augmented (cascade) semigroups, integration-by-parts checks, the Davies
gauge transform, and the abelian Malliavin covariance.

The augmented generator couples the base operator to n auxiliary variables
u_1..u_n on the line through s^r L^alpha d/du_i plus an even-order auxiliary
diffusion.  All three pieces commute as Fourier multipliers, so the
time-ordered solution is a closed-form multiplier in (xi, eta).  The coupling
sign is normalized so that the first auxiliary moment picks up the factor
+int_0^t s^r ds; with the opposite sign the same identity holds with a minus
sign and every moment statement below would flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AuxDomainTooSmall,
    BranchCut,
    FitUnstable,
    MomentDiverged,
    ValidationError,
)
from .grids import TWO_PI, _require_finite, _require_int, line_fit
from .semigroup import _ifft_field, _require_time, derivative_seminorm
from .spectral import Symbol, _principal_power

# points of the auxiliary kernel table, and of each per-mode trapezoid rule
# of the quadrature moment path
_AUX_TABLE_POINTS = 32769
_MOMENT_POINTS = 4097
# fewest trapezoid points of the bounded-moment check
_BOUND_MIN_POINTS = 1025
# the gauge potential is tabulated on [-_GAUGE_U_MAX, _GAUGE_U_MAX]
_GAUGE_U_MAX = 20.0
_GAUGE_POINTS = 8001


@dataclass(frozen=True)
class AugmentedOperator:
    """Base symbol plus n auxiliary variables with fractional coupling.

    n = 0 is admitted and denotes the plain base semigroup; the
    integration-by-parts check augments whatever it is handed by one more
    variable.  The cascade weight is alpha_s = s^r.
    """

    base: Symbol
    n: int
    alpha_frac: float
    r: float = 1.0
    aux_order: int = 2

    def __post_init__(self):
        _require_int("n", self.n)
        _require_int("aux_order", self.aux_order)
        if self.n < 0:
            raise ValidationError(f"n must be >= 0, got {self.n}")
        if not (0.0 < self.alpha_frac < 1.0):
            raise ValidationError(
                f"alpha_frac must lie in (0, 1), got {self.alpha_frac}"
            )
        _require_finite("r", self.r)
        if self.r < 0:
            raise ValidationError(f"r must be >= 0, got {self.r}")
        if self.aux_order < 2 or self.aux_order % 2:
            raise ValidationError(
                f"aux_order must be even and >= 2, got {self.aux_order}"
            )
        if self.base.lattice_min_real() < -1e-12:
            raise ValidationError("base symbol must have Re a >= 0 on the lattice")

    def weight_integral(self, t: float) -> float:
        """int_0^t alpha_s ds = t^(r+1) / (r+1)."""
        return t ** (self.r + 1.0) / (self.r + 1.0)

    def coupling_shift(self, t: float) -> np.ndarray:
        """c(xi) = (int_0^t alpha_s ds) a(xi)^alpha per lattice point."""
        w = self.weight_integral(t)
        return w * _principal_power(self.base.values, self.alpha_frac)


def augmented_multiplier(op: AugmentedOperator, t: float, xi, eta) -> complex:
    """Closed-form multiplier exp[-t a + i w(t) a^alpha sum eta_j - t sum eta_j^2k].

    eta has length op.n; the three generator pieces commute, so this is the
    exact time-ordered solution, not an approximation.
    """
    _require_time(t, zero_ok=True)
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if eta.size != op.n:
        raise ValidationError(f"expected {op.n} auxiliary frequencies, got {eta.size}")
    a = complex(np.asarray(op.base.spec.value(xi)).reshape(()))
    if a.real < -1e-12:
        raise BranchCut("fractional power undefined for Re a < 0")
    w = op.weight_integral(t)
    a_alpha = complex(_principal_power(np.array([a]), op.alpha_frac)[0])
    return complex(
        np.exp(
            -t * a
            + 1j * w * a_alpha * float(np.sum(eta))
            - t * float(np.sum(eta**op.aux_order))
        )
    )


# ---------------------------------------------------------------------------
# auxiliary kernel machinery (quadrature moment path)


def _aux_kernel_table(t: float, aux_order: int, z_max: float):
    """kappa(z) = (1/pi) int_0^inf exp(-t eta^2k) cos(eta z) d eta on a dense
    grid over [-z_max, z_max].

    kappa is the centered auxiliary kernel; the coupled kernel at shift c is
    kappa(c - u).  kappa lives on the scale t^{1/2k}, so callers size z_max as
    a fixed multiple of that width and the table resolves it by construction.
    Order 2 is the Gaussian exp(-z^2/4t) / (2 sqrt(pi t)).  Higher orders are
    one inverse FFT on the table's z step over a periodic domain four times
    the table span: the order-6 kernel decays slowly enough that a domain
    twice the span aliases at 1e-9 of its peak.
    """
    z = np.linspace(-z_max, z_max, _AUX_TABLE_POINTS)
    if aux_order == 2:
        return z, np.exp(-z * z / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))
    half = (_AUX_TABLE_POINTS - 1) // 2
    dz = z_max / half
    m = 8 * half
    eta = TWO_PI * np.arange(m // 2 + 1) / (m * dz)
    periodic = np.fft.irfft(np.exp(-t * eta**aux_order), n=m) / dz
    return z, np.concatenate([periodic[-half:], periodic[: half + 1]])


def _interp_kernel(z_tab, k_tab, pts):
    return np.interp(pts, z_tab, k_tab, left=0.0, right=0.0)


def _require_start(start) -> float:
    """Refuse a start that is not one finite number."""
    _require_finite("start", start, scalar=True)
    return float(start)


def aux_moment(op: AugmentedOperator, t: float, start=0.0,
               path: str = "analytic", *,
               kernel_tables: dict | None = None) -> np.ndarray:
    """First moment E[u] of one auxiliary variable per lattice mode.

    analytic: start + c(xi) from the eta-derivative of the multiplier at 0.
    quadrature: trapezoid of u * kappa(start + c - u) on the truncated domain,
    which carries honest truncation/discretization error.  A caller taking
    several moments passes one `kernel_tables` dict to all of them, so the
    kernel table of each (t, aux_order) is built once; None builds it afresh.
    """
    _require_time(t)
    start = _require_start(start)
    c = op.coupling_shift(t)
    if path == "analytic":
        return start + c
    if path != "quadrature":
        raise ValidationError(f"unknown moment path {path!r}")
    if np.max(np.abs(c.imag)) > 1e-12:
        raise ValidationError("quadrature moments need real coupling shifts")
    c = c.real
    wid = t ** (1.0 / op.aux_order)
    centers = start + c
    reach = float(np.max(np.abs(centers)))
    u_max = 12.0 * wid + reach
    # the kernel has width ~wid around each center: integrate per mode over
    # the local window clipped to the truncated domain, which holds every
    # center, so the window is never empty
    window = 14.0 * wid
    # the nodes of every window must be distinct doubles: far enough out,
    # a window collapses onto a few of them and its moment reads 0
    step = 2.0 * window / (_MOMENT_POINTS - 1)
    if not step > np.spacing(reach + window):
        raise AuxDomainTooSmall(
            f"moment windows of width {2.0 * window:.3g} at centers up to "
            f"{reach:.3g} are not resolved in double precision"
        )
    key = (np.float64(t).tobytes(), op.aux_order)
    tables = {} if kernel_tables is None else kernel_tables
    if key not in tables:
        tables[key] = _aux_kernel_table(t, op.aux_order, 16.0 * wid)
    z_tab, k_tab = tables[key]
    # c(xi) is even, so about half the modes share a center: integrate once
    # per distinct center
    distinct, inverse = np.unique(centers, return_inverse=True)
    out = np.empty(distinct.shape)
    for i, ci in enumerate(distinct):
        u = np.linspace(max(-u_max, ci - window), min(u_max, ci + window),
                        _MOMENT_POINTS)
        vals = _interp_kernel(z_tab, k_tab, ci - u)
        out[i] = np.trapezoid(u * vals, u)
    return out[inverse].reshape(centers.shape)


class _MomentMemo:
    """The auxiliary moments of one run of ibp checks.

    A moment depends only on its start, t, aux_order, path and the coupling
    shifts c(xi), so it is kept under their bits (-0.0 and 0.0 stay apart)
    and checks whose operators share them share it; the kernel tables are
    shared the same way.  Nothing is kept beyond the memo's owner.
    """

    def __init__(self):
        self.moments = {}
        self.kernel_tables = {}

    def moment(self, op: AugmentedOperator, t: float, start: float,
               path: str) -> np.ndarray:
        key = (np.float64(start).tobytes(), np.float64(t).tobytes(),
               op.aux_order, path, op.coupling_shift(t).tobytes())
        if key not in self.moments:
            self.moments[key] = aux_moment(op, t, start=start, path=path,
                                           kernel_tables=self.kernel_tables)
        return self.moments[key]


# ---------------------------------------------------------------------------
# integration-by-parts checks


@dataclass
class IbpResult:
    lhs: float
    rhs: float
    rel_error: float

    def __float__(self) -> float:
        return self.rel_error


def _grid_coefficients(symbol: Symbol, f: np.ndarray) -> np.ndarray:
    """Fourier coefficients of a grid function, mapped onto the lattice."""
    if symbol.grid.dimension != 1:
        raise ValidationError("integration-by-parts checks are one-dimensional")
    m = f.shape[0]
    coeffs = (np.fft.fft(f) / m)[symbol.grid.fft_bins(m)]
    # band-limit check: content at the lattice edge means aliased moments
    edge = np.abs(symbol.grid.points[:, 0]) >= symbol.grid.cutoff - 1
    scale = max(float(np.max(np.abs(coeffs))), 1e-300)
    if float(np.max(np.abs(coeffs[edge]))) > 1e-10 * scale:
        raise MomentDiverged(
            "test function is not band-limited on this lattice; the auxiliary "
            "moment extraction would alias"
        )
    return coeffs


def ibp_check(op: AugmentedOperator, f: np.ndarray, t: float, x: float = 0.0,
              starts=None, moment_path: str = "analytic") -> IbpResult:
    """Verify the cascade identity: augmenting by one variable and taking its
    first moment equals the weight integral times the fractional-power step.

    LHS: P~^{n+1}[f prod_i u_i . u](x, v, 0) via per-mode moment extraction.
    RHS: (int_0^t s^r ds) P~^{n}[L^alpha f prod_i u_i](x, v).
    """
    return _ibp_check(op, f, t, x, starts, moment_path, _MomentMemo())


def _ibp_check(op: AugmentedOperator, f: np.ndarray, t: float, x: float,
               starts, moment_path: str, memo: _MomentMemo) -> IbpResult:
    """`ibp_check` taking its moments from `memo`, which a run of checks
    shares."""
    _require_time(t)
    _require_finite("x", x, scalar=True)
    eps = float(np.finfo(float).eps)
    starts = np.zeros(op.n) if starts is None else np.asarray(starts, dtype=float)
    if starts.size != op.n:
        raise ValidationError(f"expected {op.n} starting values, got {starts.size}")
    coeffs = _grid_coefficients(op.base, np.asarray(f, dtype=float))
    xi = op.base.grid.points[:, 0].astype(float)
    damp = np.exp(-t * op.base.values)
    w = op.weight_integral(t)
    a_alpha = _principal_power(op.base.values, op.alpha_frac)

    carried = np.ones_like(damp)
    for v in starts:
        carried = carried * memo.moment(op, t, v, moment_path)
    new_var = memo.moment(op, t, 0.0, moment_path)
    phase = np.exp(1j * xi * x)
    lhs = np.sum(coeffs * damp * carried * new_var * phase)
    rhs = w * np.sum(coeffs * a_alpha * damp * carried * phase)
    lhs_r, rhs_r = float(np.real(lhs)), float(np.real(rhs))
    rel = abs(lhs_r - rhs_r) / (abs(rhs_r) + eps)
    return IbpResult(lhs=lhs_r, rhs=rhs_r, rel_error=rel)


# ---------------------------------------------------------------------------
# Davies gauge


def _default_g(u):
    return np.sqrt(1.0 + np.asarray(u, dtype=float) ** 2)


def _default_dg(u):
    u = np.asarray(u, dtype=float)
    return u / np.sqrt(1.0 + u**2)


@dataclass(frozen=True)
class GaugeFunction:
    """Smooth positive weight growing like |u|; C = g'/g is the potential the
    conjugated generator picks up."""

    g: Callable = _default_g
    dg: Callable | None = _default_dg


def default_gauge() -> GaugeFunction:
    return GaugeFunction()


@dataclass
class GaugePotential:
    u: np.ndarray
    c_values: np.ndarray
    sup_c: float
    sup_c1: float
    sup_c2: float
    bounded: bool


def _refined_sup(fun, grid: np.ndarray, values: np.ndarray) -> float:
    """Sup of |fun|: the grid argmax, polished by re-gridding the bracket
    of its two neighbours at 1025 points, four times over (each round
    shrinks the step about 512-fold)."""
    sup = float(np.max(np.abs(values)))
    for _ in range(4):
        i = int(np.argmax(np.abs(values)))
        grid = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)],
                           1025)
        values = np.asarray(fun(grid), dtype=float)
        sup = max(sup, float(np.max(np.abs(values))))
    return sup


def gauge_conjugate(gauge: GaugeFunction) -> GaugePotential:
    """Potential C(u) = g'(u)/g(u) tabulated with refined sup, plus bounds on
    the first two derivatives (the conjugated generator is the original plus
    terms built from these, so bounded derivatives is the whole point)."""
    u = np.linspace(-_GAUGE_U_MAX, _GAUGE_U_MAX, _GAUGE_POINTS)
    if gauge.dg is not None:
        c_fun = lambda v: np.asarray(gauge.dg(v)) / np.asarray(gauge.g(v))
    else:
        hstep = 1e-6

        def c_fun(v):
            v = np.asarray(v, dtype=float)
            d = (np.asarray(gauge.g(v + hstep)) - np.asarray(gauge.g(v - hstep))) / (
                2 * hstep
            )
            return d / np.asarray(gauge.g(v))

    c_vals = np.asarray(c_fun(u), dtype=float)
    sup_c = _refined_sup(c_fun, u, c_vals)
    c1 = np.gradient(c_vals, u)
    c2 = np.gradient(c1, u)
    sup_c1 = float(np.max(np.abs(c1)))
    sup_c2 = float(np.max(np.abs(c2)))
    bounded = bool(np.isfinite(sup_c) and np.isfinite(sup_c1) and np.isfinite(sup_c2))
    return GaugePotential(
        u=u, c_values=c_vals, sup_c=sup_c, sup_c1=sup_c1, sup_c2=sup_c2,
        bounded=bounded,
    )


# ---------------------------------------------------------------------------
# bounded-moment check (gauge-transformed estimate, realized by quadrature)


@dataclass
class MomentBound:
    constant: float
    u_truncation: float
    doubling_drift: float | None


def bounded_moment_check(op: AugmentedOperator, h: np.ndarray, t: float,
                         u_max: float | None = None, resolution: int = 256,
                         check_doubling: bool = True) -> MomentBound:
    """Smallest C with |P~_t^n|[|h| prod |u_j|](x, 0) <= C ||h||_inf; finiteness
    is the assertion, stability under domain doubling the sanity check."""
    if op.n != 1:
        raise ValidationError("the quadrature path is implemented for n = 1")
    _require_time(t)
    h = np.asarray(h, dtype=float)
    hmax = float(np.max(np.abs(h)))
    if hmax == 0.0:
        return MomentBound(constant=0.0, u_truncation=0.0, doubling_drift=None)
    c = op.coupling_shift(t)
    if np.max(np.abs(c.imag)) > 1e-12:
        raise ValidationError("bounded-moment quadrature needs real coupling shifts")
    c = c.real
    if h.shape[0] != resolution:
        raise ValidationError("h must be sampled at the kernel resolution")
    wid = t ** (1.0 / op.aux_order)
    c_abs_max = float(np.max(np.abs(c)))
    auto_u = 12.0 * wid + c_abs_max
    u_cap = auto_u if u_max is None else float(u_max)
    z_tab, k_tab = _aux_kernel_table(t, op.aux_order, 16.0 * wid)
    damp = np.exp(-t * op.base.values)
    habs = np.abs(h)

    def measure(cap: float) -> float:
        if u_max is not None:
            # worst-case escaping mass: kernel centered at the extreme shift
            margin = cap - c_abs_max
            if margin <= 0:
                raise AuxDomainTooSmall(
                    f"domain [-{cap:.3g}, {cap:.3g}] does not reach the "
                    f"extreme coupling shift {c_abs_max:.3g}"
                )
            tail = z_tab >= margin
            total_abs = np.trapezoid(np.abs(k_tab), z_tab)
            out_mass = (
                2.0 * np.trapezoid(np.abs(k_tab[tail]), z_tab[tail])
                if tail.any() else 0.0
            )
            if out_mass > 1e-10 * total_abs:
                raise AuxDomainTooSmall(
                    f"kernel mass {out_mass:.3e} outside [-{cap:.3g}, {cap:.3g}]"
                )
        # step keyed to the kernel width, not the domain span
        n = int(math.ceil(2.0 * cap / (wid / 64.0))) + 1
        n = max(_BOUND_MIN_POINTS, min(n, 1 << 21))
        u = np.linspace(-cap, cap, n)
        du = u[1] - u[0]
        acc = np.zeros(resolution)
        for i, uu in enumerate(u):
            kvals = _interp_kernel(z_tab, k_tab, c - uu)
            if not np.any(kvals):
                continue
            row = _ifft_field(op.base.grid, damp * kvals, resolution).real
            w_tr = du if 0 < i < n - 1 else 0.5 * du
            acc += np.abs(row) * (abs(uu) * w_tr)
        val = float(np.sum(acc * habs) * (TWO_PI / resolution))
        return val / hmax

    c_val = measure(u_cap)
    drift = None
    if check_doubling:
        c_val2 = measure(2.0 * u_cap)
        drift = abs(c_val2 - c_val) / max(abs(c_val2), 1e-300)
        c_val = c_val2
    return MomentBound(constant=c_val, u_truncation=u_cap, doubling_drift=drift)


# ---------------------------------------------------------------------------
# seminorm decay exponents


@dataclass
class ExponentFit:
    r: float
    r_squared: float
    slope: float
    values: np.ndarray
    t_list: np.ndarray


def exponent_fit(symbol: Symbol, frac_alpha: float, l: int, t_list,
                 resolution: int | None = None) -> ExponentFit:
    """Least-squares exponent of the seminorm decay: values ~ t^{-r}."""
    ts = np.asarray(t_list, dtype=float)
    if ts.size < 3:
        raise ValidationError("need at least 3 times to fit an exponent")
    if float(ts.max() / ts.min()) < 10.0 - 1e-9:
        raise ValidationError("t_list must span at least one decade")
    vals = np.array(
        [derivative_seminorm(symbol, frac_alpha, l, t, resolution=resolution) for t in ts]
    )
    logs = np.log(vals)
    if float(np.max(logs) - np.min(logs)) < 1e-10:
        return ExponentFit(r=0.0, r_squared=1.0, slope=0.0, values=vals, t_list=ts)
    coef, r2 = line_fit(np.log(ts), logs)
    if r2 < 0.99:
        raise FitUnstable(f"seminorm power-law fit has R^2 = {r2:.4f} < 0.99")
    return ExponentFit(
        r=-float(coef[0]), r_squared=r2, slope=float(coef[0]), values=vals, t_list=ts
    )
