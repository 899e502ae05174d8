"""Hamiltonians in real phase, Legendre transforms, action functionals, and
the control function l(x, y) by path optimization on the circle.

For the x-independent Lagrangians all presets use, the constant-speed
straight line is the exact minimizer (Jensen); the optimizer exists to verify
that from perturbed starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OptimizerStalled, SupUnbounded, ValidationError
from .grids import TWO_PI
from .spectral import Hamiltonian, OperatorSpec, Rescaled, Symbol, build_symbol

_BRACKET_CAP = 1e9


def hamiltonian_for(spec: OperatorSpec) -> Hamiltonian:
    """Real-phase Hamiltonian of a generator (`OperatorSpec.hamiltonian`)."""
    return spec.hamiltonian()


# ---------------------------------------------------------------------------
# Legendre transform


def _legendre_full(h: Hamiltonian, p: float, xatol: float = 1e-12):
    """sup_xi (p xi - H(xi)) with the maximizer; bracketing + bounded search.

    The maximizer is only as accurate as scipy's bounded method, which stops
    at sqrt(eps)|xi| + xatol/3, so ``xatol`` is a floor and not the error: on
    the default 513-node k = 1 table to p = 2(5 + 4 pi) the slopes miss the
    exact p/2 by up to 2.6e-7 (2.2e-8 from (p/4)^(1/3) at k = 2).  The value
    is stationary in xi and agrees with the closed form to ~5e-16 relative.
    """
    if not math.isfinite(p):
        raise ValidationError(f"p must be finite, got {p}")
    from scipy import optimize  # runtime import: scipy is slow to load

    phi = lambda xi: p * xi - float(h(np.array(xi)))
    direction = 1.0 if p >= 0 else -1.0
    hi = direction
    prev = phi(0.0)
    # expand until the objective turns over; superlinear H guarantees it does
    while phi(hi) > prev:
        prev = phi(hi)
        hi *= 2.0
        if abs(hi) > _BRACKET_CAP:
            raise SupUnbounded(
                "conjugate objective keeps growing; the Hamiltonian is "
                "subquadratic along this ray"
            )
    lo = 0.0 if direction > 0 else hi
    hi = hi if direction > 0 else 0.0
    res = optimize.minimize_scalar(
        lambda xi: -phi(xi), bounds=(lo, hi), method="bounded",
        options={"xatol": xatol},
    )
    xi_star = float(res.x)
    val = float(-res.fun)
    # coarse-grid guard against a missed interior maximum
    grid = np.linspace(lo, hi, 257)
    gvals = p * grid - np.asarray(h(grid), dtype=float)
    j = int(np.argmax(gvals))
    if gvals[j] > val + 1e-9:
        res = optimize.minimize_scalar(
            lambda xi: -phi(xi),
            bounds=(grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)]),
            method="bounded", options={"xatol": xatol},
        )
        xi_star, val = float(res.x), float(-res.fun)
    return val, xi_star


def legendre(h: Hamiltonian, p: float) -> float:
    """Legendre-Fenchel conjugate L(p) = sup_xi (p xi - H(xi))."""
    return _legendre_full(h, p)[0]


@dataclass
class Lagrangian:
    """Conjugate table with monotone slopes dL/dp = xi*(p), interpolated by a
    cubic Hermite spline (convexity-preserving for convex data)."""

    p_grid: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    growth_order: float   # 2k/(2k-1) exponent of the sandwich
    hamiltonian: Hamiltonian

    def __post_init__(self):
        from scipy.interpolate import CubicHermiteSpline  # runtime import: scipy is slow to load

        self._spline = CubicHermiteSpline(self.p_grid, self.values, self.slopes)
        self._slope = self._spline.derivative()
        self._curvature = self._slope.derivative()

    def __call__(self, p):
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        inside = (arr >= self.p_grid[0]) & (arr <= self.p_grid[-1])
        out = np.empty(arr.shape)
        out[inside] = self._spline(arr[inside])
        if (~inside).any():
            # off the table: fall back to the exact transform
            out[~inside] = [legendre(self.hamiltonian, float(v)) for v in arr[~inside]]
        return out.reshape(np.shape(p)) if np.ndim(p) else float(out[0])

    def derivatives(self, p: np.ndarray):
        """(L'(p), L''(p)) of the spline at an array of momenta.  Off the
        table L' is the exact maximizer xi*(p) and L'' is unknown (nan)."""
        inside = (p >= self.p_grid[0]) & (p <= self.p_grid[-1])
        d1 = np.empty(p.shape)
        d2 = np.full(p.shape, np.nan)
        d1[inside] = self._slope(p[inside])
        d2[inside] = self._curvature(p[inside])
        if (~inside).any():
            d1[~inside] = [_legendre_full(self.hamiltonian, float(v))[1]
                           for v in p[~inside]]
        return d1, d2


def lagrangian_table(h: Hamiltonian, p_max: float, n: int = 513) -> Lagrangian:
    """Tabulate the conjugate on a symmetric grid clustered near p = 0 (the
    sandwich exponent makes L flat there and steep at the ends)."""
    if not math.isfinite(p_max):
        raise ValidationError(f"p_max must be finite, got {p_max}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"the node count must be an integer, got {n!r}")
    if p_max <= 0:
        raise ValidationError(f"p_max must be > 0, got {p_max}")
    if n < 9:
        raise ValidationError(f"need at least 9 table nodes, got {n}")
    s = np.linspace(-1.0, 1.0, n)
    stretch = 4.0
    p = p_max * np.sinh(stretch * s) / math.sinh(stretch)
    vals = np.empty(n)
    slopes = np.empty(n)
    for i, pv in enumerate(p):
        vals[i], slopes[i] = _legendre_full(h, float(pv))
    q = h.order / (h.order - 1.0) if h.order > 1 else float("inf")
    return Lagrangian(
        p_grid=p, values=vals, slopes=slopes, growth_order=q, hamiltonian=h
    )


def biconjugate(lagrangian: Lagrangian, xi: float) -> float:
    """sup_p (xi p - L(p)); returns H(xi) for convex H (duality fixed point)."""
    table_h = Hamiltonian(
        fun=lambda p: np.asarray(lagrangian(p)), order=lagrangian.growth_order,
    )
    return legendre(table_h, xi)


@dataclass
class GrowthFit:
    exponent: float
    slope: float
    r_squared: float
    c_lower: float
    c_lower_offset: float
    c_upper: float
    sandwich_holds: bool


def growth_fit(lagrangian: Lagrangian, p_min: float = 1.0) -> GrowthFit:
    """Fit -C + c|p|^q <= L(p) <= C + |p|^q constants over the table."""
    p = lagrangian.p_grid
    vals = lagrangian.values
    mask = np.abs(p) >= p_min
    if mask.sum() < 4:
        raise ValidationError("momentum table too small for a growth fit")
    q = lagrangian.growth_order
    pa = np.abs(p[mask])
    va = vals[mask]
    coef = np.polyfit(np.log(pa), np.log(np.maximum(va, 1e-300)), 1)
    fitted = np.polyval(coef, np.log(pa))
    logs = np.log(np.maximum(va, 1e-300))
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    c_lower = float(min(1.0, np.min(va / pa**q)))
    c_lower_offset = float(max(0.0, np.max(c_lower * np.abs(p) ** q - vals)))
    c_upper = float(max(0.0, np.max(vals - np.abs(p) ** q)))
    lower_ok = bool(np.all(-c_lower_offset + c_lower * np.abs(p) ** q <= vals + 1e-9))
    upper_ok = bool(np.all(vals <= c_upper + np.abs(p) ** q + 1e-9))
    return GrowthFit(
        exponent=q, slope=float(coef[0]), r_squared=r2, c_lower=c_lower,
        c_lower_offset=c_lower_offset, c_upper=c_upper,
        sandwich_holds=lower_ok and upper_ok,
    )


# ---------------------------------------------------------------------------
# piecewise-linear paths and the action


@dataclass
class PathPL:
    """Piecewise-linear path on [0, 1]; nodes are lifted reals with
    nodes[-1] = y + 2 pi w encoding the winding class."""

    x: float
    y: float
    winding: int
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValidationError("a path needs at least 3 nodes")
        if abs(nodes[0] - self.x) > 1e-12:
            raise ValidationError("path must start at x")
        if abs(nodes[-1] - (self.y + TWO_PI * self.winding)) > 1e-9:
            raise ValidationError("path must end at y + 2 pi w")
        self.nodes = nodes

    @property
    def segments(self) -> int:
        return self.nodes.size - 1


def straight_path(x: float, y: float, winding: int, m: int = 64) -> PathPL:
    lift = y + TWO_PI * winding
    return PathPL(x=x, y=y, winding=winding, nodes=np.linspace(x, lift, m + 1))


def action(path: PathPL, lagrangian) -> float:
    """Midpoint-rule action; exact for x-independent L on PL paths since the
    velocity is constant per segment."""
    return _action_of_nodes(path.nodes, lagrangian)


@dataclass
class RateResult:
    l_value: float
    path: PathPL
    winding: int
    windings_searched: list
    iterations: int
    residual: float


def _action_of_nodes(nodes: np.ndarray, lagrangian) -> float:
    m = nodes.size - 1
    v = np.diff(nodes) * m
    return float(np.sum(np.asarray(lagrangian(v))) / m)


def _fd_gradient(nodes: np.ndarray, lagrangian) -> np.ndarray:
    """Central finite differences in the interior nodes, vectorized through the
    segment velocities (a node only touches its two segments).  This is the
    first-order check the descent stops on and reports, independent of the
    spline derivatives the Newton steps use."""
    m = nodes.size - 1
    v = np.diff(nodes) * m
    delta = 1e-6 * (1.0 + np.abs(nodes[1:-1]))
    dv = delta * m
    # moving node j by +d changes v_{j-1} by +d*m and v_j by -d*m, so the
    # whole gradient needs only four vectorized table lookups
    l_left_up = np.asarray(lagrangian(v[:-1] + dv))
    l_left_dn = np.asarray(lagrangian(v[:-1] - dv))
    l_right_up = np.asarray(lagrangian(v[1:] + dv))
    l_right_dn = np.asarray(lagrangian(v[1:] - dv))
    return (l_left_up - l_left_dn + l_right_dn - l_right_up) / (2.0 * delta * m)


def _residual(nodes: np.ndarray, lagrangian) -> float:
    grad = _fd_gradient(nodes, lagrangian)
    return float(np.max(np.abs(grad))) if grad.size else 0.0


def _search_directions(nodes: np.ndarray, lagrangian: Lagrangian):
    """Exact gradient of the action in the interior nodes and the descent
    directions to try, Newton's first when the Hessian is positive definite.

    With v_j = m (x_{j+1} - x_j), dS/dx_j = L'(v_{j-1}) - L'(v_j) and the
    Hessian is tridiagonal, m (L''(v_{j-1}) + L''(v_j)) on the diagonal and
    -m L''(v_j) off it.  It equals m B^T diag(L''(v)) B for the full-rank
    difference matrix B, so L'' > 0 on every segment makes it positive
    definite.
    """
    from scipy.linalg import solve_banded  # runtime import: scipy is slow to load

    m = nodes.size - 1
    d1, d2 = lagrangian.derivatives(np.diff(nodes) * m)
    grad = d1[:-1] - d1[1:]
    if not np.all(np.isfinite(grad)):
        raise OptimizerStalled("the action gradient is not finite")
    steepest = (-grad, 0.1 / (1.0 + float(np.max(np.abs(grad)))))
    if not np.all(d2 > 0):   # nan off the table, or a non-convex piece
        return grad, [steepest]
    bands = np.zeros((3, m - 1))
    bands[0, 1:] = -m * d2[1:-1]
    bands[1] = m * (d2[:-1] + d2[1:])
    bands[2, :-1] = -m * d2[1:-1]
    newton = -solve_banded((1, 1), bands, grad)
    if not np.all(np.isfinite(newton)):
        raise OptimizerStalled("the Newton step is not finite")
    return grad, [(newton, 1.0), steepest]


def _line_search(phi: np.ndarray, s_val: float, lagrangian, grad: np.ndarray,
                 direction: np.ndarray, alpha: float):
    """Armijo backtracking; an increase within a few ulps of S counts as
    no increase, since near the minimum the decrease is below rounding."""
    slope = float(grad @ direction)
    slack = 4.0 * np.finfo(float).eps * abs(s_val)
    for _ in range(60):
        trial = phi.copy()
        trial[1:-1] = phi[1:-1] + alpha * direction
        s_trial = _action_of_nodes(trial, lagrangian)
        if not math.isfinite(s_trial):
            raise OptimizerStalled(f"the action is not finite ({s_trial})")
        if s_trial <= s_val + 1e-4 * alpha * slope + slack:
            return trial, s_trial
        alpha *= 0.5
    return None


def _descend(nodes: np.ndarray, lagrangian: Lagrangian, max_iter: int,
             residual_target: float, stall_tol: float):
    """Safeguarded Newton descent on the interior nodes.

    Stops once the central-difference residual meets the target; a start
    that already meets it (the straight line) returns at iteration 0.  A
    step that no direction can make, or one that leaves the path unchanged,
    ends the descent early: later iterations would repeat it.
    """
    phi = nodes.copy()
    s_val = _action_of_nodes(phi, lagrangian)
    res = _residual(phi, lagrangian)
    it = 0
    while it < max_iter and not res <= residual_target:
        if not math.isfinite(s_val):
            raise OptimizerStalled(f"the action is not finite ({s_val})")
        grad, directions = _search_directions(phi, lagrangian)
        step = None
        for direction, alpha in directions:
            step = _line_search(phi, s_val, lagrangian, grad, direction, alpha)
            if step is not None:
                break
        if step is None or np.array_equal(step[0], phi):
            break
        phi, s_val = step
        res = _residual(phi, lagrangian)
        it += 1
    if res > stall_tol or not math.isfinite(res):
        raise OptimizerStalled(
            f"first-order residual {res:.3e} above {stall_tol:.1e} "
            f"after {it} iterations"
        )
    return phi, s_val, it, res


def rate_function(x: float, y: float, lagrangian, m: int = 64,
                  winding_max: int = 2, perturb: float = 0.0,
                  max_iter: int = 20000, residual_target: float = 1e-8,
                  stall_tol: float = 1e-6) -> RateResult:
    """l(x, y) = inf over paths of the action, searched per winding class.

    `perturb` bends the straight initial path by a deterministic sinusoid so
    tests can exercise the descent; the production default starts straight.
    """
    for name, value in (("x", x), ("y", y), ("perturb", perturb)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    if m < 2:
        raise ValidationError(f"need at least 2 segments, got {m}")
    if winding_max < 0:
        raise ValidationError("winding_max must be >= 0")
    best = None
    searched = []
    for w in range(-winding_max, winding_max + 1):
        searched.append(w)
        base = straight_path(x, y, w, m=m).nodes
        if perturb:
            tgrid = np.linspace(0.0, 1.0, m + 1)
            base = base + perturb * np.sin(np.pi * tgrid) * np.cos(
                2.0 * np.pi * tgrid
            )
            base[0], base[-1] = x, y + TWO_PI * w
        nodes, s_val, iters, res = _descend(
            base, lagrangian, max_iter, residual_target, stall_tol
        )
        cand = (s_val, abs(w), w, nodes, iters, res)
        if best is None:
            best = cand
        else:
            # tie-break within 1e-12: smallest |w|, then smallest w
            if s_val < best[0] - 1e-12:
                best = cand
            elif abs(s_val - best[0]) <= 1e-12 and (abs(w), w) < (best[1], best[2]):
                best = cand
    s_val, _, w, nodes, iters, res = best
    path = PathPL(x=x, y=y, winding=w, nodes=nodes)
    return RateResult(
        l_value=float(max(s_val, 0.0)), path=path, winding=w,
        windings_searched=searched, iterations=iters, residual=res,
    )


# ---------------------------------------------------------------------------
# small-parameter scaling utilities


def maslov_scaled_symbol(symbol: Symbol, k: int, eps: float) -> Symbol:
    """eps^(2k-1) a(xi) for differential symbols; (1/eps) a(eps xi) for jump
    symbols, re-quadratured since eps*xi leaves the lattice."""
    if eps <= 0:
        raise ValidationError(f"eps must be > 0, got {eps}")
    if symbol.spec is None:
        raise ValidationError("scaling needs a symbol with continuous evaluation")
    prefactor, freq_scale = symbol.spec.maslov_factors(k, eps)
    scaled = Rescaled(symbol.spec, prefactor=prefactor, freq_scale=freq_scale)
    return build_symbol(scaled, symbol.grid)


def scaling_identity_check(symbol: Symbol, k: int, t: float,
                           resolution: int = 256) -> float:
    """Kernel of (a, t) against kernel of (t a, 1): exact in multiplier form,
    so any deviation is plumbing, not mathematics."""
    from .semigroup import heat_kernel  # runtime import: semigroup is heavier

    if t <= 0:
        raise ValidationError(f"t must be > 0, got {t}")
    lhs = heat_kernel(symbol, t, resolution=resolution)
    rhs = heat_kernel(symbol.scaled(t), 1.0, resolution=resolution)
    return float(np.max(np.abs(lhs.values - rhs.values)))
