"""Hamiltonians in real phase, Legendre transforms, action functionals, and
the control function l(x, y) by path optimization on the circle.

For the x-independent Lagrangians all presets use, the constant-speed
straight line is the exact minimizer (Jensen); the optimizer exists to verify
that from perturbed starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OptimizerStalled, SupUnbounded, ValidationError
from .grids import TWO_PI, _require_int, line_fit
from .semigroup import _require_finite
from .spectral import Hamiltonian, OperatorSpec, Rescaled

# |xi| past which a bracket that still misses |p| means a subquadratic H,
# and the Newton steps after which an unsettled maximizer is an error
_BRACKET_CAP = 1e9
_NEWTON_STEPS = 100
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
#: the path descent stops once its first-order residual meets DESCENT_TARGET
#: or after DESCENT_MAX_ITER steps, and raises OptimizerStalled if the
#: residual is then above DESCENT_STALL_TOL
DESCENT_TARGET = 1e-8
DESCENT_STALL_TOL = 1e-6
DESCENT_MAX_ITER = 20000
# |p| from which `growth_fit` fits the sandwich exponent
_GROWTH_P_MIN = 1.0


# ---------------------------------------------------------------------------
# Legendre transform


def _maximizers(h: Hamiltonian, p) -> np.ndarray:
    """xi*(p), the root of H'(xi) = p, for an array of momenta at once.

    H is even and convex, so xi* has the sign of p and |H'| grows with |xi|.
    Each node brackets |xi*| by doubling from 1, then takes Newton steps on
    log |H'| against log |xi| from the outer end of its bracket: for a power
    H the first step lands on the root.  A step that leaves the bracket, or
    is not finite, is replaced by bisection.  A node settles once its step
    is within a few ulps, or its bracket collapses; a non-finite H' gives
    nan, and H'' < 0 on the way (a concave H, whose stationary point is no
    maximum) raises SupUnbounded.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"p must be finite, got {p[~np.isfinite(p)][0]}")
    xi = np.zeros(p.shape)
    nodes = np.flatnonzero(p)
    sign, target = np.sign(p.flat[nodes]), np.abs(p.flat[nodes])
    abs_grad = lambda y, i: sign[i] * np.asarray(h.grad(sign[i] * y), dtype=float)

    lo, hi = np.zeros(nodes.size), np.ones(nodes.size)
    g = abs_grad(hi, slice(None))
    short = np.flatnonzero(g < target)
    while short.size:
        if hi[short[0]] > _BRACKET_CAP:
            raise SupUnbounded(
                "conjugate objective keeps growing; the Hamiltonian is "
                "subquadratic along this ray"
            )
        lo[short] = hi[short]
        hi[short] *= 2.0
        g[short] = abs_grad(hi[short], short)
        short = short[g[short] < target[short]]

    y = hi.copy()
    live = np.arange(nodes.size)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        yl, gl, a = y[live], g[live], target[live]
        d = np.asarray(h.hess(sign[live] * yl), dtype=float)
        if np.any(d < 0):
            raise SupUnbounded("H'' < 0 inside a bracket: the Hamiltonian "
                               "is not convex, so p xi - H has no maximum there")
        below = gl < a
        lo[live] = np.where(below, yl, lo[live])
        hi[live] = np.where(below, hi[live], yl)
        with np.errstate(all="ignore"):
            ratio = a / gl
            # log(a / H') loses nothing near the root; split the log only
            # where the ratio leaves the normal range
            log_ratio = np.where((ratio > _TINY) & (ratio < np.inf), np.log(ratio),
                                 np.log(a) - np.log(gl))
            step = yl * np.exp(log_ratio * gl / (yl * d))
        # a step within a few ulps settles the node; so does any step once
        # p or the root is below the normal range, where H' has no digits
        # left to refine it with
        close = ((np.abs(step - yl) <= 4.0 * _EPS * yl) | (a < _TINY)
                 | ((step < _TINY) & (lo[live] < _TINY)))
        inside = close | ((step > lo[live]) & (step < hi[live]))
        new = np.where(inside, step, 0.5 * (lo[live] + hi[live]))
        exact, broken = gl == a, ~np.isfinite(gl)
        y[live] = np.where(exact, yl, np.where(broken, np.nan, new))
        collapsed = hi[live] - lo[live] <= 4.0 * _EPS * hi[live]
        live = live[~(close | exact | broken | collapsed)]
        if live.size:
            g[live] = abs_grad(y[live], live)
    if live.size:
        raise OptimizerStalled(
            f"the Legendre solve left {live.size} maximizers unsettled "
            f"after {_NEWTON_STEPS} Newton steps"
        )
    xi.flat[nodes] = sign * y
    return xi


def _legendre_full(h: Hamiltonian, p):
    """L(p) = sup_xi (p xi - H(xi)) and the maximizer xi*(p) = L'(p) for an
    array of momenta: the value follows exactly from the root of H' = p
    (see `_maximizers`), as L(p) = p xi* - H(xi*)."""
    p = np.asarray(p, dtype=float)
    xi = _maximizers(h, p)
    return p * xi - np.asarray(h(xi), dtype=float), xi


def legendre(h: Hamiltonian, p: float) -> float:
    """Legendre-Fenchel conjugate L(p) = sup_xi (p xi - H(xi))."""
    return float(_legendre_full(h, np.array([float(p)]))[0][0])


def straight_rate(h: Hamiltonian, x, y):
    """l(x, y) for L = H*, at an endpoint pair or arrays of them, from one
    Legendre solve.  L does not depend on position, so by Jensen each path of
    winding class w has action at least L(y + 2 pi w - x), which the straight
    line attains; H is even and convex, so L is even and convex, grows with
    |z|, and the lift of y - x nearest 0 wins."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("endpoints must be finite")
    value = _legendre_full(h, y + TWO_PI * -np.round((y - x) / TWO_PI) - x)[0]
    return value if np.ndim(value) else float(value)


def _curvature(h: Hamiltonian, xi: np.ndarray) -> np.ndarray:
    """L'' = 1 / H''(xi*) at the maximizers xi*: +inf where H'' vanishes, as
    at p = 0 for H = xi^(2k) with k >= 2."""
    with np.errstate(divide="ignore"):
        return 1.0 / np.asarray(h.hess(xi), dtype=float)


@dataclass
class Lagrangian:
    """The conjugate L = H* of a convex Hamiltonian, exact at every momentum:
    L(p) = p xi* - H(xi*), L'(p) = xi*(p) and L''(p) = 1 / H''(xi*), all
    from one `_maximizers` solve.  `lagrangian_table` also keeps exact
    samples on a momentum grid, which the growth fit reads."""

    hamiltonian: Hamiltonian
    p_grid: np.ndarray = field(default_factory=lambda: np.empty(0))
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    slopes: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def growth_order(self) -> float:
        """2k/(2k-1): the exponent q of the sandwich, dual to H's order 2k."""
        order = self.hamiltonian.order
        return order / (order - 1.0) if order > 1 else float("inf")

    def __call__(self, p):
        value = _legendre_full(self.hamiltonian, p)[0]
        return value if np.ndim(p) else float(value)

    def derivatives(self, p: np.ndarray):
        """(L'(p), L''(p)) at an array of momenta: the maximizer xi*(p) and
        1 / H''(xi*)."""
        xi = _maximizers(self.hamiltonian, p)
        return xi, _curvature(self.hamiltonian, xi)


def lagrangian_table(h: Hamiltonian, p_max: float, n: int = 513) -> Lagrangian:
    """The conjugate with exact samples on a symmetric grid clustered near
    p = 0 (the sandwich exponent makes L flat there and steep at the ends)."""
    _require_finite("p_max", p_max)
    _require_int("n", n)
    if p_max <= 0:
        raise ValidationError(f"p_max must be > 0, got {p_max}")
    if n < 9:
        raise ValidationError(f"need at least 9 table nodes, got {n}")
    s = np.linspace(-1.0, 1.0, n)
    stretch = 4.0
    p = p_max * np.sinh(stretch * s) / math.sinh(stretch)
    vals, slopes = _legendre_full(h, p)
    return Lagrangian(hamiltonian=h, p_grid=p, values=vals, slopes=slopes)


def biconjugate(lagrangian: Lagrangian, xi: float) -> float:
    """sup_p (xi p - L(p)); returns H(xi) for convex H (duality fixed point).

    The solve takes its Newton steps on the exact L' and L'' = 1 / H''(xi*),
    so L is convex wherever H is and the stationary point is the maximum."""
    table_h = Hamiltonian(
        fun=lambda p: np.asarray(lagrangian(p)),
        grad=lambda p: lagrangian.derivatives(np.asarray(p, dtype=float))[0],
        hess=lambda p: lagrangian.derivatives(np.asarray(p, dtype=float))[1],
        order=lagrangian.growth_order,
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


def growth_fit(lagrangian: Lagrangian) -> GrowthFit:
    """Fit -C + c|p|^q <= L(p) <= C + |p|^q constants over the table."""
    p = lagrangian.p_grid
    vals = lagrangian.values
    mask = np.abs(p) >= _GROWTH_P_MIN
    if mask.sum() < 4:
        raise ValidationError("momentum table too small for a growth fit")
    q = lagrangian.growth_order
    pa = np.abs(p[mask])
    va = vals[mask]
    coef, r2 = line_fit(np.log(pa), np.log(np.maximum(va, 1e-300)))
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
    m = path.segments
    return float(np.sum(np.asarray(lagrangian(np.diff(path.nodes) * m))) / m)


@dataclass
class RateResult:
    l_value: float
    path: PathPL
    winding: int
    windings_searched: list
    iterations: int
    residual: float


def _path_terms(nodes: np.ndarray, lagrangian: Lagrangian):
    """The action S of a path, L' and L'' at its segment velocities v, and
    its first-order residual, from one Legendre solve over
    [v, v[:-1] + dv, v[:-1] - dv, v[1:] + dv, v[1:] - dv].

    The residual is the largest central difference of S in an interior node:
    moving node j by +d changes v_{j-1} by +d m and v_j by -d m, so it needs
    L only at the four shifted velocity sets.  The descent stops on it and
    reports it, as a check independent of the exact L' its Newton steps use.
    """
    m = nodes.size - 1
    v = np.diff(nodes) * m
    dv = 1e-6 * (1.0 + np.abs(nodes[1:-1])) * m
    h = lagrangian.hamiltonian
    values, xi = _legendre_full(
        h, np.concatenate([v, v[:-1] + dv, v[:-1] - dv, v[1:] + dv, v[1:] - dv]))
    left_up, left_dn, right_up, right_dn = values[m:].reshape(4, m - 1)
    fd_grad = (left_up - left_dn + right_dn - right_up) / (2.0 * dv)
    return (float(np.sum(values[:m]) / m), xi[:m], _curvature(h, xi[:m]),
            float(np.max(np.abs(fd_grad))))


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system with diagonal `diag` and
    off-diagonal `off` by elimination; the system is positive definite, so
    no pivoting is needed."""
    diag, off, rhs = diag.tolist(), off.tolist(), rhs.tolist()
    n = len(diag)
    ratio = [0.0] * n
    x = [0.0] * n
    pivot = diag[0]
    x[0] = rhs[0] / pivot
    for i in range(1, n):
        ratio[i - 1] = off[i - 1] / pivot
        pivot = diag[i] - off[i - 1] * ratio[i - 1]
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return np.array(x)


def _search_directions(d1: np.ndarray, d2: np.ndarray):
    """Exact gradient of the action in the interior nodes and the descent
    directions to try, Newton's first when the Hessian is positive definite.

    With v_j = m (x_{j+1} - x_j), dS/dx_j = L'(v_{j-1}) - L'(v_j) and the
    Hessian is tridiagonal, m (L''(v_{j-1}) + L''(v_j)) on the diagonal and
    -m L''(v_j) off it.  It equals m B^T diag(L''(v)) B for the full-rank
    difference matrix B, so L'' > 0 on every segment makes it positive
    definite.  `d1` and `d2` are L' and L'' at the m segment velocities.
    """
    m = d1.size
    grad = d1[:-1] - d1[1:]
    if not np.all(np.isfinite(grad)):
        raise OptimizerStalled("the action gradient is not finite")
    steepest = (-grad, 0.1 / (1.0 + float(np.max(np.abs(grad)))))
    if not np.all(d2 > 0):   # no Newton step without positive curvature
        return grad, [steepest]
    newton = -_solve_tridiagonal(m * (d2[:-1] + d2[1:]), -m * d2[1:-1], grad)
    if not np.all(np.isfinite(newton)):
        raise OptimizerStalled("the Newton step is not finite")
    return grad, [(newton, 1.0), steepest]


def _line_search(phi: np.ndarray, s_val: float, lagrangian: Lagrangian,
                 grad: np.ndarray, direction: np.ndarray, alpha: float):
    """Armijo backtracking; an increase within a few ulps of S counts as
    no increase, since near the minimum the decrease is below rounding.
    Returns the accepted path with its `_path_terms`, or None."""
    slope = float(grad @ direction)
    slack = 4.0 * np.finfo(float).eps * abs(s_val)
    for _ in range(60):
        trial = phi.copy()
        trial[1:-1] = phi[1:-1] + alpha * direction
        terms = _path_terms(trial, lagrangian)
        if not math.isfinite(terms[0]):
            raise OptimizerStalled(f"the action is not finite ({terms[0]})")
        if terms[0] <= s_val + 1e-4 * alpha * slope + slack:
            return trial, terms
        alpha *= 0.5
    return None


def _descend(nodes: np.ndarray, lagrangian: Lagrangian):
    """Safeguarded Newton descent on the interior nodes.

    Stops once the central-difference residual meets the target; a start
    that already meets it (the straight line) returns at iteration 0.  A
    step that no direction can make, or one that leaves the path unchanged,
    ends the descent early: later iterations would repeat it.
    """
    phi = nodes.copy()
    s_val, d1, d2, res = _path_terms(phi, lagrangian)
    it = 0
    while it < DESCENT_MAX_ITER and not res <= DESCENT_TARGET:
        if not math.isfinite(s_val):
            raise OptimizerStalled(f"the action is not finite ({s_val})")
        grad, directions = _search_directions(d1, d2)
        step = None
        for direction, alpha in directions:
            step = _line_search(phi, s_val, lagrangian, grad, direction, alpha)
            if step is not None:
                break
        if step is None or np.array_equal(step[0], phi):
            break
        phi, (s_val, d1, d2, res) = step
        it += 1
    if res > DESCENT_STALL_TOL or not math.isfinite(res):
        raise OptimizerStalled(
            f"first-order residual {res:.3e} above {DESCENT_STALL_TOL:.1e} "
            f"after {it} iterations"
        )
    return phi, s_val, it, res


def rate_function(x: float, y: float, lagrangian: Lagrangian, m: int = 64,
                  winding_max: int = 2, perturb: float = 0.0) -> RateResult:
    """l(x, y) = inf over paths of the action, searched per winding class
    w in [-winding_max, winding_max].

    L does not depend on position, so by Jensen no path of class w costs
    less than its bound b_w = L(y + 2 pi w - x), which one Legendre solve
    gives for every class.  The classes are descended in increasing-bound
    order (a stable sort; a nan bound sorts last), and a class is skipped,
    as one whose action can neither win nor tie, once
    b_w - slack_w > (smallest action descended so far) + 1e-12.  The slack
    is 1e-9 max(1, |b_w|, |xi_w| (|x| + |y + 2 pi w|)) with
    xi_w = L'(y + 2 pi w - x): rounding can take the descended action below
    b_w by the m ulps its sum of L values loses, plus xi_w times the shift
    of its mean velocity, which the m node differences move by about m ulps
    of the node size.  A nan bound never prunes.

    The winner has the smallest action; among the classes within 1e-12 of
    it, the smallest (|w|, w).  A class skipped by its bound takes no
    descent, so a descent that would stall there does not fail the run.
    `windings_searched` lists every class of the range: each is judged by
    its bound or by its descent.

    `perturb` bends the straight initial path by a deterministic sinusoid so
    tests can exercise the descent; the production default starts straight.
    """
    for name, value in (("x", x), ("y", y), ("perturb", perturb)):
        _require_finite(name, value)
    for name, value in (("m", m), ("winding_max", winding_max)):
        _require_int(name, value)
    if m < 2:
        raise ValidationError(f"need at least 2 segments, got {m}")
    if winding_max < 0:
        raise ValidationError("winding_max must be >= 0")
    searched = list(range(-winding_max, winding_max + 1))
    lifts = y + TWO_PI * np.array(searched, dtype=float)
    bounds, xi = _legendre_full(lagrangian.hamiltonian, lifts - x)
    slack = 1e-9 * np.maximum(np.maximum(1.0, np.abs(bounds)),
                              np.abs(xi) * (abs(x) + np.abs(lifts)))
    descended = []
    least = math.inf
    for i in np.argsort(bounds, kind="stable").tolist():
        if bounds[i] - slack[i] > least + 1e-12:
            continue
        w = searched[i]
        base = straight_path(x, y, w, m=m).nodes
        if perturb:
            tgrid = np.linspace(0.0, 1.0, m + 1)
            base = base + perturb * np.sin(np.pi * tgrid) * np.cos(
                2.0 * np.pi * tgrid
            )
            base[0], base[-1] = x, y + TWO_PI * w
        nodes, s_val, iters, res = _descend(base, lagrangian)
        descended.append((s_val, w, nodes, iters, res))
        least = min(least, s_val)
    # the smallest action wins; within 1e-12 of it, the smallest (|w|, w)
    s_val, w, nodes, iters, res = min(
        descended, key=lambda c: (not c[0] - least <= 1e-12, abs(c[1]), c[1]))
    path = PathPL(x=x, y=y, winding=w, nodes=nodes)
    return RateResult(
        l_value=float(max(s_val, 0.0)), path=path, winding=w,
        windings_searched=searched, iterations=iters, residual=res,
    )


# ---------------------------------------------------------------------------
# small-parameter scaling utilities


def maslov_scaled_spec(spec: OperatorSpec, k: int, eps: float) -> Rescaled:
    """eps^(2k-1) a(xi) for differential symbols; (1/eps) a(eps xi) for jump
    symbols, re-quadratured since eps*xi leaves the lattice."""
    _require_finite("eps", eps, positive=True)
    prefactor, freq_scale = spec.maslov_factors(k, eps)
    return Rescaled(spec, prefactor=prefactor, freq_scale=freq_scale)
