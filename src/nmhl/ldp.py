"""Hamiltonians in real phase, Legendre transforms, action functionals, and
the control function l(x, y) on the circle.

For the x-independent Lagrangians all presets use, the constant-speed
straight line is the exact minimizer in each winding class (Jensen), so
l(x, y) is the action of the cheapest class's line; a bent competitor path
checks Jensen's inequality on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OptimizerStalled, SupUnbounded, ValidationError
from .grids import TWO_PI, _require_finite, _require_int, line_fit
from .spectral import Hamiltonian, OperatorSpec, Rescaled

# |xi| past which a bracket that still misses |p| means a subquadratic H,
# and the Newton steps after which an unsettled maximizer is an error
_BRACKET_CAP = 1e9
_NEWTON_STEPS = 100
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
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
# straight lines, the action and the rate function

#: the largest central-difference residual of the winning line that passes
RESIDUAL_TOL = 1e-8
#: the Jensen check lets the bent competitor undercut the line by
#: JENSEN_SLACK max(1, l, |xi| (|x| + |y + 2 pi w| + |perturb|)), xi = L' on
#: the line: each action's sum of m L values loses a few ulps of l, and the
#: node differences move a path's mean velocity by a few ulps of the node size
JENSEN_SLACK = 1e-9


def straight_path(x: float, y: float, winding: int, m: int = 64) -> np.ndarray:
    """The m + 1 nodes of the constant-speed line on [0, 1] from x to the
    lift y + 2 pi w of winding class w = `winding`."""
    return np.linspace(x, y + TWO_PI * winding, m + 1)


def action(nodes: np.ndarray, lagrangian) -> float:
    """Action of the piecewise-linear path on [0, 1] through `nodes`, by the
    midpoint rule: exact for x-independent L, since the velocity is constant
    per segment."""
    m = nodes.size - 1
    return float(np.sum(np.asarray(lagrangian(np.diff(nodes) * m))) / m)


@dataclass
class RateResult:
    l_value: float
    winding: int
    residual: float
    jensen_gap: float
    passed: bool
    # always 0: no descent runs; read only by the benchmark tracer's
    # `ldp.descent_iterations`
    iterations: int = 0


def _line_residual(nodes: np.ndarray, h: Hamiltonian) -> float:
    """The largest central difference of the action in an interior node of
    the path through `nodes`: moving node j by +d changes v_{j-1} by +d m
    and v_j by -d m, so it needs L only at four shifted velocity sets, which
    one Legendre solve gives."""
    m = nodes.size - 1
    v = np.diff(nodes) * m
    dv = 1e-6 * (1.0 + np.abs(nodes[1:-1])) * m
    values = _legendre_full(
        h, np.concatenate([v[:-1] + dv, v[:-1] - dv, v[1:] + dv, v[1:] - dv]))[0]
    left_up, left_dn, right_up, right_dn = values.reshape(4, m - 1)
    return float(np.max(np.abs((left_up - left_dn + right_dn - right_up) / (2.0 * dv))))


def rate_function(x: float, y: float, lagrangian: Lagrangian, m: int = 64,
                  winding_max: int = 2, perturb: float = 0.0) -> RateResult:
    """l(x, y) = inf over paths of the action: the action of the m-segment
    straight line of the cheapest winding class w in [-winding_max,
    winding_max].

    L does not depend on position, so by Jensen the straight line to the
    lift y + 2 pi w costs least in class w.  One Legendre solve gives the
    line's action in every class; a non-finite one raises OptimizerStalled.
    The smallest action wins; among the classes within 1e-12 of it, the
    smallest (|w|, w).

    Two checks make `passed`: the winning line's largest central difference
    of the action in an interior node (`residual`) is at most RESIDUAL_TOL,
    and a competitor in its class, the line bent by
    perturb sin(pi t) cos(2 pi t), costs no less than l up to JENSEN_SLACK
    (`jensen_gap` = S(bent) - l).  A convex L passes both; with perturb = 0
    the competitor is the line itself.
    """
    for name, value in (("x", x), ("y", y), ("perturb", perturb)):
        _require_finite(name, value)
        if np.ndim(value):
            raise ValidationError(f"{name} must be one number, got {value!r}")
    for name, value in (("m", m), ("winding_max", winding_max)):
        _require_int(name, value)
    if m < 2:
        raise ValidationError(f"need at least 2 segments, got {m}")
    if winding_max < 0:
        raise ValidationError("winding_max must be >= 0")
    classes = range(-winding_max, winding_max + 1)
    lines = np.array([straight_path(x, y, w, m) for w in classes])
    values, xi = _legendre_full(lagrangian.hamiltonian, np.diff(lines) * m)
    actions = np.sum(values, axis=1) / m
    if not np.all(np.isfinite(actions)):
        bad = int(np.flatnonzero(~np.isfinite(actions))[0])
        raise OptimizerStalled(
            f"the action of the class w = {classes[bad]} line is not finite "
            f"({actions[bad]})")
    least = float(np.min(actions))
    i = min(range(len(classes)), key=lambda i: (
        not actions[i] - least <= 1e-12, abs(classes[i]), classes[i]))
    line = lines[i]
    l_value = float(max(actions[i], 0.0))
    residual = _line_residual(line, lagrangian.hamiltonian)

    t = np.linspace(0.0, 1.0, m + 1)
    bent = line + perturb * np.sin(np.pi * t) * np.cos(2.0 * np.pi * t)
    bent[0], bent[-1] = line[0], line[-1]
    gap = action(bent, lagrangian) - l_value
    slack = JENSEN_SLACK * max(1.0, l_value, float(np.max(np.abs(xi[i])))
                               * (abs(x) + abs(line[-1]) + abs(perturb)))
    return RateResult(
        l_value=l_value, winding=classes[i], residual=residual, jensen_gap=gap,
        passed=bool(residual <= RESIDUAL_TOL and gap >= -slack),
    )


# ---------------------------------------------------------------------------
# small-parameter scaling utilities


def maslov_scaled_spec(spec: OperatorSpec, k: int, eps: float) -> Rescaled:
    """eps^(2k-1) a(xi) for differential symbols; (1/eps) a(eps xi) for jump
    symbols, re-quadratured since eps*xi leaves the lattice."""
    _require_finite("eps", eps, positive=True)
    prefactor, freq_scale = spec.maslov_factors(k, eps)
    return Rescaled(spec, prefactor=prefactor, freq_scale=freq_scale)
