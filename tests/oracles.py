"""Independent reference values for the test suite.

Everything here is computed by a different route than the package uses:
image sums instead of Fourier inversion, closed-form extremizers instead of
numeric minimization, midpoint Riemann sums with Richardson refinement
instead of adaptive quadrature, and high-precision series summation for the
one diagonal value that has no elementary closed form.  Where the package
moved to closed forms and fixed rules (the auxiliary kernel, the jump
symbol, the Legendre table), the trapezoid table, adaptive quadrature and
bounded scalar search it replaced stay here as references.  Expected values frozen into the tests were produced by
these functions.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# second-order generator: everything Gaussian


def wrapped_gaussian(t: float, z, images: int = 12):
    """Heat kernel of d^2/dx^2 on the circle via the method of images.

    exp(-t xi^2) multipliers sum to a Gaussian of variance 2t wrapped around
    the circle; image terms decay like exp(-pi^2 m^2 / t), so a dozen images
    is far below double precision for every t >= 1e-3.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for m_img in range(-images, images + 1):
        out += np.exp(-((z + TWO_PI * m_img) ** 2) / (4.0 * t))
    return out / math.sqrt(4.0 * math.pi * t)


def wrapped_gaussian_log(t: float, z: float, images: int = 40) -> float:
    """log of ``wrapped_gaussian`` with each image's exponent kept apart and
    the largest taken out before summing, so it holds at any depth (where
    the images themselves underflow) and at t down to 1e-6."""
    exps = [-((z + TWO_PI * m_img) ** 2) / (4.0 * t)
            for m_img in range(-images, images + 1)]
    top = max(exps)
    return (top + math.log(math.fsum(math.exp(e - top) for e in exps))
            - 0.5 * math.log(4.0 * math.pi * t))


def tilted_gaussian_kernel(s: float, tau: float, z, images: int = 12):
    """Completing the square in exp(-s (xi - i tau)^2) recenters the wrapped
    Gaussian by 2 s tau and scales it by exp(s tau^2)."""
    return math.exp(s * tau * tau) * wrapped_gaussian(
        s, np.asarray(z, dtype=float) + 2.0 * s * tau, images=images
    )


def quadratic_rate(x: float, y: float, winding_max: int = 2) -> float:
    """Action of the straight line for H = xi^2: min over lifts of
    (displacement)^2 / 4."""
    return min(
        (y - x + TWO_PI * w) ** 2 / 4.0
        for w in range(-winding_max, winding_max + 1)
    )


# ---------------------------------------------------------------------------
# pure powers: closed-form convex analysis


def power_legendre(k: int, p: float) -> float:
    """sup_xi (p xi - xi^{2k}) = (2k-1) (|p| / 2k)^{2k/(2k-1)}."""
    return (2 * k - 1) * (abs(p) / (2 * k)) ** (2 * k / (2 * k - 1))


def power_conjugate(k: int, p: float) -> tuple[float, float]:
    """(xi*, L) for H = xi^{2k} at 40 digits: xi* = sign(p) (|p|/2k)^{1/(2k-1)}
    and L = (2k-1) (|p|/2k)^{2k/(2k-1)}.  ``power_legendre`` evaluates the
    same value in doubles, whose inexact exponent 2k/(2k-1) costs about
    |log(|p|/2k)| ulps."""
    with mp.workdps(40):
        base = mp.mpf(abs(p)) / (2 * k)
        xi = base ** (mp.mpf(1) / (2 * k - 1))
        return (math.copysign(float(xi), p),
                float((2 * k - 1) * base ** (mp.mpf(2 * k) / (2 * k - 1))))


def saddle_factor(k: int) -> float:
    """sin(pi / (2(2k-1))): the real part of the saddle-point exponent of
    int exp(-t xi^{2k} + i z xi) d xi relative to the Legendre value.

    The saddle equation 2k t xi^{2k-1} = i z puts the dominant saddles at
    xi = r exp(i pi / (2(2k-1))) and -conj(xi), with
    r = (z / (2k t))^{1/(2k-1)}, for z > 0.  There the exponent is
    (1 - 1/(2k)) i z xi, whose real part is
    -(1 - 1/(2k)) z r sin(pi / (2(2k-1)))
        = -sin(pi / (2(2k-1))) L_k(z) / t^{1/(2k-1)}.
    The factor is 1 for k = 1 (real saddle, Gaussian) and 1/2 for k = 2;
    see Davies, J. Funct. Anal. 132 (1995) and Barbatis-Davies,
    J. Operator Theory 36 (1996).
    """
    return math.sin(math.pi / (2 * (2 * k - 1)))


def power_sharp_rate(k: int, p: float) -> float:
    """sigma_k(p) = L_k(p) sin(pi / (2(2k-1))): the sharp small-time constant
    for H = xi^{2k}, lim sup_{t -> 0} t^{1/(2k-1)} log|p_t(0, p)| = -sigma_k(p).

    The complex saddle (see ``saddle_factor``) also makes |p_t| oscillate:
    the saddle pair xi, -conj(xi) contributes a cosine factor whose zeros send
    t^{1/(2k-1)} log|p_t| to -inf, so for k >= 2 only the lim sup exists.
    """
    return power_legendre(k, p) * saddle_factor(k)


def chernoff_exponent(k: int, delta: float, s: float) -> tuple[float, float]:
    """Extremizer and value of min_{xi >= 0} (-delta xi + s xi^{2k})."""
    if delta <= 0:
        return 0.0, 0.0
    xi = (delta / (2 * k * s)) ** (1.0 / (2 * k - 1))
    return xi, -delta * xi + s * xi ** (2 * k)


def quartic_diag(t: float, dps: int = 30) -> float:
    """p_t(0,0) for the quartic generator by direct high-precision summation
    of (1/2pi) sum_n exp(-t n^4)."""
    with mp.workdps(dps):
        total = mp.mpf(1)
        n = 1
        while True:
            term = mp.e ** (-mp.mpf(t) * n ** 4)
            total += 2 * term
            if term < mp.mpf(10) ** (-dps - 5):
                break
            n += 1
        return float(total / (2 * mp.pi))


def mp_fourier_log(symbol, weight, t: float, n_cut: int, dps: int = 80) -> float:
    """log |(1/2pi) sum_{|n| <= n_cut} exp(-t a(n)) w(n)| for even a and w,
    summed term by term: one exp and one weight evaluation per n, at a fixed
    precision and cutoff the caller chooses with room to spare.  ``symbol``
    and ``weight`` take an mpf n and return mpf values."""
    with mp.workdps(dps):
        mt = -mp.mpf(t)
        total = mp.exp(mt * symbol(mp.mpf(0))) * weight(mp.mpf(0))
        for n in range(1, n_cut + 1):
            nn = mp.mpf(n)
            total += 2 * mp.exp(mt * symbol(nn)) * weight(nn)
        return float(mp.log(abs(total / (2 * mp.pi))))


# ---------------------------------------------------------------------------
# Legendre transform by a scalar bounded search


def legendre_search(h, p: float, xatol: float = 1e-12) -> tuple[float, float]:
    """sup_xi (p xi - H(xi)) and its maximizer for one momentum, by a
    doubling bracket, scipy's bounded scalar search and a 257-point grid
    guard against a missed interior maximum; ``h`` maps a float array to
    H.  The search stops at sqrt(eps)|xi| + xatol/3, so the maximizer is good
    to about 1e-8 |xi|; the value is stationary in xi and good to about
    1e-15 relative."""
    from scipy import optimize

    phi = lambda xi: p * xi - float(h(np.array(xi)))
    direction = 1.0 if p >= 0 else -1.0
    hi = direction
    prev = phi(0.0)
    while phi(hi) > prev:
        prev = phi(hi)
        hi *= 2.0
        assert abs(hi) <= 1e9, "conjugate objective keeps growing"
    lo = 0.0 if direction > 0 else hi
    hi = hi if direction > 0 else 0.0
    res = optimize.minimize_scalar(
        lambda xi: -phi(xi), bounds=(lo, hi), method="bounded",
        options={"xatol": xatol},
    )
    xi_star, val = float(res.x), float(-res.fun)
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


# ---------------------------------------------------------------------------
# compensated jump generator, flat density on (0, 1]


def _levy_riemann(xi: float, l: int, alpha: float, comp, n: int) -> float:
    """Midpoint Riemann sum of 2 int_0^1 comp(y xi) y^{-2l-1-alpha} dy."""
    y = (np.arange(n) + 0.5) / n
    vals = comp(y * xi, l) * y ** (-(2 * l + 1 + alpha))
    return 2.0 * float(np.sum(vals)) / n


def _cos_remainder(u, l: int):
    """cos(u) minus its Taylor polynomial through degree 2l, evaluated
    stably: the direct difference cancels catastrophically for small u, so
    sum the tail of the alternating series instead."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    small = np.abs(u) < 1.0
    # tail sum, first term degree 2l+2
    us = u[small]
    term = (-1.0) ** (l + 1) * us ** (2 * l + 2) / math.factorial(2 * l + 2)
    acc = term.copy()
    for j in range(l + 2, l + 30):
        term = term * (-(us * us)) / ((2 * j) * (2 * j - 1))
        acc += term
    out[small] = acc
    ub = u[~small]
    poly = np.zeros_like(ub)
    for j in range(l + 1):
        poly += (-1.0) ** j * ub ** (2 * j) / math.factorial(2 * j)
    out[~small] = np.cos(ub) - poly
    return out


def _cosh_remainder(u, l: int):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    small = np.abs(u) < 1.0
    us = u[small]
    term = us ** (2 * l + 2) / math.factorial(2 * l + 2)
    acc = term.copy()
    for j in range(l + 2, l + 30):
        term = term * (us * us) / ((2 * j) * (2 * j - 1))
        acc += term
    out[small] = acc
    ub = u[~small]
    poly = np.zeros_like(ub)
    for j in range(l + 1):
        poly += ub ** (2 * j) / math.factorial(2 * j)
    out[~small] = np.cosh(ub) - poly
    return out


def _richardson(f_coarse: float, f_fine: float) -> float:
    # midpoint rule converges at order 2; one extrapolation step
    return f_fine + (f_fine - f_coarse) / 3.0


def levy_symbol_riemann(xi: float, l: int = 1, alpha: float = -0.5,
                        n: int = 400_000) -> float:
    """Symbol of the compensated jump generator; odd l only, where the
    (-1)^{l+1} prefactor is +1 and the compensated remainder is dissipative."""
    coarse = _levy_riemann(xi, l, alpha, _cos_remainder, n // 2)
    fine = _levy_riemann(xi, l, alpha, _cos_remainder, n)
    return _richardson(coarse, fine)


def levy_hamiltonian_riemann(xi: float, l: int = 1, alpha: float = -0.5,
                             n: int = 400_000) -> float:
    coarse = _levy_riemann(xi, l, alpha, _cosh_remainder, n // 2)
    fine = _levy_riemann(xi, l, alpha, _cosh_remainder, n)
    return _richardson(coarse, fine)


def levy_flat_series(xi: float, l: int = 1, alpha: float = -0.5,
                     hyperbolic: bool = False) -> float:
    """Compensated jump symbol of the flat density on [-1, 1], termwise:
    integrating the Taylor series of cos_comp(y xi) y^{-p}, p = 2l+1+alpha,
    over (0, 1] gives

        2 (-1)^{l+1} sum_{j > l} (-1)^j xi^{2j} / ((2j)! (2j - p + 1)).

    With ``hyperbolic`` the factor (-1)^j is dropped (cosh_comp in place of
    cos_comp), so every term is positive.  The oscillatory series alternates with terms as
    large as e^|xi|, so both are summed at a precision raised by that size.
    """
    with mp.workdps(30 + int(abs(xi) / 2.0)):
        # in multiprecision: a double 2j - p + 1 would carry a 1e-16 relative
        # error into terms as large as e^|xi|
        power = 2 * l + 1 + mp.mpf(alpha)
        x2 = mp.mpf(xi) ** 2
        term = x2 ** (l + 1) / mp.factorial(2 * l + 2)    # xi^{2j} / (2j)!
        total = mp.mpf(0)
        j = l + 1
        while True:
            sign = 1 if hyperbolic else (-1) ** j
            total += sign * term / (2 * j - power + 1)
            if j > abs(xi) and term < mp.mpf(10) ** -30 * (1 + abs(total)):
                break
            term = term * x2 / ((2 * j + 1) * (2 * j + 2))
            j += 1
        return float(2 * (-1) ** (l + 1) * total)


def _exp_remainder(w: complex, n: int) -> complex:
    """exp(w) minus its Taylor polynomial through degree n, for one complex
    w: the tail of the series for |w| <= 2, the direct difference beyond."""
    if abs(w) > 2.0:
        return complex(np.exp(w)) - sum(w**j / math.factorial(j) for j in range(n + 1))
    total, term, j = 0j, w ** (n + 1) / math.factorial(n + 1), n + 1
    while abs(term) > 1e-30 * (1.0 + abs(total)):
        total += term
        j += 1
        term = term * w / j
    return total


def _quad_checked(f, a: float, b: float, tol: float) -> float:
    """scipy's adaptive quad, with its error estimate held to
    10 tol (1 + |value|)."""
    from scipy import integrate

    val, err = integrate.quad(f, a, b, epsabs=tol * 1e-3, epsrel=1e-10, limit=400)
    assert err <= 10.0 * tol * (1.0 + abs(val)), f"quad error {err:.3e}"
    return val


def levy_symbol_quad(h, support: float, l: int, alpha: float, xi: complex,
                     tol: float = 1e-12) -> complex:
    """Compensated jump symbol by adaptive quadrature, one frequency at a
    time: (-1)^{l+1} int_0^S (exp_comp(i y xi) + exp_comp(-i y xi)) h(y)
    y^{-p} dy with exp_comp the remainder after degree 2l, real and
    imaginary parts integrated separately.  ``h`` takes a float."""
    power = 2 * l + 1 + alpha

    def both(y):
        w = 1j * y * complex(xi)
        return (_exp_remainder(w, 2 * l) + _exp_remainder(-w, 2 * l)) * h(y) * y ** (-power)

    re = _quad_checked(lambda y: both(y).real, 0.0, support, tol)
    im = _quad_checked(lambda y: both(y).imag, 0.0, support, tol)
    return (-1.0) ** (l + 1) * complex(re, im)


def levy_symbol_mp(h, support: float, l: int, alpha: float, xi: float) -> float:
    """Compensated jump symbol at a real frequency in mpmath:
    (-1)^{l+1} 2 int_0^S cos_comp(y xi) h(y) y^{-(2l+1+alpha)} dy, with
    cos_comp(u) = sum_{j > l} (-1)^j u^{2j} / (2j)! summed termwise, so no
    cancellation near y = 0.  ``h`` takes an mpf."""
    with mp.workdps(40):
        def cos_comp(u):
            term = (-1) ** (l + 1) * u ** (2 * l + 2) / mp.factorial(2 * l + 2)
            total, j = mp.mpf(0), l + 1
            while abs(term) > mp.mpf(10) ** -45 * (1 + abs(total)):
                total += term
                term = -term * u * u / ((2 * j + 1) * (2 * j + 2))
                j += 1
            return total

        power = 2 * l + 1 + mp.mpf(alpha)
        z = mp.mpf(float(xi))
        val = mp.quad(lambda y: cos_comp(y * z) * h(y) * y ** (-power), [0, support])
        return float((-1) ** (l + 1) * 2 * val)


# ---------------------------------------------------------------------------
# preset grids and tilted multipliers


def geometric_grid(start: float, factor: float, count: int) -> list:
    """start * factor**j for j < count: the grid that the `varadhan` and
    `exit` kinds build from their (start, factor, count) keys, and so the
    points of `presets.varadhan_grid(k)` and `presets.exit_grid(k)`."""
    return [start * factor**j for j in range(count)]


def norm_on_constants(op) -> float:
    """|multiplier| of a `TiltedOperator` at the zero mode: its norm on the
    constant functions."""
    zero = np.all(op.symbol.grid.points == 0, axis=1)
    return float(np.abs(op.multiplier[zero][0]))


# ---------------------------------------------------------------------------
# the lattice sum, one mode at a time


def kernel_values_loop(symbol, t: float, offsets):
    """p_t(0, z) by the per-mode loop that `semigroup.kernel_values` once
    ran: one array update per lattice mode, in lattice order, so its
    rounding is the sequential sum's."""
    z = np.atleast_1d(np.asarray(offsets, dtype=float))
    mult = np.exp(-t * symbol.values)
    xi = symbol.grid.points[:, 0].astype(float)
    acc = np.zeros(z.shape, dtype=complex)
    for w, f in zip(mult, xi):
        acc += w * np.exp(1j * f * z)
    out = (acc / TWO_PI).real
    return out if np.ndim(offsets) else float(out[0])


# ---------------------------------------------------------------------------
# auxiliary kernel


def aux_kernel_trapezoid(t: float, aux_order: int, z, n_eta: int = 2048):
    """kappa(z) = (1/pi) int_0^inf exp(-t eta^{2k}) cos(eta z) d eta by the
    trapezoid rule on n_eta nodes over [0, (80/t)^{1/2k}], where the damping
    has fallen to e^-80: the rule is spectrally accurate for this smooth,
    fast-decaying integrand, so it stands apart from closed forms and FFTs."""
    eta = np.linspace(0.0, (80.0 / t) ** (1.0 / aux_order), n_eta)
    damp = np.exp(-t * eta**aux_order)
    z = np.asarray(z, dtype=float)
    return np.trapezoid(damp * np.cos(np.outer(z, eta)), eta, axis=1) / math.pi


def ibp_check_unshared(op, f, t: float, starts=None,
                       moment_path: str = "analytic") -> tuple:
    """(lhs, rhs, rel_error) of the cascade identity at x = 0, by the
    check as it ran before moments were shared within a run: one
    `aux_moment` call per distinct start, each building its own kernel
    table."""
    from nmhl.malliavin import _grid_coefficients, aux_moment
    from nmhl.spectral import _principal_power

    starts = np.zeros(op.n) if starts is None else np.asarray(starts, dtype=float)
    coeffs = _grid_coefficients(op.base, np.asarray(f, dtype=float))
    damp = np.exp(-t * op.base.values)
    c = op.coupling_shift(t)
    a_alpha = _principal_power(op.base.values, op.alpha_frac)
    moments = {}

    def moment(start):
        key = np.float64(start).tobytes()
        if key not in moments:
            moments[key] = aux_moment(op, t, start=start, path=moment_path)
        return moments[key]

    carried = np.ones_like(c)
    for v in starts:
        carried = carried * moment(v)
    new_var = moment(0.0)
    phase = np.exp(1j * op.base.grid.points[:, 0].astype(float) * 0.0)
    lhs = float(np.real(np.sum(coeffs * damp * carried * new_var * phase)))
    rhs = float(np.real(op.weight_integral(t)
                        * np.sum(coeffs * a_alpha * damp * carried * phase)))
    eps = float(np.finfo(float).eps)
    return lhs, rhs, abs(lhs - rhs) / (abs(rhs) + eps)


# ---------------------------------------------------------------------------
# the frequency lattice


def ordered_lattice_lexsort(d: int, n: int) -> np.ndarray:
    """The box [-n, n]^d in ascending Euclidean norm with a lexicographic
    tie-break, by one `np.lexsort` on (norm, coordinates)."""
    axes = [np.arange(-n, n + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    norms = np.sum(pts.astype(np.int64) ** 2, axis=1)
    order = np.lexsort(tuple(pts[:, j] for j in reversed(range(d))) + (norms,))
    return pts[order]


# ---------------------------------------------------------------------------
# CSV text: the row-by-row rendering the byte-table writer replaced


def _csv_value(value, precision: int) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{precision}g}"
    return str(value)


def template_csv(meta: dict, columns: dict, precision: int) -> str:
    """The CSV text of `columns` under `meta`, one `template % row` per data
    row: a numpy column picks its `%` field from its dtype (bool -> text,
    integer -> `%d`, float -> `%.{precision}g` once per distinct bit
    pattern), any other column is rendered value by value."""
    fields, values = [], []
    for column in columns.values():
        kind = column.dtype.kind if isinstance(column, np.ndarray) else None
        if kind == "b":
            field, text = "%s", np.where(column, "true", "false").tolist()
        elif kind is not None and kind in "iu":
            field, text = "%d", column.tolist()
        elif kind == "f":
            bits = np.asarray(column, dtype=np.float64).view(np.int64)
            distinct, where = np.unique(bits, return_inverse=True)
            rendered = [f"%.{precision}g" % v
                        for v in distinct.view(np.float64).tolist()]
            field, text = "%s", np.array(rendered, dtype=object)[where].tolist()
        else:
            field, text = "%s", [_csv_value(v, precision) for v in column]
        fields.append(field)
        values.append(text)
    template = ",".join(fields)
    lines = ["# schema=1"]
    lines.extend(f"# {key}={_csv_value(meta[key], precision)}"
                 for key in sorted(meta))
    lines.append(",".join(columns))
    lines.extend(template % row for row in zip(*values, strict=True))
    return "\n".join(lines) + "\n"
