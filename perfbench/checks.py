"""Output checks: every CSV an experiment writes is compared with values
computed apart from nmhl, or with a property the output must have.

References come from ``tests/oracles.py`` (image sums, closed-form Legendre
and Chernoff values) and from this file: direct Fourier sums of the
closed-form symbols, the termwise series of the flat-density jump symbol in
multiprecision, an image sum of the wrapped anisotropic Gaussian, a
multiprecision sum for the quartic kernel, and the
closed form w^(n+1) exp(-t) of both sides of the cascade identity for the
test function cos on the preset lattice.  No frozen copy of an earlier
output is used.

``check(experiment, files)`` returns a list of problems; empty means the
output is correct.  Each check reads the parameters from the CSV metadata
and first confirms that they match the benchmark's config.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

TWO_PI = 2.0 * math.pi
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  (tests/oracles.py of the checkout)

# tolerances, each far above the agreement measured on correct output and
# far below the 1e-4 relative change the self-test makes
SYMBOL_RTOL = 1e-12
LEVY_SYMBOL_ATOL = 1e-8
KERNEL_RTOL = 1e-10
LEVY_KERNEL_RTOL = 1e-8
MASS_TOL = 1e-8
EVEN_RTOL = 1e-12
GRID_ATOL = 1e-12
IBP_ANALYTIC_RTOL = 1e-12
IBP_QUADRATURE_RTOL = 1e-8
RATE_RTOL = 1e-6
RESIDUAL_TOL = 1e-8
CURVE_ATOL = 1e-8
EXIT_ATOL = 1e-7
EXACT_RTOL = 1e-9
TILT_RTOL = 1e-9
EXIT_RES = 2048

#: the preset sweeps the report and the ibp experiment run over
IBP_PRESETS = [(k, a, r, n) for k in (1, 2) for a in (0.25, 0.5)
               for r in (0.0, 1.0) for n in (0, 1)]
TILT_PRESETS = ([(1, tilt, s) for tilt in (0.1, 0.25) for s in (1.0, 2.0)]
                + [(2, tilt, s) for tilt in (0.1, 0.15, 0.2) for s in (1.0, 1.5, 2.0)]
                + [(2, 0.25, s) for s in (1.5, 2.0)])
EXIT_EPSILONS = {1: np.geomspace(0.25, 0.05, 6), 2: np.geomspace(0.2, 0.02, 10)}
SLACK_C = 0.5
#: columns a check can only bound, not recompute: the self-test moves them
#: past the bound instead of by a small relative step
BOUND_ONLY = {"residual": 1e-6}


class CheckFailed(Exception):
    pass


class Table:
    """One nmhl CSV: ``# key=value`` metadata, a header row, data rows."""

    def __init__(self, name: str, data: bytes):
        self.name = name
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != "# schema=1":
            raise CheckFailed(f"{name}: missing '# schema=1' line")
        self.meta = {}
        i = 1
        while i < len(lines) and lines[i].startswith("# "):
            key, _, value = lines[i][2:].partition("=")
            self.meta[key] = value
            i += 1
        if i >= len(lines):
            raise CheckFailed(f"{name}: no header row")
        self.header = lines[i].split(",")
        self.rows = [line.split(",") for line in lines[i + 1:]]
        if any(len(r) != len(self.header) for r in self.rows):
            raise CheckFailed(f"{name}: ragged rows")

    def col(self, name: str) -> np.ndarray:
        if name not in self.header:
            raise CheckFailed(f"{self.name}: no column {name!r}")
        j = self.header.index(name)
        return np.array([r[j] for r in self.rows], dtype=float)

    def text(self, name: str) -> list:
        j = self.header.index(name)
        return [r[j] for r in self.rows]

    def flags(self, name: str) -> np.ndarray:
        vals = self.text(name)
        if any(v not in ("true", "false") for v in vals):
            raise CheckFailed(f"{self.name}: {name} holds a non-boolean")
        return np.array([v == "true" for v in vals])


class Report:
    def __init__(self):
        self.problems = []

    def close(self, label: str, got, want, rtol: float = 0.0, atol: float = 0.0):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.problems.append(f"{label}: shape {got.shape} != {want.shape}")
            return
        err = np.abs(got - want)
        lim = atol + rtol * np.abs(want)
        bad = ~(err <= lim)
        if np.any(bad):
            i = int(np.argmax(np.where(bad, err - lim, -np.inf)))
            self.problems.append(
                f"{label}: {int(bad.sum())} value(s) off, worst "
                f"{float(got.flat[i])!r} vs {float(want.flat[i])!r}")

    def true(self, label: str, cond):
        if not bool(np.all(cond)):
            self.problems.append(label)


# ---------------------------------------------------------------------------
# references


def _legendre_rate(k: int, z: float, winding_max: int):
    """(rate, winding) of the straight line, smallest |w| then w on ties."""
    cands = [(oracles.power_legendre(k, z + TWO_PI * w), abs(w), w)
             for w in range(-winding_max, winding_max + 1)]
    best = min(c[0] for c in cands)
    w = min((c[1], c[2]) for c in cands if c[0] <= best + 1e-12)[1]
    return best, w


def _wrap(z):
    out = np.mod(np.asarray(z, dtype=float) + math.pi, TWO_PI) - math.pi
    return np.where(out == -math.pi, math.pi, out)


def _fourier_sum(symbol_of, t: float, y, cutoff: int):
    """(1/2pi) sum_{|xi| <= cutoff} exp(-t a(xi)) exp(i xi y), term by term
    in frequency pairs (a is evaluated at real or complex xi)."""
    y = np.asarray(y, dtype=float)
    xi = np.arange(-cutoff, cutoff + 1, dtype=float)
    mult = np.exp(-t * np.asarray(symbol_of(xi), dtype=complex))
    acc = np.zeros(y.shape, dtype=complex)
    for m, f in zip(mult, xi):
        acc += m * np.exp(1j * f * y)
    return acc.real / TWO_PI


def _quartic_log_abs(t: float, z: float, dps: int = 40) -> float:
    """log |p_t(0, z)| of the quartic generator by a multiprecision sum."""
    with mp.workdps(dps):
        tt, zz = mp.mpf(t), mp.mpf(z)
        total = mp.mpf(1)
        n = 1
        while True:
            term = mp.e ** (-tt * n ** 4)
            total += 2 * term * mp.cos(n * zz)
            if term < mp.mpf(10) ** (-dps - 5):
                break
            n += 1
        return float(mp.log(abs(total / (2 * mp.pi))))


def _levy_flat_symbol(xi: int, l: int, alpha: float) -> float:
    """Compensated jump symbol for the flat density on [-1, 1], termwise:
    2 (-1)^(l+1) sum_{j>l} (-1)^j xi^(2j) / ((2j)! (2j - p + 1)), p = 2l+1+alpha,
    summed in multiprecision because the terms reach e^|xi|."""
    power = 2 * l + 1 + alpha
    with mp.workdps(30 + int(abs(xi) / 2.0)):
        x2 = mp.mpf(xi) ** 2
        term = x2 ** (l + 1) / mp.factorial(2 * l + 2)     # xi^(2j) / (2j)!
        total = mp.mpf(0)
        j = l + 1
        while True:
            total += (-1) ** j * term / (2 * j - power + 1)
            if j > abs(xi) and term < mp.mpf(10) ** -25 * (1 + abs(total)):
                break
            term = term * x2 / ((2 * j + 1) * (2 * j + 2))
            j += 1
        return float(2 * (-1) ** (l + 1) * total)


def _symbol_reference(meta: dict, xi: np.ndarray) -> np.ndarray:
    """Closed-form symbol at integer lattice points xi (rows of d coords)."""
    variant = meta["operator.variant"]
    k = int(meta.get("operator.k", "0"))
    if variant == "pure_power":
        return np.sum(xi.astype(float) ** (2 * k), axis=1).astype(complex)
    if variant == "quadratic_form":
        if k != 1:
            raise CheckFailed("quadratic_form reference covers k = 1 only")
        a = np.array([[float(v) for v in row.split(",")]
                      for row in meta["operator.a_matrix"].split(";")])
        v = xi.astype(float)
        return np.einsum("ni,ij,nj->n", v, a, v).astype(complex)
    if variant == "fractional":
        alpha = float(meta["operator.alpha_frac"])
        return (np.abs(xi[:, 0].astype(float)) ** (2 * k * alpha)).astype(complex)
    if variant == "perturbed":
        out = (xi[:, 0].astype(float) ** (2 * k)).astype(complex)
        for part in meta["operator.q"].split(","):
            e, c = part.split(":")
            out += float(c) * (1j * xi[:, 0]) ** int(e)
        return out
    if variant == "levy":
        if float(meta["operator.support"]) != 1.0:
            raise CheckFailed("levy reference covers the unit flat density only")
        l, alpha = int(meta["operator.l"]), float(meta["operator.alpha_levy"])
        values = {int(v): _levy_flat_symbol(int(v), l, alpha)
                  for v in np.unique(np.abs(xi[:, 0]))}
        return np.array([values[int(abs(v))] for v in xi[:, 0]], dtype=complex)
    raise CheckFailed(f"no reference for variant {variant!r}")


# ---------------------------------------------------------------------------
# per-file checks


def _check_grid(rep: Report, label: str, coords: list, m: int, d: int):
    """Rows are the uniform grid 2 pi j / m, row-major for d = 2."""
    base = TWO_PI * np.arange(m) / m
    if d == 1:
        rep.close(f"{label} y grid", coords[0], base, atol=GRID_ATOL)
    else:
        rep.close(f"{label} y1 grid", coords[0], np.repeat(base, m), atol=GRID_ATOL)
        rep.close(f"{label} y2 grid", coords[1], np.tile(base, m), atol=GRID_ATOL)


def _check_kernel_values(rep: Report, label: str, p: np.ndarray, p_ref: np.ndarray,
                         mass_ref: float, d: int, rtol: float):
    m = p.shape[0]
    rep.close(f"{label} p_t", p, p_ref, atol=rtol * float(np.max(np.abs(p_ref))))
    mass = float(np.sum(p)) * (TWO_PI / m) ** d
    rep.close(f"{label} mass", mass, mass_ref, atol=MASS_TOL)
    flipped = np.roll(p[::-1], 1, axis=0)
    if d == 2:
        flipped = np.roll(flipped[:, ::-1], 1, axis=1)
    rep.close(f"{label} evenness", p, flipped,
              atol=EVEN_RTOL * float(np.max(np.abs(p))))


def check_kernel(rep: Report, ker: Table, sym: Table):
    meta = ker.meta
    if sym.meta != meta:
        rep.problems.append("symbol.csv and kernel.csv metadata differ")
    d = int(meta["grid.d"])
    t, x = float(meta["experiment.t"]), float(meta["experiment.x"])
    n_cut, m = int(meta["grid.cutoff_used"]), int(meta["grid.resolution_used"])
    if x != 0.0:
        raise CheckFailed("kernel references cover x = 0 only")

    # symbol: every lattice point once, each against the closed form
    xi = np.stack([sym.col(f"xi_{i + 1}") for i in range(d)], axis=1)
    rep.true("symbol.csv lattice points are not integers",
             xi == np.round(xi))
    xi = np.round(xi).astype(np.int64)
    want_pts = {tuple(p) for p in np.stack(np.meshgrid(
        *[np.arange(-n_cut, n_cut + 1)] * d, indexing="ij"), -1).reshape(-1, d)}
    got_pts = [tuple(p) for p in xi]
    rep.true("symbol.csv lattice is not the full cutoff box",
             len(got_pts) == len(want_pts) and set(got_pts) == want_pts)
    a = sym.col("re_a") + 1j * sym.col("im_a")
    a_ref = _symbol_reference(meta, xi)
    levy = meta["operator.variant"] == "levy"
    scale = np.maximum(1.0, np.abs(a_ref))
    tol = LEVY_SYMBOL_ATOL if levy else SYMBOL_RTOL * scale
    rep.close("symbol.csv re_a", a.real, a_ref.real, atol=tol)
    rep.close("symbol.csv im_a", a.imag, a_ref.imag, atol=tol)
    edge = np.max(np.abs(xi), axis=1) == n_cut
    rep.true("lattice cutoff leaves exp(-t a) above 1e-12 on its edge",
             np.exp(-t * a_ref[edge].real) <= 1e-12)

    # kernel on the spatial grid
    rows = m ** d
    if len(ker.rows) != rows:
        raise CheckFailed(f"kernel.csv has {len(ker.rows)} rows, want {rows}")
    names = ["y"] if d == 1 else ["y1", "y2"]
    _check_grid(rep, "kernel.csv", [ker.col(n) for n in names], m, d)
    p = ker.col("p_t").reshape((m,) * d)
    y = TWO_PI * np.arange(m) / m
    variant, k = meta["operator.variant"], int(meta.get("operator.k", "0"))
    if d == 2 and variant == "quadratic_form":
        p_ref = _anisotropic_gaussian(meta, t, y)
    elif variant == "pure_power" and k == 1 and d == 1:
        p_ref = oracles.wrapped_gaussian(t, y)
    elif variant == "pure_power":
        p1 = _fourier_sum(lambda z: z ** (2 * k), t, y, n_cut)
        p_ref = p1 if d == 1 else np.outer(p1, p1)
    elif d == 1:
        lattice = np.arange(-n_cut, n_cut + 1)[:, None]
        table = dict(zip(lattice[:, 0], _symbol_reference(meta, lattice)))
        p_ref = _fourier_sum(lambda z: np.array([table[int(v)] for v in z]),
                             t, y, n_cut)
    else:
        raise CheckFailed(f"no 2-d kernel reference for {variant!r}")
    mass_ref = math.exp(-t * float(_symbol_reference(meta, np.zeros((1, d), int))[0].real))
    _check_kernel_values(rep, "kernel.csv", p, p_ref, mass_ref, d,
                         LEVY_KERNEL_RTOL if levy else KERNEL_RTOL)


def _anisotropic_gaussian(meta: dict, t: float, y: np.ndarray) -> np.ndarray:
    """Image sum of exp(-t xi^T A xi) on T^2: Gaussians of covariance 2tA."""
    a = np.array([[float(v) for v in row.split(",")]
                  for row in meta["operator.a_matrix"].split(";")])
    inv = np.linalg.inv(a)
    y1, y2 = np.meshgrid(y, y, indexing="ij")
    out = np.zeros_like(y1)
    for m1 in range(-2, 3):
        for m2 in range(-2, 3):
            u1, u2 = y1 + TWO_PI * m1, y2 + TWO_PI * m2
            q = inv[0, 0] * u1 * u1 + 2 * inv[0, 1] * u1 * u2 + inv[1, 1] * u2 * u2
            out += np.exp(-q / (4.0 * t))
    return out / (4.0 * math.pi * t * math.sqrt(np.linalg.det(a)))


def check_quartic_kernel(rep: Report, table: Table, t: float):
    """report_kernel.csv: the k = 2 kernel at x = 0, 1-d."""
    m = len(table.rows)
    _check_grid(rep, table.name, [table.col("y")], m, 1)
    y = TWO_PI * np.arange(m) / m
    p_ref = _fourier_sum(lambda z: z ** 4, t, y, 64)
    _check_kernel_values(rep, table.name, table.col("p_t"), p_ref, 1.0, 1,
                         KERNEL_RTOL)


def check_ibp(rep: Report, table: Table, t: float, quadrature: bool):
    tags = [f"k{k}_a{a}_r{r:g}_n{n}" for k, a, r, n in IBP_PRESETS]
    rep.true(f"{table.name}: presets {table.text('preset')} != {tags}",
             table.text("preset") == tags)
    lhs, rhs, rel = table.col("lhs"), table.col("rhs"), table.col("rel_error")
    # f = cos on the preset lattice: both sides are w^(n+1) exp(-t), w = t^(r+1)/(r+1)
    want = np.array([(t ** (r + 1) / (r + 1)) ** (n + 1) * math.exp(-t)
                     for _, _, r, n in IBP_PRESETS])
    if len(want) != len(lhs):
        return
    rtol = IBP_QUADRATURE_RTOL if quadrature else IBP_ANALYTIC_RTOL
    rep.close(f"{table.name} rhs", rhs, want, rtol=rtol)
    rep.close(f"{table.name} lhs", lhs, want, rtol=rtol)
    eps = float(np.finfo(float).eps)
    rep.close(f"{table.name} rel_error", rel, np.abs(lhs - rhs) / (np.abs(rhs) + eps),
              rtol=EXACT_RTOL, atol=1e-300)
    rep.true(f"{table.name}: lhs != rhs beyond 1e-8", rel <= 1e-8)


def check_rate(rep: Report, table: Table, k: int, winding_max: int, ends: list):
    x, y = table.col("x"), table.col("y")
    rep.close(f"{table.name} x", x, [e[0] for e in ends])
    rep.close(f"{table.name} y", y, [e[1] for e in ends])
    refs = [_legendre_rate(k, b - a, winding_max) for a, b in ends]
    rep.close(f"{table.name} l_value", table.col("l_value"),
              [r[0] for r in refs], rtol=RATE_RTOL, atol=RATE_RTOL)
    rep.close(f"{table.name} winding", table.col("winding"), [r[1] for r in refs])
    rep.true(f"{table.name}: residual above {RESIDUAL_TOL}",
             table.col("residual") <= RESIDUAL_TOL)


def check_varadhan(rep: Report, table: Table, k: int, x: float, y: float, times):
    """Returns the three-point extrapolated limit, recomputed from the rows."""
    t, v = table.col("t"), table.col("v_t")
    rep.close(f"{table.name} t", t, times, rtol=1e-14)
    if t.shape != np.shape(times):
        return math.nan
    z = float(_wrap(y - x))
    power = 1.0 / (2 * k - 1)
    rate = oracles.power_legendre(k, abs(z))
    rep.close(f"{table.name} target", table.col("target"), np.full(t.size, -rate),
              rtol=EXACT_RTOL)
    slack = SLACK_C * t ** power * np.log(1.0 / t)
    rep.close(f"{table.name} slack", table.col("slack"), slack, rtol=EXACT_RTOL)
    rep.true(f"{table.name}: pass column disagrees with v_t <= target + slack",
             table.flags("pass") == (v <= table.col("target") + slack + 1e-12))
    if k == 1:
        v_ref = np.array([ti * math.log(float(oracles.wrapped_gaussian(ti, z)))
                          for ti in t])
    elif k == 2:
        v_ref = np.array([ti ** power * _quartic_log_abs(ti, z) for ti in t])
    else:
        raise CheckFailed(f"no kernel reference for k = {k}")
    rep.close(f"{table.name} v_t", v, v_ref, atol=CURVE_ATOL)
    sigma = oracles.power_sharp_rate(k, abs(z))
    rep.true(f"{table.name}: v_t above -sigma_k + slack",
             v <= -sigma + slack + 1e-12)
    # v_inf + b t^p log(1/t) through the last three samples, least squares
    g = t[-3:] ** power * np.log(1.0 / t[-3:])
    gm, vm = g.mean(), v[-3:].mean()
    b = float(np.sum((g - gm) * (v[-3:] - vm)) / np.sum((g - gm) ** 2))
    return float(vm - b * gm)


def check_exit(rep: Report, table: Table, k: int, delta: float, s: float):
    """Returns (fit_C, verdict of the program's pass rule)."""
    eps, log_mass, fit_c = table.col("eps"), table.col("log_mass"), table.col("fit_C")
    rep.close(f"{table.name} eps", eps, EXIT_EPSILONS[k], rtol=1e-12)
    if eps.shape != EXIT_EPSILONS[k].shape:
        return math.nan, False
    y = TWO_PI * np.arange(EXIT_RES) / EXIT_RES
    outside = np.abs(_wrap(y)) > delta
    ref = np.empty(eps.size)
    for i, e in enumerate(EXIT_EPSILONS[k]):
        if k == 1:
            p = oracles.wrapped_gaussian(s * e, y)
        else:
            cut = int(math.ceil((45.0 / (s * e ** (2 * k - 1))) ** (1.0 / (2 * k))))
            p = _fourier_sum(lambda z: e ** (2 * k - 1) * z ** (2 * k), s, y, cut)
        ref[i] = math.log(float(np.sum(np.abs(p[outside]))) * TWO_PI / EXIT_RES)
    rep.close(f"{table.name} log_mass", log_mass, ref, atol=EXIT_ATOL)
    inv = 1.0 / eps
    im, lm = inv.mean(), log_mass.mean()
    slope = float(np.sum((inv - im) * (log_mass - lm)) / np.sum((inv - im) ** 2))
    rep.close(f"{table.name} fit_C", fit_c, np.full(eps.size, -slope), rtol=EXACT_RTOL)
    resid = log_mass - (lm + slope * (inv - im))
    r2 = 1.0 - float(np.sum(resid ** 2)) / float(np.sum((log_mass - lm) ** 2))
    rep.true(f"{table.name}: R^2 = {r2:.4f} < 0.99", r2 >= 0.99)
    chernoff = -oracles.chernoff_exponent(k, delta, s)[1]
    ratio = -slope / chernoff
    target, tol = (1.0, 0.15) if k == 1 else (oracles.saddle_factor(k), 0.20)
    rep.true(f"{table.name}: exit ratio {ratio:.4f} not within {tol:.0%} of "
             f"{target:.4f}", abs(ratio / target - 1.0) <= tol)
    return -slope, r2 >= 0.99 and abs(ratio - 1.0) <= 0.15


def check_tilted(rep: Report, table: Table):
    k, tilt, s = table.col("k"), table.col("xi_tilt"), table.col("s")
    rep.close(f"{table.name} presets", np.stack([k, tilt, s], 1) if k.size else k,
              np.array(TILT_PRESETS))
    if k.size != len(TILT_PRESETS):
        return
    h = tilt ** (2 * k)
    rep.close(f"{table.name} predicted", table.col("predicted"), np.exp(s * h),
              rtol=EXACT_RTOL)
    rep.close(f"{table.name} bound", table.col("bound"), np.exp(1.05 * s * h),
              rtol=EXACT_RTOL)
    y = TWO_PI * np.arange(EXIT_RES) / EXIT_RES
    ref = []
    for kk, tau, ss in TILT_PRESETS:
        if kk == 1:
            p = oracles.tilted_gaussian_kernel(ss, tau, y)
        else:
            p = _fourier_sum(lambda z: (z - 1j * tau) ** (2 * kk), ss, y, 64)
        ref.append(float(np.sum(np.abs(p))) * TWO_PI / EXIT_RES)
    measured = table.col("measured")
    rep.close(f"{table.name} measured", measured, ref, rtol=TILT_RTOL)
    rep.true(f"{table.name}: pass column disagrees with measured <= bound",
             table.flags("pass") == (measured <= table.col("bound")))


# ---------------------------------------------------------------------------
# per-experiment dispatch


def _experiment(files: dict, name: str) -> Table:
    if name not in files:
        raise CheckFailed(f"missing output {name}")
    return Table(name, files[name])


def _check_config(rep: Report, meta: dict, config: Path):
    """Every key the benchmark's config sets is echoed unchanged."""
    section = None
    for line in config.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line[1:-1]
        elif "=" in line:
            key, _, value = (s.strip() for s in line.partition("="))
            got = meta.get(f"{section}.{key}")
            rep.true(f"metadata {section}.{key}={got!r}, config says {value!r}",
                     got is not None and _same_value(key, got, value))


def _same_value(key: str, got: str, want: str) -> bool:
    if key == "q":      # exponent:coeff pairs, echoed sorted by exponent
        pairs = lambda s: sorted((int(e), float(c)) for e, c in
                                 (p.split(":") for p in s.split(",")))
        return pairs(got) == pairs(want)
    if key == "a_matrix":
        return [float(v) for v in got.replace(";", ",").split(",")] == [
            float(v) for v in want.replace(";", ",").split(",")]
    try:
        return float(got) == float(want)
    except ValueError:
        return got == want


def check(experiment, files: dict) -> list:
    """Problems found in one experiment's output files ({name: bytes})."""
    rep = Report()
    try:
        _dispatch(rep, experiment, files)
    except CheckFailed as exc:
        rep.problems.append(str(exc))
    except (KeyError, ValueError, IndexError) as exc:
        rep.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return rep.problems


def _dispatch(rep: Report, experiment, files: dict):
    kind = experiment.kind
    first = {"kernel": "kernel.csv", "ibp": "ibp.csv", "rate": "rate.csv",
             "varadhan": "varadhan.csv", "exit": "exit.csv",
             "report": "report.csv"}[kind]
    main = _experiment(files, first)
    meta = main.meta
    _check_config(rep, meta, experiment.config)
    if kind == "kernel":
        check_kernel(rep, main, _experiment(files, "symbol.csv"))
    elif kind == "ibp":
        check_ibp(rep, main, float(meta["experiment.t"]),
                  meta["experiment.moment_path"] == "quadrature")
    elif kind == "rate":
        if meta["operator.variant"] != "pure_power":
            raise CheckFailed("rate references cover pure powers only")
        ends = [(float(meta["experiment.x"]), float(meta["experiment.y"]))]
        check_rate(rep, main, int(meta["operator.k"]),
                   int(meta["experiment.winding_max"]), ends)
    elif kind == "varadhan":
        k = int(meta["experiment.k"])
        times = [float(meta["experiment.t_start"]) * float(meta["experiment.t_factor"]) ** j
                 for j in range(int(meta["experiment.t_count"]))]
        check_varadhan(rep, main, k, float(meta["experiment.x"]),
                       float(meta["experiment.y"]), times)
    elif kind == "exit":
        check_exit(rep, main, int(meta["experiment.k"]),
                   float(meta["experiment.delta"]), float(meta["experiment.s"]))
    else:
        _check_report(rep, files, main)


def _check_report(rep: Report, files: dict, summary: Table):
    if summary.meta.get("experiment.fast") != "true":
        raise CheckFailed("report reference covers fast=true only")
    ker = _experiment(files, "report_kernel.csv")
    check_quartic_kernel(rep, ker, 0.01)
    ibp = _experiment(files, "report_ibp.csv")
    check_ibp(rep, ibp, 1.0, quadrature=False)
    rate = _experiment(files, "report_rate.csv")
    check_rate(rep, rate, 1, 2, [(0.0, 1.0), (0.0, 5.0)])
    var = _experiment(files, "report_varadhan_k1.csv")
    extrap = check_varadhan(rep, var, 1, 0.0, 1.0, [0.1 * 0.5 ** j for j in range(8)])
    ext = _experiment(files, "report_exit_k1.csv")
    fit_c, exit_ok = check_exit(rep, ext, 1, 0.5, 0.1)
    tilt = _experiment(files, "report_tilted.csv")
    check_tilted(rep, tilt)

    p_min = float(np.min(ker.col("p_t")))
    max_rel = float(np.max(ibp.col("rel_error")))
    max_res = float(np.max(rate.col("residual")))
    l1 = oracles.power_legendre(1, 1.0)
    want = [
        ("kernel", "min_value", p_min, p_min < 0.0, ker.name),
        ("ibp", "max_rel_error", max_rel, max_rel < 1e-8, ibp.name),
        ("rate", "max_residual", max_res, max_res <= RESIDUAL_TOL, rate.name),
        ("varadhan_k1", "extrapolated", extrap,
         bool(np.all(var.flags("pass"))) and extrap <= -l1 + 0.02 * l1, var.name),
        ("exit_k1", "fit_c", fit_c, exit_ok, ext.name),
        ("tilted", "presets", float(len(tilt.rows)),
         bool(np.all(tilt.flags("pass"))), tilt.name),
    ]
    rep.true(f"report.csv rows {summary.text('experiment')} do not match",
             summary.text("experiment") == [w[0] for w in want]
             and summary.text("metric") == [w[1] for w in want]
             and summary.text("csv_path") == [w[4] for w in want])
    if len(summary.rows) != len(want):
        return
    rep.close("report.csv value", summary.col("value"), [w[2] for w in want],
              rtol=EXACT_RTOL, atol=1e-300)
    rep.true("report.csv passed column disagrees with the component files",
             list(summary.flags("passed")) == [w[3] for w in want])
