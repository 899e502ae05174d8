"""Frozen preset operators, grids, and experiment parameter sets.

Everything the CLI report and the test suite sweep over lives here, so the
numbers are pinned in exactly one place.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grids import FrequencyGrid
from .spectral import (
    FractionalPower,
    Levy,
    LevyDensity,
    OperatorSpec,
    Perturbed,
    PurePower,
    QuadraticForm,
    Symbol,
    auto_cutoff,
    build_symbol,
)

#: bumped when any preset constant changes; echoed into CSV headers
DEFAULTS_VERSION = "1"


def flat_density(support: float = 1.0, tol: float = 1e-8) -> LevyDensity:
    """The reference jump density: h = 1 on [-support, support]."""

    def h(y):
        return np.ones_like(np.asarray(y, dtype=float))

    return LevyDensity(h=h, support=support, tol=tol)


def make_operator(variant: str, *, k: int | None = None, d: int = 1,
                  a_matrix=None, l: int | None = None,
                  alpha_levy: float | None = None, support: float = 1.0,
                  tol: float = 1e-8, alpha_frac: float | None = None,
                  q: dict | None = None) -> OperatorSpec:
    """Construct an operator spec from the flat parameter set the config
    layer exposes."""
    if variant == "pure_power":
        if k is None:
            raise ValidationError("pure_power needs k")
        return PurePower(k=k, d=d)
    if variant == "quadratic_form":
        if k is None:
            raise ValidationError("quadratic_form needs k")
        if a_matrix is None:
            from .spectral import multi_indices

            n = len(multi_indices(d, k))
            a_matrix = np.eye(n)
        return QuadraticForm(k=k, a_matrix=np.asarray(a_matrix, dtype=float), d=d)
    if variant == "levy":
        if l is None or alpha_levy is None:
            raise ValidationError("levy needs l and alpha_levy")
        return Levy(l=l, alpha_levy=alpha_levy, density=flat_density(support, tol))
    if variant == "fractional":
        if k is None or alpha_frac is None:
            raise ValidationError("fractional needs k (base) and alpha_frac")
        return FractionalPower(base=PurePower(k=k, d=d), alpha_frac=alpha_frac)
    if variant == "perturbed":
        if k is None or not q:
            raise ValidationError("perturbed needs k (base) and q coefficients")
        # config-level exponents are bare ints; Perturbed wants multi-indices
        coeffs = {
            (e if isinstance(e, tuple) else (int(e),)): float(c)
            for e, c in dict(q).items()
        }
        return Perturbed(base=PurePower(k=k, d=d), q_coeffs=coeffs)
    raise ValidationError(f"unknown operator variant {variant!r}")


# ---------------------------------------------------------------------------
# experiment presets


def varadhan_times(k: int) -> list:
    """Geometric two-decade grids keeping the smallest time inside the
    reliable evaluation window for each order."""
    start = 0.1 if k == 1 else 0.2
    return [start * 0.5**j for j in range(8)]


def exit_epsilons(k: int) -> np.ndarray:
    if k == 1:
        return np.geomspace(0.25, 0.05, 6)
    return np.geomspace(0.2, 0.02, 10)


EXIT_DELTA = 0.5

#: (k, xi_tilt, s) with eps = 1; the k = 2 grid stays in the regime where the
#: quartic tilt is dominated by the dissipation on the unit lattice.  The
#: (tilt=0.25, s=1) corner is excluded: there the kernel's sign-changing tail
#: mass, weighted by exp(tilt*z), exceeds the five-percent slack that the L1
#: bound allows, while longer times smooth it back under.
TILT_PRESETS = tuple(
    [(1, tilt, s) for tilt in (0.1, 0.25) for s in (1.0, 2.0)]
    + [(2, tilt, s) for tilt in (0.1, 0.15, 0.2) for s in (1.0, 1.5, 2.0)]
    + [(2, 0.25, s) for s in (1.5, 2.0)]
)

#: (k, alpha_frac, r, n) for the cascade identity
IBP_PRESETS = tuple(
    (k, alpha, r, n)
    for k in (1, 2)
    for alpha in (0.25, 0.5)
    for r in (0.0, 1.0)
    for n in (0, 1)
)
IBP_TIME = 1.0
IBP_CUTOFF = 32
IBP_RESOLUTION = 128

#: (symbol k, frac_alpha, l, expected r) with the shared decade window
EXPONENT_PRESETS = ((2, 0.5, 1, 0.5), (1, 0.5, 2, 1.0))
EXPONENT_TIMES = tuple(np.geomspace(1e-3, 1e-4, 7))


def exponent_symbol(k: int) -> Symbol:
    """Lattice padded 2x over the bare cutoff rule: the seminorm weight adds
    polynomial growth on top of the multiplier."""
    spec = PurePower(k=k)
    n = 2 * auto_cutoff(spec, min(EXPONENT_TIMES))
    return build_symbol(spec, FrequencyGrid(1, n))


DUHAMEL_Q = {(2,): 0.1}


def duhamel_pair(cutoff: int = 32):
    """Quartic base, the bare second-order perturbation q (what the series
    expands in), and the full perturbed symbol (the closed-form target),
    all on one lattice."""
    grid = FrequencyGrid(1, cutoff)
    base = build_symbol(PurePower(k=2), grid)
    full = build_symbol(
        Perturbed(base=PurePower(k=2), q_coeffs=dict(DUHAMEL_Q)), grid
    )
    q_sym = Symbol(
        grid=grid,
        values=full.values - base.values,
        order=2,
        ellipticity_order=0,
        spec=None,
    )
    return base, q_sym, full


def rate_endpoints() -> tuple:
    """(x, y) pairs: the unit displacement oracle and a >pi displacement that
    forces the winding search to a nonzero class."""
    return ((0.0, 1.0), (0.0, 5.0))
