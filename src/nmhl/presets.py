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
    multi_indices,
)

#: bumped when any preset constant changes; echoed into CSV headers
DEFAULTS_VERSION = "1"


def flat_density(support: float = 1.0, tol: float = 1e-8) -> LevyDensity:
    """The reference jump density: h = 1 on [-support, support]."""

    def h(y):
        return np.ones_like(np.asarray(y, dtype=float))

    return LevyDensity(h=h, support=support, tol=tol)


def _quadratic_form(op, d: int) -> QuadraticForm:
    # no a_matrix: the identity, so the symbol is the sum of squared monomials
    a = (np.eye(len(multi_indices(d, op.k))) if op.a_matrix is None
         else np.asarray(op.a_matrix, dtype=float))
    return QuadraticForm(k=op.k, a_matrix=a, d=d)


#: CLI variant name -> (the [operator] keys it needs, in the order the config
#: checks them; the constructor of its spec from the parsed [operator] section
#: and the torus dimension d).  Config-level q exponents are bare ints, so
#: `perturbed` is one-dimensional.
VARIANT_TABLE = {
    "pure_power": (("k",), lambda op, d: PurePower(k=op.k, d=d)),
    "quadratic_form": (("k",), _quadratic_form),
    "levy": (("l", "alpha_levy"), lambda op, d: Levy(
        l=op.l, alpha_levy=op.alpha_levy,
        density=flat_density(op.support, op.tol))),
    "fractional": (("k", "alpha_frac"), lambda op, d: FractionalPower(
        base=PurePower(k=op.k, d=d), alpha_frac=op.alpha_frac)),
    "perturbed": (("k", "q"), lambda op, d: Perturbed(
        base=PurePower(k=op.k, d=d), q_coeffs={(e,): c for e, c in op.q})),
}


def make_operator(op, d: int) -> OperatorSpec:
    """The spec of a parsed [operator] section (a `config.OperatorConfig`,
    whose required keys the config layer has checked) on T^d."""
    if op.variant not in VARIANT_TABLE:
        raise ValidationError(f"unknown operator variant {op.variant!r}")
    return VARIANT_TABLE[op.variant][1](op, d)


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
DUHAMEL_CUTOFF = 32


def duhamel_pair():
    """Quartic base, the bare second-order perturbation q (what the series
    expands in), and the full perturbed symbol (the closed-form target),
    all on one lattice."""
    grid = FrequencyGrid(1, DUHAMEL_CUTOFF)
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
