"""Frozen preset operators, grids, and experiment parameter sets.

Everything the CLI report and the test suite sweep over lives here, so the
numbers are pinned in exactly one place.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

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

#: the reference jump density's support and quadrature tolerance
LEVY_SUPPORT = 1.0
LEVY_TOL = 1e-8


def flat_density(support: float = LEVY_SUPPORT, tol: float = LEVY_TOL) -> LevyDensity:
    """The reference jump density: h = 1 on [-support, support]."""

    def h(y):
        return np.ones_like(np.asarray(y, dtype=float))

    return LevyDensity(h=h, support=support, tol=tol)


#: the most monomials an identity form builds its matrix for (a 256 x 256
#: identity, 0.5 MB): d = 2 with k up to 255
FORM_SIZE_MAX = 256


def _quadratic_form(op, d: int) -> QuadraticForm:
    # no a_matrix: the identity, so the symbol is the sum of squared monomials
    n = math.comb(d + op.k - 1, op.k)
    if op.a_matrix is None and n > FORM_SIZE_MAX:
        raise ValidationError(f"quadratic_form with k = {op.k} on d = {d} has {n} "
                              f"monomials, above FORM_SIZE_MAX = {FORM_SIZE_MAX}")
    a = np.eye(n) if op.a_matrix is None else np.asarray(op.a_matrix, dtype=float)
    return QuadraticForm(k=op.k, a_matrix=a, d=d)


class Variant(NamedTuple):
    """One CLI operator variant: the [operator] keys it needs (in the order
    the config checks them), the optional keys it also reads (config refuses
    any other), and the constructor of its spec from the parsed [operator]
    section and d.  What the variant runs, and on which dimension, is read
    off that spec (`config._check_runs`)."""

    needs: tuple
    reads: tuple
    build: Callable


#: CLI variant name -> its row.  Config-level q exponents are bare ints, so
#: `perturbed` is built on d = 1 whatever the grid; so is `levy`, whose jump
#: density is one-dimensional.
VARIANT_TABLE = {
    "pure_power": Variant(("k",), (), lambda op, d: PurePower(k=op.k, d=d)),
    "quadratic_form": Variant(("k",), ("a_matrix",), _quadratic_form),
    "levy": Variant(("l", "alpha_levy"), ("support", "tol"),
                    lambda op, d: Levy(l=op.l, alpha_levy=op.alpha_levy,
                                       density=flat_density(op.support, op.tol))),
    "fractional": Variant(("k", "alpha_frac"), (),
                          lambda op, d: FractionalPower(
                              base=PurePower(k=op.k, d=d), alpha_frac=op.alpha_frac)),
    "perturbed": Variant(("k", "q"), (),
                         lambda op, d: Perturbed(
                             base=PurePower(k=op.k),
                             q_coeffs={(e,): c for e, c in op.q})),
}


def make_operator(op, d: int) -> OperatorSpec:
    """The spec of a parsed [operator] section (a `config.OperatorConfig`,
    whose keys the config layer has checked) for a run on T^d; its
    `dimension` is the one the variant runs on."""
    return VARIANT_TABLE[op.variant].build(op, d)


# ---------------------------------------------------------------------------
# experiment presets


def varadhan_grid(k: int) -> tuple:
    """(start, factor, count) of the time grid start * factor**j: geometric
    two-decade grids keeping the smallest time inside the reliable evaluation
    window for each order."""
    return (0.1 if k == 1 else 0.2), 0.5, 8


def exit_grid(k: int) -> tuple:
    """(start, factor, count) of the eps grid start * factor**j: down to 0.05
    from 0.25 in 6 points for k = 1, down to 0.02 from 0.2 in 10 points for
    any other k."""
    return (0.25, 0.2 ** 0.2, 6) if k == 1 else (0.2, 0.1 ** (1 / 9), 10)


EXIT_DELTA = 0.5
EXIT_S = 0.1

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


def exponent_symbol(spec: OperatorSpec) -> Symbol:
    """The symbol of a seminorm exponent fit over EXPONENT_TIMES: its lattice
    is padded 2x over the cutoff rule at the smallest time, since the
    seminorm weight adds polynomial growth on top of the multiplier."""
    n = 2 * auto_cutoff(spec, min(EXPONENT_TIMES))
    return build_symbol(spec, FrequencyGrid(spec.dimension, n))


def rate_endpoints() -> tuple:
    """(x, y) pairs: the unit displacement oracle and a >pi displacement that
    forces the winding search to a nonzero class."""
    return ((0.0, 1.0), (0.0, 5.0))
