"""Exception taxonomy for the laboratory.

Every failure mode that callers are expected to handle gets its own class so
test harnesses can assert on the exact condition rather than parsing messages.
"""

from __future__ import annotations


class NmhlError(Exception):
    """Base class for all package-specific errors."""


# ---- symbol construction ----

class NonPositiveDefiniteForm(NmhlError):
    """Quadratic-form coefficient matrix failed the Cholesky test."""


class DegreeViolation(NmhlError):
    """Perturbation polynomial degree is not strictly below the base order."""


class BranchCut(NmhlError):
    """Fractional power requested for a symbol value with negative real part."""


class QuadratureNonConverged(NmhlError):
    """Quadrature error estimate stayed above tolerance."""


# ---- kernel / semigroup evaluation ----

class CutoffTooSmall(NmhlError):
    """Frequency cutoff leaves non-negligible boundary-shell multiplier mass.

    Carries ``suggested_cutoff`` so callers can retry.
    """

    def __init__(self, message: str, suggested_cutoff: int | None = None):
        super().__init__(message)
        self.suggested_cutoff = suggested_cutoff


class ComplexResidue(NmhlError):
    """Kernel values kept a non-negligible imaginary part."""


class TiltOutOfDomain(NmhlError):
    """Complex frequency shift left the symbol's analytic continuation domain."""


# ---- integration by parts machinery ----

class MomentDiverged(NmhlError):
    """Auxiliary moment integral failed to converge on the truncated domain."""


class AuxDomainTooSmall(NmhlError):
    """Auxiliary kernel mass outside the truncated domain exceeds tolerance,
    or the domain lies too far out for doubles to resolve the kernel."""


# ---- variational machinery ----

class SupUnbounded(NmhlError):
    """Legendre supremum diverges (Hamiltonian grows too slowly, or is not
    convex)."""


class OptimizerStalled(NmhlError):
    """Path optimizer could not reach the first-order residual target."""


class FitUnstable(NmhlError):
    """Least-squares fit quality below the configured threshold."""


# ---- configuration ----

class ParseError(NmhlError):
    """Config text could not be parsed; carries line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(NmhlError):
    """Config parsed but violates the schema (unknown key, bad value, ...)."""
