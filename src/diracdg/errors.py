"""Exception types shared across the solver suite."""

from __future__ import annotations


class DiracDGError(Exception):
    """Base class for all package-specific failures."""


class DomainError(DiracDGError):
    """Raised when an operation leaves its mathematical domain.

    The main producer is the signed power rho**kappa with non-integer kappa
    and negative rho, where no real branch exists.
    """


class ConfigError(DiracDGError):
    """Invalid or inconsistent run configuration (bad scheme name, unknown key, ...)."""


class BlowupError(DiracDGError):
    """Time stepping produced non-finite or absurdly large coefficients."""

    def __init__(self, t: float, detail: str = ""):
        self.t = t
        msg = f"solution blew up at t={t:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NoConvergence(DiracDGError):
    """Iterative solve failed to reach tolerance, or reached it on a solution
    it must not return (`what` names the failure)."""

    def __init__(self, iterations: int, residual: float, what: str = "no convergence"):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"{what} after {iterations} iterations (residual {residual:.3e})"
        )


class InsufficientLevels(DiracDGError):
    """Convergence-order computation needs at least two refinement levels."""


class Unsupported(DiracDGError):
    """Requested feature outside the implemented range (e.g. polynomial degree)."""
