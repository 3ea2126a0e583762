"""Exception types shared across the solver suite, and the one UTF-8 text
reader that turns an undecodable file into a `ConfigError`."""

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


def read_text(path, what: str) -> str:
    """The text of the UTF-8 file at `path`.  A file that does not decode
    raises `ConfigError`, naming it as `what` ("config file", ...) and its path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from None


class BlowupError(DiracDGError):
    """Time stepping produced non-finite or absurdly large coefficients."""

    def __init__(self, t: float, detail: str = ""):
        self.t, self.detail = t, detail
        msg = f"solution blew up at t={t:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):  # pickled as the arguments, not the message
        return type(self), (self.t, self.detail)


class NoConvergence(DiracDGError):
    """Iterative solve failed to reach tolerance, or reached it on a solution
    it must not return (`what` names the failure)."""

    def __init__(self, iterations: int, residual: float, what: str = "no convergence"):
        self.iterations, self.residual, self.what = iterations, residual, what
        super().__init__(f"{what} after {iterations} iterations "
                         f"(residual {residual:.3e})")

    def __reduce__(self):
        return type(self), (self.iterations, self.residual, self.what)


class InsufficientLevels(DiracDGError):
    """Convergence-order computation needs at least two refinement levels."""


class Unsupported(DiracDGError):
    """Requested feature outside the implemented range (e.g. polynomial degree)."""
