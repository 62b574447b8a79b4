"""Exception hierarchy shared by all modules."""


class PwLienardError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(PwLienardError, ValueError):
    """The input breaks a stated rule; the CLI exits 2, as on every ValueError."""


class NegativeEnergy(InvalidInput):
    """Half-power polynomial evaluated at h < 0 or at a NaN or infinite h."""


class WrongCase(PwLienardError):
    """Operation applied to a system with the wrong switching case."""


class OddnessViolated(InvalidInput):
    """A closed form that requires odd f0/g0 was given even-index coefficients."""


class TooManyTargets(InvalidInput):
    """More target zeros requested than the theorem bound allows."""


class InfeasibleShape(InvalidInput):
    """The requested zero placement needs s-powers the (m, n) shape cannot produce."""


class NoConvergence(PwLienardError):
    """Numeric design solve did not reach the residual tolerance."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class QuadratureFailure(PwLienardError):
    """Adaptive quadrature could not meet the error target."""


class ZeroPolynomial(InvalidInput):
    """Root isolation requested for the identically-zero polynomial."""


class PrecisionLoss(PwLienardError):
    """A float left its range: a coefficient converted to float lost all
    significant digits, or a half-power polynomial overflowed at a large
    finite h."""


class SimulationError(PwLienardError):
    """Base class for trajectory integration failures."""


class EscapeAnnulus(SimulationError):
    """Trajectory left the annulus simulator.R_MIN < r < simulator.R_MAX."""


class MaxStepsExceeded(SimulationError):
    """Integrator hit the step cap before reaching the section."""


class NonTransversalCrossing(SimulationError):
    """The angular speed about the origin fell below the guard threshold,
    as where the flow slides along a switching line."""
