"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Vector or matrix arguments have inconsistent dimensions."""


class DegenerateFrameError(ValueError):
    """A tangent frame has real rank below the ambient dimension."""


class NonTransverseError(ValueError):
    """A pair of Lagrangian planes is not transverse within tolerance."""


class GradingError(ValueError):
    """Grading data (phases, potentials, degrees) is internally inconsistent."""


class BranchCutError(ValueError):
    """A phase evaluation landed within tolerance of the arg branch cut."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


class NewtonError(RuntimeError):
    """Damped Newton iteration did not converge; carries the best residual."""

    def __init__(self, message, best_x=None, best_residual=None, iterations=None):
        super().__init__(message)
        self.best_x = best_x
        self.best_residual = best_residual
        self.iterations = iterations


class DifferentialError(ValueError):
    """A GF(2) differential violates the complex axioms (grading or d^2 = 0)."""
