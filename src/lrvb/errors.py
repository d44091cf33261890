"""Exception hierarchy shared by all lrvb modules."""


class LrvbError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LrvbError):
    """Parameters lie outside the open domain of an exponential family."""


class DimensionMismatch(LrvbError):
    """Vector or matrix arguments have incompatible shapes."""


class NonConvergence(LrvbError):
    """Optimizer failed to reach the gradient tolerance within max_iter."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class DomainViolation(LrvbError):
    """An optimizer step left the feasible region and backtracking failed."""


class SingularSystem(LrvbError):
    """(I - VH) is numerically singular, I - L'HL is not positive definite,
    or a block of V has no Cholesky factor."""


class NonDifferentiablePrior(LrvbError):
    """The log prior is not differentiable in the requested direction."""


class QuadratureFailure(LrvbError):
    """A quadrature estimate did not meet its error target."""


class ZeroPriorDensity(LrvbError):
    """Prior density underflowed at a requested point; ratio is ill-posed."""


class NormalizationFailure(LrvbError):
    """A density normalizer integral diverged or failed to converge."""


class NotConjugate(LrvbError):
    """Closed-form posterior requested for a non-conjugate model."""


class DegenerateChain(LrvbError):
    """MCMC acceptance rate outside the usable range, or coupled chains
    whose sampled differences are all zero."""
