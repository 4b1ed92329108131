"""Exception types shared across the package."""


class DelayBsdeError(Exception):
    """Base class for all package-specific errors."""


class GridAlignmentError(DelayBsdeError):
    """A time point, partition or delay does not sit on the grid it must share."""


class MonotonicityError(DelayBsdeError):
    """A realized increasing process produced a decreasing path."""


class ConstraintViolationError(DelayBsdeError):
    """A well-posedness constraint (beta range, smallness constant, ...) is violated."""


class SingularSystemError(DelayBsdeError):
    """Normal equations are singular and no ridge regularization was requested."""


class NumericOverflowError(DelayBsdeError):
    """A weighted moment overflowed; typically beta * A(T) is too large."""


class GeneratorEvaluationError(DelayBsdeError):
    """A generator returned non-finite values."""


class BlowupError(DelayBsdeError):
    """The backward sweep produced non-finite values."""


class NonContractionError(DelayBsdeError):
    """Picard iteration failed to contract within the allowed iterations."""


class FamilyInvalidError(DelayBsdeError):
    """A perturbation family member violates the shared standing assumptions."""


class ConfigError(DelayBsdeError):
    """An experiment configuration cannot be used; ``errors`` holds a refused
    problem section's (code, message) faults (registry.problem_from_dict)."""

    def __init__(self, message="", errors=()):
        self.errors = list(errors)
        super().__init__(message or "; ".join(text for _, text in self.errors))
