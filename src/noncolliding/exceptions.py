"""Exception types shared across the library."""


class ParameterError(ValueError):
    """A geometric or structural parameter is outside its admissible set."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeError(DomainError):
    """An argument lies outside the documented accurate range."""


class ValidationError(ValueError):
    """An input object fails a structural invariant (e.g. non-Hermitian matrix)."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole.

    The offending pole location is carried in ``pole``.
    """

    def __init__(self, message, pole):
        super().__init__(message)
        self.pole = pole


class EvaluationError(RuntimeError):
    """A non-finite kernel sample or an arith value beyond rounding; ``point`` names it."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point
