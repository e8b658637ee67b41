"""Exception types shared across the library."""


class Error(Exception):
    """Base class for all triconvex errors."""


class ParseError(Error):
    """Malformed graph text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(Error):
    """Input violates a documented precondition."""


class ContractViolationError(Error):
    """A call's contract failed, e.g. a seed outside its atom or a graph not prime."""


class BudgetExceededError(Error):
    """An exponential oracle was asked to run beyond its fixed budget."""


class AlgorithmError(Error):
    """Internal invariant failed; indicates a bug, not bad input."""
