"""Exception types shared across the package."""


class DesignError(Exception):
    """Base class for all design-related errors."""


class ParameterError(DesignError, ValueError):
    """Parameters outside the supported family or range."""


class InvalidDesignError(DesignError):
    """Input claims to be a COD of the target family but is not."""


class BudgetExceededError(DesignError):
    """Search-space estimate exceeds the oracle's fixed budget."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"estimated {estimate} candidates exceeds budget {budget}"
        )


class MalformedFileError(DesignError):
    """A file failed to parse or validate; carries a location hint."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)
