"""Exception types shared across the package."""


class SbmlabError(Exception):
    """Base class for package errors."""


class NumericsError(SbmlabError):
    """A numerical routine failed to reach its accuracy target."""


class ResourceLimitError(SbmlabError):
    """A configured resource cap was exceeded (e.g. particle blowup)."""


class UsageError(SbmlabError):
    """An operation was invoked without its required setup."""


class ConfigError(SbmlabError):
    """Invalid experiment configuration; carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def raise_violations(violations: list[str]) -> None:
    """Raise ValueError of the broken rules a `*_violations` call listed, if any."""
    if violations:
        raise ValueError("; ".join(violations))
