"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or unknown run configuration."""


class SolverAbort(RuntimeError):
    """Time stepping stopped early on an instability or non-finite state.

    Carries the partial trajectory integrated so far and a human-readable
    diagnostic.
    """

    def __init__(self, diagnostic, partial=None):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic
        self.partial = partial


class StabilityWarning(UserWarning):
    """dt exceeds the advisory stability heuristic."""
