"""The package's own exception type. Invalid configuration or input raises
the built-in ValueError instead (CLI exit code 2)."""


class DivergenceError(RuntimeError):
    """Training produced non-finite values (CLI exit code 3)."""
