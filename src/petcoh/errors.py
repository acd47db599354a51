"""Exception types shared across the package."""


class IntegrityError(RuntimeError):
    """An exactness guarantee failed, which indicates a pipeline bug."""
