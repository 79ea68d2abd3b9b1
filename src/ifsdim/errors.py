"""Exception types shared across the package."""


class ConfigurationError(Exception):
    """Raised when a system description or run configuration is unusable."""


class CloudSizeError(ConfigurationError):
    """Raised when a point-cloud build would exceed the configured cap,
    in points or in the children of one level."""

    def __init__(self, projected: int, cap: int, what: str = "projected cloud size"):
        super().__init__(f"{what} {projected} exceeds the configured cap of {cap} points")
        self.projected = projected
        self.cap = cap


class DomainError(ValueError):
    """Raised when a formula or operation is evaluated outside its domain."""
