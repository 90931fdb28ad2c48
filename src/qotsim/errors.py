"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible lengths or shapes."""


class DomainError(ValueError):
    """A value lies outside the domain an operation is defined on."""


class ResourceError(RuntimeError):
    """A computation would exceed a hard size cap."""


class ProtocolViolation(RuntimeError):
    """A party used the commitment oracle outside its contract."""
