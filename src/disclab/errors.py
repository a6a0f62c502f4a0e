"""Shared exception types."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """Problem size exceeds the configured exhaustive-enumeration bound."""


class InstanceFormatError(ParameterError):
    """An instance file is missing, unreadable or malformed."""


class UnsupportedDisorderError(ParameterError):
    """Operation is defined only for a different disorder family."""


class ContractViolationError(RuntimeError):
    """An online step function broke its interface contract."""
