"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class UnsupportedFeatureError(ParameterError):
    """The request is valid but deliberately outside what this package does."""


class NotApplicableError(ParameterError):
    """The requested construction is undefined for these parameters."""


class ContractViolationError(ValueError):
    """Values that must be consistent (e.g. block weights that must sum to 1) are not."""


class ResourceLimitError(RuntimeError):
    """A brute-force computation would exceed its hard size cap."""


class OracleMismatchError(AssertionError):
    """The dense reference computation disagrees with the block-level one."""
