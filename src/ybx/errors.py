"""Exception types shared across the toolkit."""


class YbxError(Exception):
    """Base class for all toolkit errors."""


class MissingPair(YbxError):
    pass


class IndexOutOfRange(YbxError):
    pass


class NotABijection(YbxError):
    pass


class SizeTooLarge(YbxError):
    pass


class NotIdempotent(YbxError):
    pass


class NotLeftNondegenerate(YbxError):
    pass


class NotBraided(YbxError):
    pass


class NonHomogeneousInput(YbxError):
    pass


class NonQuadraticInput(YbxError):
    pass


class NotBinomial(YbxError):
    pass


class InsufficientDegree(YbxError):
    pass


class ShapeMismatch(YbxError):
    pass


class PreconditionViolated(YbxError):
    pass


class CheckFailed(YbxError):
    """An identity the construction guarantees did not hold."""


class InvalidArgument(YbxError, ValueError):
    """An argument value outside its domain, e.g. a degree bound below 3."""


class ParseError(YbxError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
