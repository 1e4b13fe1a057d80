"""Exception types shared across the package."""


class CubicliffordError(Exception):
    """Base class for all package errors."""


class NotPrime(CubicliffordError):
    pass


class CharTwoOrThree(CubicliffordError):
    pass


class FieldMismatch(CubicliffordError):
    pass


class NotSquare(CubicliffordError):
    pass


class DegreeOutOfRange(CubicliffordError):
    pass


class BudgetExceeded(CubicliffordError):
    pass


class ZeroPoint(CubicliffordError):
    pass


class NotFiniteDimensional(CubicliffordError):
    pass


class ZeroAlgebra(CubicliffordError):
    pass


class NotScalar(CubicliffordError):
    pass


class CharacteristicTooSmall(CubicliffordError):
    pass


class SplitFailure(CubicliffordError):
    pass


class FieldTooLarge(CubicliffordError):
    pass


class KernelDimensionUnexpected(CubicliffordError):
    pass


class CriterionMismatch(CubicliffordError):
    pass
