"""Exception types shared across the package.

Every domain error derives from :class:`WeightSystemError`, so callers can
catch one base class at the boundary (the command-line front end does exactly
that) while library code raises the precise subclass.
"""


class WeightSystemError(Exception):
    """Base class for all errors raised by this package."""


class NotCoprime(WeightSystemError):
    """A pair (m, n) with gcd(m, n) != 1, where a circle subgroup was expected.

    This includes (0, 0), which names no circle subgroup at all.
    """


class IllegalDeterminant(WeightSystemError):
    """An adjacent-pair determinant is zero where legality requires nonzero."""


class IllegalWeightSystem(WeightSystemError):
    """An operation required a legal weight system and got an illegal one.

    Carries the offending :class:`~t2orbits.core.ValidationReport` as
    ``report``.
    """

    def __init__(self, report):
        self.report = report
        lines = "; ".join(v.describe() for v in report.violations)
        super().__init__(f"illegal weight system: {lines}")


class NotUnimodular(WeightSystemError):
    """A basis-change matrix whose determinant is not +1 or -1."""


class IsotropyMismatch(WeightSystemError):
    """Connected-sum selections whose isotropy subgroups differ."""


class OrientationMismatch(WeightSystemError):
    """Connected-sum operands carrying opposite orientations."""


class IllegalJunction(WeightSystemError):
    """A splice produced a zero determinant at a junction of two cycles.

    Kept as public API; no current path raises it.  ``c_connected_sum``
    splices two cycles only at arcs naming one subgroup, and then both
    junction determinants are, up to sign, stored determinants of the legal
    operands, which are nonzero.
    """


class NoSolutionInBound(WeightSystemError):
    """A constructor found no solution for parameters in its domain."""


class IllegalParameters(WeightSystemError):
    """Constructor parameters outside the documented domain."""


class DocumentError(WeightSystemError):
    """A weight-system document that does not follow the interchange schema."""
