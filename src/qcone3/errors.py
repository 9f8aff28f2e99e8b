"""Exception hierarchy shared by all qcone3 modules."""

from __future__ import annotations


class ConeAlgebraError(Exception):
    """Base class for domain errors raised by the library."""


class SingularElement(ConeAlgebraError):
    """Inversion of an element whose split has a (near-)zero component."""


class NotImaginaryUnit(ConeAlgebraError):
    """A quaternion expected to square to -1 does not."""


class NotInCone(ConeAlgebraError):
    """An element violates the quadratic-cone equations."""


class NotOrthogonal(ConeAlgebraError):
    """Two imaginary units expected to be perpendicular are not."""


class OutOfDomain(ConeAlgebraError):
    """A point lies outside the sampling domain of a stem function."""


class RealPoint(ConeAlgebraError):
    """Operation undefined at points on the real axis."""


class OnSingularSphere(ConeAlgebraError):
    """Cauchy kernel evaluated on the singular sphere of its first argument."""


class NotInvertibleAtPoint(ConeAlgebraError):
    """Pointwise star product requested where the left factor is singular."""


class PointOutsideContour(ConeAlgebraError):
    """Reconstruction target does not lie inside the integration contour."""


class InvalidContour(ConeAlgebraError, ValueError):
    """Contour center, radius or node count outside the supported range."""


class InvalidStep(ConeAlgebraError, ValueError):
    """A finite-difference step that is not positive and finite, or too small
    to move the point it differences at."""


class NonFiniteResult(ConeAlgebraError):
    """A computed result overflowed to inf or became nan."""


class InputTooLarge(ConeAlgebraError, ValueError):
    """An input is larger than the library accepts: a polynomial with too many
    coefficients or factors, or a quadrature with too many nodes x coefficients."""


class UnfactoredInput(ConeAlgebraError):
    """Multiplicity engine received something other than linear factors."""


class ParseError(ConeAlgebraError):
    """Syntax error in the textual element/polynomial/matrix grammar.

    Carries the offending text and position so callers can render a
    caret-annotated message.
    """

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(message)
        self.message = message
        self.text = text
        self.pos = pos

    def annotated(self) -> str:
        caret = " " * self.pos + "^"
        return f"{self.message}\n  {self.text}\n  {caret}"
