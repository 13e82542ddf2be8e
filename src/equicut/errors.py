"""Exception types raised across the package.

Everything inherits from EquicutError so callers (and the CLI) can catch
input problems with one except clause while programming errors still
surface as ordinary Python exceptions.
"""

from __future__ import annotations


class EquicutError(Exception):
    """Base class for all input and validation errors in this package."""


# --- density descriptions -------------------------------------------------

class MalformedBreakpoints(EquicutError):
    """Breakpoint grid is not a strictly increasing span of [0, 1], or the
    value list does not match it."""


class NegativeValue(EquicutError):
    """A density value is negative (or not a finite number)."""


class ZeroMass(EquicutError):
    """The density integrates to zero and cannot be normalized."""


# --- interval queries ------------------------------------------------------

class OutOfRange(EquicutError):
    """An evaluation point lies outside [0, 1]."""


class ReversedInterval(EquicutError):
    """Interval endpoints are given in decreasing order."""


class NegativeTarget(EquicutError):
    """A mass target for inversion is negative."""


# --- solving ----------------------------------------------------------------

class InvalidV(EquicutError):
    """Candidate common value outside [0, 1]."""


class InvalidPermutation(EquicutError):
    """Player order is not a permutation of 0..n-1."""


class TooManyPlayers(EquicutError):
    """Player count exceeds what the routine is willing to enumerate."""


class ResolutionTooFine(EquicutError):
    """Grid resolution below the supported floor."""


# --- sphere parametrization --------------------------------------------------

class NotOnSphere(EquicutError):
    """Point does not have unit Euclidean norm within tolerance."""


class InvalidCuts(EquicutError):
    """Cut vector is not nondecreasing inside [0, 1]."""


class DimensionMismatch(EquicutError):
    """Sizes of densities, cuts, sigma, or matrices do not agree."""


class NonFiniteEntry(EquicutError):
    """A valuation matrix entry is NaN or infinite."""


# --- instance files -----------------------------------------------------------

class ParseError(EquicutError):
    """Instance file is structurally broken (I/O, JSON, missing fields)."""


class ValidationError(EquicutError):
    """Instance file parsed but its contents fail domain validation."""
