"""Exception hierarchy.

Divergence of a construction that is *analytically* infinite is not an
error: evaluators return math.inf for it.  Exceptions are reserved for bad
inputs and for numerical procedures that failed to reach a conclusion.
"""

from __future__ import annotations

import functools


class GmonoError(Exception):
    """Base class for all library errors."""


class DomainError(GmonoError):
    """A point or parameter lies outside the interval/range it must be in."""


class GaugeError(GmonoError):
    """Invalid gauge data (non-positive value, missing entry, bad params)."""


class QuadratureError(GmonoError):
    """Adaptive quadrature failed to converge to the requested tolerance.

    Reported distinctly from analytic divergence, which is a value (inf),
    not an error.
    """


class InconclusiveError(GmonoError):
    """A numerical probe could not decide convergence vs divergence."""


class UndefinedMomentError(GmonoError):
    """Integral whose positive and negative parts are both infinite."""


class PreconditionError(GmonoError):
    """A documented precondition of an operation does not hold."""


def malformed_input_as(error: type):
    """Decorator for the file-schema readers: input that is not a JSON
    object, and a KeyError, ValueError, TypeError or IndexError raised while
    reading malformed input, become ``error`` (a GmonoError), which the CLI
    reports as an input error."""

    def wrap(reader):
        @functools.wraps(reader)
        def read(d):
            if not isinstance(d, dict):
                raise error(
                    f"malformed input to {reader.__name__}: expected an "
                    f"object, got {type(d).__name__}"
                )
            try:
                return reader(d)
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                raise error(
                    f"malformed input to {reader.__name__}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

        return read

    return wrap
