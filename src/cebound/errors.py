"""Exception hierarchy shared by all cebound modules."""

import numpy as np


class CeboundError(Exception):
    """Base class for all errors raised by cebound."""


class ValidationError(CeboundError, ValueError):
    """An input matrix or file failed a structural invariant."""


class DomainError(CeboundError, ValueError):
    """Arguments lie outside the mathematical domain of an operation."""


class PositivityError(DomainError):
    """A matrix required to be (strictly) positive is not."""


class InfeasibleError(DomainError):
    """Parameters violate a feasibility constraint of a construction."""


class NumericError(CeboundError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


def _fail_first(bad, error: type, message: str, *values) -> None:
    """Raise ``error`` at the first entry flagged in ``bad``, formatting ``message``
    with each of ``values`` (broadcast to ``bad``) at that entry."""
    if np.any(bad):
        i = np.argmax(bad)
        at = [np.broadcast_to(v, np.shape(bad)).flat[i] for v in values]
        raise error(message.format(*at))
