"""The scalar two-level entropy functional Phi(a, eps, x) and its derivatives.

Phi(a, eps, x) is the relative entropy of the 2x2 state with diagonal
(a, eps) and coherence sqrt(x) against its diagonal part:

    Phi = lam_+ log lam_+ + lam_- log lam_- - a log a - eps log eps,
    lam_pm = (a + eps +- sqrt((a - eps)^2 + 4x)) / 2,

with the convention 0 log 0 = 0.  The domain is 0 <= x <= a*eps (positivity
of the 2x2 block).  The tests check the chain Phi >= x L(a, eps) >=
x log(a/eps) for 0 < eps < a <= 1 (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bkm import _log_mean
from .errors import DomainError, _fail_first

X_DOMAIN_TOL = 1e-14
PHI_DXX_SERIES_U = 0.07  # series truncation meets sinh cancellation at ~3e-14


class TwoLevelParams(NamedTuple):
    a: float
    eps: float
    x: float


def _check_domain(a, eps, x) -> None:
    """Raise for the first entry of the broadcast arguments outside the domain."""
    message = "parameters must be nonnegative, got ({}, {}, {})"
    _fail_first((a < 0.0) | (eps < 0.0) | (x < 0.0), DomainError, message, a, eps, x)
    message = "x = {} exceeds a*eps = {}"
    _fail_first(x > a * eps + X_DOMAIN_TOL, DomainError, message, x, a * eps)


def _xlogx(v):
    """v log v elementwise, with 0 log 0 = 0."""
    pos = np.where(v > 0.0, v, 1.0)
    return pos * np.log(pos)


def _eigenvalues(a, eps, x):
    """(lam_+, lam_-, lam_+ - lam_-) of the 2x2 block, with lam_- computed
    cancellation-free as (a*eps - x)/lam_+, since lam_+ lam_- = a*eps - x."""
    root = np.sqrt((a - eps) ** 2 + 4.0 * x)
    lam_plus = 0.5 * (a + eps + root)
    lam_minus = np.maximum(a * eps - x, 0.0) / np.where(lam_plus > 0.0, lam_plus, 1.0)
    return lam_plus, lam_minus, root


def phi(a, eps, x):
    """The two-level entropy functional, elementwise over broadcast arrays (a
    float for scalar arguments).  Phi(a, eps, 0) = 0; Phi >= 0."""
    a, eps, x = (np.asarray(v, dtype=float) for v in (a, eps, x))
    _check_domain(a, eps, x)
    val = _phi(a, eps, x)
    return float(val) if val.ndim == 0 else val


def _phi(a, eps, x):
    """``phi`` without the domain check."""
    lam_plus, lam_minus, _ = _eigenvalues(a, eps, x)
    val = _xlogx(lam_plus) + _xlogx(lam_minus) - _xlogx(a) - _xlogx(eps)
    return np.where(x == 0.0, 0.0, np.maximum(val, 0.0))


def phi_dx(a: float, eps: float, x: float) -> float:
    """d Phi / dx = log(lam_+/lam_-)/(lam_+ - lam_-) = L(lam_+, lam_-), the BKM
    kernel at the block's eigenvalues.

    At x = 0 this equals L(a, eps).  At the boundary x = a*eps (lam_- = 0)
    the derivative diverges and +inf is returned.
    """
    _check_domain(a, eps, x)
    if a <= 0.0 or eps <= 0.0:
        raise DomainError("phi_dx requires a > 0 and eps > 0")
    lam_plus, lam_minus, _ = _eigenvalues(a, eps, x)
    return float(_log_mean(lam_plus, lam_minus))


def phi_dxx(a: float, eps: float, x: float) -> float:
    """d^2 Phi / dx^2 = 4 (sinh(2u)/2 - u) / D^3 with D = lam_+ - lam_- and
    u = atanh(D/(a + eps)) = log(lam_+/lam_-)/2.  Strictly positive on the
    interior; +inf at x = a*eps.

    u/D = L(lam_+, lam_-)/2 is taken from the kernel, which stays accurate as
    D -> 0 (u/D -> 1/(a + eps)) and as lam_- -> 0.  For u < PHI_DXX_SERIES_U
    the numerator is the odd series 2u^3/3 + 2u^5/15 + 4u^7/315 + 2u^9/2835,
    written in u/D, so D = 0 needs no special case.
    """
    _check_domain(a, eps, x)
    if a <= 0.0 or eps <= 0.0:
        raise DomainError("phi_dxx requires a > 0 and eps > 0")
    lam_plus, lam_minus, d = _eigenvalues(a, eps, x)
    if lam_minus <= 0.0:
        return float("inf")
    u_over_d = 0.5 * float(_log_mean(lam_plus, lam_minus))
    u = d * u_over_d
    if u < PHI_DXX_SERIES_U:
        series = 2.0 / 3.0 + 2.0 * u**2 / 15.0 + 4.0 * u**4 / 315.0 + 2.0 * u**6 / 2835.0
        return float(4.0 * u_over_d**3 * series)
    return float(4.0 * (0.5 * math.sinh(2.0 * u) - u) / d**3)


def binary_entropy(q: float) -> float:
    """h(q) = -q log q - (1-q) log(1-q), in nats."""
    return float(-(_xlogx(q) + _xlogx(1.0 - q)))
