"""Entropy production along the exact dephasing orbit rho_t = M + e^{-Gamma t} Y.

The generator damps only the off-diagonal block, so the orbit is closed-form
and no ODE integration is involved.  The decay rate of D(rho_t || pinch(rho))
is bounded below by 2 Gamma e^{-2 Gamma t} Tr[B* Omega^{-1}(B)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bkm import _midpoint_inputs
from .bounds import _block_spectra, _log_bound, _operator_bound, _optional
from .errors import DomainError
from .linalg import BlockState, _xlogx_sum

RATE_REL_TOL = 1e-6


@dataclass(frozen=True)
class OrbitConfig:
    """A dephasing run: initial split state, rate gamma, horizon, grid size.

    M = pinch(rho) is constant along the orbit, so M, Y = rho - M, Tr[M log M],
    and the BKM form and the log-boundary bound, from one eigendecomposition
    each of A and C, are computed at most once per config.
    """

    state: BlockState
    gamma: float
    t_max: float
    steps: int
    m: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # nan fails every comparison, so it is rejected with inf
        finite = 0.0 < self.gamma < math.inf and 0.0 < self.t_max < math.inf
        if not finite or self.steps < 1:
            raise DomainError("need finite gamma > 0, finite t_max > 0, steps >= 1")
        m, y = _midpoint_inputs(self.state)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "y", y)

    @cached_property
    def _spectra(self):
        return _block_spectra(self.state)

    @cached_property
    def tr_m_log_m(self) -> float:
        """Tr[M log M]; Tr[Y log M] = 0 because log M is block diagonal."""
        return float(_xlogx_sum(np.linalg.eigvalsh(self.m)))

    @cached_property
    def bkm(self) -> float:
        return float(_operator_bound(self._spectra, self.state.b, regularize=False)[0])

    @cached_property
    def log_bound(self) -> float | None:
        return _optional(_log_bound(self._spectra.wa[0], self.state))


def orbit_state(cfg: OrbitConfig, t: float) -> np.ndarray:
    """rho_t = M + e^{-Gamma t} Y, exactly."""
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    return cfg.m + math.exp(-cfg.gamma * t) * cfg.y


def _entropy_at_alpha(cfg: OrbitConfig, alpha: float) -> float:
    """D(M + alpha Y || M) = Tr[rho log rho] - Tr[M log M]."""
    w = np.linalg.eigvalsh(cfg.m + alpha * cfg.y)
    return float(_xlogx_sum(w)) - cfg.tr_m_log_m


def _rate(gamma: float, alpha, y, w, v) -> np.ndarray:
    """Gamma alpha Tr[Y log rho], from the eigenpairs (w, v) of rho = M + alpha Y,
    over any leading stack axes."""
    # floor keeps log finite at the support boundary (pure-state orbit at t=0,
    # where the true rate diverges to +inf)
    w = np.clip(w, 1e-300, None)
    masses = np.real(np.sum(v.conj() * (y @ v), axis=-2))
    return gamma * alpha * np.sum(masses * np.log(w), axis=-1)


def analytic_rate(cfg: OrbitConfig, t: float) -> float:
    """-dD/dt = Gamma alpha Tr[Y log(M + alpha Y)], alpha = e^{-Gamma t}.

    The term -Tr[Y log M] of the derivative vanishes: log M is block diagonal.
    """
    alpha = math.exp(-cfg.gamma * t)
    w, v = np.linalg.eigh(cfg.m + alpha * cfg.y)
    return float(_rate(cfg.gamma, alpha, cfg.y, w, v))


def fd_rate(cfg: OrbitConfig, t: float) -> float:
    """Finite-difference estimate of -dD/dt with step min(1e-6, 1e-3/gamma).

    Central stencil in the interior; second-order one-sided (forward) stencil
    when t < h, where t - h would leave the domain.
    """
    h = min(1e-6, 1e-3 / cfg.gamma)

    def d_at(s: float) -> float:
        return _entropy_at_alpha(cfg, math.exp(-cfg.gamma * s))

    if t < h:
        return -(-3.0 * d_at(t) + 4.0 * d_at(t + h) - d_at(t + 2.0 * h)) / (2.0 * h)
    return -(d_at(t + h) - d_at(t - h)) / (2.0 * h)


class ProductionPoint(NamedTuple):
    rate: float
    bound: float
    margin: float


def _decay(gamma: float, t: float) -> float:
    """The bound prefactor 2 Gamma e^{-2 Gamma t}."""
    return 2.0 * gamma * math.exp(-2.0 * gamma * t)


def entropy_production(cfg: OrbitConfig, t: float) -> ProductionPoint:
    """Entropy production rate at time t versus its BKM lower bound.

    The rate is the analytic trace-formula value; the finite-difference
    estimate serves as a sanity check in the test suite.  The bound is
    2 Gamma e^{-2 Gamma t} Tr[B* Omega^{-1}(B)].
    """
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t}")
    return _production(cfg.gamma, t, analytic_rate(cfg, t), cfg.bkm)


def _production(gamma: float, t: float, rate, bkm) -> ProductionPoint:
    """The rate against its bound at time t; ``rate`` and ``bkm`` may be stacked."""
    bound = _decay(gamma, t) * bkm
    return ProductionPoint(rate=rate, bound=bound, margin=rate - bound)


def log_enhanced_bound(cfg: OrbitConfig, t: float) -> float | None:
    """2 Gamma e^{-2 Gamma t} ||B||_F^2 log(a0/eps_Q), or None when the
    boundary hypotheses (a0 > 0, eps_Q <= a0/2) fail."""
    return None if cfg.log_bound is None else _decay(cfg.gamma, t) * cfg.log_bound


class OrbitRow(NamedTuple):
    t: float
    entropy: float
    rate: float
    bkm_bound: float
    log_bound: float | None
    margin: float


def orbit_trace(cfg: OrbitConfig) -> list:
    """Tabulate the orbit on the uniform grid t_k = k t_max / steps.

    One eigendecomposition of rho_t gives both the row's entropy and its rate.
    """
    if cfg.steps < 2:
        raise DomainError("orbit_trace needs steps >= 2")
    rows = []
    for k in range(cfg.steps + 1):
        t = k * cfg.t_max / cfg.steps
        alpha = math.exp(-cfg.gamma * t)
        w, v = np.linalg.eigh(cfg.m + alpha * cfg.y)
        rate = float(_rate(cfg.gamma, alpha, cfg.y, w, v))
        point = _production(cfg.gamma, t, rate, cfg.bkm)
        rows.append(
            OrbitRow(
                t=t,
                entropy=float(_xlogx_sum(w)) - cfg.tr_m_log_m,
                rate=point.rate,
                bkm_bound=point.bound,
                log_bound=log_enhanced_bound(cfg, t),
                margin=point.margin,
            )
        )
    return rows


def write_orbit_csv(path, rows) -> None:
    """CSV with 17-significant-digit floats; empty log_bound when inapplicable."""
    with open(path, "w") as fh:
        fh.write("t,entropy,rate,bkm_bound,log_bound,margin\n")
        for row in rows:
            log_col = "" if row.log_bound is None else f"{row.log_bound:.17g}"
            fh.write(
                f"{row.t:.17g},{row.entropy:.17g},{row.rate:.17g},"
                f"{row.bkm_bound:.17g},{log_col},{row.margin:.17g}\n"
            )
