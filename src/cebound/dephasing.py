"""Entropy production along the exact dephasing orbit rho_t = M + e^{-Gamma t} Y.

The generator damps only the off-diagonal block, so the orbit is closed-form
and no ODE integration is involved.  The decay rate of D(rho_t || pinch(rho))
is bounded below by 2 Gamma e^{-2 Gamma t} Tr[B* Omega^{-1}(B)].
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bkm import _check_midpoint, _path, _spectral_bkm_form
from .bounds import _log_bound, _optional
from .errors import DomainError, NumericError, _fail_first
from .linalg import BlockState, _trace_log, _validated_spectra, _xlogx_sum, pinch

RATE_REL_TOL = 1e-6


@dataclass(frozen=True)
class OrbitConfig:
    """A dephasing run: initial split state, rate gamma, horizon, grid size.

    M = pinch(rho) is constant along the orbit, so M, Y = rho - M, Tr[M log M],
    the BKM form and the log-boundary bound are computed once per config, from
    one eigendecomposition each of A and C.  The one eigendecomposition of
    rho = rho_0 gives both the M +- Y check and the t = 0 row (``start``).
    """

    state: BlockState
    gamma: float
    t_max: float
    steps: int
    m: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)
    # Tr[Y log M] = 0 because log M is block diagonal, so Tr[rho log M] = Tr[M log M]
    tr_m_log_m: float = field(init=False, repr=False, compare=False)
    bkm: float = field(init=False, repr=False, compare=False)
    log_bound: float | None = field(init=False, repr=False, compare=False)
    start: tuple = field(init=False, repr=False, compare=False)  # _orbit_terms at t = 0

    def __post_init__(self):
        # nan fails every comparison, so it is rejected with inf; the bound's
        # prefactor 2 gamma must be finite too
        finite = 0.0 < 2.0 * self.gamma < math.inf and 0.0 < self.t_max < math.inf
        if not finite or self.steps < 2:
            raise DomainError("need gamma > 0 with 2*gamma finite, finite t_max > 0, steps >= 2")
        # the grid's last k t_max, k = steps; an int past the float range is never converted
        if not (self.steps <= sys.float_info.max and self.steps * self.t_max < math.inf):
            raise DomainError(f"steps * t_max must be finite, got {self.steps} * {self.t_max}")
        if not self.t_max / self.steps >= sys.float_info.min:  # a subnormal step loses t_k's bits
            raise DomainError(f"t_max / steps must be normal, got {self.t_max} / {self.steps}")
        state = self.state
        sp = _validated_spectra(state.a, state.c, state.b)[0]
        m, y = pinch(state), state.off_diagonal()
        start = _orbit_terms(m, y, self.gamma, (0.0,))
        _check_midpoint(start[2][0, 0])
        sp.check_positive()  # the rate bound is verified for A, C > 0 only
        for name, value in (
            ("m", m),
            ("y", y),
            ("start", start),
            ("tr_m_log_m", float(_xlogx_sum(sp.wa) + _xlogx_sum(sp.wc))),
            ("bkm", float(_spectral_bkm_form(sp, state.b))),
            ("log_bound", _optional(_log_bound(sp.wa[0], state))),
        ):
            object.__setattr__(self, name, value)


def orbit_state(cfg: OrbitConfig, t: float) -> np.ndarray:
    """rho_t = M + e^{-Gamma t} Y, exactly."""
    _fail_first(not t >= 0.0, DomainError, "t must be nonnegative, got {}", t)
    return cfg.m + math.exp(-cfg.gamma * t) * cfg.y


def _orbit_terms(m, y, gamma: float, times) -> tuple:
    """(Tr[rho_t log rho_t], -dD/dt, the eigenvalues of rho_t) at each t >= 0 of
    ``times``, over any leading stack axes of M and Y, from the eigenpairs of
    rho_t = M + alpha Y (``_path``); the t axis follows the stack axes.

    -dD/dt = Gamma alpha Tr[Y log rho_t] with alpha = e^{-Gamma t}: the term
    -Tr[Y log M] of the derivative vanishes, since log M is block diagonal.  On
    ker rho_t, <v, Y v> = -<v, M v> < 0, so the rate at a singular rho_t (a pure
    or boundary state at t = 0) is +inf.
    """
    message = "t must be nonnegative, got {}"
    _fail_first(~np.greater_equal(times, 0.0), DomainError, message, times)  # NaN fails too
    alphas = np.array([math.exp(-gamma * t) for t in times])
    (w, v), y = _path(m, y, alphas)
    return _xlogx_sum(w), gamma * alphas * _trace_log(y, w, v), w


def _decay(gamma: float, t: float) -> float:
    """The bound prefactor 2 Gamma e^{-2 Gamma t}, for t >= 0."""
    _fail_first(not t >= 0.0, DomainError, "t must be nonnegative, got {}", t)
    return 2.0 * gamma * math.exp(-2.0 * gamma * t)


def log_enhanced_bound(cfg: OrbitConfig, t: float) -> float | None:
    """2 Gamma e^{-2 Gamma t} ||B||_F^2 log(a0/eps_Q), a0 = lambda_min(A), or
    None when the boundary hypothesis 0 < eps_Q < a0 fails."""
    decay = _decay(cfg.gamma, t)
    return None if cfg.log_bound is None else decay * cfg.log_bound


class OrbitRow(NamedTuple):
    t: float
    entropy: float
    rate: float
    bound: float
    log_bound: float | None
    margin: float


def _row(cfg: OrbitConfig, t: float, terms) -> OrbitRow:
    """The orbit's row at time t from one ``_orbit_terms`` result at (t,)."""
    tr_log, rate, _ = terms
    rate, bound = float(rate[0]), _decay(cfg.gamma, t) * cfg.bkm
    if t > 0.0 and not math.isfinite(rate):  # rho_t > 0 at t > 0: the exact rate is finite
        raise NumericError(f"orbit rate at t = {t} is {rate}: rho_t is singular in float64")
    entropy = float(tr_log[0]) - cfg.tr_m_log_m
    return OrbitRow(t, entropy, rate, bound, log_enhanced_bound(cfg, t), rate - bound)


def entropy_production(cfg: OrbitConfig, t: float) -> OrbitRow:
    """The orbit's row at time t: the rate -dD/dt = Gamma alpha Tr[Y log rho_t]
    (+inf at a singular rho_t, see ``_orbit_terms``) against its BKM lower bound
    2 Gamma e^{-2 Gamma t} Tr[B* Omega^{-1}(B)]; ``tests/oracles.py`` checks the
    rate against a finite difference.  At t > 0 a non-finite rate raises NumericError."""
    return _row(cfg, t, _orbit_terms(cfg.m, cfg.y, cfg.gamma, (t,)))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def orbit_trace(cfg: OrbitConfig) -> list:
    """Tabulate the orbit on the uniform grid t_k = k t_max / steps.

    Row k is ``entropy_production`` at t_k, one eigh of rho_t; row 0 reuses
    ``cfg.start``.  Rows 1..steps run as at most one contiguous chunk per usable
    CPU on a thread pool (numpy's eigh releases the GIL), one row at a time per
    thread, so memory grows with the rows only.  Each chunk stops at its first
    failing row, so ``map`` raises the earliest failure, as a serial loop would.
    """
    from concurrent.futures import ThreadPoolExecutor  # about 6 ms; only orbit needs it

    times = [k * cfg.t_max / cfg.steps for k in range(1, cfg.steps + 1)]
    n = min(_usable_cpus(), len(times))
    chunks = [times[i * len(times) // n:(i + 1) * len(times) // n] for i in range(n)]
    with ThreadPoolExecutor(n) as pool:
        parts = pool.map(lambda chunk: [entropy_production(cfg, t) for t in chunk], chunks)
        return [_row(cfg, 0.0, cfg.start), *(row for part in parts for row in part)]


def csv_line(values) -> str:
    """A CSV line of the CLI's tables: 17 significant digits per float, None empty."""
    return ",".join("" if x is None else f"{x:.17g}" for x in values)


def write_orbit_csv(path, rows) -> None:
    """The orbit's rows as CSV, one ``csv_line`` each; empty log_bound when inapplicable."""
    with open(path, "w") as fh:
        fh.write("t,entropy,rate,bkm_bound,log_bound,margin\n")
        fh.writelines(csv_line(row) + "\n" for row in rows)
