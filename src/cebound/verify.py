"""The stacked engine behind ``cebound verify``.

Each inequality is checked as a margin (D(rho || pinch(rho)) - bound, or the
analogous difference) over seeded random states.  Every (d_p, d_q) group is
evaluated as one stack over a leading axis, so each spectral decomposition is
one batched call per chunk of trials.  Each trial derives its own RNG stream
from (seed, d_p, d_q, trial), so results do not depend on execution order.
"""

from __future__ import annotations

import numpy as np

from .bkm import PETZ_FUNCTIONS, _check_midpoint, _midpoint_margins
from .bounds import _BlockSpectra, _bounds
from .dephasing import _orbit_terms, _production
from .errors import CeboundError, DomainError
from .linalg import (
    BlockState,
    _boundary_state,
    _ginibre_draw,
    _join_spectra,
    _pythagorean,
    _stack,
    pinch,
)
from .variational import _pipeline

MIDPOINT_GRID = (0.25, 0.5, 0.75, 0.9)
DEPHASING_TIMES = (0.0, 0.5, 1.0)
ENSEMBLES = ("ginibre", "boundary")
# Cap on the entries of the largest stacked array of a verify chunk (the
# midpoint grid, 9 matrices of d x d per state): at d = 64 a chunk is one
# trial, so memory stays that of evaluating states one by one.
STACK_ELEMENTS = 1 << 16


def _trial_states(dim_p: int, dim_q: int, trial: int, seed: int):
    """The trial's (ginibre, boundary) states, both from one ginibre draw, and its
    Pythagorean reference sigma, a ginibre state whose pinching is used."""
    trial_seed = int(
        np.random.SeedSequence([seed, dim_p, dim_q, trial]).generate_state(1)[0]
    )
    ginibre, rng = _ginibre_draw(dim_p, dim_q, trial_seed)
    states = (ginibre, _boundary_state(ginibre, rng, 0.6 / dim_p, 0.2 / dim_p))
    return states, _ginibre_draw(dim_p, dim_q, trial_seed + 1)[0]


def _stack_margins(state: BlockState, sigma: BlockState) -> dict:
    """{inequality: margin of each member} for a stack of states.

    ``sigma`` stacks each member's Pythagorean reference (used pinched).  One
    eigh each of A and C and one SVD of B serve every bound, the M +- Y check,
    the Pythagorean terms and the SVD pinching and merge, polygon phases
    included; one stacked eigh of rho_t serves the three dephasing rates and,
    at t = 0, the spectrum of rho.
    """
    sp = _BlockSpectra(*np.linalg.eigh(state.a), *np.linalg.eigh(state.c))
    m, y = pinch(state), state.off_diagonal()
    # gamma = 1; the t = 0 row is M + 1 Y, bit for bit rho
    _, rates, w_orbit = _orbit_terms(m, y, 1.0, DEPHASING_TIMES)
    w_rho = w_orbit[:, 0]
    _check_midpoint(np.minimum(sp.wa[:, 0], sp.wc[:, 0]), w_rho[:, 0])
    rho = state.to_matrix()
    svd = np.linalg.svd(state.b)
    bounds, _ = _bounds(state, sp, rho, w_rho, svd[1])
    margins = bounds.margins()

    mids = _midpoint_margins(m, y, MIDPOINT_GRID, tuple(PETZ_FUNCTIONS))
    margins["midpoint"] = np.min(mids["bkm"], axis=-1)
    margins.update({f"petz_{tag}": np.min(v, axis=-1) for tag, v in mids.items()})

    margins["dephasing"] = np.min(
        [_production(1.0, t, rate, bounds.bkm).margin
         for t, rate in zip(DEPHASING_TIMES, rates.T)],
        axis=0,
    )

    m_spectra = _join_spectra(*sp)
    s_spectra = _join_spectra(*np.linalg.eigh(sigma.a), *np.linalg.eigh(sigma.c))
    margins["pythagorean"] = -np.abs(_pythagorean(rho, w_rho, m, m_spectra, s_spectra))
    pinched, merged = _pipeline(state, sp.wa[:, 0], svd)
    margins["pipeline_pinch"] = bounds.entropy - pinched
    margins["pipeline_merge"] = pinched - merged
    return margins


def verify_group(dim_p: int, dim_q: int, trials: int, seed: int) -> dict:
    """{inequality: worst margin of each trial} for one (d_p, d_q) group.

    Each trial contributes a ginibre and a boundary state and its margin is
    the smaller of the two.  A margin is +inf where its bound does not apply
    (the log boundary bound outside its hypotheses); a NaN margin stays NaN.
    The group is evaluated as one stack, in chunks of at most STACK_ELEMENTS
    entries of the midpoint-grid stack.  A failing check is replayed member by
    member, so its error names the state's dims, trial, ensemble and seed.
    """
    if dim_p < 1 or dim_q < 1:
        raise DomainError("dimensions must be >= 1")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    trial_entries = len(ENSEMBLES) * (1 + 2 * len(MIDPOINT_GRID)) * (dim_p + dim_q) ** 2
    per_chunk = max(1, STACK_ELEMENTS // trial_entries)
    chunks = []
    for start in range(0, trials, per_chunk):
        drawn = [
            _trial_states(dim_p, dim_q, trial, seed)
            for trial in range(start, min(start + per_chunk, trials))
        ]
        states = [state for pair, _ in drawn for state in pair]
        sigmas = [sigma for _, sigma in drawn for _ in ENSEMBLES]
        try:
            margins = _stack_margins(_stack(states), _stack(sigmas))
        except CeboundError:
            for k, member in enumerate(zip(states, sigmas)):
                try:
                    _stack_margins(*(_stack([x]) for x in member))
                except CeboundError as exc:
                    trial, ensemble = divmod(k, len(ENSEMBLES))
                    raise type(exc)(
                        f"{exc} (dims ({dim_p}, {dim_q}), trial {start + trial}, "
                        f"ensemble {ENSEMBLES[ensemble]}, seed {seed})"
                    ) from exc
            raise
        chunks.append(
            {name: np.min(v.reshape(-1, len(ENSEMBLES)), axis=1) for name, v in margins.items()}
        )
    return {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
