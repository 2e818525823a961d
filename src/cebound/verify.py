"""The stacked engine behind ``cebound verify``.

Each inequality is checked as a margin (D(rho || pinch(rho)) - bound, or the
analogous difference) over seeded random states.  Every (d_p, d_q) group is
evaluated as one stack over a leading axis, so each spectral decomposition,
the sampler's too, is one batched call per chunk.  Each trial derives its own
RNG streams from (seed, d_p, d_q, trial), so results do not depend on order.
"""

from __future__ import annotations

import numpy as np

from .bkm import PETZ_FUNCTIONS, _check_midpoint, _petz_forms
from .bounds import _bounds
from .dephasing import _decay, _orbit_terms
from .errors import CeboundError, DomainError
from .linalg import (
    BlockState,
    _block_spectra,
    _boundary_state,
    _ginibre_density,
    _ginibre_draw,
    _pythagorean,
    _split,
    _stack,
    pinch,
)
from .variational import _pipeline

MIDPOINT_GRID = (0.25, 0.5, 0.75, 0.9)
DEPHASING_TIMES = (0.0, 0.5, 1.0)
ENSEMBLES = ("ginibre", "boundary")
# Cap on the entries of the largest stacked array of a verify chunk (the
# midpoint grid, 5 matrices of d x d per state): at d = 64 a chunk is one
# trial, so memory stays that of evaluating states one by one.
STACK_ELEMENTS = 1 << 16


def _chunk_states(dim_p: int, dim_q: int, trials, seed: int):
    """The (ginibre, boundary, sigma) stacks of ``trials``, each member
    bit-identical to random_block_state for the trial seed (sigma: the trial
    seed + 1).  The boundary state is derived from the ginibre state; sigma,
    the Pythagorean reference, is used pinched.  The draws come trial by trial
    from their own streams; all else runs once over the chunk's stack."""
    seeds = [
        int(np.random.SeedSequence([seed, dim_p, dim_q, t]).generate_state(1)[0])
        for t in trials
    ]
    g = [_ginibre_draw(dim_p, dim_q, s) for s in seeds]
    g_sigma = [_ginibre_draw(dim_p, dim_q, s + 1) for s in seeds]
    rho = _ginibre_density(np.stack(g + g_sigma))
    ginibre, sigma = (_split(x, dim_p) for x in np.split(rho, 2))
    return ginibre, _boundary_state(ginibre, 0.6 / dim_p, 0.2 / dim_p), sigma


def _stack_margins(state: BlockState, sigma: BlockState) -> dict:
    """{inequality: margin of each member} for a stack of states.

    ``sigma`` stacks each trial's Pythagorean reference (used pinched), one
    eigh each, repeated for the trial's adjacent members of ``state``.  One
    eigh each of A and C and one SVD of B serve every bound, the M +- Y check,
    the Pythagorean terms and the SVD pinching and merge, polygon phases
    included; one ``_path`` of rho_t serves the three dephasing rates and,
    at t = 0, the spectrum of rho.
    """
    sp = _block_spectra(state.a, state.c)
    m, y = pinch(state), state.off_diagonal()
    # gamma = 1; the t = 0 row is M + 1 Y, bit for bit rho
    _, rates, w_orbit = _orbit_terms(m, y, 1.0, DEPHASING_TIMES)
    w_rho = w_orbit[:, 0]
    _check_midpoint(w_rho[:, 0])
    rho = state.to_matrix()
    svd = np.linalg.svd(state.b)
    bounds = _bounds(state, sp, rho, w_rho, svd[1])
    margins = bounds.margins()

    forms = _petz_forms(m, y, (0.0, *MIDPOINT_GRID), tuple(PETZ_FUNCTIONS))
    mids = {tag: np.min(g[:, 1:] - g[:, :1], axis=-1) for tag, g in forms.items()}
    margins.update({f"petz_{tag}": v for tag, v in mids.items()}, midpoint=mids["bkm"])

    margins["dephasing"] = np.min(
        [rate - _decay(1.0, t) * bounds.bkm for t, rate in zip(DEPHASING_TIMES, rates.T)],
        axis=0,
    )

    m_spectra = sp.joined()
    s_spectra = _block_spectra(sigma.a, sigma.c).joined()
    s_spectra = [np.repeat(x, len(rho) // len(sigma.a), axis=0) for x in s_spectra]
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
    entries of the midpoint-grid stack.  A failing chunk is replayed trial by
    trial, so its error names the state's dims, trial, ensemble and seed.
    """
    if dim_p < 1 or dim_q < 1:
        raise DomainError("dimensions must be >= 1")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    trial_entries = len(ENSEMBLES) * (1 + len(MIDPOINT_GRID)) * (dim_p + dim_q) ** 2
    per_chunk = max(1, STACK_ELEMENTS // trial_entries)
    chunks = []
    for start in range(0, trials, per_chunk):
        stop = min(start + per_chunk, trials)
        try:
            ginibre, boundary, sigma = _chunk_states(dim_p, dim_q, range(start, stop), seed)
            margins = _stack_margins(_stack([ginibre, boundary]), sigma)
        except CeboundError:
            # replay trial by trial, so the error names its state
            for trial in range(start, stop):
                ensemble = "boundary"  # the one draw that can fail
                try:
                    ginibre, boundary, sigma = _chunk_states(dim_p, dim_q, (trial,), seed)
                    for ensemble, state in zip(ENSEMBLES, (ginibre, boundary)):
                        _stack_margins(state, sigma)
                except CeboundError as exc:
                    raise type(exc)(
                        f"{exc} (dims ({dim_p}, {dim_q}), trial {trial}, "
                        f"ensemble {ensemble}, seed {seed})"
                    ) from exc
            raise
        chunks.append(
            {name: np.min(v.reshape(-1, len(ENSEMBLES)), axis=1) for name, v in margins.items()}
        )
    return {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
