"""Variational reduction pipeline: SVD pinching channel, polygon phase
construction, floor-aware merging channel, and the explicit two-level
optimizer for the constrained entropy minimization.

The pipeline lower-bounds D(rho || pinch(rho)) in three monotone steps:
SVD pinching (data processing) -> sum of scalar Phi terms -> a single merged
Phi(A, E, X) -> the optimizer value Phi(a_star, eps, c).  The tests check the
optimizer against rejection-sampled feasible states (``tests/oracles.py``).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InfeasibleError, NumericError, _fail_first
from .linalg import BlockState, _adjoint, _block_diag, _masses, _spectral_entropy_terms, _stack
from .linalg import _validated_blocks, coherence_entropy
from .twolevel import X_DOMAIN_TOL, TwoLevelParams, _phi, phi

COMPLETENESS_TOL = 1e-12
SV_CUTOFF = 1e-12
MERGE_TOL = 1e-10  # merged output vs (A, sqrt X; sqrt X, E) and Phi(A, E, X)
MERGE_FLOOR_TOL = 1e-10  # each block's a_j against the floor a0
MERGE_X_TOL = 1e-12  # total coherence X <= A E
MERGE_RADII_TOL = 1e-12  # sum_j a_j r_j^2 against A, relative to 1 + A
OPTIMIZER_TOL = 1e-14  # the optimizer's floor and coherence feasibility


class KrausChannel(NamedTuple):
    """A CPTP map given by a finite Kraus family."""

    dim_in: int
    dim_out: int
    kraus: tuple

    def completeness_defect(self) -> float:
        """Frobenius norm of sum_k K* K - I."""
        k = np.stack(self.kraus)
        gram = np.einsum("kji,kjl->il", k.conj(), k)
        return float(np.linalg.norm(gram - np.eye(self.dim_in)))

    def apply(self, x) -> np.ndarray:
        """sum_k K x K*."""
        k = np.stack(self.kraus)
        return np.einsum("kij,jl,kml->im", k, x, k.conj(), optimize=True)


def _check_completeness(defect) -> None:
    message = "Kraus completeness defect {:.3e} too large"
    _fail_first(defect > COMPLETENESS_TOL, NumericError, message, defect)


def _checked_channel(dim_in: int, dim_out: int, kraus: list) -> KrausChannel:
    ch = KrausChannel(dim_in=dim_in, dim_out=dim_out, kraus=tuple(kraus))
    _check_completeness(ch.completeness_defect())
    return ch


class PinchedData(NamedTuple):
    """Per-singular-channel data (a_pin, c_pin, s) plus kernel-sector spectra."""

    channels: tuple  # of (a_pin, c_pin, s)
    kernel_a: np.ndarray
    kernel_c: np.ndarray
    channel: KrausChannel

    def entropy(self) -> float:
        """sum_j Phi(a_pin_j, c_pin_j, s_j^2), the pinched coherence entropy."""
        return sum(phi(a, c, s * s) for a, c, s in self.channels)


def svd_pinch(state: BlockState) -> PinchedData:
    """The SVD pinching conditional expectation of the coherence block.

    Kraus operators are the projections u_j u_j* (+) v_j v_j* onto the
    singular channel pairs of B, plus the projections onto ker B* and ker B.
    Singular values below 1e-12 are folded into the kernel sectors.
    """
    _validated_blocks(state.a, state.c, state.b)
    return _svd_pinch(state, *np.linalg.svd(state.b))


def _svd_pinch(state: BlockState, u, svals, vh) -> PinchedData:
    """``svd_pinch`` from the full SVD B = u diag(svals) vh."""
    k = int(np.sum(svals > SV_CUTOFF))
    v = _adjoint(vh)
    # one sector (u_j, v_j) per kept channel, then ker B* in P and ker B in Q:
    # the complements of the retained singular vectors
    sectors = [(u[:, j : j + 1], v[:, j : j + 1]) for j in range(k)]
    sectors += [(u[:, k:], v[:, :0]), (u[:, :0], v[:, k:])]
    kraus = [_block_diag(x @ _adjoint(x), z @ _adjoint(z)) for x, z in sectors]
    channel = _checked_channel(state.dim, state.dim, kraus)
    a_pin, c_pin = _masses(state.a, u[:, :k]), _masses(state.c, v[:, :k])
    kernel_a, kernel_c = (
        np.linalg.eigvalsh(_adjoint(perp) @ x @ perp) if perp.shape[1] else np.zeros(0)
        for x, perp in ((state.a, u[:, k:]), (state.c, v[:, k:]))
    )
    return PinchedData(
        channels=tuple(zip(a_pin.tolist(), c_pin.tolist(), svals[:k].tolist())),
        kernel_a=kernel_a,
        kernel_c=kernel_c,
        channel=channel,
    )


POLYGON_TOL = 1e-10
POLYGON_TARGET_TOL = 1e-12  # the target against the achievable interval


def polygon_phases(lengths, target: float) -> np.ndarray:
    """Phases theta_j with sum_j e^{i theta_j} l_j = target, a real sum >= 0.

    The achievable moduli form the interval [max(0, 2 max(l) - sum(l)), sum(l)];
    targets outside it raise.  Construction, in two passes over the partial
    sums z_k = sum_{j<=k} e^{i theta_j} l_j: forward, the exact interval each
    |z_k| can reach; backward from |z_n| = target, each |z_{k-1}| at the
    midpoint of its interval cut with the annulus | |z_k| - l_k | .. |z_k| + l_k,
    and l_k placed by the two-vector half-angle formula.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or len(lengths) == 0:
        raise DomainError("lengths must be a nonempty vector")
    if np.any(lengths < 0.0):
        raise DomainError("lengths must be nonnegative")
    return _polygon(lengths[None], np.array([target], dtype=float))[0]


def _polygon(lengths, target) -> np.ndarray:
    """``polygon_phases`` for each member of a stack: ``lengths`` (..., n) of
    nonnegative lengths, zero-padded at the end, and ``target`` (...)."""
    total = np.sum(lengths, axis=-1)
    floor = np.maximum(0.0, 2.0 * np.max(lengths, axis=-1) - total)
    outside = (target < floor - POLYGON_TARGET_TOL) | (target > total + POLYGON_TARGET_TOL)
    message = "target {} outside achievable interval [{}, {}]"
    _fail_first(outside, DomainError, message, target, floor, total)
    # forward: |z_k| reaches exactly [lo_k, hi_k], lo_k the distance from l_k
    # to [lo_{k-1}, hi_{k-1}] and hi_k = hi_{k-1} + l_k
    n = lengths.shape[-1]
    lo = np.zeros(lengths.shape[:-1] + (n + 1,))
    hi = np.zeros_like(lo)
    for k in range(1, n + 1):
        ell = lengths[..., k - 1]
        gap = np.maximum(lo[..., k - 1] - ell, ell - hi[..., k - 1])
        lo[..., k] = np.maximum(gap, 0.0)
        hi[..., k] = hi[..., k - 1] + ell
    # backward: r_k = |z_k| from r_n = target down to r_0 = 0
    r = np.zeros_like(lo)
    r[..., n] = np.clip(target, lo[..., n], hi[..., n])
    for k in range(n, 1, -1):
        ell = lengths[..., k - 1]
        low = np.maximum(lo[..., k - 1], np.abs(r[..., k] - ell))
        high = np.minimum(hi[..., k - 1], r[..., k] + ell)
        r[..., k - 1] = 0.5 * (low + high)
    # gamma_k, the angle of l_k against z_{k-1}: |r_{k-1} + l_k e^{i gamma_k}| = r_k.
    # Half-angle branches keep it well-conditioned near 0 and near pi, where
    # the plain law-of-cosines acos loses ~sqrt(eps).
    p, q, rk = r[..., :-1], lengths, r[..., 1:]
    pq4 = 4.0 * p * q
    den = np.where(pq4 > 0.0, pq4, 1.0)
    cos_half = np.sqrt(np.clip((rk * rk - (p - q) ** 2) / den, 0.0, 1.0))
    sin_half = np.sqrt(np.clip(((p + q) ** 2 - rk * rk) / den, 0.0, 1.0))
    half = np.where(cos_half <= sin_half, np.arccos(cos_half), np.arcsin(sin_half))
    gamma = np.where(pq4 > 0.0, 2.0 * half, 0.0)
    # arg z_k = arg z_{k-1} + delta_k and arg z_n = 0, so
    # theta_k = arg z_{k-1} + gamma_k = gamma_k - (delta_k + ... + delta_n)
    delta = np.angle(p + q * np.exp(1j * gamma))
    theta = gamma - np.flip(np.cumsum(np.flip(delta, -1), axis=-1), -1)
    achieved = np.abs(np.sum(lengths * np.exp(1j * theta), axis=-1))
    missed = np.abs(achieved - r[..., n]) > POLYGON_TOL
    message = "polygon construction missed target: |{} - {}|"
    _fail_first(missed, NumericError, message, achieved, r[..., n])
    return theta


class MergeSpec(NamedTuple):
    """Inputs of the floor-aware merge: scalar blocks (a_j, eps_j, x_j),
    remainder leakage eps_rem, and the common floor a0."""

    blocks: tuple  # of (a, eps, x)
    eps_rem: float
    a0: float

    def validate(self) -> None:
        _validate_merge(*self._stacked())

    def merged(self) -> TwoLevelParams:
        return TwoLevelParams(*(float(v[0]) for v in _merge_sums(*self._stacked())))

    def _stacked(self) -> tuple:
        """(a, eps, x, eps_rem, a0) as a stack of one member."""
        blocks = np.array(self.blocks, dtype=float).reshape(1, -1, 3)
        return (*np.moveaxis(blocks, -1, 0), np.array([self.eps_rem]), np.array([self.a0]))


def _merge_sums(a, eps, x, eps_rem, a0) -> tuple:
    """(A, E, X) = (a0 + sum_j (a_j - a0), eps_rem + sum_j eps_j, sum_j x_j)."""
    da, de, dx = (np.sum(v, axis=-1) for v in (a - a0[..., None], eps, x))
    return a0 + da, eps_rem + de, dx


def _validate_merge(a, eps, x, eps_rem, a0) -> tuple:
    """The inequalities of ``MergeSpec.validate`` for each member; returns (A, E, X)."""
    message = "merge spec needs a0 > 0, eps_rem >= 0, blocks nonempty"
    _fail_first((a0 <= 0.0) | (eps_rem < 0.0) | (a.shape[-1] == 0), DomainError, message)
    floor = a0[..., None]
    message = "block diagonal {} below the floor {}"
    _fail_first(a < floor - MERGE_FLOOR_TOL, DomainError, message, a, floor)
    bad = (eps < 0.0) | (x < 0.0) | (x > a * eps + X_DOMAIN_TOL)
    message = "block ({}, {}, {}) violates 0 <= x <= a*eps"
    _fail_first(bad, DomainError, message, a, eps, x)
    a_m, e_m, x_m = _merge_sums(a, eps, x, eps_rem, a0)
    _fail_first(x_m > a_m * e_m + MERGE_X_TOL, DomainError, "total coherence X exceeds A*E")
    return a_m, e_m, x_m


class MergeResult(NamedTuple):
    channel: KrausChannel
    merged: TwoLevelParams
    left_entropy: float
    right_entropy: float


def _merge_radii(avals, xvals, a_target, x_total) -> np.ndarray:
    """Step 1, over a stack: r_j = (1-t) b_j + t, b_j = sqrt(x_j/X), sum a_j r_j^2 = A.

    The constraint is p t^2 + 2 q t + r = 0 with p = sum a_j (1-b_j)^2,
    q = sum a_j b_j (1-b_j) >= 0 and r = sum a_j b_j^2 - A <= 0, whose root in
    [0, 1] is t = -r/(q + sqrt(q^2 - p r)).  The denominator vanishes only
    when every t gives the same radii (one block with x > 0); then t = 0.
    """
    x_total = np.asarray(x_total, dtype=float)[..., None]
    base = np.sqrt(xvals / np.where(x_total > 0.0, x_total, 1.0))  # X = 0: every x_j = 0
    p = np.sum(avals * (1 - base) ** 2, axis=-1)
    q = np.sum(avals * base * (1 - base), axis=-1)
    r = np.sum(avals * base * base, axis=-1) - a_target
    denom = q + np.sqrt(np.maximum(q * q - p * r, 0.0))
    t = np.where(denom > 0.0, -r / np.where(denom > 0.0, denom, 1.0), 0.0)[..., None]
    return (1 - t) * base + t


def _merge_alphas(a, x, a_m, x_m) -> np.ndarray:
    """Steps 1-2 over a stack: the radii, checked against A, and polygon phases
    making alpha_j = r_j e^{i theta_j} give sum_j alpha_j sqrt(x_j) = sqrt(X)."""
    radii = _merge_radii(a, x, a_m, x_m)
    check = np.sum(a * radii * radii, axis=-1)
    missed = np.abs(check - a_m) > MERGE_RADII_TOL * (1.0 + a_m)
    _fail_first(missed, NumericError, "merge radii missed A: {} vs {}", check, a_m)
    return radii * np.exp(1j * _polygon(radii * np.sqrt(x), np.sqrt(x_m)))


def merge_channel(spec: MergeSpec) -> MergeResult:
    """Floor-aware merging CPTP channel collapsing many coherent 2x2 blocks
    into one with parameters (A, E, X), without increasing relative entropy.

    Input layout: block j occupies coordinates (2j, 2j+1) = (p_j, q_j), the
    remainder coordinate q_rem is last.  Output layout: p = 0, q = 1,
    spectators s_j = 2 + j.
    """
    a, eps, x, eps_rem, a0 = spec._stacked()
    sums = _validate_merge(a, eps, x, eps_rem, a0)
    alphas = _merge_alphas(a, x, sums[0], sums[2])[0]
    a, eps, x = a[0], eps[0], x[0]
    a_m, e_m, x_m = (float(v[0]) for v in sums)

    # Kraus 2j: p_j -> alpha_j p, q_j -> q; 2j+1: p_j -> s_j; 2k: q_rem -> q
    k = len(a)
    j = np.arange(k)
    kraus = np.zeros((2 * k + 1, k + 2, 2 * k + 1), dtype=complex)
    kraus[2 * j, 0, 2 * j] = alphas
    kraus[2 * j, 1, 2 * j + 1] = 1.0
    kraus[2 * j + 1, 2 + j, 2 * j] = np.sqrt(np.maximum(0.0, 1.0 - np.abs(alphas) ** 2))
    kraus[2 * k, 1, 2 * k] = 1.0
    channel = _checked_channel(2 * k + 1, k + 2, list(kraus))

    # step 5: the output active block must be ((A, sqrt(X)), (sqrt(X), E))
    d_in = np.diag(np.append(np.stack([a, eps], axis=-1), spec.eps_rem)).astype(complex)
    m_in = d_in.copy()
    m_in[2 * j, 2 * j + 1] = m_in[2 * j + 1, 2 * j] = np.sqrt(x)
    m_out = channel.apply(m_in)
    active = np.array([[a_m, math.sqrt(x_m)], [math.sqrt(x_m), e_m]])
    if np.max(np.abs(m_out[:2, :2] - active)) > MERGE_TOL:
        raise NumericError("merged active block does not match (A, sqrt(X); sqrt(X), E)")
    d_out = channel.apply(d_in)
    out_entropy = _spectral_entropy_terms(m_out, np.linalg.eigvalsh(m_out), *np.linalg.eigh(d_out))
    right = phi(a_m, e_m, x_m)
    if abs(out_entropy - right) > MERGE_TOL * (1.0 + abs(right)):
        raise NumericError("merged channel output entropy does not equal Phi(A, E, X)")

    left = sum(phi(a, eps, x).tolist())
    return MergeResult(
        channel=channel,
        merged=TwoLevelParams(a=a_m, eps=e_m, x=x_m),
        left_entropy=left,
        right_entropy=right,
    )


class OptimizerResult(NamedTuple):
    state: BlockState
    value: float
    a_star: float


def _optimizer_hypotheses(a0: float, eps: float, c: float, d_p: int, d_q: int) -> float:
    if d_p < 1 or d_q < 1:
        raise InfeasibleError("dimensions must be >= 1")
    if a0 <= 0.0 or eps < 0.0 or c < 0.0:
        raise InfeasibleError("need a0 > 0, eps >= 0, c >= 0")
    if 1.0 - eps < d_p * a0 - OPTIMIZER_TOL:
        raise InfeasibleError(
            f"floor infeasible: 1 - eps = {1.0 - eps} < d_p*a0 = {d_p * a0}"
        )
    a_star = 1.0 - eps - (d_p - 1) * a0
    if c > a_star * eps + OPTIMIZER_TOL:
        raise InfeasibleError(
            f"coherence infeasible: c = {c} > a_star*eps = {a_star * eps}"
        )
    return a_star


def equality_state(
    a0: float, eps: float, c: float, d_p: int, d_q: int, phase: float = 0.0
) -> BlockState:
    """Member of the equality family: active 2x2 block (a_star, sqrt(c) e^{i phase})
    plus a0-spectators in P and zero spectators in Q."""
    a_star = _optimizer_hypotheses(a0, eps, c, d_p, d_q)
    a = np.zeros((d_p, d_p), dtype=complex)
    a[0, 0] = a_star
    for j in range(1, d_p):
        a[j, j] = a0
    b = np.zeros((d_p, d_q), dtype=complex)
    b[0, 0] = math.sqrt(c) * cmath.exp(1j * phase)
    c_blk = np.zeros((d_q, d_q), dtype=complex)
    c_blk[0, 0] = eps
    return BlockState(dim_p=d_p, dim_q=d_q, a=a, b=b, c=c_blk)


def optimizer(a0: float, eps: float, c: float, d_p: int, d_q: int) -> OptimizerResult:
    """The explicit minimizer of D(rho || pinch(rho)) over states with floor a0,
    leakage eps, and coherence c.  Its value is Phi(a_star, eps, c)."""
    state = equality_state(a0, eps, c, d_p, d_q)
    a_star = float(state.a[0, 0].real)
    return OptimizerResult(state=state, value=phi(a_star, eps, c), a_star=a_star)


def pipeline_values(state: BlockState, a0: float) -> tuple:
    """(entropy, pinched Phi-sum, merged Phi) along the reduction pipeline.

    ``a0`` is the floor the state is known to satisfy; the merge uses the full
    P-basis completion, so spectator directions of A enter with eps = x = 0.
    """
    entropy = coherence_entropy(state)  # checks the state's blocks first
    stack = _stack([state])
    pinched, merged = _pipeline(stack, np.array([float(a0)]), np.linalg.svd(stack.b))
    return entropy, float(pinched[0]), float(merged[0])


def _pad(v: np.ndarray, d: int) -> np.ndarray:
    """The last axis of ``v`` cut or zero-padded to length ``d``."""
    out = np.zeros(v.shape[:-1] + (d,))
    out[..., : v.shape[-1]] = v[..., :d]
    return out


def _pipeline(state: BlockState, a0, svd) -> tuple:
    """(pinched Phi-sum, merged Phi) of ``pipeline_values`` for each member of a
    stack, from its floors ``a0`` and the full SVD B = U diag(s) V* of its B.

    Column j of U gives the block (u_j*Au_j, v_j*Cv_j, s_j^2), or (u_j*Au_j, 0, 0)
    with v_j*Cv_j joining eps_rem if s_j <= SV_CUTOFF.  The checks of svd_pinch
    and merge_channel keep their tolerances and errors but read the channels'
    structure: U and V unitary; |alpha_j|^2 + max(0, 1 - |alpha_j|^2) = 1; the
    active output (sum a_j |alpha_j|^2, sum alpha_j sqrt(x_j); ., E), E by
    construction, equal to (A, sqrt X; sqrt X, E); and spectators diagonal in
    the output and its pinching alike, so the output entropy is Phi of that block.
    """
    u, s, vh = svd
    gram = [w @ _adjoint(w) - np.eye(w.shape[-1]) for w in (u, _adjoint(vh))]
    _check_completeness(np.sqrt(sum(np.sum(np.abs(g) ** 2, axis=(-2, -1)) for g in gram)))
    a, c = _masses(state.a, u), _masses(state.c, _adjoint(vh))
    s_p = _pad(s, state.dim_p)
    keep = s_p > SV_CUTOFF
    eps, x = np.where(keep, _pad(c, state.dim_p), 0.0), np.where(keep, s_p * s_p, 0.0)
    eps_rem = np.sum(np.where(_pad(s, state.dim_q) > SV_CUTOFF, 0.0, c), axis=-1)
    pinched = np.sum(phi(a, eps, x), axis=-1)
    a_m, e_m, x_m = _validate_merge(a, eps, x, eps_rem, a0)
    alphas = _merge_alphas(a, x, a_m, x_m)
    weight = np.abs(alphas) ** 2
    _check_completeness(np.linalg.norm(weight + np.maximum(0, 1 - weight) - 1, axis=-1))
    a_out, z_out = np.sum(weight * a, axis=-1), np.sum(alphas * np.sqrt(x), axis=-1)
    miss = np.abs([a_out - a_m, z_out - np.sqrt(x_m)]).max(axis=0)
    message = "merged active block does not match (A, sqrt(X); sqrt(X), E)"
    _fail_first(miss > MERGE_TOL, NumericError, message)
    merged = phi(a_m, e_m, x_m)
    wrong = np.abs(_phi(a_out, e_m, np.abs(z_out) ** 2) - merged) > MERGE_TOL * (1 + merged)
    message = "merged channel output entropy does not equal Phi(A, E, X)"
    _fail_first(wrong, NumericError, message)
    return pinched, merged


def modulus_curve(a_star: float, tau: float, eps_grid) -> list:
    """Rows (eps_q, Phi(a_star, eps_q, tau a_star eps_q), Phi per unit coherence).

    a_star and every eps_q are diagonal entries of a density matrix, in (0, 1].
    The coherence c = tau a_star eps_q must be positive: at c = 0 the
    per-coherence column would be 0/0.
    """
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"tau must lie in (0, 1], got {tau}")
    if not 0.0 < a_star <= 1.0:
        raise DomainError(f"a_star must lie in (0, 1], got {a_star}")
    rows = []
    for eps_q in eps_grid:
        eps_q = float(eps_q)
        c = tau * a_star * eps_q
        if not (0.0 < eps_q <= 1.0 and c > 0.0):
            raise DomainError(
                f"eps_q must lie in (0, 1] with tau*a_star*eps_q > 0, got eps_q = {eps_q}"
            )
        val = phi(a_star, eps_q, c)
        rows.append((eps_q, val, val / c))
    return rows
