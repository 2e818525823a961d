"""Entropy lower bounds for D(rho || pinch(rho)) and the two witness families.

Bounds collected per state: the BKM operator bound Tr[B* Omega^{-1}(B)], its
boundary logarithmic specialization ||B||_F^2 log(a0/eps_Q) (applicable when
eps_Q <= a0/2), Pinsker 2||B||_1^2, and the fidelity bound -2 log F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bkm import _check_positive, _spectral_bkm_form, bkm_form, log_mean_kernel
from .errors import DomainError, InfeasibleError, PositivityError
from .linalg import (
    BlockState,
    _adjoint,
    _block_diag,
    _coherence_entropy,
    two_level_pure,
    validate_hermitian,
)
from .twolevel import binary_entropy

MARGIN_TOL = 1e-9
REG_DELTA = 1e-10


class _BlockSpectra(NamedTuple):
    """Ascending eigenvalues and eigenvectors of the diagonal blocks A and C,
    with the leading stack axes of the blocks, if any."""

    wa: np.ndarray
    va: np.ndarray
    wc: np.ndarray
    vc: np.ndarray


def _block_spectra(state: BlockState) -> _BlockSpectra:
    """One validated eigendecomposition of each diagonal block."""
    wa, va = np.linalg.eigh(validate_hermitian(state.a, "A"))
    wc, vc = np.linalg.eigh(validate_hermitian(state.c, "C"))
    return _BlockSpectra(wa, va, wc, vc)


def _operator_bound(sp: _BlockSpectra, b, regularize: bool) -> tuple[np.ndarray, bool]:
    """The BKM form from the block spectra, and whether it was regularized.

    (1-delta) A + (delta/d) I keeps the eigenvectors of A, so the regularized
    spectra are the closed form (1-delta) w + delta/d.  Over a stack, every
    member is regularized when one needs it; only single states ask for it.
    """
    if np.all(sp.wa[..., 0] > 1e-12) and np.all(sp.wc[..., 0] > 1e-12):
        return _spectral_bkm_form(*sp, b), False
    if not regularize:
        raise PositivityError("operator_bound requires A > 0 and C > 0")
    shift = REG_DELTA / (sp.wa.shape[-1] + sp.wc.shape[-1])
    wa = (1.0 - REG_DELTA) * sp.wa + shift
    wc = (1.0 - REG_DELTA) * sp.wc + shift
    _check_positive(wa, "A")
    _check_positive(wc, "C")
    return _spectral_bkm_form(wa, sp.va, wc, sp.vc, (1.0 - REG_DELTA) * b), True


def operator_bound(state: BlockState, regularize: bool = False) -> float:
    """The BKM operator lower bound Tr[B* Omega_{A,C}^{-1}(B)].

    Singular A or C raises unless ``regularize`` is set, in which case the
    bound is computed on (1-delta) rho + (delta/d) I with delta = 1e-10.
    """
    return float(_operator_bound(_block_spectra(state), state.b, regularize)[0])


def _log_bound(a0, state: BlockState) -> np.ndarray:
    """||B||_F^2 log(a0/Tr C) over any leading stack axes; NaN where the
    hypotheses a0 > 0, Tr C > 0, Tr C <= a0/2 fail."""
    eps_q = np.trace(state.c, axis1=-2, axis2=-1).real
    frob_sq = np.sum(np.abs(state.b) ** 2, axis=(-2, -1))
    applies = (a0 > 0.0) & (eps_q > 0.0) & (eps_q <= a0 / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked below
        return np.where(applies, frob_sq * np.log(a0 / eps_q), np.nan)


def _optional(value) -> float | None:
    """A one-state ``_log_bound`` as a float, or None where it does not apply."""
    return None if np.isnan(value) else float(value)


def log_boundary_bound(state: BlockState) -> float | None:
    """||B||_F^2 log(lambda_min(A)/Tr C), or None when the hypotheses
    lambda_min(A) > 0, Tr C > 0, Tr C <= lambda_min(A)/2 fail."""
    return _optional(_log_bound(np.linalg.eigvalsh(state.a)[0], state))


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)))


def _pinsker(svals) -> np.ndarray:
    """2||B||_1^2 from the singular values of B, over any leading stack axes."""
    return 2.0 * np.sum(svals, axis=-1) ** 2


def pinsker_bound(state: BlockState) -> float:
    """Pinsker applied to sigma = pinch(rho): D >= (1/2)||rho - Pi rho||_1^2 = 2||B||_1^2."""
    return float(_pinsker(np.linalg.svd(state.b, compute_uv=False)))


def _psd_sqrt(w, v) -> np.ndarray:
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _adjoint(v)


def _fidelity(rho, sqrt_sigma) -> np.ndarray:
    """Tr sqrt(sqrt(sigma) rho sqrt(sigma)), given sqrt(sigma), over any leading
    stack axes."""
    w = np.linalg.eigvalsh(sqrt_sigma @ rho @ sqrt_sigma)
    low = np.min(w[..., 0])
    if low < -1e-14:
        raise DomainError(f"fidelity inner matrix not PSD: lambda_min = {low:.3e}")
    return np.sum(np.sqrt(np.clip(w, 0.0, None)), axis=-1)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr sqrt(sqrt(sigma) rho sqrt(sigma))."""
    sqrt_sigma = _psd_sqrt(*np.linalg.eigh(np.asarray(sigma, dtype=complex)))
    return float(_fidelity(np.asarray(rho, dtype=complex), sqrt_sigma))


def _fidelity_bound(sp: _BlockSpectra, rho: np.ndarray) -> np.ndarray:
    """-2 log F(rho, pinch(rho)), with sqrt(pinch(rho)) = sqrt(A) (+) sqrt(C)."""
    sqrt_m = _block_diag(_psd_sqrt(sp.wa, sp.va), _psd_sqrt(sp.wc, sp.vc))
    f = _fidelity(rho, sqrt_m)
    return np.where(f < 1.0, -2.0 * np.log(np.minimum(f, 1.0)), 0.0)


def fidelity_bound(state: BlockState) -> float:
    """-2 log F(rho, pinch(rho))."""
    return float(_fidelity_bound(_block_spectra(state), state.to_matrix()))


class _Bounds(NamedTuple):
    """The lower bounds of ``bound_report``, over any leading stack axes.

    ``log`` is NaN where the log-boundary hypotheses fail.
    """

    entropy: np.ndarray
    bkm: np.ndarray
    log: np.ndarray
    pinsker: np.ndarray
    fidelity: np.ndarray

    def margins(self) -> dict:
        """entropy - bound for each bound, and log_vs_bkm = bkm - log."""
        return {
            "bkm": self.entropy - self.bkm,
            "pinsker": self.entropy - self.pinsker,
            "fidelity": self.entropy - self.fidelity,
            "log": self.entropy - self.log,
            "log_vs_bkm": self.bkm - self.log,
        }


def _bounds(state, sp, rho, w_rho, svals, regularize=False) -> tuple[_Bounds, bool]:
    """Every bound from the spectra of A, C and rho and the singular values of B,
    and whether the BKM form was regularized."""
    bkm, used_reg = _operator_bound(sp, state.b, regularize)
    bounds = _Bounds(
        entropy=_coherence_entropy(w_rho, sp.wa, sp.wc),
        bkm=bkm,
        log=_log_bound(sp.wa[..., 0], state),
        pinsker=_pinsker(svals),
        fidelity=_fidelity_bound(sp, rho),
    )
    return bounds, used_reg


@dataclass
class BoundReport:
    """D(rho || pinch(rho)) with every computed lower bound and margin."""

    entropy: float
    bkm_bound: float
    log_bound: float | None
    pinsker_bound: float
    fidelity_bound: float
    coarse_applicable: bool
    margins: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    regularized: bool = False

    def to_dict(self) -> dict:
        return {
            "entropy": self.entropy,
            "bkm_bound": self.bkm_bound,
            "log_bound": self.log_bound,
            "pinsker_bound": self.pinsker_bound,
            "fidelity_bound": self.fidelity_bound,
            "coarse_applicable": self.coarse_applicable,
            "margins": self.margins,
            "params": self.params,
            "regularized": self.regularized,
        }

    def worst_margin(self) -> float:
        return min(self.margins.values())


def bound_report(state: BlockState, regularize: bool = False) -> BoundReport:
    """Aggregate all lower bounds for one state, with margins entropy - bound.

    One eigendecomposition of each of A and C, one eigvalsh of rho and one
    SVD of B serve every bound.
    """
    sp = _block_spectra(state)
    rho = state.to_matrix()
    svals = np.linalg.svd(state.b, compute_uv=False)
    bounds, used_reg = _bounds(
        state, sp, rho, np.linalg.eigvalsh(rho), svals, regularize
    )
    log_b = _optional(bounds.log)
    margins = {
        name: float(value)
        for name, value in bounds.margins().items()
        if log_b is not None or not name.startswith("log")
    }
    a0 = float(sp.wa[0])
    eps_q = float(np.trace(state.c).real)
    frob_sq = float(np.sum(np.abs(state.b) ** 2))
    pinsker = float(bounds.pinsker)
    params = {
        "a0": a0,
        "eps_q": eps_q,
        "frob_sq": frob_sq,
        "trace_norm_b": float(np.sum(svals)),
        # Pinsker-domination diagnostic: log bound wins when the first
        # quantity exceeds the second (eps_q <= a0 e^{-2 rank B} suffices)
        "log_ratio": math.log(a0 / eps_q) if a0 > 0 and eps_q > 0 else None,
        "pinsker_ratio": pinsker / frob_sq if frob_sq > 0 else None,
    }
    return BoundReport(
        entropy=float(bounds.entropy),
        bkm_bound=float(bounds.bkm),
        log_bound=log_b,
        pinsker_bound=pinsker,
        fidelity_bound=float(bounds.fidelity),
        coarse_applicable=log_b is not None,
        margins=margins,
        params=params,
        regularized=used_reg,
    )


@dataclass(frozen=True)
class SharpnessPoint:
    state: BlockState
    entropy: float
    bkm: float
    ratio_bkm: float
    ratio_log: float


def sharpness_family(q: float) -> SharpnessPoint:
    """The pure two-level family rho_q where both bounds become tight as q -> 0.

    entropy = h(q), bkm = q(1-q) L(1-q, q); both ratios tend to 1.
    """
    state = two_level_pure(q)
    entropy = binary_entropy(q)
    bkm = q * (1.0 - q) * log_mean_kernel(1.0 - q, q)
    log_scalar = q * (1.0 - q) * math.log((1.0 - q) / q)
    return SharpnessPoint(
        state=state,
        entropy=entropy,
        bkm=bkm,
        ratio_bkm=entropy / bkm,
        ratio_log=entropy / log_scalar,
    )


@dataclass(frozen=True)
class SeparationPoint:
    state: BlockState
    ratio: float


def separation_family(k: float, eps: float) -> SeparationPoint:
    """Witness state whose BKM bound exceeds the scalar log bound by factor ~k.

    With eta = 1/(k+1): A = diag(a1, m), C = (eps), B = (sqrt(a1 eps/2), 0)^T
    where m = eps^(1-eta) and a1 = 1 - m - eps.  The ratio
    bkm_form / (||B||_F^2 log(lambda_min(A)/Tr C)) equals
    L(a1, eps)/log(m/eps) and tends to k+1 as eps -> 0.
    """
    if k <= 1.0:
        raise DomainError(f"k must exceed 1, got {k}")
    if not 0.0 < eps < 0.25:
        raise DomainError(f"eps must lie in (0, 0.25), got {eps}")
    eta = 1.0 / (k + 1.0)
    m = eps ** (1.0 - eta)
    a1 = 1.0 - m - eps
    if a1 <= m:
        raise InfeasibleError(
            f"eps = {eps} too large: a1 = {a1} must exceed m = {m}"
        )
    state = BlockState(
        dim_p=2,
        dim_q=1,
        a=np.diag([a1, m]).astype(complex),
        b=np.array([[math.sqrt(a1 * eps / 2.0)], [0.0]], dtype=complex),
        c=np.array([[eps]], dtype=complex),
    )
    bkm = bkm_form(state.a, state.c, state.b)
    frob_sq = a1 * eps / 2.0
    ratio = bkm / (frob_sq * math.log(m / eps))
    return SeparationPoint(state=state, ratio=ratio)


SEPARATION_GRID = [10.0**-e for e in range(2, 13)]


def find_separation_eps(k: float) -> float:
    """Largest eps on the decade grid 1e-2..1e-12 whose separation ratio >= k."""
    tried = []
    for eps in SEPARATION_GRID:
        try:
            point = separation_family(k, eps)
        except InfeasibleError:
            tried.append((eps, None))
            continue
        tried.append((eps, point.ratio))
        if point.ratio >= k:
            return eps
    table = ", ".join(
        f"eps={eps:g}: ratio={ratio if ratio is None else round(ratio, 4)}"
        for eps, ratio in tried
    )
    raise InfeasibleError(f"no eps on the grid reaches ratio {k}; tried {table}")
