"""Entropy lower bounds for D(rho || pinch(rho)) and the two witness families.

Bounds collected per state: the BKM operator bound Tr[B* Omega^{-1}(B)], its
boundary logarithmic specialization ||B||_F^2 log(a0/eps_Q) (applicable when
0 < eps_Q < a0), Pinsker 2||B||_1^2, and the fidelity bound -2 log F.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bkm import _spectral_bkm_form, bkm_form, log_mean_kernel
from .errors import DomainError, InfeasibleError, ValidationError, _fail_first
from .linalg import (
    POSITIVITY_FLOOR,
    BlockState,
    _BlockSpectra,
    _adjoint,
    _block_diag,
    _coherence_entropy,
    _check_finite,
    _support,
    _validated_blocks,
    _validated_spectra,
    two_level_pure,
    validate_hermitian,
)
from .twolevel import binary_entropy

MARGIN_TOL = 1e-9
FIDELITY_PSD_TOL = 1e-14


def operator_bound(state: BlockState) -> float:
    """The BKM lower bound Tr[B* Omega_{A,C}^{-1}(B)] over the supports of A, C >= 0."""
    return bkm_form(state.a, state.c, state.b)


def _log_bound(a0, state: BlockState) -> np.ndarray:
    """||B||_F^2 log(a0/Tr C), a0 = lambda_min(A), over any leading stack axes;
    -inf where 0 < Tr C < a0 fails.  It is below the BKM form, as each eigenvalue
    pair 1 >= a >= a0 > Tr C >= c > 0 has L(a, c) >= log(a/c) >= log(a0/Tr C)."""
    eps_q = np.trace(state.c, axis1=-2, axis2=-1).real
    frob_sq = np.sum(np.abs(state.b) ** 2, axis=(-2, -1))
    applies = (0.0 < eps_q) & (eps_q < a0)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked below
        return np.where(applies, frob_sq * np.log(a0 / eps_q), -np.inf)


def _optional(value) -> float | None:
    """A one-state ``_log_bound`` as a float, or None where it does not apply."""
    return None if value == -np.inf else float(value)


def log_boundary_bound(state: BlockState) -> float | None:
    """||B||_F^2 log(lambda_min(A)/Tr C), or None when the hypothesis
    0 < Tr C < lambda_min(A) fails."""
    sp = _validated_spectra(state.a, state.c, state.b)[0]
    return _optional(_log_bound(sp.wa[0], state))


def trace_norm(m) -> float:
    """Sum of the singular values of a finite 2-D matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"matrix must be 2-D, got shape {m.shape}")
    _check_finite(m, "matrix")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _pinsker(svals) -> np.ndarray:
    """2||B||_1^2 from the singular values of B, over any leading stack axes."""
    return 2.0 * np.sum(svals, axis=-1) ** 2


def pinsker_bound(state: BlockState) -> float:
    """Pinsker applied to sigma = pinch(rho): D >= (1/2)||rho - Pi rho||_1^2 = 2||B||_1^2."""
    _validated_blocks(state.a, state.c, state.b)
    return float(_pinsker(np.linalg.svd(state.b, compute_uv=False)))


def _support_sqrt(w) -> np.ndarray:
    """sqrt of the eigenvalues w of a PSD matrix on its support, 0 on its kernel."""
    return np.sqrt(np.where(_support(w), w, 0.0))


def _psd_sqrt(w, v) -> np.ndarray:
    return (v * _support_sqrt(w)[..., None, :]) @ _adjoint(v)


def _fidelity(rho, sqrt_sigma) -> np.ndarray:
    """Tr sqrt(sqrt(sigma) rho sqrt(sigma)), given sqrt(sigma), over any leading
    stack axes."""
    w = np.linalg.eigvalsh(sqrt_sigma @ rho @ sqrt_sigma)
    message = "fidelity inner matrix not PSD: lambda_min = {:.3e}"
    _fail_first(w[..., 0] < -FIDELITY_PSD_TOL, DomainError, message, w[..., 0])
    return np.sum(_support_sqrt(w), axis=-1)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = Tr sqrt(sqrt(sigma) rho sqrt(sigma)), for
    Hermitian rho and sigma of one shape."""
    rho, sigma = validate_hermitian(rho, "rho"), validate_hermitian(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValidationError(f"rho and sigma differ in shape: {rho.shape} vs {sigma.shape}")
    return float(_fidelity(rho, _psd_sqrt(*np.linalg.eigh(sigma))))


def _fidelity_bound(sp: _BlockSpectra, rho: np.ndarray) -> np.ndarray:
    """-2 log F(rho, pinch(rho)), with sqrt(pinch(rho)) = sqrt(A) (+) sqrt(C)."""
    sqrt_m = _block_diag(_psd_sqrt(sp.wa, sp.va), _psd_sqrt(sp.wc, sp.vc))
    f = _fidelity(rho, sqrt_m)
    return np.where(f < 1.0, -2.0 * np.log(np.minimum(f, 1.0)), 0.0)


def fidelity_bound(state: BlockState) -> float:
    """-2 log F(rho, pinch(rho))."""
    sp = _validated_spectra(state.a, state.c, state.b)[0]
    return float(_fidelity_bound(sp, state.to_matrix()))


class _Bounds(NamedTuple):
    """The lower bounds of ``bound_report``, over any leading stack axes.

    ``log`` is -inf where the log-boundary hypotheses fail, so its margins
    there are +inf.
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


def _bounds(state, sp, rho, w_rho, svals) -> _Bounds:
    """Every bound from the spectra of A, C and rho and the singular values of B."""
    return _Bounds(
        entropy=_coherence_entropy(w_rho, sp.wa, sp.wc),
        bkm=_spectral_bkm_form(sp, state.b),
        log=_log_bound(sp.wa[..., 0], state),
        pinsker=_pinsker(svals),
        fidelity=_fidelity_bound(sp, rho),
    )


class BoundReport(NamedTuple):
    """D(rho || pinch(rho)) with every computed lower bound and margin."""

    entropy: float
    bkm_bound: float
    log_bound: float | None
    pinsker_bound: float
    fidelity_bound: float
    coarse_applicable: bool
    margins: dict
    params: dict

    def to_dict(self) -> dict:
        return self._asdict()

    def worst_margin(self) -> float:
        return min(self.margins.values())


def bound_report(state: BlockState) -> BoundReport:
    """Aggregate all lower bounds for one state, with margins entropy - bound.

    One eigendecomposition of each of A and C, one eigvalsh of rho and one
    SVD of B serve every bound.
    """
    sp = _validated_spectra(state.a, state.c, state.b)[0]
    rho = state.to_matrix()
    svals = np.linalg.svd(state.b, compute_uv=False)
    bounds = _bounds(state, sp, rho, np.linalg.eigvalsh(rho), svals)
    log_b = _optional(bounds.log)
    margins = {
        name: float(value)
        for name, value in bounds.margins().items()
        if log_b is not None or not name.startswith("log")
    }
    a0 = float(sp.wa[0]) if sp.wa[0] > POSITIVITY_FLOOR else 0.0  # 0 for A singular or near it
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
    )


class SharpnessPoint(NamedTuple):
    state: BlockState
    entropy: float
    bkm: float
    ratio_bkm: float
    ratio_log: float


def sharpness_family(q: float) -> SharpnessPoint:
    """The pure two-level family rho_q where both bounds become tight as q -> 0.

    entropy = h(q), bkm = q(1-q) L(1-q, q); both ratios tend to 1.  A
    subnormal q raises: (1-q)/q overflows there.
    """
    state = two_level_pure(q)
    tiny = np.finfo(float).tiny
    if q < tiny:
        raise DomainError(f"q must be at least {tiny:.17g}, the least normal float, got {q!r}")
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


class SeparationPoint(NamedTuple):
    state: BlockState
    ratio: float


def separation_family(k: float, eps: float) -> SeparationPoint:
    """Witness state whose BKM bound exceeds the scalar log bound by factor ~k.

    With eta = 1/(k+1): A = diag(a1, m), C = (eps), B = (sqrt(a1 eps/2), 0)^T
    where m = eps^(1-eta) and a1 = 1 - m - eps.  The ratio
    bkm_form / (||B||_F^2 log(lambda_min(A)/Tr C)) equals
    L(a1, eps)/log(m/eps) and tends to k+1 as eps -> 0.  The returned ratio
    is that of the float state's own a1, m and eps, within a few ulp.  From
    about k = 1e15 on, m lies a few ulp above eps, so that state's k differs
    from the k asked for; from about k = 2e16 on, m rounds to eps in float64,
    and the log bound to 0.
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
    if m <= eps:
        raise InfeasibleError(f"k = {k} too large: m = eps^(1 - 1/(k+1)) rounds to eps")
    state = BlockState(
        dim_p=2,
        dim_q=1,
        a=np.diag([a1, m]).astype(complex),
        b=np.array([[math.sqrt(a1 * eps / 2.0)], [0.0]], dtype=complex),
        c=np.array([[eps]], dtype=complex),
    )
    bkm = bkm_form(state.a, state.c, state.b)
    frob_sq = a1 * eps / 2.0
    # m - eps is exact (Sterbenz), so log1p gives the float state's own log(m/eps)
    ratio = bkm / (frob_sq * math.log1p((m - eps) / eps))
    return SeparationPoint(state=state, ratio=ratio)


def find_separation_eps(k: float) -> float:
    """eps = 1e-2, where the ratio (k+1) log(a1/eps)/((a1 - eps) log(1/eps)),
    a1 in (0.89, 0.98), exceeds 1.026 (k+1).  The float64 ratio is within 1e-3
    of it up to k = 1e13.  From about k = 1e15 on, 1/(k+1) spans a few ulp of 1
    and the float state's ratio drifts from k + 1: where it falls below k, or
    where m rounds to eps, the witness cannot be resolved and InfeasibleError
    is raised."""
    eps = 1e-2
    ratio = separation_family(k, eps).ratio
    if ratio < k:
        message = f"separation ratio {ratio} at eps = {eps} is below k = {k}"
        raise InfeasibleError(f"{message}: float64 cannot resolve the witness")
    return eps
