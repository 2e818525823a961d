"""The BKM (Bogoliubov-Kubo-Mori) kernel and quadratic form.

The kernel of the form is the reciprocal logarithmic mean
L(a, c) = log(a/c)/(a - c).  The quadratic form is evaluated spectrally over
the supports of A, C >= 0 (``_supported``); the tests check it against a
quadrature of the resolvent integral (``tests/oracles.py``).  The module also
provides the Petz monotone metrics for four named operator-monotone functions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, PositivityError, ValidationError, _fail_first
from .linalg import POSITIVITY_FLOOR, PSD_TOL, SUPPORT_MASS_TOL, BlockState, _support
from .linalg import _validated_blocks, _validated_spectra, pinch, validate_hermitian

def _log_mean(x, y) -> np.ndarray:
    """Elementwise L(x, y) = log(x/y)/(x - y) for positive arrays, broadcast;
    L(x, x) = 1/x.  One formula at every gap: near x = y, hi - lo is exact, so
    log1p((hi-lo)/lo) has nothing to cancel and stays accurate to a few ulp,
    where log(hi/lo) would lose digits to the rounding of hi/lo.  Where
    (hi-lo)/lo overflows, log hi - log lo takes its place.
    """
    hi = np.maximum(x, y)  # exact symmetry in (x, y)
    lo = np.minimum(x, y)
    diff = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = diff / lo
        log_ratio = np.where(np.isinf(ratio), np.log(hi) - np.log(lo), np.log1p(ratio))
        return np.where(diff > 0.0, log_ratio / diff, 1.0 / lo)


def log_mean_kernel(a: float, c: float) -> float:
    """L(a, c) = log(a/c)/(a - c), with L(a, a) = 1/a, for finite a, c > 0."""
    if not (0.0 < a < np.inf and 0.0 < c < np.inf):  # NaN fails too
        raise DomainError(f"log_mean_kernel needs finite positive arguments, got ({a}, {c})")
    value = float(_log_mean(np.float64(a), np.float64(c)))
    if not np.isfinite(value):  # L(a, c) >= 1/max(a, c) can exceed the float range
        raise DomainError(f"log_mean_kernel({a}, {c}) = {value} exceeds the float range")
    return value


def _kernel(lam: np.ndarray, mu: np.ndarray, tag: str = "bkm") -> np.ndarray:
    """K(lam_i, mu_j) for a named Petz metric, over the trailing axis of each.

    ``"bkm"`` is the reciprocal logarithmic mean (``_log_mean``); every other tag
    is 1/(mu_j f(lam_i/mu_j)).  Leading axes of ``lam`` and ``mu`` broadcast.
    The public callers check the tag (``_check_tags``).
    """
    x = lam[..., :, None]
    y = mu[..., None, :]
    if tag == "bkm":
        return _log_mean(x, y)
    return 1.0 / (y * np.asarray(PETZ_FUNCTIONS[tag](x / y), dtype=float))


def _rotate(v, x, w) -> np.ndarray:
    """V* X W, over any leading stack axes."""
    return np.swapaxes(v.conj(), -1, -2) @ x @ w


def _form(sq, lam, mu, tag: str = "bkm"):
    """sum_ij sq_ij K(lam_i, mu_j) with sq = |V* X W|^2, over any leading stack axes.

    The channel weights, the Hessian and the Petz metrics have this shape; the
    BKM form too, with its kernel over the supports (``_supported``).
    """
    return np.sum(sq * _kernel(lam, mu, tag), axis=(-2, -1))


def _supported(sp, b) -> tuple:
    """(B~, K) over any leading stack axes: B~ = V_A* B V_C, and K the BKM kernel
    L(a_i, c_j) on the support pairs of A and C (``_support``), 0.0 off them.

    A, C >= 0 suffices: a state has B = P_A B P_C, so B~ vanishes off the
    supports, and the form is the delta -> 0 limit of that of (1-delta) rho +
    delta I/d.  lambda_min < -PSD_TOL raises PositivityError, and |B~_ij|^2 >
    SUPPORT_MASS_TOL off the supports, which no state has, DomainError."""
    for name, w in (("A", sp.wa), ("C", sp.wc)):
        message = f"{name} must be positive semidefinite, lambda_min = {{:.3e}}"
        _fail_first(w[..., 0] < -PSD_TOL, PositivityError, message, w[..., 0])
    ka, kc = _support(sp.wa), _support(sp.wc)
    kept = ka[..., :, None] & kc[..., None, :]
    bt = _rotate(sp.va, b, sp.vc)
    off = np.where(kept, 0.0, np.abs(bt) ** 2)
    message = "B has weight |B~_ij|^2 = {:.3e} off the supports of A and C"
    _fail_first(off > SUPPORT_MASS_TOL, DomainError, message, off)
    k = _kernel(np.where(ka, sp.wa, 1.0), np.where(kc, sp.wc, 1.0))
    return bt, np.where(kept, k, 0.0)


def bkm_apply(a, c, b) -> np.ndarray:
    """Omega^{-1}(B) = int_0^inf (A + r)^{-1} B (C + r)^{-1} dr, spectrally, over
    the supports of A and C."""
    sp, b = _validated_spectra(a, c, b)
    bt, k = _supported(sp, b)
    return sp.va @ (bt * k) @ sp.vc.conj().T


def _spectral_bkm_form(sp, b) -> np.ndarray:
    """bkm_form from the block spectra of A and C, over any leading stack axes."""
    bt, k = _supported(sp, b)
    return np.sum(np.abs(bt) ** 2 * k, axis=(-2, -1))


def bkm_form(a, c, b) -> float:
    """Tr[B* Omega^{-1}(B)] = sum_{ab} |B~_{ab}|^2 L(a_a, c_b) >= 0, over the
    supports of A, C >= 0."""
    return float(_spectral_bkm_form(*_validated_spectra(a, c, b)))


class ChannelWeights(NamedTuple):
    """Coherence channel weights w_{ab} = |<e_a, B f_b>|^2 / ||B||_F^2."""

    weights: np.ndarray
    a_eigen: np.ndarray
    c_eigen: np.ndarray
    frob_sq: float

    def reconstruct_form(self) -> float:
        """frob_sq * sum w_{ab} L(a_a, c_b), the BKM form rebuilt from weights."""
        return self.frob_sq * float(_form(self.weights, self.a_eigen, self.c_eigen))


def channel_weights(a, c, b) -> ChannelWeights:
    """Spectral channel weights of the coherence block B against (A, C).

    B = 0 returns all-zero weights with frob_sq = 0 by convention.
    """
    sp, b = _validated_spectra(a, c, b)
    sp.check_positive()
    frob_sq = float(np.sum(np.abs(b) ** 2))
    sq = np.abs(_rotate(sp.va, b, sp.vc)) ** 2
    weights = sq / frob_sq if frob_sq > 0.0 else np.zeros(sq.shape)
    return ChannelWeights(weights=weights, a_eigen=sp.wa, c_eigen=sp.wc, frob_sq=frob_sq)


def bkm_hessian(n, y) -> float:
    """H_N(Y, Y) = sum_{ij} |Y~_{ij}|^2 L(nu_i, nu_j) in the eigenbasis of N."""
    return petz_form(n, y, "bkm")


def _check_midpoint(rho_min) -> None:
    """Raise unless M +- Y is positive semidefinite, given lambda_min of
    M + Y = rho (an array over a stack, or a scalar).

    M - tY = U (M + tY) U* and U Y U* = -Y with U = I (+) -I, so one lambda_min
    serves both signs at t = 1, and g_{M-tY}(Y, Y) = g_{M+tY}(Y, Y) for every
    Petz metric: the margins are evaluated at M + tY only.  M > 0 is gated by
    M, the t = 0 member of the midpoint stack.
    """
    _fail_first(rho_min < -PSD_TOL, DomainError, "M +- Y must be positive semidefinite")


PETZ_FUNCTIONS = {
    "bkm": lambda x: 1.0 / _log_mean(np.asarray(x, dtype=float), 1.0),
    "arithmetic": lambda x: (1.0 + np.asarray(x, dtype=float)) / 2.0,
    "geometric": lambda x: np.sqrt(np.asarray(x, dtype=float)),
    "harmonic": lambda x: 2.0 * np.asarray(x, dtype=float) / (1.0 + x),
}


def _check_tags(tags) -> None:
    """Raise DomainError at the first tag that names no Petz function."""
    for tag in tags:
        if tag not in PETZ_FUNCTIONS:
            raise DomainError(f"unknown operator-monotone tag {tag!r}")


def petz_form(n, y, tag: str) -> float:
    """Petz monotone metric g^f_N(Y, Y) = sum_{ij} |Y~_{ij}|^2 / (nu_j f(nu_i/nu_j)):
    the one-member case (t = 0, M = N) of ``_petz_forms``."""
    _check_tags((tag,))
    n, y = validate_hermitian(n, "N"), validate_hermitian(y, "Y")
    if y.shape != n.shape:
        raise ValidationError(f"Y must have the shape of N, {n.shape}, got {y.shape}")
    return float(_petz_forms(n, y, (0.0,), (tag,))[tag][0])


def midpoint_margins(state: BlockState, t_grid, tags) -> dict:
    """Margins g^f_{M+tY}(Y,Y) - g^f_M(Y,Y) for each named Petz metric.

    Returns {tag: margins over t_grid}; tag ``"bkm"`` gives the BKM Hessian
    margins H_{M+tY}(Y,Y) - H_M(Y,Y).  One stacked eigendecomposition of M and
    every M + tY serves all tags, as in ``verify``.  M +- Y must be positive
    semidefinite and each M + tY positive definite; the margins at M - tY are
    the same (see ``_check_midpoint``).
    """
    _check_tags(tags)
    # Y, built from B, is exactly Hermitian, so each M + tY is Hermitian
    # within the tolerance that A and C pass.
    _validated_blocks(state.a, state.c, state.b)
    m, y = pinch(state), state.off_diagonal()
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all((t_grid >= 0.0) & (t_grid < 1.0)):  # NaN fails too
        raise DomainError("every t must lie in [0, 1)")
    _check_midpoint(np.linalg.eigvalsh(m + y)[0])
    forms = _petz_forms(m, y, np.concatenate(([0.0], t_grid)), tags)
    return {tag: g[1:] - g[0] for tag, g in forms.items()}


def _path(m, y, shifts) -> tuple:
    """((w, v), Y): the eigenpairs of each M + sY over ``shifts`` from one
    stacked eigh, and Y with the s axis added.  Over any leading stack axes of
    M and Y, the s axis follows them.  The only code that diagonalises the
    affine path."""
    y = y[..., None, :, :]
    return np.linalg.eigh(m[..., None, :, :] + np.asarray(shifts)[:, None, None] * y), y


def _petz_forms(m, y, shifts, tags) -> dict:
    """{tag: g^f_{M+tY}(Y, Y) over t in ``shifts``} from ``_path``, every member
    gated by POSITIVITY_FLOOR.  Over leading stack axes of M and Y, each form
    array gains the t axis last.  The caller checks the domain of t."""
    (w, v), y = _path(m, y, shifts)
    low = w[..., 0]
    message = "M + tY must be positive definite at t = {}, lambda_min = {:.3e}"
    _fail_first(low <= POSITIVITY_FLOOR, PositivityError, message, shifts, low)
    sq = np.abs(_rotate(v, y, v)) ** 2
    return {tag: _form(sq, w, w, tag) for tag in tags}


def midpoint_margin(state: BlockState, t_grid) -> np.ndarray:
    """Margins H_{M+tY}(Y,Y) - H_M(Y,Y) along the coherence direction."""
    return midpoint_margins(state, t_grid, ("bkm",))["bkm"]


def petz_midpoint_margin(state: BlockState, t_grid, tag: str) -> np.ndarray:
    """Margins g^f_{M+tY}(Y,Y) - g^f_M(Y,Y) for a named Petz metric."""
    return midpoint_margins(state, t_grid, (tag,))[tag]
