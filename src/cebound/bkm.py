"""The BKM (Bogoliubov-Kubo-Mori) kernel and quadratic form.

The kernel of the form is the reciprocal logarithmic mean
L(a, c) = log(a/c)/(a - c).  The quadratic form is evaluated spectrally by
default; an adaptive Gauss-Legendre quadrature of the resolvent integral is
kept as an independent oracle.  The module also provides the Petz monotone
metrics for four named operator-monotone functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, PositivityError
from .linalg import BlockState, pinch, validate_hermitian

POSITIVITY_FLOOR = 1e-12
_SERIES_THRESHOLD = 1e-8


def _log_mean(x, y) -> np.ndarray:
    """Elementwise L(x, y) = log(x/y)/(x - y) for positive arrays, broadcast.

    Near x = y the direct quotient cancels; there we use the even series
    L = (2/(x+y)) (1 + z^2/3 + z^4/5 + z^6/7) with z = (x-y)/(x+y).  Above
    the threshold, log1p((hi-lo)/lo) keeps the logarithm accurate to a few ulp
    where log(hi/lo) would lose digits to the rounding of hi/lo.
    """
    hi = np.maximum(x, y)  # exact symmetry in (x, y)
    lo = np.minimum(x, y)
    s = hi + lo
    diff = hi - lo
    series = diff <= _SERIES_THRESHOLD * s
    z2 = (diff / s) ** 2
    near = (2.0 / s) * (1.0 + z2 / 3.0 + z2**2 / 5.0 + z2**3 / 7.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.log1p(diff / lo) / diff
    return np.where(series, near, direct)


def log_mean_kernel(a: float, c: float) -> float:
    """L(a, c) = log(a/c)/(a - c), with L(a, a) = 1/a."""
    if a <= 0.0 or c <= 0.0:
        raise DomainError(f"log_mean_kernel needs positive arguments, got ({a}, {c})")
    return float(_log_mean(np.float64(a), np.float64(c)))


def _kernel(lam: np.ndarray, mu: np.ndarray, tag: str = "bkm") -> np.ndarray:
    """K(lam_i, mu_j) for a named Petz metric, over the trailing axis of each.

    ``"bkm"`` is the series-stable reciprocal logarithmic mean; every other tag
    is 1/(mu_j f(lam_i/mu_j)).  Leading axes of ``lam`` and ``mu`` broadcast.
    """
    if tag not in PETZ_FUNCTIONS:
        raise DomainError(f"unknown operator-monotone tag {tag!r}")
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

    Every quadratic form here has this shape: the BKM form, channel weights,
    the Hessian and the Petz metrics.
    """
    return np.sum(sq * _kernel(lam, mu, tag), axis=(-2, -1))


def _check_positive(w, name: str) -> None:
    """Raise unless the ascending spectrum ``w`` clears POSITIVITY_FLOOR, for
    every member when ``w`` carries leading stack axes."""
    low = np.min(w[..., 0])
    if low <= POSITIVITY_FLOOR:
        raise PositivityError(
            f"{name} must be positive definite, lambda_min = {low:.3e}"
        )


def _eigh_positive(h, name: str):
    h = validate_hermitian(h, name)
    w, v = np.linalg.eigh(h)
    _check_positive(w, name)
    return w, v


def bkm_apply(a, c, b) -> np.ndarray:
    """Omega^{-1}(B) = int_0^inf (A + r)^{-1} B (C + r)^{-1} dr, spectrally."""
    wa, va = _eigh_positive(a, "A")
    wc, vc = _eigh_positive(c, "C")
    bt = _rotate(va, np.asarray(b, dtype=complex), vc)
    return va @ (bt * _kernel(wa, wc)) @ vc.conj().T


def _spectral_bkm_form(wa, va, wc, vc, b) -> np.ndarray:
    """bkm_form from the eigenpairs (wa, va) of A and (wc, vc) of C, over any
    leading stack axes."""
    bt = _rotate(va, np.asarray(b, dtype=complex), vc)
    return _form(np.abs(bt) ** 2, wa, wc)


def bkm_form(a, c, b) -> float:
    """Tr[B* Omega^{-1}(B)] = sum_{ab} |B~_{ab}|^2 L(a_a, c_b) >= 0."""
    return float(
        _spectral_bkm_form(*_eigh_positive(a, "A"), *_eigh_positive(c, "C"), b)
    )


@dataclass(frozen=True)
class ChannelWeights:
    """Coherence channel weights w_{ab} = |<e_a, B f_b>|^2 / ||B||_F^2."""

    weights: np.ndarray
    a_eigen: np.ndarray
    c_eigen: np.ndarray
    frob_sq: float

    def reconstruct_form(self) -> float:
        """frob_sq * sum w_{ab} L(a_a, c_b), the BKM form rebuilt from weights."""
        if self.frob_sq == 0.0:
            return 0.0
        return self.frob_sq * float(_form(self.weights, self.a_eigen, self.c_eigen))


def channel_weights(a, c, b) -> ChannelWeights:
    """Spectral channel weights of the coherence block B against (A, C).

    B = 0 returns all-zero weights with frob_sq = 0 by convention.
    """
    wa, va = _eigh_positive(a, "A")
    wc, vc = _eigh_positive(c, "C")
    b = np.asarray(b, dtype=complex)
    frob_sq = float(np.sum(np.abs(b) ** 2))
    bt = _rotate(va, b, vc)
    if frob_sq == 0.0:
        return ChannelWeights(
            weights=np.zeros(bt.shape), a_eigen=wa, c_eigen=wc, frob_sq=0.0
        )
    return ChannelWeights(
        weights=np.abs(bt) ** 2 / frob_sq, a_eigen=wa, c_eigen=wc, frob_sq=frob_sq
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def bkm_quadrature(a, c, b, tol: float = 1e-10) -> float:
    """Quadrature oracle for Tr[B* Omega^{-1}(B)].

    Substitutes r = t/(1-t) and applies composite 16-point Gauss-Legendre on
    a dyadically refined partition of (0, 1) until two successive refinement
    levels agree to ``tol`` relative.
    """
    wa, _ = _eigh_positive(a, "A")
    wc, _ = _eigh_positive(c, "C")
    a = np.asarray(a, dtype=complex)
    c = np.asarray(c, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dp, dq = b.shape
    eye_p = np.eye(dp)
    eye_q = np.eye(dq)

    def integrand(t: float) -> float:
        r = t / (1.0 - t)
        inv_a = np.linalg.inv(a + r * eye_p)
        inv_c = np.linalg.inv(c + r * eye_q)
        val = np.trace(b.conj().T @ inv_a @ b @ inv_c).real
        return val / (1.0 - t) ** 2

    def composite(panels: int) -> float:
        edges = np.linspace(0.0, 1.0, panels + 1)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                total += weight * half * integrand(mid + half * node)
        return total

    prev = composite(1)
    for level in range(1, 25):
        cur = composite(2**level)
        if abs(cur - prev) < tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise NumericError("bkm_quadrature did not converge in 24 refinement levels")


def bkm_hessian(n, y) -> float:
    """H_N(Y, Y) = sum_{ij} |Y~_{ij}|^2 L(nu_i, nu_j) in the eigenbasis of N."""
    return petz_form(n, y, "bkm")


def _midpoint_inputs(state: BlockState):
    """M = pinch(rho) and Y = rho - M, checked by ``_check_midpoint``."""
    m = pinch(state)
    y = state.off_diagonal()
    _check_midpoint(np.linalg.eigvalsh(m)[0], np.linalg.eigvalsh(m + y)[0])
    return m, y


def _check_midpoint(m_min, rho_min) -> None:
    """Raise unless M clears POSITIVITY_FLOOR and M +- Y is positive semidefinite,
    given lambda_min of M and of M + Y = rho (arrays over a stack, or scalars).

    M - Y = U (M + Y) U* with U = I (+) -I, so it has the spectrum of M + Y
    and one lambda_min serves both signs.
    """
    if np.any(m_min <= POSITIVITY_FLOOR):
        raise PositivityError("pinched state M must be positive definite")
    if np.any(rho_min < -1e-12):
        raise DomainError("M +- Y must be positive semidefinite")


SYMMETRY_TOL = 1e-9


PETZ_FUNCTIONS = {
    "bkm": lambda x: 1.0 / _log_mean(np.asarray(x, dtype=float), 1.0),
    "arithmetic": lambda x: (1.0 + np.asarray(x, dtype=float)) / 2.0,
    "geometric": lambda x: np.sqrt(np.asarray(x, dtype=float)),
    "harmonic": lambda x: 2.0 * np.asarray(x, dtype=float) / (1.0 + x),
}


def petz_form(n, y, tag: str) -> float:
    """Petz monotone metric g^f_N(Y, Y) = sum_{ij} |Y~_{ij}|^2 / (nu_j f(nu_i/nu_j))."""
    wn, vn = _eigh_positive(n, "N")
    y = validate_hermitian(y, "Y")
    return float(_form(np.abs(_rotate(vn, y, vn)) ** 2, wn, wn, tag))


def midpoint_margins(state: BlockState, t_grid, tags) -> dict:
    """Margins g^f_{M+tY}(Y,Y) - g^f_M(Y,Y) for each named Petz metric.

    Returns {tag: margins over t_grid}; tag ``"bkm"`` gives the BKM Hessian
    margins H_{M+tY}(Y,Y) - H_M(Y,Y).  One stacked eigendecomposition of M and
    every M +- tY serves all tags.  Each M +- tY must be positive definite, and
    every tag must satisfy the block-sign symmetry g_{M+tY} = g_{M-tY} to
    SYMMETRY_TOL.
    """
    m, y = _midpoint_inputs(state)
    # Y is exactly Hermitian and vanishes on the diagonal blocks, so each
    # M +- tY has the Hermitian defect of M and at least its scale.
    m = validate_hermitian(m, "M")
    y = validate_hermitian(y, "Y")
    return _midpoint_margins(m, y, t_grid, tags)


def _midpoint_margins(m, y, t_grid, tags) -> dict:
    """The body of ``midpoint_margins`` on M and Y with any leading stack axes;
    each margin array gains the t axis last."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid >= 1.0):
        raise DomainError("every t must lie in [0, 1)")
    shifts = np.concatenate(([0.0], t_grid, -t_grid))
    y = y[..., None, :, :]
    w, v = np.linalg.eigh(m[..., None, :, :] + shifts[:, None, None] * y)
    low = w[..., 0] <= POSITIVITY_FLOOR
    if np.any(low):
        k = np.unravel_index(np.argmax(low), low.shape)
        raise PositivityError(
            f"M + tY must be positive definite at t = {shifts[k[-1]]}, "
            f"lambda_min = {w[k][0]:.3e}"
        )
    sq = np.abs(_rotate(v, y, v)) ** 2
    n_t = len(t_grid)
    out = {}
    for tag in tags:
        vals = _form(sq, w, w, tag)
        plus, minus = vals[..., 1 : n_t + 1], vals[..., n_t + 1 :]
        gap = np.abs(plus - minus)
        if np.any(gap > SYMMETRY_TOL):
            k = np.unravel_index(np.argmax(gap), gap.shape)
            raise NumericError(
                f"midpoint symmetry violated at t={t_grid[k[-1]]} for tag {tag!r}: "
                f"|g+ - g-| = {gap[k]:.3e}"
            )
        out[tag] = plus - vals[..., :1]
    return out


def midpoint_margin(state: BlockState, t_grid) -> np.ndarray:
    """Margins H_{M+tY}(Y,Y) - H_M(Y,Y) along the coherence direction.

    Also checks the block-sign symmetry H_{M+tY} = H_{M-tY} to SYMMETRY_TOL.
    """
    return midpoint_margins(state, t_grid, ("bkm",))["bkm"]


def petz_midpoint_margin(state: BlockState, t_grid, tag: str) -> np.ndarray:
    """Margins g^f_{M+tY}(Y,Y) - g^f_M(Y,Y) for a named Petz metric."""
    return midpoint_margins(state, t_grid, (tag,))[tag]
