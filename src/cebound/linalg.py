"""Hermitian matrix utilities: validation, block decomposition, pinching,
relative entropy, and seeded random state generation.

All matrices are dense complex numpy arrays.  Entropies are in nats.
Eigenvalues below ``SUPPORT_TOL * (1 + scale)`` are treated as zero, with
the convention ``0 log 0 = 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, PositivityError, ValidationError

HERM_TOL = 1e-12
PSD_TOL = 1e-12
TRACE_TOL = 1e-12
SUPPORT_TOL = 1e-12
SUPPORT_MASS_TOL = 1e-10
RECON_TOL = 1e-10


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=complex)


def validate_hermitian(h, name: str = "matrix") -> np.ndarray:
    """Check that ``h`` is square, finite, and self-adjoint within tolerance."""
    h = _as_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {h.shape}")
    if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
        raise ValidationError(f"{name} has non-finite entries")
    scale = 1.0 + np.max(np.abs(h)) if h.size else 1.0
    defect = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if defect > HERM_TOL * scale:
        raise ValidationError(
            f"{name} is not Hermitian: defect {defect:.3e} exceeds tolerance"
        )
    return h


def validate_density(rho, name: str = "rho") -> np.ndarray:
    """Check that ``rho`` is a density matrix (Hermitian, PSD, unit trace)."""
    rho = validate_hermitian(rho, name)
    w = np.linalg.eigvalsh(rho)
    if w[0] < -PSD_TOL:
        raise ValidationError(
            f"{name} is not positive semidefinite: lambda_min = {w[0]:.3e}"
        )
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"{name} has trace {tr!r}, expected 1")
    return rho


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eigh(h, name: str = "matrix") -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, validated on input and output."""
    h = validate_hermitian(h, name)
    w, v = np.linalg.eigh(h)
    dec = SpectralDecomposition(eigenvalues=w, eigenvectors=v)
    hnorm = np.linalg.norm(h)
    recon = np.linalg.norm(dec.reconstruct() - h)
    ortho = np.linalg.norm(v.conj().T @ v - np.eye(h.shape[0]))
    if recon > RECON_TOL * (1.0 + hnorm) or ortho > RECON_TOL:
        raise ValidationError(
            f"eigendecomposition of {name} failed self-check "
            f"(recon {recon:.3e}, ortho {ortho:.3e})"
        )
    return dec


@dataclass(frozen=True)
class BlockState:
    """A density matrix with a designated P (+) Q split.

    ``a`` is the dim_p x dim_p leading block, ``c`` the dim_q x dim_q
    trailing block, and ``b`` the dim_p x dim_q coherence block.  Blocks with
    leading axes hold a stack of states (see ``_stack``).
    """

    dim_p: int
    dim_q: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def to_matrix(self) -> np.ndarray:
        """Reassemble the full density matrix [[A, B], [B*, C]]."""
        top = np.concatenate([self.a, self.b], axis=-1)
        bot = np.concatenate([_adjoint(self.b), self.c], axis=-1)
        return np.concatenate([top, bot], axis=-2)

    @property
    def dim(self) -> int:
        return self.dim_p + self.dim_q

    def off_diagonal(self) -> np.ndarray:
        """The direction Y = rho - pinch(rho), i.e. the off-diagonal part."""
        y = np.zeros(self.b.shape[:-2] + (self.dim, self.dim), dtype=complex)
        y[..., : self.dim_p, self.dim_p :] = self.b
        y[..., self.dim_p :, : self.dim_p] = _adjoint(self.b)
        return y


def _adjoint(x) -> np.ndarray:
    """x*, over any leading stack axes."""
    return np.swapaxes(x.conj(), -1, -2)


def _stack(states) -> BlockState:
    """One BlockState whose blocks carry a leading axis over ``states``.

    The private helpers written over leading stack axes take such a stack
    and return one value per member; the public functions take one state.
    """
    first = states[0]
    a, b, c = (np.stack([getattr(s, k) for s in states]) for k in "abc")
    return BlockState(dim_p=first.dim_p, dim_q=first.dim_q, a=a, b=b, c=c)


def _block_diag(x, z) -> np.ndarray:
    """x (+) z, over any leading stack axes."""
    p = x.shape[-1]
    out = np.zeros(x.shape[:-2] + (p + z.shape[-1],) * 2, dtype=complex)
    out[..., :p, :p] = x
    out[..., p:, p:] = z
    return out


def _join_spectra(wx, vx, wz, vz):
    """Eigenpairs of X (+) Z from those of X and Z (eigenvalues not sorted)."""
    return np.concatenate([wx, wz], axis=-1), _block_diag(vx, vz)


def block_decompose(rho, dim_p: int) -> BlockState:
    """Split a density matrix into its A, B, C blocks for a leading P of size dim_p."""
    return _split(validate_density(rho), dim_p)


def _split(rho: np.ndarray, dim_p: int) -> BlockState:
    """The A, B, C blocks of an already validated density matrix."""
    d = rho.shape[0]
    if not 1 <= dim_p < d:
        raise DomainError(f"dim_p must be in [1, {d - 1}], got {dim_p}")
    return BlockState(
        dim_p=dim_p,
        dim_q=d - dim_p,
        a=rho[:dim_p, :dim_p].copy(),
        b=rho[:dim_p, dim_p:].copy(),
        c=rho[dim_p:, dim_p:].copy(),
    )


def pinch(state: BlockState) -> np.ndarray:
    """Block-diagonal pinching A (+) C of the state."""
    return _block_diag(state.a, state.c)


def _xlogx_sum(w: np.ndarray) -> np.ndarray:
    """Tr[X log X] from the eigenvalues w of PSD X, cut at SUPPORT_TOL (1 + max|w|).

    ``w`` may carry leading stack axes; each member has its own cut.  A cut
    eigenvalue is replaced by 1, whose 1 log 1 is exactly 0.
    """
    cut = SUPPORT_TOL * (1.0 + np.max(np.abs(w), axis=-1, keepdims=True))
    pos = np.where(w > cut, w, 1.0)
    return np.sum(pos * np.log(pos), axis=-1)


def _spectral_entropy_terms(rho, w_rho, ws, vs) -> np.ndarray:
    """Tr[rho (log rho - log sigma)] from the eigenvalues ``w_rho`` of rho and the
    eigenpairs (ws, vs) of sigma, over any leading stack axes.

    +inf where the support of rho is not contained in the support of sigma
    (sigma-eigenvalue below SUPPORT_TOL carrying rho-mass above
    SUPPORT_MASS_TOL).
    """
    # Tr[rho log sigma] via the eigenbasis of sigma: masses_i = (V* rho V)_ii
    masses = np.real(np.sum(vs.conj() * (rho @ vs), axis=-2))
    null = ws <= SUPPORT_TOL
    cross = np.sum(masses * np.log(np.where(null, 1.0, ws)), axis=-1)
    outside = np.any(null & (masses > SUPPORT_MASS_TOL), axis=-1)
    return np.where(outside, np.inf, _xlogx_sum(w_rho) - cross)


def _entropy_terms(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr[rho (log rho - log sigma)] for PSD rho, sigma (not necessarily trace 1).

    Returns +inf when the support of rho is not contained in the support of
    sigma.
    """
    return float(
        _spectral_entropy_terms(rho, np.linalg.eigvalsh(rho), *np.linalg.eigh(sigma))
    )


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy D(rho || sigma) in nats.

    Returns +inf when support(rho) is not contained in support(sigma).
    """
    rho = validate_density(rho, "rho")
    sigma = validate_density(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise DomainError(
            f"dimension mismatch: {rho.shape[0]} vs {sigma.shape[0]}"
        )
    return _entropy_terms(rho, sigma)


def coherence_entropy(state: BlockState) -> float:
    """D(rho || pinch(rho)) = S(pinch(rho)) - S(rho), the relative entropy of coherence.

    log pinch(rho) = log A (+) log C is block diagonal, so Tr[rho log pinch(rho)]
    = Tr[A log A] + Tr[C log C].  The support of a PSD rho lies inside that of
    pinch(rho), so D is finite and needs no eigenvectors.
    """
    w_rho, wa, wc = (np.linalg.eigvalsh(h) for h in (state.to_matrix(), state.a, state.c))
    return float(_coherence_entropy(w_rho, wa, wc))


def _coherence_entropy(w_rho, wa, wc) -> np.ndarray:
    """S(pinch(rho)) - S(rho) from the eigenvalues of rho, A and C, over any
    leading stack axes."""
    return _xlogx_sum(w_rho) - (_xlogx_sum(wa) + _xlogx_sum(wc))


def pythagorean_residual(state: BlockState, sigma) -> float:
    """Residual D(rho||sigma) - D(rho||Pi rho) - D(Pi rho||sigma).

    ``sigma`` must be block-diagonal in the same P (+) Q split.  The residual
    vanishes identically; it is returned (rather than asserted) so callers can
    track numerical error.  NaN when any of the three entropies is infinite.
    """
    sigma = validate_density(sigma, "sigma")
    if sigma.shape[0] != state.dim:
        raise DomainError("sigma dimension does not match the state")
    off = sigma[: state.dim_p, state.dim_p :]
    if np.linalg.norm(off) > 1e-12:
        raise DomainError("sigma is not block-diagonal in the P (+) Q split")
    rho = state.to_matrix()
    dp = state.dim_p
    m_spectra = _join_spectra(*np.linalg.eigh(state.a), *np.linalg.eigh(state.c))
    s_spectra = _join_spectra(
        *np.linalg.eigh(sigma[:dp, :dp]), *np.linalg.eigh(sigma[dp:, dp:])
    )
    return float(
        _pythagorean(rho, np.linalg.eigvalsh(rho), pinch(state), m_spectra, s_spectra)
    )


def _pythagorean(rho, w_rho, m, m_spectra, s_spectra) -> np.ndarray:
    """D(rho||sigma) - D(rho||M) - D(M||sigma) over any leading stack axes, from
    the eigenvalues of rho and the eigenpairs of M = pinch(rho) and of sigma;
    NaN where any of the three is infinite."""
    d_rs = _spectral_entropy_terms(rho, w_rho, *s_spectra)
    d_rm = _spectral_entropy_terms(rho, w_rho, *m_spectra)
    d_ms = _spectral_entropy_terms(m, m_spectra[0], *s_spectra)
    finite = np.isfinite(d_rs) & np.isfinite(d_rm) & np.isfinite(d_ms)
    with np.errstate(invalid="ignore"):  # inf - inf, masked below
        return np.where(finite, d_rs - d_rm - d_ms, np.nan)


def _ginibre_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _floor_mix_weight(w: np.ndarray, level: float, a0: float) -> float:
    """Least t in [0, 1] with lambda_min((1-t) A + t level I) >= a0.

    ``w`` holds the ascending eigenvalues of A.  The mixed minimum
    (1-t) w[0] + t level is linear in t, so the crossing is exact.  The target
    sits one rounding bound above a0, so that lambda_min of the mixed matrix,
    as computed, clears a0 as well.  t = 1 when even ``level`` misses it.
    """
    floor = a0 + 4 * len(w) * np.finfo(float).eps * w[-1]
    if w[0] >= floor:
        return 0.0
    if level <= floor:
        return 1.0
    return (floor - w[0]) / (level - w[0])


def _max_psd_scale(wa, va, b, wc, vc) -> float:
    """Largest s with [[A, s B], [s B*, C]] PSD, from the spectra of A and C.

    By the Schur complement, s = 1/||A^{-1/2} B C^{-1/2}||_2.  A or C that is
    numerically singular raises instead of returning 0, inf or nan.
    """
    for name, w in (("A", wa), ("C", wc)):
        if w[0] <= SUPPORT_TOL * w[-1]:
            raise PositivityError(
                f"boundary ensemble needs {name} positive definite, "
                f"lambda_min = {w[0]:.3e}"
            )
    x = (va.conj().T @ b @ vc) / np.sqrt(np.outer(wa, wc))
    return 1.0 / float(np.linalg.svd(x, compute_uv=False)[0])


def random_block_state(
    dim_p: int,
    dim_q: int,
    seed: int,
    ensemble: str = "ginibre",
    a0: float | None = None,
    eps_q: float | None = None,
) -> BlockState:
    """Seeded random BlockState.

    ``ensemble="ginibre"`` draws G with iid standard complex Gaussian entries
    and returns G G*/Tr(G G*).  ``ensemble="boundary"`` additionally rescales
    the Q-block to trace ``eps_q``, mixes the P-block toward the identity
    until lambda_min(A) >= ``a0``, and then rescales B to the largest scale
    keeping the assembled state positive semidefinite.
    """
    if dim_p < 1 or dim_q < 1:
        raise DomainError("dimensions must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), dim_p, dim_q]))
    rho = _ginibre_density(rng, dim_p + dim_q)
    if ensemble == "ginibre":
        return block_decompose(rho, dim_p)
    if ensemble != "boundary":
        raise DomainError(f"unknown ensemble {ensemble!r}")
    if a0 is None or eps_q is None:
        raise DomainError("boundary ensemble requires a0 and eps_q")
    if a0 < 0 or eps_q <= 0 or dim_p * a0 + eps_q > 1.0:
        raise InfeasibleError(
            f"boundary ensemble needs dim_p*a0 + eps_q <= 1, "
            f"got {dim_p * a0 + eps_q}"
        )
    s = block_decompose(rho, dim_p)
    c = s.c * (eps_q / np.trace(s.c).real)
    trace_a = 1.0 - eps_q
    a_raw = s.a * (trace_a / np.trace(s.a).real)
    level = trace_a / dim_p
    w_raw, va = np.linalg.eigh(a_raw)
    t = _floor_mix_weight(w_raw, level, a0)
    a = (1 - t) * a_raw + t * level * np.eye(dim_p)
    wa = (1 - t) * w_raw + t * level  # the mix keeps the eigenvectors of a_raw
    b_raw = s.b
    if np.linalg.norm(b_raw) < 1e-14:
        b_raw = (
            rng.standard_normal((dim_p, dim_q))
            + 1j * rng.standard_normal((dim_p, dim_q))
        )
    b_unit = b_raw / np.linalg.norm(b_raw)
    wc, vc = np.linalg.eigh(c)
    scale = _max_psd_scale(wa, va, b_unit, wc, vc)
    return BlockState(dim_p=dim_p, dim_q=dim_q, a=a, b=scale * b_unit, c=c)


def two_level_pure(q: float) -> BlockState:
    """The pure state rho_q = [[1-q, sqrt(q(1-q))], [sqrt(q(1-q)), q]]."""
    if not 0.0 < q < 0.5:
        raise DomainError(f"q must be in (0, 0.5), got {q}")
    b = np.sqrt(q * (1.0 - q))
    return BlockState(
        dim_p=1,
        dim_q=1,
        a=np.array([[1.0 - q]], dtype=complex),
        b=np.array([[b]], dtype=complex),
        c=np.array([[q]], dtype=complex),
    )


def write_state_json(path, state: BlockState) -> None:
    """Serialize a BlockState to the JSON state-file format."""
    rho = state.to_matrix()
    matrix = [[[z.real, z.imag] for z in row] for row in rho]
    payload = {"dim_p": state.dim_p, "dim_q": state.dim_q, "matrix": matrix}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def read_state_json(path) -> BlockState:
    """Load a BlockState from a state file; a malformed file raises ValidationError."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"state file is not valid JSON: {exc}") from exc
    try:
        dim_p, dim_q = (_integer(payload[key], key) for key in ("dim_p", "dim_q"))
        rows = [[complex(re, im) for re, im in row] for row in payload["matrix"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    d = dim_p + dim_q
    if len(rows) != d or any(len(row) != d for row in rows):
        raise ValidationError(
            f"matrix must be {d}x{d} for dim_p={dim_p}, dim_q={dim_q}"
        )
    rho = validate_density(np.array(rows), "state file matrix")
    return _split(rho, dim_p)


def _integer(value, key: str) -> int:
    """A JSON integer, also when written as 2.0; bools, fractions and strings raise."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)
