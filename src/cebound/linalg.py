"""Hermitian matrix utilities: validation, block decomposition, pinching, the
relative entropy of coherence, and seeded random state generation.

All matrices are dense complex numpy arrays.  Entropies are in nats.
``_support`` is the one support model: eigenvalues at or below
``SUPPORT_TOL * (1 + max|w|)`` are zero, with ``0 log 0 = 0`` and ``sqrt 0 = 0``.
It decides kernels and the BKM form's support pairs; where A and C must be
positive definite, ``_BlockSpectra.check_positive`` decides it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InfeasibleError, PositivityError, ValidationError, _fail_first

HERM_TOL = 1e-12
POSITIVITY_FLOOR = 1e-12
PSD_TOL = 1e-12
TRACE_TOL = 1e-12
SUPPORT_TOL = 1e-12
SUPPORT_MASS_TOL = 1e-10
BLOCK_DIAG_TOL = 1e-12


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} has non-finite entries")


def validate_hermitian(h, name: str = "matrix") -> np.ndarray:
    """Check that ``h`` is square, finite, and self-adjoint within tolerance."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {h.shape}")
    _check_finite(h, name)
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
    try:  # succeeds exactly when lambda_min > -PSD_TOL, up to LAPACK's rounding
        np.linalg.cholesky(rho + PSD_TOL * np.eye(rho.shape[0]))
    except np.linalg.LinAlgError:
        lam = np.linalg.eigvalsh(rho)[0]
        raise ValidationError(
            f"{name} is not positive semidefinite: lambda_min = {lam:.3e}"
        ) from None
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"{name} has trace {tr!r}, expected 1")
    return rho


@dataclass(frozen=True)
class BlockState:
    """A density matrix with a designated P (+) Q split.

    ``a`` is the dim_p x dim_p leading block, ``c`` the dim_q x dim_q
    trailing block, and ``b`` the dim_p x dim_q coherence block.  Blocks with
    leading axes hold a stack of states (see ``_stack``).  Construction checks
    only the dims (DomainError) and the block shapes (ValidationError).
    """

    dim_p: int
    dim_q: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        p, q = self.dim_p, self.dim_q
        if min(p, q) < 1:
            raise DomainError(f"dim_p and dim_q must be >= 1, got ({p}, {q})")
        lead = np.shape(self.a)[:-2]
        for name, shape in (("A", (p, p)), ("B", (p, q)), ("C", (q, q))):
            got = np.shape(getattr(self, name.lower()))
            if got != lead + shape:
                raise ValidationError(f"block {name} has shape {got}, not {lead + shape}")

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
    """One BlockState whose blocks carry a leading axis over ``states``, or over
    their members in turn (member 0 of each, then member 1, ...) for stacks.

    The private helpers written over leading stack axes take such a stack
    and return one value per member; the public functions take one state.
    """
    first = states[0]
    a, b, c = (np.stack([getattr(s, k) for s in states], axis=-3) for k in "abc")
    a, b, c = (x.reshape((-1,) + x.shape[-2:]) for x in (a, b, c))
    return BlockState(dim_p=first.dim_p, dim_q=first.dim_q, a=a, b=b, c=c)


def _block_diag(x, z) -> np.ndarray:
    """x (+) z, over any leading stack axes."""
    p = x.shape[-1]
    out = np.zeros(x.shape[:-2] + (p + z.shape[-1],) * 2, dtype=complex)
    out[..., :p, :p] = x
    out[..., p:, p:] = z
    return out


class _BlockSpectra(NamedTuple):
    """Ascending eigenvalues and eigenvectors of the diagonal blocks A and C,
    with the leading stack axes of the blocks, if any."""

    wa: np.ndarray
    va: np.ndarray
    wc: np.ndarray
    vc: np.ndarray

    def joined(self):
        """Eigenpairs of M = A (+) C (eigenvalues not sorted)."""
        return np.concatenate([self.wa, self.wc], axis=-1), _block_diag(self.va, self.vc)

    def check_positive(self) -> None:
        """Raise unless A and C clear POSITIVITY_FLOOR, for every member of a
        stack; the error names the block and its lambda_min."""
        for name, w in (("A", self.wa), ("C", self.wc)):
            message = f"{name} must be positive definite, lambda_min = {{:.3e}}"
            _fail_first(w[..., 0] <= POSITIVITY_FLOOR, PositivityError, message, w[..., 0])


def _block_spectra(a, c) -> _BlockSpectra:
    """One eigh each of trusted A and C, over any leading stack axes."""
    return _BlockSpectra(*np.linalg.eigh(a), *np.linalg.eigh(c))


def _validated_blocks(a, c, b) -> tuple:
    """A, C and B as complex arrays, A and C validated Hermitian, B finite and
    d_A x d_C: the one check of the blocks in every public function of a state
    or of (A, C, B), made before any LAPACK call."""
    a, c = validate_hermitian(a, "A"), validate_hermitian(c, "C")
    b = np.asarray(b, dtype=complex)
    if b.shape != (len(a), len(c)):
        raise ValidationError(f"B must have shape {(len(a), len(c))}, got {b.shape}")
    _check_finite(b, "B")
    return a, c, b


def _validated_spectra(a, c, b) -> tuple:
    """The block spectra of A and C from ``_validated_blocks``, and B."""
    a, c, b = _validated_blocks(a, c, b)
    return _block_spectra(a, c), b


def block_decompose(rho, dim_p: int) -> BlockState:
    """Split a density matrix into its A, B, C blocks for a leading P of size dim_p."""
    return _split(validate_density(rho), dim_p)


def _split(rho: np.ndarray, dim_p: int) -> BlockState:
    """The A, B, C blocks of a density matrix known to be valid, over any
    leading stack axes."""
    d = rho.shape[-1]
    return BlockState(
        dim_p=dim_p,
        dim_q=d - dim_p,
        a=rho[..., :dim_p, :dim_p].copy(),
        b=rho[..., :dim_p, dim_p:].copy(),
        c=rho[..., dim_p:, dim_p:].copy(),
    )


def pinch(state: BlockState) -> np.ndarray:
    """Block-diagonal pinching A (+) C of the state."""
    return _block_diag(state.a, state.c)


def _support(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues w of a PSD matrix lie in its support: w > SUPPORT_TOL
    (1 + max|w|), each member of a stack (leading axes of ``w``) with its own cut.

    Every spectral function that meets log 0 or sqrt 0 decides the kernel here.
    """
    return w > SUPPORT_TOL * (1.0 + np.max(np.abs(w), axis=-1, keepdims=True))


def _masses(x, v) -> np.ndarray:
    """diag(V* X V), the weights of Hermitian X on the columns of V, over any
    leading stack axes."""
    return np.real(np.sum(v.conj() * (x @ v), axis=-2))


def _trace_log(x, w, v) -> np.ndarray:
    """Tr[X log S] from the eigenpairs (w, v) of PSD S, over any leading stack axes.

    The trace runs over the support of S.  Mass of X on ker S, counting only
    weights above SUPPORT_MASS_TOL, meets log 0: the trace is -inf where that
    mass is positive (X PSD) and +inf where it is negative.
    """
    masses = _masses(x, v)
    kept = _support(w)
    finite = np.sum(masses * np.log(np.where(kept, w, 1.0)), axis=-1)
    heavy = ~kept & (np.abs(masses) > SUPPORT_MASS_TOL)
    kernel_mass = np.sum(np.where(heavy, masses, 0.0), axis=-1)
    return np.where(kernel_mass == 0.0, finite, np.copysign(np.inf, -kernel_mass))


def _xlogx_sum(w: np.ndarray) -> np.ndarray:
    """Tr[X log X] from the eigenvalues w of PSD X, over its support, over any
    leading stack axes.  A cut eigenvalue is replaced by 1, whose 1 log 1 is
    exactly 0."""
    pos = np.where(_support(w), w, 1.0)
    return np.sum(pos * np.log(pos), axis=-1)


def _spectral_entropy_terms(rho, w_rho, ws, vs) -> np.ndarray:
    """Tr[rho (log rho - log sigma)] from the eigenvalues ``w_rho`` of rho and the
    eigenpairs (ws, vs) of sigma, over any leading stack axes; +inf where rho
    has mass on ker sigma."""
    return _xlogx_sum(w_rho) - _trace_log(rho, ws, vs)


def coherence_entropy(state: BlockState) -> float:
    """D(rho || pinch(rho)) = S(pinch(rho)) - S(rho), the relative entropy of coherence.

    log pinch(rho) = log A (+) log C is block diagonal, so Tr[rho log pinch(rho)]
    = Tr[A log A] + Tr[C log C].  The support of a PSD rho lies inside that of
    pinch(rho), so D is finite.  The eigenvalues of A and C come from the block
    spectra, so D is bound_report(state).entropy bit for bit.
    """
    sp = _validated_spectra(state.a, state.c, state.b)[0]
    return float(_coherence_entropy(np.linalg.eigvalsh(state.to_matrix()), sp.wa, sp.wc))


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
    sp = _validated_spectra(state.a, state.c, state.b)[0]
    sigma = validate_density(sigma, "sigma")
    if sigma.shape[0] != state.dim:
        raise DomainError("sigma dimension does not match the state")
    off = sigma[: state.dim_p, state.dim_p :]
    if np.linalg.norm(off) > BLOCK_DIAG_TOL:
        raise DomainError("sigma is not block-diagonal in the P (+) Q split")
    rho = state.to_matrix()
    dp = state.dim_p
    s_spectra = _block_spectra(sigma[:dp, :dp], sigma[dp:, dp:]).joined()
    return float(
        _pythagorean(rho, np.linalg.eigvalsh(rho), pinch(state), sp.joined(), s_spectra)
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


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """iid standard complex Gaussian entries: the real parts, then the imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ginibre_draw(dim_p: int, dim_q: int, seed: int) -> np.ndarray:
    """random_block_state's Gaussian draw G for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), dim_p, dim_q]))
    return _gaussian(rng, (dim_p + dim_q,) * 2)


def _ginibre_density(g: np.ndarray) -> np.ndarray:
    """G G*/Tr(G G*) over any leading stack axes: Hermitian, positive
    semidefinite and of unit trace by construction, so it is not validated."""
    rho = g @ _adjoint(g)
    return rho / _trace(rho)


def _trace(x: np.ndarray) -> np.ndarray:
    """Re Tr X over any leading stack axes, shaped to broadcast against X."""
    return np.trace(x, axis1=-2, axis2=-1).real[..., None, None]


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||X||_F over any leading stack axes, each member bit-identical to
    np.linalg.norm's: a dot product of the real parts plus one of the imaginary."""
    flat = x.reshape(x.shape[:-2] + (1, -1))
    return np.sqrt(sum(p @ _adjoint(p) for p in (flat.real, flat.imag))[..., 0, 0])


def _floor_mix_weight(w: np.ndarray, level: float, a0: float) -> np.ndarray:
    """Least t in [0, 1] with lambda_min((1-t) A + t level I) >= a0, over any
    leading stack axes.

    ``w`` holds the ascending eigenvalues of A.  The mixed minimum
    (1-t) w[0] + t level is linear in t, so the crossing is exact.  The target
    sits one rounding bound above a0, so that lambda_min of the mixed matrix,
    as computed, clears a0 as well.  t = 1 when even ``level`` misses it.
    """
    floor = a0 + 4 * w.shape[-1] * np.finfo(float).eps * w[..., -1]
    w0 = w[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):  # level = w0 only where unused
        crossing = (floor - w0) / (level - w0)
    return np.where(w0 >= floor, 0.0, np.where(level <= floor, 1.0, crossing))


def _max_psd_scale(sp: _BlockSpectra, b) -> np.ndarray:
    """Largest s with [[A, s B], [s B*, C]] PSD, from the spectra of A and C,
    over any leading stack axes.

    By the Schur complement, s = 1/||A^{-1/2} B C^{-1/2}||_2.  A or C that
    fails the positivity gate raises instead of returning 0, inf or nan.
    """
    sp.check_positive()
    x = (_adjoint(sp.va) @ b @ sp.vc) / np.sqrt(sp.wa[..., :, None] * sp.wc[..., None, :])
    return 1.0 / np.linalg.svd(x, compute_uv=False)[..., 0]


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
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    state = _split(_ginibre_density(_ginibre_draw(dim_p, dim_q, seed)), dim_p)
    if ensemble == "ginibre":
        return state
    if ensemble != "boundary":
        raise DomainError(f"unknown ensemble {ensemble!r}")
    if a0 is None or eps_q is None:
        raise DomainError("boundary ensemble requires a0 and eps_q")
    if a0 < 0 or eps_q <= 0 or dim_p * a0 + eps_q > 1.0:
        raise InfeasibleError(
            f"boundary ensemble needs dim_p*a0 + eps_q <= 1, "
            f"got {dim_p * a0 + eps_q}"
        )
    s = _boundary_state(_stack([state]), a0, eps_q)
    return BlockState(dim_p, dim_q, s.a[0], s.b[0], s.c[0])


def _boundary_state(s: BlockState, a0: float, eps_q: float) -> BlockState:
    """The boundary-ensemble states of ``random_block_state`` derived from the
    stack of ginibre states ``s``, from one eigh each of the stacked A and C and
    one stacked SVD.  B is the ginibre B scaled; a Gaussian G gives B = 0 with
    probability zero."""
    dim_p, dim_q = s.dim_p, s.dim_q
    c = s.c * (eps_q / _trace(s.c))
    trace_a = 1.0 - eps_q
    a_raw = s.a * (trace_a / _trace(s.a))
    level = trace_a / dim_p
    w_raw, va = np.linalg.eigh(a_raw)
    t = _floor_mix_weight(w_raw, level, a0)
    a = (1 - t[..., None, None]) * a_raw + t[..., None, None] * level * np.eye(dim_p)
    wa = (1 - t[..., None]) * w_raw + t[..., None] * level  # same eigenvectors va
    b_unit = s.b / _frobenius(s.b)[..., None, None]
    scale = _max_psd_scale(_BlockSpectra(wa, va, *np.linalg.eigh(c)), b_unit)[..., None, None]
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


def state_payload(state: BlockState) -> dict:
    """The JSON state-file object: dims and the matrix as [re, im] pairs."""
    m = state.to_matrix()
    matrix = np.stack([m.real, m.imag], axis=-1).tolist()
    return {"dim_p": state.dim_p, "dim_q": state.dim_q, "matrix": matrix}


def write_state_json(path, state: BlockState) -> None:
    """Write a BlockState as compact JSON in one ``orjson`` pass (shortest round-trip
    floats, read back bit for bit).  A non-finite entry raises ValidationError, writing no file."""
    import orjson  # imported here, as in read_state_json

    m = np.ascontiguousarray(state.to_matrix(), dtype=complex)
    _check_finite(m, "state matrix")
    payload = {"dim_p": state.dim_p, "dim_q": state.dim_q, "matrix": m[..., None].view(float)}
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY))


def read_state_json(path) -> BlockState:
    """Load a BlockState from a state file; a malformed file raises ValidationError."""
    import orjson  # imported here: verify reads no state file and starts numpy-only

    with open(path, "rb") as fh:
        text = fh.read()
    gc_was_enabled = gc.isenabled()
    gc.disable()  # the parser's lists hold no cycle: del frees them, a GC pass frees nothing
    try:
        payload = orjson.loads(text)
        dim_p, dim_q = (_integer(payload[key], key) for key in ("dim_p", "dim_q"))
        pairs = np.array(payload["matrix"])
        del payload
    except orjson.JSONDecodeError as exc:
        raise ValidationError(f"state file is not valid JSON: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    d = dim_p + dim_q
    if pairs.shape != (d, d, 2) or pairs.dtype.kind not in "biuf":
        raise ValidationError(
            f"matrix must be {d}x{d} [re, im] number pairs for dim_p={dim_p}, dim_q={dim_q}"
        )
    # a view keeps each imaginary -0.0, which re + 1j*im would turn into +0.0
    rho = np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    return _split(validate_density(rho, "state file matrix"), dim_p)


def _integer(value, key: str) -> int:
    """A JSON integer, also when written as 2.0; bools, fractions and strings raise."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)
