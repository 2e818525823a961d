"""Variational reduction pipeline: SVD pinching channel, polygon phase
construction, floor-aware merging channel, and the explicit two-level
optimizer for the constrained entropy minimization.

The pipeline lower-bounds D(rho || pinch(rho)) in three monotone steps:
SVD pinching (data processing) -> sum of scalar Phi terms -> a single merged
Phi(A, E, X) -> the optimizer value Phi(a_star, eps, c).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NumericError, SamplingError
from .linalg import BlockState, _entropy_terms, _floor_mix_weight, coherence_entropy
from .twolevel import TwoLevelParams, phi

COMPLETENESS_TOL = 1e-12
SV_CUTOFF = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by a finite Kraus family."""

    dim_in: int
    dim_out: int
    kraus: tuple

    def completeness_defect(self) -> float:
        """Frobenius norm of sum_k K* K - I."""
        acc = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for k in self.kraus:
            acc += k.conj().T @ k
        return float(np.linalg.norm(acc - np.eye(self.dim_in)))

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus:
            out += k @ x @ k.conj().T
        return out


def _checked_channel(dim_in: int, dim_out: int, kraus: list) -> KrausChannel:
    ch = KrausChannel(dim_in=dim_in, dim_out=dim_out, kraus=tuple(kraus))
    defect = ch.completeness_defect()
    if defect > COMPLETENESS_TOL:
        raise NumericError(f"Kraus completeness defect {defect:.3e} too large")
    return ch


@dataclass(frozen=True)
class PinchedData:
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
    return _svd_pinch(state, *np.linalg.svd(state.b))


def _svd_pinch(state: BlockState, u, svals, vh) -> PinchedData:
    """``svd_pinch`` from the full SVD B = u diag(svals) vh."""
    dp, d = state.dim_p, state.dim
    keep = svals > SV_CUTOFF
    k = int(np.sum(keep))
    kraus = []
    channels = []
    for j in range(k):
        uj = u[:, j]
        vj = vh[j].conj()
        op = np.zeros((d, d), dtype=complex)
        op[:dp, :dp] = np.outer(uj, uj.conj())
        op[dp:, dp:] = np.outer(vj, vj.conj())
        kraus.append(op)
        a_pin = float(np.real(uj.conj() @ state.a @ uj))
        c_pin = float(np.real(vj.conj() @ state.c @ vj))
        channels.append((a_pin, c_pin, float(svals[j])))
    # kernel sectors: complements of the retained singular vectors
    u_perp = u[:, k:]
    v_perp = vh[k:].conj().T
    r_p = np.zeros((d, d), dtype=complex)
    r_p[:dp, :dp] = u_perp @ u_perp.conj().T
    r_q = np.zeros((d, d), dtype=complex)
    r_q[dp:, dp:] = v_perp @ v_perp.conj().T
    kraus.extend([r_p, r_q])
    channel = _checked_channel(d, d, kraus)
    kernel_a, kernel_c = (
        np.linalg.eigvalsh(perp.conj().T @ x @ perp) if perp.shape[1] else np.zeros(0)
        for x, perp in ((state.a, u_perp), (state.c, v_perp))
    )
    return PinchedData(
        channels=tuple(channels),
        kernel_a=kernel_a,
        kernel_c=kernel_c,
        channel=channel,
    )


POLYGON_TOL = 1e-10


def polygon_phases(lengths, target: float) -> np.ndarray:
    """Phases theta_j with | sum_j e^{i theta_j} l_j | = target.

    The achievable moduli form the interval [max(0, 2 max(l) - sum(l)), sum(l)];
    targets outside it raise.  Construction: repeatedly merge the two smallest
    lengths into a virtual vector whose length is chosen to keep the target
    achievable, solve the two-vector case by the law of cosines, and unwind.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or len(lengths) == 0:
        raise DomainError("lengths must be a nonempty vector")
    if np.any(lengths < 0.0):
        raise DomainError("lengths must be nonnegative")
    total = float(np.sum(lengths))
    lmax = float(np.max(lengths))
    floor = max(0.0, 2.0 * lmax - total)
    if target < floor - 1e-12 or target > total + 1e-12:
        raise DomainError(
            f"target {target} outside achievable interval [{floor}, {total}]"
        )
    target = min(max(target, floor), total)
    angles = _phase_solve([float(v) for v in lengths], target)
    achieved = abs(sum(l * cmath.exp(1j * t) for l, t in zip(lengths, angles)))
    if abs(achieved - target) > POLYGON_TOL:
        raise NumericError(
            f"polygon construction missed target: |{achieved} - {target}|"
        )
    return np.asarray(angles)


def _two_vector_angle(p: float, q: float, r: float) -> float:
    """Relative angle gamma with |p + q e^{i gamma}| = r.

    Half-angle branches keep the angle well-conditioned at both endpoints
    (gamma near 0 when r ~ p+q, gamma near pi when r ~ |p-q|), where the
    plain law-of-cosines acos loses ~sqrt(eps) accuracy.
    """
    if p == 0.0 or q == 0.0:
        return 0.0
    cos_half_sq = max((r * r - (p - q) ** 2) / (4.0 * p * q), 0.0)
    sin_half_sq = max(((p + q) ** 2 - r * r) / (4.0 * p * q), 0.0)
    if cos_half_sq <= sin_half_sq:
        return 2.0 * math.acos(min(1.0, math.sqrt(cos_half_sq)))
    return 2.0 * math.asin(min(1.0, math.sqrt(sin_half_sq)))


def _phase_solve(lengths: list, target: float) -> list:
    n = len(lengths)
    if n == 1:
        return [0.0]
    if n == 2:
        gamma = _two_vector_angle(lengths[0], lengths[1], target)
        return [0.0, gamma]
    order = sorted(range(n), key=lambda i: lengths[i])
    i, j = order[0], order[1]
    p, q = lengths[i], lengths[j]
    rest_idx = [m for m in range(n) if m not in (i, j)]
    rest = [lengths[m] for m in rest_idx]
    l_rest = sum(rest)
    m_rest = max(rest)
    lo = max(q - p, target - l_rest, 2.0 * m_rest - l_rest - target, 0.0)
    hi = min(p + q, target + l_rest)
    if lo > hi:
        # closed under the feasibility analysis; tolerate roundoff ties
        if lo > hi + 1e-12:
            raise NumericError("polygon merge interval collapsed")
        hi = lo
    r = 0.5 * (lo + hi)
    sub = _phase_solve(rest + [r], target)
    psi = sub[-1]
    gamma = _two_vector_angle(p, q, r)
    w = p + q * cmath.exp(1j * gamma)
    delta = cmath.phase(w) if abs(w) > 0.0 else 0.0
    angles = [0.0] * n
    for pos, m in enumerate(rest_idx):
        angles[m] = sub[pos]
    angles[i] = psi - delta
    angles[j] = psi - delta + gamma
    return angles


@dataclass(frozen=True)
class MergeSpec:
    """Inputs of the floor-aware merge: scalar blocks (a_j, eps_j, x_j),
    remainder leakage eps_rem, and the common floor a0."""

    blocks: tuple  # of (a, eps, x)
    eps_rem: float
    a0: float

    def validate(self) -> None:
        if self.a0 <= 0.0 or self.eps_rem < 0.0 or not self.blocks:
            raise DomainError("merge spec needs a0 > 0, eps_rem >= 0, blocks nonempty")
        for a, eps, x in self.blocks:
            if a < self.a0 - 1e-10:
                raise DomainError(f"block diagonal {a} below the floor {self.a0}")
            if eps < 0.0 or x < 0.0 or x > a * eps + 1e-14:
                raise DomainError(f"block ({a}, {eps}, {x}) violates 0 <= x <= a*eps")
        a_m, e_m, x_m = self.merged()
        if x_m > a_m * e_m + 1e-12:
            raise DomainError("total coherence X exceeds A*E")

    def merged(self) -> TwoLevelParams:
        a_m = self.a0 + sum(a - self.a0 for a, _, _ in self.blocks)
        e_m = self.eps_rem + sum(eps for _, eps, _ in self.blocks)
        x_m = sum(x for _, _, x in self.blocks)
        return TwoLevelParams(a=a_m, eps=e_m, x=x_m)


@dataclass(frozen=True)
class MergeResult:
    channel: KrausChannel
    merged: TwoLevelParams
    left_entropy: float
    right_entropy: float


def _merge_radii(avals: list, xvals: list, a_target: float, x_total: float) -> list:
    """Step 1: r_j = (1-t) b_j + t with b_j = sqrt(x_j/X) and sum a_j r_j^2 = A.

    The constraint is p t^2 + 2 q t + r = 0 with p = sum a_j (1-b_j)^2,
    q = sum a_j b_j (1-b_j) >= 0 and r = sum a_j b_j^2 - A <= 0, whose root in
    [0, 1] is t = -r/(q + sqrt(q^2 - p r)).  The denominator vanishes only
    when every t gives the same radii (one block with x > 0); then t = 0.
    """
    base = [math.sqrt(x / x_total) if x_total > 0.0 else 0.0 for x in xvals]
    p = sum(a * (1 - b) ** 2 for a, b in zip(avals, base))
    q = sum(a * b * (1 - b) for a, b in zip(avals, base))
    r = sum(a * b * b for a, b in zip(avals, base)) - a_target
    denom = q + math.sqrt(max(q * q - p * r, 0.0))
    t = -r / denom if denom > 0.0 else 0.0
    return [(1 - t) * b + t for b in base]


def merge_channel(spec: MergeSpec) -> MergeResult:
    """Floor-aware merging CPTP channel collapsing many coherent 2x2 blocks
    into one with parameters (A, E, X), without increasing relative entropy.

    Input layout: block j occupies coordinates (2j, 2j+1) = (p_j, q_j), the
    remainder coordinate q_rem is last.  Output layout: p = 0, q = 1,
    spectators s_j = 2 + j.
    """
    spec.validate()
    blocks = spec.blocks
    k = len(blocks)
    a_m, e_m, x_m = spec.merged()
    avals = [a for a, _, _ in blocks]
    xvals = [x for _, _, x in blocks]

    radii = _merge_radii(avals, xvals, a_m, x_m)
    check = sum(a * r * r for a, r in zip(avals, radii))
    if abs(check - a_m) > 1e-12 * (1.0 + a_m):
        raise NumericError(f"merge radii missed A: {check} vs {a_m}")

    if x_m > 0.0:
        ell = [r * math.sqrt(x) for r, x in zip(radii, xvals)]
        thetas = polygon_phases(ell, math.sqrt(x_m))
        z = sum(l * cmath.exp(1j * t) for l, t in zip(ell, thetas))
        shift = cmath.phase(z)
        alphas = [r * cmath.exp(1j * (t - shift)) for r, t in zip(radii, thetas)]
    else:
        alphas = [complex(r) for r in radii]

    dim_in = 2 * k + 1
    dim_out = 2 + k
    kraus = []
    for j, alpha in enumerate(alphas):
        k_a = np.zeros((dim_out, dim_in), dtype=complex)
        k_a[0, 2 * j] = alpha
        k_a[1, 2 * j + 1] = 1.0
        kraus.append(k_a)
        k_s = np.zeros((dim_out, dim_in), dtype=complex)
        k_s[2 + j, 2 * j] = math.sqrt(max(0.0, 1.0 - abs(alpha) ** 2))
        kraus.append(k_s)
    k_rem = np.zeros((dim_out, dim_in), dtype=complex)
    k_rem[1, 2 * k] = 1.0
    kraus.append(k_rem)
    channel = _checked_channel(dim_in, dim_out, kraus)

    # step 5: the output active block must be ((A, sqrt(X)), (sqrt(X), E))
    m_in = np.zeros((dim_in, dim_in), dtype=complex)
    for j, (a, eps, x) in enumerate(blocks):
        m_in[2 * j, 2 * j] = a
        m_in[2 * j + 1, 2 * j + 1] = eps
        m_in[2 * j, 2 * j + 1] = math.sqrt(x)
        m_in[2 * j + 1, 2 * j] = math.sqrt(x)
    m_in[2 * k, 2 * k] = spec.eps_rem
    d_in = np.diag(np.diag(m_in))
    m_out = channel.apply(m_in)
    active = np.array([[a_m, math.sqrt(x_m)], [math.sqrt(x_m), e_m]])
    if np.max(np.abs(m_out[:2, :2] - active)) > 1e-10:
        raise NumericError("merged active block does not match (A, sqrt(X); sqrt(X), E)")
    d_out = channel.apply(d_in)
    out_entropy = _entropy_terms(m_out, d_out)
    right = phi(a_m, e_m, x_m)
    if abs(out_entropy - right) > 1e-10 * (1.0 + abs(right)):
        raise NumericError("merged channel output entropy does not equal Phi(A, E, X)")

    left = sum(phi(a, eps, x) for a, eps, x in blocks)
    return MergeResult(
        channel=channel,
        merged=TwoLevelParams(a=a_m, eps=e_m, x=x_m),
        left_entropy=left,
        right_entropy=right,
    )


@dataclass(frozen=True)
class OptimizerResult:
    state: BlockState
    value: float
    a_star: float


def _optimizer_hypotheses(a0: float, eps: float, c: float, d_p: int, d_q: int) -> float:
    if d_p < 1 or d_q < 1:
        raise InfeasibleError("dimensions must be >= 1")
    if a0 <= 0.0 or eps < 0.0 or c < 0.0:
        raise InfeasibleError("need a0 > 0, eps >= 0, c >= 0")
    if 1.0 - eps < d_p * a0 - 1e-14:
        raise InfeasibleError(
            f"floor infeasible: 1 - eps = {1.0 - eps} < d_p*a0 = {d_p * a0}"
        )
    a_star = 1.0 - eps - (d_p - 1) * a0
    if c > a_star * eps + 1e-14:
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
    a_star = _optimizer_hypotheses(a0, eps, c, d_p, d_q)
    state = equality_state(a0, eps, c, d_p, d_q, phase=0.0)
    return OptimizerResult(state=state, value=phi(a_star, eps, c), a_star=a_star)


def sample_feasible(
    a0: float,
    eps: float,
    c: float,
    d_p: int,
    d_q: int,
    rng: np.random.Generator,
    max_attempts: int = 10_000,
) -> BlockState:
    """Random state with lambda_min(A) >= a0, Tr C = eps, ||B||_F^2 = c.

    Ginibre blocks, with A convex-mixed toward the scaled identity until the
    floor holds and B rescaled to hit c exactly; draws failing assembled
    positivity are rejected.
    """
    target_a = 1.0 - eps
    for _ in range(max_attempts):
        g = rng.standard_normal((d_p, d_p)) + 1j * rng.standard_normal((d_p, d_p))
        a_raw = g @ g.conj().T
        a_raw *= target_a / np.trace(a_raw).real
        level = target_a / d_p
        w = np.linalg.eigvalsh(a_raw)
        if w[0] >= a0:
            t_mix = rng.uniform(0.0, 1.0)
            if (1 - t_mix) * w[0] + t_mix * level < a0:
                t_mix = 1.0
        else:
            t_mix = _floor_mix_weight(w, level, a0)
        a = (1 - t_mix) * a_raw + t_mix * level * np.eye(d_p)

        if eps > 0.0:
            g = rng.standard_normal((d_q, d_q)) + 1j * rng.standard_normal((d_q, d_q))
            c_blk = g @ g.conj().T
            c_blk *= eps / np.trace(c_blk).real
        else:
            c_blk = np.zeros((d_q, d_q), dtype=complex)

        if c > 0.0:
            b = rng.standard_normal((d_p, d_q)) + 1j * rng.standard_normal((d_p, d_q))
            b *= math.sqrt(c) / np.linalg.norm(b)
        else:
            b = np.zeros((d_p, d_q), dtype=complex)

        state = BlockState(dim_p=d_p, dim_q=d_q, a=a, b=b, c=c_blk)
        if np.linalg.eigvalsh(state.to_matrix())[0] >= -1e-12:
            return state
    raise SamplingError(
        f"no feasible state found in {max_attempts} attempts "
        f"(a0={a0}, eps={eps}, c={c}, dims=({d_p},{d_q}))"
    )


@dataclass(frozen=True)
class VariationalResult:
    min_found: float
    bound: float
    gap: float


def variational_check(
    a0: float,
    eps: float,
    c: float,
    d_p: int,
    d_q: int,
    trials: int,
    seed: int,
) -> VariationalResult:
    """Sample feasible states and verify min D(rho||Pi rho) >= Phi(a_star, eps, c)."""
    opt = optimizer(a0, eps, c, d_p, d_q)
    min_found = coherence_entropy(opt.state)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), d_p, d_q]))
    for _ in range(trials):
        state = sample_feasible(a0, eps, c, d_p, d_q, rng)
        min_found = min(min_found, coherence_entropy(state))
    return VariationalResult(
        min_found=min_found, bound=opt.value, gap=min_found - opt.value
    )


def pipeline_values(state: BlockState, a0: float) -> tuple:
    """(entropy, pinched Phi-sum, merged Phi) along the reduction pipeline.

    ``a0`` is the floor the state is known to satisfy; the merge uses the full
    P-basis completion, so spectator directions of A enter with eps = x = 0.
    """
    pinched_sum, merged = _pinched_and_merged(state, a0, np.linalg.svd(state.b))
    return coherence_entropy(state), pinched_sum, merged


def _pinched_and_merged(state: BlockState, a0: float, svd) -> tuple:
    """(pinched Phi-sum, merged Phi) of ``pipeline_values``, from the full SVD of B."""
    pinched = _svd_pinch(state, *svd)
    block_list = [(a, c, s * s) for a, c, s in pinched.channels]
    block_list.extend((float(a), 0.0, 0.0) for a in pinched.kernel_a)
    eps_rem = float(np.sum(pinched.kernel_c)) if len(pinched.kernel_c) else 0.0
    spec = MergeSpec(blocks=tuple(block_list), eps_rem=eps_rem, a0=a0)
    return pinched.entropy(), merge_channel(spec).right_entropy


def modulus_curve(a_star: float, tau: float, eps_grid) -> list:
    """Rows (eps_q, Phi(a_star, eps_q, tau a_star eps_q), Phi per unit coherence).

    The coherence c = tau a_star eps_q must be positive, so a_star and every
    eps_q must be: at c = 0 the per-coherence column would be 0/0.
    """
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"tau must lie in (0, 1], got {tau}")
    if not a_star > 0.0:
        raise DomainError(f"a_star must be positive, got {a_star}")
    rows = []
    for eps_q in eps_grid:
        eps_q = float(eps_q)
        c = tau * a_star * eps_q
        if not (eps_q > 0.0 and c > 0.0):
            raise DomainError(
                f"eps_q must be positive with tau*a_star*eps_q > 0, got eps_q = {eps_q}"
            )
        val = phi(a_star, eps_q, c)
        rows.append((eps_q, val, val / c))
    return rows
