"""Independent reference implementations that the tests compare the package against.

No CLI command and no package function calls these: each is a second,
slower route to a quantity the package computes one way, kept here so the
tests can cross-check that way.

- ``bkm_quadrature``: ``Tr[B* Omega^{-1}(B)]`` by quadrature of the resolvent
  integral, against the spectral ``bkm_form``.
- ``regularized_bkm_form``: the BKM form of ``(1 - delta) rho + delta I/d`` in
  ``mpmath``, whose ``delta -> 0`` limit the form over the supports of singular
  ``A`` and ``C`` must be.
- ``entropy_terms`` and ``relative_entropy``: ``Tr[rho (log rho - log sigma)]``
  for any PSD pair, and the general Umegaki ``D(rho || sigma)``.
- ``sample_feasible`` and ``variational_check``: rejection sampling of states
  with a given floor, leakage and coherence, and the variational check that no
  sampled state beats the optimizer.
- ``phi_chain_check``: the chain ``Phi >= x L(a, eps) >= x log(a/eps)``.
- ``fd_rate``: a finite-difference entropy production rate, against the
  analytic trace formula.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cebound import variational
from cebound.bkm import log_mean_kernel
from cebound.dephasing import OrbitConfig, _orbit_terms
from cebound.errors import DomainError, NumericError
from cebound.linalg import PSD_TOL, BlockState, _block_spectra, _spectral_entropy_terms
from cebound.linalg import _floor_mix_weight, _gaussian, _validated_blocks
from cebound.linalg import coherence_entropy, validate_density
from cebound.twolevel import _check_domain, phi
from cebound.variational import optimizer

MAX_ATTEMPTS = 10_000  # rejection-sampling draws of sample_feasible
CHAIN_TOL = 1e-12


def bkm_quadrature(a, c, b, tol: float = 1e-10) -> float:
    """Quadrature oracle for Tr[B* Omega^{-1}(B)].

    Substitutes r = t/(1-t) and applies composite 16-point Gauss-Legendre on
    a dyadically refined partition of (0, 1) until two successive refinement
    levels agree to ``tol`` relative.
    """
    a, c, b = _validated_blocks(a, c, b)
    _block_spectra(a, c).check_positive()
    dp, dq = b.shape
    eye_p = np.eye(dp)
    eye_q = np.eye(dq)
    nodes, weights = np.polynomial.legendre.leggauss(16)

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
            for node, weight in zip(nodes, weights):
                total += weight * half * integrand(mid + half * node)
        return total

    prev = composite(1)
    for level in range(1, 25):
        cur = composite(2**level)
        if abs(cur - prev) < tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise NumericError("bkm_quadrature did not converge in 24 refinement levels")


def regularized_bkm_form(a, c, b, delta):
    """The BKM form of (1 - delta) rho + delta I/d, d = d_A + d_C, for ``mpmath``
    matrices A, C and B, at the working precision.

    (1 - delta) A + (delta/d) I keeps the eigenvectors of A, so its spectrum is
    (1 - delta) w + delta/d; likewise for C, and B becomes (1 - delta) B.  Every
    eigenvalue is then at least delta/d - |w_min|, positive for a state's blocks.
    """
    from mpmath import mp

    d = a.rows + c.rows
    (wa, va), (wc, vc) = mp.eighe(a), mp.eighe(c)
    bt = va.H * b * vc
    total = mp.mpf(0)
    for i in range(a.rows):
        x = (1 - delta) * wa[i] + delta / d
        for j in range(c.rows):
            y = (1 - delta) * wc[j] + delta / d
            kernel = 1 / x if x == y else mp.log(x / y) / (x - y)
            total += (1 - delta) ** 2 * abs(bt[i, j]) ** 2 * kernel
    return total


def entropy_terms(rho, sigma) -> float:
    """Tr[rho (log rho - log sigma)] for PSD rho, sigma (not necessarily trace 1),
    from one eigvalsh of rho and one eigh of sigma; +inf when the support of
    rho is not contained in the support of sigma."""
    return float(_spectral_entropy_terms(rho, np.linalg.eigvalsh(rho), *np.linalg.eigh(sigma)))


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
    return entropy_terms(rho, sigma)


def sample_feasible(
    a0: float, eps: float, c: float, d_p: int, d_q: int, rng: np.random.Generator
) -> BlockState:
    """Random state with lambda_min(A) >= a0, Tr C = eps, ||B||_F^2 = c.

    Ginibre blocks, with A convex-mixed toward the scaled identity until the
    floor holds and B rescaled to hit c exactly; draws failing assembled
    positivity are rejected, up to MAX_ATTEMPTS draws.  Parameters that no
    state meets raise InfeasibleError before the first draw.
    """
    variational._optimizer_hypotheses(a0, eps, c, d_p, d_q)
    target_a = 1.0 - eps
    for _ in range(MAX_ATTEMPTS):
        g = _gaussian(rng, (d_p, d_p))
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
            g = _gaussian(rng, (d_q, d_q))
            c_blk = g @ g.conj().T
            c_blk *= eps / np.trace(c_blk).real
        else:
            c_blk = np.zeros((d_q, d_q), dtype=complex)

        if c > 0.0:
            b = _gaussian(rng, (d_p, d_q))
            b *= math.sqrt(c) / np.linalg.norm(b)
        else:
            b = np.zeros((d_p, d_q), dtype=complex)

        state = BlockState(dim_p=d_p, dim_q=d_q, a=a, b=b, c=c_blk)
        if np.linalg.eigvalsh(state.to_matrix())[0] >= -PSD_TOL:
            return state
    raise AssertionError(
        f"no feasible state found in {MAX_ATTEMPTS} attempts "
        f"(a0={a0}, eps={eps}, c={c}, dims=({d_p},{d_q}))"
    )


class VariationalResult(NamedTuple):
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


class ChainCheck(NamedTuple):
    phi: float
    x_kernel: float
    x_log: float
    ok: bool


def phi_chain_check(a: float, eps: float, x: float) -> ChainCheck:
    """Check the chain Phi >= x L(a, eps) >= x log(a/eps) for 0 < eps < a <= 1.

    The hypothesis gate is mandatory: the chain fails outside it (for example
    a = 10, eps = 0.01 breaks L(a, eps) >= log(a/eps)).
    """
    if not 0.0 < eps < a <= 1.0:
        raise DomainError(f"phi_chain_check requires 0 < eps < a <= 1, got ({a}, {eps})")
    _check_domain(a, eps, x)
    val = phi(a, eps, x)
    x_kernel = x * log_mean_kernel(a, eps)
    x_log = x * math.log(a / eps)
    ok = (val >= x_kernel - CHAIN_TOL) and (x_kernel >= x_log - CHAIN_TOL)
    return ChainCheck(phi=val, x_kernel=x_kernel, x_log=x_log, ok=ok)


def fd_rate(cfg: OrbitConfig, t: float) -> float:
    """Finite-difference estimate of -dD/dt with step min(1e-6, 1e-3/gamma).

    Central stencil in the interior; second-order one-sided (forward) stencil
    when t < h, where t - h would leave the domain.
    """
    h = min(1e-6, 1e-3 / cfg.gamma)
    stencil = (t, t + h, t + 2.0 * h) if t < h else (t + h, t - h)
    # D(rho_s || M) = Tr[rho_s log rho_s] - Tr[M log M], from one eigh stacked over s
    tr_log = _orbit_terms(cfg.m, cfg.y, cfg.gamma, stencil)[0]
    d = [float(v) - cfg.tr_m_log_m for v in tr_log]
    if t < h:
        return -(-3.0 * d[0] + 4.0 * d[1] - d[2]) / (2.0 * h)
    return -(d[0] - d[1]) / (2.0 * h)
