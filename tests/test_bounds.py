"""Entropy lower bounds, the bound report, and the two witness families."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cebound import (
    BlockState,
    DomainError,
    InfeasibleError,
    OrbitConfig,
    PositivityError,
    ValidationError,
    binary_entropy,
    bkm_apply,
    bkm_form,
    block_decompose,
    bound_report,
    channel_weights,
    coherence_entropy,
    fidelity,
    fidelity_bound,
    find_separation_eps,
    log_boundary_bound,
    operator_bound,
    pinsker_bound,
    random_block_state,
    separation_family,
    sharpness_family,
    trace_norm,
    two_level_pure,
)
from cebound.bkm import log_mean_kernel
from cebound.bounds import MARGIN_TOL
from cebound.linalg import SUPPORT_TOL, _block_spectra, _gaussian, _max_psd_scale, pinch

from conftest import random_states
from oracles import bkm_quadrature, regularized_bkm_form


def flat_state(seed=1):
    s = random_block_state(2, 2, seed)
    return BlockState(dim_p=2, dim_q=2, a=s.a, b=np.zeros_like(s.b), c=s.c)


# ---------------------------------------------------------- operator bound

def test_operator_bound_zero_b():
    s = flat_state()
    assert operator_bound(s) == 0.0
    assert coherence_entropy(s) == pytest.approx(0.0, abs=1e-12)


def test_operator_bound_two_level():
    s = two_level_pure(0.25)
    bound = operator_bound(s)
    assert bound == pytest.approx(0.1875 * log_mean_kernel(0.75, 0.25), rel=1e-14)
    assert binary_entropy(0.25) - bound > 0.0


def test_operator_bound_boundary_ensemble_margin():
    s = random_block_state(2, 2, 55, "boundary", a0=0.3, eps_q=0.05)
    assert coherence_entropy(s) - operator_bound(s) >= -1e-9


def test_operator_bound_of_a_singular_block():
    # C = (0) is singular and B = 0: the form over the supports is 0, where
    # the form over A, C > 0 raised PositivityError
    s = two_level_pure(0.25)
    singular = BlockState(
        dim_p=1,
        dim_q=1,
        a=np.array([[1.0]], dtype=complex),
        b=np.zeros((1, 1), dtype=complex),
        c=np.array([[0.0]], dtype=complex),
    )
    assert operator_bound(singular) == 0.0
    assert operator_bound(s) == bkm_form(s.a, s.c, s.b)


BKM_FORM_CALLS = {
    "bkm_form": lambda s: bkm_form(s.a, s.c, s.b),
    "bkm_apply": lambda s: np.trace(s.b.conj().T @ bkm_apply(s.a, s.c, s.b)).real,
    "operator_bound": operator_bound,
    "bound_report": lambda s: bound_report(s).bkm_bound,
}
POSITIVITY_GATED_CALLS = {
    "channel_weights": lambda s: channel_weights(s.a, s.c, s.b),
    "bkm_quadrature": lambda s: bkm_quadrature(s.a, s.c, s.b),
    "OrbitConfig": lambda s: OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=2),
    "boundary sampler": lambda s: _max_psd_scale(_block_spectra(s.a, s.c), s.b),
}


@pytest.mark.parametrize("block", ["A", "C"])
@pytest.mark.parametrize("name", list(BKM_FORM_CALLS) + list(POSITIVITY_GATED_CALLS))
def test_singular_block_fails_the_one_positivity_gate(name, block):
    # the BKM form sums over the supports, so A, C >= 0 suffices: its four
    # routes give a finite value below D (0.32 <= 0.368 for A, 0.122 <= 0.132
    # for C).  The channel weights and the quadrature oracle (L at every
    # eigenvalue), OrbitConfig and the boundary sampler's scale of B (A^{-1/2})
    # keep the gate A, C > 0, whose error names the block and its lambda_min
    rho = np.diag([0.5, 0.0, 0.5] if block == "A" else [0.5, 0.3, 0.2, 0.0])
    rho[0, 2] = rho[2, 0] = 0.4 if block == "A" else 0.2
    state = block_decompose(rho, 2)
    if name in BKM_FORM_CALLS:
        value = BKM_FORM_CALLS[name](state)
        assert math.isfinite(value) and 0.0 <= value <= coherence_entropy(state)
        return
    message = f"^{block} must be positive definite, lambda_min = 0.000e\\+00$"
    with pytest.raises(PositivityError, match=message):
        POSITIVITY_GATED_CALLS[name](state)


def pure_state(dim):
    """A random pure state with d_p = d_q = dim: A and C have rank 1."""
    rng = np.random.default_rng(dim)
    psi = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
    psi /= np.linalg.norm(psi)
    return block_decompose(np.outer(psi, psi.conj()), dim)


@pytest.mark.parametrize("dim", [2, 32, 50, 64])
def test_regularized_report_of_a_pure_state(dim):
    # A and C of a pure state are singular.  The report needs no regularization:
    # its BKM bound, over the supports, is the delta -> 0 limit of that of the
    # regularized state (1 - delta) rho + delta I/d, and stays below D
    report = bound_report(pure_state(dim))
    assert report.bkm_bound > 0.0
    assert min(report.margins.values()) >= -MARGIN_TOL


@pytest.mark.parametrize("dim", [2, 32, 50])
def test_report_a0_reads_the_positivity_gate(dim):
    # A of a pure state has rank 1, so lambda_min(A) is below POSITIVITY_FLOOR:
    # the report prints a0 = 0.0, not eigh's rounding-level value (-1.4e-16 at
    # 32 + 32)
    state = pure_state(dim)
    assert np.linalg.eigvalsh(state.a)[0] != 0.0
    params = bound_report(state).params
    assert params["a0"] == 0.0 and math.copysign(1.0, params["a0"]) == 1.0
    assert params["log_ratio"] is None
    # on a positive definite A, a0 is lambda_min(A) as eigh gives it
    state = random_block_state(dim, dim, 5)
    assert bound_report(state).params["a0"] == np.linalg.eigh(state.a)[0][0]


def test_a_just_above_the_floor_is_positive_definite_everywhere():
    # lambda_min(A) = 1.2e-12 clears POSITIVITY_FLOOR = 1e-12 but not the support
    # cut SUPPORT_TOL (1 + 0.5) = 1.5e-12: the gate alone decides A > 0, so the
    # report's a0 is lambda_min(A) and the boundary sampler scales B.  The BKM
    # form, over the supports, drops that row, where B~ is 0
    a = np.diag([0.5, 1.2e-12]).astype(complex)
    c = np.array([[0.5]], dtype=complex)
    b = np.array([[0.1], [0.0]], dtype=complex)
    assert 1.2e-12 <= SUPPORT_TOL * 1.5
    report = bound_report(BlockState(2, 1, a, b, c))
    assert report.params["a0"] == 1.2e-12
    # the Schur complement: s = 1/||A^{-1/2} B C^{-1/2}||_2 = sqrt(0.5 * 0.5)/0.1
    scale = _max_psd_scale(_block_spectra(a, c), b)
    assert scale == pytest.approx(5.0, rel=1e-15)


def _mp_rank_deficient_state(dim_p, dim_q, rank, narrow, seed):
    """(rho, its float BlockState): rho = sum_k p_k psi_k psi_k* of ``rank``
    terms as an ``mpmath`` matrix, of that rank at the working precision.
    ``narrow`` ("A" or "C") confines that block's part of every psi_k to a
    random subspace one dimension short, so the block is singular at any rank."""
    from mpmath import mp

    rng = np.random.default_rng(seed)
    parts = []
    for name, dim in (("A", dim_p), ("C", dim_q)):
        basis = np.linalg.qr(_gaussian(rng, (dim, dim)))[0][:, :-1] if name == narrow else np.eye(dim)
        coords = _gaussian(rng, (basis.shape[1], rank))
        parts.append(mp.matrix(basis.tolist()) * mp.matrix(coords.tolist()))
    weights = [mp.mpf(w) for w in rng.random(rank) + 0.1]
    rho = mp.matrix(dim_p + dim_q)
    for k in range(rank):
        psi = mp.matrix([parts[0][i, k] for i in range(dim_p)] + [parts[1][i, k] for i in range(dim_q)])
        rho += (weights[k] / mp.fsum(weights) / mp.norm(psi) ** 2) * (psi * psi.H)
    return rho, block_decompose(np.array(rho.tolist(), dtype=complex), dim_p)


def _mp_xlogx(x):
    """Tr[X log X] of a PSD ``mpmath`` matrix, over its eigenvalues above 1e-40."""
    from mpmath import mp

    return mp.fsum(lam * mp.log(lam) for lam in mp.eighe(x, eigvals_only=True) if lam > 1e-40)


@pytest.mark.parametrize(
    "dim_p, dim_q, rank, narrow",
    [
        (2, 2, 1, None), (3, 3, 1, None), (4, 4, 1, None),  # pure: A and C singular
        (3, 3, 2, None), (4, 4, 3, None),  # rank-deficient: A and C singular
        (3, 2, 2, "A"), (4, 4, 4, "A"), (2, 3, 3, "C"), (4, 4, 4, "C"),  # one block singular
    ],
)
def test_support_form_is_the_limit_of_the_regularized_form(dim_p, dim_q, rank, narrow):
    # at 50 digits, on states of exact rank: the form over the supports is the
    # delta -> 0 extrapolation 2 F(delta) - F(2 delta) of the regularized form F
    # (whose bias is O(delta)), stays below D, and is Tr[B* Omega^{-1}(B)] with
    # bkm_apply's Omega^{-1}
    from mpmath import mp, workdps

    with workdps(50):
        rho, state = _mp_rank_deficient_state(dim_p, dim_q, rank, narrow, 100 * dim_p + dim_q + rank)
        a, b, c = rho[:dim_p, :dim_p], rho[:dim_p, dim_p:], rho[dim_p:, dim_p:]
        delta = mp.mpf("1e-30")
        limit = 2 * regularized_bkm_form(a, c, b, delta) - regularized_bkm_form(a, c, b, 2 * delta)
        entropy = _mp_xlogx(rho) - _mp_xlogx(a) - _mp_xlogx(c)
    singular = [name for name, x in (("A", state.a), ("C", state.c)) if np.linalg.eigvalsh(x)[0] < 1e-12]
    assert singular == (["A", "C"] if narrow is None else [narrow])
    bound = operator_bound(state)
    assert abs(bound - float(limit)) <= 1e-12 * float(limit)
    assert bound <= float(entropy)
    applied = np.trace(state.b.conj().T @ bkm_apply(state.a, state.c, state.b)).real
    assert applied == pytest.approx(bkm_form(state.a, state.c, state.b), rel=1e-13)


# --------------------------------------------------------------- log bound

def test_log_boundary_bound_is_the_reports_bit_for_bit():
    # both read lambda_min(A) from one validated eigh of A; an eigvalsh of its
    # own disagreed with the report in the last bits on 822 of these states
    for dim_p, dim_q in [(2, 1), (3, 2), (4, 4), (8, 3), (16, 4)]:
        for seed in range(400):
            s = random_block_state(
                dim_p, dim_q, seed, "boundary", a0=0.6 / dim_p, eps_q=0.2 / dim_p
            )
            assert log_boundary_bound(s) == bound_report(s).log_bound
    s = random_block_state(2, 2, 3)
    a = s.a.copy()
    a[0, 1] += 1e-3
    with pytest.raises(ValidationError, match="A is not Hermitian"):
        log_boundary_bound(BlockState(dim_p=2, dim_q=2, a=a, b=s.b, c=s.c))


def test_log_bound_gate():
    # Tr C too large relative to lambda_min(A): bound absent
    s = random_block_state(2, 2, 56)
    if np.trace(s.c).real >= np.linalg.eigvalsh(s.a)[0]:
        assert log_boundary_bound(s) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
    st.floats(0.05, 1.0),
    st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
)
def test_log_bound_holds_up_to_the_paper_hypothesis(dim_p, dim_q, seed, fill, ratio):
    # the hypothesis is 0 < Tr C < lambda_min(A); draws are kept in its upper
    # half, which a rule Tr C <= lambda_min(A)/2 would exclude.  Measured worst
    # margins over about 2,000 such states: D - log 0.027, bkm - log 0.021
    a0 = fill / (dim_p + 1)
    s = random_block_state(dim_p, dim_q, seed, "boundary", a0=a0, eps_q=ratio * a0)
    lam_min, eps_q = np.linalg.eigvalsh(s.a)[0], np.trace(s.c).real
    assume(lam_min / 2 < eps_q < lam_min)
    report = bound_report(s)
    assert report.log_bound is not None
    assert report.entropy >= report.log_bound
    assert report.bkm_bound >= report.log_bound


def test_log_bound_constructed_value():
    s = BlockState(
        dim_p=2,
        dim_q=1,
        a=0.45 * np.eye(2, dtype=complex),
        b=np.array([[0.1], [0.0]], dtype=complex),
        c=np.array([[0.05]], dtype=complex),
    )
    assert log_boundary_bound(s) == pytest.approx(0.01 * math.log(9.0), abs=1e-14)
    assert log_boundary_bound(s) == pytest.approx(0.021972245773362195, abs=1e-14)


def test_log_bound_two_level():
    s = two_level_pure(0.1)
    val = log_boundary_bound(s)
    assert val == pytest.approx(0.09 * math.log(9.0), abs=1e-14)
    assert binary_entropy(0.1) >= val


def test_log_bound_chain_below_operator_bound():
    for seed in range(10):
        s = random_block_state(2, 2, 700 + seed, "boundary", a0=0.3, eps_q=0.05)
        lb = log_boundary_bound(s)
        assert lb is not None
        assert operator_bound(s) >= lb - 1e-9
        assert coherence_entropy(s) >= lb - 1e-9


# ------------------------------------------------------------ Pinsker bound

def test_pinsker_zero_b():
    assert pinsker_bound(flat_state()) == 0.0


def test_pinsker_two_level():
    s = two_level_pure(0.25)
    assert pinsker_bound(s) == pytest.approx(2.0 * 0.1875, abs=1e-14)
    assert binary_entropy(0.25) >= 0.375


def test_pinsker_rank_two_diagonal_b():
    s1, s2 = 0.05, 0.03
    s = BlockState(
        dim_p=2,
        dim_q=2,
        a=0.3 * np.eye(2, dtype=complex),
        b=np.diag([s1, s2]).astype(complex),
        c=0.2 * np.eye(2, dtype=complex),
    )
    assert pinsker_bound(s) == pytest.approx(2.0 * (s1 + s2) ** 2, abs=1e-14)


@pytest.mark.parametrize("m, message", [
    ([[1.0, np.nan], [0.0, 1.0]], "matrix has non-finite entries"),
    ([[1.0, 0.0], [0.0, np.inf]], "matrix has non-finite entries"),
    (np.ones((2, 2, 2)), r"matrix must be 2-D, got shape \(2, 2, 2\)"),
])
def test_trace_norm_checks_its_matrix(m, message, lapack_calls):
    # a NaN entry was numpy's LinAlgError from the SVD
    with pytest.raises(ValidationError, match=message):
        trace_norm(m)
    assert sum(lapack_calls.values()) == 0


def test_trace_norm_identity():
    for s in random_states(20, (1, 2, 3), 660):
        rho = s.to_matrix()
        assert trace_norm(rho - pinch(s)) == pytest.approx(
            2.0 * trace_norm(s.b), abs=1e-10
        )


# ----------------------------------------------------------- fidelity bound

def test_fidelity_bound_block_diagonal():
    assert fidelity_bound(flat_state()) == pytest.approx(0.0, abs=1e-9)


def test_fidelity_two_level_closed_form():
    # pure rho: F(rho, sigma) = sqrt(<psi| sigma |psi>) = sqrt((1-q)^2 + q^2)
    q = 0.25
    s = two_level_pure(q)
    f = fidelity(s.to_matrix(), pinch(s))
    # the rounding-level eigenvalue of the rank-one inner matrix is cut by the
    # support model, not square-rooted: measured errors 0 for F, 1.7e-16 for
    # the bound
    assert f == pytest.approx(math.sqrt((1 - q) ** 2 + q**2), abs=1e-15)
    assert fidelity_bound(s) == pytest.approx(-math.log((1 - q) ** 2 + q**2), abs=1e-15)
    assert fidelity_bound(s) <= binary_entropy(q) + 1e-9


def test_fidelity_validates_both_arguments():
    # eigh reads the lower triangle: this non-Hermitian sigma gave F = 1.0
    rho = np.diag([0.5, 0.5])
    with pytest.raises(ValidationError, match="sigma is not Hermitian"):
        fidelity(rho, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="rho has non-finite entries"):
        fidelity(np.diag([np.nan, 1.0]), rho)
    with pytest.raises(ValidationError, match=r"differ in shape: \(3, 3\) vs \(2, 2\)"):
        fidelity(np.eye(3) / 3, rho)


def test_fidelity_bound_margin_random():
    for s in random_states(20, (2, 3), 550):
        assert coherence_entropy(s) - fidelity_bound(s) >= -1e-9


def _mp_fidelity_bound(s):
    """-2 log F(rho, pinch(rho)) at the working mpmath precision.

    Its square roots apply the support model to the oracle's own eigenvalues:
    lambda > SUPPORT_TOL (1 + max|lambda|) is kept, the rest count as 0.
    """
    from mpmath import mp

    def support_sqrt(w):
        cut = SUPPORT_TOL * (1 + max(abs(lam) for lam in w))
        return [mp.sqrt(lam) if lam > cut else mp.mpf(0) for lam in w]

    def psd_sqrt(h):
        w, v = mp.eighe(mp.matrix(np.asarray(h).tolist()))
        return v * mp.diag(support_sqrt(w)) * v.H

    root = psd_sqrt(pinch(s))
    inner = root * mp.matrix(s.to_matrix().tolist()) * root
    f = sum(support_sqrt(mp.eighe(inner, eigvals_only=True)))
    return -2 * mp.log(f) if f < 1 else mp.mpf(0)


# A boundary state sits on the PSD edge: rho has an eigenvalue of order
# +-1e-17, so the inner matrix has one too, whose square root would be of
# order 3e-9.  Both sides cut it by the same support rule.  Measured worst:
# 1.5e-15 on boundary states, 3.7e-15 on ginibre.
@pytest.mark.parametrize("ensemble, tol", [("ginibre", 1e-13), ("boundary", 1e-13)])
def test_fidelity_bound_matches_mpmath(ensemble, tol):
    from mpmath import workdps

    with workdps(50):
        for dp in range(1, 5):
            for dq in range(1, 5):
                kwargs = {}
                if ensemble == "boundary":
                    kwargs = {"a0": 0.6 / dp, "eps_q": 0.2 / dp}
                s = random_block_state(dp, dq, 7 * dp + dq, ensemble, **kwargs)
                exact = float(_mp_fidelity_bound(s))
                assert abs(fidelity_bound(s) - exact) <= tol, (dp, dq)


# ------------------------------------------------------------- bound report

def test_report_block_diagonal_all_zero():
    r = bound_report(flat_state())
    assert r.entropy == pytest.approx(0.0, abs=1e-12)
    assert r.bkm_bound == 0.0
    assert r.pinsker_bound == 0.0
    assert r.fidelity_bound == pytest.approx(0.0, abs=1e-9)


def test_report_two_level_values():
    r = bound_report(two_level_pure(0.25))
    assert r.bkm_bound == pytest.approx(0.412, abs=5e-4)
    assert r.bkm_bound == pytest.approx(
        0.25 * 0.75 * log_mean_kernel(0.75, 0.25), rel=1e-14
    )
    assert r.entropy == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert r.worst_margin() >= -1e-9


def test_report_margins_random_sweep():
    states = random_states(30, (1, 2, 3, 4), 440)
    states += [
        random_block_state(dp, dq, 300 + dp * 10 + dq, "boundary",
                           a0=0.5 / dp, eps_q=0.1 / dp)
        for dp in (1, 2, 3)
        for dq in (1, 2, 3)
    ]
    for s in states:
        r = bound_report(s)
        assert r.worst_margin() >= -1e-9
        if r.log_bound is not None:
            assert r.bkm_bound >= r.log_bound - 1e-9


def test_report_pinsker_domination_diagnostic():
    # eps_q <= a0 exp(-2 rank B) makes the log bound dominate Pinsker
    rank = 1
    a0 = 0.4
    eps_q = a0 * math.exp(-2 * rank) / 2
    s = BlockState(
        dim_p=2,
        dim_q=1,
        a=np.diag([a0, 1 - a0 - eps_q]).astype(complex),
        b=np.array([[0.0], [math.sqrt(a0 * eps_q / 4)]], dtype=complex),
        c=np.array([[eps_q]], dtype=complex),
    )
    r = bound_report(s)
    assert r.coarse_applicable
    assert r.log_bound >= r.pinsker_bound
    assert r.params["log_ratio"] >= r.params["pinsker_ratio"]


def test_report_to_dict_fields():
    d = bound_report(two_level_pure(0.2)).to_dict()
    for key in (
        "entropy", "bkm_bound", "log_bound", "pinsker_bound",
        "fidelity_bound", "margins", "params",
    ):
        assert key in d
    assert "regularized" not in d


# --------------------------------------------------------- sharpness family

def test_sharpness_point_values():
    pt = sharpness_family(0.25)
    assert pt.entropy == pytest.approx(binary_entropy(0.25), abs=1e-14)
    assert pt.bkm == pytest.approx(0.1875 * math.log(3.0) / 0.5, rel=1e-14)
    assert pt.ratio_bkm > 1.0


def test_sharpness_asymptotic():
    pt = sharpness_family(1e-6)
    assert abs(pt.ratio_bkm - 1.0) <= 0.1
    assert abs(pt.ratio_log - 1.0) <= 0.1


def test_sharpness_state_is_pure():
    pt = sharpness_family(0.1)
    assert np.linalg.eigvalsh(pt.state.to_matrix())[-1] == pytest.approx(
        1.0, abs=1e-12
    )


def test_sharpness_ratios_decreasing():
    ratios = [sharpness_family(10.0**-k).ratio_bkm for k in range(2, 7)]
    assert ratios == sorted(ratios, reverse=True)


def test_sharpness_rejects_out_of_range():
    with pytest.raises(DomainError):
        sharpness_family(0.5)
    with pytest.raises(DomainError):
        sharpness_family(0.0)


def test_sharpness_rejects_a_subnormal_q():
    # (1 - q)/q overflows for subnormal q: 1e-310 gave bkm = inf and both
    # ratios 0, with numpy's overflow warning
    tiny = np.finfo(float).tiny
    with pytest.raises(DomainError, match="q must be at least 2.2250738585072014e-308"):
        sharpness_family(1e-310)
    pt = sharpness_family(tiny)
    assert (pt.ratio_bkm, pt.ratio_log) == (1.0, 1.0)


# -------------------------------------------------------- separation family

def test_separation_k4_small_eps():
    pt = separation_family(4.0, 1e-6)
    assert pt.ratio >= 4.0
    assert pt.ratio == pytest.approx(5.0, abs=0.1)
    assert np.linalg.eigvalsh(pt.state.to_matrix())[0] >= -1e-12


def test_separation_ratio_formula():
    from cebound.bkm import bkm_form

    for k, eps in ((2.0, 1e-4), (4.0, 1e-6), (5.0, 1e-8)):
        pt = separation_family(k, eps)
        eta = 1.0 / (k + 1.0)
        m = eps ** (1.0 - eta)
        a1 = 1.0 - m - eps
        explicit = log_mean_kernel(a1, eps) / math.log(m / eps)
        assert pt.ratio == pytest.approx(explicit, abs=1e-10)
        # single-channel structure: bkm form concentrates on (a1, eps)
        frob_sq = a1 * eps / 2.0
        assert bkm_form(pt.state.a, pt.state.c, pt.state.b) == pytest.approx(
            frob_sq * log_mean_kernel(a1, eps), rel=1e-12
        )


def test_separation_ratio_converges_to_k_plus_one():
    # ratio = L(a1, eps)/(eta ln(1/eps)) stays above K and tends to K + 1
    # from above as eps -> 0
    k = 4.0
    ratios = [separation_family(k, eps).ratio for eps in (1e-3, 1e-4, 1e-5, 1e-6)]
    assert all(r >= k + 1.0 for r in ratios)
    gaps = [r - (k + 1.0) for r in ratios]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-4


def test_separation_rejects_bad_parameters():
    with pytest.raises(DomainError):
        separation_family(1.0, 1e-4)
    with pytest.raises(DomainError):
        separation_family(4.0, 0.3)
    with pytest.raises(InfeasibleError):
        separation_family(1.2, 0.24)  # m close to 1 makes a1 <= m


def test_separation_ratio_matches_mpmath_up_to_1e15():
    # the ratio is that of the float state's own a1, m and eps: m - eps is
    # exact, and log1p keeps log(m/eps) exact in it.  log(m / eps) rounded m/eps
    # first and was off by up to 1e-2 relative here (measured, k = 1e15)
    from mpmath import log, mpf, workdps

    worst = 0.0
    with workdps(50):
        for k in np.geomspace(1e2, 1e15, 131).tolist():
            pt = separation_family(k, 1e-2)
            a1, m = (mpf(float(x)) for x in pt.state.a.real.diagonal())
            eps = mpf(float(pt.state.c.real[0, 0]))
            exact = (log(a1) - log(eps)) / (a1 - eps) / log(m / eps)
            worst = max(worst, float(abs(pt.ratio - exact) / exact))
    # measured 4.4e-16
    assert worst <= 8 * np.finfo(float).eps


def test_find_separation_eps_grid():
    for k in (2.0, 3.0, 4.0, 5.0):
        eps = find_separation_eps(k)
        assert separation_family(k, eps).ratio >= k
    assert find_separation_eps(2.0) >= 1e-6


def test_find_separation_eps_needs_no_search():
    # (k+1) log(a1/eps)/((a1 - eps) log(1/eps)) > 1.026 (k+1) at eps = 1e-2, and
    # the float ratio stays within 1e-3 of it up to k = 1e13
    for k in np.geomspace(1.0 + 1e-9, 1e13, 400).tolist():
        assert find_separation_eps(k) == 1e-2
        assert separation_family(k, 1e-2).ratio >= k, k


def test_separation_beyond_float64_is_infeasible():
    # at k = 1.41e16, 1/(k+1) is one ulp of 1 and the float ratio is 0.75 k
    with pytest.raises(InfeasibleError, match="cannot resolve the witness"):
        find_separation_eps(1.41e16)
    # at k = 1e17, 1 - 1/(k+1) rounds to 1 and m to eps: the division by
    # log(m/eps) = 0 was a ZeroDivisionError
    for call in (find_separation_eps, lambda k: separation_family(k, 1e-2)):
        with pytest.raises(InfeasibleError, match="rounds to eps"):
            call(1e17)
