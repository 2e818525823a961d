"""SVD pinching, polygon phases, merging channel, optimizer, variational check."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cebound import (
    BlockState,
    CeboundError,
    DomainError,
    InfeasibleError,
    MergeSpec,
    NumericError,
    binary_entropy,
    coherence_entropy,
    equality_state,
    merge_channel,
    modulus_curve,
    optimizer,
    phi,
    pipeline_values,
    polygon_phases,
    random_block_state,
    svd_pinch,
    two_level_pure,
    verify_group,
)
from cebound import variational
from cebound.linalg import _stack, block_decompose, pinch
from cebound.twolevel import _phi
from cebound.variational import (
    POLYGON_TOL,
    SV_CUTOFF,
    _merge_radii,
    _pipeline,
    _polygon,
    _svd_pinch,
)

from conftest import random_states
from oracles import entropy_terms, relative_entropy, sample_feasible, variational_check


def achieved_modulus(lengths, angles):
    return abs(sum(l * cmath.exp(1j * t) for l, t in zip(lengths, angles)))


# -------------------------------------------------------------- svd_pinch

def test_svd_pinch_zero_b():
    s = random_block_state(2, 2, 1)
    flat = BlockState(dim_p=2, dim_q=2, a=s.a, b=np.zeros_like(s.b), c=s.c)
    data = svd_pinch(flat)
    assert data.channels == ()
    assert data.entropy() == 0.0
    assert data.channel.completeness_defect() <= 1e-12


def test_svd_pinch_two_level():
    q = 0.25
    data = svd_pinch(two_level_pure(q))
    assert len(data.channels) == 1
    a, c, s = data.channels[0]
    assert (a, c) == pytest.approx((1 - q, q), abs=1e-14)
    assert s == pytest.approx(math.sqrt(q * (1 - q)), abs=1e-14)
    assert data.entropy() == pytest.approx(binary_entropy(q), abs=1e-12)


def test_svd_pinch_entropy_decomposition():
    for s in random_states(10, (2, 3), 330):
        data = svd_pinch(s)
        rho_pin = data.channel.apply(s.to_matrix())
        pin_state = block_decompose(rho_pin, s.dim_p)
        direct = relative_entropy(rho_pin, pinch(pin_state))
        assert data.entropy() == pytest.approx(direct, abs=1e-10)
        # data processing: pinching cannot increase the coherence entropy
        assert coherence_entropy(s) >= data.entropy() - 1e-9


def test_svd_pinch_channel_data_positivity():
    for s in random_states(10, (2, 3), 331):
        for a, c, sv in svd_pinch(s).channels:
            assert sv > 0.0 and a >= 0.0 and c >= 0.0
            assert sv * sv <= a * c + 1e-12


# ---------------------------------------------------------- polygon phases

def test_polygon_three_four_five():
    angles = polygon_phases([3.0, 4.0], 5.0)
    assert achieved_modulus([3.0, 4.0], angles) == pytest.approx(5.0, abs=1e-10)
    # law of cosines forces a right angle between the two vectors
    assert abs(math.cos(angles[1] - angles[0])) <= 1e-12


def test_polygon_symmetric_triple_closes():
    angles = polygon_phases([1.0, 1.0, 1.0], 0.0)
    assert achieved_modulus([1.0, 1.0, 1.0], angles) <= 1e-10


def test_polygon_aligned_maximum():
    lengths = [0.5, 1.5, 2.0]
    angles = polygon_phases(lengths, 4.0)
    assert achieved_modulus(lengths, angles) == pytest.approx(4.0, abs=1e-10)
    z = sum(l * cmath.exp(1j * t) for l, t in zip(lengths, angles))
    assert abs(z - 4.0) <= 1e-10  # all vectors effectively aligned


def test_polygon_rejects_out_of_range_target():
    with pytest.raises(DomainError):
        polygon_phases([1.0, 1.0], 2.5)
    with pytest.raises(DomainError):
        polygon_phases([3.0, 1.0], 1.0)  # floor is 2*3 - 4 = 2
    with pytest.raises(DomainError):
        polygon_phases([], 0.0)
    with pytest.raises(DomainError):
        polygon_phases([1.0, -1.0], 0.5)


def test_polygon_single_length():
    angles = polygon_phases([2.0], 2.0)
    assert achieved_modulus([2.0], angles) == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-12, max_value=10.0), min_size=1, max_size=64),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_polygon_random_targets(lengths, frac):
    total = sum(lengths)
    floor = max(0.0, 2.0 * max(lengths) - total)
    target = floor + frac * (total - floor)
    angles = polygon_phases(lengths, target)
    assert achieved_modulus(lengths, angles) == pytest.approx(target, abs=1e-10)


def test_stacked_polygon_matches_one_state_construction():
    # a ragged, zero-padded stack: all-zero members (the X = 0 case of the
    # merge), 1 to 64 lengths from 1e-12 to 10, targets at both ends and inside
    rng = np.random.default_rng(11)
    members, targets = [np.zeros(1), np.zeros(5)], [0.0, 0.0]
    for n in (1, 2, 3, 5, 17, 64):
        for lengths in (rng.uniform(0.0, 10.0, n), 10.0 ** rng.uniform(-12.0, 1.0, n)):
            total = float(np.sum(lengths))
            floor = max(0.0, 2.0 * float(np.max(lengths)) - total)
            for target in (floor, total, floor + rng.uniform() * (total - floor)):
                members.append(lengths)
                targets.append(target)
    stack = np.zeros((len(members), 64))
    for m, lengths in enumerate(members):
        stack[m, : len(lengths)] = lengths
    thetas = _polygon(stack, np.array(targets))
    for m, (lengths, target) in enumerate(zip(members, targets)):
        one = polygon_phases(lengths, target)
        assert np.array_equal(thetas[m, : len(lengths)], one), m
        z = sum(l * cmath.exp(1j * t) for l, t in zip(lengths, one))
        assert abs(z - target) <= POLYGON_TOL, m  # z_n comes out real and positive


def test_stacked_polygon_names_the_member_out_of_range():
    stack = np.array([[3.0, 4.0], [1.0, 1.0], [3.0, 1.0], [2.0, 0.0]])
    # member 2 has the interval [2, 4]
    with pytest.raises(DomainError, match=r"target 1\.25 outside achievable interval"):
        _polygon(stack, np.array([5.0, 1.0, 1.25, 2.0]))


def test_stacked_paths_never_call_polygon_phases(monkeypatch):
    # the stacked merge takes every member's phases in one construction, so a
    # per-member call of the public function cannot come back
    def per_member(*args):
        raise AssertionError("polygon_phases called per member")

    monkeypatch.setattr(variational, "polygon_phases", per_member)
    margins = verify_group(3, 3, 2, 7)
    assert np.all(margins["pipeline_merge"] >= 0.0)
    state = random_block_state(3, 2, 5)
    _, pinched, merged = pipeline_values(state, float(np.linalg.eigvalsh(state.a)[0]))
    assert pinched >= merged - 1e-12


# ------------------------------------------------------------ merge channel

def test_merge_single_block_identity():
    res = merge_channel(MergeSpec(blocks=((0.5, 0.04, 0.01),), eps_rem=0.0, a0=0.5))
    assert res.merged == pytest.approx((0.5, 0.04, 0.01))
    assert res.left_entropy == pytest.approx(res.right_entropy, abs=1e-12)


def test_merge_two_blocks():
    spec = MergeSpec(
        blocks=((0.4, 0.03, 0.005), (0.3, 0.02, 0.004)), eps_rem=0.0, a0=0.3
    )
    res = merge_channel(spec)
    a, e, x = res.merged
    assert a == pytest.approx(0.4, abs=1e-15)  # 0.3 + 0.1 + 0.0
    assert e == pytest.approx(0.05, abs=1e-15)
    assert x == pytest.approx(0.009, abs=1e-15)
    assert res.left_entropy >= res.right_entropy - 1e-9
    assert res.channel.completeness_defect() <= 1e-12
    assert res.right_entropy == pytest.approx(phi(a, e, x), abs=1e-12)


def test_merge_with_zero_coherence_blocks():
    spec = MergeSpec(
        blocks=((0.4, 0.03, 0.005), (0.35, 0.0, 0.0), (0.3, 0.02, 0.0)),
        eps_rem=0.01,
        a0=0.3,
    )
    res = merge_channel(spec)
    assert res.left_entropy >= res.right_entropy - 1e-9
    assert res.channel.completeness_defect() <= 1e-12


def test_merge_zero_total_coherence():
    spec = MergeSpec(blocks=((0.4, 0.03, 0.0), (0.3, 0.02, 0.0)), eps_rem=0.0, a0=0.3)
    res = merge_channel(spec)
    assert res.right_entropy == 0.0
    assert res.left_entropy == 0.0


def test_merge_random_sweep():
    rng = np.random.default_rng(202)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        a0 = rng.uniform(0.05, 0.2)
        blocks = []
        for _ in range(k):
            a = a0 + rng.uniform(0.0, 0.3)
            eps = rng.uniform(0.0, 0.05)
            x = rng.uniform(0.0, 1.0) * a * eps
            blocks.append((a, eps, x))
        spec = MergeSpec(blocks=tuple(blocks), eps_rem=rng.uniform(0.0, 0.02), a0=a0)
        res = merge_channel(spec)
        assert res.left_entropy >= res.right_entropy - 1e-9
        assert res.channel.completeness_defect() <= 1e-12


def _per_block_kraus(alphas) -> np.ndarray:
    """Reference: the merge channel's Kraus operators built one block at a time."""
    k = len(alphas)
    kraus = []
    for j, alpha in enumerate(alphas):
        k_a = np.zeros((k + 2, 2 * k + 1), dtype=complex)
        k_a[0, 2 * j] = alpha
        k_a[1, 2 * j + 1] = 1.0
        k_s = np.zeros((k + 2, 2 * k + 1), dtype=complex)
        k_s[2 + j, 2 * j] = math.sqrt(max(0.0, 1.0 - abs(alpha) ** 2))
        kraus += [k_a, k_s]
    k_rem = np.zeros((k + 2, 2 * k + 1), dtype=complex)
    k_rem[1, 2 * k] = 1.0
    return np.stack(kraus + [k_rem])


def test_merge_channel_matches_per_block_construction():
    # the index-array Kraus operators equal the per-block ones; only
    # sqrt(1 - |alpha|^2) may move, by the rounding of numpy's complex abs
    rng = np.random.default_rng(204)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        a0 = rng.uniform(0.05, 0.2)
        blocks = tuple(
            (a0 + rng.uniform(0.0, 0.3), eps, rng.uniform(0.0, 1.0) * a0 * eps)
            for eps in rng.uniform(0.0, 0.05, k)
        )
        res = merge_channel(MergeSpec(blocks=blocks, eps_rem=rng.uniform(0.0, 0.02), a0=a0))
        kraus = np.stack(res.channel.kraus)
        alphas = kraus[2 * np.arange(k), 0, 2 * np.arange(k)]
        assert np.max(np.abs(kraus - _per_block_kraus(alphas))) <= 1e-15
    with pytest.raises(DomainError):
        merge_channel(MergeSpec(blocks=((0.2, 0.03, 0.001),), eps_rem=0.0, a0=0.3))


def _bisected_radii(avals, xvals, a_target, x_total):
    """Reference: bisect sum a_j ((1-t) b_j + t)^2 = A over t in [0, 1]."""
    base = [math.sqrt(x / x_total) if x_total > 0.0 else 0.0 for x in xvals]
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if sum(a * ((1 - mid) * b + mid) ** 2 for a, b in zip(avals, base)) <= a_target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return [(1 - t) * b + t for b in base]


def _merge_radii_specs():
    yield MergeSpec(blocks=((0.5, 0.04, 0.01),), eps_rem=0.0, a0=0.5)  # k = 1
    yield MergeSpec(blocks=((0.4, 0.03, 0.0), (0.3, 0.02, 0.0)), eps_rem=0.0, a0=0.3)
    yield MergeSpec(
        blocks=((0.4, 0.03, 0.005), (0.35, 0.0, 0.0), (0.3, 0.02, 0.0)),
        eps_rem=0.01,
        a0=0.3,
    )
    rng = np.random.default_rng(203)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        a0 = rng.uniform(0.01, 0.2)
        blocks = []
        for _ in range(k):
            a = a0 + rng.uniform(0.0, 0.3)
            eps = rng.uniform(0.0, 0.05)
            x = rng.uniform(0.0, 1.0) * a * eps * float(rng.integers(0, 2))
            blocks.append((a, eps, x))
        yield MergeSpec(blocks=tuple(blocks), eps_rem=0.0, a0=a0)


def test_merge_radii_closed_form_matches_bisection():
    for spec in _merge_radii_specs():
        avals = [a for a, _, _ in spec.blocks]
        xvals = [x for _, _, x in spec.blocks]
        a_m, _, x_m = spec.merged()
        radii = _merge_radii(avals, xvals, a_m, x_m)
        reference = _bisected_radii(avals, xvals, a_m, x_m)
        for r, ref in zip(radii, reference):
            assert r == pytest.approx(ref, rel=1e-14)
        total = sum(a * r * r for a, r in zip(avals, radii))
        assert total == pytest.approx(a_m, rel=1e-14)


def test_merge_spec_validation():
    with pytest.raises(DomainError):
        MergeSpec(blocks=((0.2, 0.03, 0.001),), eps_rem=0.0, a0=0.3).validate()
    with pytest.raises(DomainError):
        MergeSpec(blocks=((0.4, 0.01, 0.04),), eps_rem=0.0, a0=0.3).validate()
    with pytest.raises(DomainError):
        MergeSpec(blocks=(), eps_rem=0.0, a0=0.3).validate()


# --------------------------------------------------------------- optimizer

def test_optimizer_zero_coherence():
    res = optimizer(0.1, 0.05, 0.0, 2, 1)
    assert res.value == 0.0
    assert np.all(res.state.b == 0.0)


def test_optimizer_reference_point():
    res = optimizer(0.1, 0.05, 0.02, 2, 1)
    assert res.value == pytest.approx(phi(0.85, 0.05, 0.02), abs=0)
    assert res.value == pytest.approx(0.07626029369006831, abs=1e-13)
    assert coherence_entropy(res.state) == pytest.approx(res.value, abs=1e-10)
    # feasibility of the minimizer
    assert np.linalg.eigvalsh(res.state.a)[0] >= 0.1 - 1e-12
    assert np.trace(res.state.c).real == pytest.approx(0.05, abs=1e-15)
    assert np.sum(np.abs(res.state.b) ** 2) == pytest.approx(0.02, abs=1e-15)


def test_optimizer_boundary_coherence():
    a_star = 1.0 - 0.05 - 0.1
    res = optimizer(0.1, 0.05, a_star * 0.05, 2, 2)
    assert res.a_star == a_star
    assert math.isfinite(res.value)
    active = np.array(
        [
            [res.state.a[0, 0], res.state.b[0, 0]],
            [np.conj(res.state.b[0, 0]), res.state.c[0, 0]],
        ]
    )
    assert np.linalg.eigvalsh(active)[0] == pytest.approx(0.0, abs=1e-15)


def test_optimizer_infeasible():
    with pytest.raises(InfeasibleError, match="floor"):
        optimizer(0.5, 0.05, 0.0, 3, 1)
    with pytest.raises(InfeasibleError, match="coherence"):
        optimizer(0.1, 0.05, 0.1, 2, 1)
    for d_p, d_q in [(0, 1), (1, 0)]:
        with pytest.raises(InfeasibleError, match="^dimensions must be >= 1$"):
            optimizer(0.1, 0.05, 0.0, d_p, d_q)
    for a0, eps, c in [(0.0, 0.05, 0.0), (-0.1, 0.05, 0.0), (0.1, -0.05, 0.0), (0.1, 0.05, -1.0)]:
        with pytest.raises(InfeasibleError, match=r"^need a0 > 0, eps >= 0, c >= 0$"):
            optimizer(a0, eps, c, 2, 1)


def test_equality_family_phase_invariance():
    base = optimizer(0.1, 0.05, 0.02, 2, 2).value
    for phase in (0.0, math.pi / 3, math.pi):
        s = equality_state(0.1, 0.05, 0.02, 2, 2, phase=phase)
        assert coherence_entropy(s) == pytest.approx(base, abs=1e-10)


# --------------------------------------------------------- variational check

def test_variational_trials_zero():
    res = variational_check(0.1, 0.05, 0.02, 2, 1, trials=0, seed=1)
    assert abs(res.gap) <= 1e-10


def test_variational_sweep():
    res = variational_check(0.1, 0.05, 0.02, 2, 2, trials=50, seed=11)
    assert res.min_found >= res.bound - 1e-9
    assert res.bound == pytest.approx(phi(0.85, 0.05, 0.02), abs=1e-14)


@pytest.mark.parametrize(
    "params, match",
    [((0.6, 0.05, 0.0, 2, 2), "floor"), ((0.1, 0.05, 0.9, 2, 2), "coherence")],
)
def test_sample_feasible_rejects_infeasible_parameters_before_drawing(params, match):
    # these once returned a state with lambda_min(A) = 0.475 < a0 = 0.6, and
    # ran 10,000 draws before giving up
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(InfeasibleError, match=match):
        sample_feasible(*params, rng)
    assert rng.bit_generator.state == before


def test_optimizer_checks_feasibility_once(monkeypatch):
    calls = []
    check = variational._optimizer_hypotheses

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(variational, "_optimizer_hypotheses", counted)
    result = optimizer(0.1, 0.05, 0.02, 2, 2)
    assert len(calls) == 1
    assert result.a_star == 1.0 - 0.05 - 0.1


def test_sample_feasible_hits_constraints(rng):
    s = sample_feasible(0.1, 0.05, 0.02, 2, 2, rng)
    assert np.linalg.eigvalsh(s.a)[0] >= 0.1 - 1e-12
    assert np.trace(s.c).real == pytest.approx(0.05, abs=1e-12)
    assert np.sum(np.abs(s.b) ** 2) == pytest.approx(0.02, abs=1e-12)
    assert np.linalg.eigvalsh(s.to_matrix())[0] >= -1e-12


# ---------------------------------------------------------------- pipeline

def test_pipeline_chain_on_random_states():
    for s in random_states(10, (2, 3), 220):
        floor = float(np.linalg.eigvalsh(s.a)[0])
        entropy, pinched_sum, merged = pipeline_values(s, floor)
        assert entropy >= pinched_sum - 1e-9
        assert pinched_sum >= merged - 1e-9
        assert merged >= -1e-15


def test_pipeline_merged_value_matches_optimizer():
    # sampled at fixed (a0, eps, c) the merged value is Phi(a*, eps, c) exactly
    rng = np.random.default_rng(203)
    a0, eps, c, dp, dq = 0.1, 0.05, 0.02, 2, 2
    a_star = 1.0 - eps - (dp - 1) * a0
    s = sample_feasible(a0, eps, c, dp, dq, rng)
    _, _, merged = pipeline_values(s, a0)
    assert merged == pytest.approx(phi(a_star, eps, c), abs=1e-12)


# ------------------------------------------------------------ modulus curve

def test_modulus_degenerate_top_row():
    rows = modulus_curve(0.9, 1.0, [0.9])
    assert len(rows) == 1
    assert math.isfinite(rows[0][1])


def test_modulus_asymptotic():
    a_star, tau = 0.9, 0.5
    (eps_q, val, _), = modulus_curve(a_star, tau, [1e-6])
    assert abs(val / (tau * eps_q * math.log(a_star / eps_q)) - 1.0) <= 0.15


def test_modulus_cost_per_coherence_increases():
    rows = modulus_curve(0.9, 0.5, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    per = [row[2] for row in rows]
    assert per == sorted(per)


def test_modulus_rejects_bad_tau():
    with pytest.raises(DomainError):
        modulus_curve(0.9, 0.0, [1e-3])
    with pytest.raises(DomainError):
        modulus_curve(0.9, 1.5, [1e-3])


# ---------------------------------------------------- stacked pipeline

def _dense_pipeline(state, a0, svd):
    """(pinched Phi-sum, merged Phi) through the dense svd_pinch and
    merge_channel, with the kernel sectors entering by their eigenvalues."""
    pinched = _svd_pinch(state, *svd)
    blocks = [(a, c, s * s) for a, c, s in pinched.channels]
    blocks += [(float(a), 0.0, 0.0) for a in pinched.kernel_a]
    eps_rem = float(np.sum(pinched.kernel_c)) if len(pinched.kernel_c) else 0.0
    spec = MergeSpec(blocks=tuple(blocks), eps_rem=eps_rem, a0=a0)
    return pinched.entropy(), merge_channel(spec).right_entropy


def _pipeline_states(dim_p, dim_q):
    """Ginibre and boundary states of one (d_p, d_q), plus states whose B has
    rank 0 and rank 1, so that one stack holds several numbers of channels."""
    states = []
    for seed in range(3):
        states.append(random_block_state(dim_p, dim_q, seed))
        states.append(
            random_block_state(
                dim_p, dim_q, seed, "boundary", a0=0.6 / dim_p, eps_q=0.2 / dim_p
            )
        )
    base = states[0]
    states.append(BlockState(dim_p, dim_q, base.a, np.zeros_like(base.b), base.c))
    rng = np.random.default_rng(dim_p * 10 + dim_q)
    psi = rng.standard_normal(dim_p + dim_q) + 1j * rng.standard_normal(dim_p + dim_q)
    psi /= np.linalg.norm(psi)
    rho = 0.5 * pinch(base) + 0.5 * np.outer(psi, psi.conj())
    states.append(block_decompose(rho, dim_p))
    return states


@pytest.mark.parametrize("dim_p", [1, 2, 3, 4])
@pytest.mark.parametrize("dim_q", [1, 2, 3, 4])
def test_stacked_pipeline_matches_dense_channels(dim_p, dim_q):
    states = _pipeline_states(dim_p, dim_q)
    stack = _stack(states)
    svd = np.linalg.svd(stack.b)
    a0 = np.linalg.eigvalsh(stack.a)[:, 0]
    pinched, merged = _pipeline(stack, a0, svd)
    channels = set()
    for k, state in enumerate(states):
        member_svd = [x[k] for x in svd]
        channels.add(int(np.sum(member_svd[1] > SV_CUTOFF)))
        ref_pinched, ref_merged = _dense_pipeline(state, float(a0[k]), member_svd)
        assert abs(pinched[k] - ref_pinched) <= 1e-15, (k, "pinched")
        assert abs(merged[k] - ref_merged) <= 1e-15, (k, "merged")
    assert 0 in channels and len(channels) >= 2  # a ragged stack


def _outcome(fn, *args):
    """The type of the CeboundError ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except CeboundError as exc:
        return type(exc)
    return None


def _scale_first(x, factor):
    x = np.array(x)
    x[..., 0] *= factor
    return x


@pytest.mark.parametrize("delta", [0.0, 1e-15, 1e-6, 1e-2])
def test_corrupted_unitary_factor_fails_both_checks_alike(delta):
    state = random_block_state(3, 2, 5)
    a0 = float(np.linalg.eigvalsh(state.a)[0])
    u, s, vh = np.linalg.svd(state.b)
    bad_u = (_scale_first(u, 1 + delta), s, vh)
    bad_v = (u, s, _scale_first(vh.T, 1 + delta).T)  # one row of V*
    for bad in (bad_u, bad_v):
        dense = _outcome(_dense_pipeline, state, a0, bad)
        stacked = _outcome(
            _pipeline, _stack([state]), np.array([a0]), [x[None] for x in bad]
        )
        assert dense is stacked
        assert dense is (NumericError if delta >= 1e-6 else None)


@pytest.mark.parametrize(
    "target, corrupt",
    [
        pytest.param("_merge_radii", lambda r, d: _scale_first(r, 1 + d), id="radius"),
        pytest.param("_merge_alphas", lambda z, d: _scale_first(z, 1 + d), id="modulus"),
        pytest.param(
            "_merge_alphas", lambda z, d: _scale_first(z, np.exp(1j * d)), id="phase"
        ),
    ],
)
@pytest.mark.parametrize("delta", [0.0, 1e-15, 1e-6, 0.5])
def test_corrupted_merge_fails_both_checks_alike(monkeypatch, target, corrupt, delta):
    # the radii and alphas come from the helpers both paths share; the checks
    # downstream of them are dense in merge_channel and structured in _pipeline
    states = [random_block_state(2, 2, 3), random_block_state(3, 3, 4)]
    original = getattr(variational, target)
    monkeypatch.setattr(
        variational, target, lambda *args: corrupt(original(*args), delta)
    )
    for state in states:
        a0 = float(np.linalg.eigvalsh(state.a)[0])
        svd = np.linalg.svd(state.b)
        dense = _outcome(_dense_pipeline, state, a0, svd)
        stacked = _outcome(
            _pipeline, _stack([state]), np.array([a0]), [x[None] for x in svd]
        )
        assert dense is stacked
        assert dense is (NumericError if delta >= 1e-6 else None)


def test_merge_output_entropy_check_bites(monkeypatch):
    # an output entropy off by more than MERGE_TOL (1 + Phi) fails the merge
    spectral = variational._spectral_entropy_terms
    monkeypatch.setattr(
        variational, "_spectral_entropy_terms", lambda *args: spectral(*args) + 1e-6
    )
    spec = MergeSpec(blocks=((0.4, 0.03, 0.005), (0.3, 0.02, 0.004)), eps_rem=0.0, a0=0.3)
    with pytest.raises(NumericError, match="output entropy does not equal Phi"):
        merge_channel(spec)


def test_merge_output_entropy_is_phi_of_the_active_block():
    # the spectators are diagonal in both the output and its pinching, so the
    # dense output entropy equals Phi of the 2x2 active block
    for spec in _merge_radii_specs():
        res = merge_channel(spec)
        k = len(spec.blocks)
        m_in = np.zeros((2 * k + 1,) * 2, dtype=complex)
        for j, (a, eps, x) in enumerate(spec.blocks):
            m_in[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [
                [a, math.sqrt(x)],
                [math.sqrt(x), eps],
            ]
        m_in[2 * k, 2 * k] = spec.eps_rem
        m_out = res.channel.apply(m_in)
        d_out = res.channel.apply(np.diag(np.diag(m_in)))
        spectators = m_out[2:, 2:]
        assert np.array_equal(spectators, np.diag(np.diag(spectators)))
        assert np.array_equal(spectators, d_out[2:, 2:])
        assert not np.any(m_out[:2, 2:])
        active = _phi(m_out[0, 0].real, m_out[1, 1].real, abs(m_out[0, 1]) ** 2)
        assert abs(entropy_terms(m_out, d_out) - active) <= 1e-14
