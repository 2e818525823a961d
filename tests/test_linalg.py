"""Hermitian core: validation, block decomposition, pinching, relative entropy."""

import gc
import inspect
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cebound import (
    BlockState,
    DomainError,
    InfeasibleError,
    OrbitConfig,
    PositivityError,
    ValidationError,
    block_decompose,
    bound_report,
    coherence_entropy,
    fidelity_bound,
    midpoint_margin,
    operator_bound,
    pinch,
    pipeline_values,
    pythagorean_residual,
    random_block_state,
    read_state_json,
    state_payload,
    two_level_pure,
    validate_density,
    validate_hermitian,
    write_state_json,
)
import cebound
import cebound.linalg
from cebound.twolevel import binary_entropy

from conftest import random_states
from oracles import relative_entropy


def test_validate_density_rejects_bad_trace_and_negativity():
    with pytest.raises(ValidationError):
        validate_density(np.diag([0.5, 0.6]))
    with pytest.raises(ValidationError):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_density_rejects_an_empty_matrix():
    # a typed error from the trace check, where an eigvalsh gate indexed an
    # empty spectrum and raised numpy's IndexError
    for check in (validate_density, lambda rho: block_decompose(rho, 0)):
        with pytest.raises(ValidationError, match=r"^rho has trace 0.0, expected 1$"):
            check(np.zeros((0, 0)))


def _state_with_lambda_min(d: int, lam: float, seed: int) -> np.ndarray:
    """A Hermitian unit-trace d x d matrix whose least eigenvalue is ``lam``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    w = rng.uniform(0.5, 1.5, d)
    w = np.concatenate(([lam], w[1:] * (1.0 - lam) / w[1:].sum()))
    rho = (q * w) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("d", [2, 8, 32, 64])
def test_psd_gate_on_both_sides_of_its_threshold(d):
    # the Cholesky of rho + PSD_TOL I accepts lambda_min = -0.9 PSD_TOL and
    # rejects -1.1 PSD_TOL, whose message still gives eigvalsh's lambda_min;
    # a Cholesky of rho alone would reject both
    validate_density(_state_with_lambda_min(d, -0.9 * cebound.linalg.PSD_TOL, d))
    rho = _state_with_lambda_min(d, -1.1 * cebound.linalg.PSD_TOL, d)
    with pytest.raises(ValidationError, match=r"not positive semidefinite: lambda_min = -1\.100e-12$"):
        validate_density(rho)


def test_validate_hermitian_rejects_non_finite():
    with pytest.raises(ValidationError):
        validate_hermitian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_validate_hermitian_rejects_non_square():
    with pytest.raises(ValidationError, match=r"must be square, got shape \(2, 3\)"):
        validate_hermitian(np.zeros((2, 3)))


def test_validate_hermitian_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="not Hermitian"):
        validate_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --------------------------------------------------- block decomposition

def test_block_decompose_diagonal():
    s = block_decompose(np.diag([0.6, 0.4]), 1)
    assert s.a[0, 0] == 0.6
    assert s.b[0, 0] == 0.0
    assert s.c[0, 0] == 0.4


def test_block_decompose_two_level_pure():
    s = two_level_pure(0.25)
    assert s.a[0, 0].real == pytest.approx(0.75, abs=0)
    assert s.b[0, 0].real == pytest.approx(math.sqrt(0.1875), abs=1e-16)
    assert s.c[0, 0].real == pytest.approx(0.25, abs=0)
    # same state through block_decompose
    s2 = block_decompose(s.to_matrix(), 1)
    assert np.array_equal(s2.to_matrix(), s.to_matrix())


def test_block_decompose_round_trip_exact():
    state = random_block_state(2, 2, 7)
    rho = state.to_matrix()
    again = block_decompose(rho, 2)
    assert np.array_equal(again.to_matrix(), rho)


def test_block_decompose_bad_dim():
    with pytest.raises(DomainError):
        block_decompose(np.diag([0.6, 0.4]), 2)


_STATE_FUNCTIONS = {
    "bound_report": bound_report,
    "coherence_entropy": coherence_entropy,
    "OrbitConfig": lambda s: OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=2),
    "midpoint_margin": lambda s: midpoint_margin(s, [0.5]),
    "pipeline_values": lambda s: pipeline_values(s, 0.1),
    "operator_bound": operator_bound,
    "fidelity_bound": fidelity_bound,
    "pythagorean_residual": lambda s: pythagorean_residual(s, np.eye(5) / 5),
    "state_payload": state_payload,
}


@pytest.mark.parametrize("name", sorted(_STATE_FUNCTIONS))
@pytest.mark.parametrize("dims, shapes, block", [
    ((2, 2), ((3, 3), (2, 2), (2, 2)), "A"),
    ((2, 2), ((2, 2), (2, 3), (2, 2)), "B"),
    ((2, 3), ((2, 2), (2, 2), (2, 2)), "B"),
], ids=["a-3x3-for-dim-p-2", "b-2x3-for-dim-q-2", "dim-q-3-with-2x2-blocks"])
def test_block_state_rejects_inconsistent_blocks(dims, shapes, block, name):
    a, b, c = (np.eye(*shape, dtype=complex) / 4 for shape in shapes)
    with pytest.raises(ValidationError, match=f"block {block} has shape"):
        _STATE_FUNCTIONS[name](BlockState(*dims, a, b, c))


def test_block_state_checks_dims_and_stack_shape():
    s = random_block_state(2, 2, 1)
    with pytest.raises(DomainError, match=r"dim_p and dim_q must be >= 1"):
        BlockState(0, 2, s.a[:0, :0], s.b[:0], s.c)
    a, b, c = (np.stack([x, x]) for x in (s.a, s.b, s.c))
    with pytest.raises(ValidationError, match=r"block B has shape \(2, 2\), not \(2, 2, 2\)"):
        BlockState(2, 2, a, s.b, c)
    assert np.array_equal(BlockState(2, 2, a, b, c).to_matrix()[1], s.to_matrix())


# --------------------------------------- the one check of a state's blocks

_STRUCTURAL = {"pinch", "state_payload"}  # they read no entry of a block
_OTHER_ARGS = {
    "t_grid": [0.5], "tags": ("bkm",), "tag": "bkm", "a0": 0.1, "sigma": np.eye(4) / 4,
    "gamma": 1.0, "t_max": 1.0, "steps": 2,
}


def _public_state_functions():
    """{name: call on a state} for every cebound export whose first parameter
    is annotated BlockState, less the structural ones, plus the functions of
    (A, C, B)."""
    found = {}
    for name, obj in vars(cebound).items():
        if name.startswith("_") or name in _STRUCTURAL or not callable(obj):
            continue
        try:
            first, *rest = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # no signature, or no parameters
            continue
        if first.annotation in (BlockState, "BlockState"):
            others = {p.name: _OTHER_ARGS[p.name] for p in rest if p.default is p.empty}
            found[name] = lambda s, f=obj, kw=others: f(s, **kw)
    for name in ("bkm_apply", "bkm_form", "channel_weights"):
        found[name] = lambda s, f=getattr(cebound, name): f(s.a, s.c, s.b)
    return found


_CHECKED = _public_state_functions()


def _spoiled(block):
    s = random_block_state(2, 2, 5)
    a, b, c = s.a.copy(), s.b.copy(), s.c.copy()
    if block == "A":
        a[0, 1] += 0.1
    else:
        {"B": b, "C": c}[block][0, 0] = np.nan
    return BlockState(2, 2, a, b, c)


def test_the_sweep_finds_the_public_functions_of_a_state():
    assert set(_CHECKED) >= {
        "OrbitConfig", "bkm_apply", "bkm_form", "bound_report", "channel_weights",
        "coherence_entropy", "fidelity_bound", "log_boundary_bound", "midpoint_margin",
        "midpoint_margins", "operator_bound", "petz_midpoint_margin", "pinsker_bound",
        "pipeline_values", "pythagorean_residual", "svd_pinch",
    }


@pytest.mark.parametrize("name", sorted(_CHECKED))
@pytest.mark.parametrize("block, message", [
    ("B", "B has non-finite entries"),
    ("C", "C has non-finite entries"),
    ("A", "A is not Hermitian"),
], ids=["nan-in-b", "nan-in-c", "non-hermitian-a"])
def test_every_public_state_function_checks_the_blocks_first(name, block, message, lapack_calls):
    # one entry checks A, C and B before any LAPACK call; before it, a NaN in B
    # gave numpy's LinAlgError in eight of these and a silent nan or None in two
    state = _spoiled(block)
    lapack_calls.clear()
    with pytest.raises(ValidationError, match=message):
        _CHECKED[name](state)
    assert sum(lapack_calls.values()) == 0


# ------------------------------------------------------------- pinching

def test_pinch_block_diagonal_is_identity():
    s = BlockState(
        dim_p=1,
        dim_q=1,
        a=np.array([[0.6]], dtype=complex),
        b=np.zeros((1, 1), dtype=complex),
        c=np.array([[0.4]], dtype=complex),
    )
    assert np.array_equal(pinch(s), s.to_matrix())


def test_pinch_two_level():
    assert np.allclose(pinch(two_level_pure(0.25)), np.diag([0.75, 0.25]))


def test_pinch_off_blocks_zero_and_idempotent():
    s = random_block_state(3, 2, 11)
    m = pinch(s)
    assert np.all(m[:3, 3:] == 0) and np.all(m[3:, :3] == 0)
    assert np.array_equal(pinch(block_decompose(m, 3)), m)


# --------------------------------------------------------- support model

def test_support_cut_is_relative_per_member():
    from cebound.linalg import SUPPORT_TOL, _support

    # cuts SUPPORT_TOL (1 + 1) and SUPPORT_TOL (1 + 1.5e-12): the same 1.5e-12
    # is cut in the first member and kept in the second
    w = np.array([[-1e-17, 1.5 * SUPPORT_TOL, 1.0], [1e-300, 0.5e-12, 1.5e-12]])
    assert _support(w).tolist() == [[False, False, True], [False, False, True]]


def test_trace_log_meets_log_zero_with_the_sign_of_the_kernel_mass():
    from cebound.linalg import _trace_log

    w, v = np.array([1e-17, 0.4, 0.6]), np.eye(3)
    on_support = np.diag([1e-11, 0.3, 0.7])  # kernel weight below SUPPORT_MASS_TOL
    expected = 0.3 * math.log(0.4) + 0.7 * math.log(0.6)
    assert _trace_log(on_support, w, v) == pytest.approx(expected, rel=1e-15)
    psd = np.diag([0.1, 0.2, 0.7])
    assert _trace_log(psd, w, v) == -np.inf
    assert _trace_log(-psd, w, v) == np.inf
    stacked = _trace_log(np.stack([on_support, psd, -psd]), np.stack([w] * 3), v)
    assert stacked[0] == pytest.approx(expected, rel=1e-15)
    assert stacked[1:].tolist() == [-np.inf, np.inf]


# ----------------------------------------------------- relative entropy

def test_relative_entropy_self_is_zero():
    rho = random_block_state(2, 2, 3).to_matrix()
    assert abs(relative_entropy(rho, rho)) <= 1e-12


def test_relative_entropy_pure_vs_pinched_is_binary_entropy():
    s = two_level_pure(0.25)
    d = relative_entropy(s.to_matrix(), pinch(s))
    assert d == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert d == pytest.approx(0.5623351446188083, abs=1e-12)


def test_relative_entropy_pure_vs_maximally_mixed():
    for d in (2, 3, 4):
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        assert relative_entropy(rho, np.eye(d) / d) == pytest.approx(
            math.log(d), abs=1e-12
        )


def test_relative_entropy_support_mismatch_is_infinite():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_matches_matrix_logarithms(rng):
    def logm(h):
        w, v = np.linalg.eigh(h)
        return (v * np.log(w)) @ v.conj().T

    for _ in range(10):
        rho = random_block_state(3, 2, int(rng.integers(1 << 30))).to_matrix()
        sigma = random_block_state(3, 2, int(rng.integers(1 << 30))).to_matrix()
        expected = float(np.trace(rho @ (logm(rho) - logm(sigma))).real)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(DomainError):
        relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_relative_entropy_nonnegative_random(rng):
    for _ in range(20):
        rho = random_block_state(2, 2, int(rng.integers(1 << 30))).to_matrix()
        sig = random_block_state(2, 2, int(rng.integers(1 << 30))).to_matrix()
        assert relative_entropy(rho, sig) >= -1e-12


def test_joint_convexity():
    for seed in range(10):
        r1 = random_block_state(2, 1, 100 + seed).to_matrix()
        r2 = random_block_state(2, 1, 200 + seed).to_matrix()
        s1 = random_block_state(2, 1, 300 + seed).to_matrix()
        s2 = random_block_state(2, 1, 400 + seed).to_matrix()
        for t in (0.25, 0.5, 0.75):
            lhs = relative_entropy(t * r1 + (1 - t) * r2, t * s1 + (1 - t) * s2)
            rhs = t * relative_entropy(r1, s1) + (1 - t) * relative_entropy(r2, s2)
            assert lhs <= rhs + 1e-9


def test_data_processing_under_pinching():
    for seed in range(10):
        sr = random_block_state(2, 2, 500 + seed)
        ss = random_block_state(2, 2, 600 + seed)
        full = relative_entropy(sr.to_matrix(), ss.to_matrix())
        pinched = relative_entropy(pinch(sr), pinch(ss))
        assert full >= pinched - 1e-9


# ----------------------------------------------------- coherence entropy

def _mp_xlogx_sum(h):
    """Tr[H log H] at 50 digits for a Hermitian double matrix H (0 log 0 = 0)."""
    from mpmath import mp

    w = mp.eighe(mp.matrix(np.asarray(h).tolist()), eigvals_only=True)
    return sum((lam * mp.log(lam) for lam in w if lam > 0), mp.mpf(0))


@pytest.mark.parametrize("ensemble", ["ginibre", "boundary"])
def test_coherence_entropy_matches_mpmath(ensemble):
    from mpmath import workdps

    with workdps(50):
        for dp in range(1, 5):
            for dq in range(1, 5):
                kwargs = {}
                if ensemble == "boundary":
                    kwargs = {"a0": 0.6 / dp, "eps_q": 0.2 / dp}
                s = random_block_state(dp, dq, 7 * dp + dq, ensemble, **kwargs)
                exact = (
                    _mp_xlogx_sum(s.to_matrix())
                    - _mp_xlogx_sum(s.a)
                    - _mp_xlogx_sum(s.c)
                )
                assert abs(coherence_entropy(s) - float(exact)) <= 1e-14, (dp, dq)


def test_coherence_entropy_is_the_bound_report_entropy_bit_for_bit():
    # both take the eigenvalues of A and C from the block spectra; with
    # eigvalsh of A and C instead, 387 of these 2,016 states got a D apart
    # from the report's by up to 1.2e-14 relative
    for dp, dq, seed in itertools.product(range(1, 5), range(1, 5), range(63)):
        for s in (
            random_block_state(dp, dq, seed),
            random_block_state(dp, dq, seed, "boundary", a0=0.6 / dp, eps_q=0.2 / dp),
        ):
            assert coherence_entropy(s) == bound_report(s).entropy, (dp, dq, seed)


# ------------------------------------------------- Pythagorean identity

def test_pythagorean_sigma_equals_pinch():
    s = random_block_state(2, 2, 21)
    assert abs(pythagorean_residual(s, pinch(s))) <= 1e-12


def test_pythagorean_random_sigma():
    s = random_block_state(2, 2, 22)
    sigma = pinch(random_block_state(2, 2, 23))
    assert abs(pythagorean_residual(s, sigma)) <= 1e-9


def test_pythagorean_block_diagonal_rho():
    s = random_block_state(2, 2, 24)
    flat = block_decompose(pinch(s), 2)
    sigma = pinch(random_block_state(2, 2, 25))
    assert abs(pythagorean_residual(flat, sigma)) <= 1e-10


def test_pythagorean_rejects_non_block_sigma():
    s = random_block_state(2, 2, 26)
    with pytest.raises(DomainError):
        pythagorean_residual(s, random_block_state(2, 2, 27).to_matrix())


def test_pythagorean_rejects_sigma_of_another_size():
    s = random_block_state(2, 2, 26)
    with pytest.raises(DomainError, match="sigma dimension does not match the state"):
        pythagorean_residual(s, np.eye(3) / 3)


# ------------------------------------------------------- random states

def test_random_state_deterministic():
    a = random_block_state(2, 2, 5)
    b = random_block_state(2, 2, 5)
    assert np.array_equal(a.to_matrix(), b.to_matrix())


def test_random_state_ginibre_valid():
    for seed in range(5):
        rho = random_block_state(2, 2, seed).to_matrix()
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


def test_random_state_boundary_constraints():
    s = random_block_state(2, 2, 9, "boundary", a0=0.2, eps_q=0.05)
    assert np.linalg.eigvalsh(s.a)[0] >= 0.2 - 1e-10
    assert np.trace(s.c).real == pytest.approx(0.05, abs=1e-12)
    assert np.linalg.eigvalsh(s.to_matrix())[0] >= -1e-12


def test_random_state_boundary_needs_a0_and_eps_q():
    for kwargs in ({}, {"a0": 0.1}, {"eps_q": 0.05}):
        with pytest.raises(DomainError, match="requires a0 and eps_q"):
            random_block_state(2, 2, 9, "boundary", **kwargs)


def test_random_state_rejects_a_negative_seed(monkeypatch):
    # a typed error before any draw, not numpy's ValueError from SeedSequence
    def draw(*args):
        raise AssertionError("drew a state for a negative seed")

    monkeypatch.setattr(cebound.linalg, "_ginibre_draw", draw)
    for ensemble in ("ginibre", "boundary"):
        with pytest.raises(DomainError, match="seed must be >= 0, got -3"):
            random_block_state(1, 1, -3, ensemble, a0=0.1, eps_q=0.1)


def test_random_state_boundary_infeasible():
    with pytest.raises(InfeasibleError):
        random_block_state(2, 2, 9, "boundary", a0=0.6, eps_q=0.05)


@pytest.mark.parametrize("dims", [(1, 1), (1, 3), (2, 3), (3, 2), (4, 4), (8, 5)])
def test_random_state_boundary_floor_and_maximal_coherence(dims):
    dp, dq = dims
    a0 = 0.6 / dp
    for seed in range(5):
        s = random_block_state(dp, dq, 900 + seed, "boundary", a0=a0, eps_q=0.2 / dp)
        assert np.linalg.eigvalsh(s.a)[0] >= a0 - 1e-12
        assert np.linalg.eigvalsh(s.to_matrix())[0] >= -1e-12
        wider = BlockState(dim_p=dp, dim_q=dq, a=s.a, b=(1.0 + 1e-9) * s.b, c=s.c)
        assert np.linalg.eigvalsh(wider.to_matrix())[0] < -1e-13


def test_random_state_boundary_singular_block_is_typed_error(monkeypatch):
    # a pure 4x4 draw makes A and C rank one; with a0 = 0 the mix lifts A only
    # to a rounding-level floor, so the largest PSD scale of B is undefined and
    # the sampler raises the positivity gate's error
    psi = np.array([0.5, 0.5j, -0.5, 0.5])
    monkeypatch.setattr(
        cebound.linalg, "_ginibre_density", lambda g: np.outer(psi, psi.conj())
    )
    with pytest.raises(PositivityError, match="^A must be positive definite, lambda_min = "):
        random_block_state(2, 2, 1, "boundary", a0=0.0, eps_q=0.1)


def test_frobenius_matches_norm_bit_for_bit(rng):
    # the boundary sampler normalises each B of a stack by _frobenius: every
    # member equals np.linalg.norm of that member alone, bit for bit, also at
    # sizes where numpy's own stacked norm (norm(x, axis=(-2, -1))) differs
    for shape in [(1, 1), (3, 5), (8, 8), (17, 64), (32, 32), (64, 64)]:
        x = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
        got = cebound.linalg._frobenius(x)
        assert [float(v) for v in got] == [np.linalg.norm(m) for m in x], shape


@pytest.mark.parametrize("dims", [(0, 2), (2, 0), (-1, 1)])
def test_random_state_rejects_a_dimension_below_one(dims):
    with pytest.raises(DomainError, match="dimensions must be >= 1"):
        random_block_state(*dims, 3)


def test_random_state_bad_ensemble():
    with pytest.raises(DomainError):
        random_block_state(2, 2, 9, "uniform")


def test_random_states_all_valid():
    for s in random_states(25, (1, 2, 3, 4), 77):
        rho = s.to_matrix()
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        assert abs(np.trace(rho).real - 1.0) <= 1e-12


# ------------------------------------------------------- serialization

def test_state_json_round_trip(tmp_path):
    s = random_block_state(2, 3, 31)
    path = tmp_path / "state.json"
    write_state_json(path, s)
    back = read_state_json(path)
    assert back.dim_p == 2 and back.dim_q == 3
    assert np.array_equal(back.to_matrix(), s.to_matrix())


GOLDEN_STATE = pathlib.Path(__file__).parent / "golden" / "boundary_3_2.json"


def _reference_state_bytes(state) -> bytes:
    """A state file as orjson encodes the per-entry [re, im] pairs as Python floats."""
    matrix = [[[z.real, z.imag] for z in row] for row in state.to_matrix().tolist()]
    return orjson.dumps({"dim_p": state.dim_p, "dim_q": state.dim_q, "matrix": matrix})


def _parsed_matrix_bytes(path, loads=json.loads) -> bytes:
    """The matrix of a state file parsed by ``loads`` (the stdlib json by
    default), as complex128 bytes."""
    pairs = np.array(loads(path.read_bytes())["matrix"], dtype=float)
    return np.ascontiguousarray(pairs).view(complex)[..., 0].tobytes()


def _writer_states():
    yield pytest.param(read_state_json(GOLDEN_STATE), id="golden")
    for dim_p, dim_q in ((1, 1), (2, 3), (8, 5), (32, 32)):
        yield pytest.param(random_block_state(dim_p, dim_q, 17), id=f"ginibre-{dim_p}-{dim_q}")
        boundary = random_block_state(
            dim_p, dim_q, 17, "boundary", a0=0.6 / dim_p, eps_q=0.2 / dim_p
        )
        yield pytest.param(boundary, id=f"boundary-{dim_p}-{dim_q}")
    # a hand-written 1+1 diagonal state whose imaginary parts are -0.0
    signed_zeros = BlockState(
        dim_p=1,
        dim_q=1,
        a=np.array([[complex(0.25, -0.0)]]),
        b=np.array([[complex(0.0, -0.0)]]),
        c=np.array([[complex(0.75, -0.0)]]),
    )
    yield pytest.param(signed_zeros, id="signed-zeros-1-1")


@pytest.mark.parametrize("state", list(_writer_states()))
def test_state_file_bytes_and_round_trip(tmp_path, state):
    # one orjson pass over the float view writes what orjson writes for the
    # per-entry pairs, byte for byte; reading the file, with the reader or the
    # stdlib json, gives the blocks back bit for bit, signed zeros included
    # (np.array_equal would take -0.0 for 0.0)
    path = tmp_path / "state.json"
    write_state_json(path, state)
    assert path.read_bytes() == _reference_state_bytes(state)
    back = read_state_json(path)
    assert (back.dim_p, back.dim_q) == (state.dim_p, state.dim_q)
    for got, want in ((back.a, state.a), (back.b, state.b), (back.c, state.c)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert _parsed_matrix_bytes(path) == state.to_matrix().tobytes()


def test_state_file_bytes_of_extreme_floats(tmp_path):
    # signed zeros, the least subnormal and entries near both ends of the float
    # range are written in orjson's shortest round-trip notation, and the
    # stdlib json parses them to the same bits (the state is not a density
    # matrix, so read_state_json would refuse it)
    state = BlockState(
        dim_p=1,
        dim_q=2,
        a=np.array([[complex(1e300, -0.0)]]),
        b=np.array([[complex(5e-324, 1e-300), complex(-0.0, 5e-324)]]),
        c=np.array([[complex(-0.0, -0.0), complex(1e-300, -1e300)],
                    [complex(1e-300, 1e300), complex(-1e-300, 0.0)]]),
    )
    path = tmp_path / "state.json"
    write_state_json(path, state)
    text = path.read_text()
    assert text.encode() == _reference_state_bytes(state)
    for literal in ("-0.0", "5e-324", "1e-300", "1e300"):
        assert literal in text
    assert "1e+300" not in text and " " not in text and not text.endswith("\n")
    assert _parsed_matrix_bytes(path) == state.to_matrix().tobytes()


def test_state_file_of_real_blocks(tmp_path):
    # blocks of a real dtype are written as [re, 0.0] pairs, not as bare floats
    state = BlockState(1, 1, np.array([[0.75]]), np.array([[0.25]]), np.array([[0.25]]))
    path = tmp_path / "state.json"
    write_state_json(path, state)
    assert path.read_bytes() == _reference_state_bytes(state)
    assert read_state_json(path).b.tobytes() == np.array([[0.25 + 0j]]).tobytes()


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda n: np.array(n, dtype=np.uint64).view(np.float64).item()
).filter(math.isfinite)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _BIT_PATTERNS),
                min_size=18, max_size=18))
@example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e-300, 0.1, 1.0,
          1e16, 1e-7, 123456789.0, 0.00001, -1e22, 1e21])
def test_state_file_floats_round_trip_bit_for_bit(tmp_path_factory, floats):
    # any finite float64 (subnormals, signed zeros and +-max included) parses
    # back to its own bits, through orjson as read_state_json parses and
    # through the stdlib json
    m = np.array(floats).view(complex).reshape(3, 3)
    state = BlockState(dim_p=1, dim_q=2, a=m[:1, :1], b=m[:1, 1:], c=m[1:, 1:])
    want = state.to_matrix().tobytes()
    path = tmp_path_factory.mktemp("floats") / "state.json"
    write_state_json(path, state)
    for loads in (orjson.loads, json.loads):
        assert _parsed_matrix_bytes(path, loads) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_state_file_writer_refuses_non_finite_entries(tmp_path, bad, part):
    # a NaN was written as a NaN literal that read_state_json refuses, and
    # orjson alone would write null: the writer raises and leaves no file
    z = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    state = BlockState(dim_p=1, dim_q=1, a=np.array([[0.5 + 0j]]), b=np.array([[z]]),
                       c=np.array([[0.5 + 0j]]))
    path = tmp_path / "state.json"
    with pytest.raises(ValidationError, match="non-finite"):
        write_state_json(path, state)
    assert not path.exists()


def test_golden_state_file_rewrites_to_its_bytes(tmp_path):
    path = tmp_path / "state.json"
    write_state_json(path, read_state_json(GOLDEN_STATE))
    assert path.read_bytes() == GOLDEN_STATE.read_bytes()


def test_importing_the_cli_leaves_orjson_unloaded():
    # only read_state_json needs orjson; verify reads no state file, so its
    # start-up imports numpy and nothing more
    code = "import sys, cebound, cebound.cli; print('orjson' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cebound.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_state_json_rejects_non_psd(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"dim_p": 1, "dim_q": 1, "matrix": '
        '[[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}'
    )
    with pytest.raises(ValidationError):
        read_state_json(path)


def test_state_json_rejects_wrong_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim_p": 2, "dim_q": 1, "matrix": [[[1, 0]]]}')
    with pytest.raises(ValidationError):
        read_state_json(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"dim_p": 1, "dim_q": 1, "matrix": ',
        '{"dim_p": "x", "dim_q": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[0.5, 0], [0, 0.5]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [["0.5", "0"], ["0", "0.5"]]}',
        '{"dim_p": 1.7, "dim_q": 1.6, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"dim_p": true, "dim_q": 1, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[[0.5, 0], [0, null]], [[0, 0], [0.5, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[[0.5, 0], [0, 0]], [[0.5, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[[0.5, 0, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[[1e400, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        b'{"dim_p": 1, "dim_q": 1, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "\xff": 0}',
    ],
    ids=["not-json", "string-dim", "numbers-for-pairs", "string-entries",
         "fractional-dim", "bool-dim", "string-in-pair", "null-entry", "ragged-row",
         "three-element-pair", "nan-literal", "overflowing-literal", "not-utf8"],
)
def test_state_json_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValidationError):
        read_state_json(path)


@pytest.mark.parametrize("text", [
    None,
    '{"dim_p": 1, "dim_q": 1, "matrix": ',
    '{"dim_p": 2, "dim_q": 1, "matrix": [[[1, 0]]]}',
], ids=["good", "not-json", "wrong-shape"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_state_read_leaves_the_collector_as_it_found_it(tmp_path, text, enabled):
    # the read pauses the cyclic GC over the parse, so the 32+32 file's 4,160
    # lists set off no collection, and turns it back on only if it was on
    path = tmp_path / "state.json"
    if text is None:
        write_state_json(path, random_block_state(32, 32, 3, "boundary", a0=0.6 / 32, eps_q=0.2 / 32))
    else:
        path.write_text(text)
    collections = []
    on_gc = lambda phase, info: collections.append(info["generation"]) if phase == "start" else None
    was_enabled = gc.isenabled()
    gc.collect()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(on_gc)
    try:
        if text is None:
            read_state_json(path)
        else:
            with pytest.raises(ValidationError):
                read_state_json(path)
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(on_gc)
        (gc.enable if was_enabled else gc.disable)()
    assert collections == []


# ------------------------------------------------------ property tests

@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.499999))
def test_two_level_pure_is_pure_and_valid(q):
    rho = two_level_pure(q).to_matrix()
    w = np.linalg.eigvalsh(rho)
    assert w[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
