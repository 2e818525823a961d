"""BKM kernel, quadratic form, quadrature oracle, midpoint margins, Petz metrics."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cebound import (
    DomainError,
    PositivityError,
    ValidationError,
    bkm_apply,
    bkm_form,
    bkm_hessian,
    channel_weights,
    coherence_entropy,
    log_mean_kernel,
    midpoint_margin,
    midpoint_margins,
    petz_form,
    petz_midpoint_margin,
    random_block_state,
    sharpness_family,
    two_level_pure,
)
from cebound.bkm import PETZ_FUNCTIONS, _form, _rotate
from cebound.linalg import pinch

from conftest import random_states
from oracles import bkm_quadrature

positive = st.floats(min_value=1e-8, max_value=1e4)


def random_pd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T + 0.1 * np.eye(d)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------- kernel

def test_kernel_equal_arguments():
    assert log_mean_kernel(0.5, 0.5) == pytest.approx(2.0, abs=1e-14)


def test_kernel_unit_log_ratio():
    t = 0.1
    assert log_mean_kernel(math.e * t, t) == pytest.approx(
        1.0 / (t * (math.e - 1.0)), rel=1e-14
    )


def test_kernel_direct_value():
    assert log_mean_kernel(0.75, 0.25) == pytest.approx(
        2.1972245773362196, abs=1e-14
    )
    assert log_mean_kernel(0.75, 0.25) == pytest.approx(
        math.log(3.0) / 0.5, rel=1e-15
    )


def test_kernel_rejects_nonpositive():
    # NaN and inf once returned nan silently
    for a, c in [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError, match="needs finite positive arguments"):
            log_mean_kernel(a, c)


def test_kernel_where_the_relative_gap_overflows():
    # (hi - lo)/lo overflows at (1e308, 1e-308): the kernel returned inf with a
    # RuntimeWarning; log hi - log lo gives 1418.17.../1e308
    from mpmath import log as mplog, mpf, workdps

    with workdps(50):
        exact = float((mplog(mpf(1e308)) - mplog(mpf(1e-308))) / (mpf(1e308) - mpf(1e-308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_mean_kernel(1e308, 1e-308) == pytest.approx(exact, rel=1e-15)
        assert log_mean_kernel(1e-308, 1e308) == log_mean_kernel(1e308, 1e-308)
    assert exact == pytest.approx(1.418e-305, rel=1e-3)


@settings(max_examples=100, deadline=None)
@given(positive, positive)
def test_kernel_symmetric(a, c):
    assert log_mean_kernel(a, c) == log_mean_kernel(c, a)


@settings(max_examples=100, deadline=None)
@given(positive, positive)
def test_kernel_logarithmic_mean_between_min_and_arithmetic(a, c):
    mean = 1.0 / log_mean_kernel(a, c)
    assert min(a, c) <= mean + 1e-12 * (1 + mean)
    assert mean <= (a + c) / 2.0 + 1e-12 * (1 + mean)


def test_kernel_near_equal_arguments_match_log1p_reference():
    # one log1p formula at every gap, with no switch: near a = c the gap a - c
    # is exact, so nothing cancels
    a = 1.0
    for delta in (1e-9, 1e-8, 3e-8, 1e-7):
        exact = -math.log1p(-delta / a) / delta  # cancellation-free reference
        assert log_mean_kernel(a, a - delta) == pytest.approx(exact, rel=1e-14)


def test_kernel_matches_mpmath_across_relative_gaps():
    # gaps of 1 to 7 ulps and relative gaps from 1e-15 up, where a series once
    # stood in for log1p, as well as 1e-12 to 1e-1.  With log(a/c) in place of
    # log1p the error at a 1-ulp gap is about 0.6 relative
    from mpmath import log as mplog, mpf, workdps

    worst = 0.0
    gaps = np.concatenate((np.logspace(-15, -13, 9), np.logspace(-12, -1, 45)))
    with workdps(50):
        for base in (1e-12, 1e-6, 3e-3, 0.2, 1.0, 7.5e2):
            ulp = np.spacing(base)
            pairs = [(base, base * (1.0 - gap)) for gap in gaps]
            pairs += [(base * (1.0 + gap), base) for gap in gaps]
            pairs += [(base + k * ulp, base) for k in (1, 2, 3, 7)]
            pairs += [(base, base - k * ulp) for k in (1, 2, 3, 7)]
            for a, c in pairs:
                assert a != c
                exact = mplog(mpf(a) / mpf(c)) / (mpf(a) - mpf(c))
                rel = abs((log_mean_kernel(a, c) - exact) / exact)
                worst = max(worst, float(rel))
    assert worst <= 1e-14


def test_scalar_midpoint_kernel_inequality():
    # (1+u)^-2 + (1-u)^-2 >= 2 on a grid in (-1, 1)
    for u in np.linspace(-0.99, 0.99, 199):
        assert (1 + u) ** -2 + (1 - u) ** -2 >= 2.0 - 1e-15


# ------------------------------------------------------------- bkm_apply

def test_bkm_apply_zero():
    out = bkm_apply(np.eye(2) * 0.3, np.eye(2) * 0.7, np.zeros((2, 2)))
    assert np.all(out == 0)


def test_bkm_apply_scalar_blocks():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    out = bkm_apply(0.3 * np.eye(2), 0.7 * np.eye(3), b)
    assert np.allclose(out, log_mean_kernel(0.3, 0.7) * b, atol=1e-14)


def test_bkm_apply_linear_in_b():
    rng = np.random.default_rng(2)
    a, c = random_pd(rng, 2), random_pd(rng, 2)
    b1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = bkm_apply(a, c, 2.0 * b1 - 0.5j * b2)
    rhs = 2.0 * bkm_apply(a, c, b1) - 0.5j * bkm_apply(a, c, b2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_bkm_apply_rejects_singular():
    # A singular A is in the domain, over its support: Omega^{-1}(B) = B L(1, 1)
    # for B on that support, and a weight of 1e-12 <= SUPPORT_MASS_TOL on ker A
    # is dropped.  B = ones has weight on ker A, which no state has
    a = np.diag([1.0, 0.0])
    b = np.array([[0.5], [0.0]])
    assert np.array_equal(bkm_apply(a, np.eye(1), b), b)
    assert np.array_equal(bkm_apply(a, np.eye(1), b + [[0.0], [1e-6]]), b)
    with pytest.raises(DomainError, match="off the supports of A and C"):
        bkm_apply(a, np.eye(1), np.ones((2, 1)))


@pytest.mark.parametrize("func", [bkm_form, bkm_apply], ids=lambda f: f.__name__)
def test_blocks_of_no_state_are_typed_errors(func):
    # (A, C, B) that are not the blocks of a state: B with weight on ker A, and
    # an indefinite A.  report cannot reach either, as validate_density runs
    # first (tests/test_cli.py)
    message = r"^B has weight \|B~_ij\|\^2 = 1\.000e\+00 off the supports of A and C$"
    with pytest.raises(DomainError, match=message) as info:
        func(np.diag([1.0, 0.0]), np.eye(1), np.ones((2, 1)))
    assert not isinstance(info.value, PositivityError)
    message = "^A must be positive semidefinite, lambda_min = -1.000e-01$"
    with pytest.raises(PositivityError, match=message):
        func(np.diag([1.0, -0.1]), np.eye(1), np.zeros((2, 1)))


@pytest.mark.parametrize(
    "func", [bkm_form, bkm_apply, channel_weights, bkm_quadrature], ids=lambda f: f.__name__
)
def test_bad_b_is_a_validation_error(func):
    # B must be d_A x d_C and finite: a mis-shaped B raised numpy's untyped
    # ValueError, and a NaN in B made bkm_form return nan
    a, c = 0.6 * np.eye(2), 0.4 * np.eye(3)
    with pytest.raises(ValidationError, match=r"B must have shape \(2, 3\), got \(3, 2\)"):
        func(a, c, np.ones((3, 2)))
    b = np.ones((2, 3), dtype=complex)
    b[1, 2] = complex(0.0, np.nan)
    with pytest.raises(ValidationError, match="B has non-finite entries"):
        func(a, c, b)


# -------------------------------------------------------------- bkm_form

def test_bkm_form_zero():
    assert bkm_form(np.eye(2) * 0.5, np.eye(1), np.zeros((2, 1))) == 0.0


def test_bkm_form_two_level():
    s = two_level_pure(0.25)
    val = bkm_form(s.a, s.c, s.b)
    assert val == pytest.approx(0.1875 * math.log(3.0) / 0.5, rel=1e-14)
    assert val == pytest.approx(0.41197960825054114, abs=1e-14)


def test_bkm_form_matches_manual_sum():
    rng = np.random.default_rng(3)
    a, c = random_pd(rng, 3), random_pd(rng, 2)
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    wa, va = np.linalg.eigh(a)
    wc, vc = np.linalg.eigh(c)
    bt = va.conj().T @ b @ vc
    manual = sum(
        abs(bt[i, j]) ** 2 * log_mean_kernel(wa[i], wc[j])
        for i in range(3)
        for j in range(2)
    )
    assert bkm_form(a, c, b) == pytest.approx(manual, abs=1e-10)


def test_bkm_form_agrees_with_apply():
    rng = np.random.default_rng(4)
    a, c = random_pd(rng, 2), random_pd(rng, 2)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    via_apply = float(np.trace(b.conj().T @ bkm_apply(a, c, b)).real)
    assert bkm_form(a, c, b) == pytest.approx(via_apply, abs=1e-12)


# -------------------------------------------------------- channel weights

def test_channel_weights_rank_one_aligned():
    a = np.diag([0.5, 0.3]).astype(complex)
    c = np.diag([0.1, 0.05]).astype(complex)
    b = np.zeros((2, 2), dtype=complex)
    b[0, 0] = 0.1  # aligned with the first eigenvectors of both blocks
    w = channel_weights(a, c, b)
    # eigenvalues sort ascending, so the aligned channel lands at (1, 1)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert w.weights.max() == pytest.approx(1.0, abs=1e-12)


def test_channel_weights_zero_b():
    w = channel_weights(np.eye(2) * 0.4, np.eye(2) * 0.1, np.zeros((2, 2)))
    assert w.frob_sq == 0.0
    assert np.all(w.weights == 0.0)
    assert w.reconstruct_form() == 0.0


def test_channel_weights_reconstruction():
    for s in random_states(20, (2, 3), 990):
        w = channel_weights(s.a, s.c, s.b)
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(w.weights >= 0.0)
        assert w.reconstruct_form() == pytest.approx(
            bkm_form(s.a, s.c, s.b), abs=1e-10
        )


# ------------------------------------------------------------ quadrature

def test_quadrature_scalar_closed_form():
    val = bkm_quadrature(
        np.array([[0.75]]), np.array([[0.25]]), np.array([[math.sqrt(0.1875)]]),
        tol=1e-10,
    )
    assert val == pytest.approx(0.1875 * log_mean_kernel(0.75, 0.25), rel=1e-9)


def test_quadrature_zero_b():
    assert bkm_quadrature(np.eye(2) * 0.5, np.eye(2) * 0.5, np.zeros((2, 2))) == 0.0


def test_quadrature_matches_spectral():
    rng = np.random.default_rng(5)
    a, c = random_pd(rng, 3), random_pd(rng, 2)
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    spectral = bkm_form(a, c, b)
    quad = bkm_quadrature(a, c, b, tol=1e-10)
    assert abs(quad - spectral) / spectral <= 1e-8


# --------------------------------------------------------------- hessian

def test_hessian_zero_direction():
    assert bkm_hessian(np.eye(2) * 0.5, np.zeros((2, 2))) == 0.0


def test_hessian_identity_base_point():
    rng = np.random.default_rng(6)
    y = random_hermitian(rng, 3)
    assert bkm_hessian(np.eye(3), y) == pytest.approx(
        np.linalg.norm(y) ** 2, rel=1e-12
    )


def test_hessian_block_identity():
    s = two_level_pure(0.25)
    val = bkm_hessian(pinch(s), s.off_diagonal())
    assert val == pytest.approx(2.0 * 0.1875 * log_mean_kernel(0.75, 0.25), abs=1e-12)
    for t in random_states(20, (1, 2, 3), 880):
        h = bkm_hessian(pinch(t), t.off_diagonal())
        assert h == pytest.approx(2.0 * bkm_form(t.a, t.c, t.b), abs=1e-10)


# -------------------------------------------------------- midpoint margins

def test_midpoint_t_zero_margin_zero():
    s = random_block_state(2, 2, 41)
    assert midpoint_margin(s, [0.0])[0] == 0.0


def test_midpoint_zero_direction():
    s = random_block_state(2, 2, 42)
    flat = type(s)(
        dim_p=s.dim_p, dim_q=s.dim_q, a=s.a, b=np.zeros_like(s.b), c=s.c
    )
    assert np.all(midpoint_margin(flat, [0.2, 0.5, 0.8]) == 0.0)


def test_midpoint_two_level_grid():
    s = two_level_pure(0.25)
    margins = midpoint_margin(s, np.linspace(0.1, 0.99, 10))
    assert np.all(margins >= -1e-9)


def test_midpoint_rejects_bad_grid():
    s = random_block_state(2, 2, 43)
    with pytest.raises(DomainError):
        midpoint_margin(s, [1.0])
    with pytest.raises(DomainError):
        midpoint_margin(s, [-0.1])
    with pytest.raises(DomainError):  # not numpy's LinAlgError from eigh
        midpoint_margin(s, [0.5, float("nan")])


# ---------------------------------------------------------- Petz metrics

def test_petz_tags_normalized_and_symmetric():
    grid = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
    for tag, f in PETZ_FUNCTIONS.items():
        assert float(f(np.array([1.0]))[0]) == pytest.approx(1.0, abs=1e-12), tag
        vals = np.asarray(f(grid), dtype=float)
        flipped = grid * np.asarray(f(1.0 / grid), dtype=float)
        assert np.allclose(vals, flipped, atol=1e-10), tag


def test_petz_bkm_equals_hessian():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = random_pd(rng, 3)
        y = random_hermitian(rng, 3)
        assert petz_form(n, y, "bkm") == pytest.approx(
            bkm_hessian(n, y), abs=1e-10
        )


def test_petz_identity_base_point_all_tags():
    rng = np.random.default_rng(8)
    y = random_hermitian(rng, 2)
    for tag in PETZ_FUNCTIONS:
        assert petz_form(np.eye(2), y, tag) == pytest.approx(
            np.linalg.norm(y) ** 2, rel=1e-12
        )


def test_petz_arithmetic_closed_form():
    n = np.diag([0.3, 0.7]).astype(complex)
    y = np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex)
    expected = 2.0 * 0.2**2 * 2.0 / (0.3 + 0.7)
    assert petz_form(n, y, "arithmetic") == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "evaluate", [lambda n, y: petz_form(n, y, "geometric"), bkm_hessian],
    ids=["petz_form", "bkm_hessian"],
)
def test_singular_base_point_raises_positivity_error(evaluate):
    n = np.diag([1.0, 0.0])
    y = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(PositivityError, match=r"at t = 0\.0, lambda_min = 0\.000e\+00$"):
        evaluate(n, y)


def test_nan_base_point_fails_before_any_lapack_call(lapack_calls):
    n = np.eye(2)
    n[1, 1] = np.nan
    lapack_calls.clear()
    with pytest.raises(ValidationError, match="N has non-finite entries"):
        petz_form(n, np.zeros((2, 2)), "bkm")
    with pytest.raises(ValidationError, match="N has non-finite entries"):
        bkm_hessian(n, np.zeros((2, 2)))
    assert sum(lapack_calls.values()) == 0


def test_petz_unknown_tag():
    with pytest.raises(DomainError):
        petz_form(np.eye(2), np.zeros((2, 2)), "bures")


def test_unknown_tag_fails_before_any_lapack_call(lapack_calls):
    s = random_block_state(2, 2, 47)
    lapack_calls.clear()
    with pytest.raises(DomainError, match="'bures'"):
        petz_form(np.eye(2), np.zeros((2, 2)), "bures")
    with pytest.raises(DomainError, match="'bures'"):
        midpoint_margins(s, [0.5], ("bkm", "bures"))
    assert sum(lapack_calls.values()) == 0


def test_petz_form_checks_the_shape_of_y():
    with pytest.raises(ValidationError, match=r"Y must have the shape of N, \(2, 2\)"):
        petz_form(np.eye(2), np.zeros((3, 3)), "bkm")


def test_petz_midpoint_t_zero():
    s = random_block_state(2, 2, 44)
    for tag in PETZ_FUNCTIONS:
        assert petz_midpoint_margin(s, [0.0], tag)[0] == 0.0


def test_petz_midpoint_bkm_matches_bkm_path():
    s = random_block_state(2, 2, 45)
    grid = [0.3, 0.6, 0.9]
    assert np.allclose(
        petz_midpoint_margin(s, grid, "bkm"), midpoint_margin(s, grid), atol=1e-9
    )


def test_petz_midpoint_all_tags_nonnegative():
    grid = [0.3, 0.6, 0.9]
    for s in random_states(10, (1, 2, 3), 770):
        for tag in PETZ_FUNCTIONS:
            assert np.all(petz_midpoint_margin(s, grid, tag) >= -1e-9)


# ------------------------------------------------- shared midpoint margins

def _per_matrix_margins(s, grid, tag):
    """Reference: one petz_form per matrix, as the margins were first computed."""
    m, y = pinch(s), s.off_diagonal()
    base = petz_form(m, y, tag)
    return np.array([petz_form(m + t * y, y, tag) - base for t in grid])


def test_midpoint_margins_match_wrappers_and_reference():
    grid = [0.0, 0.25, 0.5, 0.75, 0.9]
    tags = tuple(PETZ_FUNCTIONS)
    states = random_states(6, (1, 2, 3, 4), 660) + random_states(
        6, (1, 2, 3, 4), 661, "boundary", a0=0.1, eps_q=0.05
    )
    for s in states:
        shared = midpoint_margins(s, grid, tags)
        assert set(shared) == set(tags)
        assert np.max(np.abs(shared["bkm"] - midpoint_margin(s, grid))) <= 1e-15
        for tag in tags:
            wrapped = petz_midpoint_margin(s, grid, tag)
            assert np.max(np.abs(shared[tag] - wrapped)) <= 1e-15
            reference = _per_matrix_margins(s, grid, tag)
            assert np.allclose(shared[tag], reference, rtol=0.0, atol=1e-12), tag


def test_midpoint_is_symmetric_under_the_block_sign():
    # M - tY = U (M + tY) U* and U Y U* = -Y with U = I (+) -I, so
    # g_{M-tY}(Y, Y) = g_{M+tY}(Y, Y) for every Petz metric: midpoint_margins
    # evaluates M + tY only
    states = [
        random_block_state(dp, dq, seed, ensemble, a0=0.6 / dp, eps_q=0.2 / dp)
        for dp, dq in [(1, 1), (2, 3), (4, 4), (32, 32)]
        for seed in range(2)
        for ensemble in ("ginibre", "boundary")
    ]
    for s in states:
        m, y = pinch(s), s.off_diagonal()
        for t, tag in itertools.product((0.25, 0.5, 0.9), PETZ_FUNCTIONS):
            g = petz_form(m + t * y, y, tag)
            gap = abs(petz_form(m - t * y, y, tag) - g)
            assert gap <= 1e-12 * (1.0 + abs(g)), (s.dim_p, s.dim_q, t, tag)


def test_midpoint_margins_lapack_budget(lapack_calls):
    # one eigvalsh of rho for M +- Y and one stacked eigh of M and each M + tY,
    # whose t = 0 member is the M > 0 gate: 2 calls, against 3 when M took an
    # eigvalsh of its own, and 1 + 2 matrices, against 1 + 4 with each M - tY
    s = random_block_state(3, 2, 49)
    lapack_calls.clear()
    lapack_calls.matrices.clear()
    midpoint_margins(s, [0.25, 0.5], tuple(PETZ_FUNCTIONS))
    assert sum(lapack_calls.values()) <= 2
    assert lapack_calls.matrices["eigh"] == 1 + 2


def test_midpoint_margins_unknown_tag():
    s = random_block_state(2, 2, 47)
    with pytest.raises(DomainError):
        midpoint_margins(s, [0.5], ("bkm", "bures"))


def test_midpoint_margins_validate_before_the_eigensolver():
    # a NaN in A is a typed input error, not numpy's LinAlgError
    s = random_block_state(2, 2, 48)
    s.a[0, 0] = np.nan
    with pytest.raises(ValidationError, match="A has non-finite entries"):
        midpoint_margins(s, [0.5], ("bkm",))


# ------------------------------------------------ path-integral oracle

_GL_U, _GL_W = np.polynomial.legendre.leggauss(64)


def _path_integral(state):
    """(int_0^1 (1 - s) H_{M+sY}(Y, Y) ds, H_M(Y, Y)) from one stacked eigh.

    s = 1 - u^2 turns (1 - s) ds into 2u^3 du and takes the log singularity
    of a singular rho at s = 1 out of the integrand.  The 64 Gauss-Legendre
    nodes mapped to u in (0, 1) carry half their weights, so each term is
    w u^3 H.
    """
    m, y = pinch(state), state.off_diagonal()
    u = 0.5 * (_GL_U + 1.0)
    s = np.concatenate(([0.0], 1.0 - u**2))
    w, v = np.linalg.eigh(m + s[:, None, None] * y)
    hessian = _form(np.abs(_rotate(v, y, v)) ** 2, w, w)
    return float(np.sum(_GL_W * u**3 * hessian[1:])), float(hessian[0])


def _path_cases():
    for dims in [(1, 1), (2, 3), (3, 2), (4, 4), (8, 8), (32, 32)]:
        for seed in range(3):
            yield random_block_state(*dims, seed)
            yield random_block_state(
                *dims, seed, "boundary", a0=0.6 / dims[0], eps_q=0.2 / dims[0]
            )
    for q in (0.25, 0.1, 1e-3, 1e-6):
        yield sharpness_family(q).state


def test_entropy_is_the_bkm_hessian_integrated_along_the_affine_path():
    # f(s) = D(M + sY || M) has f(0) = f'(0) = 0 and f''(s) = H_{M+sY}(Y, Y),
    # so D(rho || pinch(rho)) = int_0^1 (1 - s) H_{M+sY}(Y, Y) ds, and
    # H_M(Y, Y) = 2 Tr[B* Omega^{-1}(B)].  Measured worst: relative 1.8e-12 on
    # ginibre and 1.9e-12 on sharpness states, 6.6e-14 on boundary states;
    # H_M/2 against bkm_form 1.4e-16.  A 1e-10 relative bias in the kernel
    # passes verify (worst real margin 1.8e-6) but not this oracle.
    for state in _path_cases():
        integral, h_m = _path_integral(state)
        entropy = coherence_entropy(state)
        assert abs(integral - entropy) <= 1e-11 * entropy, (state.dim_p, state.dim_q)
        bkm = bkm_form(state.a, state.c, state.b)
        assert abs(h_m / 2.0 - bkm) <= 1e-15 * (1.0 + bkm)
