"""The two-level functional Phi, scalar and over arrays, and its derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cebound import DomainError, binary_entropy, phi, phi_dx, phi_dxx
from cebound.bkm import log_mean_kernel

from oracles import entropy_terms, phi_chain_check


def matrix_oracle(a, eps, x):
    """Relative entropy of the explicit 2x2 pair defining Phi."""
    rho = np.array([[a, math.sqrt(x)], [math.sqrt(x), eps]], dtype=complex)
    return entropy_terms(rho, np.diag([a, eps]).astype(complex))


def draw_params(rng, interior=False):
    a = rng.uniform(0.05, 1.0)
    eps = rng.uniform(0.01, 0.8) * a
    lo, hi = (0.05, 0.95) if interior else (0.0, 1.0)
    x = rng.uniform(lo, hi) * a * eps
    return a, eps, x


# ------------------------------------------------------------------- phi

def test_phi_zero_coherence():
    assert phi(0.7, 0.3, 0.0) == 0.0
    assert phi(0.1, 0.0, 0.0) == 0.0


def test_phi_pure_case_is_binary_entropy():
    q = 0.25
    assert phi(1 - q, q, q * (1 - q)) == pytest.approx(binary_entropy(q), abs=1e-12)


def test_phi_matches_matrix_oracle_at_reference_point():
    assert phi(0.85, 0.05, 0.02) == pytest.approx(0.07626029369006831, abs=1e-13)
    assert phi(0.85, 0.05, 0.02) == pytest.approx(
        matrix_oracle(0.85, 0.05, 0.02), abs=1e-11
    )


def test_phi_matches_matrix_oracle_random():
    rng = np.random.default_rng(101)
    for _ in range(100):
        a, eps, x = draw_params(rng)
        assert phi(a, eps, x) == pytest.approx(matrix_oracle(a, eps, x), abs=1e-11)


def test_phi_domain_error():
    with pytest.raises(DomainError):
        phi(0.5, 0.1, 0.1)
    with pytest.raises(DomainError):
        phi(-0.5, 0.1, 0.01)


def test_phi_continuous_up_to_boundary():
    a, eps = 0.6, 0.2
    vals = [phi(a, eps, t * a * eps) for t in (0.9, 0.99, 0.999, 1.0)]
    assert all(np.isfinite(vals))
    assert vals == sorted(vals)


# ---------------------------------------------------------------- phi_dx

def test_phi_dx_at_zero_is_kernel():
    assert phi_dx(0.75, 0.25, 0.0) == pytest.approx(
        log_mean_kernel(0.75, 0.25), abs=1e-14
    )
    assert phi_dx(0.5, 0.5, 0.0) == pytest.approx(2.0, abs=1e-14)


def test_phi_dx_boundary_is_infinite():
    assert phi_dx(0.5, 0.2, 0.1) == math.inf


def test_phi_dx_finite_difference():
    rng = np.random.default_rng(102)
    for _ in range(50):
        a, eps, x = draw_params(rng, interior=True)
        h = 1e-7 * (1.0 + x)
        if x - h <= 0 or x + h >= a * eps:
            continue
        fd = (phi(a, eps, x + h) - phi(a, eps, x - h)) / (2 * h)
        assert phi_dx(a, eps, x) == pytest.approx(fd, rel=1e-5)


def test_phi_dx_reference_point():
    a, eps, x = 0.85, 0.05, 0.01
    h = 1e-7 * (1.0 + x)
    fd = (phi(a, eps, x + h) - phi(a, eps, x - h)) / (2 * h)
    assert phi_dx(a, eps, x) == pytest.approx(fd, rel=1e-5)


# --------------------------------------------------------------- phi_dxx

def test_phi_dxx_positive_interior():
    rng = np.random.default_rng(103)
    for _ in range(50):
        a, eps, x = draw_params(rng, interior=True)
        assert phi_dxx(a, eps, x) > 0.0


def test_phi_dxx_finite_difference():
    a, eps, x = 0.75, 0.25, 0.05
    h = 1e-5
    fd = (phi(a, eps, x + h) - 2 * phi(a, eps, x) + phi(a, eps, x - h)) / h**2
    assert phi_dxx(a, eps, x) == pytest.approx(fd, rel=1e-4)


def _phi_mp(a, eps, x):
    """Phi at the working mpmath precision, from exact float inputs."""
    from mpmath import log, mpf, sqrt

    a, eps, x = mpf(a), mpf(eps), mpf(x)
    root = sqrt((a - eps) ** 2 + 4 * x)
    lam_p = (a + eps + root) / 2
    lam_m = (a * eps - x) / lam_p
    terms = [lam_p, lam_m, a, eps]
    signs = [1, 1, -1, -1]
    return sum(s * v * log(v) for s, v in zip(signs, terms) if v > 0)


def _mp_derivative(a, eps, x, n):
    """The n-th x-derivative of Phi at 50 digits; forward steps keep x >= 0."""
    from mpmath import diff, mpf, workdps

    with workdps(50):
        return diff(lambda v: _phi_mp(a, eps, v), mpf(x), n, direction=1)


def test_phi_dxx_series_branch_near_degenerate():
    # a = eps puts u near 0 and exercises the small-u series; double-precision
    # finite differences cannot resolve this regime, so the oracle is a
    # high-precision second derivative of Phi computed with mpmath
    a = eps = 0.4
    x = 1e-10
    oracle = float(_mp_derivative(a, eps, x, 2))
    assert phi_dxx(a, eps, x) == pytest.approx(oracle, rel=1e-10)
    assert phi_dxx(a, eps, x) > 0.0


@pytest.mark.parametrize("a, eps", [(0.3, 0.3), (0.4, 0.4 - 1e-12), (0.7, 0.69), (0.5, 0.2)])
def test_phi_derivatives_match_mpmath_across_u(a, eps):
    # u = atanh(D/(a + eps)) from 1e-9 to 0.6, densely around the series switch
    # at u = PHI_DXX_SERIES_U = 0.07.  Measured worst: 2.0e-16 for phi_dx,
    # 3.5e-14 for phi_dxx (9.9e-13 with the switch at u = 1e-2, where
    # sinh(2u)/2 - u cancels just above it)
    u_grid = np.concatenate([np.geomspace(1e-9, 0.6, 40), np.linspace(0.005, 0.2, 80)])
    for u in u_grid:
        x = (((a + eps) * math.tanh(u)) ** 2 - (a - eps) ** 2) / 4
        if x <= 0.0:
            continue
        d1, d2 = (_mp_derivative(a, eps, x, n) for n in (1, 2))
        assert abs(phi_dx(a, eps, x) - d1) <= 4e-16 * d1, (u, x)
        assert abs(phi_dxx(a, eps, x) - d2) <= 1e-13 * d2, (u, x)


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-30])
def test_phi_dxx_at_a_degenerate_block(x):
    # a = eps: D = 2 sqrt(x) -> 0 and u/D -> 1/(a + eps), so phi_dxx -> 1/(3a^3)
    a = 0.3
    assert phi_dxx(a, a, x) == pytest.approx(1.0 / (3.0 * a**3), rel=1e-15)
    assert phi_dxx(a, a, x) == pytest.approx(float(_mp_derivative(a, a, x, 2)), rel=1e-15)


def test_phi_dxx_boundary_is_infinite():
    assert phi_dxx(0.5, 0.2, 0.1) == math.inf


@pytest.mark.parametrize("derivative", [phi_dx, phi_dxx])
@pytest.mark.parametrize("a, eps", [(0.0, 0.5), (0.5, 0.0)])
def test_derivatives_need_positive_a_and_eps(derivative, a, eps):
    # (a, eps, 0) lies in Phi's domain, but the kernel L(a, eps) does not exist
    with pytest.raises(DomainError, match=f"^{derivative.__name__} requires a > 0 and eps > 0$"):
        derivative(a, eps, 0.0)


# ------------------------------------------------------------ chain check

def test_chain_check_zero():
    chk = phi_chain_check(0.75, 0.25, 0.0)
    assert chk.ok and chk.phi == 0.0 and chk.x_kernel == 0.0 and chk.x_log == 0.0


def test_chain_check_interior():
    chk = phi_chain_check(0.75, 0.25, 0.1)
    assert chk.ok
    assert chk.phi >= chk.x_kernel - 1e-12 >= chk.x_log - 2e-12


def test_chain_check_grid():
    # Phi - x L(a, eps) is of order x^2 Phi'', so at x = 1e-6 a eps the chain is
    # tight to about 1e-6 relative and a bias of Phi of 1e-2 fails it
    for a in np.linspace(0.3, 1.0, 8):
        for eps in np.linspace(0.05, 0.45, 5) * a:
            for frac in (0.0, 1e-6, 0.5, 1.0):
                assert phi_chain_check(a, eps, frac * a * eps).ok


def test_chain_check_gate_mandatory():
    with pytest.raises(DomainError):
        phi_chain_check(10.0, 0.01, 0.0)
    with pytest.raises(DomainError):
        phi_chain_check(0.5, 0.5, 0.0)


# -------------------------------------------------------------- properties

phi_draw = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.01, max_value=0.8),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=100, deadline=None)
@given(phi_draw)
def test_phi_monotone_in_x(draw):
    a, eps_frac, f1, f2 = draw
    eps = eps_frac * a
    x1, x2 = sorted((f1 * a * eps, f2 * a * eps))
    assert phi(a, eps, x2) >= phi(a, eps, x1) - 1e-12


@settings(max_examples=100, deadline=None)
@given(phi_draw)
def test_phi_midpoint_convex(draw):
    a, eps_frac, f1, f2 = draw
    eps = eps_frac * a
    x1, x2 = f1 * a * eps, f2 * a * eps
    mid = phi(a, eps, 0.5 * (x1 + x2))
    assert mid <= 0.5 * (phi(a, eps, x1) + phi(a, eps, x2)) + 1e-12


def test_phi_small_x_expansion():
    # |phi - x L(a, eps)| bounded by C x^2 for tiny x
    rng = np.random.default_rng(104)
    for _ in range(50):
        a = rng.uniform(0.1, 1.0)
        eps = rng.uniform(0.05, 0.8) * a
        x = rng.uniform(0.0, 1e-4) * a * eps
        resid = abs(phi(a, eps, x) - x * log_mean_kernel(a, eps))
        assert resid <= 1e3 * x**2 / (a * eps) + 1e-15


# ------------------------------------------------------------ array phi

def _scalar_phi(a, eps, x):
    """Phi by the scalar math-module arithmetic that the array form replaced."""
    if x == 0.0:
        return 0.0
    root = math.sqrt((a - eps) ** 2 + 4.0 * x)
    lam_plus = 0.5 * (a + eps + root)
    lam_minus = max((a * eps - x) / lam_plus, 0.0)
    terms = [v * math.log(v) if v > 0.0 else 0.0 for v in (lam_plus, lam_minus, a, eps)]
    return max(terms[0] + terms[1] - terms[2] - terms[3], 0.0)


def _rounding_scale(a, eps, x):
    """A few ulps of the terms v log v whose sum is Phi, v = lam_+, lam_-, a, eps."""
    lam_plus = 0.5 * (a + eps + math.sqrt((a - eps) ** 2 + 4.0 * x))
    terms = (lam_plus, a * eps / lam_plus if lam_plus > 0 else 0.0, a, eps)
    return 8 * np.finfo(float).eps * sum(v * (1 + abs(math.log(v))) for v in terms if v > 0)


def test_array_phi_matches_scalar_reference():
    rng = np.random.default_rng(105)
    a = rng.uniform(1e-6, 1.0, 3000)
    eps = rng.uniform(0.0, 1.0, 3000) * a
    x = rng.uniform(0.0, 1.0, 3000) * a * eps
    x[::7] = 0.0
    x[1::7] = a[1::7] * eps[1::7]
    values = phi(a, eps, x)
    assert values.shape == a.shape
    for ak, ek, xk, value in zip(a, eps, x, values):
        assert phi(ak, ek, xk) == value  # the scalar call is the one-element case
        assert abs(value - _scalar_phi(ak, ek, xk)) <= _rounding_scale(ak, ek, xk)


@pytest.mark.parametrize("ratio", [1e-12, 1e-6, 0.5, 1.0 - 1e-9, 1.0])
def test_array_phi_matches_mpmath(ratio):
    from mpmath import log as mplog, mp, mpf, sqrt as mpsqrt

    a = np.array([0.9, 0.3, 1e-3, 0.5, 1e-8])
    eps = np.array([0.05, 0.3, 0.2, 1e-6, 0.7])
    x = ratio * a * eps
    values = phi(a, eps, x)
    with mp.workdps(50):
        for ak, ek, xk, value in zip(a, eps, x, values):
            am, em, xm = mpf(ak), mpf(ek), mpf(xk)
            lam_plus = (am + em + mpsqrt((am - em) ** 2 + 4 * xm)) / 2
            lam_minus = max((am * em - xm) / lam_plus, mpf(0))
            ref = sum(
                sign * v * mplog(v)
                for sign, v in ((1, lam_plus), (1, lam_minus), (-1, am), (-1, em))
                if v > 0
            )
            assert abs(value - float(ref)) <= _rounding_scale(ak, ek, xk)


def test_array_phi_domain_error_names_the_first_bad_entry():
    with pytest.raises(DomainError, match=r"x = 0.5 exceeds"):
        phi(np.array([0.5, 0.5, 0.5]), 0.5, np.array([0.1, 0.5, 0.6]))
