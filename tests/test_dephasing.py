"""Exact dephasing orbit, entropy-production rates, and their lower bounds."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cebound import (
    BlockState,
    DomainError,
    OrbitConfig,
    entropy_production,
    log_enhanced_bound,
    orbit_state,
    orbit_trace,
    random_block_state,
    read_state_json,
    two_level_pure,
    write_orbit_csv,
)
from cebound.bkm import bkm_form, log_mean_kernel
from cebound.linalg import pinch

from conftest import random_states
from oracles import fd_rate


def mixed_two_level(q=0.25, shrink=0.5):
    """rho_q with the coherence damped so M +- Y stays strictly PSD."""
    s = two_level_pure(q)
    return BlockState(dim_p=1, dim_q=1, a=s.a, b=shrink * s.b, c=s.c)


# -------------------------------------------------------------- orbit state

def test_orbit_at_zero_is_rho():
    s = random_block_state(2, 2, 61)
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=2)
    assert np.allclose(orbit_state(cfg, 0.0), s.to_matrix(), atol=1e-15)


def test_orbit_long_time_is_pinch():
    s = random_block_state(2, 2, 62)
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=2)
    assert np.allclose(orbit_state(cfg, 1e6), pinch(s), atol=1e-12)


def test_orbit_off_diagonal_decays_exactly():
    s = random_block_state(2, 2, 63)
    cfg = OrbitConfig(state=s, gamma=2.0, t_max=1.0, steps=2)
    t = 0.37
    rho_t = orbit_state(cfg, t)
    assert np.allclose(
        rho_t[:2, 2:], math.exp(-2.0 * t) * s.b, atol=1e-16, rtol=1e-14
    )


def test_orbit_rejects_negative_time():
    # nan passed a t < 0 test and gave a nan matrix
    cfg = OrbitConfig(state=random_block_state(2, 2, 64), gamma=1.0, t_max=1.0, steps=2)
    for t in (-0.1, math.nan):
        with pytest.raises(DomainError, match=f"t must be nonnegative, got {t}$"):
            orbit_state(cfg, t)


@pytest.mark.parametrize(
    "evaluate", [fd_rate, log_enhanced_bound, entropy_production]
)
def test_orbit_values_reject_negative_time(evaluate):
    # the orbit is defined for t >= 0 only; these once returned inf, 0.144 and
    # 0.307 at t = -0.5 on this state, which has a log bound.  At t = nan,
    # entropy_production raised numpy's LinAlgError and log_enhanced_bound
    # returned nan
    state = read_state_json(Path(__file__).parent / "golden" / "boundary_3_2.json")
    cfg = OrbitConfig(state=state, gamma=1.5, t_max=2.0, steps=8)
    assert log_enhanced_bound(cfg, 0.0) is not None
    for t in (-0.5, math.nan):
        with pytest.raises(DomainError, match=f"t must be nonnegative, got {t}$"):
            evaluate(cfg, t)


def test_orbit_config_validation():
    s = random_block_state(2, 2, 65)
    with pytest.raises(DomainError):
        OrbitConfig(state=s, gamma=0.0, t_max=1.0, steps=2)
    with pytest.raises(DomainError):
        OrbitConfig(state=s, gamma=1.0, t_max=-1.0, steps=2)
    with pytest.raises(DomainError, match="steps >= 2"):
        OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=1)


@pytest.mark.parametrize("gamma, t_max", [
    (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
    (1.0, 1e308),  # steps * t_max, the grid's last k t_max, overflows at steps = 2
])
def test_orbit_config_rejects_non_finite(gamma, t_max):
    s = random_block_state(2, 2, 65)
    with pytest.raises(DomainError):
        OrbitConfig(state=s, gamma=gamma, t_max=t_max, steps=2)


# -------------------------------------------------------- entropy production

def test_production_zero_b():
    s = random_block_state(2, 2, 66)
    flat = BlockState(dim_p=2, dim_q=2, a=s.a, b=np.zeros_like(s.b), c=s.c)
    point = entropy_production(
        OrbitConfig(state=flat, gamma=1.0, t_max=1.0, steps=2), 0.5
    )
    assert point.rate == pytest.approx(0.0, abs=1e-12)
    assert point.bound == 0.0


def test_production_two_level_bound_value():
    s = mixed_two_level()
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=2)
    point = entropy_production(cfg, 0.0)
    expected = 2.0 * float(np.abs(s.b[0, 0]) ** 2) * log_mean_kernel(0.75, 0.25)
    assert point.bound == pytest.approx(expected, rel=1e-12)
    assert point.rate >= point.bound - 1e-6 * (1.0 + point.rate)


def test_production_bound_scales_exponentially():
    s = mixed_two_level()
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=5.0, steps=2)
    p0 = entropy_production(cfg, 0.0)
    p3 = entropy_production(cfg, 3.0)
    assert p3.bound == pytest.approx(p0.bound * math.exp(-6.0), rel=1e-12)
    assert p3.margin >= -1e-6 * (1.0 + p3.rate)


def test_analytic_rate_matches_log_difference_formula():
    # the reference keeps the Tr[Y log M] term, which is 0 in exact arithmetic
    def logm(h):
        w, v = np.linalg.eigh(h)
        return (v * np.log(w)) @ v.conj().T

    for s in random_states(10, (1, 2, 3), 111):
        cfg = OrbitConfig(state=s, gamma=0.7, t_max=2.0, steps=2)
        m, y = pinch(s), s.off_diagonal()
        for t in (0.0, 0.4, 1.9):
            alpha = math.exp(-cfg.gamma * t)
            diff = logm(m + alpha * y) - logm(m)
            expected = cfg.gamma * alpha * float(np.trace(y @ diff).real)
            got = entropy_production(cfg, t).rate
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-14)


def test_analytic_rate_matches_fd():
    for s in random_states(10, (2, 3), 110):
        cfg = OrbitConfig(state=s, gamma=1.3, t_max=2.0, steps=2)
        for t in (0.0, 0.5, 1.7):
            an = entropy_production(cfg, t).rate
            fd = fd_rate(cfg, t)
            assert abs(an - fd) <= 1e-6 * (1.0 + abs(an))


@pytest.mark.parametrize("t", [0.5, 0.0])
def test_fd_rate_eigensolver_budget(lapack_calls, t):
    # one stacked eigh over the stencil's 2 (central) or 3 (forward) times,
    # against one eigh per time when each point was evaluated on its own
    cfg = OrbitConfig(state=random_block_state(2, 2, 61), gamma=1.0, t_max=1.0, steps=2)
    lapack_calls.clear()
    fd_rate(cfg, t)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] == 1


# ----------------------------------------------------------- enhanced bound

def test_log_enhanced_gate():
    s = random_block_state(2, 2, 67)  # generic state: Tr C too large
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=2)
    if float(np.trace(s.c).real) >= float(np.linalg.eigvalsh(s.a)[0]):
        assert log_enhanced_bound(cfg, 0.0) is None


def test_log_enhanced_boundary_value():
    s = random_block_state(2, 2, 68, "boundary", a0=0.4, eps_q=0.05)
    cfg = OrbitConfig(state=s, gamma=2.0, t_max=1.0, steps=2)
    frob_sq = float(np.sum(np.abs(s.b) ** 2))
    a0 = float(np.linalg.eigvalsh(s.a)[0])
    val = log_enhanced_bound(cfg, 0.0)
    assert val == pytest.approx(4.0 * frob_sq * math.log(a0 / 0.05), rel=1e-12)
    # kernel chain: the log-enhanced bound sits below the BKM production bound
    point = entropy_production(cfg, 0.0)
    assert point.bound >= val - 1e-9
    assert point.rate >= val - 1e-6 * (1.0 + point.rate)


# ------------------------------------------------------------- orbit trace

def test_orbit_trace_three_rows():
    s = mixed_two_level()
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=1e-6, steps=2)
    rows = orbit_trace(cfg)
    assert len(rows) == 3
    from cebound.linalg import coherence_entropy

    assert rows[0].entropy == pytest.approx(coherence_entropy(s), abs=1e-14)
    assert rows[0].t == 0.0


@pytest.mark.parametrize("ensemble", ["ginibre", "boundary"])
def test_orbit_trace_entropy_matches_coherence_entropy(ensemble):
    # the row's entropy comes from the eigh that also gives its rate;
    # coherence_entropy of the scaled state is an independent eigvalsh path
    from cebound.linalg import coherence_entropy

    kwargs = {"a0": 0.15, "eps_q": 0.05} if ensemble == "boundary" else {}
    for s in random_states(6, (1, 2, 4), 830, ensemble, **kwargs):
        cfg = OrbitConfig(state=s, gamma=1.5, t_max=2.0, steps=16)
        for row in orbit_trace(cfg):
            alpha = math.exp(-cfg.gamma * row.t)
            scaled = BlockState(s.dim_p, s.dim_q, a=s.a, b=alpha * s.b, c=s.c)
            assert abs(row.entropy - coherence_entropy(scaled)) <= 1e-14


@pytest.mark.parametrize("ensemble", ["ginibre", "boundary"])
def test_orbit_rows_are_entropy_production_at_each_grid_time(ensemble):
    # one row evaluator: every row, row 0 from cfg.start included, is the
    # record entropy_production returns at that time, field for field
    kwargs = {"a0": 0.2, "eps_q": 0.2 / 3} if ensemble == "boundary" else {}
    s = random_block_state(3, 2, 3, ensemble, **kwargs)
    cfg = OrbitConfig(state=s, gamma=1.5, t_max=2.0, steps=8)
    rows = orbit_trace(cfg)
    assert (rows[0].rate == math.inf) == (ensemble == "boundary")
    for k, row in enumerate(rows):
        assert row == entropy_production(cfg, k * cfg.t_max / cfg.steps), k


def test_orbit_trace_monotone_decreasing():
    s = mixed_two_level()
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=5.0, steps=100)
    rows = orbit_trace(cfg)
    d = [r.entropy for r in rows]
    assert all(d[i + 1] <= d[i] + 1e-12 for i in range(len(d) - 1))
    assert all(r.margin >= -1e-6 * (1.0 + r.rate) for r in rows)
    # long horizon: substantial decay of the coherence entropy
    assert d[-1] <= d[0] * math.exp(-1.0)


def test_orbit_trace_requires_two_steps():
    s = mixed_two_level()
    with pytest.raises(DomainError):
        orbit_trace(OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=1))


def test_write_orbit_csv(tmp_path):
    s = random_block_state(2, 2, 69)
    cfg = OrbitConfig(state=s, gamma=1.0, t_max=1.0, steps=2)
    path = tmp_path / "orbit.csv"
    write_orbit_csv(path, orbit_trace(cfg))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,entropy,rate,bkm_bound,log_bound,margin"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[0]) == 0.0
    # generic ginibre state fails the boundary gate: empty log_bound column
    if log_enhanced_bound(cfg, 0.0) is None:
        assert first[4] == ""


# --------------------------------------------------------------- PSD edge

def _boundary_3_2():
    return random_block_state(3, 2, 3, "boundary", a0=0.2, eps_q=0.2 / 3)


def test_rounding_sign_at_the_psd_edge_moves_nothing():
    # B scaled by 1 +- 1e-15 puts lambda_min(rho) just below or just above 0;
    # under the one support model both sides are the same singular state
    from cebound import coherence_entropy, fidelity_bound

    base = two_level_pure(0.25)
    states = [BlockState(1, 1, base.a, f * base.b, base.c) for f in (1 + 1e-15, 1 - 1e-15)]
    assert [np.sign(np.linalg.eigvalsh(s.to_matrix())[0]) for s in states] == [-1, 1]
    rates = [entropy_production(OrbitConfig(s, 1.0, 1.0, 2), 0.0).rate for s in states]
    assert rates == [math.inf, math.inf]
    for fn in (fidelity_bound, coherence_entropy):
        plus, minus = (fn(s) for s in states)
        assert abs(plus - minus) <= 1e-15, fn.__name__


def test_orbit_trace_t0_rate_is_inf_on_a_singular_state_only(tmp_path):
    cfg = OrbitConfig(state=_boundary_3_2(), gamma=1.5, t_max=2.0, steps=8)
    rows = orbit_trace(cfg)
    assert rows[0].rate == math.inf and rows[0].margin == math.inf
    assert all(math.isfinite(r.rate) and math.isfinite(r.margin) for r in rows[1:])
    path = tmp_path / "orbit.csv"
    write_orbit_csv(path, rows)
    first = path.read_text().splitlines()[1].split(",")
    assert (first[2], first[5]) == ("inf", "inf")
    for s in random_states(6, (1, 2, 3), 840):
        rows = orbit_trace(OrbitConfig(state=s, gamma=1.5, t_max=2.0, steps=8))
        assert all(math.isfinite(r.rate) and math.isfinite(r.margin) for r in rows)


def _mp_rate(s, gamma, t):
    """Gamma alpha Tr[Y log(M + alpha Y)] at the working mpmath precision."""
    from mpmath import mp

    m, y = (mp.matrix(x.tolist()) for x in (pinch(s), s.off_diagonal()))
    alpha = mp.exp(-gamma * mp.mpf(t))
    w, q = mp.eighe(m + alpha * y)
    weights = [(q[:, i].H * y * q[:, i])[0].real for i in range(len(w))]
    return gamma * alpha * sum(x * mp.log(lam) for x, lam in zip(weights, w))


# Near the edge lambda_min(rho_t) ~ gamma t <v, M v>, and eigh resolves it to
# about eps_mach absolute, so the relative error of log lambda_min, and of the
# rate, grows like eps_mach / t.  Measured relative errors times t on this and
# two other boundary states, k = 2..8: at most 1.6e-16; the bound eps_mach / t
# is 2.2e-16 / t.
@pytest.mark.parametrize("gamma", [1.0, 1.5])
def test_rate_near_the_edge_follows_mpmath(gamma):
    from mpmath import workdps

    s = _boundary_3_2()
    cfg = OrbitConfig(state=s, gamma=gamma, t_max=1.0, steps=2)
    exact = []
    with workdps(50):
        for k in range(2, 9):
            t = 10.0**-k
            exact.append(float(_mp_rate(s, gamma, t)))
            rel = abs(entropy_production(cfg, t).rate - exact[-1]) / exact[-1]
            assert rel <= np.finfo(float).eps / t, (k, rel)
    # the exact rate grows like log(1/t): equal steps per decade from k = 4 on
    steps = np.diff(exact)[2:]
    assert np.all(steps > 0) and np.ptp(steps) <= 0.05 * np.min(steps)


# ------------------------------------------------------------ threaded rows

def _cpus(monkeypatch, n):
    """Make the process see n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _counted_threads(monkeypatch):
    """Record every threading.Thread constructed from now on."""
    started = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("dims", [(1, 1), (3, 2), (32, 32)], ids=["1+1", "3+2", "32+32"])
def test_orbit_rows_do_not_depend_on_the_cpu_count(monkeypatch, dims):
    # each row is the same one-row eigh on whichever thread runs it
    d_p, d_q = dims
    s = random_block_state(d_p, d_q, 5, "boundary", a0=0.6 / d_p, eps_q=0.2 / d_p)
    for steps in (2, 7, 64):
        cfg = OrbitConfig(state=s, gamma=1.5, t_max=2.0, steps=steps)
        tables = []
        for n in (1, 2, 4):
            _cpus(monkeypatch, n)
            tables.append(repr(orbit_trace(cfg)))
        assert tables[1] == tables[0] and tables[2] == tables[0], (dims, steps)


def test_orbit_rows_under_a_short_switch_interval(monkeypatch, lapack_calls):
    # 4 threads on at most 2 cores, switching every microsecond: a row written
    # to the wrong slot, or a count lost by the fixture, would show here
    s = random_block_state(8, 8, 5, "boundary", a0=0.6 / 8, eps_q=0.2 / 8)
    cfg = OrbitConfig(state=s, gamma=1.5, t_max=2.0, steps=64)
    _cpus(monkeypatch, 1)
    serial = repr(orbit_trace(cfg))
    _cpus(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            lapack_calls.clear()
            assert repr(orbit_trace(cfg)) == serial
            assert lapack_calls["eigh"] == 64
    finally:
        sys.setswitchinterval(interval)


def test_orbit_on_one_cpu_starts_one_worker(monkeypatch):
    cfg = OrbitConfig(state=mixed_two_level(), gamma=1.0, t_max=1.0, steps=16)
    _cpus(monkeypatch, 2)
    two = repr(orbit_trace(cfg))
    _cpus(monkeypatch, 1)
    started = _counted_threads(monkeypatch)
    assert repr(orbit_trace(cfg)) == two
    assert len(started) == 1


@pytest.mark.parametrize("steps, cpus", [(2, 1), (3, 2), (64, 3), (2, 4)])
def test_orbit_starts_no_more_threads_than_rows(monkeypatch, steps, cpus):
    # rows 1..steps are computed, at most one contiguous chunk per CPU; a worker
    # already idle when the next chunk is submitted takes it, sparing a thread
    cfg = OrbitConfig(state=mixed_two_level(), gamma=1.0, t_max=1.0, steps=steps)
    _cpus(monkeypatch, cpus)
    started = _counted_threads(monkeypatch)
    assert len(orbit_trace(cfg)) == steps + 1
    assert 1 <= len(started) <= min(cpus, steps)
    assert not any(thread.is_alive() for thread in started)


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    from cebound.dephasing import _usable_cpus

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1


# on 2 CPUs rows 1..4 and 5..8 are the two chunks: a failure in each chunk, or
# both in one chunk
@pytest.mark.parametrize("bad_rows", [(4, 7), (3, 6), (2, 3), (6, 7)])
def test_orbit_row_failures_raise_the_earliest_row(monkeypatch, bad_rows):
    from cebound import dephasing

    cfg = OrbitConfig(state=mixed_two_level(), gamma=1.0, t_max=8.0, steps=8)
    original = dephasing._orbit_terms

    def failing(m, y, gamma, times):
        row = round(times[0])  # t_k = k here
        if row in bad_rows:
            raise DomainError(f"injected failure at row {row}")
        return original(m, y, gamma, times)

    monkeypatch.setattr(dephasing, "_orbit_terms", failing)
    _cpus(monkeypatch, 2)
    started = _counted_threads(monkeypatch)
    for _ in range(5):
        with pytest.raises(DomainError, match=f"at row {bad_rows[0]}$"):
            orbit_trace(cfg)
        assert started and not any(thread.is_alive() for thread in started)


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    # orbit_trace imports its thread pool itself: concurrent.futures would add
    # about 6 ms to every fresh import
    import cebound

    code = "import sys, numpy, cebound.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cebound.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
