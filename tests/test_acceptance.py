"""Acceptance gate: every top-level claim verified at desk scale.

Each criterion prints one PASS/FAIL line (repeated in the terminal summary)
and asserts at its stated tolerance.
"""

import cmath
import math

import numpy as np

import conftest
from cebound import (
    OrbitConfig,
    bkm_form,
    bkm_hessian,
    bound_report,
    channel_weights,
    coherence_entropy,
    equality_state,
    find_separation_eps,
    log_boundary_bound,
    midpoint_margin,
    operator_bound,
    optimizer,
    petz_midpoint_margin,
    phi,
    phi_dx,
    phi_dxx,
    pinch,
    pipeline_values,
    polygon_phases,
    pythagorean_residual,
    random_block_state,
    separation_family,
    sharpness_family,
    svd_pinch,
    trace_norm,
    two_level_pure,
)
from cebound.bkm import PETZ_FUNCTIONS
from cebound.cli import main
from cebound.dephasing import entropy_production
from oracles import bkm_quadrature, entropy_terms, fd_rate, sample_feasible

SEED = 20260823


def record(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def mixed_pool(count, seed, dims=(1, 2, 3, 4)):
    """Half Ginibre, half boundary-ensemble states over the given dims."""
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(count):
        dp = int(rng.choice(dims))
        dq = int(rng.choice(dims))
        if i % 2 == 0:
            pool.append(random_block_state(dp, dq, seed + i, "ginibre"))
        else:
            pool.append(
                random_block_state(
                    dp, dq, seed + i, "boundary", a0=0.5 / dp, eps_q=0.1
                )
            )
    return pool


def test_criterion_01_operator_bound_margin():
    worst = math.inf
    for s in mixed_pool(1000, SEED):
        worst = min(worst, coherence_entropy(s) - operator_bound(s))
    record(1, worst >= -1e-9, f"operator bound on 1000 states, worst margin {worst:.3e}")


def test_criterion_02_midpoint_and_petz():
    grid = np.linspace(0.0, 0.99, 20)
    rng = np.random.default_rng(SEED + 2)
    worst = math.inf
    for i in range(500):
        dp = int(rng.integers(1, 4))
        dq = int(rng.integers(1, 4))
        s = random_block_state(dp, dq, SEED + 7000 + i)
        worst = min(worst, float(np.min(midpoint_margin(s, grid))))
        for tag in PETZ_FUNCTIONS:
            worst = min(worst, float(np.min(petz_midpoint_margin(s, grid, tag))))
    record(
        2,
        worst >= -1e-9,
        f"midpoint margins (BKM + 4 Petz tags), 500 x 20 grid, worst {worst:.3e}",
    )


def test_criterion_03_quadrature_and_block_identity():
    rng = np.random.default_rng(SEED + 3)
    worst_rel = 0.0
    worst_block = 0.0
    for i in range(200):
        dp = int(rng.integers(1, 4))
        dq = int(rng.integers(1, 4))
        s = random_block_state(dp, dq, SEED + 8000 + i)
        spectral = bkm_form(s.a, s.c, s.b)
        quad = bkm_quadrature(s.a, s.c, s.b, tol=1e-10)
        worst_rel = max(worst_rel, abs(quad - spectral) / spectral)
        block = bkm_hessian(pinch(s), s.off_diagonal())
        worst_block = max(worst_block, abs(block - 2.0 * spectral))
    ok = worst_rel <= 1e-8 and worst_block <= 1e-10
    record(
        3,
        ok,
        f"quadrature vs spectral rel {worst_rel:.3e}, block identity {worst_block:.3e}",
    )


def test_criterion_04_channel_weights():
    rng = np.random.default_rng(SEED + 4)
    worst_sum = 0.0
    worst_recon = 0.0
    for i in range(200):
        dp = int(rng.integers(1, 4))
        dq = int(rng.integers(1, 4))
        s = random_block_state(dp, dq, SEED + 9000 + i)
        w = channel_weights(s.a, s.c, s.b)
        worst_sum = max(worst_sum, abs(float(w.weights.sum()) - 1.0))
        worst_recon = max(
            worst_recon, abs(w.reconstruct_form() - bkm_form(s.a, s.c, s.b))
        )
    ok = worst_sum <= 1e-10 and worst_recon <= 1e-10
    record(
        4,
        ok,
        f"weight sums off by {worst_sum:.3e}, reconstruction off by {worst_recon:.3e}",
    )


def test_criterion_05_logarithmic_chain():
    rng = np.random.default_rng(SEED + 5)
    worst = math.inf
    checked = 0
    for i in range(200):
        dp = int(rng.integers(1, 4))
        dq = int(rng.integers(1, 4))
        a0 = 0.5 / dp
        s = random_block_state(
            dp, dq, SEED + 10000 + i, "boundary", a0=a0, eps_q=a0 / 2.0
        )
        lb = log_boundary_bound(s)
        if lb is None:
            continue
        checked += 1
        bkm = operator_bound(s)
        worst = min(worst, coherence_entropy(s) - bkm, bkm - lb)
    ok = checked >= 100 and worst >= -1e-9
    record(5, ok, f"log chain on {checked} boundary states, worst slack {worst:.3e}")


def test_criterion_06_sharpness():
    qs = [10.0**-k for k in range(2, 7)]
    pts = [sharpness_family(q) for q in qs]
    bkm_ratios = [p.ratio_bkm for p in pts]
    log_ratios = [p.ratio_log for p in pts]
    ok = (
        bkm_ratios == sorted(bkm_ratios, reverse=True)
        and log_ratios == sorted(log_ratios, reverse=True)
        and abs(bkm_ratios[-1] - 1.0) <= 0.1
        and abs(log_ratios[-1] - 1.0) <= 0.1
    )
    record(
        6,
        ok,
        f"sharpness ratios decrease to {bkm_ratios[-1]:.4f} (bkm), "
        f"{log_ratios[-1]:.4f} (log) at q = 1e-6",
    )


def test_criterion_07_separation():
    founds = {k: find_separation_eps(float(k)) for k in (2, 3, 4, 5)}
    ratio4 = separation_family(4.0, 1e-6).ratio
    ok = all(
        separation_family(float(k), eps).ratio >= k for k, eps in founds.items()
    ) and ratio4 >= 4.0
    record(
        7,
        ok,
        f"separation eps found for K in 2..5 {sorted(founds.values())}, "
        f"K=4 eps=1e-6 ratio {ratio4:.4f}",
    )


def test_criterion_08_phi_properties():
    rng = np.random.default_rng(SEED + 8)
    worst_dx = 0.0
    worst_dxx = 0.0
    worst_oracle = 0.0
    monotone = True
    convex = True
    for _ in range(500):
        a = rng.uniform(0.2, 1.0)
        eps = rng.uniform(0.1, 0.8) * a
        x = rng.uniform(0.1, 0.9) * a * eps
        h1 = 1e-7 * (1.0 + x)
        fd1 = (phi(a, eps, x + h1) - phi(a, eps, x - h1)) / (2 * h1)
        worst_dx = max(worst_dx, abs(phi_dx(a, eps, x) - fd1) / abs(fd1))
        h2 = 1e-5 * (1.0 + x)
        fd2 = (
            phi(a, eps, x + h2) - 2 * phi(a, eps, x) + phi(a, eps, x - h2)
        ) / h2**2
        worst_dxx = max(worst_dxx, abs(phi_dxx(a, eps, x) - fd2) / abs(fd2))
        # matrix oracle: relative entropy of the explicit 2x2 pair
        rho = np.array([[a, math.sqrt(x)], [math.sqrt(x), eps]], dtype=complex)
        oracle = entropy_terms(rho, np.diag([a, eps]).astype(complex))
        worst_oracle = max(worst_oracle, abs(phi(a, eps, x) - oracle))
        # monotonicity and midpoint convexity on a fresh pair
        x1, x2 = sorted(rng.uniform(0.0, 1.0, size=2) * a * eps)
        monotone &= phi(a, eps, x2) >= phi(a, eps, x1) - 1e-12
        convex &= phi(a, eps, 0.5 * (x1 + x2)) <= 0.5 * (
            phi(a, eps, x1) + phi(a, eps, x2)
        ) + 1e-12
    ok = (
        worst_dx <= 1e-5
        and worst_dxx <= 1e-4
        and worst_oracle <= 1e-11
        and monotone
        and convex
    )
    record(
        8,
        ok,
        f"phi: FD rel {worst_dx:.2e}/{worst_dxx:.2e}, oracle {worst_oracle:.2e}, "
        f"monotone {monotone}, convex {convex}",
    )


def test_criterion_09_10_pipeline_and_channels():
    a0, eps, c = 0.1, 0.05, 0.005
    rng = np.random.default_rng(SEED + 9)
    worst_pinch = math.inf
    worst_merge = math.inf
    worst_floor = math.inf
    worst_defect = 0.0
    for i in range(300):
        dp, dq = (2, 2) if i % 2 == 0 else (3, 2)
        a_star = 1.0 - eps - (dp - 1) * a0
        s = sample_feasible(a0, eps, c, dp, dq, rng)
        entropy, pinched_sum, merged = pipeline_values(s, a0)
        worst_pinch = min(worst_pinch, entropy - pinched_sum)
        worst_merge = min(worst_merge, pinched_sum - merged)
        worst_floor = min(worst_floor, merged - phi(a_star, eps, c))
        worst_defect = max(
            worst_defect, svd_pinch(s).channel.completeness_defect()
        )
    # optimizer attains the bound; equality family is phase-invariant
    opt = optimizer(a0, eps, c, 2, 2)
    opt_gap = abs(coherence_entropy(opt.state) - opt.value)
    eq_gap = max(
        abs(coherence_entropy(equality_state(a0, eps, c, 2, 2, phase=ph)) - opt.value)
        for ph in (0.0, math.pi / 3, math.pi)
    )
    ok9 = (
        min(worst_pinch, worst_merge, worst_floor) >= -1e-9
        and opt_gap <= 1e-10
        and eq_gap <= 1e-10
    )
    record(
        9,
        ok9,
        f"pipeline slacks {worst_pinch:.2e}/{worst_merge:.2e}/{worst_floor:.2e}, "
        f"optimizer gap {opt_gap:.2e}, equality-family gap {eq_gap:.2e}",
    )
    # criterion 10: completeness of every constructed channel; the merged
    # active-block identity is asserted inside pipeline_values (through the
    # channel's structure), so reaching this point certifies it held for all
    # 300 pipeline runs
    record(
        10,
        worst_defect <= 1e-12,
        f"Kraus completeness defect at most {worst_defect:.3e}; "
        "merged active block verified on 300 runs",
    )


def test_criterion_11_polygon():
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        lengths = rng.uniform(1e-6, 10.0, size=k)
        total = float(np.sum(lengths))
        floor = max(0.0, 2.0 * float(np.max(lengths)) - total)
        target = floor + rng.uniform(0.0, 1.0) * (total - floor)
        angles = polygon_phases(lengths, target)
        achieved = abs(sum(l * cmath.exp(1j * t) for l, t in zip(lengths, angles)))
        worst = max(worst, abs(achieved - target))
    for lengths, target in (
        ([3.0, 4.0], 5.0),
        ([1.0, 1.0, 1.0], 0.0),
        ([1.0, 1.0, 1.0], 3.0),
    ):
        angles = polygon_phases(lengths, target)
        achieved = abs(sum(l * cmath.exp(1j * t) for l, t in zip(lengths, angles)))
        worst = max(worst, abs(achieved - target))
    record(11, worst <= 1e-10, f"polygon modulus error at most {worst:.3e}")


def test_criterion_12_dephasing():
    rng = np.random.default_rng(SEED + 12)
    worst_margin = math.inf
    worst_fd = 0.0
    monotone = True
    grid = (0.0, 0.3, 0.9, 1.7)
    for i in range(200):
        dp = int(rng.integers(1, 4))
        dq = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.5, 2.0))
        s = random_block_state(dp, dq, SEED + 12000 + i)
        cfg = OrbitConfig(state=s, gamma=gamma, t_max=2.0, steps=2)
        entropies = []
        for t in grid:
            point = entropy_production(cfg, t)
            worst_margin = min(
                worst_margin, point.margin + 1e-6 * (1.0 + point.rate)
            )
            fd = fd_rate(cfg, t)
            worst_fd = max(
                worst_fd, abs(point.rate - fd) / (1.0 + abs(point.rate))
            )
            alpha = math.exp(-gamma * t)
            entropies.append(
                entropy_terms(pinch(s) + alpha * s.off_diagonal(), pinch(s))
            )
        monotone &= all(
            entropies[j + 1] <= entropies[j] + 1e-12 for j in range(len(grid) - 1)
        )
    ok = worst_margin >= 0.0 and worst_fd <= 1e-6 and monotone
    record(
        12,
        ok,
        f"dephasing: worst margin slack {worst_margin:.2e}, analytic-vs-FD "
        f"{worst_fd:.2e}, monotone {monotone}",
    )


def test_criterion_13_pinsker_fidelity_trace_norm():
    worst_margin = math.inf
    worst_norm = 0.0
    for s in mixed_pool(1000, SEED + 13):
        r = bound_report(s)
        worst_margin = min(
            worst_margin, r.margins["pinsker"], r.margins["fidelity"]
        )
        worst_norm = max(
            worst_norm,
            abs(trace_norm(s.to_matrix() - pinch(s)) - 2.0 * trace_norm(s.b)),
        )
    ok = worst_margin >= -1e-9 and worst_norm <= 1e-10
    record(
        13,
        ok,
        f"Pinsker/fidelity worst margin {worst_margin:.2e}, "
        f"trace-norm identity off by {worst_norm:.3e}",
    )


def test_criterion_14_pythagorean():
    rng = np.random.default_rng(SEED + 14)
    worst = 0.0
    for i in range(1000):
        dp = int(rng.integers(2, 5))
        dq = int(rng.integers(2, 5))
        s = random_block_state(dp, dq, SEED + 14000 + i)
        sigma = pinch(random_block_state(dp, dq, SEED + 15000 + i))
        worst = max(worst, abs(pythagorean_residual(s, sigma)))
    record(14, worst <= 1e-9, f"Pythagorean residual at most {worst:.3e}")


def test_criterion_15_cli_determinism(capsys):
    flags = ["verify", "--dims", "2..2", "--trials", "2", "--seed", "7"]
    code1 = main(flags)
    out1 = capsys.readouterr().out
    code2 = main(flags)
    out2 = capsys.readouterr().out
    default_code = main(["verify"])
    capsys.readouterr()
    ok = code1 == code2 == 0 and out1 == out2 and default_code == 0
    with capsys.disabled():
        record(
            15,
            ok,
            f"verify byte-identical across reruns ({out1 == out2}), "
            f"default run exit code {default_code}",
        )
