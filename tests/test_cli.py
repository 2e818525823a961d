"""Command-line interface: exit codes, determinism, and output formats."""

import json
import math

import numpy as np
import pytest

from cebound import (
    BlockState,
    DomainError,
    OrbitConfig,
    bound_report,
    entropy_production,
    midpoint_margins,
    orbit_trace,
    pinch,
    pipeline_values,
    pythagorean_residual,
    random_block_state,
    read_state_json,
    two_level_pure,
    write_state_json,
)
from cebound.bkm import PETZ_FUNCTIONS
from cebound import cli
from cebound.cli import _verify_group, main
from cebound.twolevel import binary_entropy, phi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def two_level_file(tmp_path):
    path = tmp_path / "rho_q.json"
    write_state_json(path, two_level_pure(0.25))
    return str(path)


@pytest.fixture
def flat_file(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(
        json.dumps(
            {
                "dim_p": 1,
                "dim_q": 1,
                "matrix": [[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]],
            }
        )
    )
    return str(path)


# ------------------------------------------------------------------ verify

def test_verify_small_run_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--dims", "2..2", "--trials", "2", "--seed", "7"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["pass"] is True
    assert all(
        entry["worst_margin"] >= -1e-9
        for entry in summary["inequalities"].values()
    )


def test_verify_deterministic_output(capsys):
    flags = ("verify", "--dims", "2..2", "--trials", "2", "--seed", "7")
    _, out1, _ = run(capsys, *flags)
    _, out2, _ = run(capsys, *flags)
    assert out1 == out2


def test_verify_output_ignores_cebound_threads(capsys, monkeypatch):
    flags = ("verify", "--dims", "1..2", "--trials", "2", "--seed", "7")
    monkeypatch.delenv("CEBOUND_THREADS", raising=False)
    _, unset, _ = run(capsys, *flags)
    monkeypatch.setenv("CEBOUND_THREADS", "2")
    _, pinned, _ = run(capsys, *flags)
    assert unset == pinned


def test_verify_trial_eigensolver_budget(lapack_calls):
    # one trial: 5 eigensolver calls and 1 SVD to sample its three states, 8
    # stacked calls (A, C, rho, the fidelity, the midpoint grid, two dephasing
    # times, the two blocks of sigma) plus 1 SVD of B, and 2 per state in the
    # merge channel: 17 and 2, against 62 and 5 when each state was evaluated
    # on its own, 88 when every dephasing time re-diagonalised M, 322 when
    # every Petz tag re-diagonalised each M +- tY
    _verify_group(2, 2, 1, 7)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= 17
    assert lapack_calls["svd"] <= 2


def test_verify_group_eigensolver_budget(lapack_calls):
    # the stacked calls do not grow with the trials: 8 x (5 + 4) + 8 = 80
    # eigensolver calls and 8 + 1 = 9 SVDs, against 8 x 62 and 8 x 5
    _verify_group(2, 2, 8, 7)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= 80
    assert lapack_calls["svd"] <= 9


def _reference_trial(dim_p, dim_q, trial, seed):
    """Worst margin per inequality of one trial, from the public per-state functions."""
    margins = {}

    def record(name, value):
        if name not in margins or value < margins[name]:
            margins[name] = value

    trial_seed = int(
        np.random.SeedSequence([seed, dim_p, dim_q, trial]).generate_state(1)[0]
    )
    sigma = pinch(random_block_state(dim_p, dim_q, trial_seed + 1, "ginibre"))
    for state in (
        random_block_state(dim_p, dim_q, trial_seed, "ginibre"),
        random_block_state(
            dim_p, dim_q, trial_seed, "boundary", a0=0.6 / dim_p, eps_q=0.2 / dim_p
        ),
    ):
        report = bound_report(state)
        for name, value in report.margins.items():
            record(name, value)
        mids = midpoint_margins(state, cli.MIDPOINT_GRID, tuple(PETZ_FUNCTIONS))
        record("midpoint", float(np.min(mids["bkm"])))
        for tag, values in mids.items():
            record(f"petz_{tag}", float(np.min(values)))
        entropy, pinched_sum, merged = pipeline_values(state, report.params["a0"])
        record("pipeline_pinch", entropy - pinched_sum)
        record("pipeline_merge", pinched_sum - merged)
        record("pythagorean", -abs(pythagorean_residual(state, sigma)))
        cfg = OrbitConfig(state=state, gamma=1.0, t_max=2.0, steps=2)
        for t in cli.DEPHASING_TIMES:
            record("dephasing", entropy_production(cfg, t).margin)
    return margins


def _assert_matches_reference(dim_p, dim_q, trials, seed):
    stacked = _verify_group(dim_p, dim_q, trials, seed)
    assert len(stacked) == trials
    for trial, margins in enumerate(stacked):
        reference = _reference_trial(dim_p, dim_q, trial, seed)
        assert margins.keys() == reference.keys()
        for name, value in margins.items():
            assert abs(value - reference[name]) <= 1e-15, (dim_p, dim_q, trial, name)


@pytest.mark.parametrize("dim_p", [1, 2, 3, 4])
@pytest.mark.parametrize("dim_q", [1, 2, 3, 4])
def test_verify_group_matches_per_state_functions(dim_p, dim_q):
    # both ensembles: every trial holds a ginibre and a boundary state
    _assert_matches_reference(dim_p, dim_q, 3, 11)


def test_verify_group_spanning_chunks_matches_per_state_functions(monkeypatch):
    # room for two trials of (3, 2) per chunk: 5 trials take three chunks
    monkeypatch.setattr(cli, "STACK_ELEMENTS", 2 * 2 * 9 * 5**2)
    _assert_matches_reference(3, 2, 5, 7)


def test_m_plus_minus_y_check_names_the_failing_state(monkeypatch):
    # B beyond the PSD edge: M = diag(0.5, 0.5) is positive, but rho = M + Y
    # has eigenvalue 0.5 - 0.6 < 0, so M +- Y is not PSD
    bad = BlockState(
        dim_p=1,
        dim_q=1,
        a=np.array([[0.5]], dtype=complex),
        b=np.array([[0.6]], dtype=complex),
        c=np.array([[0.5]], dtype=complex),
    )
    with pytest.raises(DomainError, match=r"M \+- Y must be positive semidefinite"):
        midpoint_margins(bad, cli.MIDPOINT_GRID, ("bkm",))
    with pytest.raises(DomainError, match=r"M \+- Y must be positive semidefinite"):
        OrbitConfig(state=bad, gamma=1.0, t_max=2.0, steps=2)

    # a stack whose trial-1 boundary state has B pushed past the PSD edge
    draw = cli._trial_states

    def crafted(dim_p, dim_q, trial, seed):
        (ginibre, boundary), sigma = draw(dim_p, dim_q, trial, seed)
        if trial == 1:
            boundary = BlockState(
                dim_p, dim_q, boundary.a, 1.5 * boundary.b, boundary.c
            )
        return (ginibre, boundary), sigma

    monkeypatch.setattr(cli, "_trial_states", crafted)
    with pytest.raises(
        DomainError,
        match=r"M \+- Y must be .*dims \(2, 2\), trial 1, ensemble boundary, seed 7",
    ):
        _verify_group(2, 2, 3, 7)


def test_orbit_trace_eigensolver_budget(lapack_calls):
    # one eigh per row gives both the entropy and the rate, so 65 rows cost 65
    # calls, plus 5 for the config (2 to check M and M +- Y, eigh of A and C,
    # Tr[M log M]): 70 calls against 137 with an eigvalsh and an eigh per row
    state = random_block_state(2, 2, 7)
    lapack_calls.clear()
    orbit_trace(OrbitConfig(state=state, gamma=1.5, t_max=2.0, steps=64))
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= 70


def test_report_path_lapack_budget(lapack_calls, tmp_path):
    # the state file is validated once (1 eigvalsh, was 2); the report takes
    # one eigh of A and of C, one eigvalsh of rho and of the fidelity's inner
    # matrix, and one SVD of B: 5 calls, against 13
    path = tmp_path / "state.json"
    write_state_json(path, random_block_state(3, 2, 7, "boundary", a0=0.2, eps_q=0.05))
    lapack_calls.clear()
    state = read_state_json(path)
    assert sum(lapack_calls.values()) == 1
    lapack_calls.clear()
    bound_report(state)
    assert sum(lapack_calls.values()) <= 5


def test_verify_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_verify_rejects_negative_tolerance(capsys):
    code, _, err = run(capsys, "verify", "--trials", "1", "--tol", "-1")
    assert code == 2
    assert "tol" in err


def test_verify_writes_summary_file(capsys, tmp_path):
    out_path = tmp_path / "summary.json"
    code, out, _ = run(
        capsys,
        "verify", "--dims", "2..2", "--trials", "1", "--seed", "3",
        "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus", "1"])
    assert exc.value.code == 2


def test_bad_dims_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--dims", "four"])
    assert exc.value.code == 2


# ------------------------------------------------------------------ report

def test_report_two_level(capsys, two_level_file):
    code, out, _ = run(capsys, "report", two_level_file)
    assert code == 0
    report = json.loads(out)
    assert report["entropy"] == pytest.approx(binary_entropy(0.25), abs=1e-10)
    assert min(report["margins"].values()) >= -1e-9


def test_report_block_diagonal_zero_bounds(capsys, flat_file):
    code, out, _ = run(capsys, "report", flat_file)
    assert code == 0
    report = json.loads(out)
    assert report["entropy"] == pytest.approx(0.0, abs=1e-12)
    assert report["bkm_bound"] == 0.0
    assert report["pinsker_bound"] == 0.0


def test_report_non_psd_file_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dim_p": 1,
                "dim_q": 1,
                "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
            }
        )
    )
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "positive" in err


def test_report_missing_file_exits_two(capsys):
    code, _, _ = run(capsys, "report", "/nonexistent/state.json")
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"dim_p": 1, "dim_q": 1, "matrix": ',
        '{"dim_p": "x", "dim_q": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [[0.5, 0], [0, 0.5]]}',
        '{"dim_p": 1, "dim_q": 1, "matrix": [["0.5", "0"], ["0", "0.5"]]}',
        '{"dim_p": 1.7, "dim_q": 1.6, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
        '{"dim_p": true, "dim_q": 1, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
    ],
    ids=["not-json", "string-dim", "numbers-for-pairs", "string-entries",
         "fractional-dim", "bool-dim"],
)
def test_report_malformed_file_exits_two(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# ------------------------------------------------------------------- orbit

def test_orbit_writes_csv(capsys, two_level_file, tmp_path):
    out_path = tmp_path / "orbit.csv"
    code, out, _ = run(
        capsys,
        "orbit", two_level_file,
        "--gamma", "1.0", "--t-max", "5.0", "--steps", "10",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,entropy,rate,bkm_bound,log_bound,margin"
    assert len(lines) == 12
    entropies = [float(line.split(",")[1]) for line in lines[1:]]
    assert entropies == sorted(entropies, reverse=True)


def test_orbit_deterministic(capsys, two_level_file, tmp_path):
    args = (
        "orbit", two_level_file,
        "--gamma", "1.0", "--t-max", "2.0", "--steps", "4",
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, *args, "--out", str(p1))
    run(capsys, *args, "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# --------------------------------------------------------------- optimizer

def test_optimizer_command(capsys):
    code, out, _ = run(
        capsys,
        "optimizer", "--a0", "0.1", "--eps", "0.05", "--c", "0.02",
        "--dp", "2", "--dq", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a_star"] == pytest.approx(0.85, abs=1e-15)
    assert payload["value"] == pytest.approx(phi(0.85, 0.05, 0.02), abs=1e-14)
    matrix = payload["state"]["matrix"]
    assert len(matrix) == 3 and len(matrix[0]) == 3


def test_optimizer_infeasible_exits_two(capsys):
    code, _, err = run(
        capsys,
        "optimizer", "--a0", "0.5", "--eps", "0.05", "--c", "0.0",
        "--dp", "3", "--dq", "1",
    )
    assert code == 2
    assert "floor" in err


# ----------------------------------------------- separation and sharpness

def test_separation_command(capsys):
    code, out, _ = run(capsys, "separation", "--K", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio"] >= 4.0
    assert 0.0 < payload["eps"] <= 1e-2


def test_sharpness_command(capsys):
    code, out, _ = run(capsys, "sharpness", "--q", "1e-2,1e-4,1e-6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,entropy,bkm,ratio_bkm,ratio_log"
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert ratios == sorted(ratios, reverse=True)
    assert abs(ratios[-1] - 1.0) <= 0.1


def test_modulus_command(capsys):
    code, out, _ = run(
        capsys,
        "modulus", "--a-star", "0.9", "--tau", "0.5",
        "--eps", "1e-2,1e-4,1e-6",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps_q,phi,phi_per_coherence"
    per = [float(line.split(",")[2]) for line in lines[1:]]
    assert per == sorted(per)
    # asymptotic normalization at the smallest eps
    eps_q = 1e-6
    val = float(lines[-1].split(",")[1])
    assert abs(val / (0.5 * eps_q * math.log(0.9 / eps_q)) - 1.0) <= 0.15


@pytest.mark.parametrize("tau", ["0", "1.5"])
def test_modulus_bad_tau_exits_two_before_output(capsys, tau):
    code, out, err = run(
        capsys, "modulus", "--a-star", "0.9", "--tau", tau, "--eps", "1e-2,1e-4"
    )
    assert code == 2
    assert out == ""
    assert "tau" in err


@pytest.mark.parametrize(
    "a_star, eps, word",
    [("0", "1e-2,1e-4", "a_star"), ("0.9", "0,0.01", "eps_q")],
    ids=["a-star-zero", "eps-zero"],
)
def test_modulus_zero_coherence_exits_two_before_output(capsys, a_star, eps, word):
    # c = tau a_star eps_q = 0 made the per-coherence column a silent nan
    code, out, err = run(
        capsys, "modulus", "--a-star", a_star, "--tau", "0.5", "--eps", eps
    )
    assert code == 2
    assert out == ""
    assert word in err


# ------------------------------------------------------- non-finite flags

@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "STATE", "--gamma", "nan", "--t-max", "1", "--steps", "2"],
        ["orbit", "STATE", "--gamma", "1", "--t-max", "inf", "--steps", "2"],
        ["optimizer", "--a0", "nan", "--eps", "0.05", "--c", "0.02",
         "--dp", "2", "--dq", "1"],
        ["verify", "--trials", "1", "--tol", "nan"],
        ["sharpness", "--q", "1e-2,nan"],
    ],
    ids=["orbit-gamma-nan", "orbit-t-max-inf", "optimizer-a0-nan", "verify-tol-nan",
         "sharpness-q-nan"],
)
def test_non_finite_float_flag_exits_two(capsys, two_level_file, tmp_path, argv):
    argv = [two_level_file if tok == "STATE" else tok for tok in argv]
    if argv[0] == "orbit":
        argv += ["--out", str(tmp_path / "orbit.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be finite" in captured.err and "Traceback" not in captured.err
