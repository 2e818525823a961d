"""Command-line interface: exit codes, determinism, and output formats."""

import ast
import dataclasses
import importlib
import itertools
import json
import math
import pathlib
import pkgutil

import numpy as np
import pytest

import cebound
from cebound import (
    BlockState,
    DomainError,
    NumericError,
    OrbitConfig,
    PositivityError,
    block_decompose,
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
    validate_density,
    write_state_json,
)
from cebound import verify
from cebound.bkm import PETZ_FUNCTIONS
from cebound.cli import build_parser, main
from cebound.twolevel import binary_entropy, phi
from cebound.verify import verify_group


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
    # one trial: 2 eigensolver calls and 1 SVD to sample its three states (the
    # boundary state reuses the ginibre draw, and a fresh draw is not
    # re-validated), and 7 stacked calls (A, C, the fidelity, the midpoint
    # grid, the three dephasing times, whose t = 0 row also gives the spectrum
    # of rho, and the two blocks of sigma) plus 1 SVD of B, which also serve
    # the SVD pinching and the merge: 9 and 2, against 10 when rho took its own
    # eigh, 12 when each draw was validated, 17 when the ginibre state was
    # drawn twice and each merge channel took 2 calls per state, and 62 and 5
    # when each state was evaluated on its own
    verify_group(2, 2, 1, 7)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= 9
    assert lapack_calls["svd"] <= 2


def test_verify_group_eigensolver_budget(lapack_calls):
    # one chunk holds all 8 trials: the sampler takes 1 eigh of the stacked raw
    # A, 1 of the stacked C and 1 stacked SVD for the Schur scale of B, and the
    # margins take the 7 stacked calls and 1 SVD of the one-trial budget
    # above: 9 and 2, against 8 x 2 + 7 = 23 and 8 + 1 = 9 when each trial was
    # sampled on its own
    verify_group(2, 2, 8, 7)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= 9
    assert lapack_calls["svd"] <= 2


def test_verify_group_eigensolver_budget_does_not_grow_with_trials(lapack_calls):
    # 20 trials still fit one chunk, so they keep the 8-trial budget: 9 and 2,
    # against 20 x 2 + 7 = 47 and 20 + 1 = 21 when each trial was sampled alone
    verify_group(2, 2, 20, 7)
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= 9
    assert lapack_calls["svd"] <= 2


def test_verify_group_diagonalises_each_sigma_once(monkeypatch):
    # 8 trials of (2, 3): the 2 x 2 blocks diagonalised are the sampler's raw A
    # (8), the A of both ensembles (16) and sigma's A (8), and likewise for the
    # 3 x 3 blocks; diagonalising sigma once per ensemble made it 40 each
    members = {}
    original = np.linalg.eigh

    def counted(h, *args, **kwargs):
        h = np.asarray(h)
        members[h.shape[-1]] = members.get(h.shape[-1], 0) + h.size // h.shape[-1] ** 2
        return original(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    verify_group(2, 3, 8, 7)
    assert members[2] == 32 and members[3] == 32


def test_verify_group_midpoint_stack_is_m_and_each_m_plus_ty(lapack_calls):
    # per trial, eigh receives 4 blocks of A (the sampler's raw A, A of both
    # ensembles, sigma's A), 4 of C, rho_t of both ensembles at the 3
    # dephasing times, and the midpoint stack of both ensembles: M and each
    # M + tY, 2 x (1 + 4) matrices.  With each M - tY as well, the stack took
    # 2 x (1 + 2 x 4), and the 8 trials 256 matrices against 192
    trials, states = 8, len(verify.ENSEMBLES)
    verify_group(2, 3, trials, 7)
    midpoint = states * (1 + len(verify.MIDPOINT_GRID))
    per_trial = 4 + 4 + states * len(verify.DEPHASING_TIMES) + midpoint
    assert lapack_calls.matrices["eigh"] == trials * per_trial


def test_singular_m_is_gated_by_the_midpoint_stack_and_the_bkm_form(capsys, tmp_path):
    # a pure 2 + 2 state has rank-1 A and C, so M is singular.  The BKM form,
    # over the supports, does not gate A, C > 0: the t = 0 member of the
    # midpoint stack gates M > 0 in midpoint_margins, and OrbitConfig's own
    # positivity gate in OrbitConfig and the orbit command
    rng = np.random.default_rng(12)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    state = block_decompose(np.outer(psi, psi.conj()), 2)
    with pytest.raises(PositivityError, match=r"at t = 0\.0,"):
        midpoint_margins(state, verify.MIDPOINT_GRID, ("bkm",))
    with pytest.raises(PositivityError):
        OrbitConfig(state=state, gamma=1.0, t_max=2.0, steps=2)
    path = tmp_path / "pure.json"
    write_state_json(path, state)
    argv = ["orbit", str(path), "--gamma", "1", "--t-max", "2", "--steps", "2"]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "orbit.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["report", "orbit"])
def test_singular_block_error_names_the_block(capsys, tmp_path, command):
    # C = diag(0.2, 0) is singular: report sums the BKM form over the supports
    # and exits 0; orbit prints its positivity gate's message, which names the
    # block and its lambda_min
    path = tmp_path / "singular_c.json"
    write_state_json(path, block_decompose(np.diag([0.5, 0.3, 0.2, 0.0]), 2))
    argv = [command, str(path)]
    if command == "report":
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["bkm_bound"] == 0.0
        return
    argv += ["--gamma", "1", "--t-max", "2", "--steps", "2"]
    argv += ["--out", str(tmp_path / "orbit.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: C must be positive definite, lambda_min = 0.000e+00\n"


def _trial_seed(dim_p, dim_q, trial, seed):
    return int(np.random.SeedSequence([seed, dim_p, dim_q, trial]).generate_state(1)[0])


def test_trial_states_match_separate_draws():
    # one ginibre draw serves both ensembles: every state is bit-identical to
    # drawing each one separately through random_block_state, wherever the
    # chunk boundaries fall, and is a valid density matrix although the
    # sampler does not validate it
    for seed, dim_p, dim_q in itertools.product((1, 7, 11), range(1, 5), range(1, 5)):
        expected = {}
        for trial in range(20):
            trial_seed = _trial_seed(dim_p, dim_q, trial, seed)
            expected[trial] = (
                random_block_state(dim_p, dim_q, trial_seed, "ginibre"),
                random_block_state(
                    dim_p, dim_q, trial_seed, "boundary",
                    a0=0.6 / dim_p, eps_q=0.2 / dim_p,
                ),
                random_block_state(dim_p, dim_q, trial_seed + 1, "ginibre"),
            )
        for chunk in (1, 3, 20):
            for start in range(0, 20, chunk):
                trials = range(start, min(start + chunk, 20))
                drawn = verify._chunk_states(dim_p, dim_q, trials, seed)
                for k, trial in enumerate(trials):
                    for stack, want in zip(drawn, expected[trial]):
                        got = BlockState(dim_p, dim_q, stack.a[k], stack.b[k], stack.c[k])
                        validate_density(got.to_matrix())
                        for block in "abc":
                            assert np.array_equal(
                                getattr(got, block), getattr(want, block)
                            ), (seed, dim_p, dim_q, chunk, trial, block)


def _craft_draw(monkeypatch, trial_seed, edit):
    """Pass the ginibre draw G of ``trial_seed`` through ``edit``, in verify's
    sampler and in random_block_state alike; every other draw is left as is."""
    draw = cebound.linalg._ginibre_draw

    def crafted(dim_p, dim_q, seed):
        g = draw(dim_p, dim_q, seed)
        return edit(g.copy()) if seed == trial_seed else g

    monkeypatch.setattr(verify, "_ginibre_draw", crafted)
    monkeypatch.setattr(cebound.linalg, "_ginibre_draw", crafted)


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
        mids = midpoint_margins(state, verify.MIDPOINT_GRID, tuple(PETZ_FUNCTIONS))
        record("midpoint", float(np.min(mids["bkm"])))
        for tag, values in mids.items():
            record(f"petz_{tag}", float(np.min(values)))
        entropy, pinched_sum, merged = pipeline_values(state, report.params["a0"])
        record("pipeline_pinch", entropy - pinched_sum)
        record("pipeline_merge", pinched_sum - merged)
        record("pythagorean", -abs(pythagorean_residual(state, sigma)))
        cfg = OrbitConfig(state=state, gamma=1.0, t_max=2.0, steps=2)
        for t in verify.DEPHASING_TIMES:
            record("dephasing", entropy_production(cfg, t).margin)
    return margins


def _assert_matches_reference(dim_p, dim_q, trials, seed):
    stacked = verify_group(dim_p, dim_q, trials, seed)
    assert all(values.shape == (trials,) for values in stacked.values())
    for trial in range(trials):
        reference = _reference_trial(dim_p, dim_q, trial, seed)
        # +inf marks a bound that applies to neither state of the trial
        margins = {
            name: values[trial]
            for name, values in stacked.items()
            if values[trial] != np.inf
        }
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
    monkeypatch.setattr(verify, "STACK_ELEMENTS", 2 * 2 * 5 * 5**2)
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
        midpoint_margins(bad, verify.MIDPOINT_GRID, ("bkm",))
    with pytest.raises(DomainError, match=r"M \+- Y must be positive semidefinite"):
        OrbitConfig(state=bad, gamma=1.0, t_max=2.0, steps=2)

    # a stack whose trial-1 boundary state has B pushed past the PSD edge
    draw = verify._chunk_states

    def crafted(dim_p, dim_q, trials, seed):
        ginibre, boundary, sigma = draw(dim_p, dim_q, trials, seed)
        scale = np.where(np.asarray(trials) == 1, 1.5, 1.0)[:, None, None]
        boundary = BlockState(dim_p, dim_q, boundary.a, scale * boundary.b, boundary.c)
        return ginibre, boundary, sigma

    monkeypatch.setattr(verify, "_chunk_states", crafted)
    with pytest.raises(
        DomainError,
        match=r"M \+- Y must be .*dims \(2, 2\), trial 1, ensemble boundary, seed 7",
    ):
        verify_group(2, 2, 3, 7)


def test_sampler_error_names_the_failing_trial(monkeypatch):
    # trial 1's ginibre draw repeats its last row, so its C is singular and the
    # boundary sampler cannot scale B; the chunk is drawn again trial by trial
    # and the error names the trial
    def repeat_last_row(g):
        g[-1] = g[-2]
        return g

    _craft_draw(monkeypatch, _trial_seed(2, 2, 1, 7), repeat_last_row)
    with pytest.raises(
        PositivityError,
        match=r"^C must be positive definite, lambda_min = .*"
        r"dims \(2, 2\), trial 1, ensemble boundary, seed 7\)$",
    ):
        verify_group(2, 2, 3, 7)


def test_chunk_error_that_no_trial_reproduces_is_raised_as_it_was(monkeypatch):
    # the trial-by-trial replay only adds the state to an error it reproduces;
    # an error of the chunk's stack alone propagates unchanged
    stack_margins = verify._stack_margins

    def chunk_only(state, sigma):
        if len(state.a) > 1:  # the chunk's stack, not a one-trial replay
            raise NumericError("chunk only")
        return stack_margins(state, sigma)

    monkeypatch.setattr(verify, "_stack_margins", chunk_only)
    with pytest.raises(NumericError, match="^chunk only$"):
        verify_group(2, 2, 3, 7)


def _patched_margins(monkeypatch, edit):
    """Route verify's stacked margins through ``edit(margins)``."""
    stack_margins = verify._stack_margins

    def patched(state, sigma):
        margins = stack_margins(state, sigma)
        edit(margins)
        return margins

    monkeypatch.setattr(verify, "_stack_margins", patched)


@pytest.mark.parametrize("member", [0, 3, 5])
@pytest.mark.parametrize("name", ["pythagorean", "bkm", "log"])
def test_verify_nan_margin_anywhere_fails(capsys, monkeypatch, name, member):
    # members 0, 3 and 5 are trial 0 ginibre, trial 1 boundary and trial 2
    # boundary: a NaN fails the run wherever it sits, not only when seen first
    def inject(margins):
        margins[name][member] = np.nan

    _patched_margins(monkeypatch, inject)
    code, out, _ = run(
        capsys, "verify", "--dims", "2..2", "--trials", "3", "--seed", "7"
    )
    assert code == 1
    summary = json.loads(out)
    assert summary["pass"] is False
    assert math.isnan(summary["inequalities"][name]["worst_margin"])
    assert summary["inequalities"][name]["trial"] == member // 2


def test_verify_omits_a_log_bound_that_never_applies(capsys, monkeypatch):
    # the log hypotheses fail for every state: both log margins are +inf, and
    # the summary leaves them out, as it does any bound that never applies
    def never_applies(margins):
        margins["log"][:] = np.inf
        margins["log_vs_bkm"][:] = np.inf

    flags = ("verify", "--dims", "1..2", "--trials", "2", "--seed", "7")
    _, full, _ = run(capsys, *flags)
    _patched_margins(monkeypatch, never_applies)
    code, out, _ = run(capsys, *flags)
    assert code == 0
    expected = json.loads(full)
    del expected["inequalities"]["log"], expected["inequalities"]["log_vs_bkm"]
    assert json.loads(out) == expected


def test_verify_group_rejects_empty_input():
    with pytest.raises(DomainError):
        verify_group(2, 2, 0, 7)
    with pytest.raises(DomainError):
        verify_group(0, 2, 1, 7)


def test_cli_imports_only_public_names():
    # cli parses flags and prints; the engines it calls are public functions,
    # and verify_group is exported, so the package API reaches it too
    src = pathlib.Path(cebound.__file__).parent
    imported = [
        alias.name
        for node in ast.walk(ast.parse((src / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert "verify_group" in imported
    assert [name for name in imported if name.startswith("_")] == []
    exported = {
        alias.name
        for node in ast.parse((src / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "verify"
        for alias in node.names
    }
    assert exported == {"verify_group"}
    assert cebound.verify_group is verify_group


def test_only_the_self_checking_classes_are_dataclasses():
    # a record that checks nothing at construction is a NamedTuple; BlockState
    # and OrbitConfig check their arguments, so they alone are dataclasses
    modules = [
        importlib.import_module(f"cebound.{info.name}")
        for info in pkgutil.iter_modules(cebound.__path__)
    ]
    classes = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    }
    assert {c for c in classes if dataclasses.is_dataclass(c)} == {BlockState, OrbitConfig}
    records = classes - {BlockState, OrbitConfig}
    not_tuples = [c.__name__ for c in records if not issubclass(c, (tuple, Exception))]
    assert not_tuples == []
    assert {"BoundReport", "ChannelWeights", "MergeSpec"} <= {c.__name__ for c in records}


def test_orbit_trace_eigensolver_budget(lapack_calls):
    # one eigh per row gives both the entropy and the rate, so 65 rows cost 65
    # calls, plus 2 for the config: eigh of A and of C, whose spectra give the
    # M check, Tr[M log M] and both bounds.  The config's eigh of rho, for
    # M +- Y, is the t = 0 row.  67 calls, against 68 when the config took
    # lambda_min of rho apart from row 0, 69 when M was diagonalised apart
    # from A and C, and 137 with an eigvalsh and an eigh per row
    state = random_block_state(2, 2, 7)
    lapack_calls.clear()
    orbit_trace(OrbitConfig(state=state, gamma=1.5, t_max=2.0, steps=64))
    assert lapack_calls["eigh"] + lapack_calls["eigvalsh"] <= 67


def test_report_path_lapack_budget(lapack_calls, tmp_path):
    # the state file is validated once, by one Cholesky of rho + PSD_TOL I
    # (was 1 eigvalsh, and 2 before that); the report takes one eigh of A and
    # of C, one eigvalsh of rho and of the fidelity's inner matrix, and one
    # SVD of B: 5 calls, against 13
    path = tmp_path / "state.json"
    write_state_json(path, random_block_state(3, 2, 7, "boundary", a0=0.2, eps_q=0.05))
    lapack_calls.clear()
    state = read_state_json(path)
    assert sum(lapack_calls.values()) == 1
    assert lapack_calls["cholesky"] == 1 and lapack_calls["eigvalsh"] == 0
    lapack_calls.clear()
    bound_report(state)
    assert sum(lapack_calls.values()) <= 5


def test_verify_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_verify_rejects_a_negative_seed(capsys):
    # a typed error, so exit 2 (bad input), not numpy's ValueError and exit 1
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        verify_group(2, 2, 1, -1)
    code, out, err = run(capsys, "verify", "--trials", "1", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be >= 0, got -1\n"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--dims", "3..2"], "invalid dims range '3..2'"),
        (["verify", "--tol", "tiny"], "not a number: 'tiny'"),
        (["sharpness", "--q", "1e-2,abc"], "not a number: 'abc'"),
        # an empty list once printed only the CSV header, with exit 0
        (["sharpness", "--q", ","], "no numbers in ','"),
        (["modulus", "--a-star", "0.8", "--tau", "0.5", "--eps", ""], "no numbers in ''"),
    ],
    ids=["empty-dims-range", "verify-tol-word", "sharpness-q-word", "sharpness-q-empty",
         "modulus-eps-empty"],
)
def test_malformed_flag_value_exits_two(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert message in captured.err


def test_parser_is_built_once_and_survives_failed_calls(capsys, two_level_file):
    # main() shares one parser: a usage error or a CeboundError between two
    # identical reports must leave the second report's output unchanged
    assert build_parser() is build_parser()
    first = run(capsys, "report", two_level_file)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["report", two_level_file, "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    infeasible = ["--a0", "0.5", "--eps", "0.05", "--c", "0.0", "--dp", "3", "--dq", "1"]
    code, _, err = run(capsys, "optimizer", *infeasible)
    assert code == 2 and "floor" in err
    assert run(capsys, "report", two_level_file) == first


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


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.5, 0.0, 0.5], [0.0, 0.0, 0.5], [0.5, 0.5, 0.5]],  # B with weight on ker A
        [[0.6, 0.0, 0.0], [0.0, -0.1, 0.0], [0.0, 0.0, 0.5]],  # A indefinite
    ],
    ids=["weight-on-ker-a", "indefinite-a"],
)
def test_report_never_reaches_the_bkm_forms_typed_errors(capsys, tmp_path, matrix):
    # blocks that raise DomainError or PositivityError in the BKM form are no
    # state: validate_density rejects the file first, with exit 2
    path = tmp_path / "not_a_state.json"
    pairs = [[[x, 0.0] for x in row] for row in matrix]
    path.write_text(json.dumps({"dim_p": 2, "dim_q": 1, "matrix": pairs}))
    code, out, err = run(capsys, "report", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: state file matrix is not positive semidefinite")
    assert "Traceback" not in err


def test_report_pure_state_exits_zero(capsys, tmp_path):
    # the BKM form over the supports needs no regularization, and --regularize
    # is gone: a usage error
    rng = np.random.default_rng(3)
    for dim in (2, 32, 64):
        psi = rng.standard_normal(2 * dim) + 1j * rng.standard_normal(2 * dim)
        psi /= np.linalg.norm(psi)
        path = tmp_path / f"pure_{dim}.json"
        write_state_json(path, block_decompose(np.outer(psi, psi.conj()), dim))
        code, out, err = run(capsys, "report", str(path))
        assert code == 0 and err == ""
        assert min(json.loads(out)["margins"].values()) >= -1e-9
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path), "--regularize"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --regularize" in capsys.readouterr().err


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


def test_orbit_exits_one_at_the_first_violated_row(capsys, monkeypatch, two_level_file, tmp_path):
    # a negative tolerance fails every row whose rate is finite.  The pure
    # state's t = 0 row has rate +inf and passes, so row 1 is named, and the
    # CSV is written in full first
    monkeypatch.setattr(cebound.cli, "RATE_REL_TOL", -1.0)
    out_path = tmp_path / "orbit.csv"
    flags = ("--gamma", "1", "--t-max", "2", "--steps", "4", "--out", str(out_path))
    code, out, err = run(capsys, "orbit", two_level_file, *flags)
    assert code == 1 and out == ""
    assert err == "rate bound violated at row 1 (t = 0.5)\n"
    assert len(out_path.read_text().splitlines()) == 6


@pytest.mark.parametrize("gamma, code", [("1e308", 2), ("8.9e307", 0)])
def test_orbit_needs_a_finite_bound_prefactor(capsys, tmp_path, gamma, code):
    # at gamma = 1e308 the prefactor 2 gamma overflowed: every row read nan for
    # bkm_bound, log_bound and margin, and nan passed the margin check (exit 0)
    state = pathlib.Path(__file__).parent / "golden" / "boundary_3_2.json"
    out_path = tmp_path / "orbit.csv"
    flags = ("--gamma", gamma, "--t-max", "1", "--steps", "2", "--out", str(out_path))
    got, out, err = run(capsys, "orbit", str(state), *flags)
    assert got == code
    if code:
        assert (out, err) == ("", "error: need gamma > 0 with 2*gamma finite, "
                                  "finite t_max > 0, steps >= 2\n")
        return
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert all(math.isfinite(float(row[k])) for row in rows for k in (3, 4))


@pytest.mark.parametrize(
    "t_max, steps, message",
    [
        ("1e308", 2, "steps * t_max must be finite, got 2 * 1e+308"),
        ("8.9e307", 2, None),
        ("1", 10**400, f"steps * t_max must be finite, got {10**400} * 1.0"),
        ("0.5", 10**400, f"steps * t_max must be finite, got {10**400} * 0.5"),
        ("5e-324", 2, "t_max / steps must be normal, got 5e-324 / 2"),
    ],
    ids=["1e308-2", "8.9e307-0", "steps-1e400", "steps-1e400-t-max-0.5", "step-below-float-min"],
)
def test_orbit_needs_a_finite_time_grid(capsys, tmp_path, t_max, steps, message):
    # t_k = k t_max / steps overflowed: at 1e308 the last row read t = inf, exit 0;
    # a steps past the float range raised a bare OverflowError, exit 1, also where
    # t_max < 1 keeps the exact product finite, since the grid divides by steps;
    # a step below the smallest normal float wrote two rows at t = 0, exit 0
    state = pathlib.Path(__file__).parent / "golden" / "boundary_3_2.json"
    out_path = tmp_path / "orbit.csv"
    flags = ("--gamma", "1", "--t-max", t_max, "--steps", str(steps), "--out", str(out_path))
    got, out, err = run(capsys, "orbit", str(state), *flags)
    if message:
        assert (got, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()
        return
    assert got == 0
    assert out_path.read_text().splitlines()[-1].startswith("8.9000000000000001e+307,")


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


@pytest.mark.parametrize("k", ["1e16", "1.41e16", "1e17"])
def test_separation_beyond_float64_exits_two(capsys, k):
    # 1e17 was a ZeroDivisionError traceback with exit code 1; 1e16 exited 0
    # with the ratio 1.06e16, rounding noise of log(m / eps)
    code, out, err = run(capsys, "separation", "--K", k)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_sharpness_command(capsys):
    code, out, _ = run(capsys, "sharpness", "--q", "1e-2,1e-4,1e-6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,entropy,bkm,ratio_bkm,ratio_log"
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert ratios == sorted(ratios, reverse=True)
    assert abs(ratios[-1] - 1.0) <= 0.1


def test_sharpness_rejects_a_subnormal_q(capsys):
    # 1e-310 printed bkm = inf and ratios 0 with an overflow warning, and exited 0
    code, out, err = run(capsys, "sharpness", "--q", "1e-310")
    assert code == 2
    assert out == ""
    assert err.startswith("error: q must be at least 2.2250738585072014e-308")


def test_sharpness_bad_q_exits_two_before_output(capsys):
    # every point is computed before the header, so a bad q after a good one
    # prints nothing on stdout, as modulus does
    code, out, err = run(capsys, "sharpness", "--q", "1e-2,1e-310")
    assert code == 2
    assert out == ""
    assert err.startswith("error: q must be at least 2.2250738585072014e-308")


def test_verify_unwritable_out_exits_two_before_output(capsys, tmp_path):
    # --out is written before the summary is printed
    out_path = tmp_path / "missing" / "x.json"
    argv = ["verify", "--dims", "1..1", "--trials", "1", "--seed", "7", "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "x.json" in err


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
    [
        ("0", "1e-2,1e-4", "a_star"),
        ("0.9", "0,0.01", "eps_q"),
        ("1e154", "1", "a_star"),
        ("1e308", "1e308", "a_star"),
        ("0.9", "0.01,1.5", "eps_q"),
    ],
    ids=["a-star-zero", "eps-zero", "a-star-1e154", "both-1e308", "eps-above-one"],
)
def test_modulus_zero_coherence_exits_two_before_output(capsys, a_star, eps, word):
    # c = tau a_star eps_q = 0 made the per-coherence column a silent nan.
    # a_star and eps_q are diagonal entries of a density matrix, so each lies
    # in (0, 1]: a_star = 1e154 printed the row 1,0,0 (Phi is about 356), and
    # 1e308 printed nan with a RuntimeWarning, both with exit 0
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
