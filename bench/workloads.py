"""The benchmark's workloads: the CLI calls of one pass and their output checks.

Every workload drives the real CLI in-process through ``cebound.cli.main``,
one call after another (a closed loop with a single caller).  Inputs come only
from the seed.  Each call's output is checked once per distinct argument list;
every later call with the same arguments must reproduce it byte for byte.
The tolerances are the package's own, written out here so that a change to
the package cannot loosen them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field

MARGIN_TOL = 1e-9  # cebound.bounds.MARGIN_TOL
BLOCK_IDENTITY_TOL = 1e-10  # acceptance criterion 3: |H_M(Y,Y) - 2 bkm| absolute
RATE_REL_TOL = 1e-6  # cebound.dephasing.RATE_REL_TOL: |rate - fd| <= tol (1 + |rate|)
INEQUALITIES = (
    "bkm", "dephasing", "fidelity", "log", "log_vs_bkm", "midpoint",
    "petz_arithmetic", "petz_bkm", "petz_geometric", "petz_harmonic",
    "pinsker", "pipeline_merge", "pipeline_pinch", "pythagorean",
)


@dataclass
class Call:
    """One CLI invocation: its arguments, exit code, wall time and outputs."""

    kind: str
    argv: list
    rc: int | None
    seconds: float
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)

    def output(self) -> tuple:
        return (self.rc, self.stdout, tuple(sorted(self.files.items())))


def invoke(main, kind: str, argv: list) -> Call:
    """Run ``main(argv)`` with stdout and stderr captured; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed operation, not a crash
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return Call(kind, list(argv), rc, seconds, out.getvalue(), err.getvalue())


class Verify:
    """One pass is ``cebound verify --dims D --trials N --seed S``."""

    def __init__(self, dims: tuple, trials: int):
        self.dims = dims
        self.trials = trials

    @property
    def trials_per_pass(self) -> int:
        span = self.dims[1] - self.dims[0] + 1
        return span * span * self.trials

    def make_inputs(self, pkg, seed, workdir):
        return [
            "verify", "--dims", f"{self.dims[0]}..{self.dims[1]}",
            "--trials", str(self.trials), "--seed", str(seed),
        ]

    def run_pass(self, main, inputs):
        return [invoke(main, "verify", inputs)]

    def items_per_s(self, calls):
        return self.trials_per_pass / sum(c.seconds for c in calls)

    def check(self, call, pkg, inputs) -> tuple[list, dict]:
        """Problems found in a first-seen call, plus diagnostics to print."""
        problems = []
        if call.rc != 0:
            return [f"verify exited {call.rc}: {call.stderr.strip()[-300:]}"], {}
        summary = json.loads(call.stdout)
        if summary.get("pass") is not True:
            problems.append("verify reported pass != true")
        names = set(summary.get("inequalities", {}))
        if names != set(INEQUALITIES):
            problems.append(
                f"inequalities missing {sorted(set(INEQUALITIES) - names)}, "
                f"unexpected {sorted(names - set(INEQUALITIES))}"
            )
        worst = min(
            (v["worst_margin"] for v in summary.get("inequalities", {}).values()),
            default=math.nan,
        )
        return problems, {"worst_margin": worst}


class ReportOrbit:
    """One pass is ``report FILE`` repeated, then ``orbit FILE``, on one
    boundary-ensemble state written at set-up."""

    gamma, t_max = 1.5, 2.0

    def __init__(self, dim: int = 32, reports: int = 100, steps: int = 64):
        self.dim = dim
        self.reports = reports
        self.steps = steps

    def make_inputs(self, pkg, seed, workdir):
        d = self.dim
        state = pkg.random_block_state(
            d, d, seed, "boundary", a0=0.6 / d, eps_q=0.2 / d
        )
        path = workdir / "state.json"
        pkg.write_state_json(path, state)
        return {"state": state, "path": path, "csv": workdir / "orbit.csv"}

    def run_pass(self, main, inputs):
        report = ["report", str(inputs["path"])]
        calls = [invoke(main, "report", report) for _ in range(self.reports)]
        orbit = invoke(main, "orbit", [
            "orbit", str(inputs["path"]), "--gamma", str(self.gamma),
            "--t-max", str(self.t_max), "--steps", str(self.steps),
            "--out", str(inputs["csv"]),
        ])
        csv_path = inputs["csv"]
        if csv_path.exists():
            orbit.files["orbit.csv"] = csv_path.read_text()
            csv_path.unlink()
        calls.append(orbit)
        return calls

    def items_per_s(self, calls):
        orbit = [c for c in calls if c.kind == "orbit"]
        return (self.steps + 1) * len(orbit) / sum(c.seconds for c in orbit)

    def check(self, call, pkg, inputs):
        if call.rc != 0:
            return [f"{call.kind} exited {call.rc}: {call.stderr.strip()[-300:]}"], {}
        if call.kind == "report":
            return self._check_report(call, pkg, inputs["state"])
        return self._check_orbit(call, pkg, inputs["state"])

    def _check_report(self, call, pkg, state):
        report = json.loads(call.stdout)
        problems = [
            f"report margin {name} = {value:.3e} < -{MARGIN_TOL}"
            for name, value in report["margins"].items()
            if not value >= -MARGIN_TOL
        ]
        block = pkg.bkm_hessian(pkg.pinch(state), state.off_diagonal())
        defect = abs(block - 2.0 * report["bkm_bound"])
        if not defect <= BLOCK_IDENTITY_TOL:
            problems.append(
                f"block identity |H_M(Y,Y) - 2 bkm| = {defect:.3e} > {BLOCK_IDENTITY_TOL}"
            )
        return problems, {
            "report_worst_margin": min(report["margins"].values()),
            "block_identity_defect": defect,
        }

    def _check_orbit(self, call, pkg, state):
        text = call.files.get("orbit.csv")
        if text is None:
            return ["orbit wrote no CSV"], {}
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = []
        if len(rows) != self.steps + 1:
            problems.append(f"orbit wrote {len(rows)} rows, expected {self.steps + 1}")
        worst, at_zero = 0.0, math.nan
        for row in rows:
            t, rate = float(row["t"]), float(row["rate"])
            rel = abs(rate - self._fd_rate(pkg, state, t)) / (1.0 + abs(rate))
            if t == 0.0:
                at_zero = rel  # true rate diverges at this PSD edge: reported only
            elif not rel <= RATE_REL_TOL:
                problems.append(f"orbit rate at t={t} off its finite difference by {rel:.3e}")
            else:
                worst = max(worst, rel)
        return problems, {"orbit_fd_rel_worst_t_pos": worst, "orbit_fd_rel_t0": at_zero}

    def _fd_rate(self, pkg, state, t: float) -> float:
        """-dD/dt by finite differences of the public ``coherence_entropy``,
        with the step and stencils of ``cebound.dephasing.fd_rate``."""
        h = min(1e-6, 1e-3 / self.gamma)

        def d_at(s: float) -> float:
            alpha = math.exp(-self.gamma * s)
            scaled = pkg.BlockState(
                dim_p=state.dim_p, dim_q=state.dim_q, a=state.a, b=alpha * state.b, c=state.c
            )
            return pkg.coherence_entropy(scaled)

        if t < h:
            return -(-3.0 * d_at(t) + 4.0 * d_at(t + h) - d_at(t + 2.0 * h)) / (2.0 * h)
        return -(d_at(t + h) - d_at(t - h)) / (2.0 * h)


# Why each workload and size: bench/README.md.  A pass lasts 1-3 s, so a run
# holds enough passes for a steady median on a noisy host.
WORKLOADS = {
    "verify-small": lambda: Verify((1, 4), 5),
    "report-orbit": ReportOrbit,
}
