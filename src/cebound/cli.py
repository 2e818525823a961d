"""Command-line front end.

Subcommands: verify, report, orbit, optimizer, separation, sharpness, modulus.
Exit codes: 0 success, 1 inequality violation, 2 invalid flags or inputs.
Randomized commands derive one RNG stream per (seed, dims, trial), so results
do not depend on execution order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bkm import PETZ_FUNCTIONS, midpoint_margins
from .bounds import bound_report, find_separation_eps, separation_family, sharpness_family
from .dephasing import OrbitConfig, entropy_production, orbit_trace, write_orbit_csv
from .errors import CeboundError
from .linalg import pinch, pythagorean_residual, random_block_state, read_state_json
from .variational import modulus_curve, pipeline_values
from .variational import optimizer as variational_optimizer

MIDPOINT_GRID = (0.25, 0.5, 0.75, 0.9)
DEPHASING_TIMES = (0.0, 0.5, 1.0)


def _parse_dims(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"dims must look like 2..4, got {text!r}") from exc
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"invalid dims range {text!r}")
    return range(lo, hi + 1)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_float_list(text: str) -> list:
    return [_finite_float(tok) for tok in text.split(",") if tok]


def _verify_trial(dim_p: int, dim_q: int, trial: int, seed: int) -> dict:
    """Worst margin per inequality for one trial (ginibre + boundary state)."""
    margins = {}

    def record(name, value):
        if name not in margins or value < margins[name]:
            margins[name] = value

    trial_seed = int(
        np.random.SeedSequence([seed, dim_p, dim_q, trial]).generate_state(1)[0]
    )
    a0 = 0.6 / dim_p
    eps_q = 0.2 / dim_p
    states = {
        "ginibre": random_block_state(dim_p, dim_q, trial_seed, "ginibre"),
        "boundary": random_block_state(
            dim_p, dim_q, trial_seed, "boundary", a0=a0, eps_q=eps_q
        ),
    }
    for state in states.values():
        report = bound_report(state)
        for name, value in report.margins.items():
            record(f"{name}", value)
        mids = midpoint_margins(state, MIDPOINT_GRID, tuple(PETZ_FUNCTIONS))
        record("midpoint", float(np.min(mids["bkm"])))
        for tag, values in mids.items():
            record(f"petz_{tag}", float(np.min(values)))
        entropy, pinched_sum, merged = pipeline_values(state, report.params["a0"])
        record("pipeline_pinch", entropy - pinched_sum)
        record("pipeline_merge", pinched_sum - merged)
        sigma = pinch(
            random_block_state(dim_p, dim_q, trial_seed + 1, "ginibre")
        )
        record("pythagorean", -abs(pythagorean_residual(state, sigma)))
        cfg = OrbitConfig(state=state, gamma=1.0, t_max=2.0, steps=2)
        for t in DEPHASING_TIMES:
            record("dephasing", entropy_production(cfg, t).margin)
    return margins


def _cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if args.tol <= 0.0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    tasks = [
        (dp, dq, trial)
        for dp in args.dims
        for dq in args.dims
        for trial in range(args.trials)
    ]
    results = [_verify_trial(*t, seed=args.seed) for t in tasks]

    worst = {}
    for task, margins in zip(tasks, results):
        for name, value in margins.items():
            if name not in worst or value < worst[name]["worst_margin"]:
                worst[name] = {
                    "worst_margin": value,
                    "dims": [task[0], task[1]],
                    "trial": task[2],
                    "seed": args.seed,
                }
    ok = all(entry["worst_margin"] >= -args.tol for entry in worst.values())
    summary = {
        "command": "verify",
        "dims": [args.dims.start, args.dims.stop - 1],
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
        "inequalities": worst,
        "pass": ok,
    }
    text = json.dumps(summary, sort_keys=True, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    state = read_state_json(args.state)
    report = bound_report(state, regularize=args.regularize)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_orbit(args) -> int:
    state = read_state_json(args.state)
    cfg = OrbitConfig(state=state, gamma=args.gamma, t_max=args.t_max, steps=args.steps)
    rows = orbit_trace(cfg)
    write_orbit_csv(args.out, rows)
    for idx, row in enumerate(rows):
        if row.margin < -1e-6 * (1.0 + abs(row.rate)):
            print(f"rate bound violated at row {idx} (t = {row.t})", file=sys.stderr)
            return 1
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_optimizer(args) -> int:
    result = variational_optimizer(args.a0, args.eps, args.c, args.dp, args.dq)
    state = result.state
    rho = state.to_matrix()
    payload = {
        "a0": args.a0,
        "eps": args.eps,
        "c": args.c,
        "dp": args.dp,
        "dq": args.dq,
        "a_star": result.a_star,
        "value": result.value,
        "state": {
            "dim_p": state.dim_p,
            "dim_q": state.dim_q,
            "matrix": [[[z.real, z.imag] for z in row] for row in rho],
        },
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_separation(args) -> int:
    eps = find_separation_eps(args.k)
    point = separation_family(args.k, eps)
    payload = {"k": args.k, "eps": eps, "ratio": point.ratio}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0 if point.ratio >= args.k else 1


def _cmd_sharpness(args) -> int:
    print("q,entropy,bkm,ratio_bkm,ratio_log")
    for q in args.q:
        pt = sharpness_family(q)
        print(
            f"{q:.17g},{pt.entropy:.17g},{pt.bkm:.17g},"
            f"{pt.ratio_bkm:.17g},{pt.ratio_log:.17g}"
        )
    return 0


def _cmd_modulus(args) -> int:
    rows = modulus_curve(args.a_star, args.tau, args.eps)
    print("eps_q,phi,phi_per_coherence")
    for eps_q, val, per in rows:
        print(f"{eps_q:.17g},{val:.17g},{per:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cebound",
        description="Verify BKM lower bounds for the relative entropy of coherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the randomized inequality suites")
    p.add_argument("--dims", type=_parse_dims, default=range(2, 4))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="bound report for a JSON state file")
    p.add_argument("state")
    p.add_argument("--regularize", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("orbit", help="dephasing orbit CSV for a JSON state file")
    p.add_argument("state")
    p.add_argument("--gamma", type=_finite_float, required=True)
    p.add_argument("--t-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("optimizer", help="explicit two-level entropy minimizer")
    p.add_argument("--a0", type=_finite_float, required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--c", type=_finite_float, required=True)
    p.add_argument("--dp", type=int, required=True)
    p.add_argument("--dq", type=int, required=True)
    p.set_defaults(func=_cmd_optimizer)

    p = sub.add_parser("separation", help="operator vs scalar bound separation witness")
    p.add_argument("--K", dest="k", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_separation)

    p = sub.add_parser("sharpness", help="two-level sharpness ratios")
    p.add_argument("--q", type=_parse_float_list, required=True)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("modulus", help="boundary scaling modulus table")
    p.add_argument("--a-star", dest="a_star", type=_finite_float, required=True)
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--eps", type=_parse_float_list, required=True)
    p.set_defaults(func=_cmd_modulus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CeboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
