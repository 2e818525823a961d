"""Command-line front end.

Subcommands: verify, report, orbit, optimizer, separation, sharpness, modulus.
Exit codes: 0 success, 1 inequality violation, 2 invalid flags or inputs.
Randomized commands derive one RNG stream per (seed, dims, trial), so results
do not depend on execution order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .bounds import (
    MARGIN_TOL,
    bound_report,
    find_separation_eps,
    separation_family,
    sharpness_family,
)
from .dephasing import RATE_REL_TOL, OrbitConfig, orbit_trace, write_orbit_csv
from .errors import CeboundError
from .linalg import read_state_json, state_payload
from .variational import modulus_curve
from .variational import optimizer as variational_optimizer
from .verify import verify_group


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
    values = [_finite_float(tok) for tok in text.split(",") if tok]
    if not values:
        raise argparse.ArgumentTypeError(f"no numbers in {text!r}")
    return values


def _cmd_verify(args) -> int:
    if args.tol <= 0.0:
        print("error: --tol must be positive", file=sys.stderr)
        return 2
    groups = [(dp, dq) for dp in args.dims for dq in args.dims]
    margins = [verify_group(dp, dq, args.trials, args.seed) for dp, dq in groups]
    worst = {}
    for name in margins[0]:
        # groups in order, trials in order within each: argmin takes the first
        # minimum, or the first NaN, so a NaN margin anywhere fails the run
        values = np.concatenate([m[name] for m in margins])
        k = int(np.argmin(values))
        if values[k] == np.inf:  # a bound that applies to no state
            continue
        index, trial = divmod(k, args.trials)
        worst[name] = {
            "worst_margin": float(values[k]),
            "dims": list(groups[index]),
            "trial": trial,
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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    state = read_state_json(args.state)
    report = bound_report(state)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_orbit(args) -> int:
    state = read_state_json(args.state)
    cfg = OrbitConfig(state=state, gamma=args.gamma, t_max=args.t_max, steps=args.steps)
    rows = orbit_trace(cfg)
    write_orbit_csv(args.out, rows)
    for idx, row in enumerate(rows):
        if row.margin < -RATE_REL_TOL * (1.0 + abs(row.rate)):
            print(f"rate bound violated at row {idx} (t = {row.t})", file=sys.stderr)
            return 1
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_optimizer(args) -> int:
    result = variational_optimizer(args.a0, args.eps, args.c, args.dp, args.dq)
    payload = {
        "a0": args.a0,
        "eps": args.eps,
        "c": args.c,
        "dp": args.dp,
        "dq": args.dq,
        "a_star": result.a_star,
        "value": result.value,
        "state": state_payload(result.state),
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_separation(args) -> int:
    eps = find_separation_eps(args.k)
    point = separation_family(args.k, eps)
    payload = {"k": args.k, "eps": eps, "ratio": point.ratio}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_sharpness(args) -> int:
    points = [sharpness_family(q) for q in args.q]
    print("q,entropy,bkm,ratio_bkm,ratio_log")
    for q, pt in zip(args.q, points):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built by the first call (about 2 ms) and then shared:
    parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="cebound",
        description="Verify BKM lower bounds for the relative entropy of coherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the randomized inequality suites")
    p.add_argument("--dims", type=_parse_dims, default=range(2, 4))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=_finite_float, default=MARGIN_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="bound report for a JSON state file")
    p.add_argument("state")
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
    except (CeboundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
