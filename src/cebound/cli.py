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

from .bkm import PETZ_FUNCTIONS, _check_midpoint, _midpoint_margins
from .bounds import (
    _BlockSpectra,
    _bounds,
    bound_report,
    find_separation_eps,
    separation_family,
    sharpness_family,
)
from .dephasing import OrbitConfig, _production, _rate, orbit_trace, write_orbit_csv
from .errors import CeboundError
from .linalg import (
    BlockState,
    _join_spectra,
    _pythagorean,
    _stack,
    pinch,
    random_block_state,
    read_state_json,
)
from .variational import _pinched_and_merged, modulus_curve
from .variational import optimizer as variational_optimizer

MIDPOINT_GRID = (0.25, 0.5, 0.75, 0.9)
DEPHASING_TIMES = (0.0, 0.5, 1.0)
ENSEMBLES = ("ginibre", "boundary")
# Cap on the entries of the largest stacked array of a verify chunk (the
# midpoint grid, 9 matrices of d x d per state): at d = 64 a chunk is one
# trial, so memory stays that of evaluating states one by one.
STACK_ELEMENTS = 1 << 16


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


def _trial_states(dim_p: int, dim_q: int, trial: int, seed: int):
    """The trial's (ginibre, boundary) states and its Pythagorean reference
    sigma, drawn as a ginibre state whose pinching is used."""
    trial_seed = int(
        np.random.SeedSequence([seed, dim_p, dim_q, trial]).generate_state(1)[0]
    )
    states = (
        random_block_state(dim_p, dim_q, trial_seed, "ginibre"),
        random_block_state(
            dim_p, dim_q, trial_seed, "boundary", a0=0.6 / dim_p, eps_q=0.2 / dim_p
        ),
    )
    return states, random_block_state(dim_p, dim_q, trial_seed + 1, "ginibre")


def _stack_margins(state: BlockState, sigma: BlockState) -> list:
    """(inequality, margin) pairs for each member of a stack of states.

    ``sigma`` stacks each member's Pythagorean reference (used pinched).  One
    eigh each of A, C and rho and one SVD of B serve every bound, the M +- Y
    check, the Pythagorean terms, the dephasing rate at t = 0 (rho_0 = rho) and
    the SVD pinching; only that pinching and the merge run per member.
    """
    sp = _BlockSpectra(*np.linalg.eigh(state.a), *np.linalg.eigh(state.c))
    rho = state.to_matrix()
    w_rho, v_rho = np.linalg.eigh(rho)
    _check_midpoint(np.minimum(sp.wa[:, 0], sp.wc[:, 0]), w_rho[:, 0])
    svd = np.linalg.svd(state.b)
    bounds, _ = _bounds(state, sp, rho, w_rho, svd[1])
    margins = bounds.margins()
    log_applies = ~np.isnan(bounds.log)

    m, y = pinch(state), state.off_diagonal()
    mids = _midpoint_margins(m, y, MIDPOINT_GRID, tuple(PETZ_FUNCTIONS))

    # gamma = 1, so alpha = e^{-t}, and t = 0 gives rho itself
    alphas = np.array([math.exp(-t) for t in DEPHASING_TIMES[1:]])
    w_t, v_t = np.linalg.eigh(m[:, None] + alphas[:, None, None] * y[:, None])
    rates = [
        _rate(1.0, 1.0, y, w_rho, v_rho),
        *_rate(1.0, alphas, y[:, None], w_t, v_t).T,
    ]
    dephasing = [
        _production(1.0, t, rate, bounds.bkm).margin
        for t, rate in zip(DEPHASING_TIMES, rates)
    ]

    m_spectra = _join_spectra(*sp)
    s_spectra = _join_spectra(*np.linalg.eigh(sigma.a), *np.linalg.eigh(sigma.c))
    pythagorean = -np.abs(_pythagorean(rho, w_rho, m, m_spectra, s_spectra))

    out = []
    for k in range(len(rho)):
        member = BlockState(
            state.dim_p, state.dim_q, state.a[k], state.b[k], state.c[k]
        )
        pinched_sum, merged = _pinched_and_merged(
            member, float(sp.wa[k, 0]), [x[k] for x in svd]
        )
        names = ["bkm", "pinsker", "fidelity"]
        if log_applies[k]:
            names += ["log", "log_vs_bkm"]
        pairs = [(name, float(margins[name][k])) for name in names]
        pairs.append(("midpoint", float(np.min(mids["bkm"][k]))))
        pairs += [(f"petz_{tag}", float(np.min(v[k]))) for tag, v in mids.items()]
        pairs += [
            ("pipeline_pinch", float(bounds.entropy[k]) - pinched_sum),
            ("pipeline_merge", pinched_sum - merged),
            ("pythagorean", float(pythagorean[k])),
        ]
        pairs += [("dephasing", float(margin[k])) for margin in dephasing]
        out.append(pairs)
    return out


def _verify_group(dim_p: int, dim_q: int, trials: int, seed: int) -> list:
    """Worst margin per inequality for each trial of one (d_p, d_q) group, in
    trial order.

    Each trial contributes a ginibre and a boundary state; the group is
    evaluated as one stack, in chunks of at most STACK_ELEMENTS entries of
    the midpoint-grid stack.  A failing check is replayed member by member,
    so its error names the state's dims, trial and ensemble.
    """
    trial_entries = len(ENSEMBLES) * (1 + 2 * len(MIDPOINT_GRID)) * (dim_p + dim_q) ** 2
    per_chunk = max(1, STACK_ELEMENTS // trial_entries)
    results = []
    for start in range(0, trials, per_chunk):
        drawn = [
            _trial_states(dim_p, dim_q, trial, seed)
            for trial in range(start, min(start + per_chunk, trials))
        ]
        states = [state for pair, _ in drawn for state in pair]
        sigmas = [sigma for _, sigma in drawn for _ in ENSEMBLES]
        try:
            pairs = _stack_margins(_stack(states), _stack(sigmas))
        except CeboundError:
            for k, member in enumerate(zip(states, sigmas)):
                try:
                    _stack_margins(*(_stack([x]) for x in member))
                except CeboundError as exc:
                    trial, ensemble = divmod(k, len(ENSEMBLES))
                    raise type(exc)(
                        f"{exc} (dims ({dim_p}, {dim_q}), trial {start + trial}, "
                        f"ensemble {ENSEMBLES[ensemble]}, seed {seed})"
                    ) from exc
            raise
        for trial in range(len(drawn)):
            margins = {}
            for member in pairs[len(ENSEMBLES) * trial : len(ENSEMBLES) * (trial + 1)]:
                for name, value in member:
                    if name not in margins or value < margins[name]:
                        margins[name] = value
            results.append(margins)
    return results


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
    results = [
        margins
        for dp in args.dims
        for dq in args.dims
        for margins in _verify_group(dp, dq, args.trials, args.seed)
    ]

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
