"""Command-line interface.

Subcommands:

    pdm build        construct a PDM from a state and a chain of channels
    pdm negativity   causality monotone of a stored PDM
    pdm reverse      time-reverse a stored PDM
    infer classify   run the causal-structure protocol on a stored PDM
    reproduce        self-checking worked examples (measure-prepare,
                     common-cause-mixture, swap-influence)
    sweep haar       Monte-Carlo negativity sweeps (fig3, fig4)

Exit codes: 0 success, 1 input error, 2 numerical inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import harness
from .channels import QuantumState, channel_from_id, channel_from_json
from .inference import Thresholds, classify
from .linalg import NumericalInconsistencyError, matrix_from_json
from .pdm import (
    PDM,
    negativity,
    pdm_from_json,
    pdm_from_measurements,
    pdm_iterative,
    pdm_to_json,
    time_reverse,
)

_STATE_IDS = {
    "zero": ([1, 0], (2,)),
    "one": ([0, 1], (2,)),
    "plus": ([1, 1], (2,)),
    "minus": ([1, -1], (2,)),
    "zero_zero": ([1, 0, 0, 0], (2, 2)),
    "bell": ([1, 0, 0, 1], (2, 2)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from exc


def _load_state(source: str) -> QuantumState:
    if source in _STATE_IDS:
        amplitudes, factors = _STATE_IDS[source]
        return QuantumState.from_ket(amplitudes, factors)
    if source == "mixed":
        return QuantumState.maximally_mixed(2)
    return QuantumState(matrix_from_json(_load_json(source)))


def _load_channel(source: str):
    try:
        return channel_from_id(source)
    except ValueError:
        if source.startswith("partial_swap:"):  # an id with a bad angle, not a path
            raise
    return channel_from_json(_load_json(source))


def _load_pdm(path: str) -> PDM:
    return pdm_from_json(_load_json(path))


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _thresholds(args) -> Thresholds:
    return Thresholds(eps_neg=args.eps_neg, eps_pos=args.eps_pos, rank_tol=args.rank_tol)


def _cmd_pdm_build(args) -> int:
    state = _load_state(args.state)
    channels = [_load_channel(c) for c in args.channel]
    if args.method == "measurements":
        pdm = pdm_from_measurements(state, channels)
    else:
        pdm = pdm_iterative(state, channels)
    _emit(json.dumps(pdm_to_json(pdm), indent=2) + "\n", args.out)
    return 0


def _cmd_pdm_negativity(args) -> int:
    value = negativity(_load_pdm(args.infile))
    print(json.dumps({"f": value}))
    return 0


def _cmd_pdm_reverse(args) -> int:
    pdm = time_reverse(_load_pdm(args.infile))
    _emit(json.dumps(pdm_to_json(pdm), indent=2) + "\n", args.out)
    return 0


def _cmd_infer_classify(args) -> int:
    verdict = classify(_load_pdm(args.infile), _thresholds(args))
    _emit(json.dumps(verdict.to_json(), indent=2) + "\n", args.out)
    return 0


def _cmd_reproduce(args) -> int:
    # a grid flag the scenario does not read would silently run the default grid
    if args.scenario == "measure-prepare" and args.theta:
        raise ValueError("reproduce measure-prepare takes --lambda, not --theta")
    if args.scenario != "measure-prepare" and args.lam:
        raise ValueError(f"reproduce {args.scenario} takes --theta, not --lambda")
    if args.scenario == "measure-prepare":
        rows = harness.run_measure_prepare(args.lam or harness.DEFAULT_LAMBDAS)
    elif args.scenario == "common-cause-mixture":
        rows = harness.run_common_cause_mixture(
            args.theta or harness.DEFAULT_MIXTURE_THETAS_DEG
        )
    else:
        rows = harness.run_swap_influence(args.theta or harness.DEFAULT_THETAS_DEG)
    text = harness.write_rows(rows, args.format, args.out)
    if text is not None:
        sys.stdout.write(text)
    return 0


def _cmd_sweep_haar(args) -> int:
    if args.scenario == "fig3" and args.theta:
        raise ValueError("sweep haar --scenario fig3 takes no --theta (fig4 only)")
    # angles print as given, so the default goes in as floats like --theta's
    thetas = args.theta or [float(t) for t in harness.DEFAULT_SWEEP_THETAS_DEG]
    rows, summary = harness.run_haar_sweep(args.scenario, args.n, args.seed, thetas)
    text = harness.write_rows(rows, args.format, args.out)
    if text is not None:
        sys.stdout.write(text)
        print(json.dumps(summary), file=sys.stderr)
    else:
        print(json.dumps(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdmcausal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_pdm = sub.add_parser("pdm", help="build and transform pseudo-density matrices")
    pdm_sub = p_pdm.add_subparsers(dest="pdm_command", required=True)

    p_build = pdm_sub.add_parser("build", help="build a PDM from a state and channels")
    p_build.add_argument("--state", required=True, help="state id or matrix JSON path")
    p_build.add_argument(
        "--channel",
        action="append",
        default=[],
        help="channel id or JSON path (repeatable, in time order)",
    )
    p_build.add_argument(
        "--method",
        choices=["closed", "iterative", "measurements"],
        default="closed",
        help="construction: measurements simulates every measurement tuple; closed "
        "(the default) and iterative both name the anticommutator construction",
    )
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(fn=_cmd_pdm_build)

    p_neg = pdm_sub.add_parser("negativity", help="trace norm minus one")
    p_neg.add_argument("--in", dest="infile", required=True)
    p_neg.set_defaults(fn=_cmd_pdm_negativity)

    p_rev = pdm_sub.add_parser("reverse", help="swap the two time slots")
    p_rev.add_argument("--in", dest="infile", required=True)
    p_rev.add_argument("--out", default=None)
    p_rev.set_defaults(fn=_cmd_pdm_reverse)

    p_infer = sub.add_parser("infer", help="causal inference")
    infer_sub = p_infer.add_subparsers(dest="infer_command", required=True)
    p_cls = infer_sub.add_parser("classify", help="five-structure compatibility verdict")
    p_cls.add_argument("--in", dest="infile", required=True)
    p_cls.add_argument("--eps-neg", type=float, default=Thresholds.eps_neg)
    p_cls.add_argument("--eps-pos", type=float, default=Thresholds.eps_pos)
    p_cls.add_argument("--rank-tol", type=float, default=Thresholds.rank_tol)
    p_cls.add_argument("--out", default=None)
    p_cls.set_defaults(fn=_cmd_infer_classify)

    p_rep = sub.add_parser("reproduce", help="self-checking worked examples")
    p_rep.add_argument(
        "scenario",
        choices=["measure-prepare", "common-cause-mixture", "swap-influence"],
    )
    p_rep.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        action="append",
        help="mixing weight(s) for measure-prepare",
    )
    p_rep.add_argument(
        "--theta",
        type=float,
        action="append",
        help="angle(s) in degrees for common-cause-mixture and swap-influence",
    )
    p_rep.add_argument("--format", choices=["csv", "json"], default="json")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(fn=_cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="Monte-Carlo sweeps")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    p_haar = sweep_sub.add_parser("haar", help="random-circuit / random-input negativity")
    p_haar.add_argument("--scenario", choices=["fig3", "fig4"], required=True)
    p_haar.add_argument("--n", type=int, default=1000)
    p_haar.add_argument("--seed", type=int, required=True)
    p_haar.add_argument(
        "--theta",
        type=float,
        action="append",
        default=None,
        help="angles in degrees for fig4 (default 30 and 60)",
    )
    p_haar.add_argument("--format", choices=["csv", "json"], default="csv")
    p_haar.add_argument("--out", default=None)
    p_haar.set_defaults(fn=_cmd_sweep_haar)

    return parser


# One parser per process: a parser is a reference cycle (each action points
# back at its container), so a fresh one per call is garbage that only a full
# collection frees, and in-process callers such as the sweeps pile them up.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalInconsistencyError as exc:
        print(f"numerical inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
