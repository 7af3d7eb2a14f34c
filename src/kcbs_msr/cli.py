"""Command-line front end.

Subcommands: ``eval`` one state, ``classify`` its regime, ``extremal``
closed-form / numeric extremes at fixed concurrence, ``scan`` a parameter
grid to CSV/JSON, ``verify`` the full self-check suite.

Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 I/O error.

The argument parser is built once per process, on the first ``main`` call,
and every later call reuses it: parsing keeps no state in the parser, and
a build costs about 20 parses.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .checks import _ORACLE_TOLERANCE, run_all_checks
from .classify import classify_state
from .extremal import (
    extremal_witnesses,
    numeric_extremal_search,
    s_max_for_concurrence,
    s_min_for_concurrence,
)
from .scan import ScanConfig, write_scan
from .states import DEFAULT_SEED, MsrPair, msr_to_qutrit

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real:.12g}{sign}{abs(value.imag):.12g}i"


def _angles_to_pair(args) -> MsrPair:
    for name in ("theta1", "theta2"):
        value = getattr(args, name)
        if not 0.0 <= value <= math.pi:
            raise ValueError(f"{name} out of [0, pi]: got {value}")
    return MsrPair.from_angles(args.theta1, args.phi1, args.theta2, args.phi2)


def _print_report(pair: MsrPair) -> None:
    report = classify_state(pair)
    print(f"theta1 = {_fmt(report.theta1)}")
    print(f"theta2 = {_fmt(report.theta2)}")
    print(f"delta_phi = {_fmt(report.delta_phi)}")
    print(f"S = {_fmt(report.s)}")
    print(f"C = {_fmt(report.c)}")
    print(f"regime = {report.regime.value}")


def _cmd_eval(args) -> int:
    pair = _angles_to_pair(args)
    _print_report(pair)
    qutrit = msr_to_qutrit(pair)
    print(f"amp(+1) = {_fmt_complex(qutrit.amp_plus1)}")
    print(f"amp(0) = {_fmt_complex(qutrit.amp_0)}")
    print(f"amp(-1) = {_fmt_complex(qutrit.amp_minus1)}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    _print_report(_angles_to_pair(args))
    return EXIT_OK


def _cmd_extremal(args) -> int:
    objective = "minimize" if args.objective == "min" else "maximize"
    closed = (
        s_min_for_concurrence(args.concurrence)
        if objective == "minimize"
        else s_max_for_concurrence(args.concurrence)
    )
    print(f"concurrence = {_fmt(args.concurrence)}")
    print(f"objective = {objective}")
    if args.method in ("closed", "both"):
        print(f"S_closed = {_fmt(closed)}")
        for t1, t2, dphi in extremal_witnesses(args.concurrence, objective):
            print(
                f"witness: theta1 = {_fmt(t1)}, theta2 = {_fmt(t2)}, "
                f"delta_phi = {_fmt(dphi)}"
            )
    if args.method in ("numeric", "both"):
        found = numeric_extremal_search(args.concurrence, objective)
        print(f"S_numeric = {_fmt(found.s_star)}")
        print(
            f"numeric witness: theta1 = {_fmt(found.theta1)}, "
            f"theta2 = {_fmt(found.theta2)}, delta_phi = {_fmt(found.delta_phi)}"
        )
        if args.method == "both":
            discrepancy = abs(found.s_star - closed)
            print(f"discrepancy = {discrepancy:.3e}")
            if discrepancy <= _ORACLE_TOLERANCE:
                print(f"result: PASS (tolerance {_ORACLE_TOLERANCE:g})")
            else:
                print(f"result: FAIL (tolerance {_ORACLE_TOLERANCE:g})")
                return EXIT_VERIFY_FAILED
    return EXIT_OK


def _cmd_scan(args) -> int:
    config = ScanConfig(
        resolution=args.resolution,
        output_path=args.output,
        output_format=args.format,
    )
    summary = write_scan(config)
    print(f"records = {summary.total}")
    for label, count in summary.counts.items():
        print(f"count[{label}] = {count}")
    print(f"wrote {summary.path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all_checks(samples=args.samples, seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  max_error={r.max_error:.3e}  "
            f"tolerance={r.tolerance:.1e}  {status}"
        )
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _add_angle_flags(parser) -> None:
    parser.add_argument("--theta1", type=float, required=True, help="polar angle of star 1, radians in [0, pi]")
    parser.add_argument("--theta2", type=float, required=True, help="polar angle of star 2, radians in [0, pi]")
    parser.add_argument("--phi1", type=float, default=0.0, help="azimuth of star 1, radians")
    parser.add_argument("--phi2", type=float, default=0.0, help="azimuth of star 2, radians")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kcbs-msr",
        description="Five-cycle contextuality versus concurrence for Majorana-star qutrits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate S, concurrence, regime and amplitudes of one state")
    _add_angle_flags(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_classify = sub.add_parser("classify", help="report S, concurrence and regime of one state")
    _add_angle_flags(p_classify)
    p_classify.set_defaults(handler=_cmd_classify)

    p_ext = sub.add_parser("extremal", help="extreme S at fixed concurrence, closed form and/or numeric")
    p_ext.add_argument("--concurrence", type=float, required=True, help="concurrence in [0, 1]")
    p_ext.add_argument("--objective", choices=("min", "max"), default="min")
    p_ext.add_argument("--method", choices=("closed", "numeric", "both"), default="both")
    p_ext.set_defaults(handler=_cmd_extremal)

    p_scan = sub.add_parser("scan", help="emit S/concurrence/regime over a (theta1, theta2, delta_phi) grid")
    p_scan.add_argument("--resolution", type=int, required=True, help="cells per axis (>= 2)")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--output", required=True, help="output file path")
    p_scan.set_defaults(handler=_cmd_scan)

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    p_verify.add_argument("--samples", type=int, default=1000, help="random states per sampled check (>= 1)")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
