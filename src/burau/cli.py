"""Command-line interface: braid words in, exact Burau matrices,
characteristic polynomials, spectral sweeps, growth estimates, and entropy
lower bounds out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .braid import (
    BraidParseError,
    BraidWord,
    exponent_sum,
    parse_braid,
    permutation,
    render_braid,
)
from .foxburau import (
    BurauMatrix,
    alexander_polynomial,
    burau_matrix,
    reduce_full,
    reduced_burau,
)
from .freegroup import artin_action, growth_rate_estimate
from .laurent import BivariatePoly, LaurentPoly, charpoly
from .spectral import burau_radius_sweep, entropy_lower_bound, strict_gap_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}j"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-n", "--strands", type=int, required=True,
                        help="number of strands (never inferred from the word)")
    common.add_argument("word", nargs="?", default="",
                        help="braid word, e.g. '1 -2' or 's1 s2^-1'")
    common.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
    common.add_argument("--grid", type=int, default=1024,
                        help="unit-circle grid size for sweeps")
    common.add_argument("--no-refine", dest="refine", action="store_false",
                        help="skip golden-section refinement of sweep maxima")
    common.add_argument("--iters", type=int, default=8,
                        help="number of powers for growth estimation")
    common.add_argument("--budget", type=int, default=10_000_000,
                        help="letter budget for automorphism iteration")

    parser = argparse.ArgumentParser(
        prog="burau",
        description="Entropy lower bounds for disk braids via Burau matrices "
                    "on the unit circle.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("matrix", parents=[common],
                   help="full Burau matrix over Z[t, t^-1]")
    sub.add_parser("reduced", parents=[common],
                   help="reduced Burau matrix")
    p_char = sub.add_parser("charpoly", parents=[common],
                            help="characteristic polynomial in X")
    p_char.add_argument("--reduced", action="store_true",
                        help="use the reduced matrix")
    sub.add_parser("alexander", parents=[common],
                   help="closure-with-axis link polynomial det(B^r - x I)")
    sub.add_parser("entropy-bound", parents=[common],
                   help="ln of the unit-circle spectral-radius supremum")
    sub.add_parser("sweep", parents=[common],
                   help="spectral radius over the unit-circle grid (CSV/JSON)")
    sub.add_parser("growth", parents=[common],
                   help="growth-rate estimate from occurrence-matrix norms")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="exact (X - 1) charpoly factorization check, "
                                   "and the strict gap with --gap-lambda")
    p_verify.add_argument("--gap-lambda", type=float, default=None,
                          help="also run the strict-gap check against this rate")
    return parser


def _config_json(args: argparse.Namespace) -> dict:
    return {
        "grid": args.grid,
        "refine": args.refine,
        "format": args.fmt,
        "iters": args.iters,
        "budget": args.budget,
    }


def _envelope(args: argparse.Namespace, word: BraidWord, results: dict,
              diagnostics: list) -> dict:
    return {
        "braid": render_braid(word),
        "strands": word.strands,
        "exponent_sum": exponent_sum(word),
        "permutation": list(permutation(word)),
        "results": results,
        "config": _config_json(args),
        "diagnostics": diagnostics,
    }


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _matrix_lines(b: BurauMatrix) -> list:
    return ["[" + ", ".join(b.matrix.entry(i, j).render() for j in range(b.dim)) + "]"
            for i in range(b.dim)]


def cmd_matrix(args: argparse.Namespace, word: BraidWord) -> int:
    b = reduced_burau(word) if args.command == "reduced" else burau_matrix(word)
    if args.fmt == "json":
        _print_json(_envelope(args, word, {"matrix": b.to_json()}, []))
    else:
        for line in _matrix_lines(b):
            print(line)
    return EXIT_OK


def cmd_charpoly(args: argparse.Namespace, word: BraidWord) -> int:
    b = reduced_burau(word) if args.reduced else burau_matrix(word)
    poly = charpoly(b.matrix)
    if args.fmt == "json":
        results = {"charpoly": poly.to_json("X"), "reduced": args.reduced}
        _print_json(_envelope(args, word, results, []))
    else:
        print(poly.render("X"))
    return EXIT_OK


def cmd_alexander(args: argparse.Namespace, word: BraidWord) -> int:
    poly = alexander_polynomial(word)
    if args.fmt == "json":
        _print_json(_envelope(args, word, {"alexander": poly.to_json("x")}, []))
    else:
        print(poly.render("x"))
    return EXIT_OK


def cmd_entropy_bound(args: argparse.Namespace, word: BraidWord) -> int:
    report = entropy_lower_bound(word, args.grid, args.refine)
    if args.fmt == "json":
        results = {
            "bound": report.bound,
            "radius_star": report.sweep.radius_star,
            "theta_star": report.sweep.theta_star,
            "t_star": [report.sweep.t_star.real, report.sweep.t_star.imag],
            "spot_values": {label: value for label, value in report.spot_values},
            "grid": report.sweep.grid,
        }
        diagnostics = [f"grid point {k} skipped: {msg}"
                       for k, msg in report.sweep.skipped]
        _print_json(_envelope(args, word, results, diagnostics))
    else:
        print(f"entropy lower bound: {_fmt(report.bound)}")
        print(f"sweep maximum radius: {_fmt(report.sweep.radius_star)}")
        print(f"attained at theta: {_fmt(report.sweep.theta_star)}")
        print(f"attained at t: {_fmt_complex(report.sweep.t_star)}")
        for label, value in report.spot_values:
            print(f"radius at {label}: {_fmt(value)}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, word: BraidWord) -> int:
    sweep = burau_radius_sweep(reduced_burau(word).matrix, args.grid, args.refine)
    if args.fmt == "json":
        results = {
            "grid": sweep.grid,
            "samples": [[theta, value] for theta, value in sweep.samples],
            "theta_star": sweep.theta_star,
            "t_star": [sweep.t_star.real, sweep.t_star.imag],
            "radius_star": sweep.radius_star,
            "refinement_iterations": sweep.refinement_iterations,
        }
        diagnostics = [f"grid point {k} skipped: {msg}" for k, msg in sweep.skipped]
        _print_json(_envelope(args, word, results, diagnostics))
    else:
        print("theta,re_t,im_t,spectral_radius")
        for theta, value in sweep.samples:
            t = complex(math.cos(theta), math.sin(theta))
            print(f"{theta:.12g},{t.real:.12g},{t.imag:.12g},{value:.12g}")
    return EXIT_OK


def cmd_growth(args: argparse.Namespace, word: BraidWord) -> int:
    report = growth_rate_estimate(artin_action(word), args.iters, args.budget)
    if args.fmt == "json":
        results = {
            "powers": list(report.powers),
            "norms": list(report.norms),
            "estimates": list(report.estimates),
            "cancellation": list(report.cancellation),
            "budget_exceeded": report.budget_exceeded,
            "certified_no_cancellation": report.certified_no_cancellation,
            "exact_growth_rate": report.exact_growth_rate,
        }
        _print_json(_envelope(args, word, results, []))
    else:
        print("p,norm,norm^(1/p),cancelled")
        for p, norm, est, flag in zip(report.powers, report.norms,
                                      report.estimates, report.cancellation):
            print(f"{p},{norm},{_fmt(est)},{'yes' if flag else 'no'}")
        if report.budget_exceeded:
            print("letter budget exhausted: sequence is partial")
        if report.certified_no_cancellation:
            print("no cancellation through the square: exact growth rate "
                  f"{_fmt(report.exact_growth_rate)}")
        else:
            print("cancellation observed or unverified: no exact claim")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, word: BraidWord) -> int:
    full = burau_matrix(word)
    # The full matrix first: past the dimension cap it is refused before the
    # reduced matrix's charpoly has run.
    full_charpoly = charpoly(full.matrix)
    reduced_charpoly = charpoly(reduce_full(full).matrix)
    x_minus_one = BivariatePoly.make([LaurentPoly.constant(-1), LaurentPoly.one()])
    checks = [("charpoly factors through the reduced matrix",
               full_charpoly == x_minus_one * reduced_charpoly)]
    gap = None
    if args.gap_lambda is not None:
        gap = strict_gap_check(full, args.gap_lambda, args.grid, args.refine,
                               reduced_charpoly=reduced_charpoly)
        checks.append((f"strict gap vs lambda={_fmt(args.gap_lambda)}",
                       gap.gap_holds))
    all_ok = all(ok for _, ok in checks)
    res = None if gap is None else gap.min_resultant_abs
    past_range = res is not None and math.isinf(res)
    if args.fmt == "json":
        results = {"checks": [{"name": name, "ok": ok} for name, ok in checks],
                   "all_ok": all_ok}
        if gap is not None:
            results["gap"] = {
                "lambda": gap.lam,
                "sweep_max": gap.sweep.radius_star,
                "min_resultant_abs": None if past_range else res,
                "unit_root_points": list(gap.unit_root_points),
                "gap_holds": gap.gap_holds,
            }
        diagnostics = (["min_resultant_abs is null: the smallest |resultant| is beyond "
                        "float range"] if past_range else [])
        _print_json(_envelope(args, word, results, diagnostics))
    else:
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if gap is not None:
            shown = ("none" if res is None else
                     "beyond float range" if past_range else _fmt(res))
            print(f"sweep max {_fmt(gap.sweep.radius_star)} vs lambda "
                  f"{_fmt(gap.lam)}; min |resultant| {shown}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "matrix": cmd_matrix,
    "reduced": cmd_matrix,
    "charpoly": cmd_charpoly,
    "alexander": cmd_alexander,
    "entropy-bound": cmd_entropy_bound,
    "sweep": cmd_sweep,
    "growth": cmd_growth,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        word = parse_braid(args.word, args.strands)
    except BraidParseError as exc:
        print(f"braid parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, word)
    except np.linalg.LinAlgError as exc:
        # Caught first: LinAlgError is a ValueError.
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
