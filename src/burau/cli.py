"""Command-line interface: braid words in, exact Burau matrices,
characteristic polynomials, spectral sweeps, growth estimates, and entropy
lower bounds out.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .braid import (
    BraidParseError,
    BraidWord,
    compose,
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
from .freegroup import artin_action, growth_rate_estimate, occurrence_matrix
from .laurent import charpoly
from .spectral import (
    burau_radius_sweep,
    entropy_lower_bound,
    roots,
    specialize,
    specialize_bivariate,
    strict_gap_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_VERIFY_SEED = 20110521


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved from the command line."""

    strands: int
    word_text: str
    grid: int = 1024
    refine: bool = True
    fmt: str = "text"
    iters: int = 8
    budget: int = 10_000_000
    reduced: bool = False
    gap_lambda: float | None = None


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
    common.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
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
                              help="run the invariant suite on the braid")
    p_verify.add_argument("--gap-lambda", type=float, default=None,
                          help="also run the strict-gap check against this rate")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        strands=args.strands,
        word_text=args.word,
        grid=args.grid,
        refine=args.refine,
        fmt=args.fmt,
        iters=args.iters,
        budget=args.budget,
        reduced=getattr(args, "reduced", False),
        gap_lambda=getattr(args, "gap_lambda", None),
    )


def _config_json(cfg: RunConfig) -> dict:
    return {
        "grid": cfg.grid,
        "refine": cfg.refine,
        "format": cfg.fmt,
        "iters": cfg.iters,
        "budget": cfg.budget,
    }


def _envelope(cfg: RunConfig, word: BraidWord, results: dict,
              diagnostics: list) -> dict:
    return {
        "braid": render_braid(word),
        "strands": word.strands,
        "exponent_sum": exponent_sum(word),
        "permutation": list(permutation(word)),
        "results": results,
        "config": _config_json(cfg),
        "diagnostics": diagnostics,
    }


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _matrix_lines(b: BurauMatrix) -> list:
    return ["[" + ", ".join(b.matrix.entry(i, j).render() for j in range(b.dim)) + "]"
            for i in range(b.dim)]


def cmd_matrix(cfg: RunConfig, word: BraidWord) -> int:
    b = burau_matrix(word)
    if cfg.fmt == "json":
        _print_json(_envelope(cfg, word, {"matrix": b.to_json()}, []))
    else:
        for line in _matrix_lines(b):
            print(line)
    return EXIT_OK


def cmd_reduced(cfg: RunConfig, word: BraidWord) -> int:
    b = reduced_burau(word)
    if cfg.fmt == "json":
        _print_json(_envelope(cfg, word, {"matrix": b.to_json()}, []))
    else:
        for line in _matrix_lines(b):
            print(line)
    return EXIT_OK


def cmd_charpoly(cfg: RunConfig, word: BraidWord) -> int:
    b = reduced_burau(word) if cfg.reduced else burau_matrix(word)
    poly = charpoly(b.matrix)
    if cfg.fmt == "json":
        results = {"charpoly": poly.to_json("X"), "reduced": cfg.reduced}
        _print_json(_envelope(cfg, word, results, []))
    else:
        print(poly.render("X"))
    return EXIT_OK


def cmd_alexander(cfg: RunConfig, word: BraidWord) -> int:
    poly = alexander_polynomial(word)
    if cfg.fmt == "json":
        _print_json(_envelope(cfg, word, {"alexander": poly.to_json("x")}, []))
    else:
        print(poly.render("x"))
    return EXIT_OK


def cmd_entropy_bound(cfg: RunConfig, word: BraidWord) -> int:
    report = entropy_lower_bound(word, cfg.grid, cfg.refine)
    if cfg.fmt == "json":
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
        _print_json(_envelope(cfg, word, results, diagnostics))
    else:
        print(f"entropy lower bound: {_fmt(report.bound)}")
        print(f"sweep maximum radius: {_fmt(report.sweep.radius_star)}")
        print(f"attained at theta: {_fmt(report.sweep.theta_star)}")
        print(f"attained at t: {_fmt_complex(report.sweep.t_star)}")
        for label, value in report.spot_values:
            print(f"radius at {label}: {_fmt(value)}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, word: BraidWord) -> int:
    sweep = burau_radius_sweep(reduced_burau(word).matrix, cfg.grid, cfg.refine)
    if cfg.fmt == "json":
        results = {
            "grid": sweep.grid,
            "samples": [[theta, value] for theta, value in sweep.samples],
            "theta_star": sweep.theta_star,
            "t_star": [sweep.t_star.real, sweep.t_star.imag],
            "radius_star": sweep.radius_star,
            "refinement_iterations": sweep.refinement_iterations,
        }
        diagnostics = [f"grid point {k} skipped: {msg}" for k, msg in sweep.skipped]
        _print_json(_envelope(cfg, word, results, diagnostics))
    else:
        print("theta,re_t,im_t,spectral_radius")
        for theta, value in sweep.samples:
            t = complex(math.cos(theta), math.sin(theta))
            print(f"{theta:.12g},{t.real:.12g},{t.imag:.12g},{value:.12g}")
    return EXIT_OK


def cmd_growth(cfg: RunConfig, word: BraidWord) -> int:
    report = growth_rate_estimate(artin_action(word), cfg.iters, cfg.budget)
    if cfg.fmt == "json":
        results = {
            "powers": list(report.powers),
            "norms": list(report.norms),
            "estimates": list(report.estimates),
            "cancellation": list(report.cancellation),
            "budget_exceeded": report.budget_exceeded,
            "certified_no_cancellation": report.certified_no_cancellation,
            "exact_growth_rate": report.exact_growth_rate,
        }
        _print_json(_envelope(cfg, word, results, []))
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


def _verify_checks(cfg: RunConfig, word: BraidWord, full: BurauMatrix):
    """Cross-module invariant suite for one braid and its full Burau matrix;
    returns its (name, ok) pairs and the reduced matrix's charpoly."""
    from .laurent import BivariatePoly, LaurentPoly

    checks = []
    n = word.strands
    one = LaurentPoly.one()

    row_sums_ok = all(
        sum((full.matrix.entry(i, j) for j in range(n)), LaurentPoly.zero()) == one
        for i in range(n))
    checks.append(("row sums equal 1", row_sums_ok))

    column_ok = True
    for j in range(n):
        acc = LaurentPoly.zero()
        for k in range(n):
            acc = acc + LaurentPoly.t_power(k) * full.matrix.entry(k, j)
        if acc != LaurentPoly.t_power(j):
            column_ok = False
    checks.append(("weighted column identity", column_ok))

    rng = random.Random(_VERIFY_SEED)
    mult_ok = True
    for _ in range(3):
        length = rng.randint(0, 6)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(length))
        other = BraidWord(n, letters)
        combined = burau_matrix(compose(word, other))
        if combined.matrix != full.matrix * burau_matrix(other).matrix:
            mult_ok = False
    checks.append(("multiplicativity against random factors", mult_ok))

    perm = permutation(word)
    perm_ok = all(
        full.matrix.entry(i, j).coefficient_sum() == (1 if perm[i] == j + 1 else 0)
        for i in range(n) for j in range(n))
    checks.append(("t=1 specialization is the permutation matrix", perm_ok))

    # The full matrix first: past the dimension cap it is refused before the
    # reduced matrix's charpoly has run.
    full_charpoly = charpoly(full.matrix)
    reduced_charpoly = charpoly(reduce_full(full).matrix)
    x_minus_one = BivariatePoly.make([LaurentPoly.constant(-1), one])
    pol1_ok = full_charpoly == x_minus_one * reduced_charpoly
    checks.append(("charpoly factors through the reduced matrix", pol1_ok))

    symmetry_ok = True
    for _ in range(3):
        theta = rng.uniform(0, 2 * math.pi)
        t = complex(math.cos(theta), math.sin(theta))
        eigs = roots(specialize_bivariate(reduced_charpoly, t)) if n > 1 else []
        for lam in eigs:
            target = 1 / lam.conjugate()
            if min(abs(target - mu) for mu in eigs) > 1e-7:
                symmetry_ok = False
    checks.append(("reciprocal eigenvalue symmetry on |t|=1", symmetry_ok))

    occ = occurrence_matrix(artin_action(word))
    bound_ok = True
    for _ in range(3):
        theta = rng.uniform(0, 2 * math.pi)
        t = complex(math.cos(theta), math.sin(theta))
        values = specialize(full.matrix, t)
        for i in range(n):
            for j in range(n):
                if abs(values[i, j]) > occ.entries[i][j] + 1e-9:
                    bound_ok = False
    checks.append(("occurrence bound dominates |b_ij(t)|", bound_ok))
    return checks, reduced_charpoly


def cmd_verify(cfg: RunConfig, word: BraidWord) -> int:
    full = burau_matrix(word)
    checks, reduced_charpoly = _verify_checks(cfg, word, full)
    gap = None
    if cfg.gap_lambda is not None:
        gap = strict_gap_check(full, cfg.gap_lambda, cfg.grid, cfg.refine,
                               reduced_charpoly=reduced_charpoly)
        checks.append((f"strict gap vs lambda={_fmt(cfg.gap_lambda)}",
                       gap.gap_holds))
    all_ok = all(ok for _, ok in checks)
    res = None if gap is None else gap.min_resultant_abs
    past_range = res is not None and math.isinf(res)
    if cfg.fmt == "json":
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
        _print_json(_envelope(cfg, word, results, diagnostics))
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
    "reduced": cmd_reduced,
    "charpoly": cmd_charpoly,
    "alexander": cmd_alexander,
    "entropy-bound": cmd_entropy_bound,
    "sweep": cmd_sweep,
    "growth": cmd_growth,
    "verify": cmd_verify,
}

_CSV_COMMANDS = {"sweep"}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    if cfg.fmt == "csv" and args.command not in _CSV_COMMANDS:
        print(f"csv output is only available for: {', '.join(sorted(_CSV_COMMANDS))}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        word = parse_braid(cfg.word_text, cfg.strands)
    except BraidParseError as exc:
        print(f"braid parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](cfg, word)
    except np.linalg.LinAlgError as exc:
        # Caught first: LinAlgError is a ValueError.
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
