"""Output checker: every distinct output of a run against the oracle.

Usage: python3 check.py JOB.json RESULT.json  (prints one JSON verdict).

The numeric claims are judged from both sides.  Upper side: a reported
radius may not exceed the high-precision radius at the point it names (or
the closed-form or refined supremum) by more than `UPPER_RTOL`, since the
program prints a lower bound.  Lower side: it may not fall below the
high-precision radius at the oracle's own grid maximum by more than
`LOWER_RTOL`.  Exact outputs are evaluated at seeded unit-circle points and
compared with the rebuilt matrix and its determinants.
"""

from __future__ import annotations

import json
import math
import random
import sys

import numpy as np

import oracle

UPPER_RTOL = 1e-11
LOWER_RTOL = 1e-9
SPOT_RTOL = 1e-6
EXACT_RTOL = 1e-9
EXIT_OK, EXIT_CHECK_FAILED = 0, 1
ENVELOPE = {"braid", "strands", "exponent_sum", "permutation", "results",
            "config", "diagnostics"}
SPOT_POINTS = {"t=-1": -1.0 + 0j}
SPOT_POINTS.update({f"t=exp(2*pi*i/{k})": oracle.unit(2 * math.pi / k) for k in (3, 4, 5, 6)})


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _reject_constant(name: str):
    raise CheckFailed(f"non-JSON constant {name} in output")


def strict_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


class Braid:
    """A parsed operation: command, strands, letters, flags; with cached
    oracle values."""

    def __init__(self, argv: list) -> None:
        self.command = argv[0]
        self.n = int(argv[argv.index("-n") + 1])
        self.word = argv[argv.index("-n") + 2]
        self.letters = [int(v) for v in self.word.split()]
        self.flags = argv[argv.index("-n") + 3:]
        self._cache: dict = {}

    def flag(self, name: str, default=None):
        if name in self.flags:
            return self.flags[self.flags.index(name) + 1]
        return default

    def cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def mp_radius(self, theta: float) -> float:
        return self.cached(("mp", theta), lambda: oracle.mp_radius(self.n, self.letters, theta))

    def grid_max(self, grid: int) -> float:
        """High-precision radius at the float grid argmax (a lower bound on
        the supremum that the program's grid also contains)."""
        theta, _ = self.cached(("argmax", grid),
                               lambda: oracle.grid_argmax(self.n, self.letters, grid))
        return self.mp_radius(theta)


def check_envelope(op: Braid, doc: dict) -> dict:
    require(set(doc) == ENVELOPE, f"envelope keys {sorted(doc)}")
    require(doc["braid"] == " ".join(op.word.split()), "braid echo")
    require(doc["strands"] == op.n, "strand echo")
    require(doc["exponent_sum"] == sum(1 if v > 0 else -1 for v in op.letters),
            "exponent sum")
    require(doc["permutation"] == oracle.permutation_from_matrix(op.n, op.letters),
            "permutation differs from B(1)")
    return doc["results"]


def check_radius(op: Braid, value: float, grid: int, theta=None, sup=None,
                 what: str = "radius") -> None:
    """Upper side at the named point (or against the supremum), lower side
    at the oracle's grid maximum."""
    require(isinstance(value, float) and math.isfinite(value), f"{what} not finite")
    if theta is not None:
        truth = op.mp_radius(theta)
        require(value <= truth * (1 + UPPER_RTOL),
                f"{what} {value!r} exceeds the radius {truth!r} at its own point")
    if sup is not None:
        require(value <= sup * (1 + UPPER_RTOL),
                f"{what} {value!r} exceeds the supremum {sup!r}")
    floor = op.grid_max(grid)
    require(value >= floor * (1 - LOWER_RTOL),
            f"{what} {value!r} below the grid maximum {floor!r}")


def check_entropy(op: Braid, results: dict, expect: dict) -> None:
    grid = int(op.flag("--grid", 1024))
    require(results["grid"] == grid, "grid echo")
    r, theta = results["radius_star"], results["theta_star"]
    require(0 <= theta < 2 * math.pi, "theta_star out of range")
    t = oracle.unit(theta)
    require(abs(results["t_star"][0] - t.real) < 1e-12
            and abs(results["t_star"][1] - t.imag) < 1e-12, "t_star is not exp(i theta_star)")
    check_radius(op, r, grid, theta=theta, sup=expect.get("sup"), what="radius_star")
    require(abs(results["bound"] - math.log(max(1.0, r))) <= 1e-15,
            "bound is not ln max(1, radius_star)")
    require(set(results["spot_values"]) == set(SPOT_POINTS), "spot labels")
    for label, value in results["spot_values"].items():
        # High precision: float eigvals smear the multiple unit eigenvalues
        # these roots of unity often carry (example 1 reads 1.000012 at
        # t = exp(2 pi i/3) in float).
        truth = oracle.mp_radius_at(op.n, op.letters, SPOT_POINTS[label])
        require(_close(value, truth, SPOT_RTOL), f"spot {label}: {value!r} vs {truth!r}")


def _matrices_at(op: Braid, t: complex):
    full = np.array(oracle.burau_at(op.n, op.letters, t))
    return full, oracle.reduce_matrix(full)


def check_matrix(op: Braid, results: dict, rng: random.Random, flavor: str) -> None:
    m = results["matrix"]
    dim = op.n if flavor == "full" else op.n - 1
    require(m["flavor"] == flavor and m["dimension"] == dim, "matrix flavor/dimension")
    require(m["exponent_sum"] == sum(1 if v > 0 else -1 for v in op.letters),
            "matrix exponent sum")
    require(len(m["entries"]) == dim * dim, "entry count")
    for t in oracle.random_unit_points(rng, 3):
        full, reduced = _matrices_at(op, t)
        want = full if flavor == "full" else reduced
        for k, entry in enumerate(m["entries"]):
            got = oracle.eval_laurent(entry, t)
            require(abs(got - want[k // dim, k % dim])
                    <= EXACT_RTOL * (1 + oracle.laurent_scale(entry)),
                    f"entry {k} differs at t={t:.6f}")


def _x_points(rng: random.Random, count: int) -> list:
    return [rng.uniform(0.5, 2.0) * oracle.unit(rng.uniform(0, 2 * math.pi))
            for _ in range(count)]


def check_charpoly(op: Braid, results: dict, rng: random.Random, alexander: bool) -> None:
    reduced = alexander or results.get("reduced", False)
    key = "alexander" if alexander else "charpoly"
    poly = results[key]
    dim = op.n - 1 if reduced else op.n
    require(poly["variable"] == ("x" if alexander else "X"), "variable name")
    require(len(poly["coefficients"]) == dim + 1, "degree")
    if not alexander:
        require(results["reduced"] == ("--reduced" in op.flags), "reduced echo")
        require(poly["coefficients"][-1] == {"0": "1"}, "charpoly not monic")
    for t in oracle.random_unit_points(rng, 2):
        full, red = _matrices_at(op, t)
        for x in _x_points(rng, 2):
            value, scale = oracle.eval_bivariate(poly, x, t)
            if alexander:
                want = np.linalg.det(red - x * np.eye(dim))
            else:
                want = np.linalg.det(x * np.eye(dim) - (red if reduced else full))
            require(abs(value - want) <= EXACT_RTOL * (1 + scale),
                    f"{key} differs at x={x:.4f}, t={t:.4f}")
            if reduced and not alexander:
                # det(xI - B) = (x - 1) * charpoly of the reduced matrix.
                full_det = np.linalg.det(x * np.eye(op.n) - full)
                require(abs((x - 1) * value - full_det)
                        <= EXACT_RTOL * (1 + abs(x - 1) * scale),
                        "det(xI - B) != (x - 1) charpoly_reduced")


def check_growth(op: Braid, results: dict) -> None:
    iters = int(op.flag("--iters", 8))
    budget = int(op.flag("--budget", 10_000_000))
    seq = oracle.growth_sequence(op.n, op.letters, iters, budget)
    norms = seq["norms"]
    require(results["powers"] == list(range(1, len(norms) + 1)), "powers")
    require(results["norms"] == norms, f"norms {results['norms']} vs {norms}")
    require(results["cancellation"] == seq["flags"], "cancellation flags")
    require(results["budget_exceeded"] == seq["budget_exceeded"], "budget flag")
    for p, (norm, est) in enumerate(zip(norms, results["estimates"]), start=1):
        require(_close(est, norm ** (1.0 / p), 1e-12), f"estimate at p={p}")
    base = np.array(seq["base"])
    certified = (len(norms) >= 2 and not any(seq["flags"][:2])
                 and seq["square"] == (base @ base).tolist())
    require(results["certified_no_cancellation"] == certified, "certification flag")
    if certified:
        rate = float(np.abs(np.linalg.eigvals(base.astype(float))).max())
        require(_close(results["exact_growth_rate"], rate, 1e-9), "exact growth rate")
    else:
        require(results["exact_growth_rate"] is None, "uncertified exact rate")
    # Burau-growth inequality: |b_ij(t)| <= occurrences, so for every p,
    # norm_p^(1/p) >= rho(B(t)) on the unit circle.
    floor = float(oracle.float_radii(op.n, op.letters, oracle.grid_thetas(256)).max())
    for p, est in enumerate(results["estimates"], start=1):
        require(est >= floor * (1 - 1e-9), f"norm_{p}^(1/{p}) below the Burau radius")


def check_verify(op: Braid, results: dict, code: int, expect: dict) -> None:
    gap_holds = expect["gap_holds"]
    require(code == (EXIT_OK if gap_holds else EXIT_CHECK_FAILED),
            f"exit code {code} for a gap that {'holds' if gap_holds else 'fails'}")
    checks = results["checks"]
    require(checks and checks[-1]["name"].startswith("strict gap"), "gap check missing")
    for c in checks[:-1]:
        require(c["ok"] is True, f"invariant check failed: {c['name']}")
    require(checks[-1]["ok"] is gap_holds, "gap check verdict")
    require(results["all_ok"] is gap_holds, "all_ok")
    gap = results["gap"]
    lam = float(op.flag("--gap-lambda"))
    require(gap["lambda"] == lam, "lambda echo")
    require(gap["gap_holds"] is gap_holds, "gap_holds")
    require(gap["gap_holds"] == (gap["sweep_max"] < lam and not gap["unit_root_points"]),
            "gap_holds inconsistent with its evidence")
    res = gap["min_resultant_abs"]
    require(isinstance(res, float) and math.isfinite(res) and res >= 0, "min_resultant_abs")
    grid = int(op.flag("--grid", 4096))
    sup = expect.get("sup")
    if sup is None:
        sup = op.cached(("sup", grid), lambda: oracle.refined_sup(op.n, op.letters, grid))
    check_radius(op, gap["sweep_max"], grid, sup=sup, what="sweep_max")


def check_output(op: Braid, expect: dict, code: int, stdout: str, stderr: str,
                 rng: random.Random) -> None:
    """Raises CheckFailed with the first problem found."""
    if op.command != "verify":
        require(code == EXIT_OK, f"exit code {code}: {stderr.strip()[:200]}")
    doc = strict_json(stdout)
    results = check_envelope(op, doc)
    if op.command == "entropy-bound":
        check_entropy(op, results, expect)
    elif op.command in ("matrix", "reduced"):
        check_matrix(op, results, rng, "full" if op.command == "matrix" else "reduced")
    elif op.command in ("charpoly", "alexander"):
        check_charpoly(op, results, rng, op.command == "alexander")
    elif op.command == "growth":
        check_growth(op, results)
    elif op.command == "verify":
        check_verify(op, results, code, expect)
    else:
        raise CheckFailed(f"no check for command {op.command}")


def check_run(job: dict, result: dict) -> dict:
    rng = random.Random(f"check:{job['seed']}")
    attempted = failed = 0
    correct = True
    problems = []
    braids = {}
    for op in sorted(job["ops"], key=lambda o: o["id"]):
        braid = braids[op["id"]] = Braid(op["argv"])
        outputs = result["outputs"].get(str(op["id"]), {})
        if not outputs:
            correct = False
            problems.append(f"op {op['id']} produced no output")
        for out in outputs.values():
            attempted += out["count"]
            try:
                check_output(braid, op["expect"], out["code"], out["stdout"],
                             out["stderr"], rng)
            except (CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
                failed += out["count"]
                known = op["expect"].get("known_fault")
                if not known:
                    correct = False
                tag = f"known fault ({known})" if known else "FAILED"
                problems.append(f"{tag}: {' '.join(op['argv'][:3])}: "
                                f"{type(exc).__name__}: {exc}")
    verdict = {"correct": correct, "attempted": attempted, "failed": failed,
               "problems": problems}
    if "sweeps" in result:
        excess = [r - braids[op_id].mp_radius(theta) for op_id, theta, r in result["sweeps"]]
        verdict["radius_excess"] = max(excess, default=0.0)
    return verdict


def main(argv: list) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    with open(argv[2]) as fh:
        result = json.load(fh)
    print(json.dumps(check_run(job, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
