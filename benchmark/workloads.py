"""The benchmark's workloads: one round of `burau` commands per workload.

Every run repeats the same round, so each operation and its verdict recur
in every round.  The seed fixes the order of the round, the unit-circle
points the checker evaluates exact outputs at, and, for braids whose
spectral work depends only on their conjugacy class, a cyclic rotation of
the word (a conjugate braid: same characteristic polynomial, same radius
function).  It never changes which braids run, so the cost of a round and
the set of known failures do not depend on it.
"""

from __future__ import annotations

import random

from oracle import EX1_SUP, EX2_DILATATION, EX3_SUP

WORKLOADS = ("entropy", "exact", "certify")

# The Aberth root finder smears the high-multiplicity unit roots of these
# braids' characteristic polynomials and the golden-section refinement then
# maximizes over the smear, so the reported radius exceeds the true one (1).
DEGENERATE_FAULT = "entropy bound above the true radius on a degenerate spectrum"


def ladder(n: int) -> str:
    """1 -2 3 -4 ... +-(n-1)."""
    return " ".join(str(k if k % 2 else -k) for k in range(1, n))


def alternating(n: int) -> str:
    """The ladder followed by its generator-wise negation."""
    first = [k if k % 2 else -k for k in range(1, n)]
    return " ".join(str(v) for v in first + [-v for v in first])


def full_twist(n: int) -> str:
    """(s1 s2 ... s_{n-1})^n, central in B_n; reduced Burau is t^n I."""
    return " ".join(" ".join(str(k) for k in range(1, n)) for _ in range(n))


def power(word: str, k: int) -> str:
    return " ".join([word] * k)


def rotate(word: str, rng: random.Random) -> str:
    letters = word.split()
    if not letters:
        return word
    r = rng.randrange(len(letters))
    return " ".join(letters[r:] + letters[:r])


def _op(command: str, n: int, word: str, *flags: str, **expect) -> dict:
    argv = [command, "-n", str(n), word, *flags, "--format", "json"]
    return {"argv": argv, "expect": expect}


def entropy_ops(rng: random.Random) -> list:
    # Grids put most operations near 1 s, so the median operation time is
    # set by many samples, not by one braid.
    ops = [
        _op("entropy-bound", 3, rotate("1 -2", rng), "--grid", "1024", sup=EX1_SUP),
        _op("entropy-bound", 4, rotate("1 -2 -3", rng), "--grid", "1024"),
        _op("entropy-bound", 5, rotate("4 3 2 1 4 3", rng), "--grid", "1024", sup=EX3_SUP),
        _op("entropy-bound", 6, rotate(ladder(6), rng), "--grid", "512"),
        _op("entropy-bound", 8, rotate(ladder(8), rng), "--grid", "256"),
        _op("entropy-bound", 10, rotate(ladder(10), rng), "--grid", "256"),
        # Dimension 14 takes the per-point Hessenberg path; not rotated,
        # since float rounding of a conjugate matrix moves its refinement.
        _op("entropy-bound", 14, ladder(14), "--grid", "64"),
    ]
    # Seed-independent inputs that fail identically in every run.  Their
    # reported radii exceed 1 by 1.6e-3, 1.4e-8, 4.1e-6 and 8.3e-6, far
    # above the checker's 1e-11 tolerance.
    for n, word, grid in ((5, full_twist(5), 128), (6, full_twist(6), 96),
                          (12, alternating(12), 40), (14, alternating(14), 32)):
        ops.append(_op("entropy-bound", n, word, "--grid", str(grid),
                       known_fault=DEGENERATE_FAULT))
    return ops


def exact_ops(rng: random.Random) -> list:
    # Most operations take 0.1 to 0.3 s, so the median operation time is set
    # by many samples; the Fox build of (1 -2)^8 and the two growth runs
    # carry most of the round's time.
    long7 = power("1 -2", 7)
    ops = [
        # Long words in B3: image length grows like 2.618^k and Fox cost
        # like its square.  (1 -2)^8 has 6,387-letter images.
        _op("matrix", 3, power("1 -2", 8)),
        _op("reduced", 3, long7),
        _op("charpoly", 3, long7),
        _op("charpoly", 3, long7, "--reduced"),
        _op("alexander", 3, long7),
    ]
    # Wide braids: exact determinants of dimension 7 to 12.
    for n, word in ((12, power(ladder(12), 2)), (12, power(alternating(12), 2)),
                    (11, power(ladder(11), 2)), (8, power(ladder(8), 3))):
        ops.append(_op("charpoly", n, word))
        ops.append(_op("charpoly", n, word, "--reduced"))
        ops.append(_op("alexander", n, word))
    ops.append(_op("matrix", 8, power(ladder(8), 3)))
    ops.append(_op("charpoly", 10, power(ladder(10), 3), "--reduced"))
    # Free-group growth.  The budget admits the 1.4M-letter fifth power
    # (4th-power images total 252,191 letters, times the 43-letter longest
    # base image); the sixth power (45M letters) is out of scope.
    ops.append(_op("growth", 5, "4 -1 -3 2 -3 4 4", "--iters", "5",
                   "--budget", "12000000"))
    ops.append(_op("growth", 3, "1 -2", "--iters", "14"))
    return ops


def certify_ops(rng: random.Random) -> list:
    return [
        _op("verify", 4, rotate("1 -2 -3", rng), "--gap-lambda", repr(EX2_DILATATION),
            "--grid", "4096", gap_holds=True),
        _op("verify", 3, rotate("1 -2", rng), "--gap-lambda", repr(EX1_SUP),
            "--grid", "4096", gap_holds=False, sup=EX1_SUP),
        _op("verify", 5, rotate("4 3 2 1 4 3", rng), "--gap-lambda", repr(EX3_SUP),
            "--grid", "4096", gap_holds=False, sup=EX3_SUP),
    ]


_BUILDERS = {"entropy": entropy_ops, "exact": exact_ops, "certify": certify_ops}


def round_ops(workload: str, seed: int) -> list:
    """The seeded round of one workload; ops get stable ids."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    for k, op in enumerate(ops):
        op["id"] = k
    rng.shuffle(ops)
    return ops
