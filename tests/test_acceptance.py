"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Expected values are either fixed by the worked
examples, derived from independent oracles (bisection, hand expansion), or
frozen regression constants computed by those oracles.
"""

import cmath
import json
import math
import random
import time

import numpy as np
import pytest

from burau.braid import BraidWord, parse_braid, permutation
from burau.cli import main
from burau.foxburau import burau_matrix, reduced_burau
from burau.freegroup import (
    FreeWord,
    artin_action,
    concat,
    occurrence_count,
    occurrence_matrix,
)
from burau.laurent import BivariatePoly, LaurentPoly, charpoly
from burau.spectral import (
    ComplexPolynomial,
    entropy_lower_bound,
    roots,
    specialize,
    specialize_bivariate,
    spectral_radius,
    strict_gap_check,
    sweep_unit_circle,
)
from conftest import alternating, bisect_largest_root, ladder, random_reduced_word
from fox_calculus import (
    GroupRingElement,
    fox_derivative,
    monomial_count,
    verify_multiplicativity,
)

GOLDEN = (3 + math.sqrt(5)) / 2

# Frozen regression constants, derived by our own oracles.
EX2_RADIUS_AT_THIRD_ROOT = 1.9577348200685825   # root-modulus oracle
EX2_SWEEP_MAX_4096 = 2.1740145216275564         # 4096-point sweep, refined


def _report(number: int, label: str, elapsed: float, limit: float | None) -> None:
    budget = f" (limit {limit:g} s)" if limit is not None else ""
    print(f"ACCEPTANCE {number} {label}: PASS in {elapsed:.2f} s{budget}")


def _exact_minus_one(poly: LaurentPoly) -> int:
    """Exact integer value of an integer Laurent polynomial at t = -1."""
    return sum(c * (-1) ** (e % 2) for e, c in poly.terms)


def test_criterion_1_example_1_symbolic():
    start = time.monotonic()
    word = parse_braid("1 -2", 3)
    one = LaurentPoly.one()
    c = LaurentPoly.from_dict({0: 1, 1: -1, -1: -1})  # 1 - t - t^-1
    expected = BivariatePoly.make([LaurentPoly.constant(-1), one]) * \
        BivariatePoly.make([one, -c, one])
    assert charpoly(burau_matrix(word).matrix) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, "example 1 symbolic charpoly", elapsed, 1.0)


def test_criterion_2_example_1_numeric(capsys):
    start = time.monotonic()
    word = parse_braid("1 -2", 3)
    full = burau_matrix(word).matrix

    radius = spectral_radius(specialize(full, -1))
    assert abs(radius - GOLDEN) < 1e-9

    code = main(["growth", "-n", "3", "1 -2", "--iters", "4", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["certified_no_cancellation"] is True
    assert abs(payload["results"]["exact_growth_rate"] - GOLDEN) < 1e-9

    sweep = sweep_unit_circle(full, grid=1024, refine=True)
    assert abs(sweep.radius_star - GOLDEN) < 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, "example 1 numeric (radius, growth, sweep)", elapsed, 5.0)


def test_criterion_3_example_2_symbolic():
    start = time.monotonic()
    word = parse_braid("1 -2 -3", 4)
    one = LaurentPoly.one()
    c = LaurentPoly.from_dict({0: 1, 1: -1, -1: -1})    # 1 - t - t^-1
    d = LaurentPoly.from_dict({-2: 1, -1: -1, 0: 1})    # t^-2 - t^-1 + 1
    cubic = BivariatePoly.make([LaurentPoly.t_power(-1), d, -c, one])
    expected = BivariatePoly.make([LaurentPoly.constant(-1), one]) * cubic
    assert charpoly(burau_matrix(word).matrix) == expected
    elapsed = time.monotonic() - start
    _report(3, "example 2 symbolic charpoly", elapsed, None)


def test_criterion_4_example_2_numeric():
    start = time.monotonic()
    word = parse_braid("1 -2 -3", 4)
    full = burau_matrix(word).matrix

    radius_deg = spectral_radius(specialize(full, -1))
    assert abs(radius_deg - 1.0) < 1e-9

    t = cmath.exp(2j * math.pi / 3)
    radius_j = spectral_radius(specialize(full, t))
    assert radius_j > 1.0 + 0.05
    assert abs(radius_j - EX2_RADIUS_AT_THIRD_ROOT) < 1e-6

    report = entropy_lower_bound(word, grid=256)
    assert report.bound > 0.0

    elapsed = time.monotonic() - start
    _report(4, "example 2 numeric (degenerate point, third root, bound)",
            elapsed, None)


def test_criterion_5_example_2_lemma():
    start = time.monotonic()
    word = parse_braid("1 -2 -3", 4)
    lam = bisect_largest_root(lambda x: x ** 4 - 2 * x ** 3 - 2 * x + 1, 2.0, 3.0)
    assert lam == pytest.approx(2.2966, abs=1e-4)

    report = strict_gap_check(burau_matrix(word), lam, grid=4096)
    assert report.sweep.radius_star < lam
    assert abs(report.sweep.radius_star - EX2_SWEEP_MAX_4096) < 1e-6
    assert not report.unit_root_points
    assert not report.fired_points
    assert report.min_resultant_abs > 1e-8
    assert report.gap_holds

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(5, "example 2 strict gap at grid 4096", elapsed, 60.0)


def test_criterion_6_example_3():
    start = time.monotonic()
    word = parse_braid("4 3 2 1 4 3", 5)
    full = burau_matrix(word).matrix

    # exact specialization at t = -1 of the exact charpoly:
    # (X-1)(X^4 + X^3 - X^2 + X + 1) = -1 + 0X + 2X^2 - 2X^3 + 0X^4 + X^5
    symbolic = charpoly(full)
    values = [_exact_minus_one(symbolic.coefficient(k)) for k in range(6)]
    assert values == [-1, 0, 2, -2, 0, 1]

    lam = bisect_largest_root(lambda x: x ** 4 - x ** 3 - x ** 2 - x + 1, 1.5, 2.0)
    radius = spectral_radius(specialize(full, -1))
    assert abs(radius - lam) < 1e-9
    # -lam itself is an eigenvalue at t = -1
    eigs = roots(ComplexPolynomial.make(np.poly(specialize(full, -1))[::-1]))
    assert min(abs(mu + lam) for mu in eigs) < 1e-9

    sweep = sweep_unit_circle(full, grid=1024, refine=True)
    assert abs(sweep.radius_star - lam) < 1e-8

    elapsed = time.monotonic() - start
    _report(6, "example 3 (charpoly at -1, radius, sweep)", elapsed, None)


def test_criterion_7_property_suites():
    start = time.monotonic()
    rng = random.Random(20110521)

    def braid(n):
        return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                  for _ in range(rng.randint(0, 10))))

    cases = []
    for _ in range(100):
        n = rng.randint(2, 6)
        cases.append((n, braid(n), braid(n)))
    # Wide braids, each with a random second factor.
    for n, word in ((14, ladder(14)), (12, alternating(12)), (16, ladder(16))):
        cases.append((n, parse_braid(word, n), braid(n)))

    one = LaurentPoly.one()
    x_minus_1 = BivariatePoly.make([LaurentPoly.constant(-1), one])

    for n, u, v in cases:
        # multiplicativity, exact
        assert verify_multiplicativity(u, v)

        b = burau_matrix(u)
        # row sums exactly 1
        for i in range(n):
            total = LaurentPoly.zero()
            for j in range(n):
                total = total + b.matrix.entry(i, j)
            assert total == one
        # weighted column identity, exact
        for j in range(n):
            acc = LaurentPoly.zero()
            for k in range(n):
                acc = acc + LaurentPoly.t_power(k) * b.matrix.entry(k, j)
            assert acc == LaurentPoly.t_power(j)
        # t = 1 specialization is the permutation matrix, exact
        perm = permutation(u)
        for i in range(n):
            for j in range(n):
                assert b.matrix.entry(i, j).coefficient_sum() == \
                    (1 if perm[i] == j + 1 else 0)

        # factorization through the reduced matrix, exact
        reduced = reduced_burau(u)
        assert charpoly(b.matrix) == x_minus_1 * charpoly(reduced.matrix)

        # reciprocal eigenvalue symmetry at random |t| = 1
        theta = rng.uniform(0, 2 * math.pi)
        t = cmath.exp(1j * theta)
        poly = specialize_bivariate(charpoly(reduced.matrix), t)
        if poly.degree >= 1:
            eigs = roots(poly)
            for lam in eigs:
                target = 1 / lam.conjugate()
                assert min(abs(target - mu) for mu in eigs) < 1e-7

        # occurrence bound at random |t| = 1
        occ = occurrence_matrix(artin_action(u))
        values = specialize(b.matrix, t)
        for i in range(n):
            for j in range(n):
                assert abs(values[i, j]) <= occ.entries[i][j] + 1e-9

    # Fox calculus: product rule, fundamental identity, monomial counts
    for _ in range(100):
        rank = rng.randint(1, 6)
        w1 = random_reduced_word(rng, rank, 10)
        w2 = random_reduced_word(rng, rank, 10)
        j = rng.randint(1, rank)
        lhs = fox_derivative(concat(w1, w2), j)
        rhs = fox_derivative(w1, j) + \
            GroupRingElement.from_word(w1) * fox_derivative(w2, j)
        assert lhs == rhs

        total = GroupRingElement.zero(rank)
        for k in range(1, rank + 1):
            xk = GroupRingElement.from_word(FreeWord(rank, (k,)))
            unit = GroupRingElement.from_word(FreeWord(rank))
            total = total + fox_derivative(w1, k) * (xk - unit)
        assert total == GroupRingElement.from_word(w1) - \
            GroupRingElement.from_word(FreeWord(rank))

        for k in range(1, rank + 1):
            assert monomial_count(fox_derivative(w1, k)) == occurrence_count(w1, k)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, "randomized property suites (100 cases each)", elapsed, 120.0)


def test_criterion_8_root_finder_oracle():
    start = time.monotonic()
    rng = random.Random(8128)
    checked = 0
    for _ in range(200):
        degree = rng.randint(1, 6)
        coeffs = [rng.uniform(-5, 5) for _ in range(degree + 1)]
        if abs(coeffs[-1]) < 1e-3:
            coeffs[-1] = 1.0
        poly = ComplexPolynomial.make(coeffs)
        found = roots(poly)
        reconstructed = np.array([1.0 + 0j])
        for r in found:
            reconstructed = np.convolve(reconstructed, np.array([1.0, -r]))
        reconstructed = reconstructed[::-1] * poly.coeffs[-1]
        scale = max(abs(c) for c in poly.coeffs)
        for a, b in zip(poly.coeffs, reconstructed):
            assert abs(a - b) < 1e-8 * scale
        checked += 1
    assert checked == 200
    elapsed = time.monotonic() - start
    _report(8, "root finder vs coefficient reconstruction (200 polynomials)",
            elapsed, None)
