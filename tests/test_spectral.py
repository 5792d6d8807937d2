import cmath
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from burau.braid import BraidWord, parse_braid, permutation
from burau.foxburau import burau_matrix, reduce_full, reduced_burau
from burau.freegroup import artin_action, compose_autos, occurrence_matrix
from burau import spectral
from burau.laurent import LaurentMatrix, charpoly
from burau.spectral import (
    ComplexPolynomial,
    burau_radius_sweep,
    entropy_lower_bound,
    reciprocal_conjugate,
    resultant,
    roots,
    specialize,
    specialize_bivariate,
    spectral_radius,
    strict_gap_check,
    sweep_unit_circle,
    unit_circle_root_certificate,
    _golden_section_max,
    _lockstep,
)
from conftest import bisect_largest_root, ladder, random_braid
from pointwise_gap import point_certificate, pointwise_strict_gap_check

GOLDEN = (3 + math.sqrt(5)) / 2

# Frozen by our own root-finding oracle: the spectral radius of the
# 4-strand cancellation example at t = exp(2 pi i / 3).
EX2_RADIUS_AT_THIRD_ROOT = 1.9577348200685825


class TestSpecialize:
    def test_full_burau_at_one_is_permutation(self, ex1):
        m = specialize(burau_matrix(ex1).matrix, 1)
        perm = permutation(ex1)
        expected = np.zeros((3, 3))
        for i, mu in enumerate(perm):
            expected[i, mu - 1] = 1
        assert np.allclose(m, expected, atol=1e-12)

    def test_identity_matrix(self):
        m = specialize(LaurentMatrix.identity(3), 0.5 + 0.25j)
        assert np.allclose(m, np.eye(3))

    def test_reduced_generator_at_minus_one(self):
        m = specialize(reduced_burau(BraidWord(2, (1,))).matrix, -1)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            specialize(LaurentMatrix.identity(2), 0)

    def test_matches_entrywise_evaluation(self):
        rng = random.Random(121)
        for _ in range(20):
            w = random_braid(rng, max_strands=6, max_length=10)
            t = cmath.rect(rng.uniform(0.5, 2), rng.uniform(0, 2 * math.pi))
            for b in (burau_matrix(w), reduced_burau(w)):
                m = b.matrix
                expected = [[m.entry(i, j).evaluate(t) for j in range(m.dim)]
                            for i in range(m.dim)]
                assert np.allclose(specialize(m, t), expected, rtol=1e-12, atol=1e-12)

    def test_bivariate_zero_rejected(self, ex1):
        with pytest.raises(ValueError):
            specialize_bivariate(charpoly(burau_matrix(ex1).matrix), 0)


def _complex_charpoly(m: np.ndarray) -> ComplexPolynomial:
    """det(X I - m) from numpy's eigenvalues, ascending coefficients."""
    return ComplexPolynomial.make(np.poly(m)[::-1])


class TestCharPolyComplex:
    def test_identity_3x3(self):
        assert np.allclose(_complex_charpoly(np.eye(3)).coeffs, [-1, 3, -3, 1])
        assert spectral_radius(np.eye(3)) == 1.0

    def test_example_1_at_minus_one(self, ex1):
        poly = _complex_charpoly(specialize(burau_matrix(ex1).matrix, -1))
        # (X-1)(X^2 - 3X + 1) = -1 + 4X - 4X^2 + X^3
        assert np.allclose(poly.coeffs, [-1, 4, -4, 1], atol=1e-12)

    def test_example_3_at_minus_one(self, ex3):
        poly = _complex_charpoly(specialize(burau_matrix(ex3).matrix, -1))
        # (X-1)(X^4 + X^3 - X^2 + X + 1) = -1 + 0X + 2X^2 - 2X^3 + 0X^4 + X^5
        assert np.allclose(poly.coeffs, [-1, 0, 2, -2, 0, 1], atol=1e-12)

    def test_matches_symbolic_specialization(self):
        rng = random.Random(122)
        for _ in range(20):
            w = random_braid(rng, max_strands=5, max_length=8)
            theta = rng.uniform(0, 2 * math.pi)
            t = cmath.exp(1j * theta)
            symbolic = specialize_bivariate(charpoly(burau_matrix(w).matrix), t)
            numeric = _complex_charpoly(specialize(burau_matrix(w).matrix, t))
            assert len(symbolic.coeffs) == len(numeric.coeffs)
            for a, b in zip(symbolic.coeffs, numeric.coeffs):
                assert abs(a - b) < 1e-9

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            spectral_radius(np.eye(65))


class TestRoots:
    def test_golden_quadratic(self):
        found = roots(ComplexPolynomial.make([1, -3, 1]))
        values = sorted(abs(r) for r in found)
        assert values[1] == pytest.approx(GOLDEN, abs=1e-12)
        assert values[0] == pytest.approx(1 / GOLDEN, abs=1e-12)

    def test_pure_imaginary_pair(self):
        found = sorted(roots(ComplexPolynomial.make([1, 0, 1])),
                       key=lambda z: z.imag)
        assert found[0] == pytest.approx(-1j, abs=1e-12)
        assert found[1] == pytest.approx(1j, abs=1e-12)

    def test_example_3_quartic(self):
        lam = bisect_largest_root(lambda x: x ** 4 - x ** 3 - x ** 2 - x + 1,
                                  1.7, 1.8)
        found = roots(ComplexPolynomial.make([1, -1, -1, -1, 1]))
        largest = max(r.real for r in found if abs(r.imag) < 1e-9)
        assert largest == pytest.approx(lam, abs=1e-11)

    def test_multiple_root_collapses(self):
        found = roots(ComplexPolynomial.make([1, -4, 6, -4, 1]))
        assert all(abs(r - 1) < 1e-10 for r in found)
        assert len(found) == 4

    def test_simple_root_beside_triple_root(self):
        # p is flat at the four roots' centroid, so only its higher Taylor
        # coefficients there tell the simple root from the triple one.
        coeffs = np.convolve(np.poly([1.0, 1.0, 1.0]), [1.0, -1.01])
        found = roots(ComplexPolynomial.make(coeffs[::-1]))
        assert max(abs(r) for r in found) == pytest.approx(1.01, abs=1e-6)

    def test_zero_roots_kept(self):
        found = roots(ComplexPolynomial.make([0, 0, 1]))
        assert found == [0j, 0j]

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            roots(ComplexPolynomial.make([5]))

    def test_vieta_sum_and_product(self):
        rng = random.Random(123)
        for _ in range(100):
            degree = rng.randint(1, 8)
            coeffs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                      for _ in range(degree + 1)]
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 1.0
            if abs(coeffs[0]) < 1e-6:
                coeffs[0] = 0.5
            poly = ComplexPolynomial.make(coeffs)
            found = roots(poly)
            total = sum(found)
            prod = 1
            for r in found:
                prod *= r
            n = poly.degree
            assert abs(total - (-poly.coeffs[-2] / poly.coeffs[-1])) \
                < 1e-9 * (1 + abs(total))
            expected_prod = (-1) ** n * poly.coeffs[0] / poly.coeffs[-1]
            assert abs(prod - expected_prod) < 1e-9 * (1 + abs(prod))

    def test_residuals_small(self):
        rng = random.Random(124)
        for _ in range(100):
            degree = rng.randint(1, 8)
            coeffs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                      for _ in range(degree + 1)]
            if abs(coeffs[-1]) < 0.1:
                coeffs[-1] = 1.0
            poly = ComplexPolynomial.make(coeffs)
            scale = sum(abs(c) for c in poly.coeffs)
            for r in roots(poly):
                assert abs(poly.evaluate(r)) < 1e-8 * scale * (1 + abs(r)) ** poly.degree


class TestSpectralRadius:
    def test_permutation_matrix(self):
        p = np.zeros((4, 4))
        for i, j in enumerate((2, 0, 3, 1)):
            p[i, j] = 1
        assert spectral_radius(p) == pytest.approx(1.0, abs=1e-12)

    def test_example_1_at_minus_one(self, ex1):
        r = spectral_radius(specialize(burau_matrix(ex1).matrix, -1))
        assert r == pytest.approx(GOLDEN, abs=1e-9)

    def test_example_2_degenerate_point(self, ex2):
        r = spectral_radius(specialize(burau_matrix(ex2).matrix, -1))
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_empty_matrix(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("lam", [1.0, 2.0, -1.5])
    def test_jordan_block_merges(self, lam):
        # A 3 x 3 Jordan block, conjugated so that its eigenvalues are not
        # read off a triangle: eigvals smears them about 5e-6 apart, and the
        # merge puts the triple root back.
        s = np.array([[1, 2, 0], [0, 1, 3], [1, 0, 1]], dtype=float)
        m = s @ (lam * np.eye(3) + np.diag([1.0, 1.0], 1)) @ np.linalg.inv(s)
        assert abs(np.abs(np.linalg.eigvals(m)).max() - abs(lam)) > 1e-7
        assert spectral_radius(m) == pytest.approx(abs(lam), abs=1e-12)


class TestSweep:
    def test_identity_constant(self):
        sweep = sweep_unit_circle(LaurentMatrix.identity(3), grid=8)
        assert len(sweep.samples) == 8
        assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in sweep.samples)
        assert sweep.radius_star == pytest.approx(1.0, abs=1e-12)

    def test_example_1_attains_golden_ratio(self, ex1):
        sweep = sweep_unit_circle(burau_matrix(ex1).matrix, grid=256)
        assert sweep.radius_star == pytest.approx(GOLDEN, abs=1e-8)
        assert sweep.theta_star == pytest.approx(math.pi, abs=1e-6)
        assert sweep.t_star.real == pytest.approx(-1.0, abs=1e-8)

    def test_refinement_dominates_grid(self, ex3):
        coarse = sweep_unit_circle(burau_matrix(ex3).matrix, grid=64, refine=False)
        refined = sweep_unit_circle(burau_matrix(ex3).matrix, grid=64, refine=True)
        assert refined.radius_star >= coarse.radius_star
        assert refined.radius_star >= max(v for _, v in refined.samples)

    def test_sweep_dominates_spot_values(self, ex2):
        sweep = sweep_unit_circle(burau_matrix(ex2).matrix, grid=512)
        spots = [-1.0 + 0j] + [cmath.exp(2j * math.pi / k) for k in range(3, 7)]
        for t in spots:
            spot = spectral_radius(specialize(burau_matrix(ex2).matrix, t))
            assert sweep.radius_star >= spot - 1e-8

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            sweep_unit_circle(LaurentMatrix.identity(2), grid=4)

    @pytest.mark.parametrize("grid", [64, 63])
    def test_samples_cover_the_grid_and_mirror(self, ex2, grid):
        sweep = sweep_unit_circle(reduced_burau(ex2).matrix, grid=grid)
        assert len(sweep.samples) == grid
        thetas = [theta for theta, _ in sweep.samples]
        assert thetas == [2 * math.pi * k / grid for k in range(grid)]
        values = [value for _, value in sweep.samples]
        assert all(values[k] == values[grid - k] for k in range(1, grid))
        assert 0 <= sweep.theta_star <= math.pi

    def test_example_1_refines_one_maximum(self, ex1):
        sweep = sweep_unit_circle(reduced_burau(ex1).matrix, grid=1024)
        assert sweep.radius_star == pytest.approx(GOLDEN, abs=1e-12)
        assert sweep.refinement_iterations < 60

    def test_failed_eigenvalue_point_is_skipped(self, ex1, monkeypatch):
        m = reduced_burau(ex1).matrix
        at_one = specialize(m, 1)
        eigvals = np.linalg.eigvals

        def flaky(a):
            if (a.ndim == 3 and len(a) > 1) or (a.ndim == 2 and np.allclose(a, at_one)):
                raise np.linalg.LinAlgError("no convergence")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        sweep = sweep_unit_circle(m, grid=64)
        assert [k for k, _ in sweep.skipped] == [0]
        assert len(sweep.samples) == 63
        assert sweep.radius_star == pytest.approx(GOLDEN, abs=1e-12)


def power(m, p: int):
    out = m
    for _ in range(p - 1):
        out = out * m
    return out


def full_twist(n: int) -> BraidWord:
    """(s1 s2 ... s_{n-1})^n: central, its reduced Burau matrix is t^n I."""
    return BraidWord(n, tuple(range(1, n)) * n)


class TestEntropyBound:
    def test_example_1(self, ex1):
        report = entropy_lower_bound(ex1, grid=256)
        assert report.bound == pytest.approx(math.log(GOLDEN), abs=1e-8)

    @pytest.mark.parametrize("n, grid", [(5, 128), (6, 96)])
    def test_full_twist_is_zero(self, n, grid):
        report = entropy_lower_bound(full_twist(n), grid=grid)
        assert report.bound == 0
        assert report.sweep.radius_star <= 1 + 1e-12

    @pytest.mark.parametrize("p", [12, 20])
    def test_large_radius_is_the_float_maximum(self, ex1, p):
        # (s1 s2^-1)^p has radius GOLDEN^p at t = -1 and an eigenvalue of
        # modulus GOLDEN^-p, far below the float eigenvalue error there
        step = reduced_burau(ex1).matrix
        sweep = burau_radius_sweep(power(step, p), grid=256)
        assert sweep.radius_star == pytest.approx(GOLDEN ** p, rel=1e-12)

    def test_identity_braid(self):
        report = entropy_lower_bound(BraidWord(3, ()), grid=64)
        assert report.bound == 0.0

    def test_example_2_positive(self, ex2):
        report = entropy_lower_bound(ex2, grid=256)
        assert report.bound > 0.0
        spots = dict(report.spot_values)
        assert spots["t=-1"] == pytest.approx(1.0, abs=1e-9)
        assert spots["t=exp(2*pi*i/3)"] == pytest.approx(
            EX2_RADIUS_AT_THIRD_ROOT, abs=1e-6)
        # k = 5, 6 lie inside Squier's arc |theta| < 2 pi / 4; its edge
        # k = 4 is still evaluated.
        assert spots["t=exp(2*pi*i/5)"] == spots["t=exp(2*pi*i/6)"] == 1.0
        assert spots["t=exp(2*pi*i/4)"] == spectral_radius(
            specialize(burau_matrix(ex2).matrix, 1j))


class TestReciprocalConjugate:
    def test_self_reciprocal(self):
        p = ComplexPolynomial.make([1, -3, 1])
        assert reciprocal_conjugate(p).coeffs == p.coeffs

    def test_linear(self):
        q = reciprocal_conjugate(ComplexPolynomial.make([1, 2]))
        assert q.coeffs == (2 + 0j, 1 + 0j)

    def test_complex_coefficients(self):
        q = reciprocal_conjugate(ComplexPolynomial.make([2, 1j]))
        assert q.coeffs == (-1j, 2 + 0j)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            reciprocal_conjugate(ComplexPolynomial.make([1]))


class TestResultant:
    def test_distinct_linear(self):
        r = resultant(ComplexPolynomial.make([-1, 1]), ComplexPolynomial.make([1, 1]))
        assert r == pytest.approx(2)

    def test_common_root_vanishes(self):
        p = ComplexPolynomial.make([-1, 0, 1])
        assert abs(resultant(p, p)) < 1e-12

    def test_quadratics(self):
        r = resultant(ComplexPolynomial.make([1, 0, 1]),
                      ComplexPolynomial.make([-1, 0, 1]))
        assert r == pytest.approx(4)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            resultant(ComplexPolynomial.make([1]), ComplexPolynomial.make([1, 1]))


class TestUnitCircleCertificate:
    def test_golden_quadratic_has_no_unit_root(self):
        cert = unit_circle_root_certificate(ComplexPolynomial.make([1, -3, 1]))
        assert cert.verdict == "no unit root"
        # palindromic: the screen fires even though both roots are off circle
        assert cert.fired
        assert cert.min_unit_distance > 0.5

    def test_x_minus_one_has_unit_root(self):
        cert = unit_circle_root_certificate(ComplexPolynomial.make([-1, 1]))
        assert cert.verdict == "has unit root"
        assert cert.fired
        assert cert.min_unit_distance < 1e-12

    def test_real_reciprocal_pair_off_circle(self):
        lam = 2.0
        poly = ComplexPolynomial.make([1, -(1 + lam ** 2) / lam, 1])
        cert = unit_circle_root_certificate(poly)
        assert cert.verdict == "no unit root"

    def test_gray_zone_is_inconclusive(self):
        # the reciprocal pair (0.5, 2) makes the resultant vanish; the third
        # root sits just off the circle, inside the gray zone
        near = 1 + 1e-7
        coeffs = np.convolve(np.convolve([1.0, -near], [1.0, -0.5]), [1.0, -2.0])
        poly = ComplexPolynomial.make(coeffs[::-1])
        cert = unit_circle_root_certificate(poly)
        assert cert.fired
        assert cert.verdict == "inconclusive"


EX2_LAMBDA = bisect_largest_root(lambda x: x ** 4 - 2 * x ** 3 - 2 * x + 1, 2.0, 3.0)
EX3_LAMBDA = bisect_largest_root(lambda x: x ** 4 - x ** 3 - x ** 2 - x + 1, 1.7, 1.8)

# Examples 1-3 at their closed-form rates and just off them, example 2 at
# its largest grid radius (None: an eigenvalue of modulus lam at a grid point
# off the real axis and at its mirror image), a ladder, the B5 full twist
# (reduced matrix t^5 I) and the identity braid.
GAP_CASES = [
    *((n, word, lam * f)
      for n, word, lam in ((3, "1 -2", GOLDEN), (4, "1 -2 -3", EX2_LAMBDA),
                           (5, "4 3 2 1 4 3", EX3_LAMBDA))
      for f in (1.0, 1 - 1e-6, 1 + 1e-6)),
    (4, "1 -2 -3", None),
    (6, "1 -2 3 -4 5", 3.0),
    (5, " ".join(["1 2 3 4"] * 5), 1.5),
    (3, "", 2.0),
]


def _inside_arc(n: int, k: int, grid: int) -> bool:
    """Whether theta = 2 pi k / grid lies strictly inside Squier's arc
    |theta| < 2 pi / n (mod 2 pi)."""
    return n * min(k % grid, -k % grid) < grid


class TestStrictGap:
    def test_example_1_equality_case_fails(self, ex1):
        report = strict_gap_check(burau_matrix(ex1), GOLDEN, grid=128)
        assert not report.gap_holds
        assert any(abs(theta - math.pi) < 1e-9 for theta in report.unit_root_points)

    def test_identity_braid_trivially_gapped(self):
        report = strict_gap_check(burau_matrix(BraidWord(3, ())), 2.0, grid=64)
        assert report.gap_holds
        assert not report.fired_points

    def test_large_radius_is_the_float_maximum(self, ex1):
        step = burau_matrix(ex1)
        full = replace(step, matrix=power(step.matrix, 12),
                       exponent_sum=12 * step.exponent_sum)
        report = strict_gap_check(full, 2 * GOLDEN ** 12, grid=64)
        assert report.sweep.radius_star == pytest.approx(GOLDEN ** 12, rel=1e-12)
        assert report.gap_holds

    def test_lambda_guard(self, ex1):
        with pytest.raises(ValueError):
            strict_gap_check(burau_matrix(ex1), 0.5)

    def test_no_gap_without_evidence(self, ex2, monkeypatch):
        # Example 2's supremum is 2.174; with every eigenvalue step failing
        # only the arc |theta| < 2 pi / 4 has samples (radius 1), every
        # grid point outside it is skipped, and the gap must not be accepted.
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvals", explode)
        report = strict_gap_check(burau_matrix(ex2), 1.5, grid=64)
        assert [k for k, _ in report.skipped] == [
            k for k in range(64) if not _inside_arc(4, k, 64)]
        assert not report.gap_holds

    @pytest.mark.parametrize("grid", [256, 255])
    @pytest.mark.parametrize("n, word, lam", GAP_CASES)
    def test_screen_matches_pointwise_oracle(self, n, word, lam, grid):
        full = burau_matrix(parse_braid(word, n))
        if lam is None:
            sweep = sweep_unit_circle(reduce_full(full).matrix, grid, refine=False)
            lam = max(value for _, value in sweep.samples)
        got = strict_gap_check(full, lam, grid=grid)
        want, resultants = pointwise_strict_gap_check(full, lam, grid=grid)
        assert got.fired_points == want.fired_points
        assert got.unit_root_points == want.unit_root_points
        assert got.inconclusive_points == want.inconclusive_points
        assert [k for k, _ in got.skipped] == [k for k, _ in want.skipped]
        assert got.gap_holds == want.gap_holds
        assert got.sweep.radius_star == want.sweep.radius_star
        # The oracle screens the arc too, and finds nothing there.
        assert not any(_inside_arc(n, round(theta * grid / (2 * math.pi)), grid)
                       for theta in (*want.fired_points, *want.unit_root_points,
                                     *want.inconclusive_points))
        outside = [r for k, r in enumerate(resultants)
                   if r is not None and not _inside_arc(n, k, grid)]
        assert got.min_resultant_abs == pytest.approx(min(outside), rel=1e-9)
        # |Res| is even in theta (and constant for the full twist), so the
        # oracle's first minimum may be a rounding-level tie elsewhere: its
        # resultant at the screen's theta must be the same minimum.
        at_theta = point_certificate(charpoly(reduce_full(full).matrix), lam,
                                     got.min_resultant_theta).resultant_abs
        assert at_theta == pytest.approx(min(outside), rel=1e-9)
        assert not _inside_arc(n, round(got.min_resultant_theta * grid / (2 * math.pi)),
                               grid)

    def test_min_resultant_past_float_range_is_inf(self):
        # Every screened |Res| of L(16) at lam = 6 is past float range; the
        # unscreened arc must not turn the minimum into NaN.
        full = burau_matrix(parse_braid(ladder(16), 16))
        report = strict_gap_check(full, 6.0, grid=64)
        assert report.min_resultant_abs == math.inf
        assert report.gap_holds

    def test_grid_eigenvalues_are_taken_once(self, ex2, monkeypatch):
        # The screen's eigenvalues give the sweep its grid radii: one matrix
        # per point of the half grid outside the arc, k = 64 .. 128, none
        # taken twice and none inside the arc.
        seen = []
        eigvals = np.linalg.eigvals

        def counting(a):
            seen.append(1 if np.ndim(a) == 2 else len(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        report = strict_gap_check(burau_matrix(ex2), 3.0, grid=256, refine=False)
        assert not report.fired_points and not report.skipped
        assert sum(seen) == 65
        # The same 65 points for the sweep, and one matrix at t_star.
        seen.clear()
        burau_radius_sweep(reduced_burau(ex2).matrix, grid=256, refine=False)
        assert seen == [65, 1]

    @pytest.mark.parametrize("grid", [256, 255])
    @pytest.mark.parametrize("n, word", [
        (3, "1 -2"), (4, "1 -2 -3"), (5, "4 3 2 1 4 3"), (6, "1 -2 3 -4 5"),
        (5, " ".join(["1 2 3 4"] * 5)),
    ])
    def test_sweep_is_the_plain_sweep(self, n, word, grid):
        full = burau_matrix(parse_braid(word, n))
        sweep = sweep_unit_circle(reduce_full(full).matrix, grid)
        report = strict_gap_check(full, 3.0, grid=grid)
        arc = [_inside_arc(n, k, grid) for k in range(grid)]
        assert [s for s, a in zip(report.sweep.samples, arc) if not a] == [
            s for s, a in zip(sweep.samples, arc) if not a]
        assert all(value == 1.0 for (_, value), a in zip(report.sweep.samples, arc) if a)
        assert all(abs(value - 1) <= 1e-12 for (_, value), a in zip(sweep.samples, arc) if a)
        want = replace(sweep, radius_star=max(1.0, sweep.radius_star))
        if sweep.radius_star > 1 + 1e-9:
            assert report.sweep == replace(want, samples=report.sweep.samples)
        else:
            # The B5 full twist (reduced matrix t^5 I) has radius 1 on the
            # whole circle: its maximum is rounding noise, which the arc no
            # longer offers for refinement.
            assert report.sweep.radius_star == want.radius_star
            assert report.sweep.refinement_iterations < want.refinement_iterations

    def test_half_radii_length_guard(self, ex1):
        with pytest.raises(ValueError):
            sweep_unit_circle(reduced_burau(ex1).matrix, 64, half_radii=np.ones(32))

    def test_screen_memory_is_blocked(self, ex3):
        full = burau_matrix(ex3)
        tracemalloc.start()
        try:
            strict_gap_check(full, EX3_LAMBDA, grid=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Blocks of 256 points peak near 1 MB; a Sylvester stack over the
        # whole half grid peaks near 3.4 MB.
        assert peak < 2_000_000

    def test_given_reduced_charpoly_is_used(self, ex2):
        full = burau_matrix(ex2)
        given = charpoly(reduce_full(full).matrix)
        assert (strict_gap_check(full, 2.3, grid=64, reduced_charpoly=given)
                == strict_gap_check(full, 2.3, grid=64))

    @pytest.mark.parametrize("block", [1, 5, 32])
    def test_block_size_leaves_results_unchanged(self, ex2, block, monkeypatch):
        # Grid 64 evaluates 33 points: blocks of 1, a ragged last block of
        # 3, and a last block of one point.
        full = burau_matrix(ex2)
        reduced = reduce_full(full).matrix
        sweep = sweep_unit_circle(reduced, grid=64)
        report = strict_gap_check(full, 2.3, grid=64)
        monkeypatch.setattr(spectral, "_BLOCK", block)
        assert sweep_unit_circle(reduced, grid=64) == sweep
        assert strict_gap_check(full, 2.3, grid=64) == report

    def test_sweep_memory_is_blocked(self):
        reduced = reduced_burau(parse_braid(f"{ladder(20)} {ladder(20)}", 20)).matrix
        tracemalloc.start()
        try:
            sweep_unit_circle(reduced, grid=4096, refine=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Blocks of 256 points peak near 1.9 MB; the 2049 specialized
        # 19 x 19 matrices of the whole half grid at once peak near 13.9 MB.
        assert peak < 4_000_000


def test_lockstep_searches_match_single_runs():
    # Intervals of different widths finish after different step counts.
    def f(points):
        return [math.cos(3 * x) + 0.1 * x for x in points]

    spans = [(-0.3, 0.2), (1.9, 2.3), (4.0, 4.1)]
    together = _lockstep(f, [_golden_section_max(a, b, 1e-10) for a, b in spans])
    alone = [_lockstep(f, [_golden_section_max(a, b, 1e-10)])[0] for a, b in spans]
    assert together == alone
    assert len({its for _, _, its in together}) > 1


class TestReciprocalSymmetry:
    def test_reduced_spectrum_closed_under_inverse_conjugate(self):
        rng = random.Random(125)
        for _ in range(40):
            w = random_braid(rng, max_strands=5, max_length=8)
            theta = rng.uniform(0, 2 * math.pi)
            t = cmath.exp(1j * theta)
            poly = specialize_bivariate(charpoly(reduced_burau(w).matrix), t)
            if poly.degree < 1:
                continue
            eigs = roots(poly)
            for lam in eigs:
                target = 1 / lam.conjugate()
                assert min(abs(target - mu) for mu in eigs) < 1e-7

    def test_full_spectrum_contains_one(self):
        # backward form: 1 annihilates the charpoly to within 1e-8 of its
        # coefficient scale.  Forward root proximity degrades to ~sqrt(eps)
        # whenever a second eigenvalue collides with 1, so that part of the
        # check uses the honest 1e-6.
        rng = random.Random(126)
        for _ in range(40):
            w = random_braid(rng, max_strands=5, max_length=8)
            theta = rng.uniform(0, 2 * math.pi)
            t = cmath.exp(1j * theta)
            poly = _complex_charpoly(specialize(burau_matrix(w).matrix, t))
            scale = sum(abs(c) for c in poly.coeffs)
            assert abs(poly.evaluate(1)) < 1e-8 * scale
            eigs = roots(poly)
            assert min(abs(mu - 1) for mu in eigs) < 1e-6


def test_radius_is_one_inside_squier_arc():
    # For |theta| < 2 pi / n Squier's Hermitian form is positive definite
    # and the reduced Burau matrix is unitary for it (Squier, The Burau
    # representation is unitary, Proc. AMS 1984; McMullen, Braid groups and
    # Hodge theory, Math. Ann. 2013), so its spectral radius is 1 there.
    rng = random.Random(1984)
    for _ in range(120):
        n = rng.randint(3, 12)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(1, 3 * n)))
        m = reduced_burau(BraidWord(n, letters)).matrix
        # Random points and the last point of grid 4096 before the edge.
        edge = 2 * math.pi / n
        thetas = [rng.uniform(-edge, edge) for _ in range(8)]
        thetas.append(2 * math.pi * ((4096 - 1) // n) / 4096)
        stack = np.array([specialize(m, cmath.exp(1j * theta)) for theta in thetas])
        assert np.abs(np.abs(np.linalg.eigvals(stack)).max(-1) - 1).max() <= 1e-12


def test_occurrence_bound_chain():
    # max row sum of the specialized Burau matrix of a power never exceeds
    # the norm of the occurrence matrix of that power
    rng = random.Random(127)
    for _ in range(30):
        w = random_braid(rng, max_strands=5, max_length=6)
        auto = artin_action(w)
        theta = rng.uniform(0, 2 * math.pi)
        t = cmath.exp(1j * theta)
        current = auto
        b = burau_matrix(w).matrix
        bt = specialize(b, t)
        power = bt.copy()
        for p in range(1, 4):
            occ_norm = max(sum(row) for row in occurrence_matrix(current).entries)
            burau_norm = max(np.sum(np.abs(power), axis=1))
            assert burau_norm <= occ_norm + 1e-9
            current = compose_autos(current, auto)
            power = power @ bt
