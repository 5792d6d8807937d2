import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burau.braid import BraidWord, exponent_sum, parse_braid, permutation
from burau.foxburau import burau_matrix, reduce_full
from burau.laurent import (
    MAX_CHARPOLY_DIM,
    BivariatePoly,
    LaurentMatrix,
    LaurentPoly,
    charpoly,
)

from cofactor_det import bivariate_det, cofactor_charpoly
from conftest import alternating, ladder, power, random_braid


def P(coeffs):
    return LaurentPoly.from_dict(coeffs)


sparse_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(P)


class TestRingOps:
    def test_add_cancels(self):
        assert P({0: 1, 1: -1}) + P({1: 1}) == P({0: 1})

    def test_unit_product(self):
        assert P({-1: 1}) * P({1: 1}) == LaurentPoly.one()

    def test_shift_by_t(self):
        p = P({0: 1, 1: -1, -1: -1})
        assert p * LaurentPoly.t_power(1) == P({1: 1, 2: -1, 0: -1})

    def test_no_zero_terms_stored(self):
        with pytest.raises(ValueError):
            LaurentPoly(((0, 0),))

    @pytest.mark.parametrize("make", [lambda: LaurentPoly(((0, 1.5),)),
                                      lambda: LaurentPoly(((0, 1j),)),
                                      lambda: LaurentPoly.from_dict({0: 0.5}),
                                      lambda: LaurentPoly.from_dict({0: np.int64(2)})],
                             ids=["float", "complex", "from_dict", "numpy_int"])
    def test_non_integer_coefficient_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_products_keep_int_coefficients(self):
        p = P({-1: 3, 0: -2, 2: 10 ** 30}) * P({1: -7, 3: 5}) + P({0: 1})
        assert p.terms
        assert all(type(c) is int for _, c in p.terms)

    @settings(deadline=None)
    @given(sparse_polys, sparse_polys, sparse_polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


class TestEvaluate:
    def test_example_coefficient(self):
        # 1 - t - t^-1 at t = -1
        assert P({0: 1, 1: -1, -1: -1}).evaluate(-1) == pytest.approx(3)

    def test_at_one_sums_coefficients(self):
        p = P({-3: 2, 0: -1, 5: 4})
        assert p.evaluate(1) == pytest.approx(5)
        assert p.coefficient_sum() == 5

    def test_negative_exponents(self):
        assert P({-2: 1, -1: -1, 0: 1}).evaluate(-1) == pytest.approx(3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            P({1: 1}).evaluate(0)

    def test_multiplicative_on_unit_circle(self):
        rng = random.Random(108)
        for _ in range(100):
            p = P({rng.randint(-8, 8): rng.randint(-9, 9) or 1 for _ in range(4)})
            q = P({rng.randint(-8, 8): rng.randint(-9, 9) or 1 for _ in range(4)})
            theta = rng.uniform(0, 2 * math.pi)
            t = complex(math.cos(theta), math.sin(theta))
            lhs = (p * q).evaluate(t)
            rhs = p.evaluate(t) * q.evaluate(t)
            scale = 1 + abs(lhs)
            assert abs(lhs - rhs) / scale < 1e-10


class TestRender:
    def test_ascending_with_signs(self):
        assert P({-2: -1, -1: 1, 0: -1}).render() == "-t^-2 + t^-1 - 1"

    def test_simple_cases(self):
        assert LaurentPoly.zero().render() == "0"
        assert P({0: 1, 1: -1}).render() == "1 - t"
        assert P({1: 1}).render() == "t"
        assert P({2: 3, -1: -2}).render() == "-2*t^-1 + 3*t^2"


class TestJson:
    def test_integer_round_trip(self):
        p = P({-1: 2, 0: -1, 3: 10 ** 40})
        blob = json.dumps(p.to_json())
        assert LaurentPoly.from_json(json.loads(blob)) == p


class TestBivariate:
    def test_trim_and_degree(self):
        poly = BivariatePoly.make([LaurentPoly.one(), LaurentPoly.zero()])
        assert poly.degree == 0

    def test_arithmetic(self):
        one = LaurentPoly.one()
        x_minus_1 = BivariatePoly.make([LaurentPoly.constant(-1), one])
        x_plus_1 = BivariatePoly.make([one, one])
        square = x_minus_1 * x_plus_1
        assert square == BivariatePoly.make([LaurentPoly.constant(-1),
                                             LaurentPoly.zero(), one])

    def test_render(self):
        one = LaurentPoly.one()
        poly = BivariatePoly.make([-LaurentPoly.t_power(1), LaurentPoly.constant(-1)])
        assert poly.render("x") == "-t - x"
        assert BivariatePoly.make([one, LaurentPoly.constant(-1)]).render("x") == "1 - x"


class TestCharpoly:
    def test_identity_2x2(self):
        one = LaurentPoly.one()
        m = LaurentMatrix.identity(2)
        # (X - 1)^2 = 1 - 2X + X^2
        expected = BivariatePoly.make([one, LaurentPoly.constant(-2), one])
        assert charpoly(m) == expected

    def test_example_1_factored_form(self, ex1):
        one = LaurentPoly.one()
        c = P({0: 1, 1: -1, -1: -1})  # 1 - t - t^-1
        quadratic = BivariatePoly.make([one, -c, one])
        x_minus_1 = BivariatePoly.make([LaurentPoly.constant(-1), one])
        assert charpoly(burau_matrix(ex1).matrix) == x_minus_1 * quadratic

    def test_example_2_factored_form(self, ex2):
        one = LaurentPoly.one()
        c = P({0: 1, 1: -1, -1: -1})
        d = P({-2: 1, -1: -1, 0: 1})
        cubic = BivariatePoly.make([LaurentPoly.t_power(-1), d, -c, one])
        x_minus_1 = BivariatePoly.make([LaurentPoly.constant(-1), one])
        assert charpoly(burau_matrix(ex2).matrix) == x_minus_1 * cubic

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            charpoly(LaurentMatrix.identity(MAX_CHARPOLY_DIM + 1))

    def test_determinant_of_triangular(self):
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        t = LaurentPoly.t_power(1)
        m = LaurentMatrix(((t, one), (zero, t)))
        poly = charpoly(m)
        # (X - t)^2 = t^2 - 2t X + X^2
        expected = BivariatePoly.make([P({2: 1}), P({1: -2}), one])
        assert poly == expected


def test_matrix_product_and_identity():
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    t = LaurentPoly.t_power(1)
    m = LaurentMatrix(((one - t, t), (one, zero)))
    identity = LaurentMatrix.identity(2)
    assert m * identity == m
    inverse = LaurentMatrix(((zero, one), (LaurentPoly.t_power(-1),
                                           one - LaurentPoly.t_power(-1))))
    assert m * inverse == identity


def test_bivariate_det_of_constant_matrix():
    t = LaurentPoly.t_power(1)
    entries = [[BivariatePoly.make([t])]]
    assert bivariate_det(entries) == BivariatePoly.make([t])


# The braids the benchmark's exact workload takes charpolys of.
WORKLOAD_BRAIDS = [(3, power("1 -2", 7)), (12, power(ladder(12), 2)),
                   (12, power(alternating(12), 2)), (11, power(ladder(11), 2)),
                   (8, power(ladder(8), 3)), (10, power(ladder(10), 3))]
WORKLOAD_IDS = ["(1 -2)^7", "L(12)^2", "A(12)^2", "L(11)^2", "L(8)^3", "L(10)^3"]

# Past the reach of the 2^d cofactor expansion.
WIDE_BRAIDS = [(14, power(ladder(14), 2)), (14, alternating(14)),
               (20, power(ladder(20), 2)), (24, power(ladder(24), 2))]
WIDE_IDS = ["L(14)^2", "A(14)", "L(20)^2", "L(24)^2"]


def _both_matrices(word: BraidWord):
    full = burau_matrix(word)
    return full.matrix, reduce_full(full).matrix


@functools.lru_cache(maxsize=None)
def _wide_charpolys(n: int, text: str):
    full, reduced = _both_matrices(parse_braid(text, n))
    return charpoly(full), charpoly(reduced)


def _int_poly_product(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCharpolyOracle:
    """Berkowitz's charpoly against the cofactor expansion in
    ``tests/cofactor_det.py``, and exact invariants beyond its reach."""

    def test_random_braids(self):
        rng = random.Random(20240607)
        for _ in range(120):
            word = random_braid(rng, max_strands=9, max_length=14)
            for m in _both_matrices(word):
                assert charpoly(m) == cofactor_charpoly(m), word

    @pytest.mark.parametrize("n, text", WORKLOAD_BRAIDS, ids=WORKLOAD_IDS)
    def test_workload_braids(self, n, text):
        for m in _both_matrices(parse_braid(text, n)):
            assert charpoly(m) == cofactor_charpoly(m)

    @pytest.mark.parametrize("n, text", WIDE_BRAIDS, ids=WIDE_IDS)
    def test_full_factors_through_reduced(self, n, text):
        full, reduced = _wide_charpolys(n, text)
        one = LaurentPoly.one()
        assert full == BivariatePoly.make([LaurentPoly.constant(-1), one]) * reduced
        assert full.degree == n

    @pytest.mark.parametrize("n, text", WIDE_BRAIDS, ids=WIDE_IDS)
    def test_value_at_one_is_permutation_charpoly(self, n, text):
        full, _ = _wide_charpolys(n, text)
        mu = permutation(parse_braid(text, n))
        expected, seen = [1], set()
        for start in range(1, n + 1):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = mu[i - 1]
                length += 1
            if length:
                expected = _int_poly_product(expected, [-1] + [0] * (length - 1) + [1])
        assert [c.coefficient_sum() for c in full.coeffs] == expected

    @pytest.mark.parametrize("n, text", WIDE_BRAIDS, ids=WIDE_IDS)
    def test_constant_term_is_signed_determinant(self, n, text):
        e = exponent_sum(parse_braid(text, n))
        for d, poly in zip((n, n - 1), _wide_charpolys(n, text)):
            # det(-B) = (-1)^d det(B) and det(B) = (-t)^e.
            assert poly.coefficient(0) == LaurentPoly.t_power(e, (-1) ** (d + e))


def _random_laurent_matrix(rng: random.Random, d: int) -> LaurentMatrix:
    def entry() -> LaurentPoly:
        if rng.random() < 0.3:
            return LaurentPoly.zero()
        return P({rng.randint(-30, 30): rng.choice((1, -1)) * rng.randint(1, 2 ** 70)
                  for _ in range(rng.randint(1, 3))})

    return LaurentMatrix(tuple(tuple(entry() for _ in range(d)) for _ in range(d)))


class TestPacking:
    """Edges of the Kronecker packing inside ``charpoly``: wide coefficients,
    negative exponents, a coefficient that needs the full packing width, and
    the smallest matrices."""

    def test_random_wide_matrices(self):
        rng = random.Random(20261018)
        for _ in range(40):
            m = _random_laurent_matrix(rng, rng.randint(1, 7))
            assert charpoly(m) == cofactor_charpoly(m), m

    def test_coefficient_at_packing_bound(self):
        # The rows' L1 sums are 2^20, so the bound (1 + 2^20)^d has 20d + 1
        # bits and the digits 20d + 2.  The constant coefficient 2^(20d)
        # needs all of them: one bit narrower digits read it as negative.
        d, one = 6, LaurentPoly.one()
        entries = [LaurentPoly.t_power(i - 2, -(2 ** 20)) for i in range(d)]
        m = LaurentMatrix(tuple(tuple(entries[i] if i == j else LaurentPoly.zero()
                                      for j in range(d)) for i in range(d)))
        expected = BivariatePoly.make([one])
        for e in entries:
            expected = expected * BivariatePoly.make([-e, one])
        poly = charpoly(m)
        assert poly == expected == cofactor_charpoly(m)
        assert poly.coefficient(0) == LaurentPoly.t_power(sum(range(-2, d - 2)), 2 ** (20 * d))

    def test_one_by_one(self):
        a = P({-3: -(2 ** 70), 4: 5})
        assert charpoly(LaurentMatrix(((a,),))) == BivariatePoly.make([-a, LaurentPoly.one()])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_zero_matrix(self, d):
        zero = LaurentPoly.zero()
        m = LaurentMatrix(tuple(tuple(zero for _ in range(d)) for _ in range(d)))
        assert charpoly(m) == BivariatePoly.make([zero] * d + [LaurentPoly.one()])
