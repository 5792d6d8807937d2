import random

import pytest

from burau.braid import BraidWord, compose, parse_braid, permutation
from burau.foxburau import (
    alexander_polynomial,
    burau_matrix,
    reduce_full,
    reduced_burau,
)
from burau.freegroup import (
    FreeWord,
    artin_action,
    concat,
    occurrence_count,
    occurrence_matrix,
)
from burau.laurent import BivariatePoly, LaurentPoly, charpoly
from cofactor_det import bivariate_det
from conftest import random_braid, random_reduced_word
from fox_calculus import (
    GroupRingElement,
    abelianize,
    extend_linearly,
    fox_burau_matrix,
    fox_derivative,
    fox_derivative_recursive,
    monomial_count,
    verify_multiplicativity,
)


def ring(rank, mapping):
    return GroupRingElement.make(rank, mapping)


ONE_WORD = FreeWord(3, ())


class TestFoxDerivative:
    def test_generator_delta(self):
        d = fox_derivative(FreeWord(3, (2,)), 2)
        assert d == ring(3, {ONE_WORD: 1})
        assert fox_derivative(FreeWord(3, (2,)), 1).is_zero

    def test_inverse_generator(self):
        d = fox_derivative(FreeWord(3, (-2,)), 2)
        assert d == ring(3, {FreeWord(3, (-2,)): -1})

    def test_conjugate_image(self):
        # x1 x3 x1^-1 differentiates to 1 - x1 x3 x1^-1 with respect to x1
        w = FreeWord(3, (1, 3, -1))
        d = fox_derivative(w, 1)
        assert d == ring(3, {ONE_WORD: 1, w: -1})

    def test_repeated_generator(self):
        d = fox_derivative(FreeWord(3, (2, 2)), 2)
        assert d == ring(3, {ONE_WORD: 1, FreeWord(3, (2,)): 1})

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            fox_derivative(FreeWord(3, (1,)), 4)

    def test_closed_form_matches_axioms(self):
        rng = random.Random(109)
        for _ in range(100):
            rank = rng.randint(1, 4)
            w = random_reduced_word(rng, rank)
            j = rng.randint(1, rank)
            assert fox_derivative(w, j) == fox_derivative_recursive(w, j)

    def test_product_rule(self):
        rng = random.Random(110)
        for _ in range(100):
            rank = rng.randint(1, 4)
            w1 = random_reduced_word(rng, rank)
            w2 = random_reduced_word(rng, rank)
            j = rng.randint(1, rank)
            lhs = fox_derivative(concat(w1, w2), j)
            rhs = fox_derivative(w1, j) + \
                GroupRingElement.from_word(w1) * fox_derivative(w2, j)
            assert lhs == rhs

    def test_fundamental_identity(self):
        rng = random.Random(111)
        for _ in range(100):
            rank = rng.randint(1, 4)
            w = random_reduced_word(rng, rank)
            total = GroupRingElement.zero(rank)
            for j in range(1, rank + 1):
                xj = GroupRingElement.from_word(FreeWord(rank, (j,)))
                one = GroupRingElement.from_word(FreeWord(rank))
                total = total + fox_derivative(w, j) * (xj - one)
            expected = GroupRingElement.from_word(w) - \
                GroupRingElement.from_word(FreeWord(rank))
            assert total == expected


class TestLinearExtension:
    def test_additivity(self):
        rng = random.Random(112)
        for _ in range(50):
            rank = 3
            w1 = random_reduced_word(rng, rank)
            w2 = random_reduced_word(rng, rank)
            j = rng.randint(1, rank)
            op = lambda w: fox_derivative(w, j)
            g1 = GroupRingElement.from_word(w1)
            g2 = GroupRingElement.from_word(w2)
            assert extend_linearly(op, g1 + g2) == \
                extend_linearly(op, g1) + extend_linearly(op, g2)

    def test_doubling(self):
        w = FreeWord(2, (1, 2))
        g = GroupRingElement.from_word(w, 2)
        d = extend_linearly(lambda u: fox_derivative(u, 1), g)
        assert d == ring(2, {FreeWord(2, ()): 2})

    def test_zero(self):
        assert extend_linearly(lambda u: fox_derivative(u, 1),
                               GroupRingElement.zero(2)).is_zero


class TestAbelianize:
    def test_conjugate(self):
        w = FreeWord(3, (1, 3, -1))
        g = ring(3, {ONE_WORD: 1, w: -1})
        assert abelianize(g) == LaurentPoly.from_dict({0: 1, 1: -1})

    def test_zero(self):
        assert abelianize(GroupRingElement.zero(3)).is_zero

    def test_combining_words(self):
        g = ring(2, {FreeWord(2, (1, 2)): 1, FreeWord(2, (2, 1)): 1})
        assert abelianize(g) == LaurentPoly.from_dict({2: 2})


class TestMonomialCount:
    def test_conjugate(self):
        assert monomial_count(fox_derivative(FreeWord(3, (1, 3, -1)), 1)) == 2

    def test_zero(self):
        assert monomial_count(GroupRingElement.zero(3)) == 0

    def test_repeated(self):
        assert monomial_count(fox_derivative(FreeWord(3, (2, 2)), 2)) == 2

    def test_equals_occurrence_count(self):
        rng = random.Random(113)
        for _ in range(100):
            rank = rng.randint(1, 5)
            w = random_reduced_word(rng, rank)
            for j in range(1, rank + 1):
                assert monomial_count(fox_derivative(w, j)) == occurrence_count(w, j)


@pytest.fixture(scope="module")
def long_b5():
    """A seeded 1000-letter B5 word and its Burau matrix."""
    rng = random.Random(123)
    w = BraidWord(5, tuple(rng.choice((1, -1)) * rng.randint(1, 4)
                           for _ in range(1000)))
    return w, burau_matrix(w)


class TestBurauMatrix:
    def test_single_generator(self):
        b = burau_matrix(BraidWord(2, (1,)))
        one = LaurentPoly.one()
        t = LaurentPoly.t_power(1)
        assert b.matrix.rows == ((one - t, t), (one, LaurentPoly.zero()))
        assert b.exponent_sum == 1

    def test_identity_braid(self):
        b = burau_matrix(BraidWord(4, ()))
        from burau.laurent import LaurentMatrix

        assert b.matrix == LaurentMatrix.identity(4)
        assert b.exponent_sum == 0

    def test_matches_fox_jacobian(self):
        words = []
        for n in range(2, 8):
            words.append(BraidWord(n, ()))
            words.extend(BraidWord(n, (v,)) for i in range(1, n) for v in (i, -i))
        rng = random.Random(122)
        words.extend(random_braid(rng, max_strands=7, max_length=12)
                     for _ in range(300))
        for w in words:
            built = burau_matrix(w)
            oracle = fox_burau_matrix(artin_action(w))
            assert built.matrix.rows == oracle.matrix.rows
            assert built.exponent_sum == oracle.exponent_sum

    def test_row_sums_are_one(self, long_b5):
        rng = random.Random(114)
        one = LaurentPoly.one()
        for b in [burau_matrix(random_braid(rng)) for _ in range(50)] + [long_b5[1]]:
            for i in range(b.dim):
                total = LaurentPoly.zero()
                for j in range(b.dim):
                    total = total + b.matrix.entry(i, j)
                assert total == one

    def test_weighted_column_identity(self, long_b5):
        rng = random.Random(115)
        for b in [burau_matrix(random_braid(rng)) for _ in range(50)] + [long_b5[1]]:
            for j in range(b.dim):
                acc = LaurentPoly.zero()
                for k in range(b.dim):
                    acc = acc + LaurentPoly.t_power(k) * b.matrix.entry(k, j)
                assert acc == LaurentPoly.t_power(j)

    def test_at_one_is_permutation_matrix(self, long_b5):
        rng = random.Random(116)
        cases = [(w, burau_matrix(w)) for w in (random_braid(rng) for _ in range(50))]
        for w, b in cases + [long_b5]:
            perm = permutation(w)
            for i in range(b.dim):
                for j in range(b.dim):
                    expected = 1 if perm[i] == j + 1 else 0
                    assert b.matrix.entry(i, j).coefficient_sum() == expected

    def test_long_power_of_example_1(self, ex1):
        # The Artin images of (1 -2)^12 run to about 300k letters.
        base = burau_matrix(ex1).matrix
        power = base
        for _ in range(11):
            power = power * base
        assert burau_matrix(parse_braid(" ".join(["1 -2"] * 12), 3)).matrix == power


class TestMultiplicativity:
    def test_inverse_pair(self):
        assert verify_multiplicativity(BraidWord(3, (1,)), BraidWord(3, (-1,)))

    def test_example_pair(self):
        assert verify_multiplicativity(BraidWord(3, (1,)), BraidWord(3, (-2,)))

    def test_random_pairs(self):
        rng = random.Random(117)
        for _ in range(100):
            n = rng.randint(2, 6)
            u = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                   for _ in range(rng.randint(0, 10))))
            v = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                   for _ in range(rng.randint(0, 10))))
            assert verify_multiplicativity(u, v)

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            verify_multiplicativity(BraidWord(3, (1,)), BraidWord(4, (1,)))


class TestReducedBurau:
    def test_single_generator_b2(self):
        r = reduced_burau(BraidWord(2, (1,)))
        assert r.matrix.rows == ((LaurentPoly.t_power(1, -1),),)

    def test_identity(self):
        from burau.laurent import LaurentMatrix

        r = reduced_burau(BraidWord(5, ()))
        assert r.matrix == LaurentMatrix.identity(4)

    def test_example_1_charpoly(self, ex1):
        r = reduced_burau(ex1)
        one = LaurentPoly.one()
        c = LaurentPoly.from_dict({0: 1, 1: -1, -1: -1})
        assert charpoly(r.matrix) == BivariatePoly.make([one, -c, one])

    def test_factorization_of_full_charpoly(self):
        rng = random.Random(118)
        one = LaurentPoly.one()
        x_minus_1 = BivariatePoly.make([LaurentPoly.constant(-1), one])
        for _ in range(30):
            w = random_braid(rng, max_strands=5, max_length=8)
            full = charpoly(burau_matrix(w).matrix)
            reduced = charpoly(reduced_burau(w).matrix)
            assert full == x_minus_1 * reduced

    def test_reduced_multiplicative(self):
        rng = random.Random(119)
        for _ in range(30):
            n = rng.randint(2, 5)
            u = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                   for _ in range(rng.randint(0, 8))))
            v = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                   for _ in range(rng.randint(0, 8))))
            left = reduced_burau(compose(u, v)).matrix
            right = reduced_burau(u).matrix * reduced_burau(v).matrix
            assert left == right

    def test_from_built_full_matrix(self, ex2):
        full = burau_matrix(ex2)
        assert reduce_full(full) == reduced_burau(ex2)
        with pytest.raises(ValueError):
            reduce_full(reduce_full(full))


class TestAlexander:
    def test_identity_b2(self):
        poly = alexander_polynomial(BraidWord(2, ()))
        assert poly == BivariatePoly.make([LaurentPoly.one(),
                                           LaurentPoly.constant(-1)])

    def test_single_generator_b2(self):
        poly = alexander_polynomial(BraidWord(2, (1,)))
        assert poly == BivariatePoly.make([LaurentPoly.t_power(1, -1),
                                           LaurentPoly.constant(-1)])

    def test_example_1_matches_reduced_charpoly(self, ex1):
        # n - 1 = 2, so det(B^r - xI) = det(xI - B^r)
        assert alexander_polynomial(ex1) == charpoly(reduced_burau(ex1).matrix)

    def test_sign_convention(self):
        rng = random.Random(120)
        for _ in range(20):
            w = random_braid(rng, max_strands=5, max_length=6)
            poly = alexander_polynomial(w)
            m = reduced_burau(w).matrix
            reduced = charpoly(m)
            if (w.strands - 1) % 2 == 0:
                assert poly == reduced
            else:
                assert poly == BivariatePoly.make([-c for c in reduced.coeffs])
            minus_one = LaurentPoly.constant(-1)
            entries = [[BivariatePoly.make([m.entry(i, j), minus_one] if i == j
                                           else [m.entry(i, j)])
                        for j in range(m.dim)] for i in range(m.dim)]
            assert poly == bivariate_det(entries)


class TestOccurrenceBound:
    def test_entrywise_bound_on_unit_circle(self):
        import cmath

        rng = random.Random(121)
        for _ in range(50):
            w = random_braid(rng)
            b = burau_matrix(w)
            occ = occurrence_matrix(artin_action(w))
            theta = rng.uniform(0, 6.283185307)
            t = cmath.exp(1j * theta)
            for i in range(b.dim):
                for j in range(b.dim):
                    value = abs(b.matrix.entry(i, j).evaluate(t))
                    assert value <= occ.entries[i][j] + 1e-9


def test_group_ring_arithmetic():
    one = GroupRingElement.from_word(FreeWord(2, ()))
    x1 = GroupRingElement.from_word(FreeWord(2, (1,)))
    x1_inv = GroupRingElement.from_word(FreeWord(2, (-1,)))
    assert x1 * x1_inv == one
    assert (x1 + one) - x1 == one
    assert (x1 + x1) == GroupRingElement.make(2, {FreeWord(2, (1,)): 2})
    assert monomial_count(x1 - one) == 2
