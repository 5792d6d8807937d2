import math
import random

import pytest
from hypothesis import given, strategies as st

from burau.braid import BraidWord, compose
from burau.freegroup import (
    FreeAutomorphism,
    FreeWord,
    apply,
    artin_action,
    compose_autos,
    compose_autos_detailed,
    generator,
    growth_rate_estimate,
    identity_automorphism,
    matrix_norm,
    occurrence_matrix,
    reduce_word,
    substitute,
)
from conftest import random_braid, random_reduced_word
from fox_calculus import verify_braid_property


class TestReduce:
    def test_full_cancellation(self):
        assert reduce_word([1, -1], 3) == FreeWord(3, ())

    def test_already_reduced(self):
        assert reduce_word([1, 3, -1], 3) == FreeWord(3, (1, 3, -1))

    def test_inner_cancellation(self):
        assert reduce_word([2, -1, 1, 2], 2) == FreeWord(2, (2, 2))

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            reduce_word([4], 3)

    @given(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=40))
    def test_idempotent_and_nonincreasing(self, letters):
        once = reduce_word(letters, 3)
        assert reduce_word(once.letters, 3) == once
        assert len(once) <= len(letters)


class TestArtinAction:
    def test_example_1_images(self, ex1):
        auto = artin_action(ex1)
        assert auto.images == (
            FreeWord(3, (1, 3, -1)),
            FreeWord(3, (1,)),
            FreeWord(3, (-3, 2, 3)),
        )

    def test_example_2_images(self, ex2):
        auto = artin_action(ex2)
        assert auto.images == (
            FreeWord(4, (1, 4, -1)),
            FreeWord(4, (1,)),
            FreeWord(4, (-4, 2, 4)),
            FreeWord(4, (-4, 3, 4)),
        )

    def test_example_3_images(self, ex3):
        auto = artin_action(ex3)
        assert auto.images == (
            FreeWord(5, (1, 2, -1)),
            FreeWord(5, (1, 3, 4, -3, -1)),
            FreeWord(5, (1, 3, 5, -3, -1)),
            FreeWord(5, (1, 3, -1)),
            FreeWord(5, (1,)),
        )

    def test_generator_action(self):
        auto = artin_action(BraidWord(3, (1,)))
        assert auto.images == (
            FreeWord(3, (1, 2, -1)),
            FreeWord(3, (1,)),
            FreeWord(3, (3,)),
        )


class TestApply:
    def test_example_1_single_generator(self, ex1):
        auto = artin_action(ex1)
        assert apply(auto, generator(2, 3)) == FreeWord(3, (1,))

    def test_identity_automorphism(self):
        auto = identity_automorphism(4)
        w = FreeWord(4, (1, -2, 3))
        assert apply(auto, w) == w

    def test_product_word_cancels(self, ex1):
        # (x1 x2) maps to x1 x3 x1^-1 x1 = x1 x3
        auto = artin_action(ex1)
        image, cancelled = substitute(auto, FreeWord(3, (1, 2)))
        assert image == FreeWord(3, (1, 3))
        assert cancelled

    def test_rank_mismatch(self, ex1):
        with pytest.raises(ValueError):
            apply(artin_action(ex1), FreeWord(4, (1,)))


class TestCompose:
    def test_identity_neutral(self, ex1):
        auto = artin_action(ex1)
        assert compose_autos(auto, identity_automorphism(3)) == auto
        assert compose_autos(identity_automorphism(3), auto) == auto

    def test_matches_braid_composition(self):
        u = BraidWord(3, (1,))
        v = BraidWord(3, (-2,))
        assert compose_autos(artin_action(u), artin_action(v)) == \
            artin_action(compose(u, v))

    def test_square_occurrence_matrix(self, ex1):
        auto = artin_action(ex1)
        square = compose_autos(auto, auto)
        base = occurrence_matrix(auto)
        assert occurrence_matrix(square) == base * base


class TestOccurrence:
    def test_example_1(self, ex1):
        occ = occurrence_matrix(artin_action(ex1))
        assert occ.entries == ((2, 0, 1), (1, 0, 0), (0, 1, 2))

    def test_example_2(self, ex2):
        occ = occurrence_matrix(artin_action(ex2))
        assert occ.entries == ((2, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 2), (0, 0, 1, 2))

    def test_identity(self):
        occ = occurrence_matrix(identity_automorphism(3))
        assert occ.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_matrix_norm(self, ex1):
        assert matrix_norm(occurrence_matrix(artin_action(ex1))) == 3
        assert matrix_norm(occurrence_matrix(identity_automorphism(4))) == 1

    def test_row_sums_at_least_one(self):
        rng = random.Random(104)
        for _ in range(50):
            occ = occurrence_matrix(artin_action(random_braid(rng)))
            assert all(sum(row) >= 1 for row in occ.entries)


class TestGrowth:
    def test_example_1_certified(self, ex1):
        report = growth_rate_estimate(artin_action(ex1), 2)
        assert report.cancellation == (False, False)
        assert report.certified_no_cancellation
        assert abs(report.exact_growth_rate - (3 + math.sqrt(5)) / 2) < 1e-9

    def test_identity(self):
        report = growth_rate_estimate(identity_automorphism(3), 4)
        assert report.norms == (1, 1, 1, 1)
        assert report.exact_growth_rate == pytest.approx(1.0, abs=1e-12)

    def test_example_2_cancellation_flagged(self, ex2):
        report = growth_rate_estimate(artin_action(ex2), 4)
        assert any(report.cancellation)
        assert not report.certified_no_cancellation
        assert report.exact_growth_rate is None

    def test_example_1_power_identity(self, ex1):
        # no cancellation: the occurrence matrix of every power is the power
        auto = artin_action(ex1)
        base = occurrence_matrix(auto)
        current = auto
        for p in range(2, 6):
            current = compose_autos(current, auto)
            assert occurrence_matrix(current) == base.power(p)

    def test_budget_exhaustion(self, ex1):
        report = growth_rate_estimate(artin_action(ex1), 40, budget=500)
        assert report.budget_exceeded
        assert len(report.powers) < 40

    def test_norm_sequence_estimates(self, ex1):
        report = growth_rate_estimate(artin_action(ex1), 5)
        for p, norm, est in zip(report.powers, report.norms, report.estimates):
            assert est == pytest.approx(norm ** (1.0 / p))

    def test_invalid_power(self, ex1):
        with pytest.raises(ValueError):
            growth_rate_estimate(artin_action(ex1), 0)


class TestBraidProperty:
    def test_braid_actions_pass(self):
        rng = random.Random(105)
        for _ in range(50):
            assert verify_braid_property(artin_action(random_braid(rng)))

    def test_identity_passes(self):
        assert verify_braid_property(identity_automorphism(5))

    def test_non_conjugate_image_fails(self):
        auto = FreeAutomorphism(2, (FreeWord(2, (1, 2)), FreeWord(2, (2,))))
        assert not verify_braid_property(auto)

    def test_wrong_product_fails(self):
        # each image conjugates a generator but the product is x2 x1
        auto = FreeAutomorphism(2, (FreeWord(2, (2,)), FreeWord(2, (1,))))
        assert not verify_braid_property(auto)


def test_apply_respects_composition():
    rng = random.Random(106)
    for _ in range(60):
        n = rng.randint(2, 5)
        a = artin_action(BraidWord(n, tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))))
        b = artin_action(BraidWord(n, tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))))
        w = random_reduced_word(rng, n)
        assert apply(compose_autos(a, b), w) == apply(b, apply(a, w))


def test_norm_submultiplicative():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randint(2, 5)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                               for _ in range(rng.randint(0, 8))))
        auto = artin_action(w)
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        power = {1: auto}
        for k in range(2, 7):
            power[k] = compose_autos(power[k - 1], auto)
        norm = lambda k: matrix_norm(occurrence_matrix(power[k]))
        assert norm(p + q) <= norm(p) * norm(q)


def test_compose_detailed_reports_cancellation(ex2):
    auto = artin_action(ex2)
    _, cancelled = compose_autos_detailed(auto, auto)
    assert cancelled
