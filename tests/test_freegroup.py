import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import freegroup_oracle as oracle
from burau.braid import BraidWord, compose, parse_braid
from burau.freegroup import (
    FreeAutomorphism,
    FreeWord,
    apply,
    artin_action,
    compose_autos,
    compose_autos_detailed,
    concat,
    generator,
    growth_rate_estimate,
    identity_automorphism,
    inverse_word,
    letter_dtype,
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


def _images(auto) -> list:
    return [img.letters for img in auto.images]


class TestAgainstOracle:
    """The array layer against the pure-Python loop in ``freegroup_oracle``."""

    def test_growth_reports_match_on_random_braids(self):
        rng = random.Random(601)
        for _ in range(40):
            n = rng.randint(2, 6)
            w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                   for _ in range(rng.randint(0, 6))))
            auto = artin_action(w)
            assert _images(auto) == oracle.artin_images(n, w.letters)
            p_max = rng.randint(1, 6)
            assert growth_rate_estimate(auto, p_max) == \
                oracle.growth_report(_images(auto), p_max)

    def test_example_2_flags(self, ex2):
        auto = artin_action(ex2)
        report = growth_rate_estimate(auto, 6)
        assert report == oracle.growth_report(_images(auto), 6)
        assert report.cancellation[1:] == (True,) * 5
        assert not report.certified_no_cancellation

    @pytest.mark.parametrize("word, n", [("1 -2", 3), ("1 -2 -3", 4)])
    def test_budget_at_the_stopping_product(self, word, n):
        auto = artin_action(parse_braid(word, n))
        images = _images(auto)
        longest = max(len(img) for img in images)
        fourth = images
        for _ in range(3):
            fourth, _ = oracle.compose(fourth, images)
        product = sum(len(img) for img in fourth) * longest
        # The product is the budget test before the fifth power.
        for budget, powers in ((product, 5), (product - 1, 4)):
            report = growth_rate_estimate(auto, 5, budget=budget)
            assert report == oracle.growth_report(images, 5, budget=budget)
            assert len(report.powers) == powers
            assert report.budget_exceeded == (powers < 5)

    def test_substitute_random_endomorphisms(self):
        # Images need not be braid images: short random words over few
        # generators, some empty, cancel in cascades across many blocks.
        rng = random.Random(602)
        for _ in range(200):
            rank = rng.randint(1, 3)
            auto = FreeAutomorphism(rank, tuple(
                random_reduced_word(rng, rank, max_length=5) for _ in range(rank)))
            w = random_reduced_word(rng, rank, max_length=rng.choice((8, 300)))
            got, cancelled = substitute(auto, w)
            want, want_cancelled = oracle.substitute(_images(auto), w.letters)
            assert (got.letters, cancelled) == (want, want_cancelled)

    def test_long_cancellation_at_one_seam(self):
        # 9,000 letters cancel at one seam, past the widest comparison
        # window; long blocks are copied as slices, among few or many.
        rng = random.Random(603)
        long = reduce_word([rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(20000)], 3)
        assert len(long) > 9000
        tail = FreeWord(3, (2, 3))
        auto = FreeAutomorphism(3, (long, concat(inverse_word(long), tail), long))
        many = random_reduced_word(rng, 3, max_length=80).letters
        for letters in ((1, 2), (1, 2, 3, -2, 1), (-2, -1, 3), many):
            w = FreeWord(3, letters)
            got, cancelled = substitute(auto, w)
            assert (got.letters, cancelled) == oracle.substitute(_images(auto), letters)

    def test_reduce_word_matches_stack(self):
        rng = random.Random(604)
        for _ in range(200):
            half = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(0, 30))]
            letters = half + [-v for v in reversed(half[:rng.randint(0, len(half))])]
            if rng.random() < 0.3:
                rng.shuffle(letters)
            want, _ = oracle.substitute([(1,), (2,), (3,)], letters)
            assert reduce_word(letters, 3).letters == want


class TestWideRank:
    """Letters above 127 need a wider dtype than int8."""

    WORD = BraidWord(130, (1, -2, 128, 129, -129, 127, -128, 3, 129))

    def test_letter_dtype(self):
        assert letter_dtype(127) == np.int8
        assert letter_dtype(128) == np.int16
        assert FreeWord(130, (130, -129)).letters == (130, -129)

    def test_artin_action_and_apply(self):
        auto = artin_action(self.WORD)
        assert _images(auto) == oracle.artin_images(130, self.WORD.letters)
        rng = random.Random(605)
        for _ in range(20):
            w = random_reduced_word(rng, 130, max_length=20)
            assert apply(auto, w).letters == \
                oracle.substitute(_images(auto), w.letters)[0]

    def test_growth(self):
        auto = artin_action(self.WORD)
        assert growth_rate_estimate(auto, 5) == oracle.growth_report(_images(auto), 5)


class TestFreeWordValues:
    def test_equality_hash_and_letters(self):
        w = FreeWord(3, (1, -2, 3))
        assert w == reduce_word([1, -2, 2, -2, 3], 3)
        assert hash(w) == hash(FreeWord(3, [1, -2, 3]))
        assert w != FreeWord(4, (1, -2, 3))
        assert w.letters == (1, -2, 3)
        assert all(type(v) is int for v in w.letters)
        assert {w: 1}[FreeWord(3, (1, -2, 3))] == 1

    def test_immutable(self):
        w = FreeWord(3, (1, 2))
        with pytest.raises(AttributeError):
            w.rank = 4
        with pytest.raises(ValueError):
            w.array[0] = 2

    def test_copy_and_pickle(self):
        w = FreeWord(3, (1, -2, 3))
        auto = artin_action(parse_braid("1 -2", 3))
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            u = clone(w)
            assert u == w and hash(u) == hash(w)
            assert not u.array.flags.writeable
            with pytest.raises(AttributeError):
                u.rank = 4
            assert clone(auto) == auto

    def test_validation(self):
        for letters in ((0,), (1, 4), (-4,)):
            with pytest.raises(ValueError, match="out of range"):
                FreeWord(3, letters)
        with pytest.raises(ValueError, match="not reduced"):
            FreeWord(3, (1, 2, -2))
        with pytest.raises(ValueError):
            FreeWord(0, ())
