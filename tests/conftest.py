"""Shared fixtures: the three worked braids, random generators, oracles."""

import random

import pytest

from burau.braid import BraidWord, parse_braid
from burau.freegroup import FreeWord, reduce_word


@pytest.fixture
def ex1() -> BraidWord:
    """s1 s2^-1 in B_3 (growth rate (3+sqrt5)/2, equality case)."""
    return parse_braid("1 -2", 3)


@pytest.fixture
def ex2() -> BraidWord:
    """s1 s2^-1 s3^-1 in B_4 (cancellation case, strict gap)."""
    return parse_braid("1 -2 -3", 4)


@pytest.fixture
def ex3() -> BraidWord:
    """s4 s3 s2 s1 s4 s3 in B_5 (odd puncture count, equality case)."""
    return parse_braid("4 3 2 1 4 3", 5)


def random_braid(rng: random.Random, max_strands: int = 6,
                 max_length: int = 10) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_length)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(length))
    return BraidWord(n, letters)


def random_reduced_word(rng: random.Random, rank: int,
                        max_length: int = 12) -> FreeWord:
    length = rng.randint(0, max_length)
    letters = [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(length)]
    return reduce_word(letters, rank)


def bisect_largest_root(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Bisection oracle: the root of f in (lo, hi), assuming f(lo) < 0 < f(hi)."""
    assert f(lo) < 0 < f(hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def ladder(n: int) -> str:
    """L(n) = 1 -2 3 -4 ... +-(n-1)."""
    return " ".join(str(k if k % 2 else -k) for k in range(1, n))


def alternating(n: int) -> str:
    """A(n): the ladder followed by its generator-wise negation."""
    first = [k if k % 2 else -k for k in range(1, n)]
    return " ".join(str(v) for v in first + [-v for v in first])


def power(word: str, k: int) -> str:
    return " ".join([word] * k)
