"""Reduced words in a free group, braid words acting as automorphisms,
occurrence matrices, and growth-rate estimation by iterated composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braid import BraidWord

DEFAULT_LETTER_BUDGET = 10_000_000


@dataclass(frozen=True)
class FreeWord:
    """A reduced word in the free group of the given rank.

    Letters are signed generator indices: v stands for x_v when v > 0 and
    for the inverse of x_{-v} when v < 0.  No adjacent letter cancels its
    neighbour.
    """

    rank: int
    letters: tuple = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("free group rank must be at least 1")
        prev = 0
        for v in self.letters:
            if v == 0 or abs(v) > self.rank:
                raise ValueError(f"letter {v} out of range for rank {self.rank}")
            if v == -prev:
                raise ValueError("word is not reduced")
            prev = v

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def exponent_sum(self) -> int:
        return sum(1 if v > 0 else -1 for v in self.letters)

    def render(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"x{v}" if v > 0 else f"x{-v}^-1" for v in self.letters)


def reduce_word(letters, rank: int) -> FreeWord:
    """Freely reduce a raw letter sequence; idempotent."""
    out: list = []
    for v in letters:
        if v == 0 or abs(v) > rank:
            raise ValueError(f"letter {v} out of range for rank {rank}")
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return FreeWord(rank, tuple(out))


def generator(i: int, rank: int) -> FreeWord:
    return FreeWord(rank, (i,))


def inverse_word(w: FreeWord) -> FreeWord:
    return FreeWord(w.rank, tuple(-v for v in reversed(w.letters)))


def concat(a: FreeWord, b: FreeWord) -> FreeWord:
    """Group product of two reduced words (reduces at the seam)."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    return reduce_word(a.letters + b.letters, a.rank)


def occurrence_count(w: FreeWord, j: int) -> int:
    """Number of letters x_j or x_j^-1 in w."""
    return sum(1 for v in w.letters if abs(v) == j)


@dataclass(frozen=True)
class FreeAutomorphism:
    """An automorphism of the free group given by the images of generators."""

    rank: int
    images: tuple

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")
        for img in self.images:
            if img.rank != self.rank:
                raise ValueError("image rank mismatch")

    def image(self, i: int) -> FreeWord:
        """Image of the i-th generator (1-based)."""
        return self.images[i - 1]


def identity_automorphism(rank: int) -> FreeAutomorphism:
    return FreeAutomorphism(rank, tuple(generator(i, rank) for i in range(1, rank + 1)))


def _generator_action(k: int, rank: int) -> FreeAutomorphism:
    """Automorphism of the braid generator s_k (or its inverse for k < 0)."""
    images = []
    i = abs(k)
    for g in range(1, rank + 1):
        if k > 0:
            if g == i:
                images.append(FreeWord(rank, (i, i + 1, -i)))
            elif g == i + 1:
                images.append(generator(i, rank))
            else:
                images.append(generator(g, rank))
        else:
            if g == i:
                images.append(generator(i + 1, rank))
            elif g == i + 1:
                images.append(FreeWord(rank, (-(i + 1), i, i + 1)))
            else:
                images.append(generator(g, rank))
    return FreeAutomorphism(rank, tuple(images))


def substitute(a: FreeAutomorphism, w: FreeWord):
    """Replace each letter of w by the matching image (or its inverse), then
    reduce.  Returns (result, cancelled) where cancelled reports whether any
    letter cancelled during reduction."""
    if a.rank != w.rank:
        raise ValueError("rank mismatch")
    out: list = []
    raw_length = 0
    for v in w.letters:
        img = a.images[abs(v) - 1].letters
        seq = img if v > 0 else tuple(-u for u in reversed(img))
        raw_length += len(seq)
        for u in seq:
            if out and out[-1] == -u:
                out.pop()
            else:
                out.append(u)
    return FreeWord(a.rank, tuple(out)), len(out) != raw_length


def apply(a: FreeAutomorphism, w: FreeWord) -> FreeWord:
    """Image of w under the automorphism."""
    return substitute(a, w)[0]


def compose_autos_detailed(a: FreeAutomorphism, b: FreeAutomorphism):
    """Compose (a first, then b); also report whether any image cancelled."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    images = []
    cancelled = False
    for img in a.images:
        new, c = substitute(b, img)
        cancelled = cancelled or c
        images.append(new)
    return FreeAutomorphism(a.rank, tuple(images)), cancelled


def compose_autos(a: FreeAutomorphism, b: FreeAutomorphism) -> FreeAutomorphism:
    """Composite automorphism applying a first, then b."""
    return compose_autos_detailed(a, b)[0]


def artin_action(w: BraidWord) -> FreeAutomorphism:
    """The free-group automorphism induced by a braid word (letters act first
    to last; all intermediate images are reduced)."""
    auto = identity_automorphism(w.strands)
    for v in w.letters:
        auto = compose_autos(auto, _generator_action(v, w.strands))
    return auto


@dataclass(frozen=True)
class OccurrenceMatrix:
    """Nonnegative integer matrix counting generator occurrences in images."""

    entries: tuple

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __mul__(self, other: "OccurrenceMatrix") -> "OccurrenceMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        rows = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(n))
                  for j in range(n))
            for i in range(n))
        return OccurrenceMatrix(rows)

    def power(self, p: int) -> "OccurrenceMatrix":
        if p < 1:
            raise ValueError("power must be positive")
        result = self
        for _ in range(p - 1):
            result = result * self
        return result


def occurrence_matrix(a: FreeAutomorphism) -> OccurrenceMatrix:
    """Entry (i, j) counts letters x_j^(+-1) in the reduced image of x_i."""
    rows = tuple(
        tuple(occurrence_count(img, j) for j in range(1, a.rank + 1))
        for img in a.images)
    return OccurrenceMatrix(rows)


def matrix_norm(m: OccurrenceMatrix) -> int:
    """Maximum row sum."""
    if m.dim == 0:
        return 0
    return max(sum(row) for row in m.entries)


@dataclass(frozen=True)
class GrowthReport:
    """Norm sequence of iterated occurrence matrices plus certification data.

    ``estimates[k]`` is norms[k] ** (1 / powers[k]).  The exact growth rate is
    reported only when the no-cancellation regime is witnessed through the
    second power (per-step flags clean and the occurrence matrix of the square
    equals the matrix square); otherwise only the finite sequence is claimed.
    """

    powers: tuple
    norms: tuple
    estimates: tuple
    cancellation: tuple
    budget_exceeded: bool
    certified_no_cancellation: bool
    exact_growth_rate: float | None


def growth_rate_estimate(a: FreeAutomorphism, p_max: int,
                         budget: int = DEFAULT_LETTER_BUDGET) -> GrowthReport:
    """Norms of occurrence matrices of a, a^2, ..., a^p_max.

    Iterates by composing generator images (with reduction) rather than
    tracking orbit words.  Iteration stops early, with the partial sequence
    flagged, when the total image length would exceed ``budget`` letters.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    base = occurrence_matrix(a)
    powers = [1]
    norms = [matrix_norm(base)]
    flags = [False]
    budget_exceeded = False

    max_image = max((len(img) for img in a.images), default=1)
    current = a
    witness_square_ok = False
    for p in range(2, p_max + 1):
        total = sum(len(img) for img in current.images)
        if total * max(1, max_image) > budget:
            budget_exceeded = True
            break
        current, cancelled = compose_autos_detailed(current, a)
        powers.append(p)
        flags.append(cancelled)
        norms.append(matrix_norm(occurrence_matrix(current)))
        if p == 2:
            witness_square_ok = occurrence_matrix(current) == base * base

    certified = (
        len(powers) >= 2
        and not any(flags[:2])
        and witness_square_ok
    )
    exact = None
    if certified:
        exact = _integer_spectral_radius(base)

    estimates = tuple(n ** (1.0 / p) for p, n in zip(powers, norms))
    return GrowthReport(
        powers=tuple(powers),
        norms=tuple(norms),
        estimates=estimates,
        cancellation=tuple(flags),
        budget_exceeded=budget_exceeded,
        certified_no_cancellation=certified,
        exact_growth_rate=exact,
    )


def _integer_spectral_radius(m: OccurrenceMatrix) -> float:
    if m.dim == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(np.array(m.entries, dtype=float))).max())
