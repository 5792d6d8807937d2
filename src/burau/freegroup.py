"""Reduced words in a free group, braid words acting as automorphisms,
occurrence matrices, and growth-rate estimation by iterated composition.

Words are integer letter arrays.  A product of reduced words can only cancel
at the seams between them, so every product here (substitution,
composition, concatenation, the Artin action) is one seam reduction,
``_reduce_blocks``, which compares each block's tail with the negated,
reversed head of the next in vectorized passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braid import BraidWord

DEFAULT_LETTER_BUDGET = 10_000_000

# Letters per window when counting occurrences, so the temporaries of a long
# word stay a few megabytes.
_WINDOW = 1 << 20
# Padding around concatenated blocks, and the widest window of letters that
# one comparison at a seam reads.
_PAD = 4096


def letter_dtype(rank: int) -> np.dtype:
    """The smallest signed integer type that holds the letters -rank..rank."""
    return np.min_scalar_type(-rank - 1)


def _letter_array(letters, rank: int) -> np.ndarray:
    """Letters as an array of ``letter_dtype(rank)``, each checked to be a
    nonzero index of absolute value at most rank."""
    raw = np.asarray(letters, dtype=np.int64)
    if raw.ndim != 1:
        raise ValueError("letters must form a flat sequence")
    if raw.size:
        size = np.abs(raw)
        if size.min() < 1 or size.max() > rank:
            bad = raw[(size < 1) | (size > rank)][0]
            raise ValueError(f"letter {bad} out of range for rank {rank}")
    return raw.astype(letter_dtype(rank))


class FreeWord:
    """A reduced word in the free group of the given rank.

    Letters are signed generator indices: v stands for x_v when v > 0 and
    for the inverse of x_{-v} when v < 0.  No adjacent letter cancels its
    neighbour.  ``array`` holds them as a read-only array of
    ``letter_dtype(rank)``; ``letters`` is the same sequence as a tuple of
    ints.  Words are immutable; two are equal, and hash alike, when their
    ranks and letters are.
    """

    __slots__ = ("rank", "array")

    def __init__(self, rank: int, letters=()) -> None:
        if rank < 1:
            raise ValueError("free group rank must be at least 1")
        array = _letter_array(letters, rank)
        if np.any(array[1:] + array[:-1] == 0):
            raise ValueError("word is not reduced")
        self._init(rank, array)

    @classmethod
    def _reduced(cls, rank: int, array: np.ndarray) -> "FreeWord":
        """Wrap an array already known to be a reduced word of this rank."""
        word = object.__new__(cls)
        word._init(rank, array)
        return word

    def _init(self, rank: int, array: np.ndarray) -> None:
        array.flags.writeable = False
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "array", array)

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    def __reduce__(self):
        return FreeWord._reduced, (self.rank, self.array)

    @property
    def letters(self) -> tuple:
        return tuple(self.array.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self.rank == other.rank and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.rank, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"FreeWord(rank={self.rank}, letters={self.letters!r})"

    def __len__(self) -> int:
        return len(self.array)

    @property
    def exponent_sum(self) -> int:
        return 2 * int(np.count_nonzero(self.array > 0)) - len(self.array)

    def render(self) -> str:
        if not len(self.array):
            return "1"
        return " ".join(f"x{v}" if v > 0 else f"x{-v}^-1" for v in self.array.tolist())


def _seam_cancellation(src: np.ndarray, ends: np.ndarray, starts: np.ndarray,
                       limit: np.ndarray) -> np.ndarray:
    """Cancellation length at each seam: the largest c <= limit with
    src[ends - 1 - d] == -src[starts + d] for every d < c, where every limit
    is at least 1 and src has ``_PAD`` letters of padding beyond either end
    of every block.  Seams still matching are compared again in windows of
    doubling width, at most ``_PAD``, gathered as rows of a sliding-window
    view, so the work is about the number of seams plus twice the letters
    that cancel.  Two letters cancel when their sum is 0 (the sum of two
    letters cannot wrap round to 0 in their dtype); matches past a seam's
    limit are cut off by the limit."""
    cut = (src[ends - 1] + src[starts] == 0).astype(np.int64)
    active = (cut & (limit > 1)).nonzero()[0]
    # Per active seam: one past the next tail letter, the next head letter,
    # and how many letters it may still cancel.
    left = ends[active] - 1
    right = starts[active] + 1
    room = limit[active] - 1
    width = 1
    while active.size:
        width = min(2 * width, _PAD)
        rows = np.lib.stride_tricks.as_strided(
            src, (len(src) - width + 1, width), 2 * src.strides, writeable=False)
        match = rows[left - width, ::-1] + rows[right] == 0
        first = match.argmin(axis=1)
        whole = match[np.arange(len(first)), first]
        cut[active] += np.minimum(np.where(whole, width, first), room)
        going = whole & (room > width)
        active, room = active[going], room[going] - width
        left, right = left[going] - width, right[going] + width
    return cut


def _gather(src: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The blocks src[lo[b]:hi[b]] concatenated."""
    return np.concatenate([src[i:j] for i, j in zip(lo.tolist(), hi.tolist())]
                          + [src[:0]])


def _reduce_blocks(src: np.ndarray, lo, hi) -> np.ndarray:
    """Freely reduce the product of the blocks src[lo[b]:hi[b]], each of them
    a reduced word.

    Letters cancel only across seams.  Each pass finds the cancellation
    length of every seam at once and trims both sides of it; a block trimmed
    away brings its neighbours together for the next pass.  A block that
    would lose more letters to its two seams than it has links them; along
    each chain of linked seams every other one cancels in full and the rest
    only as far as their blocks have letters left, the remainder waiting for
    the next pass.  So every pass is a valid sequence of free cancellations,
    and free reduction is confluent, so the result is the reduced word."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    kept = np.flatnonzero(hi > lo)
    lo, hi = lo[kept], hi[kept]
    seams = np.arange(len(lo) - 1)
    while seams.size:
        length = hi - lo
        found = np.zeros(len(lo) - 1, dtype=np.int64)
        found[seams] = _seam_cancellation(
            src, hi[seams], lo[seams + 1],
            np.minimum(length[seams], length[seams + 1]))
        if not found.any():
            break
        seam = np.arange(len(found))
        linked = np.concatenate(([False], found[:-1] + found[1:] > length[1:-1]))
        chain_start = np.maximum.accumulate(np.where(linked, 0, seam))
        full = np.where((seam - chain_start) % 2 == 0, found, 0)
        # What each seam's blocks keep once the neighbouring seams that
        # cancel in full have; a seam cancelling in full always fits.
        room = np.minimum(length[:-1] - np.concatenate(([0], full[:-1])),
                          length[1:] - np.concatenate((full[1:], [0])))
        cut = np.minimum(found, room)
        hi[:-1] -= cut
        lo[1:] += cut
        kept = np.flatnonzero(hi > lo)
        lo, hi = lo[kept], hi[kept]
        # A seam trimmed in full now mismatches; only one cut short or with
        # a new neighbour across a vanished block can cancel further.
        seams = np.flatnonzero((np.diff(kept) > 1) | (cut < found)[kept[:-1]])
    return _gather(src, lo, hi)


def _concatenated(arrays, dtype: np.dtype) -> tuple:
    """Letter arrays laid end to end with ``_PAD`` letters of padding at
    either end, and the start and length of each."""
    lengths = np.array([len(x) for x in arrays], dtype=np.int64)
    starts = _PAD + np.cumsum(lengths) - lengths
    pad = np.zeros(_PAD, dtype=dtype)
    return np.concatenate([pad, *arrays, pad]), starts, lengths


def _product(*arrays: np.ndarray) -> np.ndarray:
    """Reduced product of reduced letter arrays."""
    src, starts, lengths = _concatenated(arrays, arrays[0].dtype)
    return _reduce_blocks(src, starts, starts + lengths)


def reduce_word(letters, rank: int) -> FreeWord:
    """Freely reduce a raw letter sequence; idempotent."""
    array = _letter_array(letters, rank)
    src, _, _ = _concatenated([array], array.dtype)
    # The blocks are the maximal reduced runs.
    bounds = _PAD + np.concatenate(
        ([0], np.flatnonzero(array[1:] + array[:-1] == 0) + 1, [len(array)]))
    return FreeWord._reduced(rank, _reduce_blocks(src, bounds[:-1], bounds[1:]))


def generator(i: int, rank: int) -> FreeWord:
    return FreeWord(rank, (i,))


def inverse_word(w: FreeWord) -> FreeWord:
    return FreeWord._reduced(w.rank, -w.array[::-1])


def concat(a: FreeWord, b: FreeWord) -> FreeWord:
    """Group product of two reduced words (reduces at the seam)."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    return FreeWord._reduced(a.rank, _product(a.array, b.array))


def occurrence_count(w: FreeWord, j: int) -> int:
    """Number of letters x_j or x_j^-1 in w."""
    return int(np.count_nonzero(np.abs(w.array) == j))


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


def identity_automorphism(rank: int) -> FreeAutomorphism:
    return FreeAutomorphism(rank, tuple(generator(i, rank) for i in range(1, rank + 1)))


def _image_table(a: FreeAutomorphism) -> tuple:
    """``_concatenated`` images of a and then their inverses: entry g - 1 is
    the image of x_g and entry rank + g - 1 its inverse."""
    arrays = [img.array for img in a.images]
    return _concatenated(arrays + [-x[::-1] for x in arrays], letter_dtype(a.rank))


def _substitute(table, w: FreeWord):
    """Reduced image of w under the automorphism whose ``_image_table`` is
    given: each letter's block is gathered from the table, then reduced at
    the seams.  Also reports whether any letter cancelled."""
    src, starts, lengths = table
    letters = w.array.astype(np.int64)
    entry = np.abs(letters) - 1 + np.where(letters < 0, w.rank, 0)
    lo = starts[entry]
    hi = lo + lengths[entry]
    out = _reduce_blocks(src, lo, hi)
    return FreeWord._reduced(w.rank, out), len(out) != int((hi - lo).sum())


def substitute(a: FreeAutomorphism, w: FreeWord):
    """Replace each letter of w by the matching image (or its inverse), then
    reduce.  Returns (result, cancelled) where cancelled reports whether any
    letter cancelled during reduction."""
    if a.rank != w.rank:
        raise ValueError("rank mismatch")
    return _substitute(_image_table(a), w)


def apply(a: FreeAutomorphism, w: FreeWord) -> FreeWord:
    """Image of w under the automorphism."""
    return substitute(a, w)[0]


def compose_autos_detailed(a: FreeAutomorphism, b: FreeAutomorphism):
    """Compose (a first, then b); also report whether any image cancelled."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    table = _image_table(b)
    images = []
    cancelled = False
    for img in a.images:
        new, c = _substitute(table, img)
        cancelled = cancelled or c
        images.append(new)
    return FreeAutomorphism(a.rank, tuple(images)), cancelled


def compose_autos(a: FreeAutomorphism, b: FreeAutomorphism) -> FreeAutomorphism:
    """Composite automorphism applying a first, then b."""
    return compose_autos_detailed(a, b)[0]


def artin_action(w: BraidWord) -> FreeAutomorphism:
    """The free-group automorphism induced by a braid word, letters acting
    first to last: the image of x_i is s_m(...s_1(x_i)...) for the word
    s_1 ... s_m, where s_k sends x_k to x_k x_{k+1} x_k^-1 and x_{k+1} to
    x_k, and s_k^-1 sends x_k to x_{k+1} and x_{k+1} to
    x_{k+1}^-1 x_k x_{k+1}.

    The images are built from the last letter back: if psi holds the images
    of s_m ... s_{j+1}, those of s_m ... s_j are psi applied to the images
    of s_j, which touch only x_k and x_{k+1}.  Each letter is then one
    three-block seam reduction of images already reduced."""
    rank = w.strands
    images = list(np.arange(1, rank + 1, dtype=letter_dtype(rank)).reshape(rank, 1))
    for v in reversed(w.letters):
        k = abs(v) - 1
        left, right = images[k], images[k + 1]
        if v > 0:
            images[k], images[k + 1] = _product(left, right, -left[::-1]), left
        else:
            images[k], images[k + 1] = right, _product(-right[::-1], left, right)
    return FreeAutomorphism(rank, tuple(FreeWord._reduced(rank, x) for x in images))


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


def _occurrence_rows(a: FreeAutomorphism) -> np.ndarray:
    """Row i counts the letters x_j^(+-1) of the image of x_i, by ``bincount``
    over windows of the image."""
    rows = np.zeros((a.rank, a.rank + 1), dtype=np.int64)
    for row, img in zip(rows, a.images):
        for start in range(0, len(img), _WINDOW):
            row += np.bincount(np.abs(img.array[start:start + _WINDOW]),
                               minlength=a.rank + 1)
    return rows[:, 1:]


def occurrence_matrix(a: FreeAutomorphism) -> OccurrenceMatrix:
    """Entry (i, j) counts letters x_j^(+-1) in the reduced image of x_i."""
    return OccurrenceMatrix(tuple(map(tuple, _occurrence_rows(a).tolist())))


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

    Iterates in seam order: a^p is ``compose_autos(a, a^(p-1))``, the short
    images of a with every letter replaced by the long, reduced image of
    a^(p-1) (powers of a commute), so letters cancel only at the few seams
    between those blocks.  The norm of a^p is its longest image.

    ``cancellation[p - 1]`` keeps the meaning of the other order: whether
    substituting the images of a into those of a^(p-1) cancels any letter.
    That substitution has sum_j occ_j(a^(p-1)(x_i)) * |a(x_j)| letters
    before reduction, so the flag is set when some image of a^p is shorter
    than that.  Iteration stops early, with the partial sequence flagged,
    when (total letters of a^(p-1)) * (longest image of a) would exceed
    ``budget``.
    """
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    base = rows = _occurrence_rows(a)
    image_lengths = base.sum(axis=1)
    powers = [1]
    norms = [int(image_lengths.max(initial=0))]
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
        current = compose_autos(a, current)
        lengths = np.array([len(img) for img in current.images], dtype=np.int64)
        powers.append(p)
        flags.append(bool(np.any(lengths != rows @ image_lengths)))
        rows = _occurrence_rows(current)
        norms.append(int(lengths.max(initial=0)))
        if p == 2:
            witness_square_ok = np.array_equal(rows, base @ base)

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


def _integer_spectral_radius(m: np.ndarray) -> float:
    if not m.size:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m.astype(float))).max())
