"""Fox free differential calculus over the integral group ring of a free
group, the abelianization onto Laurent polynomials, and the Burau matrices
(full and reduced) of braid words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, exponent_sum
from .freegroup import (
    FreeAutomorphism,
    FreeWord,
    artin_action,
    concat,
    verify_braid_property,
)
from .laurent import (
    INT,
    BivariatePoly,
    LaurentMatrix,
    LaurentPoly,
    MAX_CHARPOLY_DIM,
    bivariate_det,
)

FULL = "full"
REDUCED = "reduced"


@dataclass(frozen=True)
class GroupRingElement:
    """Formal integer combination of reduced words, canonically ordered."""

    rank: int
    terms: tuple = ()

    def __post_init__(self) -> None:
        last = None
        for word, coeff in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient stored in GroupRingElement")
            if word.rank != self.rank:
                raise ValueError("word rank mismatch")
            key = (len(word.letters), word.letters)
            if last is not None and key <= last:
                raise ValueError("terms are not in canonical order")
            last = key

    @staticmethod
    def make(rank: int, coeffs: dict) -> "GroupRingElement":
        items = [(w, c) for w, c in coeffs.items() if c != 0]
        items.sort(key=lambda item: (len(item[0].letters), item[0].letters))
        return GroupRingElement(rank, tuple(items))

    @staticmethod
    def zero(rank: int) -> "GroupRingElement":
        return GroupRingElement(rank)

    @staticmethod
    def from_word(w: FreeWord, coeff: int = 1) -> "GroupRingElement":
        return GroupRingElement.make(w.rank, {w: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: FreeWord) -> int:
        for word, coeff in self.terms:
            if word == w:
                return coeff
        return 0

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        acc = {w: c for w, c in self.terms}
        for w, c in other.terms:
            acc[w] = acc.get(w, 0) + c
        return GroupRingElement.make(self.rank, acc)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.rank, tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        acc: dict = {}
        for u, cu in self.terms:
            for v, cv in other.terms:
                w = concat(u, v)
                acc[w] = acc.get(w, 0) + cu * cv
        return GroupRingElement.make(self.rank, acc)


def fox_derivative(w: FreeWord, j: int) -> GroupRingElement:
    """Free derivative of a reduced word with respect to x_j.

    Single left-to-right scan: a positive letter x_j at position k contributes
    the prefix before it with coefficient +1; a negative letter contributes the
    prefix including it with coefficient -1.
    """
    if not 1 <= j <= w.rank:
        raise ValueError(f"generator index {j} out of range for rank {w.rank}")
    acc: dict = {}
    for k, v in enumerate(w.letters):
        if abs(v) != j:
            continue
        if v > 0:
            prefix = FreeWord(w.rank, w.letters[:k])
            acc[prefix] = acc.get(prefix, 0) + 1
        else:
            prefix = FreeWord(w.rank, w.letters[: k + 1])
            acc[prefix] = acc.get(prefix, 0) - 1
    return GroupRingElement.make(w.rank, acc)


def fox_derivative_recursive(w: FreeWord, j: int) -> GroupRingElement:
    """Same derivative built from the defining axioms (product rule on single
    letters); kept as an independent oracle for the closed-form scan."""
    if not 1 <= j <= w.rank:
        raise ValueError(f"generator index {j} out of range for rank {w.rank}")
    result = GroupRingElement.zero(w.rank)
    left = GroupRingElement.from_word(FreeWord(w.rank))
    for v in w.letters:
        if abs(v) == j:
            if v > 0:
                letter_derivative = GroupRingElement.from_word(FreeWord(w.rank))
            else:
                letter_derivative = GroupRingElement.from_word(FreeWord(w.rank, (v,)), -1)
            result = result + left * letter_derivative
        left = left * GroupRingElement.from_word(FreeWord(w.rank, (v,)))
    return result


def extend_linearly(op, g: GroupRingElement) -> GroupRingElement:
    """Additive extension of a map FreeWord -> GroupRingElement to the ring."""
    result = GroupRingElement.zero(g.rank)
    for w, c in g.terms:
        image = op(w)
        result = result + GroupRingElement(image.rank,
                                           tuple((u, c * cu) for u, cu in image.terms))
    return result


def abelianize(g: GroupRingElement) -> LaurentPoly:
    """Send every generator to t: each word maps to t^(exponent sum)."""
    acc: dict = {}
    for w, c in g.terms:
        e = w.exponent_sum
        acc[e] = acc.get(e, 0) + c
    return LaurentPoly.from_dict(acc, INT)


def monomial_count(g: GroupRingElement) -> int:
    """Number of signed prefix terms, counted with multiplicity."""
    return sum(abs(c) for _, c in g.terms)


@dataclass(frozen=True)
class BurauMatrix:
    """A Burau matrix together with its flavor and braid exponent sum."""

    matrix: LaurentMatrix
    flavor: str
    exponent_sum: int

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def to_json(self) -> dict:
        entries = [self.matrix.entry(i, j).to_json()
                   for i in range(self.dim) for j in range(self.dim)]
        return {"dimension": self.dim, "flavor": self.flavor,
                "exponent_sum": self.exponent_sum, "entries": entries}


def burau_matrix(source) -> BurauMatrix:
    """Full Burau matrix: entry (i, j) is the abelianized Fox derivative of
    the image of x_i with respect to x_j.

    Accepts a braid word or a free-group automorphism; an automorphism must
    satisfy the braid property (conjugate images, fixed ordered product).
    """
    if isinstance(source, BraidWord):
        auto = artin_action(source)
        e: int | None = exponent_sum(source)
    elif isinstance(source, FreeAutomorphism):
        auto = source
        if not verify_braid_property(auto):
            raise ValueError("automorphism is not induced by a braid")
        e = None
    else:
        raise TypeError(f"cannot build a Burau matrix from {type(source).__name__}")
    n = auto.rank
    rows = tuple(
        tuple(abelianize(fox_derivative(auto.images[i], j + 1)) for j in range(n))
        for i in range(n))
    matrix = LaurentMatrix(rows)
    if e is None:
        e = _exponent_from_determinant(matrix)
    return BurauMatrix(matrix=matrix, flavor=FULL, exponent_sum=e)


def _exponent_from_determinant(m: LaurentMatrix) -> int:
    """Recover the braid exponent sum e from det = (-t)^e."""
    entries = [[BivariatePoly.make([m.entry(i, j)]) for j in range(m.dim)]
               for i in range(m.dim)]
    det = bivariate_det(entries)
    poly = det.coefficient(0) if not det.is_zero else LaurentPoly.zero()
    if len(poly.terms) != 1:
        raise ValueError("Burau determinant is not a power of -t")
    exp, coeff = poly.terms[0]
    if coeff != (-1) ** exp:
        raise ValueError("Burau determinant is not a power of -t")
    return exp


def reduced_burau(w: BraidWord) -> BurauMatrix:
    """Reduced Burau matrix of a braid word (see ``reduce_full``)."""
    return reduce_full(burau_matrix(w))


def reduce_full(full: BurauMatrix) -> BurauMatrix:
    """Matrix of the full Burau action restricted to the zero-coordinate-sum
    row subspace, in the basis u_i = V_i - V_{i+1}.

    The coordinates of (row_i - row_{i+1}) in that basis are its prefix sums;
    the full prefix sum is checked to vanish exactly (the invariance residual).
    """
    if full.flavor != FULL:
        raise ValueError("reduce_full needs the full Burau matrix")
    n = full.dim
    rows = []
    for i in range(n - 1):
        prefix = LaurentPoly.zero()
        row = []
        for j in range(n):
            prefix = prefix + (full.matrix.entry(i, j) - full.matrix.entry(i + 1, j))
            if j < n - 1:
                row.append(prefix)
        if not prefix.is_zero:
            raise ArithmeticError("row subspace is not invariant: nonzero residual")
        rows.append(tuple(row))
    return BurauMatrix(matrix=LaurentMatrix(tuple(rows)), flavor=REDUCED,
                       exponent_sum=full.exponent_sum)


def verify_multiplicativity(u: BraidWord, v: BraidWord) -> bool:
    """Exact check that the Burau matrix of a concatenation is the product."""
    if u.strands != v.strands:
        raise ValueError("strand-count mismatch")
    from .braid import compose

    combined = burau_matrix(compose(u, v))
    product = burau_matrix(u).matrix * burau_matrix(v).matrix
    return combined.matrix == product


def alexander_polynomial(w: BraidWord) -> BivariatePoly:
    """det(B^r - x I) for the reduced Burau matrix of the braid word; the
    closure-with-axis link invariant, outer variable x."""
    if w.strands > MAX_CHARPOLY_DIM:
        raise ValueError(
            f"alexander polynomial limited to {MAX_CHARPOLY_DIM} strands, got {w.strands}")
    reduced = reduced_burau(w).matrix
    minus_one = LaurentPoly.constant(-1)
    entries = []
    for i in range(reduced.dim):
        row = []
        for j in range(reduced.dim):
            b = reduced.entry(i, j)
            if i == j:
                row.append(BivariatePoly.make([b, minus_one]))
            else:
                row.append(BivariatePoly.make([b]))
        entries.append(row)
    return bivariate_det(entries)
