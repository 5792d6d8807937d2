"""Fox free differential calculus over the integral group ring of a free
group, and the Burau matrix defined the paper's way: the abelianized Fox
Jacobian of a free-group automorphism.

This is the test oracle for ``burau.foxburau.burau_matrix``, which builds the
same matrix as a product of generator matrices.  It shares no construction
code with the library: it works on the Artin images from
``burau.freegroup`` and reads the exponent sum off the determinant.  The
multiplicativity check on ``burau_matrix`` and the braid-property check on
free-group automorphisms live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from burau.braid import BraidWord, compose
from burau.foxburau import FULL, BurauMatrix, burau_matrix
from burau.freegroup import FreeAutomorphism, FreeWord, concat
from burau.laurent import LaurentMatrix, LaurentPoly

from cofactor_det import laurent_det


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
    return LaurentPoly.from_dict(acc)


def monomial_count(g: GroupRingElement) -> int:
    """Number of signed prefix terms, counted with multiplicity."""
    return sum(abs(c) for _, c in g.terms)


def fox_burau_matrix(auto: FreeAutomorphism) -> BurauMatrix:
    """Full Burau matrix of a braid automorphism: entry (i, j) is the
    abelianized Fox derivative of the image of x_i with respect to x_j, and
    the exponent sum e is read off det = (-t)^e."""
    n = auto.rank
    rows = tuple(
        tuple(abelianize(fox_derivative(auto.images[i], j + 1)) for j in range(n))
        for i in range(n))
    matrix = LaurentMatrix(rows)
    return BurauMatrix(matrix=matrix, flavor=FULL,
                       exponent_sum=exponent_from_determinant(matrix))


def exponent_from_determinant(m: LaurentMatrix) -> int:
    """Recover the braid exponent sum e from det = (-t)^e."""
    poly = laurent_det(m)
    if len(poly.terms) != 1:
        raise ValueError("Burau determinant is not a power of -t")
    exp, coeff = poly.terms[0]
    if coeff != (-1) ** exp:
        raise ValueError("Burau determinant is not a power of -t")
    return exp


def verify_multiplicativity(u: BraidWord, v: BraidWord) -> bool:
    """Exact check that the Burau matrix of a concatenation is the product."""
    if u.strands != v.strands:
        raise ValueError("strand-count mismatch")
    combined = burau_matrix(compose(u, v))
    product = burau_matrix(u).matrix * burau_matrix(v).matrix
    return combined.matrix == product


def verify_braid_property(a: FreeAutomorphism) -> bool:
    """True iff every image is a conjugate of a single generator and the
    ordered product of the images reduces to x_1 x_2 ... x_n."""
    for img in a.images:
        letters = img.letters
        if len(letters) % 2 == 0:
            return False
        mid = len(letters) // 2
        if letters[mid] <= 0:
            return False
        if any(letters[k] != -letters[-1 - k] for k in range(mid)):
            return False
    product: list = []
    for img in a.images:
        for v in img.letters:
            if product and product[-1] == -v:
                product.pop()
            else:
                product.append(v)
    return product == list(range(1, a.rank + 1))
