"""Burau matrices (full and reduced) of braid words, built as products of
generator matrices, and the closure-with-axis Alexander polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, exponent_sum
from .laurent import BivariatePoly, LaurentMatrix, LaurentPoly, charpoly

FULL = "full"
REDUCED = "reduced"


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


def burau_matrix(w: BraidWord) -> BurauMatrix:
    """Full Burau matrix of a braid word: the Fox Jacobian of its Artin
    action with every generator sent to t, built as the left-to-right product
    of generator matrices.

    s_i acts on rows and columns i, i+1 by [[1-t, t], [1, 0]] and s_i^-1 by
    [[0, 1], [t^-1, 1-t^-1]]; each letter rewrites two columns.
    """
    n = w.strands
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    t, t_inv = LaurentPoly.t_power(1), LaurentPoly.t_power(-1)
    one_minus_t, one_minus_t_inv = one - t, one - t_inv
    cols = [[one if i == j else zero for i in range(n)] for j in range(n)]
    for v in w.letters:
        i = abs(v) - 1
        left, right = cols[i], cols[i + 1]
        if v > 0:
            cols[i] = [a * one_minus_t + b for a, b in zip(left, right)]
            cols[i + 1] = [a * t for a in left]
        else:
            cols[i] = [b * t_inv for b in right]
            cols[i + 1] = [a + b * one_minus_t_inv for a, b in zip(left, right)]
    matrix = LaurentMatrix(tuple(tuple(col[i] for col in cols) for i in range(n)))
    return BurauMatrix(matrix=matrix, flavor=FULL, exponent_sum=exponent_sum(w))


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


def alexander_polynomial(w: BraidWord) -> BivariatePoly:
    """det(B^r - x I) = (-1)^d det(x I - B^r) for the d-dimensional reduced
    Burau matrix of the braid word; the closure-with-axis link invariant,
    outer variable x."""
    poly = charpoly(reduced_burau(w).matrix)
    return BivariatePoly(tuple(-c for c in poly.coeffs)) if poly.degree % 2 else poly
