"""Exact sparse Laurent polynomials, square matrices over them, and dense
polynomials in an outer variable with Laurent coefficients.

Coefficients are Python's arbitrary-precision ints, so products never
overflow.  ``charpoly`` packs each entry into one int by the Kronecker
substitution t -> 2^K, K one bit wider than a bound on every coefficient of
the result.  Complex values arise only when a matrix is specialized at a
complex t, which ``burau.spectral`` does in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class LaurentPoly:
    """Sparse polynomial in t and t^-1.

    ``terms`` holds (exponent, coefficient) pairs in strictly ascending
    exponent order with no zero coefficients, each an int; the empty tuple
    is the zero polynomial.
    """

    terms: tuple = ()

    def __post_init__(self) -> None:
        last = None
        for exp, coeff in self.terms:
            if not isinstance(coeff, int):
                raise ValueError(f"non-integer coefficient {coeff!r} in LaurentPoly")
            if coeff == 0:
                raise ValueError("zero coefficient stored in LaurentPoly")
            if last is not None and exp <= last:
                raise ValueError("terms must be strictly ascending in exponent")
            last = exp

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_dict(coeffs: dict) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((int(e), c) for e, c in coeffs.items()
                                        if c != 0)))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly.from_dict({0: c})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.constant(1)

    @staticmethod
    def t_power(exp: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly.from_dict({exp: coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.terms)
        for exp, coeff in other.terms:
            acc[exp] = acc.get(exp, 0) + coeff
        return LaurentPoly.from_dict(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(acc)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: int):
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def coefficient_sum(self):
        """Sum of all coefficients, i.e. the exact value at t = 1."""
        return sum(c for _, c in self.terms)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, t: complex) -> complex:
        """Value at a nonzero complex t, by exponent-sorted Horner accumulation."""
        if t == 0:
            raise ValueError("Laurent polynomials cannot be evaluated at t = 0")
        if not self.terms:
            return 0j
        t = complex(t)
        acc = complex(self.terms[-1][1])
        for i in range(len(self.terms) - 2, -1, -1):
            gap = self.terms[i + 1][0] - self.terms[i][0]
            acc = acc * t ** gap + self.terms[i][1]
        return acc * t ** self.terms[0][0]

    # -- text and JSON -----------------------------------------------------

    def render(self) -> str:
        """Canonical text form, terms in ascending exponent: "-t^-2 + t^-1 - 1"."""
        if not self.terms:
            return "0"
        pieces = []
        for exp, coeff in self.terms:
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            elif mag == 1:
                body = _t_name(exp)
            else:
                body = f"{mag}*{_t_name(exp)}"
            pieces.append((sign, body))
        return join_signed(pieces)

    def to_json(self) -> dict:
        """Map from exponent strings to exact coefficient strings."""
        return {str(e): str(c) for e, c in self.terms}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        return LaurentPoly.from_dict({int(e): int(c) for e, c in obj.items()})


def _t_name(exp: int) -> str:
    return "t" if exp == 1 else f"t^{exp}"


def join_signed(pieces) -> str:
    """Join (sign, body) pieces into "body ± body ...": the first piece shows
    its sign only when it is a minus."""
    first_sign, first_body = pieces[0]
    head = ("-" if first_sign == "-" else "") + first_body
    return head + "".join(f" {sign} {body}" for sign, body in pieces[1:])


@dataclass(frozen=True)
class LaurentMatrix:
    """Square matrix of Laurent polynomials."""

    rows: tuple

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n == 0:
            raise ValueError("LaurentMatrix must have positive dimension")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("LaurentMatrix must be square")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        one = LaurentPoly.one()
        zero = LaurentPoly.zero()
        return LaurentMatrix(tuple(tuple(one if i == j else zero for j in range(n))
                                   for i in range(n)))

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix product")
        n = self.dim
        zero = LaurentPoly.zero()
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    left = self.rows[i][k]
                    if left.is_zero:
                        continue
                    acc = acc + left * other.rows[k][j]
                row.append(acc)
            out.append(tuple(row))
        return LaurentMatrix(tuple(out))


@dataclass(frozen=True)
class BivariatePoly:
    """Dense polynomial in an outer variable X with LaurentPoly coefficients.

    ``coeffs[k]`` is the coefficient of X^k; the highest entry is nonzero.
    The empty tuple is the zero polynomial.
    """

    coeffs: tuple = ()

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1].is_zero:
            raise ValueError("leading coefficient of BivariatePoly must be nonzero")

    @staticmethod
    def make(coeffs: Iterable[LaurentPoly]) -> "BivariatePoly":
        items = list(coeffs)
        while items and items[-1].is_zero:
            items.pop()
        return BivariatePoly(tuple(items))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> LaurentPoly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return LaurentPoly.zero()

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        if self.is_zero or other.is_zero:
            return BivariatePoly()
        zero = LaurentPoly.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return BivariatePoly.make(out)

    def coefficients_at(self, t: complex) -> tuple:
        """Evaluate every Laurent coefficient at t; ascending X powers."""
        return tuple(c.evaluate(t) for c in self.coeffs)

    def render(self, var: str = "x") -> str:
        """Canonical text form in ascending powers of the outer variable."""
        if not self.coeffs:
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            pieces.append(_bivariate_piece(c, k, var))
        return join_signed(pieces)

    def to_json(self, var: str = "x") -> dict:
        return {"variable": var, "coefficients": [c.to_json() for c in self.coeffs]}


def _var_name(var: str, k: int) -> str:
    return var if k == 1 else f"{var}^{k}"


def _bivariate_piece(c: LaurentPoly, k: int, var: str):
    xpart = "" if k == 0 else _var_name(var, k)
    if len(c.terms) == 1:
        exp, coeff = c.terms[0]
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        factors = []
        if mag != 1 or (exp == 0 and k == 0):
            factors.append(str(mag))
        if exp != 0:
            factors.append(_t_name(exp))
        if xpart:
            factors.append(xpart)
        return sign, "*".join(factors)
    body = f"({c.render()})"
    if xpart:
        body += f"*{xpart}"
    return "+", body


# The charpoly of the full Burau matrix of L(n)^2 (the ladder 1 -2 3 ... on
# n strands, squared) takes 26 ms at n = 16, 0.12 s at 20, 0.44 s at 24 and
# 0.50 s at 25 (best of 3, shared 2-CPU machine): d^4 packed-int products.
MAX_CHARPOLY_DIM = 24


def _pack(m: LaurentMatrix):
    """Kronecker substitution t -> 2^K of t^-lo m, where lo is the least
    exponent of any entry: returns (rows of ints, K, lo).  The product over
    rows of (1 + the row's coefficient L1 sum) bounds every coefficient of
    every e_k(t^-lo m); K is one bit wider, so signed base-2^K digits hold it.
    """
    lo = min((e.terms[0][0] for row in m.rows for e in row if e.terms), default=0)
    bound = 1
    for row in m.rows:
        bound *= 1 + sum(abs(c) for e in row for _, c in e.terms)
    k = bound.bit_length() + 1
    return [[sum(c << k * (x - lo) for x, c in e.terms) for e in row]
            for row in m.rows], k, lo


def _unpack(v: int, k: int, shift: int) -> LaurentPoly:
    """The Laurent polynomial whose signed base-2^k digits are v, the lowest
    at t^shift."""
    terms, half, mask = [], 1 << (k - 1), (1 << k) - 1
    while v:
        digit = ((v + half) & mask) - half
        if digit:
            terms.append((shift, digit))
        v = (v - digit) >> k
        shift += 1
    return LaurentPoly(tuple(terms))


def _dot(row, vec) -> int:
    """Sum of row[k] * vec[k] over the shorter of the two; skips zeros."""
    return sum(a * b for a, b in zip(row, vec) if a and b)


def charpoly(m: LaurentMatrix) -> BivariatePoly:
    """Exact characteristic polynomial det(X*I - m) over the Laurent ring.

    Berkowitz's division-free algorithm (IPL 18, 1984) on the ints of
    ``_pack``: bordering the leading r x r block A by the column c, the row R
    and the diagonal entry a multiplies the coefficients of det(X*I - A), in
    descending powers of X, by the lower-triangular Toeplitz matrix with
    first column (1, -a, -R c, -R A c, ..., -R A^(r-1) c).  The coefficient
    of X^(d-k) is unpacked from signed base-2^K digits and shifted by lo*k
    exponents, since e_k(m) = t^(lo*k) e_k(t^-lo m).
    """
    n = m.dim
    if n > MAX_CHARPOLY_DIM:
        raise ValueError(
            f"characteristic polynomial limited to dimension {MAX_CHARPOLY_DIM}, got {n}")
    rows, k, lo = _pack(m)
    p = [1]
    for r in range(n):
        toeplitz = [1, -rows[r][r]]
        col = [row[r] for row in rows[:r]]
        for j in range(r):
            if j:
                col = [_dot(row, col) for row in rows[:r]]
            toeplitz.append(-_dot(rows[r], col))
        p = [_dot(p, toeplitz[i::-1]) for i in range(r + 2)]
    return BivariatePoly.make(reversed([_unpack(c, k, lo * i) for i, c in enumerate(p)]))
