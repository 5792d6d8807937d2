"""Exact determinants by first-row cofactor expansion, memoized on the
surviving-column bitmask: the test oracle for ``burau.laurent.charpoly``.

It shares no algorithm with the library's Berkowitz charpoly and needs no
division, so it is valid over the Laurent ring.  Its memo has 2^d entries,
so keep it to dimension 12 or so.
"""

from __future__ import annotations

from burau.laurent import BivariatePoly, LaurentMatrix, LaurentPoly


def _add(a: tuple, b: tuple, sign: int) -> tuple:
    """a + sign * b for coefficient tuples in ascending powers of X."""
    if not b:
        return a
    zero = LaurentPoly.zero()
    out = []
    for k in range(max(len(a), len(b))):
        x = a[k] if k < len(a) else zero
        y = b[k] if k < len(b) else zero
        out.append(x + y if sign > 0 else x - y)
    return tuple(out)


def _mul(a: tuple, b: tuple) -> tuple:
    return (BivariatePoly.make(a) * BivariatePoly.make(b)).coeffs


def bivariate_det(entries) -> BivariatePoly:
    """Determinant of a square grid of ``BivariatePoly`` entries."""
    n = len(entries)
    entries = [[entry.coeffs for entry in row] for row in entries]
    one = LaurentPoly.one()
    memo: dict = {}

    def det(cols: int) -> tuple:
        if cols == 0:
            return (one,)
        if cols not in memo:
            i = n - bin(cols).count("1")
            acc: tuple = ()
            sign = 1
            rest = cols
            while rest:
                bit = rest & -rest
                entry = entries[i][bit.bit_length() - 1]
                if entry:
                    acc = _add(acc, _mul(entry, det(cols ^ bit)), sign)
                sign = -sign
                rest ^= bit
            memo[cols] = acc
        return memo[cols]

    return BivariatePoly.make(det((1 << n) - 1))


def laurent_det(m: LaurentMatrix) -> LaurentPoly:
    """det(m) over the Laurent ring."""
    det = bivariate_det([[BivariatePoly.make([m.entry(i, j)]) for j in range(m.dim)]
                         for i in range(m.dim)])
    return det.coefficient(0)


def cofactor_charpoly(m: LaurentMatrix) -> BivariatePoly:
    """det(X*I - m) by cofactor expansion."""
    one = LaurentPoly.one()
    return bivariate_det([[BivariatePoly.make([-m.entry(i, j), one] if i == j
                                              else [-m.entry(i, j)])
                           for j in range(m.dim)] for i in range(m.dim)])
