"""Exact linear algebra over the rationals.

Integers in, integers out wherever no division happens: functionals and
rays are integer tuples, elimination is fraction-free Gauss-Jordan on
integer rows (each row divided by its content), and nullspace bases are
primitive integer vectors.  Fraction appears only in residual classes,
where reducing a rational vector modulo a span divides by a pivot.
Nothing here touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

Vector = Tuple[Fraction, ...]
IntVector = Tuple[int, ...]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def dot(u: Sequence, v: Sequence):
    """The pairing; an int when both vectors are integer."""
    return sum(a * b for a, b in zip(u, v))


def add(u: Sequence, v: Sequence) -> Vector:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def neg_int(u: Sequence) -> IntVector:
    return tuple(-int(a) for a in u)


def integer_row(u: Sequence) -> List[int]:
    """The row times the least common multiple of its denominators: a
    positive factor, so every sign the row gives a pairing is kept."""
    if all(type(a) is int for a in u):
        return list(u)
    fr = [Fraction(a) for a in u]
    mult = lcm(*(a.denominator for a in fr))
    return [a.numerator * (mult // a.denominator) for a in fr]


def primitive(u: Sequence) -> IntVector:
    """Scale a rational vector to coprime integers by a positive factor, so
    its direction (and every sign) is kept."""
    ints = integer_row(u)
    g = gcd(*ints)
    if g == 0:
        return (0,) * len(ints)
    return tuple(a // g for a in ints)


def _reduce(rows: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination.

    Returns integer rows spanning the same space, in reduced echelon shape
    (every pivot column is zero outside its own row) but with pivots left
    unnormalized, plus the pivot columns.  Each updated row is divided by
    its content, which keeps the entries small.
    """
    mat = [integer_row(r) for r in rows]
    pivots: List[int] = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        pc = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f != 0 and i != r:
                row = [pc * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_reduce(rows)[0])


def nullspace(rows: Sequence[Sequence], n: int) -> List[IntVector]:
    """Basis of {x in Q^n : row·x = 0 for every row}: one primitive integer
    vector per free column, positive on that column and zero on the other
    free columns (a positive multiple of the RREF basis vector)."""
    red, pivots = _reduce(rows)
    bound = set(pivots)
    basis: List[IntVector] = []
    for f in range(n):
        if f in bound:
            continue
        deps = [(row[p], row[f], p) for row, p in zip(red, pivots) if row[f] != 0]
        x = [0] * n
        x[f] = lcm(*(d for d, _, _ in deps))
        for d, e, p in deps:
            x[p] = -e * x[f] // d
        g = gcd(*x)
        basis.append(tuple(a // g for a in x))
    return basis


def reduce_mod_span(basis_vectors: Sequence[Sequence], v: Sequence) -> Vector:
    """Canonical representative of v modulo the span of the given vectors.

    Zeroes the pivot coordinates of the span's reduced echelon rows; two
    vectors are congruent mod the span iff their representatives are equal.
    """
    red, pivots = _reduce(basis_vectors)
    out = list(map(Fraction, v))
    for row, p in zip(red, pivots):
        if out[p] != 0:
            f = out[p] / row[p]
            out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)
