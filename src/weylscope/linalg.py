"""Exact linear algebra and linear-arithmetic decisions over the rationals.

Everything here works on tuples of Fraction (or int) and never touches
floating point.  Constraint systems are homogeneous throughout: a constraint
is a pair (row, strict) meaning row·x <= 0, or row·x < 0 when strict.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]
IntVector = Tuple[int, ...]
Constraint = Tuple[Vector, bool]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zero(n: int) -> Vector:
    return (Fraction(0),) * n


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def add(u: Sequence, v: Sequence) -> Vector:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v))


def neg(u: Sequence) -> Vector:
    return tuple(-Fraction(a) for a in u)


def neg_int(u: Sequence) -> IntVector:
    return tuple(-int(a) for a in u)


def is_zero(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def primitive(u: Sequence) -> IntVector:
    """Scale a rational vector to coprime integers, first nonzero entry > 0."""
    fr = [Fraction(a) for a in u]
    if all(a == 0 for a in fr):
        return (0,) * len(fr)
    mult = 1
    for a in fr:
        mult = mult * a.denominator // gcd(mult, a.denominator)
    ints = [int(a * mult) for a in fr]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    ints = [a // g for a in ints]
    lead = next(a for a in ints if a != 0)
    if lead < 0:
        ints = [-a for a in ints]
    return tuple(ints)


def rref(rows: Sequence[Sequence]) -> Tuple[List[Vector], List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [inv * a for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence], n: int) -> List[Vector]:
    """Basis of {x in Q^n : row·x = 0 for every row}."""
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis: List[Vector] = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def in_row_span(rows: Sequence[Sequence], v: Sequence) -> bool:
    red, _ = rref(rows)
    before = len(red)
    red2, _ = rref(list(red) + [list(v)])
    return len(red2) == before


def reduce_mod_span(basis_vectors: Sequence[Sequence], v: Sequence) -> Vector:
    """Canonical representative of v modulo the span of the given vectors.

    Zeroes the pivot coordinates of the span's RREF; two vectors are congruent
    mod the span iff their representatives are equal.
    """
    red, pivots = rref(basis_vectors)
    out = list(map(Fraction, v))
    for row, p in zip(red, pivots):
        if out[p] != 0:
            f = out[p]
            out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)


def _normalize_constraint(row: Sequence, strict: bool) -> Constraint:
    fr = [Fraction(a) for a in row]
    if all(a == 0 for a in fr):
        return tuple(fr), strict
    mult = 1
    for a in fr:
        mult = mult * a.denominator // gcd(mult, a.denominator)
    ints = [a * mult for a in fr]
    g = 0
    for a in ints:
        g = gcd(g, abs(int(a)))
    return tuple(Fraction(int(a) // g) for a in ints), strict


def _eliminate(cons: List[Constraint], k: int) -> Optional[List[Constraint]]:
    """One Fourier-Motzkin step on coordinate k; None when 0 < 0 is derived."""
    pos: List[Constraint] = []
    negs: List[Constraint] = []
    rest: List[Constraint] = []
    for row, strict in cons:
        if row[k] > 0:
            pos.append((row, strict))
        elif row[k] < 0:
            negs.append((row, strict))
        else:
            rest.append((row, strict))
    seen = {c for c in rest}
    out = list(seen)
    for prow, pstrict in pos:
        for nrow, nstrict in negs:
            comb = tuple(
                -nrow[k] * a + prow[k] * b for a, b in zip(prow, nrow)
            )
            strict = pstrict or nstrict
            if is_zero(comb):
                if strict:
                    return None
                continue
            c = _normalize_constraint(comb, strict)
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def feasible_point(
    constraints: Sequence[Tuple[Sequence, bool]], n: int
) -> Optional[Vector]:
    """A rational point satisfying every homogeneous constraint, else None.

    Constraints are (row, strict) with meaning row·x <= 0 / < 0.  Decided by
    Fourier-Motzkin elimination with back-substitution; exact and complete
    over Q.
    """
    cons: List[Constraint] = []
    for row, strict in constraints:
        c = _normalize_constraint(row, strict)
        if is_zero(c[0]):
            if c[1]:
                return None
            continue
        cons.append(c)
    stages: List[List[Constraint]] = []
    current = cons
    for k in range(n):
        stages.append(current)
        nxt = _eliminate(current, k)
        if nxt is None:
            return None
        current = nxt
    for row, strict in current:
        if strict:  # rows are now all-zero
            return None
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        lo: Optional[Fraction] = None
        lo_strict = False
        hi: Optional[Fraction] = None
        hi_strict = False
        for row, strict in stages[k]:
            coef = row[k]
            if coef == 0:
                continue
            rest = sum(row[j] * x[j] for j in range(k + 1, n))
            bound = -rest / coef
            if coef > 0:  # x_k <= bound
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi:
                    hi_strict = hi_strict or strict
            else:  # x_k >= bound
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo:
                    lo_strict = lo_strict or strict
        if lo is None and hi is None:
            x[k] = Fraction(0)
        elif lo is None:
            x[k] = hi - 1 if hi_strict else min(hi, Fraction(0))
        elif hi is None:
            x[k] = lo + 1 if lo_strict else max(lo, Fraction(0))
        elif lo == hi:
            x[k] = lo
        else:
            x[k] = (lo + hi) / 2 if (lo_strict or hi_strict) else lo
    return tuple(x)


def feasible(constraints: Sequence[Tuple[Sequence, bool]], n: int) -> bool:
    return feasible_point(constraints, n) is not None
