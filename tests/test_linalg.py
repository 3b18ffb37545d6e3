"""Exact linear algebra: reductions and spans; and the rational feasibility
and span membership oracles of the tests."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weylscope import linalg, polyfan, root_data, type_geometry

import oracles


def _random_matrix(rng: random.Random, rows: int, cols: int):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_vector_basics():
    u = linalg.vec([1, Fraction(1, 2), -3])
    v = linalg.vec([0, 2, 1])
    assert linalg.dot(u, v) == Fraction(-2)
    assert linalg.add(u, v) == (Fraction(1), Fraction(5, 2), Fraction(-2))
    assert linalg.neg_int(v) == (0, -2, -1)
    assert linalg.is_zero((Fraction(0),) * 4)
    assert not linalg.is_zero(u)


def test_primitive_normalizes_scale_and_sign():
    """The scale goes, and the sign stays: a ray and its opposite differ."""
    assert linalg.primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert linalg.primitive([Fraction(-2, 3), Fraction(4, 3)]) == (-1, 2)
    assert linalg.primitive([0, Fraction(0), Fraction(-5, 7)]) == (0, 0, -1)
    assert linalg.primitive([-6, 0, 9]) == (-2, 0, 3)


def test_rank_and_nullspace_dimension_add_up():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = _random_matrix(rng, m, n)
        r = linalg.rank(a)
        null = linalg.nullspace(a, n)
        assert r + len(null) == n
        for v in null:
            for row in a:
                assert linalg.dot(row, v) == 0


def test_in_row_span():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert oracles.in_row_span(rows, [2, 3, 5])
    assert not oracles.in_row_span(rows, [0, 0, 1])


def test_reduce_mod_span_is_canonical_for_the_span():
    # two different bases of the same plane reduce vectors identically
    basis_a = [[1, 0, 1], [0, 1, 1]]
    basis_b = [[1, 1, 2], [1, -1, 0]]
    rng = random.Random(3)
    for _ in range(20):
        v = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        ra = linalg.reduce_mod_span(basis_a, v)
        rb = linalg.reduce_mod_span(basis_b, v)
        assert ra == rb
        diff = [a - b for a, b in zip(v, ra)]
        assert oracles.in_row_span(basis_a, diff)
        assert linalg.reduce_mod_span(basis_a, ra) == ra


def test_feasible_point_satisfies_constraints():
    cons = [
        ([Fraction(-1), Fraction(0)], True),   # x > 0
        ([Fraction(0), Fraction(-1)], True),   # y > 0
        ([Fraction(1), Fraction(1)], False),   # x + y <= 0: impossible
    ]
    assert oracles.feasible_point(cons, 2) is None
    cons_ok = [
        ([Fraction(-1), Fraction(0)], True),
        ([Fraction(0), Fraction(-1)], True),
    ]
    p = oracles.feasible_point(cons_ok, 2)
    assert p is not None
    assert p[0] > 0 and p[1] > 0
    assert oracles.feasible(cons_ok, 2)
    assert not oracles.feasible(cons, 2)


def test_feasible_random_strict_systems_agree_with_witness():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 4)):
            row = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            cons.append((row, rng.random() < 0.5))
        point = oracles.feasible_point(cons, n)
        assert (point is not None) == oracles.feasible(cons, n)
        if point is not None:
            for row, strict in cons:
                val = linalg.dot(row, point)
                assert val < 0 if strict else val <= 0


_rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


@st.composite
def _matrix_and_vector(draw):
    """A rational matrix of up to 6 rows and 7 columns, and a vector that
    half the time is a combination of its rows."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    nrows = draw(st.integers(min_value=0, max_value=6))
    row = st.lists(_rationals, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if rows and draw(st.booleans()):
        coeffs = draw(st.lists(_rationals, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
    else:
        v = draw(row)
    return rows, v, ncols


@settings(max_examples=300, deadline=None)
@given(_matrix_and_vector())
def test_integer_kernel_agrees_with_the_fraction_oracle(case):
    rows, v, n = case
    assert linalg.rank(rows) == oracles.rank(rows)
    # the integer echelon rows, each divided by its pivot, are the RREF
    red, pivots = linalg._reduce(rows)
    normalized = [tuple(Fraction(a, row[p]) for a in row) for row, p in zip(red, pivots)]
    assert (normalized, pivots) == oracles.rref(rows)
    null = linalg.nullspace(rows, n)
    expected = oracles.nullspace(rows, n)
    assert len(null) == len(expected)
    assert oracles.same_span(null, expected, n)
    for x, y in zip(null, expected):
        # the primitive integer multiple of the RREF basis vector, same direction
        assert all(type(a) is int for a in x)
        scale = next(a for a in x if a != 0) / next(b for b in y if b != 0)
        assert scale > 0 and tuple(a / scale for a in x) == y
        assert linalg.primitive(x) == x
    in_span = oracles.rank(rows + [v]) == oracles.rank(rows)
    assert oracles.in_row_span(rows, v) == in_span
    residual = linalg.reduce_mod_span(rows, v)
    assert linalg.is_zero(residual) == in_span
    # the one representative of v's class that is zero on the RREF pivots
    assert all(residual[p] == 0 for p in pivots)
    assert oracles.rank(rows + [[a - b for a, b in zip(v, residual)]]) == oracles.rank(rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rationals, min_size=0, max_size=7))
def test_primitive_fast_path_matches_the_rational_path(u):
    ints = [int(a * 12) for a in u]
    assert linalg.primitive(ints) == linalg.primitive([Fraction(a) for a in ints])
    p = linalg.primitive(u)
    assert all(type(a) is int for a in p)
    assert oracles.same_span([p], [u], len(u)) if any(u) else not any(p)


def test_generators_and_bases_are_integer_tuples():
    for name in ("A2", "B2", "G2", "A3"):
        datum = root_data.build_named(name)
        for t in ((), (0,)):
            for cone in type_geometry.prefan_of_type(datum, frozenset(t)).cones:
                lin, rays = polyfan.generators(cone)
                for vector in lin + rays + polyfan.span_basis(cone):
                    assert isinstance(vector, tuple)
                    assert all(type(a) is int for a in vector)
