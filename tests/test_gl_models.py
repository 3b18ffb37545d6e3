"""Diagonal seminorm dictionary for the projective linear group."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from weylscope import apartment, linalg, polyfan, root_data
from weylscope.gl_models import (
    DiagSeminorm,
    chi_diff,
    datum_for,
    degeneration_ray,
    from_apartment_point,
    gl_context,
    hyperplane_type,
    kernel,
    make_seminorm,
    stabilizer_blocks,
    stratum_label,
    to_apartment_point,
)
from weylscope.polyfan import NEG_INF, finite
from weylscope.root_data import ValidationError


def _random_seminorm(rng: random.Random, d: int, with_kernel: bool) -> DiagSeminorm:
    vals = []
    for _ in range(d + 1):
        if with_kernel and rng.random() < 0.35:
            vals.append("-inf")
        else:
            vals.append(Fraction(rng.randint(-6, 6), rng.randint(1, 2)))
    if all(v == "-inf" for v in vals):
        vals[rng.randrange(d + 1)] = Fraction(0)
    return make_seminorm(vals)


def test_make_seminorm_normalizes_to_top_zero():
    s = make_seminorm(["-3", "-1", "-inf"])
    assert s.values == (finite(-2), finite(0), NEG_INF)
    assert kernel(s) == frozenset({2})
    assert s.dimension == 3


def test_make_seminorm_validation():
    with pytest.raises(ValidationError):
        make_seminorm([])
    with pytest.raises(ValidationError):
        make_seminorm(["-inf", "-inf"])
    with pytest.raises(ValidationError):
        make_seminorm([polyfan.POS_INF, 0])


def test_chi_diff_shapes():
    # chi_1 - chi_2 is the first simple root of A2
    assert chi_diff(2, 0, 1) == (1, 0)
    assert chi_diff(2, 1, 0) == (-1, 0)
    assert chi_diff(2, 0, 2) == (1, 1)
    assert chi_diff(3, 3, 0) == (-1, -1, -1)
    with pytest.raises(ValidationError):
        chi_diff(2, 1, 1)


def test_hyperplane_type_is_all_but_last():
    assert hyperplane_type(1) == frozenset()
    assert hyperplane_type(3) == frozenset({0, 1})


def test_origin_and_interior_points():
    s = make_seminorm([0, 0, 0])
    x = to_apartment_point(s)
    stratum = x.point.stratum  # a linear subspace: an interior point
    assert polyfan.dim(stratum) == len(polyfan.lineality_basis(stratum))
    assert x.point.residual == (Fraction(0), Fraction(0))
    assert from_apartment_point(x) == s


def test_rank_one_kernel_lands_on_ray_stratum():
    # c = (-inf, 0, -1): kernel {0}, stratum of the stabilizer of span(e1),
    # residual the norm class (0, -1) on the quotient
    s = make_seminorm(["-inf", "0", "-1"])
    assert kernel(s) == frozenset({0})
    x = to_apartment_point(s)
    label = stratum_label(s)
    assert x.stratum_parabolic.members == label.members
    assert chi_diff(2, 0, 1) in label.members  # chi_1 - chi_2 kept
    assert chi_diff(2, 1, 0) not in label.members
    back = from_apartment_point(x)
    assert back == s
    # the same point arises as the limit of the degeneration ray
    u0, v = degeneration_ray([0, 0, -1], {0})
    ctx = gl_context(2)
    lim = apartment.limit_point(ctx, u0, v)
    assert lim.stratum_parabolic.members == label.members
    assert lim.point == x.point


def test_round_trip_random():
    rng = random.Random(51)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            s = _random_seminorm(rng, d, with_kernel=True)
            x = to_apartment_point(s)
            assert from_apartment_point(x) == s


_entries = st.one_of(
    st.just("-inf"), st.fractions(min_value=-6, max_value=6, max_denominator=4)
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_round_trip_and_canonical_residual_on_random_seminorms(data):
    """The pgl dictionary round-trips every seminorm with a proper kernel,
    and its boundary point is in canonical form: rebuilding it from its
    residual, or from that residual moved along the stratum's lineality and
    rays, gives the same point."""
    d = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(st.lists(_entries, min_size=d + 1, max_size=d + 1))
    assume(any(e != "-inf" for e in entries))
    s = make_seminorm(entries)
    x = to_apartment_point(s)
    assert from_apartment_point(x) == s
    stratum, residual = x.point
    lin, rays = polyfan.generators(stratum)
    shift = [0] * d
    for g in lin + rays:
        k = data.draw(st.integers(min_value=-3, max_value=3))
        shift = [a + k * b for a, b in zip(shift, g)]
    assert polyfan.BoundaryPoint(stratum, residual) == x.point
    assert polyfan.BoundaryPoint(stratum, linalg.add(residual, shift)) == x.point


def test_round_trip_is_deterministic():
    s = make_seminorm(["0", "-1/2", "-inf", "-3"])
    a = to_apartment_point(s)
    b = to_apartment_point(s)
    assert a.point == b.point and a.stratum_parabolic == b.stratum_parabolic


def test_stratum_label_matches_stratum_of():
    rng = random.Random(53)
    for d in (1, 2, 3):
        ctx = gl_context(d)
        for _ in range(8):
            s = _random_seminorm(rng, d, with_kernel=True)
            x = to_apartment_point(s)
            assert apartment.stratum_of(ctx, x).members == stratum_label(s).members


def test_norm_blocks_all_filtered_at_levels():
    s = make_seminorm([0, 0, 0])
    blocks = stabilizer_blocks(s)
    assert blocks.full_unipotent == ()
    assert blocks.full_levi == ()
    assert len(blocks.filtered) == 6
    assert all(level == 0 for _, level in blocks.filtered)
    uneven = make_seminorm([0, -1, -3])
    levels = dict(stabilizer_blocks(uneven).filtered)
    # level of chi_i - chi_j is c_i - c_j
    assert levels[chi_diff(2, 1, 0)] == Fraction(-1)
    assert levels[chi_diff(2, 0, 1)] == Fraction(1)
    assert levels[chi_diff(2, 2, 1)] == Fraction(-2)


def test_kernel_blocks_split_full_and_filtered():
    s = make_seminorm(["-inf", "0", "-1"])
    blocks = stabilizer_blocks(s)
    # kernel {0}: roots chi_i - chi_j with i in the kernel act fully
    assert set(blocks.full_unipotent) == {chi_diff(2, 0, 1), chi_diff(2, 0, 2)}
    assert blocks.full_levi == ()  # 1x1 kernel block has no roots
    quotient = dict(blocks.filtered)
    assert set(quotient) == {chi_diff(2, 1, 2), chi_diff(2, 2, 1)}
    assert quotient[chi_diff(2, 1, 2)] == Fraction(1)


def test_corank_one_quotient_has_no_filtered_roots():
    s = make_seminorm(["0", "-inf", "-inf"])
    blocks = stabilizer_blocks(s)
    assert blocks.filtered == ()
    assert len(blocks.full_unipotent) == 2
    assert len(blocks.full_levi) == 2  # the 2x2 kernel block


def test_degeneration_ray_validation():
    with pytest.raises(ValidationError):
        degeneration_ray([0, -1], set())
    with pytest.raises(ValidationError):
        degeneration_ray([0, -1], {0, 1})


def test_degeneration_realizes_every_kernel():
    rng = random.Random(59)
    for d in (2, 3):
        ctx = gl_context(d)
        for bits in range(1, 1 << (d + 1)):
            ker = {i for i in range(d + 1) if bits >> i & 1}
            if len(ker) > d:
                continue
            start = [Fraction(rng.randint(-3, 3)) for _ in range(d + 1)]
            u0, v = degeneration_ray(start, ker)
            lim = apartment.limit_point(ctx, u0, v)
            target_values = [
                "-inf" if i in ker else start[i] for i in range(d + 1)
            ]
            target = to_apartment_point(make_seminorm(target_values))
            assert lim.point == target.point
            assert lim.stratum_parabolic.members == target.stratum_parabolic.members


def test_residual_rank_matches_quotient_dimension():
    rng = random.Random(61)
    for d in (2, 3, 4):
        ctx = gl_context(d)
        for _ in range(6):
            s = _random_seminorm(rng, d, with_kernel=True)
            x = to_apartment_point(s)
            sa = apartment.stratum_apartment(ctx, x.stratum_parabolic)
            assert sa.residual_datum.rank == d - len(kernel(s))


def test_a5_context_builds_only_the_orbits_it_indexes(monkeypatch):
    """gl_context(5) on a fresh A5 table builds no orbit until its
    parabolics are read; reading them builds the orbits of its relevant
    labels (its chart label among them) and no other: 63 of the 4,683
    parabolics.  Standard positions are known for those and for the
    standard parabolics that relevancy reads."""
    datum = datum_for(5)
    tables = root_data.DatumTables(datum)
    monkeypatch.setitem(root_data._TABLES, datum, tables)
    ctx = gl_context.__wrapped__(5)
    assert tables.orbits == {} and tables.positions == {}
    assert len(ctx.parabolics) == 63
    labels = root_data.relevant_labels(datum, hyperplane_type(5))
    assert set(tables.orbits) == set(labels)
    assert hyperplane_type(5) in tables.orbits
    built = [q for orbit in tables.orbits.values() for q in orbit]
    assert len(built) == len(ctx.parabolics) == 63
    standard = {
        root_data.standard_parabolic(datum, y).members for y in oracles.all_type_labels(5)
    }
    assert set(tables.positions) <= {q.members for q in built} | standard
