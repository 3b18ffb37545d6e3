"""Cones, prefans, extended values and boundary points."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from weylscope import apartment, gl_models, linalg, polyfan, root_data, type_geometry
from weylscope.polyfan import (
    NEG_INF,
    POS_INF,
    BoundaryPoint,
    FanAxiomViolation,
    IndeterminateValueError,
    common_face,
    cone_subset,
    cones_equal,
    contains_point,
    covers,
    dim,
    eval_at_boundary,
    faces,
    facets,
    finite,
    generators,
    in_relative_interior,
    lineality_basis,
    make_cone,
    make_prefan,
    relative_interior_point,
    stratum_closure,
    verify_prefan,
)

QUADRANT = make_cone(2, [(-1, 0), (0, -1)])            # x >= 0, y >= 0
HALF = make_cone(2, [(0, -1)])                         # y >= 0
LINE = make_cone(2, [], [(0, 1)])                      # y = 0
PLANE = make_cone(2, [])
ORIGIN = make_cone(2, [], [(1, 0), (0, 1)])


def test_dims_and_lineality():
    assert dim(QUADRANT) == 2 and lineality_basis(QUADRANT) == ()
    assert dim(HALF) == 2 and len(lineality_basis(HALF)) == 1
    assert dim(LINE) == 1 and len(lineality_basis(LINE)) == 1
    assert dim(PLANE) == 2 and len(lineality_basis(PLANE)) == 2
    assert dim(ORIGIN) == 0


def test_generators_reproduce_membership():
    lin, rays = generators(QUADRANT)
    assert lin == ()
    assert set(rays) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    for r in rays:
        assert contains_point(QUADRANT, r)
    # a skew cone: x + 2y >= 0, x - y <= 0
    skew = make_cone(2, [(-1, -2), (1, -1)])
    lin2, rays2 = generators(skew)
    assert lin2 == ()
    assert len(rays2) == 2
    for r in rays2:
        assert contains_point(skew, r)
        assert not in_relative_interior(skew, r)
    mid = tuple(a + b for a, b in zip(*rays2))
    assert in_relative_interior(skew, mid)


def test_generator_rays_keep_their_side():
    # the extreme ray points into y < 0; canonicalization must not flip it
    cone = make_cone(2, [(0, 1), (-1, -1)])  # y <= 0, x + y >= 0
    _, rays = generators(cone)
    for r in rays:
        assert contains_point(cone, r)


def test_relative_interior_point_lands_inside():
    for cone in (QUADRANT, HALF, LINE, PLANE, ORIGIN):
        p = relative_interior_point(cone)
        assert in_relative_interior(cone, p)


def test_subset_and_equality():
    assert cone_subset(QUADRANT, HALF)
    assert not cone_subset(HALF, QUADRANT)
    assert cone_subset(LINE, HALF)
    # same half-plane, redundant description
    redundant = make_cone(2, [(0, -1), (0, -2), (1, -1)][:2])
    assert cones_equal(HALF, redundant)
    assert cones_equal(QUADRANT, make_cone(2, [(0, -1), (-1, 0), (-1, -1)]))


def test_faces_of_quadrant():
    fs = faces(QUADRANT)
    assert len(fs) == 4
    dims = sorted(dim(f) for f in fs)
    assert dims == [0, 1, 1, 2]
    for f in fs:
        assert cone_subset(f, QUADRANT)
    assert len(facets(QUADRANT)) == 2


def test_faces_of_the_9_dim_orthant():
    orthant = make_cone(9, [tuple(-1 if j == i else 0 for j in range(9)) for i in range(9)])
    fs = faces(orthant)
    assert len(fs) == 512
    assert sorted(dim(f) for f in fs) == sorted(bin(m).count("1") for m in range(512))


def test_common_face_of_adjacent_quadrants():
    left = make_cone(2, [(1, 0), (0, -1)])  # x <= 0, y >= 0
    shared = common_face(QUADRANT, left)
    assert cones_equal(shared, make_cone(2, [(0, -1)], [(1, 0)]))


def test_common_face_rejects_overlapping_cones():
    wide = make_cone(2, [(1, -1), (-1, -1)])   # |x| <= y
    tilted = make_cone(2, [(1, -2), (-1, 0)])  # x >= 0, x <= 2y: overlaps wide
    with pytest.raises(FanAxiomViolation) as err:
        common_face(wide, tilted)
    witness = err.value.witness
    assert witness is not None
    # the witness sits in one cone's face but escapes the intersection
    assert contains_point(wide, witness) or contains_point(tilted, witness)
    assert not (contains_point(wide, witness) and contains_point(tilted, witness))


def test_prefan_verification_and_covering():
    quads = [
        make_cone(2, [(-1, 0), (0, -1)]),
        make_cone(2, [(1, 0), (0, -1)]),
        make_cone(2, [(1, 0), (0, 1)]),
        make_cone(2, [(-1, 0), (0, 1)]),
        make_cone(2, [(0, -1)], [(1, 0)]),
        make_cone(2, [(0, 1)], [(1, 0)]),
        make_cone(2, [(-1, 0)], [(0, 1)]),
        make_cone(2, [(1, 0)], [(0, 1)]),
        ORIGIN,
    ]
    prefan = make_prefan(quads)
    verify_prefan(prefan)
    assert covers(prefan)
    broken = make_prefan(quads[:4])  # no shared faces listed
    with pytest.raises(FanAxiomViolation) as err:
        verify_prefan(broken)
    assert err.value.cones == (0,)
    assert "cone 0" in str(err.value)
    assert contains_point(quads[0], err.value.witness)
    assert not covers(make_prefan([QUADRANT, ORIGIN]))
    # closed under faces, but cones 1 and 2 overlap without a common face
    wide = make_cone(2, [(1, -1), (-1, -1)])   # |x| <= y
    tilted = make_cone(2, [(1, -2), (-1, 0)])  # x >= 0, x <= 2y
    overlapping = make_prefan([ORIGIN, wide, tilted] + faces(wide) + faces(tilted))
    with pytest.raises(FanAxiomViolation) as err:
        verify_prefan(overlapping)
    assert err.value.cones == (1, 2)
    assert "cones 1 and 2" in str(err.value)
    assert err.value.witness is not None


def test_verify_prefan_rejects_cones_in_different_ambient_spaces():
    half_space = make_cone(3, [(0, 0, -1)])  # z >= 0
    mixed = make_prefan(faces(QUADRANT) + faces(half_space))
    with pytest.raises(FanAxiomViolation) as err:
        verify_prefan(mixed)
    assert err.value.cones == (0, 4)
    assert str(err.value) == "cones 0 and 4 live in different ambient spaces"


def _verdict(check, prefan):
    """What a prefan check says about a family: None when it passes, else
    the message, cones and witness of its FanAxiomViolation."""
    try:
        check(prefan)
    except FanAxiomViolation as err:
        return str(err), err.cones, err.witness
    return None


_QUADRANT_FAN = [
    ORIGIN,
    QUADRANT,
    make_cone(2, [(1, 0), (0, -1)]),
    make_cone(2, [(1, 0), (0, 1)]),
    make_cone(2, [(-1, 0), (0, 1)]),
    make_cone(2, [(0, -1)], [(1, 0)]),
    make_cone(2, [(0, 1)], [(1, 0)]),
    make_cone(2, [(-1, 0)], [(0, 1)]),
    make_cone(2, [(1, 0)], [(0, 1)]),
]
_WIDE = make_cone(2, [(1, -1), (-1, -1)])    # |x| <= y
_TILTED = make_cone(2, [(1, -2), (-1, 0)])   # x >= 0, x <= 2y
_UPPER_LEFT = make_cone(2, [(0, -1), (1, -1)])  # y >= 0, y >= x: meets QUADRANT in half of it
_DIAGONAL = make_cone(2, [(-1, 0)], [(1, -1)])  # the ray through (1, 1)

BROKEN_FAMILIES = {
    "quadrants without their faces": (_QUADRANT_FAN[1:5], (0,)),
    "overlapping cones": ([ORIGIN, _WIDE, _TILTED] + faces(_WIDE) + faces(_TILTED), (1, 2)),
    "a ray through a quadrant's interior": (_QUADRANT_FAN[:5] + [_DIAGONAL] + _QUADRANT_FAN[5:], (1, 5)),
    "a half-overlap": ([ORIGIN, QUADRANT, _UPPER_LEFT] + faces(QUADRANT) + faces(_UPPER_LEFT), (1, 2)),
    "a duplicated maximal cone": (_QUADRANT_FAN + [QUADRANT], None),
}


@pytest.mark.parametrize("family", BROKEN_FAMILIES)
def test_verify_prefan_names_the_pair_the_all_pairs_check_names(family):
    cones, at_fault = BROKEN_FAMILIES[family]
    prefan = make_prefan(cones)
    verdict = _verdict(verify_prefan, prefan)
    assert verdict == _verdict(oracles.all_pairs_verify_prefan, prefan)
    assert (verdict and verdict[1]) == at_fault


@pytest.mark.parametrize("name", ("A1xA1", "A2", "B2", "G2", "A3", "B3"))
def test_verify_prefan_matches_the_all_pairs_check_on_every_type(name):
    datum = root_data.build_named(name)
    for t in oracles.all_type_labels(datum.rank):
        prefan = type_geometry.prefan_of_type(datum, t)
        assert _verdict(verify_prefan, prefan) is None, sorted(t)
        assert _verdict(oracles.all_pairs_verify_prefan, prefan) is None, sorted(t)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_verify_prefan_matches_the_all_pairs_check_on_random_families(data):
    """Families closed under faces: the faces of two to four random cones
    in dimension 2 or 3, in a random order, sometimes with one cone
    repeated.  About three in five of them fail on some pair."""
    n = data.draw(st.integers(min_value=2, max_value=3))
    roots = data.draw(st.lists(_random_cone(n), min_size=2, max_size=4))
    cones = [f for c in roots for f in faces(c)]
    cones += data.draw(st.lists(st.sampled_from(cones), max_size=1))
    prefan = make_prefan(data.draw(st.permutations(cones)))
    assert _verdict(verify_prefan, prefan) == _verdict(oracles.all_pairs_verify_prefan, prefan)


def test_covers_needs_the_other_side_of_a_linear_facet():
    """A half-plane and its boundary line pass verify_prefan; the line is a
    facet of the half-plane that no other cone holds."""
    prefan = make_prefan([HALF, LINE])
    verify_prefan(prefan)
    assert not covers(prefan)
    assert covers(make_prefan([HALF, LINE, make_cone(2, [(0, 1)])]))


def test_covers_counts_a_repeated_cone_once():
    """A repeated maximal cone leaves the union unchanged; the sample-grid
    oracle counts it twice across each of its facets."""
    prefan = make_prefan(_QUADRANT_FAN + [QUADRANT])
    verify_prefan(prefan)
    assert covers(prefan)
    assert not oracles.sample_grid_covers(prefan)


def test_verify_prefan_caches_no_intersection():
    """make_prefan and verify_prefan ask the generators cache about at most
    the cones they are given: the intersections of the pair checks bypass
    it.  Misses are counted, not the size, which stops growing once the
    cache is full."""
    datum = root_data.build_named("A3")
    cones = type_geometry.prefan_of_type(datum, frozenset({1})).cones
    before = generators.cache_info().misses
    verify_prefan(make_prefan(cones))
    assert generators.cache_info().misses - before <= len(cones)


def test_certifying_a_w_built_family_reads_its_carried_generators(monkeypatch):
    """verify_prefan and covers read every cone's rays off the prefan: on
    the prefan of A3 at {a2} and the B3 Weyl fan they ask generators about
    none of the family's cones, and run the double description once per
    pair of maximal cones, the full-dimensional ones of these complete
    fans, and nowhere else."""
    for prefan in (
        type_geometry.prefan_of_type(root_data.build_named("A3"), frozenset({1})),
        type_geometry.weyl_fan(root_data.build_named("B3")),
    ):
        n = prefan.space_dim
        maximal = sum(1 for c in prefan.cones if dim(c) == n)
        asked, described = [], []
        cached, describe = polyfan.generators, polyfan._double_description
        monkeypatch.setattr(polyfan, "generators", lambda c: asked.append(c) or cached(c))
        monkeypatch.setattr(
            polyfan, "_double_description", lambda c: described.append(c) or describe(c)
        )
        verify_prefan(prefan)
        assert covers(prefan)
        monkeypatch.undo()
        assert not set(asked) & set(prefan.cones)
        assert len(described) == maximal * (maximal - 1) // 2 > 0


def test_generators_is_the_one_bounded_memo_table():
    cached = [name for name, obj in vars(polyfan).items() if hasattr(obj, "cache_info")]
    assert cached == ["generators"]
    assert generators.cache_info().maxsize is not None


def _stratum_contexts():
    data = (("A3", {0}), ("B3", {0}), ("C3", {0, 1}), ("G2", {0}))
    return [apartment.make_context(root_data.build_named(n), t) for n, t in data] + [
        gl_models.gl_context(d) for d in range(2, 6)
    ]


def test_one_pass_boundary_reads_match_the_span_basis_oracles():
    """dim, the BoundaryPoint residual, in_relative_interior and
    eval_at_boundary, read off a stratum cone's (lineality, rays), agree
    with their span-basis definitions on every stratum cone of eight
    contexts: for every chart generator and its negation, at seeded
    integer, rational and zero points and at the relative interior point
    of every stratum (those of the lower-dimensional ones lie on walls)."""
    rng = random.Random(67)
    for ctx in _stratum_contexts():
        n = ctx.datum.rank
        cones = ctx.prefan.cones
        functionals = sorted(
            {g for _, psi in ctx.charts for a in psi for g in (a, linalg.neg_int(a))}
        )
        integer = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(3)]
        rational = [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            for _ in range(3)
        ]
        walls = [relative_interior_point(c) for c in cones]
        points = integer + rational + [(0,) * n] + walls
        residuals = [integer[0], rational[0], (0,) * n, rng.choice(walls)]
        for c in cones:
            _check_one_pass_reads(c, points, residuals, functionals)


def _check_one_pass_reads(cone, points, residuals, functionals):
    assert dim(cone) == oracles.span_dim(cone), cone
    assert polyfan.implied_equalities(cone) == oracles.implied_equalities(cone), cone
    assert polyfan.span_basis(cone) == oracles.span_basis(cone), cone
    for u in points:
        assert in_relative_interior(cone, u) == oracles.fraction_in_relative_interior(cone, u), (
            cone, u)
    for u in residuals:
        x = BoundaryPoint(cone, linalg.vec(u))
        assert x.residual == oracles.span_residual(cone, u), (cone, u)
        for f in functionals:
            try:
                expected = oracles.span_eval_at_boundary(x, f)
            except IndeterminateValueError:
                with pytest.raises(IndeterminateValueError):
                    eval_at_boundary(x, f)
            else:
                assert eval_at_boundary(x, f) == expected, (cone, u, f)


@pytest.mark.parametrize("name", ("A1xA1", "A2", "B2", "G2", "A3", "B3", "C3"))
def test_covers_matches_the_sample_grid_oracle_on_every_fan(name):
    datum = root_data.build_named(name)
    fans = [type_geometry.weyl_fan(datum)] + [
        type_geometry.prefan_of_type(datum, t) for t in oracles.all_type_labels(datum.rank)
    ]
    for fan in fans:
        verify_prefan(fan)
        assert covers(fan) and oracles.sample_grid_covers(fan)


@st.composite
def _arrangement_fan(draw):
    """The cones of a complete fan in dimension 2 or 3: every face of every
    chamber of an arrangement of up to four random hyperplanes through the
    origin (none at all gives the whole space; fewer than n independent
    ones give lineality), each once."""
    n = draw(st.integers(min_value=2, max_value=3))
    normals = draw(st.lists(st.tuples(*[_row] * n), max_size=4))
    chambers = {}
    for signs in product((1, -1), repeat=len(normals)):
        c = make_cone(n, [tuple(s * x for x in h) for s, h in zip(signs, normals)])
        if dim(c) == n:
            chambers.setdefault(polyfan._canonical_key(c), c)
    return list(chambers.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_covers_matches_the_sample_grid_oracle_on_random_families(data):
    """Face-closed families that pass verify_prefan: the faces of all
    chambers of a random arrangement, of all but one, of some of them, or
    of one or two random cones; at times with one cone repeated, in a
    random order.  The oracle sees each cone once: it counts a repeated
    maximal cone twice across a facet."""
    kind = data.draw(st.sampled_from(("all", "all but one", "some", "random cones")))
    if kind == "random cones":
        n = data.draw(st.integers(min_value=2, max_value=3))
        chambers = data.draw(st.lists(_random_cone(n), min_size=1, max_size=2))
    else:
        chambers = data.draw(_arrangement_fan())
        if kind == "all but one" and len(chambers) > 1:
            chambers.pop(data.draw(st.integers(0, len(chambers) - 1)))
        elif kind == "some":
            chambers = data.draw(st.lists(st.sampled_from(chambers), unique=True, min_size=1))
    faces_of = {}
    for c in chambers:
        for f in faces(c):
            faces_of.setdefault(polyfan._canonical_key(f), f)
    cones = list(faces_of.values())
    assume(_verdict(verify_prefan, make_prefan(cones)) is None)
    repeated = data.draw(st.lists(st.sampled_from(cones), max_size=1))
    prefan = make_prefan(data.draw(st.permutations(cones + repeated)))
    verify_prefan(prefan)
    assert covers(prefan) == oracles.sample_grid_covers(make_prefan(cones))


def test_every_type_of_a4_is_certified():
    started = time.monotonic()
    datum = root_data.build_named("A4")
    for t in oracles.all_type_labels(datum.rank):
        prefan = type_geometry.prefan_of_type(datum, t)
        verify_prefan(prefan)
        assert covers(prefan), sorted(t)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


@pytest.mark.parametrize("name", ("A2", "B2", "G2", "A3", "B3", "C3", "A4"))
def test_full_dimensional_test_of_covers_agrees_with_dim(name, monkeypatch):
    """covers reads the facets of exactly the cones whose dim is the
    ambient dimension, in order."""
    datum = root_data.build_named(name)
    fans = [type_geometry.weyl_fan(datum)] + [
        type_geometry.prefan_of_type(datum, t) for t in oracles.all_type_labels(datum.rank)
    ]
    facet_table = polyfan._facet_table
    read = []
    monkeypatch.setattr(
        polyfan, "_facet_table", lambda c, rays: read.append(c) or facet_table(c, rays)
    )
    for fan in fans:
        del read[:]
        covers(fan)
        assert read == [c for c in fan.cones if dim(c) == c.space_dim]


def test_extended_value_arithmetic_and_order():
    a = finite(Fraction(1, 2))
    b = finite(-2)
    assert a + b == finite(Fraction(-3, 2))
    assert NEG_INF + a == NEG_INF
    assert a + POS_INF == POS_INF
    assert NEG_INF < b < a < POS_INF
    assert str(a) == "1/2" and str(NEG_INF) == "-inf" and str(POS_INF) == "inf"
    with pytest.raises(IndeterminateValueError):
        _ = NEG_INF + POS_INF


def test_boundary_point_residual_is_canonical():
    ray = make_cone(2, [], [(1, -1)])  # the line x = y
    p1 = BoundaryPoint(stratum=ray, residual=(Fraction(3), Fraction(0)))
    p2 = BoundaryPoint(stratum=ray, residual=(Fraction(5), Fraction(2)))
    assert p1.residual == p2.residual  # (5,2)-(3,0) = (2,2) lies in the span
    assert p1 == p2
    # Canonical from construction on: the residual reduced modulo the span.
    assert p1.residual == (0, -3)
    assert repr(p1) == (
        "BoundaryPoint(stratum=Cone(space_dim=2, ineqs=(), eqs=((1, -1),)),"
        " residual=(Fraction(0, 1), Fraction(-3, 1)))"
    )


def test_eval_at_boundary_cases():
    point = BoundaryPoint(stratum=make_cone(2, [(0, -1)], [(1, 0)]), residual=(7, 5))
    # stratum: x = 0, y >= 0 (the upward ray); span = y-axis
    assert eval_at_boundary(point, (1, 0)) == finite(7)      # vanishes on span
    assert eval_at_boundary(point, (0, -1)) == NEG_INF       # -y <= 0 on cone
    assert eval_at_boundary(point, (0, 1)) == POS_INF
    mixed = make_cone(2, [])
    whole = BoundaryPoint(stratum=mixed, residual=(0, 0))
    with pytest.raises(IndeterminateValueError):
        eval_at_boundary(whole, (1, 0))


def test_stratum_closure_on_the_quadrant_fan():
    quads = [
        make_cone(2, [(-1, 0), (0, -1)]),
        make_cone(2, [(0, -1)], [(1, 0)]),
        ORIGIN,
    ]
    prefan = make_prefan([QUADRANT, quads[1], ORIGIN])
    assert len(stratum_closure(ORIGIN, prefan)) == 3
    assert len(stratum_closure(QUADRANT, prefan)) == 1


def test_generators_deterministic():
    skew = make_cone(3, [(-1, -2, 0), (1, -1, 0), (0, 0, -1)])
    assert generators(skew) == generators(
        make_cone(3, [(-1, -2, 0), (1, -1, 0), (0, 0, -1)])
    )


def test_covers_random_shifted_fans():
    # rotate the quadrant fan by a unimodular map; covering must persist
    rng = random.Random(41)
    for _ in range(5):
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        mat = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (b, 1))

        def tw(phi):
            return (
                phi[0] * mat[0][0] + phi[1] * mat[1][0],
                phi[0] * mat[0][1] + phi[1] * mat[1][1],
            )

        quads = [
            make_cone(2, [tw((-1, 0)), tw((0, -1))]),
            make_cone(2, [tw((1, 0)), tw((0, -1))]),
            make_cone(2, [tw((1, 0)), tw((0, 1))]),
            make_cone(2, [tw((-1, 0)), tw((0, 1))]),
            make_cone(2, [tw((0, -1))], [tw((1, 0))]),
            make_cone(2, [tw((0, 1))], [tw((1, 0))]),
            make_cone(2, [tw((-1, 0))], [tw((0, 1))]),
            make_cone(2, [tw((1, 0))], [tw((0, 1))]),
            ORIGIN,
        ]
        prefan = make_prefan(quads)
        verify_prefan(prefan)
        assert covers(prefan)


# ---------------------------------------------------------------------------
# double description and incidence faces against the brute-force oracles

CROSS_CHECK_DATA = ("A1", "A2", "B2", "G2", "A3", "B3", "C3")


def _skeleton_cones(name):
    """Every cone of the Weyl fan and of the prefan of every type, once each,
    in a fixed order."""
    datum = root_data.build_named(name)
    fans = [type_geometry.weyl_fan(datum)] + [
        type_geometry.prefan_of_type(datum, frozenset(t))
        for k in range(datum.rank + 1)
        for t in combinations(range(datum.rank), k)
    ]
    return fans, list(dict.fromkeys(c for fan in fans for c in fan.cones))


def _intersection_pairs(name, fans, cones):
    """Pairs whose intersections are checked: every pair of cones of a
    prefan up to rank 2, and on rank 3 a seeded sample of pairs inside one
    prefan and across prefans (those need not meet in common faces)."""
    if fans[0].space_dim <= 2:
        return [pair for fan in fans for pair in combinations(fan.cones, 2)]
    rng = random.Random(name)
    fans = [fan for fan in fans if len(fan.cones) > 1]
    inside = [tuple(rng.sample(fan.cones, 2)) for fan in rng.choices(fans, k=200)]
    across = [tuple(rng.sample(cones, 2)) for _ in range(100)]
    return inside + across


def _check_common_face(a, b):
    witness = oracles.common_face_witness(a, b)
    if witness is None:
        assert common_face(a, b) == polyfan.Cone(a.space_dim, a.ineqs + b.ineqs, a.eqs + b.eqs)
    else:
        with pytest.raises(FanAxiomViolation) as err:
            common_face(a, b)
        assert err.value.witness == witness


@pytest.mark.parametrize("name", CROSS_CHECK_DATA)
def test_double_description_matches_enumeration(name):
    fans, cones = _skeleton_cones(name)
    for c in cones:
        assert generators(c) == oracles.enumerated_generators(c), c
        assert lineality_basis(c) == oracles.integer_nullspace(c.ineqs + c.eqs, c.space_dim), c
        assert faces(c) == oracles.promoted_faces(c), c
        assert facets(c) == oracles.promoted_facets(c), c
    for a, b in _intersection_pairs(name, fans, cones):
        inter = polyfan.Cone(a.space_dim, a.ineqs + b.ineqs, a.eqs + b.eqs)
        assert generators(inter) == oracles.enumerated_generators(inter)
        _check_common_face(a, b)


_row = st.integers(min_value=-2, max_value=2)


@st.composite
def _random_cone(draw, n=None):
    """An integer cone in dimension <= 5 with up to 8 inequalities and 2
    equalities; small entries make lineality, repeated and opposite
    inequalities (implicit equalities) common."""
    n = n or draw(st.integers(min_value=1, max_value=5))
    rows = st.lists(st.tuples(*[_row] * n), max_size=8)
    return make_cone(n, draw(rows), draw(st.lists(st.tuples(*[_row] * n), max_size=2)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_double_description_on_random_cones(data):
    a = data.draw(_random_cone())
    assert generators(a) == oracles.enumerated_generators(a)
    assert lineality_basis(a) == oracles.integer_nullspace(a.ineqs + a.eqs, a.space_dim)
    assert faces(a) == oracles.promoted_faces(a)
    assert facets(a) == oracles.promoted_facets(a)
    b = data.draw(_random_cone(a.space_dim))
    _check_common_face(a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_one_pass_boundary_reads_on_random_cones(data):
    """The same comparison on random cones, which unlike the stratum cones
    often have lineality, with random functionals and points besides the
    relative interior points of the cone's faces."""
    cone = data.draw(_random_cone())
    n = cone.space_dim
    vectors = st.lists(st.tuples(*[_row] * n), min_size=1, max_size=4)
    functionals = data.draw(vectors) + list(cone.ineqs + cone.eqs)
    points = data.draw(vectors) + [relative_interior_point(f) for f in faces(cone)]
    _check_one_pass_reads(cone, points, points[:3], functionals)


RANK_LE_3 = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")


@lru_cache(maxsize=None)
def _stratifying_cones():
    """Every cone of every stratifying prefan of the named data of rank at
    most 3, each once, in a fixed order."""
    cones = set()
    for name in RANK_LE_3:
        datum = root_data.build_named(name)
        for t in oracles.all_type_labels(datum.rank):
            cones.update(type_geometry.prefan_of_type(datum, t).cones)
    return sorted(cones, key=lambda c: (c.space_dim, c.ineqs, c.eqs))


_COEFFS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=5, max_denominator=9),
    st.fractions(min_value=-2, max_value=0, max_denominator=9),
)
_SCALES = st.builds(Fraction, st.integers(1, 1000), st.integers(1, 97))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_sign_tests_agree_with_the_fraction_oracle(data):
    """On a cone of a stratifying prefan of rank <= 3, a rational point -- a
    combination of the cone's rays and lineality, often on a face or
    outside it, plus at times any point -- and its positive rational
    multiples get the answers of the Fraction tests."""
    cone = data.draw(st.sampled_from(_stratifying_cones()))
    lin, rays = generators(cone)
    n = cone.space_dim
    u = [Fraction(0)] * n
    for v in lin + rays:
        c = data.draw(_COEFFS)
        u = [a + c * b for a, b in zip(u, v)]
    if data.draw(st.booleans()):
        shift = data.draw(st.lists(_COEFFS, min_size=n, max_size=n))
        u = [a + b for a, b in zip(u, shift)]
    inside = oracles.fraction_contains_point(cone, u)
    interior = oracles.fraction_in_relative_interior(cone, u)
    for k in [Fraction(1)] + data.draw(st.lists(_SCALES, min_size=1, max_size=3)):
        point = tuple(k * a for a in u)
        assert contains_point(cone, point) == inside
        assert in_relative_interior(cone, point) == interior
        if all(a.denominator == 1 for a in point):
            ints = tuple(int(a) for a in point)
            assert contains_point(cone, ints) == inside
            assert in_relative_interior(cone, ints) == interior


def _is_int_tuple(v) -> bool:
    return isinstance(v, tuple) and all(type(a) is int for a in v)


def _raised_witness(cones):
    with pytest.raises(FanAxiomViolation) as err:
        verify_prefan(make_prefan(cones))
    return err.value.witness


@pytest.mark.parametrize("name", ("A2", "B2", "G2", "A3", "A1xA1"))
def test_points_axes_directions_and_witnesses_are_integer_tuples(name):
    """At type {a1} (A1xA1 has lineality there): interior points, lineality
    axes, degeneration directions, primitive rays and the witnesses of both
    axioms that verify_prefan checks hold ints, and primitive keeps a sign."""
    datum = root_data.build_named(name)
    t = frozenset({0})
    cones = type_geometry.prefan_of_type(datum, t).cones
    axes = type_geometry.lineality_space(datum, t)
    assert len(axes) == (1 if name == "A1xA1" else 0)
    assert all(_is_int_tuple(a) for a in axes)
    for cone in cones:
        assert _is_int_tuple(relative_interior_point(cone))
        for r in generators(cone)[1]:
            assert linalg.primitive(r) == r
            assert linalg.primitive([-2 * a for a in r]) == linalg.neg_int(r)
    n = datum.rank
    u0, v = gl_models.degeneration_ray(range(n + 1), {0, n})
    assert _is_int_tuple(v) and v == (1,) + (0,) * (n - 2) + (-1,)
    # one face of each lower dimension dropped: face closure fails
    dims = {polyfan.dim(c): i for i, c in enumerate(cones)}
    for d, i in dims.items():
        if d < max(dims):
            witness = _raised_witness(cones[:i] + cones[i + 1:])
            assert _is_int_tuple(witness)
    # a half-space and its wall, closed under faces, cut the cones across
    tilted = make_cone(n, [tuple(range(1, n + 1))])
    witness = _raised_witness(cones + tuple(polyfan.faces(tilted)))
    assert _is_int_tuple(witness)
