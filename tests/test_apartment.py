"""Compactified apartments: charts, tropical evaluation, strata, projections
and stabilizer profiles."""

from __future__ import annotations

import random
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylscope import apartment, gl_models, linalg, polyfan, root_data, type_geometry
from weylscope.apartment import (
    ChartMismatchError,
    chart_generators,
    chart_membership,
    embed_stratum,
    extract_residual,
    group_seminorm_eval,
    interior_point,
    is_norm,
    levi_projection,
    limit_point,
    make_context,
    make_monomial,
    make_polynomial,
    project,
    seminorm_eval,
    stabilizer_profile,
    stratum_apartment,
    stratum_of,
    stratum_point,
    translate_point,
    tropical_product,
    tropical_sum,
)
from weylscope.polyfan import NEG_INF, finite
from weylscope.root_data import ValidationError, build_named, standard_parabolic


def _ctx(name: str, t):
    return make_context(build_named(name), t)


_RANK_AT_MOST_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "A1xA1")


def _random_poly(rng: random.Random, n_gens: int, characters: int = 0):
    monomials = []
    for _ in range(rng.randint(1, 4)):
        exps = {
            rng.randrange(n_gens): rng.randint(1, 3)
            for _ in range(rng.randint(0, 2))
        }
        coeff = (
            NEG_INF
            if rng.random() < 0.1
            else finite(Fraction(rng.randint(-6, 6), rng.randint(1, 2)))
        )
        char = tuple(rng.randint(-2, 2) for _ in range(characters))
        monomials.append(make_monomial(exps, coeff, char))
    return make_polynomial(monomials)


# ---------------------------------------------------------------------------
# tropical algebra


def test_make_polynomial_merges_and_drops():
    f = make_polynomial(
        [
            make_monomial({0: 1}, 2),
            make_monomial({0: 1}, 5),
            make_monomial({1: 1}, NEG_INF),
        ]
    )
    assert len(f.monomials) == 1
    assert f.monomials[0].coeff == finite(5)


def test_monomial_validation():
    with pytest.raises(ValidationError):
        make_monomial({0: -1}, 0)
    with pytest.raises(ValidationError):
        make_monomial({}, polyfan.POS_INF)


def test_semiring_identities():
    rng = random.Random(2)
    zero = make_polynomial([])
    one = make_polynomial([make_monomial({}, 0)])
    for _ in range(20):
        f = _random_poly(rng, 3)
        assert tropical_sum(f, zero) == f
        assert tropical_product(f, one) == f
        assert tropical_product(f, zero) == zero
        g = _random_poly(rng, 3)
        h = _random_poly(rng, 3)
        assert tropical_sum(f, g) == tropical_sum(g, f)
        assert tropical_product(f, g) == tropical_product(g, f)
        assert tropical_product(f, tropical_sum(g, h)) == tropical_sum(
            tropical_product(f, g), tropical_product(f, h)
        )


def test_characters_add_with_padding():
    a = make_monomial({0: 1}, 0, (1, 2))
    b = make_monomial({1: 1}, 0, (0, 0, 3))
    prod = tropical_product(
        make_polynomial([a]), make_polynomial([b])
    )
    assert prod.monomials[0].character == (1, 2, 3)


# ---------------------------------------------------------------------------
# contexts and membership


def test_context_shape_a2_hyperplane():
    ctx = _ctx("A2", {0})
    assert len(ctx.parabolics) == 7
    assert len(ctx.prefan.cones) == 7
    assert len(ctx.charts) == 3
    for p, psi in ctx.charts:
        assert psi == chart_generators(p)
        assert len(psi) == 2


def test_chart_membership_counts():
    ctx = _ctx("A2", {0})
    # a point of a ray stratum with nonzero residual class lies in exactly
    # one chart ...
    q = ctx.parabolics[3]
    span = polyfan.span_basis(ctx.prefan.cones[3])
    generic_residual = next(
        u
        for u in ((7, 0), (0, 7))
        if not oracles.is_zero(linalg.reduce_mod_span(span, u))
    )
    generic = stratum_point(ctx, q, generic_residual)
    hits = [p for p, _ in ctx.charts if chart_membership(ctx, generic, p)]
    assert len(hits) == 1
    # ... while the base point of the ray lies in the two adjacent charts
    base = stratum_point(ctx, q, (0, 0))
    hits_base = [p for p, _ in ctx.charts if chart_membership(ctx, base, p)]
    assert len(hits_base) == 2


def test_interior_membership_is_cone_membership():
    ctx = _ctx("A2", {0})
    rng = random.Random(13)
    for _ in range(30):
        u = tuple(Fraction(rng.randint(-5, 5)) for _ in range(2))
        x = interior_point(ctx, u)
        for (p, psi), cone in zip(ctx.charts, [None] * 3):
            member = chart_membership(ctx, x, p)
            expected = all(oracles.dot(u, a) <= 0 for a in psi)
            assert member == expected


# ---------------------------------------------------------------------------
# evaluation


def test_seminorm_eval_interior_matches_direct_formula():
    ctx = _ctx("A2", {0})
    p, psi = ctx.charts[0]
    rng = random.Random(17)
    for _ in range(20):
        _, rays = polyfan.generators(type_geometry.type_cone_max(p))
        coeffs = [Fraction(rng.randint(0, 3)) for _ in rays]
        u = tuple(
            sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(2)
        )
        x = interior_point(ctx, u)
        f = _random_poly(rng, len(psi))
        got = seminorm_eval(ctx, x, f, p)
        best = None
        for m in f.monomials:
            val = m.coeff.value + sum(
                n * oracles.dot(u, psi[k]) for k, n in m.exponents
            )
            best = val if best is None or val > best else best
        if best is None:
            assert got == NEG_INF
        else:
            assert got == finite(best)


def test_seminorm_eval_requires_membership():
    ctx = _ctx("A2", {0})
    p, _ = ctx.charts[0]
    outside = interior_point(ctx, (5, 5))
    if not chart_membership(ctx, outside, p):
        with pytest.raises(ChartMismatchError):
            seminorm_eval(ctx, outside, make_polynomial([]), p)


def test_boundary_monomials_die_on_dead_generators():
    ctx = _ctx("A2", {0})
    x = limit_point(ctx, (0, 0), (-1, 0))
    p, psi, vals = apartment._accepting_chart(ctx, x)
    dead = [k for k, v in enumerate(vals) if v.kind < 0]
    assert dead
    f = make_polynomial([make_monomial({dead[0]: 1}, 100)])
    assert seminorm_eval(ctx, x, f, p) == NEG_INF
    g = make_polynomial([make_monomial({dead[0]: 1}, 100), make_monomial({}, -1)])
    assert seminorm_eval(ctx, x, g, p) == finite(-1)


def test_is_norm_only_in_the_interior():
    ctx = _ctx("A2", {0})
    inside = interior_point(ctx, (-2, -1))
    p, _, _ = apartment._accepting_chart(ctx, inside)
    assert is_norm(ctx, inside, p)
    edge = limit_point(ctx, (0, 0), (-1, 0))
    p2, _, _ = apartment._accepting_chart(ctx, edge)
    assert not is_norm(ctx, edge, p2)


def test_group_seminorm_eval_uses_root_indexing():
    datum = build_named("A2")
    f = make_polynomial(
        [make_monomial({0: 1}, 0), make_monomial({}, Fraction(-1, 2))]
    )
    # root index 0 is datum.roots[0]
    u = (Fraction(1), Fraction(0))
    expected = max(oracles.dot(u, datum.roots[0]), Fraction(-1, 2))
    assert group_seminorm_eval(datum, u, f) == expected
    with pytest.raises(ValidationError):
        group_seminorm_eval(datum, u, make_polynomial([]))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "A1xA1"])
def test_chart_and_group_seminorms_agree_at_interior_points(name):
    """At an interior point the value of a chart generator is its pairing
    with u, so the chart seminorm of f is the group seminorm of f with each
    generator key moved to the index of its root."""
    datum = build_named(name)
    rng = random.Random(29)
    for t in oracles.all_type_labels(datum.rank):
        ctx = make_context(datum, t)
        for _ in range(30):
            u = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(datum.rank))
            x = interior_point(ctx, u)
            p, psi, _ = apartment._accepting_chart(ctx, x)
            if psi:
                f = _random_poly(rng, len(psi), characters=rng.randint(0, 2))
            else:  # the chart of type G has no generators
                f = make_polynomial([make_monomial({}, rng.randint(-3, 3))])
            index = {k: datum.roots.index(a) for k, a in enumerate(psi)}
            g = make_polynomial(
                make_monomial({index[k]: n for k, n in m.exponents}, m.coeff, m.character)
                for m in f.monomials
            )
            if not f.monomials:
                assert seminorm_eval(ctx, x, f, p) == NEG_INF
                continue
            assert seminorm_eval(ctx, x, f, p) == finite(group_seminorm_eval(datum, u, g))


@pytest.mark.parametrize("key", [99, 2, -1])
def test_an_out_of_range_key_is_refused_wherever_the_point_lies(key):
    """A key outside the chart is refused at an interior point, a stratum
    point and a ray limit alike, also where an earlier generator of its
    monomial sits at -inf; the group big cell refuses a key outside the
    roots for every u."""
    ctx = _ctx("A2", {0})
    q = standard_parabolic(ctx.datum, (0,))
    points = (
        interior_point(ctx, (1, 2)),
        stratum_point(ctx, q, (1, 2)),
        limit_point(ctx, (1, 2), (-1, 0)),
    )
    f = make_polynomial([make_monomial({0: 1, key: 1}, 0)])
    text = rf"^generator index {key} out of range for a chart with 2 generators$"
    for x in points:
        p, _, values = apartment._accepting_chart(ctx, x)
        assert (values[0].kind < 0) == (x is not points[0])
        with pytest.raises(ValidationError, match=text):
            seminorm_eval(ctx, x, f, p)
    bad = key * len(ctx.datum.roots)
    g = make_polynomial([make_monomial({0: 1, bad: 1}, 0)])
    for u in ((1, 2), (0, 0)):
        with pytest.raises(ValidationError, match=rf"^root index {bad} out of range$"):
            group_seminorm_eval(ctx.datum, u, g)


# ---------------------------------------------------------------------------
# strata


def test_stratum_of_agrees_with_construction():
    ctx = _ctx("A2", {0})
    rng = random.Random(29)
    for q, cone in zip(ctx.parabolics, ctx.prefan.cones):
        for _ in range(3):
            residual = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2))
            x = stratum_point(ctx, q, residual)
            assert stratum_of(ctx, x).members == q.members


def _oracle_data():
    names = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
    data = [build_named(n) for n in names] + [root_data.build_from_cartan(((2, 0), (0, 2)))]
    return [
        make_context(datum, y)
        for datum in data
        for y in oracles.all_type_labels(datum.rank)
    ] + [gl_models.gl_context(d) for d in range(1, 5)]


def test_stratum_of_agrees_with_the_scan_over_every_stratum():
    """stratum_of verifies the stored parabolic; the exactly-one scan over
    the relevant parabolics finds the same one at an interior point and at
    a point of every stratum of every type.  The limit of a ray into the
    relative interior of a stratum cone is that same point."""
    rng = random.Random(37)
    for ctx in _oracle_data():
        n = ctx.datum.rank
        points = [interior_point(ctx, [rng.randint(-3, 3) for _ in range(n)])]
        for q, cone in zip(ctx.parabolics, ctx.prefan.cones):
            residual = [rng.randint(-3, 3) for _ in range(n)]
            points.append(stratum_point(ctx, q, residual))
            ray = limit_point(ctx, residual, polyfan.relative_interior_point(cone))
            assert ray == points[-1]
        for x in points:
            found = stratum_of(ctx, x)
            assert found is x.stratum_parabolic
            assert oracles.scanned_stratum(ctx, x).members == found.members


@pytest.mark.parametrize("stored,wrong", [(6, 2), (0, 5)])
def test_stratum_of_rejects_a_stored_stratum_off_the_pattern(stored, wrong):
    """A point of the stratum of ctx.parabolics[stored] that claims the
    stratum of ctx.parabolics[wrong]: in the first case the wrong stratum
    is osculatory with the chart and only the -inf pattern rejects it, in
    the second the pattern fits and only osculation rejects it."""
    ctx = _ctx("A2", {0})
    x = stratum_point(ctx, ctx.parabolics[stored], (-2, -1))
    claim = apartment.CompactApartmentPoint(x.point, ctx.parabolics[wrong])
    with pytest.raises(ValidationError, match=r"disagrees .* chart \{a1\}"):
        stratum_of(ctx, claim)


def test_stratum_of_rejects_a_stored_stratum_that_is_not_relevant():
    """The -inf pattern of a point of the {a1} stratum fits the Borel, which
    is osculatory with the chart but indexes no stratum of type {a1}."""
    ctx = _ctx("A2", {0})
    x = stratum_point(ctx, ctx.parabolics[0], (0, 0))
    claim = apartment.CompactApartmentPoint(x.point, standard_parabolic(ctx.datum, ()))
    with pytest.raises(ValidationError, match=r"parabolic \{\} does not index .* type \{a1\}"):
        stratum_of(ctx, claim)


@pytest.mark.parametrize("name", _RANK_AT_MOST_4 + ("F4",))
def test_distinct_relevant_parabolics_have_distinct_type_cones(name):
    """The prefan cones of a context, one per t-relevant parabolic, have
    pairwise distinct canonical keys on every type: the strata are indexed
    one-to-one by the relevant parabolics, so a point's cone names its
    stratum.  The generators the prefan carries for each cone are those of
    the double description."""
    started = time.monotonic()
    datum = build_named(name)
    for t in oracles.all_type_labels(datum.rank):
        prefan = make_context(datum, t).prefan
        cones = prefan.cones
        assert len({polyfan._canonical_key(c) for c in cones}) == len(cones), sorted(t)
        for i, c in enumerate(cones):
            assert prefan.generators[i] == polyfan.generators(c), (sorted(t), i)
    assert time.monotonic() - started < (20 if name == "F4" else 5)


def _verdict(check, *args):
    """The parabolic check returns for its point, or None when it refuses
    the point."""
    try:
        return check(*args)
    except ValidationError:
        return None


@pytest.mark.parametrize(
    "name,per_type",
    [(name, None) for name in ("A1", "A2", "A3", "B2", "G2", "A1xA1")]
    + [("B3", 20), ("C3", 20), ("A4", 8), ("B4", 8), ("C4", 8), ("D4", 8), ("F4", 6)],
)
def test_stratum_of_accepts_exactly_the_stratum_of_the_point(name, per_type):
    """On every type, a point of a stratum claims its own stratum and other
    relevant parabolics, and stratum_of accepts exactly the first.  The
    check on the values of one chart, which stratum_of runs on the first
    chart holding the point, gives that verdict on every chart holding it.
    Up to G2 that is every stratum against every claim (13,844 wrong
    claims); beyond, where the chart scans make every pair take minutes, a
    seeded sample of per_type strata, each against one other claim."""
    started = time.monotonic()
    datum = build_named(name)
    rng = random.Random(f"verdict {name}")
    for t in oracles.all_type_labels(datum.rank):
        ctx = make_context(datum, t)
        strata = ctx.parabolics
        if per_type is not None:
            strata = rng.sample(strata, min(per_type, len(strata)))
        for q in strata:
            x = stratum_point(ctx, q, [rng.randint(-3, 3) for _ in range(datum.rank)])
            # The values at x of every chart, read once: no claim changes them.
            charts = [(p, psi, apartment._chart_values(x, psi)) for p, psi in ctx.charts]
            held = [chart for chart in charts if chart[2] is not None]
            assert held, sorted(t)
            claims = ctx.parabolics if per_type is None else (q, rng.choice(ctx.parabolics))
            for claimed in claims:
                claim = apartment.CompactApartmentPoint(x.point, claimed)
                expected = claimed if claimed is q else None
                assert _verdict(stratum_of, ctx, claim) is expected, sorted(t)
                for chart in held:
                    verdict = _verdict(apartment._stratum_in_chart, ctx, claim, *chart)
                    assert verdict is expected, (sorted(t), chart[0])
    assert time.monotonic() - started < 10


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"]
)
def test_chart_generators_are_the_opposite_unipotent_radical(name):
    for p in root_data.all_parabolics(build_named(name)):
        assert chart_generators(p) == oracles.opposite_generators(p)


def test_limit_point_takes_the_first_cone_holding_the_direction():
    ctx = _ctx("A2", {0})
    rng = random.Random(31)
    for _ in range(20):
        u0 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        x = limit_point(ctx, u0, v)
        q, point = oracles.scanned_limit(ctx, u0, v)
        k = ctx.parabolics.index(q)
        assert x.point.stratum == ctx.prefan.cones[k]
        assert x.stratum_parabolic == ctx.parabolics[k]
        assert x.point == point


def _limit_directions(rng, datum, count):
    """Directions of every kind a ray limit meets: integer, rational and
    zero, and the relative interior point of the Weyl cone of a random
    parabolic, which lies on a wall of the Weyl fan unless the parabolic
    is a Borel."""
    n = datum.rank
    directions = [(0,) * n]
    directions += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]
    directions += [
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        for _ in range(count)
    ]
    parabolics = root_data.all_parabolics(datum)
    directions += [
        polyfan.relative_interior_point(type_geometry.weyl_cone(rng.choice(parabolics)))
        for _ in range(2 * count)
    ]
    return directions


@pytest.mark.parametrize("name", _RANK_AT_MOST_4 + ("F4",))
def test_limit_point_agrees_with_the_scan_and_builds_no_prefan(name):
    """On every type, limit_point lands where the scan over the prefan
    lands, parabolic, cone and point, while a fresh context's prefan stays
    unbuilt.  Beyond the random directions, walls of the prefan itself:
    sums of some rays of one of its cones, plus its lineality."""
    datum = build_named(name)
    rng = random.Random(f"limit {name}")
    count = 2 if name == "F4" else 4
    for t in oracles.all_type_labels(datum.rank):
        ctx = make_context(datum, t)
        cases = [
            (tuple(rng.randint(-4, 4) for _ in range(datum.rank)), v)
            for v in _limit_directions(rng, datum, count)
        ]
        limits = [limit_point(ctx, u0, v) for u0, v in cases]
        assert ctx._strata is None
        for _ in range(2 * count):
            lin, rays = polyfan.generators(rng.choice(ctx.prefan.cones))
            chosen = [r for r in rays if rng.random() < 0.5] + list(lin)
            v = tuple(sum(g[i] for g in chosen) for i in range(datum.rank))
            u0 = tuple(rng.randint(-4, 4) for _ in range(datum.rank))
            cases.append((u0, v))
            limits.append(limit_point(ctx, u0, v))
        for (u0, v), x in zip(cases, limits):
            q, point = oracles.scanned_limit(ctx, u0, v)
            assert x.stratum_parabolic.members == q.members, (t, v)
            assert x.point == point, (t, v)  # the stratum cone and the residual


@pytest.mark.parametrize("which", ["u0", "v"])
def test_limit_point_checks_the_length_of_both_vectors(which):
    ctx = _ctx("A3", {0})
    for length in (2, 4):
        vectors = {"u0": (1, 2, 3), "v": (0, -1, 1), which: tuple(range(1, length + 1))}
        text = rf"^{which} has length {length}, expected the rank 3$"
        with pytest.raises(ValidationError, match=text):
            limit_point(ctx, vectors["u0"], vectors["v"])


@pytest.mark.parametrize("which", ["interior_point", "stratum_point", "translate_point"])
def test_point_constructors_check_the_length_of_their_vector(which):
    """A vector with other than rank entries is refused, where a residual of
    that length used to be kept, cut or padded without a word."""
    ctx = _ctx("A3", {0})
    q = root_data.standard_parabolic(ctx.datum, (1, 2))
    x = interior_point(ctx, (1, 2, 3))
    name, call, residual = {
        "interior_point": ("u", lambda vector: interior_point(ctx, vector), (1, 2, 3)),
        "stratum_point": ("residual", lambda vector: stratum_point(ctx, q, vector), (0, 2, 3)),
        "translate_point": ("w", lambda vector: translate_point(ctx, x, vector), (2, 4, 6)),
    }[which]
    assert call((1, 2, 3)).point.residual == residual
    for length in (1, 2, 4):
        text = rf"^{name} has length {length}, expected the rank 3$"
        with pytest.raises(ValidationError, match=text):
            call(tuple(range(1, length + 1)))


@pytest.mark.parametrize("which", ["levi_projection", "group_seminorm_eval", "extract"])
def test_vector_readers_check_the_length_of_their_vector(which):
    """levi_projection, group_seminorm_eval and StratumApartment.extract
    refuse a vector with other than rank entries, which they used to zip,
    cutting or padding it without a word."""
    ctx = _ctx("A3", {0})
    q = standard_parabolic(ctx.datum, (0, 1))
    f = make_polynomial([make_monomial({0: 1}, 0)])
    call = {
        "levi_projection": lambda u: levi_projection(ctx.datum, u, q),
        "group_seminorm_eval": lambda u: group_seminorm_eval(ctx.datum, u, f),
        "extract": lambda u: stratum_apartment(ctx, q).extract(u),
    }[which]
    call((1, 2, 3))
    for length in (1, 5):
        text = rf"^u has length {length}, expected the rank 3$"
        with pytest.raises(ValidationError, match=text):
            call(tuple(range(1, length + 1)))


def test_limit_and_translate_point_on_the_quadrant_fan():
    # A1 x A1 with the empty type: its prefan is the fan of the four quadrants
    datum = root_data.build_from_cartan(((2, 0), (0, 2)), name="A1xA1")
    ctx = make_context(datum, ())
    limit = limit_point(ctx, (3, 4), (1, 0))
    x_ray = polyfan.make_cone(2, [(-1, 0)], [(0, 1)])  # x >= 0, y = 0
    assert polyfan.cones_equal(limit.point.stratum, x_ray)
    assert polyfan.eval_at_boundary(limit.point, (0, 1)) == finite(4)
    moved = translate_point(ctx, limit, (10, 1))
    assert polyfan.eval_at_boundary(moved.point, (0, 1)) == finite(5)
    diagonal = limit_point(ctx, (0, 0), (2, 3))
    quadrant = polyfan.make_cone(2, [(-1, 0), (0, -1)])
    assert polyfan.cones_equal(diagonal.point.stratum, quadrant)


def test_translate_point_moves_residual():
    ctx = _ctx("A2", {0})
    x = limit_point(ctx, (1, 2), (-1, 0))
    y = translate_point(ctx, x, (5, 5))
    assert y.stratum_parabolic == x.stratum_parabolic
    expected = polyfan.BoundaryPoint(
        stratum=x.point.stratum, residual=(Fraction(6), Fraction(7))
    )
    assert y.point.residual == expected.residual


def test_stratum_apartment_round_trip():
    for name, t in (("A2", {0}), ("A3", {0, 1}), ("B2", {1})):
        ctx = _ctx(name, t)
        rng = random.Random(37)
        for q in ctx.parabolics:
            sa = stratum_apartment(ctx, q)
            r = sa.residual_datum.rank
            for _ in range(3):
                y = tuple(Fraction(rng.randint(-5, 5)) for _ in range(r))
                assert sa.extract(sa.embed(y)) == y
                x = embed_stratum(ctx, y, q)
                assert extract_residual(ctx, x) == y


def test_stratum_apartment_needs_relevance():
    ctx = _ctx("A3", {0, 1})
    q = standard_parabolic(ctx.datum, (1,))  # not relevant for this type
    text = r"^parabolic \{a2\} does not index a stratum of type \{a1,a2\} \(not relevant\)$"
    with pytest.raises(ValidationError, match=text):
        stratum_apartment(ctx, q)


# ---------------------------------------------------------------------------
# projections


def test_project_is_identity_on_same_type():
    ctx = _ctx("A2", {0})
    x = stratum_point(ctx, ctx.parabolics[3], (1, 1))
    assert project(ctx, x, {0}) is x


def test_project_rejects_smaller_type():
    ctx = _ctx("A2", {0})
    x = interior_point(ctx, (0, 0))
    with pytest.raises(ValidationError):
        project(ctx, x, frozenset())


def test_project_to_full_type_collapses_everything():
    ctx = _ctx("A2", frozenset())
    rng = random.Random(43)
    targets = set()
    for q in ctx.parabolics:
        x = stratum_point(
            ctx, q, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        )
        y = project(ctx, x, {0, 1})
        targets.add((y.stratum_parabolic.members, y.point.residual))
    assert len(targets) == 1  # single point: the full compactification of G


def test_project_lands_on_minimal_relevant():
    ctx = _ctx("A3", frozenset())
    delta = frozenset({0, 1})
    for q in ctx.parabolics[:40]:
        x = stratum_point(ctx, q, (1, 0, 2))
        y = project(ctx, x, delta)
        expected = type_geometry.minimal_relevant(q, delta)
        assert y.stratum_parabolic.members == expected.members


_PROJECTIONS = (
    ("A2", frozenset({0}), frozenset({0, 1})),
    ("A3", frozenset(), frozenset({0, 1})),
    ("A3", frozenset({1}), frozenset({0, 1, 2})),
    ("B3", frozenset({0}), frozenset({0, 2})),
    ("C3", frozenset({2}), frozenset({1, 2})),
    ("G2", frozenset({1}), frozenset({0, 1})),
)


@lru_cache(maxsize=None)
def _cached_ctx(name, t):
    return make_context(build_named(name), t)


_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_project_commutes_with_translate(data):
    """project(translate(x, w)) = translate(project(x), w): the residual is
    reduced modulo span(C), then modulo span(C') on one side and modulo
    span(C') alone on the other, and span(C) lies in span(C')."""
    name, t, t2 = data.draw(st.sampled_from(_PROJECTIONS))
    ctx = _cached_ctx(name, t)
    n = ctx.datum.rank
    q = data.draw(st.sampled_from(ctx.parabolics))
    residual = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    w = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    x = stratum_point(ctx, q, residual)
    moved_first = project(ctx, translate_point(ctx, x, w), t2)
    projected_first = translate_point(ctx, project(ctx, x, t2), w)
    assert moved_first == projected_first


_LIMIT_CONTEXTS = tuple(
    (name, t) for name in ("A2", "B2", "G2") for t in oracles.all_type_labels(2)
)
_coordinates = st.one_of(st.integers(-6, 6), _rationals)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_limit_commutes_with_translate(data):
    """limit(u0 + w, v) = translate(limit(u0, v), w): v alone picks the
    stratum, and the limit keeps the class of the base point modulo its
    span.  Half the directions are nonnegative integer combinations of the
    rays of one prefan cone, plus its lineality, so that they fall on walls
    and on the origin as well as inside cones."""
    name, t = data.draw(st.sampled_from(_LIMIT_CONTEXTS))
    ctx = _cached_ctx(name, t)
    n = ctx.datum.rank
    vector = st.lists(_coordinates, min_size=n, max_size=n)
    u0, w = data.draw(vector), data.draw(vector)
    if data.draw(st.booleans()):
        v = data.draw(vector)
    else:
        lin, rays = polyfan.generators(data.draw(st.sampled_from(ctx.prefan.cones)))
        weights = [data.draw(st.integers(0, 3)) for _ in rays]
        weights += [data.draw(st.integers(-2, 2)) for _ in lin]
        v = [sum(k * g[i] for k, g in zip(weights, rays + lin)) for i in range(n)]
    shifted = [a + b for a, b in zip(u0, w)]
    assert limit_point(ctx, shifted, v) == translate_point(ctx, limit_point(ctx, u0, v), w)


_SEMIRING_CONTEXTS = tuple(
    (name, t)
    for name, rank in (("A2", 2), ("B2", 2), ("G2", 2), ("A3", 3))
    for t in oracles.all_type_labels(rank)
)


def _tropical_polynomials(generators: int):
    """Polynomials of up to four monomials over the generator indices, with
    rational or -inf coefficients."""
    exponents = (
        st.dictionaries(st.integers(0, generators - 1), st.integers(1, 3), max_size=2)
        if generators
        else st.just({})
    )
    monomial = st.builds(
        make_monomial, exponents, st.one_of(st.just(NEG_INF), _rationals.map(finite))
    )
    return st.lists(monomial, max_size=4).map(make_polynomial)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_seminorm_is_a_semiring_morphism(data):
    """In any chart holding the point, the seminorm of f + g (tropical sum)
    is the max of those of f and g, and that of f * g (tropical product)
    their sum, -inf absorbing: at interior points, at points of a stratum
    and at limits of rays."""
    name, t = data.draw(st.sampled_from(_SEMIRING_CONTEXTS))
    ctx = _cached_ctx(name, t)
    vector = st.lists(_rationals, min_size=ctx.datum.rank, max_size=ctx.datum.rank)
    kind = data.draw(st.sampled_from(("interior", "stratum", "limit")))
    if kind == "interior":
        x = interior_point(ctx, data.draw(vector))
    elif kind == "stratum":
        x = stratum_point(ctx, data.draw(st.sampled_from(ctx.parabolics)), data.draw(vector))
    else:
        x = limit_point(ctx, data.draw(vector), data.draw(vector))
    p = data.draw(st.sampled_from([p for p, _ in ctx.charts if chart_membership(ctx, x, p)]))
    polynomials = _tropical_polynomials(len(chart_generators(p)))
    f, g = data.draw(polynomials), data.draw(polynomials)
    vf, vg = seminorm_eval(ctx, x, f, p), seminorm_eval(ctx, x, g, p)
    assert seminorm_eval(ctx, x, tropical_sum(f, g), p) == max(vf, vg)
    product = NEG_INF if NEG_INF in (vf, vg) else finite(vf.value + vg.value)
    assert seminorm_eval(ctx, x, tropical_product(f, g), p) == product


_NESTED_TYPES = tuple(
    (name, t, t2)
    for name in ("A2", "B2", "G2", "A3", "B3", "C3", "D4")
    for t in oracles.all_type_labels(build_named(name).rank)
    for t2 in oracles.all_type_labels(build_named(name).rank)
    if t <= t2
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_limit_commutes_with_project(data):
    """For t inside t', projecting the limit of type t to t' gives the
    limit of type t': the minimal t'-relevant parabolic over the minimal
    t-relevant one over P_v is the minimal t'-relevant one over P_v, and
    both sides keep the class of u0 modulo the same span.  Half the
    directions are sums of rays of one type-t cone, so that they fall on
    walls."""
    name, t, t2 = data.draw(st.sampled_from(_NESTED_TYPES))
    ctx, ctx2 = _cached_ctx(name, t), _cached_ctx(name, t2)
    n = ctx.datum.rank
    vector = st.lists(_coordinates, min_size=n, max_size=n)
    u0 = data.draw(vector)
    if data.draw(st.booleans()):
        v = data.draw(vector)
    else:
        lin, rays = polyfan.generators(data.draw(st.sampled_from(ctx.prefan.cones)))
        weights = [data.draw(st.integers(0, 3)) for _ in rays]
        weights += [data.draw(st.integers(-2, 2)) for _ in lin]
        v = [sum(k * g[i] for k, g in zip(weights, rays + lin)) for i in range(n)]
    projected = project(ctx, limit_point(ctx, u0, v), t2)
    direct = limit_point(ctx2, u0, v)
    assert projected.stratum_parabolic.members == direct.stratum_parabolic.members
    assert projected.point == direct.point


# ---------------------------------------------------------------------------
# stabilizers


def test_stabilizer_profile_levels():
    ctx = _ctx("A2", {0})
    q = ctx.parabolics[3]  # the standard {a2} ray stratum
    x = stratum_point(ctx, q, (0, 7))
    prof = stabilizer_profile(ctx, x)
    assert prof.stratum_parabolic.members == q.members
    assert set(prof.full_unipotent) == root_data.unipotent_radical_roots(q)
    levels = dict(prof.filtered)
    assert levels[(0, 1)] == Fraction(-7)
    assert levels[(0, -1)] == Fraction(7)
    assert prof.normalizer_note == "N(k)_x"


def test_stabilizer_interior_point_filters_everything():
    ctx = _ctx("A2", frozenset())
    x = interior_point(ctx, (Fraction(1, 2), Fraction(-1, 3)))
    prof = stabilizer_profile(ctx, x)
    assert prof.full_unipotent == ()
    assert prof.full_levi == ()
    assert len(prof.filtered) == 6
    for a, level in prof.filtered:
        assert level == -oracles.dot(x.point.residual, a)


def test_levi_projection_extremes():
    datum = build_named("A2")
    u = (Fraction(3), Fraction(-2))
    g = standard_parabolic(datum, (0, 1))
    assert levi_projection(datum, u, g) == (Fraction(3), Fraction(-2))
    borel = standard_parabolic(datum, ())
    assert levi_projection(datum, u, borel) == ()
    p1 = standard_parabolic(datum, (0,))
    assert levi_projection(datum, u, p1) == (Fraction(3),)


def test_determinism_of_context_and_stratum():
    ctx1 = make_context(build_named("B2"), {0})
    ctx2 = make_context(build_named("B2"), {0})
    assert ctx1.prefan.cones == ctx2.prefan.cones
    assert [p.members for p in ctx1.parabolics] == [
        p.members for p in ctx2.parabolics
    ]
    x1 = limit_point(ctx1, (1, 2), (0, -1))
    x2 = limit_point(ctx2, (1, 2), (0, -1))
    assert x1.point == x2.point


# ---------------------------------------------------------------------------
# lazy contexts


@pytest.mark.parametrize("name", _RANK_AT_MOST_4)
def test_a_stratum_cone_is_the_prefan_cone_before_and_after_the_prefan_is_built(
    monkeypatch, name
):
    """On fresh tables, the cone _cone_of builds for a relevant parabolic,
    before anything else of the context is built, is the prefan's cone at
    the parabolic's index; once the prefan is built, _cone_of reads it.
    The parabolics come from another table, so that the standard position
    of each is found by descent, as for a parabolic read off a command
    line."""
    datum = build_named(name)
    for t in oracles.all_type_labels(datum.rank):
        monkeypatch.setitem(root_data._TABLES, datum, root_data.DatumTables(datum))
        parabolics = root_data.parabolics_of(datum, root_data.relevant_labels(datum, t))
        monkeypatch.setitem(root_data._TABLES, datum, root_data.DatumTables(datum))
        lazy = make_context(datum, t)
        before = [apartment._cone_of(lazy, q) for q in parabolics]
        assert root_data.DatumTables.of(datum).orbits == {}
        assert lazy.parabolics == parabolics and before == list(lazy.prefan.cones)
        built = make_context(datum, t)
        cones = built.prefan.cones
        assert [apartment._cone_of(built, q) for q in parabolics] == list(cones)


def test_a_parabolic_that_indexes_no_stratum_fails_with_one_text():
    """Neither a parabolic that is not relevant nor one of another datum
    indexes a stratum, whether or not the prefan has been built."""
    ctx = _ctx("A3", {0})
    a3 = standard_parabolic(ctx.datum, (2,))
    b3 = build_named("B3")
    cases = [
        (a3, r"\{a3\}"),
        (root_data.act(root_data.element_of_word(ctx.datum, (1,)), a3), r"\{a3\} w=s2"),
        (standard_parabolic(b3, (0, 1, 2)), r"\{a1,a2,a3\}"),
        (standard_parabolic(b3, (0,)), r"\{a1\}"),
    ]
    for fresh in (True, False):
        if not fresh:
            assert len(ctx.prefan.cones) == len(ctx.parabolics) > 0
        for q, name in cases:
            text = rf"^parabolic {name} does not index a stratum of type \{{a1\}} \(not relevant\)$"
            with pytest.raises(ValidationError, match=text):
                stratum_point(ctx, q, (0, 0, 0))


def test_threads_sharing_a_fresh_context_get_the_single_thread_results(monkeypatch):
    """Eight threads evaluate the same points on one context built on a
    fresh table, each starting at another point, while the interpreter
    switches threads as often as it can: the results are those of one
    thread on a context of its own."""
    datum = build_named("B3")
    t = frozenset({0})
    rng = random.Random(53)
    strata = root_data.parabolics_of(datum, root_data.relevant_labels(datum, t))
    cases = [
        (q, tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)))
        for q in rng.sample(strata, 16)
    ]
    poly = make_polynomial([({0: 1, 2: 1}, 1), ({1: 2}, Fraction(-1, 2))])

    def evaluate(ctx, k):
        q, residual = cases[k]
        x = stratum_point(ctx, q, residual)
        p, _, _ = apartment._accepting_chart(ctx, x)
        ray = limit_point(ctx, residual, polyfan.relative_interior_point(x.point.stratum))
        return x, seminorm_eval(ctx, x, poly, p), stabilizer_profile(ctx, x), ray

    def tables_and_context():
        monkeypatch.setitem(root_data._TABLES, datum, root_data.DatumTables(datum))
        return make_context(datum, t)

    own = tables_and_context()
    expected = [evaluate(own, k) for k in range(len(cases))]
    shared = tables_and_context()
    results = [{} for _ in range(8)]

    def worker(i):
        for j in range(len(cases)):
            k = (i * 2 + j) % len(cases)
            results[i][k] = evaluate(shared, k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got in results:
        assert [got.get(k) for k in range(len(cases))] == expected
    assert shared.charts == own.charts and shared.prefan == own.prefan
