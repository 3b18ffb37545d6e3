"""Weyl cones, type cones, relevancy and the stratifying prefan."""

from __future__ import annotations

import pytest

import oracles
from weylscope import linalg, polyfan, root_data, type_geometry
from weylscope.polyfan import cones_equal, dim, make_cone
from weylscope.root_data import (
    ValidationError,
    all_parabolics,
    build_named,
    standard_parabolic,
)
from weylscope.type_geometry import (
    is_relevant,
    lineality_space,
    minimal_relevant,
    prefan_of_type,
    relevance_report,
    rt_decomposition,
    type_cone,
    type_cone_max,
    type_support,
    weyl_cone,
)


def test_weyl_fan_counts_and_dims():
    datum = build_named("A2")
    fan = oracles.weyl_fan(datum)
    assert len(fan.cones) == 13
    dims = sorted(dim(c) for c in fan.cones)
    assert dims == [0] + [1] * 6 + [2] * 6
    polyfan.verify_prefan(fan)
    assert polyfan.covers(fan)


def test_weyl_cone_extremes():
    datum = build_named("A2")
    borel = standard_parabolic(datum, ())
    g = standard_parabolic(datum, (0, 1))
    assert dim(weyl_cone(borel)) == 2
    assert dim(weyl_cone(g)) == 0
    # the dominant chamber: all positive roots >= 0 on its interior
    chamber = weyl_cone(borel)
    p = polyfan.relative_interior_point(chamber)
    for r in datum.positive_roots:
        assert oracles.dot(p, r) > 0


def test_type_cone_max_is_the_chart_cone():
    datum = build_named("A3")
    p = standard_parabolic(datum, (0, 1))  # the hyperplane type of A3
    cone = type_cone_max(p)
    assert frozenset(cone.ineqs) == {(-1, -1, -1), (0, -1, -1), (0, 0, -1)}
    assert cone.eqs == ()


def test_type_cone_splits_chart_inequalities():
    datum = build_named("A3")
    delta = frozenset({0, 1})
    q = standard_parabolic(datum, (0, 2))  # Y = {a1, a3}
    tc = type_cone(q, delta)
    # equalities are the chart functionals landing in the Levi of q
    for e in tc.cone.eqs:
        assert e in q.members or tuple(-c for c in e) in q.members
    assert tc.type_label == delta


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", "A1xA1"])
def test_type_cones_match_the_opposite_parabolic(name):
    """The chart cone and every type cone, read from the roots outside the
    companion, equal those read from its opposite parabolic."""
    if name == "A1xA1":
        datum = root_data.build_from_cartan(((2, 0), (0, 2)))
    else:
        datum = build_named(name)
    for q in all_parabolics(datum):
        assert type_cone_max(q) == make_cone(datum.rank, oracles.opposite_generators(q), ())
        levi = root_data.levi_roots(q)
        for t in oracles.all_type_labels(datum.rank):
            psi = oracles.opposite_generators(root_data.companion(q, t))
            eqs = [a for a in psi if a in levi]
            ineqs = [a for a in psi if a not in levi]
            assert type_cone(q, t).cone == make_cone(datum.rank, ineqs, eqs)


def test_relevance_against_maximality_oracle_small():
    for name in ("A1", "A2", "B2"):
        datum = build_named(name)
        ps = all_parabolics(datum)
        for t in oracles.all_type_labels(datum.rank):
            for q in ps:
                expected = oracles.maximality_relevant(
                    q,
                    t,
                    ps,
                    lambda r, tt: type_cone(r, tt).cone,
                    cones_equal,
                )
                assert is_relevant(q, t) == expected, (name, t, q.members)


def test_standard_relevant_labels_a3_hyperplane_type():
    datum = build_named("A3")
    delta = frozenset({0, 1})
    labels = [
        sorted(y)
        for y in oracles.all_type_labels(3)
        if is_relevant(standard_parabolic(datum, y), delta)
    ]
    assert sorted(labels) == [[0, 1], [0, 1, 2], [0, 2], [1, 2]]


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"]
)
def test_relevant_labels_select_the_relevant_parabolics(name):
    datum = build_named(name)
    parabolics = all_parabolics(datum)
    orbits = root_data.all_orbits(datum)
    for t in oracles.all_type_labels(datum.rank):
        labels = frozenset(root_data.relevant_labels(datum, t))
        by_label = tuple(q for orbit in orbits if orbit.label in labels for q in orbit)
        assert by_label == tuple(q for q in parabolics if is_relevant(q, t))


def test_relevant_labels_checks_the_cap_before_its_walk(monkeypatch):
    """|W(D5)| = 1920 is above the default cap, which also bounds the 2^rank
    labels, so relevant_labels refuses D5 as orbits_of does."""
    monkeypatch.delenv("WEYLSCOPE_ENUM_CAP", raising=False)
    datum = build_named("D5")
    monkeypatch.setitem(root_data._TABLES, datum, root_data.DatumTables(datum))
    with pytest.raises(root_data.EnumerationCapError, match="exceeded cap 1152"):
        root_data.relevant_labels(datum, frozenset({0}))


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "A1xA1", "F4"],
)
def test_label_relevance_agrees_with_the_relevance_report(name):
    """Relevancy read off the label alone, as relevant_labels reads it,
    against the relevance report of the standard parabolic of each label."""
    datum = build_named(name)
    labels = oracles.all_type_labels(datum.rank)
    for t in labels:
        relevant = []
        for y in labels:
            active, forced = root_data._label_relevance(datum, y, t)
            report = relevance_report(standard_parabolic(datum, y), t)
            assert (forced <= y) == report.is_relevant, (t, y)
            assert active == report.active_components
            assert standard_parabolic(datum, y | forced) == report.minimal_relevant
            if report.is_relevant:
                relevant.append(y)
        assert root_data.relevant_labels(datum, t) == tuple(relevant)


def test_relevancy_reads_the_label_without_a_report(monkeypatch):
    """is_relevant, minimal_relevant and rt_decomposition give what the
    relevance report gives, and build none: they read the label of the
    standard position, and the minimal relevant parabolic is its companion.
    type_geometry names nothing that root_data decides."""
    datum = build_named("B3")
    labels = oracles.all_type_labels(datum.rank)
    cases = [(q, t) for q in all_parabolics(datum) for t in labels]
    reports = [relevance_report(q, t) for q, t in cases]

    def refuse(q, t):
        raise AssertionError("built a relevance report")

    monkeypatch.setattr(type_geometry, "relevance_report", refuse)
    for (q, t), rep in zip(cases, reports):
        assert is_relevant(q, t) == rep.is_relevant
        assert minimal_relevant(q, t) == rep.minimal_relevant
        span = set(rep.span_equalities)
        vanishing = set(rt_decomposition(q, t).vanishing)
        assert vanishing == span | {tuple(-c for c in b) for b in span}
    for name in ("relevant_labels", "_osculatory_companion"):
        assert not hasattr(type_geometry, name)


def test_minimal_relevant_is_relevant_and_minimal():
    datum = build_named("B2")
    for t in oracles.all_type_labels(2):
        for q in all_parabolics(datum):
            m = minimal_relevant(q, t)
            assert is_relevant(m, t)
            assert q.members <= m.members
            assert cones_equal(type_cone(q, t).cone, type_cone(m, t).cone)


def test_relevance_report_fields():
    datum = build_named("A3")
    delta = frozenset({0, 1})
    # Y = {a2} is inside delta: no active component, and a1 (orthogonal to
    # nothing) is missing from Y, so not relevant; minimal adjoins all of t
    rep = relevance_report(standard_parabolic(datum, (1,)), delta)
    assert not rep.is_relevant
    assert rep.active_components == frozenset()
    assert rep.span_equalities == ()
    _, y_min = root_data.standard_position(rep.minimal_relevant)
    assert y_min == frozenset({0, 1})
    # Y = {a3} sticks out of delta: active component {a3}, span equality e3
    rep2 = relevance_report(standard_parabolic(datum, (2,)), delta)
    assert rep2.active_components == frozenset({2})
    assert rep2.span_equalities == ((0, 0, 1),)
    cone = type_cone(rep2.query, delta).cone
    for e in rep2.span_equalities:
        assert oracles.functional_vanishes(cone, e)


def dims_equal(q, t) -> bool:
    """Whether the type cone of q has the same dimension as its Weyl cone;
    the type cone must have the dimension its active components give."""
    report = relevance_report(q, t)
    dim_type = dim(type_cone(q, t).cone)
    expected = q.datum.rank - len(report.active_components)
    assert dim_type == expected, (
        f"type cone of parabolic {root_data.parabolic_name(q)} for type"
        f" {root_data.type_name(t)} has dimension {dim_type}, expected {expected}"
    )
    return dim_type == dim(weyl_cone(q))


def test_dims_equal_characterization():
    # equal dimensions exactly when every component of the label is active
    for name in ("A2", "B2"):
        datum = build_named(name)
        for t in oracles.all_type_labels(datum.rank):
            for q in all_parabolics(datum):
                rep = relevance_report(q, t)
                _, y = root_data.standard_position(q)
                assert dims_equal(q, t) == (rep.active_components == y)
    a3 = build_named("A3")
    delta = frozenset({0, 1})
    assert dims_equal(standard_parabolic(a3, ()), delta)       # Borel
    assert not dims_equal(standard_parabolic(a3, (1,)), delta)


def test_prefan_of_type_a2_hyperplane():
    datum = build_named("A2")
    prefan = prefan_of_type(datum, frozenset({0}))
    dims = sorted(dim(c) for c in prefan.cones)
    assert dims == [0, 1, 1, 1, 2, 2, 2]
    polyfan.verify_prefan(prefan)
    assert polyfan.covers(prefan)


def test_type_support_and_lineality():
    datum = build_named("A3")
    # type {a1}: the a1-component of the complement {a2,a3}... support splits
    active, inert = type_support(datum, frozenset({0}))
    assert active | inert <= frozenset(range(3))
    lin = lineality_space(datum, frozenset({0}))
    # lineality is spanned by the inert fundamental directions
    assert len(lin) == len(inert)
    # every maximal cone of the prefan has exactly this lineality
    prefan = prefan_of_type(datum, frozenset({0}))
    top = max(dim(c) for c in prefan.cones)
    for c in prefan.cones:
        if dim(c) == top:
            assert oracles.same_span(polyfan.lineality_basis(c), lin, 3)


def test_rt_decomposition_partitions_levi():
    datum = build_named("B2")
    for t in oracles.all_type_labels(2):
        for q in all_parabolics(datum):
            if not is_relevant(q, t):
                continue
            rt = rt_decomposition(q, t)
            levi = root_data.levi_roots(q)
            assert set(rt.nonvanishing) | set(rt.vanishing) == levi
            assert not set(rt.nonvanishing) & set(rt.vanishing)


def _rt_by_span_basis(q, t):
    """The split of the Levi roots by vanishing on the span basis of the
    type cone, recomputed from its extreme rays."""
    span = polyfan.span_basis(type_cone(q, t).cone)
    vanishing = [
        b for b in sorted(root_data.levi_roots(q))
        if all(linalg.dot(v, b) == 0 for v in span)
    ]
    nonvanishing = sorted(set(root_data.levi_roots(q)) - set(vanishing))
    return tuple(nonvanishing), tuple(vanishing)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_rt_decomposition_matches_the_span_of_the_type_cone(name):
    datum = build_named(name)
    for t in oracles.all_type_labels(datum.rank):
        for q in all_parabolics(datum):
            rt = rt_decomposition(q, t)
            assert (rt.nonvanishing, rt.vanishing) == _rt_by_span_basis(q, t)


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"]
)
def test_weyl_cone_rays_are_conjugate_coweights(name):
    """When standard_position(q) = (w, Y), the Weyl cone of q is strictly
    convex with rays w⁻¹·ω_j for j outside Y, where the fundamental
    coweights ω_j are the unit vectors of these coordinates: w⁻¹·ω_j has
    coordinates <ω_j, w·α_k>, row j of the matrix of w."""
    datum = build_named(name)
    for q in all_parabolics(datum):
        w, y = root_data.standard_position(q)
        matrix = oracles.matrix_element(datum, w.word).matrix
        rays = sorted(matrix[j] for j in range(datum.rank) if j not in y)
        assert polyfan.generators(weyl_cone(q)) == ((), tuple(rays))


def test_union_weyl_oracle_true_for_standard_parabolics():
    datum = build_named("A2")
    for y in oracles.all_type_labels(2):
        assert oracles.union_weyl_oracle(standard_parabolic(datum, y))


def test_union_weyl_oracle_rejects_wrong_cone():
    datum = build_named("A2")
    p = standard_parabolic(datum, (0,))
    wrong = make_cone(2, [(1, 1)])  # a half-plane unrelated to the chart cone
    assert not oracles.union_weyl_oracle(p, wrong)
    assert not oracles.union_weyl_oracle(p, wrong, meets=oracles._relint_meets)


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_sign_tests_agree_with_fourier_motzkin(name):
    """The relative interior test of the criterion 1 oracle, with and
    without its sign tests, on every Weyl cone against the max cone of
    every type; the sign tests must decide some of the cases."""
    datum = build_named(name)
    decided = 0
    for t in oracles.all_type_labels(datum.rank):
        region = type_cone_max(standard_parabolic(datum, t))
        for q in all_parabolics(datum):
            c = weyl_cone(q)
            exact = oracles._relint_meets(c, region)
            assert oracles.relint_meets(c, region) == exact, (sorted(t), q)
            decided += oracles._relint_meets_by_signs(c, region) is not None
    assert decided > 0


def test_type_cone_rejects_bad_type():
    datum = build_named("A2")
    with pytest.raises(ValidationError):
        type_cone(standard_parabolic(datum, (0,)), frozenset({5}))


def test_weyl_fan_deterministic():
    datum = build_named("B2")
    assert oracles.weyl_fan(datum).cones == oracles.weyl_fan(datum).cones


def _assert_carried(family, per_parabolic_cone) -> int:
    """Every cone of the family is the per-parabolic cone of its parabolic,
    and its transported generators and dimension are the double description
    of that cone."""
    prefan = family.prefan
    count = len(prefan.cones)
    assert len(prefan.generators) == len(family.dims) == len(family.parabolics) == count
    for q, cone, pair, d in zip(family.parabolics, prefan.cones, prefan.generators, family.dims):
        assert cone == per_parabolic_cone(q), root_data.parabolic_name(q)
        assert (pair, d) == (polyfan.generators(cone), dim(cone)), root_data.parabolic_name(q)
    return count


_RANK_AT_MOST_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "A1xA1")


@pytest.mark.parametrize("name", _RANK_AT_MOST_4)
def test_orbit_transport_matches_every_cone_of_rank_at_most_4(name):
    """The Weyl fan and the prefan of every type, built one orbit at a time,
    agree cone by cone with weyl_cone and type_cone on each parabolic, and
    their carried rays, lineality and dimension with the double description
    run on each cone."""
    datum = build_named(name)
    checked = _assert_carried(type_geometry.weyl_cone_orbits(datum), weyl_cone)
    for t in oracles.all_type_labels(datum.rank):
        family = type_geometry.type_cone_orbits(datum, t)
        checked += _assert_carried(family, lambda q: type_cone(q, t).cone)
    assert checked > len(all_parabolics(datum))


def test_orbit_transport_matches_every_cone_of_the_f4_fan():
    datum = build_named("F4")
    assert _assert_carried(type_geometry.weyl_cone_orbits(datum), weyl_cone) == 5089
