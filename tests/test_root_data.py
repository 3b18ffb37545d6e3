"""Root data, Weyl elements, parabolic subsets and standard position."""

from __future__ import annotations

import inspect
import random
import sys
import threading

import pytest

import oracles
from weylscope import apartment, cli, gl_models, linalg, polyfan, render, root_data, type_geometry
from weylscope.root_data import (
    EnumerationCapError,
    ValidationError,
    act,
    all_parabolics,
    build_from_cartan,
    build_named,
    compose,
    inverse,
    is_osculatory,
    levi_roots,
    parabolics_of,
    standard_parabolic,
    standard_position,
    unipotent_radical_roots,
    weyl_elements,
)

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "B2": 8, "B3": 18, "C3": 18, "G2": 12, "D4": 24,
    "F4": 48, "B5": 50, "C5": 50, "D5": 40,
}
WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12, "F4": 1152}
PARABOLIC_COUNTS = {"A1": 3, "A2": 13, "A3": 75, "B2": 17, "G2": 25}


def test_root_counts_for_named_data():
    for name, count in ROOT_COUNTS.items():
        datum = build_named(name)
        assert len(datum.roots) == count
        assert len(datum.positive_roots) == count // 2


def test_weyl_orders():
    for name, order in WEYL_ORDERS.items():
        assert len(weyl_elements(build_named(name))) == order


def test_weyl_words_are_shortlex_minimal_and_act_correctly():
    datum = build_named("B2")
    seen = set()
    for w in weyl_elements(datum):
        assert w.matrix not in seen
        seen.add(w.matrix)
        # the stored word reproduces the stored matrix
        mat = root_data.identity_element(datum)
        for i in w.word:
            step = root_data.WeylElement(
                word=(i,), matrix=datum.reflection_matrix(i)
            )
            mat = root_data.compose(datum, mat, step)
        assert mat.matrix == w.matrix
        assert mat.word <= w.word  # compose canonicalizes to ShortLex least


def test_weyl_action_permutes_roots():
    for name in ("A2", "B2", "G2"):
        datum = build_named(name)
        roots = set(datum.roots)
        for w in weyl_elements(datum):
            assert {w.apply(r) for r in roots} == roots


def test_inverse_composes_to_identity():
    datum = build_named("A3")
    for w in weyl_elements(datum):
        back = inverse(datum, w)
        assert root_data.compose(datum, w, back).word == ()


def test_enumeration_cap(monkeypatch):
    monkeypatch.delenv("WEYLSCOPE_ENUM_CAP", raising=False)
    with pytest.raises(EnumerationCapError):
        weyl_elements(build_named("A5"), cap=10)


def test_cap_error_names_the_datum_and_stores_nothing(monkeypatch):
    monkeypatch.delenv("WEYLSCOPE_ENUM_CAP", raising=False)
    for datum, what in (
        (build_named("A5"), "of A5"),
        (build_from_cartan(((2, -3, 0), (-1, 2, 0), (0, 0, 2))), "of a rank-3 datum"),
    ):
        monkeypatch.delitem(root_data._TABLES, datum, raising=False)
        with pytest.raises(EnumerationCapError) as exc:
            weyl_elements(datum, cap=10)
        assert f"{what} exceeded cap 10 at 11 elements" in str(exc.value)
        # Nothing was admitted, so a second cap error still stops at cap + 1.
        with pytest.raises(EnumerationCapError, match=f"{what} exceeded cap 20 at 21 elements"):
            weyl_elements(datum, cap=20)
    # A datum once admitted reports its order against a smaller cap.
    datum = build_named("A3")
    monkeypatch.delitem(root_data._TABLES, datum, raising=False)
    weyl_elements(datum)
    with pytest.raises(EnumerationCapError, match="of A3 exceeded cap 5 at 24 elements"):
        weyl_elements(datum, cap=5)


def test_cap_error_names_the_callers_datum(monkeypatch):
    """Equal data share one table, which keeps the name of the first; the
    cap error names the datum the caller passed, cold or enumerated."""
    monkeypatch.delenv("WEYLSCOPE_ENUM_CAP", raising=False)
    named = build_named("A3")
    unnamed = build_from_cartan(named.cartan)
    monkeypatch.setitem(root_data._TABLES, unnamed, root_data.DatumTables(unnamed))
    for datum, expected in ((named, ("A3", 10, 11)), (unnamed, (None, 10, 11))):
        with pytest.raises(EnumerationCapError) as exc:
            weyl_elements(datum, cap=10)
        assert (exc.value.datum_name, exc.value.cap, exc.value.reached) == expected
    weyl_elements(unnamed)
    for datum, what in ((named, "of A3"), (unnamed, "of a rank-3 datum")):
        with pytest.raises(EnumerationCapError) as exc:
            weyl_elements(datum, cap=5)
        assert f"Weyl enumeration {what} exceeded cap 5 at 24 elements" in str(exc.value)
        assert (exc.value.datum_name, exc.value.cap, exc.value.reached) == (
            datum.name, 5, 24
        )


def test_weyl_elements_is_the_one_function_that_takes_a_cap():
    """The cap bounds the enumeration of W and is given nowhere else."""
    takers = []
    for module in (linalg, root_data, polyfan, type_geometry, apartment, gl_models, render, cli):
        for name, f in vars(module).items():
            if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_"):
                if "cap" in inspect.signature(f).parameters:
                    takers.append(f"{module.__name__}.{name}")
    assert takers == ["weylscope.root_data.weyl_elements"]


def test_a_group_enumerated_under_a_larger_cap_serves_every_lookup(monkeypatch):
    """|W(D5)| = 1920 is above the default cap.  Once weyl_elements has
    enumerated it under an explicit cap, parabolics, type cones and
    contexts read that group without a cap of their own."""
    monkeypatch.delenv("WEYLSCOPE_ENUM_CAP", raising=False)
    datum = build_named("D5")
    monkeypatch.setitem(root_data._TABLES, datum, root_data.DatumTables(datum))
    with pytest.raises(EnumerationCapError, match="exceeded cap 1152"):
        parabolics_of(datum, [frozenset({0})])
    assert len(weyl_elements(datum, cap=1920)) == 1920
    assert len(parabolics_of(datum, [frozenset({0})])) == 960
    everything = frozenset(range(5))
    assert len(type_geometry.type_cone_orbits(datum, everything).prefan.cones) == 1
    assert len(apartment.make_context(datum, everything).charts) == 1


def test_caps_below_one_are_invalid(monkeypatch):
    datum = build_named("A2")
    for cap in (0, -1):
        with pytest.raises(ValidationError, match="at least 1"):
            weyl_elements(datum, cap=cap)
    monkeypatch.setenv("WEYLSCOPE_ENUM_CAP", "0")
    with pytest.raises(ValidationError, match="WEYLSCOPE_ENUM_CAP must be at least 1"):
        weyl_elements(datum)


_PERMUTED = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4")


@pytest.mark.parametrize("name", _PERMUTED + ("A1xA1",))
def test_enumeration_stores_the_permutation_of_every_element(monkeypatch, name):
    if name == "A1xA1":
        datum = build_from_cartan(((2, 0), (0, 2)))
    else:
        datum = build_named(name)
    # A fresh table, so the permutations come from the search.
    monkeypatch.delitem(root_data._TABLES, datum, raising=False)
    elements = weyl_elements(datum)
    (orbit,) = root_data.orbits_of(datum, [frozenset()])
    assert list(orbit.permutations) == [oracles.matrix_permutation(datum, w) for w in elements]
    borel = standard_parabolic(datum, ())
    for w in elements:
        assert act(w, borel).members == {w.apply(r) for r in borel.members}


_KEYED = ("A1xA1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4")


@pytest.mark.parametrize("name", _KEYED)
def test_root_index_enumeration_matches_the_matrix_search(monkeypatch, name):
    """The search on root-index keys gives the elements, words, matrices,
    permutations and inverses of the matrix breadth-first search, and
    compose names each element as it does."""
    datum = build_named(name)
    monkeypatch.delitem(root_data._TABLES, datum, raising=False)
    got = weyl_elements(datum)
    elements, permutations, inverses = oracles.matrix_weyl_group(datum, cap=1152)
    assert [(w.word, w.matrix) for w in got] == [(w.word, w.matrix) for w in elements]
    assert list(root_data.orbits_of(datum, [frozenset()])[0].permutations) == permutations
    assert {w.matrix: inverse(datum, w) for w in got} == inverses
    one = root_data.identity_element(datum)
    assert [root_data.compose(datum, one, w) for w in got] == list(elements)


def test_root_index_enumeration_stops_where_the_matrix_search_does(monkeypatch):
    monkeypatch.delenv("WEYLSCOPE_ENUM_CAP", raising=False)
    for name, cap in (("A5", 10), ("F4", 1151)):
        datum = build_named(name)
        with pytest.raises(EnumerationCapError) as expected:
            oracles.matrix_weyl_group(datum, cap)
        monkeypatch.delitem(root_data._TABLES, datum, raising=False)
        with pytest.raises(EnumerationCapError) as got:
            weyl_elements(datum, cap=cap)
        assert (got.value.cap, got.value.reached) == (expected.value.cap, expected.value.reached)
        # Nothing was admitted, so the error repeats as it was.
        with pytest.raises(EnumerationCapError) as again:
            weyl_elements(datum, cap=cap)
        assert again.value.reached == cap + 1


def test_rank_five_weyl_orders_need_an_explicit_cap():
    for name, order in {"B5": 3840, "C5": 3840, "D5": 1920}.items():
        assert len(weyl_elements(build_named(name), cap=order)) == order
    # Bourbaki's F4 has a1, a2 long and a3, a4 short; C5 is dual to B5.
    assert build_named("F4").cartan[2][1] == -2 and build_named("F4").cartan[1][2] == -1
    assert build_named("C5").cartan == tuple(zip(*build_named("B5").cartan))


_NAMED = (
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
    "D4", "D5", "F4", "G2", "A1xA1",
)


@pytest.mark.parametrize("name", [n for n in _NAMED if n != "A6"])
def test_orbits_match_the_filter_of_the_matrix_search(monkeypatch, name):
    """Every orbit of the coset search, on every label, is W filtered by
    descents as the matrix breadth-first search lists it: the parabolics in
    order, the root permutations, and the inverses by word and matrix.
    B5, C5 and D5 are above the default cap and pass an explicit one."""
    datum = build_named(name)
    order = oracles.weyl_order(datum)
    monkeypatch.setitem(root_data._TABLES, datum, root_data.DatumTables(datum))
    assert len(weyl_elements(datum, cap=max(order, 1152))) == order
    weyl = oracles.matrix_weyl_group(datum, order)
    labels = oracles.all_type_labels(datum.rank)
    for y, orbit in zip(labels, root_data.all_orbits(datum)):
        parabolics, permutations, inverses = oracles.filtered_orbit(datum, y, weyl)
        assert orbit.label == y
        assert [(q.members, orbit.label) for q in orbit] == parabolics, sorted(y)
        assert list(orbit.permutations) == permutations, sorted(y)
        assert list(orbit.inverses) == inverses, sorted(y)


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    cartan = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            cartan[at + i][at : at + len(b)] = row
        at += len(b)
    return cartan


def test_weyl_order_is_read_off_the_root_heights():
    named = {name: build_named(name) for name in _NAMED}
    orders = {name: oracles.weyl_order(datum) for name, datum in named.items()}
    assert {name: root_data.weyl_order(datum) for name, datum in named.items()} == orders
    rng = random.Random(21)
    for _ in range(12):
        names, order = [], 1
        for name in rng.sample(sorted(named), 4):
            if order * orders[name] <= 6000:
                names.append(name)
                order *= orders[name]
        datum = build_from_cartan(_block_diagonal([named[n].cartan for n in names]))
        assert root_data.weyl_order(datum) == oracles.weyl_order(datum) == order, names
    # E6, E7 and E8 in Bourbaki numbering: the chain 1-3-4-5-..., with 2 on 4.
    for rank, order in ((6, 51840), (7, 2903040), (8, 696729600)):
        cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i, j in [(0, 2), (1, 3)] + [(k, k + 1) for k in range(2, rank - 1)]:
            cartan[i][j] = cartan[j][i] = -1
        assert root_data.weyl_order(build_from_cartan(cartan)) == order


def _times(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@pytest.mark.parametrize("name", ("A3", "B3", "G2", "F4"))
def test_compose_inverse_and_standard_position_match_the_oracles(monkeypatch, name):
    """On a fresh table, so every element is named by its descent: the
    inverse of each element, its products with the simple reflections and
    the product of its word are those of the matrix breadth-first search,
    and the standard position of w·B is w^{-1}, what the scan over W finds
    (checked on every element, and by the scan itself on up to 48)."""
    datum = build_named(name)
    monkeypatch.setitem(root_data._TABLES, datum, root_data.DatumTables(datum))
    elements, _, inverses = oracles.matrix_weyl_group(datum, cap=1152)
    element_of = {w.matrix: w for w in elements}
    borel = standard_parabolic(datum, ())
    moved = {}
    for w in elements:
        p = moved[w] = root_data.ParabolicSet(datum=datum, members=act(w, borel).members)
        assert standard_position(p) == (inverses[w.matrix], frozenset())
        assert inverse(datum, w) == inverses[w.matrix]
        assert root_data.element_of_word(datum, w.word) == w
        for j in range(datum.rank):
            s_j = root_data.WeylElement(word=(j,), matrix=datum.reflection_matrix(j))
            assert compose(datum, w, s_j) == element_of[_times(w.matrix, s_j.matrix)]
            assert compose(datum, s_j, w) == element_of[_times(s_j.matrix, w.matrix)]
    for w in random.Random(name).sample(elements, min(48, len(elements))):
        assert oracles.scanned_standard_position(moved[w]) == standard_position(moved[w])


def _labelled(orbits):
    """(members, label) of each parabolic of the orbits, in order."""
    return [(q.members, orbit.label) for orbit in orbits for q in orbit]


def test_f4_parabolics_are_the_orbits_of_the_standard_ones():
    datum = build_named("F4")
    orbits = oracles.orbit_parabolics(datum)
    assert _labelled(root_data.all_orbits(datum)) == orbits
    assert [q.members for q in all_parabolics(datum)] == [m for m, _ in orbits]


def test_cartan_validation():
    with pytest.raises(ValidationError):
        build_from_cartan(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(ValidationError):
        build_from_cartan(((1, 0), (0, 2)))  # diagonal must be 2
    with pytest.raises(ValidationError):
        build_from_cartan(((2, -1), (0, 2)))  # zero pattern must be symmetric


def test_parabolic_counts_match_brute_force():
    for name in ("A1", "A2", "B2", "G2", "A3"):
        datum = build_named(name)
        mine = {p.members for p in all_parabolics(datum)}
        brute = oracles.brute_force_parabolics(datum.roots)
        assert mine == brute
        assert len(mine) == PARABOLIC_COUNTS[name]


def test_all_parabolics_is_deterministic_and_tagged():
    datum = build_named("B2")
    first = all_parabolics(datum)
    second = all_parabolics(datum)
    assert first == second
    assert first == tuple(p for orbit in root_data.all_orbits(datum) for p in orbit)
    for orbit in root_data.all_orbits(datum):
        for p in orbit:
            w, y = standard_position(p)
            assert y == orbit.label
            std = standard_parabolic(datum, y)
            assert act(w, p).members == std.members


def test_standard_position_word_is_minimal(monkeypatch):
    names = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
    data = [build_named(name) for name in names] + [build_from_cartan(((2, 0), (0, 2)))]
    for datum in data:
        # A fresh table, so the descent computes every position, not the seed.
        monkeypatch.delitem(root_data._TABLES, datum, raising=False)
        orbits = oracles.orbit_parabolics(datum)
        checked = orbits
        if datum.name in ("B4", "C4"):
            checked = random.Random(datum.name).sample(orbits, 300)
        scanned = {}
        for members, _ in checked:
            p = root_data.ParabolicSet(datum=datum, members=members)
            scanned[members] = oracles.scanned_standard_position(p)
            assert standard_position(p) == scanned[members]
        parabolics = all_parabolics(datum)
        assert _labelled(root_data.all_orbits(datum)) == orbits
        assert [q.members for q in parabolics] == [m for m, _ in orbits]
        # all_parabolics seeds the positions it finds with the same values.
        for q in parabolics:
            if q.members in scanned:
                assert standard_position(q) == scanned[q.members]


_ORBIT_DATA = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4")


@pytest.mark.parametrize("name", _ORBIT_DATA)
def test_parabolics_of_any_labels_filters_all_parabolics(monkeypatch, name):
    """parabolics_of on a set of labels is all_parabolics filtered by label,
    order included; a fresh table then holds those orbits and seeds the
    standard positions of their members only, and later calls add the
    missing orbits to it."""
    datum = build_named(name)
    everything = _labelled(root_data.all_orbits(datum))
    labels = oracles.all_type_labels(datum.rank)
    rng = random.Random(name)
    subsets = [[], labels[:1], labels[-1:], labels[::-1]]
    subsets += [rng.sample(labels, rng.randint(1, len(labels))) for _ in range(4)]
    for subset in subsets:
        fresh = root_data.DatumTables(datum)
        monkeypatch.setitem(root_data._TABLES, datum, fresh)
        got = parabolics_of(datum, subset)
        assert _labelled(root_data.orbits_of(datum, subset)) == [
            e for e in everything if e[1] in subset
        ]
        assert [q.members for q in got] == [e[0] for e in everything if e[1] in subset]
        assert set(fresh.orbits) == set(subset)
        assert set(fresh.positions) == {q.members for q in got}
    assert _labelled(root_data.orbits_of(datum, labels)) == everything
    assert [q.members for q in parabolics_of(datum, labels)] == [m for m, _ in everything]
    assert [q.members for q in all_parabolics(datum)] == [m for m, _ in everything]


def test_parabolics_of_rejects_labels_out_of_range():
    datum = build_named("A2")
    with pytest.raises(ValidationError, match="out of range"):
        parabolics_of(datum, [frozenset({2})])


def test_standard_position_rejects_non_parabolic_sets():
    datum = build_named("A2")
    a1, a2, a12 = (1, 0), (0, 1), (1, 1)
    for members in ({a1, a2, (-1, -1)}, {a2, a12}):  # not closed; not generating
        p = root_data.ParabolicSet(datum=datum, members=frozenset(members))
        assert oracles.scanned_standard_position(p) is None
        with pytest.raises(ValidationError):
            standard_position(p)


def test_levi_unipotent_partition_and_opposite():
    for name in ("A3", "B2", "G2"):
        datum = build_named(name)
        for p in all_parabolics(datum):
            levi = levi_roots(p)
            rad = unipotent_radical_roots(p)
            assert levi | rad == p.members
            assert not levi & rad
            assert all(tuple(-c for c in r) in levi for r in levi)
            assert all(tuple(-c for c in r) not in p.members for r in rad)
            opp = oracles.opposite(p)
            assert levi_roots(opp) == levi
            assert oracles.opposite(opp).members == p.members
            assert unipotent_radical_roots(opp) == root_data.outside_roots(p)


def test_parabolic_subsets_really_are_parabolic():
    datum = build_named("G2")
    for p in all_parabolics(datum):
        assert oracles.is_parabolic_subset(datum.roots, p.members)


def test_osculatory_matches_definition():
    for name in ("A2", "B2", "G2"):
        datum = build_named(name)
        ps = all_parabolics(datum)
        for p in ps:
            for q in ps:
                inter = p.members & q.members
                expected = oracles.is_parabolic_subset(datum.roots, inter)
                assert is_osculatory(p, q) == expected, (p.members, q.members)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C3", "G2", "F4"])
def test_companion_of_every_label(name):
    """companion(q, Y) is q for the label Y of q's orbit; for every label t,
    companion(q, t) is osculatory with q and is w^{-1}·P_t for the scanned
    standard position (w, Y) of q.  Every parabolic, but a seeded sample
    of F4's."""
    datum = build_named(name)
    pairs = [(q, orbit.label) for orbit in root_data.all_orbits(datum) for q in orbit]
    if name == "F4":
        pairs = random.Random(name).sample(pairs, 24)
    labels = oracles.all_type_labels(datum.rank)
    for q, y in pairs:
        assert root_data.companion(q, y) == q
        for t in labels:
            p = root_data.companion(q, t)
            assert is_osculatory(p, q), (q.members, t)
            assert p == oracles.scanned_companion(q, t), (q.members, t)


def test_act_on_dual_pairs_against_inverse_action():
    datum = build_named("B2")
    rng = random.Random(23)
    for w in weyl_elements(datum):
        back = inverse(datum, w)
        for _ in range(5):
            u = tuple(rng.randint(-4, 4) for _ in range(datum.rank))
            chi = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
            lhs = oracles.dot(root_data.act_on_dual(datum, w, u), chi)
            rhs = oracles.dot(u, back.apply(chi))
            assert lhs == rhs


def test_standard_parabolic_members():
    datum = build_named("A2")
    borel = standard_parabolic(datum, ())
    assert borel.members == frozenset(datum.positive_roots)
    g = standard_parabolic(datum, (0, 1))
    assert g.members == frozenset(datum.roots)
    p1 = standard_parabolic(datum, (0,))
    assert (1, 0) in p1.members and (-1, 0) in p1.members
    assert (0, 1) in p1.members and (0, -1) not in p1.members
    # One table entry per label, shared with the list of every label.
    assert standard_parabolic(datum, [0]) is p1
    labels = oracles.all_type_labels(datum.rank)
    assert [standard_parabolic(datum, y) for y in labels][1] is p1


def test_tables_are_safe_to_share_between_threads():
    # A2 x A1 is built by no other test, so the threads race on empty tables.
    datum = build_from_cartan(((2, -1, 0), (-1, 2, 0), (0, 0, 2)))
    start = threading.Barrier(4)
    results = {}
    errors = []

    def work(k):
        try:
            start.wait(timeout=30)
            elements = weyl_elements(datum)
            inverses = tuple(inverse(datum, w) for w in elements)
            descended = tuple(
                standard_position(act(w, standard_parabolic(datum, y)))
                for y in oracles.all_type_labels(datum.rank)
                for w in elements
            )
            parabolics = all_parabolics(datum)
            positions = tuple(standard_position(q) for q in parabolics)
            results[k] = (elements, inverses, descended, parabolics, positions)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 4
    assert all(r == results[0] for r in results.values())
    assert len(results[0][3]) == PARABOLIC_COUNTS["A2"] * PARABOLIC_COUNTS["A1"]
