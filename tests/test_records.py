"""The library's records: equality, hash, order, immutability and repr, and
an import path that loads neither dataclasses nor inspect."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from weylscope import apartment, gl_models, root_data, type_geometry
from weylscope.polyfan import NEG_INF, finite, make_cone
from weylscope.root_data import ParabolicSet

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
A1_REPR = "RootDatum(rank=1, cartan=((2,),), roots=((-1,), (1,)), coroots=((-2,), (2,)), name='A1')"


def _one_of_each():
    """One record of every class, built the way the library builds them."""
    datum = root_data.build_named("A2")
    t = frozenset({0})
    ctx = apartment.make_context(datum, t)
    p = ctx.parabolics[0]
    x = apartment.interior_point(ctx, (Fraction(-1), Fraction(-2)))
    seminorm = gl_models.make_seminorm(["0", "-1", "-inf"])
    return [
        datum,
        p,
        root_data.orbits_of(datum, [t])[0],
        root_data.weyl_elements(datum)[1],
        finite(1),
        make_cone(2, [(-1, 0)]),
        ctx.prefan,
        x.point,
        type_geometry.type_cone(p, t),
        type_geometry.relevance_report(p, t),
        type_geometry.rt_decomposition(p, t),
        type_geometry.weyl_cone_orbits(datum),
        apartment.make_monomial({0: 1}, 0),
        apartment.make_polynomial([({0: 1}, 0)]),
        ctx,
        x,
        apartment.stratum_apartment(ctx, p),
        apartment.stabilizer_profile(ctx, x),
        seminorm,
    ]


def test_every_record_class_is_covered_and_immutable():
    records = _one_of_each()
    assert len({type(r) for r in records}) == 19
    for r in records:
        field = next(iter(r._fields if hasattr(r, "_fields") else r.__slots__))
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.unknown = None
        assert r == pickle.loads(pickle.dumps(r)), type(r).__name__
        assert hash(r) == hash(pickle.loads(pickle.dumps(r)))


def test_parabolic_equality_hash_and_repr_read_datum_and_members():
    datum = root_data.build_named("A1")
    members = frozenset({(1,), (-1,)})
    p = ParabolicSet(datum=datum, members=members)
    assert ParabolicSet.__slots__ == ("datum", "members")
    assert p == ParabolicSet(datum, members) == root_data.standard_parabolic(datum, {0})
    assert hash(p) == hash(root_data.standard_parabolic(datum, {0})) == hash((datum, members))
    assert repr(p) == f"ParabolicSet(datum={A1_REPR}, members={members!r})"
    assert p != ParabolicSet(datum, frozenset({(1,)}))
    assert p != ParabolicSet(root_data.build_named("A2"), members)
    assert p != (datum, members)
    assert pickle.loads(pickle.dumps(p)) == p


def test_root_datum_equality_and_hash_ignore_the_name():
    named = root_data.build_named("A1")
    unnamed = root_data.build_from_cartan(named.cartan)
    assert named == unnamed and hash(named) == hash(unnamed)
    assert hash(named) == hash((named.rank, named.cartan, named.roots, named.coroots))
    assert repr(named) == A1_REPR
    assert repr(unnamed) == A1_REPR.replace("'A1'", "None")
    assert named != root_data.build_named("A2")
    assert pickle.loads(pickle.dumps(named)).name == "A1"


def test_a_context_is_its_datum_and_type_whatever_it_has_built():
    datum = root_data.build_named("A2")
    built = apartment.make_context(datum, {0})
    assert built.prefan and built.charts
    fresh = apartment.make_context(datum, {0})
    assert built == fresh and hash(built) == hash(fresh) == hash((datum, frozenset({0})))
    assert built != apartment.make_context(datum, {1})
    assert repr(fresh) == f"ApartmentContext(datum={datum!r}, type_label=frozenset({{0}}))"
    for slot in apartment.ApartmentContext.__slots__:
        with pytest.raises(AttributeError):
            setattr(built, slot, None)
        with pytest.raises(AttributeError):
            delattr(built, slot)
    assert pickle.loads(pickle.dumps(built)).prefan == built.prefan


def test_monomials_sort_by_exponents_then_coefficient_then_character():
    mono = apartment.make_monomial
    ms = [mono({0: 1}, 0), mono({0: 1}, -1), mono({}, 5), mono({0: 1, 1: 1}, 0),
          mono({0: 1}, -1, (1,)), mono({1: 1}, NEG_INF)]
    assert sorted(ms) == [ms[2], ms[1], ms[4], ms[0], ms[3], ms[5]]


def test_reprs_are_unchanged():
    assert repr(make_cone(2, [(-1, 0)], [(0, 1)])) == "Cone(space_dim=2, ineqs=((-1, 0),), eqs=((0, 1),))"
    w = root_data.weyl_elements(root_data.build_named("A2"))[3]
    assert repr(w) == "WeylElement(word=(0, 1))"
    assert repr(apartment.make_monomial({0: 2}, Fraction(1, 3), (1,))) == (
        "TropicalMonomial(exponents=((0, 2),), coeff=ExtendedValue(kind=0,"
        " value=Fraction(1, 3)), character=(1,))"
    )


def test_the_import_path_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        " import weylscope.cli, weylscope.apartment, weylscope.gl_models, weylscope.render;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    # -I -S: no site packages and no user paths, so only the library imports.
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
