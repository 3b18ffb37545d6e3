"""End-to-end acceptance gate: one test per contract item, each with an
explicit wall-clock budget.  Everything is exact; there are no tolerances."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import oracles
from weylscope import apartment, gl_models, polyfan, root_data, type_geometry

CORE_NAMES = ("A1", "A2", "A3", "B2", "G2")
RANK_LE_3 = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")


def _budget(started: float, seconds: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds:.0f}s"


def _types(rank: int):
    return oracles.all_type_labels(rank)


def _cone_key(cone):
    lin, rays = polyfan.generators(cone)
    span = tuple(map(tuple, oracles.span_of([list(v) for v in lin], cone.space_dim)))
    return frozenset(rays), span


def _random_tropical(rng: random.Random, n_gens: int) -> apartment.TropicalPolynomial:
    monomials = []
    for _ in range(rng.randint(1, 4)):
        exps = {}
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(n_gens)] = rng.randint(1, 3)
        if rng.random() < 0.1:
            coeff = polyfan.NEG_INF
        else:
            coeff = polyfan.finite(Fraction(rng.randint(-6, 6), rng.randint(1, 2)))
        monomials.append(apartment.make_monomial(exps, coeff))
    if all(m.coeff == polyfan.NEG_INF for m in monomials):
        monomials.append(apartment.make_monomial({}, polyfan.finite(Fraction(-1))))
    return apartment.make_polynomial(monomials)


def _oracle_monomials(f: apartment.TropicalPolynomial):
    return [
        (m.exponents, "-inf" if m.coeff.kind < 0 else m.coeff.value)
        for m in f.monomials
    ]


def test_criterion_01_type_cones_are_unions_of_weyl_cones():
    started = time.monotonic()
    for name in CORE_NAMES:
        datum = root_data.build_named(name)
        for t in _types(datum.rank):
            p = root_data.standard_parabolic(datum, t)
            assert oracles.union_weyl_oracle(p), (name, sorted(t))
    _budget(started, 30.0)


def test_criterion_02_stratifying_prefans_satisfy_fan_axioms():
    started = time.monotonic()
    for name in CORE_NAMES:
        datum = root_data.build_named(name)
        for t in _types(datum.rank):
            prefan = type_geometry.prefan_of_type(datum, t)
            polyfan.verify_prefan(prefan)
            assert polyfan.covers(prefan)
            member_keys = {_cone_key(c) for c in prefan.cones}
            for c in prefan.cones:
                for face in polyfan.faces(c):
                    assert _cone_key(face) in member_keys, (name, sorted(t))
            for i, a in enumerate(prefan.cones):
                for b in prefan.cones[i + 1 :]:
                    polyfan.common_face(a, b)  # raises on a bad pair
            lin = type_geometry.lineality_space(datum, t)
            top = max(polyfan.dim(c) for c in prefan.cones)
            for c in prefan.cones:
                if polyfan.dim(c) == top:
                    assert oracles.same_span(
                        polyfan.lineality_basis(c), lin, datum.rank
                    )
    _budget(started, 30.0)


def test_criterion_03_relevancy_criterion_matches_maximality():
    started = time.monotonic()
    for name in CORE_NAMES:
        datum = root_data.build_named(name)
        parabolics = root_data.all_parabolics(datum)
        for t in _types(datum.rank):
            cones = {}

            def cone_of(q, t=t, cones=cones):
                if q.members not in cones:
                    cones[q.members] = type_geometry.type_cone(q, t).cone
                return cones[q.members]

            for q in parabolics:
                brute = oracles.maximality_relevant(
                    q, t, parabolics, lambda q2, _t: cone_of(q2), polyfan.cones_equal
                )
                assert type_geometry.is_relevant(q, t) == brute, (name, sorted(t))
    # chain data: the proper standard parabolics relevant for the hyperplane
    # type are exactly the maximal ones
    for d in range(1, 6):
        datum = root_data.build_named(f"A{d}")
        delta = gl_models.hyperplane_type(d)
        full = frozenset(range(d))
        got = {
            y
            for y in _types(d)
            if y != full
            and type_geometry.is_relevant(root_data.standard_parabolic(datum, y), delta)
        }
        assert got == {full - {i} for i in range(d)}, d
    _budget(started, 60.0)


def test_criterion_01_on_f4():
    """Criterion 1 on F4 for all sixteen types.  Each type scans all 5,089
    Weyl cones; the sign tests of the oracle decide about nine in ten of
    them, and Fourier-Motzkin the rest."""
    started = time.monotonic()
    datum = root_data.build_named("F4")
    for t in _types(4):
        p = root_data.standard_parabolic(datum, t)
        assert oracles.union_weyl_oracle(p), sorted(t)
    _budget(started, 60.0)


def test_criterion_03_on_f4():
    """Criterion 3 on F4 for every type.  Both sides are W-invariant, so
    the standard parabolic of each label is checked against the whole list,
    together with a seeded sample of 40 parabolics of any position."""
    started = time.monotonic()
    datum = root_data.build_named("F4")
    parabolics = root_data.all_parabolics(datum)
    queries = [root_data.standard_parabolic(datum, y) for y in oracles.all_type_labels(datum.rank)]
    queries += random.Random(4).sample(parabolics, 40)
    for t in _types(datum.rank):
        cones = {}

        def cone_of(q, t=t, cones=cones):
            if q.members not in cones:
                cones[q.members] = type_geometry.type_cone(q, t).cone
            return cones[q.members]

        for q in queries:
            brute = oracles.maximality_relevant(
                q, t, parabolics, lambda q2, _t: cone_of(q2), polyfan.cones_equal
            )
            where = (sorted(t), root_data.parabolic_name(q))
            assert type_geometry.is_relevant(q, t) == brute, where
    _budget(started, 20.0)


def test_criterion_04_chain_type_cones_match_closed_form():
    started = time.monotonic()
    for d in range(1, 6):
        datum = root_data.build_named(f"A{d}")
        delta = gl_models.hyperplane_type(d)
        full = frozenset(range(d))
        for r in range(1, d + 1):
            q = root_data.standard_parabolic(datum, full - {r - 1})
            got = type_geometry.type_cone(q, delta).cone
            want = polyfan.make_cone(
                d,
                [oracles.chain_sum_vector(d, i, d) for i in range(1, r + 1)],
                [oracles.chain_sum_vector(d, i, d) for i in range(r + 1, d + 1)],
            )
            assert polyfan.cones_equal(got, want), (d, r)
    _budget(started, 10.0)


def test_criterion_05_rank_two_hyperplane_stratification():
    started = time.monotonic()
    datum = root_data.build_named("A2")
    delta = gl_models.hyperplane_type(2)
    ctx = apartment.make_context(datum, delta)
    assert len(ctx.parabolics) == 7
    relevant = {
        q.members
        for q in root_data.all_parabolics(datum)
        if type_geometry.is_relevant(q, delta)
    }
    assert {q.members for q in ctx.parabolics} == relevant
    closures = [
        len(polyfan.stratum_closure(c, ctx.prefan)) for c in ctx.prefan.cones
    ]
    pairs = sorted(zip((polyfan.dim(c) for c in ctx.prefan.cones), closures))
    assert pairs == [(0, 7), (1, 3), (1, 3), (1, 3), (2, 1), (2, 1), (2, 1)]
    for c in ctx.prefan.cones:
        if polyfan.dim(c) == 1:
            dims = sorted(
                polyfan.dim(f) for f in polyfan.stratum_closure(c, ctx.prefan)
            )
            assert dims == [1, 2, 2]
    _budget(started, 5.0)


def test_criterion_06_seminorm_semantics():
    started = time.monotonic()
    rng = random.Random(6)
    datum = root_data.build_named("A2")
    ctx = apartment.make_context(datum, gl_models.hyperplane_type(2))
    zero = tuple(Fraction(0) for _ in range(2))

    # (a) at the origin every chart reports the top log-coefficient
    x0 = apartment.interior_point(ctx, zero)
    for _ in range(50):
        f = _random_tropical(rng, 2)
        top = max(m.coeff for m in f.monomials)
        for p, _psi in ctx.charts:
            assert apartment.seminorm_eval(ctx, x0, f, p) == top

    # (b) evaluation is a max-plus semiring morphism at every kind of point
    points = [apartment.interior_point(ctx, (Fraction(3), Fraction(1)))]
    for q in ctx.parabolics:
        u = tuple(Fraction(rng.randint(-5, 5)) for _ in range(2))
        points.append(apartment.stratum_point(ctx, q, u))
    for x in points:
        p, _psi, _ = apartment._accepting_chart(ctx, x)
        for _ in range(100):
            f = _random_tropical(rng, 2)
            g = _random_tropical(rng, 2)
            vf = apartment.seminorm_eval(ctx, x, f, p)
            vg = apartment.seminorm_eval(ctx, x, g, p)
            s = apartment.seminorm_eval(ctx, x, apartment.tropical_sum(f, g), p)
            prod = apartment.seminorm_eval(ctx, x, apartment.tropical_product(f, g), p)
            assert s == max(vf, vg)
            assert prod == vf + vg

    # (c) evaluation at a ray limit equals the limit of ray evaluations
    for _ in range(50):
        u0 = tuple(Fraction(rng.randint(-5, 5)) for _ in range(2))
        v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        lim = apartment.limit_point(ctx, u0, v)
        p, psi, _ = apartment._accepting_chart(ctx, lim)
        for _ in range(20):
            f = _random_tropical(rng, 2)
            got = apartment.seminorm_eval(ctx, lim, f, p)
            want = oracles.ray_limit_eval(u0, v, _oracle_monomials(f), psi)
            assert want != oracles.POS_INF_TOKEN
            if want == oracles.NEG_INF_TOKEN:
                assert got == polyfan.NEG_INF
            else:
                assert got == polyfan.finite(want)
    _budget(started, 60.0)


def test_criterion_07_weyl_directed_rays_converge_to_their_stratum():
    started = time.monotonic()
    rng = random.Random(7)
    cases = [(root_data.build_named("A2"), t) for t in _types(2)]
    cases.append((root_data.build_named("A3"), gl_models.hyperplane_type(3)))
    for datum, t in cases:
        ctx = apartment.make_context(datum, t)
        for y in _types(datum.rank):
            q = root_data.standard_parabolic(datum, y)
            v = polyfan.relative_interior_point(type_geometry.weyl_cone(q))
            target = type_geometry.minimal_relevant(q, t)
            for _ in range(3):
                u0 = tuple(Fraction(rng.randint(-4, 4)) for _ in range(datum.rank))
                lim = apartment.limit_point(ctx, u0, v)
                assert lim.stratum_parabolic.members == target.members
                assert lim.point == apartment.stratum_point(ctx, target, u0).point
                # The geometry, not the formula: the prefan cone holding v
                # in its relative interior, found by scanning the prefan.
                scanned, point = oracles.scanned_limit(ctx, u0, v)
                assert scanned.members == target.members and point == lim.point
    _budget(started, 10.0)


def test_criterion_08_projections_are_functorial_and_relevancy_monotone():
    started = time.monotonic()
    rng = random.Random(8)
    for name in ("A2", "A3"):
        datum = root_data.build_named(name)
        delta = gl_models.hyperplane_type(datum.rank)
        ctx0 = apartment.make_context(datum, frozenset())
        ctxd = apartment.make_context(datum, delta)
        for q in ctxd.parabolics:
            assert type_geometry.is_relevant(q, frozenset())
        mids = [t for t in _types(datum.rank) if t <= delta]
        mid_ctx = {t: apartment.make_context(datum, t) for t in mids}
        for q in ctx0.parabolics:
            u = tuple(Fraction(rng.randint(-4, 4)) for _ in range(datum.rank))
            x = apartment.stratum_point(ctx0, q, u)
            y = apartment.project(ctx0, x, delta)
            target = type_geometry.minimal_relevant(q, delta)
            assert y.stratum_parabolic.members == target.members
            for t in mids:
                z = apartment.project(ctx0, x, t)
                w = apartment.project(mid_ctx[t], z, delta)
                assert w.stratum_parabolic.members == y.stratum_parabolic.members
                assert w.point == y.point
    _budget(started, 10.0)


def test_criterion_09_diagonal_seminorm_dictionary():
    started = time.monotonic()
    rng = random.Random(9)
    for d in range(1, 6):
        ctx = gl_models.gl_context(d)
        samples = []
        if d <= 3:
            for bits in range(1 << (d + 1)):
                ker = frozenset(i for i in range(d + 1) if bits >> i & 1)
                if len(ker) > d:
                    continue
                samples.append(ker)
        else:
            seen = set()
            while len(samples) < 8:
                ker = frozenset(
                    i for i in range(d + 1) if rng.random() < 0.3
                )
                if len(ker) > d or ker in seen:
                    continue
                seen.add(ker)
                samples.append(ker)
        for ker in samples:
            start = [Fraction(rng.randint(-5, 5)) for _ in range(d + 1)]
            vals = ["-inf" if i in ker else start[i] for i in range(d + 1)]
            s = gl_models.make_seminorm(vals)
            assert gl_models.kernel(s) == ker
            x = gl_models.to_apartment_point(s)
            assert apartment.stratum_of(ctx, x).members == gl_models.stratum_label(s).members
            sa = apartment.stratum_apartment(ctx, x.stratum_parabolic)
            assert sa.residual_datum.rank == d - len(ker)
            prof = apartment.stabilizer_profile(ctx, x)
            blocks = oracles.gl_stabilizer_blocks(s)
            assert set(blocks.full_unipotent) == set(prof.full_unipotent)
            assert set(blocks.full_levi) == set(prof.full_levi)
            assert dict(blocks.filtered) == dict(prof.filtered)
            if ker:
                u0, v = gl_models.degeneration_ray(start, ker)
                lim = apartment.limit_point(ctx, u0, v)
                assert lim.stratum_parabolic.members == x.stratum_parabolic.members
                assert lim.point == x.point
    _budget(started, 30.0)


def test_criterion_10_levi_split_parts_are_closed_and_match_blocks():
    started = time.monotonic()
    for name in RANK_LE_3:
        datum = root_data.build_named(name)
        parabolics = root_data.all_parabolics(datum)
        for t in _types(datum.rank):
            for q in parabolics:
                if not type_geometry.is_relevant(q, t):
                    continue
                dec = type_geometry.rt_decomposition(q, t)
                assert oracles.is_closed_subset(datum.roots, dec.nonvanishing)
                assert oracles.is_closed_subset(datum.roots, dec.vanishing)
                assert set(dec.nonvanishing) | set(dec.vanishing) == set(
                    root_data.levi_roots(q)
                )
    for d in range(1, 6):
        datum = root_data.build_named(f"A{d}")
        delta = gl_models.hyperplane_type(d)
        full = frozenset(range(d))
        for r in range(1, d + 1):
            q = root_data.standard_parabolic(datum, full - {r - 1})
            dec = type_geometry.rt_decomposition(q, delta)
            non = {
                gl_models.chi_diff(d, i, j)
                for i in range(r)
                for j in range(r)
                if i != j
            }
            van = {
                gl_models.chi_diff(d, i, j)
                for i in range(r, d + 1)
                for j in range(r, d + 1)
                if i != j
            }
            assert set(dec.nonvanishing) == non, (d, r)
            assert set(dec.vanishing) == van, (d, r)
    _budget(started, 10.0)
