"""Compactified apartment of a fixed type: big-cell charts, tropical
seminorm evaluation at interior and boundary points, stratum identification,
residual apartments with embeddings, projections between types, and
stabilizer profiles.

Everything is log-additive: chart generator values are <u, alpha> with the
boundary value -inf, and a "seminorm" of a polynomial is the max over its
monomials of log-coefficient plus weighted generator values.

The boundary strata are indexed by the t-relevant parabolics, and a point
lies on exactly one of them.  So a context builds nothing when it is made
but checks its type and the cap on |W|: the stratum cone of a parabolic,
its type cone, is built when a point asks for it, the charts when a point
is evaluated, and the whole prefan only when something reads it (the
renderer).  A ray limit reads its stratum off the parabolic of its
direction by Dynkin combinatorics, with no search over the prefan.  A
point command at rank 7 or 8 then builds one stratum cone and the charts
of type t, not every relevant orbit.  The stratum a point stores is
checked on the values of one chart holding it, and any such chart gives
the same verdict: `stratum_of` scans for the first, and `seminorm` checks
on the chart it evaluates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from . import linalg, polyfan, root_data, type_geometry
from .linalg import IntVector, Vector
from .polyfan import BoundaryPoint, Cone, ExtendedValue, NEG_INF, Prefan, finite
from .root_data import ParabolicSet, RootDatum, TypeLabel, ValidationError, WeylElement


class ChartMismatchError(ValidationError):
    """The point lies outside the requested big-cell chart: an input error,
    like every ValidationError."""


# ---------------------------------------------------------------------------
# tropical polynomials


class TropicalMonomial(NamedTuple):
    """One monomial: exponents over generator indices (sorted, positive),
    a log-magnitude coefficient, and an optional character tag (weight zero
    in every evaluation; only used by the group big cell)."""

    exponents: Tuple[Tuple[int, int], ...]
    coeff: ExtendedValue
    character: Tuple[int, ...] = ()


class TropicalPolynomial(NamedTuple):
    """Finite max-plus combination of monomials; the empty combination is
    the zero polynomial (value -inf everywhere)."""

    monomials: Tuple[TropicalMonomial, ...]


def make_monomial(exponents, coeff, character: Sequence[int] = ()) -> TropicalMonomial:
    if isinstance(exponents, dict):
        items = exponents.items()
    else:
        items = exponents
    cleaned = []
    for k, n in items:
        n = int(n)
        if n < 0:
            raise ValidationError(f"negative exponent {n} for generator {k}")
        if n:
            cleaned.append((int(k), n))
    if not isinstance(coeff, ExtendedValue):
        coeff = finite(coeff)
    if coeff.kind > 0:
        raise ValidationError("monomial coefficients live in Q union {-inf}")
    return TropicalMonomial(
        exponents=tuple(sorted(cleaned)),
        coeff=coeff,
        character=tuple(int(c) for c in character),
    )


def make_polynomial(monomials: Iterable) -> TropicalPolynomial:
    """Normalize: coerce entries, merge equal monomial shapes by max
    coefficient, drop dead (-inf) monomials, sort."""
    best: Dict[Tuple, ExtendedValue] = {}
    for entry in monomials:
        if isinstance(entry, TropicalMonomial):
            m = entry
        else:
            m = make_monomial(*entry)
        key = (m.exponents, m.character)
        prev = best.get(key)
        if prev is None or m.coeff > prev:
            best[key] = m.coeff
    out = [
        TropicalMonomial(exponents=e, coeff=c, character=ch)
        for (e, ch), c in best.items()
        if c.kind == 0
    ]
    return TropicalPolynomial(monomials=tuple(sorted(out)))


def tropical_sum(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    return make_polynomial(f.monomials + g.monomials)


def _pad_add(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def tropical_product(f: TropicalPolynomial, g: TropicalPolynomial) -> TropicalPolynomial:
    out = []
    for m in f.monomials:
        for m2 in g.monomials:
            exps: Dict[int, int] = dict(m.exponents)
            for k, n in m2.exponents:
                exps[k] = exps.get(k, 0) + n
            out.append(
                make_monomial(exps, m.coeff + m2.coeff, _pad_add(m.character, m2.character))
            )
    return make_polynomial(out)


# ---------------------------------------------------------------------------
# context and points


class ApartmentContext(root_data._Record):
    """A root datum with a fixed type t; contexts are equal when their
    datum and type are.  Built on first read: the stratifying prefan (one
    cone per t-relevant parabolic, aligned index-wise with parabolics, with
    the rays of each carried from its orbit's standard cone), the
    big-cell charts (one per type-t parabolic, in ShortLex order over W^t,
    with its generator roots), and the stratum cone of each parabolic asked
    about.  Those cones live in one table keyed by parabolic members, which
    the prefan fills whole when it is built.  Each lazy entry is computed
    in full before one assignment stores it, so threads may share a
    context."""

    __slots__ = ("datum", "type_label", "_strata", "_charts", "_cones")

    def __init__(self, datum: RootDatum, type_label: TypeLabel):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "type_label", type_label)
        object.__setattr__(self, "_strata", None)
        object.__setattr__(self, "_charts", None)
        object.__setattr__(self, "_cones", {})

    def _built_strata(self) -> type_geometry.ConeOrbits:
        strata = self._strata
        if strata is None:
            strata = type_geometry.type_cone_orbits(self.datum, self.type_label)
            self._cones.update(zip((q.members for q in strata.parabolics), strata.prefan.cones))
            object.__setattr__(self, "_strata", strata)
        return strata

    @property
    def prefan(self) -> Prefan:
        return self._built_strata().prefan

    @property
    def parabolics(self) -> Tuple[ParabolicSet, ...]:
        return self._built_strata().parabolics

    @property
    def charts(self) -> Tuple[Tuple[ParabolicSet, Tuple[IntVector, ...]], ...]:
        charts = self._charts
        if charts is None:
            orbit = root_data.parabolics_of(self.datum, (self.type_label,))
            charts = tuple((p, chart_generators(p)) for p in orbit)
            object.__setattr__(self, "_charts", charts)
        return charts


def chart_generators(p: ParabolicSet) -> Tuple[IntVector, ...]:
    """Generator roots of the big cell of p: the roots outside p (the
    unipotent radical of the opposite parabolic), in sorted order."""
    return tuple(sorted(root_data.outside_roots(p)))


def make_context(datum: RootDatum, t: Iterable[int]) -> ApartmentContext:
    """The context of type t, with the type and the cap on |W| checked now,
    before anything is built."""
    label = root_data._check_type(datum, frozenset(t))
    root_data.DatumTables.of(datum).within_cap(datum)
    return ApartmentContext(datum, label)


class CompactApartmentPoint(NamedTuple):
    """A point of the compactified apartment: a boundary point of the type
    prefan plus the relevant parabolic indexing its stratum."""

    point: BoundaryPoint
    stratum_parabolic: ParabolicSet


def _cone_of(ctx: ApartmentContext, q: ParabolicSet) -> Cone:
    """The stratum cone of q, the type cone of q when q is a t-relevant
    parabolic of the context's datum: the cone the prefan holds for q."""
    cone = ctx._cones.get(q.members)
    if cone is None:
        t = ctx.type_label
        if q.datum != ctx.datum or not type_geometry.is_relevant(q, t):
            raise ValidationError(
                f"parabolic {root_data.parabolic_name(q)} does not index a stratum of"
                f" type {root_data.type_name(t)} (not relevant)"
            )
        cone = ctx._cones[q.members] = type_geometry.type_cone(q, t).cone
    return cone


def _check_length(rank: int, name: str, vector: Sequence) -> None:
    """Refuse a vector whose length is not the rank, naming it."""
    if len(vector) != rank:
        raise ValidationError(f"{name} has length {len(vector)}, expected the rank {rank}")


def interior_point(ctx: ApartmentContext, u: Sequence) -> CompactApartmentPoint:
    _check_length(ctx.datum.rank, "u", u)
    return stratum_point(ctx, root_data.standard_parabolic(ctx.datum, range(ctx.datum.rank)), u)


def stratum_point(
    ctx: ApartmentContext, q: ParabolicSet, residual: Sequence
) -> CompactApartmentPoint:
    _check_length(ctx.datum.rank, "residual", residual)
    return CompactApartmentPoint(
        point=BoundaryPoint(stratum=_cone_of(ctx, q), residual=linalg.vec(residual)),
        stratum_parabolic=q,
    )


def limit_point(
    ctx: ApartmentContext, u0: Sequence, v: Sequence
) -> CompactApartmentPoint:
    """Limit of the ray u0 + n*v: the stratum whose cone holds v in its
    relative interior, with residual the class of u0.

    The roots r with <v, r> >= 0 form a parabolic P_v, and v lies in the
    relative interior of its Weyl cone: v vanishes on the Levi roots of P_v
    and is positive on its unipotent radical (Humphreys 1990, §1.12).  The
    type-t cones are unions of Weyl cones, and the one holding the relative
    interior of the Weyl cone of P_v in its own is the stratum cone of the
    minimal t-relevant parabolic over P_v.  Only signs of pairings with v
    decide P_v, so v is scaled to integers once."""
    datum = ctx.datum
    for name, vector in (("u0", u0), ("v", v)):
        _check_length(datum.rank, name, vector)
    vv = linalg.integer_row(v)
    p_v = ParabolicSet(datum, frozenset(r for r in datum.roots if linalg.dot(vv, r) >= 0))
    q = type_geometry.minimal_relevant(p_v, ctx.type_label)
    return stratum_point(ctx, q, u0)


def translate_point(
    ctx: ApartmentContext, x: CompactApartmentPoint, w: Sequence
) -> CompactApartmentPoint:
    _check_length(ctx.datum.rank, "w", w)
    point = BoundaryPoint(x.point.stratum, linalg.add(x.point.residual, linalg.vec(w)))
    return CompactApartmentPoint(point, x.stratum_parabolic)


# ---------------------------------------------------------------------------
# charts and evaluation


def _chart_values(x: CompactApartmentPoint, psi: Sequence[IntVector]) -> Optional[Tuple]:
    """The values of the generators psi at x, or None as soon as one shows
    that x lies outside their chart (it is positive or indeterminate)."""
    vals = []
    for a in psi:
        try:
            v = polyfan.eval_at_boundary(x.point, a)
        except polyfan.IndeterminateValueError:
            return None
        if v.kind > 0 or (v.kind == 0 and v.value > 0):
            return None
        vals.append(v)
    return tuple(vals)


def chart_membership(
    ctx: ApartmentContext, x: CompactApartmentPoint, p: ParabolicSet
) -> bool:
    """Whether every chart generator evaluates to a nonpositive rational or
    -inf at x (indeterminate or positive generators put x outside)."""
    return _chart_values(x, chart_generators(p)) is not None


def _accepting_chart(ctx: ApartmentContext, x: CompactApartmentPoint) -> Tuple:
    """The first chart holding x: its parabolic, generators and their values
    at x."""
    for p, psi in ctx.charts:
        vals = _chart_values(x, psi)
        if vals is not None:
            return p, psi, vals
    raise ValidationError("no chart accepts the point; charts fail to cover")


def _values_in_chart(x: CompactApartmentPoint, p: ParabolicSet) -> Tuple[ExtendedValue, ...]:
    vals = _chart_values(x, chart_generators(p))
    if vals is None:
        raise ChartMismatchError("point is not in the requested chart")
    return vals


def _first_bad_key(f: TropicalPolynomial, count: int) -> Optional[int]:
    """The first exponent key of f outside 0..count-1, if any."""
    return next((k for m in f.monomials for k, _ in m.exponents if not 0 <= k < count), None)


def _max_plus(f: TropicalPolynomial, values: Sequence[ExtendedValue]) -> ExtendedValue:
    """Max over the monomials of f of coefficient plus exponent-weighted
    values, the keys indexing values; a monomial dies when a value it uses
    with positive exponent is -inf."""
    best = NEG_INF
    for m in f.monomials:
        total = m.coeff
        for k, n in m.exponents:
            v = values[k]
            if v.kind < 0:
                break
            total = total + ExtendedValue(0, v.value * n)
        else:
            if total > best:
                best = total
    return best


def seminorm_eval(
    ctx: ApartmentContext,
    x: CompactApartmentPoint,
    f: TropicalPolynomial,
    p: ParabolicSet,
) -> ExtendedValue:
    """Log of the seminorm of f at x in the chart of p: the max-plus value
    of f at the generator values, with keys indexing the chart generators."""
    return _chart_seminorm(f, _values_in_chart(x, p))


def _chart_seminorm(f: TropicalPolynomial, values: Sequence[ExtendedValue]) -> ExtendedValue:
    """The max-plus value of f at the values of a chart's generators."""
    bad = _first_bad_key(f, len(values))
    if bad is not None:
        raise ValidationError(
            f"generator index {bad} out of range for a chart with {len(values)} generators"
        )
    return _max_plus(f, values)


def group_seminorm_eval(
    datum: RootDatum, u: Sequence, f: TropicalPolynomial
) -> Fraction:
    """Interior evaluation in the group big cell: the max-plus value of f at
    the pairings <u, r>, keys indexing datum.roots; characters weigh zero."""
    _check_length(datum.rank, "u", u)
    bad = _first_bad_key(f, len(datum.roots))
    if bad is not None:
        raise ValidationError(f"root index {bad} out of range")
    uu = linalg.vec(u)
    best = _max_plus(f, [finite(linalg.dot(uu, r)) for r in datum.roots])
    if best.kind < 0:
        raise ValidationError("the zero polynomial has no interior group value")
    return best.value


def is_norm(ctx: ApartmentContext, x: CompactApartmentPoint, p: ParabolicSet) -> bool:
    return all(v.kind == 0 for v in _values_in_chart(x, p))


# ---------------------------------------------------------------------------
# strata


def _stratum_in_chart(
    ctx: ApartmentContext,
    x: CompactApartmentPoint,
    p: ParabolicSet,
    psi: Sequence[IntVector],
    vals: Sequence[ExtendedValue],
) -> ParabolicSet:
    """The stored stratum parabolic q of x, checked against the values vals
    of the generators psi of a chart p holding x: the generators at -inf are
    exactly those outside the Levi part of q, and q is osculatory with p.

    Every chart holding x gives one verdict: a t-relevant q passes iff it is
    q0, the parabolic whose type cone is the cone C of x.  The generators,
    the roots outside p, are <= 0 on C and cut out the prefan cone C(p);
    prefan cones meet in common faces, so C is the face of C(p) where the
    generators with finite values, those vanishing on C, vanish.  q0 passes:
    the relative interior of its Weyl cone, where exactly its Levi roots
    vanish, lies in that of C, so a generator vanishing on C is a Levi root
    of q0, and a Levi root not vanishing on C takes both signs there and is
    no generator.  The negative of a generator is >= 0 on C, so lies in q0,
    and p ∩ q0 holds each root or its negative.  Now let q pass.  A
    generator a outside the Levi part of q has -a in the unipotent radical
    of q, else p ∩ q would hold neither a nor -a, so a < 0 on the relative
    interior of the Weyl cone of q.  That interior lies in the relative
    interior of the face of C(p) where the generators in the Levi part of q
    vanish, a prefan cone, so that face is the type cone of q; by the
    pattern it is C, and q = q0, as distinct relevant parabolics have
    distinct type cones."""
    q = x.stratum_parabolic
    levi = root_data.levi_roots(q)
    if not (
        all((a not in levi) == (v.kind < 0) for a, v in zip(psi, vals))
        and root_data.is_osculatory(p, q)
    ):
        raise ValidationError(
            f"stored stratum {root_data.parabolic_name(q)} disagrees with the"
            f" vanishing pattern of chart {root_data.parabolic_name(p)} for"
            f" type {root_data.type_name(ctx.type_label)}"
        )
    return q


def stratum_of(ctx: ApartmentContext, x: CompactApartmentPoint) -> ParabolicSet:
    """The stored stratum parabolic q of x: q indexes a stratum and passes
    _stratum_in_chart on the first chart holding x, as on any other."""
    _cone_of(ctx, x.stratum_parabolic)
    return _stratum_in_chart(ctx, x, *_accepting_chart(ctx, x))


class StratumApartment(NamedTuple):
    """The residual apartment of a stratum: the root datum of the active
    Dynkin part, plus exact extraction/embedding between stratum residuals
    and residual coordinates."""

    parent: ParabolicSet
    type_label: TypeLabel
    residual_datum: RootDatum
    active: Tuple[int, ...]
    extraction_roots: Tuple[IntVector, ...]
    conjugator: WeylElement

    def extract(self, u: Sequence) -> Vector:
        _check_length(self.parent.datum.rank, "u", u)
        return tuple(linalg.dot(u, b) for b in self.extraction_roots)

    def embed(self, y: Sequence) -> Vector:
        if len(y) != len(self.active):
            raise ValidationError(
                f"residual vector has length {len(y)}, expected {len(self.active)}"
            )
        datum = self.parent.datum
        std = [Fraction(0)] * datum.rank
        for pos, i in enumerate(self.active):
            std[i] = Fraction(y[pos])
        # <w^{-1}·std, χ> = <std, w·χ>, read on the simple roots χ = α_j.
        images = root_data.simple_images(datum, self.conjugator.word)
        return tuple(linalg.dot(std, image) for image in images)


def stratum_apartment(
    ctx: ApartmentContext, q: ParabolicSet
) -> StratumApartment:
    """Residual datum = Cartan submatrix over the active components; the
    extraction roots are the conjugated simple roots w^{-1}·α_i of the
    active part, for the standard position (w, Y) of q, which vanish on
    the stratum span and so descend to residual classes.  q must index a
    stratum of the context, as its stratum cone does."""
    _cone_of(ctx, q)
    w, _, components, _ = type_geometry._relevance(q, ctx.type_label)
    datum = ctx.datum
    active = tuple(sorted(components))
    sub = [[datum.cartan[i][j] for j in active] for i in active]
    residual = root_data.build_from_cartan(sub)
    columns = root_data.simple_images(datum, w.word[::-1])
    extraction = tuple(columns[i] for i in active)
    return StratumApartment(
        parent=q,
        type_label=ctx.type_label,
        residual_datum=residual,
        active=active,
        extraction_roots=extraction,
        conjugator=w,
    )


def embed_stratum(
    ctx: ApartmentContext, y: Sequence, q: ParabolicSet
) -> CompactApartmentPoint:
    sa = stratum_apartment(ctx, q)
    return stratum_point(ctx, q, sa.embed(y))


def extract_residual(ctx: ApartmentContext, x: CompactApartmentPoint) -> Vector:
    sa = stratum_apartment(ctx, x.stratum_parabolic)
    return sa.extract(x.point.residual)


# ---------------------------------------------------------------------------
# projections between types


def project(
    ctx: ApartmentContext, x: CompactApartmentPoint, t_prime: Iterable[int]
) -> CompactApartmentPoint:
    """Coarsen the point from the context type t to a larger type: the new
    stratum is the minimal t'-relevant parabolic over the current stratum,
    and the residual class is carried along the span inclusion."""
    new_label = root_data._check_type(ctx.datum, frozenset(t_prime))
    if not ctx.type_label <= new_label:
        raise ValidationError("type order violated: need the context type inside t'")
    if new_label == ctx.type_label:
        return x
    q2 = type_geometry.minimal_relevant(x.stratum_parabolic, new_label)
    c2 = type_geometry.type_cone(q2, new_label).cone
    if not polyfan.cone_subset(x.point.stratum, c2):
        raise ValidationError("projection target cone does not contain the stratum")
    v = polyfan.relative_interior_point(x.point.stratum)
    if not polyfan.in_relative_interior(c2, v):
        raise ValidationError("stratum interior escapes the target stratum interior")
    return CompactApartmentPoint(
        point=BoundaryPoint(stratum=c2, residual=x.point.residual),
        stratum_parabolic=q2,
    )


# ---------------------------------------------------------------------------
# stabilizers


class StabilizerProfile(NamedTuple):
    """Root-group data of the stabilizer of a point: full unipotent root
    groups, full Levi root groups, filtered Levi root groups with exact
    levels, and a symbolic marker for the normalizer factor."""

    stratum_parabolic: ParabolicSet
    full_unipotent: Tuple[IntVector, ...]
    full_levi: Tuple[IntVector, ...]
    filtered: Tuple[Tuple[IntVector, Fraction], ...]
    normalizer_note: str


def stabilizer_profile(
    ctx: ApartmentContext, x: CompactApartmentPoint
) -> StabilizerProfile:
    """Unipotent radical roots act fully; Levi roots split by the type cone
    into a full part (nonvanishing) and a filtered part at level -<u,alpha>
    (well defined: vanishing roots kill the stratum span)."""
    q = stratum_of(ctx, x)
    rt = type_geometry.rt_decomposition(q, ctx.type_label)
    filtered = tuple(
        (a, -Fraction(linalg.dot(x.point.residual, a))) for a in rt.vanishing
    )
    return StabilizerProfile(
        stratum_parabolic=q,
        full_unipotent=tuple(sorted(root_data.unipotent_radical_roots(q))),
        full_levi=rt.nonvanishing,
        filtered=filtered,
        normalizer_note="N(k)_x",
    )


def levi_projection(datum: RootDatum, u: Sequence, q: ParabolicSet) -> Vector:
    """Coordinates of u in the apartment of the Levi quotient of q: pairings
    with the conjugated simple roots w^{-1}·α_i of the Levi label Y, for
    the standard position (w, Y) of q.  The kernel is the span of the Weyl
    cone of q (the annihilator of the Levi roots)."""
    _check_length(datum.rank, "u", u)
    w, y = root_data.standard_position(q)
    columns = root_data.simple_images(datum, w.word[::-1])
    uu = linalg.vec(u)
    return tuple(Fraction(linalg.dot(uu, columns[i])) for i in sorted(y))
