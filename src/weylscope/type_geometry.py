"""Type cones attached to parabolic root sets, the prefan of a type, the
relevance report of a parabolic, and the induced decomposition of Levi
roots into vanishing and nonvanishing parts.

Which type labels are relevant is Dynkin-diagram combinatorics on the
label alone, and lives in root_data (relevant_labels); a parabolic is as
relevant as the label of its standard position.  The relevance report
carries that relevancy to one parabolic: its minimal relevant parabolic,
one root_data.companion of it, and the root functionals that cut out the
span of its type cone.

The Weyl fan and every stratifying prefan are W-stable, and their cones are
built one W-orbit at a time (ConeOrbits): the cone of w·P_Y is that of the
standard parabolic P_Y with every functional, a root, moved by the root
permutation of w, and its rays are those of the standard cone moved by w,
read as their pairings with the roots w^{-1}·α_j that the permutation
names.  So only one cone per orbit is described from its roots, and
only that one goes through the double description; the prefan carries the
moved rays of every cone, and certifying it reads them."""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, NamedTuple, Set, Tuple

from . import linalg, polyfan, root_data
from .polyfan import Cone, Prefan
from .root_data import (
    IntVector,
    Orbit,
    ParabolicSet,
    RootDatum,
    TypeLabel,
    WeylElement,
    _check_type,
    _components,
    _images,
    _label_relevance,
)


class TypeCone(NamedTuple):
    """A type cone together with its provenance."""

    cone: Cone
    source: ParabolicSet
    type_label: TypeLabel


class RelevanceReport(NamedTuple):
    """Dynkin-combinatorial relevancy data for a parabolic and a type."""

    query: ParabolicSet
    type_label: TypeLabel
    is_relevant: bool
    minimal_relevant: ParabolicSet
    active_components: TypeLabel  # standard-side label of the active part
    span_equalities: Tuple[IntVector, ...]


class RtDecomposition(NamedTuple):
    """Split of the Levi roots of Q by identical vanishing on the type cone."""

    nonvanishing: Tuple[IntVector, ...]
    vanishing: Tuple[IntVector, ...]


def weyl_cone(p: ParabolicSet) -> Cone:
    """Closed cone of dual vectors nonnegative on the unipotent radical and
    zero on the Levi part."""
    datum = p.datum
    levi = root_data.levi_roots(p)
    eqs = sorted(b for b in levi if datum.is_positive(b))
    ineqs = sorted(linalg.neg_int(b) for b in p.members - levi)
    return polyfan.make_cone(datum.rank, ineqs, eqs)


def type_cone_max(p: ParabolicSet) -> Cone:
    """Inequality-only cone cut out by the roots outside p (the unipotent
    radical of the opposite parabolic)."""
    return polyfan.make_cone(p.datum.rank, sorted(root_data.outside_roots(p)), ())


def type_cone(q: ParabolicSet, t: TypeLabel) -> TypeCone:
    """Smallest type-t prefan cone containing the Weyl cone of q: the
    max-cone inequalities of the osculatory type-t companion of q,
    root_data.companion(q, t), with those lying in the Levi of q promoted
    to equalities."""
    datum = q.datum
    t = _check_type(datum, t)
    psi = root_data.outside_roots(root_data.companion(q, t))
    levi = root_data.levi_roots(q)
    eqs = sorted(psi & levi)
    ineqs = sorted(psi - levi)
    return TypeCone(
        cone=polyfan.make_cone(datum.rank, ineqs, eqs), source=q, type_label=t
    )


def _relevance(
    q: ParabolicSet, t: TypeLabel
) -> Tuple[WeylElement, TypeLabel, TypeLabel, TypeLabel]:
    """The standard position (w, Y) of q, then the active components of Y
    for t and the t-letters forced by them, as _label_relevance gives them."""
    w, y = root_data.standard_position(q)
    return (w, y) + _label_relevance(q.datum, y, _check_type(q.datum, t))


def relevance_report(q: ParabolicSet, t: TypeLabel) -> RelevanceReport:
    """Standard-position Dynkin combinatorics: the active components of the
    Levi label are those meeting the complement of t; relevancy demands that
    every t-letter orthogonal to them already lies in the label."""
    datum = q.datum
    t = _check_type(datum, t)
    w, y, active, forced = _relevance(q, t)
    tables = root_data.DatumTables.of(datum)
    subsystem = [tables.root_index[b] for b in tables.subsystem_positive_roots(active)]
    span = sorted([datum.roots[k] for k in _images(tables, w.word[::-1], subsystem)])
    return RelevanceReport(
        query=q,
        type_label=t,
        is_relevant=forced <= y,
        minimal_relevant=root_data.companion(q, y | forced),
        active_components=active,
        span_equalities=tuple(span),
    )


def is_relevant(q: ParabolicSet, t: TypeLabel) -> bool:
    _, y, _, forced = _relevance(q, t)
    return forced <= y


def minimal_relevant(q: ParabolicSet, t: TypeLabel) -> ParabolicSet:
    """The minimal t-relevant parabolic over q, as relevance_report names
    it, without the rest of the report: w^{-1}·P_{Y ∪ F}, where (w, Y) is
    the standard position of q and F the t-letters orthogonal to the
    active components of Y."""
    _, y, _, forced = _relevance(q, t)
    return root_data.companion(q, y | forced)


def rt_decomposition(q: ParabolicSet, t: TypeLabel) -> RtDecomposition:
    """Levi roots split by whether their functional vanishes identically on
    the span of the type cone of q.  That span is cut out by the span
    equalities of the relevance report, w^{-1} applied to the roots on the
    active components, where (w, Y) is the standard position of q; so a
    root b vanishes on it iff w·b is supported on the active components."""
    w, _, active, _ = _relevance(q, t)
    datum = q.datum
    tables = root_data.DatumTables.of(datum)
    levi = sorted(root_data.levi_roots(q))
    images = _images(tables, w.word, [tables.root_index[b] for b in levi])
    vanishing: List[IntVector] = []
    nonvanishing: List[IntVector] = []
    for b, k in zip(levi, images):
        if all(c == 0 or i in active for i, c in enumerate(datum.roots[k])):
            vanishing.append(b)
        else:
            nonvanishing.append(b)
    return RtDecomposition(
        nonvanishing=tuple(nonvanishing), vanishing=tuple(vanishing)
    )


def type_support(datum: RootDatum, t: TypeLabel) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Partition of the simple roots by irreducible component: components
    where the type is proper (compactification genuinely degenerates) versus
    components entirely inside the type label (nothing degenerates)."""
    t = _check_type(datum, t)
    live: Set[int] = set()
    trivial: Set[int] = set()
    for comp in _components(datum, frozenset(range(datum.rank))):
        if comp <= t:
            trivial |= comp
        else:
            live |= comp
    return frozenset(live), frozenset(trivial)


def lineality_space(datum: RootDatum, t: TypeLabel) -> Tuple[IntVector, ...]:
    """Basis of the common lineality of all type-t cones: coordinate axes of
    the trivial components."""
    _, trivial = type_support(datum, t)
    return tuple(
        tuple(int(j == i) for j in range(datum.rank)) for i in sorted(trivial)
    )


# ---------------------------------------------------------------------------
# cones by W-orbit


class ConeOrbits(NamedTuple):
    """One cone per parabolic of some whole W-orbits, in the order of
    root_data.parabolics_of, as a prefan that carries the generators of
    each cone, and the dimension of each cone: the cone of w·P_Y is the
    image under w of the cone of the standard parabolic P_Y, the first of
    its orbit."""

    orbits: Tuple[Orbit, ...]
    prefan: Prefan
    dims: Tuple[int, ...]

    @property
    def parabolics(self) -> Tuple[ParabolicSet, ...]:
        return tuple(q for orbit in self.orbits for q in orbit)


def _cone_orbits(
    orbits: Tuple[Orbit, ...], standard_cone: Callable[[ParabolicSet], Cone]
) -> ConeOrbits:
    """The cone standard_cone gives the first parabolic P_Y of each orbit,
    and its image under each representative w for w·P_Y, with the
    generators and dimension of each; the double description runs on the
    standard cone only, and its result stays out of polyfan.generators.

    The images w·φ of the standard cone's functionals cut out the image,
    and as every φ is a root, w·φ is read off the root permutation of w.
    u lies in C(P_Y) iff w·u lies in C(w·P_Y), and the coordinates of w·u
    are its pairings <u, w^{-1}·α_j>, where w^{-1}·α_j is the root the
    permutation of w sends to α_j.  So the rays of C(w·P_Y) are the w·v
    for the rays v of C(P_Y), still primitive since w acts unimodularly,
    and the dimension is that of C(P_Y).  They need no reduction modulo
    the lineality either.  A Weyl cone has none; a type-t cone has the
    coordinate axes of the components inside t, the same canonical basis
    for every cone, and the double description reduces a ray modulo it by
    zeroing those coordinates.  w acts component by component, so the
    moved rays keep them zero.

    The same standard ray meets the same w in many orbits, so each image
    is computed once per call, and the roots w^{-1}·α_j once per element,
    keyed by the word of w^{-1}."""
    cones: List[Cone] = []
    pairs: List[Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]]] = []
    dims: List[int] = []
    moved: Dict[Tuple[IntVector, int], IntVector] = {}
    elements: Dict[Tuple[int, ...], Tuple[int, List[IntVector]]] = {}
    for orbit in orbits:
        std = standard_cone(orbit.standard)
        lin, rays = polyfan._double_description(std)
        d = linalg.rank(lin + rays)
        datum = orbit.standard.datum
        tables = root_data.DatumTables.of(datum)
        index = tables.root_index
        ineqs = [index[f] for f in std.ineqs]
        eqs = [index[f] for f in std.eqs]
        for perm, inv in zip(orbit.permutations, orbit.inverses):
            moved_ineqs = sorted([datum.roots[perm[i]] for i in ineqs])
            moved_eqs = sorted([datum.roots[perm[i]] for i in eqs])
            cones.append(Cone(std.space_dim, tuple(moved_ineqs), tuple(moved_eqs)))
            element = elements.get(inv.word)
            if element is None:
                columns = [datum.roots[perm.index(a)] for a in tables.simple]
                element = elements[inv.word] = (len(elements), columns)
            key, columns = element
            images = []
            for v in rays:
                image = moved.get((v, key))
                if image is None:
                    image = moved[v, key] = tuple([linalg.dot(v, c) for c in columns])
                images.append(image)
            pairs.append((lin, tuple(sorted(images))))
            dims.append(d)
    return ConeOrbits(
        orbits=orbits, prefan=Prefan(tuple(cones), tuple(pairs)), dims=tuple(dims)
    )


def weyl_cone_orbits(datum: RootDatum) -> ConeOrbits:
    """The Weyl cone of every parabolic, orbit by orbit.  Its equalities
    stay the positive Levi roots, as weyl_cone takes them: a minimal coset
    representative w has no right descent in Y, so it maps the positive
    roots supported on Y to positive roots."""
    return _cone_orbits(root_data.all_orbits(datum), weyl_cone)


def type_cone_orbits(datum: RootDatum, t: TypeLabel) -> ConeOrbits:
    """The type-t cone of every t-relevant parabolic, orbit by orbit: the
    companion w·P_t and the Levi roots of w·P_Y are the images under w of
    those of P_Y, so type_cone(w·P_Y, t) is the image of type_cone(P_Y, t)."""
    t = _check_type(datum, t)
    orbits = root_data.orbits_of(datum, root_data.relevant_labels(datum, t))
    return _cone_orbits(orbits, lambda p: type_cone(p, t).cone)


def prefan_of_type(datum: RootDatum, t: TypeLabel) -> Prefan:
    """Prefan whose cones are the type cones of the t-relevant parabolics, in
    parabolic enumeration order."""
    return type_cone_orbits(datum, t).prefan
