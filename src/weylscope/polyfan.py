"""Rational polyhedral cones, prefans, and compactified-cone boundary
calculus: faces, covering tests, boundary evaluation and stratum
closures.

Log-additive convention throughout: a functional value "alpha <= 1" of the
multiplicative picture is represented as <u, phi> <= 0, and the boundary
value 0 becomes -infinity.  Boundary semantics are decided on the explicit
generator functionals of each cone (no saturation): sums of generators
vanish iff one summand vanishes, which makes the generator description
sufficient.

Every cone is stored by its H-description; its dual description (lineality
basis plus canonical extreme-ray representatives) comes from the double
description method and is kept in one bounded memo table, `generators`.
Everything else about a cone (its dimension, tight inequalities, span,
relative interior, boundary values) is read off that pair with plain dot
products, uncached.  Faces, facets and common faces are read off the
ray-inequality incidences: a face keeps the lineality of its cone, its rays
are the rays vanishing on its tight inequalities, and its tight inequalities
are those vanishing on its rays.

A Prefan carries the pair of each cone (make_prefan asks `generators`; a
W-built family moves its standard cones' pairs), and certification reads
them: it runs the double description only on pairs of maximal cones.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .linalg import IntVector, Vector

Functional = Tuple[int, ...]


class FanAxiomViolation(Exception):
    """A prefan axiom fails; carries a witness point inside the offending
    region and, when raised by verify_prefan, the indices of the cones at
    fault."""

    def __init__(
        self,
        message: str,
        witness: Optional[IntVector] = None,
        cones: Tuple[int, ...] = (),
    ):
        super().__init__(message)
        self.witness = witness
        self.cones = cones


class IndeterminateValueError(ValueError):
    """The functional changes sign on the stratum cone: interior sequences
    converging to the point can realize different limits."""


class ExtendedValue(NamedTuple):
    """A rational, -infinity, or +infinity; ordered, with partial addition."""

    kind: int  # -1, 0, +1
    value: Fraction = Fraction(0)

    def __add__(self, other: "ExtendedValue") -> "ExtendedValue":
        if not isinstance(other, ExtendedValue):
            other = finite(other)
        if self.kind == 0 and other.kind == 0:
            return ExtendedValue(0, self.value + other.value)
        if self.kind == 0:
            return other
        if other.kind == 0 or other.kind == self.kind:
            return self
        raise IndeterminateValueError("(+inf) + (-inf) is undefined")

    __radd__ = __add__

    def __str__(self) -> str:
        if self.kind < 0:
            return "-inf"
        if self.kind > 0:
            return "inf"
        return str(self.value)


NEG_INF = ExtendedValue(-1)
POS_INF = ExtendedValue(1)


def finite(q) -> ExtendedValue:
    return ExtendedValue(0, Fraction(q))


class Cone(NamedTuple):
    """H-description: integer functionals phi with <u,phi> <= 0 (ineqs) and
    <u,phi> = 0 (eqs).  Equality of Cone objects is by description; use
    cones_equal for set equality."""

    space_dim: int
    ineqs: Tuple[Functional, ...]
    eqs: Tuple[Functional, ...]


def make_cone(space_dim: int, ineqs: Sequence[Sequence[int]], eqs: Sequence[Sequence[int]] = ()) -> Cone:
    return Cone(
        space_dim=space_dim,
        ineqs=tuple(tuple(int(x) for x in f) for f in ineqs),
        eqs=tuple(tuple(int(x) for x in f) for f in eqs),
    )


def _combine(a: int, u: IntVector, b: int, v: IntVector) -> IntVector:
    """a·u + b·v divided by its content (a positive divisor, so the direction
    is kept)."""
    w = [a * x + b * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _double_description(cone: Cone) -> Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]]:
    """(lineality basis, extreme-ray representatives), uncached: the
    throwaway intersections of verify_prefan and common_face come here.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996): start
    from the subspace cut out by the equalities, with no rays, and add the
    inequalities one at a time.  An inequality that is nonzero on the
    current lineality cuts it down by one dimension and adds one ray;
    otherwise the rays on its positive side are dropped and each one is
    combined with every adjacent ray on its negative side (adjacent: no
    third ray vanishes on every inequality both of them vanish on).  An
    inequality that repeats an earlier one, or a positive multiple of it,
    leaves no ray on its positive side and so changes nothing; repeats are
    skipped.  Every vector stays a primitive integer vector.  The rays are
    then canonicalized modulo the lineality (primitive integer direction),
    so the pair is a normal form: two H-descriptions cut out the same set
    iff they produce identical pairs.  The cone is the lineality span plus
    the nonnegative hull of the rays.  The lineality basis is canonical:
    the nullspace basis of every description functional (description-
    independent, since any valid description spans the annihilator of the
    lineality).
    """
    basis = linalg.nullspace(cone.eqs, cone.space_dim)
    rays: List[Tuple[IntVector, int]] = []  # (ray, zero set: bit k for the k-th inequality)
    for k, f in enumerate(dict.fromkeys(cone.ineqs)):
        bit = 1 << k
        vals = [linalg.dot(f, b) for b in basis]
        i0 = next((i for i, x in enumerate(vals) if x != 0), None)
        if i0 is not None:
            # f cuts the lineality: b0, turned so that f·b0 = -a < 0, becomes
            # a ray, and everything else moves along b0 onto f = 0
            b0, a = basis.pop(i0), vals.pop(i0)
            if a > 0:
                b0 = linalg.neg_int(b0)
            a = abs(a)
            basis = [_combine(a, v, x, b0) for v, x in zip(basis, vals)]
            rays = [
                (_combine(a, r, linalg.dot(f, r), b0), z | bit) for r, z in rays
            ]
            rays.append((b0, bit - 1))
            continue
        pos, neg, kept = [], [], []
        for r, z in rays:
            x = linalg.dot(f, r)
            if x > 0:
                pos.append((r, z, x))
            elif x < 0:
                neg.append((r, z, x))
                kept.append((r, z))
            else:
                kept.append((r, z | bit))
        if pos:
            zero_sets = [z for _, z in rays]
            for p, zp, xp in pos:
                for q, zq, xq in neg:
                    common = zp & zq
                    if sum(1 for z in zero_sets if z & common == common) == 2:
                        kept.append((_combine(xp, q, -xq, p), common | bit))
        rays = kept
    if not basis:  # strictly convex: the rays are primitive already
        return (), tuple(sorted(r for r, _ in rays))
    lin = tuple(linalg.nullspace(cone.ineqs + cone.eqs, cone.space_dim))
    return lin, tuple(
        sorted(linalg.primitive(linalg.reduce_mod_span(lin, r)) for r, _ in rays)
    )


@lru_cache(maxsize=1 << 13)
def generators(cone: Cone) -> Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]]:
    """(lineality basis, extreme-ray representatives) of _double_description.

    The module's one memo table, least recently used first out.  Its bound
    holds the largest working set measured: criterion 1 scans the 5,089
    cones of the F4 Weyl fan once per type; at 1 << 10 that scan thrashed
    and took 19 s instead of 7.  Certification adds nothing to it, since a
    prefan carries its cones' pairs: certifying every type of A4 and of D4
    leaves it empty."""
    return _double_description(cone)


def lineality_basis(cone: Cone) -> Tuple[IntVector, ...]:
    """Canonical basis of the largest linear subspace inside the cone."""
    return generators(cone)[0]


def _canonical_key(cone: Cone):
    lin, rays = generators(cone)
    return (cone.space_dim, lin, frozenset(rays))


def implied_equalities(cone: Cone) -> Tuple[Functional, ...]:
    """All description functionals (eqs plus tight ineqs) vanishing on the
    cone; their common kernel is the cone's linear span.  An inequality of
    the cone vanishes on its lineality, so only the rays are read."""
    _, rays = generators(cone)
    return cone.eqs + tuple(
        f for f in cone.ineqs if all(linalg.dot(r, f) == 0 for r in rays)
    )


def span_basis(cone: Cone) -> Tuple[IntVector, ...]:
    return tuple(linalg.nullspace(implied_equalities(cone), cone.space_dim))


def dim(cone: Cone) -> int:
    lin, rays = generators(cone)
    return linalg.rank(lin + rays)


def contains_point(cone: Cone, u: Sequence) -> bool:
    """Whether u lies in the cone: a sign test, so u is first scaled to
    integers by a positive factor and every pairing is an int."""
    x = linalg.integer_row(u)
    return all(linalg.dot(x, f) <= 0 for f in cone.ineqs) and all(
        linalg.dot(x, e) == 0 for e in cone.eqs
    )


def in_relative_interior(cone: Cone, u: Sequence) -> bool:
    """Whether u lies in the cone with every inequality that is not tight
    on the whole cone strict; scaled to integers as in contains_point.  An
    inequality with a zero pairing must then vanish on every ray, so the
    rays are read only when u makes some inequality tight."""
    x = linalg.integer_row(u)
    if any(linalg.dot(x, e) != 0 for e in cone.eqs):
        return False
    rays = None
    for f in cone.ineqs:
        p = linalg.dot(x, f)
        if p > 0:
            return False
        if p == 0:
            if rays is None:
                _, rays = generators(cone)
            if any(linalg.dot(r, f) != 0 for r in rays):
                return False
    return True


def relative_interior_point(cone: Cone) -> IntVector:
    """Deterministic relative interior point: the sum of the extreme rays
    (zero for a linear subspace)."""
    _, rays = generators(cone)
    pt = tuple(map(sum, zip(*rays))) if rays else (0,) * cone.space_dim
    if not in_relative_interior(cone, pt):
        raise RuntimeError(f"the sum of the rays of {cone} is not in its relative interior")
    return pt


def cone_subset(a: Cone, b: Cone) -> bool:
    """Whether a is contained in b (as point sets): every generator of a
    satisfies the constraints of b."""
    return _violation_witness(*generators(a), b) is None


def cones_equal(a: Cone, b: Cone) -> bool:
    return _canonical_key(a) == _canonical_key(b)


def _promoted(cone: Cone, tight: int) -> Cone:
    """The face of the cone on which the inequalities in the bitmask tight
    hold with equality."""
    return Cone(
        space_dim=cone.space_dim,
        ineqs=cone.ineqs,
        eqs=cone.eqs + tuple(f for i, f in enumerate(cone.ineqs) if tight >> i & 1),
    )


def _face_closure(cone: Cone, rays: Sequence[IntVector]):
    """The map from a bitmask of inequalities to (tight set, rays) of the face
    on which they all vanish, read off the ray-inequality incidences of the
    cone's rays: its rays are those vanishing on every one of them, its
    tight set the inequalities vanishing on all of those rays.  The face
    keeps the lineality of the cone."""
    incidence = [
        (r, sum(1 << i for i, f in enumerate(cone.ineqs) if linalg.dot(r, f) == 0))
        for r in rays
    ]
    everything = (1 << len(cone.ineqs)) - 1

    def closure(tight: int) -> Tuple[int, Tuple[IntVector, ...]]:
        key = everything
        members = []
        for r, z in incidence:
            if z & tight == tight:
                key &= z
                members.append(r)
        return key, tuple(members)

    return closure


def _face_table(cone: Cone, rays: Sequence[IntVector]) -> List[Tuple[int, Tuple[IntVector, ...]]]:
    """Every face of the cone with the given rays as (tight set, rays), found
    breadth-first by adding one inequality at a time to a tight set and
    closing it, and sorted by the size and then the indices of the tight
    set."""
    closure = _face_closure(cone, rays)
    start, rays = closure(0)
    table = {start: rays}
    frontier = [start]
    while frontier:
        nxt: List[int] = []
        for tight in frontier:
            for i in range(len(cone.ineqs)):
                if tight >> i & 1:
                    continue
                key, rays = closure(tight | 1 << i)
                if key not in table:
                    table[key] = rays
                    nxt.append(key)
        frontier = nxt

    def order(key: int):
        return key.bit_count(), [i for i in range(len(cone.ineqs)) if key >> i & 1]

    return sorted(table.items(), key=lambda item: order(item[0]))


def faces(cone: Cone) -> List[Cone]:
    """Complete face list (cone itself included), each face the cone with its
    tight inequalities promoted to equalities; finite and deduplicated."""
    return [_promoted(cone, tight) for tight, _ in _face_table(cone, generators(cone)[1])]


def _facet_table(cone: Cone, rays: Sequence[IntVector]) -> List[Tuple[int, Tuple[IntVector, ...]]]:
    """Every codimension-one face of the cone with the given rays as (tight
    set, rays), in the order of the first inequality cutting it out.  Each
    facet is cut out by one inequality of an H-description, and every
    proper face lies in a facet, so the facets are the proper faces cut out
    by one inequality whose tight sets are minimal among those."""
    closure = _face_closure(cone, rays)
    whole, _ = closure(0)
    cut = {}
    for i in range(len(cone.ineqs)):
        key, rays = closure(1 << i)
        if key != whole:
            cut.setdefault(key, rays)
    return [
        (key, rays)
        for key, rays in cut.items()
        if not any(other != key and other & key == other for other in cut)
    ]


def facets(cone: Cone) -> List[Cone]:
    """Codimension-one faces, in the order of _facet_table."""
    return [_promoted(cone, tight) for tight, _ in _facet_table(cone, generators(cone)[1])]


def _violation_witness(
    lin: Sequence[IntVector], rays: Sequence[IntVector], outer: Cone
) -> Optional[IntVector]:
    """A generator that leaves outer, if any (a cone lies inside outer iff
    all its generators satisfy outer's constraints)."""
    for v in lin:
        for f in outer.ineqs + outer.eqs:
            if linalg.dot(v, f) != 0:
                return v if linalg.dot(v, f) > 0 else linalg.neg_int(v)
    for r in rays:
        if not contains_point(outer, r):
            return r
    return None


def _common_face_witness(a: Cone, b: Cone, sides) -> Tuple[Cone, Optional[IntVector]]:
    """a ∩ b, and None when it is a face of both cones; otherwise a generator
    that leaves a ∩ b of the face of a (then of b) cut out by the
    inequalities vanishing on the rays of a ∩ b.  sides holds the lineality
    basis and the _face_closure of a and of b."""
    inter = Cone(space_dim=a.space_dim, ineqs=a.ineqs + b.ineqs, eqs=a.eqs + b.eqs)
    _, inter_rays = _double_description(inter)
    for c, (lin, closure) in zip((a, b), sides):
        tight = sum(
            1 << i
            for i, f in enumerate(c.ineqs)
            if all(linalg.dot(r, f) == 0 for r in inter_rays)
        )
        witness = _violation_witness(lin, closure(tight)[1], inter)
        if witness is not None:
            return inter, witness
    return inter, None


def _side(cone: Cone, pair):
    """The lineality basis and _face_closure of the cone, from its
    (lineality, rays) pair."""
    lin, rays = pair
    return lin, _face_closure(cone, rays)


def common_face(a: Cone, b: Cone) -> Cone:
    """The intersection, when it is a face of both; FanAxiomViolation with a
    witness point otherwise."""
    if a.space_dim != b.space_dim:
        raise ValueError("cones live in different ambient spaces")
    inter, witness = _common_face_witness(a, b, (_side(a, generators(a)), _side(b, generators(b))))
    if witness is not None:
        raise FanAxiomViolation(
            "intersection is not a face of both cones", witness=witness
        )
    return inter


class Prefan(NamedTuple):
    """A finite cone family closed under faces with pairwise common-face
    intersections, with the (lineality basis, rays) pair of each cone, as
    generators gives it, at the same index."""

    cones: Tuple[Cone, ...]
    generators: Tuple[Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]], ...]

    @property
    def space_dim(self) -> int:
        return self.cones[0].space_dim if self.cones else 0


def make_prefan(cones: Sequence[Cone]) -> Prefan:
    cones = tuple(cones)
    return Prefan(cones=cones, generators=tuple(map(generators, cones)))


def verify_prefan(prefan: Prefan) -> None:
    """Face closure and pairwise common-face axioms; a violation names the
    two cones in different ambient spaces, the cone whose face is missing,
    or the first pair in index order whose intersection is not a common
    face.  Every cone's rays and lineality are read off the prefan, so the
    double description runs only on the intersections of pairs.

    Once the family is closed under faces, the common-face check runs only
    on pairs of maximal cones, those that are not a proper face of another
    cone; every cone is a face of a maximal one.  That is exact: if A is a
    face of M1, B a face of M2 and F = M1 ∩ M2 a face of both, then A ∩ F
    and B ∩ F are faces of F, so A ∩ B = (A ∩ F) ∩ (B ∩ F) is a face of F,
    hence of A and of B (Ziegler 1995, Lectures on Polytopes, §7.1).  A cone
    that lies inside a maximal cone without being one of its faces is
    maximal itself, so it gets paired."""
    cones, pairs = prefan.cones, prefan.generators
    for j, c in enumerate(cones):
        if c.space_dim != cones[0].space_dim:
            raise FanAxiomViolation(
                f"cones 0 and {j} live in different ambient spaces", cones=(0, j)
            )
    keys = [(c.space_dim, lin, frozenset(rays)) for c, (lin, rays) in zip(cones, pairs)]
    members = set(keys)
    proper_faces = set()
    for i, (c, (lin, rays)) in enumerate(zip(cones, pairs)):
        for tight, face_rays in _face_table(c, rays):
            key = (c.space_dim, lin, frozenset(face_rays))
            if key not in members:
                raise FanAxiomViolation(
                    f"face closure fails: a face of cone {i} is not in the prefan",
                    witness=relative_interior_point(_promoted(c, tight)),
                    cones=(i,),
                )
            if key != keys[i]:
                proper_faces.add(key)
    maximal = [i for i, key in enumerate(keys) if key not in proper_faces]
    sides = [_side(c, pair) for c, pair in zip(cones, pairs)]
    if all(
        _common_face_witness(cones[i], cones[j], (sides[i], sides[j]))[1] is None
        for i, j in combinations(maximal, 2)
    ):
        return
    # Some pair fails.  Name the first failing pair in index order; the scan
    # reaches the maximal pair just found at the latest.
    for i, j in combinations(range(len(cones)), 2):
        _, witness = _common_face_witness(cones[i], cones[j], (sides[i], sides[j]))
        if witness is not None:
            raise FanAxiomViolation(
                f"cones {i} and {j}: intersection is not a face of both cones",
                witness=witness,
                cones=(i, j),
            )


def covers(prefan: Prefan) -> bool:
    """Whether the cones cover the ambient space: every facet of every
    full-dimensional cone is a facet of exactly one other full-dimensional
    cone (cones are compared as sets, so a repeated cone counts once and a
    cone equal to it is not another).  A cone is full-dimensional when its
    rays and lineality have the ambient rank; one with fewer of them than
    that is not, and needs no rank computed.

    Exact for a family that passes verify_prefan.  Facets are keyed as
    verify_prefan keys faces, by (space_dim, lineality, rays): two cones of
    such a family share a facet F exactly when F lies in both, since their
    intersection is a face of each.  Suppose the cones do not cover the
    space.  The boundary of their union then has dimension n - 1, so it
    meets the relative interior of some facet F of a cone C away from every
    face of codimension 2.  The one other cone containing F meets C only in
    their common face F, so it lies on the other side of F, and that
    boundary point is interior to the union: a contradiction."""
    n = prefan.space_dim
    full = [
        (c, lin, rays)
        for c, (lin, rays) in zip(prefan.cones, prefan.generators)
        if len(lin) + len(rays) >= n and linalg.rank(lin + rays) == n
    ]
    if not full:
        return n == 0 and bool(prefan.cones)
    holders = defaultdict(set)  # facet key -> canonical keys of its cones
    for c, lin, rays in full:
        for _, facet_rays in _facet_table(c, rays):
            holders[(n, lin, frozenset(facet_rays))].add((n, lin, frozenset(rays)))
    return all(len(keys) == 2 for keys in holders.values())


class _BoundaryPointFields(NamedTuple):
    stratum: Cone
    residual: Vector


class BoundaryPoint(_BoundaryPointFields):
    """A point of the compactified space: stratum cone plus a residual
    vector modulo the stratum's linear span (stored canonically, so equality
    is the intended congruence)."""

    __slots__ = ()

    def __new__(cls, stratum: Cone, residual: Vector) -> "BoundaryPoint":
        lin, rays = generators(stratum)
        canon = linalg.reduce_mod_span(lin + rays, residual)
        return super().__new__(cls, stratum, canon)


def eval_at_boundary(point: BoundaryPoint, phi: Sequence[int]) -> ExtendedValue:
    """Boundary value of a functional: finite on the span, -inf/+inf off it
    according to its sign on the stratum cone, error when the sign is mixed
    (a functional that is nonzero on the lineality takes both signs)."""
    f = tuple(int(x) for x in phi)
    lin, rays = generators(point.stratum)
    neg = pos = any(linalg.dot(v, f) != 0 for v in lin)
    if not neg:
        for r in rays:
            x = linalg.dot(r, f)
            if x < 0:
                neg = True
            elif x > 0:
                pos = True
    if not (neg or pos):
        return finite(linalg.dot(point.residual, f))
    if not pos:
        return NEG_INF
    if not neg:
        return POS_INF
    raise IndeterminateValueError(
        f"functional {f} changes sign on the stratum cone"
    )


def stratum_closure(cone: Cone, prefan: Prefan) -> List[Cone]:
    """All prefan cones containing the given one (the strata meeting the
    closure of the given stratum)."""
    return [c for c in prefan.cones if cone_subset(cone, c)]

