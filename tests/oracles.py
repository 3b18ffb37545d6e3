"""Independent recomputations used to cross-check library outputs.

Everything here works on plain tuples and Fractions, re-deriving facts
from first principles rather than calling back into the code under test
(except where a check is explicitly about comparing two library routes,
as the cone oracles at the end do on top of linalg's integer kernel).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from weylscope import linalg, polyfan, root_data

IntVector = Tuple[int, ...]

NEG_INF_TOKEN = "-inf"
POS_INF_TOKEN = "+inf"


def dot(u: Sequence, v: Sequence) -> Fraction:
    assert len(u) == len(v)
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def neg(v: Sequence[int]) -> IntVector:
    return tuple(-c for c in v)


def is_closed_subset(all_roots: Iterable[IntVector], subset: Iterable[IntVector]) -> bool:
    """Closed: the sum of two members that is again a root is a member."""
    roots = set(all_roots)
    sub = set(subset)
    for a in sub:
        for b in sub:
            s = tuple(x + y for x, y in zip(a, b))
            if s in roots and s not in sub:
                return False
    return True


def is_parabolic_subset(all_roots: Iterable[IntVector], subset: Iterable[IntVector]) -> bool:
    roots = set(all_roots)
    sub = set(subset)
    if not sub <= roots:
        return False
    if not all(r in sub or neg(r) in sub for r in roots):
        return False
    return is_closed_subset(roots, sub)


def brute_force_parabolics(all_roots: Sequence[IntVector]) -> FrozenSet[FrozenSet[IntVector]]:
    """All parabolic subsets, by choosing +, - or both from each opposite
    root pair and filtering for closedness (3^(positive roots) candidates)."""
    roots = list(all_roots)
    positive = [r for r in roots if any(c > 0 for c in r)]
    found = set()

    def rec(i: int, acc: List[IntVector]) -> None:
        if i == len(positive):
            cand = frozenset(acc)
            if is_closed_subset(roots, cand):
                found.add(cand)
            return
        p = positive[i]
        rec(i + 1, acc + [p])
        rec(i + 1, acc + [neg(p)])
        rec(i + 1, acc + [p, neg(p)])

    rec(0, [])
    return frozenset(found)


def maximality_relevant(q, t, parabolics, type_cone_fn, cones_equal_fn) -> bool:
    """Relevance by its defining maximality: no strictly larger parabolic
    produces the same stratum cone."""
    c = type_cone_fn(q, t)
    for q2 in parabolics:
        if q2.members > q.members and cones_equal_fn(type_cone_fn(q2, t), c):
            return False
    return True


def affine_ray_form(
    u0: Sequence, v: Sequence, exponents: Sequence[Tuple[int, int]],
    coeff: Fraction, generators: Sequence[Sequence[int]],
) -> Tuple[Fraction, Fraction]:
    """The value of one monomial along u0 + n*v as the affine form a + n*b."""
    a = Fraction(coeff)
    b = Fraction(0)
    for k, n in exponents:
        a += n * dot(u0, generators[k])
        b += n * dot(v, generators[k])
    return a, b


def ray_limit_eval(
    u0: Sequence, v: Sequence,
    monomials: Sequence[Tuple[Sequence[Tuple[int, int]], object]],
    generators: Sequence[Sequence[int]],
):
    """Limit as n -> oo of max over monomials of coeff + sum exps*<u0+nv, gen>.
    Monomials with -inf coefficients never contribute; returns a Fraction,
    "-inf", or "+inf" (the last only for rays escaping every bound)."""
    forms: List[Tuple[Fraction, Fraction]] = []
    for exps, coeff in monomials:
        if coeff == NEG_INF_TOKEN:
            continue
        forms.append(affine_ray_form(u0, v, exps, Fraction(coeff), generators))
    if not forms:
        return NEG_INF_TOKEN
    top_slope = max(b for _, b in forms)
    if top_slope > 0:
        return POS_INF_TOKEN
    if top_slope < 0:
        return NEG_INF_TOKEN
    return max(a for a, b in forms if b == 0)


def rref(rows: Sequence[Sequence]) -> Tuple[List[Tuple[Fraction, ...]], List[int]]:
    """Reduced row echelon form by Gauss-Jordan over Fraction: (nonzero rows,
    pivot columns).  The integer kernel of linalg is checked against it."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    pivots: List[int] = []
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [inv * a for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence], n: int) -> List[Tuple[Fraction, ...]]:
    """The RREF basis of the kernel: one vector per free column, 1 there, 0
    on the other free columns."""
    red, pivots = rref(rows)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def span_of(vectors: Sequence[Sequence[Fraction]], n: int) -> List[Tuple[Fraction, ...]]:
    """The RREF of the span, a normal form for comparing linear subspaces."""
    return rref(list(vectors))[0]


def same_span(a: Sequence[Sequence], b: Sequence[Sequence], n: int) -> bool:
    return span_of(list(a), n) == span_of(list(b), n)


def chain_sum_vector(d: int, start: int, rank: int) -> IntVector:
    """Simple-root coordinates of chi_{d+1} - chi_start in the A_d weight
    dictionary: minus the sum of the simple roots from position start on."""
    assert 1 <= start <= d and rank == d
    return tuple(-1 if j >= start - 1 else 0 for j in range(d))


def all_type_labels(rank: int) -> List[FrozenSet[int]]:
    out = [
        frozenset(i for i in range(rank) if bits >> i & 1)
        for bits in range(1 << rank)
    ]
    out.sort(key=lambda y: (len(y), sorted(y)))
    return out


# ---------------------------------------------------------------------------
# parabolics: the Weyl-group scans that root_data used before its descent to
# standard position and its orbits by minimal coset representatives, kept to
# check them.  They walk root_data's ShortLex enumeration of W and its action
# on root sets, but build the standard parabolics themselves.


def _standard_members(datum, y: FrozenSet[int]) -> FrozenSet[IntVector]:
    positive = [r for r in datum.roots if any(c > 0 for c in r)]
    supported = [r for r in positive if all(c == 0 or i in y for i, c in enumerate(r))]
    return frozenset(positive) | frozenset(neg(r) for r in supported)


@lru_cache(maxsize=None)
def _standard_labels(datum) -> dict:
    return {_standard_members(datum, y): y for y in all_type_labels(datum.rank)}


def scanned_standard_position(p):
    """(w, Y) for the ShortLex-first w with act(w, p) standard of label Y,
    or None when no Weyl element makes p standard."""
    standard = _standard_labels(p.datum)
    for w in root_data.weyl_elements(p.datum):
        y = standard.get(root_data.act(w, p).members)
        if y is not None:
            return w, y
    return None


def matrix_permutation(datum, w) -> Tuple[int, ...]:
    """The permutation w induces on root indices, by its action matrix on
    each root: what the Weyl enumeration's composed permutations replace."""
    index = {r: i for i, r in enumerate(datum.roots)}
    return tuple(
        index[tuple(sum(a * b for a, b in zip(row, r)) for row in w.matrix)]
        for r in datum.roots
    )


def orbit_parabolics(datum) -> List[Tuple[FrozenSet[IntVector], FrozenSet[int]]]:
    """(members, label) of every parabolic: the orbit of each standard
    parabolic in type-label order, each member set kept where the ShortLex
    enumeration of W first reaches it."""
    out = []
    for y in all_type_labels(datum.rank):
        std = root_data.ParabolicSet(datum=datum, members=_standard_members(datum, y))
        seen = set()
        for w in root_data.weyl_elements(datum):
            members = root_data.act(w, std).members
            if members not in seen:
                seen.add(members)
                out.append((members, y))
    return out


# ---------------------------------------------------------------------------
# charts and strata: the opposite parabolic that chart generators and type
# cones were read from before they became the roots outside p, and the scan
# over every relevant parabolic that identified a stratum before stratum_of
# verified the stored one.


def opposite(p):
    """The opposite parabolic: the Levi part of p and the negatives of its
    unipotent radical."""
    levi = root_data.levi_roots(p)
    members = levi | frozenset(neg(r) for r in p.members - levi)
    return root_data.ParabolicSet(datum=p.datum, members=members)


def opposite_generators(p) -> Tuple[IntVector, ...]:
    """The chart generators of p: the unipotent radical of the opposite
    parabolic, sorted."""
    return tuple(sorted(root_data.unipotent_radical_roots(opposite(p))))


def scanned_stratum(ctx, x):
    """The relevant parabolic q of the context whose chart generators
    outside its Levi part are exactly those at -inf, in the first chart
    accepting x, and which is osculatory with that chart's parabolic;
    asserts that exactly one q matches.  The generators are those the
    context stores, which the tests check against opposite_generators."""
    def nonpositive(a):
        v = polyfan.eval_at_boundary(x.point, a)
        return v.kind < 0 or (v.kind == 0 and v.value <= 0)

    for p, psi in ctx.charts:
        try:
            if all(nonpositive(a) for a in psi):
                break
        except polyfan.IndeterminateValueError:
            pass
    else:
        raise AssertionError("no chart accepts the point")
    dead = frozenset(a for a in psi if polyfan.eval_at_boundary(x.point, a).kind < 0)
    matches = [
        q for q in ctx.parabolics
        if frozenset(a for a in psi if a not in q.members or neg(a) not in q.members) == dead
        and root_data.is_osculatory(p, q)
    ]
    assert len(matches) == 1, f"vanishing pattern matches {len(matches)} strata"
    return matches[0]


# ---------------------------------------------------------------------------
# points: the membership tests that polyfan ran in Fraction arithmetic before
# it cleared the point's denominators, kept to check its integer sign tests.


def fraction_contains_point(cone, u: Sequence) -> bool:
    return all(dot(u, f) <= 0 for f in cone.ineqs) and all(dot(u, e) == 0 for e in cone.eqs)


def fraction_in_relative_interior(cone, u: Sequence) -> bool:
    if not fraction_contains_point(cone, u):
        return False
    tight = set(polyfan.implied_equalities(cone))
    return all(dot(u, f) < 0 for f in cone.ineqs if f not in tight)


# ---------------------------------------------------------------------------
# cones: the subset-enumerating ray search and the promote-and-recompute face
# lattice that polyfan used before its double description and incidence
# faces, kept to check them.  The search runs on linalg's integer kernel,
# which the Fraction routines above check.  A cone is anything with
# space_dim, ineqs (row·x <= 0) and eqs (row·x = 0); a face is that cone with
# some inequalities copied to the equalities.


def _pairing(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _contains(cone, u: Sequence[int]) -> bool:
    return all(_pairing(u, f) <= 0 for f in cone.ineqs) and all(
        _pairing(u, e) == 0 for e in cone.eqs
    )


def _ray(v: Sequence) -> IntVector:
    """Coprime integers on the ray of a rational vector (sign kept)."""
    p = linalg.primitive(v)
    return neg(p) if next(x for x in v if x != 0) < 0 else p


@lru_cache(maxsize=None)
def enumerated_generators(cone) -> Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]]:
    """(lineality basis, extreme rays) by trying every subset of `want`
    inequality directions: a subset whose common kernel with the equalities
    is one dimension larger than the lineality cuts out a line, and the
    direction of that line that satisfies every constraint is an extreme ray.
    C(#directions, want) kernels per cone.  The output is in polyfan's
    normal form: the lineality basis of linalg.nullspace, rays reduced
    modulo the lineality, primitive with their sign kept, and sorted."""
    n = cone.space_dim
    lin = tuple(linalg.nullspace(cone.ineqs + cone.eqs, n))
    ell = len(lin)
    directions = sorted({linalg.primitive(f) for f in cone.ineqs if any(f)})
    want = n - ell - 1 - (linalg.rank(cone.eqs) if cone.eqs else 0)
    if want < 0 or want > len(directions):
        return lin, ()
    rays = set()
    for subset in combinations(directions, want):
        null = linalg.nullspace(tuple(cone.eqs) + subset, n)
        if len(null) != ell + 1:
            continue
        v0 = next((b for b in null if not linalg.in_row_span(lin, b)), None)
        if v0 is None:
            continue
        for cand in (v0, neg(v0)):
            if _contains(cone, cand):
                red = linalg.reduce_mod_span(lin, cand)
                if any(red):
                    rays.add(_ray(red))
                break
    return lin, tuple(sorted(rays))


def _tight(cone, part) -> FrozenSet[int]:
    """Indices of the inequalities of the cone vanishing on all of part."""
    lin, rays = enumerated_generators(part)
    return frozenset(
        i for i, f in enumerate(cone.ineqs)
        if all(_pairing(v, f) == 0 for v in lin + rays)
    )


def _promoted(cone, tight: Iterable[int]):
    return replace(cone, eqs=cone.eqs + tuple(cone.ineqs[i] for i in sorted(tight)))


def _dim(cone) -> int:
    lin, rays = enumerated_generators(cone)
    return linalg.rank(lin + rays)


def promoted_faces(cone) -> list:
    """Every face, breadth first: promote one more inequality of a tight set
    to an equality, recompute the generators of the candidate and read off
    its tight set; sorted by the size, then the indices of the tight set."""
    start = _tight(cone, cone)
    face_of = {start: _promoted(cone, start)}
    frontier = [start]
    while frontier:
        nxt = []
        for tight in frontier:
            for i in range(len(cone.ineqs)):
                if i in tight:
                    continue
                key = _tight(cone, _promoted(cone, tight | {i}))
                if key not in face_of:
                    face_of[key] = _promoted(cone, key)
                    nxt.append(key)
        frontier = nxt
    return [face_of[t] for t in sorted(face_of, key=lambda t: (len(t), sorted(t)))]


def promoted_facets(cone) -> list:
    """Codimension-one faces: promote each inequality that is not tight on
    the cone and keep the candidates of dimension one less, in the order of
    the first inequality cutting each out."""
    d = _dim(cone)
    start = _tight(cone, cone)
    out, seen = [], set()
    for i in range(len(cone.ineqs)):
        if i in start:
            continue
        cand = _promoted(cone, {i})
        key = _tight(cone, cand)
        if key in seen:
            continue
        seen.add(key)
        if _dim(cand) == d - 1:
            out.append(_promoted(cone, key))
    return out


def common_face_witness(a, b) -> Optional[IntVector]:
    """None when a ∩ b is a face of both; otherwise the first generator,
    lineality vectors before rays, of the face of a (then of b) cut out by
    the inequalities tight on a ∩ b, that leaves a ∩ b."""
    inter = replace(a, ineqs=a.ineqs + b.ineqs, eqs=a.eqs + b.eqs)
    for c in (a, b):
        lin, rays = enumerated_generators(_promoted(c, _tight(c, inter)))
        for v in lin:
            for f in inter.ineqs + inter.eqs:
                if _pairing(v, f) != 0:
                    return v if _pairing(v, f) > 0 else neg(v)
        for r in rays:
            if not _contains(inter, r):
                return r
    return None
