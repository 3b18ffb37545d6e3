"""Independent recomputations used to cross-check library outputs.

Everything here works on plain tuples and Fractions, re-deriving facts
from first principles rather than calling back into the code under test
(except where a check is explicitly about comparing two library routes,
as the cone and feasibility oracles at the end do on top of linalg's
integer kernel).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from weylscope import linalg, polyfan, root_data, type_geometry

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


def integer_nullspace(rows: Sequence[Sequence], n: int) -> Tuple[IntVector, ...]:
    """The RREF basis of the kernel, each vector scaled to coprime integers
    by a positive factor (it is 1 on its free column)."""
    out = []
    for v in nullspace(rows, n):
        m = lcm(*(a.denominator for a in v))
        ints = [int(a * m) for a in v]
        g = gcd(*ints)
        out.append(tuple(a // g for a in ints))
    return tuple(out)


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
# parabolics: the Weyl-group scans and filters that root_data used before its
# descent to standard position and its search over minimal coset
# representatives, kept to check them.  The scans walk root_data's ShortLex
# list of W and its action on root sets, the filters the matrix
# breadth-first search; both build the standard parabolics themselves.


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


def scanned_companion(p, label):
    """w^{-1}·P_label for the scanned standard position (w, Y) of p: the
    roots r whose image under the action matrix of w lies in P_label."""
    w, _ = scanned_standard_position(p)
    std = _standard_members(p.datum, frozenset(label))
    return root_data.ParabolicSet(p.datum, frozenset(r for r in p.datum.roots if w.apply(r) in std))


def matrix_permutation(datum, w) -> Tuple[int, ...]:
    """The permutation w induces on root indices, by its action matrix on
    each root: what the Weyl enumeration's composed permutations replace."""
    index = {r: i for i, r in enumerate(datum.roots)}
    return tuple(
        index[tuple(sum(a * b for a, b in zip(row, r)) for row in w.matrix)]
        for r in datum.roots
    )


def matrix_weyl_group(datum, cap: int):
    """(elements, permutations, inverse) of W by the matrix breadth-first
    search that root_data ran before it keyed elements by root indices:
    elements are WeylElements in ShortLex order, permutations[k] is that of
    elements[k] (perm(w·s_j) = perm(w) read through perm(s_j)), and inverse
    maps each matrix to the inverse element.  Each step multiplies the
    matrix of w by that of s_j, and the inverse's matrix by s_j on the left;
    EnumerationCapError as root_data raises it."""
    rank, cartan, roots = datum.rank, datum.cartan, datum.roots
    index = {r: i for i, r in enumerate(roots)}

    def times_reflection(m, j):  # m·s_j: column j of m against row j of cartan
        return tuple(
            tuple(a - row[j] * b for a, b in zip(row, cartan[j])) for row in m
        )

    def reflection_times(j, m):  # s_j·m: row j less cartan row j times m
        new = tuple(
            m[j][col] - sum(cartan[j][k] * m[k][col] for k in range(rank))
            for col in range(rank)
        )
        return m[:j] + (new,) + m[j + 1 :]

    reflections = [
        tuple(
            index[r[:j] + (r[j] - sum(a * b for a, b in zip(r, cartan[j])),) + r[j + 1 :]]
            for r in roots
        )
        for j in range(rank)
    ]
    ident = root_data.WeylElement(
        word=(), matrix=tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    )
    seen = {ident.matrix: ident}
    inv_of = {ident.matrix: ident.matrix}
    perm_of = {ident.matrix: tuple(range(len(roots)))}
    order = [ident]
    level = [ident]
    while level:
        nxt = []
        for w in level:
            for j, s_j in enumerate(reflections):
                mat = times_reflection(w.matrix, j)
                if mat in seen:
                    continue
                elem = root_data.WeylElement(word=w.word + (j,), matrix=mat)
                seen[mat] = elem
                inv_of[mat] = reflection_times(j, inv_of[w.matrix])
                perm_of[mat] = tuple(perm_of[w.matrix][i] for i in s_j)
                order.append(elem)
                nxt.append(elem)
                if len(order) > cap:
                    raise root_data.EnumerationCapError(datum, cap, len(order))
        level = nxt
    permutations = [perm_of[w.matrix] for w in order]
    return tuple(order), permutations, {m: seen[inv] for m, inv in inv_of.items()}


def filtered_orbit(datum, y: FrozenSet[int], weyl):
    """(parabolics, permutations, inverses) of the orbit of the standard
    parabolic of y, by filtering W as the matrix breadth-first search gives
    it (weyl, a matrix_weyl_group result): w is kept when it has no right
    descent in y, w·α_i > 0 (column i of its matrix positive) for every i in
    y.  parabolics holds (members, label) pairs and inverses the elements
    w^{-1}, in ShortLex order of w."""
    elements, permutations, inverse = weyl
    index = {r: i for i, r in enumerate(datum.roots)}
    std = [index[r] for r in _standard_members(datum, y)]
    kept = [
        (w, perm) for w, perm in zip(elements, permutations)
        if all(any(row[i] > 0 for row in w.matrix) for i in y)
    ]
    parabolics = [(frozenset(datum.roots[perm[k]] for k in std), y) for _, perm in kept]
    return parabolics, [perm for _, perm in kept], [inverse[w.matrix] for w, _ in kept]


def weyl_order(datum, cap: int = 10 ** 5) -> int:
    """|W| by counting the elements of the matrix breadth-first search."""
    return len(matrix_weyl_group(datum, cap)[0])


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
# reports: the JSON text of a report, and the report dicts of `fan`,
# `prefan` and `relevant --all` as the CLI built them before it streamed
# them, one dict per cone and per parabolic.


def report_text(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _type_names(t) -> List[str]:
    return [f"a{i + 1}" for i in sorted(t)]


def parabolic_id(q) -> dict:
    w, y = root_data.standard_position(q)
    return {"label": _type_names(y), "word": [i + 1 for i in w.word]}


def _cone_report(cone, lineality, rays, dim) -> dict:
    return {
        "space_dim": cone.space_dim,
        "dim": dim,
        "ineqs": [list(phi) for phi in cone.ineqs],
        "eqs": [list(phi) for phi in cone.eqs],
        "lineality_dim": len(lineality),
        "rays": [[str(c) for c in r] for r in rays],
    }


def _cone_list(family) -> List[dict]:
    entries = []
    prefan = family.prefan
    cones = zip(family.parabolics, prefan.cones, prefan.generators, family.dims)
    for i, (q, c, (lin, rays), d) in enumerate(cones):
        entry = _cone_report(c, lin, rays, d)
        entry["index"] = i
        entry["parabolic"] = parabolic_id(q)
        entries.append(entry)
    return entries


def _dims(cones) -> dict:
    return {str(k): v for k, v in sorted(Counter(c["dim"] for c in cones).items())}


def fan_report(datum) -> dict:
    cones = _cone_list(type_geometry.weyl_cone_orbits(datum))
    return {
        "command": "fan",
        "datum": datum.name,
        "rank": datum.rank,
        "count": len(cones),
        "dims": _dims(cones),
        "cones": cones,
    }


def prefan_report(datum, t) -> dict:
    cones = _cone_list(type_geometry.type_cone_orbits(datum, t))
    return {
        "command": "prefan",
        "datum": datum.name,
        "type": _type_names(t),
        "count": len(cones),
        "dims": _dims(cones),
        "lineality_dim": len(type_geometry.lineality_space(datum, t)),
        "cones": cones,
    }


def relevant_all_report(datum, t) -> dict:
    """The report of `relevant --all`, with the relevant labels read off a
    relevance report of each standard parabolic."""
    labels = [
        y
        for y in all_type_labels(datum.rank)
        if type_geometry.relevance_report(root_data.standard_parabolic(datum, y), t).is_relevant
    ]
    everything = [parabolic_id(q) for q in root_data.parabolics_of(datum, labels)]
    return {
        "command": "relevant",
        "datum": datum.name,
        "type": _type_names(t),
        "standard_relevant": [_type_names(y) for y in labels],
        "count": len(labels),
        "all_relevant": everything,
        "all_count": len(everything),
    }


# ---------------------------------------------------------------------------
# the diagonal seminorm dictionary: the block description of the stabilizer
# of a class, which the library built before it read the stabilizer off the
# apartment.


class GlStabilizerBlocks(NamedTuple):
    full_unipotent: Tuple[IntVector, ...]
    full_levi: Tuple[IntVector, ...]
    filtered: Tuple[Tuple[IntVector, Fraction], ...]


def _chi_diff(d: int, i: int, j: int) -> IntVector:
    """chi_i - chi_j in the simple-root coordinates of A_d: the sum of the
    alpha_k for min(i, j) <= k < max(i, j), negated when i > j."""
    sign = 1 if i < j else -1
    return tuple(sign if min(i, j) <= k < max(i, j) else 0 for k in range(d))


def gl_stabilizer_blocks(s) -> GlStabilizerBlocks:
    """The stabilizer of a diagonal seminorm class s, block by block from
    its kernel and values: chi_i - chi_j acts fully when i is in the kernel
    (the unipotent radical when j is not, the kernel block when j is), and
    is filtered at level c_i - c_j when neither is."""
    d = len(s.values) - 1
    ker = {i for i, v in enumerate(s.values) if v.kind < 0}
    pairs = [(i, j) for i in range(d + 1) for j in range(d + 1) if i != j]
    unipotent = [_chi_diff(d, i, j) for i, j in pairs if i in ker and j not in ker]
    levi = [_chi_diff(d, i, j) for i, j in pairs if i in ker and j in ker]
    filtered = [
        (_chi_diff(d, i, j), s.values[i].value - s.values[j].value)
        for i, j in pairs
        if i not in ker and j not in ker
    ]
    return GlStabilizerBlocks(*(tuple(sorted(part)) for part in (unipotent, levi, filtered)))


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


def scanned_limit(ctx, u0, v):
    """The limit of the ray u0 + n*v as a scan finds it: the first cone of
    the context's prefan holding v in its relative interior, with its
    parabolic, and the residual class of u0."""
    for q, cone in zip(ctx.parabolics, ctx.prefan.cones):
        if polyfan.in_relative_interior(cone, v):
            return q, polyfan.BoundaryPoint(stratum=cone, residual=linalg.vec(u0))
    raise AssertionError("direction lies in no stratum cone; prefan does not cover it")


# ---------------------------------------------------------------------------
# points: the membership tests that polyfan ran in Fraction arithmetic before
# it cleared the point's denominators, kept to check its integer sign tests.


def fraction_contains_point(cone, u: Sequence) -> bool:
    return all(dot(u, f) <= 0 for f in cone.ineqs) and all(dot(u, e) == 0 for e in cone.eqs)


def fraction_in_relative_interior(cone, u: Sequence) -> bool:
    if not fraction_contains_point(cone, u):
        return False
    tight = set(implied_equalities(cone))
    return all(dot(u, f) < 0 for f in cone.ineqs if f not in tight)


# ---------------------------------------------------------------------------
# boundary points: the span-basis definitions polyfan used before it read a
# stratum cone's dimension, residual class and boundary values off its
# (lineality, rays) in one pass, kept to check those passes; with them,
# fraction_in_relative_interior above is the old relative-interior test.


def functional_vanishes(cone, phi: Sequence[int]) -> bool:
    lin, rays = polyfan.generators(cone)
    return all(_pairing(v, phi) == 0 for v in lin + rays)


def cone_implies(cone, phi: Sequence[int]) -> bool:
    """Whether <u,phi> <= 0 holds on all of the cone."""
    lin, rays = polyfan.generators(cone)
    return all(_pairing(v, phi) == 0 for v in lin) and all(_pairing(r, phi) <= 0 for r in rays)


@lru_cache(maxsize=None)
def implied_equalities(cone) -> Tuple[IntVector, ...]:
    """Kept per cone: criterion 1 asks it of the same Weyl cones once for
    every type."""
    return tuple(cone.eqs) + tuple(f for f in cone.ineqs if functional_vanishes(cone, f))


@lru_cache(maxsize=None)
def span_basis(cone) -> Tuple[IntVector, ...]:
    return tuple(linalg.nullspace(implied_equalities(cone), cone.space_dim))


def span_dim(cone) -> int:
    return len(span_basis(cone))


def span_residual(stratum, residual: Sequence) -> Tuple[Fraction, ...]:
    """The residual class of a boundary point, reduced modulo the span basis."""
    return linalg.reduce_mod_span(span_basis(stratum), residual)


def span_eval_at_boundary(point, phi: Sequence[int]):
    """Finite when phi vanishes on the span basis of the stratum, then -inf
    or +inf when it implies a sign on the cone, else indeterminate."""
    f = tuple(int(x) for x in phi)
    if all(_pairing(b, f) == 0 for b in span_basis(point.stratum)):
        return polyfan.finite(dot(point.residual, f))
    if cone_implies(point.stratum, f):
        return polyfan.NEG_INF
    if cone_implies(point.stratum, linalg.neg_int(f)):
        return polyfan.POS_INF
    raise polyfan.IndeterminateValueError(f"functional {f} changes sign on the stratum cone")


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
    directions = sorted({max(linalg.primitive(f), neg(linalg.primitive(f)))
                         for f in cone.ineqs if any(f)})
    want = n - ell - 1 - (linalg.rank(cone.eqs) if cone.eqs else 0)
    if want < 0 or want > len(directions):
        return lin, ()
    rays = set()
    for subset in combinations(directions, want):
        null = linalg.nullspace(tuple(cone.eqs) + subset, n)
        if len(null) != ell + 1:
            continue
        v0 = next((b for b in null if not in_row_span(lin, b)), None)
        if v0 is None:
            continue
        for cand in (v0, neg(v0)):
            if _contains(cone, cand):
                red = linalg.reduce_mod_span(lin, cand)
                if any(red):
                    rays.add(linalg.primitive(red))
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
    return polyfan.Cone(
        space_dim=cone.space_dim,
        ineqs=cone.ineqs,
        eqs=cone.eqs + tuple(cone.ineqs[i] for i in sorted(tight)),
    )


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
    inter = polyfan.Cone(space_dim=a.space_dim, ineqs=a.ineqs + b.ineqs, eqs=a.eqs + b.eqs)
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


# ---------------------------------------------------------------------------
# prefans: the certificates that verify_prefan and covers gave before they
# paired only maximal cones and keyed facets, kept to check them.  They call
# polyfan's face tables, facets and common_face, so they check the pairing,
# not the face lattice.


def all_pairs_verify_prefan(prefan) -> None:
    """Face closure, then common_face on every pair of cones in index
    order; raises the FanAxiomViolation of the first cone or pair at
    fault."""
    keys = {polyfan._canonical_key(c) for c in prefan.cones}
    for i, (c, (lin, rays)) in enumerate(zip(prefan.cones, prefan.generators)):
        for tight, face_rays in polyfan._face_table(c, rays):
            if (c.space_dim, lin, frozenset(face_rays)) not in keys:
                raise polyfan.FanAxiomViolation(
                    f"face closure fails: a face of cone {i} is not in the prefan",
                    witness=polyfan.relative_interior_point(polyfan._promoted(c, tight)),
                    cones=(i,),
                )
    for i, a in enumerate(prefan.cones):
        for j, b in enumerate(prefan.cones[i + 1 :], i + 1):
            try:
                polyfan.common_face(a, b)
            except polyfan.FanAxiomViolation as err:
                raise polyfan.FanAxiomViolation(
                    f"cones {i} and {j}: {err}", witness=err.witness, cones=(i, j)
                ) from None


def _sample_grid(n: int) -> List[IntVector]:
    """Integer points of the cube [-2, 2]^n (n <= 3) or [-1, 1]^n, in
    lexicographic order."""
    bound = 2 if n <= 3 else 1
    return list(product(range(-bound, bound + 1), repeat=n))


def sample_grid_covers(prefan) -> bool:
    """The covering test polyfan.covers ran before it became one exact facet
    pass, kept to check it: every facet of every maximal cone is a linear
    subspace or shared with exactly one other maximal cone, and every
    integer sample point lies in some cone.  A heuristic: the grid can miss
    a thin uncovered region."""
    n = prefan.space_dim
    maximal = [c for c in prefan.cones if polyfan.dim(c) == n]
    if not maximal:
        return n == 0 and bool(prefan.cones)
    for c in maximal:
        for f in polyfan.facets(c):
            if polyfan.dim(f) == len(polyfan.lineality_basis(f)):
                continue  # a linear subspace: boundary only of the lineality locus
            others = [
                c2
                for c2 in maximal
                if c2 is not c
                and not polyfan.cones_equal(c, c2)
                and polyfan.cone_subset(f, c2)
            ]
            if len(others) != 1:
                return False
    for pt in _sample_grid(n):
        if not any(polyfan.contains_point(c, pt) for c in prefan.cones):
            return False
    return True


# ---------------------------------------------------------------------------
# rational feasibility: Fourier-Motzkin elimination over homogeneous
# constraint systems, and the certificate of criterion 1 built on it (each
# type cone is the union of the Weyl cones below it), which type_geometry
# and linalg carried before any command needed them.  A constraint is a pair
# (row, strict) meaning row·x <= 0, or row·x < 0 when strict.

Constraint = Tuple[IntVector, bool]


def in_row_span(rows: Sequence[Sequence], v: Sequence) -> bool:
    red, pivots = linalg._reduce(rows)
    w = linalg.integer_row(v)
    for row, p in zip(red, pivots):
        if w[p] != 0:
            w = [row[p] * a - w[p] * b for a, b in zip(w, row)]
    return linalg.is_zero(w)


def _normalize_constraint(row: Sequence, strict: bool) -> Constraint:
    """The row as coprime integers, same direction."""
    ints = linalg.integer_row(row)
    g = gcd(*ints)
    if g > 1:
        ints = [a // g for a in ints]
    return tuple(ints), strict


def _eliminate(cons: List[Constraint], k: int) -> Optional[List[Constraint]]:
    """One Fourier-Motzkin step on coordinate k; None when 0 < 0 is derived."""
    pos: List[Constraint] = []
    negs: List[Constraint] = []
    rest: List[Constraint] = []
    for row, strict in cons:
        if row[k] > 0:
            pos.append((row, strict))
        elif row[k] < 0:
            negs.append((row, strict))
        else:
            rest.append((row, strict))
    seen = {c for c in rest}
    out = list(seen)
    for prow, pstrict in pos:
        for nrow, nstrict in negs:
            comb = tuple(
                -nrow[k] * a + prow[k] * b for a, b in zip(prow, nrow)
            )
            strict = pstrict or nstrict
            if linalg.is_zero(comb):
                if strict:
                    return None
                continue
            c = _normalize_constraint(comb, strict)
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def feasible_point(
    constraints: Sequence[Tuple[Sequence, bool]], n: int
) -> Optional[Tuple[Fraction, ...]]:
    """A rational point satisfying every homogeneous constraint, else None.

    Constraints are (row, strict) with meaning row·x <= 0 / < 0.  Decided by
    Fourier-Motzkin elimination with back-substitution; exact and complete
    over Q.
    """
    cons: List[Constraint] = []
    for row, strict in constraints:
        c = _normalize_constraint(row, strict)
        if linalg.is_zero(c[0]):
            if c[1]:
                return None
            continue
        cons.append(c)
    stages: List[List[Constraint]] = []
    current = cons
    for k in range(n):
        stages.append(current)
        nxt = _eliminate(current, k)
        if nxt is None:
            return None
        current = nxt
    for row, strict in current:
        if strict:  # rows are now all-zero
            return None
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        lo: Optional[Fraction] = None
        lo_strict = False
        hi: Optional[Fraction] = None
        hi_strict = False
        for row, strict in stages[k]:
            coef = row[k]
            if coef == 0:
                continue
            rest = sum(row[j] * x[j] for j in range(k + 1, n))
            bound = Fraction(-rest, coef)
            if coef > 0:  # x_k <= bound
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi:
                    hi_strict = hi_strict or strict
            else:  # x_k >= bound
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo:
                    lo_strict = lo_strict or strict
        if lo is None and hi is None:
            x[k] = Fraction(0)
        elif lo is None:
            x[k] = hi - 1 if hi_strict else min(hi, Fraction(0))
        elif hi is None:
            x[k] = lo + 1 if lo_strict else max(lo, Fraction(0))
        elif lo == hi:
            x[k] = lo
        else:
            x[k] = (lo + hi) / 2 if (lo_strict or hi_strict) else lo
    return tuple(x)


def feasible(constraints: Sequence[Tuple[Sequence, bool]], n: int) -> bool:
    return feasible_point(constraints, n) is not None


def _relint_meets(cone, region) -> bool:
    """Whether the relative interior of cone meets the (closed) region."""
    cons: List[Tuple[Sequence, bool]] = [(f, False) for f in region.ineqs]
    for e in region.eqs:
        cons.append((e, False))
        cons.append((linalg.neg_int(e), False))
    tight = set(implied_equalities(cone))
    for e in tight:
        cons.append((e, False))
        cons.append((linalg.neg_int(e), False))
    for f in cone.ineqs:
        if f not in tight:
            cons.append((f, True))
    return feasible(cons, cone.space_dim)


def _relint_meets_by_signs(cone, region) -> Optional[bool]:
    """Whether the relative interior of a pointed cone meets the region,
    decided by signs on its rays, or None.  The sum of the rays lies in the
    relative interior, so it meets the region when the sum lies in it; every
    point of the relative interior is a positive combination of the rays, so
    it misses the region when one inequality of the region is positive on
    every ray, or one equality has the same strict sign on every ray."""
    lin, rays = polyfan.generators(cone)
    if lin:
        return None
    total = tuple(map(sum, zip(*rays))) if rays else (0,) * cone.space_dim
    if polyfan.contains_point(region, total):
        return True
    for f in region.ineqs:
        if all(_pairing(r, f) > 0 for r in rays):
            return False
    for e in region.eqs:
        signs = {(_pairing(r, e) > 0) - (_pairing(r, e) < 0) for r in rays}
        if signs in ({1}, {-1}):
            return False
    return None


def relint_meets(cone, region) -> bool:
    """_relint_meets, with Fourier-Motzkin run only where the sign tests
    leave the answer open."""
    decided = _relint_meets_by_signs(cone, region)
    return _relint_meets(cone, region) if decided is None else decided


@lru_cache(maxsize=None)
def _weyl_cones(datum) -> tuple:
    """(members, Weyl cone) of every parabolic of the datum, built once for
    all the types the oracle below is asked about."""
    return tuple(
        (q.members, type_geometry.weyl_cone(q)) for q in root_data.all_parabolics(datum)
    )


def union_weyl_oracle(p, cone=None, meets=relint_meets) -> bool:
    """Certify that the candidate cone (default: the max type cone of p)
    equals the union of the Weyl cones of all parabolics contained in p:
    each such Weyl cone must lie inside it, and every Weyl cone whose
    relative interior meets it must contain some parabolic below p.  The
    meeting test is meets: relint_meets, or the plain _relint_meets."""
    region = cone if cone is not None else type_geometry.type_cone_max(p)
    everything = _weyl_cones(p.datum)
    subs = [(m, c) for m, c in everything if m <= p.members]
    for _, c in subs:
        if not polyfan.cone_subset(c, region):
            return False
    sub_members = [m for m, _ in subs]
    for members, c in everything:
        if meets(c, region):
            if not any(m <= members for m in sub_members):
                return False
    return True
