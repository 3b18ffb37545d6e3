"""Root systems, Weyl groups, and parabolic subsets of roots.

Characters live in simple-root coordinates (the root lattice), so a root is
an integer vector whose entries are its coefficients on the simple base.
Dual vectors are then in fundamental-coweight coordinates and the pairing of
a character with a dual vector is the plain dot product; the i-th simple
coroot is row i of the Cartan matrix.

Parabolics come from Lie theory rather than from searches of the Weyl group
(Bourbaki, *Lie Groups*, ch. IV-VI; Humphreys 1990, section 1.10).  The
standard parabolic of a type label Y, kept once per label in the datum's
table, holds the positive roots and the negatives of those supported on Y.
Its orbit is W/W_Y, so `orbits_of` builds it from the minimal coset
representatives, once per label and only for the labels asked for, and
keeps each representative's root permutation and inverse next to its
parabolic: cones of P_Y carry to the rest of the orbit through them.
`standard_position` descends by simple reflections, each adding one
positive root, so the element it builds has the least length any solution
can have; the least element of the solution coset is unique.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

IntVector = Tuple[int, ...]
IntMatrix = Tuple[IntVector, ...]
TypeLabel = FrozenSet[int]

DEFAULT_ENUM_CAP = 1152
ENUM_CAP_ENV = "WEYLSCOPE_ENUM_CAP"
_ROOT_COUNT_CAP = 500


class ValidationError(ValueError):
    """Invalid root datum, parabolic set, or operation input."""


class EnumerationCapError(RuntimeError):
    """The Weyl group is larger than the configured enumeration cap.

    Carries the name of the datum the caller passed (None when it has none),
    the cap, and the number of elements reached when enumeration stopped.
    """

    def __init__(self, datum: "RootDatum", cap: int, reached: int):
        what = datum.name or f"a rank-{datum.rank} datum"
        super().__init__(
            f"Weyl enumeration of {what} exceeded cap {cap} at {reached} elements"
            f" (set {ENUM_CAP_ENV} to raise it)"
        )
        self.datum_name = datum.name
        self.cap = cap
        self.reached = reached


def resolve_enum_cap() -> int:
    """The cap on |W| when the caller gives none: WEYLSCOPE_ENUM_CAP, else
    the default; a value that is not an integer of at least 1 is a
    ValidationError."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"{ENUM_CAP_ENV} must be at least 1, got {value}")
    return value


def _mat_vec(m: IntMatrix, v: Sequence[int]) -> IntVector:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _reflection_times(j: int, m: IntMatrix, cartan: IntMatrix) -> IntMatrix:
    """s_j·m: row j becomes row j minus the Cartan-row-j combination of the
    rows of m; every other row stays."""
    c = cartan[j]
    new = tuple(
        a - sum(ck * row[col] for ck, row in zip(c, m) if ck != 0)
        for col, a in enumerate(m[j])
    )
    return m[:j] + (new,) + m[j + 1 :]


def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class WeylElement(NamedTuple):
    """A Weyl group element: ShortLex-least reduced word plus its action
    matrix on the character lattice."""

    word: Tuple[int, ...]
    matrix: IntMatrix

    def apply(self, chi: Sequence[int]) -> IntVector:
        return _mat_vec(self.matrix, chi)


class _Record:
    """Base of the immutable records that are not NamedTuples, because a
    field stays out of equality or the record iterates over something else.
    A subclass lists its fields in __slots__, in constructor order, and sets
    them once with object.__setattr__; equality and hash are those of _key,
    every field unless the subclass says otherwise."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class RootDatum(_Record):
    """Roots, simple base, coroots and Cartan data of a split semisimple
    group; cartan[i][j] is the pairing of simple root j with simple coroot i.
    Equality and hash ignore the name; the hash, asked for by every table
    lookup, is computed once.
    """

    __slots__ = ("rank", "cartan", "roots", "coroots", "name", "_hash")

    def __init__(
        self,
        rank: int,
        cartan: IntMatrix,
        roots: Tuple[IntVector, ...],
        coroots: Tuple[IntVector, ...],
        name: Optional[str] = None,
    ):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "coroots", coroots)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self):
        return self.rank, self.cartan, self.roots, self.coroots

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return RootDatum, self._key() + (self.name,)

    def __repr__(self):
        return (
            f"RootDatum(rank={self.rank!r}, cartan={self.cartan!r}, roots={self.roots!r},"
            f" coroots={self.coroots!r}, name={self.name!r})"
        )

    def is_positive(self, root: Sequence[int]) -> bool:
        return any(c > 0 for c in root)

    @property
    def positive_roots(self) -> Tuple[IntVector, ...]:
        return tuple(r for r in self.roots if self.is_positive(r))

    def pairing(self, chi: Sequence[int], coroot: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(chi, coroot))

    def reflection_matrix(self, i: int) -> IntMatrix:
        rows = []
        for j in range(self.rank):
            if j == i:
                rows.append(
                    tuple((1 if k == i else 0) - self.cartan[i][k] for k in range(self.rank))
                )
            else:
                rows.append(tuple(1 if k == j else 0 for k in range(self.rank)))
        return tuple(rows)


class ParabolicSet(_Record):
    """A closed generating subset of the roots (a parabolic containing the
    fixed maximal split torus, identified with its root set).  Equality,
    hash and repr ignore the type label."""

    __slots__ = ("datum", "members", "type_label")

    def __init__(
        self,
        datum: RootDatum,
        members: FrozenSet[IntVector],
        type_label: Optional[TypeLabel] = None,
    ):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "type_label", type_label)

    def _key(self):
        return self.datum, self.members

    def __repr__(self):
        return f"ParabolicSet(datum={self.datum!r}, members={self.members!r})"


_NAMED_CARTAN: Dict[str, IntMatrix] = {}


def _chain_cartan(n: int) -> List[List[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        if i + 1 < n:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


def _register_named() -> None:
    for n in range(1, 7):
        _NAMED_CARTAN[f"A{n}"] = tuple(map(tuple, _chain_cartan(n)))
    for n in range(2, 6):
        b = _chain_cartan(n)
        b[n - 1][n - 2] = -2
        _NAMED_CARTAN[f"B{n}"] = tuple(map(tuple, b))
        c = _chain_cartan(n)
        c[n - 2][n - 1] = -2
        _NAMED_CARTAN[f"C{n}"] = tuple(map(tuple, c))
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    _NAMED_CARTAN["D4"] = tuple(map(tuple, d4))
    # D5: the chain a1-a2-a3 forks at a3 into a4 and a5.
    d5 = _chain_cartan(5)
    d5[3][4] = d5[4][3] = 0
    d5[2][4] = d5[4][2] = -1
    _NAMED_CARTAN["D5"] = tuple(map(tuple, d5))
    # F4 with a1, a2 long and a3, a4 short (Bourbaki).
    f4 = _chain_cartan(4)
    f4[2][1] = -2
    _NAMED_CARTAN["F4"] = tuple(map(tuple, f4))
    _NAMED_CARTAN["G2"] = ((2, -3), (-1, 2))
    _NAMED_CARTAN["A1xA1"] = ((2, 0), (0, 2))


_register_named()


def _generate_roots(cartan: IntMatrix) -> Tuple[Tuple[IntVector, ...], Tuple[IntVector, ...]]:
    """Close the simple roots (and coroots, in parallel) under the simple
    reflections; raises ValidationError when the system is not finite."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    coroot_of: Dict[IntVector, IntVector] = {
        simple[i]: tuple(cartan[i]) for i in range(rank)
    }
    frontier = list(simple)
    while frontier:
        nxt: List[IntVector] = []
        for beta in frontier:
            cb = coroot_of[beta]
            for i in range(rank):
                pair = sum(cartan[i][k] * beta[k] for k in range(rank))
                refl = tuple(
                    beta[k] - (pair if k == i else 0) for k in range(rank)
                )
                if refl in coroot_of:
                    continue
                # dual reflection: u - <alpha_i, u> alpha_i^vee, <alpha_i,u> = u_i
                crefl = tuple(
                    cb[k] - cb[i] * cartan[i][k] for k in range(rank)
                )
                coroot_of[refl] = crefl
                nxt.append(refl)
                if len(coroot_of) > _ROOT_COUNT_CAP:
                    raise ValidationError("root system is not of finite type")
        frontier = nxt
    roots = tuple(sorted(coroot_of))
    coroots = tuple(coroot_of[r] for r in roots)
    return roots, coroots


def _validate_datum(datum: RootDatum) -> None:
    for r, c in zip(datum.roots, datum.coroots):
        if datum.pairing(r, c) != 2:
            raise ValidationError(f"root {r} pairs to {datum.pairing(r, c)} with its coroot")
        pos = any(x > 0 for x in r)
        neg = any(x < 0 for x in r)
        if (pos and neg) or not (pos or neg):
            raise ValidationError(f"root {r} has mixed-sign simple-root coefficients")
    root_set = set(datum.roots)
    for r in datum.roots:
        if tuple(-x for x in r) not in root_set:
            raise ValidationError(f"root set not closed under negation at {r}")


def build_from_cartan(
    cartan: Sequence[Sequence[int]], name: Optional[str] = None
) -> RootDatum:
    """Root datum from a finite-type (generalized) Cartan matrix."""
    rank = len(cartan)
    if rank == 0:
        return RootDatum(rank=0, cartan=(), roots=(), coroots=(), name=name)
    mat = tuple(tuple(int(x) for x in row) for row in cartan)
    for i, row in enumerate(mat):
        if len(row) != rank:
            raise ValidationError("Cartan matrix must be square")
        if row[i] != 2:
            raise ValidationError("Cartan diagonal entries must equal 2")
        for j, x in enumerate(row):
            if i != j and x > 0:
                raise ValidationError("Cartan off-diagonal entries must be <= 0")
            if i != j and (x == 0) != (mat[j][i] == 0):
                raise ValidationError("Cartan zero pattern must be symmetric")
    roots, coroots = _generate_roots(mat)
    datum = RootDatum(rank=rank, cartan=mat, roots=roots, coroots=coroots, name=name)
    _validate_datum(datum)
    return datum


@lru_cache(maxsize=None)
def build_named(name: str) -> RootDatum:
    """Built-in datum by classical label (A1-A6, B2-B5, C2-C5, D4, D5, F4,
    G2, A1xA1)."""
    if name not in _NAMED_CARTAN:
        raise ValidationError(f"unknown root datum name: {name!r}")
    return build_from_cartan(_NAMED_CARTAN[name], name=name)


class Orbit(_Record):
    """The orbit of the standard parabolic P_Y of a type label: the
    parabolics w·P_Y in ShortLex order of their minimal coset
    representatives w, and for each the permutation w induces on root
    indices and w^{-1}, its standard position.  Iterating an orbit gives
    its parabolics."""

    __slots__ = ("parabolics", "permutations", "inverses")

    def __init__(
        self,
        parabolics: Tuple[ParabolicSet, ...],
        permutations: Tuple[Tuple[int, ...], ...],
        inverses: Tuple[WeylElement, ...],
    ):
        object.__setattr__(self, "parabolics", parabolics)
        object.__setattr__(self, "permutations", permutations)
        object.__setattr__(self, "inverses", inverses)

    def __repr__(self):
        return (
            f"Orbit(parabolics={self.parabolics!r}, permutations={self.permutations!r},"
            f" inverses={self.inverses!r})"
        )

    def __iter__(self) -> Iterator[ParabolicSet]:
        return iter(self.parabolics)

    def __len__(self) -> int:
        return len(self.parabolics)


class _Weyl(NamedTuple):
    """The Weyl group of a datum: its elements in ShortLex order, and every
    element and its inverse by action matrix."""

    elements: Tuple[WeylElement, ...]
    by_matrix: Dict[IntMatrix, WeylElement]
    inverse: Dict[IntMatrix, WeylElement]


def _type_labels(rank: int) -> Iterable[TypeLabel]:
    """Every subset of the simple roots, in type-label order (by size, then
    index set)."""
    return (frozenset(y) for k in range(rank + 1) for y in combinations(range(rank), k))


class DatumTables:
    """Every combinatorial table of one root datum, shared by all equal data.

    The root index is built with the table, the Weyl group and the root
    permutation of each of its elements on first use, and the standard
    parabolic, the orbit and the subsystem roots of each type label, and
    the standard positions, only when something asks for them: one label's
    standard parabolic or orbit never builds the other 2^rank - 1.  An
    orbit holds its parabolics with the root permutation and the inverse
    of each one's coset representative (see Orbit).  Each entry is
    computed in full before one assignment stores it, and computing it
    again gives an equal value, so threads may share a table without a
    lock.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.root_index: Dict[IntVector, int] = {r: i for i, r in enumerate(datum.roots)}
        self.weyl: Optional[_Weyl] = None
        self.standard: Dict[TypeLabel, ParabolicSet] = {}
        self.orbits: Dict[TypeLabel, Orbit] = {}
        self.positions: Dict[FrozenSet[IntVector], Tuple[WeylElement, TypeLabel]] = {}
        self.permutations: Dict[IntMatrix, Tuple[int, ...]] = {}
        self.subsystem_roots: Dict[TypeLabel, Tuple[IntVector, ...]] = {}

    @staticmethod
    def of(datum: RootDatum) -> "DatumTables":
        tables = _TABLES.get(datum)
        if tables is None:
            tables = _TABLES.setdefault(datum, DatumTables(datum))
        return tables

    def weyl_group(self, datum: RootDatum, cap: Optional[int] = None) -> _Weyl:
        """The Weyl group, enumerated on first use; raises
        EnumerationCapError, and stores nothing, when it is larger than the
        cap.  The error names datum, the caller's own: equal data share the
        table, which keeps the name of the first of them."""
        limit = resolve_enum_cap() if cap is None else cap
        if limit < 1:
            raise ValidationError(f"enumeration cap must be at least 1, got {cap}")
        weyl = self.weyl
        if weyl is None:
            weyl = self.weyl = self._enumerate_weyl(datum, limit)
        elif len(weyl.elements) > limit:
            raise EnumerationCapError(datum, limit, len(weyl.elements))
        return weyl

    def enumerated_weyl_group(self, datum: RootDatum) -> _Weyl:
        """The Weyl group for every caller but weyl_elements: the group as
        already enumerated, under whatever cap weyl_elements was given,
        else enumerated now under WEYLSCOPE_ENUM_CAP or the default cap.
        The cap is checked where W is enumerated and nowhere else."""
        return self.weyl or self.weyl_group(datum)

    def _enumerate_weyl(self, caller: RootDatum, limit: int) -> _Weyl:
        """Breadth-first over words in simple-reflection index order, so the
        first word reaching an element is its ShortLex-least reduced word
        (Björner and Brenti 2005, section 3.4).

        An element w is keyed by the root indices of w·α_1, ..., w·α_r,
        which fix it.  With s_j sending r to r - <r, α_j∨> α_j, and perm(w)
        the permutation w induces on root indices, w·s_j has the key
        perm(w)[s_j(α_k)] and, when new, the permutation i ↦
        perm(w)[perm(s_j)[i]]; its inverse s_j·w^{-1} has the key
        perm(s_j) read over the key of w^{-1}.  Each matrix is built once,
        at the end: its columns are the roots at the key.  The permutations
        are stored once the whole group fits under the cap."""
        datum = self.datum
        roots = datum.roots
        cartan = datum.cartan
        reflections = [
            tuple(
                self.root_index[r[:j] + (r[j] - datum.pairing(r, cartan[j]),) + r[j + 1 :]]
                for r in roots
            )
            for j in range(datum.rank)
        ]
        simple = tuple(self.root_index[a] for a in _identity_matrix(datum.rank))
        # The key of s_j: the root indices of s_j·α_k.
        simple_images = [tuple([s_j[i] for i in simple]) for s_j in reflections]
        index_of: Dict[IntVector, int] = {simple: 0}
        words: List[Tuple[int, ...]] = [()]
        keys: List[IntVector] = [simple]
        perms: List[Tuple[int, ...]] = [tuple(range(len(roots)))]
        inverse_keys: List[IntVector] = [simple]
        level = [0]
        while level:
            nxt: List[int] = []
            for w in level:
                perm_w = perms[w]
                for j, (s_j, images) in enumerate(zip(reflections, simple_images)):
                    key = tuple([perm_w[i] for i in images])
                    if key in index_of:
                        continue
                    index_of[key] = len(keys)
                    nxt.append(len(keys))
                    words.append(words[w] + (j,))
                    keys.append(key)
                    perms.append(tuple([perm_w[i] for i in s_j]))
                    inverse_keys.append(tuple([s_j[i] for i in inverse_keys[w]]))
                    if len(keys) > limit:
                        raise EnumerationCapError(caller, limit, len(keys))
            level = nxt
        matrices = [tuple(zip(*[roots[i] for i in key])) for key in keys]
        elements = tuple(map(WeylElement, words, matrices))
        self.permutations.update(zip(matrices, perms))
        inverse = {
            mat: elements[index_of[inv]] for mat, inv in zip(matrices, inverse_keys)
        }
        return _Weyl(elements=elements, by_matrix=dict(zip(matrices, elements)), inverse=inverse)

    def standard_parabolic(self, label: TypeLabel) -> ParabolicSet:
        """Positive roots plus the negatives of the roots supported on the
        label."""
        std = self.standard.get(label)
        if std is None:
            negatives = (tuple(-c for c in b) for b in self.subsystem_positive_roots(label))
            members = frozenset(self.datum.positive_roots).union(negatives)
            std = ParabolicSet(datum=self.datum, members=members, type_label=label)
            self.standard[label] = std
        return std

    def standard_parabolics(self) -> Tuple[ParabolicSet, ...]:
        """The standard parabolic of every type label, in type-label order
        (by size, then index set): one per subset of the simple roots, so
        only for callers that bounded the rank first."""
        return tuple(self.standard_parabolic(y) for y in _type_labels(self.datum.rank))

    def permutation(self, w: WeylElement) -> Tuple[int, ...]:
        """The permutation w induces on root indices: stored for every
        element by the Weyl enumeration, else computed from the matrix."""
        perm = self.permutations.get(w.matrix)
        if perm is None:
            perm = tuple(self.root_index[w.apply(r)] for r in self.datum.roots)
            self.permutations[w.matrix] = perm
        return perm

    def subsystem_positive_roots(self, label: TypeLabel) -> Tuple[IntVector, ...]:
        """The positive roots supported on the label."""
        roots = self.subsystem_roots.get(label)
        if roots is None:
            roots = tuple(b for b in self.datum.positive_roots if _root_in_span(b, label))
            self.subsystem_roots[label] = roots
        return roots


_TABLES: Dict[RootDatum, DatumTables] = {}


def weyl_elements(datum: RootDatum, cap: Optional[int] = None) -> Tuple[WeylElement, ...]:
    """All Weyl elements in ShortLex order of their canonical reduced words.

    The one library function that takes a cap: cap, else WEYLSCOPE_ENUM_CAP,
    else the default, checked against the group even when it is already
    enumerated.  A group once enumerated serves every later lookup on the
    datum, so enumerating it here under a cap above the default is what
    lets the rest of the library work on a larger group."""
    return DatumTables.of(datum).weyl_group(datum, cap).elements


def identity_element(datum: RootDatum) -> WeylElement:
    return WeylElement(word=(), matrix=_identity_matrix(datum.rank))


def compose(datum: RootDatum, a: WeylElement, b: WeylElement) -> WeylElement:
    """Canonical form of a∘b (a applied after b)."""
    weyl = DatumTables.of(datum).enumerated_weyl_group(datum)
    return weyl.by_matrix[_mat_mul(a.matrix, b.matrix)]


def inverse(datum: RootDatum, a: WeylElement) -> WeylElement:
    return DatumTables.of(datum).enumerated_weyl_group(datum).inverse[a.matrix]


def act_on_dual(datum: RootDatum, w: WeylElement, u: Sequence) -> Tuple:
    """Dual action on V: <w·u, chi> = <u, w^{-1}·chi>."""
    inv = inverse(datum, w).matrix
    return tuple(
        sum(u[k] * inv[k][j] for k in range(datum.rank)) for j in range(datum.rank)
    )


def _root_in_span(root: IntVector, indices: TypeLabel) -> bool:
    return all(c == 0 or i in indices for i, c in enumerate(root))


def standard_parabolic(datum: RootDatum, label: Iterable[int]) -> ParabolicSet:
    """Positive roots plus the negatives of the roots supported on the label."""
    y: TypeLabel = frozenset(int(i) for i in label)
    if any(i < 0 or i >= datum.rank for i in y):
        raise ValidationError(f"type label {sorted(y)} out of range for rank {datum.rank}")
    return DatumTables.of(datum).standard_parabolic(y)


def is_generating(datum: RootDatum, members: FrozenSet[IntVector]) -> bool:
    return all(
        r in members or tuple(-c for c in r) in members for r in datum.roots
    )


def act(w: WeylElement, p: ParabolicSet) -> ParabolicSet:
    tables = DatumTables.of(p.datum)
    try:
        idx = [tables.root_index[r] for r in p.members]
    except KeyError as exc:
        raise ValidationError(f"{exc.args[0]} is not a root") from exc
    perm = tables.permutation(w)
    members = frozenset(p.datum.roots[perm[i]] for i in idx)
    return ParabolicSet(datum=p.datum, members=members, type_label=p.type_label)


def standard_position(p: ParabolicSet) -> Tuple[WeylElement, TypeLabel]:
    """The ShortLex-least w with act(w, p) standard, plus the type label.

    Descent from u = 1: while a simple root α_i is missing from p, -α_i is
    in it (p generates), and p, u become s_i·p, s_i·u.  s_i swaps ±α_i and
    permutes the other positive roots, so each step adds one positive root
    and removes none, and u ends with length #(positive roots not in p).  No
    solution is shorter (its inverse maps the positive roots into p), and
    the solutions form one coset W_Y·u, whose least element is unique: so u
    is the answer, and the Weyl group is read only to name it.
    """
    tables = DatumTables.of(p.datum)
    hit = tables.positions.get(p.members)
    if hit is not None:
        return hit
    datum = p.datum
    simple = _identity_matrix(datum.rank)
    cur, u = p, simple
    while True:
        i = next((i for i, a in enumerate(simple) if a not in cur.members), None)
        if i is None:
            break
        if tuple(-c for c in simple[i]) not in cur.members:
            raise ValidationError("subset is not Weyl-conjugate to a standard parabolic")
        cur = act(WeylElement(word=(i,), matrix=datum.reflection_matrix(i)), cur)
        u = _reflection_times(i, u, datum.cartan)
    label = frozenset(i for i, a in enumerate(simple) if tuple(-c for c in a) in cur.members)
    if cur.members != tables.standard_parabolic(label).members:
        raise ValidationError("subset is not Weyl-conjugate to a standard parabolic")
    if u == simple:
        w = identity_element(datum)
    else:
        w = tables.enumerated_weyl_group(datum).by_matrix[u]
    result = (w, label)
    tables.positions[p.members] = result
    return result


def _label_key(label: TypeLabel) -> Tuple[int, Tuple[int, ...]]:
    """Type-label order: by size, then by index set."""
    return len(label), tuple(sorted(label))


def orbits_of(datum: RootDatum, labels: Iterable[TypeLabel]) -> Tuple[Orbit, ...]:
    """The orbits of the standard parabolics of labels, in type-label order.

    The orbit of the standard parabolic of Y is W/W_Y: w·P_Y meets each
    parabolic of it once as w runs over the minimal coset representatives,
    the w with no right descent in Y (w·α_i > 0 for every i in Y).  Each is
    the ShortLex-first element reaching its parabolic, and w^{-1} is its
    standard position.  Only the orbits the table lacks are built, and only
    their standard positions are seeded; each orbit keeps, next to every
    parabolic, the root permutation of w (read from the Weyl enumeration)
    and w^{-1}, so that nothing downstream looks an element up by matrix.

    W is read (see DatumTables.enumerated_weyl_group) before labels is
    consumed: 2^rank <= |W|, so a lazy iterable of every label stays
    bounded by the enumeration cap.
    """
    tables = DatumTables.of(datum)
    weyl = tables.enumerated_weyl_group(datum)
    wanted = sorted({frozenset(y) for y in labels}, key=_label_key)
    for y in wanted:
        if any(i < 0 or i >= datum.rank for i in y):
            raise ValidationError(f"type label {sorted(y)} out of range for rank {datum.rank}")
    missing = [y for y in wanted if y not in tables.orbits]
    if missing:
        roots = datum.roots
        negative = [not datum.is_positive(r) for r in roots]
        simple = [tables.root_index[a] for a in _identity_matrix(datum.rank)]
        perms = [tables.permutation(w) for w in weyl.elements]
        # Bit i of a descent mask is set when w·α_i < 0.
        descents = [
            sum(1 << i for i, k in enumerate(simple) if negative[perm[k]]) for perm in perms
        ]
        for y in missing:
            mask = sum(1 << i for i in y)
            std_idx = [tables.root_index[r] for r in tables.standard_parabolic(y).members]
            parabolics: List[ParabolicSet] = []
            orbit_perms: List[Tuple[int, ...]] = []
            inverses: List[WeylElement] = []
            for w, perm, down in zip(weyl.elements, perms, descents):
                if down & mask:
                    continue
                members = frozenset([roots[perm[i]] for i in std_idx])
                inv = weyl.inverse[w.matrix]
                parabolics.append(ParabolicSet(datum=datum, members=members, type_label=y))
                orbit_perms.append(perm)
                inverses.append(inv)
                tables.positions[members] = (inv, y)
            tables.orbits[y] = Orbit(
                parabolics=tuple(parabolics),
                permutations=tuple(orbit_perms),
                inverses=tuple(inverses),
            )
    return tuple(tables.orbits[y] for y in wanted)


def parabolics_of(datum: RootDatum, labels: Iterable[TypeLabel]) -> Tuple[ParabolicSet, ...]:
    """The parabolics whose type label is one of labels, in the order of
    all_parabolics (labels in type-label order, each orbit in ShortLex order
    of the conjugating element): the parabolics of the orbits of orbits_of,
    one orbit after the other.  Those orbits, kept in the table, also hold
    the root permutation and the inverse of each parabolic's coset
    representative."""
    return tuple(q for orbit in orbits_of(datum, labels) for q in orbit)


def all_orbits(datum: RootDatum) -> Tuple[Orbit, ...]:
    """The orbit of every type label, in type-label order."""
    return orbits_of(datum, _type_labels(datum.rank))


def all_parabolics(datum: RootDatum) -> Tuple[ParabolicSet, ...]:
    """Every closed generating root subset, tagged with its type label: the
    parabolics of every orbit, in the order of parabolics_of."""
    return tuple(q for orbit in all_orbits(datum) for q in orbit)


def levi_roots(p: ParabolicSet) -> FrozenSet[IntVector]:
    """Symmetric part: roots whose negative also belongs to the set."""
    return frozenset(
        r for r in p.members if tuple(-c for c in r) in p.members
    )


def unipotent_radical_roots(p: ParabolicSet) -> FrozenSet[IntVector]:
    return p.members - levi_roots(p)


def outside_roots(p: ParabolicSet) -> FrozenSet[IntVector]:
    """The roots not in p.  p generates, so a root r outside p has -r in p
    but not in its Levi part: these are the negatives of the unipotent
    radical of p, the unipotent radical of the opposite parabolic."""
    return frozenset(r for r in p.datum.roots if r not in p.members)


def is_osculatory(p: ParabolicSet, q: ParabolicSet) -> bool:
    """Whether the intersection of the parabolic sets p and q is again
    parabolic.  The intersection of two closed root sets is closed, so only
    generation is tested."""
    if p.datum != q.datum:
        raise ValidationError("parabolic sets live in different root data")
    return is_generating(p.datum, p.members & q.members)


def type_name(t: Iterable[int]) -> str:
    """A type label as reports print it: {a1,a3}."""
    return "{" + ",".join(f"a{i + 1}" for i in sorted(t)) + "}"


def parabolic_name(p: ParabolicSet) -> str:
    """p by its standard position (w, Y) as reports print it: the label Y,
    then w when it is not the identity, e.g. {a1} w=s2s1."""
    w, y = standard_position(p)
    word = "".join(f"s{i + 1}" for i in w.word)
    return type_name(y) + (f" w={word}" if word else "")
