"""Root systems, Weyl groups, and parabolic subsets of roots.

Characters live in simple-root coordinates (the root lattice), so a root is
an integer vector whose entries are its coefficients on the simple base.
Dual vectors are then in fundamental-coweight coordinates and the pairing of
a character with a dual vector is the plain dot product; the i-th simple
coroot is row i of the Cartan matrix.

Parabolics come from Lie theory rather than from a list of the Weyl group
(Bourbaki, *Lie Groups*, ch. IV-VI; Humphreys 1990).  The standard
parabolic of a type label Y, kept once per label in the datum's table,
holds the positive roots and the negatives of those supported on Y.  Its
orbit is W/W_Y, so `orbits_of` walks the minimal coset representatives
W^Y, once per label asked for, and keeps each one's root permutation and
inverse: cones of P_Y carry to the rest of the orbit through them.  W acts
through the root-index permutations of the simple reflections, computed
once per datum, and an element is its ShortLex-least word alone, named by
taking the least descent at each step: `act` reads a root set through the
permutations of w's letters, `simple_images` the roots w·α_j, or
w^{-1}·α_j from the word read backwards, which any linear action of w
pairs against, and `standard_position` descends on root indices, each
step adding one positive root, so the element it finds has the least
length any solution can have.  |W| is read off the heights of the positive
roots, so the cap on |W| is checked without listing W.

Relevancy for a type t is read off the Dynkin diagram too: whether a type
label is t-relevant depends on the components of the label that meet the
complement of t, so `relevant_labels` lists the relevant labels without
building a parabolic or a cone, and the `relevant` command needs no other
layer of the library.
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
    the cap, and the number of elements reached: cap + 1 while no cap has
    admitted the datum, as a listing of W would stop there, else |W|.
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


class WeylElement(NamedTuple):
    """A Weyl group element, held as its ShortLex-least reduced word alone:
    it moves roots through the simple-reflection permutations of its
    letters, and simple_images reads off them the roots w·α_j and
    w^{-1}·α_j that any linear action of w pairs against."""

    word: Tuple[int, ...]


class _Record:
    """Base of the immutable records that are not NamedTuples, because a
    field stays out of equality, the record iterates over something else,
    or it must not equal the plain tuple of its fields.
    A subclass lists its fields in __slots__, in constructor order, then
    any slot it derives, named with a leading underscore, and sets each once
    with object.__setattr__.  Equality and hash are those of _key, every
    field unless the subclass says otherwise; repr and pickling read the
    fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if f[0] != "_")

    def _key(self) -> tuple:
        return self._values()

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
        return type(self), self._values()

    def __repr__(self):
        fields = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"


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

    def is_positive(self, root: Sequence[int]) -> bool:
        return any(c > 0 for c in root)

    @property
    def positive_roots(self) -> Tuple[IntVector, ...]:
        return tuple(r for r in self.roots if self.is_positive(r))

    def pairing(self, chi: Sequence[int], coroot: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(chi, coroot))


class ParabolicSet(_Record):
    """A closed generating subset of the roots (a parabolic containing the
    fixed maximal split torus, identified with its root set).  Its type
    label is that of its standard position."""

    __slots__ = ("datum", "members")

    def __init__(self, datum: RootDatum, members: FrozenSet[IntVector]):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "members", members)


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
    reflections; raises ValidationError past _ROOT_COUNT_CAP roots, which
    also stops a system that is not finite."""
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
                    raise ValidationError(
                        f"root system exceeds the bound of {_ROOT_COUNT_CAP} roots"
                    )
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
    """The orbit of the standard parabolic P_Y of the type label Y: for each
    minimal coset representative w, in ShortLex order, the permutation w
    induces on root indices and w^{-1}, the standard position of w·P_Y.
    The parabolics w·P_Y are built from those on first use, which also
    seeds their standard positions in the datum's table; iterating an orbit
    gives them.
    """

    __slots__ = ("label", "standard", "permutations", "inverses", "_parabolics")

    def __init__(
        self, label: TypeLabel, standard: ParabolicSet, permutations: tuple, inverses: tuple
    ):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "standard", standard)
        object.__setattr__(self, "permutations", permutations)
        object.__setattr__(self, "inverses", inverses)
        object.__setattr__(self, "_parabolics", None)

    @property
    def parabolics(self) -> Tuple[ParabolicSet, ...]:
        parabolics = self._parabolics
        if parabolics is None:
            datum, y = self.standard.datum, self.label
            tables = DatumTables.of(datum)
            idx = [tables.root_index[r] for r in self.standard.members]
            built = []
            for perm, inv in zip(self.permutations, self.inverses):
                members = frozenset([datum.roots[perm[i]] for i in idx])
                built.append(ParabolicSet(datum=datum, members=members))
                tables.positions[members] = (inv, y)
            parabolics = tuple(built)
            object.__setattr__(self, "_parabolics", parabolics)
        return parabolics

    def __iter__(self) -> Iterator[ParabolicSet]:
        return iter(self.parabolics)

    def __len__(self) -> int:
        return len(self.permutations)


def _type_labels(rank: int) -> Iterable[TypeLabel]:
    """Every subset of the simple roots, in type-label order (by size, then
    index set)."""
    return (frozenset(y) for k in range(rank + 1) for y in combinations(range(rank), k))


class DatumTables:
    """Every combinatorial table of one root datum, shared by all equal data.

    Built with the table: the root index, the indices of the simple roots,
    and the permutation of root indices by each simple reflection,
    s_i·β = β - <β, α_i^vee>·α_i, through which W acts and is named with no
    entry per element.  The standard parabolic, the orbit and the subsystem
    roots of each type label, and the standard positions, only when
    something asks for them: one label's orbit never builds the other
    2^rank - 1.  Each entry is computed in full before one assignment
    stores it, and computing it again gives an equal value, so threads may
    share a table without a lock.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.root_index: Dict[IntVector, int] = {r: i for i, r in enumerate(datum.roots)}
        self.simple: Tuple[int, ...] = tuple(
            self.root_index[tuple(int(i == j) for i in range(datum.rank))]
            for j in range(datum.rank)
        )
        self.reflections: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                self.root_index[r[:i] + (r[i] - datum.pairing(r, c),) + r[i + 1 :]]
                for r in datum.roots
            )
            for i, c in enumerate(datum.cartan)
        )
        self.cap_passed = False
        self.standard: Dict[TypeLabel, ParabolicSet] = {}
        self.orbits: Dict[TypeLabel, Orbit] = {}
        self.positions: Dict[FrozenSet[IntVector], Tuple[WeylElement, TypeLabel]] = {}
        self.subsystem_roots: Dict[TypeLabel, Tuple[IntVector, ...]] = {}

    @staticmethod
    def of(datum: RootDatum) -> "DatumTables":
        tables = _TABLES.get(datum)
        if tables is None:
            tables = _TABLES.setdefault(datum, DatumTables(datum))
        return tables

    def check_cap(self, datum: RootDatum, cap: Optional[int] = None) -> None:
        """Raise EnumerationCapError when |W| is above cap, else
        WEYLSCOPE_ENUM_CAP or the default; a cap once passed serves every
        later lookup (within_cap).  The error names datum, the caller's
        own: equal data share the table, which keeps the first name."""
        limit = resolve_enum_cap() if cap is None else cap
        if limit < 1:
            raise ValidationError(f"enumeration cap must be at least 1, got {cap}")
        order = weyl_order(datum)
        if order > limit:
            raise EnumerationCapError(datum, limit, order if self.cap_passed else limit + 1)
        self.cap_passed = True

    def within_cap(self, datum: RootDatum) -> "DatumTables":
        """The table, for every reader of W but weyl_elements: admitted
        under the cap it has passed, else checked now as check_cap does."""
        if not self.cap_passed:
            self.check_cap(datum)
        return self

    def standard_parabolic(self, label: TypeLabel) -> ParabolicSet:
        """Positive roots plus the negatives of the roots supported on the
        label."""
        std = self.standard.get(label)
        if std is None:
            negatives = (tuple(-c for c in b) for b in self.subsystem_positive_roots(label))
            members = frozenset(self.datum.positive_roots).union(negatives)
            std = ParabolicSet(datum=self.datum, members=members)
            self.standard[label] = std
        return std

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
    The orbit of the Borel (Y empty) keeps the inverse of each of its
    representatives, named by its ShortLex-least word, and W is closed
    under inversion, so those inverses are W.

    The one library function that takes a cap: cap, else WEYLSCOPE_ENUM_CAP,
    else the default, checked against |W| even when the datum has passed a
    cap before.  A cap passed here serves every later lookup on the datum,
    which lets the rest of the library work on a group above the default."""
    DatumTables.of(datum).check_cap(datum, cap)
    orbit = orbits_of(datum, [frozenset()])[0]
    return tuple(sorted(orbit.inverses, key=lambda x: (len(x.word), x.word)))


def weyl_order(datum: RootDatum) -> int:
    """|W| without listing it: the product of m_i + 1 over the exponents,
    where #{i : m_i >= k} is the number of positive roots of height k
    (Kostant; Humphreys 1990, sections 3.9 and 3.20)."""
    heights = [sum(r) for r in datum.positive_roots]
    per_height = [heights.count(k) for k in set(heights)]
    order = 1
    for i in range(1, datum.rank + 1):
        order *= 1 + sum(1 for n in per_height if n >= i)
    return order


def identity_element(datum: RootDatum) -> WeylElement:
    return WeylElement(word=())


def _images(tables: DatumTables, word: Sequence[int], indices: Iterable[int]) -> List[int]:
    """The root indices s_{word[0]}···s_{word[-1]} sends those of indices
    to, through the permutation of each letter, the last letter first."""
    reflections = tables.reflections
    images = list(indices)
    for i in reversed(word):
        s_i = reflections[i]
        images = [s_i[k] for k in images]
    return images


def simple_images(datum: RootDatum, word: Sequence[int]) -> Tuple[IntVector, ...]:
    """The roots s_{word[0]}···s_{word[-1]}·α_j, j = 1, ..., rank: w·α_j
    for the word of w, and w^{-1}·α_j for that word read backwards."""
    tables = DatumTables.of(datum)
    return tuple([datum.roots[k] for k in _images(tables, word, tables.simple)])


def _element(datum: RootDatum, word: Sequence[int]) -> WeylElement:
    """The element w = s_{word[0]}···s_{word[-1]} of any word for it, named
    by its ShortLex-least word.  The letters' permutations carry the simple
    roots to the roots w^{-1}·α_j.  The least left descent of w is the
    least i with w^{-1}·α_i < 0, and w = s_i·(s_i·w), where
    (s_i·w)^{-1}·α_k is w^{-1}·α_k less cartan[i][k]·w^{-1}·α_i."""
    tables = DatumTables.of(datum).within_cap(datum)
    roots, cartan = datum.roots, datum.cartan
    cols = [roots[k] for k in _images(tables, word[::-1], tables.simple)]
    zero = (0,) * datum.rank
    named: List[int] = []
    while True:
        i = next((i for i, c in enumerate(cols) if c < zero), None)
        if i is None:
            break
        named.append(i)
        ci = cols[i]
        for k, a in enumerate(cartan[i]):
            if a:
                cols[k] = tuple([x - a * y for x, y in zip(cols[k], ci)])
    return WeylElement(word=tuple(named))


def element_of_word(datum: RootDatum, word: Sequence[int]) -> WeylElement:
    """s_{word[0]}···s_{word[-1]}, by 0-based index, named once by its
    ShortLex-least word; a letter outside 0..rank-1 is a ValidationError."""
    word = tuple(word)
    for i in word:
        if not isinstance(i, int) or not 0 <= i < datum.rank:
            raise ValidationError(f"word letter {i!r} out of range for rank {datum.rank}")
    return _element(datum, word)


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


def _moved(p: ParabolicSet, word: Sequence[int]) -> ParabolicSet:
    tables = DatumTables.of(p.datum)
    try:
        idx = [tables.root_index[r] for r in p.members]
    except KeyError as exc:
        raise ValidationError(f"{exc.args[0]} is not a root") from exc
    roots = p.datum.roots
    return ParabolicSet(p.datum, frozenset([roots[k] for k in _images(tables, word, idx)]))


def act(w: WeylElement, p: ParabolicSet) -> ParabolicSet:
    """w·p, through the permutations of the letters of w."""
    return _moved(p, w.word)


def act_inverse(w: WeylElement, p: ParabolicSet) -> ParabolicSet:
    """w^{-1}·p, through the letters of w read backwards: w^{-1} is not
    named."""
    return _moved(p, w.word[::-1])


def standard_position(p: ParabolicSet) -> Tuple[WeylElement, TypeLabel]:
    """The ShortLex-least w with act(w, p) standard, plus the type label.

    Descent from u = 1 on the root indices of p: while a simple root α_i is
    missing from p, -α_i is in it (p generates), and p, u become s_i·p,
    s_i·u, p read through the permutation of s_i.  s_i swaps ±α_i and
    permutes the other positive roots, so each step adds one positive root
    and removes none, and u ends with length #(positive roots not in p).  No
    solution is shorter (its inverse maps the positive roots into p), and
    the solutions form one coset W_Y·u, whose least element is unique: so u
    is the answer, named once by its ShortLex-least word.
    """
    tables = DatumTables.of(p.datum)
    hit = tables.positions.get(p.members)
    if hit is not None:
        return hit
    index, simple, reflections = tables.root_index, tables.simple, tables.reflections
    stray = next((r for r in p.members if r not in index), None)
    cur = {index[r] for r in p.members if r in index}
    word: List[int] = []
    while True:
        i = next((i for i, a in enumerate(simple) if a not in cur), None)
        if i is None:
            break
        s_i = reflections[i]
        if s_i[simple[i]] not in cur:
            raise ValidationError("subset is not Weyl-conjugate to a standard parabolic")
        if stray is not None:
            raise ValidationError(f"{stray} is not a root")
        cur = {s_i[k] for k in cur}
        word.append(i)
    label = frozenset(i for i, a in enumerate(simple) if reflections[i][a] in cur)
    members = frozenset([p.datum.roots[k] for k in cur])
    if stray is not None or members != tables.standard_parabolic(label).members:
        raise ValidationError("subset is not Weyl-conjugate to a standard parabolic")
    w = _element(p.datum, word[::-1]) if word else identity_element(p.datum)
    result = (w, label)
    tables.positions[p.members] = result
    return result


def companion(p: ParabolicSet, label: Iterable[int]) -> ParabolicSet:
    """w^{-1}·P_label for the standard position (w, Y) of p: p itself for
    the label Y, and for a type t a type-t parabolic osculatory with p.
    Reading w^{-1} needs the datum within the cap, even when w = 1."""
    w, _ = standard_position(p)
    DatumTables.of(p.datum).within_cap(p.datum)
    return act_inverse(w, standard_parabolic(p.datum, label))


def _label_key(label: TypeLabel) -> Tuple[int, Tuple[int, ...]]:
    """Type-label order: by size, then by index set."""
    return len(label), tuple(sorted(label))


def orbits_of(datum: RootDatum, labels: Iterable[TypeLabel]) -> Tuple[Orbit, ...]:
    """The orbits of the standard parabolics of labels, in type-label order.

    The orbit of the standard parabolic of Y is W/W_Y: w·P_Y meets each
    parabolic of it once as w runs over W^Y, the minimal coset
    representatives, the w with no right descent in Y, and w^{-1} is its
    standard position.  Only the orbits the table lacks are built, each by
    one search over W^Y, and an element several of them reach is built once.
    The cap is checked before labels is consumed: 2^rank <= |W|, so a lazy
    iterable of every label stays bounded by it.
    """
    tables = DatumTables.of(datum).within_cap(datum)
    wanted = sorted({frozenset(y) for y in labels}, key=_label_key)
    for y in wanted:
        if any(i < 0 or i >= datum.rank for i in y):
            raise ValidationError(f"type label {sorted(y)} out of range for rank {datum.rank}")
    built: Dict[IntVector, tuple] = {}
    for y in wanted:
        if y not in tables.orbits:
            tables.orbits[y] = _coset_search(tables, y, built)
    return tuple(tables.orbits[y] for y in wanted)


def _coset_search(tables: DatumTables, y: TypeLabel, built: Dict[IntVector, tuple]) -> Orbit:
    """The orbit of P_Y, by a search over W^Y level by level (Björner and
    Brenti 2005, section 2.4).

    An element w is keyed by the root indices of w·α_1, ..., w·α_r, which
    fix it, and s_j·w has the key of w read through the permutation of
    s_j.  Dropping the first letter of a reduced word of an element of W^Y
    leaves one, so level k+1 is every s_j·w with w at level k that is new
    (not at level k-1) and has no right descent in Y.  With j as the outer
    loop over a level in ShortLex order, the first edge to reach v is its
    least left descent j, then the least word of s_j·v: so the next level
    comes out in ShortLex order too.  Over the same edges, the least word
    of v^{-1} = w^{-1}·s_j is the least word(w^{-1}) + (j,), the words of a
    level being of one length.  The permutation and the inverse depend on
    the element only, so built keeps them for the other labels of a call.
    """
    datum, reflections = tables.datum, tables.reflections
    negative = [not datum.is_positive(r) for r in datum.roots]
    in_y = sorted(y)
    level = {tables.simple: (tuple(range(len(datum.roots))), identity_element(datum))}
    older: Dict[IntVector, tuple] = {}
    elements: List[Tuple[Tuple[int, ...], WeylElement]] = []
    while level:
        elements.extend(level.values())
        edges: Dict[IntVector, list] = {}
        for j, s_j in enumerate(reflections):
            for key, (perm, inv) in level.items():
                v = tuple([s_j[k] for k in key])
                if v in older or any(negative[v[i]] for i in in_y):
                    continue
                edge = edges.get(v)
                if edge is None:
                    edges[v] = [perm, s_j, inv, j]
                elif inv.word < edge[2].word:
                    edge[2:] = inv, j
        nxt = {}
        for v, (perm, s_j, inv, j) in edges.items():
            element = built.get(v)
            if element is None:
                inv_v = WeylElement(inv.word + (j,))
                element = built[v] = (tuple([s_j[i] for i in perm]), inv_v)
            nxt[v] = element
        older, level = level, nxt
    permutations, inverses = zip(*elements)
    return Orbit(y, tables.standard_parabolic(y), permutations, inverses)


def parabolics_of(datum: RootDatum, labels: Iterable[TypeLabel]) -> Tuple[ParabolicSet, ...]:
    """The parabolics whose type label is one of labels, in the order of
    all_parabolics (labels in type-label order, each orbit in ShortLex order
    of the conjugating element): the parabolics of the orbits of orbits_of,
    one orbit after the other."""
    return tuple(q for orbit in orbits_of(datum, labels) for q in orbit)


def all_orbits(datum: RootDatum) -> Tuple[Orbit, ...]:
    """The orbit of every type label, in type-label order."""
    return orbits_of(datum, _type_labels(datum.rank))


def all_parabolics(datum: RootDatum) -> Tuple[ParabolicSet, ...]:
    """Every closed generating root subset: the parabolics of every orbit,
    in the order of parabolics_of."""
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


# ---------------------------------------------------------------------------
# relevancy on the Dynkin diagram


def _check_type(datum: RootDatum, t: TypeLabel) -> TypeLabel:
    label = frozenset(t)
    for i in label:
        if not isinstance(i, int) or not 0 <= i < datum.rank:
            raise ValidationError(f"type index {i!r} out of range for rank {datum.rank}")
    return label


def _components(datum: RootDatum, subset: FrozenSet[int]) -> List[FrozenSet[int]]:
    """Connected components of a simple-root subset in the Dynkin graph
    (edge iff Cartan pairing nonzero), ordered by least element."""
    remaining = set(subset)
    comps: List[FrozenSet[int]] = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in list(remaining - comp):
                if datum.cartan[i][j] != 0:
                    comp.add(j)
                    frontier.append(j)
        comps.append(frozenset(comp))
        remaining -= comp
    return comps


def _orthogonal_to(datum: RootDatum, i: int, subset: FrozenSet[int]) -> bool:
    return all(datum.cartan[i][j] == 0 for j in subset) and i not in subset


def _label_relevance(
    datum: RootDatum, y: TypeLabel, t: TypeLabel
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """The active components of the label y for the type t, the union of
    the Dynkin components of y that meet the complement of t, and the
    t-letters orthogonal to them.  y is t-relevant exactly when it holds
    all of the latter, and adding them to y gives the label of the minimal
    t-relevant parabolic over P_y."""
    meets = frozenset().union(*[k for k in _components(datum, y) if k - t])
    forced = frozenset(i for i in t if _orthogonal_to(datum, i, meets))
    return meets, forced


def relevant_labels(datum: RootDatum, t: TypeLabel) -> Tuple[TypeLabel, ...]:
    """The t-relevant type labels, in type-label order.  Relevancy reads
    only the label of the standard position, so a parabolic is t-relevant
    exactly when its label is one of these.  One test per subset of the
    simple roots, after the cap on |W| is checked: 2^rank <= |W|, so the cap
    bounds the walk."""
    t = _check_type(datum, t)
    DatumTables.of(datum).within_cap(datum)
    return tuple(y for y in _type_labels(datum.rank) if _label_relevance(datum, y, t)[1] <= y)


def type_name(t: Iterable[int]) -> str:
    """A type label as reports print it: {a1,a3}."""
    return "{" + ",".join(f"a{i + 1}" for i in sorted(t)) + "}"


def parabolic_name(p: ParabolicSet) -> str:
    """p by its standard position (w, Y) as reports print it: the label Y,
    then w when it is not the identity, e.g. {a1} w=s2s1."""
    w, y = standard_position(p)
    word = "".join(f"s{i + 1}" for i in w.word)
    return type_name(y) + (f" w={word}" if word else "")
