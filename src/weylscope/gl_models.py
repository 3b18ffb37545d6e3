"""Diagonal seminorm classes on a (d+1)-dimensional space and their exact
dictionary with the compactified apartment of the A_d datum at its
distinguished hyperplane type.

A class is stored by log-magnitudes c_1..c_{d+1} of the basis vectors,
normalized so the largest finite entry is 0; entries at -inf form the
kernel.  Differences c_j - c_i are the well-defined pairings <u, chi_i -
chi_j> of the dual vector u assigned to the class (individual chi_i are not
lattice characters here).  The stabilizer of a class is read off the
apartment, as stabilizer_profile gives it at the class's point."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

from . import apartment, linalg, root_data
from .apartment import ApartmentContext, CompactApartmentPoint, StabilizerProfile
from .linalg import IntVector
from .polyfan import ExtendedValue, NEG_INF, finite
from .root_data import ParabolicSet, RootDatum, ValidationError


class DiagSeminorm(NamedTuple):
    """A diagonal seminorm class modulo scaling: tuple of log values, max
    finite entry 0, kernel (-inf entries) a proper subset."""

    values: Tuple[ExtendedValue, ...]

    @property
    def dimension(self) -> int:
        return len(self.values)


def _coerce_value(v) -> ExtendedValue:
    if isinstance(v, ExtendedValue):
        return v
    if isinstance(v, str):
        if v.strip() == "-inf":
            return NEG_INF
        return finite(Fraction(v))
    return finite(v)


def make_seminorm(values: Iterable) -> DiagSeminorm:
    vals = tuple(_coerce_value(v) for v in values)
    if not vals:
        raise ValidationError("a seminorm needs at least one coordinate")
    if any(v.kind > 0 for v in vals):
        raise ValidationError("seminorm values live in Q union {-inf}")
    finites = [v.value for v in vals if v.kind == 0]
    if not finites:
        raise ValidationError("all values are -inf: kernel must be proper")
    top = max(finites)
    return DiagSeminorm(
        values=tuple(
            finite(v.value - top) if v.kind == 0 else NEG_INF for v in vals
        )
    )


def kernel(s: DiagSeminorm) -> FrozenSet[int]:
    return frozenset(i for i, v in enumerate(s.values) if v.kind < 0)


def chi_diff(d: int, i: int, j: int) -> IntVector:
    """chi_i - chi_j in simple-root coordinates (0-based basis indices)."""
    if i == j or not (0 <= i <= d and 0 <= j <= d):
        raise ValidationError(f"bad character pair ({i}, {j}) for dimension {d + 1}")
    v = [0] * d
    lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
    for k in range(lo, hi):
        v[k] = sign
    return tuple(v)


# The named type-A data are A1-A6, so classes live in dimensions 2..7.
MAX_DIMENSION = 7


def datum_for(d: int) -> RootDatum:
    """The A_d datum of classes on a (d+1)-dimensional space.  The dimension
    is checked before any datum is built, so that its cost does not grow
    with d."""
    if not 2 <= d + 1 <= MAX_DIMENSION:
        raise ValidationError(
            f"the diagonal dictionary covers dimensions 2..{MAX_DIMENSION} "
            f"(the named data A1-A{MAX_DIMENSION - 1}), got dimension {d + 1}"
        )
    return root_data.build_named(f"A{d}")


def hyperplane_type(d: int) -> FrozenSet[int]:
    """The distinguished type: the Levi label omitting the last simple
    root (the hyperplane-stabilizer class)."""
    return frozenset(range(d - 1))


@lru_cache(maxsize=None)
def gl_context(d: int) -> ApartmentContext:
    return apartment.make_context(datum_for(d), hyperplane_type(d))


def stratum_label(s: DiagSeminorm) -> ParabolicSet:
    """The parabolic stabilizing the coordinate subspace spanned by the
    kernel: chi_i - chi_j belongs iff j in the kernel forces i in it."""
    d = s.dimension - 1
    datum = datum_for(d)
    ker = kernel(s)
    members = frozenset(
        chi_diff(d, i, j)
        for i in range(d + 1)
        for j in range(d + 1)
        if i != j and not (j in ker and i not in ker)
    )
    return ParabolicSet(datum=datum, members=members)


def _dual_vector(s: DiagSeminorm) -> Tuple[Fraction, ...]:
    """Coweight coordinates with <u, chi_i - chi_j> = c_j - c_i on finite
    pairs; kernel entries are filled with 0, which the stratum quotient
    discards."""
    filled = [v.value if v.kind == 0 else Fraction(0) for v in s.values]
    return tuple(filled[k + 1] - filled[k] for k in range(len(filled) - 1))


def to_apartment_point(s: DiagSeminorm) -> CompactApartmentPoint:
    d = s.dimension - 1
    ctx = gl_context(d)
    u = _dual_vector(s)
    if not kernel(s):
        return apartment.interior_point(ctx, u)
    return apartment.stratum_point(ctx, stratum_label(s), u)


def from_apartment_point(x: CompactApartmentPoint) -> DiagSeminorm:
    """Inverse dictionary: read off c_i = -<u, chi_i - chi_j0> against an
    anchor index j0 outside the kernel, then renormalize the class."""
    d = x.stratum_parabolic.datum.rank
    members = x.stratum_parabolic.members
    ker = frozenset(
        j
        for j in range(d + 1)
        if any(chi_diff(d, i, j) not in members for i in range(d + 1) if i != j)
    )
    if len(ker) > d:
        raise ValidationError("stratum parabolic is not a coordinate-subspace stabilizer")
    anchor = min(i for i in range(d + 1) if i not in ker)
    res = x.point.residual
    out: List[ExtendedValue] = []
    for i in range(d + 1):
        if i in ker:
            out.append(NEG_INF)
        elif i == anchor:
            out.append(finite(0))
        else:
            out.append(finite(-linalg.dot(res, chi_diff(d, i, anchor))))
    return make_seminorm(out)


def stabilizer_blocks(s: DiagSeminorm) -> StabilizerProfile:
    """The stabilizer of the class, read off the apartment: the profile of
    its point in the context of its dimension.  In blocks, chi_i - chi_j
    acts fully when i is in the kernel (the unipotent radical when j is
    not, the kernel block when j is), and is filtered at level c_i - c_j
    when neither is."""
    return apartment.stabilizer_profile(gl_context(s.dimension - 1), to_apartment_point(s))


def degeneration_ray(
    start: Sequence, ker: Iterable[int]
) -> Tuple[Tuple[Fraction, ...], IntVector]:
    """u0, v for the ray of seminorms driving the given entries to -inf:
    c(n) = start - n on the kernel entries, fixed elsewhere."""
    vals = [Fraction(_coerce_value(v).value) for v in start]
    k = frozenset(ker)
    if not 0 < len(k) < len(vals) or any(i < 0 or i >= len(vals) for i in k):
        raise ValidationError("kernel must be a proper nonempty index subset")
    u0 = tuple(vals[i + 1] - vals[i] for i in range(len(vals) - 1))
    v = tuple(int(i in k) - int(i + 1 in k) for i in range(len(vals) - 1))
    return u0, v
