"""The cone subcommands of weylscope.cli: `fan`, `prefan` and `cone`, with
the report helpers only they use.

cli registers these subcommands and imports this module when one of them
runs, so that `datum-info` and `relevant` load neither it nor the cone
layers under it (type_geometry, polyfan and linalg), and the point
commands do not compile it."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterator, Tuple

from . import polyfan, type_geometry
from .cli import (
    EXIT_OK,
    _dim_counts,
    _emit,
    _EncodedList,
    _load_datum,
    _newline,
    _parabolic_from_parts,
    _parabolic_id,
    _parabolic_texts,
    _parse_type,
    _scalar_list,
    _type_names,
)
from .linalg import IntVector
from .polyfan import Cone
from .root_data import parabolic_name, type_name


# ---------------------------------------------------------------------------
# report helpers


def _cone_report(
    cone: Cone, lineality: Tuple[IntVector, ...], rays: Tuple[IntVector, ...], dim: int
) -> Dict:
    return {
        "space_dim": cone.space_dim,
        "dim": dim,
        "ineqs": [list(phi) for phi in cone.ineqs],
        "eqs": [list(phi) for phi in cone.eqs],
        "lineality_dim": len(lineality),
        "rays": [[str(c) for c in r] for r in rays],
    }


class _RowTexts(dict):
    """The text of each row (a list of scalars nested at one level) by the
    row as a tuple, encoded on first use: rows repeat across the cones of a
    report far more than they differ."""

    def __init__(self, cell: Callable[[int], str], level: int):
        super().__init__()
        self.cell = cell
        self.level = level

    def __missing__(self, row: Tuple[int, ...]) -> str:
        text = self[row] = _scalar_list([self.cell(c) for c in row], self.level)
        return text


def _cone_entries(family: type_geometry.ConeOrbits) -> _EncodedList:
    """The report entries of the cones, numbered and labelled by their
    parabolics, with the rays and dimensions the family carries along each
    orbit: what _cone_report gives, with "index" and "parabolic" added.
    Functionals are lists of ints and rays lists of strings."""

    def items(level: int) -> Iterator[str]:
        keys = ("dim", "eqs", "index", "ineqs", "lineality_dim", "parabolic", "rays", "space_dim")
        inner = _newline(level + 1)
        entry = "{{" + ",".join(f'{inner}"{k}": {{}}' for k in keys) + _newline(level) + "}}"
        functionals = _RowTexts(int.__repr__, level + 2)
        rays = _RowTexts(lambda c: encode_basestring_ascii(str(c)), level + 2)
        parabolics = _parabolic_texts(family.orbits, level + 1)
        prefan = family.prefan
        cones = zip(prefan.cones, prefan.generators, family.dims, parabolics)
        for i, (c, (lin, gens), d, p) in enumerate(cones):
            yield entry.format(
                d,
                _scalar_list([functionals[v] for v in c.eqs], level + 1),
                i,
                _scalar_list([functionals[v] for v in c.ineqs], level + 1),
                len(lin),
                p,
                _scalar_list([rays[v] for v in gens], level + 1),
                c.space_dim,
            )

    return _EncodedList(items)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fan(args) -> int:
    datum = _load_datum(args)
    family = type_geometry.weyl_cone_orbits(datum)
    dims, dim_text = _dim_counts(family.dims)
    report = {
        "command": "fan",
        "datum": datum.name,
        "rank": datum.rank,
        "count": len(family.dims),
        "dims": dims,
        "cones": _cone_entries(family),
    }
    _emit(
        args,
        report,
        [f"Weyl fan of {datum.name or 'datum'}: {len(family.dims)} cones ({dim_text})"],
    )
    return EXIT_OK


def _cmd_prefan(args) -> int:
    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    family = type_geometry.type_cone_orbits(datum, t)
    dims, dim_text = _dim_counts(family.dims)
    lin = type_geometry.lineality_space(datum, t)
    report = {
        "command": "prefan",
        "datum": datum.name,
        "type": _type_names(t),
        "count": len(family.dims),
        "dims": dims,
        "lineality_dim": len(lin),
        "cones": _cone_entries(family),
    }
    _emit(
        args,
        report,
        [
            f"stratifying prefan of {datum.name or 'datum'} for type "
            f"{type_name(t)}: {len(family.dims)} cones ({dim_text})"
        ],
    )
    return EXIT_OK


def _cmd_cone(args) -> int:
    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    q = _parabolic_from_parts(datum, args.label, args.word, "--label")
    if args.kind == "weyl":
        cone = type_geometry.weyl_cone(q)
        extra = {}
    elif args.kind == "max":
        cone = type_geometry.type_cone_max(q)
        extra = {}
    else:
        rep = type_geometry.relevance_report(q, t)
        cone = type_geometry.type_cone(q, t).cone
        extra = {
            "is_relevant": rep.is_relevant,
            "minimal_relevant": _parabolic_id(rep.minimal_relevant),
            "active_components": _type_names(rep.active_components),
            "span_equalities": [list(a) for a in rep.span_equalities],
        }
    report = {
        "command": "cone",
        "datum": datum.name,
        "kind": args.kind,
        "type": _type_names(t),
        "parabolic": _parabolic_id(q),
        "cone": _cone_report(cone, *polyfan.generators(cone), polyfan.dim(cone)),
    }
    report.update(extra)
    summary = [
        f"{args.kind} cone of {parabolic_name(q)} in {datum.name or 'datum'}"
        + (f" for type {type_name(t)}" if args.kind == "type" else "")
        + f": dim {polyfan.dim(cone)}, {len(cone.ineqs)} inequalities, "
        + f"{len(cone.eqs)} equalities"
    ]
    if args.kind == "type":
        yes = "yes" if rep.is_relevant else "no"
        summary.append(
            f"relevant: {yes}; minimal relevant stratum: {parabolic_name(rep.minimal_relevant)}"
        )
    _emit(args, report, summary)
    return EXIT_OK
