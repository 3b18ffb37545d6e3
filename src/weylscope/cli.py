"""Command-line surface: root-datum ingestion, queries over the library,
and deterministic JSON reports; `render` writes the SVG of weylscope.render.

apartment, gl_models and render are imported by the handlers that use
them, so that `datum-info`, `relevant`, `fan`, `prefan` and `cone` do not
load them."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import polyfan, root_data, type_geometry
from .polyfan import Cone, IndeterminateValueError
from .root_data import (
    EnumerationCapError,
    ParabolicSet,
    RootDatum,
    ValidationError,
    WeylElement,
    parabolic_name,
    type_name,
)
from .type_geometry import ConeGeometry

if TYPE_CHECKING:
    from . import apartment
    from .apartment import ApartmentContext, CompactApartmentPoint

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ENUM_CAP = 3

# Bounds on a rational token or a JSON integer from outside: longer ones or
# larger decimal exponents would build numbers too large to compute with or
# to print.
MAX_TOKEN_CHARS = 100
MAX_EXPONENT = 100


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_fraction(token: str, where: str) -> Fraction:
    token = token.strip()
    if len(token) > MAX_TOKEN_CHARS:
        raise ValidationError(
            f"{where}: a rational of {len(token)} characters is longer than {MAX_TOKEN_CHARS}"
        )
    _, marker, exponent = token.lower().partition("e")
    try:
        if not marker or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{where}: {token!r} is not a rational")
    raise ValidationError(
        f"{where}: the exponent of {token!r} is outside -{MAX_EXPONENT}..{MAX_EXPONENT}"
    )


def _parse_vector(text: str, rank: int, flag: str) -> Tuple[Fraction, ...]:
    tokens = [t for t in text.split(",")]
    if len(tokens) != rank:
        raise ValidationError(
            f"{flag}: expected {rank} comma-separated rationals, got {len(tokens)}"
        )
    return tuple(
        _parse_fraction(t, f"{flag} entry {i}") for i, t in enumerate(tokens)
    )


def _parse_type(text: Optional[str], datum: RootDatum, flag: str = "--type"):
    if text is None or text.strip() in ("", "none"):
        return frozenset()
    out = set()
    for raw in text.split(","):
        token = raw.strip()
        body = token[1:] if token[:1] in ("a", "A") else token
        try:
            i = int(body)
        except ValueError:
            raise ValidationError(f"{flag}: bad simple-root token {token!r}")
        if not 1 <= i <= datum.rank:
            raise ValidationError(
                f"{flag}: token {token!r} is out of range 1..{datum.rank}"
            )
        out.add(i - 1)
    return frozenset(out)


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: expected integer, got {value!r}")
    length = len(str(value))
    if length > MAX_TOKEN_CHARS:
        raise ValidationError(
            f"{where}: an integer of {length} characters is longer than {MAX_TOKEN_CHARS}"
        )
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: {exc}")


def _datum_from_file(path: str) -> RootDatum:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    if "name" in data:
        return root_data.build_named(str(data["name"]))
    if "rank" not in data or "cartan" not in data:
        raise ValidationError(f'{path}: need "name" or both "rank" and "cartan"')
    rank = _require_int(data["rank"], f'{path}: "rank"')
    if rank < 1:
        raise ValidationError(f'{path}: "rank" must be positive, got {rank}')
    cartan = data["cartan"]
    if not isinstance(cartan, list) or len(cartan) != rank:
        raise ValidationError(f'{path}: "cartan" must be a list of {rank} rows')
    rows = []
    for i, row in enumerate(cartan):
        if not isinstance(row, list) or len(row) != rank:
            raise ValidationError(
                f"{path}: cartan[{i}] must be a list of {rank} integers"
            )
        rows.append(
            tuple(
                _require_int(v, f"{path}: cartan[{i}][{j}]")
                for j, v in enumerate(row)
            )
        )
    datum = root_data.build_from_cartan(tuple(rows), name=data.get("label"))
    if "roots" in data:
        given = data["roots"]
        if not isinstance(given, list):
            raise ValidationError(f'{path}: "roots" must be a list')
        parsed = set()
        for i, root in enumerate(given):
            if not isinstance(root, list) or len(root) != rank:
                raise ValidationError(
                    f"{path}: roots[{i}] must be a list of {rank} integers"
                )
            parsed.add(
                tuple(
                    _require_int(v, f"{path}: roots[{i}][{j}]")
                    for j, v in enumerate(root)
                )
            )
        if parsed != set(datum.roots):
            raise ValidationError(
                f'{path}: "roots" does not match the root system of the Cartan matrix'
            )
    return datum


def _load_datum(args) -> RootDatum:
    """The datum of --datum or --datum-file, and the one place where a
    command settles its cap.  An explicit --cap bounds the whole command:
    the Weyl group is enumerated under it here, and every later lookup uses
    that group.  Without one, WEYLSCOPE_ENUM_CAP is validated here, so a
    bad value exits 2 whether or not the command enumerates W, or finds it
    already enumerated in this process."""
    if args.cap is not None and args.cap < 1:
        raise ValidationError(f"--cap must be at least 1, got {args.cap}")
    if args.datum_file:
        datum = _datum_from_file(args.datum_file)
    elif not args.datum:
        raise ValidationError("no root datum given: use --datum or --datum-file")
    elif args.datum.upper() in ("A1XA1", "A1*A1"):
        datum = root_data.build_named("A1xA1")
    else:
        datum = root_data.build_named(args.datum)
    if args.cap is not None:
        root_data.weyl_elements(datum, args.cap)
    else:
        root_data.resolve_enum_cap()
    return datum


def _element_from_word(datum: RootDatum, word: Sequence[int]) -> WeylElement:
    w = root_data.identity_element(datum)
    for i in word:
        if not 1 <= i <= datum.rank:
            raise ValidationError(f"word letter s{i} is out of range 1..{datum.rank}")
        step = WeylElement(word=(i - 1,), matrix=datum.reflection_matrix(i - 1))
        w = root_data.compose(datum, w, step)
    return w


def _parse_word(text: Optional[str]) -> Tuple[int, ...]:
    if text is None or text.strip() == "":
        return ()
    out = []
    for raw in text.split(","):
        token = raw.strip()
        body = token[1:] if token[:1] in ("s", "S") else token
        try:
            out.append(int(body))
        except ValueError:
            raise ValidationError(f"--word: bad reflection token {token!r}")
    return tuple(out)


def _parabolic_from_parts(
    datum: RootDatum, label_text: str, word_text: Optional[str]
) -> ParabolicSet:
    label = _parse_type(label_text, datum, "--label")
    std = root_data.standard_parabolic(datum, label)
    word = _parse_word(word_text)
    if not word:
        return std
    w = _element_from_word(datum, word)
    return root_data.act(root_data.inverse(datum, w), std)


def _parabolic_from_json(datum: RootDatum, obj, where: str) -> ParabolicSet:
    if isinstance(obj, list):
        names = ",".join(str(x) for x in obj)
        return _parabolic_from_parts(datum, names, None)
    if isinstance(obj, dict) and "label" in obj:
        label, word = obj["label"], obj.get("word", [])
        if not isinstance(label, list) or not isinstance(word, list):
            raise ValidationError(f'{where}: "label" and "word" must be lists')
        names = ",".join(str(x) for x in label)
        word_text = ",".join(str(_require_int(x, f"{where}: word")) for x in word)
        return _parabolic_from_parts(datum, names, word_text)
    raise ValidationError(f"{where}: expected a label list or a label/word object")


# ---------------------------------------------------------------------------
# report helpers


def _parabolic_id(q: ParabolicSet) -> Dict[str, List]:
    w, y = root_data.standard_position(q)
    return {
        "label": _type_names(y),
        "word": [i + 1 for i in w.word],
    }


def _type_names(t) -> List[str]:
    return [f"a{i + 1}" for i in sorted(t)]


def _cone_report(cone: Cone, geometry: ConeGeometry) -> Dict:
    return {
        "space_dim": cone.space_dim,
        "dim": geometry.dim,
        "ineqs": [list(phi) for phi in cone.ineqs],
        "eqs": [list(phi) for phi in cone.eqs],
        "lineality_dim": len(geometry.lineality),
        "rays": [[str(c) for c in r] for r in geometry.rays],
    }


def _dim_counts(dims: Sequence[int]) -> Tuple[Dict[str, int], str]:
    """The number of cones of each dimension, as a report map and as
    summary text."""
    counts = sorted(Counter(dims).items())
    return {str(k): v for k, v in counts}, ", ".join(f"dim {k}: {v}" for k, v in counts)


def _root_groups(stabilizer) -> Dict[str, List]:
    """Full and filtered root groups of a stabilizer profile or block."""
    return {
        "full_unipotent": [list(a) for a in stabilizer.full_unipotent],
        "full_levi": [list(a) for a in stabilizer.full_levi],
        "filtered": [
            {"root": list(a), "level": str(level)} for a, level in stabilizer.filtered
        ],
    }


def _fractions(values: Sequence) -> List[str]:
    return [str(Fraction(v)) for v in values]


def _write_file(path: str, write: Callable[[TextIO], object]) -> None:
    """Open path for writing and pass it to write: a path that cannot be
    written exits 2 with one line that names it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# report encoding
#
# A report is written as json.dumps(report, indent=2, sort_keys=True) writes
# it, byte for byte, but in chunks as it is encoded.  The lists of cones and
# of relevant parabolics are encoded straight from the cone orbits, with no
# dict per entry, and each distinct row of a cone (a functional or a ray) is
# encoded once per report.

# Characters gathered before one write to the report's stream.
_BATCH_CHARS = 1 << 16


class _EncodedList:
    """A report list whose items are encoded on demand: items(level) gives
    the text of each item at that nesting level, as _encode would write it.
    The items only format values computed before, so that nothing fails
    once a report has started to go out."""

    __slots__ = ("items",)

    def __init__(self, items: Callable[[int], Iterator[str]]):
        self.items = items


def _newline(level: int) -> str:
    return "\n" + "  " * level


def _encode(value, level: int = 0) -> Iterator[str]:
    """The text of json.dumps(value, indent=2, sort_keys=True), in chunks,
    for value nested at the given level.  Only what reports hold is
    accepted: dicts with str keys, lists and tuples, str, int, bool, None
    and _EncodedList.  Anything else, floats included, raises TypeError."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = _newline(level + 1)
        sep = "[" + inner
        for item in value:
            yield sep
            yield from _encode(item, level + 1)
            sep = "," + inner
        yield _newline(level) + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        inner = _newline(level + 1)
        sep = "{" + inner
        for key in sorted(value):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _encode(value[key], level + 1)
            sep = "," + inner
        yield _newline(level) + "}"
    elif isinstance(value, _EncodedList):
        texts = value.items(level + 1)
        first = next(texts, None)
        if first is None:
            yield "[]"
            return
        inner = _newline(level + 1)
        yield "[" + inner + first
        for text in texts:
            yield "," + inner + text
        yield _newline(level) + "]"
    else:
        raise TypeError(f"a report cannot hold a {type(value).__name__}")


def _scalar_list(texts: Sequence[str], level: int) -> str:
    """The text of a list of encoded scalars, nested at the given level."""
    if not texts:
        return "[]"
    inner = _newline(level + 1)
    return "[" + inner + ("," + inner).join(texts) + _newline(level) + "]"


def _parabolic_texts(orbits: Sequence[root_data.Orbit], level: int) -> Iterator[str]:
    """The text of _parabolic_id of each parabolic of the orbits, in order,
    as a dict nested at the given level: the label is that of the orbit,
    and the word that of the standard position the orbit keeps."""
    inner = _newline(level + 1)
    for orbit in orbits:
        names = [encode_basestring_ascii(n) for n in _type_names(orbit.parabolics[0].type_label)]
        head = "{" + inner + '"label": ' + _scalar_list(names, level + 1) + "," + inner + '"word": '
        tail = _newline(level) + "}"
        for inv in orbit.inverses:
            yield head + _scalar_list([str(i + 1) for i in inv.word], level + 1) + tail


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


def _cone_entries(
    family: type_geometry.ConeOrbits, geometry: Sequence[ConeGeometry]
) -> _EncodedList:
    """The report entries of the cones, numbered and labelled by their
    parabolics, with the rays and dimensions carried along each orbit
    (family.geometry(), computed by the caller): what _cone_report gives,
    with "index" and "parabolic" added.  Functionals are lists of ints and
    rays lists of strings."""

    def items(level: int) -> Iterator[str]:
        keys = ("dim", "eqs", "index", "ineqs", "lineality_dim", "parabolic", "rays", "space_dim")
        inner = _newline(level + 1)
        entry = "{{" + ",".join(f'{inner}"{k}": {{}}' for k in keys) + _newline(level) + "}}"
        functionals = _RowTexts(int.__repr__, level + 2)
        rays = _RowTexts(lambda c: encode_basestring_ascii(str(c)), level + 2)
        parabolics = _parabolic_texts(family.orbits, level + 1)
        for i, (c, g, p) in enumerate(zip(family.cones, geometry, parabolics)):
            yield entry.format(
                g.dim,
                _scalar_list([functionals[v] for v in c.eqs], level + 1),
                i,
                _scalar_list([functionals[v] for v in c.ineqs], level + 1),
                len(g.lineality),
                p,
                _scalar_list([rays[v] for v in g.rays], level + 1),
                c.space_dim,
            )

    return _EncodedList(items)


def _write_report(fh: TextIO, report: Dict) -> None:
    """Write the text of the report and a newline to fh, about _BATCH_CHARS
    characters at a time."""
    batch: List[str] = []
    size = 0
    for chunk in _encode(report):
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH_CHARS:
            fh.write("".join(batch))
            batch, size = [], 0
    batch.append("\n")
    fh.write("".join(batch))


def _emit(args, report: Dict, summary: List[str]) -> None:
    """Print the summary, then stream the report to stdout or to --out.
    Everything that can fail is computed before: the report holds finished
    values and _EncodedList items that only format them."""
    for line in summary:
        print(line)
    out = getattr(args, "out", None)
    if out:
        _write_file(out, lambda fh: _write_report(fh, report))
        print(f"report written to {out}")
    else:
        _write_report(sys.stdout, report)


def _json_vector(values, rank: int, where: str) -> Tuple[Fraction, ...]:
    if not isinstance(values, list) or len(values) != rank:
        raise ValidationError(f"{where} must be a list of {rank} rationals")
    return tuple(_parse_fraction(str(v), f"{where}[{i}]") for i, v in enumerate(values))


def _point_from_args(ctx: ApartmentContext, args) -> CompactApartmentPoint:
    from . import apartment

    datum = ctx.datum
    sources = [s for s in (args.point_file, args.interior, args.stratum) if s is not None]
    if len(sources) != 1:
        raise ValidationError(
            "give exactly one of --point-file, --interior, --stratum"
        )
    if args.point_file:
        data = _load_json(args.point_file)
        if not isinstance(data, dict):
            raise ValidationError(f"{args.point_file}: expected a JSON object")
        if "interior" in data:
            u = _json_vector(data["interior"], datum.rank, f"{args.point_file}: interior")
            return apartment.interior_point(ctx, u)
        if "stratum" in data:
            q = _parabolic_from_json(datum, data["stratum"], args.point_file)
            residual = data.get("residual", [0] * datum.rank)
            u = _json_vector(residual, datum.rank, f"{args.point_file}: residual")
            return apartment.stratum_point(ctx, q, u)
        raise ValidationError(f'{args.point_file}: need "interior" or "stratum"')
    if args.interior is not None:
        u = _parse_vector(args.interior, datum.rank, "--interior")
        return apartment.interior_point(ctx, u)
    q = _parabolic_from_parts(datum, args.stratum, args.word)
    if args.residual is not None:
        u = _parse_vector(args.residual, datum.rank, "--residual")
    else:
        u = tuple(Fraction(0) for _ in range(datum.rank))
    return apartment.stratum_point(ctx, q, u)


def _polynomial_from_file(path: str) -> apartment.TropicalPolynomial:
    from . import apartment

    data = _load_json(path)
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a JSON list of monomials")
    monomials = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or not isinstance(entry.get("exponents"), dict):
            raise ValidationError(f'{path}: monomial {i} needs an "exponents" object')
        exps = {}
        for key, val in entry["exponents"].items():
            try:
                k = int(key)
            except ValueError:
                raise ValidationError(
                    f"{path}: monomial {i}: exponent key {key!r} is not an integer"
                )
            _require_int(k, f"{path}: monomial {i}: exponent key")
            exps[k] = _require_int(val, f"{path}: monomial {i}: exponents[{key}]")
        coeff_raw = str(entry.get("log_coeff", "0")).strip()
        if coeff_raw == "-inf":
            coeff = polyfan.NEG_INF
        else:
            coeff = polyfan.finite(
                _parse_fraction(coeff_raw, f"{path}: monomial {i}: log_coeff")
            )
        character = entry.get("character", [])
        if not isinstance(character, list):
            raise ValidationError(f'{path}: monomial {i}: "character" must be a list')
        character = tuple(
            _require_int(v, f"{path}: monomial {i}: character[{j}]")
            for j, v in enumerate(character)
        )
        monomials.append(apartment.make_monomial(exps, coeff, character))
    return apartment.make_polynomial(monomials)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_datum_info(args) -> int:
    datum = _load_datum(args)
    elements = root_data.weyl_elements(datum, args.cap)
    report = {
        "command": "datum-info",
        "name": datum.name,
        "rank": datum.rank,
        "cartan": [list(row) for row in datum.cartan],
        "num_roots": len(datum.roots),
        "num_positive_roots": len(datum.positive_roots),
        "weyl_order": len(elements),
        "simple_roots": _type_names(range(datum.rank)),
    }
    label = datum.name or "datum"
    _emit(
        args,
        report,
        [
            f"{label}: rank {datum.rank}, {len(datum.roots)} roots, "
            f"|W| = {len(elements)}"
        ],
    )
    return EXIT_OK


def _cmd_fan(args) -> int:
    datum = _load_datum(args)
    family = type_geometry.weyl_cone_orbits(datum)
    geometry = tuple(family.geometry())
    dims, dim_text = _dim_counts([g.dim for g in geometry])
    report = {
        "command": "fan",
        "datum": datum.name,
        "rank": datum.rank,
        "count": len(geometry),
        "dims": dims,
        "cones": _cone_entries(family, geometry),
    }
    _emit(
        args,
        report,
        [f"Weyl fan of {datum.name or 'datum'}: {len(geometry)} cones ({dim_text})"],
    )
    return EXIT_OK


def _cmd_prefan(args) -> int:
    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    family = type_geometry.type_cone_orbits(datum, t)
    geometry = tuple(family.geometry())
    dims, dim_text = _dim_counts([g.dim for g in geometry])
    lin = type_geometry.lineality_space(datum, t)
    report = {
        "command": "prefan",
        "datum": datum.name,
        "type": _type_names(t),
        "count": len(geometry),
        "dims": dims,
        "lineality_dim": len(lin),
        "cones": _cone_entries(family, geometry),
    }
    _emit(
        args,
        report,
        [
            f"stratifying prefan of {datum.name or 'datum'} for type "
            f"{type_name(t)}: {len(geometry)} cones ({dim_text})"
        ],
    )
    return EXIT_OK


def _cmd_relevant(args) -> int:
    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    # 2^rank <= |W|, so the cap on W also bounds the list of type labels.
    root_data.DatumTables.of(datum).enumerated_weyl_group(datum)
    labels = type_geometry.relevant_labels(datum, t)
    report = {
        "command": "relevant",
        "datum": datum.name,
        "type": _type_names(t),
        "standard_relevant": [_type_names(y) for y in labels],
        "count": len(labels),
    }
    if args.all:
        orbits = root_data.orbits_of(datum, labels)
        report["all_relevant"] = _EncodedList(lambda level: _parabolic_texts(orbits, level))
        report["all_count"] = sum(len(orbit) for orbit in orbits)
    shown = ", ".join(type_name(y) for y in labels)
    summary = [
        f"standard {type_name(t)}-relevant parabolics of "
        f"{datum.name or 'datum'}: {shown}"
    ]
    if args.all:
        summary.append(f"total relevant parabolics: {report['all_count']}")
    _emit(args, report, summary)
    return EXIT_OK


def _cmd_cone(args) -> int:
    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    q = _parabolic_from_parts(datum, args.label, args.word)
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
        "cone": _cone_report(cone, ConeGeometry(*polyfan.generators(cone), polyfan.dim(cone))),
    }
    report.update(extra)
    summary = [
        f"{args.kind} cone of {parabolic_name(q)} in {datum.name or 'datum'}"
        + (f" for type {type_name(t)}" if args.kind == "type" else "")
        + f": dim {polyfan.dim(cone)}, {len(cone.ineqs)} inequalities, "
        + f"{len(cone.eqs)} equalities"
    ]
    if args.kind == "type":
        yes = "yes" if extra["is_relevant"] else "no"
        summary.append(
            f"relevant: {yes}; minimal relevant stratum: "
            f"{parabolic_name(type_geometry.minimal_relevant(q, t))}"
        )
    _emit(args, report, summary)
    return EXIT_OK


def _cmd_limit(args) -> int:
    from . import apartment

    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    if args.ray_file:
        data = _load_json(args.ray_file)
        if not isinstance(data, dict) or "u0" not in data or "v" not in data:
            raise ValidationError(f'{args.ray_file}: need "u0" and "v" vectors')
        u0 = _json_vector(data["u0"], datum.rank, f"{args.ray_file}: u0")
        v = _json_vector(data["v"], datum.rank, f"{args.ray_file}: v")
    else:
        if args.u0 is None or args.v is None:
            raise ValidationError("give --u0 and --v, or --ray-file")
        u0 = _parse_vector(args.u0, datum.rank, "--u0")
        v = _parse_vector(args.v, datum.rank, "--v")
    ctx = apartment.make_context(datum, t)
    x = apartment.limit_point(ctx, u0, v)
    coords = apartment.extract_residual(ctx, x)
    sa = apartment.stratum_apartment(ctx, x.stratum_parabolic)
    report = {
        "command": "limit",
        "datum": datum.name,
        "type": _type_names(t),
        "u0": _fractions(u0),
        "v": _fractions(v),
        "stratum": _parabolic_id(x.stratum_parabolic),
        "stratum_dim": polyfan.dim(x.point.stratum),
        "residual": _fractions(x.point.residual),
        "residual_coords": _fractions(coords),
        "residual_rank": sa.residual_datum.rank,
    }
    _emit(
        args,
        report,
        [
            f"ray limit lands on stratum {parabolic_name(x.stratum_parabolic)} "
            f"(cone dim {report['stratum_dim']}); residual class "
            f"({', '.join(report['residual'])}), residual rank "
            f"{sa.residual_datum.rank}"
        ],
    )
    return EXIT_OK


def _cmd_seminorm(args) -> int:
    from . import apartment

    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    ctx = apartment.make_context(datum, t)
    f = _polynomial_from_file(args.poly)
    x = _point_from_args(ctx, args)
    if args.chart is not None:
        if not 0 <= args.chart < len(ctx.charts):
            raise ValidationError(
                f"--chart: index {args.chart} out of range 0..{len(ctx.charts) - 1}"
            )
        p = ctx.charts[args.chart][0]
    else:
        p, _, _ = apartment._accepting_chart(ctx, x)
    value = apartment.seminorm_eval(ctx, x, f, p)
    norm = apartment.is_norm(ctx, x, p)
    report = {
        "command": "seminorm",
        "datum": datum.name,
        "type": _type_names(t),
        "chart": {
            "parabolic": _parabolic_id(p),
            "generators": [list(a) for a in apartment.chart_generators(p)],
        },
        "stratum": _parabolic_id(apartment.stratum_of(ctx, x)),
        "value": str(value),
        "is_norm": norm,
        "monomials": len(f.monomials),
    }
    kind = "norm" if norm else "seminorm"
    _emit(
        args,
        report,
        [
            f"log-{kind} value of the polynomial at the point in chart "
            f"{parabolic_name(p)}: {value}"
        ],
    )
    return EXIT_OK


def _cmd_stabilizer(args) -> int:
    from . import apartment

    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    ctx = apartment.make_context(datum, t)
    x = _point_from_args(ctx, args)
    prof = apartment.stabilizer_profile(ctx, x)
    report = {
        "command": "stabilizer",
        "datum": datum.name,
        "type": _type_names(t),
        "stratum": _parabolic_id(prof.stratum_parabolic),
        **_root_groups(prof),
        "normalizer": prof.normalizer_note,
    }
    _emit(
        args,
        report,
        [
            f"stabilizer at stratum {parabolic_name(prof.stratum_parabolic)}: "
            f"{len(prof.full_unipotent)} full unipotent roots, "
            f"{len(prof.full_levi)} full Levi roots, "
            f"{len(prof.filtered)} filtered roots, times {prof.normalizer_note}"
        ],
    )
    return EXIT_OK


def _cmd_project(args) -> int:
    from . import apartment

    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    t2 = _parse_type(args.to_type, datum, "--to-type")
    ctx = apartment.make_context(datum, t)
    x = _point_from_args(ctx, args)
    y = apartment.project(ctx, x, t2)
    report = {
        "command": "project",
        "datum": datum.name,
        "from_type": _type_names(t),
        "to_type": _type_names(t2),
        "from_stratum": _parabolic_id(x.stratum_parabolic),
        "stratum": _parabolic_id(y.stratum_parabolic),
        "residual": _fractions(y.point.residual),
        "stratum_dim": polyfan.dim(y.point.stratum),
    }
    _emit(
        args,
        report,
        [
            f"projection {type_name(t)} -> {type_name(t2)}: stratum "
            f"{parabolic_name(x.stratum_parabolic)} maps to "
            f"{parabolic_name(y.stratum_parabolic)}"
        ],
    )
    return EXIT_OK


def _cmd_pgl(args) -> int:
    from . import apartment, gl_models

    if args.seminorm_file:
        data = _load_json(args.seminorm_file)
        if not isinstance(data, dict) or not isinstance(data.get("values"), list):
            raise ValidationError(f'{args.seminorm_file}: need a "values" list')
        raw = [str(v) for v in data["values"]]
    elif args.values is not None:
        raw = [v.strip() for v in args.values.split(",")]
    else:
        raise ValidationError("give --values or --seminorm-file")
    for i, token in enumerate(raw):
        if token != "-inf":
            _parse_fraction(token, f"values[{i}]")
    s = gl_models.make_seminorm(raw)
    # Context lookups take the Weyl group as enumerated, and the contexts are
    # cached per dimension, so check the default or environment cap here.
    root_data.weyl_elements(gl_models.datum_for(s.dimension - 1))
    ker = sorted(gl_models.kernel(s))
    x = gl_models.to_apartment_point(s)
    blocks = apartment.stabilizer_profile(gl_models.gl_context(s.dimension - 1), x)
    back = gl_models.from_apartment_point(x)
    report = {
        "command": "pgl",
        "dimension": s.dimension,
        "values": [str(v) for v in s.values],
        "kernel": ker,
        "interior": not ker,
        "stratum": _parabolic_id(x.stratum_parabolic),
        "residual": _fractions(x.point.residual),
        "blocks": _root_groups(blocks),
        "round_trip_ok": back == s,
    }
    where = "interior" if not ker else f"kernel positions {ker}"
    _emit(
        args,
        report,
        [
            f"diagonal seminorm class ({', '.join(report['values'])}) on a "
            f"{s.dimension}-dimensional space: {where}, stratum "
            f"{parabolic_name(x.stratum_parabolic)}"
        ],
    )
    return EXIT_OK


def _cmd_render(args) -> int:
    from . import apartment, render

    datum = _load_datum(args)
    if datum.rank != 2:
        raise ValidationError(
            f"render needs a rank-2 root datum, got rank {datum.rank}"
        )
    t = _parse_type(args.type, datum)
    ctx = apartment.make_context(datum, t)
    svg = render.render_svg(datum, t, ctx)
    _write_file(args.out, lambda fh: fh.write(svg))
    _, dim_text = _dim_counts([polyfan.dim(c) for c in ctx.prefan.cones])
    print(
        f"wrote SVG for {datum.name or 'datum'} type {type_name(t)} "
        f"({dim_text}) to {args.out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver


def _add_datum_flags(sub) -> None:
    sub.add_argument(
        "--datum", help="named root datum (A1-A6, B2-B5, C2-C5, D4, D5, F4, G2, A1xA1)"
    )
    sub.add_argument("--datum-file", help="JSON root-datum file")
    sub.add_argument("--cap", type=int, default=None, help="Weyl enumeration cap")


def _add_point_flags(sub) -> None:
    sub.add_argument("--point-file", help="JSON point file")
    sub.add_argument("--interior", help="interior point coordinates (CSV rationals)")
    sub.add_argument("--stratum", help="stratum parabolic label, e.g. a1,a2")
    sub.add_argument("--word", help="conjugating word for --stratum, e.g. 1,2")
    sub.add_argument("--residual", help="residual coordinates (CSV rationals)")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and kept for the
    process: building it is most of the time of a small command."""
    parser = argparse.ArgumentParser(
        prog="weylscope",
        description=(
            "Exact combinatorics of compactified apartments: fans of Weyl "
            "cones, relevant parabolics, tropical seminorm charts, "
            "stabilizer profiles, and rank-2 SVG pictures."
        ),
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("datum-info", help="summary of a root datum")
    _add_datum_flags(p)
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_datum_info)

    p = subs.add_parser("fan", help="the fan of all Weyl cones")
    _add_datum_flags(p)
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_fan)

    p = subs.add_parser("prefan", help="the stratifying prefan of a type")
    _add_datum_flags(p)
    p.add_argument("--type", help="type as simple-root tokens, e.g. a1,a2")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_prefan)

    p = subs.add_parser("relevant", help="relevant parabolics for a type")
    _add_datum_flags(p)
    p.add_argument("--type", help="type as simple-root tokens, e.g. a1,a2")
    p.add_argument("--all", action="store_true", help="also list non-standard ones")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_relevant)

    p = subs.add_parser("cone", help="Weyl cone / chart cone / stratum cone")
    _add_datum_flags(p)
    p.add_argument("--type", help="type as simple-root tokens (for --kind type)")
    p.add_argument("--label", required=True, help="standard label, e.g. a1,a3")
    p.add_argument("--word", help="conjugating word, e.g. 1,2 for s1 s2")
    p.add_argument(
        "--kind", choices=("type", "weyl", "max"), default="type",
        help="type = stratum cone, weyl = Weyl cone, max = chart cone",
    )
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_cone)

    p = subs.add_parser("limit", help="limit of a ray in the compactification")
    _add_datum_flags(p)
    p.add_argument("--type", help="type as simple-root tokens")
    p.add_argument("--u0", help="base point (CSV rationals)")
    p.add_argument("--v", help="direction (CSV rationals)")
    p.add_argument("--ray-file", help='JSON file {"u0": [...], "v": [...]}')
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_limit)

    p = subs.add_parser("seminorm", help="evaluate a tropical polynomial at a point")
    _add_datum_flags(p)
    p.add_argument("--type", help="type as simple-root tokens")
    p.add_argument("--poly", required=True, help="JSON tropical polynomial file")
    p.add_argument("--chart", type=int, help="chart index (default: first accepting)")
    _add_point_flags(p)
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_seminorm)

    p = subs.add_parser("stabilizer", help="root-group stabilizer profile of a point")
    _add_datum_flags(p)
    p.add_argument("--type", help="type as simple-root tokens")
    _add_point_flags(p)
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_stabilizer)

    p = subs.add_parser("project", help="project a point to a coarser type")
    _add_datum_flags(p)
    p.add_argument("--type", help="source type tokens")
    p.add_argument("--to-type", required=True, help="target type tokens")
    _add_point_flags(p)
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_project)

    p = subs.add_parser("pgl", help="diagonal seminorm dictionary (type A)")
    p.add_argument("--values", help='CSV values, e.g. 0,-1,-inf')
    p.add_argument("--seminorm-file", help='JSON file {"values": [...]}')
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(func=_cmd_pgl)

    p = subs.add_parser("render", help="SVG picture of a rank-2 prefan")
    _add_datum_flags(p)
    p.add_argument("--type", help="type as simple-root tokens")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENUM_CAP
    except (ValidationError, IndeterminateValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError as exc:
        _discard_stdout()
        print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


def _discard_stdout() -> None:
    """Point the descriptor of stdout at os.devnull once its reader is gone,
    so that the flush at interpreter exit writes what is left nowhere
    instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
