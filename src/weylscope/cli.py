"""Command-line surface: root-datum ingestion, queries over the library,
and deterministic JSON reports; `render` writes the SVG of weylscope.render.

A process compiles only the layers its command runs.  This module holds
the parser, the datum loading, the report encoder and the two commands
that need root_data alone, `datum-info` and `relevant`.  The cone commands
`fan`, `prefan` and `cone` live in weylscope.cli_cones, over type_geometry,
polyfan and linalg; the point commands `limit`, `seminorm`, `stabilizer`,
`project`, `pgl` and `render` in weylscope.cli_points, over apartment,
gl_models and render.  Their handlers import the module when they run, and
a process that runs a subcommand builds the arguments of that subcommand
only."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import root_data
from .root_data import (
    EnumerationCapError,
    ParabolicSet,
    RootDatum,
    ValidationError,
    WeylElement,
    type_name,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ENUM_CAP = 3

# Bound on the length of a rational token or a JSON integer from outside:
# longer ones would build numbers too large to compute with or to print.
MAX_TOKEN_CHARS = 100


# ---------------------------------------------------------------------------
# parsing helpers


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


def _check_fields(data: Dict, known: Tuple[str, ...], where: str) -> None:
    """Refuse a field that the reader does not read, so that a misspelt or
    misplaced one is not dropped without a word."""
    unknown = next((key for key in data if key not in known), None)
    if unknown is not None:
        raise ValidationError(f"{where}: unknown field {json.dumps(unknown)}")


def _datum_from_file(path: str) -> RootDatum:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    if "name" in data:
        if len(data) > 1:
            raise ValidationError(f'{path}: "name" must stand alone')
        return root_data.build_named(str(data["name"]))
    _check_fields(data, ("rank", "cartan", "roots", "label"), path)
    if not isinstance(data.get("label", ""), str):
        raise ValidationError(f'{path}: "label" must be a JSON string')
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
    |W| is checked against it here, and every later lookup runs under it.
    Without one, WEYLSCOPE_ENUM_CAP is validated here, so a bad value exits
    2 whether or not the command reads W, or finds the datum already
    admitted in this process."""
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
        root_data.DatumTables.of(datum).check_cap(datum, args.cap)
    else:
        root_data.resolve_enum_cap()
    return datum


def _element_from_word(datum: RootDatum, word: Sequence[int]) -> WeylElement:
    for i in word:
        if not 1 <= i <= datum.rank:
            raise ValidationError(f"word letter s{i} is out of range 1..{datum.rank}")
    return root_data.element_of_word(datum, [i - 1 for i in word])


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
    datum: RootDatum, label_text: str, word_text: Optional[str], flag: str
) -> ParabolicSet:
    """w^{-1}·P_Y for the label Y and the word of w; flag names where the
    label came from in an error."""
    label = _parse_type(label_text, datum, flag)
    std = root_data.standard_parabolic(datum, label)
    word = _parse_word(word_text)
    if not word:
        return std
    w = _element_from_word(datum, word)
    return root_data.act_inverse(w, std)


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


def _dim_counts(dims: Sequence[int]) -> Tuple[Dict[str, int], str]:
    """The number of cones of each dimension, as a report map and as
    summary text."""
    counts = sorted(Counter(dims).items())
    return {str(k): v for k, v in counts}, ", ".join(f"dim {k}: {v}" for k, v in counts)


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
# it, byte for byte, but in chunks as it is encoded.  The lists of cones (in
# cli_cones) and of relevant parabolics are encoded straight from the
# orbits, with no dict per entry, and each distinct row of a cone (a
# functional or a ray) is encoded once per report.

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
        names = [encode_basestring_ascii(n) for n in _type_names(orbit.label)]
        head = "{" + inner + '"label": ' + _scalar_list(names, level + 1) + "," + inner + '"word": '
        tail = _newline(level) + "}"
        for inv in orbit.inverses:
            yield head + _scalar_list([str(i + 1) for i in inv.word], level + 1) + tail


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


# ---------------------------------------------------------------------------
# subcommands


def _cmd_datum_info(args) -> int:
    datum = _load_datum(args)
    root_data.DatumTables.of(datum).check_cap(datum, args.cap)
    order = root_data.weyl_order(datum)
    report = {
        "command": "datum-info",
        "name": datum.name,
        "rank": datum.rank,
        "cartan": [list(row) for row in datum.cartan],
        "num_roots": len(datum.roots),
        "num_positive_roots": len(datum.positive_roots),
        "weyl_order": order,
        "simple_roots": _type_names(range(datum.rank)),
    }
    label = datum.name or "datum"
    _emit(
        args,
        report,
        [
            f"{label}: rank {datum.rank}, {len(datum.roots)} roots, "
            f"|W| = {order}"
        ],
    )
    return EXIT_OK


def _cmd_relevant(args) -> int:
    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    labels = root_data.relevant_labels(datum, t)
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


# ---------------------------------------------------------------------------
# driver


def _lazy_command(module: str, name: str) -> Callable[[argparse.Namespace], int]:
    """The handler `name` of weylscope.<module>, which is imported only when
    one of that module's commands runs.  The import goes through
    __import__, as an import statement does, so that `python -X importtime`
    lists the module (importlib.import_module bypasses what it times)."""

    def run(args: argparse.Namespace) -> int:
        return getattr(__import__(f"{__package__}.{module}", fromlist=(name,)), name)(args)

    return run


_DATUM_FLAGS = (
    ("--datum", {"help": "named root datum (A1-A6, B2-B5, C2-C5, D4, D5, F4, G2, A1xA1)"}),
    ("--datum-file", {"help": "JSON root-datum file"}),
    ("--cap", {"type": int, "default": None, "help": "Weyl enumeration cap"}),
)
_POINT_FLAGS = (
    ("--point-file", {"help": "JSON point file"}),
    ("--interior", {"help": "interior point coordinates (CSV rationals)"}),
    ("--stratum", {"help": "stratum parabolic label, e.g. a1,a2"}),
    ("--word", {"help": "conjugating word for --stratum, e.g. 1,2"}),
    ("--residual", {"help": "residual coordinates (CSV rationals)"}),
)
_OUT = ("--out", {"help": "write the JSON report to this file"})
_TYPE = ("--type", {"help": "type as simple-root tokens"})
_TYPE_EXAMPLE = ("--type", {"help": "type as simple-root tokens, e.g. a1,a2"})

# Every subcommand, in the order help lists them: its help line, its handler
# and its arguments in order.  Both parsers are built from this one table.
_SUBCOMMANDS = {
    "datum-info": ("summary of a root datum", _cmd_datum_info, _DATUM_FLAGS + (_OUT,)),
    "fan": (
        "the fan of all Weyl cones", _lazy_command("cli_cones", "_cmd_fan"), _DATUM_FLAGS + (_OUT,)
    ),
    "prefan": (
        "the stratifying prefan of a type",
        _lazy_command("cli_cones", "_cmd_prefan"),
        _DATUM_FLAGS + (_TYPE_EXAMPLE, _OUT),
    ),
    "relevant": (
        "relevant parabolics for a type",
        _cmd_relevant,
        _DATUM_FLAGS + (
            _TYPE_EXAMPLE,
            ("--all", {"action": "store_true", "help": "also list non-standard ones"}),
            _OUT,
        ),
    ),
    "cone": (
        "Weyl cone / chart cone / stratum cone",
        _lazy_command("cli_cones", "_cmd_cone"),
        _DATUM_FLAGS + (
            ("--type", {"help": "type as simple-root tokens (for --kind type)"}),
            ("--label", {"required": True, "help": "standard label, e.g. a1,a3"}),
            ("--word", {"help": "conjugating word, e.g. 1,2 for s1 s2"}),
            (
                "--kind",
                {
                    "choices": ("type", "weyl", "max"),
                    "default": "type",
                    "help": "type = stratum cone, weyl = Weyl cone, max = chart cone",
                },
            ),
            _OUT,
        ),
    ),
    "limit": (
        "limit of a ray in the compactification",
        _lazy_command("cli_points", "_cmd_limit"),
        _DATUM_FLAGS + (
            _TYPE,
            ("--u0", {"help": "base point (CSV rationals)"}),
            ("--v", {"help": "direction (CSV rationals)"}),
            ("--ray-file", {"help": 'JSON file {"u0": [...], "v": [...]}'}),
            _OUT,
        ),
    ),
    "seminorm": (
        "evaluate a tropical polynomial at a point",
        _lazy_command("cli_points", "_cmd_seminorm"),
        _DATUM_FLAGS + (
            _TYPE,
            ("--poly", {"required": True, "help": "JSON tropical polynomial file"}),
            ("--chart", {"type": int, "help": "chart index (default: first accepting)"}),
        ) + _POINT_FLAGS + (_OUT,),
    ),
    "stabilizer": (
        "root-group stabilizer profile of a point",
        _lazy_command("cli_points", "_cmd_stabilizer"),
        _DATUM_FLAGS + (_TYPE,) + _POINT_FLAGS + (_OUT,),
    ),
    "project": (
        "project a point to a coarser type",
        _lazy_command("cli_points", "_cmd_project"),
        _DATUM_FLAGS + (
            ("--type", {"help": "source type tokens"}),
            ("--to-type", {"required": True, "help": "target type tokens"}),
        ) + _POINT_FLAGS + (_OUT,),
    ),
    "pgl": (
        "diagonal seminorm dictionary (type A)",
        _lazy_command("cli_points", "_cmd_pgl"),
        (
            ("--values", {"help": "CSV values, e.g. 0,-1,-inf"}),
            ("--seminorm-file", {"help": 'JSON file {"values": [...]}'}),
            _OUT,
        ),
    ),
    "render": (
        "SVG picture of a rank-2 prefan",
        _lazy_command("cli_points", "_cmd_render"),
        _DATUM_FLAGS + (_TYPE, ("--out", {"required": True, "help": "output SVG path"})),
    ),
}


def _make_parser(only: Optional[str]) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named `only`: argparse
    hands the rest of a command line to the subcommand its first word
    names, so the others are never parsed.  A parser of one subcommand
    still lists all of them in its usage, as the full parser draws it, so
    that its usage and errors read as those of the whole command."""
    parser = argparse.ArgumentParser(
        prog="weylscope",
        description=(
            "Exact combinatorics of compactified apartments: fans of Weyl "
            "cones, relevant parabolics, tropical seminorm charts, "
            "stabilizer profiles, and rank-2 SVG pictures."
        ),
    )
    metavar = None if only is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name, (help_text, func, arguments) in _SUBCOMMANDS.items():
        if only is None or name == only:
            p = subs.add_parser(name, help=help_text)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
    return parser


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and kept for the
    process."""
    return _make_parser(None)


@lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser that runs the subcommand `name`, kept for the process:
    building the arguments of all eleven is a large part of the time of a
    small command, and a command reads only its own."""
    return _make_parser(name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command line that starts with a subcommand needs only its arguments;
    # help, usage and an unknown command go to the full parser.
    if argv and argv[0] in _SUBCOMMANDS:
        parser = _command_parser(argv[0])
    else:
        parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENUM_CAP
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError as exc:
        _discard_stdout()
        print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


def _input_errors() -> Tuple[type, ...]:
    """The errors that exit 2 with their message: ValidationError, and
    IndeterminateValueError once a command has loaded polyfan, the only
    module that raises it.  main reads this only when an error reaches it,
    so that no command loads polyfan for the sake of its except clause."""
    polyfan = sys.modules.get(f"{__package__}.polyfan")
    if polyfan is None:
        return (ValidationError,)
    return (ValidationError, polyfan.IndeterminateValueError)


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
    # Run as `python -m weylscope.cli`: cli_cones and cli_points import
    # weylscope.cli, and must find this module rather than compile a second.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
