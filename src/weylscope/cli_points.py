"""The point-layer subcommands of weylscope.cli: `limit`, `seminorm`,
`stabilizer`, `project`, `pgl` and `render`, with the input parsers only
they use.

cli registers these subcommands and imports this module when one of them
runs, so that `datum-info`, `relevant`, `fan`, `prefan` and `cone` neither
compile it nor load the apartment layer under it."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from . import apartment, polyfan, root_data
from .cli import (
    EXIT_OK,
    MAX_TOKEN_CHARS,
    _check_fields,
    _dim_counts,
    _emit,
    _load_datum,
    _load_json,
    _parabolic_from_parts,
    _parabolic_id,
    _parse_type,
    _require_int,
    _type_names,
    _write_file,
)
from .root_data import ParabolicSet, RootDatum, ValidationError, parabolic_name, type_name

# Bound on the decimal exponent of a rational token: larger ones would build
# numbers too large to compute with or to print.
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


def _parabolic_from_json(datum: RootDatum, obj, where: str) -> ParabolicSet:
    if isinstance(obj, list):
        names = ",".join(str(x) for x in obj)
        return _parabolic_from_parts(datum, names, None, f"{where}: stratum")
    if isinstance(obj, dict) and "label" in obj:
        _check_fields(obj, ("label", "word"), f"{where}: stratum")
        label, word = obj["label"], obj.get("word", [])
        if not isinstance(label, list) or not isinstance(word, list):
            raise ValidationError(f'{where}: "label" and "word" must be lists')
        names = ",".join(str(x) for x in label)
        word_text = ",".join(str(_require_int(x, f"{where}: word")) for x in word)
        return _parabolic_from_parts(datum, names, word_text, f"{where}: stratum")
    raise ValidationError(f"{where}: expected a label list or a label/word object")


def _json_vector(values, rank: int, where: str) -> Tuple[Fraction, ...]:
    if not isinstance(values, list) or len(values) != rank:
        raise ValidationError(f"{where} must be a list of {rank} rationals")
    return tuple(_parse_fraction(str(v), f"{where}[{i}]") for i, v in enumerate(values))


def _point_from_args(ctx: apartment.ApartmentContext, args) -> apartment.CompactApartmentPoint:
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
        if "interior" in data and "stratum" in data:
            raise ValidationError(
                f'{args.point_file}: give exactly one of "interior" and "stratum"'
            )
        if "interior" in data:
            _check_fields(data, ("interior",), args.point_file)
            u = _json_vector(data["interior"], datum.rank, f"{args.point_file}: interior")
            return apartment.interior_point(ctx, u)
        if "stratum" in data:
            _check_fields(data, ("stratum", "residual"), args.point_file)
            q = _parabolic_from_json(datum, data["stratum"], args.point_file)
            residual = data.get("residual", [0] * datum.rank)
            u = _json_vector(residual, datum.rank, f"{args.point_file}: residual")
            return apartment.stratum_point(ctx, q, u)
        raise ValidationError(f'{args.point_file}: need "interior" or "stratum"')
    if args.interior is not None:
        u = _parse_vector(args.interior, datum.rank, "--interior")
        return apartment.interior_point(ctx, u)
    q = _parabolic_from_parts(datum, args.stratum, args.word, "--stratum")
    if args.residual is not None:
        u = _parse_vector(args.residual, datum.rank, "--residual")
    else:
        u = tuple(Fraction(0) for _ in range(datum.rank))
    return apartment.stratum_point(ctx, q, u)


def _polynomial_from_file(path: str) -> apartment.TropicalPolynomial:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValidationError(f"{path}: expected a JSON list of monomials")
    monomials = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or not isinstance(entry.get("exponents"), dict):
            raise ValidationError(f'{path}: monomial {i} needs an "exponents" object')
        _check_fields(entry, ("exponents", "log_coeff", "character"), f"{path}: monomial {i}")
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
# report helpers


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


# ---------------------------------------------------------------------------
# subcommands


def _cmd_limit(args) -> int:
    datum = _load_datum(args)
    t = _parse_type(args.type, datum)
    if args.ray_file:
        data = _load_json(args.ray_file)
        if not isinstance(data, dict) or "u0" not in data or "v" not in data:
            raise ValidationError(f'{args.ray_file}: need "u0" and "v" vectors')
        _check_fields(data, ("u0", "v"), args.ray_file)
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
        # The residual datum has one simple root per coordinate.
        "residual_rank": len(coords),
    }
    _emit(
        args,
        report,
        [
            f"ray limit lands on stratum {parabolic_name(x.stratum_parabolic)} "
            f"(cone dim {report['stratum_dim']}); residual class "
            f"({', '.join(report['residual'])}), residual rank {len(coords)}"
        ],
    )
    return EXIT_OK


def _cmd_seminorm(args) -> int:
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
        p, psi = ctx.charts[args.chart]
        values = apartment._values_in_chart(x, p)
    else:
        p, psi, values = apartment._accepting_chart(ctx, x)
    value = apartment._chart_seminorm(f, values)
    norm = all(v.kind == 0 for v in values)
    report = {
        "command": "seminorm",
        "datum": datum.name,
        "type": _type_names(t),
        "chart": {
            "parabolic": _parabolic_id(p),
            "generators": [list(a) for a in psi],
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
    from . import gl_models

    if args.seminorm_file:
        data = _load_json(args.seminorm_file)
        if not isinstance(data, dict) or not isinstance(data.get("values"), list):
            raise ValidationError(f'{args.seminorm_file}: need a "values" list')
        _check_fields(data, ("values",), args.seminorm_file)
        raw = [str(v) for v in data["values"]]
    elif args.values is not None:
        raw = [v.strip() for v in args.values.split(",")]
    else:
        raise ValidationError("give --values or --seminorm-file")
    # The dimension is checked first, so that a long list is refused before
    # any of its values is parsed.
    datum = gl_models.datum_for(len(raw) - 1)
    for i, token in enumerate(raw):
        if token != "-inf":
            _parse_fraction(token, f"values[{i}]")
    s = gl_models.make_seminorm(raw)
    # Context lookups run under whatever cap the datum has passed, and the
    # contexts are cached per dimension, so check the default or environment
    # cap here.
    root_data.DatumTables.of(datum).check_cap(datum)
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
    from . import render

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
