"""The ``queries`` workload: warm point queries in one process.

Set-up builds the contexts, warms the lazy tables of every prefan cone and
of every cone a projection can land on, and draws the polynomials and the
query stream from the seed.  The timed part runs the stream in a closed
loop with one client; each query is timed from call to return.  Queries
alternate between interior points and points on strata.

Every invariant is checked on plain data after the query returns, so the
checks call nothing in the library: the ``pgl`` round trip must give back
its input; ``stratum_of``, alone and inside ``stabilizer_profile``, must
agree with the stored stratum; filtered levels must be -<residual, root>;
a ray limit must land on the stratum whose cone the direction was drawn
from; a projection must land on a parabolic containing the source stratum.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

from weylscope import apartment, gl_models, polyfan, root_data, type_geometry

import speed
from workloads import QUERY_KINDS as KINDS, QUERY_SIZES as SIZES

POLYS_PER_CONTEXT = 8


def _warm(cone):
    polyfan.generators(cone)
    polyfan.implied_equalities(cone)
    polyfan.span_basis(cone)
    polyfan.relative_interior_point(cone)


def _supertypes(rank, t):
    rest = [i for i in range(rank) if i not in t]
    return [
        frozenset(t) | {rest[j] for j in range(len(rest)) if mask >> j & 1}
        for mask in range(1, 1 << len(rest))
    ]


def _polynomial(rng, generators):
    monomials = []
    for _ in range(rng.randint(2, 6)):
        keys = rng.sample(range(generators), min(generators, rng.randint(1, 3)))
        coeff = Fraction(rng.randint(-12, 6), rng.randint(1, 3))
        monomials.append(apartment.make_monomial({k: rng.randint(1, 3) for k in keys}, coeff))
    return apartment.make_polynomial(monomials)


class Context:
    """A warm context plus what the stream draws from it."""

    def __init__(self, ctx, rng):
        self.ctx = ctx
        n_roots = len(ctx.datum.roots)
        self.top = next(q for q in ctx.parabolics if len(q.members) == n_roots)
        self.strata = [q for q in ctx.parabolics if q is not self.top]
        self.cone = dict(zip((q.members for q in ctx.parabolics), ctx.prefan.cones))
        for cone in ctx.prefan.cones:
            _warm(cone)
        self.supertypes = _supertypes(ctx.datum.rank, ctx.type_label)
        for t2 in self.supertypes:
            for q in ctx.parabolics:
                _warm(type_geometry.type_cone(type_geometry.minimal_relevant(q, t2), t2).cone)
        generators = len(ctx.charts[0][1])
        self.polys = [_polynomial(rng, generators) for _ in range(POLYS_PER_CONTEXT)]


def setup(size, seed):
    """Build and warm everything; return the contexts and the stream."""
    specs, gl_ranks, cycle = SIZES[size]
    rng = random.Random(seed)
    contexts = [
        Context(apartment.make_context(root_data.build_named(name), t), rng)
        for name, t in specs
    ]
    for d in gl_ranks:
        for cone in gl_models.gl_context(d).prefan.cones:
            _warm(cone)
    # Blocks of ten queries (each kind, interior and on a stratum) rotate
    # over the contexts, and strata and pgl ranks are dealt in shuffled
    # rounds: the seed changes the points, not the stream's mix.
    ranks = _deal(rng, gl_ranks)
    strata = [_deal(rng, range(len(ctx.strata))) for ctx in contexts]
    block = 2 * len(KINDS)
    stream = [_draw(rng, KINDS[i % len(KINDS)], (i // len(KINDS)) % 2 == 0,
                    (i // block) % len(contexts), contexts, strata, ranks)
              for i in range(cycle)]
    return contexts, stream


def _deal(rng, values):
    """Endless seeded shuffled rounds over ``values``."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _draw(rng, kind, interior, c, contexts, strata, ranks):
    """One query as plain data: (kind, interior, context index, arguments)."""
    if kind == "pgl":
        n = next(ranks) + 1
        values = [str(rng.randint(-6, 3)) for _ in range(n)]
        if not interior:
            for i in rng.sample(range(n), rng.randint(1, n - 1)):
                values[i] = "-inf"
        return kind, interior, None, values
    ctx = contexts[c]
    rank = ctx.ctx.datum.rank
    coords = tuple(rng.randint(-5, 5) for _ in range(rank))
    stratum = None if interior else next(strata[c])
    if kind == "seminorm":
        extra = rng.randrange(len(ctx.polys))
    elif kind == "limit":
        q = ctx.top if stratum is None else ctx.strata[stratum]
        k = rng.randint(1, 3)
        extra = tuple(k * v for v in polyfan.relative_interior_point(ctx.cone[q.members]))
    elif kind == "project":
        extra = rng.randrange(len(ctx.supertypes))
    else:
        extra = None
    return kind, interior, c, (coords, stratum, extra)


def _point(ctx, coords, stratum):
    if stratum is None:
        return apartment.interior_point(ctx.ctx, coords)
    return apartment.stratum_point(ctx.ctx, ctx.strata[stratum], coords)


def _roots(q):
    return sorted(q.members)


def run_query(contexts, query):
    """Run one query; return (seconds, cpu seconds, result text, error),
    times without the speed probes that ran during the query."""
    kind, _, c, args = query
    t0, c0 = speed.clock(), speed.cpu_clock()
    if kind == "pgl":
        s = gl_models.make_seminorm(args)
        x = gl_models.to_apartment_point(s)
        back = gl_models.from_apartment_point(x)
        blocks = gl_models.stabilizer_blocks(s)
        took, cpu = speed.clock() - t0, speed.cpu_clock() - c0
        error = None if back == s else (
            f"pgl round trip of {[str(v) for v in s.values]} gave {[str(v) for v in back.values]}")
        result = ([str(v) for v in s.values], blocks.full_unipotent, blocks.full_levi,
                  [(a, str(level)) for a, level in blocks.filtered])
        return took, cpu, repr(result), error
    ctx = contexts[c]
    coords, stratum, extra = args
    error = None
    if kind == "seminorm":
        x = _point(ctx, coords, stratum)
        chart = next(i for i, (p, _) in enumerate(ctx.ctx.charts)
                     if apartment.chart_membership(ctx.ctx, x, p))
        value = apartment.seminorm_eval(ctx.ctx, x, ctx.polys[extra], ctx.ctx.charts[chart][0])
        found = apartment.stratum_of(ctx.ctx, x)
        took, cpu = speed.clock() - t0, speed.cpu_clock() - c0
        if found.members != x.stratum_parabolic.members:
            error = "stratum_of disagrees with the stored stratum"
        result = (chart, str(value))
    elif kind == "stabilizer":
        x = _point(ctx, coords, stratum)
        prof = apartment.stabilizer_profile(ctx.ctx, x)
        took, cpu = speed.clock() - t0, speed.cpu_clock() - c0
        residual = x.point.residual
        if prof.stratum_parabolic.members != x.stratum_parabolic.members:
            error = "stabilizer stratum disagrees with the stored stratum"
        elif any(level != -sum(Fraction(a) * b for a, b in zip(residual, root))
                 for root, level in prof.filtered):
            error = "filtered level is not -<residual, root>"
        result = (prof.full_unipotent, prof.full_levi,
                  [(a, str(level)) for a, level in prof.filtered])
    elif kind == "limit":
        q = ctx.top if stratum is None else ctx.strata[stratum]
        y = apartment.limit_point(ctx.ctx, coords, extra)
        took, cpu = speed.clock() - t0, speed.cpu_clock() - c0
        if y.stratum_parabolic.members != q.members:
            error = "ray limit landed on another stratum"
        result = (_roots(y.stratum_parabolic), [str(v) for v in y.point.residual])
    else:
        x = _point(ctx, coords, stratum)
        y = apartment.project(ctx.ctx, x, ctx.supertypes[extra])
        took, cpu = speed.clock() - t0, speed.cpu_clock() - c0
        if not x.stratum_parabolic.members <= y.stratum_parabolic.members:
            error = "projection target does not contain the source stratum"
        result = (_roots(y.stratum_parabolic), [str(v) for v in y.point.residual])
    return took, cpu, repr(result), error


def run(params, spawned):
    """Set up (``setup_s`` is the process's CPU time up to here), then run
    the stream for ``seconds`` (at least one whole cycle), or for exactly
    ``cycles`` cycles when that is given.  Returns a JSON-ready summary with
    every query's (seconds, cpu seconds, start on ``time.perf_counter``) per
    run."""
    contexts, stream = setup(params["size"], params["seed"])
    out = {"setup_s": speed.cpu_clock(), "setup_wall_s": speed.clock() - spawned,
           "setup_at": time.perf_counter(), "exit": 0}
    if params.get("setup_only"):
        return out
    samples = [[] for _ in stream]
    errors = []
    attempted = failed = cycles = 0
    digest = hashlib.sha256()
    timed = "cycles" not in params
    start = time.perf_counter()
    done = False
    while not done:
        for i, query in enumerate(stream):
            attempted += 1
            at = time.perf_counter()
            try:
                took, used, result, error = run_query(contexts, query)
            except Exception as exc:  # a failing query is counted, the stream goes on
                took = used = 0.0
                result, error = "error", f"{type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{query[0]} {query[3]}: {error}")
            if not cycles:
                digest.update(result.encode() + b"\n")
            samples[i].append((took, used, at))
            if timed and cycles and time.perf_counter() - start >= params["seconds"]:
                done = True
                break
        else:
            cycles += 1
            done = cycles == params.get("cycles") or (
                timed and time.perf_counter() - start >= params["seconds"])
    out.update(attempted=attempted, failed=failed, errors=errors, digest=digest.hexdigest(),
               cycles=cycles, kinds=[q[0] for q in stream], samples=samples)
    return out
