"""What each workload runs.

``skeleton`` and ``contexts`` run jobs.  A job is one fresh process: a ``weylscope`` CLI command, or the
certification job, which runs ``verify_prefan`` and ``covers`` on the
stratifying prefan of each listed datum and type.  Job names are roles, the
same in the full and the smoke sizes, so that the ``case.<job>.s`` metrics
keep their names.

Inputs that come from the seed (points, polynomial files, ``pgl`` values)
are written under the run's work directory.  Points on strata use standard
relevant labels (relevancy depends on the label only, so any conjugating
word keeps the point valid).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli" or "certify"
    argv: Tuple[str, ...]
    seeded: bool = False  # whether the report depends on the seed
    check: Dict = field(default_factory=dict, compare=False)


# Certification: every type of the rank-2 data and of A3 with at least two
# letters.  The A3 types with fewer letters cost about 15 s together on a
# 2-CPU box, more than a run can spend on one job.
CERTIFY_FULL = ("A2", "B2", "G2", "A3:a1,a2", "A3:a1,a3", "A3:a2,a3", "A3:a1,a2,a3")
CERTIFY_SMOKE = ("A2",)

# Standard relevant labels per (datum, type), from `weylscope relevant`.
RELEVANT = {
    ("A5", "a1,a2"): ["a1,a2", "a1,a3", "a2,a3", "a1,a2,a3", "a1,a2,a4", "a1,a2,a5",
                      "a1,a3,a4", "a1,a3,a5", "a2,a3,a4", "a2,a3,a5", "a1,a2,a3,a4",
                      "a1,a2,a3,a5", "a1,a2,a4,a5", "a1,a3,a4,a5", "a2,a3,a4,a5"],
    ("B4", "a1,a2"): ["a1,a2", "a1,a3", "a2,a3", "a1,a2,a3", "a1,a2,a4", "a1,a3,a4",
                      "a2,a3,a4"],
    ("D4", "a1"): ["a1", "a2", "a1,a2", "a1,a3", "a1,a4", "a2,a3", "a2,a4", "a1,a2,a3",
                   "a1,a2,a4", "a1,a3,a4", "a2,a3,a4"],
    ("C4", "a1"): ["a1", "a2", "a1,a2", "a1,a3", "a1,a4", "a2,a3", "a2,a4", "a1,a2,a3",
                   "a1,a2,a4", "a1,a3,a4", "a2,a3,a4"],
    ("A2", "a1"): ["a1", "a2"],
    ("B2", "a1"): ["a1", "a2"],
    ("G2", "a1"): ["a1", "a2"],
    ("C2", "a1"): ["a1", "a2"],
}

RANK = {"A2": 2, "B2": 2, "C2": 2, "G2": 2, "B4": 4, "C4": 4, "D4": 4, "A5": 5}

# Generator count of a type-t big-cell chart (positive roots outside the
# Levi of t), which bounds the exponent keys of a polynomial.
CHART_GENERATORS = {("D4", "a1"): 11, ("G2", "a1"): 5}


# Job names, in the order the per-layer ``case.<job>.s`` metrics list them.
JOB_NAMES = {
    "skeleton": ("fan_a", "fan_b", "fan_c", "prefan_b", "prefan_a", "certify"),
    "contexts": ("datum_info", "relevant_a", "relevant_b", "stabilizer_a", "stabilizer_b",
                 "seminorm", "project", "pgl"),
}


def skeleton_jobs(smoke: bool) -> List[Job]:
    a, b, c, big = ("A2", "B2", "C2", "A2") if smoke else ("A3", "B3", "C3", "A4")
    return [
        Job("fan_a", "cli", ("fan", "--datum", a)),
        Job("fan_b", "cli", ("fan", "--datum", b)),
        Job("fan_c", "cli", ("fan", "--datum", c)),
        Job("prefan_b", "cli", ("prefan", "--datum", b, "--type", "a1")),
        Job("prefan_a", "cli", ("prefan", "--datum", big, "--type", "a1")),
        Job("certify", "certify", CERTIFY_SMOKE if smoke else CERTIFY_FULL),
    ]


def _point_flags(rng: random.Random, datum: str, type_: str) -> Tuple[Tuple[str, ...], Optional[List[int]]]:
    """Seeded point: interior half of the time, else a conjugated stratum.
    Returns the flags and, for an interior point, its coordinates."""
    rank = RANK[datum]
    coords = [rng.randint(-5, 5) for _ in range(rank)]
    text = ",".join(str(x) for x in coords)
    # "--flag=value", since a value like "-1,2" would read as a flag.
    if rng.random() < 0.5:
        return (f"--interior={text}",), coords
    label = rng.choice(RELEVANT[(datum, type_)])
    word = ",".join(str(rng.randint(1, rank)) for _ in range(rng.randint(0, 4)))
    flags = ("--stratum", label, f"--residual={text}")
    return (flags + ("--word", word) if word else flags), None


def _polynomial(rng: random.Random, generators: int) -> List[Dict]:
    out = []
    for _ in range(rng.randint(3, 6)):
        keys = rng.sample(range(generators), rng.randint(1, 3))
        out.append({
            "exponents": {str(k): rng.randint(1, 3) for k in keys},
            "log_coeff": str(Fraction(rng.randint(-12, 6), rng.randint(1, 3))),
        })
    return out


def _pgl_values(rng: random.Random, n: int) -> List[str]:
    values = [str(rng.randint(-6, 3)) for _ in range(n)]
    if rng.random() < 0.5:
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            values[i] = "-inf"
    return values


def contexts_jobs(smoke: bool, rng: random.Random, work: str) -> List[Job]:
    if smoke:
        big, other, semi, proj, proj_to, ptype, npgl = "A2", "B2", "G2", "C2", "a1,a2", "a1", 3
    else:
        big, other, semi, proj, proj_to, ptype, npgl = "A5", "B4", "D4", "C4", "a1,a3", "a1", 6
    stab_type = "a1" if smoke else "a1,a2"
    jobs = [
        Job("datum_info", "cli", ("datum-info", "--datum", big)),
        Job("relevant_a", "cli", ("relevant", "--datum", big, "--type", "a1", "--all")),
        Job("relevant_b", "cli", ("relevant", "--datum", other, "--type", stab_type, "--all")),
    ]
    for name, datum in (("stabilizer_a", big), ("stabilizer_b", other)):
        flags, _ = _point_flags(rng, datum, stab_type)
        jobs.append(Job(name, "cli", ("stabilizer", "--datum", datum, "--type", stab_type) + flags,
                        seeded=True))
    poly = _polynomial(rng, CHART_GENERATORS[(semi, "a1")])
    poly_path = os.path.join(work, "seminorm_poly.json")
    with open(poly_path, "w", encoding="utf-8") as fh:
        json.dump(poly, fh, indent=1)
    flags, interior = _point_flags(rng, semi, "a1")
    jobs.append(Job("seminorm", "cli",
                    ("seminorm", "--datum", semi, "--type", "a1", "--poly", poly_path) + flags,
                    seeded=True, check={"poly": poly, "interior": interior}))
    flags, _ = _point_flags(rng, proj, ptype)
    jobs.append(Job("project", "cli",
                    ("project", "--datum", proj, "--type", ptype, "--to-type", proj_to) + flags,
                    seeded=True))
    values = _pgl_values(rng, npgl)
    jobs.append(Job("pgl", "cli", ("pgl", "--values=" + ",".join(values)), seeded=True,
                    check={"values": values}))
    return jobs


def _report(stdout: str) -> Dict:
    """The JSON report below the summary lines of a CLI command."""
    start = stdout.index("\n{") + 1 if not stdout.startswith("{") else 0
    return json.loads(stdout[start:])


def _value(gens, u, monomial) -> Fraction:
    total = Fraction(monomial["log_coeff"])
    for k, n in monomial["exponents"].items():
        total += n * sum(Fraction(a) * b for a, b in zip(u, gens[int(k)]))
    return total


def check_output(job: Job, stdout: str) -> Optional[str]:
    """Invariants of one job's report, computed without the library; a
    message when one is broken, else None."""
    if job.kind == "certify":
        lines = stdout.splitlines()
        want = sum(1 if ":" in spec else 2 ** RANK[spec] for spec in job.argv)
        if len(lines) != want:
            return f"certification report has {len(lines)} lines, not {want}"
        bad = [line for line in lines if not line.endswith("verified covers")]
        return f"certification failed: {bad[0]}" if bad else None
    try:
        return _check_report(job, _report(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"report is malformed: {type(exc).__name__}: {exc}"


def _check_report(job: Job, rep: Dict) -> Optional[str]:
    command = job.argv[0]
    if rep.get("command") != command:
        return f"report is for {rep.get('command')!r}, not {command!r}"
    if command in ("fan", "prefan"):
        if rep["count"] != len(rep["cones"]) or sum(rep["dims"].values()) != rep["count"]:
            return "cone count disagrees with the cone list"
    elif command == "relevant" and rep["all_count"] != len(rep["all_relevant"]):
        return "relevant count disagrees with the list"
    elif command == "stabilizer":
        roots = rep["full_unipotent"] + rep["full_levi"] + [f["root"] for f in rep["filtered"]]
        if len({tuple(r) for r in roots}) != len(roots):
            return "stabilizer root groups overlap"
    elif command == "seminorm" and job.check["interior"] is not None:
        gens = rep["chart"]["generators"]
        want = max(_value(gens, job.check["interior"], m) for m in job.check["poly"])
        if rep["value"] != str(want):
            return f"seminorm value {rep['value']} != {want}"
    elif command == "pgl":
        values = job.check["values"]
        kernel = [i for i, v in enumerate(values) if v == "-inf"]
        if not rep["round_trip_ok"] or rep["kernel"] != kernel:
            return "pgl round trip or kernel is wrong"
    return None


def certify(specs) -> str:
    """Run ``verify_prefan`` and ``covers`` on the stratifying prefan of each
    spec (``NAME`` for every type of the datum, ``NAME:a1,a2`` for one)."""
    from itertools import combinations

    from weylscope import polyfan, root_data, type_geometry

    lines = []
    for spec in specs:
        name, _, label = spec.partition(":")
        datum = root_data.build_named(name)
        if label:
            types = [frozenset(int(tok[1:]) - 1 for tok in label.split(","))]
        else:
            types = [frozenset(t) for k in range(datum.rank + 1)
                     for t in combinations(range(datum.rank), k)]
        for t in types:
            prefan = type_geometry.prefan_of_type(datum, t)
            polyfan.verify_prefan(prefan)
            covered = "verified covers" if polyfan.covers(prefan) else "verified DOES NOT COVER"
            letters = ",".join(f"a{i + 1}" for i in sorted(t)) or "-"
            lines.append(f"{name} {letters}: {len(prefan.cones)} cones {covered}")
    return "\n".join(lines) + "\n"


# The ``queries`` workload: query kinds, and per size the contexts as
# (datum, type), the gl_context ranks d (space dimension d + 1), and the
# number of queries in one cycle of the stream.  A full cycle has 1000
# queries, so that its p99 has ten samples beyond it.
QUERY_KINDS = ("seminorm", "stabilizer", "limit", "project", "pgl")
QUERY_SIZES = {
    "full": ((("A3", (0,)), ("B3", (0,)), ("C3", (0, 1)), ("G2", (0,))), (1, 2, 3, 4, 5), 1000),
    "smoke": ((("A2", (0,)), ("G2", (0,))), (1, 2), 100),
}
