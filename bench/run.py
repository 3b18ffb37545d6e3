"""Outside-in benchmark of weylscope.

    python3 bench/run.py --workload skeleton|contexts|queries --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program under test is ``src/weylscope`` next to this
directory, and every process is started with ``src`` on ``PYTHONPATH``.
The benchmark reaches the library only through the ``weylscope`` CLI entry
point and public functions.

Workloads (see README.md for the reasons behind each):
  skeleton  one fresh process per job: Weyl fans, stratifying prefans and
            fan-axiom certification; ray enumeration dominates.
  contexts  one fresh process per CLI job on rank-4/5 data; cold root-datum
            and type-geometry enumeration dominates.
  queries   one process: contexts are built and warmed in set-up, then a
            seeded stream of warm point queries runs in a closed loop.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, times normalised to the machine's speed (see
``speed.py``); with ``--trace 1`` the run first measures untraced for half
the seconds, then runs the same work once more with every layer entry point
wrapped, and reports per-layer metrics.  A fuller record (environment,
job list, digests, samples, errors, the trace) goes to
``.bench_run/results/``.  ``--smoke`` runs each workload on A2/G2-sized
inputs in a few seconds, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(ROOT, ".bench_run")
EXPECTED = os.path.join(BENCH, "expected.json")

WORKLOADS = ("skeleton", "contexts", "queries")
DEFAULT_SEED = 0
# A run must end within 180 s; processes still running at this point are
# killed and count as failed.
DEADLINE_S = 170.0
# Set-up-only processes a `queries` run starts besides the measuring one,
# so that setup_s is a median of three.
SETUP_PROBES = 2
# A job's cost in a run is the median of its normalised repeats.  The
# fastest repeat depends on whether a run caught one of the host's short
# fast stretches; the median, normalised by the probes, moved far less
# between runs.  The record file keeps every sample.
STAT = statistics.median


class Proc:
    """One finished child process.  ``wall``, ``cpu`` and ``ready`` are
    normalised (see ``speed.py``): the raw time less the probes' own time,
    scaled by the speed the child's probes measured over the same stretch;
    ``factor`` is that scale over the child's whole life.  ``raw_wall`` and
    ``raw_cpu`` are as the clock read them."""

    def __init__(self, returncode, out, err, spawned, wall, cpu, info):
        self.returncode, self.out, self.err, self.info = returncode, out, err, info
        self.spawned, self.raw_wall, self.raw_cpu = spawned, wall, cpu
        self.wall, self.cpu, self.ready, self.factor = wall, cpu, None, 1.0
        if info is not None:
            s = speed.Speed(info["probes"])
            f = self.factor = s.factor(spawned, time.perf_counter())
            self.wall = (wall - info["probe_s"]) * f
            self.cpu = (cpu - info["probe_cpu_s"]) * f
            self.ready = info["ready"] * s.factor(spawned, info["ready_at"])
            if "setup_at" in info:
                info["raw_setup_s"] = info["setup_s"]
                info["setup_s"] *= s.factor(spawned, info["setup_at"])

    def failure(self):
        if self.returncode == 0 and self.info is not None:
            return None
        lines = self.err.decode(errors="replace").strip().splitlines()
        return f"exit {self.returncode}: {lines[-1] if lines else 'no message'}"


class Runner:
    """Starts one child process at a time and measures it."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")

    def spawn(self, kind, argv, trace=False):
        self.count += 1
        info_path = os.path.join(self.work, f"info-{self.count}.json")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.perf_counter()
        # Output goes to files, not pipes: a write to a full pipe blocks,
        # and the child's probe signal can then cut a report short.
        out_path, err_path = info_path + ".out", info_path + ".err"
        with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
            proc = subprocess.Popen(
                [sys.executable, CHILD, repr(spawned), info_path, "1" if trace else "0", kind, *argv],
                cwd=ROOT, env=self.env, stdout=out_fh, stderr=err_fh,
            )
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
                killed = False
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                killed = True
        wall = time.perf_counter() - spawned
        with open(out_path, "rb") as fh:
            out = fh.read()
        with open(err_path, "rb") as fh:
            err = fh.read() + (b"\nkilled at the run's deadline" if killed else b"")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        info = None
        if proc.returncode == 0 and os.path.exists(info_path):
            with open(info_path, encoding="utf-8") as fh:
                info = json.load(fh)
        return Proc(proc.returncode, out, err, spawned, wall, cpu, info)


class Tally:
    """Operations attempted and failed, with the first few messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, attempted, failed, errors):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[: max(0, 20 - len(self.errors))])


def _expected(size, workload):
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(size, {}).get(workload, {})


def run_jobs(args, runner, tally, jobs, seconds):
    """Round-robin over the jobs in a seeded order for ``seconds``: one whole
    pass first, then each next job that still fits in the window."""
    order = list(range(len(jobs)))
    random.Random(args.seed).shuffle(order)
    walls = {j.name: [] for j in jobs}
    cpus = {j.name: [] for j in jobs}
    raw = {j.name: [] for j in jobs}
    setups = []
    digests = {}

    def one(job, trace=False):
        p = runner.spawn(job.kind, job.argv, trace)
        error = p.failure()
        if error is None:
            error = workloads.check_output(job, p.out.decode())
            digest = hashlib.sha256(p.out).hexdigest()
            if digests.setdefault(job.name, digest) != digest:
                error = "report differs from an earlier run of the same job"
        tally.add(1, error is not None, [f"{job.name}: {error}"] if error else [])
        return p

    def measured(job):
        p = one(job)
        walls[job.name].append(p.wall)
        cpus[job.name].append(p.cpu)
        raw[job.name].append(p.raw_wall)
        if p.ready is not None:
            setups.append(p.ready)

    start = time.perf_counter()
    for i in order:
        measured(jobs[i])
    k = idle = 0
    while idle < len(order):
        job = jobs[order[k % len(order)]]
        k += 1
        if time.perf_counter() - start + statistics.median(raw[job.name]) > seconds:
            idle += 1
            continue
        idle = 0
        measured(job)

    expected = _expected(args.size, args.workload)
    for job in jobs:
        want = expected.get(job.name)
        if want and (not job.seeded or args.seed == DEFAULT_SEED) and digests.get(job.name) != want:
            tally.add(0, 1, [f"{job.name}: report digest {digests.get(job.name)} != recorded {want}"])

    per_job = {name: STAT(v) for name, v in cpus.items()}
    cpu = sum(per_job.values())
    out = {
        "metrics": {
            "cpu_s": (cpu, "s"),
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "query_p50_us": (statistics.median(per_job.values()) * 1e6, "us"),
            "query_p99_us": (max(per_job.values()) * 1e6, "us"),
            "queries_per_s": (len(jobs) / cpu, "1/s"),
        },
        "wall_s": sum(STAT(v) for v in walls.values()),
        "per_job_s": per_job,
        "samples": {"wall": walls, "cpu": cpus, "raw_wall": raw, "setup": setups},
        "digests": digests,
    }
    if args.trace:
        snaps, traced_cpu, report_bytes, import_s = [], 0.0, 0, 0.0
        for i in order:
            p = one(jobs[i], trace=True)
            traced_cpu += p.cpu
            report_bytes += len(p.out) if jobs[i].kind == "cli" else 0
            if p.info is not None:
                snaps.append(tracer.scaled(p.info["trace"], p.factor))
                import_s += p.info["import_s"] * p.factor
        out["trace"] = tracer.merge(snaps)
        out["layer_extra"] = {
            "cli.report_bytes": (report_bytes, "bytes"),
            "cli.import_s": (import_s, "s"),
            "trace.overhead_s": (traced_cpu - cpu, "s"),
        }
        out["cases"] = per_job
    return out


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, -(-len(sorted_values) * p // 100) - 1)]


# Half-width of the stretch of speed probes a query sample is normalised by.
STREAM_WINDOW_S = 0.5


def stream_summary(info):
    """Statistics over the whole passes of the stream, after normalising
    each query sample by the probes within ``STREAM_WINDOW_S`` of it.  A
    query's time is its CPU time; ``cpu_s`` and ``wall_s`` are medians of
    the per-pass sums, percentiles are over every sample of those passes,
    throughput is a pass's queries over ``cpu_s``."""
    s = speed.Speed(info["probes"])
    samples = [[(t * f, c * f) for t, c, at in runs
                for f in (s.factor(at - STREAM_WINDOW_S, at + STREAM_WINDOW_S),)]
               for runs in info["samples"]]
    passes = min(len(runs) for runs in samples)
    walls = [sum(runs[j][0] for runs in samples) for j in range(passes)]
    cpus = [sum(runs[j][1] for runs in samples) for j in range(passes)]
    ordered = sorted(runs[j][1] for runs in samples for j in range(passes))
    by_kind = {}
    for kind, runs in zip(info["kinds"], samples):
        by_kind.setdefault(kind, []).extend(c for _, c in runs[:passes])
    cpu = statistics.median(cpus)
    return {
        "passes": passes,
        "wall_s": statistics.median(walls),
        "cpu_s": cpu,
        "raw_wall_s": statistics.median(
            sum(runs[j][0] for runs in info["samples"]) for j in range(passes)),
        "p50_s": percentile(ordered, 50),
        "p99_s": percentile(ordered, 99),
        "per_s": len(samples) / cpu,
        "kind_p50_s": {k: percentile(sorted(v), 50) for k, v in by_kind.items()},
    }


def run_queries(args, runner, tally, seconds):
    params = {"size": args.size, "seed": args.seed, "seconds": seconds}
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        p = runner.spawn("queries", [json.dumps(dict(params, setup_only=True))])
        error = p.failure()
        tally.add(1, error is not None, [f"setup: {error}"] if error else [])
        if p.info is not None:
            setups.append(p.info["setup_s"])
    p = runner.spawn("queries", [json.dumps(params)])
    error = p.failure()
    if error is not None:
        tally.add(1, 1, [f"queries: {error}"])
        raise SystemExit(f"error: the queries worker failed: {error}")
    info = p.info
    setups.append(info["setup_s"])
    tally.add(info["attempted"], info["failed"], info["errors"])
    want = _expected(args.size, "queries").get("stream")
    if want and args.seed == DEFAULT_SEED and info["digest"] != want:
        tally.add(0, 1, [f"stream digest {info['digest']} != recorded {want}"])
    chosen = stream_summary(info)
    out = {
        "metrics": {
            "cpu_s": (chosen["cpu_s"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "query_p50_us": (chosen["p50_s"] * 1e6, "us"),
            "query_p99_us": (chosen["p99_s"] * 1e6, "us"),
            "queries_per_s": (chosen["per_s"], "1/s"),
        },
        "wall_s": chosen["wall_s"],
        "queries": {"cycles": info["cycles"], "summary": chosen},
        "samples": {"setup": setups, "queries": info["samples"]},
        "digests": {"stream": info["digest"]},
    }
    if args.trace:
        t = runner.spawn("queries", [json.dumps(dict(params, cycles=1))], trace=True)
        error = t.failure()
        if error is not None:
            tally.add(1, 1, [f"traced queries: {error}"])
            raise SystemExit(f"error: the traced queries worker failed: {error}")
        tally.add(t.info["attempted"], t.info["failed"], t.info["errors"])
        if t.info["digest"] != info["digest"]:
            tally.add(0, 1, ["the traced stream gave other results than the untraced one"])
        out["trace"] = tracer.scaled(t.info["trace"], t.factor)
        out["layer_extra"] = {
            "cli.report_bytes": (0, "bytes"),
            "cli.import_s": (0.0, "s"),
            "trace.overhead_s": (stream_summary(t.info)["cpu_s"] - chosen["cpu_s"], "s"),
        }
        out["kinds"] = chosen["kind_p50_s"]
    return out


def layer_metrics(run, workload):
    """Per-layer metrics from a traced run, in BENCHMARK.json order."""
    snap = run["trace"]
    funcs, layers, caches, counters = snap["funcs"], snap["layers"], snap["caches"], snap["counters"]

    def secs(key):
        return funcs.get(key, (0, 0.0))[1]

    def calls(key):
        return funcs.get(key, (0, 0.0))[0]

    def hit_ratio(key):
        info = caches.get(key, {"hits": 0, "misses": 0})
        total = info["hits"] + info["misses"]
        return info["hits"] / total if total else 0.0

    m = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = (layers[layer][1], "s")
        m[f"{layer}.calls"] = (layers[layer][0], "count")
    m["root_data.weyl_elements.s"] = (secs("root_data.weyl_elements"), "s")
    m["root_data.all_parabolics.s"] = (secs("root_data.all_parabolics"), "s")
    for name in ("standard_position", "act", "inverse", "is_osculatory"):
        m[f"root_data.{name}.calls"] = (calls(f"root_data.{name}"), "count")
    m["type_geometry.relevance_report.calls"] = (calls("type_geometry.relevance_report"), "count")
    m["type_geometry.relevance_report.s"] = (secs("type_geometry.relevance_report"), "s")
    m["type_geometry.type_cone.calls"] = (calls("type_geometry.type_cone"), "count")
    m["type_geometry.rt_decomposition.s"] = (secs("type_geometry.rt_decomposition"), "s")
    m["polyfan.generators.calls"] = (calls("polyfan.generators"), "count")
    m["polyfan.generators.s"] = (secs("polyfan.generators"), "s")
    m["polyfan.generators.hit_ratio"] = (hit_ratio("polyfan.generators"), "ratio")
    subsets = counters.get("polyfan.generators.subsets", 0)
    m["polyfan.generators.ray_yield"] = (
        counters.get("polyfan.generators.rays", 0) / subsets if subsets else 0.0, "ratio")
    for name in ("faces", "common_face", "covers"):
        m[f"polyfan.{name}.s"] = (secs(f"polyfan.{name}"), "s")
    m["polyfan.implied_equalities.hit_ratio"] = (hit_ratio("polyfan.implied_equalities"), "ratio")
    m["linalg.rref.calls"] = (calls("linalg.rref"), "count")
    m["linalg.rref.s"] = (secs("linalg.rref"), "s")
    m["linalg.rref.cells"] = (counters.get("linalg.rref.cells", 0), "count")
    m["linalg.nullspace.calls"] = (calls("linalg.nullspace"), "count")
    m["linalg.feasible_point.calls"] = (calls("linalg.feasible_point"), "count")
    m["linalg.feasible_point.s"] = (secs("linalg.feasible_point"), "s")
    for name in ("make_context", "seminorm_eval", "stratum_of", "stabilizer_profile",
                 "limit_point", "project"):
        m[f"apartment.{name}.s"] = (secs(f"apartment.{name}"), "s")
    m["apartment.chart_membership.calls"] = (calls("apartment.chart_membership"), "count")
    for name in ("to_apartment_point", "from_apartment_point", "stabilizer_blocks"):
        m[f"gl_models.{name}.s"] = (secs(f"gl_models.{name}"), "s")
    m["cli.main.s"] = (secs("cli.main"), "s")
    m["cli.emit.s"] = (secs("cli._emit"), "s")
    m.update(run["layer_extra"])
    for wl, names in workloads.JOB_NAMES.items():
        for name in names:
            m[f"case.{name}.s"] = (run["cases"][name] if wl == workload else 0.0, "s")
    for kind in workloads.QUERY_KINDS:
        value = run["kinds"][kind] * 1e6 if workload == "queries" else 0.0
        m[f"queries.{kind}.p50_us"] = (value, "us")
    return m


def _peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest():
    """sha256 over the library's source files, names included: identifies
    the program measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "weylscope")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args, jobs):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "jobs": jobs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny A2/G2 inputs")
    args = parser.parse_args(argv)
    args.size = "smoke" if args.smoke else "full"
    if not os.path.isfile(os.path.join(SRC, "weylscope", "cli.py")):
        print(f"error: no weylscope sources under {SRC}; run from a weylscope checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(work, started + DEADLINE_S)
    tally = Tally()
    seconds = args.seconds / 2 if args.trace else args.seconds
    smoke = args.size == "smoke"
    try:
        if args.workload == "queries":
            specs, gl_ranks, cycle = workloads.QUERY_SIZES[args.size]
            jobs = [{"contexts": [[n, list(t)] for n, t in specs], "gl_ranks": list(gl_ranks),
                     "cycle": cycle, "kinds": list(workloads.QUERY_KINDS)}]
            run = run_queries(args, runner, tally, seconds)
        else:
            if args.workload == "skeleton":
                job_list = workloads.skeleton_jobs(smoke)
            else:
                job_list = workloads.contexts_jobs(smoke, random.Random(args.seed),
                                                   os.path.relpath(work, ROOT))
            jobs = [{"name": j.name, "kind": j.kind, "argv": list(j.argv)} for j in job_list]
            run = run_jobs(args, runner, tally, job_list, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(run, args.workload)
    else:
        metrics = dict(run["metrics"])
        metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, environment=environment(args, jobs), errors=tally.errors,
                  fail_frac=tally.failed / max(1, tally.attempted), elapsed_s=time.perf_counter() - started,
                  untraced_metrics=run["metrics"] if args.trace else None,
                  **{k: v for k, v in run.items() if k not in ("metrics", "layer_extra")})
    name = f"{args.workload}{'-smoke' if smoke else ''}-seed{args.seed}-trace{args.trace}.json"
    path = os.path.join(OUT, "results", name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    env = record["environment"]
    print(f"weylscope benchmark: workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; python {env['python']}, nproc {env['nproc']}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        # Normalised wall time: printed and recorded, but not a BENCHMARK.json
        # metric, since it also counts time the VM was held off the CPU.
        print(f"  {'wall_s':40s} {run['wall_s']:>16.6g} s (wall clock)")
    print(f"  {'fail_frac':40s} {record['fail_frac']:>16.6g} ({tally.failed}/{tally.attempted})")
    for error in tally.errors:
        print(f"  failure: {error}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
