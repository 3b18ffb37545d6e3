"""One benchmark process: a CLI command, the certification job, or a
``queries`` worker.

    python3 bench/child.py SPAWNED INFO TRACE cli ARG...
    python3 bench/child.py SPAWNED INFO TRACE certify SPEC...
    python3 bench/child.py SPAWNED INFO TRACE queries PARAMS_JSON

SPAWNED is the parent's ``time.perf_counter()`` just before it started
this process (a system-wide monotonic clock on Linux).  ``ready`` is the
process's CPU time up to the end of its imports, interpreter start
included; ``ready_wall`` the wall time from SPAWNED.  INFO is the file the timings, the speed probes
(see ``speed.py``) and, with TRACE = 1, the trace are written to, once, at
the end.  Every time recorded here excludes the probes' own time.  A CLI
command runs through ``weylscope.cli.main``, the entry point of the
``weylscope`` script, and prints its report to stdout as usual.
"""

from __future__ import annotations

import json
import sys
import time

import speed


def main(argv):
    speed.start()
    spawned, info_path, trace, kind, rest = float(argv[0]), argv[1], argv[2] == "1", argv[3], argv[4:]
    t0 = speed.cpu_clock()
    if kind == "cli":
        from weylscope import cli
    elif kind == "certify":
        import workloads
        from weylscope import polyfan, type_geometry  # noqa: F401  (timed as import)
    else:
        import queries
    info = {"import_s": speed.cpu_clock() - t0, "ready": speed.cpu_clock(),
            "ready_wall": speed.clock() - spawned, "ready_at": time.perf_counter()}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if kind == "cli":
        info["exit"] = cli.main(rest)
    elif kind == "certify":
        sys.stdout.write(workloads.certify(rest))
        info["exit"] = 0
    else:
        info.update(queries.run(json.loads(rest[0]), spawned))
    sys.stdout.flush()
    speed.stop()
    info.update(probes=speed.samples, probe_s=speed.spent, probe_cpu_s=speed.spent_cpu)
    if tracer is not None:
        info["trace"] = tracer.snapshot()
    with open(info_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    return info["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
