"""Runs one workload's decisions in a fresh process.

``run.py`` starts this script, writes a job as JSON on its stdin and
reads one JSON line from its stdout.  The job holds only CLI argument
lists; known answers stay in the parent.  Each decision calls
``strandgroups.cli.main`` in-process with stdout captured, one at a
time, and is stopped by SIGALRM at the job's per-decision limit.

Job keys: ``warmup`` (argument lists), ``setup_only``, ``passes`` (lists
of argument lists), ``seconds``, ``limit_s`` and ``trace``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class DecisionTimeout(BaseException):
    """Raised in the decision when it reaches its time limit.

    Derives from BaseException so that no handler in the engine can
    swallow it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise DecisionTimeout()


def decide(fn, limit_s: float):
    """Run ``fn()`` with stdout captured: (status, printed output, seconds)."""
    global _armed
    out = io.StringIO()
    status = "ok"
    t0 = time.perf_counter()
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = fn()
        if rc != 0:
            status = f"exit {rc}"
    except DecisionTimeout:
        status = "timeout"
    except Exception as exc:  # RecursionError and whatever else cli.main lets through
        status = type(exc).__name__
    finally:
        seconds = time.perf_counter() - t0
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, out.getvalue().strip(), seconds


def run_passes(passes, run_one, limit_s: float, seconds=0.0, count=None, after=None):
    """Whole passes, cycling through ``passes``: exactly ``count`` of them,
    or else until they have taken ``seconds``.  ``after()`` runs after each
    decision, outside its time.
    Returns (records, wall seconds of the passes, passes run)."""
    records = []
    wall = 0.0
    i = 0
    while i < count if count is not None else wall < seconds:
        p = i % len(passes)
        t0 = time.perf_counter()
        for j, argv in enumerate(passes[p]):
            records.append([p, j, *decide(lambda: run_one(argv), limit_s)])
            if after is not None:
                t1 = time.perf_counter()
                after()
                t0 += time.perf_counter() - t1
        wall += time.perf_counter() - t0
        i += 1
    return records, wall, i


def main() -> int:
    job = json.loads(sys.stdin.read())
    signal.signal(signal.SIGALRM, _on_alarm)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from strandgroups import cli

    for argv in job["warmup"]:
        status, _, _ = decide(lambda: cli.main(argv), job["limit_s"])
        if status != "ok":
            print(f"warm-up decision {argv} failed: {status}", file=sys.stderr)
            return 1
    result = {"setup_s": time.perf_counter() - t0}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0

    passes = job["passes"]
    limit_s = job["limit_s"]
    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    records, wall, count = run_passes(passes, cli.main, limit_s, seconds=seconds)
    result.update(records=records, wall_s=wall)

    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        probes = []
        pending = []

        def traced(argv):
            tracer.begin()
            pending.append(tracing.Decision(tracer, argv))
            return tracer.call("decision", pending[-1].run)

        # the same passes again, traced; the probes run between decisions
        traced_records, traced_wall, _ = run_passes(
            passes, traced, limit_s, count=count, after=lambda: probes.append(pending.pop().probe())
        )
        result.update(traced_records=traced_records, traced_wall_s=traced_wall,
                      spans=tracer.spans, probes=probes)

    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
