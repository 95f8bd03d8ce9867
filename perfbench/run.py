"""Benchmark of the strandgroups verdicts: ``eq``, ``conj -g F|T|V`` and ``rotnum``.

Run from the repository root:

    python3 perfbench/run.py --workload conj-short --seed 1 --seconds 20 --trace 0

Workloads: eq-long, conj-long, conj-short, conj-adversarial; README.md
says why each was chosen and which metrics each layer should move.

The load is a closed loop: one client in one thread sends the next
decision when the previous one has returned.  This process makes the
inputs from the seed and keeps their known answers; a fresh worker
process (worker.py) receives only the CLI arguments, makes its warm-up
decisions and then runs whole passes of decisions until they have taken
``--seconds``.
``setup_s`` is the median over that worker and six more fresh
processes that only set up.  Every verdict is checked against its known
answer after the worker has ended.

With ``--trace 1`` the worker spends half the time untraced, then runs
the same passes again traced (tracing.py); the verdicts of both halves
must agree, and the per-layer metrics come from the traced half.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it repeat
the metrics for people, with their sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 6           # fresh set-up-only processes besides the worker
DEADLINE_S = 170.0         # the whole run, generation and checks included
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
# Seconds one pass takes today on a 2-CPU machine; sizes how many passes
# are made up front.  A faster engine cycles through them again.
PASS_ESTIMATE_S = {"eq-long": 8.0, "conj-long": 10.0, "conj-short": 0.06, "conj-adversarial": 3.5}


def _worker(job: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _judge(items, records):
    """Outcome per record: 'right', 'wrong', 'timeout' or the error status."""
    out = []
    for p, j, status, printed, _dt in records:
        if status != "ok":
            out.append(status)
        else:
            out.append("right" if printed == items[p][j].expect else "wrong")
    return out


def _tail(times):
    """(percentile, seconds) for the highest of TAIL_PERCENTILES with at
    least ten samples beyond it, or None."""
    s = sorted(times)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, s[rank - 1]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "strandgroups" / "__init__.py").is_file():
        print(f"perfbench: no strandgroups sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import strandgroups

    if Path(strandgroups.__file__).resolve().parent != SRC / "strandgroups":
        print(f"perfbench: imported strandgroups from {strandgroups.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    problems = [f"self-test: {msg}" for msg in workloads.self_test(args.seed)]
    count = math.ceil(args.seconds / PASS_ESTIMATE_S[args.workload]) + 1
    items = workloads.passes(args.workload, args.seed, count)
    limit_s = workloads.limit_s(args.workload)
    warmup = workloads.warmup(items[0])
    job = {"warmup": warmup, "limit_s": limit_s, "trace": bool(args.trace),
           "seconds": args.seconds, "passes": [[list(it.argv) for it in p] for p in items]}

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    setup = [
        _worker({"warmup": warmup, "limit_s": limit_s, "setup_only": True}, remaining())["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    res = _worker(job, remaining())
    setup.append(res["setup_s"])

    records = res["records"]
    outcomes = _judge(items, records)
    if args.trace:
        traced = res["traced_records"]
        for a, b in zip(records, traced):
            if a[2:4] != b[2:4]:
                problems.append(f"traced verdict differs: {items[a[0]][a[1]].tag} "
                                f"{a[2]} {a[3]!r} vs {b[2]} {b[3]!r}")
        outcomes += _judge(items, traced)
        records = records + traced
    for p, j in sorted({(p, j) for p, j, *_ in records}):
        it = items[p][j]
        if it.oracle_eq is not None and not workloads.oracle_check(it):
            problems.append(f"oracle disagrees with the known answer of {it.tag}")
    wrong = [o for o in outcomes if o not in ("right", "timeout")]
    failed = sum(o != "right" for o in outcomes)
    attempted = len(outcomes)

    # -- report -------------------------------------------------------------------
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: nproc={len(os.sched_getaffinity(0))} cpu={_cpu_model()!r} "
          f"python={platform.python_version()} ({platform.python_implementation()})")
    print(f"sizes: {json.dumps(workloads.SIZES[args.workload])}")
    print(f"load: closed loop, 1 client, 1 thread; per-decision limit {limit_s:g} s")

    by_tag: dict[str, dict[str, int]] = {}
    for (p, j, *_), o in zip(records, outcomes):
        if o != "right":
            tally = by_tag.setdefault(items[p][j].tag, {})
            tally[o] = tally.get(o, 0) + 1
    for tag, tally in sorted(by_tag.items()):
        print(f"failed: {tag} " + ", ".join(f"{o} x{n}" for o, n in sorted(tally.items())))
    for msg in problems:
        print(f"PROBLEM: {msg}")

    if args.trace:
        metrics = tracing.layer_metrics(
            res["spans"], res["probes"], len(res["traced_records"]),
            res["traced_wall_s"], res["wall_s"],
        )
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:.6g} {m['unit']}")
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "decision"],
                                   "spans": res["spans"]}))
        print(f"spans: {len(res['spans'])} over {len(res['traced_records'])} traced decisions, "
              f"written to {out.relative_to(ROOT)}")
    else:
        # a decision that failed missed its time limit, however fast it ended
        times = [dt if o == "right" else max(dt, limit_s) for (*_, dt), o in zip(records, outcomes)]
        verdicts = sum(r[2] == "ok" for r in records)
        wall = res["wall_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "decisions_per_s": {"value": verdicts / wall, "unit": "1/s"},
            "decision_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": res["rss_kb"] / 1024, "unit": "MB"},
        }
        tail = _tail(times)
        print(f"{'setup_s':22s} {metrics['setup_s']['value']:.4f} s  "
              f"(median of {len(setup)} fresh processes: import and {len(warmup)} warm-up decisions)")
        print(f"{'decisions_per_s':22s} {metrics['decisions_per_s']['value']:.4f} 1/s  "
              f"({verdicts} verdicts in {wall:.2f} s)")
        print(f"{'decision_p50_s':22s} {metrics['decision_p50_s']['value']:.6f} s  (n={len(times)})")
        if tail:
            print(f"{'decision_tail_s':22s} {tail[1]:.6f} s  (p{tail[0]:g}, n={len(times)})")
        else:
            print(f"{'decision_tail_s':22s} not supported: fewer than ten samples beyond p90 "
                  f"(n={len(times)})")
        print(f"{'peak_rss_mb':22s} {metrics['peak_rss_mb']['value']:.2f} MB")
        print(f"{'failed_share':22s} {failed / attempted:.6f} of decisions attempted "
              f"({failed}/{attempted})")

    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
