#!/usr/bin/env python3
"""Per-thread CPU and scheduling cost of one benchmark set-up.

    python3 tools/thread_breakdown.py --root . --workload remote_read --setups 10

Runs `--setups` set-ups of a perfbench workload (three ccpr_server
processes started and preloaded on one processor, exactly as
perfbench/run.py times `setup_s`) from the checkout at --root, built with
that checkout's perfbench build. After each set-up, before the servers
stop, it reads every server thread's /proc/<pid>/task/<tid>/schedstat
(CPU time, time slices) and status (voluntary and involuntary context
switches), and groups the threads by name (the server names each one; see
docs/RUNTIMES.md, "Threading model"). Prints one JSON object: per thread
name, the median per set-up summed over the three servers; plus the median
set-up wall time. Read-only with respect to the host: it only reads /proc
entries of the processes it started.
"""

import argparse
import importlib.util
import json
import os
import re
import statistics
import sys
import tempfile


def load_bench(root):
    path = os.path.join(root, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def thread_group(name):
    """Fold per-instance names (io-1, peer-tx-2, apply-0) into one row each."""
    return re.sub(r"-\d+$", "-N", name)


def read_threads(pid):
    rows = {}
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        base = os.path.join(task_dir, tid)
        try:
            with open(os.path.join(base, "comm")) as f:
                name = f.read().strip()
            with open(os.path.join(base, "schedstat")) as f:
                cpu_ns, _wait_ns, slices = (int(x) for x in f.read().split())
            vol = invol = 0
            with open(os.path.join(base, "status")) as f:
                for line in f:
                    if line.startswith("voluntary_ctxt_switches:"):
                        vol = int(line.split()[1])
                    elif line.startswith("nonvoluntary_ctxt_switches:"):
                        invol = int(line.split()[1])
        except OSError:
            continue  # thread exited while we looked
        row = rows.setdefault(thread_group(name),
                              {"threads": 0, "cpu_ms": 0.0, "slices": 0,
                               "vol_cs": 0, "invol_cs": 0})
        row["threads"] += 1
        row["cpu_ms"] += cpu_ns / 1e6
        row["slices"] += slices
        row["vol_cs"] += vol
        row["invol_cs"] += invol
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="checkout to build and run")
    ap.add_argument("--workload", default="remote_read")
    ap.add_argument("--setups", type=int, default=10)
    a = ap.parse_args()
    root = os.path.abspath(a.root)
    bench = load_bench(root)
    bench.build()
    one_cpu = {max(os.sched_getaffinity(0))}
    samples = []  # per set-up: {group: row}
    walls = []
    with tempfile.TemporaryDirectory(prefix="thread_breakdown-") as run_dir:
        cluster = bench.Cluster(a.workload, run_dir)
        try:
            for _ in range(a.setups):
                walls.append(bench.setup(cluster, one_cpu))
                merged = {}
                for p in cluster.procs:
                    for group, row in read_threads(p.pid).items():
                        m = merged.setdefault(group, dict.fromkeys(row, 0))
                        for k, v in row.items():
                            m[k] += v
                samples.append(merged)
                cluster.stop()
        finally:
            cluster.stop()
    groups = sorted({g for s in samples for g in s})
    out = {"workload": a.workload, "setups": a.setups,
           "setup_wall_s": statistics.median(walls), "threads": {}}
    for g in groups:
        rows = [s.get(g) for s in samples if g in s]
        out["threads"][g] = {k: statistics.median(r[k] for r in rows)
                             for k in rows[0]}
    total = {k: statistics.median(sum(r[k] for r in s.values()) for s in samples)
             for k in ("cpu_ms", "slices", "vol_cs", "invol_cs")}
    out["total"] = total
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
