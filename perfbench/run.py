#!/usr/bin/env python3
"""The repo benchmark: one workload on a live 3-site ccpr cluster.

    python3 perfbench/run.py --workload geo_write --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds ccpr_server and the
load generator from the checkout's sources into .bench_build/. Each run
starts three ccpr_server processes on loopback (opt-track, ring placement,
2 replicas per key, no injected link delay), sets them up and preloads every
key twelve times on one processor (setup_s is the median of the last nine),
sets up the measured cluster free of that limit, drives the workload
open-loop from one generator process, checks every reply, and prints one
JSON object as the last line of standard output. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones (and writes spans under .bench_out/). The exit
code is 0 only if every output check passed. perfbench/README.md has the
details.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")

SETUPS = 9
# Set-ups run first and not counted.
WARM_SETUPS = 3
# The timed set-ups confine the servers and the generator to one processor.
# Left free, the kernel ran a set-up on one processor or spread it over
# three depending on how busy the host had been (2-2.7x apart in wall time,
# same CPU time), and set-ups spread over processors met 0-30% steal; the
# driver saw setup_s medians 35% apart between two sets of runs.

# Server side of each workload; the traffic is in src/workload.cpp.
WORKLOADS = {
    "geo_write": {"vars": 3000, "shards": 4, "engine": "map", "wal": "batch"},
    "local_read": {"vars": 6000, "shards": 1, "engine": "compact", "wal": None},
    "remote_read": {"vars": 6000, "shards": 1, "engine": "map", "wal": None},
}

END_TO_END = [
    ("setup_s", "s"), ("achieved_ops_s", "1/s"), ("peer_msgs_per_put", "msgs"),
    ("peer_bytes_per_put", "bytes"), ("server_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "server", "site_server.hpp")):
        raise BenchError("no ccpr sources next to perfbench/ (run from a checkout)")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "ccpr_server", "perfbench_loadgen"],
                   check=True, stdout=sys.stderr)


def free_ports(n):
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Cluster:
    """Three ccpr_server processes; always stop() them."""

    def __init__(self, workload, run_dir):
        self.w = WORKLOADS[workload]
        self.run_dir = run_dir
        self.procs = []
        self.conf = os.path.join(run_dir, "cluster.conf")

    def write_config(self):
        ports = free_ports(6)
        lines = ["algorithm opt-track", "vars %d" % self.w["vars"], "replicas 2",
                 "placement ring", "engine-shards %d" % self.w["shards"],
                 "store-engine %s" % self.w["engine"]]
        for s in range(3):
            lines.append("site %d 127.0.0.1 %d %d" % (s, ports[s], ports[3 + s]))
        with open(self.conf, "w") as f:
            f.write("\n".join(lines) + "\n")

    def data_dir(self, site=None):
        d = os.path.join(self.run_dir, "data")
        return d if site is None else os.path.join(d, "site%d" % site)

    def start(self, cpus=None):
        """cpus: the processors the servers may run on (None: any)."""
        self.write_config()
        shutil.rmtree(self.data_dir(), ignore_errors=True)
        for s in range(3):
            cmd = [os.path.join(BUILD, "ccpr_server"), "--config=" + self.conf,
                   "--site=%d" % s]
            if self.w["wal"]:
                os.makedirs(self.data_dir(s), exist_ok=True)
                cmd += ["--data-dir=" + self.data_dir(s),
                        "--wal-sync=" + self.w["wal"]]
            logf = open(os.path.join(self.run_dir, "server%d.log" % s), "w")
            self.procs.append(subprocess.Popen(
                cmd, stdout=logf, stderr=logf, stdin=subprocess.DEVNULL,
                preexec_fn=pin_to(cpus)))
            logf.close()

    def rss_mb(self):
        total = 0.0
        for p in self.procs:
            with open("/proc/%d/status" % p.pid) as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def alive(self):
        return all(p.poll() is None for p in self.procs)

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        deadline = time.time() + 10
        for p in self.procs:
            try:
                p.wait(timeout=max(0.1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


def pin_to(cpus):
    """A preexec_fn that restricts the child (and its threads) to cpus."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def loadgen(args, timeout, cpus=None):
    """Run the load generator; its exit code (negative if killed)."""
    p = subprocess.Popen([os.path.join(BUILD, "perfbench_loadgen")] + args,
                         stdout=sys.stderr, stderr=sys.stderr,
                         preexec_fn=pin_to(cpus))
    # A blocking wait returns the moment the child exits, where a wait with
    # a timeout polls in steps of up to 50 ms (which showed as 50 ms steps
    # in setup_s); the timer is the time limit.
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    try:
        return p.wait()
    finally:
        killer.cancel()
        if p.poll() is None:
            p.kill()
            p.wait()


def setup(cluster, cpus=None):
    """Start the servers, wait until each answers, preload; seconds taken.

    cpus: the processors servers and generator may run on (None: any)."""
    for attempt in range(2):
        t0 = time.monotonic()
        cluster.start(cpus)
        if loadgen(["setup", "--config=" + cluster.conf], 60, cpus) == 0:
            return time.monotonic() - t0
        # A server that could not bind its port (another process took it
        # after free_ports chose it) gets one more try on fresh ports.
        lost_port = not cluster.alive()
        cluster.stop()
        if not lost_port:
            break
    raise BenchError("cluster setup failed (see %s)" % cluster.run_dir)


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def steal_pct(before, after):
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8])  # user..steal; guest time is already in user
    return 100.0 * d[7] / total if total > 0 and len(d) > 7 else 0.0


def parse_prometheus(text):
    """{name: {labels: value}} from exposition text."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        out.setdefault(name, {})[labels.rstrip("}")] = float(value)
    return out


class Counters:
    """Server counters of one scrape, summed over the sites."""

    def __init__(self, scrape):
        self.sites = [parse_prometheus(s["metrics"]) for s in scrape]
        self.raw = scrape

    def total(self, name):
        missing = [i for i, m in enumerate(self.sites) if name not in m]
        if missing:
            raise BenchError("server metric %s missing at sites %s" % (name, missing))
        return sum(sum(m[name].values()) for m in self.sites)

    def quantile(self, name, q):
        vals = []
        for m in self.sites:
            if name not in m:
                raise BenchError("server metric %s missing" % name)
            vals += [v for l, v in m[name].items() if 'quantile="%s"' % q in l]
        return vals


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(res, start, end, setup_s, rss):
    writes = end.total("ccpr_writes_total") - start.total("ccpr_writes_total")
    msgs = sum(end.total(n) - start.total(n) for n in (
        "ccpr_update_msgs_total", "ccpr_fetch_req_msgs_total",
        "ccpr_fetch_resp_msgs_total"))
    nbytes = sum(end.total(n) - start.total(n) for n in (
        "ccpr_control_bytes_total", "ccpr_payload_bytes_total"))
    return {
        "setup_s": setup_s,
        "achieved_ops_s": ratio(res["completed"], res["scrape_interval_s"]),
        "peer_msgs_per_put": ratio(msgs, writes),
        "peer_bytes_per_put": ratio(nbytes, writes),
        "server_rss_mb": rss,
    }


def per_layer(res, start, end, steal):
    """Every per-layer metric: name -> (value, unit)."""
    lat = res["latency_us"]
    lay = res["layers"]
    interval = res["scrape_interval_s"]

    def delta(name):
        return end.total(name) - start.total(name)

    writes = delta("ccpr_writes_total")
    eng_rows = [(s0, s1) for a, b in zip(start.raw, end.raw)
                for s0, s1 in zip(a["engine"]["rows"], b["engine"]["rows"])]
    commands = sum(b["enqueued_total"] - a["enqueued_total"] for a, b in eng_rows)
    skew = 1.0
    for a, b in zip(start.raw, end.raw):
        w = [r1["writes"] - r0["writes"] for r0, r1 in
             zip(a["engine"]["rows"], b["engine"]["rows"])]
        if w and sum(w) > 0:
            skew = max(skew, max(w) / (sum(w) / len(w)))
    lookups = sum(b["store"]["lookups"] - a["store"]["lookups"]
                  for a, b in zip(start.raw, end.raw))
    probes = sum(b["store"]["probes"] - a["store"]["probes"]
                 for a, b in zip(start.raw, end.raw))
    keys = sum(s["store"]["keys"] for s in end.raw)
    resident = sum(s["store"]["resident_bytes"] for s in end.raw)
    apply_delay = end.quantile("ccpr_apply_delay_us", "0.5")
    traced = res["trace"]
    m = {
        "host.nproc": (res["nproc"], "count"),
        "host.steal_pct": (steal, "%"),
        "loadgen.put_p50_us": (lat["put"]["p50_sliced"], "us"),
        "loadgen.get_p50_us": (lat["get"]["p50_sliced"], "us"),
        "loadgen.snapshot_p50_us": (lat["snapshot"]["p50_sliced"], "us"),
        "loadgen.visibility_p50_us": (lat["visibility"]["p50_sliced"], "us"),
        "loadgen.late_p99_us": (res["late_us"]["p99"], "us"),
        "loadgen.put_p99_us": (lat["put"]["p99"], "us"),
        "loadgen.get_p99_us": (lat["get"]["p99"], "us"),
        "loadgen.snapshot_p99_us": (lat["snapshot"]["p99"], "us"),
        "loadgen.visibility_p99_us": (lat["visibility"]["p99"], "us"),
        "trace.overhead_pct": (100.0 * (ratio(traced["traced_p50_us"],
                                              traced["untraced_p50_us"]) - 1), "%"),
        "client.put_call_p50_us": (res["client"]["put_call"]["p50"], "us"),
        "client.get_call_p50_us": (res["client"]["get_call"]["p50"], "us"),
        "net.frame.encode_ns": (lay["frame"]["encode_ns"], "ns"),
        "net.frame.decode_ns": (lay["frame"]["decode_ns"], "ns"),
        "net.frame.update_bytes": (lay["frame"]["update_bytes"], "bytes"),
        "net.transport.msgs_per_batch": (ratio(delta("ccpr_peer_msgs_sent_total"),
                                               delta("ccpr_peer_batches_sent_total")),
                                         "msgs"),
        "net.transport.overflow_drops": (delta("ccpr_peer_overflow_drops_total"), "count"),
        "server.cpu_us_per_op": (1e6 * ratio(res["server_cpu_s"], res["completed"]),
                                 "us"),
        "server.engine.handoff_p50_us": (lay["engine"]["handoff_p50_us"], "us"),
        "server.engine.commands_per_op": (ratio(commands, res["completed"]), "count"),
        "server.engine.queue_peak": (max(r["peak"] for _, r in eng_rows), "count"),
        "server.engine.producer_waits": (delta("ccpr_engine_producer_waits_total"),
                                         "count"),
        "server.shard.parked_envelopes_peak": (
            max(s["engine"]["parked_envelopes"] for s in start.raw + end.raw), "count"),
        "server.shard.write_skew": (skew, "ratio"),
        "server.wal.append_p50_us": (lay["wal"]["append_p50_us"], "us"),
        "server.wal.sync_p50_us": (lay["wal"]["sync_p50_us"], "us"),
        "server.wal.bytes_per_put": (ratio(delta("ccpr_wal_bytes_total"), writes), "bytes"),
        "server.wal.fsyncs_per_s": (ratio(delta("ccpr_wal_fsyncs_total"), interval), "1/s"),
        "causal.write_ns": (lay["causal"]["write_ns"], "ns"),
        "causal.apply_ns": (lay["causal"]["apply_ns"], "ns"),
        "causal.read_ns": (lay["causal"]["read_ns"], "ns"),
        "causal.control_bytes_per_update": (lay["causal"]["control_bytes_per_update"],
                                            "bytes"),
        "causal.apply_delay_p50_us": (statistics.median(apply_delay), "us"),
        "causal.meta_bytes_per_key": (ratio(end.total("ccpr_meta_state_bytes"), keys),
                                      "bytes"),
        "causal.log_entries_peak": (lay["causal"]["log_entries_peak"], "count"),
        "causal.pending_peak": (lay["causal"]["pending_peak"], "count"),
        "causal.remote_read_share": (ratio(delta("ccpr_remote_reads_total"),
                                           delta("ccpr_reads_total")), "ratio"),
        "store.put_ns": (lay["store"]["put_ns"], "ns"),
        "store.get_ns": (lay["store"]["get_ns"], "ns"),
        "store.mean_probe": (ratio(probes, lookups), "probes"),
        "store.resident_bytes_per_key": (ratio(resident, keys), "bytes"),
    }
    return m


def server_checks(start, end):
    """Failures the servers report: peer-queue overflow, bad envelopes."""
    fails = {}
    drops = end.total("ccpr_peer_overflow_drops_total") - \
        start.total("ccpr_peer_overflow_drops_total")
    if drops:
        fails["overflow_drops"] = int(drops)
    malformed = sum(s["engine"]["malformed_envelopes"] for s in end.raw)
    if malformed:
        fails["malformed_envelopes"] = int(malformed)
    return fails


def check_names(metrics, section):
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    printed = {k: v["unit"] for k, v in metrics.items()}
    if printed != declared:
        raise BenchError("metrics differ from BENCHMARK.json %s: %s" % (
            section, sorted(set(printed.items()) ^ set(declared.items()))))


def run(a):
    run_dir = os.path.join(OUT, "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cluster = Cluster(a.workload, run_dir)
    try:
        one_cpu = {max(os.sched_getaffinity(0))}
        setups = []
        for i in range(WARM_SETUPS + SETUPS):
            t = setup(cluster, one_cpu)
            cluster.stop()
            if i >= WARM_SETUPS:
                setups.append(t)
        # The measured cluster, free to use every processor; not timed.
        setup(cluster)
        result = os.path.join(run_dir, "result.json")
        args = ["run", "--config=" + cluster.conf, "--workload=" + a.workload,
                "--seed=%d" % a.seed, "--seconds=%g" % a.seconds,
                "--trace=%d" % a.trace,
                "--out=" + result,
                "--server-pids=" + ",".join(str(p.pid) for p in cluster.procs)]
        if a.trace:
            os.makedirs(os.path.join(run_dir, "layers"))
            args += ["--spans=" + os.path.join(run_dir, "spans.json"),
                     "--data-dir=" + os.path.join(run_dir, "layers")]
        cpu0 = cpu_times()
        rc = loadgen(args, a.seconds + 120)
        cpu1 = cpu_times()
        if rc != 0 or not os.path.exists(result):
            raise BenchError("load generator failed (exit %d)" % rc)
        if not cluster.alive():
            raise BenchError("a server exited during the run")
        rss = cluster.rss_mb()
    finally:
        cluster.stop()
        shutil.rmtree(cluster.data_dir(), ignore_errors=True)
    with open(result) as f:
        res = json.load(f)
    start = Counters(res["scrape_start"])
    end = Counters(res["scrape_end"])
    failures = dict(res["failures"])
    for k, v in server_checks(start, end).items():
        failures[k] = failures.get(k, 0) + v
    failed = sum(failures.values())
    if a.trace:
        metrics = per_layer(res, start, end, steal_pct(cpu0, cpu1))
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        e2e = end_to_end(res, start, end, statistics.median(setups), rss)
        out = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    check_names(out, "per_layer" if a.trace else "end_to_end")
    if failures:
        log("failed checks: %s" % json.dumps(failures, sort_keys=True))
    summary = {"correct": failed == 0, "attempted": int(res["attempted"]),
               "failed": int(failed), "metrics": out}
    with open(os.path.join(run_dir, "summary.json"), "w") as f:
        host = {"nproc": res["nproc"], "steal_pct": steal_pct(cpu0, cpu1),
                "late_p99_us": res["late_us"]["p99"]}
        json.dump(dict(summary, setups_s=setups, failures=failures, host=host),
                  f, indent=1)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the servers are always stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        return run(a)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
