#!/usr/bin/env python3
"""Validate and compare BENCH_*.json snapshots.

Two modes:

  validate <snapshot.json>...
      Structural checks: every snapshot must carry a non-empty results
      list, and per-bench rules (store_engine, shard_scale, ...) assert the
      invariants CI used to check with inline python. Accepts both shapes:
      a single bench run ({"bench", "results": [...]}) and a sweep
      aggregate ({"bench", "groups": [{"results": [...]}]}).

  compare --baseline=<dir> --current=<dir> [--rules=tools/perf_gate.json]
          [--skip-timing]
      Regression gate: for every bench named in the rules file, match rows
      between the baseline and current BENCH_<name>.json by the rule's key
      fields and fail (exit 1) when a gated metric regressed by more than
      its threshold. A rule's optional "where" ({field: value}) limits it
      to the baseline rows whose fields equal those values. Metrics marked
      "timing" measure wall-clock on the host that ran the bench;
      --skip-timing downgrades their failures to warnings for
      comparisons across unlike machines (deterministic
      metrics — message counts, bytes, space — are always enforced).

Exit codes: 0 ok, 1 check failed, 2 usage/malformed input.
"""

import argparse
import json
import os
import sys


def fail(msg):
    print(f"validate_bench: {msg}", file=sys.stderr)
    sys.exit(2)


def scalar(value):
    """Resolve a sweep-aggregated field ({"mean", "std"}) to its mean."""
    if isinstance(value, dict) and "mean" in value:
        return value["mean"]
    return value


def iter_rows(doc):
    """Yield every result row of a snapshot, aggregate or single-run."""
    if "groups" in doc:
        for group in doc["groups"]:
            for row in group.get("results", []):
                yield {k: scalar(v) for k, v in row.items()}
    else:
        for row in doc.get("results", []):
            yield {k: scalar(v) for k, v in row.items()}


# ---------------------------------------------------------------- validate


def check_store_engine(rows):
    for c in rows:
        assert c["engine"] in ("map", "compact"), c
        assert c["resident_bytes_per_key"] > 0, c
        # Honest sub-microsecond latency: the old microsecond-quantized
        # histogram pinned every percentile at exactly 1.0; require real
        # sub-us resolution and p50 <= p99.
        assert 0 < c["get_p50_us"] <= c["get_p99_us"], c
    p50s = {c["get_p50_us"] for c in rows}
    assert len(p50s) > 1, f"degenerate get_p50_us across all cells: {p50s}"


def check_shard_scale(rows):
    by_shards = {}
    for c in rows:
        assert c["put_ops_per_s"] > 0, c
        assert len(c["shard_writes"]) == c["shards"], c
        assert sum(scalar(w) for w in c["shard_writes"]) == c["puts"], c
        assert c["malformed_envelopes"] == 0, c
        by_shards[c["shards"]] = c
    sharded = by_shards[max(by_shards)]
    assert min(scalar(w) for w in sharded["shard_writes"]) > 0, (
        "collapsed ShardMap: a shard saw zero writes: %r" % (sharded,))


def check_fig4(rows):
    for c in rows:
        assert c["messages"] > 0 and c["predicted"] > 0, c


BENCH_CHECKS = {
    "store_engine": check_store_engine,
    "shard_scale": check_shard_scale,
    "fig4_message_count": check_fig4,
}


def cmd_validate(paths):
    ok = True
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{path}: {e}")
        bench = doc.get("bench")
        if not isinstance(bench, str) or not bench:
            fail(f"{path}: missing \"bench\" name")
        rows = list(iter_rows(doc))
        if not rows:
            fail(f"{path}: no bench cells recorded")
        check = BENCH_CHECKS.get(bench)
        try:
            if check:
                check(rows)
        except AssertionError as e:
            print(f"validate_bench: {path}: FAILED: {e}", file=sys.stderr)
            ok = False
            continue
        suffix = "" if check else " (generic checks only)"
        print(f"{path} ok: {len(rows)} cells{suffix}")
    return 0 if ok else 1


# ----------------------------------------------------------------- compare


def row_key(row, key_fields):
    return tuple(json.dumps(row.get(k), sort_keys=True) for k in key_fields)


def index_rows(doc, key_fields):
    out = {}
    if "groups" in doc:
        for group in doc["groups"]:
            gkey = (group.get("ablation"),
                    json.dumps(group.get("params", {}), sort_keys=True))
            for row in group.get("results", []):
                row = {k: scalar(v) for k, v in row.items()}
                out[(gkey, row_key(row, key_fields))] = row
    else:
        for row in doc.get("results", []):
            row = {k: scalar(v) for k, v in row.items()}
            out[(None, row_key(row, key_fields))] = row
    return out


def cmd_compare(args):
    try:
        with open(args.rules) as f:
            rules = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args.rules}: {e}")

    failures, warnings, compared = [], [], 0
    for bench_rule in rules["benches"]:
        bench = bench_rule["bench"]
        name = f"BENCH_{bench}.json"
        base_path = os.path.join(args.baseline, name)
        cur_path = os.path.join(args.current, name)
        if not os.path.exists(base_path):
            warnings.append(f"{bench}: no baseline at {base_path}, skipping")
            continue
        if not os.path.exists(cur_path):
            failures.append(f"{bench}: current snapshot {cur_path} missing")
            continue
        with open(base_path) as f:
            base = index_rows(json.load(f), bench_rule["key_fields"])
        with open(cur_path) as f:
            cur = index_rows(json.load(f), bench_rule["key_fields"])

        where = bench_rule.get("where", {})
        for key, base_row in base.items():
            if any(base_row.get(k) != v for k, v in where.items()):
                continue
            cur_row = cur.get(key)
            if cur_row is None:
                failures.append(
                    f"{bench}: cell {key} present in baseline but missing "
                    f"from current run")
                continue
            for metric in bench_rule["metrics"]:
                mname = metric["name"]
                if mname not in base_row or mname not in cur_row:
                    continue
                b, c = base_row[mname], cur_row[mname]
                if not isinstance(b, (int, float)) or b == 0:
                    continue
                compared += 1
                higher_is_better = metric.get("higher_is_better", True)
                if higher_is_better:
                    regress_pct = (b - c) / abs(b) * 100.0
                else:
                    regress_pct = (c - b) / abs(b) * 100.0
                limit = metric["max_regress_pct"]
                if regress_pct <= limit:
                    continue
                msg = (f"{bench} {mname} {key}: baseline={b:.4g} "
                       f"current={c:.4g} regressed {regress_pct:.1f}% "
                       f"(limit {limit}%)")
                if metric.get("timing") and args.skip_timing:
                    warnings.append(msg + " [timing, not enforced]")
                else:
                    failures.append(msg)

    for w in warnings:
        print(f"WARN: {w}")
    for f_ in failures:
        print(f"FAIL: {f_}", file=sys.stderr)
    verdict = "FAILED" if failures else "ok"
    print(f"perf gate {verdict}: {compared} metric cells compared, "
          f"{len(failures)} over threshold, {len(warnings)} warnings")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(prog="validate_bench")
    sub = parser.add_subparsers(dest="mode", required=True)
    v = sub.add_parser("validate")
    v.add_argument("snapshots", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("--baseline", required=True)
    c.add_argument("--current", required=True)
    c.add_argument("--rules", default="tools/perf_gate.json")
    c.add_argument("--skip-timing", action="store_true")
    args = parser.parse_args()
    if args.mode == "validate":
        sys.exit(cmd_validate(args.snapshots))
    sys.exit(cmd_compare(args))


if __name__ == "__main__":
    main()
