#!/usr/bin/env python3
"""The repository benchmark's one command (see perfbench/README.md).

    python3 perfbench/run.py --workload gossip|pipeline|mst|hotkey \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout. Builds perfbench/ (the ncc library from
src/ plus the ncc_perfbench binary, Release) into .bench_build, runs the
workload for T seconds, checks every output, and prints a summary followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 one more
cycle runs traced and the metrics are the per-layer ones. Full results (host
facts, every cycle's sample, the span breakdown) are written to
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gossip", "pipeline", "mst", "hotkey")
MAX_THREADS = 4
# Every run must be over within this many seconds of starting (the build of
# a fresh checkout excepted).
RUN_LIMIT_S = 175

# Span name in src/ -> per-layer self-time metric.
SPAN_METRICS = {
    "route.down": "overlay.route_down.self_s",
    "route.up": "overlay.route_up.self_s",
    "aggregation": "primitives.aggregation.self_s",
    "sync_barrier": "primitives.sync_barrier.self_s",
    "multicast": "primitives.multicast.self_s",
    "multicast.setup": "primitives.multicast_setup.self_s",
    "aggregate_broadcast": "primitives.aggregate_broadcast.self_s",
    "neighborhood_exchange": "core.neighborhood_exchange.self_s",
    "identification": "core.identification.self_s",
}
# Timed public calls (seconds) and result-struct round counts; a workload
# that makes no such call reports 0.
CALL_METRICS = (
    "core.gossip_s", "core.orientation_s", "core.broadcast_trees_s", "core.bfs_s",
    "core.mis_s", "core.mst_s", "primitives.setup_multicast_trees_s",
    "primitives.run_multicast_multi_s",
)
ROUND_METRICS = (
    "core.gossip.rounds", "core.orientation.rounds", "core.broadcast_trees.rounds",
    "core.bfs.rounds", "core.mis.rounds", "core.mst.rounds",
)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir, jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "network.hpp")):
        fail("no ncc sources under %s/src: run from the root of a full checkout" % ROOT, 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(jobs), "--target", "ncc_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "ncc_perfbench")


def host_facts(nproc, build_line):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "nproc": nproc,
        "cpu_model": model,
        "compiler": build_line.get("compiler"),
        "build_type": build_line.get("build_type"),
        "threads": build_line.get("threads"),
        "instances": build_line.get("instances"),
        "git_commit": commit,
    }


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1)
    os.replace(tmp, path)


def check_determinism(cycles, store, key_prefix):
    """Fail every cycle whose (rounds, messages, digest) differs from its
    instance's reference: the value recorded by an earlier run of this
    binary on the same (workload, seed), else the instance's first cycle.
    Records new references in `store`."""
    for c in cycles:
        if not c["ok"]:
            continue
        sig = [c["rounds"], c["messages"], c["digest"]]
        ref = store.setdefault("%s/%d" % (key_prefix, c["instance"]), sig)
        if ref != sig:
            c["ok"], c["error"] = False, "determinism: %s differs from %s" % (sig, ref)


def by_instance(cycles, field):
    out = {}
    for c in cycles:
        out.setdefault(c["instance"], []).append(c[field])
    return out


def instance_mean_of_medians(cycles, field, scale):
    """Mean over instances of each instance's median; a run reports the same
    instance set on every machine, so this is comparable across runs."""
    groups = by_instance(cycles, field)
    return sum(stats.median(v) for v in groups.values()) / len(groups) * scale


def end_to_end(cycles, peak_rss_kb):
    for c in cycles:
        c["setup_med_ns"] = stats.median(c["setup_ns"])
    return {
        "solve_s": (instance_mean_of_medians(cycles, "solve_ns", 1e-9), "s"),
        "setup_s": (instance_mean_of_medians(cycles, "setup_med_ns", 1e-9), "s"),
        "cpu_s": (instance_mean_of_medians(cycles, "cpu_ns", 1e-9), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "sim_rounds": (instance_mean_of_medians(cycles, "rounds", 1), "rounds"),
        "sim_messages": (instance_mean_of_medians(cycles, "messages", 1), "messages"),
    }


def per_layer(traced, timeline, untraced_instance0):
    solve_ns = traced["solve_ns"]
    solve_s = solve_ns * 1e-9
    ends = timeline["round_end_ns"]
    spans = [tuple(s) for s in timeline["spans"]]
    totals, selfs = stats.span_times(spans, ends, solve_ns)
    names = stats.by_name(spans, totals, selfs)
    rounds = len(ends)
    per_round_us = [(stats.round_start_ns(k + 1, ends, solve_ns) -
                     stats.round_start_ns(k, ends, solve_ns)) / 1e3 for k in range(rounds)]
    q = stats.tail_quantile(rounds, 0.99)
    if q is None:  # too few rounds for any tail: report the median
        q = 0.5
    counts = traced["counts"]
    hits = counts.get("overlay.cache.hits", 0)
    misses = counts.get("overlay.cache.misses", 0)
    requests = counts.get("requests", 0)
    busy_ns = traced["engine_stage_ns"] + traced["engine_merge_ns"] + traced["engine_deliver_ns"]
    m = {
        "round.count": (rounds, "rounds"),
        "round.host_us.p50": (stats.percentile(per_round_us, 0.5) if rounds else 0.0, "us"),
        "round.host_us.p99": (stats.percentile(per_round_us, q) if rounds else 0.0, "us"),
        "round.host_us.p99_q": (q, "quantile"),
        "round.msgs.mean": (traced["messages"] / rounds if rounds else 0.0, "messages"),
        "net.msgs_per_s": (traced["messages"] / solve_s, "msg/s"),
        "net.rounds_per_s": (rounds / solve_s, "rounds/s"),
        "engine.stage_s": (traced["engine_stage_ns"] * 1e-9, "s"),
        "engine.merge_s": (traced["engine_merge_ns"] * 1e-9, "s"),
        "engine.deliver_s": (traced["engine_deliver_ns"] * 1e-9, "s"),
        "engine.busy_frac": (busy_ns / solve_ns, "fraction"),
        "mem.peak_bytes": (traced["mem_peak_bytes"], "bytes"),
        "mem.allocs": (traced["mem_allocs"], "count"),
        "overlay.packets_moved": (counts.get("overlay.packets_moved", 0), "packets"),
        "overlay.combines": (counts.get("overlay.combines", 0), "count"),
        "overlay.cache.hits": (hits, "count"),
        "overlay.cache.misses": (misses, "count"),
        "overlay.cache.lookups": (hits + misses, "count"),
        "overlay.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "fraction"),
        "overlay.routed_per_request": (
            counts.get("overlay.packets_moved", 0) / requests if requests else 0.0,
            "packets/request"),
        "graph.generate_s": (traced["generate_ns"] * 1e-9, "s"),
        "trace.attributed_frac": (stats.attributed_ns(spans, totals) / solve_ns, "fraction"),
        "trace.overhead_frac": (solve_ns / stats.median(untraced_instance0) - 1.0, "fraction"),
        "trace.spans": (len(spans), "count"),
    }
    for span, metric in SPAN_METRICS.items():
        m[metric] = (names.get(span, {}).get("self_ns", 0) * 1e-9, "s")
    for metric in CALL_METRICS:
        m[metric] = (traced["call_ns"].get(metric, 0) * 1e-9, "s")
    for metric in ROUND_METRICS:
        m[metric] = (counts.get(metric, 0), "rounds")
    breakdown = sorted(
        ({"span": k, "count": v["count"], "total_s": v["total_ns"] * 1e-9,
          "self_s": v["self_ns"] * 1e-9, "self_frac": v["self_ns"] / solve_ns}
         for k, v in names.items()),
        key=lambda r: -r["self_s"])
    return m, breakdown


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]", 2)

    nproc = len(os.sched_getaffinity(0))
    loadavg = os.getloadavg()
    bdir = build_dir()
    binary = build(bdir, nproc)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    timeline_path = os.path.join(results, tag + "-timeline.json")
    if os.path.exists(timeline_path):
        os.remove(timeline_path)

    threads = min(MAX_THREADS, nproc)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--threads", str(threads)]
    if args.trace:
        cmd += ["--trace-file", timeline_path]
    started = time.time()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        fail("ncc_perfbench did not finish within %d s" % RUN_LIMIT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("ncc_perfbench exited with %d" % r.returncode)
    lines = [json.loads(line) for line in r.stdout.splitlines() if line.startswith("{")]
    build_line = next((x for x in lines if x["kind"] == "build"), {})
    cycles = [x for x in lines if x["kind"] == "cycle"]
    traced = next((x for x in lines if x["kind"] == "traced"), None)
    end = next((x for x in lines if x["kind"] == "end"), None)
    if not cycles or end is None or (args.trace and traced is None):
        fail("ncc_perfbench output is incomplete")

    host = host_facts(nproc, build_line)
    host["loadavg_at_start"] = list(loadavg)
    if build_line.get("build_type") != "Release" or not build_line.get("ndebug"):
        fail("refusing to report a %s build (ndebug=%s); remove %s and rerun"
             % (build_line.get("build_type"), build_line.get("ndebug"), bdir), 3)

    # Determinism: every cycle of one (workload, seed, instance), the traced
    # one included, must reproduce rounds, messages and the output digest,
    # also across runs of the same binary.
    store_path = os.path.join(results, "digests.json")
    store = load_json(store_path, {})
    per_binary = store.setdefault(file_sha256(binary), {})
    runs = cycles + ([traced] if traced else [])
    check_determinism(runs, per_binary, "%s/%d" % (args.workload, args.seed))
    write_json(store_path, store)

    timeline = None
    if traced and traced["ok"]:
        timeline = load_json(timeline_path, None)
        if timeline is None:
            traced["ok"], traced["error"] = False, "timeline missing"
        elif timeline["truncated"]:
            traced["ok"], traced["error"] = False, "tracer truncated its spans"

    failed = sum(1 for c in runs if not c["ok"])
    attempted = len(runs)
    for c in runs:
        if c.get("error"):
            print("FAILED %s instance %d: %s" % (c["kind"], c["instance"], c["error"]))

    def describe(values):
        q1, med, q3 = stats.quartiles(values)
        return {"median": med, "q1": q1, "q3": q3, "count": len(values)}

    solve_all = [c["solve_ns"] * 1e-9 for c in cycles]
    summary = {
        "solve_s": describe(solve_all),
        "cpu_s": describe([c["cpu_ns"] * 1e-9 for c in cycles]),
        "setup_s": describe([ns * 1e-9 for c in cycles for ns in c["setup_ns"]]),
    }

    print("host: " + json.dumps(host))
    print("%s seed %d: %d cycles over %s instance(s), %d attempted, %d failed, %.1f s"
          % (args.workload, args.seed, len(cycles), build_line.get("instances"),
             attempted, failed, time.time() - started))
    print("solve_s per cycle: " + " ".join("%.4f" % v for v in solve_all))
    for name, s in summary.items():
        print("%-8s median %.6g  q1 %.6g  q3 %.6g  (n=%d)" % (name, s["median"], s["q1"], s["q3"], s["count"]))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "attempted": attempted, "failed": failed,
              "summary": summary, "cycles": cycles, "traced": traced}
    if args.trace:
        untraced0 = by_instance(cycles, "solve_ns")[0]
        metrics, breakdown = (per_layer(traced, timeline, untraced0) if timeline
                              else ({}, []))
        record["breakdown"] = breakdown
        print("traced breakdown (self time by span, share of traced solve_s):")
        for row in breakdown:
            print("  %-24s %8d spans  self %9.4f s  %6.1f%%"
                  % (row["span"], row["count"], row["self_s"], 100 * row["self_frac"]))
    else:
        metrics = end_to_end(cycles, end["peak_rss_kb"])
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-40s %.6g %s" % (name, value, unit))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    write_json(os.path.join(results, tag + ".json"), record)

    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
