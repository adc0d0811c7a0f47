#!/usr/bin/env python3
"""CONGOS benchmark: build, run one workload, gate it, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--record <file>]

Run from the root of a checkout. The first run builds perfbench/ (which
compiles the repository's src/ libraries) into $CARGO_TARGET_DIR, default
.bench_build. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones. The line before it is the provenance
stamp. A failed correctness gate or determinism check exits 1; a run that
cannot build or measure exits 2 without printing a result.

--record appends the result to a file as a baseline, and refuses to do so
for a tree whose git state is dirty or unknown.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the benchmark's directory as checked out
import stats  # noqa: E402

WORKLOADS = {
    # name: collusion tolerance tau (the Lemma 14 gate wants coalitions > tau)
    "sim-congos": 1,
    "wire-lockstep": 1,
    "wire-durable": 1,
}

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("rounds_per_s", "1/s", "higher"),
    ("round_ms_p50", "ms", "lower"),
    ("round_ms_p95", "ms", "lower"),
    ("cpu_ms_per_round", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("deliver_rounds_p50", "rounds", "lower"),
    ("deliver_rounds_p95", "rounds", "lower"),
    ("msgs_per_round_max", "count", "lower"),
    ("msgs_per_pair", "count", "lower"),
    ("bytes_per_pair", "B", "lower"),
]

SERVICES = ["group_gossip", "all_gossip", "proxy", "group_distribution", "fallback"]

PER_LAYER = (
    [(f"sim.{p}_s", "s", "lower")
     for p in ("adversary", "send", "deliver", "receive", "round_end")]
    + [
        ("audit.confidentiality_s", "s", "lower"),
        ("audit.envelopes", "count", "lower"),
        ("audit.offline_s", "s", "lower"),
        ("audit.qod_miss_frac", "ratio", "lower"),
    ]
    + [(f"congos.msgs.{s}", "count", "lower") for s in SERVICES]
    + [(f"congos.bytes.{s}", "B", "lower") for s in SERVICES]
    + [
        ("congos.confirmed_frac", "ratio", "higher"),
        ("congos.fallback_shoots", "count", "lower"),
        ("congos.duplicates_suppressed", "count", "lower"),
        ("congos.filter_drops", "count", "lower"),
        ("partition.build_s", "s", "lower"),
    ]
    + [(f"net.{p}_s", "s", "lower")
       for p in ("flush", "drain", "handle", "advance", "inject", "checkpoint",
                 "resume", "kill")]
    + [
        ("net.send_syscalls_per_dgram", "ratio", "lower"),
        ("net.recv_syscalls_per_dgram", "ratio", "lower"),
        ("net.frames_per_datagram", "ratio", "higher"),
        ("net.datagrams_per_pair", "ratio", "lower"),
        ("net.queue_hwm", "count", "lower"),
        ("net.queue_overflow", "count", "lower"),
        ("net.dgrams_lost", "count", "lower"),
        ("net.checkpoint_bytes", "B", "lower"),
        ("net.journal_events", "count", "lower"),
        ("bench.loop_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
        ("trace.layer_sum_frac", "ratio", "higher"),
    ]
)

# Span name -> per-layer metric. The engine phases are marked from outside
# Engine::step(); "net.round" self time is the benchmark's own loop work.
SPAN_METRICS = {f"sim.{p}": f"sim.{p}_s"
                for p in ("adversary", "send", "deliver", "receive", "round_end")}
SPAN_METRICS.update({f"net.{p}": f"net.{p}_s"
                     for p in ("flush", "drain", "handle", "advance", "inject",
                               "checkpoint", "resume", "kill")})
SPAN_METRICS["net.round"] = "bench.loop_s"
SPAN_METRICS["sim.round"] = "bench.loop_s"

# Per-layer times taken outside the measured rounds (set-up, offline audit) or
# by the benchmark itself; trace.layer_sum_frac leaves them out.
OUTSIDE_LOOP = ("audit.offline_s", "partition.build_s", "bench.loop_s")

# Gate counters that must read zero on every episode.
ZERO_GATES = ["qod_late", "qod_missing", "qod_corrupted", "leaks",
              "foreign_fragments", "unknown_payloads", "filter_drops"]
WIRE_ZERO_GATES = ["unhealthy_nodes", "decode_errors", "encode_errors",
                   "send_errors", "resume_failures", "log_parse_errors",
                   "state_file_errors", "log_frame_mismatch"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        die("no src/CMakeLists.txt here; run from the root of a full checkout")
    bdir = os.path.join(build_dir, "perfbench")
    try:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr, timeout=300)
        subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                        "--target", "congos_perf"],
                       check=True, stdout=sys.stderr, timeout=840)
    except (subprocess.SubprocessError, OSError) as e:
        die(f"build failed: {e}")
    return os.path.join(bdir, "congos_perf")


def git_state(root):
    """(sha, dirty) of the checkout, or (None, None) outside a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return None, None
        st = subprocess.run(["git", "-C", root, "status", "--porcelain"], env=env,
                            capture_output=True, text=True, timeout=30)
        return sha.stdout.strip(), bool(st.stdout.strip()) or st.returncode != 0
    except (subprocess.SubprocessError, OSError):
        return None, None


def gate_failures(workload, ep):
    g = ep["gate"]
    failures = [k for k in ZERO_GATES if g[k] != 0]
    if g["qod_admissible"] == 0:
        failures.append("no admissible pairs")
    # Lemma 14: no coalition of <= tau curious processes can rebuild a rumor.
    if not g["weakest_coalition_unbreakable"] and g["weakest_coalition"] <= WORKLOADS[workload]:
        failures.append(f"weakest_coalition {g['weakest_coalition']} <= tau")
    if workload.startswith("wire-"):
        failures += [k for k in WIRE_ZERO_GATES if g[k] != 0]
        if g["datagrams_received"] != g["datagrams_sent"]:
            failures.append("datagrams received != sent")
    return failures


def fingerprint(ep):
    """The counts that must repeat exactly for one seed."""
    return json.dumps(ep["counts"], sort_keys=True)


def end_to_end(raw, eps):
    first = eps[0]
    c = first["counts"]
    # Every episode repeats the same rounds, so each round's time is its
    # fastest repetition: what the round costs, without the host's slow spells.
    round_s = stats.fastest_per_round([ep["round_s"] for ep in eps])
    round_cpu_s = stats.fastest_per_round([ep["round_cpu_s"] for ep in eps])
    rounds_ms = [1000.0 * v for v in round_s]
    pairs = c["pairs_delivered"]
    # The delivery auditor's own percentiles over the on-time admissible pairs.
    stats.require_beyond(pairs, 95)
    return {
        "setup_s": stats.median(raw["setup_only_s"]),
        # system rounds per wall second (not per CPU second of one thread)
        "rounds_per_s": stats.ratio(len(round_s), sum(round_s), "wall seconds"),
        "round_ms_p50": stats.percentile(rounds_ms, 50),
        "round_ms_p95": stats.percentile(rounds_ms, 95),
        # CPU of every thread of the process, per round
        "cpu_ms_per_round": 1000.0 * stats.ratio(sum(round_cpu_s), len(round_cpu_s),
                                                 "rounds"),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "deliver_rounds_p50": float(c["deliver_rounds_p50"]),
        "deliver_rounds_p95": float(c["deliver_rounds_p95"]),
        "msgs_per_round_max": float(c["msgs_per_round_max"]),
        # per delivered admissible (rumor, destination) pair
        "msgs_per_pair": stats.ratio(c["msgs_total"], pairs, "pairs_delivered"),
        "bytes_per_pair": stats.ratio(c["bytes_total"], pairs, "pairs_delivered"),
    }


def per_layer(eps):
    traced = [ep for ep in eps if ep["traced"]]
    plain = [ep for ep in eps if not ep["traced"]]
    c = eps[0]["counts"]
    g = eps[0]["gate"]
    wire = "datagrams_sent" in c

    def layer_median(key):
        return stats.median([ep["layers"].get(key, 0.0) for ep in traced])

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    for span, name in SPAN_METRICS.items():
        m[name] += layer_median("span." + span)
    audit_s = layer_median("audit.confidentiality_s")
    # The auditor runs inside the delivery phase; report the two apart.
    m["sim.deliver_s"] -= audit_s
    m["audit.confidentiality_s"] = audit_s
    m["audit.envelopes"] = c["audit_envelopes"]
    m["audit.offline_s"] = stats.median([ep["layers"].get("audit.offline_s", 0.0) for ep in eps])
    m["audit.qod_miss_frac"] = stats.ratio(
        g["qod_late"] + g["qod_missing"] + g["qod_corrupted"], g["qod_admissible"],
        "admissible pairs")
    for s in SERVICES:
        m[f"congos.msgs.{s}"] = c[f"msgs.{s}"]
        m[f"congos.bytes.{s}"] = c[f"bytes.{s}"]
    m["congos.confirmed_frac"] = stats.ratio(
        c["cg_confirmed"], c["cg_injected"] - c["cg_injected_direct"], "pipeline rumors")
    m["congos.fallback_shoots"] = c["cg_shoots"]
    m["congos.duplicates_suppressed"] = c["duplicates_suppressed"]
    m["congos.filter_drops"] = c["filter_drops"]
    m["partition.build_s"] = stats.median([ep["layers"]["partition.build_s"] for ep in eps])
    if wire:
        lay = eps[0]["layers"]
        m["net.send_syscalls_per_dgram"] = stats.ratio(
            lay["net.send_syscalls"], c["datagrams_sent"], "datagrams sent")
        m["net.recv_syscalls_per_dgram"] = stats.ratio(
            lay["net.recv_syscalls"], g["datagrams_received"], "datagrams received")
        m["net.frames_per_datagram"] = stats.ratio(
            c["msgs_total"], c["datagrams_sent"], "datagrams sent")
        m["net.datagrams_per_pair"] = stats.ratio(
            c["datagrams_sent"], c["pairs_delivered"], "pairs_delivered")
        m["net.queue_hwm"] = max(ep["layers"]["net.queue_hwm"] for ep in eps)
        m["net.queue_overflow"] = sum(ep["layers"]["net.queue_overflow"] for ep in eps)
        m["net.dgrams_lost"] = sum(ep["layers"]["net.dgrams_lost"] for ep in eps)
        m["net.checkpoint_bytes"] = c["checkpoint_bytes"]
        m["net.journal_events"] = c["journal_events"]
    traced_wall = stats.median([ep["wall_s"] for ep in traced])
    m["trace_overhead_frac"] = traced_wall / stats.median([ep["wall_s"] for ep in plain]) - 1.0
    # Share of the traced wall time the reported layer times account for.
    layer_s = sum(m[name] for name, unit, _ in PER_LAYER
                  if unit == "s" and name not in OUTSIDE_LOOP)
    m["trace.layer_sum_frac"] = layer_s / traced_wall
    return {k: float(v) for k, v in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--record", help="append the result to this baseline file")
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                                  ".bench_build")))
    if os.path.commonpath([root, build_dir]) != root:
        build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)

    workdir = os.path.join(build_dir, "work")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir, "--trace-out", trace_out]
    # The budget, then the episode that is running when it ends (sim-congos
    # takes ~3 s, traced ~4 s), with room for a slow host.
    limit = args.seconds + 60
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        die(f"congos_perf ran over {limit:g} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        die(f"congos_perf exited {proc.returncode}")
    raw = json.loads(proc.stdout)
    eps = raw["episodes"]

    failed = 0
    reference = fingerprint(eps[0])
    for i, ep in enumerate(eps):
        problems = gate_failures(args.workload, ep)
        if fingerprint(ep) != reference:
            problems.append("counts differ from episode 0 of the same seed")
        if problems:
            failed += 1
            print(f"perfbench: episode {i} failed: {'; '.join(problems)}", file=sys.stderr)

    try:
        if args.trace == "1":
            values = per_layer(eps)
            table = PER_LAYER
        else:
            values = end_to_end(raw, eps)
            table = END_TO_END
    except ValueError as e:  # too few samples, or an empty ratio base
        die(f"cannot report metrics: {e}")
    metrics = {stats.check_name(name): {"value": values[name], "unit": stats.check_unit(unit)}
               for name, unit, _ in table}

    sha, dirty = git_state(root)
    provenance = {
        "git_sha": sha, "dirty": dirty, "nproc": os.cpu_count(),
        "engine_threads": raw["engine_threads"], "build_type": raw["build_type"],
        "lz4": raw["lz4"], "workload": args.workload, "seed": args.seed,
        "episodes": len(eps), "traced_episodes": sum(ep["traced"] for ep in eps),
        "counts_sha1": hashlib.sha1(reference.encode()).hexdigest(),
        "trace_file": os.path.relpath(trace_out, root) if args.trace == "1" else None,
    }
    result = {"correct": failed == 0, "attempted": len(eps), "failed": failed,
              "metrics": metrics}
    if args.record:
        if sha is None or dirty:
            die("refusing to record a baseline from a dirty or unknown git tree")
        with open(os.path.join(root, args.record), "a") as f:
            f.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
