#!/usr/bin/env python3
"""Run one h3dfact benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is capacity_sweep, dse_search, serve_open, chip_in_loop, or "all"
(every workload in turn). The script builds perfbench/ (the h3dfact library
from this checkout plus the h3dbench binary) into .bench_build/, runs the
workload in a fresh process while sampling the RSS of its process tree,
derives the metrics (perfbench/metrics.py), prints every one of them by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones that BENCHMARK.json names. A full record of every metric is
written to .bench_build/results/. The exit code is nonzero when the build or
the run fails or any correctness check does not hold.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import metrics  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("capacity_sweep", "dse_search", "serve_open", "chip_in_loop")
RUN_TIMEOUT_S = 170
# Process-tree RSS sampling period: forked shards of a short pass live for
# about a second, and a shard's peak is only seen while it is alive.
RSS_SAMPLE_S = 0.1

UNITS = {
    "setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "accuracy": "fraction",
    "ok_frac": "fraction", "rss_mb": "MiB", "fail_frac": "fraction",
    "paper_acc_gap_pp": "pp", "paper_iters_gap": "factor", "peak_C": "degC",
    "max_qps_p99": "1/s", "thermal.residual_C": "degC",
    "hdc.items_per_call": "items", "cim.items_per_call": "items",
    "serve.batch_fill": "fraction", "resonator.mvm_share": "fraction",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.startswith("lat_") or "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build():
    """Configure once, then (re)build; all tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("h3dfact sources not found next to perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 1)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(BUILD_DIR, "h3dbench")


def tree_pids(root_pid):
    """root_pid and its live descendants, from each thread's children list."""
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        try:
            tids = os.listdir("/proc/%d/task" % pid)
        except OSError:
            continue
        for tid in tids:
            try:
                with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
                    frontier.extend(int(c) for c in f.read().split())
            except (OSError, ValueError):
                continue
    return tree


def tree_peak_rss_kb(root_pid):
    """Sum of VmHWM (peak resident set) over root_pid and its live
    descendants, in KiB. Each term only grows while its process lives, so
    frequent samples catch a pass's peak even when its shards live briefly."""
    total = 0
    for pid in tree_pids(root_pid):
        try:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except (OSError, ValueError, IndexError):
            continue
    return total


def run_binary(binary, args, work_dir):
    """Run h3dbench in a fresh process group; return (record, rss_mb)."""
    out = os.path.join(work_dir, "record.json")
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work_dir, "--out=" + out]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    peak = [0]
    done = threading.Event()

    def sample():
        while not done.is_set():
            peak[0] = max(peak[0], tree_peak_rss_kb(proc.pid))
            done.wait(RSS_SAMPLE_S)

    sampler = threading.Thread(target=sample)
    sampler.start()
    timer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        done.set()
        sampler.join()
        if proc.returncode is None:  # interrupted: take the whole group down
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
    if proc.returncode != 0:
        fail("h3dbench exited with %d" % proc.returncode, 1)
    with open(out) as f:
        record = json.load(f)
    return record, max(peak[0], usage.ru_maxrss) / 1024.0


def fmt(value):
    return "n/a" if value is None else "%.6g" % value


def report(rec, res, rss_mb, args):
    """Print every metric; return the final JSON object."""
    res.e2e["rss_mb"] = rss_mb
    env = rec["env"]
    print("env: " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    print("workload: %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    groups = (("end-to-end", res.e2e), ("end-to-end, this workload", res.workload_e2e),
              ("per-layer", res.layers))
    for title, values in groups:
        if not values:
            continue
        print("-- " + title)
        for name in sorted(values):
            n = res.samples.get(name)
            extra = "  (n=%d)" % n if n is not None else ""
            if name == "trace.overhead_frac":
                extra += ("  (overhead plus run-to-run noise: traced job between two "
                          "untraced ones on one fleet)" if args.workload == "serve_open"
                          else "  (overhead plus topology: traced pass uses threads)")
            print("%-28s %14s %s%s" % (name, fmt(values[name]), unit_of(name), extra))
    for name, ok, detail in res.checks:
        print("check %-40s %s %s" % (name, "ok" if ok else "FAILED", detail))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    chosen = {**res.e2e, **res.layers}
    out_metrics = {}
    for m in declared[key]:
        value = chosen.get(m["name"])
        if value is None:
            fail("metric %s missing for %s" % (m["name"], args.workload), 1)
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = all(ok for _, ok, _ in res.checks)
    result = {"correct": correct, "attempted": res.attempted,
              "failed": res.failed, "metrics": out_metrics}

    results_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "end_to_end": res.e2e, "workload_end_to_end": res.workload_e2e,
                   "per_layer": res.layers, "samples": res.samples,
                   "checks": res.checks, "attempted": res.attempted,
                   "failed": res.failed, "trace": rec.get("trace")},
                  f, indent=1, sort_keys=True)
    return result


def main():
    # SIGTERM unwinds like an exception, so the workload's process group is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    overrides = sorted(k for k in os.environ if k.startswith("H3DFACT_KERNEL_"))
    if overrides:
        fail("refusing to run with kernel overrides set (%s): the benchmark "
             "measures the default kernel policy and threading" % ", ".join(overrides))

    binary = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        work_dir = os.path.join(ROOT, ".bench_build", "work", "%d-%s" % (os.getpid(), name))
        os.makedirs(work_dir, exist_ok=True)
        try:
            record, rss_mb = run_binary(binary, args, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        results[name] = report(record, metrics.evaluate(record), rss_mb, args)
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final, sort_keys=True))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
