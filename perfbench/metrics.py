"""Metric arithmetic for the h3dfact benchmark.

Turns the raw record one h3dbench run writes into end-to-end metrics,
per-layer metrics and correctness checks. Pure functions over plain data,
so the arithmetic is unit-tested on its own (perfbench/tests).
"""

import math
import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
# The serve latency limit that max_qps_p99 holds the p99 to.
P99_LIMIT_MS = 10.0
# A rung's backlog grows when it accumulates faster than this share of the
# offered rate.
BACKLOG_GROWTH_FRAC = 0.05
SERVE_MAX_BATCH = 8


def percentile(xs, q):
    """Nearest-rank percentile: the ceil(q*n)-th smallest sample."""
    if not xs:
        raise ValueError("percentile of an empty sample")
    ys = sorted(xs)
    rank = max(1, math.ceil(q * len(ys)))
    return ys[rank - 1]


def beyond(n, q):
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q * n))


def reportable(n, q):
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def pct_or_none(xs, q):
    """(value, samples): value is None when too few samples lie beyond."""
    return (percentile(xs, q) if reportable(len(xs), q) else None, len(xs))


def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans, aggregates):
    """Span id -> self time: its duration minus the part of its interval
    covered by child spans, minus the time of calls folded under it."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    folded = {}
    for a in aggregates:
        folded[a["parent"]] = folded.get(a["parent"], 0.0) + a["seconds"]
    out = {}
    for s in spans:
        covered = union_length(children.get(s["id"], []), s["t0"], s["t1"])
        out[s["id"]] = (s["t1"] - s["t0"]) - covered - folded.get(s["id"], 0.0)
    return out


def backlog_slope(samples):
    """Least-squares slope (requests/s) of (t, outstanding) samples."""
    if len(samples) < 2:
        return 0.0
    ts = [t for t, _ in samples]
    ns = [n for _, n in samples]
    mt, mn = statistics.fmean(ts), statistics.fmean(ns)
    var = sum((t - mt) ** 2 for t in ts)
    if var == 0:
        return 0.0
    return sum((t - mt) * (n - mn) for t, n in zip(ts, ns)) / var


def rung_passes(rung, limit_ms=P99_LIMIT_MS):
    """A rung meets the limit when its p99 latency (refused, failed and lost
    requests count as misses) is within the limit, the p99 has enough
    samples beyond it, and its backlog does not grow."""
    lat = [x if x >= 0 else math.inf for x in rung["lat_ms"]]
    p99, _ = pct_or_none(lat, 0.99)
    if p99 is None or p99 > limit_ms:
        return False
    return backlog_slope(rung["backlog"]) <= BACKLOG_GROWTH_FRAC * rung["qps"]


def max_qps_p99(rungs, limit_ms=P99_LIMIT_MS):
    """Offered rate of the highest ladder rung that passes, or None."""
    passing = [r["qps"] for r in rungs if rung_passes(r, limit_ms)]
    return max(passing) if passing else None


def numeric(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def paper_acc_gap_pp(cells):
    """Mean |measured - Table II| accuracy in percentage points over the
    cells that carry a numeric paper accuracy."""
    gaps = []
    for c in cells:
        paper = numeric(c.get("meta", {}).get("paper_acc"))
        if paper is not None and c["trials"]:
            gaps.append(abs(100.0 * c["correct"] / c["trials"] - paper))
    return statistics.fmean(gaps) if gaps else None


def paper_iters_gap(cells):
    """Geometric mean of max(r, 1/r), r = measured H3D p99 iterations over
    the paper's, over H3D cells with a number on both sides ('Fail', '-'
    and an unreached p99 are skipped)."""
    logs = []
    for c in cells:
        if "factorizer=h3dfact" not in c["label"]:
            continue
        paper = numeric(c.get("meta", {}).get("paper_iters"))
        measured = c["iters_p99"]
        if paper is None or paper <= 0 or measured is None or measured <= 0:
            continue
        logs.append(abs(math.log(measured / paper)))
    return math.exp(statistics.fmean(logs)) if logs else None


def sweep_layers(pass_):
    """Scheduler view of one untraced sweep pass."""
    cells = pass_["cells"]
    busy = sum(c["wall_seconds"] for c in cells)
    done = sorted(c["done_s"] for c in cells)
    return {
        "sweep.busy_frac": busy / (pass_["workers"] * pass_["wall_s"]),
        "sweep.max_cell_s": max(c["wall_seconds"] for c in cells),
        "sweep.tail_s": done[-1] - done[-2] if len(done) > 1 else done[-1],
    }


def trial_layers(trace):
    """Per-layer numbers of a traced trial pass: engine decorator, channel
    decorator, trial blocks and their self time. Iterations are the engine
    decorator's count, which includes trials stopped on a limit cycle."""
    spans, aggs = trace["spans"], trace["aggregates"]
    by_name = {}
    for a in aggs:
        t = by_name.setdefault(a["name"], {"calls": 0, "seconds": 0.0,
                                           "items": 0, "work": 0.0})
        for k in t:
            t[k] += a[k]
    iters = by_name.get("resonator.iter", {}).get("items", 0)
    blocks = [s for s in spans if s["name"] == "resonator.block"]
    solve = sum(s["t1"] - s["t0"] for s in blocks)
    selfs = self_times(spans, aggs)
    out = {
        "resonator.iters": iters,
        "resonator.solve_s": solve,
        "resonator.ns_per_iter": 1e9 * solve / iters if iters else None,
        "resonator.channel_s": by_name.get("resonator.channel", {}).get("seconds", 0.0),
        "resonator.self_s": sum(selfs[s["id"]] for s in blocks),
    }
    for layer, unit in (("hdc", "ns_per_word"), ("cim", "ns_per_mac")):
        mvm = by_name.get(layer + ".mvm")
        if not mvm:
            continue
        out[layer + ".mvm_s"] = mvm["seconds"]
        out[layer + ".mvm_calls"] = mvm["calls"]
        out[layer + ".items_per_call"] = mvm["items"] / mvm["calls"]
        out[layer + "." + unit] = 1e9 * mvm["seconds"] / mvm["work"]
        out["resonator.mvm_share"] = mvm["seconds"] / solve if solve else None
    if "cim.build" in by_name:
        out["cim.program_s"] = by_name["cim.build"]["seconds"]
    return out


# --- per-workload evaluation ---------------------------------------------------
#
# evaluate(record) -> Result. `e2e` holds the metrics every workload reports
# (BENCHMARK.json end_to_end); `workload_e2e` the end-to-end metrics that
# exist on one workload only; `layers` every per-layer metric the workload
# exercises. Percentile metrics carry their sample count in `samples`.


class Result:
    def __init__(self):
        self.e2e = {}
        self.workload_e2e = {}
        self.layers = {}
        self.samples = {}
        self.checks = []  # (name, ok, detail)
        self.attempted = 0
        self.failed = 0

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def finish(self, setup_s, wall_s, iters_per_s, accuracy):
        self.attempted += len(self.checks)
        self.failed += sum(1 for _, ok, _ in self.checks if not ok)
        self.e2e.update({
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "iters_per_s": iters_per_s,
            "accuracy": accuracy,
            "ok_frac": 1.0 - self.failed / self.attempted,
        })
        self.workload_e2e["fail_frac"] = self.failed / self.attempted


def _sweep_totals(passes, cells_of):
    walls = [p["wall_s"] for p in passes]
    ips = [sum(c["iterations"] for c in cells_of(p)) / p["wall_s"] for p in passes]
    trials = sum(c["trials"] for p in passes for c in cells_of(p))
    correct = sum(c["correct"] for p in passes for c in cells_of(p))
    return statistics.median(walls), statistics.median(ips), correct / trials


def _determinism_checks(res, rec, cells_of):
    for d in rec.get("determinism", []):
        res.check("fork_vs_threads:" + d["grid"], d["forked"] == d["threads"],
                  d["forked"] + " vs " + d["threads"])
    if "traced" in rec:
        untraced, traced = rec["passes"][0], rec["traced"]
        res.check("traced_digest", _digest(untraced) == _digest(traced),
                  "%d vs %d cells" % (len(cells_of(untraced)), len(cells_of(traced))))


def _traced_trials(res, rec, cells_of):
    """Per-layer numbers of the traced pass, and a check that the engine
    decorator saw at least the solved and capped iterations TrialStats
    records (it also counts trials stopped on a limit cycle)."""
    layers = trial_layers(rec["trace"])
    counted = sum(c["iterations"] for c in cells_of(rec["traced"]))
    res.check("iteration_count", layers["resonator.iters"] >= counted,
              "%d at the engine, %d solved and capped"
              % (layers["resonator.iters"], counted))
    res.layers.update(layers)


def _digest(p):
    return p["sweep"]["digest"] if "sweep" in p else p["digest"]


def _overhead(rec):
    """Traced wall over the untraced wall of the same job, minus one."""
    return rec["traced"]["wall_s"] / rec["passes"][0]["wall_s"] - 1.0


def evaluate_trials(rec, expect_cells):
    """capacity_sweep and chip_in_loop: a registered grid through SweepRunner."""
    res = Result()
    cells_of = lambda p: p["cells"]
    passes = rec["passes"]
    counts = [len(p["cells"]) for p in passes]
    res.attempted += sum(counts)
    res.check("cells_complete", all(n == expect_cells for n in counts),
              "cells per pass: %s" % counts)
    _determinism_checks(res, rec, cells_of)
    wall, ips, acc = _sweep_totals(passes, cells_of)
    cells0 = passes[0]["cells"]
    if rec["workload"] == "capacity_sweep":
        res.workload_e2e["paper_acc_gap_pp"] = paper_acc_gap_pp(cells0)
        res.workload_e2e["paper_iters_gap"] = paper_iters_gap(cells0)
    if "traced" in rec:
        _traced_trials(res, rec, cells_of)
        res.layers.update(sweep_layers(passes[0]))
        res.layers["trace.overhead_frac"] = _overhead(rec)
        if "device_model_s" in rec:
            res.layers["device.model_s"] = rec["device_model_s"]
    res.finish(rec["setup_s"], wall, ips, acc)
    return res


def evaluate_dse(rec):
    res = Result()
    cells_of = lambda p: p["sweep"]["cells"]
    passes = rec["passes"]
    points = [pt for p in passes for pt in p["points"]]
    unconverged = sum(1 for pt in points if not pt["thermal_converged"])
    res.attempted += sum(p["cell_runs"] for p in passes) + len(points)
    res.failed += unconverged
    res.check("thermal_converged", unconverged == 0,
              "%d of %d design points unconverged" % (unconverged, len(points)))
    res.check("frontier_nonempty", all(p["frontier"] > 0 for p in passes),
              "frontier sizes %s" % [p["frontier"] for p in passes])
    _determinism_checks(res, rec, cells_of)
    wall, ips, acc = _sweep_totals(passes, cells_of)
    res.workload_e2e["peak_C"] = max(pt["peak_C"] for pt in passes[0]["points"])
    if "traced" in rec:
        _traced_trials(res, rec, cells_of)
        spans = rec["trace"]["spans"]
        span_s = lambda name: sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)
        hw = rec["hw"]
        res.layers.update({
            "thermal.solve_s": span_s("thermal.solve"),
            "thermal.sweeps": sum(h["sweeps"] for h in hw),
            "thermal.residual_C": max(h["residual_C"] for h in hw),
            "ppa.eval_s": span_s("ppa.eval"),
            "dse.hw_eval_s": span_s("dse.hw_eval"),
            "dse.accuracy_s": sum(c["wall_seconds"] for c in cells_of(passes[0])),
            "dse.cell_runs": passes[0]["cell_runs"],
            "dse.frontier_frac": passes[0]["frontier"] / passes[0]["cell_runs"],
            "trace.overhead_frac": _overhead(rec),
        })
        for h in hw:
            res.check("thermal_converged[cell %d]" % h["index"], h["converged"])
            res.check("hw_decomposition[cell %d]" % h["index"], h["same_as_eval"])
    res.finish(rec["setup_s"], wall, ips, acc)
    return res


def _rung(rec, name):
    return next(r for r in rec["ladder"] if r["name"] == name)


def evaluate_serve(rec):
    res = Result()
    for r in rec["ladder"]:
        res.attempted += len(r["lat_ms"])
        res.failed += r["rejected"] + r["failed"] + r["lost"]
    closed = rec["closed"]
    for c in closed:
        res.attempted += c["requests"]
        res.failed += c["requests"] - c["ok"]
    res.check("sample_matches_local", rec["check_mismatches"] == 0,
              "%d of %d replies differ from a local BatchedFactorizer"
              % (rec["check_mismatches"], rec["check_sample"]))
    res.check("fleet_healthy", rec["worker_errors"] == 0 and
              rec["stats"]["workers_dropped"] == 0 and rec["stats"]["requeues"] == 0)
    res.check("closed_jobs_identical",
              len({(c["correct"], c["iterations"]) for c in closed}) == 1)

    for name in ("low", "high"):
        lat = [x if x >= 0 else math.inf for x in _rung(rec, name)["lat_ms"]]
        for q, tag in ((0.5, "p50"), (0.99, "p99")):
            key = "lat_%s_ms.%s" % (tag, name)
            res.workload_e2e[key], res.samples[key] = pct_or_none(lat, q)
    res.workload_e2e["max_qps_p99"] = max_qps_p99(rec["ladder"])

    low, high = _rung(rec, "low"), _rung(rec, "high")
    for key, xs, q in (("serve.queue_ms.p50", low["queue_ms"], 0.5),
                       ("serve.queue_ms.p99", low["queue_ms"], 0.99),
                       ("serve.solve_ms.p50", high["solve_ms"], 0.5),
                       ("serve.solve_ms.p99", high["solve_ms"], 0.99)):
        res.layers[key], res.samples[key] = pct_or_none(xs, q)
    served = [i for i, x in enumerate(high["lat_ms"]) if x >= 0]
    wire = [high["lat_ms"][i] - high["late_ms"][i] - q - s
            for i, q, s in zip(served, high["queue_ms"], high["solve_ms"])]
    res.layers["serve.wire_ms.p99"], res.samples["serve.wire_ms.p99"] = \
        pct_or_none(wire, 0.99)
    res.layers["serve.batch_fill"] = statistics.fmean(high["batch"]) / SERVE_MAX_BATCH
    late = [x for r in rec["ladder"] for x in r["late_ms"]]
    res.layers["serve.gen_late_ms.p99"], res.samples["serve.gen_late_ms.p99"] = \
        pct_or_none(late, 0.99)
    st = rec["stats"]
    res.layers.update({
        "serve.batches": st["batches"],
        "serve.requeues": st["requeues"],
        "serve.rejected": st["rejected"],
        "serve.bind_s": statistics.median(rec["serve_bind_s"]),
        "io.pack_s": statistics.median(rec["io_pack_s"]),
        "io.load_s": statistics.median(rec["io_load_s"]),
    })
    if "traced" in rec:
        tr = rec["traced"]
        res.layers.update({
            "resonator.iters": tr["iterations"],
            "resonator.solve_s": tr["solve_s"],
            "resonator.ns_per_iter": 1e9 * tr["solve_s"] / tr["iterations"],
            # The traced bulk job ran between the last two untraced ones.
            "trace.overhead_frac":
                tr["wall_s"] / statistics.fmean(c["wall_s"] for c in closed[-2:]) - 1.0,
        })
        res.check("traced_closed_job_identical",
                  (tr["correct"], tr["iterations"]) ==
                  (closed[0]["correct"], closed[0]["iterations"]))
    walls = [c["wall_s"] for c in closed]
    ips = [c["iterations"] / c["wall_s"] for c in closed]
    res.finish(rec["setup_s"], statistics.median(walls), statistics.median(ips),
               closed[0]["correct"] / closed[0]["requests"])
    return res


def evaluate(rec):
    wl = rec["workload"]
    if wl == "capacity_sweep":
        return evaluate_trials(rec, expect_cells=18)
    if wl == "chip_in_loop":
        return evaluate_trials(rec, expect_cells=1)
    if wl == "dse_search":
        return evaluate_dse(rec)
    if wl == "serve_open":
        return evaluate_serve(rec)
    raise ValueError("unknown workload " + wl)
