"""Turns a raw perfbench record into the benchmark's metrics.

Pure functions only (no I/O), so test_analysis.py can check the
arithmetic: the tail-percentile rule, span self time, per-layer shares
and the derived ratios. See README.md for what every metric means.
"""

import collections
import math
import statistics

# The benchmark's metrics: name -> (unit, better). Kept identical to
# BENCHMARK.json (test_analysis.py checks it).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "host_mips": ("MIPS", "higher"),
    "item_ms_p50": ("ms", "lower"),
    "item_ms_p99": ("ms", "lower"),
    "modeled_mips": ("MIPS", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Layers are src/ modules, plus "bench": the benchmark's own checks
# inside an item.
LAYERS = ["trc", "xlat", "platform", "vliw", "iss", "sim", "snap", "fleet",
          "fuzz", "rtlsim", "bench"]

PER_LAYER = {
    "vliw.run_ms": ("ms", "lower"),
    "vliw.ns_per_cycle": ("ns", "lower"),
    "vliw.cycles": ("count", "lower"),
    "vliw.packets": ("count", "lower"),
    "vliw.nop_cycles": ("count", "lower"),
    "vliw.stall_cycles": ("count", "lower"),
    "soc.sync.starts": ("count", "lower"),
    "soc.sync.corrections": ("count", "lower"),
    "soc.sync.generated_cycles": ("count", "lower"),
    "soc.sync.stall_share": ("ratio", "lower"),
    "soc.bus.transactions": ("count", "lower"),
    "xlat.translate_ms": ("ms", "lower"),
    "xlat.ns_per_src_instr": ("ns", "lower"),
    "xlat.packets": ("count", "lower"),
    "xlat.code_bytes": ("bytes", "lower"),
    "platform.load_ms": ("ms", "lower"),
    "platform.board_ctor_ms": ("ms", "lower"),
    "platform.board_run_ms": ("ms", "lower"),
    "core.artifact.decodes": ("count", "lower"),
    "core.artifact.hits": ("count", "higher"),
    "iss.run_ms": ("ms", "lower"),
    "iss.ns_per_instr": ("ns", "lower"),
    "iss.chain_hits": ("count", "higher"),
    "iss.trace_dispatches": ("count", "higher"),
    "iss.guard_bail_ratio": ("ratio", "lower"),
    "iss.threaded_dispatches": ("count", "higher"),
    "iss.threaded_declined": ("count", "lower"),
    "sim.kernel_overhead_ms": ("ms", "lower"),
    "sim.kernel.events": ("count", "lower"),
    "sim.parallel.speedup": ("ratio", "higher"),
    "sim.parallel.bail_ratio": ("ratio", "lower"),
    "snap.digest_ms": ("ms", "lower"),
    "snap.save_ms": ("ms", "lower"),
    "snap.restore_ms": ("ms", "lower"),
    "snap.bytes": ("bytes", "lower"),
    "fleet.fork_ms": ("ms", "lower"),
    "fleet.scaling": ("ratio", "higher"),
    "fuzz.execs_per_candidate": ("count", "lower"),
    "fuzz.fork_hit_ratio": ("ratio", "higher"),
    "fuzz.invalid_ratio": ("ratio", "lower"),
    "fuzz.corpus_adds": ("count", "higher"),
    "fuzz.coverage_bits": ("count", "higher"),
    "fuzz.replay_cover_pct": ("%", "higher"),
    "rtlsim.run_ms": ("ms", "lower"),
    "trc.assemble_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
for _layer in LAYERS:
    PER_LAYER[_layer + ".self_pct"] = ("%", "lower")

# Per-layer ratios computed from the per-pass counters:
# name -> (numerator counters, denominator counters).
RATIOS = {
    "soc.sync.stall_share": (["soc.sync.stall_cycles"], ["vliw.cycles"]),
    "iss.guard_bail_ratio": (["iss.guard_bails"], ["iss.trace_dispatches"]),
    "fuzz.execs_per_candidate": (["fuzz.oracle_execs"], ["fuzz.candidates"]),
    "fuzz.fork_hit_ratio": (["fuzz.fork_hits"],
                            ["fuzz.fork_hits", "fuzz.fork_misses"]),
    "fuzz.invalid_ratio": (["fuzz.invalid"], ["fuzz.candidates"]),
}

# Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10


def tail_percentile(samples, want=99.0):
    """Returns (percentile, value): `want` if at least TAIL_SAMPLES
    samples lie beyond it, else the highest percentile that leaves
    TAIL_SAMPLES beyond it (the (TAIL_SAMPLES + 1)-th largest sample).
    With TAIL_SAMPLES or fewer samples it is the maximum (100)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return 100.0, ordered[-1]
    # Nearest rank: the value at rank k leaves n - k samples beyond it.
    k = math.ceil(want / 100.0 * n)
    if n - k < TAIL_SAMPLES:
        k = n - TAIL_SAMPLES
    return 100.0 * k / n, ordered[k - 1]


def self_times(spans):
    """Self time in ms of every span: its duration minus the union of
    the intervals its direct children cover (clipped to the span).
    `spans` is a list of dicts with id, parent, start_ns and end_ns."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        reach = start
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], reach)
            hi = min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (end - start - covered) / 1e6
    return out


def layer_self_ms(spans):
    """Self time per layer over the spans under item roots (spans whose
    root is named "item"), and the total item time, both in ms. A span's
    `split` moves an estimated share of its self time to other layers;
    when the estimate exceeds the self time it is scaled down to fit."""
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
        return s

    selfs = self_times(spans)
    layers = {}
    item_ms = 0.0
    for s in spans:
        if root(s)["name"] != "item":
            continue
        if s["parent"] < 0:
            item_ms += (s["end_ns"] - s["start_ns"]) / 1e6
        own = selfs[s["id"]]
        moved = sum(s["split"].values())
        scale = min(1.0, own / moved) if moved > 0 else 0.0
        for layer, ms in s["split"].items():
            layers[layer] = layers.get(layer, 0.0) + ms * scale
        layers[s["layer"]] = layers.get(s["layer"], 0.0) + own - moved * scale
    return layers, item_ms


def parse_spans(raw):
    """The record's span rows -> dicts."""
    return [{"id": i, "parent": r[0], "item": r[1], "name": r[2],
             "layer": r[3], "start_ns": r[4], "end_ns": r[5], "split": r[6]}
            for i, r in enumerate(raw)]


def item_costs(min_ms, runs):
    """Each item's cost: the fastest of its executions, in ms, for the
    items that ran. Items are deterministic, so host noise only ever adds
    time to an execution."""
    return {i: ms for i, (ms, n) in enumerate(zip(min_ms, runs)) if n > 0}


def pass_latencies(costs, runs):
    """The latency samples of the complete passes: each item's cost,
    once per pass that every item completed. The unfinished last pass is
    left out, so every item weighs the same."""
    passes = min(runs[i] for i in costs)
    return [c for c in costs.values() for _ in range(passes)]


def latency_samples(record):
    """The untraced record's latency samples, from item costs."""
    runs = record["item_runs_untraced"]
    return pass_latencies(item_costs(record["item_ms_untraced"], runs), runs)


def end_to_end(record):
    """The end-to-end metric values of an untraced record. Host-time
    metrics are computed from item costs (README "Host time"): the pass
    time is the sum of the costs, and every execution's latency is its
    item's cost."""
    costs = item_costs(record["item_ms_untraced"],
                       record["item_runs_untraced"])
    pass_s = sum(costs.values()) / 1e3
    done_share = 1.0 - record["failed"] / record["attempted"]
    # Over the items that retire countable instructions (all of them,
    # except fuzz_farm's campaigns).
    counted = [i for i in costs if record["item_instrs"][i] > 0]
    counted_s = sum(costs[i] for i in counted) / 1e3
    host_mips = (sum(record["item_instrs"][i] for i in counted) / counted_s /
                 1e6 if counted else 0.0)
    latencies = latency_samples(record)
    instrs, seconds = record["modeled"]
    _, p99 = tail_percentile(latencies)
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "items_per_s": len(costs) * done_share / pass_s,
        "host_mips": host_mips,
        "item_ms_p50": statistics.median(latencies),
        "item_ms_p99": p99,
        "modeled_mips": instrs / seconds / 1e6 if seconds > 0 else 0.0,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def wall_clock_items_per_s(record):
    """Executions per second of the whole timed loop, as the wall clock
    saw them (report only)."""
    return record["attempted"] / record["wall_ms"] * 1e3


def per_layer(record):
    """The per-layer metric values of a traced record. Metrics a layer
    does not produce on this workload read 0."""
    counters = record["counters"]
    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name in counters:
            values[name] = counters[name]
    for name, (num, den) in RATIOS.items():
        d = sum(counters.get(c, 0.0) for c in den)
        if d > 0:
            values[name] = sum(counters.get(c, 0.0) for c in num) / d
    for name, value in record["probes"].items():
        if name in values:
            values[name] = value

    spans = parse_spans(record["spans"])
    layers, item_ms = layer_self_ms(spans)
    for layer in LAYERS:
        if item_ms > 0:
            values[layer + ".self_pct"] = (
                100.0 * layers.get(layer, 0.0) / item_ms)
    campaign = [s for s in spans if s["name"] == "fuzz::Farm::run"]
    campaign_ms = sum((s["end_ns"] - s["start_ns"]) / 1e6 for s in campaign)
    if campaign_ms > 0:
        covered = sum(sum(s["split"].values()) for s in campaign)
        values["fuzz.replay_cover_pct"] = 100.0 * covered / campaign_ms

    off = item_costs(record["item_ms_untraced"],
                     record["item_runs_untraced"])
    on = item_costs(record["item_ms_traced"], record["item_runs_traced"])
    common = set(off) & set(on)
    if common:
        # items_per_s is items over the summed costs, so its relative
        # drop is 1 - untraced pass time / traced pass time.
        pass_off = sum(off[i] for i in common)
        pass_on = sum(on[i] for i in common)
        values["trace.overhead_pct"] = 100.0 * (1.0 - pass_off / pass_on)
    return values
