#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Builds perfbench/ (the simulator from src/ plus the perfbench program,
Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build), runs
the workload for --seconds, checks every item and prints a report. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1
the per-layer metrics (README.md lists both). Run from the repository
root; see README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import analysis

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["xlat_fig5", "ref_fig5", "soc_quad", "fuzz_farm"]
LEVELS = ["functional", "static", "branch", "cache"]
# Files the benchmark needs from the repository; without them it refuses
# to run.
REQUIRED = ["src/platform/platform.h", "tests/golden_digests.json",
            "tests/fuzz_corpus"]
CODE_SUFFIXES = {".cpp", ".h", ".py"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_hash():
    """SHA-256 over the simulator and benchmark code (not their docs)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in CODE_SUFFIXES or path.name == "CMakeLists.txt":
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(record):
    """Host fingerprint: records are comparable only when it matches."""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
    }


def golden_args():
    golden = json.loads((ROOT / "tests/golden_digests.json").read_text())
    values = [str(golden["quantum"])]
    for level in LEVELS:
        values.append(golden["entries"][f"mc_quad/{level}"]["digest"])
    return ",".join(values)


def check_determinism(out_dir, record, fp):
    """Compares this run's simulated numbers with the last run of the
    same workload and seed under the same fingerprint; returns the item
    names that differ."""
    key = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()
    path = (out_dir / "sim" /
            f"{record['workload']}-{record['seed']}-{key[:16]}.json")
    if path.exists():
        before = json.loads(path.read_text())
        return sorted(k for k in set(before) | set(record["sim"])
                      if before.get(k) != record["sim"].get(k))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record["sim"], sort_keys=True))
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**32:
        fail("--seed must fit in 32 bits")

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        fail(f"not a repository checkout (missing {', '.join(missing)})")
    out_dir = build_dir()
    build(out_dir)

    record_path = out_dir / f"record-{args.workload}.json"
    cmd = [str(out_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(record_path),
           "--work-dir", str(out_dir / "work")]
    if args.workload == "soc_quad":
        cmd += ["--golden", golden_args()]
    if args.workload == "fuzz_farm":
        cmd += ["--corpus", str(ROOT / "tests/fuzz_corpus")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"workload run exited with {done.returncode}")
    record = json.loads(record_path.read_text())

    fp = fingerprint(record)
    drift = check_determinism(out_dir, record, fp)
    attempted = record["attempted"]
    failed = record["failed"]
    deviation = record["deviation_icache_pct"]
    correct = (failed == 0 and record["sim_mismatches"] == 0 and
               deviation == 0 and not drift)

    if args.trace:
        metrics = analysis.per_layer(record)
        table = analysis.PER_LAYER
    else:
        metrics = analysis.end_to_end(record)
        table = analysis.END_TO_END

    print(f"fingerprint {json.dumps(fp, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} items, {failed} failed, fail_ratio "
          f"{failed / attempted:.6g}, deviation_icache_pct {deviation:.6g}")
    if not args.trace:
        samples = analysis.latency_samples(record)
        pct, _ = analysis.tail_percentile(samples)
        print(f"item_ms_p99 is p{pct:.4g} of {len(samples)} samples")
    print(f"wall clock: {analysis.wall_clock_items_per_s(record):.6g} "
          "executions/s over the timed loop")
    for message in record["errors"]:
        print(f"  failed item {message}")
    if record["sim_mismatches"]:
        print(f"  {record['sim_mismatches']} executions changed simulated "
              "numbers within the run")
    if drift:
        print(f"  simulated numbers differ from the previous run of this "
              f"seed: {', '.join(drift[:8])}")
    for name, value in metrics.items():
        unit, better = table[name]
        print(f"  {name:28s} {value:16.6g} {unit:6s} ({better} is better)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
