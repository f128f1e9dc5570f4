#!/usr/bin/env python3
"""End-to-end simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ref-mgD-tdram --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (the simulator library from src/ plus the harness)
into .bench_build/, runs the workload in the harness, checks every
run's digest against perfbench/digests.json and prints one JSON line:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1.

    python3 perfbench/run.py --record-digests [--workload NAME]

re-records digests.json after an intended change to simulated
behaviour. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import concurrent.futures
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
EXE = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ["ref-mgD-tdram", "grid-fig11", "replay-cl-open"]
NUM_VARIANTS = 16  # the harness maps --seed onto this many inputs
# "other" is everything else: the C and C++ runtimes, the harness and
# src/ modules with no share of their own.
HOST_SHARE_MODULES = ["sim", "workload", "cache", "dcache", "dram", "tdram",
                      "check", "trace", "stats", "mem", "other"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let cmake rebuild whatever changed."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    os.makedirs(WORK, exist_ok=True)


def replay_input(variant):
    """The replay workload's trace, generated once per variant."""
    path = os.path.join(WORK, f"replay-{variant}.tdtz")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        subprocess.run([EXE, "gen-replay", tmp, str(variant)],
                       check=True, timeout=RUN_TIMEOUT_S)
        os.replace(tmp, path)
    return path


def harness(workload, variant, seconds, trace):
    if workload == "replay-cl-open":
        replay_input(variant)
    out = subprocess.run(
        [EXE, "run", workload, str(variant), str(seconds), str(trace),
         WORK],
        check=True, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])


def module_of(frames):
    """Innermost inlined frame that lies in a src/<module>/ file."""
    for f in frames:
        m = re.search(r"/src/([A-Za-z_]+)/[^/]+:", f)
        if m:
            return m.group(1)
    return "other"


def host_shares():
    """Attribute the sampled program counters to src/ modules."""
    hist = {}
    with open(os.path.join(WORK, "samples.txt")) as f:
        for line in f:
            pc, count = line.split()
            hist[int(pc, 16)] = int(count)
    total = sum(hist.values())
    out = subprocess.run(
        ["addr2line", "-i", "-a", "-e", EXE],
        input="".join(f"{pc:#x}\n" for pc in hist),
        check=True, stdout=subprocess.PIPE, text=True).stdout
    frames = {}
    pc = None
    for line in out.splitlines():
        if line.startswith("0x"):
            pc = int(line, 16)
            frames[pc] = []
        elif pc is not None:
            frames[pc].append(line)
    counts = {}
    for pc, n in hist.items():
        mod = module_of(frames.get(pc, []))
        if mod not in HOST_SHARE_MODULES:
            mod = "other"
        counts[mod] = counts.get(mod, 0) + n
    shares = {f"{m}.host_share": counts.get(m, 0) / total if total else 0.0
              for m in HOST_SHARE_MODULES}
    shares["traced.samples"] = total
    return shares


def expected_digests(workload, variant):
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(variant))


def count_failed(digests, violations, expected):
    """A run fails on a checker violation or a digest mismatch."""
    if expected is None or len(expected) != len(digests):
        return len(digests)
    return sum(1 for d, v, e in zip(digests, violations, expected)
               if d != e or v != 0)


def measure(workload, variant, seconds, trace):
    """Returns (attempted, failed, {metric: value})."""
    expected = expected_digests(workload, variant)
    res = harness(workload, variant, seconds, trace)
    passes = res["passes"]
    attempted = sum(len(p["digests"]) for p in passes)
    failed = sum(count_failed(p["digests"], p["violations"], expected)
                 for p in passes)
    if trace:
        m = dict(res["metrics"])
        m.update(host_shares())
        return attempted, failed, m

    setups = [p["setup_s"] for p in passes] + res["setup_only_s"]
    m = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "demands_per_s": statistics.median(p["demands"] / p["run_s"]
                                           for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return attempted, failed, m


def record_digests(workloads):
    """Re-record the workloads' digests for every input variant."""
    def one(key):
        workload, variant = key
        res = harness(workload, variant, 0, 0)
        p = res["passes"][0]
        if any(p["violations"]):
            raise RuntimeError(f"{workload}/{variant}: checker violations")
        return p["digests"]

    keys = [(w, v) for w in workloads for v in range(NUM_VARIANTS)]
    for w, v in keys:
        if w == "replay-cl-open":
            replay_input(v)
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, min(4, os.cpu_count() or 1))) as pool:
        results = dict(zip(keys, pool.map(one, keys)))
    with open(DIGESTS) as f:
        table = json.load(f)
    for w in workloads:
        table[w] = {str(v): results[(w, v)] for v in range(NUM_VARIANTS)}
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {DIGESTS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.record_digests:
        record_digests([args.workload] if args.workload else WORKLOADS)
        return 0

    variant = args.seed % NUM_VARIANTS
    attempted, failed, values = measure(args.workload, variant,
                                        args.seconds, args.trace)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
