#!/usr/bin/env python3
"""Repository benchmark for rankhow: builds the benchmark binary from source
and runs one workload, or a table of workloads.

One run (the form automated comparisons use):

    python3 perfbench/run.py --workload oneshot-exact --seed 1 --seconds 15 --trace 0

prints the binary's report and, as the last line of standard output, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.

Table mode (every end-to-end metric by workload, name and unit, with ops
attempted and failed; with --repeat N, the median and quartiles of N runs on
seeds 1 .. N):

    python3 perfbench/run.py --table [--repeat 10] [--workloads a,b] [--seconds 15]

Reference mode: rewrites perfbench/reference/<workload>.tsv, the per-op
outcomes of the default seed that later runs are checked against.

    python3 perfbench/run.py --write-reference [--workloads a,b] [--seconds 15]

Everything is written inside the checkout: the build goes to
$CARGO_TARGET_DIR (default .bench_build) and each run's inputs, journals and
caches to .bench_run/, removed when the run ends (a traced run keeps its
spans as .bench_run/spans-<workload>-<seed>.jsonl). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["oneshot-exact", "symgd-1m", "session-mix"]
END_TO_END = ["setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb"]
DEFAULT_SEED = 1
# Workloads whose per-op outcomes do not depend on the seed (a fixed
# relation; the seed only orders the ops): their reference is checked on
# every seed, the others' only on the default seed.
SEED_INDEPENDENT = {"symgd-1m"}
# session-mix outcomes stored per client in the reference.
REFERENCE_SESSIONS = 40
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "rankhow.h")):
        raise RuntimeError("no rankhow sources next to perfbench/ (need src/)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "rankhow_perfbench")


def git_sha():
    try:
        res = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = res.stdout.split()
        # Only the checkout's own repository, not one that encloses it.
        if res.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def load_average():
    try:
        with open("/proc/loadavg") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return "unknown"


def read_tsv(path):
    rows = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("\t")
            if key:
                rows[key] = value
    return rows


def run_once(binary, workload, seed, seconds, trace):
    """Runs the binary once; returns (report lines, result dict, results)."""
    run_dir = os.path.join(os.getcwd(), ".bench_run",
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        load = load_average()
        res = subprocess.run(
            [binary, "--workload=" + workload, "--seed=%d" % seed,
             "--seconds=%g" % seconds, "--trace=%d" % trace,
             "--run-dir=" + run_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
        lines = res.stdout.rstrip("\n").split("\n")
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            raise RuntimeError("rankhow_perfbench exited with %d" % res.returncode)
        result = json.loads(lines[-1])
        results = read_tsv(os.path.join(run_dir, "results.tsv"))
        spans = os.path.join(run_dir, "spans.jsonl")
        if trace and os.path.isfile(spans):
            kept = os.path.join(os.path.dirname(run_dir),
                                "spans-%s-%d.jsonl" % (workload, seed))
            os.replace(spans, kept)
            lines.insert(-1, "spans: %s" % os.path.relpath(kept))
        build_type = lines[0].split(",")[0].replace("build: ", "")
        lines = lines[:-1] + [
            "run-info: nproc=%d build_type=%s git_sha=%s loadavg_before=%s "
            "loadavg_after=%s" % (os.cpu_count() or 0, build_type, git_sha(),
                                  load, load_average())]
        return lines, result, results
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def reference_path(workload):
    return os.path.join(BENCH_DIR, "reference", workload + ".tsv")


def check_reference(workload, seed, results, result, lines):
    """Every per-op outcome that the stored reference also lists must match
    it (on the default seed, or on every seed for SEED_INDEPENDENT
    workloads); each mismatch is one failed op."""
    path = reference_path(workload)
    if not os.path.isfile(path):
        return
    if workload not in SEED_INDEPENDENT and seed != DEFAULT_SEED:
        return
    reference = read_tsv(path)
    compared = mismatched = 0
    for key, value in results.items():
        if key not in reference:
            continue
        compared += 1
        if reference[key] != value:
            mismatched += 1
            lines.append("FAILED reference: %s got '%s', stored '%s'"
                         % (key, value, reference[key]))
    lines.append("reference (%s): %d outcomes compared, %d mismatched"
                 % (os.path.relpath(path, ROOT), compared, mismatched))
    if compared == 0:
        lines.append("FAILED reference: no outcome overlaps the stored one")
        result["correct"] = False
    if mismatched:
        result["failed"] += mismatched
        result["correct"] = False


def single(args):
    binary = build()
    lines, result, results = run_once(binary, args.workload, args.seed,
                                      args.seconds, args.trace)
    check_reference(args.workload, args.seed, results, result, lines)
    print("\n".join(lines))
    print(json.dumps(result))


def table(args):
    binary = build()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    for workload in workloads:
        values = {name: [] for name in END_TO_END}
        units = {}
        attempted = failed = 0
        all_correct = True
        for i in range(args.repeat):
            seed = DEFAULT_SEED + i
            lines, result, results = run_once(binary, workload, seed,
                                              args.seconds, 0)
            check_reference(workload, seed, results, result, lines)
            for line in lines:
                if line.startswith(("FAILED", "run-info", "reference",
                                    "MILP proven disagreement",
                                    "spatial proven result")) or \
                        "checked against" in line:
                    print("  [%s seed %d] %s" % (workload, seed, line))
            attempted += result["attempted"]
            failed += result["failed"]
            all_correct = all_correct and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print("%s: %d runs, ops attempted %d, failed %d, correct %s"
              % (workload, args.repeat, attempted, failed, all_correct))
        for name in END_TO_END:
            v = values[name]
            med = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                print("  %-12s %-5s median %-14.6g q1 %-14.6g q3 %-14.6g "
                      "(q3-q1)/median %.4f" % (name, units[name], med, q1, q3,
                                               spread))
                print("  %-12s runs: %s" % (
                    "", " ".join("%.6g" % x for x in v)))
            else:
                print("  %-12s %-5s %.6g" % (name, units[name], med))
        sys.stdout.flush()


def write_reference(args):
    binary = build()
    os.makedirs(os.path.join(BENCH_DIR, "reference"), exist_ok=True)
    for workload in args.workloads.split(",") if args.workloads else WORKLOADS:
        lines, result, results = run_once(binary, workload, DEFAULT_SEED,
                                          args.seconds, 0)
        if not result["correct"]:
            raise RuntimeError("%s run is not correct; not writing a "
                               "reference" % workload)
        if workload == "session-mix":
            # Keep the file small: the first sessions of every client.
            results = {k: v for k, v in results.items()
                       if int(k.split("/")[1].split("s")[1])
                       < REFERENCE_SESSIONS}
        with open(reference_path(workload), "w") as f:
            for key in sorted(results):
                f.write("%s\t%s\n" % (key, results[key]))
        print("%s: %d outcomes written" % (workload, len(results)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    try:
        if args.write_reference:
            write_reference(args)
        elif args.table:
            table(args)
        elif args.workload:
            single(args)
        else:
            parser.error("need --workload, --table or --write-reference")
    except (RuntimeError, OSError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as err:
        log("perfbench: %s" % err)
        sys.exit(1)


if __name__ == "__main__":
    main()
