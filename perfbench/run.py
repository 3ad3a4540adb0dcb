#!/usr/bin/env python3
"""File-to-clusters benchmark for P3C+-MR (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds libp3c and the harness from source into .bench_build/perfbench,
generates the workload's input from the seed, times whole file-to-clusters
operations for S seconds, checks every output, and prints one JSON object
as the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (printed beside the end-to-end metric each should move).
Exits non-zero without a result line if the build, set-up or a run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")

WORKLOADS = ["csv-light", "mr-light", "mr-full", "stream-light"]

# Which end-to-end metric, on which workload, each per-layer metric
# should move. Written down before measuring; printed with --trace 1.
PREDICTIONS = {
    "data.read_s": "run_s_p50 on csv-light (most of it) and mr-light; barely mr-full",
    "data.read_mb_per_s": "run_s_p50 on csv-light and mr-light (inversely)",
    "data.stream_pass_s": "run_s_p50 on stream-light (paid once per pass)",
    "data.write_s": "run_s_p50 on every workload (small share)",
    "data.write_input_s": "setup_s, most on csv-light",
    "core.cluster_s": "run_s_p50 on csv-light (pool executor)",
    "core.stream_passes": "run_s_p50 on stream-light (one file pass each)",
    "core.signatures_counted": "run_s_p50 on csv-light (support counting)",
    "core.support_batches": "run_s_p50 on csv-light, mr-light and stream-light",
    "core.proven_ratio": "run_s_p50 on csv-light (wasted counting when low)",
    "mr.cluster_s": "run_s_p50 on mr-light and mr-full",
    "mr.driver_s": "run_s_p50 on mr-light and mr-full (time outside jobs)",
    "mr.jobs": "run_s_p50 on mr-full more than mr-light (per-job cost)",
    "mr.em_steps": "run_s_p50 on mr-full only",
    "mr.phase.histogram_s": "run_s_p50 on mr-light and mr-full",
    "mr.phase.support-count_s": "run_s_p50 on mr-light",
    "mr.phase.support-sets_s": "run_s_p50 on mr-light",
    "mr.phase.em-init_s": "run_s_p50 on mr-full only",
    "mr.phase.em-step_s": "run_s_p50 on mr-full only",
    "mr.phase.mvb_s": "run_s_p50 on mr-full only",
    "mr.phase.outlier-detection_s": "run_s_p50 on mr-full only",
    "mr.phase.cluster-histograms_s": "run_s_p50 on mr-light and mr-full",
    "mr.phase.interval-tightening_s": "run_s_p50 on mr-light and mr-full",
    "mapreduce.map_s": "run_s_p50 on mr-full more than mr-light; never csv-light or stream-light",
    "mapreduce.shuffle_s": "run_s_p50 on mr-full more than mr-light; a shuffle-only change moves no end-to-end metric",
    "mapreduce.reduce_s": "run_s_p50 on mr-full more than mr-light",
    "mapreduce.job_overhead_s": "run_s_p50 on mr-full more than mr-light",
    "mapreduce.shuffle_bytes": "run_s_p50 on mr-full more than mr-light",
    "mapreduce.input_records": "run_s_p50 on mr-full more than mr-light",
    "mapreduce.task_attempts": "run_s_p50 on mr-full more than mr-light",
    "mapreduce.task_failures": "failed ops on mr-light and mr-full (0 expected)",
    "mapreduce.partition_skew_max": "run_s_p50 on mr-full more than mr-light",
    "mem.tracked_peak_mib": "peak_rss_mib on mr-light and mr-full",
    "op.run_s_traced": "run_s_p50 (same op, tracing on)",
    "op.unattributed_s": "nothing: the remainder of op wall time outside the timed layers",
    "trace.overhead_s": "nothing: traced minus untraced run_s_p50",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run(cmd, **kwargs):
    """Runs cmd to completion and returns its stdout; raises on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, **kwargs)
    if proc.returncode != 0:
        log(proc.stdout)
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return proc.stdout


def build():
    """Configures once, then builds incrementally (output to stderr);
    returns the harness path."""
    steps = [["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0)))]]
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("%s failed" % " ".join(cmd))
    return os.path.join(BUILD, "perfbench_harness")


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def measure(harness, workload, seed, seconds, trace, tiny=False, tamper=False):
    """One benchmark run: set up (five times, in the harness), then run
    the ops."""
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", work]
        if tiny:
            common.append("--tiny")
        setup = last_json(run([harness, "setup"] + common))
        cmd = [harness, "run"] + common + ["--seconds", str(seconds),
                                           "--trace", str(trace)]
        if tamper:
            cmd.append("--tamper")
        out = run(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = last_json(out)
    notes = [l for l in out.splitlines() if l.startswith("provenance ")]
    notes.append("%s seed %d: %d points, %d bytes of input, %d timed ops" %
                 (workload, seed, setup["points"], setup["input_bytes"],
                  result["ops_timed"]))
    metrics = result["metrics"]
    if trace:
        metrics["data.write_input_s"] = {"value": setup["write_input_s"],
                                         "unit": "s"}
    else:
        metrics["setup_s"] = {"value": setup["setup_s"] + result["construct_s"],
                              "unit": "s"}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, notes


def self_test():
    """Tiny sizes: every workload emits every metric of BENCHMARK.json with
    its unit and no failures, and a tampered output counts as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
            1: {m["name"]: m["unit"] for m in contract["per_layer"]}}
    if sorted(w["name"] for w in contract["workloads"]) != sorted(WORKLOADS):
        raise RuntimeError("BENCHMARK.json workloads differ from run.py's")
    harness = build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, _ = measure(harness, workload, 1, 0.2, trace, tiny=True)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[trace]:
                raise RuntimeError("%s trace %d: metrics %s, want %s" %
                                   (workload, trace, got, want[trace]))
            if not out["correct"] or out["failed"] != 0:
                raise RuntimeError("%s trace %d failed: %s" % (workload, trace, out))
            log("self-test: %s trace %d ok (%d ops)" %
                (workload, trace, out["attempted"]))
        out, _ = measure(harness, workload, 1, 0.2, 0, tiny=True, tamper=True)
        if out["correct"] or out["failed"] < 1:
            raise RuntimeError("%s: tampered output was not caught: %s" %
                               (workload, out))
        log("self-test: %s tampered output caught" % workload)
    print("self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            self_test()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        harness = build()
        out, notes = measure(harness, args.workload, args.seed, args.seconds,
                             args.trace)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    for line in notes:
        print("# " + line)
    if args.trace:
        for name, m in out["metrics"].items():
            print("# %-34s %14.6g %-6s moves %s" %
                  (name, m["value"], m["unit"], PREDICTIONS.get(name, "")))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
