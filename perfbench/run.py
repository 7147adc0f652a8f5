#!/usr/bin/env python3
"""Fleet benchmark: simulator host cost and simulated serving metrics.

Builds perfbench/fleetbench from the simulator sources, runs one workload
through the public fleet harness, checks every run's outputs, and prints
each metric by name and unit. The last line of stdout is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

  python3 perfbench/run.py --workload uniform_r1000 --seed 1 \
      --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, measured untraced. --trace 1
adds a traced run and reports the per-layer metrics; it also writes the
per-layer numbers and the spans timed around each call to .bench_out/.
See perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "fleetbench")

WORKLOADS = ("uniform_r1000", "skew_r256", "paged_pressure")
MIN_TIMED_RUNS = 3
# Worker threads of the traced run and of the parallel runs that give the
# barrier metrics. The timed end-to-end runs use one worker thread (see
# README.md).
PARALLEL_THREADS = 4
MIN_COMPLETED = 1000
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds fleetbench; raises BenchError on failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", "4"]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_child(workload, seed, *flags):
    """Runs fleetbench once in a fresh process and returns its JSON."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"fleetbench timed out: {cmd}") from exc
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"fleetbench exited {proc.returncode}: {cmd}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"fleetbench printed nothing: {cmd}")
    return json.loads(lines[-1])


# --- correctness checks -------------------------------------------------

def check_run(run, ref):
    """Problems with one run; `ref` is the first run of the same seed."""
    sim = run["sim"]
    problems = []
    if sim["issued"] != (sim["completed_total"] + sim["client_errors"] +
                         sim["lost_forever"]):
        problems.append("request conservation broken")
    if sim["lost_forever"] != 0:
        problems.append(f"{sim['lost_forever']} requests lost after drain")
    if sim["completed_in_window"] < MIN_COMPLETED:
        problems.append(f"only {sim['completed_in_window']} requests "
                        f"completed in the window")
    if sim["ttft_samples"] != sim["completed_in_window"]:
        problems.append("TTFT sample count differs from completions")
    for key in ("ttft_p50_s", "ttft_p99_s", "e2e_p50_s", "throughput_tok_s"):
        if not (math.isfinite(sim[key]) and sim[key] > 0):
            problems.append(f"{key} = {sim[key]}")
    if sim["ttft_p99_s"] < sim["ttft_p50_s"]:
        problems.append("TTFT p99 below p50")
    host = run["host"]
    if not (0 < host["run_s"] and 0 < host["setup_s"] and
            host["peak_rss_kb"] > 0):
        problems.append("host timing missing")
    outcomes = run.get("outcomes")
    if outcomes is not None:
        if not outcomes["parsed"]:
            problems.append("outcome stream did not parse")
        if outcomes["lines"] != sim["completed_total"]:
            problems.append("outcome lines differ from completed requests")
        if outcomes["slo_submitted"] <= 0:
            problems.append("no request submitted in the window")
    if ref is not None:
        if sim != ref["sim"]:
            problems.append("simulated metrics differ between runs of "
                            "one seed")
        if outcomes is not None and outcomes != ref["outcomes"]:
            problems.append("outcome digest differs between runs of one seed")
    return problems


def check_traced(traced, ref):
    """Problems with the traced run against the untraced reference."""
    problems = check_run(traced, ref)
    sim, trace = traced["sim"], traced["trace"]
    if trace["dropped"] != 0:
        problems.append(f"tracer dropped {trace['dropped']} records")
    if trace["submits"] != sim["issued"]:
        problems.append("submit records differ from issued requests")
    if trace["completes"] != sim["completed_total"]:
        problems.append("complete records differ from completed requests")
    if trace["attributed_in_window"] != sim["completed_in_window"]:
        problems.append("attributed requests differ from window completions")
    frac = trace["forwarded_in_window"] / max(1, trace["attributed_in_window"])
    if abs(frac - sim["forwarded_fraction"]) > 1e-9:
        problems.append(f"forwarded fraction {frac} from the trace, "
                        f"{sim['forwarded_fraction']} from the harness")
    return problems


# --- metrics ------------------------------------------------------------

def failed_count(sim):
    return sim["client_errors"] + sim["lost_forever"]


def end_to_end(ref, timed):
    sim, outcomes = ref["sim"], ref["outcomes"]
    median = lambda key: statistics.median(r["host"][key] for r in timed)
    # Errored and lost requests count as misses.
    slo = outcomes["slo_met"] / (outcomes["slo_submitted"] + failed_count(sim))
    return {
        "run_s": (median("run_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "peak_rss_mb": (median("peak_rss_kb") / 1024.0, "MB"),
        "ttft_p50_s": (sim["ttft_p50_s"], "s"),
        "ttft_p99_s": (sim["ttft_p99_s"], "s"),
        "e2e_p50_s": (sim["e2e_p50_s"], "s"),
        "throughput_tok_s": (sim["throughput_tok_s"], "tok/s"),
        "slo_attain": (slo, "ratio"),
    }


def busy_total(run):
    """Host seconds spent executing events, summed over shards."""
    host = run["host"]
    if not host["shards"]:  # Plain simulator: the event loop is all busy.
        return host["run_s"]
    return sum(s["busy_s"] for s in host["shards"])


def parallel_split(run):
    """(run_s, mean barrier, barrier share, max/mean busy) of a parallel run."""
    host = run["host"]
    busy = [s["busy_s"] for s in host["shards"]]
    barrier = statistics.mean(s["barrier_s"] for s in host["shards"])
    return (host["run_s"], barrier, barrier / host["run_s"],
            max(busy) / statistics.mean(busy))


def per_layer(ref, traced, timed, parallel):
    sim, trace, host = ref["sim"], traced["trace"], ref["host"]
    med = statistics.median
    run_s = med(r["host"]["run_s"] for r in timed)
    busy_s = med(busy_total(r) for r in timed)
    if parallel:
        splits = [parallel_split(r) for r in parallel]
        par_run_s, barrier_s, barrier_share, imbalance = (
            med(s[i] for s in splits) for i in range(4))
    else:  # Unsharded: the one thread is the whole run, with no barrier.
        par_run_s, barrier_s, barrier_share, imbalance = run_s, 0.0, 0.0, 1.0
    ratio = lambda a, b: a / b if b else 0.0
    steps = trace["engine_steps"]
    return {
        "sim.events": (sim["events"], "count"),
        "sim.busy_s": (busy_s, "s"),
        "sim.ns_per_event": (busy_s / sim["events"] * 1e9, "ns"),
        "sim.parallel_run_s": (par_run_s, "s"),
        "sim.barrier_s": (barrier_s, "s"),
        "sim.barrier_share": (barrier_share, "ratio"),
        "sim.windows": (host["windows"], "count"),
        "sim.shard_imbalance": (imbalance, "ratio"),
        "net.messages": (sim["messages"], "count"),
        "net.cross_region_messages": (sim["cross_region_messages"], "count"),
        "net.mailbox_in": (sum(s["mailbox_in"] for s in host["shards"]),
                           "count"),
        "routing.decisions": (trace["route_decisions"], "count"),
        "routing.candidates_per_decision": (
            ratio(trace["route_candidates"], trace["route_decisions"]),
            "count"),
        "routing.probes": (trace["probes"], "count"),
        "routing.lb_queue_ms_mean": (trace["lb_queue_ms_mean"], "ms"),
        "routing.lb_queue_ms_p99": (trace["lb_queue_ms_p99"], "ms"),
        "core.forwards": (trace["forwards"], "count"),
        "core.forwarded_frac": (ratio(trace["forwarded_in_window"],
                                      trace["attributed_in_window"]), "ratio"),
        "replica.steps": (steps, "count"),
        "replica.decode_batch_mean": (ratio(trace["step_decode_seqs"], steps),
                                      "count"),
        "replica.prefill_tokens_per_step": (
            ratio(trace["step_prefill_tokens"], steps), "tokens"),
        "replica.stall_ms_mean": (trace["stall_ms_mean"], "ms"),
        "replica.stall_ms_p99": (trace["stall_ms_p99"], "ms"),
        "replica.prefill_ms_mean": (trace["prefill_ms_mean"], "ms"),
        "cache.hit_rate": (sim["cache_hit_rate"], "ratio"),
        "cache.evictions": (trace["cache_evictions"], "count"),
        "cache.evicted_blocks": (trace["evicted_blocks"], "count"),
        "memory.preemptions": (trace["preemptions"], "count"),
        "memory.swap_outs": (trace["swap_outs"], "count"),
        "memory.watermark_rejects": (trace["watermark_rejects"], "count"),
        "memory.util_mean": (ratio(trace["mem_util_sum"],
                                   trace["mem_samples"]), "ratio"),
        "workload.issued": (sim["issued"], "count"),
        "workload.prompt_tokens_mean": (
            ratio(trace["submit_prompt_tokens"], trace["submits"]), "tokens"),
        "workload.output_tokens_mean": (
            ratio(trace["complete_output_tokens"], trace["completes"]),
            "tokens"),
        "harness.replicas": (sim["replicas"], "count"),
        "harness.clients": (sim["clients"], "count"),
        "obs.trace_records": (trace["records"], "count"),
        "obs.trace_dropped": (trace["dropped"], "count"),
        "obs.trace_overhead": (traced["host"]["run_s"] / par_run_s, "ratio"),
    }


# --- driver -------------------------------------------------------------

def measure(workload, seed, seconds, traced):
    """Runs the workload; returns (metrics, ref, problems)."""
    start = time.monotonic()
    ref = run_child(workload, seed, "--collect")
    problems = check_run(ref, None)
    traced_run = None
    if traced:
        traced_run = run_child(workload, seed, "--collect", "--traced",
                               "--threads", str(PARALLEL_THREADS))
        problems += check_traced(traced_run, ref)
    # Per-layer runs alternate one-thread and parallel runs of the sharded
    # workloads; every run must reproduce the reference exactly.
    sharded = bool(ref["host"]["shards"])
    timed, parallel = [], []
    while (len(timed) < MIN_TIMED_RUNS or
           time.monotonic() - start < seconds):
        run = run_child(workload, seed)
        problems += check_run(run, ref)
        timed.append(run)
        if traced and sharded:
            run = run_child(workload, seed, "--threads", str(PARALLEL_THREADS))
            problems += check_run(run, ref)
            parallel.append(run)
    log(f"{workload} seed {seed}: {len(timed)} timed runs and "
        f"{len(parallel)} parallel runs in {time.monotonic() - start:.1f} s")
    if problems:
        return None, ref, sorted(set(problems))
    if traced:
        metrics = per_layer(ref, traced_run, timed, parallel)
        write_artifacts(workload, seed, metrics, traced_run)
    else:
        metrics = end_to_end(ref, timed)
    return metrics, ref, []


def write_artifacts(workload, seed, metrics, traced_run):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    with open(stem + ".layers.json", "w") as f:
        json.dump({"outcome_digest": traced_run["outcomes"]["digest"],
                   "metrics": {name: {"value": v, "unit": u}
                               for name, (v, u) in metrics.items()}},
                  f, indent=1)
    with open(stem + ".spans.json", "w") as f:
        json.dump(traced_run["spans"], f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        metrics, ref, problems = measure(args.workload, args.seed,
                                         args.seconds, args.trace == 1)
    except BenchError as exc:
        log(f"fleetbench: {exc}")
        return 1

    sim = ref["sim"]
    attempted, failed = sim["issued"], failed_count(sim)
    if problems:
        for problem in problems:
            log(f"CHECK FAILED: {problem}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    print(f"# {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    print(f"requests: {attempted} issued, {failed} failed "
          f"(failed_frac {failed / attempted:.6f}), "
          f"{sim['ttft_samples']} TTFT samples in the window, "
          f"outcome digest {ref['outcomes']['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
