#!/usr/bin/env python3
"""Layer-isolating planner benchmark.

Builds perfbench/ (the repository's src/ modules plus the qp_perfbench
program) into .bench_build/perfbench, runs one workload as a single-process
closed loop, checks every job's output and the exact-count ledger, and
prints every metric by name and unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload plan-161 --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics from an untraced run; --trace 1
reports the per-layer metrics from a run whose second half records the
benchmark's own spans, the program's obs counters and its Chrome trace.
Workloads, metrics and the per-layer -> end-to-end map are described in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path

# Workload -> the layer that does most of its job time, and the layers that
# must stay (nearly) idle in it. run.py prints the shares; the coverage test
# (perfbench/test_layer_coverage.py) asserts them across workloads.
WORKLOADS = {
    "plan-161": {"dominant": "search", "idle": ["iterative", "sim"]},
    "replan-161": {"dominant": "iterative", "idle": ["search", "sim"]},
    "storm-500": {"dominant": "sim", "idle": ["search", "lp", "iterative"]},
}
LAYERS = ["search", "lp", "iterative", "sim"]

WORKERS = "2"
BINARY_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds qp_perfbench; returns the binary path."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "qp_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "qp_perfbench"


def pinned_env(trace):
    env = dict(os.environ)
    for var in ("QP_OBS_EXPORT", "QP_TRACE", "QP_TIMESERIES"):
        env.pop(var, None)
    env["QP_THREADS"] = WORKERS
    env["QP_OBS"] = "1" if trace else "0"
    return env


def percentile(values, p):
    """Linear-interpolation percentile (statistics.quantiles 'inclusive')."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_ledger(ledger_dir, workload, seed, digest, jobs):
    """Compares each spec's exact values with earlier runs of the same
    binary and seed; returns the mismatching specs and stores the union."""
    ledger_dir.mkdir(parents=True, exist_ok=True)
    path = ledger_dir / f"{workload}-{seed}.json"
    stored = {}
    if path.exists():
        data = json.loads(path.read_text())
        if data.get("binary") == digest:
            stored = data["specs"]
    mismatches = []
    for job in jobs:
        if not job["ok"]:
            continue
        spec = str(job["spec"])
        entry = dict(job["ledger"])
        entry.update({f"obs.{k}": v for k, v in job["obs"].items()})
        old = stored.get(spec)
        if old is None:
            stored[spec] = entry
            continue
        for key in set(old) & set(entry):
            if old[key] != entry[key]:
                mismatches.append((spec, key, old[key], entry[key]))
        old.update(entry)
    path.write_text(json.dumps({"binary": digest, "specs": stored}, sort_keys=True))
    return mismatches


def load_trace(path):
    text = Path(path).read_text().rstrip()
    if not text.endswith("]"):
        text = text.rstrip(",") + "]"
    return json.loads(text)


def trace_job_spans(doc, traced_jobs):
    """Per traced job: program span time on the client thread, by name."""
    events = load_trace(doc["trace_path"])
    marker = next(e for e in events if e["name"] == "perfbench.marker")
    offset = marker["ts"] - doc["trace_marker_us"]
    client = [e for e in events if e["tid"] == marker["tid"]]
    client.sort(key=lambda e: e["ts"])
    starts = [e["ts"] for e in client]
    job_span = {s[4]: s for s in doc["spans"] if s[0] == "job"}
    per_job = {}
    for job in traced_jobs:
        span = job_span[job["id"]]
        t0, t1 = span[1] + offset - 2, span[2] + offset + 2
        totals = {}
        for e in client[bisect_left(starts, t0):]:
            if e["ts"] > t1:
                break
            if e["ts"] + e["dur"] <= t1:
                totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] / 1000.0
        per_job[job["id"]] = totals
    return per_job


def histogram_sum_estimate(metric):
    """Total of a log2-bucketed histogram, each sample at its bucket's
    geometric midpoint (buckets span [upper/2, upper))."""
    total = 0.0
    for count, upper in zip(metric["buckets"], metric["upper"]):
        if count:
            total += count * upper / (2 ** 0.5)
    return total


def end_to_end(doc, measure, core):
    ms = [j["ms"] for j in measure]
    core_jobs = [j for j in measure if j["spec"] < core]
    return {
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "jobs_per_s": (1000.0 * len(ms) / sum(ms), "1/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p75": (percentile(ms, 75), "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "plan_response_ms": (statistics.fmean(j["plan_ms"] for j in core_jobs), "ms"),
    }


def per_layer(doc, untraced, traced, core):
    n = len(traced)
    core_jobs = [j for j in traced if j["spec"] < core]

    def layer_sum(jobs, name):
        return sum(j["layer_ms"].get(name, 0.0) for j in jobs)

    def count_sum(jobs, name):
        return sum(j["counts"].get(name, 0.0) for j in jobs)

    def obs_sum(jobs, name):
        return sum(j["obs"].get(name, 0) for j in jobs)

    def ratio(num, den):
        return num / den if den else 0.0

    spans = trace_job_spans(doc, traced)
    lp_ms = {j["id"]: spans[j["id"]].get("lp.strategy.optimize", 0.0) for j in traced}
    search_self = sum(spans[j["id"]].get("core.local_search.delta", 0.0)
                      - spans[j["id"]].get("core.local_search.pass", 0.0) for j in traced)
    iterative_self = sum(j["layer_ms"].get("core.iterative_ms", 0.0) - lp_ms[j["id"]]
                         for j in traced if "core.iterative_ms" in j["layer_ms"])
    wall = sum(j["ms"] for j in traced)
    lp_total = sum(lp_ms.values())
    shares = {
        "search": layer_sum(traced, "core.placement_ms") + layer_sum(traced, "core.search_ms"),
        "lp": lp_total,
        "iterative": iterative_self,
        "sim": layer_sum(traced, "sim.fault_schedule_ms") + layer_sum(traced, "sim.engine_ms"),
    }
    metrics_by_name = {m["name"]: m for m in doc["phases"][-1]["metrics"]}
    wait = metrics_by_name.get("common.thread_pool.caller_wait_ms")
    candidates = obs_sum(traced, "core.local_search.candidates")
    warm_hit = obs_sum(traced, "lp.strategy.warm_start_hit")
    warm_miss = obs_sum(traced, "lp.strategy.warm_start_miss")
    requests = count_sum(traced, "sim.requests_simulated")
    p50_untraced = statistics.median(j["ms"] for j in untraced)
    p50_traced = statistics.median(j["ms"] for j in traced)
    storm = doc["workload"] == "storm-500"
    out = {
        "net.scenario_ms": (doc["setup_layers"].get("net.scenario_ms", 0.0), "ms"),
        "core.placement_ms": (layer_sum(traced, "core.placement_ms") / n, "ms"),
        "core.search_ms": (layer_sum(traced, "core.search_ms") / n, "ms"),
        "core.search_us_per_candidate": (
            ratio(1000.0 * layer_sum(traced, "core.search_ms"), candidates), "us"),
        "core.search_moves": (count_sum(core_jobs, "core.search_moves"), "count"),
        "core.search_candidates": (obs_sum(core_jobs, "core.local_search.candidates"), "count"),
        "core.delta_fast_path_ratio": (
            ratio(obs_sum(traced, "core.delta_eval.fast_path"),
                  obs_sum(traced, "core.delta_eval.candidates")), "ratio"),
        "core.search_setup_self_ms": (search_self / n, "ms"),
        "core.strategy_lp_ms": (layer_sum(traced, "core.strategy_lp_ms") / n, "ms"),
        "lp.us_per_iteration": (
            ratio(1000.0 * lp_total, obs_sum(traced, "lp.strategy.iterations")), "us"),
        "lp.iterations": (obs_sum(core_jobs, "lp.strategy.iterations"), "count"),
        "lp.refactorizations": (obs_sum(core_jobs, "lp.revised.refactorizations"), "count"),
        "lp.solver_revised_share": (
            ratio(obs_sum(traced, "lp.strategy.solver_revised"),
                  obs_sum(traced, "lp.strategy.solves")), "ratio"),
        "core.iterative_ms": (layer_sum(traced, "core.iterative_ms") / n, "ms"),
        "core.iterative_self_ms": (iterative_self / n, "ms"),
        "core.iterative_rounds": (count_sum(core_jobs, "core.iterative_rounds"), "count"),
        "core.iterative_lp_iterations": (
            count_sum(core_jobs, "core.iterative_lp_iterations"), "count"),
        "core.iterative_warm_hit_ratio": (ratio(warm_hit, warm_hit + warm_miss), "ratio"),
        "sim.engine_ms": (layer_sum(traced, "sim.engine_ms") / n, "ms"),
        "sim.ns_per_request": (ratio(1e6 * layer_sum(traced, "sim.engine_ms"), requests), "ns"),
        "sim.fault_schedule_ms": (layer_sum(traced, "sim.fault_schedule_ms") / n, "ms"),
        "sim.requests_simulated": (count_sum(core_jobs, "sim.requests_simulated"), "count"),
        "sim.retry_ratio": (
            ratio(count_sum(core_jobs, "sim.retries"),
                  count_sum(core_jobs, "sim.requests_simulated")), "ratio"),
        "sim.degraded_p99_ms": (
            statistics.fmean(j["plan_ms"] for j in core_jobs) if storm else 0.0, "ms"),
        "common.pool_caller_wait_ms": (
            histogram_sum_estimate(wait) / n if wait else 0.0, "ms"),
        "common.pool_jobs": (obs_sum(traced, "common.thread_pool.jobs") / n, "count"),
        "trace_overhead_pct": (100.0 * (p50_traced / p50_untraced - 1.0), "%"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}_pct"] = (100.0 * ratio(shares[layer], wall), "%")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {root}/src; run from a full checkout")
    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    digest = file_digest(binary)
    out_dir = build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=pinned_env(args.trace), capture_output=True,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"qp_perfbench did not finish within {BINARY_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"qp_perfbench exited with {proc.returncode}")
    doc = json.loads(proc.stdout)
    log(f"perfbench: {args.workload} seed {args.seed} ran {time.monotonic() - started:.1f} s")

    core = doc["core_specs"]
    phases = {p["name"]: p for p in doc["phases"]}
    job_id = 0
    for phase in doc["phases"]:
        for job in phase["jobs"]:
            job["id"] = job_id
            job_id += 1
    jobs = [j for p in doc["phases"] for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    for job in failed[:5]:
        log(f"perfbench: job spec {job['spec']} failed: {job['error']}")
    mismatches = check_ledger(build_dir / "ledger", args.workload, args.seed, digest, jobs)
    for spec, key, old, new in mismatches[:5]:
        log(f"perfbench: ledger mismatch spec {spec} {key}: {old} != {new}")
    measured = phases["traced" if args.trace else "measure"]["jobs"]
    covered = {j["spec"] for j in measured if j["ok"]} >= set(range(core))

    if args.trace:
        metrics = per_layer(doc, phases["untraced"]["jobs"], measured, core)
        info = WORKLOADS[args.workload]
        shares = {layer: metrics[f"layer.{layer}_pct"][0] for layer in LAYERS}
        print("layer shares of job time (%): "
              + ", ".join(f"{k} {v:.1f}" for k, v in shares.items())
              + f"; dominant {info['dominant']}")
    else:
        metrics = end_to_end(doc, measured, core)
    result_env = dict(doc["env"], workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, binary_sha256=digest)
    print("env: " + json.dumps(result_env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        samples = f" ({len(measured)} samples)" if name == "job_ms_p75" else ""
        print(f"{name} = {value:.6g} {unit}{samples}")

    result = {
        "correct": not failed and not mismatches and covered,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(dict(result, env=result_env), sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
