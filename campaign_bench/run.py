#!/usr/bin/env python3
"""Whole-campaign FedGPO benchmark.

    python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the fedgpo libraries and the one-campaign runner (campaign.cc) in
Release mode under .bench_build/, then runs whole FedGPO campaigns, one
process per campaign, and prints one JSON result as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics on untraced campaigns
(FEDGPO_METRICS=off, FEDGPO_TRACE=off). A run is a panel of campaigns
whose seeds derive from --seed; the panel is sized from --seconds, and
its first campaign runs again at the end, which must reproduce its
weights digest and simulated values exactly. A short campaign warms the
host up first. The host-speed probe (probe.cc) runs before every
campaign and after the last; the host rates are reported per reference
second, i.e. scaled by the run's median probe time over PROBE_REF_S, so
a shared host's slow drift in speed cancels out of them.

--trace 1 runs the first campaign of the panel untraced and then traced
(FEDGPO_METRICS=profile), a few times over; every one must reproduce the
same outcome. It reports the per-layer metrics of the first traced
campaign, the median tracing overhead of the pairs, and prints the
attribution table (layer kinds and kernels: calls, inclusive ms, share
of training time, declared FLOPs, GF/s).

--smoke shortens every campaign to a few rounds (for the self-test).
Campaigns use as many worker threads as this process has CPUs. See
README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "campaign_bench")
BINARY = os.path.join(BUILD_DIR, "campaign")
PROBE = os.path.join(BUILD_DIR, "probe")

# Host seconds one campaign and its probe take on a 4-core AVX-512 Xeon
# (set-up included): an untraced run's panel holds about --seconds worth
# of campaigns. A traced run makes `pairs` untraced and traced campaigns
# of one seed. fleet-noniid is a diagnostic workload,
# not in BENCHMARK.json (README.md says why).
WORKLOADS = {
    "sync-mobilenet": {"campaign_s": 1.2, "smoke_rounds": 1, "pairs": 3},
    "async-lstm": {"campaign_s": 1.0, "smoke_rounds": 1, "pairs": 3},
    "fleet-noniid": {"campaign_s": 15.0, "smoke_rounds": 20, "pairs": 1},
}
MIN_PANEL = 2
# Campaign seeds are seed * SEED_STRIDE + i, so panels never overlap.
SEED_STRIDE = 256
MAX_SEED = (1 << 63) // SEED_STRIDE - 1
# Wall budget of one run's campaigns, after the build; every campaign is
# killed past it.
RUN_BUDGET_S = 170.0

STAGES = ["select", "train", "encode", "cost", "recover", "straggler",
          "aggregate", "energy", "evaluate"]
LAYER_KINDS = ["conv", "dwconv", "act", "pool", "dense", "recurrent",
               "reshape"]
KERNELS = ["matmul", "matmul_bias", "matmul_accum", "matmul_trans_a",
           "matmul_trans_b", "im2col", "col2im"]
DROP_REASONS = ["straggler", "diverged", "offline", "crashed",
                "upload_failed", "churned", "stale", "duplicate"]
# The probe's median seconds at 4 threads on the reference host. Host
# rates are scaled by (the run's median probe seconds / PROBE_REF_S):
# they read as if the host ran at the speed that gives that probe time.
PROBE_REF_S = 0.145
# Attribution must cover this share of pool busy time on sync-mobilenet.
MIN_COVERAGE = 0.90


def fail(message):
    """Exit non-zero without printing a result."""
    print("campaign_bench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the Release runner; quiet on success."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fedgpo sources at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    for target in ("campaign", "probe"):
        steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                      "--parallel", str(len(os.sched_getaffinity(0)))])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail("build failed; see " + log_path)


def manifest(threads, compiler, build_type, kernel_mode):
    """Provenance of a result: host, toolchain, build, source and knobs."""
    cpu_model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and cpu_model == "unknown":
                    cpu_model = value.strip()
                elif key == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    isa = sorted(f for f in flags
                 if re.match(r"^(sse\d.*|ssse3|avx.*|fma|f16c|bmi\d|amx.*)$",
                             f))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, cwd=ROOT)
        describe = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        describe = None
    return {
        "cpu_model": cpu_model,
        "isa_flags": isa,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "compiler": compiler,
        "build_type": build_type,
        "kernel_mode": kernel_mode,
        "git_describe": describe or "unavailable (not a git checkout)",
        "fedgpo_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("FEDGPO_")},
    }


def run_campaign(workload, seed, threads, traced, rounds, deadline):
    """One campaign process; returns its JSON or None when it failed."""
    env = dict(os.environ)
    env["FEDGPO_METRICS"] = "profile" if traced else "off"
    env["FEDGPO_TRACE"] = "off"
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads)]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if traced:
        cmd.append("--traced")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"campaign seed {seed}: killed after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if out.returncode != 0:
        print(f"campaign seed {seed}: exit {out.returncode}: "
              f"{out.stderr.strip()}", file=sys.stderr)
        return None
    try:
        result = json.loads(out.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"campaign seed {seed}: unreadable output", file=sys.stderr)
        return None
    if not result.get("finite"):
        print(f"campaign seed {seed}: non-finite accuracy or loss",
              file=sys.stderr)
        return None
    return result


def run_probe(threads, deadline):
    """One probe process; returns its seconds or None when it failed."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        out = subprocess.run([PROBE, "--threads", str(threads)],
                             capture_output=True, text=True, timeout=timeout)
        if out.returncode == 0:
            return json.loads(out.stdout.strip().splitlines()[-1])["probe_s"]
        print(f"probe: exit {out.returncode}: {out.stderr.strip()}",
              file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"probe: killed after {timeout:.0f} s", file=sys.stderr)
    except (ValueError, IndexError, KeyError):
        print("probe: unreadable output", file=sys.stderr)
    return None


# Values every rerun of one campaign seed must reproduce exactly.
REPRODUCED = ["digest", "final_accuracy", "sim_time_to_target_s",
              "sim_energy_to_target_kj", "dispatches", "reports", "dropped"]


def outcome(result):
    return {k: result[k] for k in REPRODUCED}


def cache_key(r):
    """A campaign's identity in the outcome cache: workload, seed and
    length, plus everything else that may change its numerics: the
    kernel mode the binary ran in and every FEDGPO_* knob of this run
    (FEDGPO_METRICS and FEDGPO_TRACE are set per campaign and must stay
    inert, so they are left out)."""
    knobs = ",".join(f"{k}={v}" for k, v in sorted(os.environ.items())
                     if k.startswith("FEDGPO_")
                     and k not in ("FEDGPO_METRICS", "FEDGPO_TRACE"))
    return (f"{r['workload']}/{r['seed']}/{r['rounds']}/"
            f"{r['kernel_mode']}/{knobs}")


def check_against_cache(results):
    """Compare each campaign with earlier runs of the same campaign (see
    cache_key) and binary, kept under .bench_build; returns the seeds
    that differ."""
    path = os.path.join(BUILD_DIR, "outcomes.json")
    with open(BINARY, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()[:16]
    try:
        with open(path) as f:
            cache = json.load(f)
    except (OSError, ValueError):
        cache = {}
    if cache.get("binary") != binary_id:
        cache = {"binary": binary_id, "outcomes": {}}
    differ = []
    for r in results:
        seen = cache["outcomes"].setdefault(cache_key(r), outcome(r))
        if seen != outcome(r):
            differ.append(r["seed"])
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(cache, f)
    os.replace(tmp, path)
    return differ


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_rates(campaigns):
    """Dispatches and train samples per host second, over campaigns."""
    host_s = sum(c["campaign_s"] for c in campaigns)
    return (sum(c["dispatches"] for c in campaigns) / host_s,
            sum(c["train_sample_epochs"] for c in campaigns) / host_s)


def end_to_end(panel, campaigns, probe_s):
    """End-to-end metrics: host rates over every campaign of the run per
    reference second (see PROBE_REF_S), medians of per-campaign set-up
    and memory, and the drop share over the panel's distinct seeds."""
    slowdown = statistics.median(probe_s) / PROBE_REF_S
    dispatches_per_s, samples_per_s = host_rates(campaigns)
    dispatches = sum(c["dispatches"] for c in panel)
    return {
        "dispatches_per_ref_s": metric(dispatches_per_s * slowdown, "1/s"),
        "train_samples_per_ref_s": metric(samples_per_s * slowdown, "1/s"),
        "setup_s": metric(
            statistics.median(c["setup_s"] for c in campaigns), "s"),
        "peak_rss_mb": metric(
            statistics.median(c["peak_rss_mb"] for c in campaigns), "MB"),
        "dropped_share": metric(
            sum(c["dropped"] for c in panel) / max(dispatches, 1),
            "fraction"),
    }


def histogram_quantile(h, q):
    """Quantile from cumulative buckets, linear within a bucket."""
    total = h["count"]
    if total == 0:
        return 0.0
    rank = q * total
    lower, below = 0.0, 0
    for bound, cum in zip(h["bounds"], h["cumulative"]):
        if cum >= rank:
            inside = cum - below
            frac = (rank - below) / inside if inside else 0.0
            return lower + (bound - lower) * frac
        lower, below = bound, cum
    return h["bounds"][-1] if h["bounds"] else 0.0


def attribution(t):
    """Per-kind and per-kernel rows from one traced campaign."""
    spans = t["spans"]
    train_samples = t["train_sample_epochs"]
    eval_samples = t["test_samples"] * t["rounds"]
    kinds = {k: {"calls": 0, "fwd_ms": 0.0, "bwd_ms": 0.0, "gflop": 0.0}
             for k in LAYER_KINDS}
    for layer in t["layers"]:
        idx = f"{layer['index']:02d}"
        row = kinds[layer["kind"]]
        fwd = spans.get(f"model.forward.{idx}_{layer_label(layer)}", {})
        bwd = spans.get(f"model.backward.{idx}_{layer_label(layer)}", {})
        row["calls"] += fwd.get("count", 0) + bwd.get("count", 0)
        row["fwd_ms"] += fwd.get("ms", 0.0)
        row["bwd_ms"] += bwd.get("ms", 0.0)
        # Declared FLOPs: forward over train and eval samples, backward
        # at twice the forward cost over train samples.
        flops = layer["flops_per_sample"]
        row["gflop"] += flops * (train_samples + eval_samples) / 1e9
        row["gflop"] += 2 * flops * train_samples / 1e9
    kernels = {k: {"calls": spans.get(f"kernel.{k}", {}).get("count", 0),
                   "ms": spans.get(f"kernel.{k}", {}).get("ms", 0.0)}
               for k in KERNELS}
    return kinds, kernels


def layer_label(layer):
    """The span suffix model.cc gives a layer (dwconv spans as conv)."""
    return "conv" if layer["kind"] == "dwconv" else layer["kind"]


def per_layer(t, untraced, overhead_pct, probe_s):
    """Per-layer metrics of one traced campaign, plus the outcome metrics
    that vary too much across seeds to carry a bound and the raw host
    rates of the untraced campaigns (see README.md)."""
    rounds = t["rounds"]
    dispatches_per_s, samples_per_s = host_rates(untraced)
    m = {"rounds_per_s": metric(statistics.median(
        u["rounds"] / u["campaign_s"] for u in untraced), "1/s"),
        "dispatches_per_s": metric(dispatches_per_s, "1/s"),
        "train_samples_per_s": metric(samples_per_s, "1/s"),
        "host.probe_s": metric(statistics.median(probe_s), "s")}
    for stage in STAGES:
        m[f"round.{stage}_ms"] = metric(t["stage_ms"][stage] / rounds, "ms")
    m["round.select_ms.late_over_early"] = metric(
        t["select_late_over_early"], "ratio")
    a = t["async"]
    for span in ("fill_ms", "pump_ms", "tail_ms"):
        m[f"async.{span}"] = metric(a[span] / rounds, "ms")
    m["async.dispatches"] = metric(a["dispatches"], "count")
    m["async.staleness_mean"] = metric(a["staleness_mean"], "versions")

    hist = t["histograms"]
    task = hist.get("pool.task_ms", {"count": 0, "sum": 0.0, "bounds": [],
                                      "cumulative": []})
    wait = hist.get("pool.queue_wait_ms", {"mean": 0.0})
    m["pool.utilization"] = metric(
        task["sum"] / (t["campaign_s"] * 1e3 * t["threads"]), "ratio")
    m["pool.queue_wait_ms"] = metric(wait["mean"], "ms")
    m["pool.task_ms_p50"] = metric(histogram_quantile(task, 0.5), "ms")

    kinds, kernels = attribution(t)
    layer_ms = 0.0
    for kind, row in kinds.items():
        ms = row["fwd_ms"] + row["bwd_ms"]
        layer_ms += ms
        m[f"nn.{kind}.fwd_ms"] = metric(row["fwd_ms"], "ms")
        m[f"nn.{kind}.bwd_ms"] = metric(row["bwd_ms"], "ms")
        m[f"nn.{kind}.gflops"] = metric(
            row["gflop"] / (ms / 1e3) if ms > 0 else 0.0, "GF/s")
    update_ms = t["spans"].get("model.update", {}).get("ms", 0.0)
    m["nn.update_ms"] = metric(update_ms, "ms")
    kernel_ms = sum(k["ms"] for k in kernels.values())
    m["nn.non_kernel_ms"] = metric(layer_ms - kernel_ms, "ms")
    for name, row in kernels.items():
        m[f"kernel.{name}.ms"] = metric(row["ms"], "ms")
        m[f"kernel.{name}.calls"] = metric(row["calls"], "count")

    for call in ("choose", "assign", "feedback"):
        p = t["policy"][call]
        m[f"policy.{call}_us"] = metric(
            p["us"] / p["calls"] if p["calls"] else 0.0, "us")
    for part in ("dataset", "partition", "model"):
        m[f"setup.{part}_s"] = metric(t["setup_breakdown"][part + "_s"], "s")
    m["fleet.peak_resident"] = metric(t["fleet"]["peak_resident"], "count")
    m["fleet.resident_bytes"] = metric(t["fleet"]["resident_bytes"], "B")
    m["fleet.evictions"] = metric(
        t["counters"].get("fleet.evictions", 0), "count")
    m["comm.bytes_up_per_dispatch"] = metric(
        t["bytes_up"] / max(t["dispatches"], 1), "B")
    m["comm.upload_retries"] = metric(t["upload_retries"], "count")
    for reason in DROP_REASONS:
        m[f"dropped.{reason}"] = metric(t["dropped_by"][reason], "count")
    m["final_accuracy"] = metric(t["heldout_accuracy"], "fraction")
    m["sim_time_to_target_s"] = metric(t["sim_time_to_target_s"], "s")
    m["sim_energy_to_target_kj"] = metric(t["sim_energy_to_target_kj"],
                                          "kJ")
    m["obs.profile_overhead_pct"] = metric(overhead_pct, "%")
    coverage = (layer_ms + update_ms) / task["sum"] if task["sum"] else 0.0
    return m, coverage


def print_attribution(t, coverage):
    kinds, kernels = attribution(t)
    rows = []
    for kind, row in kinds.items():
        ms = row["fwd_ms"] + row["bwd_ms"]
        if row["calls"]:
            rows.append((f"nn.{kind}", row["calls"], ms, row["gflop"]))
    for name, row in kernels.items():
        if row["calls"]:
            rows.append((f"kernel.{name}", row["calls"], row["ms"], None))
    update = t["spans"].get("model.update", {})
    rows.append(("nn.update", update.get("count", 0), update.get("ms", 0.0),
                 None))
    train_ms = sum(r["fwd_ms"] + r["bwd_ms"] for r in kinds.values())
    train_ms += update.get("ms", 0.0)
    print(f"attribution: {t['workload']} seed {t['seed']}, "
          f"{t['rounds']} rounds, {t['threads']} threads; share of "
          f"training time = share of layer + update spans "
          f"({train_ms:.1f} ms)")
    print(f"{'span':<24}{'calls':>10}{'incl ms':>12}{'share':>8}"
          f"{'GFLOP':>10}{'GF/s':>8}")
    for name, calls, ms, gflop in rows:
        share = ms / train_ms if train_ms else 0.0
        flop_cols = (f"{gflop:>10.2f}{gflop / (ms / 1e3):>8.2f}"
                     if gflop and ms else f"{'-':>10}{'-':>8}")
        print(f"{name:<24}{calls:>10}{ms:>12.1f}{share:>8.1%}{flop_cols}")
    print(f"layer + update spans cover {coverage:.1%} of pool busy time")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not 0 <= args.seed <= MAX_SEED:
        fail(f"--seed must lie in [0, {MAX_SEED}]")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.trace == 0:
        for knob in ("FEDGPO_METRICS", "FEDGPO_TRACE"):
            if os.environ.get(knob, "off") not in ("", "off"):
                fail(f"refusing an untraced run with {knob}="
                     f"{os.environ[knob]}")
    t_start = time.monotonic()
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    spec = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    rounds = spec["smoke_rounds"] if args.smoke else 0
    first_seed = args.seed * SEED_STRIDE

    failed = 0
    checks_ok = True
    if args.trace == 0:
        size = max(MIN_PANEL, round(args.seconds / spec["campaign_s"]))
        if args.smoke:
            size = 1
        probe_s = []

        def probed_campaign(seed):
            p = run_probe(threads, deadline)
            if p is not None:
                probe_s.append(p)
            return run_campaign(args.workload, seed, threads, False, rounds,
                                deadline)

        # Warm-up, not measured: one short campaign and a probe.
        run_campaign(args.workload, first_seed, threads, False,
                     spec["smoke_rounds"], deadline)
        run_probe(threads, deadline)
        panel = []
        for i in range(size):
            r = probed_campaign(first_seed + i)
            if r is None:
                failed += 1
            else:
                panel.append(r)
        campaigns = list(panel)
        # Rerun the first seed: it must reproduce its outcome exactly.
        rerun = probed_campaign(first_seed)
        p = run_probe(threads, deadline)
        if p is not None:
            probe_s.append(p)
        if rerun is None:
            failed += 1
        elif not panel or panel[0]["seed"] != first_seed or \
                outcome(panel[0]) != outcome(rerun):
            print("rerun of seed {} did not reproduce its outcome"
                  .format(first_seed), file=sys.stderr)
            failed += 1
        else:
            campaigns.append(rerun)
        attempted = size + 1
        differ = check_against_cache(campaigns)
        if differ:
            print(f"seeds {differ} differ from earlier runs of this binary",
                  file=sys.stderr)
            failed += len(differ)
        if not panel:
            fail("every campaign failed")
        if not probe_s:
            fail("every probe failed")
        metrics = end_to_end(panel, campaigns, probe_s)
        dispatches_per_s, samples_per_s = host_rates(campaigns)
        host = {"dispatches_per_s": dispatches_per_s,
                "train_samples_per_s": samples_per_s,
                "probe_s_median": statistics.median(probe_s),
                "probes": len(probe_s)}
        reference = panel[0]
    else:
        pairs = 1 if args.smoke else spec["pairs"]
        attempted = 2 * pairs
        ratios, traced_runs, untraced_runs = [], [], []
        reference_outcome = None
        probe_s = []
        for _ in range(pairs):
            p = run_probe(threads, deadline)
            if p is not None:
                probe_s.append(p)
            pair = [run_campaign(args.workload, first_seed, threads,
                                 profiled, rounds, deadline)
                    for profiled in (False, True)]
            for r in pair:
                if r is None:
                    failed += 1
                    continue
                reference_outcome = reference_outcome or outcome(r)
                if outcome(r) != reference_outcome:
                    print("profiling or a rerun changed the campaign's "
                          "outcome", file=sys.stderr)
                    failed += 1
            if None not in pair:
                ratios.append(pair[1]["campaign_s"] / pair[0]["campaign_s"])
                untraced_runs.append(pair[0])
                traced_runs.append(pair[1])
        if not traced_runs:
            fail("no traced campaign completed")
        if check_against_cache(untraced_runs[:1]):
            print(f"seed {first_seed} differs from earlier runs of this "
                  "binary", file=sys.stderr)
            failed += 1
        traced = traced_runs[0]
        overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
        if not probe_s:
            fail("every probe failed")
        metrics, coverage = per_layer(traced, untraced_runs, overhead_pct,
                                      probe_s)
        print_attribution(traced, coverage)
        if args.workload == "sync-mobilenet" and coverage < MIN_COVERAGE:
            print(f"attribution covers {coverage:.1%} of pool busy time, "
                  f"under {MIN_COVERAGE:.0%}", file=sys.stderr)
            checks_ok = False
        reference = traced
        host = {"probe_s_median": statistics.median(probe_s),
                "probes": len(probe_s)}

    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            print(f"metric {name} is not a finite number", file=sys.stderr)
            checks_ok = False
    info = {
        "manifest": manifest(threads, reference["compiler"],
                             reference["build_type"],
                             reference["kernel_mode"]),
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host,
        "elapsed_s": time.monotonic() - t_start,
    }
    print(json.dumps(info))
    result = {"correct": failed == 0 and checks_ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
