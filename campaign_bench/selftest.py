#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

    python3 campaign_bench/selftest.py

Checks, in about a minute on 4 cores:
  1. BENCHMARK.json is well formed (keys, name/unit syntax, bounds);
  2. every workload's smoke run, untraced and traced, prints a last line
     with exactly correct/attempted/failed/metrics, every metric of
     BENCHMARK.json with its unit and a finite value, and correct=true;
  3. the final-weights digest and simulated outcome of a campaign are
     the same at 1 thread and at every CPU (the thread-invariance
     contract);
  4. a run with FEDGPO_FAST_MATH=1 after default-mode runs of the same
     seed, and a default-mode run after it, both read correct=true: the
     check against earlier runs compares campaigns of one kernel mode;
  5. run.py refuses an untraced run with FEDGPO_METRICS on, and fails
     without a result in a directory holding only BENCHMARK.json and
     campaign_bench/.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark itself, for its paths and outcome)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(bench["run_seconds"], int)
          and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w}")
        check(w["name"] in run.WORKLOADS, f"run.py knows {w['name']}")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"metric {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    check(1 <= len(bench["per_layer"]) <= 128, "per_layer count")
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"metric {m}")
    every = names + [m["name"] for m in bench["end_to_end"]
                     + bench["per_layer"]]
    check(len(every) == len(set(every)), "names are used once")
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"])
              and m["better"] in ("higher", "lower"), f"syntax of {m}")
    return bench


def run_bench(workload, trace, env=None, cwd=ROOT):
    cmd = [sys.executable, "campaign_bench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=180)


def check_result(out, expected, label):
    check(out.returncode == 0, f"{label}: exit {out.returncode}\n"
          + out.stderr)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(result["correct"] is True, f"{label}: correct\n" + out.stderr)
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{label}: counts")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"{label}: metric names and units")
    for name, m in result["metrics"].items():
        check(set(m) == {"value", "unit"} and not isinstance(m["value"], bool)
              and isinstance(m["value"], (int, float))
              and math.isfinite(m["value"]), f"{label}: value of {name}")


def main():
    bench = check_benchmark_json()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layer)):
            check_result(run_bench(w["name"], trace), expected,
                         f"{w['name']} trace {trace}")
            print(f"ok: {w['name']} smoke run, trace {trace}")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, FEDGPO_METRICS="off", FEDGPO_TRACE="off")
    for w in bench["workloads"]:
        outcomes = []
        for threads in (1, nproc):
            out = subprocess.run(
                [run.BINARY, "--workload", w["name"], "--seed", "11",
                 "--threads", str(threads), "--rounds", "2"],
                capture_output=True, text=True, env=env, timeout=180)
            check(out.returncode == 0, f"campaign at {threads} threads")
            outcomes.append(run.outcome(json.loads(out.stdout)))
        check(outcomes[0] == outcomes[1],
              f"{w['name']}: outcome differs between 1 and {nproc} threads")
        print(f"ok: {w['name']} digest {outcomes[0]['digest']} at 1 and "
              f"{nproc} threads")

    name = bench["workloads"][0]["name"]
    default_env = {k: v for k, v in os.environ.items()
                   if k != "FEDGPO_FAST_MATH"}
    for label, env in (("FEDGPO_FAST_MATH=1",
                        dict(default_env, FEDGPO_FAST_MATH="1")),
                       ("the default kernel mode", default_env)):
        check_result(run_bench(name, 0, env=env), e2e,
                     f"{name} trace 0 with {label}")
        print(f"ok: {name} smoke run with {label} after runs in the "
              "other mode")

    refused = run_bench(name, 0, env=dict(os.environ,
                                          FEDGPO_METRICS="basic"))
    check(refused.returncode != 0 and not refused.stdout.strip(),
          "untraced run with FEDGPO_METRICS=basic is refused")
    print("ok: untraced run refused with FEDGPO_METRICS=basic")

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "campaign_bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(name, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and not out.stdout.strip(),
          "run without the sources fails without a result")
    print("ok: run without the sources fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
