"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload briefly, untraced on two seeds and traced on one, each
in a fresh process.  It asserts that every metric named in BENCHMARK.json is
printed with its unit, that every operation passed its oracle check
(``ok_op_ratio`` is 1, i.e. the failed-operation ratio is 0), and that a
directory holding only BENCHMARK.json and the benchmark refuses to run.
Exits 0 when all checks hold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)
# length of each short run
SECONDS = 2


def run(cwd, workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec, workload, seed, seconds, trace):
    proc = run(ROOT, workload, seed, seconds, trace)
    label = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    printed = result["metrics"]
    for metric in wanted:
        got = printed.get(metric["name"])
        if got is None:
            problems.append(f"{label}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {metric['name']} printed as {got}")
    extra = set(printed) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    if not trace and printed.get("ok_op_ratio", {}).get("value") != 1.0:
        problems.append(f"{label}: ok_op_ratio {printed.get('ok_op_ratio')}")
    return problems


def check_bare_directory(workload):
    """Without the hpk sources the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_bare") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, workload, 1, 1, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            problems += check_run(spec, workload, seed, SECONDS, 0)
        problems += check_run(spec, workload, SEEDS[0], SECONDS, 1)
        print(f"checked {workload}", flush=True)
    problems += check_bare_directory(spec["workloads"][0]["name"])
    for line in problems:
        print("PROBLEM:", line)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
