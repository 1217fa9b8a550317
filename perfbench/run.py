#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list

Run from the root of the repository. The first run configures and
builds the runtime and the measuring program (perfbench/src) from
source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed.

Prints a result row (workload, seed, nproc, build type, revision, exact
per-op counts, baselines, every metric with its unit), then, as the last
line, {"correct", "attempted", "failed", "metrics"}. Rows are also
appended to <build dir>/results/rows.jsonl. --list prints every metric
the benchmark defines, with its unit.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "Release"
# The measuring program runs about seconds + 10 s; past this it is hung.
RUN_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures and builds dsperf (both incremental, well under a second
    when nothing changed); returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(out), "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    binary = out / "dsperf"
    return binary if binary.exists() else None


def revision():
    """The git revision when there is one, and a hash of the sources the
    benchmark builds (it identifies the code in a checkout without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    tree = digest.hexdigest()[:16]
    rev = ""
    if (ROOT / ".git").exists():  # never look above the checkout
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            rev = git.stdout.strip() if git.returncode == 0 else ""
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev or "unknown", tree


def check_exact_counts(results, row, tree):
    """Exact per-op counts must repeat across runs of the same code."""
    path = results / "exact_counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{tree}/{row['workload']}"
    counts = row["exact_counts"]
    if not counts:
        return True
    if key not in known:
        known[key] = counts
        path.write_text(json.dumps(known, indent=1, sort_keys=True))
        return True
    if known[key] != counts:
        row["errors"].append(
            f"exact counts {counts} differ from an earlier run's {known[key]}")
        return False
    return True


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args()

    if args.list:
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                print(f"{group:10} {m['name']:34} {m['unit']:6} {m['better']}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"dsperf exited with {run.returncode}")
        return 1
    row = json.loads(lines[-1])

    # The program must report exactly the metrics BENCHMARK.json names.
    group = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    got = {name: m["unit"] for name, m in row["metrics"].items()}
    if want != got:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))}")
        return 4

    rev, tree = revision()
    row.update({"build_type": BUILD_TYPE, "git_revision": rev,
                "source_tree": tree})
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    correct = row["correct"] and check_exact_counts(results, row, tree)
    row["correct"] = correct
    with open(results / "rows.jsonl", "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps(row, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": row["attempted"],
                      "failed": row["failed"], "metrics": row["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
