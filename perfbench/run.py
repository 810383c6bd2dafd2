#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload rct-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (the simulator sources in src/ plus the benchmark) into
.bench_build/perfbench; later calls reuse that build. The benchmark's own
output is passed through; its last line is one JSON object with the keys
correct, attempted, failed and metrics, checked here against the metric
names and units BENCHMARK.json declares. Exit status is 0 only when the
build, every correctness check and that comparison succeed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "exp" / "fleet_trial.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)
    return BUILD_DIR / "perfbench"


def source_version():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10,
                                  check=False)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    metrics = result.get("metrics", {})
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"missing metric {entry['name']}")
        elif got.get("unit") != entry["unit"]:
            problems.append(f"{entry['name']}: unit {got.get('unit')!r}, "
                            f"declared {entry['unit']!r}")
    names = {entry["name"] for entry in declared}
    problems += [f"undeclared metric {name}" for name in metrics
                 if name not in names]
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny-size runs of every workload checking "
                             "metrics, thread invariance and the "
                             "correctness check itself")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    binary = build()
    env = dict(os.environ, PERFBENCH_COMMIT=source_version())
    if args.selftest:
        command = [str(binary), "--selftest"]
    else:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--work-dir", str(WORK_DIR)]
        if args.trace:
            command += ["--spans-out",
                        str(SPANS_DIR / f"{args.workload}.csv")]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s", 5)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        return done.returncode
    if args.selftest:
        return 0
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("the last output line is not a JSON result", 4)
    problems = check_metrics(result, args.trace)
    if problems:
        fail("; ".join(problems), 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
