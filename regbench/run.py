#!/usr/bin/env python3
"""Builds the diffreg library and the regbench driver from this checkout, runs
one benchmark workload in its own process, and prints the workload's result
as the last stdout line.

    python3 regbench/run.py --workload synth64_p2 --seed 1 --seconds 25 --trace 0
    python3 regbench/run.py --self-test

The build goes to .bench_build/regbench (Release, the repository's default
flags). The traced run (--trace 1) also writes its spans, as Chrome
trace-event JSON, to .bench_build/regbench/trace-<workload>-<seed>.json.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "regbench"
BINARY = BUILD / "regbench"
WORKLOADS = ("synth64_p2", "brain_iso_p1", "batch32x16_p4")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"regbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are not in this "
             "checkout; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4", "--target",
                  "regbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               check=True, timeout=840)
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired) as e:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {e}")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace, corrupt=None):
    """Runs the driver once; returns the parsed result object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}-{seed}.json")]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    missing = [m for m in expected_metrics(trace)
               if m not in result["metrics"]]
    if missing:
        fail(f"{workload} did not report {', '.join(missing)}")
    return result


def self_test():
    """Each check must catch a corrupted value: the run counts exactly one
    failed operation, finishes, and still reports every metric."""
    cases = [("batch32x16_p4", True, "fft"),
             ("batch32x16_p4", True, "halo"),
             ("batch32x16_p4", False, "job")]
    ok = True
    for workload, trace, corrupt in cases:
        clean = run(workload, 1, 1, trace)
        bad = run(workload, 1, 1, trace, corrupt)
        passed = (clean["failed"] == 0 and bad["failed"] == 1
                  and bad["attempted"] == clean["attempted"]
                  and bad["correct"])
        ok = ok and passed
        print(f"self-test corrupt={corrupt}: clean {clean['failed']}/"
              f"{clean['attempted']} failed, corrupted {bad['failed']}/"
              f"{bad['attempted']} failed -> {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
