#!/usr/bin/env python3
"""Build and run one benchmark workload against the replicated store.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark package (perfbench/) compiles
the serving path from ../src into the build directory named by
CARGO_TARGET_DIR, or .bench_build, then runs qcnt_perf. The last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it carry the
run's detail (resolved config, host fingerprint, sample counts, checks).
A copy of all of it is written to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SOURCE_ROOT = HERE.parent
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Store knobs read from the environment; a CI matrix that sets them would
# silently change the program under test. The binary clears them too.
CLEARED_ENV = ("QCNT_SHARDS", "QCNT_WORKERS", "QCNT_STRATEGY",
               "QCNT_FAULT_SEED", "QCNT_TCP_PORT_BASE")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configure (once) and build; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), *gen,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {' '.join(cmd)}: {e}")
        if r.returncode != 0:
            # A failed configure leaves a cache that would skip it next time.
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"build step failed: {' '.join(cmd)}")


def fingerprint():
    """What identifies the code measured: the git commit when the checkout is
    a repository, and always a digest of the sources compiled."""
    sha = "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SOURCE_ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for root in (SOURCE_ROOT / "src", HERE):
        for p in sorted(root.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(p.relative_to(SOURCE_ROOT)).encode())
                digest.update(p.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "build_type": BUILD_TYPE, "nproc": os.cpu_count()}


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    spec = SOURCE_ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    bench = json.loads(spec.read_text())
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own test")
    args = ap.parse_args()

    out = build_dir()
    build(out)
    if args.self_test:
        sys.exit(subprocess.run([str(out / "perfbench_selftest")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    results = pathlib.Path(".bench_out")
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(out / "qcnt_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"spans-{args.workload}.tsv")]
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    started = time.monotonic()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"qcnt_perf exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("qcnt_perf did not end with a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(want - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - want)}")

    host = fingerprint()
    host["wall_s"] = round(time.monotonic() - started, 3)
    detail = None
    if lines[0].startswith("detail "):
        detail = json.loads(lines[0][len("detail "):])
    (results / f"{stem}.json").write_text(json.dumps(
        {"fingerprint": host, "detail": detail, "result": result}, indent=1))
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(host))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
