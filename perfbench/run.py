#!/usr/bin/env python3
"""Repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload coordd_large --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the ftlcoord libraries, the ftlcoordd
daemon and the perfbench measuring binary from source (Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload. perfbench/workloads.json describes each workload (loop, offered
rate, connections, latency limit) and maps each per-layer metric to the
end-to-end metric it should move.

The last stdout line is the result JSON ({"correct", "attempted", "failed",
"metrics"}); untraced runs report the end-to-end metrics, traced runs
(--trace 1) the per-layer metrics, and write their span file next to the
build. The exit code is nonzero when the build fails, the sources are
missing, or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for needed in ("src/CMakeLists.txt", "tools/ftlcoordd/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"missing {needed}: run from a full source checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "ftlcoordd", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "ftl", "ftlcoordd", "ftlcoordd"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (have {', '.join(workloads)})")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    runner, daemon = build(build_dir)

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
