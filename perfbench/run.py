#!/usr/bin/env python3
"""Build the library and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <offline_sweep|engine_replay|served>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a uatm source tree.  It configures an
optimised build of perfbench/ (which compiles ../src and the shipped
uatm_served) under .bench_build/perfbench, checks the benchmark's own
helpers with perfbench_selftest, and runs perfbench.  Its output is
passed through; the last line is the result object.
Anything else the run writes stays under .bench_build/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("offline_sweep", "engine_replay", "served")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """SHA-256 over the library and daemon sources, for the run record
    when the tree is not a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id(root):
    """HEAD when root is itself a git work tree, else a source digest."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(root):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "source-" + source_digest(root)


def build(root, build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as handle:
                    sys.stderr.write(handle.read()[-4000:])
                fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "tools/uatm_served.cc",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a uatm source tree ({needed} "
                 "is missing)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    bench_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(bench_root, "perfbench")
    # Keep the compiler's and the benchmark's temporary files in the tree.
    os.environ["TMPDIR"] = os.path.join(bench_root, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    build(root, build_dir)

    work_dir = os.path.join(bench_root, "run",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    spans_dir = os.path.join(bench_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    try:
        selftest = subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest"),
             os.path.join(work_dir, "selftest")],
            capture_output=True, text=True, timeout=120)
        if selftest.returncode != 0:
            sys.stderr.write(selftest.stdout + selftest.stderr)
            fail("benchmark self-test failed")
        command = [
            os.path.join(build_dir, "perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--served-bin", os.path.join(build_dir, "uatm_served"),
            "--work-dir", work_dir,
            "--commit", commit_id(root),
        ]
        if args.trace:
            command += ["--spans", os.path.join(
                spans_dir, f"{args.workload}-seed{args.seed}.json")]
        sys.stdout.flush()
        # Its own process group, so a timed-out run and the daemon it
        # spawned are stopped together.
        bench = subprocess.Popen(command, start_new_session=True)
        try:
            code = bench.wait(timeout=170)
        except subprocess.TimeoutExpired:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
            fail("perfbench did not finish within 170 s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
