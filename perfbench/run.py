#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see LAYERS.md).

    python3 perfbench/run.py --workload travel_fo --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The library and the benchmark binary are
built from the checkout's sources into $CARGO_TARGET_DIR (default
.bench_build) on every run; a rebuild with nothing changed is a no-op.
The binary's standard output passes through unchanged, so its last line
is the result: {"correct", "attempted", "failed", "metrics"}. Build output
goes to standard error. Exits non-zero if the build fails or the
benchmark finds a failed session or a wrong output.

Extra flags (--dump-inputs, --break-oracle) go to the binary; the
benchmark's own tests use them (test_perfbench.py).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("travel_fo", "catalog_ucq", "cart_wal", "analysis")


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds swsbench; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "swsbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    return os.path.join(out, "swsbench")


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    src/."""
    try:
        if os.path.isdir(os.path.join(ROOT, ".git")):
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return "git:" + head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/; nothing to build",
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir(), "work")]
    if "--dump-inputs" not in extra:
        command += ["--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(command + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
