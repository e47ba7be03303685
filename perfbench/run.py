#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The harness (perfbench/harness) and the simulator library (src/) are built
with CMake into .bench_build/ at the repository root; later runs only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the harness's JSON result.  See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
PINNED = os.path.join(HERE, "pinned_digests.txt")
WORKLOADS = ("paper_suite", "bigcluster", "serve_mix")


def build():
    generator = ["-G", "Ninja"] if _have("ninja") else []
    _run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    _run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _run(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: '%s' failed with code %d" % (" ".join(command), result.returncode))


def source_revision():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
        if commit:
            return commit
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests instead of a workload")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    command = [BINARY, "--pinned=" + PINNED, "--seed=%d" % args.seed]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload=" + args.workload, "--seconds=%g" % args.seconds,
                    "--trace=%d" % args.trace, "--commit=" + source_revision()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
