#!/usr/bin/env python3
"""Builds rxd and the benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-fig6 --seed 1 --seconds 20 --trace 0

Workloads: serve-fig6, edit-store. Build output goes to
stderr; the benchmark's last line of stdout is its JSON result. Build
artifacts go to $CARGO_TARGET_DIR (default .bench_build), runtime files
to .perfbench_work.
"""

import os
import subprocess
import sys


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def probe(cmd):
    """First line of a command's output, or 'unknown'."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else "unknown"


def main():
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("perfbench: run from the repository root, which holds the sources to build")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    run_quiet(["cargo", "build", "--release", "--offline", "-q", "--bin", "rxd"])
    run_quiet(["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", "perfbench/Cargo.toml"])
    env = dict(os.environ)
    # Only this directory's own history names the commit: a checkout
    # without one must not report an enclosing repository's.
    env["PERFBENCH_COMMIT"] = (probe(["git", "rev-parse", "--short", "HEAD"])
                               if os.path.exists(".git") else "unknown")
    env["PERFBENCH_RUSTC"] = probe(["rustc", "--version"])
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--rxd", os.path.join(release, "rxd"), "--work", ".perfbench_work"]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
