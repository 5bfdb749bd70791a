#!/usr/bin/env python3
"""Builds the server and the benchmark from source, then runs bench_report.

    python3 bench_report/run.py --workload serve_mixed --seed 3 --seconds 20 --trace 0

Every argument is passed to the bench_report binary (see README.md next to
this file). Both builds are offline release builds into CARGO_TARGET_DIR
(default: .bench_build at the repository root), so the first run compiles
and later runs only check that nothing changed. Build output goes to stderr;
stdout carries the benchmark's own lines, the last one being its summary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.stderr.write("bench_report: no repository sources at %s; nothing to build\n" % ROOT)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Temporary files of the build stay inside the build tree too.
    tmp = os.path.join(target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true", TMPDIR=tmp)
    builds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
         "-p", "maimon-serve", "--bin", "maimon-served"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "bench_report"],
    ]
    for command in builds:
        status = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        if status != 0:
            sys.stderr.write("bench_report: build failed: %s\n" % " ".join(command))
            return status
    binary = os.path.join(target, "release", "bench_report")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
