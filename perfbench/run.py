#!/usr/bin/env python3
"""Builds and runs the wall-clock LDBC benchmark (see README.md here).

    python3 perfbench/run.py --workload ldbc-sf1 --seed 42 --seconds 50 --trace 0

Run from the repository root. The engine is compiled from ../src with
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build),
then ldbc_wallbench runs with the given arguments. Build output goes to
stderr; the benchmark's report, ending in one JSON line, to stdout. The
exit code is the benchmark's, or 2 when the sources or the build are
missing or broken.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGET = "ldbc_wallbench"


def source_hash():
    """Fingerprint of the engine sources (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def build():
    """Configures and builds the benchmark; returns the binary.

    Configuring runs every time (cheap once the cache exists), so the
    build's git sha in the identity line is always the current one.
    """
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    tree = out / "perfbench"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(tree), "--target", TARGET,
         "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return None
    return tree / TARGET


def main():
    # A terminated wrapper must not leave a build or the benchmark
    # running: SystemExit unwinds through subprocess.run and the finally
    # below, which kill and reap the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: engine sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None or not binary.is_file():
        print("run.py: build failed", file=sys.stderr)
        return 2
    print(f"# sources sha256={source_hash()}", flush=True)
    proc = subprocess.Popen([str(binary)] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
