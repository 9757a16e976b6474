#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from the
sources one directory up) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs rebuild incrementally. Everything after the build is
roborun_bench's own output, whose last line is the result JSON. The exit
code is the benchmark's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build() -> Path:
    """Configure (once) and build roborun_bench; return the binary's path."""
    out = build_dir()
    tmp = out / "tmp"  # keeps the compiler's temporary files in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = out / "build.log"
    configure = None
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", str(out), "--target", "roborun_bench", "-j", "4"]
    with open(log_path, "w") as log:
        for cmd in filter(None, (configure, compile_)):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                if cmd is configure:
                    # A failed configure must not pass for a finished one.
                    (out / "CMakeCache.txt").unlink(missing_ok=True)
                break
        else:
            return out / "roborun_bench"
    sys.stderr.write("perfbench: build failed; last lines of %s:\n" % log_path)
    sys.stderr.writelines(log_path.read_text().splitlines(keepends=True)[-20:])
    sys.exit(1)


def main() -> int:
    binary = build()
    try:
        return subprocess.run([str(binary)] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
