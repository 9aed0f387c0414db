#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <cold_tune|serve_hot|kernels> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs it with
the given arguments. Everything the run writes stays inside the checkout:
spans, snapshots and fingerprints go to `perfbench/out/`, compiled harnesses
and compiler temporaries to `perfbench/out/work` and `perfbench/out/tmp`.
The last line of standard output is the result object; the exit code is
non-zero when the build fails or any output check misses.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    manifest = os.path.join(bench, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    out = os.path.join(bench, "out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target
    env["CARGO_HOME"] = os.path.join(target, "cargo-home")
    env["TMPDIR"] = tmp
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    child = subprocess.Popen([binary, *sys.argv[1:], "--out", out], env=env, stdin=subprocess.DEVNULL)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
