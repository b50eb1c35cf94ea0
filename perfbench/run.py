#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <old.json> <new.json>

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
repository root), with the Go build cache kept there as well, and run from
the repository root. Its stdout is passed through; the last line is
the run's result object. The exit status is non-zero when the build or the
run fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if not args or args[0] != "compare":
        args = args + ["--outdir", build]
    return subprocess.run([exe] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
