#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload s3d-step --seed 1 --seconds 10 --trace 0

The Go program in this directory is built against the checkout's own
sources (go.mod replaces module "corec" with the parent directory). Build
outputs, the Go build cache, spans and results all stay under
.bench_build/ in the checkout. The last line of standard output is the
JSON result object; the exit code is 0 only for a complete, correct run.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("s3d-step", "small-churn", "fail-recover", "s3d-spill")
BUILD_TIMEOUT = 600  # a cold build compiles the standard library too
RUN_TIMEOUT = 165


def go_env():
    """Keep every file the Go toolchain writes inside the checkout, and
    forbid it any network access."""
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOTMPDIR=str(BUILD / "tmp"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the Go sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = Path(top) / name
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", str(BINARY), "."],
        cwd=HERE, env=go_env(), timeout=BUILD_TIMEOUT)
    return proc.returncode == 0 and BINARY.is_file()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        ok = build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if not ok:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(BINARY),
           "-workload", args.workload,
           "-seed", str(args.seed),
           "-seconds", str(args.seconds),
           "-trace", str(args.trace),
           "-workdir", str(BUILD / "run"),
           "-commit", source_id()]
    # A SIGTERM unwinds through the finally clause, which stops the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
