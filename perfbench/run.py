#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), prints a host
descriptor, runs the benchmark binary and passes its output through. The
last line is the result: one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones, including `peak_rss_mib`, the benchmark process's memory high-water
mark; with `--trace 1` they are the per-layer ones. Exits non-zero without
a result when the build or the run fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
WORKLOADS = ("attack_interval", "steady_interval", "campaign_cycle")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def capture(cmd):
    """First line of a command's output, or `unknown`."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def host_descriptor():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    # A plain checkout has no .git; git must not search parent directories.
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = capture(["git", "rev-parse", "HEAD"])
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "rustc": capture(["rustc", "--version"]),
        "commit": commit,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    # Build from the checkout root so its `.cargo/config.toml` applies, as
    # it does to the simulator's own builds.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")

    print("# host " + json.dumps(host_descriptor(), sort_keys=True), flush=True)
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, f"perfbench-scratch-{os.getpid()}")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports this child's own resource usage, not the build's.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode if proc.returncode > 0 else 1)

    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
