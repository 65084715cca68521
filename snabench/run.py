#!/usr/bin/env python3
"""OpenSNA repository benchmark.

Builds the `snabench` program (snabench/CMakeLists.txt, which pulls in the
libraries through the repository's own CMakeLists.txt) into .bench_build and
runs workloads against the library's public API, each in its own process:

  python3 snabench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 snabench/run.py --workload all [--seed N] [--seconds S]
  python3 snabench/run.py --write-manifest

One workload prints its notes and, as the last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or the
per-layer metrics with --trace 1; a traced run also writes Chrome trace-event
JSON to .bench_build/traces/). `all` runs the four workloads in turn and
prints every metric by name with its unit. Cache files live in a private
directory under .bench_build that is removed when the workload ends. The
exit code is non-zero when the build fails or an output check fails.
--write-manifest regenerates BENCHMARK.json from the program's catalogue and
the bounds below.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD / "snabench"
RUN_SECONDS = 15
CHILD_TIMEOUT_S = 170

# Share of the parent's median by which each end-to-end metric may worsen.
# On a shared 4-vCPU VM (Xeon, 2.1 GHz) a fixed compute kernel ran up to 2x
# slower for tens of seconds at a time, so timings get the widest bound;
# peak RSS is nearly deterministic.
BOUNDS = {
    "setup_s": 0.25,
    "peak_rss_mb": 0.1,
    "victims_per_s": 0.25,
    "op_p50_s": 0.25,
    "op_tail_s": 0.25,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", str(BUILD), "--target", "snabench", "-j", "2"]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def catalogue():
    out = subprocess.run([str(BINARY), "--catalogue"], capture_output=True,
                         text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def run_workload(name, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    BUILD.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="snabench-", dir=BUILD)
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{name}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log(f"{name}: no result within {CHILD_TIMEOUT_S} s")
        return 1, ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def parse_result(stdout, expected):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    if set(result["metrics"]) != set(expected):
        raise ValueError("metrics differ from the catalogue")
    return result


def write_manifest():
    cat = catalogue()
    manifest = {
        "command": ["python3", "snabench/run.py"],
        "paths": ["snabench"],
        "run_seconds": RUN_SECONDS,
        "workloads": cat["workloads"],
        "end_to_end": [dict(m, bound=BOUNDS[m["name"]])
                       for m in cat["end_to_end"]],
        "per_layer": cat["per_layer"],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()
    if not args.write_manifest and not args.workload:
        ap.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    if args.write_manifest:
        write_manifest()
        return 0

    cat = catalogue()
    names = [w["name"] for w in cat["workloads"]]
    group = "per_layer" if args.trace else "end_to_end"
    expected = [m["name"] for m in cat[group]]
    if args.workload != "all":
        if args.workload not in names:
            log(f"unknown workload '{args.workload}'; one of {names} or all")
            return 2
        code, stdout = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        try:
            if parse_result(stdout, expected) is None:
                return code or 1
        except (ValueError, KeyError) as e:
            log(f"{args.workload}: malformed result: {e}")
            return 1
        sys.stdout.write(stdout)
        return code

    status = 0
    for name in names:
        code, stdout = run_workload(name, args.seed, args.seconds, args.trace)
        try:
            result = parse_result(stdout, expected)
        except (ValueError, KeyError) as e:
            log(f"{name}: malformed result: {e}")
            result = None
        if result is None:
            print(f"{name}: no result (exit {code})")
            status = 1
            continue
        status = status or code
        for line in stdout.strip().splitlines()[:-1]:
            print(f"{name}: {line}")
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"{name}: {metric:<34} {v['value']:>14.6g} {v['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
