#!/usr/bin/env python3
"""Serving benchmark of the atsq stack.

Run from the repository root:

    python3 perfbench/run.py --workload venue-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds `atsq` (the shipped server) and the benchmark
binary from source, release mode, offline, into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload against a fresh
server. Its last stdout line is the result object
(`correct`, `attempted`, `failed`, `metrics`); the line before carries
provenance (source revision, core count, dataset and its content hash,
seed) and the sample count of every metric. `--trace 1` is the traced
run, which reports the per-layer metrics instead of the end-to-end ones.

`--smoke` runs every workload of BENCHMARK.json on the unit-test city
for a few seconds, traced and untraced, and checks that each run is
correct and prints exactly the metric names and units BENCHMARK.json
lists.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# A run still going after this long is killed, with its servers.
RUN_TIMEOUT_S = 170


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else Path.cwd() / target


def build():
    """Builds both binaries; returns their paths, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for manifest, extra in ((ROOT / "Cargo.toml", ["-p", "atsq-cli"]), (BENCH / "Cargo.toml", [])):
        if not manifest.is_file():
            print(f"run.py: {manifest} is missing", file=sys.stderr)
            return None
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(manifest)]
        if subprocess.run(cmd + extra, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = target_dir() / "release"
    return release / "atsq", release / "perfbench"


def source_rev():
    """The git revision, or a hash of the sources when not in git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def run_once(binaries, workload, seed, seconds, trace, city, capture):
    """Runs one workload; returns (exit code, stdout or None)."""
    atsq, perfbench = binaries
    work = target_dir() / "perfbench-work"
    cmd = [str(perfbench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--atsq", str(atsq),
           "--work", str(work), "--rev", source_rev(), "--city", city]
    # Its own process group, so a timeout kills the servers it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, out


def smoke(binaries):
    """Every workload, untraced and traced, on the unit-test city."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for w in spec["workloads"]:
        for trace, table in tables.items():
            code, out = run_once(binaries, w["name"], 1, 2, trace, "tiny", capture=True)
            label = f"{w['name']} --trace {trace}"
            if code != 0 or not out:
                failures.append(f"{label}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in table}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: not correct")
            if got != want:
                failures.append(f"{label}: printed {sorted(got.items())}, BENCHMARK.json lists {sorted(want.items())}")
            print(f"smoke {label}: {len(got)} metrics, {result['attempted']} requests", file=sys.stderr)
    for f in failures:
        print(f"run.py: smoke: {f}", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    binaries = build()
    if binaries is None:
        return 1
    if args.smoke:
        return smoke(binaries)
    code, _ = run_once(binaries, args.workload, args.seed, args.seconds, args.trace, "ny", capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
