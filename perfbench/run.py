#!/usr/bin/env python3
"""Repository benchmark: one workload run, measured in fresh processes.

    python3 perfbench/run.py --workload dse-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run builds the simulator and
flatbench from source into .bench_build/. Every workload runs in a
fresh `flatbench` process; --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run plus the tracing
overhead against an untraced run of the same inputs. Every metric is
printed by name with its unit; the last line of standard output is the
JSON result; its "correct" is false when any answer check fails.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ["dse-cold", "sweep-grid", "serve-trace", "sweep-resume"]
SETUP_SPAWNS = 31  # setup_s is the median over these fresh processes
CHILD_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def catalogue():
    return json.loads((HERE / "metrics.json").read_text())


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, timeout=300)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", "4", "--target", *targets],
            check=True, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def flatbench(*args):
    """Runs flatbench and returns its parsed last line; a result that
    carries ready_ns also gets setup_s, measured from before the spawn."""
    exe = BUILD / "flatbench"
    t0 = time.monotonic_ns()
    out = subprocess.run([str(exe), *args], capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        log(out.stderr)
        fail(f"flatbench {' '.join(args)} exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "ready_ns" in result:
        result["setup_s"] = (result["ready_ns"] - t0) / 1e9
    return result


def fresh_dir(name):
    path = BUILD / "runs" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def show(metrics, entries):
    shown = set()
    for e in entries:
        if e["name"] in metrics and e["name"] not in shown:
            shown.add(e["name"])
            value = metrics[e["name"]]["value"]
            log(f"  {e['name']:<34} {value:>16.6g} {e['unit']:<6} ({e['kind']})")


def self_times(trace_file):
    """Per-span-name count, total and self time from a written trace."""
    events = json.loads(trace_file.read_text())["traceEvents"]
    table = {}
    for e in events:
        if e.get("ph") == "X":
            row = table.setdefault(e["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += e["dur"] / 1e3
            row[2] += e["args"]["self_ms"]
    log(f"  {'span':<36} {'count':>7} {'total ms':>12} {'self ms':>12}")
    for name, (count, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        log(f"  {name:<36} {count:>7} {total:>12.1f} {own:>12.1f}")


def run(args):
    cat = catalogue()
    build(["flatbench"])
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    work = fresh_dir(f"{args.workload}-{args.seed}-{os.getpid()}")
    common += ["--dir", str(work)]

    setups = [flatbench(*common, "--phase", "setup")["setup_s"]
              for _ in range(SETUP_SPAWNS)]
    pristine = []
    if args.workload == "sweep-resume":
        flatbench(*common, "--phase", "prepare")
        pristine = [(p, p.read_bytes()) for p in work.glob("resume-*.jsonl")]

    def leg(*extra):
        for path, data in pristine:  # each resume starts from the same journal
            path.write_bytes(data)
        return flatbench(*common, *extra)

    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{args.workload}-{args.seed}.json"
        plain = leg("--no-check")
        result = leg("--trace", str(trace_file))
        traced_rate = result["attempted"] / result["timed_s"]
        plain_rate = plain["attempted"] / plain["timed_s"]
        result["metrics"]["trace.overhead_share"] = {
            "value": plain_rate / traced_rate - 1.0, "unit": "ratio"}
        wanted = cat["per_layer"]
        log(f"trace: {trace_file} (Chrome Trace Event JSON; open in Perfetto)")
        self_times(trace_file)
    else:
        result = leg()
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        wanted = cat["end_to_end"]

    fingerprint = dict(result.get("fingerprint", {}))
    fingerprint.update(git_revision=git_revision(), source_digest=source_digest())
    log(f"workload {args.workload}: {fingerprint.get('rationale', '')}")
    log("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    log(f"ops attempted {result['attempted']}, threw {result['failed']}, "
        f"worse than the unpruned reference {result.get('suboptimal', 0)}")
    show(result["metrics"], wanted + cat["reported"])
    for failure in result.get("hard_failures", []):
        log(f"  HARD CHECK FAILED: {failure}")
    for error in result.get("errors", []):
        log(f"  op error: {error}")

    metrics = {}
    for e in wanted:
        m = result["metrics"].get(e["name"])
        if m is None or not math.isfinite(m["value"]):
            fail(f"metric {e['name']} missing from the {args.workload} run")
        metrics[e["name"]] = {"value": m["value"], "unit": e["unit"]}
    correct = bool(result["correct"])
    (work / "result.json").write_text(json.dumps(
        {"fingerprint": fingerprint, "result": result}, indent=1))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    shutil.rmtree(work, ignore_errors=True)
    return 0


def selftest():
    """Builds every target, runs the benchmark's ctest suite and checks
    that BENCHMARK.json names exactly the catalogue's metrics."""
    build(["flatbench", "flatbench_nocache", "perfbench_selftest"])
    subprocess.run(["ctest", "--test-dir", str(BUILD), "--output-on-failure"],
                   check=True, timeout=600)
    cat = catalogue()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        ours = [(e["name"], e["unit"], e["better"]) for e in cat[section]]
        theirs = [(e["name"], e["unit"], e["better"]) for e in bench[section]]
        if ours != theirs:
            fail(f"BENCHMARK.json {section} differs from perfbench/metrics.json")
    if not {w["name"] for w in bench["workloads"]} <= set(WORKLOADS):
        fail("BENCHMARK.json names a workload flatbench does not run")
    log("perfbench selftest: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
