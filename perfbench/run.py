#!/usr/bin/env python3
"""Builds and runs the Cyclops simulator benchmark.

    python3 perfbench/run.py --workload fleet_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench with CMake;
later calls only check the build is current.  CYCLOPS_THREADS is set to
one less than the number of usable CPUs (see driver_threads).

setup_s is the time from the start of the binary's main() to its first
timed op.  An untraced run also starts the binary with --setup-only, each
time a fresh cold process, half before and half after the timed run so a
burst of host load hits few of them, and reports the median of all.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are the
binary's summary and a `report:` JSON line carrying the failure fraction,
the fidelity numbers beside their paper anchors, the simulated-output
digest and the host record.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "cyclops_perfbench"
WORKLOADS = ("fleet_mix", "trace_eval", "calibration")
# Set-up-only processes before and after an untraced run; setup_s is the
# median of their figures and the run's own.
SETUP_RUNS_AROUND = 3
# Fidelity numbers each workload must print (name -> unit).
FIDELITY = {
    "fleet_mix": {"up_fraction": "frac"},
    "trace_eval": {"up_fraction": "frac"},
    "calibration": {"stage1_err_mm": "mm", "calib_err_tx_mm": "mm",
                    "calib_err_rx_mm": "mm"},
}
# End-to-end metrics printed and reported but not bounded in
# BENCHMARK.json: on fleet_mix the median session is a memory-bound
# stream / multi_tx session that moves ~2.5x as much as ops_per_s with host
# load, and on the single-client workloads it is 1 / ops_per_s again.
REPORT_ONLY = ("op_ms_p50",)
# Per-layer metrics every workload measures; the rest of BENCHMARK.json's
# per_layer list belongs to one workload each and reads 0 on the others.
COMMON_LAYER = ("util.pool_wait_frac", "util.pool_parallel_jobs",
                "bench.trace_overhead_frac", "bench.span_coverage")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def driver_threads():
    """One driver per usable CPU but one.  The spare CPU takes this script,
    the OS and time the hypervisor steals, so a column-parallel Jacobian
    rarely waits on a preempted driver.  On a 4-vCPU VM, three alternating
    10 s calibration runs gave 1.85-2.31 ops/s on 4 drivers, tracking the
    stolen time, and 1.94-2.05 ops/s on 3."""
    return max(1, usable_cpus() - 1)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; build output → stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-G",
             "Ninja"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(usable_cpus())],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_revision():
    """Git revision when the checkout is a repository, plus a digest of
    src/ that identifies the simulator sources either way."""
    rev = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return rev, h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, tiny=False, setup_only=False):
    """Runs the binary once; returns (its summary lines, its detail JSON)."""
    env = dict(os.environ, CYCLOPS_THREADS=str(driver_threads()))
    spans_dir = BUILD_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(spans_dir / f"{workload}-seed{seed}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}:\n"
                           + proc.stdout)
    return lines[:-1], json.loads(lines[-1])


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run.  Untraced, setup_s becomes the median over the
    run's own set-up and SETUP_RUNS_AROUND set-up-only processes on each
    side of it; the list goes into the detail as setup_s_runs."""
    def setup_only():
        _, extra = run_workload(workload, seed, seconds, 0, tiny,
                                setup_only=True)
        return extra["metrics"]["setup_s"]["value"]

    setups = [] if trace else [setup_only()
                               for _ in range(SETUP_RUNS_AROUND)]
    summary, detail = run_workload(workload, seed, seconds, trace, tiny)
    if not trace:
        setups.append(detail["metrics"]["setup_s"]["value"])
        setups += [setup_only() for _ in range(SETUP_RUNS_AROUND)]
        detail["metrics"]["setup_s"]["value"] = statistics.median(setups)
        detail["setup_s_runs"] = setups
        summary.append(f"  setup_s median of {len(setups)} cold set-ups: "
                       f"{statistics.median(setups):.6g} s")
    return summary, detail


def result_for(detail, spec, trace):
    """The contract line: every metric BENCHMARK.json lists for the mode."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    own = detail["metrics"]
    unknown = set(own) - {m["name"] for m in listed} - set(REPORT_ONLY)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for m in listed:
        if m["name"] not in own and not trace:
            raise RuntimeError(f"end-to-end metric {m['name']} not emitted")
        got = own.get(m["name"], {"value": 0.0, "unit": m["unit"]})
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {got['unit']} but "
                               f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}


def host_record(detail):
    rev, src_digest = source_revision()
    return dict(detail["host"], nproc=usable_cpus(),
                cyclops_threads=str(driver_threads()), git_rev=rev,
                src_sha256_16=src_digest)


def self_test(spec):
    """Tiny runs of every workload in both modes: every metric is emitted
    with its BENCHMARK.json unit, every per-layer metric by some workload,
    every fidelity number and the digest are present, and fleet_mix /
    trace_eval fail no op."""
    problems = []
    layer_seen = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, detail = measure(workload, 1, 1, trace, tiny=True)
            where = f"{workload} trace={trace}"
            emitted = detail["metrics"]
            try:
                result_for(detail, spec, trace)
            except RuntimeError as e:
                problems.append(f"{where}: {e}")
            required = (COMMON_LAYER if trace else
                        [m["name"] for m in spec["end_to_end"]]
                        + list(REPORT_ONLY))
            problems += [f"{where}: {n} not emitted"
                         for n in required if n not in emitted]
            if trace:
                layer_seen |= set(emitted)
            for name, unit in FIDELITY[workload].items():
                got = detail["fidelity"].get(name)
                if got is None or got["unit"] != unit or not got["paper"]:
                    problems.append(f"{where}: fidelity {name} missing")
            if len(detail["digest"]) != 16:
                problems.append(f"{where}: no digest")
            if detail["attempted"] < 1:
                problems.append(f"{where}: no op attempted")
            if workload != "calibration" and detail["failed_frac"] != 0:
                problems.append(f"{where}: failed_frac "
                                f"{detail['failed_frac']}")
            for key in ("driver_threads", "cpu_model", "build_type",
                        "cyclops_obs"):
                if key not in detail["host"]:
                    problems.append(f"{where}: host record lacks {key}")
            log(f"self-test {where}: {detail['attempted']} ops, "
                f"{detail['failed']} failed")
    problems += [f"per_layer {m['name']} measured by no workload"
                 for m in spec["per_layer"] if m["name"] not in layer_seen]
    for p in problems:
        log("SELF-TEST FAIL:", p)
    return not problems

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")

    try:
        spec = benchmark_spec()
        build()
        if args.self_test:
            ok = self_test(spec)
            log("self-test", "passed" if ok else "FAILED")
            return 0 if ok else 1
        summary, detail = measure(args.workload, args.seed, args.seconds,
                                  args.trace)
        result = result_for(detail, spec, args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"perfbench: {e}")
        return 1
    for line in summary:
        print(line)
    report = {k: detail[k] for k in ("workload", "seed", "trace",
                                     "failed_frac", "digest", "fidelity",
                                     "setup_s_runs") if k in detail}
    report["unbounded"] = {k: v for k, v in detail["metrics"].items()
                           if k in REPORT_ONLY}
    report["host"] = host_record(detail)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
