#!/usr/bin/env python3
"""Repository benchmark: build suit_perfbench from source, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fleet_1m, sweep_cold, sweep_journaled, o3_imul (see
perfbench/README.md).  With --trace 0 the run measures the end-to-end
metrics with tracing off; with --trace 1 it runs the traced replica and
reports the per-layer metrics.  A human-readable table goes first; the
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Outputs are checked against a digest: the one pinned in
pinned_digests.json for the default seed, otherwise the digest of a
serial (jobs = 1) run of the same seed, made before the timed run and
kept in the build directory for later runs of the same binary.

Everything the benchmark writes lives under .bench_build/ in the
checkout.  Options for the benchmark's own tests: --smoke (small
inputs), --flip-digest (corrupt the expected digest), --perturb-replica
(make the traced replica diverge from the engine).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "suit_perfbench")

DEFAULT_SEED = 7
WORKLOADS = ("fleet_1m", "sweep_cold", "sweep_journaled", "o3_imul")
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 120
# Fresh processes whose set-up time setup_s is the median of.
SETUP_SAMPLES = 21

# End-to-end metrics of the result line (--trace 0): name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "units_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# What units_per_s counts on each workload, under the name the table uses.
UNIT_NAMES = {
    "fleet_1m": "domains_per_s",
    "sweep_cold": "cells_per_s",
    "sweep_journaled": "cells_per_s",
    "o3_imul": "sim_inst_per_s",
}

# The model's headline number and the paper's value, in percent.
PAPER_PCT = {
    "sweep_cold": ("SPEC gmean efficiency, Table 6 C fV -97 mV", 11.0),
    "o3_imul": ("x264-like slowdown at 4 cycles, Fig. 14", 1.60),
}

# Per-layer metrics of the result line (--trace 1): name -> unit.
PER_LAYER = {
    "runtime.session_setup_s": "s",
    "runtime.self_s": "s",
    "fleet.spec_resolve_s": "s",
    "fleet.expand_ns_per_domain": "ns",
    "fleet.accumulate_ns_per_domain": "ns",
    "fleet.merge_s": "s",
    "fleet.render_s": "s",
    "fleet.self_s": "s",
    "sim.trace_cache.lookups": "count",
    "sim.trace_cache.hit_ratio": "ratio",
    "sim.trace_cache.hit_ns": "ns",
    "sim.trace_cache.hit_ns_p99": "ns",
    "sim.trace_cache.miss_s": "s",
    "sim.trace_cache.miss_ns_per_event": "ns",
    "sim.trace_cache.evictions": "count",
    "sim.trace_cache.resident_mb": "MB",
    "sim.domain.calls": "count",
    "sim.domain.busy_s": "s",
    "sim.domain.ns_per_event": "ns",
    "sim.domain.us_p50": "us",
    "sim.domain.us_p99": "us",
    "sim.events": "count",
    "sim.self_s": "s",
    "exec.pool.busy_s": "s",
    "exec.pool.queue_wait_s": "s",
    "exec.pool.utilization": "ratio",
    "exec.pool.imbalance": "ratio",
    "exec.journal.appends": "count",
    "exec.journal.append_busy_s": "s",
    "exec.journal.append_ms_p50": "ms",
    "exec.journal.append_ms_p99": "ms",
    "exec.journal.append_wait_s": "s",
    "exec.journal.bytes_written": "B",
    "exec.journal.write_amplification": "ratio",
    "exec.journal.load_s": "s",
    "exec.journal.restore_s": "s",
    "exec.self_s": "s",
    "uarch.program_gen.calls": "count",
    "uarch.program_gen.busy_s": "s",
    "uarch.program_gen.distinct_ratio": "ratio",
    "uarch.o3.busy_s": "s",
    "uarch.o3.inst_per_s": "1/s",
    "uarch.o3.ipc": "ratio",
    "uarch.self_s": "s",
    "bench.self_s": "s",
    "bench.trace_overhead_pct": "%",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def run_quiet(cmd, timeout, cwd=ROOT):
    """Run cmd with its output on stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, cwd=cwd, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no suit sources next to perfbench/ (expected %s); run from a "
             "checkout of the repository" % os.path.join(ROOT, "src"), 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD, "-j", str(jobs)],
                 BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def run_binary(args, seconds):
    """Runs suit_perfbench; returns its last stdout line as JSON."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        fail("suit_perfbench %s timed out" % " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("suit_perfbench %s exited with %d" %
             (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def median_setup(workload, seed, size, jobs):
    """Median cold set-up time over SETUP_SAMPLES fresh processes.

    Each process pays set-up once, as a CLI invocation does; within one
    process later set-ups are warm and much cheaper.
    """
    args = ["--workload", workload, "--seed", str(seed), "--mode", "setup",
            "--jobs", str(jobs)]
    if size == "smoke":
        args.append("--smoke")
    samples = [run_binary(args, 0)["setup_s"] for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def expected_digest(workload, seed, size, journal):
    """The pinned digest, or that of a serial run of this seed."""
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "pinned_digests.json")) as f:
            pinned = json.load(f)
        digest = pinned.get(size, {}).get(workload)
        if digest:
            return digest, "pinned"
    cache_dir = os.path.join(BUILD, "references")
    key = "%s-%s-%d-%s" % (workload, size, seed, file_sha256(BINARY)[:16])
    cached = os.path.join(cache_dir, key)
    if os.path.isfile(cached):
        with open(cached) as f:
            return f.read().strip(), "serial reference (cached)"
    args = ["--workload", workload, "--seed", str(seed), "--mode",
            "reference", "--journal", journal]
    if size == "smoke":
        args.append("--smoke")
    ref = run_binary(args, 0)
    if not ref.get("ok"):
        fail("the serial reference run of seed %d reported failed units"
             % seed)
    os.makedirs(cache_dir, exist_ok=True)
    with open(cached, "w") as f:
        f.write(ref["digest"] + "\n")
    return ref["digest"], "serial reference"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cmake_cache(key):
    """A value of the build's CMakeCache.txt ("" when absent)."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compiler():
    path = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=30).stdout
        return out.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return path or "unknown"


def tree_version():
    """git describe of the tree, or a digest of its sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "nogit-" + h.hexdigest()[:12]


def filesystem_of(path):
    """Type of the filesystem holding path, from /proc/mounts."""
    best, fstype = "", "unknown"
    path = os.path.realpath(path)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(
                        parts[1].rstrip("/") + "/")):
                    if len(parts[1]) >= len(best):
                        best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, better in rows:
        print("  %-*s  %14.6g %-6s %s" % (width, name, value, unit, better))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--flip-digest", action="store_true")
    ap.add_argument("--perturb-replica", action="store_true")
    opts = ap.parse_args()
    if opts.seed < 0:
        fail("--seed must be >= 0", 2)

    jobs = min(4, os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    build(jobs)

    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    journal = os.path.join(work, "%s-%d.journal" % (opts.workload,
                                                      os.getpid()))
    size = "smoke" if opts.smoke else "full"
    try:
        expect, expect_from = expected_digest(opts.workload, opts.seed,
                                              size, journal)
        if opts.flip_digest:
            expect = "%016x" % (int(expect, 16) ^ 1)

        args = ["--workload", opts.workload, "--seed", str(opts.seed),
                "--seconds", repr(opts.seconds), "--expect", expect,
                "--jobs", str(jobs), "--journal", journal]
        if opts.smoke:
            args.append("--smoke")
        trace_path = None
        if opts.trace:
            trace_dir = os.path.join(BUILD, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, "%s-seed%d.json" %
                                      (opts.workload, opts.seed))
            args += ["--mode", "traced", "--trace-out", trace_path]
            if opts.perturb_replica:
                args.append("--perturb-replica")
        else:
            args += ["--mode", "timed"]
        result = run_binary(args, opts.seconds)
        if not opts.trace:
            result["setup_s"] = median_setup(opts.workload, opts.seed, size,
                                             jobs)
    finally:
        for path in (journal, journal + ".tmp"):
            if os.path.exists(path):
                os.remove(path)

    context = {
        "workload": opts.workload,
        "seed": opts.seed,
        "size": size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "unknown",
        "workers": jobs,
        "tree": tree_version(),
        "journal_fs": filesystem_of(work),
        "expected_digest": expect,
        "expected_from": expect_from,
        "iterations": result["iterations"],
    }
    attempted = max(int(result["attempted"]), 1)
    failed = int(result["failed"])
    correct = failed == 0 and not result["problems"]
    for problem in result["problems"]:
        log("check failed: " + problem)

    print("perfbench %s  seed %d  (%s)" % (opts.workload, opts.seed,
                                            "traced" if opts.trace
                                            else "tracing off"))
    print("context: " + json.dumps(context, sort_keys=True))
    if opts.trace:
        if set(result["layers"]) != set(PER_LAYER):
            fail("suit_perfbench reported layers %s, expected %s" %
                 (sorted(result["layers"]), sorted(PER_LAYER)))
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        print_table("per-layer metrics (trace in %s):" % trace_path,
                    [(n, m["value"], m["unit"], "")
                     for n, m in metrics.items()])
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        rows = [(name, result[name], unit, better)
                for name, (unit, better) in END_TO_END.items()]
        rows[2] = (UNIT_NAMES[opts.workload],) + rows[2][1:]
        if result.get("resume_s") is not None:
            rows.append(("resume_s", result["resume_s"], "s", "lower"))
        rows.append(("failed_frac", failed / attempted, "ratio", "lower"))
        if opts.workload in PAPER_PCT and result["headline_pct"] is not None:
            what, paper = PAPER_PCT[opts.workload]
            rows.append(("paper_err_pp",
                         abs(result["headline_pct"] - paper), "pp",
                         "lower (%s: model %+.2f %%, paper %+.2f %%)" %
                         (what, result["headline_pct"], paper)))
        print_table("end-to-end metrics (median of %d iterations):" %
                    result["iterations"], rows)

    record = {"context": context, "result": result}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" %
                           (opts.workload, opts.seed, opts.trace)), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
