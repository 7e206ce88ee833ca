#!/usr/bin/env python3
"""The ttg benchmark: time the applications end to end and split the time
by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. It builds the `perfbench` package twice from
source (plain, and with the `telemetry` feature for the traced pass) under
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, checks
every output, prints a readable report and, as its last line, one JSON
object `{"correct", "attempted", "failed", "metrics"}` with the metrics
BENCHMARK.json lists for the mode, in its units.

`--trace 0` reports the end-to-end metrics, from untraced runs only.
`--trace 1` reports the per-layer metrics: exact counters and untraced
times from a plain run of half the seconds, span times and layer probes
from a traced run of the other half. `--workload all` runs every workload
of BENCHMARK.json in both modes and ends with one combined object. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ("potrf_coarse", "potrf_fine_uds", "potrf_ckpt_uds")
# Counters that must repeat exactly across runs of one workload and seed.
EXACT = ("core.tasks", "comm.am_count", "comm.am_bytes", "comm.serializations",
         "comm.data_copies")
# A call of the binary measures for its `--seconds`; this margin covers
# the inputs, the warm-up, the run that crosses the budget and the probes.
# A call that overruns it is stopped and counts as one failed attempt.
MARGIN_S = 45

# Per-layer counters reported as they are (median over the plain runs).
COUNTERS = (
    "core.tasks", "core.deep_copies_avoided", "core.cow_clones", "core.cloned_bytes",
    "runtime.steals", "runtime.steal_misses", "runtime.ready_hwm",
    "comm.am_count", "comm.am_bytes", "comm.rma_bytes", "comm.serializations",
    "comm.data_copies", "comm.bcast_sends_saved", "comm.am_retries", "comm.dedup_hits",
    "comm.snapshots", "comm.snapshot_bytes",
    "transport.tx_bytes", "transport.tx_writes", "transport.queue_hwm", "transport.connects",
)
# Per-run ratios of counters: name -> (numerator terms, denominator).
RATIOS = {
    "runtime.wakeups_per_task": (("runtime.wakeups",), "core.tasks"),
    "comm.acks_per_am": (("comm.ack_flushes",), "comm.am_count"),
    "comm.snapshot_bytes_per_am": (("comm.snapshot_bytes",), "comm.am_count"),
    # The definition StatsSnapshot documents: all frames per write syscall.
    "transport.frames_per_write": (("transport.tx_writes", "transport.tx_frames_coalesced"),
                                   "transport.tx_writes"),
}
# Metrics the binary's layer probes measure.
PROBES = ("linalg.gemm_gflops", "runtime.submit_ns", "runtime.submit_batch_ns",
          "comm.encode_ns_per_kib", "comm.decode_ns_per_kib", "transport.rtt_us")


def build(target_dir, variant):
    """Build one variant of the benchmark; return its executable."""
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", MANIFEST,
           "--target-dir", os.path.join(target_dir, variant)]
    if variant == "traced":
        cmd += ["--features", "telemetry"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(f"perfbench: build of the {variant} variant failed")
    return os.path.join(target_dir, variant, "release", "perfbench")


def measure(exe, workload, seed, seconds, extra):
    """Run the benchmark binary once; return its parsed JSON record. A call
    that overruns, crashes or prints no record is returned as a record of
    one failed attempt."""
    cmd = [exe, workload, "--seed", str(seed), "--seconds", str(seconds)] + extra
    tmp = os.path.join(".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    # Socket files of the UDS mesh go under the checkout; a relative path
    # keeps them short of the socket-path length limit.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                             timeout=seconds + MARGIN_S)
    except subprocess.TimeoutExpired:
        return failed_call(f"call did not end within {seconds + MARGIN_S:g} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass
    lines = out.stdout.strip().splitlines()
    try:
        if out.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return failed_call(f"call exited with {out.returncode} and no record")


def failed_call(why):
    """The record of a call that gave no runs: one failed attempt."""
    print(f"perfbench: {why}", file=sys.stderr)
    return {"warmup": {"failure": why}, "runs": [], "expected_tasks": {},
            "probes": [], "threads": 0, "simnet": None}


def median(xs):
    return statistics.median(xs) if xs else None


def spread(xs):
    """Readable summary: median, quartiles, extremes and sample count."""
    if len(xs) < 2:
        return f"n={len(xs)} values={xs}"
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (f"median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"min {min(xs):.4f}  max {max(xs):.4f}  n={len(xs)}")


class Tally:
    """Attempts, failures and passing runs over one or more records."""

    def __init__(self, records):
        self.records = records
        runs = [(r, run) for r in records for run in [r["warmup"]] + r["runs"]]
        self.attempted = len(runs)
        self.failures = [run["failure"] for _, run in runs if run["failure"]]
        self.failed_runs = [run for _, run in runs if run["failure"] and "counters" in run]
        # The warm-up is an attempt but never a sample.
        self.ok = {id(r): [run for run in r["runs"] if not run["failure"]]
                   for r in records}
        exact = {tuple(run["counters"][k] for k in EXACT)
                 for _, run in runs if not run["failure"]}
        self.exact_repeat = len(exact) <= 1

    def passing(self, record):
        return self.ok[id(record)]

    @property
    def correct(self):
        return (not self.failures and self.exact_repeat
                and all(self.ok[id(r)] for r in self.records))

    def report(self):
        expect = self.records[0]["expected_tasks"]
        if expect:
            print("tasks per template, checked on every run: "
                  + ", ".join(f"{k} {v}" for k, v in expect.items()))
        print(f"runs: {self.attempted} attempted, {len(self.failures)} failed")
        for f in sorted(set(self.failures)):
            print(f"  failed {self.failures.count(f)}x: {f}")
        if self.failed_runs:
            bad = self.failed_runs
            print("  failed runs, for diagnosis only (never samples): "
                  f"solve_s median {median([r['solve_s'] for r in bad]):.4f}, "
                  f"comm.snapshot_bytes median "
                  f"{median([r['counters']['comm.snapshot_bytes'] for r in bad]):.0f}, "
                  f"peak_rss_mb median {median([r['peak_rss_mb'] or 0 for r in bad]):.1f}")
        if not self.exact_repeat:
            print(f"  exact counters differ between runs: {', '.join(EXACT)}")


def e2e(record, tally):
    ok = tally.passing(record)
    solve = [r["solve_s"] for r in ok]
    setup = [r["wall_s"] - r["solve_s"] for r in ok]
    rss = [r["peak_rss_mb"] for r in ok if r["peak_rss_mb"] is not None]
    print(f"solve_s  (executor start to quiescence): {spread(solve)}")
    print(f"setup_s  (run() wall minus solve_s):     {spread(setup)}")
    print(f"peak_rss_mb (VmHWM of each run):         {spread(rss)}")
    return {"solve_s": median(solve), "setup_s": median(setup),
            "peak_rss_mb": median(rss)}


def per_layer(plain, traced, tally):
    """Per-layer metric values by name."""
    ok = tally.passing(plain)
    tok = tally.passing(traced)
    values = {name: median([r["counters"][name] for r in ok]) for name in COUNTERS}
    for name, (num, den) in RATIOS.items():
        values[name] = median([sum(r["counters"][k] for k in num) / r["counters"][den]
                               if r["counters"][den] else 0.0 for r in ok])
    # A workload on the in-process fabric has no link layer to probe: its
    # `transport.rtt_us` is 0. A traced call that failed gives no probes.
    probes = {p["name"]: p["value"] for p in traced["probes"]}
    values.update({name: probes.get(name, 0.0 if probes else None) for name in PROBES})

    # Traced split: Σ task-span time against the workers' solve time.
    threads = traced["threads"]
    busy = [sum(ns for k, (_, ns) in r["spans"].items() if k.startswith("task/"))
            for r in tok]
    worker_ns = [r["solve_s"] * 1e9 * threads for r in tok]
    nonkernel = [w - b for w, b in zip(worker_ns, busy)]
    values["linalg.kernel_share"] = median([b / w for b, w in zip(busy, worker_ns)])
    values["core.overhead_ns_per_task"] = median(
        [n / r["counters"]["core.tasks"] for n, r in zip(nonkernel, tok)])
    values["comm.nonkernel_ns_per_am"] = median(
        [n / r["counters"]["comm.am_count"] if r["counters"]["comm.am_count"] else 0.0
         for n, r in zip(nonkernel, tok)])
    untraced = median([r["solve_s"] for r in ok])
    traced_solve = median([r["solve_s"] for r in tok])
    values["telemetry.tracing_overhead_s"] = (
        traced_solve - untraced if ok and tok else None)

    print(f"untraced solve_s: {spread([r['solve_s'] for r in ok])}")
    print(f"traced   solve_s: {spread([r['solve_s'] for r in tok])}")
    print("span time per run by category/name (median over traced runs):")
    names = sorted({k for r in tok for k in r["spans"]})
    for k in names:
        ns = median([r["spans"].get(k, [0, 0])[1] for r in tok])
        n = median([r["spans"].get(k, [0, 0])[0] for r in tok])
        print(f"  {k:<22} {ns / 1e9:9.4f} s  {int(n):>7} spans")
    print("probe bases:")
    for p in traced["probes"]:
        print(f"  {p['name']:<26} {p['value']:12.3f} {p['unit']:<8} on {p['base']}")
    sim = traced["simnet"]
    if sim is None:
        return values
    print("simnet calibration readout (measured vs hand-set in simnet's hawk model):")
    print(f"  core.overhead_ns_per_task {values['core.overhead_ns_per_task'] or 0:10.0f} ns"
          f"   vs task_overhead_ns = {sim['task_overhead_ns']}")
    print(f"  comm.nonkernel_ns_per_am  {values['comm.nonkernel_ns_per_am'] or 0:10.0f} ns"
          f"   vs msg_overhead_ns  = {sim['msg_overhead_ns']}")
    return values


def run(workload, seed, seconds, trace, exes, spec):
    """One workload in one trace mode; returns the result object with the
    metrics `spec` (BENCHMARK.json) lists for that mode."""
    plain_exe, traced_exe = exes
    print(f"== {workload}  seed {seed}  {seconds:g} s  trace {trace}")
    if trace == 0:
        record = measure(plain_exe, workload, seed, seconds, [])
        tally = Tally([record])
        tally.report()
        values = e2e(record, tally)
    else:
        half = seconds / 2
        plain = measure(plain_exe, workload, seed, half, [])
        traced = measure(traced_exe, workload, seed, half, ["--traced"])
        tally = Tally([plain, traced])
        tally.report()
        values = per_layer(plain, traced, tally)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    print("metrics:")
    for name, m in metrics.items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<30} {shown:>14} {m['unit']}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or `all`: every workload of BENCHMARK.json "
                         "in both trace modes")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exes = (build(target_dir, "plain"), build(target_dir, "traced"))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, args.trace, exes, spec)
    else:
        results = {f"{w['name']}/trace{trace}":
                   run(w["name"], args.seed, args.seconds, trace, exes, spec)
                   for w in spec["workloads"] for trace in (0, 1)}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
