//! `perfbench`: runs one workload of the ttg benchmark in this process and
//! prints its raw measurements as one JSON line on stdout; `run.py`
//! aggregates them into the benchmark's result (see README.md).
//!
//! ```text
//! perfbench <workload> --seed N --seconds S [--traced]
//! ```
//!
//! Every invocation builds the workload's inputs and reference factor,
//! makes one untimed warm-up run, then calls the app's `run` until `S`
//! seconds have passed. `--traced` (a build with the `telemetry` feature)
//! records the `task` spans and the benchmark's own spans of each run,
//! then runs the layer probes at the workload's shapes.

mod probe;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ttg_core::ExecReport;
use ttg_telemetry::MetricKey;

use workload::{Kind, Problem, RANKS, WORKERS};

/// Fewest measured runs, however short `--seconds` is.
const MIN_RUNS: usize = 3;

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload name")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let mut args = Args {
        workload,
        kind,
        seed: 0,
        seconds: 10.0,
        traced: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--traced" => args.traced = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.traced && !cfg!(feature = "telemetry") {
        return Err("--traced needs a build with the `telemetry` feature".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench <potrf_coarse|potrf_fine_uds|potrf_ckpt_uds> \
             --seed N --seconds S [--traced]"
        );
        std::process::exit(2);
    });
    // A failed run's panic is counted, not fatal; keep its message short.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: run panicked: {info}")
    }));

    let t0 = Instant::now();
    let problem = Problem::build(args.kind, args.seed);
    let inputs_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "perfbench: {} inputs and reference in {inputs_s:.2} s",
        args.workload
    );

    // Untimed warm-up (lazy set-up, pools, allocator caches); it is still
    // an attempt, so a failure there counts.
    let warmup = attempt(&problem, false);

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut runs: Vec<String> = Vec::new();
    while runs.len() < MIN_RUNS || started.elapsed() < budget {
        runs.push(attempt(&problem, args.traced));
    }

    let probes = if args.traced {
        run_probes(&problem, args.kind)
    } else {
        Vec::new()
    };

    // The hand-set per-task and per-message overheads the simulator
    // projects with, printed next to the measured ones.
    let simnet = ttg_simnet::MachineModel::hawk(1);
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"threads\":{},\
         \"warmup\":{warmup},\
         \"simnet\":{{\"task_overhead_ns\":{},\"msg_overhead_ns\":{}}},",
        args.workload,
        args.seed,
        args.traced,
        RANKS * WORKERS,
        simnet.task_overhead_ns,
        simnet.msg_overhead_ns,
    );
    let expect = problem
        .expected_counts()
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)));
    let _ = write!(
        out,
        "\"expected_tasks\":{{{}}},",
        expect.collect::<Vec<_>>().join(",")
    );
    let _ = write!(out, "\"runs\":[{}],", runs.join(","));
    let probes = probes.iter().map(|p| {
        format!(
            "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"base\":{}}}",
            p.name,
            p.value,
            p.unit,
            json_str(&p.base)
        )
    });
    let _ = write!(
        out,
        "\"probes\":[{}]}}",
        probes.collect::<Vec<_>>().join(",")
    );
    println!("{out}");
}

/// One call into the app, as a JSON record. `failure` is `null` on a
/// passing run and says why otherwise (bad output, unclean report, panic).
fn attempt(problem: &Problem, traced: bool) -> String {
    if traced {
        ttg_telemetry::drain_events();
        ttg_telemetry::set_enabled(true);
    }
    // Peak resident set of this run alone: `VmHWM` reset to the current
    // size first. `null` where procfs does not allow the reset.
    let rss_reset = reset_peak_rss();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _span = ttg_telemetry::span("bench", "app_run");
        problem.run()
    }));
    let spans = if traced {
        ttg_telemetry::set_enabled(false);
        span_totals()
    } else {
        String::new()
    };
    let peak_rss_mb = peak_rss_mb();
    let Ok(outcome) = outcome else {
        return "{\"failure\":\"panicked\"}".into();
    };
    let r = &outcome.report;
    let failure = if outcome.problems.is_empty() {
        "null".into()
    } else {
        json_str(&outcome.problems.join("; "))
    };
    let mut rec = format!(
        "{{\"failure\":{failure},\"solve_s\":{},\"wall_s\":{},\"peak_rss_mb\":{},\
         \"error\":{:e},\"counters\":{{{}}}",
        r.elapsed.as_secs_f64(),
        outcome.wall.as_secs_f64(),
        peak_rss_mb
            .filter(|_| rss_reset)
            .map_or("null".into(), |v| v.to_string()),
        outcome.error,
        counters(r)
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    if traced {
        let _ = write!(rec, ",\"spans\":{{{spans}}}");
    }
    rec.push('}');
    rec
}

/// Σ duration and count of the recorded spans, by `cat/name`, as JSON
/// members `"cat/name":[count,ns]`.
fn span_totals() -> String {
    let mut acc = BTreeMap::<String, (u64, u64)>::new();
    for ev in ttg_telemetry::drain_events() {
        if let Some(ns) = ev.dur_ns {
            let e = acc.entry(format!("{}/{}", ev.cat, ev.name)).or_default();
            e.0 += 1;
            e.1 += ns;
        }
    }
    acc.iter()
        .map(|(k, (n, ns))| format!("{}:[{n},{ns}]", json_str(k)))
        .collect::<Vec<_>>()
        .join(",")
}

/// The report's exact counters, summed over ranks where they are per rank.
fn counters(r: &ExecReport) -> Vec<(&'static str, u64)> {
    let t = &r.telemetry;
    let ranks = |sub: &'static str, name: &'static str| -> u64 {
        (0..RANKS)
            .map(|rk| t.counter(&MetricKey::ranked(rk, sub, name)))
            .sum()
    };
    let c = &r.comm;
    vec![
        ("core.tasks", r.tasks),
        (
            "core.deep_copies_avoided",
            ranks("core", "deep_copies_avoided"),
        ),
        ("core.cow_clones", ranks("core", "cow_clones")),
        ("core.cloned_bytes", ranks("core", "cloned_bytes")),
        ("runtime.wakeups", ranks("sched", "wakeups")),
        ("runtime.steals", ranks("sched", "steals")),
        ("runtime.steal_misses", ranks("sched", "steal_misses")),
        ("runtime.ready_hwm", c.sched_ready_hwm),
        ("comm.am_count", c.am_count),
        ("comm.am_bytes", c.am_bytes),
        ("comm.rma_bytes", c.rma_bytes),
        ("comm.serializations", c.serializations),
        ("comm.data_copies", c.data_copies),
        ("comm.bcast_sends_saved", c.bcast_sends_saved),
        ("comm.ack_flushes", c.ack_flushes),
        ("comm.am_retries", c.am_retries),
        ("comm.dedup_hits", c.am_dedup_hits),
        ("comm.snapshots", c.snapshots_taken),
        ("comm.snapshot_bytes", c.snapshot_bytes),
        ("transport.tx_bytes", c.transport_tx_bytes),
        ("transport.tx_writes", c.transport_tx_writes),
        (
            "transport.tx_frames_coalesced",
            c.transport_tx_frames_coalesced,
        ),
        ("transport.queue_hwm", c.transport_queue_hwm),
        ("transport.connects", c.transport_connects),
    ]
}

fn run_probes(problem: &Problem, kind: Kind) -> Vec<probe::Probe> {
    let n = problem.tile_edge();
    let timed = |name: &'static str| ttg_telemetry::span("bench", name);
    ttg_telemetry::set_enabled(true);
    let mut out = Vec::new();
    {
        let _s = timed("probe.gemm");
        out.push(probe::gemm(n));
    }
    {
        let _s = timed("probe.wire");
        out.extend(probe::wire(n));
    }
    {
        let _s = timed("probe.submit");
        out.extend(probe::submit(WORKERS));
    }
    {
        let _s = timed("probe.rtt");
        // Payload: one tile's archive encoding (16-byte header + data).
        out.extend(probe::rtt(kind.transport(), 16 + 8 * n * n));
    }
    ttg_telemetry::set_enabled(false);
    let spans = ttg_telemetry::drain_events();
    for ev in spans.iter().filter(|e| e.cat == "bench") {
        eprintln!(
            "perfbench: {} took {:.3} s",
            ev.name,
            ev.dur_ns.unwrap_or(0) as f64 / 1e9
        );
    }
    out
}

/// Reset the process's peak resident set (`VmHWM`) to its current size.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
