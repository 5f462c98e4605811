//! End-to-end benchmark of the deferred-maintenance path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <retail_p2|scenario_mix|cdc_durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed before any clock starts; one client
//! drives them through the public `dvm_core::Database` / `dvm_ingest` API
//! in a closed loop, with maintenance on transaction-count schedules. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` makes an untraced and a traced run of
//! the same seed and reports the per-layer metrics, spans included. The
//! line before it carries the stamp, sample counts and layer counts.
//! See `perfbench/README.md`.

mod cdc_durable;
mod data;
mod harness;
mod retail_p2;
mod scenario_mix;
mod single;
mod stats;
mod trace;

use harness::{Run, Workload, SETUPS};
use stats::{peak_rss_mb, reference_secs, Metrics, Samples};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{Spans, Tracing};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "tx_per_s",
    "commit_p50_us",
    "commit_p99_us",
    "downtime_p50_ms",
    "downtime_p90_ms",
    "mv_read_p50_ms",
    "recover_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 where
/// the workload does not use the layer).
const PER_LAYER: [(&str, &str); 46] = [
    ("core.base_apply_us", "us"),
    ("core.makesafe_us", "us"),
    ("core.makesafe_us.IM", "us"),
    ("core.makesafe_us.BL", "us"),
    ("core.makesafe_us.DT", "us"),
    ("core.makesafe_us.C", "us"),
    ("core.propagate_ms_p50", "ms"),
    ("core.partial_refresh_ms_p50", "ms"),
    ("core.refresh_ms_p50", "ms"),
    ("core.read_through_ms_p50", "ms"),
    ("core.read_through_ms_p90", "ms"),
    ("core.commit_after_read_us_p50", "us"),
    ("core.query_view_ms_p50", "ms"),
    ("core.recompute_ms", "ms"),
    ("storage.join_cache_hit_ratio", "ratio"),
    ("storage.join_cache_evictions", "count"),
    ("storage.log_tuples", "tuples"),
    ("storage.dt_tuples", "tuples"),
    ("delta.compiles", "count"),
    ("delta.binds", "count"),
    ("delta.hits", "count"),
    ("ingest.submit_wait_us_p50", "us"),
    ("ingest.submit_wait_us_p99", "us"),
    ("ingest.events_per_batch", "events"),
    ("ingest.max_queue_depth", "events"),
    ("durability.syncs_per_event", "ratio"),
    ("durability.wal_bytes", "bytes"),
    ("durability.wal_bytes_per_event", "B/event"),
    ("durability.checkpoint_ms_p50", "ms"),
    ("durability.records_replayed", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.self_ms.op", "ms"),
    ("trace.self_ms.execute", "ms"),
    ("trace.self_ms.submit", "ms"),
    ("trace.self_ms.propagate", "ms"),
    ("trace.self_ms.partial_refresh", "ms"),
    ("trace.self_ms.refresh", "ms"),
    ("trace.self_ms.query_view", "ms"),
    ("trace.self_ms.read_through_where", "ms"),
    ("trace.self_ms.checkpoint", "ms"),
    ("trace.calls.execute", "count"),
    ("trace.calls.submit", "count"),
    ("trace.calls.propagate", "count"),
    ("trace.calls.partial_refresh", "count"),
    ("trace.calls.refresh", "count"),
];

/// Spans written to the trace file; self times use all of them.
const TRACE_FILE_SPANS: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: dvm-perfbench --workload <retail_p2|scenario_mix|cdc_durable> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one invocation prints.
struct Report {
    metrics: Metrics,
    runs: Vec<Run>,
}

/// `--trace 0`: build the database [`SETUPS`] times (the median, scaled
/// to the reference host, is `setup_s`), then one untraced run on the
/// last build.
fn end_to_end<W: Workload>(w: &W, dir: &Path) -> dvm_core::Result<Report> {
    let mut setup = Samples::default();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let (db, secs) = reference_secs(|| w.setup(dir));
        state = Some(db?);
        setup.push(secs);
    }
    let db = state.expect("at least one set-up");
    let mut run = Run::default();
    w.run(&db, &Spans::new(Tracing::Off), &mut run);
    w.finish(db, dir, &mut run);
    let mut m = run.e2e.clone();
    m.set("setup_s", setup.median(), "s", setup.len());
    m.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    for name in END_TO_END {
        let ok =
            m.0.get(name)
                .is_some_and(|v| v.value > 0.0 && v.value.is_finite());
        run.check(ok, || format!("end-to-end metric {name} was not measured"));
    }
    Ok(Report {
        metrics: m,
        runs: vec![run],
    })
}

/// `--trace 1`: an untraced run, then a run from the same seed whose even
/// blocks are traced. The second run gives the per-layer metrics, the
/// spans, and the tracing overhead (traced against untraced blocks of the
/// same run); the pair gives, for a single client, the check that layer
/// counts repeat exactly.
fn per_layer<W: Workload>(w: &W, dir: &Path, trace_file: &Path) -> dvm_core::Result<Report> {
    // Build once before the pair, so neither run is the process's first
    // to allocate at full size.
    drop(w.setup(dir)?);
    let spans = Spans::new(Tracing::Alternate);
    let mut runs = Vec::new();
    for s in [&Spans::new(Tracing::Off), &spans] {
        let db = w.setup(dir)?;
        let mut run = Run::default();
        w.run(&db, s, &mut run);
        w.finish(db, dir, &mut run);
        runs.push(run);
    }
    let (off, on) = (&runs[0], &runs[1]);
    let mut m = on.layer.clone();
    let differing: Vec<String> = off
        .counters
        .iter()
        .filter(|(k, v)| on.counters.get(*k) != Some(v))
        .map(|(k, v)| format!("{k} {v} vs {:?}", on.counters.get(k)))
        .collect();
    let same_counts = !W::DETERMINISTIC || differing.is_empty();
    let totals = spans.totals();
    // Oracle checks run inside operations but off the clock.
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    let op_total = total("op") - total("check");
    let child_total: u64 = totals
        .iter()
        .filter(|(k, _)| !matches!(**k, "op" | "check"))
        .map(|(_, t)| t.total_ns)
        .sum();
    let coverage = if op_total == 0 {
        0.0
    } else {
        child_total as f64 / op_total as f64 * 100.0
    };
    m.set("trace.coverage_pct", coverage, "%", 1);
    for (name, t) in &totals {
        m.set(
            format!("trace.self_ms.{name}"),
            t.self_ns as f64 / 1e6,
            "ms",
            t.count as usize,
        );
        m.set(format!("trace.calls.{name}"), t.count as f64, "count", 1);
    }
    if let Err(e) = spans.write(trace_file, TRACE_FILE_SPANS) {
        eprintln!("could not write {}: {e}", trace_file.display());
    }
    let last = runs.last_mut().expect("two runs");
    last.check(same_counts, || {
        format!(
            "layer counts differ between two runs of the same seed: {}",
            differing.join(", ")
        )
    });
    Ok(Report { metrics: m, runs })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The commit this tree was checked out at, when it is a git work tree.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let dir = out.join(format!("{}-{}", args.workload, std::process::id()));
    let trace_file = out.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    let (seed, secs) = (args.seed, args.seconds);
    fn go<W: Workload>(
        w: W,
        trace: bool,
        dir: &Path,
        trace_file: &Path,
    ) -> dvm_core::Result<Report> {
        if trace {
            per_layer(&w, dir, trace_file)
        } else {
            end_to_end(&w, dir)
        }
    }
    let report = match args.workload.as_str() {
        "retail_p2" => {
            retail_p2::plan(seed, secs).and_then(|w| go(w, args.trace, &dir, &trace_file))
        }
        "scenario_mix" => {
            scenario_mix::plan(seed, secs).and_then(|w| go(w, args.trace, &dir, &trace_file))
        }
        "cdc_durable" => {
            cdc_durable::plan(seed, secs).and_then(|w| go(w, args.trace, &dir, &trace_file))
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut metrics = Metrics::default();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = report.metrics.0.get(name).copied();
            metrics.set(
                name,
                v.map_or(0.0, |v| v.value),
                unit,
                v.map_or(0, |v| v.samples),
            );
        }
    } else {
        for name in END_TO_END {
            if let Some(v) = report.metrics.0.get(name) {
                metrics.0.insert(name.to_string(), *v);
            }
        }
    }
    let attempted: u64 = report.runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = report.runs.iter().map(|r| r.failed).sum();
    for e in report.runs.iter().flat_map(|r| &r.errors) {
        eprintln!("failed: {e}");
    }

    // Detail line: stamp, sample counts, layer counts of the last run.
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut detail = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {secs}, \"trace\": {}, \
         \"commit\": {}, \"host_parallelism\": {parallelism}, \"build_profile\": \"{profile}\", \"samples\": {{",
        json_str(&args.workload),
        args.trace as u8,
        json_str(&commit()),
    );
    let samples: Vec<String> = metrics
        .0
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v.samples))
        .collect();
    detail.push_str(&samples.join(", "));
    detail.push_str("}, \"counters\": {");
    let counters = report.runs.last().map(|r| &r.counters);
    let counters: Vec<String> = counters
        .into_iter()
        .flatten()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    detail.push_str(&counters.join(", "));
    detail.push_str("}}");
    println!("{detail}");

    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(v.value),
                json_str(v.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
