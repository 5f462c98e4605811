//! What every workload shares: the run record, the workload interface,
//! the layer counters, and the oracles that run after the timed phase.

use crate::stats::{host_slowdown, reference_secs, Metrics, Samples};
use crate::trace::{Spans, Tracing};
use dvm_core::{Database, Result};
use dvm_durability::WalOptions;
use dvm_storage::Bag;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How many times the database is built per run (the median is reported).
pub const SETUPS: usize = 5;

/// The database is reopened at least `MIN_OPENS` times and until
/// `OPEN_SECS` have passed, at most `MAX_OPENS` times.
const MIN_OPENS: usize = 8;
const MAX_OPENS: usize = 64;
const OPEN_SECS: f64 = 3.0;

/// How many blocks of `block` operations make a timed phase of about
/// `seconds`, at a nominal `per_second` operations a second (at least 3).
pub fn blocks_for(seconds: u64, per_second: usize, block: usize) -> usize {
    (seconds as usize * per_second).div_ceil(block).max(3)
}

/// What the timed phase records for the end-to-end metrics. The phase is
/// cut into consecutive blocks of equal work, each holding whole periods
/// of the workload's schedule. The host's slowdown is measured, off the
/// clock, as each block starts; every time recorded in the block is
/// divided by it, so the metrics are times on the reference host.
pub struct Phase {
    slowdown: Vec<f64>,
    /// Operations committed in each block.
    work: Vec<usize>,
    /// Scaled seconds each block took.
    secs: Vec<f64>,
    /// Commit latency (us), one sample per committed transaction or event.
    commit: Samples,
    /// Refresh and partial refresh durations (ms): the view's downtime.
    downtime: Samples,
    /// `query_view` durations (ms).
    mv_read: Samples,
}

impl Phase {
    pub fn new(blocks: usize) -> Self {
        Phase {
            slowdown: vec![1.0; blocks],
            work: vec![0; blocks],
            secs: vec![0.0; blocks],
            commit: Samples::default(),
            downtime: Samples::default(),
            mv_read: Samples::default(),
        }
    }

    /// Call between operations as block `b` starts (off the clock).
    pub fn start_block(&mut self, b: usize, spans: &Spans) {
        spans.start_block(b);
        self.slowdown[b] = host_slowdown();
    }

    pub fn block_took(&mut self, b: usize, d: Duration) {
        self.secs[b] += d.as_secs_f64() / self.slowdown[b];
    }

    pub fn commit(&mut self, b: usize, d: Duration) {
        self.work[b] += 1;
        self.commit.push_us(d.div_f64(self.slowdown[b]));
    }

    pub fn downtime(&mut self, b: usize, d: Duration) {
        self.downtime.push_ms(d.div_f64(self.slowdown[b]));
    }

    pub fn mv_read(&mut self, b: usize, d: Duration) {
        self.mv_read.push_ms(d.div_f64(self.slowdown[b]));
    }

    /// Commits per scaled second over the blocks of one parity, or all.
    fn rate(&self, parity: Option<usize>) -> f64 {
        let blocks = (0..self.secs.len()).filter(|b| parity.is_none_or(|p| b % 2 == p));
        let (work, secs) = blocks.fold((0, 0.0), |(w, s), b| (w + self.work[b], s + self.secs[b]));
        work as f64 / secs
    }

    pub fn report(&self, spans: &Spans, run: &mut Run) {
        if spans.mode() == Tracing::Alternate {
            // Untraced (odd) blocks against traced (even) ones.
            let overhead = (self.rate(Some(1)) / self.rate(Some(0)) - 1.0) * 100.0;
            run.layer
                .set("obs.trace_overhead_pct", overhead, "%", self.secs.len());
        }
        let e = &mut run.e2e;
        e.set("tx_per_s", self.rate(None), "1/s", self.commit.len());
        e.pct("commit_p50_us", &self.commit, 0.5, "us");
        e.pct("commit_p99_us", &self.commit, 0.99, "us");
        e.pct("downtime_p50_ms", &self.downtime, 0.5, "ms");
        e.pct("downtime_p90_ms", &self.downtime, 0.9, "ms");
        e.pct("mv_read_p50_ms", &self.mv_read, 0.5, "ms");
    }
}

/// One workload: seeded inputs made up front, then set-up, a closed-loop
/// timed phase, and the oracles.
pub trait Workload {
    /// Whether two runs from the same seed must produce identical layer
    /// counts (true for a single client).
    const DETERMINISTIC: bool;
    /// Build the database and warm it up. `dir` is the workload's own
    /// scratch directory.
    fn setup(&self, dir: &Path) -> Result<Database>;
    /// The timed phase.
    fn run(&self, db: &Database, spans: &Spans, run: &mut Run);
    /// Off the clock: check outputs, then measure a restart.
    fn finish(&self, db: Database, dir: &Path, run: &mut Run);
}

/// Everything one run of one workload reports.
#[derive(Default)]
pub struct Run {
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Layer counts that depend only on the inputs.
    pub counters: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Run {
    /// Count one checked operation; `ok == false` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Count one operation by its result.
    pub fn op<T>(&mut self, r: Result<T>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Per-view maintenance counts, compiled-program counts and join-cache
/// counts, keyed by a stable name.
pub fn layer_counters(db: &Database) -> BTreeMap<String, u64> {
    let obs = db.observability();
    let mut c = BTreeMap::new();
    for v in &obs.views {
        let n = &v.name;
        c.insert(format!("view.{n}.makesafe_count"), v.totals.makesafe_count);
        c.insert(
            format!("view.{n}.propagate_count"),
            v.totals.propagate_count,
        );
        c.insert(format!("view.{n}.refresh_count"), v.totals.refresh_count);
        if let Some(p) = v.delta_program {
            c.insert(format!("view.{n}.delta_compiles"), p.compiles);
            c.insert(format!("view.{n}.delta_binds"), p.binds);
            c.insert(format!("view.{n}.delta_hits"), p.hits);
        }
    }
    c.insert("join_cache.hits".into(), obs.join_cache.hits);
    c.insert("join_cache.misses".into(), obs.join_cache.misses);
    c.insert("join_cache.evictions".into(), obs.join_cache.evictions);
    c
}

/// Sum of one per-view counter over every view.
fn sum_counter(c: &BTreeMap<String, u64>, suffix: &str) -> u64 {
    c.iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// The `storage`, `delta` and cache rows of the per-layer table, from the
/// counts before and after the timed phase.
pub fn counter_metrics(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    m: &mut Metrics,
) {
    let d = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let (hits, misses) = (d("join_cache.hits"), d("join_cache.misses"));
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    m.set(
        "storage.join_cache_hit_ratio",
        ratio,
        "ratio",
        (hits + misses) as usize,
    );
    m.set(
        "storage.join_cache_evictions",
        d("join_cache.evictions") as f64,
        "count",
        1,
    );
    for (name, suffix) in [
        ("delta.compiles", ".delta_compiles"),
        ("delta.binds", ".delta_binds"),
        ("delta.hits", ".delta_hits"),
    ] {
        let v = sum_counter(after, suffix) - sum_counter(before, suffix);
        m.set(name, v as f64, "count", 1);
    }
}

/// Every table of `db`, base and internal, by name.
pub fn tables(db: &Database) -> Result<BTreeMap<String, Bag>> {
    let cat = db.catalog();
    cat.table_names()
        .into_iter()
        .map(|t| Ok((t.clone(), cat.bag_of(&t)?)))
        .collect()
}

/// Bring every deferred view up to date, then check each against a
/// recompute from scratch and every invariant. Returns the milliseconds
/// `recompute_view` took on `main_view`.
pub fn check_views(db: &Database, views: &[(&str, bool)], main_view: &str, run: &mut Run) -> f64 {
    let mut recompute_ms = 0.0;
    for &(name, deferred) in views {
        if deferred {
            run.op(db.refresh(name), "final refresh");
        }
        let t = Instant::now();
        let truth = db.recompute_view(name);
        if name == main_view {
            recompute_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        let mv = db.query_view(name);
        match (mv, truth) {
            (Ok(mv), Ok(truth)) => run.check(mv == truth, || {
                format!("view {name} differs from recompute")
            }),
            (a, b) => run.check(false, || {
                format!("view {name}: {:?} / {:?}", a.err(), b.err())
            }),
        }
    }
    match db.check_all_invariants() {
        Ok(reports) => {
            for r in reports {
                run.check(r.ok(), || format!("invariant fails: {r:?}"));
            }
        }
        Err(e) => run.check(false, || format!("check_all_invariants: {e}")),
    }
    recompute_ms
}

/// Drop `db` and reopen `dir` repeatedly. The first reopened
/// database must hold exactly the tables `db` held. Reports `recover_s`, the median
/// `Database::open` time scaled to the reference host, and the WAL
/// records each open replayed.
pub fn reopen(db: Database, dir: &Path, options: WalOptions, run: &mut Run) {
    let Some(live) = run.op(tables(&db), "capture live tables") else {
        return;
    };
    drop(db);
    let mut opens = Samples::default();
    let mut replayed = 0;
    let started = Instant::now();
    for i in 0..MAX_OPENS {
        if i >= MIN_OPENS && started.elapsed().as_secs_f64() >= OPEN_SECS {
            break;
        }
        let (opened, secs) = reference_secs(|| Database::open_with_options(dir, options));
        let Some(reopened) = run.op(opened, "reopen") else {
            continue;
        };
        opens.push(secs);
        replayed = reopened
            .recovery_report()
            .map_or(0, |r| r.wal_records_replayed);
        if opens.len() == 1 {
            let same = tables(&reopened).is_ok_and(|t| t == live);
            run.check(same, || {
                "reopened database differs from the live one".into()
            });
        }
    }
    run.e2e.set("recover_s", opens.median(), "s", opens.len());
    run.layer
        .set("durability.records_replayed", replayed as f64, "count", 1);
}
