//! One client in a closed loop: commit a transaction, then run whatever
//! maintenance and reads the transaction-count schedule puts after it,
//! then the next transaction. Used by `retail_p2` and `scenario_mix`.

use crate::data::Retail;
use crate::harness::{check_views, counter_metrics, layer_counters, reopen, Phase, Run, Workload};
use crate::stats::{Samples, Stopwatch};
use crate::trace::Spans;
use dvm_algebra::{col, lit, Predicate};
use dvm_core::{readthrough, Database, Result, Scenario, ViewMetricsSnapshot};
use dvm_delta::Transaction;
use dvm_durability::WalOptions;
use dvm_storage::Bag;
use dvm_workload::view_expr;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// A call the schedule makes after a commit.
pub enum Action {
    Propagate(&'static str),
    PartialRefresh(&'static str),
    Refresh(&'static str),
    QueryView(&'static str),
    /// `read_through_where(custId = cust)`; with `check`, the answer is
    /// compared against a recompute off the clock.
    FreshRead {
        view: &'static str,
        cust: i64,
        check: bool,
    },
}

/// One operation: a transaction and the calls scheduled after it.
pub struct Op {
    pub tx: Transaction,
    pub after: Vec<Action>,
}

/// A single-client workload: the tables, the views over them, and every
/// operation, generated before the clock starts.
pub struct SingleClient {
    pub retail: Retail,
    /// `(name, scenario)`; every view is Example 1.1's `V`.
    pub views: Vec<(&'static str, Scenario)>,
    /// The view whose `recompute_view` time is reported.
    pub main_view: &'static str,
    /// Maintenance worker threads (0 = one per core).
    pub threads: usize,
    /// Run during set-up, so compiled variants and caches are warm.
    pub warmup: Vec<Op>,
    /// The timed phase: whole blocks of `block` operations.
    pub ops: Vec<Op>,
    pub block: usize,
}

pub fn fresh_pred(cust: i64) -> Predicate {
    Predicate::eq(col("custId"), lit(cust))
}

/// What a fresh read of `view` for `cust` must return, computed from
/// scratch.
pub fn recompute_where(db: &Database, view: &str, cust: i64) -> Result<Bag> {
    readthrough::recompute_where(db.catalog(), &*db.view(view)?, &fresh_pred(cust))
}

pub fn timed<T>(spans: &Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    spans.call(name, || {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed())
    })
}

/// Per-view metric totals by view name.
fn view_totals(db: &Database) -> BTreeMap<String, ViewMetricsSnapshot> {
    db.view_names()
        .into_iter()
        .filter_map(|n| db.view_metrics(&n).ok().map(|m| (n, m)))
        .collect()
}

#[derive(Default)]
struct Timings {
    commit_after_read: Samples,
    base_apply: Samples,
    makesafe: Samples,
    propagate: Samples,
    partial_refresh: Samples,
    refresh: Samples,
    query_view: Samples,
    fresh_read: Samples,
    log_tuples: Samples,
    dt_tuples: Samples,
}

impl Workload for SingleClient {
    const DETERMINISTIC: bool = true;

    fn setup(&self, _dir: &Path) -> Result<Database> {
        let db = Database::new();
        db.set_maintenance_threads(self.threads);
        self.retail.load(&db)?;
        for &(name, scenario) in &self.views {
            db.create_view(name, view_expr(), scenario)?;
        }
        for op in &self.warmup {
            db.execute(&op.tx)?;
            for a in &op.after {
                match *a {
                    Action::Propagate(v) => db.propagate(v)?,
                    Action::PartialRefresh(v) => db.partial_refresh(v)?,
                    Action::Refresh(v) => db.refresh(v)?,
                    Action::QueryView(v) => drop(db.query_view(v)?),
                    Action::FreshRead { view, cust, .. } => {
                        drop(db.read_through_where(view, &fresh_pred(cust))?)
                    }
                }
            }
        }
        Ok(db)
    }

    fn run(&self, db: &Database, spans: &Spans, run: &mut Run) {
        let counts_before = layer_counters(db);
        let views_before = view_totals(db);
        let mut t = Timings::default();
        let mut phase = Phase::new(self.ops.len() / self.block);
        let mut block_start = Duration::ZERO;
        let mut read_just_before = false;
        let mut clock = Stopwatch::start();
        for (i, op) in self.ops.iter().enumerate() {
            let b = i / self.block;
            if i % self.block == 0 {
                clock.pause(|| phase.start_block(b, spans));
            }
            spans.op("op", i as u64, || {
                let (r, d) = timed(spans, "execute", || db.execute(&op.tx));
                if let Some(rep) = run.op(r, "execute") {
                    phase.commit(b, d);
                    if read_just_before {
                        t.commit_after_read.push_us(d);
                    }
                    t.base_apply.push(rep.base_apply_nanos as f64 / 1e3);
                    t.makesafe.push(rep.maintenance_nanos as f64 / 1e3);
                }
                read_just_before = false;
                for a in &op.after {
                    match *a {
                        Action::Propagate(v) => {
                            let (r, d) = timed(spans, "propagate", || db.propagate(v));
                            if run.op(r, "propagate").is_some() {
                                t.propagate.push_ms(d);
                            }
                        }
                        Action::PartialRefresh(v) | Action::Refresh(v) => {
                            let partial = matches!(a, Action::PartialRefresh(_));
                            if let Ok((log, dt)) = clock.pause(|| spans.call("check", || db.aux_sizes(v))) {
                                t.log_tuples.push(log as f64);
                                t.dt_tuples.push(dt as f64);
                            }
                            let (r, d) = if partial {
                                timed(spans, "partial_refresh", || db.partial_refresh(v))
                            } else {
                                timed(spans, "refresh", || db.refresh(v))
                            };
                            if run.op(r, "refresh").is_some() {
                                phase.downtime(b, d);
                                if partial {
                                    t.partial_refresh.push_ms(d);
                                } else {
                                    t.refresh.push_ms(d);
                                }
                            }
                        }
                        Action::QueryView(v) => {
                            let (r, d) = timed(spans, "query_view", || db.query_view(v));
                            if run.op(r, "query_view").is_some() {
                                t.query_view.push_ms(d);
                                phase.mv_read(b, d);
                            }
                        }
                        Action::FreshRead { view, cust, check } => {
                            let pred = fresh_pred(cust);
                            let (r, d) =
                                timed(spans, "read_through_where", || db.read_through_where(view, &pred));
                            read_just_before = true;
                            let Some(fresh) = run.op(r, "read_through_where") else {
                                continue;
                            };
                            t.fresh_read.push_ms(d);
                            if check {
                                let truth = clock.pause(|| spans.call("check", || recompute_where(db, view, cust)));
                                run.check(truth.is_ok_and(|truth| truth == fresh), || {
                                    format!("fresh read of {view} for custId {cust} differs from recompute")
                                });
                            }
                        }
                    }
                }
            });
            let now = clock.elapsed();
            phase.block_took(b, now - block_start);
            block_start = now;
        }
        phase.report(spans, run);

        let l = &mut run.layer;
        l.set(
            "core.base_apply_us",
            t.base_apply.mean(),
            "us",
            t.base_apply.len(),
        );
        l.set(
            "core.makesafe_us",
            t.makesafe.mean(),
            "us",
            t.makesafe.len(),
        );
        for (name, after) in view_totals(db) {
            let before = views_before.get(&name).copied().unwrap_or_default();
            let count = after.makesafe_count - before.makesafe_count;
            let nanos = after.makesafe_nanos - before.makesafe_nanos;
            let scenario = self.views.iter().find(|v| v.0 == name).map(|v| v.1);
            if let (Some(s), true) = (scenario, count > 0) {
                let us = nanos as f64 / count as f64 / 1e3;
                l.set(
                    format!("core.makesafe_us.{}", s.label()),
                    us,
                    "us",
                    count as usize,
                );
            }
        }
        l.pct("core.propagate_ms_p50", &t.propagate, 0.5, "ms");
        l.pct("core.partial_refresh_ms_p50", &t.partial_refresh, 0.5, "ms");
        l.pct("core.refresh_ms_p50", &t.refresh, 0.5, "ms");
        l.pct("core.read_through_ms_p50", &t.fresh_read, 0.5, "ms");
        l.pct("core.read_through_ms_p90", &t.fresh_read, 0.9, "ms");
        l.pct(
            "core.commit_after_read_us_p50",
            &t.commit_after_read,
            0.5,
            "us",
        );
        l.pct("core.query_view_ms_p50", &t.query_view, 0.5, "ms");
        l.set(
            "storage.log_tuples",
            t.log_tuples.mean(),
            "tuples",
            t.log_tuples.len(),
        );
        l.set(
            "storage.dt_tuples",
            t.dt_tuples.mean(),
            "tuples",
            t.dt_tuples.len(),
        );
        let counts_after = layer_counters(db);
        counter_metrics(&counts_before, &counts_after, l);
        run.counters = counts_after;
        run.counters
            .insert("storage.log_tuples_sum".into(), t.log_tuples.sum() as u64);
        run.counters
            .insert("storage.dt_tuples_sum".into(), t.dt_tuples.sum() as u64);
    }

    fn finish(&self, db: Database, dir: &Path, run: &mut Run) {
        let views: Vec<(&str, bool)> = self
            .views
            .iter()
            .map(|&(n, s)| (n, s != Scenario::Immediate))
            .collect();
        let recompute_ms = check_views(&db, &views, self.main_view, run);
        run.layer.set("core.recompute_ms", recompute_ms, "ms", 1);
        // The in-memory workloads restart from a checkpoint alone.
        if run.op(db.save_to_dir(dir), "save_to_dir").is_some() {
            reopen(db, dir, WalOptions::default(), run);
        }
    }
}
