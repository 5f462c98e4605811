//! `cdc_durable`: the durable ingest path with little maintenance work.
//! One producer (the main thread) feeds one `IngestPipeline` worker
//! with blocking admission, so the bounded queue closes the loop: the
//! producer can run at most a queue's worth of events ahead of the
//! commits. Every event is fsynced as part of a group commit
//! (`DurabilityPolicy::Always`). The producer thread also propagates and
//! partially refreshes the Combined view, reads it and checkpoints, all
//! on event-count schedules.

use crate::data::Retail;
use crate::harness::{check_views, counter_metrics, layer_counters, reopen, Phase, Run, Workload};
use crate::single::{fresh_pred, recompute_where, timed};
use crate::stats::Samples;
use crate::trace::Spans;
use dvm_core::{Database, Result, Scenario};
use dvm_delta::Transaction;
use dvm_durability::{DurabilityPolicy, WalOptions};
use dvm_ingest::{Admission, ChangeEvent, IngestConfig, IngestPipeline};
use dvm_storage::Bag;
use dvm_workload::view_expr;
use std::path::Path;
use std::time::{Duration, Instant};

const CUSTOMERS: usize = 5_000;
const SALES: usize = 50_000;
const PROPAGATE_EVERY: usize = 256;
const REFRESH_EVERY: usize = 512;
const QUERY_EVERY: usize = 2_048;
/// The timed phase is cut into this many blocks, each with one checkpoint
/// three quarters of the way through.
const BLOCKS: usize = 12;
/// Fresh reads checked against a recompute after the drain, while the
/// view still has a backlog.
const CHECKED_READS: usize = 8;
const WARMUP: usize = 512;
const EVENTS_PER_SECOND: usize = 48_000;
const INGEST: IngestConfig = IngestConfig {
    queue_capacity: 128,
    max_batch: 64,
    admission: Admission::Block,
};

pub struct CdcDurable {
    retail: Retail,
    warmup: Vec<ChangeEvent>,
    events: Vec<ChangeEvent>,
    reads: Vec<i64>,
    /// `sales` once every event has been applied.
    expected_sales: Bag,
}

pub fn plan(seed: u64, seconds: u64) -> Result<CdcDurable> {
    let mut retail = Retail::generate(seed, CUSTOMERS, SALES)?;
    let block = (seconds as usize * EVENTS_PER_SECOND / BLOCKS)
        .div_ceil(QUERY_EVERY)
        .max(1);
    let n = BLOCKS * block * QUERY_EVERY;
    let mut events = sale_events(&mut retail, WARMUP + n);
    let warmup: Vec<ChangeEvent> = events.drain(..WARMUP).collect();
    let mut expected_sales = retail.sales.clone();
    for ev in warmup.iter().chain(&events) {
        expected_sales.monus_assign(&ev.deletes);
        expected_sales.union_assign(&ev.inserts);
    }
    let reads = (0..CHECKED_READS).map(|_| retail.read_customer()).collect();
    Ok(CdcDurable {
        retail,
        warmup,
        events,
        reads,
        expected_sales,
    })
}

/// `n` single-row events alternating a new sale and the return of a live
/// one, so `sales` keeps its size.
fn sale_events(retail: &mut Retail, n: usize) -> Vec<ChangeEvent> {
    let mut events = Vec::with_capacity(n + 1);
    while events.len() < n {
        let tx = retail.gen.mixed_batch(1, 1);
        let (del, ins) = tx.get("sales").expect("a sales transaction");
        events.extend(
            ins.iter_expanded()
                .map(|t| ChangeEvent::insert("sales", t.clone())),
        );
        events.extend(
            del.iter_expanded()
                .map(|t| ChangeEvent::delete("sales", t.clone())),
        );
    }
    events.truncate(n);
    events
}

fn wal_options() -> WalOptions {
    WalOptions {
        policy: DurabilityPolicy::Always,
        ..WalOptions::default()
    }
}

/// Bytes the WAL holds on disk now.
fn wal_bytes(db: &Database) -> u64 {
    db.wal_status()
        .map_or(0, |(s, _)| s.sealed_bytes + s.active_bytes)
}

impl Workload for CdcDurable {
    const DETERMINISTIC: bool = false;

    fn setup(&self, dir: &Path) -> Result<Database> {
        let _ = std::fs::remove_dir_all(dir);
        let db = Database::open_with_options(dir, wal_options())?;
        db.set_maintenance_threads(1);
        self.retail.load(&db)?;
        db.create_view("V", view_expr(), Scenario::Combined)?;
        let txs: Vec<Transaction> = self
            .warmup
            .iter()
            .cloned()
            .map(ChangeEvent::into_transaction)
            .collect();
        db.execute_batch(&txs)?;
        db.propagate("V")?;
        db.partial_refresh("V")?;
        drop(db.read_through_where("V", &fresh_pred(0))?);
        // The bulk load bypasses the WAL; the checkpoint makes it durable.
        db.checkpoint()?;
        Ok(db)
    }

    fn run(&self, db: &Database, spans: &Spans, run: &mut Run) {
        let events = self.events.clone();
        let n = events.len();
        let pipe = match IngestPipeline::new(db, &["sales"], INGEST) {
            Ok(p) => p,
            Err(e) => return run.check(false, || format!("ingest pipeline: {e}")),
        };
        let producer = pipe.producer();
        let view_before = db.view_metrics("V").unwrap_or_default();
        let counts_before = layer_counters(db);
        let block = |event: usize| event * BLOCKS / n;
        let mut created: Vec<Instant> = Vec::with_capacity(n);
        let mut acked_at: Vec<Instant> = Vec::with_capacity(n);
        let mut phase = Phase::new(BLOCKS);
        let (mut submit_wait, mut propagate, mut partial_refresh) =
            (Samples::default(), Samples::default(), Samples::default());
        let (mut query, mut checkpoint) = (Samples::default(), Samples::default());
        let (mut log_tuples, mut dt_tuples) = (Samples::default(), Samples::default());
        let mut wal_retained = wal_bytes(db);
        let mut wal_written = 0;

        // Acknowledge every event the worker has committed so far: the
        // commit latency of an event runs from its submission until the
        // pipeline's `ingested` counter passes it.
        let poll = |created: &[Instant], acked_at: &mut Vec<Instant>, phase: &mut Phase| {
            let ingested = pipe.stats().ingested as usize;
            let now = Instant::now();
            while acked_at.len() < ingested.min(created.len()) {
                let j = acked_at.len();
                phase.commit(block(j), now - created[j]);
                acked_at.push(now);
            }
        };

        let mut calibrating_in = [Duration::ZERO; BLOCKS];
        let start = Instant::now();
        let outcome = std::thread::scope(|s| {
            let worker = s.spawn(|| pipe.run_worker());
            for (i, ev) in events.into_iter().enumerate() {
                let t = i + 1;
                if i % (n / BLOCKS) == 0 {
                    // Calibrate with the pipeline drained, so the worker
                    // does not share the host with the calibration.
                    while acked_at.len() < i && !worker.is_finished() {
                        std::thread::yield_now();
                        poll(&created, &mut acked_at, &mut phase);
                    }
                    let from = Instant::now();
                    phase.start_block(block(i), spans);
                    calibrating_in[block(i)] = from.elapsed();
                }
                spans.op("op", i as u64, || {
                    created.push(Instant::now());
                    let (r, d) = timed(spans, "submit", || producer.submit(ev));
                    submit_wait.push_us(d);
                    run.check(matches!(r, Ok(true)), || format!("submit: {r:?}"));
                    poll(&created, &mut acked_at, &mut phase);
                    if t % PROPAGATE_EVERY == 0 {
                        let (r, d) = timed(spans, "propagate", || db.propagate("V"));
                        if run.op(r, "propagate").is_some() {
                            propagate.push_ms(d);
                        }
                    }
                    if t % REFRESH_EVERY == 0 {
                        if let Ok((log, dt)) = db.aux_sizes("V") {
                            log_tuples.push(log as f64);
                            dt_tuples.push(dt as f64);
                        }
                        let (r, d) = timed(spans, "partial_refresh", || db.partial_refresh("V"));
                        if run.op(r, "partial_refresh").is_some() {
                            partial_refresh.push_ms(d);
                            phase.downtime(block(i), d);
                        }
                    }
                    if t % QUERY_EVERY == QUERY_EVERY / 2 {
                        let (r, d) = timed(spans, "query_view", || db.query_view("V"));
                        if run.op(r, "query_view").is_some() {
                            query.push_ms(d);
                            phase.mv_read(block(i), d);
                        }
                    }
                    if i % (n / BLOCKS) == n / BLOCKS * 3 / 4 {
                        wal_written += wal_bytes(db) - wal_retained;
                        let (r, d) = timed(spans, "checkpoint", || db.checkpoint());
                        if run.op(r, "checkpoint").is_some() {
                            checkpoint.push_ms(d);
                        }
                        wal_retained = wal_bytes(db);
                    }
                    poll(&created, &mut acked_at, &mut phase);
                });
            }
            // Wait for the last acknowledgements, unless the worker died.
            while acked_at.len() < n && !worker.is_finished() {
                std::thread::sleep(Duration::from_micros(20));
                poll(&created, &mut acked_at, &mut phase);
            }
            poll(&created, &mut acked_at, &mut phase);
            pipe.close();
            worker.join()
        });
        let stats = match outcome {
            Ok(Ok(stats)) => stats,
            Ok(Err(e)) => return run.check(false, || format!("ingest worker: {e}")),
            Err(_) => return run.check(false, || "ingest worker panicked".into()),
        };
        let acked = acked_at.len();
        run.check(acked == n, || format!("{acked} of {n} events acknowledged"));
        if acked < n {
            return;
        }
        wal_written += wal_bytes(db) - wal_retained;

        // A block runs from the acknowledgement of the previous block's
        // last event to that of its own last event, less the producer's
        // calibration at its start.
        for (b, calibrating) in calibrating_in.into_iter().enumerate() {
            let (lo, hi) = (b * n / BLOCKS, (b + 1) * n / BLOCKS);
            let from = if lo == 0 { start } else { acked_at[lo - 1] };
            phase.block_took(b, (acked_at[hi - 1] - from).saturating_sub(calibrating));
        }
        phase.report(spans, run);

        let l = &mut run.layer;
        let view_after = db.view_metrics("V").unwrap_or_default();
        let count = view_after.makesafe_count - view_before.makesafe_count;
        let nanos = view_after.makesafe_nanos - view_before.makesafe_nanos;
        let makesafe_us = if count == 0 {
            0.0
        } else {
            nanos as f64 / count as f64 / 1e3
        };
        l.set("core.makesafe_us.C", makesafe_us, "us", count as usize);
        l.set("core.makesafe_us", makesafe_us, "us", count as usize);
        l.pct("core.propagate_ms_p50", &propagate, 0.5, "ms");
        l.pct("core.partial_refresh_ms_p50", &partial_refresh, 0.5, "ms");
        l.pct("core.query_view_ms_p50", &query, 0.5, "ms");
        l.set(
            "storage.log_tuples",
            log_tuples.mean(),
            "tuples",
            log_tuples.len(),
        );
        l.set(
            "storage.dt_tuples",
            dt_tuples.mean(),
            "tuples",
            dt_tuples.len(),
        );
        l.pct("ingest.submit_wait_us_p50", &submit_wait, 0.5, "us");
        l.pct("ingest.submit_wait_us_p99", &submit_wait, 0.99, "us");
        let batches = stats.batches.max(1) as f64;
        let ingested = stats.ingested.max(1) as f64;
        l.set(
            "ingest.events_per_batch",
            stats.ingested as f64 / batches,
            "events",
            stats.batches as usize,
        );
        l.set(
            "ingest.max_queue_depth",
            stats.max_queue_depth as f64,
            "events",
            1,
        );
        l.set(
            "durability.syncs_per_event",
            stats.wal_syncs as f64 / ingested,
            "ratio",
            stats.wal_syncs as usize,
        );
        l.set("durability.wal_bytes", wal_written as f64, "bytes", 1);
        l.set(
            "durability.wal_bytes_per_event",
            wal_written as f64 / ingested,
            "B/event",
            stats.ingested as usize,
        );
        l.pct("durability.checkpoint_ms_p50", &checkpoint, 0.5, "ms");
        let counts_after = layer_counters(db);
        counter_metrics(&counts_before, &counts_after, l);
        run.counters = counts_after;
        run.counters
            .insert("durability.wal_bytes".into(), wal_written);
    }

    fn finish(&self, db: Database, dir: &Path, run: &mut Run) {
        let sales = db.catalog().bag_of("sales");
        run.check(sales.is_ok_and(|s| s == self.expected_sales), || {
            "sales differs from the initial rows plus every acknowledged event".into()
        });
        for &cust in &self.reads {
            let fresh = db.read_through_where("V", &fresh_pred(cust));
            let truth = recompute_where(&db, "V", cust);
            run.check(matches!((&fresh, &truth), (Ok(a), Ok(b)) if a == b), || {
                format!("fresh read for custId {cust} differs from recompute")
            });
        }
        let recompute_ms = check_views(&db, &[("V", true)], "V", run);
        run.layer.set("core.recompute_ms", recompute_ms, "ms", 1);
        reopen(db, dir, wal_options(), run);
    }
}
