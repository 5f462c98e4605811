//! Compiled delta programs end-to-end through `Database`: steady-state
//! propagate, IM/DT `makesafe` and read-through must do zero symbolic work
//! (no derivation, no plan construction — only parameter binding), the
//! empty-log fast path must do *nothing*, repeated propagates and fresh
//! reads must keep the join-build cache warm, and crash recovery must
//! rebuild the programs to the same answers.
//!
//! Profiling is a process-wide flag, so every flag-dependent assertion
//! lives in one test body — parallel test threads must not observe each
//! other's toggles.

use dvm_algebra::{col, Expr, Predicate};
use dvm_core::{Database, Scenario};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Schema, ValueType};
use std::path::PathBuf;

fn schema_ab() -> Schema {
    Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)])
}

/// An equi-join the optimizer compiles to a `HashJoin`, so propagates
/// exercise the build cache.
fn join_def() -> Expr {
    Expr::table("t0")
        .alias("l")
        .product(Expr::table("t1").alias("r"))
        .select(Predicate::eq(col("l.a"), col("r.a")))
        .project(["l.a", "r.b"])
}

fn seeded_join_db() -> Database {
    let db = Database::new();
    let t0 = db.create_table("t0", schema_ab()).unwrap();
    t0.insert(tuple![1, 1]).unwrap();
    t0.insert(tuple![2, 2]).unwrap();
    let t1 = db.create_table("t1", schema_ab()).unwrap();
    t1.insert(tuple![1, 10]).unwrap();
    t1.insert(tuple![3, 30]).unwrap();
    db
}

/// Labels of every phase/operator recorded for the most recent op of the
/// given kind.
fn op_labels(db: &Database, op: &str) -> Vec<String> {
    db.profile_report()
        .ops
        .iter()
        .filter(|o| o.op == op)
        .flat_map(|o| o.evals.iter().map(|e| e.label.clone()))
        .collect()
}

#[test]
fn steady_state_propagate_does_zero_symbolic_work() {
    let db = seeded_join_db();
    db.create_view("vj", join_def(), Scenario::Combined).unwrap();

    // --- warm path: a fully dirty log uses the eagerly compiled
    // all-active variant — no derivation, no compile, just binding ---
    db.set_profiling(true);
    db.execute(
        &Transaction::new()
            .delete_tuple("t0", tuple![2, 2])
            .insert_tuple("t0", tuple![3, 3])
            .delete_tuple("t1", tuple![3, 30])
            .insert_tuple("t1", tuple![2, 20]),
    )
    .unwrap();
    db.propagate("vj").unwrap();
    let labels = op_labels(&db, "propagate");
    assert!(
        !labels.iter().any(|l| l.contains("DeriveDeltas")),
        "steady state must not differentiate: {labels:?}"
    );
    assert!(
        !labels.iter().any(|l| l.contains("CompilePin")),
        "steady state must not plan-compile: {labels:?}"
    );
    assert!(
        !labels.iter().any(|l| l.contains("CompileDelta")),
        "the all-active variant was compiled at view creation: {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l == "BindParams"),
        "the compiled path binds log bags as parameters: {labels:?}"
    );

    // --- a new activity mask derives once, then never again ---
    db.set_profiling(false);
    db.set_profiling(true); // fresh phase
    db.execute(&Transaction::new().insert_tuple("t0", tuple![9, 9]))
        .unwrap();
    db.propagate("vj").unwrap();
    let labels = op_labels(&db, "propagate");
    assert_eq!(
        labels.iter().filter(|l| l.contains("CompileDelta")).count(),
        1,
        "first sighting of the insert-only mask compiles it: {labels:?}"
    );
    db.set_profiling(false);
    db.set_profiling(true);
    db.execute(&Transaction::new().insert_tuple("t0", tuple![8, 8]))
        .unwrap();
    db.propagate("vj").unwrap();
    let labels = op_labels(&db, "propagate");
    assert!(
        !labels.iter().any(|l| l.contains("CompileDelta")),
        "repeat of a seen mask is a pure cache lookup: {labels:?}"
    );
    assert!(labels.iter().any(|l| l == "BindParams"), "{labels:?}");

    // --- empty-log fast path: the operation records nothing at all ---
    db.set_profiling(false);
    db.set_profiling(true);
    db.propagate("vj").unwrap(); // log is empty after the previous one
    let rep = db.profile_report();
    let prop = rep
        .ops
        .iter()
        .find(|o| o.op == "propagate")
        .expect("propagate is profiled even when it short-circuits");
    assert!(
        prop.evals.is_empty(),
        "empty-log propagate must evaluate nothing: {:?}",
        prop.evals.iter().map(|e| &e.label).collect::<Vec<_>>()
    );
    db.set_profiling(false);

    // And the short-circuit changed nothing: the view still lands on truth.
    db.refresh("vj").unwrap();
    assert_eq!(
        db.query_view("vj").unwrap(),
        db.recompute_view("vj").unwrap()
    );
}

/// Repeated propagates over a one-sided insert stream: the stable side's
/// hash-join build is cached once and then only probed — after warmup the
/// miss counter must freeze while hits keep climbing. The per-view
/// compiled-plan counters must tell the matching story.
#[test]
fn repeated_propagates_never_miss_build_cache_after_warmup() {
    let db = seeded_join_db();
    db.create_view("vj", join_def(), Scenario::Combined).unwrap();

    let run = |i: i64| {
        db.execute(&Transaction::new().insert_tuple("t0", tuple![i, i]))
            .unwrap();
        db.propagate("vj").unwrap();
    };
    // Warmup: first sighting of the insert-only mask compiles its variant
    // and populates the build cache for the stable t1 side.
    run(100);
    run(101);
    let warm = db.catalog().join_cache().stats();
    for i in 0..6 {
        run(200 + i);
    }
    let after = db.catalog().join_cache().stats();
    assert_eq!(
        after.misses, warm.misses,
        "no build-cache miss after warmup: {warm:?} -> {after:?}"
    );
    assert!(
        after.hits > warm.hits,
        "warm propagates must probe the cached build: {warm:?} -> {after:?}"
    );

    // The compiled-program counters surface per view in observability.
    let obs = db.observability();
    let v = obs
        .views
        .iter()
        .find(|v| v.name == "vj")
        .expect("view observed");
    let dp = v
        .delta_program
        .as_ref()
        .expect("combined view carries a compiled program");
    assert_eq!(dp.binds, 8, "one bind per non-empty propagate");
    assert_eq!(dp.hits, 7, "every propagate after the first mask hit");
    assert!(
        dp.compiles <= 2,
        "all-active (eager) + insert-only mask: {dp:?}"
    );
    let doc = obs.to_json();
    assert!(doc.contains("\"delta_program\""), "{doc}");
    assert!(doc.contains("\"cache_hits\""), "{doc}");
    let rendered = obs.render();
    assert!(rendered.contains("delta plans vj:"), "{rendered}");

    // Correctness was never traded away.
    db.refresh("vj").unwrap();
    assert_eq!(
        db.query_view("vj").unwrap(),
        db.recompute_view("vj").unwrap()
    );
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-compiled-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Crash after a workload that left the log half-propagated; recovery must
/// rebuild the compiled programs (fresh counters) and answer exactly like
/// a never-crashed twin.
#[test]
fn recovery_rebuilds_compiled_programs_to_same_answers() {
    let dir = tmpdir("recovery");
    let workload = |db: &Database| {
        db.create_table("t0", schema_ab()).unwrap();
        db.create_table("t1", schema_ab()).unwrap();
        db.execute(
            &Transaction::new()
                .insert_tuple("t0", tuple![1, 1])
                .insert_tuple("t0", tuple![2, 2])
                .insert_tuple("t1", tuple![1, 10]),
        )
        .unwrap();
        db.create_view("vj", join_def(), Scenario::Combined).unwrap();
        db.execute(
            &Transaction::new()
                .delete_tuple("t0", tuple![2, 2])
                .insert_tuple("t1", tuple![2, 20]),
        )
        .unwrap();
        db.propagate("vj").unwrap();
        // Leave unpropagated work in the log at the "crash".
        db.execute(&Transaction::new().insert_tuple("t0", tuple![2, 7]))
            .unwrap();
    };

    {
        let db = Database::open(&dir).unwrap();
        workload(&db);
        db.sync_wal().unwrap();
        // Dropped without checkpoint: recovery replays the WAL.
    }
    let recovered = Database::open(&dir).unwrap();
    let twin = Database::new();
    workload(&twin);

    // The recovered program is a fresh compile: WAL replay re-created the
    // view (eager all-active variant) and re-ran the logged propagate
    // through it, so the counters exist but are replay-local — none of
    // the pre-crash totals survive.
    let obs = recovered.observability();
    let v = obs.views.iter().find(|v| v.name == "vj").unwrap();
    let dp = v
        .delta_program
        .as_ref()
        .expect("replayed CreateView recompiles the program");
    assert!(dp.compiles >= 1 && dp.variants >= 1, "{dp:?}");
    assert_eq!(dp.binds, 1, "exactly the replayed propagate bound: {dp:?}");

    // Same stale MV, same aux state, and maintenance through the rebuilt
    // programs lands both databases on the same truth.
    assert_eq!(
        recovered.query_view("vj").unwrap(),
        twin.query_view("vj").unwrap(),
        "recovered MV differs from twin"
    );
    recovered.propagate("vj").unwrap();
    twin.propagate("vj").unwrap();
    recovered.refresh("vj").unwrap();
    twin.refresh("vj").unwrap();
    assert_eq!(
        recovered.query_view("vj").unwrap(),
        twin.query_view("vj").unwrap()
    );
    assert_eq!(
        recovered.query_view("vj").unwrap(),
        recovered.recompute_view("vj").unwrap()
    );
    assert!(recovered.check_all_invariants().unwrap().is_empty());

    // The rebuilt program is inspectable.
    let plan = recovered.plan_view("vj").unwrap();
    assert!(plan.contains("delta program for vj"), "{plan}");
    assert!(plan.contains("compiled \u{25bc}(L,Q) plan"), "{plan}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Example 1.1's shape: customers above a score threshold joined with
/// their sales. 40 seeded sales let every transaction below delete a
/// distinct pre-existing sale, so each one dirties both sales logs.
fn retail_db() -> Database {
    let db = Database::new();
    let customer = db
        .create_table(
            "customer",
            Schema::from_pairs(&[("custId", ValueType::Int), ("score", ValueType::Int)]),
        )
        .unwrap();
    let sales = db
        .create_table(
            "sales",
            Schema::from_pairs(&[("custId", ValueType::Int), ("amt", ValueType::Int)]),
        )
        .unwrap();
    for c in 0..8i64 {
        customer.insert(tuple![c, c]).unwrap();
    }
    for k in 0..40i64 {
        sales.insert(tuple![k % 8, k]).unwrap();
    }
    let def = Expr::table("customer")
        .alias("c")
        .product(Expr::table("sales").alias("s"))
        .select(
            Predicate::eq(col("c.custId"), col("s.custId"))
                .and(Predicate::gt(col("c.score"), dvm_algebra::lit(2i64))),
        )
        .project(["c.custId", "s.amt"]);
    for (name, scenario) in [
        ("v_im", Scenario::Immediate),
        ("v_bl", Scenario::BaseLog),
        ("v_dt", Scenario::DiffTable),
        ("v_c", Scenario::Combined),
    ] {
        db.create_view(name, def.clone(), scenario).unwrap();
    }
    db
}

/// Transaction `i` of a sales-only stream: swap seeded sale `i` for a new
/// one of the same customer.
fn sales_tx(i: i64) -> Transaction {
    Transaction::new()
        .delete_tuple("sales", tuple![i % 8, i])
        .insert_tuple("sales", tuple![i % 8, 1000 + i])
}

fn fresh_pred(cust: i64) -> Predicate {
    Predicate::eq(col("custId"), dvm_algebra::lit(cust))
}

/// Per-view `(compiles, binds)` of the stored delta programs.
fn program_counters(db: &Database) -> Vec<(String, u64, u64)> {
    db.observability()
        .views
        .iter()
        .map(|v| {
            let p = v.delta_program.expect("every view carries a program");
            (v.name.clone(), p.compiles, p.binds)
        })
        .collect()
}

/// IM and DT `makesafe` run their stored pre-update programs and fresh
/// reads run the stored post-update ones: once the stream's masks have
/// been seen, commits and read-throughs bind but never compile.
#[test]
fn steady_state_commits_and_fresh_reads_add_no_compiles() {
    let db = retail_db();
    let step = |i: i64| {
        db.execute(&sales_tx(i)).unwrap();
        for v in ["v_bl", "v_c"] {
            db.read_through_where(v, &fresh_pred(i % 8)).unwrap();
        }
        if i % 3 == 2 {
            db.propagate("v_c").unwrap();
        }
        if i % 4 == 3 {
            db.refresh("v_bl").unwrap();
            db.refresh("v_dt").unwrap();
        }
    };
    for i in 0..2 {
        step(i);
    }
    let warm = program_counters(&db);
    for i in 2..20 {
        step(i);
    }
    let after = program_counters(&db);
    for ((name, c0, b0), (_, c1, b1)) in warm.iter().zip(&after) {
        assert_eq!(c1, c0, "{name} compiled in steady state: {warm:?} -> {after:?}");
        assert!(b1 > b0, "{name} must bind its stored program: {warm:?} -> {after:?}");
    }
    // IM and DT bind once per commit.
    for (name, _, binds) in &after {
        if name == "v_im" || name == "v_dt" {
            assert_eq!(*binds, 20, "{name}: one pre-update bind per transaction");
        }
    }
    for v in ["v_im", "v_bl", "v_dt", "v_c"] {
        assert_eq!(
            db.read_through(v).unwrap(),
            db.recompute_view(v).unwrap(),
            "{v}"
        );
    }
    assert!(db.check_all_invariants().unwrap().is_empty());
}

/// A fresh read over a sales-only log runs the variant pruned to the
/// sales logs: its joins build over `customer`, which the cache already
/// holds, so the read misses nothing — and no cached build depends on
/// `sales`, so the next commit's invalidation frees nothing.
#[test]
fn sales_only_read_through_hits_cached_customer_builds() {
    let db = retail_db();
    let cache = db.catalog().join_cache();
    for i in 0..3 {
        db.execute(&sales_tx(i)).unwrap();
        for v in ["v_bl", "v_c"] {
            db.read_through_where(v, &fresh_pred(i % 8)).unwrap();
        }
    }
    for i in 3..8 {
        db.execute(&sales_tx(i)).unwrap();
        let before = cache.stats();
        for v in ["v_bl", "v_c"] {
            db.read_through_where(v, &fresh_pred(i % 8)).unwrap();
        }
        let after = cache.stats();
        assert_eq!(
            after.misses, before.misses,
            "read-through missed the join cache: {before:?} -> {after:?}"
        );
        assert!(after.hits > before.hits, "{before:?} -> {after:?}");
        cache.invalidate_table("sales");
        assert_eq!(
            cache.stats().entries,
            after.entries,
            "a cached build depends on sales"
        );
    }
}
