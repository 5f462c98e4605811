//! Read-through queries: fresh answers over stale views, with zero
//! downtime (paper Section 7, first future-work question).
//!
//! The paper asks: *"are there algorithms to refresh only those parts of a
//! view needed by a given query?"* This module answers the underlying need
//! without mutating `MV` at all: every scenario's invariant expresses the
//! current value of `Q` as a combination of `MV` and auxiliary state, so a
//! reader can evaluate that combination on the fly —
//!
//! ```text
//! IM:  Q = MV
//! DT:  Q = (MV ∸ ∇MV) ⊎ ΔMV
//! BL:  Q = (MV ∸ ▼(L,Q)) ⊎ ▲(L,Q)                    (cancellation lemma)
//! C:   Q = (((MV ∸ ∇MV) ⊎ ΔMV) ∸ ▼(L,Q)) ⊎ ▲(L,Q)
//! ```
//!
//! `▼(L,Q)/▲(L,Q)` come from the view's stored post-update program — the
//! same variant `propagate` would run for the log's current activity
//! mask, with the log bags (or a shared-log view's effective log) bound as
//! parameters. An empty log (mask 0) evaluates nothing. Because the
//! variant is pruned to the active logs, a sales-only log never joins
//! against the whole `sales` table, and the hash-join builds it does
//! need sit over stable bases the join-build cache already holds.
//!
//! A *filtered* read-through applies `σ_p` to every component (selection
//! distributes over `∸` and `⊎`): `MV` and `ΔMV` are filtered in place
//! under their read guards, never copied whole, and the log-sized `▲`
//! output is filtered after evaluation. Deletions (`∇MV`, `▼`) are
//! subtracted unfiltered: `σ_p(X ∸ D) = σ_p(X) ∸ D`. No write lock is
//! taken; concurrent readers of the stale `MV` are unaffected.
//! [`Database::read_through`](crate::Database::read_through) holds the
//! view's maintenance lock and shared commit claims on its bases, so the
//! log, the differential tables and `MV` are read at one commit boundary.

use crate::error::Result;
use crate::scenario::{eval_expr, eval_variant_bound, log_mask, log_params, variant_for};
use crate::view::View;
use dvm_algebra::infer::compile_predicate;
use dvm_algebra::Predicate;
use dvm_storage::{Bag, Catalog};
use std::collections::HashMap;

/// Compute the current value of the view — or, given `pred`, the fresh
/// filtered value `σ_pred(Q)` — without refreshing it. The predicate is
/// resolved against the view's output schema. `log_overrides` replace the
/// contents of the log tables they name (shared-log views: effective log =
/// staging ∘ un-drained shared suffix).
pub fn read_through(
    catalog: &Catalog,
    view: &View,
    pred: Option<&Predicate>,
    log_overrides: Option<&HashMap<String, Bag>>,
) -> Result<Bag> {
    let phys = pred
        .map(|p| compile_predicate(p, &view.mv_schema()))
        .transpose()?;
    // σ_p over a bag; unfiltered reads copy it.
    let filter = |bag: &Bag| match &phys {
        None => bag.clone(),
        Some(p) => bag.select(|t| p.eval(t)),
    };
    // σ_p over a table, under its read guard.
    let filter_table = |name: &str| -> Result<Bag> { Ok(filter(&catalog.require(name)?.read())) };

    // Start from σ_p(MV). Deletions need no filter after that:
    // σ_p(X ∸ D) = σ_p(X) ∸ D, because a tuple failing p is not in σ_p(X).
    let mut value = filter_table(view.mv_table())?;

    // Differential tables (DT, C): σ_p(MV) ∸ ∇MV ⊎ σ_p(ΔMV).
    if let Some((dt_del, dt_ins)) = view.diff_tables() {
        let ins = filter_table(dt_ins)?;
        value.apply_delta(&catalog.require(dt_del)?.read(), &ins);
    }

    // Logged changes (BL, C): run the stored ▼(L,Q)/▲(L,Q) variant for
    // the log's current activity, then filter its log-sized ▲ output.
    if view.log().is_some() {
        let program = view.delta_program(catalog)?;
        let mask = log_mask(catalog, &program, log_overrides);
        if mask != 0 {
            let variant = variant_for(catalog, &program, mask)?;
            let (del, ins) = eval_variant_bound(catalog, &program, &variant, || {
                log_params(catalog, &program, mask, log_overrides)
            })?;
            let ins = match &phys {
                None => ins,
                Some(p) => ins.select(|t| p.eval(t)),
            };
            value.apply_delta(&del, &ins);
        }
    }

    Ok(value)
}

/// Ground truth for tests: `σ_pred(Q)` recomputed from scratch.
pub fn recompute_where(catalog: &Catalog, view: &View, pred: &Predicate) -> Result<Bag> {
    eval_expr(catalog, &view.definition().clone().select(pred.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::view::Scenario;
    use dvm_algebra::predicate::{col, lit};
    use dvm_algebra::Expr;
    use dvm_delta::Transaction;
    use dvm_storage::{tuple, Schema, ValueType};

    fn db_with_view(scenario: Scenario) -> Database {
        let db = Database::new();
        db.create_table(
            "r",
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
        )
        .unwrap();
        db.execute_unmaintained(
            &Transaction::new()
                .insert_tuple("r", tuple![1, 10])
                .insert_tuple("r", tuple![2, 20]),
        )
        .unwrap();
        db.create_view("v", Expr::table("r"), scenario).unwrap();
        db
    }

    #[test]
    fn read_through_fresh_under_all_scenarios() {
        for scenario in [
            Scenario::Immediate,
            Scenario::BaseLog,
            Scenario::DiffTable,
            Scenario::Combined,
        ] {
            let db = db_with_view(scenario);
            db.execute(
                &Transaction::new()
                    .insert_tuple("r", tuple![3, 30])
                    .delete_tuple("r", tuple![1, 10]),
            )
            .unwrap();
            let fresh = db.read_through("v").unwrap();
            assert_eq!(fresh, db.recompute_view("v").unwrap(), "{scenario:?}");
            if scenario != Scenario::Immediate && scenario != Scenario::DiffTable {
                // the materialization itself must NOT have moved
                assert_ne!(db.query_view("v").unwrap(), fresh, "{scenario:?}");
            }
        }
    }

    #[test]
    fn read_through_after_partial_propagation() {
        let db = db_with_view(Scenario::Combined);
        db.execute(&Transaction::new().insert_tuple("r", tuple![3, 30]))
            .unwrap();
        db.propagate("v").unwrap(); // into ∇MV/ΔMV
        db.execute(&Transaction::new().insert_tuple("r", tuple![4, 40]))
            .unwrap(); // still in the log
        let fresh = db.read_through("v").unwrap();
        assert_eq!(fresh, db.recompute_view("v").unwrap());
        assert!(fresh.contains(&tuple![3, 30]));
        assert!(fresh.contains(&tuple![4, 40]));
    }

    #[test]
    fn filtered_read_through_matches_filtered_truth() {
        let db = db_with_view(Scenario::Combined);
        db.execute(
            &Transaction::new()
                .insert_tuple("r", tuple![3, 30])
                .insert_tuple("r", tuple![4, 40])
                .delete_tuple("r", tuple![2, 20]),
        )
        .unwrap();
        let pred = Predicate::gt(col("b"), lit(25i64));
        let view = db.view("v").unwrap();
        let filtered = read_through(db.catalog(), &view, Some(&pred), None).unwrap();
        let truth = recompute_where(db.catalog(), &view, &pred).unwrap();
        assert_eq!(filtered, truth);
        assert_eq!(filtered.len(), 2); // [3,30], [4,40]
    }

    #[test]
    fn read_through_takes_no_write_lock() {
        let db = db_with_view(Scenario::BaseLog);
        db.execute(&Transaction::new().insert_tuple("r", tuple![5, 50]))
            .unwrap();
        let mv = db.mv_table("v").unwrap();
        let before = mv.lock_metrics().snapshot().write_acquisitions;
        let _ = db.read_through("v").unwrap();
        let _ = db
            .read_through_where("v", &Predicate::gt(col("a"), lit(0i64)))
            .unwrap();
        assert_eq!(
            mv.lock_metrics().snapshot().write_acquisitions,
            before,
            "read-through is downtime-free"
        );
        // and the log is untouched (nothing was consumed)
        let (log, _) = db.aux_sizes("v").unwrap();
        assert_eq!(log, 1);
    }

    #[test]
    fn filtered_read_through_on_join_view() {
        // a join view with a selective predicate: the filtered read only
        // touches matching tuples
        let db = Database::new();
        db.create_table(
            "c",
            Schema::from_pairs(&[("id", ValueType::Int), ("grp", ValueType::Int)]),
        )
        .unwrap();
        db.create_table(
            "s",
            Schema::from_pairs(&[("id", ValueType::Int), ("amt", ValueType::Int)]),
        )
        .unwrap();
        db.execute_unmaintained(
            &Transaction::new()
                .insert_tuple("c", tuple![1, 7])
                .insert_tuple("c", tuple![2, 8])
                .insert_tuple("s", tuple![1, 100]),
        )
        .unwrap();
        let def = Expr::table("c")
            .alias("c")
            .product(Expr::table("s").alias("s"))
            .select(Predicate::eq(col("c.id"), col("s.id")))
            .project(["grp", "amt"]);
        db.create_view("j", def, Scenario::BaseLog).unwrap();
        db.execute(
            &Transaction::new()
                .insert_tuple("s", tuple![2, 200])
                .insert_tuple("s", tuple![1, 150]),
        )
        .unwrap();
        let pred = Predicate::eq(col("grp"), lit(8i64));
        let view = db.view("j").unwrap();
        let filtered = read_through(db.catalog(), &view, Some(&pred), None).unwrap();
        assert_eq!(filtered, Bag::singleton(tuple![8, 200]));
    }
}
