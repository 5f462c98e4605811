//! `INV_BL` (Section 3.3): `PAST(L,Q) ≡ MV`.
//!
//! `makesafe_BL[T]` only extends the log — the cheapest possible
//! per-transaction hook:
//!
//! ```text
//! ▼R := ▼R ⊎ (∇R ∸ ▲R)
//! ▲R := (▲R ∸ ∇R) ⊎ ΔR
//! ```
//!
//! (an instance of the composition lemma, and exactly what keeps the log
//! weakly minimal, Lemma 4). `refresh_BL` pays the full incremental
//! computation under the `MV` write lock:
//!
//! ```text
//! MV := (MV ∸ ▼(L,Q)) ⊎ ▲(L,Q);   L := φ
//! ```

use crate::error::{CoreError, Result};
use crate::scenario::{eval_variant_bound, log_mask, log_params, variant_for};
use crate::view::View;
use dvm_delta::{compose_into, Transaction};
use dvm_storage::Catalog;

/// `makesafe_BL[T]`'s log-extension step: fold the (weakly minimal)
/// transaction's per-table changes into the view's log tables.
pub fn extend_log(catalog: &Catalog, view: &View, tx: &Transaction) -> Result<()> {
    let log = view.log().ok_or(CoreError::WrongScenario {
        view: view.name().to_string(),
        op: "extend_log",
    })?;
    for base in tx.tables() {
        let Some((del_name, ins_name)) = log.get(base) else {
            continue; // table not read by this view
        };
        let (tx_del, tx_ins) = tx.get(base).expect("listed table");
        if tx_del.is_empty() && tx_ins.is_empty() {
            continue;
        }
        let del_table = catalog.require(del_name)?;
        let ins_table = catalog.require(ins_name)?;
        // ▼R := ▼R ⊎ (∇R ∸ ▲R);  ▲R := (▲R ∸ ∇R) ⊎ ΔR — composition lemma.
        let mut del_guard = del_table.write();
        let mut ins_guard = ins_table.write();
        compose_into(&mut del_guard, &mut ins_guard, tx_del, tx_ins);
    }
    Ok(())
}

/// `refresh_BL`: bring `MV` up to date and empty the log. The incremental
/// queries are evaluated *inside* the `MV` write lock — that evaluation is
/// precisely the downtime this scenario suffers and `INV_C` eliminates.
pub fn refresh(catalog: &Catalog, view: &View) -> Result<()> {
    let log = view.log().ok_or(CoreError::WrongScenario {
        view: view.name().to_string(),
        op: "refresh_BL",
    })?;
    let program = view.delta_program(catalog)?;
    let mask = log_mask(catalog, &program, None);
    if mask == 0 {
        // Nothing logged since the last refresh: MV is already PAST(L,Q).
        return Ok(());
    }
    // The (rare) variant compile happens *outside* the MV lock — only plan
    // execution counts against downtime.
    let variant = variant_for(catalog, &program, mask)?;

    let mv = catalog.require(view.mv_table())?;
    // Downtime starts: write-lock MV, then bind, evaluate and apply.
    let mut mv_guard = mv.write();
    let (del_bag, ins_bag) = eval_variant_bound(catalog, &program, &variant, || {
        log_params(catalog, &program, mask, None)
    })?;
    mv_guard.apply_delta(&del_bag, &ins_bag);
    // L := φ, still inside the refresh transaction.
    for base in log.bases() {
        let (d, i) = log.get(base).expect("listed base");
        catalog.require(d)?.clear();
        catalog.require(i)?.clear();
    }
    drop(mv_guard);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::scenario::recompute;
    use crate::view::{Minimality, Scenario};
    use dvm_algebra::eval::PinnedState;
    use dvm_algebra::Expr;
    use dvm_storage::{tuple, Bag, Schema, TableKind, ValueType};

    fn setup() -> (Catalog, View) {
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        let r = c
            .create_table("r", schema.clone(), TableKind::External)
            .unwrap();
        r.insert(tuple![1]).unwrap();
        let def = Expr::table("r");
        let compiled = dvm_algebra::infer::compile(&def, &c).unwrap();
        let view = View::new("v", def, compiled, Scenario::BaseLog, Minimality::Weak).unwrap();
        for t in view.internal_tables() {
            c.create_table(&t, schema.clone(), TableKind::Internal)
                .unwrap();
        }
        // MV starts consistent.
        c.require(view.mv_table())
            .unwrap()
            .insert(tuple![1])
            .unwrap();
        (c, view)
    }

    fn run_tx(c: &Catalog, view: &View, tx: &Transaction) {
        let pinned = PinnedState::pin(c, &tx.tables().cloned().collect()).unwrap();
        let tx = tx.make_weakly_minimal(&pinned).unwrap();
        drop(pinned);
        extend_log(c, view, &tx).unwrap();
        for t in tx.tables() {
            let (d, i) = tx.get(t).unwrap();
            c.require(t).unwrap().apply_delta(d, i).unwrap();
        }
    }

    #[test]
    fn log_then_refresh_reaches_truth() {
        let (c, view) = setup();
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![2]));
        run_tx(
            &c,
            &view,
            &Transaction::new()
                .delete_tuple("r", tuple![1])
                .insert_tuple("r", tuple![3]),
        );
        // MV is stale before refresh.
        assert_eq!(
            c.bag_of(view.mv_table()).unwrap(),
            Bag::singleton(tuple![1])
        );
        refresh(&c, &view).unwrap();
        let truth = recompute(&c, &view).unwrap();
        assert_eq!(c.bag_of(view.mv_table()).unwrap(), truth);
        // log emptied
        for base in view.log().unwrap().bases() {
            let (d, i) = view.log().unwrap().get(base).unwrap();
            assert!(c.require(d).unwrap().is_empty());
            assert!(c.require(i).unwrap().is_empty());
        }
    }

    #[test]
    fn delete_then_reinsert_cancels_in_log() {
        let (c, view) = setup();
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![1]));
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![1]));
        let (d, i) = view.log().unwrap().get("r").unwrap();
        // ▼ has [1]; ▲ has [1]: composition does NOT cancel across the two
        // transactions (the deletion happened first), so the log holds both.
        assert_eq!(c.bag_of(d).unwrap(), Bag::singleton(tuple![1]));
        assert_eq!(c.bag_of(i).unwrap(), Bag::singleton(tuple![1]));
        refresh(&c, &view).unwrap();
        assert_eq!(
            c.bag_of(view.mv_table()).unwrap(),
            recompute(&c, &view).unwrap()
        );
    }

    #[test]
    fn insert_then_delete_cancels_in_log() {
        let (c, view) = setup();
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![5]));
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![5]));
        let (d, i) = view.log().unwrap().get("r").unwrap();
        // inserted-then-deleted: carried delete is absorbed by the pending
        // insert (composition lemma), leaving both sides clean.
        assert!(c.bag_of(d).unwrap().is_empty());
        assert!(c.bag_of(i).unwrap().is_empty());
    }

    #[test]
    fn log_weak_minimality_invariant() {
        // Lemma 4: ▲R ⊑ R after makesafe_BL.
        let (c, view) = setup();
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![7]));
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![7]));
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![8]));
        let (_, i) = view.log().unwrap().get("r").unwrap();
        let ins_log = c.bag_of(i).unwrap();
        let base = c.bag_of("r").unwrap();
        assert!(ins_log.is_subbag_of(&base), "▲R ⊑ R violated");
    }

    #[test]
    fn wrong_scenario_rejected() {
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        c.create_table("r", schema.clone(), TableKind::External)
            .unwrap();
        let def = Expr::table("r");
        let compiled = dvm_algebra::infer::compile(&def, &c).unwrap();
        let view = View::new("v", def, compiled, Scenario::Immediate, Minimality::Weak).unwrap();
        assert!(matches!(
            extend_log(&c, &view, &Transaction::new()),
            Err(CoreError::WrongScenario { .. })
        ));
        assert!(matches!(
            refresh(&c, &view),
            Err(CoreError::WrongScenario { .. })
        ));
    }
}
