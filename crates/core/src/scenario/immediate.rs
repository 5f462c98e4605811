//! `INV_IM` (Section 3.2): the view table is always consistent.
//!
//! `makesafe_IM[T]` augments `T` with
//! `MV := (MV ∸ ∇(T,Q)) ⊎ Δ(T,Q)`, the incremental queries evaluated in the
//! **pre-update** state. The per-transaction overhead is the full cost of
//! evaluating the incremental queries — the very cost deferred maintenance
//! exists to displace. (Generating them is paid once: the view's stored
//! pre-update program is bound to each transaction.)

use crate::error::Result;
use crate::scenario::eval_pre_update;
use crate::view::View;
use dvm_delta::Transaction;
use dvm_storage::{Bag, Catalog};

/// The `MV` update computed before the transaction runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingMvUpdate {
    /// Bag to remove from `MV` (`∇(T,Q)` evaluated pre-update).
    pub del: Bag,
    /// Bag to add to `MV` (`Δ(T,Q)` evaluated pre-update).
    pub ins: Bag,
}

/// Pre-update phase of `makesafe_IM[T]`: evaluate `∇(T,Q)/Δ(T,Q)` in the
/// current (pre-update) state.
pub fn prepare(catalog: &Catalog, view: &View, tx: &Transaction) -> Result<PendingMvUpdate> {
    let (del, ins) = eval_pre_update(catalog, view, tx)?;
    Ok(PendingMvUpdate { del, ins })
}

/// Post-update phase: apply the precomputed bags to `MV`.
pub fn apply(catalog: &Catalog, view: &View, pending: &PendingMvUpdate) -> Result<()> {
    let mv = catalog.require(view.mv_table())?;
    mv.apply_delta(&pending.del, &pending.ins)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{Minimality, Scenario};
    use dvm_algebra::infer::compile;
    use dvm_algebra::Expr;
    use dvm_storage::{tuple, Schema, TableKind, ValueType};

    fn setup() -> (Catalog, View) {
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        let r = c
            .create_table("r", schema.clone(), TableKind::External)
            .unwrap();
        r.insert(tuple![1]).unwrap();
        r.insert(tuple![2]).unwrap();
        let def = Expr::table("r");
        let compiled = compile(&def, &c).unwrap();
        let view = View::new("v", def, compiled, Scenario::Immediate, Minimality::Weak).unwrap();
        let mv = c
            .create_table(view.mv_table(), view.mv_schema(), TableKind::Internal)
            .unwrap();
        mv.insert(tuple![1]).unwrap();
        mv.insert(tuple![2]).unwrap();
        (c, view)
    }

    #[test]
    fn prepare_then_apply_tracks_definition() {
        let (c, view) = setup();
        let tx = Transaction::new()
            .insert_tuple("r", tuple![3])
            .delete_tuple("r", tuple![1]);
        let pending = prepare(&c, &view, &tx).unwrap();
        // apply the base change, then the view change
        c.require("r")
            .unwrap()
            .apply_delta(&Bag::singleton(tuple![1]), &Bag::singleton(tuple![3]))
            .unwrap();
        apply(&c, &view, &pending).unwrap();
        let mv = c.bag_of(view.mv_table()).unwrap();
        let truth = crate::scenario::recompute(&c, &view).unwrap();
        assert_eq!(mv, truth);
    }

    #[test]
    fn irrelevant_transaction_produces_empty_update() {
        let (c, view) = setup();
        c.create_table(
            "other",
            Schema::from_pairs(&[("x", ValueType::Int)]),
            TableKind::External,
        )
        .unwrap();
        let tx = Transaction::new().insert_tuple("other", tuple![9]);
        let pending = prepare(&c, &view, &tx).unwrap();
        assert!(pending.del.is_empty());
        assert!(pending.ins.is_empty());
    }
}
