//! The maintenance operations of **Figure 3**, one module per scenario.
//!
//! | invariant | makesafe hook | refresh path |
//! |---|---|---|
//! | `INV_IM` | eval `∇(T,Q)/Δ(T,Q)` pre-update, apply to `MV` with `T` | — |
//! | `INV_BL` | extend log (`compose`) | eval `▼(L,Q)/▲(L,Q)` post-update under the `MV` write lock |
//! | `INV_DT` | eval `∇(T,Q)/Δ(T,Q)` pre-update, fold into `∇MV/ΔMV` | apply `∇MV/ΔMV` under the `MV` write lock |
//! | `INV_C` | extend log (same as BL) | `propagate_C` (fold `▼/▲` into `∇MV/ΔMV`, *no* `MV` lock) + `partial_refresh_C` (apply) |
//!
//! Every evaluation of a change query runs a variant of the view's stored
//! [`CompiledDeltaProgram`] with the changed bags — log tables or the
//! transaction — bound as parameters; nothing is differentiated at run
//! time except through the `propagate_uncompiled` baseline.
//!
//! Downtime — the time the `MV` write lock is held — is measured by the MV
//! table's lock metrics; everything evaluated inside that lock counts.

pub mod base_log;
pub mod combined;
pub mod diff_table;
pub mod immediate;

use crate::error::Result;
use crate::view::View;
use dvm_algebra::eval::{eval, ParamSource, PinnedState};
use dvm_algebra::infer::compile;
use dvm_algebra::Expr;
use dvm_delta::{CompiledDeltaProgram, CompiledDeltaVariant, Transaction};
use dvm_storage::{Bag, Catalog};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Start a phase timer iff profiling is on (`None` keeps the off path at
/// one relaxed atomic load).
pub(crate) fn phase_start() -> Option<Instant> {
    dvm_obs::profiling_on().then(Instant::now)
}

/// Record a finished phase timer as a leaf in the current profiling
/// capture. The non-evaluation work of a maintenance operation — delta
/// derivation, compile/pin, the Lemma-3 fold, log truncation — lands in
/// the same per-operation capture as the operator pipelines, so the
/// recorded nanos can telescope to the operation's observed wall time
/// (`MaintProfile::coverage`).
pub(crate) fn phase_end(label: &'static str, rows: u64, started: Option<Instant>) {
    if let Some(s) = started {
        dvm_obs::profile::record_eval(dvm_obs::OpProf::leaf(
            label,
            rows,
            s.elapsed().as_nanos() as u64,
        ));
    }
}

/// Compile and evaluate an expression in the current catalog state,
/// pinning exactly the tables it reads.
pub(crate) fn eval_expr(catalog: &Catalog, expr: &Expr) -> Result<Bag> {
    let q = compile(expr, catalog)?;
    let pinned = PinnedState::pin_for(catalog, &q.plan)?;
    Ok(eval(&q.plan, &pinned)?)
}

/// Evaluate an expression with some table contents overridden. The
/// overrides ride the algebra's [`ParamSource`] — the same parameterized
/// source the compiled delta programs bind log bags through.
pub(crate) fn eval_expr_overlay(
    catalog: &Catalog,
    expr: &Expr,
    overrides: &HashMap<String, Bag>,
) -> Result<Bag> {
    let q = compile(expr, catalog)?;
    let src = ParamSource::pin(catalog, &q.plan.tables(), overrides)?;
    Ok(eval(&q.plan, &src)?)
}

/// Evaluate a delete/insert expression pair against one pinned state (both
/// sides must see the same state).
pub(crate) fn eval_pair(catalog: &Catalog, del: &Expr, ins: &Expr) -> Result<(Bag, Bag)> {
    let t = phase_start();
    let dq = compile(del, catalog)?;
    let iq = compile(ins, catalog)?;
    let mut tables = dq.plan.tables();
    tables.extend(iq.plan.tables());
    let src = PinnedState::pin(catalog, &tables)?;
    phase_end("CompilePin(▼,▲)", 0, t);
    Ok((eval(&dq.plan, &src)?, eval(&iq.plan, &src)?))
}

/// The activity mask of a post-update program over the current log:
/// `overrides` stand in for the contents of the log tables they name
/// (shared-log views' effective log).
pub(crate) fn log_mask(
    catalog: &Catalog,
    program: &CompiledDeltaProgram,
    overrides: Option<&HashMap<String, Bag>>,
) -> u128 {
    program.activity_mask(&|t| match overrides.and_then(|o| o.get(t)) {
        Some(bag) => bag.is_empty(),
        None => catalog.get(t).map(|tbl| tbl.is_empty()).unwrap_or(false),
    })
}

/// Snapshot the log tables active under `mask` as parameter bags
/// (`overrides` win over the catalog).
pub(crate) fn log_params(
    catalog: &Catalog,
    program: &CompiledDeltaProgram,
    mask: u128,
    overrides: Option<&HashMap<String, Bag>>,
) -> Result<HashMap<String, Bag>> {
    let mut params = HashMap::new();
    for name in program.active_log_tables(mask) {
        let bag = match overrides.and_then(|o| o.get(name)) {
            Some(bag) => bag.clone(),
            None => catalog.bag_of(name)?,
        };
        params.insert(name.to_string(), bag);
    }
    Ok(params)
}

/// Fetch `program`'s variant for `mask`; a first-sighting compile is
/// recorded as the one-time `CompileDelta` phase.
pub(crate) fn variant_for(
    catalog: &Catalog,
    program: &CompiledDeltaProgram,
    mask: u128,
) -> Result<Arc<CompiledDeltaVariant>> {
    let t = phase_start();
    let (variant, fresh) = program.variant(mask, catalog)?;
    if fresh {
        phase_end("CompileDelta", 0, t);
    }
    Ok(variant)
}

/// Execute a precompiled delta-plan variant: `bind` produces the
/// parameter bags (log snapshots or the transaction's bags), the
/// remaining (base) tables the stored plans scan are pinned, and both
/// plans are evaluated against the bound source. This is the whole
/// steady-state front half of every maintenance and read site — no
/// differentiation, no simplification, no plan construction. Binding and
/// pinning are recorded as the `BindParams` phase; the evaluations
/// profile themselves.
pub(crate) fn eval_variant_bound(
    catalog: &Catalog,
    program: &CompiledDeltaProgram,
    variant: &CompiledDeltaVariant,
    bind: impl FnOnce() -> Result<HashMap<String, Bag>>,
) -> Result<(Bag, Bag)> {
    let t = phase_start();
    let params = bind()?;
    let mut tables = variant.del.plan.tables();
    tables.extend(variant.ins.plan.tables());
    let src = ParamSource::pin(catalog, &tables, &params)?;
    phase_end("BindParams", params.values().map(Bag::len).sum(), t);
    program.record_bind();
    Ok((eval(&variant.del.plan, &src)?, eval(&variant.ins.plan, &src)?))
}

/// `(∇(T,Q), Δ(T,Q))` for a weakly minimal `tx`, evaluated in the current
/// (pre-update) state through the view's stored pre-update program: the
/// transaction's bags are bound as parameters of the variant for its
/// activity mask. A transaction that changes none of the view's bases
/// evaluates nothing.
pub(crate) fn eval_pre_update(
    catalog: &Catalog,
    view: &View,
    tx: &Transaction,
) -> Result<(Bag, Bag)> {
    let program = view.delta_program(catalog)?;
    let (mask, params) = program.bind_transaction(tx);
    if mask == 0 {
        return Ok((Bag::new(), Bag::new()));
    }
    let variant = variant_for(catalog, &program, mask)?;
    eval_variant_bound(catalog, &program, &variant, || Ok(params))
}

/// Recompute the view definition from scratch (the non-incremental
/// baseline used by experiments and the invariant checker).
pub fn recompute(catalog: &Catalog, view: &View) -> Result<Bag> {
    let pinned = PinnedState::pin_for(catalog, &view.compiled().plan)?;
    Ok(eval(&view.compiled().plan, &pinned)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_storage::{tuple, Schema, TableKind, ValueType};

    #[test]
    fn eval_expr_and_pair() {
        let c = Catalog::new();
        let t = c
            .create_table(
                "r",
                Schema::from_pairs(&[("a", ValueType::Int)]),
                TableKind::External,
            )
            .unwrap();
        t.insert(tuple![1]).unwrap();
        let e = Expr::table("r");
        assert_eq!(eval_expr(&c, &e).unwrap().len(), 1);
        let (d, i) = eval_pair(&c, &e, &e).unwrap();
        assert_eq!(d, i);
    }
}
