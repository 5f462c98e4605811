//! The delta-plan compiler: change queries derived, simplified, and
//! plan-optimized **once per view**, then re-executed with the changed
//! bags bound as parameters — zero symbolic work in steady state.
//!
//! A program has one of two directions ([`DeltaDirection`]):
//!
//! * **post-update** — `▼(L,Q)/▲(L,Q)` over the view's log tables, for
//!   `propagate`, BL `refresh` and read-through;
//! * **pre-update** — `∇(T,Q)/Δ(T,Q)` over the transaction being
//!   committed, for the IM and DT `makesafe` hooks. The transaction's
//!   bags are bound under reserved per-base parameter names
//!   ([`tx_del_param`], [`tx_ins_param`]) that never exist in a catalog.
//!
//! [`post_update_deltas_pruned`](crate::post_update_deltas_pruned) earns
//! its keep by replacing changed-bag tables that are empty *right now*
//! with `φ` before differentiation, so untouched tables vanish from the
//! change queries. A compile-once design must keep that property without
//! re-deriving per call, and the resolution here is an **activity-mask
//! keyed variant cache**: each subset of non-empty parameter tables gets
//! its own pruned, compiled `(del, ins)` plan pair, derived the first time
//! that subset is observed and a pure map lookup ever after. Steady
//! workloads touch one or two subsets (e.g. a sales-only stream always
//! dirties exactly the sales logs), so the cache converges immediately;
//! the all-active variant is compiled eagerly at view creation as the
//! universal fallback.
//!
//! Masks are capped at 64 bases (two bits per base). Beyond that the mask
//! saturates to [`CompiledDeltaProgram::SATURATED`], which maps every
//! parameter table active — always *sound*, because substituting a table
//! whose current contents are empty only loses pruning, never changes the
//! value of the change queries.

use crate::error::Result;
use crate::incremental::LogTables;
use crate::transaction::Transaction;
use crate::weak::differentiate;
use dvm_algebra::infer::{compile, CompiledQuery, SchemaProvider};
use dvm_algebra::subst::FactoredSubstitution;
use dvm_algebra::Expr;
use dvm_storage::{Bag, Schema};
use dvm_testkit::sync::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Reserved parameter name binding a transaction's deletions `∇R` from
/// `base` into a pre-update program.
pub fn tx_del_param(base: &str) -> String {
    format!("__tx_del_{base}")
}

/// Reserved parameter name binding a transaction's insertions `ΔR` into
/// `base` into a pre-update program.
pub fn tx_ins_param(base: &str) -> String {
    format!("__tx_ins_{base}")
}

/// Which change queries a [`CompiledDeltaProgram`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDirection {
    /// `▼(L,Q)/▲(L,Q)` over the log tables, evaluated in the current
    /// state: `L̂: R ↦ (R ∸ ▲R) ⊎ ▼R`, with `Del`/`Add` roles swapped.
    PostUpdate,
    /// `∇(T,Q)/Δ(T,Q)` over a transaction bound as parameters, evaluated
    /// before it runs: `T̂: R ↦ (R ∸ ∇R) ⊎ ΔR`, no role swap.
    PreUpdate,
}

/// One compiled `(del, ins)` plan pair for a specific set of active
/// parameter tables.
#[derive(Debug)]
pub struct CompiledDeltaVariant {
    /// The activity mask this variant was derived for.
    pub mask: u128,
    /// Compiled `▼(L,Q)` or `∇(T,Q)` — what to remove.
    pub del: CompiledQuery,
    /// Compiled `▲(L,Q)` or `Δ(T,Q)` — what to add.
    pub ins: CompiledQuery,
    /// Total AST size of the derived change queries (diagnostics).
    pub expr_size: usize,
}

/// Counters and provenance of one [`CompiledDeltaProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaProgramStats {
    /// Variants compiled (symbolic derivations performed over the
    /// program's lifetime — stops growing once the workload's masks are
    /// all cached).
    pub compiles: u64,
    /// Parameter bindings (steady-state executions).
    pub binds: u64,
    /// Variant-cache hits (executions that did zero symbolic work).
    pub hits: u64,
    /// Variants currently cached.
    pub variants: u64,
    /// When the program was compiled.
    pub compiled_at: SystemTime,
}

/// One base of the program and the two parameter tables carrying its
/// changes (`▼R`/`▲R` post-update, `∇R`/`ΔR` pre-update).
#[derive(Debug)]
struct ParamEntry {
    base: String,
    del_table: String,
    ins_table: String,
}

/// Resolves a program's parameter tables to their base's schema, so
/// pre-update parameters need not exist in any catalog.
struct WithParams<'a> {
    inner: &'a dyn SchemaProvider,
    entries: &'a [ParamEntry],
}

impl SchemaProvider for WithParams<'_> {
    fn schema_of(&self, table: &str) -> dvm_algebra::Result<Schema> {
        let base = self
            .entries
            .iter()
            .find(|e| e.del_table == table || e.ins_table == table)
            .map_or(table, |e| e.base.as_str());
        self.inner.schema_of(base)
    }
}

/// A view's precompiled delta program: the Figure 2 differentiation of its
/// definition against its log or transaction substitution, stored as
/// executable plans keyed by which parameter tables currently hold tuples.
/// See the module docs.
#[derive(Debug)]
pub struct CompiledDeltaProgram {
    definition: Expr,
    direction: DeltaDirection,
    /// Bases in sorted order — entry `i` owns mask bits `2i` (deletions
    /// non-empty) and `2i+1` (insertions non-empty).
    entries: Vec<ParamEntry>,
    variants: Mutex<BTreeMap<u128, Arc<CompiledDeltaVariant>>>,
    compiles: AtomicU64,
    binds: AtomicU64,
    hits: AtomicU64,
    compiled_at: SystemTime,
}

impl CompiledDeltaProgram {
    /// The saturated activity mask: every log table treated as active.
    /// Used verbatim when the view logs more than 64 bases.
    pub const SATURATED: u128 = u128::MAX;

    /// Derive, simplify, and plan-compile the post-update program for
    /// `definition` over `log`. The all-active variant is compiled eagerly
    /// so the first propagate already skips symbolic work in the common
    /// case of a fully dirty log.
    pub fn compile(
        definition: &Expr,
        log: &LogTables,
        provider: &dyn SchemaProvider,
    ) -> Result<Self> {
        let entries = log
            .bases()
            .map(|base| {
                let (d, i) = log.get(base).expect("listed base");
                ParamEntry {
                    base: base.clone(),
                    del_table: d.to_string(),
                    ins_table: i.to_string(),
                }
            })
            .collect();
        Self::build(definition, DeltaDirection::PostUpdate, entries, provider)
    }

    /// Derive, simplify, and plan-compile the pre-update program for
    /// `definition`: one parameter pair per base the definition reads,
    /// bound per transaction by [`Self::bind_transaction`]. The
    /// all-active variant is compiled eagerly.
    pub fn compile_pre_update(definition: &Expr, provider: &dyn SchemaProvider) -> Result<Self> {
        let entries = definition
            .tables()
            .into_iter()
            .map(|base| ParamEntry {
                del_table: tx_del_param(&base),
                ins_table: tx_ins_param(&base),
                base,
            })
            .collect();
        Self::build(definition, DeltaDirection::PreUpdate, entries, provider)
    }

    fn build(
        definition: &Expr,
        direction: DeltaDirection,
        entries: Vec<ParamEntry>,
        provider: &dyn SchemaProvider,
    ) -> Result<Self> {
        let program = CompiledDeltaProgram {
            definition: definition.clone(),
            direction,
            entries,
            variants: Mutex::new(BTreeMap::new()),
            compiles: AtomicU64::new(0),
            binds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            compiled_at: SystemTime::now(),
        };
        let full = program.all_active_mask();
        if full != 0 {
            program.compile_variant(full, provider)?;
        }
        Ok(program)
    }

    /// Which change queries this program computes.
    pub fn direction(&self) -> DeltaDirection {
        self.direction
    }

    /// The mask with every parameter table active.
    pub fn all_active_mask(&self) -> u128 {
        let bits = self.entries.len().saturating_mul(2);
        if bits >= 128 {
            Self::SATURATED
        } else {
            (1u128 << bits) - 1
        }
    }

    fn bit_active(mask: u128, bit: usize) -> bool {
        if mask == Self::SATURATED {
            return true;
        }
        bit < 128 && (mask >> bit) & 1 == 1
    }

    /// Compute the activity mask for the current state: one bit per
    /// parameter table that is non-empty *right now*. `0` means nothing
    /// changed — the change queries are `φ` and no plan need run.
    /// Saturates to [`Self::SATURATED`] past 64 bases (sound:
    /// over-inclusion only loses pruning).
    pub fn activity_mask(&self, is_empty_now: &dyn Fn(&str) -> bool) -> u128 {
        if self.entries.len() > 64 {
            let any = self
                .entries
                .iter()
                .any(|e| !is_empty_now(&e.del_table) || !is_empty_now(&e.ins_table));
            return if any { Self::SATURATED } else { 0 };
        }
        let mut mask = 0u128;
        for (i, e) in self.entries.iter().enumerate() {
            if !is_empty_now(&e.del_table) {
                mask |= 1 << (2 * i);
            }
            if !is_empty_now(&e.ins_table) {
                mask |= 1 << (2 * i + 1);
            }
        }
        mask
    }

    /// The parameter tables active under `mask`, i.e. exactly the ones the
    /// variant's plans may scan.
    pub fn active_log_tables(&self, mask: u128) -> Vec<&str> {
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if Self::bit_active(mask, 2 * i) {
                out.push(e.del_table.as_str());
            }
            if Self::bit_active(mask, 2 * i + 1) {
                out.push(e.ins_table.as_str());
            }
        }
        out
    }

    /// Bind a (weakly minimal) transaction to a pre-update program: its
    /// activity mask, and its bags under the reserved parameter names of
    /// every table the mask's variant scans (an active table the
    /// transaction leaves untouched binds `φ`, which only happens under a
    /// saturated mask).
    pub fn bind_transaction(&self, tx: &Transaction) -> (u128, HashMap<String, Bag>) {
        debug_assert_eq!(self.direction, DeltaDirection::PreUpdate);
        let mut bags: HashMap<&str, &Bag> = HashMap::new();
        for e in &self.entries {
            if let Some((d, i)) = tx.get(&e.base) {
                bags.insert(&e.del_table, d);
                bags.insert(&e.ins_table, i);
            }
        }
        let mask = self.activity_mask(&|t| bags.get(t).map(|b| b.is_empty()).unwrap_or(true));
        let params = self
            .active_log_tables(mask)
            .into_iter()
            .map(|t| {
                let bag = bags.get(t).map_or_else(Bag::new, |b| (*b).clone());
                (t.to_string(), bag)
            })
            .collect();
        (mask, params)
    }

    /// Fetch the compiled variant for `mask`, deriving and compiling it on
    /// first sight. Returns `(variant, freshly_compiled)` so callers can
    /// attribute the one-time symbolic cost to a `CompileDelta` phase.
    pub fn variant(
        &self,
        mask: u128,
        provider: &dyn SchemaProvider,
    ) -> Result<(Arc<CompiledDeltaVariant>, bool)> {
        if let Some(v) = self.variants.lock().get(&mask) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(v), false));
        }
        Ok((self.compile_variant(mask, provider)?, true))
    }

    /// The eagerly compiled all-active variant, if the view reads any base.
    pub fn full_variant(&self) -> Option<Arc<CompiledDeltaVariant>> {
        self.variants
            .lock()
            .get(&self.all_active_mask())
            .map(Arc::clone)
    }

    /// Every cached variant, in mask order.
    pub fn variants_snapshot(&self) -> Vec<Arc<CompiledDeltaVariant>> {
        self.variants.lock().values().map(Arc::clone).collect()
    }

    /// Count one steady-state parameter binding.
    pub fn record_bind(&self) {
        self.binds.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DeltaProgramStats {
        DeltaProgramStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            binds: self.binds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            variants: self.variants.lock().len() as u64,
            compiled_at: self.compiled_at,
        }
    }

    /// Derive + compile the variant for `mask` and cache it. Mirrors
    /// [`post_update_deltas_pruned`](crate::post_update_deltas_pruned):
    /// inactive parameter tables enter the substitution as `φ` literals
    /// (so φ-propagation prunes their terms at compile time) and wholly
    /// inactive bases are left out of `η` entirely.
    fn compile_variant(
        &self,
        mask: u128,
        provider: &dyn SchemaProvider,
    ) -> Result<Arc<CompiledDeltaVariant>> {
        let provider = &WithParams {
            inner: provider,
            entries: &self.entries,
        };
        let post = self.direction == DeltaDirection::PostUpdate;
        let mut subst = FactoredSubstitution::new();
        for (i, e) in self.entries.iter().enumerate() {
            let del_active = Self::bit_active(mask, 2 * i);
            let ins_active = Self::bit_active(mask, 2 * i + 1);
            if !del_active && !ins_active {
                continue;
            }
            let schema = provider.schema_of(&e.base)?;
            let param = |active: bool, table: &str| {
                if active {
                    Expr::table(table)
                } else {
                    Expr::empty(schema.clone())
                }
            };
            let del = param(del_active, &e.del_table);
            let ins = param(ins_active, &e.ins_table);
            // `L̂`: `R ↦ (R ∸ ▲R) ⊎ ▼R` — the factored D is the insertion
            // log and A the deletion log (reconstructing the past).
            // `T̂`: `R ↦ (R ∸ ∇R) ⊎ ΔR` — D and A as the transaction says.
            if post {
                subst.set(e.base.clone(), ins, del);
            } else {
                subst.set(e.base.clone(), del, ins);
            }
        }
        let pair = differentiate(&self.definition, &subst, provider)?;
        // Post-update role swap: ▼ = Add(L̂,Q), ▲ = Del(L̂,Q).
        let (del, ins) = if post {
            (pair.add, pair.del)
        } else {
            (pair.del, pair.add)
        };
        let variant = Arc::new(CompiledDeltaVariant {
            mask,
            expr_size: del.size() + ins.size(),
            del: compile(&del, provider)?,
            ins: compile(&ins, provider)?,
        });
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.variants.lock().insert(mask, Arc::clone(&variant));
        Ok(variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{log_del_name, log_ins_name, post_update_deltas_pruned};
    use dvm_algebra::eval::eval;
    use dvm_algebra::testgen::{Rng, Universe};
    use dvm_storage::{tuple, Bag, Schema};
    use std::collections::HashMap;

    fn provider_with_logs(u: &Universe) -> HashMap<String, Schema> {
        let mut p = u.provider();
        for t in &u.tables {
            p.insert(log_del_name(t), u.schema.clone());
            p.insert(log_ins_name(t), u.schema.clone());
        }
        p
    }

    fn empty_logs(u: &Universe, state: &mut HashMap<String, Bag>) -> LogTables {
        let mut log = LogTables::new();
        for t in &u.tables {
            log.add(t.clone());
            state.insert(log_del_name(t), Bag::new());
            state.insert(log_ins_name(t), Bag::new());
        }
        log
    }

    #[test]
    fn empty_log_is_mask_zero_and_full_variant_eager() {
        let u = Universe::small(2);
        let provider = provider_with_logs(&u);
        let mut state = u.state(&mut Rng::new(1), 4);
        let log = empty_logs(&u, &mut state);
        let q = Expr::table("t0").union(Expr::table("t1"));
        let p = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
        assert_eq!(p.activity_mask(&is_empty), 0);
        assert_eq!(p.all_active_mask(), 0b1111);
        let s = p.stats();
        assert_eq!(s.compiles, 1, "all-active variant compiled eagerly");
        assert_eq!(s.variants, 1);
        assert!(p.full_variant().is_some());
    }

    #[test]
    fn variant_cache_hits_after_first_compile() {
        let u = Universe::small(2);
        let provider = provider_with_logs(&u);
        let mut state = u.state(&mut Rng::new(2), 4);
        let log = empty_logs(&u, &mut state);
        state.insert(log_ins_name("t0"), Bag::singleton(tuple![1, 1]));
        let q = Expr::table("t0").union(Expr::table("t1"));
        let p = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
        let mask = p.activity_mask(&is_empty);
        assert_ne!(mask, 0);
        assert_ne!(mask, p.all_active_mask());
        let (_, fresh) = p.variant(mask, &provider).unwrap();
        assert!(fresh, "first sighting of this mask derives");
        let (_, fresh) = p.variant(mask, &provider).unwrap();
        assert!(!fresh, "second sighting is a pure lookup");
        let s = p.stats();
        assert_eq!(s.compiles, 2); // all-active + this mask
        assert_eq!(s.hits, 1);
        assert_eq!(s.variants, 2);
        // The active tables are exactly t0's insertion log.
        assert_eq!(p.active_log_tables(mask), vec![log_ins_name("t0")]);
    }

    #[test]
    fn masked_variant_matches_pruned_derivation() {
        // The central equivalence, small-scale (the full property suite
        // lives in tests/compile_differential.rs): the compiled variant's
        // plans evaluate bag-equal to a fresh pruned derivation.
        let u = Universe::small(3);
        let provider = provider_with_logs(&u);
        let mut rng = Rng::new(77);
        for _ in 0..40 {
            let q = u.expr(&mut rng, 2);
            let mut state = u.state(&mut rng, 4);
            let log = empty_logs(&u, &mut state);
            let f = u.weakly_minimal_subst(&mut rng, &state);
            let mut state = u.apply_subst_to_state(&f, &state);
            for t in &u.tables {
                let (d, a) = match f.get(t) {
                    Some((Expr::Literal { bag: d, .. }, Expr::Literal { bag: a, .. })) => {
                        (d.clone(), a.clone())
                    }
                    None => (Bag::new(), Bag::new()),
                    _ => unreachable!("literal deltas"),
                };
                state.insert(log_del_name(t), d);
                state.insert(log_ins_name(t), a);
            }
            let program = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
            let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
            let fresh =
                post_update_deltas_pruned(&q, &log, &provider, &is_empty).unwrap();
            let ev = |e: &Expr| eval(&compile(e, &provider).unwrap().plan, &state).unwrap();
            let mask = program.activity_mask(&is_empty);
            if mask == 0 {
                assert!(ev(&fresh.del).is_empty() && ev(&fresh.ins).is_empty());
                continue;
            }
            let (v, _) = program.variant(mask, &provider).unwrap();
            assert_eq!(eval(&v.del.plan, &state).unwrap(), ev(&fresh.del), "▼ for {q}");
            assert_eq!(eval(&v.ins.plan, &state).unwrap(), ev(&fresh.ins), "▲ for {q}");
        }
    }

    #[test]
    fn pre_update_binds_transaction_under_reserved_names() {
        let u = Universe::small(2);
        let provider = u.provider();
        let q = Expr::table("t0").union(Expr::table("t1"));
        let p = CompiledDeltaProgram::compile_pre_update(&q, &provider).unwrap();
        assert_eq!(p.direction(), DeltaDirection::PreUpdate);
        assert_eq!(p.stats().compiles, 1, "all-active variant compiled eagerly");
        // t0 gets an insert only; "other" is not read by the view.
        let tx = Transaction::new()
            .insert_tuple("t0", tuple![1, 1])
            .insert_tuple("other", tuple![5]);
        let (mask, params) = p.bind_transaction(&tx);
        assert_eq!(mask, 0b10, "bit 1 = t0's insertions");
        assert_eq!(params.len(), 1);
        assert_eq!(params[&tx_ins_param("t0")], Bag::singleton(tuple![1, 1]));
        // The variant scans the parameter, and evaluates to Δ(T,Q).
        let (v, fresh) = p.variant(mask, &provider).unwrap();
        assert!(fresh);
        assert!(v.ins.plan.tables().contains(&tx_ins_param("t0")));
        let mut state = u.state(&mut Rng::new(3), 3);
        state.extend(params);
        assert_eq!(eval(&v.ins.plan, &state).unwrap(), Bag::singleton(tuple![1, 1]));
        assert!(eval(&v.del.plan, &state).unwrap().is_empty());
        // A transaction touching nothing the view reads is mask 0.
        let (mask, params) = p.bind_transaction(&Transaction::new().insert_tuple("other", tuple![1]));
        assert_eq!(mask, 0);
        assert!(params.is_empty());
    }

    #[test]
    fn saturated_mask_is_sound_past_64_bases() {
        // 70 logged bases force saturation; the program must still answer
        // correctly because empty log tables evaluate to φ at runtime.
        let schema = Schema::from_pairs(&[
            ("a", dvm_storage::ValueType::Int),
            ("b", dvm_storage::ValueType::Int),
        ]);
        let mut provider: HashMap<String, Schema> = HashMap::new();
        let mut log = LogTables::new();
        let mut state: HashMap<String, Bag> = HashMap::new();
        for i in 0..70 {
            let t = format!("t{i}");
            provider.insert(t.clone(), schema.clone());
            provider.insert(log_del_name(&t), schema.clone());
            provider.insert(log_ins_name(&t), schema.clone());
            state.insert(t.clone(), Bag::new());
            state.insert(log_del_name(&t), Bag::new());
            state.insert(log_ins_name(&t), Bag::new());
            log.add(t);
        }
        let q = Expr::table("t0").union(Expr::table("t1"));
        let p = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        assert_eq!(p.all_active_mask(), CompiledDeltaProgram::SATURATED);

        state.insert("t0".into(), Bag::singleton(tuple![1, 1]));
        state.insert(log_ins_name("t0"), Bag::singleton(tuple![1, 1]));
        let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
        let mask = p.activity_mask(&is_empty);
        assert_eq!(mask, CompiledDeltaProgram::SATURATED, "mask saturates");
        let (v, _) = p.variant(mask, &provider).unwrap();
        let ins = eval(&v.ins.plan, &state).unwrap();
        assert_eq!(ins, Bag::singleton(tuple![1, 1]), "▲ = the logged insert");
        let del = eval(&v.del.plan, &state).unwrap();
        assert!(del.is_empty());
    }
}
