//! Materialized view descriptors: definition, scenario, auxiliary tables.

use crate::error::{CoreError, Result};
use crate::metrics::ViewMetrics;
use dvm_algebra::infer::{CompiledQuery, SchemaProvider};
use dvm_algebra::Expr;
use dvm_delta::{CompiledDeltaProgram, DeltaProgramStats, LogTables};
use dvm_storage::{Column, Schema};
use dvm_testkit::sync::{Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The four maintenance scenarios of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// `INV_IM`: `Q ≡ MV` — the view is refreshed inside every transaction.
    Immediate,
    /// `INV_BL`: `PAST(L,Q) ≡ MV` — transactions only append to base logs;
    /// refresh computes post-update incremental queries.
    BaseLog,
    /// `INV_DT`: `Q ≡ (MV ∸ ∇MV) ⊎ ΔMV` — transactions fold pre-update
    /// incremental queries into view differential tables; refresh just
    /// applies them.
    DiffTable,
    /// `INV_C`: `PAST(L,Q) ≡ (MV ∸ ∇MV) ⊎ ΔMV` — logs *and* differential
    /// tables; `propagate_C` moves work out of both the transaction path
    /// and the refresh path.
    Combined,
}

impl Scenario {
    /// Whether this scenario maintains base-table logs.
    pub fn uses_log(self) -> bool {
        matches!(self, Scenario::BaseLog | Scenario::Combined)
    }

    /// Whether this scenario maintains view differential tables.
    pub fn uses_diff_tables(self) -> bool {
        matches!(self, Scenario::DiffTable | Scenario::Combined)
    }

    /// Short name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::Immediate => "IM",
            Scenario::BaseLog => "BL",
            Scenario::DiffTable => "DT",
            Scenario::Combined => "C",
        }
    }
}

/// Which minimality discipline `propagate`/`makesafe` enforce on the view
/// differential tables (Section 4.1; ablation experiment E6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Minimality {
    /// Weak minimality only: `∇MV ⊑ MV`.
    #[default]
    Weak,
    /// Additionally cancel delete/reinsert churn: `∇MV min ΔMV ≡ φ`.
    Strong,
}

/// A materialized view under maintenance.
#[derive(Debug)]
pub struct View {
    name: String,
    definition: Expr,
    compiled: CompiledQuery,
    scenario: Scenario,
    minimality: Minimality,
    mv_table: String,
    log: Option<LogTables>,
    dt_del_table: Option<String>,
    dt_ins_table: Option<String>,
    base_tables: BTreeSet<String>,
    metrics: ViewMetrics,
    // The compiled delta program: precompiled ▼/▲ plans per log-activity
    // mask for log scenarios (BL, C), ∇/Δ plans per transaction-activity
    // mask for IM and DT. Lazily compiled on first use so
    // directly-constructed views (tests) need no provider at
    // construction; `Database` compiles it eagerly at view creation.
    // `None` after invalidation or before first use.
    delta_program: Mutex<Option<Arc<CompiledDeltaProgram>>>,
    // Serializes maintenance operations (refresh / propagate /
    // partial_refresh / invariant checks) on this view: each op reads and
    // rewrites several auxiliary tables and must see them mutually
    // consistent. In the lock order this sits *above* table commit claims.
    maintenance: Mutex<()>,
}

/// Name of the table materializing view `view`.
pub fn mv_table_name(view: &str) -> String {
    format!("__mv_{view}")
}

/// Name of the per-view deletion log `▼R` for `view` over `base`.
pub fn view_log_del_name(view: &str, base: &str) -> String {
    format!("__{view}_log_del_{base}")
}

/// Name of the per-view insertion log `▲R` for `view` over `base`.
pub fn view_log_ins_name(view: &str, base: &str) -> String {
    format!("__{view}_log_ins_{base}")
}

/// Name of the view differential deletion table `∇MV`.
pub fn dt_del_name(view: &str) -> String {
    format!("__{view}_dt_del")
}

/// Name of the view differential insertion table `ΔMV`.
pub fn dt_ins_name(view: &str) -> String {
    format!("__{view}_dt_ins")
}

impl View {
    /// Build a view descriptor. `compiled` must be the compilation of
    /// `definition` against the catalog the view will live in.
    pub fn new(
        name: impl Into<String>,
        definition: Expr,
        compiled: CompiledQuery,
        scenario: Scenario,
        minimality: Minimality,
    ) -> Result<Self> {
        let name = name.into();
        let base_tables = definition.tables();
        let log = if scenario.uses_log() {
            let mut l = LogTables::new();
            for base in &base_tables {
                l.add_named(
                    base.clone(),
                    view_log_del_name(&name, base),
                    view_log_ins_name(&name, base),
                );
            }
            Some(l)
        } else {
            None
        };
        let (dt_del_table, dt_ins_table) = if scenario.uses_diff_tables() {
            (Some(dt_del_name(&name)), Some(dt_ins_name(&name)))
        } else {
            (None, None)
        };
        // The MV table's schema: the definition's output columns with
        // qualifiers dropped (a materialized table has plain column names).
        mv_schema(&compiled.schema)?;
        Ok(View {
            mv_table: mv_table_name(&name),
            name,
            definition,
            compiled,
            scenario,
            minimality,
            log,
            dt_del_table,
            dt_ins_table,
            base_tables,
            metrics: ViewMetrics::default(),
            delta_program: Mutex::new(None),
            maintenance: Mutex::new(()),
        })
    }

    /// The view's compiled delta program, in the direction its scenario
    /// maintains with: post-update `▼(L,Q)/▲(L,Q)` over the log for BL
    /// and C (propagate, refresh, read-through), pre-update
    /// `∇(T,Q)/Δ(T,Q)` over the transaction for IM and DT (`makesafe`).
    /// Either way, steady-state maintenance binds parameters into a
    /// stored plan instead of re-deriving change queries. Compiled on
    /// first call (against `provider`, which must resolve the view's base
    /// tables) and cached until [`View::invalidate_delta_program`].
    pub fn delta_program(
        &self,
        provider: &dyn SchemaProvider,
    ) -> Result<Arc<CompiledDeltaProgram>> {
        let mut guard = self.delta_program.lock();
        if let Some(p) = guard.as_ref() {
            return Ok(Arc::clone(p));
        }
        let p = Arc::new(match &self.log {
            Some(log) => CompiledDeltaProgram::compile(&self.definition, log, provider)?,
            None => CompiledDeltaProgram::compile_pre_update(&self.definition, provider)?,
        });
        *guard = Some(Arc::clone(&p));
        Ok(p)
    }

    /// Drop the compiled delta program so the next maintenance operation
    /// recompiles it. Call on any definition or base-schema change (in
    /// this engine views are immutable, so today that means re-creation
    /// flows and embedders evolving schemas out-of-band).
    pub fn invalidate_delta_program(&self) {
        *self.delta_program.lock() = None;
    }

    /// Counter snapshot of the compiled delta program, `None` if it has
    /// not been compiled (never used, or invalidated). Never triggers
    /// compilation.
    pub fn delta_program_stats(&self) -> Option<DeltaProgramStats> {
        self.delta_program.lock().as_ref().map(|p| p.stats())
    }

    /// Serialize a maintenance operation on this view. Acquire *before* any
    /// table commit claim (see the lock order in `database.rs`).
    pub fn maintenance_lock(&self) -> MutexGuard<'_, ()> {
        self.maintenance.lock()
    }

    /// View name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining query `Q`.
    pub fn definition(&self) -> &Expr {
        &self.definition
    }

    /// The compiled defining query.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    /// The scenario governing maintenance.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The minimality discipline for differential tables.
    pub fn minimality(&self) -> Minimality {
        self.minimality
    }

    /// Name of the table holding `MV`.
    pub fn mv_table(&self) -> &str {
        &self.mv_table
    }

    /// Log-table descriptor, when the scenario uses logs.
    pub fn log(&self) -> Option<&LogTables> {
        self.log.as_ref()
    }

    /// `(∇MV, ΔMV)` table names, when the scenario uses differential tables.
    pub fn diff_tables(&self) -> Option<(&str, &str)> {
        match (&self.dt_del_table, &self.dt_ins_table) {
            (Some(d), Some(i)) => Some((d.as_str(), i.as_str())),
            _ => None,
        }
    }

    /// Base tables the definition reads.
    pub fn base_tables(&self) -> &BTreeSet<String> {
        &self.base_tables
    }

    /// Whether a transaction touching `tables` is relevant to this view.
    pub fn relevant_to(&self, tables: &BTreeSet<String>) -> bool {
        self.base_tables.iter().any(|t| tables.contains(t))
    }

    /// Maintenance metrics.
    pub fn metrics(&self) -> &ViewMetrics {
        &self.metrics
    }

    /// The schema of the MV table (qualifiers dropped).
    pub fn mv_schema(&self) -> Schema {
        mv_schema(&self.compiled.schema).expect("validated at construction")
    }

    /// The past query `PAST(L, Q)` for this view's log (Section 2.5).
    /// Only meaningful for log-based scenarios; for others it is `Q` itself.
    pub fn past_query(&self) -> Expr {
        match &self.log {
            Some(log) => log.past_subst().apply(&self.definition),
            None => self.definition.clone(),
        }
    }

    /// Names of every auxiliary (internal) table this view owns, MV first.
    pub fn internal_tables(&self) -> Vec<String> {
        let mut out = vec![self.mv_table.clone()];
        if let Some(log) = &self.log {
            for base in log.bases() {
                let (d, i) = log.get(base).expect("listed base");
                out.push(d.to_string());
                out.push(i.to_string());
            }
        }
        if let (Some(d), Some(i)) = (&self.dt_del_table, &self.dt_ins_table) {
            out.push(d.clone());
            out.push(i.clone());
        }
        out
    }
}

/// Drop qualifiers from a view's output schema, rejecting duplicates.
pub fn mv_schema(schema: &Schema) -> Result<Schema> {
    let cols: Vec<Column> = schema
        .columns()
        .iter()
        .map(|c| Column::new(c.name.clone(), c.ty))
        .collect();
    Schema::new(cols).map_err(|e| CoreError::UnmaterializableSchema(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_algebra::infer::compile;
    use dvm_delta::DeltaDirection;
    use dvm_storage::ValueType;
    use std::collections::HashMap;

    fn provider() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "r".to_string(),
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
        );
        m.insert(
            "s".to_string(),
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
        );
        m
    }

    fn make(scenario: Scenario) -> View {
        let p = provider();
        let def = Expr::table("r").union(Expr::table("s"));
        let compiled = compile(&def, &p).unwrap();
        View::new("v", def, compiled, scenario, Minimality::Weak).unwrap()
    }

    #[test]
    fn scenario_flags() {
        assert!(!Scenario::Immediate.uses_log());
        assert!(Scenario::BaseLog.uses_log());
        assert!(!Scenario::BaseLog.uses_diff_tables());
        assert!(Scenario::DiffTable.uses_diff_tables());
        assert!(Scenario::Combined.uses_log() && Scenario::Combined.uses_diff_tables());
        assert_eq!(Scenario::Combined.label(), "C");
    }

    #[test]
    fn naming() {
        assert_eq!(mv_table_name("v"), "__mv_v");
        assert_eq!(view_log_del_name("v", "r"), "__v_log_del_r");
        assert_eq!(dt_del_name("v"), "__v_dt_del");
    }

    #[test]
    fn immediate_view_has_no_aux() {
        let v = make(Scenario::Immediate);
        assert!(v.log().is_none());
        assert!(v.diff_tables().is_none());
        assert_eq!(v.internal_tables(), vec!["__mv_v".to_string()]);
        assert_eq!(v.past_query(), *v.definition());
    }

    #[test]
    fn base_log_view_logs_every_base() {
        let v = make(Scenario::BaseLog);
        let log = v.log().unwrap();
        assert_eq!(log.get("r"), Some(("__v_log_del_r", "__v_log_ins_r")));
        assert_eq!(log.get("s"), Some(("__v_log_del_s", "__v_log_ins_s")));
        assert_eq!(v.internal_tables().len(), 5);
    }

    #[test]
    fn combined_view_has_both() {
        let v = make(Scenario::Combined);
        assert!(v.log().is_some());
        assert_eq!(v.diff_tables(), Some(("__v_dt_del", "__v_dt_ins")));
        assert_eq!(v.internal_tables().len(), 7);
    }

    #[test]
    fn delta_program_is_lazy_cached_and_invalidatable() {
        let mut p = provider();
        let v = make(Scenario::Combined);
        let log = v.log().unwrap();
        for base in log.bases() {
            let (d, i) = log.get(base).unwrap();
            let schema = p.get(base).unwrap().clone();
            p.insert(d.to_string(), schema.clone());
            p.insert(i.to_string(), schema);
        }
        assert!(v.delta_program_stats().is_none(), "lazy until first use");
        let prog = v.delta_program(&p).unwrap();
        prog.record_bind();
        assert_eq!(v.delta_program_stats().unwrap().binds, 1);
        let again = v.delta_program(&p).unwrap();
        assert!(Arc::ptr_eq(&prog, &again), "second fetch is the cache");
        // Invalidation (definition change / recompile-on-open) drops the
        // program; the next fetch recompiles with fresh counters.
        v.invalidate_delta_program();
        assert!(v.delta_program_stats().is_none());
        let rebuilt = v.delta_program(&p).unwrap();
        assert!(!Arc::ptr_eq(&prog, &rebuilt), "recompiled, not revived");
        assert_eq!(rebuilt.stats().binds, 0, "counters restart");
        // Scenarios without a log compile the pre-update direction.
        for scenario in [Scenario::Immediate, Scenario::DiffTable] {
            let pre = make(scenario).delta_program(&p).unwrap();
            assert_eq!(pre.direction(), DeltaDirection::PreUpdate);
        }
        assert_eq!(prog.direction(), DeltaDirection::PostUpdate);
    }

    #[test]
    fn past_query_substitutes_log_tables() {
        let v = make(Scenario::BaseLog);
        let past = v.past_query();
        let tables = past.tables();
        assert!(tables.contains("__v_log_ins_r"));
        assert!(tables.contains("__v_log_del_s"));
    }

    #[test]
    fn relevance() {
        let v = make(Scenario::BaseLog);
        let mut set = BTreeSet::new();
        set.insert("r".to_string());
        assert!(v.relevant_to(&set));
        let mut other = BTreeSet::new();
        other.insert("zzz".to_string());
        assert!(!v.relevant_to(&other));
    }

    #[test]
    fn unmaterializable_schema_rejected() {
        let p = provider();
        // product without projection: columns a,b,a,b collide unqualified
        let def = Expr::table("r")
            .alias("x")
            .product(Expr::table("s").alias("y"));
        let compiled = compile(&def, &p).unwrap();
        assert!(matches!(
            View::new("v", def, compiled, Scenario::Immediate, Minimality::Weak),
            Err(CoreError::UnmaterializableSchema(_))
        ));
    }
}
