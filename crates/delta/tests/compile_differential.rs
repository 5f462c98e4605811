//! The compiled≡fresh property suite: a view's [`CompiledDeltaProgram`]
//! — derived once and cached per activity mask — must evaluate bag-equal
//! to a fresh [`post_update_deltas_pruned`] derivation at **every** step
//! of a multi-transaction workload, over random plans spanning the whole
//! algebra (joins with NULL keys, EXCEPT, NullEq selections, aggregates).
//! Pre-update programs get the same treatment against a fresh
//! [`pre_update_deltas`] for every weakly minimal transaction.
//!
//! Each round compiles one program, then walks several transactions:
//! the state advances, the log accumulates by the composition lemma, and
//! at each step both paths are evaluated against the same state. The
//! suite also checks the compile-once property: the program performs at
//! most one symbolic derivation per distinct activity mask.

use dvm_algebra::eval::eval;
use dvm_algebra::infer::compile;
use dvm_algebra::testgen::{Rng, Universe};
use dvm_algebra::Expr;
use dvm_algebra::subst::FactoredSubstitution;
use dvm_delta::{
    compose_into, log_del_name, log_ins_name, post_update_deltas_pruned, pre_update_deltas,
    CompiledDeltaProgram, LogTables, Transaction,
};
use dvm_storage::{Bag, Schema};
use std::collections::{HashMap, HashSet};

fn provider_with_logs(u: &Universe) -> HashMap<String, Schema> {
    let mut p = u.provider();
    for t in &u.tables {
        p.insert(log_del_name(t), u.schema.clone());
        p.insert(log_ins_name(t), u.schema.clone());
    }
    p
}

/// Run `rounds` random programs of `steps` transactions each, checking
/// compiled-vs-fresh equality after every transaction.
fn check_rounds(
    u: &Universe,
    rng: &mut Rng,
    rounds: usize,
    steps: usize,
    gen: impl Fn(&Universe, &mut Rng) -> Expr,
) {
    let provider = provider_with_logs(u);
    for round in 0..rounds {
        let q = gen(u, rng);
        let mut state = u.state(rng, 4);
        let mut log = LogTables::new();
        for t in &u.tables {
            log.add(t.clone());
            state.insert(log_del_name(t), Bag::new());
            state.insert(log_ins_name(t), Bag::new());
        }
        let program = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        let mut masks_seen: HashSet<u128> = HashSet::new();

        for step in 0..steps {
            // One weakly minimal transaction against the current state:
            // apply it to the bases and fold it into the log (composition
            // lemma — exactly what makesafe_BL does).
            let f = u.weakly_minimal_subst(rng, &state);
            state = u.apply_subst_to_state(&f, &state);
            for t in &u.tables {
                let (d, a) = match f.get(t) {
                    Some((Expr::Literal { bag: d, .. }, Expr::Literal { bag: a, .. })) => {
                        (d.clone(), a.clone())
                    }
                    None => (Bag::new(), Bag::new()),
                    _ => unreachable!("testgen substitutions carry literal deltas"),
                };
                let mut dl = state.remove(&log_del_name(t)).unwrap();
                let mut il = state.remove(&log_ins_name(t)).unwrap();
                compose_into(&mut dl, &mut il, &d, &a);
                state.insert(log_del_name(t), dl);
                state.insert(log_ins_name(t), il);
            }

            let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
            let fresh = post_update_deltas_pruned(&q, &log, &provider, &is_empty).unwrap();
            let ev = |e: &Expr| eval(&compile(e, &provider).unwrap().plan, &state).unwrap();
            let mask = program.activity_mask(&is_empty);
            if mask == 0 {
                assert!(
                    ev(&fresh.del).is_empty() && ev(&fresh.ins).is_empty(),
                    "mask 0 must mean the fresh deltas are φ (q={q})"
                );
                continue;
            }
            masks_seen.insert(mask);
            let (v, _) = program.variant(mask, &provider).unwrap();
            assert_eq!(
                eval(&v.del.plan, &state).unwrap(),
                ev(&fresh.del),
                "▼ diverged: q={q} round={round} step={step}"
            );
            assert_eq!(
                eval(&v.ins.plan, &state).unwrap(),
                ev(&fresh.ins),
                "▲ diverged: q={q} round={round} step={step}"
            );
        }

        // Compile-once: one derivation per distinct mask, plus the eager
        // all-active variant.
        let s = program.stats();
        assert!(
            s.compiles <= masks_seen.len() as u64 + 1,
            "{} compiles for {} distinct masks (q={q})",
            s.compiles,
            masks_seen.len()
        );
    }
}

/// Random relational plans (select/project/join/union/monus/except/...)
/// over the all-Int universe.
#[test]
fn compiled_matches_fresh_on_random_plans() {
    let u = Universe::small(3);
    let mut rng = Rng::new(0xD1FF);
    check_rounds(&u, &mut rng, 30, 4, |u, rng| u.expr(rng, 3));
}

/// The mixed universe: NULLs (NULL join keys, NullEq predicates) and
/// Doubles flow through EXCEPT/joins — the operators where compiled and
/// per-call derivations could most plausibly diverge.
#[test]
fn compiled_matches_fresh_with_nulls_and_doubles() {
    let u = Universe::mixed(3);
    let mut rng = Rng::new(0x9AB5);
    check_rounds(&u, &mut rng, 30, 4, |u, rng| u.expr(rng, 3));
}

/// Aggregate views (GROUP BY over the five functions + COUNT(*)): the
/// differentiation of γ is the most intricate rule, so it gets its own
/// pass with deeper inner plans.
#[test]
fn compiled_matches_fresh_on_aggregates() {
    let u = Universe::mixed(3);
    let mut rng = Rng::new(0xA66);
    check_rounds(&u, &mut rng, 20, 4, |u, rng| u.agg_expr(rng, 2));
}

/// The transaction a testgen substitution of literal deltas describes,
/// keeping only tuples that type-check against the universe schema (a
/// transaction's bags become literals in `T̂`, and mixed universes also
/// draw Doubles into INT columns). NULLs type-check and stay. A subbag of
/// a weakly minimal deletion is still weakly minimal.
fn transaction_of(u: &Universe, f: &FactoredSubstitution) -> Transaction {
    let typed = |b: &Bag| b.select(|t| u.schema.validate(t).is_ok());
    let mut tx = Transaction::new();
    for t in f.tables() {
        match f.get(t) {
            Some((Expr::Literal { bag: d, .. }, Expr::Literal { bag: a, .. })) => {
                tx = tx.delete(t.clone(), typed(d)).insert(t.clone(), typed(a));
            }
            _ => unreachable!("testgen substitutions carry literal deltas"),
        }
    }
    tx
}

/// Run `rounds` random pre-update programs over `steps` transactions
/// each: before every transaction is applied, the compiled `∇(T,Q)/Δ(T,Q)`
/// variant for its mask, with the transaction bound as parameters, must
/// equal a fresh `pre_update_deltas` evaluated in the same state.
fn check_pre_update_rounds(
    u: &Universe,
    rng: &mut Rng,
    rounds: usize,
    steps: usize,
    gen: impl Fn(&Universe, &mut Rng) -> Expr,
) {
    let provider = u.provider();
    for round in 0..rounds {
        let q = gen(u, rng);
        let mut state = u.state(rng, 4);
        let program = CompiledDeltaProgram::compile_pre_update(&q, &provider).unwrap();
        let mut masks_seen: HashSet<u128> = HashSet::new();

        for step in 0..steps {
            let f = u.weakly_minimal_subst(rng, &state);
            let tx = transaction_of(u, &f);
            let fresh = pre_update_deltas(&q, &tx, &provider).unwrap();
            let ev = |e: &Expr| eval(&compile(e, &provider).unwrap().plan, &state).unwrap();
            let (mask, params) = program.bind_transaction(&tx);
            if mask == 0 {
                assert!(
                    ev(&fresh.del).is_empty() && ev(&fresh.add).is_empty(),
                    "mask 0 must mean the fresh deltas are φ (q={q})"
                );
            } else {
                masks_seen.insert(mask);
                let (v, _) = program.variant(mask, &provider).unwrap();
                let mut bound = state.clone();
                bound.extend(params);
                assert_eq!(
                    eval(&v.del.plan, &bound).unwrap(),
                    ev(&fresh.del),
                    "∇ diverged: q={q} round={round} step={step}"
                );
                assert_eq!(
                    eval(&v.ins.plan, &bound).unwrap(),
                    ev(&fresh.add),
                    "Δ diverged: q={q} round={round} step={step}"
                );
            }
            tx.apply_to_map(&mut state);
        }

        let s = program.stats();
        assert!(
            s.compiles <= masks_seen.len() as u64 + 1,
            "{} compiles for {} distinct masks (q={q})",
            s.compiles,
            masks_seen.len()
        );
    }
}

/// Pre-update programs over random relational plans.
#[test]
fn pre_update_compiled_matches_fresh_on_random_plans() {
    let u = Universe::small(3);
    let mut rng = Rng::new(0x9E1);
    check_pre_update_rounds(&u, &mut rng, 30, 4, |u, rng| u.expr(rng, 3));
}

/// Pre-update programs with NULL join keys, NullEq predicates, Doubles
/// and EXCEPT.
#[test]
fn pre_update_compiled_matches_fresh_with_nulls_and_doubles() {
    let u = Universe::mixed(3);
    let mut rng = Rng::new(0x9E2);
    check_pre_update_rounds(&u, &mut rng, 30, 4, |u, rng| u.expr(rng, 3));
}

/// Pre-update programs over aggregate views.
#[test]
fn pre_update_compiled_matches_fresh_on_aggregates() {
    let u = Universe::mixed(3);
    let mut rng = Rng::new(0x9E3);
    check_pre_update_rounds(&u, &mut rng, 20, 4, |u, rng| u.agg_expr(rng, 2));
}
