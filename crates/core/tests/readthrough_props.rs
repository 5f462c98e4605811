//! Fresh reads through stale views, differentially tested: after every
//! step of a random stream, `read_through_where` must equal `σ_p(Q)`
//! recomputed from scratch (and `read_through` must equal `Q`) for views
//! in all four scenarios plus shared-log views, with maintenance
//! operations interleaved at random so reads meet every mix of log,
//! differential-table and `MV` state.
//!
//! Two families: the retail join of Example 1.1 (customer ⋈ sales under a
//! score filter) with occasional score changes, which move tuples across
//! the join's filtered side, and random plans over the testgen universe.

use dvm_algebra::testgen::{Rng, Universe};
use dvm_algebra::{col, lit, Expr, Predicate};
use dvm_core::readthrough::recompute_where;
use dvm_core::{Database, Minimality, Scenario};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Bag, Schema, ValueType};

const SCENARIOS: [(&str, Scenario); 4] = [
    ("v_im", Scenario::Immediate),
    ("v_bl", Scenario::BaseLog),
    ("v_dt", Scenario::DiffTable),
    ("v_c", Scenario::Combined),
];

/// Every view over `def`: one per scenario, a strongly minimal Combined
/// copy, and two shared-log views.
fn create_views(db: &Database, def: &Expr) -> dvm_core::Result<Vec<String>> {
    for (name, scenario) in SCENARIOS {
        db.create_view(name, def.clone(), scenario)?;
    }
    db.create_view_with("v_cs", def.clone(), Scenario::Combined, Minimality::Strong)?;
    db.create_view_shared("v_s0", def.clone(), Minimality::Weak)?;
    db.create_view_shared("v_s1", def.clone(), Minimality::Strong)?;
    Ok(db.view_names())
}

/// One random maintenance step (or none), so reads see logs, differential
/// tables and `MV` in every combination.
fn maintain(db: &Database, rng: &mut Rng, views: &[String]) {
    let view = &views[rng.below(views.len() as u64) as usize];
    let combined = db.view(view).unwrap().scenario() == Scenario::Combined;
    match rng.below(4) {
        0 if combined => db.propagate(view).unwrap(),
        1 if combined => db.partial_refresh(view).unwrap(),
        2 => db.refresh(view).unwrap(),
        _ => {}
    }
}

fn assert_fresh(db: &Database, views: &[String], pred: &Predicate, ctx: &str) {
    for name in views {
        let view = db.view(name).unwrap();
        let fresh = db.read_through_where(name, pred).unwrap();
        let truth = recompute_where(db.catalog(), &view, pred).unwrap();
        assert_eq!(fresh, truth, "read_through_where({pred}) of {name}: {ctx}");
        assert_eq!(
            db.read_through(name).unwrap(),
            db.recompute_view(name).unwrap(),
            "read_through of {name}: {ctx}"
        );
    }
}

/// A random subbag of `table`'s current contents.
fn random_deletes(db: &Database, rng: &mut Rng, table: &str, per_mille: u64) -> Bag {
    let mut del = Bag::new();
    for (t, mult) in db.catalog().bag_of(table).unwrap().iter() {
        if rng.below(1000) < per_mille {
            del.insert_n(t.clone(), 1 + rng.below(mult));
        }
    }
    del
}

#[test]
fn retail_read_through_matches_recompute_with_score_changes() {
    const CUSTOMERS: i64 = 12;
    let mut rng = Rng::new(0x2EAD);
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
    for c in 0..CUSTOMERS {
        customer.insert(tuple![c, rng.range(0, 10)]).unwrap();
    }
    for _ in 0..60 {
        sales
            .insert(tuple![rng.range(0, CUSTOMERS), rng.range(1, 50)])
            .unwrap();
    }
    let def = Expr::table("customer")
        .alias("c")
        .product(Expr::table("sales").alias("s"))
        .select(
            Predicate::eq(col("c.custId"), col("s.custId"))
                .and(Predicate::gt(col("c.score"), lit(4i64))),
        )
        .project(["c.custId", "s.amt"]);
    let views = create_views(&db, &def).unwrap();

    for step in 0..120 {
        let tx = if step % 7 == 3 {
            // A score change: the customer's sales move into or out of the
            // view all at once.
            let c = rng.range(0, CUSTOMERS);
            let old = db
                .catalog()
                .bag_of("customer")
                .unwrap()
                .iter()
                .find(|(t, _)| t.values()[0] == dvm_storage::Value::Int(c))
                .map(|(t, _)| t.clone())
                .expect("every customer has one row");
            Transaction::new()
                .delete_tuple("customer", old)
                .insert_tuple("customer", tuple![c, rng.range(0, 10)])
        } else {
            let mut ins = Bag::new();
            for _ in 0..rng.below(4) {
                ins.insert(tuple![rng.range(0, CUSTOMERS), rng.range(1, 50)]);
            }
            Transaction::new()
                .delete("sales", random_deletes(&db, &mut rng, "sales", 40))
                .insert("sales", ins)
        };
        db.execute(&tx).unwrap();
        maintain(&db, &mut rng, &views);
        let pred = if rng.chance(1, 2) {
            Predicate::eq(col("custId"), lit(rng.range(0, CUSTOMERS)))
        } else {
            Predicate::gt(col("amt"), lit(rng.range(0, 50)))
        };
        assert_fresh(&db, &views, &pred, &format!("step {step}"));
    }
    assert!(db.check_all_invariants().unwrap().is_empty());
}

#[test]
fn random_plan_read_through_matches_recompute() {
    let u = Universe::small(2);
    let mut rng = Rng::new(0x7EAD);
    let mut rounds = 0;
    while rounds < 12 {
        let def = u.expr(&mut rng, 2);
        let db = Database::new();
        for t in &u.tables {
            let table = db.create_table(t.clone(), u.schema.clone()).unwrap();
            table.replace(u.bag(&mut rng, 5)).unwrap();
        }
        let Ok(views) = create_views(&db, &def) else {
            continue; // unmaterializable output schema
        };
        rounds += 1;
        for step in 0..8 {
            let mut tx = Transaction::new();
            for t in &u.tables {
                if rng.chance(1, 2) {
                    tx = tx
                        .delete(t.clone(), random_deletes(&db, &mut rng, t, 300))
                        .insert(t.clone(), u.bag(&mut rng, 3));
                }
            }
            db.execute(&tx).unwrap();
            maintain(&db, &mut rng, &views);
            let pred = u.predicate(&mut rng, &[]);
            assert_fresh(&db, &views, &pred, &format!("step {step} of {def}"));
        }
    }
}
