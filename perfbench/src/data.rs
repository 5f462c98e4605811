//! Seeded inputs: the Example 1.1 retail tables and the draws the
//! workloads make from them. Everything here runs before the clock.

use dvm_core::{Database, Result};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Bag, Tuple};
use dvm_testkit::Rng;
use dvm_workload::{customer_schema, sales_schema, RetailConfig, RetailGen, Zipf};

/// Share of customers whose score starts as "High" (the view's selectivity).
const HIGH_FRACTION: f64 = 0.1;

/// The initial `customer` and `sales` tables, plus the generator that
/// continues the sales stream from them.
pub struct Retail {
    pub customers: Bag,
    pub sales: Bag,
    pub gen: RetailGen,
    /// Current score of each customer (`true` = "High"), for score changes
    /// that always delete a row that exists.
    high: Vec<bool>,
    /// Draws of customers to read, Zipf-skewed like the sales stream.
    read_rng: Rng,
    read_zipf: Zipf,
}

impl Retail {
    /// Generate `customers` customers and `sales` initial sales from `seed`.
    pub fn generate(seed: u64, customers: usize, sales: usize) -> Result<Self> {
        let cfg = RetailConfig {
            customers,
            items: (customers / 2).max(10),
            initial_sales: sales,
            high_fraction: HIGH_FRACTION,
            theta: 1.0,
            seed,
        };
        let mut gen = RetailGen::new(cfg);
        let scratch = Database::new();
        gen.install(&scratch)?;
        let high: Vec<bool> = (0..customers)
            .map(|id| is_high_at_start(id, customers))
            .collect();
        let retail = Retail {
            customers: scratch.catalog().bag_of("customer")?,
            sales: scratch.catalog().bag_of("sales")?,
            gen,
            high,
            read_rng: Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            read_zipf: Zipf::new(customers, 1.0),
        };
        assert!(
            retail.customers.contains(&customer_row(0, retail.high[0])),
            "customer rows are rebuilt exactly as the generator wrote them"
        );
        Ok(retail)
    }

    /// Create `customer` and `sales` in `db` and load the initial rows.
    pub fn load(&self, db: &Database) -> Result<()> {
        db.create_table("customer", customer_schema())?;
        db.create_table("sales", sales_schema())?;
        db.catalog()
            .require("customer")?
            .replace(self.customers.clone())?;
        db.catalog().require("sales")?.replace(self.sales.clone())?;
        Ok(())
    }

    /// Flip the score of `n` customers: each deletes the customer's current
    /// row and inserts it with the other score.
    pub fn score_change(&mut self, n: usize) -> Transaction {
        let mut del = Bag::new();
        let mut ins = Bag::new();
        for _ in 0..n {
            let id = self.read_rng.index(self.high.len());
            del.insert(customer_row(id, self.high[id]));
            self.high[id] = !self.high[id];
            ins.insert(customer_row(id, self.high[id]));
        }
        Transaction::new()
            .delete("customer", del)
            .insert("customer", ins)
    }

    /// A customer id to read, popular customers more often.
    pub fn read_customer(&mut self) -> i64 {
        self.read_zipf.sample(&mut self.read_rng) as i64
    }
}

fn is_high_at_start(id: usize, customers: usize) -> bool {
    (id as f64 / customers as f64) < HIGH_FRACTION
}

fn customer_row(id: usize, high: bool) -> Tuple {
    tuple![
        id as i64,
        format!("cust-{id}"),
        format!("{id} main st"),
        if high { "High" } else { "Low" }
    ]
}
