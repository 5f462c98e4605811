//! `retail_p2`: the paper's central claims at a size larger than the
//! caches. Example 1.1's view `V` under the Combined scenario, driven by
//! Policy 2 (propagate every `K` transactions, partial refresh every `M`),
//! over sales-only transactions that leave the `customer` join side
//! stable. Each transaction inserts ten sales and deletes ten live ones,
//! so `sales` stays at its stated size for the whole run.

use crate::data::Retail;
use crate::harness::blocks_for;
use crate::single::{Action, Op, SingleClient};
use dvm_core::{Result, Scenario};

const CUSTOMERS: usize = 20_000;
const SALES: usize = 200_000;
/// Policy 2 periods, in transactions.
const K: usize = 10;
const M: usize = 100;
/// A `query_view` every this many transactions.
const READ_EVERY: usize = 250;
/// The schedule repeats every `PERIOD` transactions.
const PERIOD: usize = 500;
const WARMUP: usize = PERIOD;
/// Transactions per block of the timed phase.
const BLOCK: usize = 4 * PERIOD;
/// Transactions per second of `--seconds`; sized so a run takes about
/// that long on a 2-core host.
const TX_PER_SECOND: usize = 9_000;

pub fn plan(seed: u64, seconds: u64) -> Result<SingleClient> {
    let mut retail = Retail::generate(seed, CUSTOMERS, SALES)?;
    let warmup = schedule(&mut retail, WARMUP);
    let blocks = blocks_for(seconds, TX_PER_SECOND, BLOCK);
    let ops = schedule(&mut retail, blocks * BLOCK);
    Ok(SingleClient {
        retail,
        views: vec![("V", Scenario::Combined)],
        main_view: "V",
        threads: 0,
        warmup,
        ops,
        block: BLOCK,
    })
}

fn schedule(retail: &mut Retail, n: usize) -> Vec<Op> {
    (1..=n)
        .map(|t| {
            let tx = retail.gen.mixed_batch(10, 10);
            let mut after = Vec::new();
            if t % K == 0 {
                after.push(Action::Propagate("V"));
            }
            if t % M == 0 {
                after.push(Action::PartialRefresh("V"));
            }
            if t % READ_EVERY == 0 {
                after.push(Action::QueryView("V"));
            }
            Op { tx, after }
        })
        .collect()
}
