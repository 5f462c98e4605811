//! `scenario_mix`: writes beside fresh reads at a size that fits in
//! cache. One transaction stream maintains four copies of `V`, one per
//! scenario, so per-call derivation in the IM and DT `makesafe` and in
//! read-through is on the path; a share of transactions change the
//! `customer` join side, so cached join builds go stale.

use crate::data::Retail;
use crate::harness::blocks_for;
use crate::single::{Action, Op, SingleClient};
use dvm_core::{Result, Scenario};

const CUSTOMERS: usize = 2_000;
const SALES: usize = 20_000;
const VIEWS: [(&str, Scenario); 4] = [
    ("V_IM", Scenario::Immediate),
    ("V_BL", Scenario::BaseLog),
    ("V_DT", Scenario::DiffTable),
    ("V_C", Scenario::Combined),
];
/// Every this many transactions, one flips a customer's score.
const SCORE_EVERY: usize = 250;
/// Policy 2 on `V_C`; `V_BL` and `V_DT` are refreshed once per `M`,
/// staggered so no two refreshes follow the same commit.
const K: usize = 5;
const M: usize = 25;
/// A fresh read every this many transactions, alternating `V_BL`, `V_C`.
const FRESH_EVERY: usize = 25;
const CHECK_EVERY: usize = 16;
/// The schedule repeats every `PERIOD` transactions.
const PERIOD: usize = 250;
const WARMUP: usize = PERIOD;
/// Transactions per block of the timed phase.
const BLOCK: usize = PERIOD;
const TX_PER_SECOND: usize = 900;

pub fn plan(seed: u64, seconds: u64) -> Result<SingleClient> {
    let mut retail = Retail::generate(seed, CUSTOMERS, SALES)?;
    let warmup = schedule(&mut retail, WARMUP);
    let blocks = blocks_for(seconds, TX_PER_SECOND, BLOCK);
    let ops = schedule(&mut retail, blocks * BLOCK);
    Ok(SingleClient {
        retail,
        views: VIEWS.to_vec(),
        main_view: "V_C",
        threads: 1,
        warmup,
        ops,
        block: BLOCK,
    })
}

fn schedule(retail: &mut Retail, n: usize) -> Vec<Op> {
    (1..=n)
        .map(|t| {
            let tx = if t % SCORE_EVERY == 0 {
                retail.score_change(1)
            } else {
                retail.gen.mixed_batch(10, 10)
            };
            let mut after = Vec::new();
            if t % K == 0 {
                after.push(Action::Propagate("V_C"));
            }
            match t % M {
                0 => after.push(Action::PartialRefresh("V_C")),
                8 => after.push(Action::Refresh("V_BL")),
                16 => after.push(Action::Refresh("V_DT")),
                21 => after.push(Action::QueryView(VIEWS[(t / M) % VIEWS.len()].0)),
                _ => {}
            }
            if t % FRESH_EVERY == FRESH_EVERY / 2 {
                let n = t / FRESH_EVERY;
                after.push(Action::FreshRead {
                    view: if n.is_multiple_of(2) { "V_BL" } else { "V_C" },
                    cust: retail.read_customer(),
                    check: n.is_multiple_of(CHECK_EVERY),
                });
            }
            Op { tx, after }
        })
        .collect()
}
