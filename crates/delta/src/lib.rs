//! # dvm-delta — differential algorithms for view maintenance
//!
//! Contribution 2 of *"Algorithms for Deferred View Maintenance"* (Colby,
//! Griffin, Libkin, Mumick, Trickey — SIGMOD 1996): change-propagation
//! over the full bag algebra that is correct in **both** the pre-update and
//! the post-update state.
//!
//! * [`weak`] — the mutually recursive `Del(η,Q)` / `Add(η,Q)` of Figure 2
//!   (Theorem 2: weakly minimal differentiation);
//! * [`strong`] — strengthening to strong minimality (Section 4.1);
//! * [`transaction`] — simple transactions and minimality normalization;
//! * [`incremental`] — `∇/Δ` (pre-update, for immediate maintenance) and
//!   `▼/▲` (post-update, for deferred refresh), plus the *state-bug*
//!   variant used by the experiments;
//! * [`compose`](mod@compose) — the weakly minimal composition lemma (Lemma 3);
//! * [`cancel`] — the cancellation lemma (Lemma 1);
//! * [`compile`] — the delta-plan compiler: `▼/▲` (post-update) or `∇/Δ`
//!   (pre-update) derived, simplified and plan-optimized once per view,
//!   cached per activity mask, and re-executed with log or transaction
//!   bags bound as parameters.

#![warn(missing_docs)]

pub mod cancel;
pub mod compile;
pub mod compose;
pub mod error;
pub mod incremental;
pub mod strong;
pub mod transaction;
pub mod weak;

pub use compile::{
    tx_del_param, tx_ins_param, CompiledDeltaProgram, CompiledDeltaVariant, DeltaDirection,
    DeltaProgramStats,
};
pub use compose::{compose, compose_into};
pub use error::{DeltaError, Result};
pub use incremental::{
    buggy_post_update_deltas, log_del_name, log_ins_name, post_update_deltas,
    post_update_deltas_general, post_update_deltas_pruned, pre_update_deltas, LogTables,
    PostDeltas,
};
pub use strong::{is_strongly_minimal, strongify_bags, strongify_exprs};
pub use transaction::Transaction;
pub use weak::{differentiate, differentiate_raw, DeltaPair};
