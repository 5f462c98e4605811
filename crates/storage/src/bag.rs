//! Bags (multisets) of tuples — the storage representation behind every
//! table, log, and differential table.
//!
//! A [`Bag`] maps each distinct tuple to its multiplicity. All of the paper's
//! bag-algebra primitives are implemented natively here:
//!
//! * additive union `⊎` ([`Bag::union`]),
//! * monus `∸` ([`Bag::monus`]),
//! * minimal intersection `min` ([`Bag::min_intersect`]),
//! * maximal union `max` ([`Bag::max_union`]),
//! * cartesian product `×` ([`Bag::product`]),
//! * selection `σ` ([`Bag::select`]),
//! * projection `Π` ([`Bag::project`]),
//! * duplicate elimination `ε` ([`Bag::dedup`]).
//!
//! The total cardinality is cached so `len()` is O(1).
//!
//! ## Sharding
//!
//! Large bags are **hash-partitioned** into [`Bag::SHARDS`] sub-maps so a
//! single big view's maintenance can split by key across worker threads:
//! tuples route to shard `⌊(h · φ64) / 2^(64-4)⌋` where `h` is the same
//! FxHash tuple hash the maps themselves use and `φ64` is the 64-bit golden
//! ratio (the multiply decorrelates the shard index from the hash bits the
//! inner hash table consumes). Because every sharded bag uses the *same*
//! partition count and routing function, shard `k` of a delta aligns with
//! shard `k` of the table it applies to — union, monus, and delta-compose
//! factor into 16 independent per-shard jobs with no cross-shard traffic
//! (see [`Bag::apply_delta_parallel`] and [`compose_delta_parallel`]).
//!
//! A bag starts as a single flat map and promotes to the sharded form when
//! it reaches [`Bag::PROMOTE_DISTINCT`] distinct tuples, so small bags (the
//! common case for deltas) pay no routing overhead. Promotion is one-way;
//! [`Bag::clear`] resets to flat.

use crate::hasher::{FxBuildHasher, FxHashMap};
use crate::tuple::Tuple;
use dvm_obs::profile::{self, ShardProfile};
use dvm_testkit::WorkerPool;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Mutex;
use std::time::Instant;

/// 64-bit golden ratio, the standard Fibonacci-hashing multiplier: remixes
/// the FxHash value so the shard index (top bits) is independent of the
/// bits the inner hash map's bucket index consumes (low bits).
const SHARD_REMIX: u64 = 0x9E37_79B9_7F4A_7C15;

type Shard = FxHashMap<Tuple, u64>;

#[derive(Debug, Clone)]
enum Repr {
    /// One map — every bag below the promotion threshold.
    Flat(Shard),
    /// [`Bag::SHARDS`] maps, tuples routed by [`Bag::shard_index`].
    Sharded(Box<[Shard]>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Flat(Shard::default())
    }
}

/// A finite multiset of tuples.
///
/// Tuples are hashed with the workspace [`crate::hasher::FxHasher`] rather
/// than std's SipHash: bag contents are internal maintenance state, and
/// tuple hashing dominates the maintenance hot path (see DESIGN.md §11).
#[derive(Debug, Clone, Default)]
pub struct Bag {
    repr: Repr,
    /// Cached total multiplicity (sum over all entries).
    len: u64,
}

impl Bag {
    /// Number of partitions in the sharded representation (power of two so
    /// the route is a shift of the remixed hash).
    pub const SHARDS: usize = 16;

    /// Distinct-tuple count at which a flat bag promotes to shards.
    pub const PROMOTE_DISTINCT: usize = 8192;

    /// The empty bag `φ`.
    pub fn new() -> Self {
        Bag::default()
    }

    /// An empty bag with capacity for `n` distinct tuples. Capacities at or
    /// above the promotion threshold start sharded outright.
    pub fn with_capacity(n: usize) -> Self {
        if n >= Self::PROMOTE_DISTINCT {
            let per = n / Self::SHARDS + 1;
            let shards: Vec<Shard> = (0..Self::SHARDS)
                .map(|_| HashMap::with_capacity_and_hasher(per, FxBuildHasher::default()))
                .collect();
            Bag {
                repr: Repr::Sharded(shards.into_boxed_slice()),
                len: 0,
            }
        } else {
            Bag {
                repr: Repr::Flat(HashMap::with_capacity_and_hasher(n, FxBuildHasher::default())),
                len: 0,
            }
        }
    }

    /// Shard a tuple routes to in the sharded representation. Stable across
    /// bags and processes (FxHash is deterministic), so shard `k` of one
    /// bag aligns with shard `k` of every other.
    pub fn shard_index(t: &Tuple) -> usize {
        let h = FxBuildHasher::default().hash_one(t);
        (h.wrapping_mul(SHARD_REMIX) >> 60) as usize
    }

    /// Whether this bag currently uses the sharded representation.
    pub fn is_sharded(&self) -> bool {
        matches!(self.repr, Repr::Sharded(_))
    }

    /// Force the sharded representation (no-op when already sharded).
    /// Contents and semantics are unchanged; only the layout differs.
    pub fn ensure_sharded(&mut self) {
        if let Repr::Flat(map) = &mut self.repr {
            let old = std::mem::take(map);
            let mut shards: Vec<Shard> = (0..Self::SHARDS).map(|_| Shard::default()).collect();
            for (t, m) in old {
                shards[Self::shard_index(&t)].insert(t, m);
            }
            self.repr = Repr::Sharded(shards.into_boxed_slice());
        }
    }

    fn maybe_promote(&mut self) {
        if let Repr::Flat(map) = &self.repr {
            if map.len() >= Self::PROMOTE_DISTINCT {
                self.ensure_sharded();
            }
        }
    }

    /// The sub-maps as a slice: one map when flat, [`Self::SHARDS`] when
    /// sharded. Lets iteration code treat both layouts uniformly.
    fn maps(&self) -> &[Shard] {
        match &self.repr {
            Repr::Flat(m) => std::slice::from_ref(m),
            Repr::Sharded(s) => s,
        }
    }

    fn map_for(&self, t: &Tuple) -> &Shard {
        match &self.repr {
            Repr::Flat(m) => m,
            Repr::Sharded(s) => &s[Self::shard_index(t)],
        }
    }

    fn map_for_mut(&mut self, t: &Tuple) -> &mut Shard {
        match &mut self.repr {
            Repr::Flat(m) => m,
            Repr::Sharded(s) => &mut s[Self::shard_index(t)],
        }
    }

    /// A singleton bag `{x}`.
    pub fn singleton(t: Tuple) -> Self {
        let mut b = Bag::new();
        b.insert(t);
        b
    }

    /// Build from an iterator of tuples, accumulating multiplicities.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut b = Bag::new();
        for t in iter {
            b.insert(t);
        }
        b
    }

    /// Total cardinality, counting duplicates.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Number of distinct tuples.
    pub fn distinct_len(&self) -> usize {
        self.maps().iter().map(Shard::len).sum()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Multiplicity of `t` (0 when absent).
    pub fn multiplicity(&self, t: &Tuple) -> u64 {
        self.map_for(t).get(t).copied().unwrap_or(0)
    }

    /// Whether `t` occurs at least once.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.multiplicity(t) > 0
    }

    /// Insert one occurrence of `t`.
    pub fn insert(&mut self, t: Tuple) {
        self.insert_n(t, 1);
    }

    /// Insert `n` occurrences of `t`.
    pub fn insert_n(&mut self, t: Tuple, n: u64) {
        if n == 0 {
            return;
        }
        *self.map_for_mut(&t).entry(t).or_insert(0) += n;
        self.len += n;
        self.maybe_promote();
    }

    /// Remove up to `n` occurrences of `t`; returns how many were removed.
    pub fn remove_n(&mut self, t: &Tuple, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let map = self.map_for_mut(t);
        match map.get_mut(t) {
            None => 0,
            Some(m) => {
                let removed = (*m).min(n);
                *m -= removed;
                if *m == 0 {
                    map.remove(t);
                }
                self.len -= removed;
                removed
            }
        }
    }

    /// Remove one occurrence of `t`; returns whether one was removed.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.remove_n(t, 1) == 1
    }

    /// Remove everything (and fall back to the flat representation).
    pub fn clear(&mut self) {
        self.repr = Repr::default();
        self.len = 0;
    }

    /// Iterate over `(tuple, multiplicity)` pairs in hash order (shard by
    /// shard when sharded).
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.maps().iter().flat_map(|m| m.iter().map(|(t, &n)| (t, n)))
    }

    /// Iterate over tuples, each repeated by its multiplicity.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &Tuple> {
        self.iter()
            .flat_map(|(t, m)| std::iter::repeat_n(t, m as usize))
    }

    /// Entries sorted by tuple — deterministic order for display and tests.
    pub fn sorted_entries(&self) -> Vec<(Tuple, u64)> {
        let mut v: Vec<(Tuple, u64)> = self.iter().map(|(t, m)| (t.clone(), m)).collect();
        v.sort();
        v
    }

    /// Fold `self` with an order-independent combiner — a hash of the
    /// bag's *contents* that never sorts. Each `(tuple, multiplicity)`
    /// entry is hashed independently by `per_entry` and the results are
    /// combined with wrapping addition, which is commutative, so any
    /// iteration order yields the same value. Used by plan fingerprinting
    /// to hash `Literal` bags without an O(n log n) sort.
    pub fn fold_entry_hashes<F: Fn(&Tuple, u64) -> u64>(&self, per_entry: F) -> u64 {
        self.iter()
            .fold(0u64, |acc, (t, m)| acc.wrapping_add(per_entry(t, m)))
    }

    // ---- bag algebra primitives ------------------------------------------

    /// Additive union `self ⊎ other`: multiplicities add.
    pub fn union(&self, other: &Bag) -> Bag {
        let (big, small) = if self.distinct_len() >= other.distinct_len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = big.clone();
        out.union_assign(small);
        out
    }

    /// In-place additive union.
    pub fn union_assign(&mut self, other: &Bag) {
        for (t, m) in other.iter() {
            self.insert_n(t.clone(), m);
        }
    }

    /// Monus `self ∸ other`: multiplicity of `x` is `max(0, n - m)`.
    ///
    /// Walks the smaller operand: subtracting a large `other` from a small
    /// `self` (a transaction's deletions against a long log, in the
    /// composition lemma) looks each of `self`'s tuples up in `other`
    /// instead of visiting all of `other`.
    pub fn monus(&self, other: &Bag) -> Bag {
        if other.distinct_len() <= self.distinct_len() {
            let mut out = self.clone();
            out.monus_assign(other);
            return out;
        }
        let mut out = Bag::with_capacity(self.distinct_len());
        for (t, m) in self.iter() {
            let k = m.saturating_sub(other.multiplicity(t));
            if k > 0 {
                out.insert_n(t.clone(), k);
            }
        }
        out
    }

    /// In-place monus.
    pub fn monus_assign(&mut self, other: &Bag) {
        for (t, m) in other.iter() {
            self.remove_n(t, m);
        }
    }

    /// Minimal intersection: multiplicity is `min(n, m)`.
    ///
    /// Definable as `Q1 ∸ (Q1 ∸ Q2)` (Section 2.1); the native form avoids
    /// two clones. The equivalence is property-tested.
    pub fn min_intersect(&self, other: &Bag) -> Bag {
        let (small, big) = if self.distinct_len() <= other.distinct_len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Bag::with_capacity(small.distinct_len());
        for (t, m) in small.iter() {
            let k = m.min(big.multiplicity(t));
            if k > 0 {
                out.insert_n(t.clone(), k);
            }
        }
        out
    }

    /// Maximal union: multiplicity is `max(n, m)`.
    ///
    /// Definable as `Q1 ⊎ (Q2 ∸ Q1)` (Section 2.1).
    pub fn max_union(&self, other: &Bag) -> Bag {
        let mut out = self.clone();
        for (t, m) in other.iter() {
            let cur = out.multiplicity(t);
            if m > cur {
                out.insert_n(t.clone(), m - cur);
            }
        }
        out
    }

    /// Cartesian product `self × other` with tuple concatenation;
    /// multiplicities multiply.
    pub fn product(&self, other: &Bag) -> Bag {
        // Cap the pre-allocation: the true result size is the full cross
        // product, which can be enormous; let the map grow instead of
        // reserving gigabytes up front.
        let cap = self
            .distinct_len()
            .saturating_mul(other.distinct_len())
            .min(1 << 20);
        let mut out = Bag::with_capacity(cap);
        for (a, m) in self.iter() {
            for (b, n) in other.iter() {
                // saturating: astronomically large multiplicities clamp
                // rather than wrapping (and panicking in debug builds)
                out.insert_n(a.concat(b), m.saturating_mul(n));
            }
        }
        out
    }

    /// Selection `σ_p`: keep tuples satisfying the predicate, multiplicities
    /// unchanged.
    pub fn select<F: Fn(&Tuple) -> bool>(&self, pred: F) -> Bag {
        let mut out = Bag::new();
        for (t, m) in self.iter() {
            if pred(t) {
                out.insert_n(t.clone(), m);
            }
        }
        out
    }

    /// Projection `Π` onto positions — duplicates are *preserved* (bag
    /// semantics), so distinct inputs may merge and multiplicities add.
    pub fn project(&self, indices: &[usize]) -> Bag {
        let mut out = Bag::new();
        for (t, m) in self.iter() {
            out.insert_n(t.project(indices), m);
        }
        out
    }

    /// Duplicate elimination `ε`: every present tuple gets multiplicity 1.
    pub fn dedup(&self) -> Bag {
        let mut out = Bag::with_capacity(self.distinct_len());
        for (t, _) in self.iter() {
            out.insert_n(t.clone(), 1);
        }
        out
    }

    /// SQL `EXCEPT`-style difference: remove *all* occurrences of any tuple
    /// present in `other`, regardless of multiplicity (Section 2.1 contrasts
    /// this with monus).
    pub fn except_all_occurrences(&self, other: &Bag) -> Bag {
        self.select(|t| !other.contains(t))
    }

    /// Subbag test `self ⊑ other`: every multiplicity in `self` is ≤ the
    /// corresponding multiplicity in `other`.
    pub fn is_subbag_of(&self, other: &Bag) -> bool {
        self.iter().all(|(t, m)| m <= other.multiplicity(t))
    }

    /// Apply a delta: `self := (self ∸ del) ⊎ ins`, in place.
    pub fn apply_delta(&mut self, del: &Bag, ins: &Bag) {
        self.monus_assign(del);
        self.union_assign(ins);
    }

    // ---- per-shard parallel paths ----------------------------------------

    /// Apply a delta with the per-shard work fanned across `pool` at up to
    /// `width` threads: `self := (self ∸ del) ⊎ ins`.
    ///
    /// Because all sharded bags share one routing function, shard `k` of
    /// `del`/`ins` touches only shard `k` of `self` — the apply factors
    /// into [`Self::SHARDS`] independent jobs. Falls back to the sequential
    /// [`Self::apply_delta`] when `width <= 1` or when any operand is still
    /// flat (small bags are not worth the fan-out).
    pub fn apply_delta_parallel(&mut self, del: &Bag, ins: &Bag, pool: &WorkerPool, width: usize) {
        if width > 1
            && !self.is_sharded()
            && del.distinct_len() + ins.distinct_len() >= Self::PROMOTE_DISTINCT
        {
            self.ensure_sharded();
        }
        if width <= 1 || !(self.is_sharded() && del.is_sharded() && ins.is_sharded()) {
            self.apply_delta(del, ins);
            return;
        }
        let (Repr::Sharded(mine), Repr::Sharded(d), Repr::Sharded(i)) =
            (&mut self.repr, &del.repr, &ins.repr)
        else {
            unreachable!("all operands checked sharded above")
        };
        // Profiling measures inside the shard closures (which run on pool
        // threads) and reports through the *return values*, so the profile
        // lands in the submitting thread's capture buffer — pool-worker
        // thread-locals never see it.
        let profiled = profile::profiling_on();
        let slots: Vec<Mutex<&mut Shard>> = mine.iter_mut().map(Mutex::new).collect();
        let deltas: Vec<(u64, u64, u64, u64)> = pool.run(Self::SHARDS, width, |k| {
            let start = profiled.then(Instant::now);
            let mut shard = slots[k].lock().unwrap();
            let (mut removed, mut added) = (0u64, 0u64);
            let mut tuples = 0u64;
            for (t, &m) in d[k].iter() {
                tuples += 1;
                if let Some(cur) = shard.get_mut(t) {
                    let r = (*cur).min(m);
                    *cur -= r;
                    if *cur == 0 {
                        shard.remove(t);
                    }
                    removed += r;
                }
            }
            for (t, &m) in i[k].iter() {
                tuples += 1;
                *shard.entry(t.clone()).or_insert(0) += m;
                added += m;
            }
            let nanos = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
            (removed, added, tuples, nanos)
        });
        drop(slots);
        let mut prof = profiled.then(|| ShardProfile {
            label: "apply_delta",
            tuples: Vec::with_capacity(Self::SHARDS),
            nanos: Vec::with_capacity(Self::SHARDS),
        });
        for (removed, added, tuples, nanos) in deltas {
            self.len = self.len - removed + added;
            if let Some(p) = prof.as_mut() {
                p.tuples.push(tuples);
                p.nanos.push(nanos);
            }
        }
        if let Some(p) = prof {
            profile::record_shards(p);
        }
    }
}

/// Fold a later delta `(d2, i2)` into an accumulated one `(d1, i1)` with the
/// per-shard work fanned across `pool` — the paper's Lemma 3 compose,
///
/// ```text
/// d1 := d1 ⊎ (d2 ∸ i1)        i1 := (i1 ∸ d2) ⊎ i2
/// ```
///
/// evaluated pointwise per tuple, so it partitions perfectly across aligned
/// shards. Semantically identical to `dvm_delta::compose::compose_into`
/// (property-tested against it); lives here because only the storage layer
/// knows the shard layout. Falls back to a sequential pass when `width <= 1`
/// or the combined size is below the promotion threshold.
pub fn compose_delta_parallel(
    d1: &mut Bag,
    i1: &mut Bag,
    d2: &Bag,
    i2: &Bag,
    pool: &WorkerPool,
    width: usize,
) {
    let worth_it = width > 1
        && d1.distinct_len() + i1.distinct_len() + d2.distinct_len() + i2.distinct_len()
            >= Bag::PROMOTE_DISTINCT;
    if !(worth_it && d2.is_sharded() && i2.is_sharded()) {
        // Sequential fallback: the same equations via whole-bag primitives.
        let carried_deletes = d2.monus(i1);
        i1.monus_assign(d2);
        i1.union_assign(i2);
        d1.union_assign(&carried_deletes);
        return;
    }
    d1.ensure_sharded();
    i1.ensure_sharded();
    let (Repr::Sharded(d1s), Repr::Sharded(i1s), Repr::Sharded(d2s), Repr::Sharded(i2s)) =
        (&mut d1.repr, &mut i1.repr, &d2.repr, &i2.repr)
    else {
        unreachable!("all operands sharded above")
    };
    let profiled = profile::profiling_on();
    let slots: Vec<Mutex<(&mut Shard, &mut Shard)>> = d1s
        .iter_mut()
        .zip(i1s.iter_mut())
        .map(Mutex::new)
        .collect();
    let deltas: Vec<(u64, u64, u64, u64, u64)> = pool.run(Bag::SHARDS, width, |k| {
        let start = profiled.then(Instant::now);
        let mut pair = slots[k].lock().unwrap();
        let (d1k, i1k) = &mut *pair;
        let (mut d1_added, mut i1_removed, mut i1_added) = (0u64, 0u64, 0u64);
        let mut tuples = 0u64;
        // One pass over d2[k]: compute the carried deletes (d2 ∸ old i1)
        // and apply the monus to i1 tuple by tuple.
        for (t, &m) in d2s[k].iter() {
            tuples += 1;
            let have = i1k.get(t).copied().unwrap_or(0);
            let removed = have.min(m);
            if removed > 0 {
                if removed == have {
                    i1k.remove(t);
                } else {
                    *i1k.get_mut(t).unwrap() -= removed;
                }
                i1_removed += removed;
            }
            let carry = m - removed;
            if carry > 0 {
                *d1k.entry(t.clone()).or_insert(0) += carry;
                d1_added += carry;
            }
        }
        for (t, &m) in i2s[k].iter() {
            tuples += 1;
            *i1k.entry(t.clone()).or_insert(0) += m;
            i1_added += m;
        }
        let nanos = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        (d1_added, i1_removed, i1_added, tuples, nanos)
    });
    drop(slots);
    let mut prof = profiled.then(|| ShardProfile {
        label: "compose_delta",
        tuples: Vec::with_capacity(Bag::SHARDS),
        nanos: Vec::with_capacity(Bag::SHARDS),
    });
    for (d1_added, i1_removed, i1_added, tuples, nanos) in deltas {
        d1.len += d1_added;
        i1.len = i1.len - i1_removed + i1_added;
        if let Some(p) = prof.as_mut() {
            p.tuples.push(tuples);
            p.nanos.push(nanos);
        }
    }
    if let Some(p) = prof {
        profile::record_shards(p);
    }
}

impl PartialEq for Bag {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.distinct_len() == other.distinct_len()
            && self.iter().all(|(t, m)| other.multiplicity(t) == m)
    }
}

impl Eq for Bag {}

impl FromIterator<Tuple> for Bag {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Bag::from_tuples(iter)
    }
}

/// Owning iterator over a [`Bag`]'s `(tuple, multiplicity)` pairs — drains
/// the flat map, or each shard in turn.
pub struct IntoIter {
    shards: std::vec::IntoIter<Shard>,
    current: std::collections::hash_map::IntoIter<Tuple, u64>,
}

impl Iterator for IntoIter {
    type Item = (Tuple, u64);

    fn next(&mut self) -> Option<(Tuple, u64)> {
        loop {
            if let Some(pair) = self.current.next() {
                return Some(pair);
            }
            self.current = self.shards.next()?.into_iter();
        }
    }
}

/// Consume the bag, yielding owned `(tuple, multiplicity)` pairs in hash
/// order. Lets the streaming executor turn a materialized pipeline-breaker
/// result back into a stream without cloning tuples.
impl IntoIterator for Bag {
    type Item = (Tuple, u64);
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        let shards: Vec<Shard> = match self.repr {
            Repr::Flat(m) => vec![m],
            Repr::Sharded(s) => s.into_vec(),
        };
        let mut shards = shards.into_iter();
        let current = shards.next().unwrap_or_default().into_iter();
        IntoIter { shards, current }
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (t, m)) in self.sorted_entries().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *m == 1 {
                write!(f, "{t}")?;
            } else {
                write!(f, "{t}×{m}")?;
            }
        }
        write!(f, "}}")
    }
}

/// Convenience constructor: `bag![tuple![1], tuple![2]; tuple![1] => 3]`.
/// Plain items get multiplicity 1; `expr => n` items get multiplicity `n`.
#[macro_export]
macro_rules! bag {
    () => { $crate::bag::Bag::new() };
    ($($t:expr),+ $(,)?) => {{
        let mut b = $crate::bag::Bag::new();
        $(b.insert($t);)+
        b
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn b(items: &[(i64, u64)]) -> Bag {
        let mut bag = Bag::new();
        for &(v, m) in items {
            bag.insert_n(tuple![v], m);
        }
        bag
    }

    #[test]
    fn insert_remove_multiplicity() {
        let mut bag = Bag::new();
        bag.insert_n(tuple![1], 3);
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.distinct_len(), 1);
        assert_eq!(bag.multiplicity(&tuple![1]), 3);
        assert_eq!(bag.remove_n(&tuple![1], 2), 2);
        assert_eq!(bag.multiplicity(&tuple![1]), 1);
        assert_eq!(bag.remove_n(&tuple![1], 5), 1, "remove saturates");
        assert!(!bag.contains(&tuple![1]));
        assert!(bag.is_empty());
    }

    #[test]
    fn remove_absent_is_zero() {
        let mut bag = b(&[(1, 1)]);
        assert_eq!(bag.remove_n(&tuple![9], 4), 0);
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn insert_zero_is_noop() {
        let mut bag = Bag::new();
        bag.insert_n(tuple![1], 0);
        assert!(bag.is_empty());
        assert_eq!(bag.distinct_len(), 0, "no phantom zero-multiplicity entry");
    }

    #[test]
    fn union_adds_multiplicities() {
        let x = b(&[(1, 2), (2, 1)]);
        let y = b(&[(1, 1), (3, 4)]);
        let u = x.union(&y);
        assert_eq!(u, b(&[(1, 3), (2, 1), (3, 4)]));
        assert_eq!(u.len(), 8);
    }

    #[test]
    fn monus_saturates() {
        let x = b(&[(1, 2), (2, 1)]);
        let y = b(&[(1, 5), (3, 1)]);
        assert_eq!(x.monus(&y), b(&[(2, 1)]));
        // monus is not symmetric
        assert_eq!(y.monus(&x), b(&[(1, 3), (3, 1)]));
    }

    #[test]
    fn monus_of_small_by_large_walks_small_side() {
        // `other` larger than `self` takes the lookup path; it must agree
        // with the clone-and-subtract path, including against a sharded
        // `other`.
        let small = b(&[(1, 3), (2, 1), (9, 2)]);
        let mut large = Bag::new();
        for v in 0..(Bag::PROMOTE_DISTINCT as i64 + 10) {
            large.insert_n(tuple![v], 1 + (v as u64 % 2));
        }
        assert!(large.is_sharded());
        let expect = {
            let mut out = small.clone();
            out.monus_assign(&large);
            out
        };
        assert_eq!(small.monus(&large), expect);
        assert_eq!(small.monus(&large), b(&[(1, 1)]));
        assert_eq!(large.monus(&small).len(), large.len() - 5);
    }

    #[test]
    fn min_and_max() {
        let x = b(&[(1, 2), (2, 3)]);
        let y = b(&[(1, 5), (2, 1), (3, 7)]);
        assert_eq!(x.min_intersect(&y), b(&[(1, 2), (2, 1)]));
        assert_eq!(x.max_union(&y), b(&[(1, 5), (2, 3), (3, 7)]));
        // symmetry
        assert_eq!(x.min_intersect(&y), y.min_intersect(&x));
        assert_eq!(x.max_union(&y), y.max_union(&x));
    }

    #[test]
    fn min_max_definable_via_monus_and_union() {
        // Q1 min Q2 = Q1 ∸ (Q1 ∸ Q2);  Q1 max Q2 = Q1 ⊎ (Q2 ∸ Q1)
        let x = b(&[(1, 2), (2, 3), (4, 1)]);
        let y = b(&[(1, 5), (2, 1), (3, 7)]);
        assert_eq!(x.min_intersect(&y), x.monus(&x.monus(&y)));
        assert_eq!(x.max_union(&y), x.union(&y.monus(&x)));
    }

    #[test]
    fn product_multiplies() {
        let x = b(&[(1, 2)]);
        let mut y = Bag::new();
        y.insert_n(tuple!["a"], 3);
        let p = x.product(&y);
        assert_eq!(p.multiplicity(&tuple![1, "a"]), 6);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn product_with_empty_is_empty() {
        let x = b(&[(1, 2)]);
        assert!(x.product(&Bag::new()).is_empty());
        assert!(Bag::new().product(&x).is_empty());
    }

    #[test]
    fn select_keeps_multiplicity() {
        let x = b(&[(1, 2), (2, 3)]);
        let s = x.select(|t| t[0] == crate::value::Value::Int(2));
        assert_eq!(s, b(&[(2, 3)]));
    }

    #[test]
    fn project_merges_and_adds() {
        let mut x = Bag::new();
        x.insert_n(tuple![1, "a"], 2);
        x.insert_n(tuple![1, "b"], 3);
        let p = x.project(&[0]);
        assert_eq!(p.multiplicity(&tuple![1]), 5);
    }

    #[test]
    fn dedup_sets_multiplicity_one() {
        let x = b(&[(1, 5), (2, 1)]);
        let d = x.dedup();
        assert_eq!(d, b(&[(1, 1), (2, 1)]));
    }

    #[test]
    fn except_all_occurrences_ignores_multiplicity() {
        let x = b(&[(1, 5), (2, 2)]);
        let y = b(&[(1, 1)]);
        assert_eq!(x.except_all_occurrences(&y), b(&[(2, 2)]));
    }

    #[test]
    fn subbag() {
        let x = b(&[(1, 2)]);
        let y = b(&[(1, 3), (2, 1)]);
        assert!(x.is_subbag_of(&y));
        assert!(!y.is_subbag_of(&x));
        assert!(Bag::new().is_subbag_of(&x));
        assert!(x.is_subbag_of(&x));
    }

    #[test]
    fn apply_delta_is_monus_then_union() {
        let mut x = b(&[(1, 2), (2, 1)]);
        let del = b(&[(1, 1)]);
        let ins = b(&[(3, 2)]);
        x.apply_delta(&del, &ins);
        assert_eq!(x, b(&[(1, 1), (2, 1), (3, 2)]));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut x = Bag::new();
        x.insert(tuple![1]);
        x.insert(tuple![2]);
        let mut y = Bag::new();
        y.insert(tuple![2]);
        y.insert(tuple![1]);
        assert_eq!(x, y);
    }

    #[test]
    fn len_cache_consistent_after_mixed_ops() {
        let mut x = Bag::new();
        for i in 0i64..100 {
            x.insert_n(tuple![i % 7], (i % 3) as u64 + 1);
        }
        for i in 0i64..50 {
            x.remove_n(&tuple![i % 7], (i % 4) as u64);
        }
        let recomputed: u64 = x.iter().map(|(_, m)| m).sum();
        assert_eq!(x.len(), recomputed);
    }

    #[test]
    fn iter_expanded_repeats() {
        let x = b(&[(1, 3)]);
        assert_eq!(x.iter_expanded().count(), 3);
    }

    #[test]
    fn display_sorted() {
        let x = b(&[(2, 1), (1, 3)]);
        assert_eq!(x.to_string(), "{[1]×3, [2]}");
    }

    #[test]
    fn singleton_and_macro() {
        assert_eq!(Bag::singleton(tuple![1]).len(), 1);
        let m = crate::bag![tuple![1], tuple![1], tuple![2]];
        assert_eq!(m.multiplicity(&tuple![1]), 2);
    }

    // ---- sharded representation ------------------------------------------

    fn big(n: i64) -> Bag {
        let mut bag = Bag::new();
        for i in 0..n {
            bag.insert_n(tuple![i, i % 11], (i % 3) as u64 + 1);
        }
        bag
    }

    #[test]
    fn promotes_at_threshold_and_preserves_contents() {
        let n = Bag::PROMOTE_DISTINCT as i64 + 100;
        let bag = big(n);
        assert!(bag.is_sharded());
        assert_eq!(bag.distinct_len(), n as usize);
        for i in [0, 1, n / 2, n - 1] {
            assert_eq!(bag.multiplicity(&tuple![i, i % 11]), (i % 3) as u64 + 1);
        }
        let recomputed: u64 = bag.iter().map(|(_, m)| m).sum();
        assert_eq!(bag.len(), recomputed);
    }

    #[test]
    fn sharded_equals_flat() {
        let mut flat = b(&[(1, 2), (2, 3), (3, 1)]);
        let mut sharded = flat.clone();
        sharded.ensure_sharded();
        assert!(sharded.is_sharded());
        assert_eq!(flat, sharded);
        assert_eq!(sharded, flat);
        // Mixed-representation ops agree with flat-flat ops.
        let other = b(&[(2, 1), (4, 4)]);
        assert_eq!(flat.union(&other), sharded.union(&other));
        assert_eq!(flat.monus(&other), sharded.monus(&other));
        assert_eq!(flat.min_intersect(&other), sharded.min_intersect(&other));
        assert_eq!(flat.max_union(&other), sharded.max_union(&other));
        flat.apply_delta(&other, &other);
        sharded.apply_delta(&other, &other);
        assert_eq!(flat, sharded);
    }

    #[test]
    fn shard_routing_is_stable_across_bags() {
        let mut a = big(20_000);
        let mut bag_b = Bag::new();
        bag_b.ensure_sharded();
        for (t, m) in a.iter() {
            bag_b.insert_n(t.clone(), m);
        }
        assert_eq!(a, bag_b);
        a.clear();
        assert!(!a.is_sharded(), "clear resets to flat");
        assert!(a.is_empty());
    }

    #[test]
    fn into_iter_drains_all_shards() {
        let n = Bag::PROMOTE_DISTINCT as i64 + 50;
        let bag = big(n);
        let total: u64 = bag.clone().into_iter().map(|(_, m)| m).sum();
        assert_eq!(total, bag.len());
        let distinct = bag.clone().into_iter().count();
        assert_eq!(distinct, bag.distinct_len());
    }

    #[test]
    fn apply_delta_parallel_matches_sequential() {
        let pool = dvm_testkit::WorkerPool::new();
        let mut mv = big(20_000);
        let mut expected = mv.clone();
        let mut del = Bag::new();
        let mut ins = Bag::new();
        for i in 0..12_000i64 {
            del.insert_n(tuple![i * 2, (i * 2) % 11], 1);
            ins.insert_n(tuple![i + 30_000, (i + 30_000) % 11], 2);
        }
        del.ensure_sharded();
        ins.ensure_sharded();
        expected.apply_delta(&del, &ins);
        mv.apply_delta_parallel(&del, &ins, &pool, 4);
        assert_eq!(mv, expected);
        assert_eq!(mv.len(), expected.len());
    }

    #[test]
    fn compose_delta_parallel_matches_equations() {
        let pool = dvm_testkit::WorkerPool::new();
        let mk = |lo: i64, n: i64, m: u64| {
            let mut bag = Bag::new();
            for i in lo..lo + n {
                bag.insert_n(tuple![i, i % 11], m);
            }
            bag
        };
        let mut d1 = mk(0, 9000, 1);
        let mut i1 = mk(4000, 9000, 2);
        let d2 = mk(6000, 9000, 1);
        let i2 = mk(10_000, 9000, 3);

        // Reference: Lemma 3 via whole-bag primitives.
        let mut d1_ref = d1.clone();
        let mut i1_ref = i1.clone();
        let carried = d2.monus(&i1_ref);
        i1_ref.monus_assign(&d2);
        i1_ref.union_assign(&i2);
        d1_ref.union_assign(&carried);

        compose_delta_parallel(&mut d1, &mut i1, &d2, &i2, &pool, 4);
        assert_eq!(d1, d1_ref);
        assert_eq!(i1, i1_ref);
        assert_eq!(d1.len(), d1_ref.len());
        assert_eq!(i1.len(), i1_ref.len());
    }

    #[test]
    fn parallel_paths_fall_back_when_small_or_serial() {
        let pool = dvm_testkit::WorkerPool::new();
        let mut x = b(&[(1, 2), (2, 1)]);
        let del = b(&[(1, 1)]);
        let ins = b(&[(3, 2)]);
        x.apply_delta_parallel(&del, &ins, &pool, 4);
        assert_eq!(x, b(&[(1, 1), (2, 1), (3, 2)]));

        let mut d1 = b(&[(1, 1)]);
        let mut i1 = b(&[(2, 2)]);
        let d2 = b(&[(2, 1)]);
        let i2 = b(&[(3, 1)]);
        compose_delta_parallel(&mut d1, &mut i1, &d2, &i2, &pool, 4);
        assert_eq!(d1, b(&[(1, 1)]));
        assert_eq!(i1, b(&[(2, 1), (3, 1)]));
    }
}
