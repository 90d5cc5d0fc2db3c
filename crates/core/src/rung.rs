//! Rung bookkeeping shared by ASHA and the analysis tooling.
//!
//! A *rung* is the set of configurations that have been trained for a given
//! resource level within a bracket; a [`RungLadder`] is the full stack of
//! rungs for one bracket (Figure 1 of the paper).
//!
//! The promotion query (`top_k(rung, |rung|/eta)` minus already-promoted,
//! line 14–15 of Algorithm 2) is the hot path of ASHA — it runs once per
//! `suggest`, and large-scale runs issue hundreds of thousands of jobs. The
//! implementation keeps an incremental promotion-candidate index per rung so
//! the common case is O(1):
//!
//! * a *candidate cache* memoizes the full answer of the last promotability
//!   check, keyed on `(len, promoted, eta)`. Rungs only ever mutate by
//!   appending a record (`len` grows) or promoting a trial (`promoted`
//!   grows), so that key uniquely identifies the rung's decision-relevant
//!   state and the cache never needs explicit invalidation — both "yes,
//!   this trial" and "no" answers are served without touching any ordered
//!   structure until the rung actually changes;
//! * the unpromoted population lives in a lazy-deletion min-heap ordered by
//!   `(loss, trial)`: `record` is an O(1) amortized push, and promotions
//!   leave stale entries behind that are popped (each at most once) the
//!   next time the heap minimum is consulted;
//! * the promoted population stays in an ordered set so the exact rank
//!   check — is the best unpromoted trial within the top `k`? — remains
//!   available: if `promoted < k` the best unpromoted trial is *always*
//!   within the top `k` (every trial better than it is promoted, so its
//!   rank is at most `promoted`); otherwise an early-exit rank count runs,
//!   bounded by `promoted - k + 1` steps — a handful in practice because
//!   the rank gate keeps the promoted population tracking `k`.
//!
//! None of these indexes is serialized: [`crate::state::RungState`] stores
//! only the arrival-ordered records and the promoted set, and
//! `replay_into` rebuilds the indexes by replaying them — which is also
//! what makes old snapshots (written before the indexes existed) load
//! unchanged.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap};

use crate::budget::Geometry;
use crate::fx::FxHashMap;
use crate::scheduler::TrialId;

/// Which direction [`RungLadder::find_promotable`] visits rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanOrder {
    /// Highest promotable rung first — Algorithm 2's prescription, which
    /// pushes promising configurations toward `R` as fast as possible.
    #[default]
    TopDown,
    /// Lowest rung first — keeps lower rungs flowing at the cost of
    /// latency to the top (the ablation alternative).
    BottomUp,
}

/// When a rung lets its best unpromoted trial move up.
///
/// [`PromotionRule::Eager`] is Algorithm 2's rule: promote whenever the best
/// unpromoted trial ranks in the top `1/eta` of the rung — even after the
/// rung has already promoted `floor(len/eta)` trials, if a strictly better
/// configuration arrives late it is promoted too, so a rung can over-promote
/// by up to `O(sqrt(len))` under adversarial arrival orders.
///
/// [`PromotionRule::Delayed`] is Hyper-Tune's D-ASHA gate: additionally
/// require `promoted < floor(len/eta)`, so promotions out of a rung never
/// exceed the exact `1/eta` fraction. Promotion of a strong late arrival is
/// *delayed* until the rung has grown enough to afford another slot, which
/// trades promotion latency for never spending upper-rung budget beyond the
/// quota that synchronous SHA would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PromotionRule {
    /// Promote whenever the rank gate alone passes (Algorithm 2).
    #[default]
    Eager,
    /// Also require the promoted count to stay below `floor(len/eta)`
    /// (Hyper-Tune's delayed promotion).
    Delayed,
}

/// Monotone map from (non-NaN) `f64` to `u64` preserving order.
fn loss_key(loss: f64) -> u64 {
    let bits = loss.to_bits();
    if loss >= 0.0 {
        bits ^ 0x8000_0000_0000_0000
    } else {
        !bits
    }
}

/// Inverse of [`loss_key`].
fn key_loss(key: u64) -> f64 {
    if key >= 0x8000_0000_0000_0000 {
        f64::from_bits(key ^ 0x8000_0000_0000_0000)
    } else {
        f64::from_bits(!key)
    }
}

/// Memoized answer of the last promotability check. The `(len, promoted,
/// eta_bits)` triple fully determines the answer because rungs mutate only
/// by appending records or promoting trials, each of which changes the
/// triple.
#[derive(Debug, Clone, Copy)]
struct PromoCache {
    len: usize,
    promoted: usize,
    eta_bits: u64,
    result: Option<(u64, TrialId)>,
}

/// One rung: the trials evaluated at this resource level, their losses, and
/// which of them have already been promoted.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    /// `(trial, loss)` in arrival order, for traces and analysis.
    records: Vec<(TrialId, f64)>,
    /// `(loss key, promoted)` per member; doubles as the membership set.
    /// Keeping the promoted flag here makes the lazy-heap cleanup a single
    /// hash probe instead of an ordered-set seek.
    loss_of: FxHashMap<TrialId, (u64, bool)>,
    /// Lazy-deletion min-heap of `(loss_key, trial)` candidates: promoted
    /// entries are left in place and skipped (popped) at the next peek.
    /// `RefCell` because the cleanup happens inside `&self` queries.
    unpromoted: RefCell<BinaryHeap<Reverse<(u64, TrialId)>>>,
    /// Promoted trials ordered by `(loss_key, trial)`, for the exact rank
    /// check.
    promoted_sorted: BTreeSet<(u64, TrialId)>,
    /// The worst and second-worst promoted entries (`promoted_top[0]` is the
    /// worst). Promotions only ever insert, so these are maintained with two
    /// compares and answer the rank check without touching the ordered set
    /// whenever `promoted - k <= 1` — the common case by far, since the rank
    /// gate keeps the promoted population tracking `k`.
    promoted_top: [(u64, TrialId); 2],
    /// Candidate cache: the last promotability answer, success or failure.
    cache: Cell<Option<PromoCache>>,
}

impl Rung {
    /// Create an empty rung.
    pub fn new() -> Self {
        Rung::default()
    }

    /// Record a trial's loss at this rung. Re-reports of the same trial are
    /// ignored (first result wins), which makes executors free to retry jobs.
    pub fn record(&mut self, trial: TrialId, loss: f64) {
        // Treat NaN losses as worst-possible rather than corrupting sorts.
        let loss = if loss.is_nan() { f64::INFINITY } else { loss };
        let key = loss_key(loss);
        if let Entry::Vacant(slot) = self.loss_of.entry(trial) {
            slot.insert((key, false));
            self.records.push((trial, loss));
            self.unpromoted.get_mut().push(Reverse((key, trial)));
        }
    }

    /// Number of trials recorded at this rung.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no trial has reached this rung yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the given trial has a recorded result here.
    pub fn contains(&self, trial: TrialId) -> bool {
        self.loss_of.contains_key(&trial)
    }

    /// Whether the given trial has already been promoted out of this rung.
    pub fn is_promoted(&self, trial: TrialId) -> bool {
        self.loss_of.get(&trial).is_some_and(|&(_, p)| p)
    }

    /// Number of trials promoted out of this rung so far.
    pub fn promoted_count(&self) -> usize {
        self.promoted_sorted.len()
    }

    /// All `(trial, loss)` records in arrival order.
    pub fn records(&self) -> &[(TrialId, f64)] {
        &self.records
    }

    /// The best (lowest `(loss, trial)`) not-yet-promoted entry, discarding
    /// stale heap entries along the way. Each promoted trial is discarded at
    /// most once over the rung's lifetime, so this is O(1) amortized.
    fn best_unpromoted(&self) -> Option<(u64, TrialId)> {
        let mut heap = self.unpromoted.borrow_mut();
        while let Some(&Reverse(entry)) = heap.peek() {
            if self.is_promoted(entry.1) {
                heap.pop();
            } else {
                return Some(entry);
            }
        }
        None
    }

    /// The `top_k` operator of Algorithms 1–2: the `k` best (lowest-loss)
    /// trials at this rung, best first. Ties break by trial id, which keeps
    /// promotion deterministic. This is an analysis/test path and pays an
    /// O(n log n) sort of the unpromoted population; the scheduler's hot
    /// path never calls it.
    pub fn top_k(&self, k: usize) -> Vec<(TrialId, f64)> {
        let heap = self.unpromoted.borrow();
        let mut unpromoted: Vec<(u64, TrialId)> = heap
            .iter()
            .map(|&Reverse(entry)| entry)
            .filter(|&(_, trial)| !self.is_promoted(trial))
            .collect();
        unpromoted.sort_unstable();
        // Merge the two ordered populations, taking the first k.
        let mut a = unpromoted.iter().peekable();
        let mut b = self.promoted_sorted.iter().peekable();
        let mut out = Vec::with_capacity(k.min(self.records.len()));
        while out.len() < k {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x <= y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let &(key, trial) = if take_a {
                a.next().expect("peeked")
            } else {
                b.next().expect("peeked")
            };
            out.push((trial, key_loss(key)));
        }
        out
    }

    /// The best not-yet-promoted trial among the top `1/eta` fraction of this
    /// rung (line 14–17 of Algorithm 2) that `rule` lets move up, if any.
    /// O(1) when the rung is unchanged since the last call (candidate cache
    /// hit, either answer).
    ///
    /// The delayed gate — `promoted < floor(len/eta)` — depends only on the
    /// `(len, promoted, eta)` triple the candidate cache is keyed on, so it
    /// runs as pure arithmetic *before* the cached check and adds nothing to
    /// the indexes: whenever the gate passes, `promoted < k` means the eager
    /// answer is already exactly the delayed answer.
    pub fn promotable(&self, eta: f64, rule: PromotionRule) -> Option<(TrialId, f64)> {
        let len = self.records.len();
        let p = self.promoted_sorted.len();
        if rule == PromotionRule::Delayed && p >= (len as f64 / eta).floor() as usize {
            return None;
        }
        let eta_bits = eta.to_bits();
        // The cache is consulted before `k` is even computed: the hit path —
        // several times per `suggest`, since the ladder scan revisits every
        // rung — is three integer compares and a `Cell` copy.
        if let Some(cached) = self.cache.get() {
            if (cached.len, cached.promoted, cached.eta_bits) == (len, p, eta_bits) {
                return cached.result.map(|(key, trial)| (trial, key_loss(key)));
            }
        }
        let k = (len as f64 / eta).floor() as usize;
        let result = if k == 0 {
            None
        } else {
            self.compute_promotable(k, p)
        };
        self.cache.set(Some(PromoCache {
            len,
            promoted: p,
            eta_bits,
            result,
        }));
        result.map(|(key, trial)| (trial, key_loss(key)))
    }

    /// The uncached promotability check (runs once per rung mutation).
    fn compute_promotable(&self, k: usize, p: usize) -> Option<(u64, TrialId)> {
        let (best_key, best_trial) = self.best_unpromoted()?;
        // Poisoned or diverged trials (infinite loss, NaN recorded as such)
        // are never promoted, even when the rung is small enough that they
        // would rank in the top `1/eta`: promoting them would spend higher
        // rungs on configurations known to be broken.
        if !key_loss(best_key).is_finite() {
            return None;
        }
        // Fast path: every trial better than the best unpromoted one is
        // promoted, so its rank is at most p.
        if p < k {
            return Some((best_key, best_trial));
        }
        // Exact rank check: the best unpromoted trial is in the top k iff
        // fewer than k promoted trials are strictly better, i.e. iff more
        // than `p - k` promoted trials are at or beyond it.
        let threshold = p - k;
        let candidate = (best_key, best_trial);
        // For `threshold <= 1` the incrementally maintained worst and
        // second-worst promoted entries decide this with one compare (the
        // (threshold+1)-th worst promoted entry must sit at or beyond the
        // candidate); `p` tracks `k` closely because promotions are gated on
        // this very check, so the ordered-set walk below almost never runs.
        if threshold <= 1 {
            return if self.promoted_top[threshold] >= candidate {
                Some(candidate)
            } else {
                None
            };
        }
        // General case: early-exit count, O(min(w, p - k + 1)) where `w` is
        // the number of promoted entries at or beyond the candidate.
        let mut count = 0usize;
        for _ in self.promoted_sorted.range(candidate..) {
            count += 1;
            if count > threshold {
                return Some(candidate);
            }
        }
        None
    }

    /// Mark a trial as promoted out of this rung. Unknown trials are
    /// ignored. The stale heap entry is *not* removed here (lazy deletion);
    /// the candidate cache self-invalidates because `promoted_count` grew.
    pub fn mark_promoted(&mut self, trial: TrialId) {
        if let Some(slot) = self.loss_of.get_mut(&trial) {
            slot.1 = true;
            let entry = (slot.0, trial);
            if self.promoted_sorted.insert(entry) {
                if entry > self.promoted_top[0] {
                    self.promoted_top[1] = self.promoted_top[0];
                    self.promoted_top[0] = entry;
                } else if entry > self.promoted_top[1] {
                    self.promoted_top[1] = entry;
                }
            }
        }
    }

    /// Best (lowest) loss at this rung, if any trial has completed.
    pub fn best(&self) -> Option<(TrialId, f64)> {
        let a = self.best_unpromoted();
        let b = self.promoted_sorted.first().copied();
        let (key, trial) = match (a, b) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => return None,
        };
        Some((trial, key_loss(key)))
    }
}

/// The stack of rungs of one bracket, together with the [`Geometry`] that
/// fixes the resource level of each rung.
#[derive(Debug, Clone)]
pub struct RungLadder {
    rungs: Vec<Rung>,
    geometry: Geometry,
}

impl RungLadder {
    /// An empty ladder over `geometry`: every rung `0..=K` up front in the
    /// finite horizon (Algorithm 2 line 13 scans `K-1..=0`), one rung that
    /// grows on demand in the infinite horizon.
    pub fn new(geometry: Geometry) -> Self {
        RungLadder {
            rungs: vec![Rung::new(); geometry.max_rung().map_or(1, |max| max + 1)],
            geometry,
        }
    }

    /// The reduction factor `eta`.
    pub fn eta(&self) -> f64 {
        self.geometry.eta()
    }

    /// The early-stopping rate `s`.
    pub fn stop_rate(&self) -> usize {
        self.geometry.stop_rate()
    }

    /// Index of the highest rung, if the horizon is finite.
    pub fn max_rung(&self) -> Option<usize> {
        self.geometry.max_rung()
    }

    /// Cumulative resource allocated to a trial at rung `k`:
    /// `min(r * eta^(s + k), R)`.
    pub fn resource(&self, rung: usize) -> f64 {
        self.geometry.resource(rung)
    }

    /// The rungs, bottom first. Infinite-horizon ladders grow on demand.
    pub fn rungs(&self) -> &[Rung] {
        &self.rungs
    }

    /// Mutable access to rung `k`, growing the ladder in the infinite
    /// horizon.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the top rung of a finite-horizon ladder.
    pub fn rung_mut(&mut self, k: usize) -> &mut Rung {
        if let Some(max) = self.max_rung() {
            assert!(k <= max, "rung {k} exceeds finite-horizon top rung {max}");
        } else if k >= self.rungs.len() {
            self.rungs.resize_with(k + 1, Rung::new);
        }
        &mut self.rungs[k]
    }

    /// Record an observation at rung `k`.
    pub fn record(&mut self, rung: usize, trial: TrialId, loss: f64) {
        self.rung_mut(rung).record(trial, loss);
    }

    /// ASHA's promotion scan (Algorithm 2, `get_job`): walk the rungs in
    /// `order`, returning the first `(trial, loss, rung)` whose trial sits in
    /// the top `1/eta` of its rung, has not been promoted, and passes `rule`.
    /// The returned rung is the rung the trial is *in*; the caller promotes
    /// it to `rung + 1`.
    ///
    /// Algorithm 2 prescribes [`ScanOrder::TopDown`] (line 13 iterates
    /// `K-1, ..., 1, 0`) and [`PromotionRule::Eager`];
    /// [`ScanOrder::BottomUp`] is the ablation alternative and
    /// [`PromotionRule::Delayed`] the D-ASHA scan (identical walk, but each
    /// rung's candidate must also fit under the `floor(len/eta)` quota).
    /// With the per-rung candidate caches, an unchanged ladder answers this
    /// scan in a handful of integer compares.
    pub fn find_promotable(
        &self,
        order: ScanOrder,
        rule: PromotionRule,
    ) -> Option<(TrialId, f64, usize)> {
        // Finite horizon: scan K-1 .. 0 (trials at rung K are done).
        // Infinite horizon: every existing rung may promote upward.
        let limit = self.max_rung().unwrap_or(self.rungs.len());
        let eta = self.eta();
        let scan = |k: usize| self.rungs[k].promotable(eta, rule).map(|(t, l)| (t, l, k));
        match order {
            ScanOrder::TopDown => (0..limit).rev().find_map(scan),
            ScanOrder::BottomUp => (0..limit).find_map(scan),
        }
    }

    /// Mark a trial as promoted out of rung `k`.
    pub fn mark_promoted(&mut self, rung: usize, trial: TrialId) {
        self.rung_mut(rung).mark_promoted(trial);
    }

    /// The best loss observed anywhere in the ladder, preferring higher
    /// rungs' intermediate losses as ASHA does for incumbent reporting
    /// (Section 3.3: "ASHA uses intermediate losses to determine the current
    /// best performing configuration").
    pub fn best_loss(&self) -> Option<(TrialId, f64)> {
        self.rungs
            .iter()
            .flat_map(|r| r.best())
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PromotionRule::{Delayed, Eager};

    fn finite(r: f64, max_r: f64, eta: f64, s: usize) -> RungLadder {
        RungLadder::new(Geometry::new(r, Some(max_r), eta, s).unwrap())
    }

    #[test]
    fn loss_key_is_monotone() {
        let values = [-1e9, -1.0, -1e-12, 0.0, 1e-12, 0.5, 1.0, 1e9, f64::INFINITY];
        for w in values.windows(2) {
            assert!(loss_key(w[0]) < loss_key(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn resources_follow_geometric_schedule() {
        // Figure 1 bracket 0: r=1, R=9, eta=3 -> rungs at 1, 3, 9.
        let ladder = finite(1.0, 9.0, 3.0, 0);
        assert_eq!(ladder.max_rung(), Some(2));
        assert_eq!(ladder.resource(0), 1.0);
        assert_eq!(ladder.resource(1), 3.0);
        assert_eq!(ladder.resource(2), 9.0);
        assert_eq!(ladder.eta(), 3.0);
        assert_eq!(ladder.stop_rate(), 0);
    }

    #[test]
    fn stop_rate_shifts_the_base_resource() {
        // Figure 1 bracket 1: rungs at 3, 9. Bracket 2: rung at 9.
        let b1 = finite(1.0, 9.0, 3.0, 1);
        assert_eq!(b1.max_rung(), Some(1));
        assert_eq!(b1.resource(0), 3.0);
        assert_eq!(b1.resource(1), 9.0);
        let b2 = finite(1.0, 9.0, 3.0, 2);
        assert_eq!(b2.max_rung(), Some(0));
        assert_eq!(b2.resource(0), 9.0);
    }

    #[test]
    fn resource_is_capped_at_r_max() {
        // R/r not a power of eta: top rung resource is clamped to R.
        let ladder = finite(1.0, 10.0, 3.0, 0);
        assert_eq!(ladder.max_rung(), Some(2));
        assert_eq!(ladder.resource(2), 9.0);
        assert_eq!(ladder.resource(3), 10.0); // hypothetical rung clamps
    }

    #[test]
    fn promotable_needs_eta_records() {
        let mut rung = Rung::new();
        rung.record(TrialId(0), 0.5);
        rung.record(TrialId(1), 0.3);
        // |rung|/eta = 2/3 -> floor 0 candidates.
        assert_eq!(rung.promotable(3.0, Eager), None);
        rung.record(TrialId(2), 0.8);
        // Now 3/3 = 1 candidate: trial 1 with loss 0.3.
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(1), 0.3)));
        assert!(rung.contains(TrialId(1)));
        assert!(!rung.contains(TrialId(9)));
    }

    #[test]
    fn non_finite_losses_are_never_promotable() {
        let mut rung = Rung::new();
        rung.record(TrialId(0), f64::INFINITY);
        rung.record(TrialId(1), f64::NAN); // recorded as INFINITY
        rung.record(TrialId(2), f64::INFINITY);
        // 3/3 = 1 candidate by count, but every loss is poisoned.
        assert_eq!(rung.promotable(3.0, Eager), None);
        // A finite arrival is promotable as usual; the poisoned ones stay.
        for t in 3..9 {
            rung.record(TrialId(t), 0.5);
        }
        rung.record(TrialId(9), 0.1);
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(9), 0.1)));
        rung.mark_promoted(TrialId(9));
        for t in 3..9 {
            rung.mark_promoted(TrialId(t));
        }
        // Only the non-finite trials remain unpromoted; k = 3 but none pass.
        assert_eq!(rung.promotable(3.0, Eager), None);
    }

    #[test]
    fn promoted_trials_are_skipped() {
        let mut rung = Rung::new();
        for (i, loss) in [0.9, 0.1, 0.2, 0.3, 0.4, 0.5].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        // top 6/3 = 2: trials 1 (0.1) and 2 (0.2).
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(1), 0.1)));
        rung.mark_promoted(TrialId(1));
        assert!(rung.is_promoted(TrialId(1)));
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(2), 0.2)));
        rung.mark_promoted(TrialId(2));
        assert_eq!(rung.promotable(3.0, Eager), None);
        assert_eq!(rung.promoted_count(), 2);
    }

    #[test]
    fn late_better_arrivals_reopen_promotion() {
        // The exact Algorithm 2 corner case: the rung has promoted its k
        // quota, but a strictly better configuration arrives later — it
        // ranks inside the top k, so it must be promotable.
        let mut rung = Rung::new();
        for (i, loss) in [0.5, 0.6, 0.7].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        let (t, _) = rung.promotable(3.0, Eager).unwrap();
        rung.mark_promoted(t); // quota of k=1 used
        assert_eq!(rung.promotable(3.0, Eager), None);
        rung.record(TrialId(10), 0.1); // better than everything promoted
                                       // k is still floor(4/3) = 1 and promoted = 1, but trial 10 ranks 0.
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(10), 0.1)));
    }

    #[test]
    fn delayed_rule_enforces_the_promotion_quota() {
        // Same setup as `late_better_arrivals_reopen_promotion`: eager ASHA
        // promotes the late better arrival immediately, D-ASHA delays it
        // until the rung grows another quota slot.
        let mut rung = Rung::new();
        for (i, loss) in [0.5, 0.6, 0.7].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        let (t, _) = rung.promotable(3.0, Delayed).unwrap();
        assert_eq!(t, TrialId(0));
        rung.mark_promoted(t); // quota of k=1 used
        rung.record(TrialId(10), 0.1); // better than everything promoted
        assert_eq!(
            rung.promotable(3.0, Eager),
            Some((TrialId(10), 0.1)),
            "eager rule promotes the late arrival"
        );
        assert_eq!(
            rung.promotable(3.0, Delayed),
            None,
            "delayed rule holds it back: promoted = k = floor(4/3)"
        );
        // Two more records make k = 2 > promoted = 1: the slot opens.
        rung.record(TrialId(11), 0.9);
        rung.record(TrialId(12), 0.9);
        assert_eq!(rung.promotable(3.0, Delayed), Some((TrialId(10), 0.1)));
    }

    #[test]
    fn delayed_rule_matches_eager_under_quota() {
        let mut rung = Rung::new();
        for (i, loss) in [0.9, 0.1, 0.2, 0.3, 0.4, 0.5].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        // k = 2, promoted = 0: both rules agree.
        assert_eq!(rung.promotable(3.0, Delayed), rung.promotable(3.0, Eager),);
    }

    #[test]
    fn candidate_cache_invalidates_on_change() {
        let mut rung = Rung::new();
        for (i, loss) in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        rung.mark_promoted(TrialId(0));
        rung.mark_promoted(TrialId(1));
        assert_eq!(rung.promotable(3.0, Eager), None);
        assert_eq!(rung.promotable(3.0, Eager), None); // cached path
                                                       // Growth changes k: 9 records -> k = 3.
        for i in 6..9 {
            rung.record(TrialId(i), 0.9);
        }
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(2), 0.3)));
    }

    #[test]
    fn candidate_cache_serves_success_repeatedly() {
        // A cached *success* must also survive repeated queries (analysis
        // code may probe without promoting) and must change the moment the
        // caller promotes.
        let mut rung = Rung::new();
        for (i, loss) in [0.3, 0.1, 0.2].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(1), 0.1)));
        assert_eq!(rung.promotable(3.0, Eager), Some((TrialId(1), 0.1))); // cache hit
        rung.mark_promoted(TrialId(1));
        assert_eq!(rung.promotable(3.0, Eager), None);
    }

    #[test]
    fn candidate_cache_distinguishes_eta() {
        let mut rung = Rung::new();
        for (i, loss) in [0.4, 0.1, 0.2, 0.3].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        rung.mark_promoted(TrialId(1));
        // k = floor(4/4) = 1 and the only top-1 trial is promoted.
        assert_eq!(rung.promotable(4.0, Eager), None);
        // A different eta must not reuse that answer: k = floor(4/2) = 2.
        assert_eq!(rung.promotable(2.0, Eager), Some((TrialId(2), 0.2)));
    }

    #[test]
    fn top_k_merges_promoted_and_unpromoted() {
        let mut rung = Rung::new();
        for (i, loss) in [0.4, 0.1, 0.3, 0.2].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        rung.mark_promoted(TrialId(1));
        let top = rung.top_k(3);
        let ids: Vec<u64> = top.iter().map(|(t, _)| t.0).collect();
        assert_eq!(ids, vec![1, 3, 2]);
        assert_eq!(top[0].1, 0.1);
    }

    #[test]
    fn duplicate_records_are_ignored() {
        let mut rung = Rung::new();
        rung.record(TrialId(0), 0.5);
        rung.record(TrialId(0), 0.1);
        assert_eq!(rung.len(), 1);
        assert_eq!(rung.records()[0].1, 0.5);
        assert!(!rung.is_empty());
    }

    #[test]
    fn nan_losses_become_infinite() {
        let mut rung = Rung::new();
        rung.record(TrialId(0), f64::NAN);
        rung.record(TrialId(1), 0.4);
        assert_eq!(rung.best(), Some((TrialId(1), 0.4)));
        assert_eq!(rung.top_k(2)[1].0, TrialId(0));
    }

    #[test]
    fn best_is_stable_after_promotions() {
        // best() consults the lazy heap; stale entries must not resurface.
        let mut rung = Rung::new();
        for (i, loss) in [0.2, 0.1, 0.3].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        assert_eq!(rung.best(), Some((TrialId(1), 0.1)));
        rung.mark_promoted(TrialId(1));
        // Trial 1 is promoted but still the rung's best loss.
        assert_eq!(rung.best(), Some((TrialId(1), 0.1)));
        rung.mark_promoted(TrialId(0));
        assert_eq!(rung.best(), Some((TrialId(1), 0.1)));
        assert_eq!(rung.promoted_count(), 2);
    }

    #[test]
    fn mark_promoted_unknown_trial_is_ignored() {
        let mut rung = Rung::new();
        rung.record(TrialId(0), 0.5);
        rung.mark_promoted(TrialId(42));
        assert_eq!(rung.promoted_count(), 0);
    }

    #[test]
    fn mark_promoted_is_idempotent() {
        let mut rung = Rung::new();
        for (i, loss) in [0.1, 0.2, 0.3].iter().enumerate() {
            rung.record(TrialId(i as u64), *loss);
        }
        rung.mark_promoted(TrialId(0));
        rung.mark_promoted(TrialId(0));
        assert_eq!(rung.promoted_count(), 1);
        assert_eq!(rung.promotable(3.0, Eager), None);
    }

    #[test]
    fn find_promotable_scans_top_down() {
        let mut ladder = finite(1.0, 27.0, 3.0, 0);
        for i in 0..3 {
            ladder.record(0, TrialId(i), 0.1 * (i + 1) as f64);
        }
        for i in 3..6 {
            ladder.record(1, TrialId(i), 0.1 * (i + 1) as f64);
        }
        // Rung 1's best (trial 3) wins over rung 0's best (trial 0).
        let (t, _, k) = ladder.find_promotable(ScanOrder::TopDown, Eager).unwrap();
        assert_eq!((t, k), (TrialId(3), 1));
        ladder.mark_promoted(1, TrialId(3));
        let (t, _, k) = ladder.find_promotable(ScanOrder::TopDown, Eager).unwrap();
        assert_eq!((t, k), (TrialId(0), 0));
    }

    #[test]
    fn top_rung_never_promotes_in_finite_horizon() {
        let mut ladder = finite(1.0, 9.0, 3.0, 0);
        for i in 0..9 {
            ladder.record(2, TrialId(i), i as f64);
        }
        assert_eq!(ladder.find_promotable(ScanOrder::TopDown, Eager), None);
    }

    #[test]
    fn infinite_horizon_grows_rungs() {
        let mut ladder = RungLadder::new(Geometry::new(1.0, None, 3.0, 0).unwrap());
        assert_eq!(ladder.max_rung(), None);
        for i in 0..3 {
            ladder.record(4, TrialId(i), i as f64);
        }
        assert_eq!(ladder.rungs().len(), 5);
        // Rung 4 can promote upward: resources keep scaling.
        let (t, _, k) = ladder.find_promotable(ScanOrder::TopDown, Eager).unwrap();
        assert_eq!((t, k), (TrialId(0), 4));
        assert_eq!(ladder.resource(5), 3f64.powi(5));
    }

    #[test]
    fn best_loss_uses_intermediate_results() {
        let mut ladder = finite(1.0, 9.0, 3.0, 0);
        ladder.record(0, TrialId(0), 0.9);
        ladder.record(1, TrialId(1), 0.2);
        assert_eq!(ladder.best_loss(), Some((TrialId(1), 0.2)));
    }

    #[test]
    fn promotion_scales_to_large_rungs() {
        // Performance smoke test: 50k records with interleaved promotions
        // must complete fast (quadratic behaviour would take minutes).
        let start = std::time::Instant::now();
        let mut rung = Rung::new();
        let mut promoted = 0u64;
        for i in 0..50_000u64 {
            rung.record(TrialId(i), (i % 977) as f64);
            if let Some((t, _)) = rung.promotable(4.0, Eager) {
                rung.mark_promoted(t);
                promoted += 1;
            }
        }
        assert!(promoted > 10_000, "promoted {promoted}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "promotion path too slow: {:?}",
            start.elapsed()
        );
    }

    #[test]
    #[should_panic(expected = "exceeds finite-horizon top rung")]
    fn finite_ladder_rejects_out_of_range_rung() {
        let mut ladder = finite(1.0, 9.0, 3.0, 0);
        ladder.record(3, TrialId(0), 0.1);
    }
}
