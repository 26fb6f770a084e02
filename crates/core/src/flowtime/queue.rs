//! Per-machine pending queues for the §2 algorithm.
//!
//! Pending jobs (the set `U_i(t)` minus the running job) are kept in the
//! paper's processing order: non-decreasing processing time, ties by
//! earliest release, then id — encoded as the composite key
//! [`PendKey`]. The queue must answer the aggregate queries that
//! assemble `λ_ij` and support min/max extraction (SPT start, Rule 2
//! rejection).
//!
//! Two interchangeable backends exist so the `dstruct_ablation` bench
//! and EXP-SCALE can quantify the asymptotic difference:
//! `O(log n)` [`osr_dstruct::AggTreap`] vs `O(n)`
//! [`osr_dstruct::NaiveAggQueue`].

use osr_dstruct::treap::Agg;
use osr_dstruct::{AggTreap, MachineStats, NaiveAggQueue, TotalF64};
use osr_model::JobId;

use crate::family::Pending;

/// Queue key: `(p_ij, r_j, id)` — the paper's `≺` order.
pub type PendKey = (TotalF64, TotalF64, u32);

/// Builds the key for a job with size `p` and release `r`.
#[inline]
pub fn pend_key(p: f64, release: f64, id: JobId) -> PendKey {
    (TotalF64(p), TotalF64(release), id.0)
}

/// Which backend a [`PendQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Augmented treap: `O(log n)` aggregate queries.
    #[default]
    Treap,
    /// Sorted vector: `O(n)` — the ablation baseline.
    Naive,
}

/// A pending queue with the aggregate API, dispatching to the selected
/// backend.
///
/// The treap variant is held inline: the arena [`AggTreap`] is a few
/// `Vec`s plus small scalars, so no indirection is needed (the old
/// `Box`-per-node treap was boxed here to keep the enum slim).
#[derive(Debug)]
pub enum PendQueue {
    /// Treap-backed queue.
    Treap(AggTreap<PendKey>),
    /// Sorted-vector-backed queue.
    Naive(NaiveAggQueue<PendKey>),
}

impl PendQueue {
    /// Creates an empty queue with the given backend.
    pub fn new(backend: QueueBackend) -> Self {
        Self::with_capacity(backend, 0)
    }

    /// Creates an empty queue preallocated for `cap` pending jobs, so
    /// the arrival hot path never grows the backing storage below that
    /// high-water mark (honored by **both** backends).
    pub fn with_capacity(backend: QueueBackend, cap: usize) -> Self {
        match backend {
            QueueBackend::Treap => PendQueue::Treap(AggTreap::with_capacity(cap)),
            QueueBackend::Naive => PendQueue::Naive(NaiveAggQueue::with_capacity(cap)),
        }
    }

    /// Number of pending jobs.
    pub fn len(&self) -> usize {
        match self {
            PendQueue::Treap(t) => t.len(),
            PendQueue::Naive(q) => q.len(),
        }
    }

    /// Whether no jobs are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a job; the weight is its processing time on this machine.
    pub fn insert(&mut self, key: PendKey, size: f64) {
        match self {
            PendQueue::Treap(t) => t.insert(key, size),
            PendQueue::Naive(q) => q.insert(key, size),
        }
    }

    /// Removes a specific job.
    pub fn remove(&mut self, key: &PendKey) -> Option<f64> {
        match self {
            PendQueue::Treap(t) => t.remove(key),
            PendQueue::Naive(q) => q.remove(key),
        }
    }

    /// Pops the job that precedes all others (shortest — SPT start).
    pub fn pop_first(&mut self) -> Option<(PendKey, f64)> {
        match self {
            PendQueue::Treap(t) => t.pop_first(),
            PendQueue::Naive(q) => q.pop_first(),
        }
    }

    /// Pops the job with the largest processing time (Rule 2 victim).
    pub fn pop_last(&mut self) -> Option<(PendKey, f64)> {
        match self {
            PendQueue::Treap(t) => t.pop_last(),
            PendQueue::Naive(q) => q.pop_last(),
        }
    }

    /// Aggregate over jobs preceding or equal to `key`.
    pub fn agg_le(&self, key: &PendKey) -> Agg {
        match self {
            PendQueue::Treap(t) => t.agg_le(key),
            PendQueue::Naive(q) => q.agg_le(key),
        }
    }

    /// Aggregate over all pending jobs.
    pub fn total(&self) -> Agg {
        match self {
            PendQueue::Treap(t) => t.total(),
            PendQueue::Naive(q) => q.total(),
        }
    }

    /// Smallest pending processing time (`∞` when empty) — the queue
    /// is keyed by `(p, r, id)`, so this is the first key's size. Feeds
    /// the pruned dispatch index's per-machine `λ̂` lower bound.
    pub fn min_size(&self) -> f64 {
        let first = match self {
            PendQueue::Treap(t) => t.first(),
            PendQueue::Naive(q) => q.first(),
        };
        first.map_or(f64::INFINITY, |k| k.0 .0)
    }
}

impl Pending for PendQueue {
    fn queued(&self) -> usize {
        self.len()
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            count: self.len() as u64,
            wsum: self.total().sum,
            min_size: self.min_size(),
        }
    }

    fn push(&mut self, job: JobId, p: f64, _w: f64, r: f64) {
        self.insert(pend_key(p, r, job), p);
    }

    fn pop_front(&mut self) -> Option<JobId> {
        self.pop_first().map(|((_p, _r, id), _w)| JobId(id))
    }
}

/// Computes `λ_ij` from the queue state, per §2:
///
/// ```text
/// λ_ij = (1/ε)·p_ij + Σ_{ℓ⪯j} p_iℓ + |{ℓ ≻ j}|·p_ij
/// ```
///
/// where the order ranges over the pending jobs *plus `j` itself*
/// (`ℓ ⪯ j` includes `j`, contributing `p_ij` to the middle sum). The
/// queue holds the pending set without `j`; `key`/`size` describe `j`.
#[inline]
pub fn lambda_ij(queue: &PendQueue, key: &PendKey, size: f64, inv_eps: f64) -> f64 {
    let before = queue.agg_le(key);
    let all = queue.total();
    let succ = (all.count - before.count) as f64;
    inv_eps * size + (before.sum + size) + succ * size
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: f64, id: u32) -> PendKey {
        pend_key(p, 0.0, JobId(id))
    }

    #[test]
    fn both_backends_agree_on_lambda() {
        for backend in [QueueBackend::Treap, QueueBackend::Naive] {
            let mut q = PendQueue::new(backend);
            q.insert(key(2.0, 0), 2.0);
            q.insert(key(5.0, 1), 5.0);
            q.insert(key(9.0, 2), 9.0);
            // New job p=4: preceded by {2}, succeeded by {5, 9}.
            // λ = (1/ε)·4 + (2 + 4) + 2·4, with 1/ε = 10.
            let l = lambda_ij(&q, &key(4.0, 3), 4.0, 10.0);
            assert_eq!(l, 40.0 + 6.0 + 8.0, "backend {backend:?}");
        }
    }

    #[test]
    fn lambda_on_empty_queue_is_ratio_terms_only() {
        let q = PendQueue::new(QueueBackend::Treap);
        let l = lambda_ij(&q, &key(3.0, 0), 3.0, 2.0);
        // (1/ε)p + p = 2·3 + 3
        assert_eq!(l, 9.0);
    }

    #[test]
    fn spt_order_pop_first() {
        let mut q = PendQueue::new(QueueBackend::Treap);
        q.insert(key(5.0, 1), 5.0);
        q.insert(key(2.0, 2), 2.0);
        q.insert(key(2.0, 0), 2.0);
        // Equal sizes: earliest release (equal) then id breaks the tie.
        let (k, _) = q.pop_first().unwrap();
        assert_eq!(k.2, 0);
    }

    #[test]
    fn rule2_victim_is_largest() {
        let mut q = PendQueue::new(QueueBackend::Naive);
        q.insert(key(5.0, 1), 5.0);
        q.insert(key(7.0, 2), 7.0);
        q.insert(key(2.0, 0), 2.0);
        let (k, w) = q.pop_last().unwrap();
        assert_eq!(k.2, 2);
        assert_eq!(w, 7.0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn ties_on_size_break_by_release_then_id() {
        let mut q = PendQueue::new(QueueBackend::Treap);
        q.insert(pend_key(3.0, 5.0, JobId(0)), 3.0);
        q.insert(pend_key(3.0, 1.0, JobId(9)), 3.0);
        let (k, _) = q.pop_first().unwrap();
        assert_eq!(k.1, TotalF64(1.0));
        assert_eq!(k.2, 9);
    }

    #[test]
    fn min_size_tracks_first_key() {
        for backend in [QueueBackend::Treap, QueueBackend::Naive] {
            let mut q = PendQueue::new(backend);
            assert_eq!(q.min_size(), f64::INFINITY);
            q.insert(key(5.0, 1), 5.0);
            q.insert(key(2.0, 2), 2.0);
            assert_eq!(q.min_size(), 2.0, "{backend:?}");
            q.pop_first();
            assert_eq!(q.min_size(), 5.0, "{backend:?}");
        }
    }

    #[test]
    fn naive_with_capacity_reaches_backing_store() {
        // The hint used to be silently dropped for the naive backend.
        let q = PendQueue::with_capacity(QueueBackend::Naive, 32);
        match q {
            PendQueue::Naive(inner) => assert!(inner.capacity() >= 32),
            PendQueue::Treap(_) => unreachable!(),
        }
    }

    #[test]
    fn remove_specific_job() {
        let mut q = PendQueue::new(QueueBackend::Treap);
        let k = key(4.0, 7);
        q.insert(k, 4.0);
        assert_eq!(q.remove(&k), Some(4.0));
        assert!(q.is_empty());
    }
}
