//! Dispatch-argmin strategy shared by all three schedulers: the
//! [`DispatchIndex`] toggle and the per-machine `λ_ij` **lower bounds**
//! that drive the pruned best-first search
//! ([`osr_dstruct::MachineIndex`]).
//!
//! The search itself is written once, as the flow-family skeleton's
//! `candidate` (`crate::family`): the pruned arm with its node,
//! row-quad and leaf bounds, and the linear scan. Each scheduler
//! supplies only its bound (one of the three below, read from a
//! subtree's aggregate stats or, for a leaf, one machine's row) and its
//! exact `λ_ij`; the index setup and capacity sync below serve all
//! three.
//!
//! ## Why a toggle
//!
//! Every scheduler dispatches an arriving job to `argmin_i λ_ij`. The
//! historical implementation is a linear scan — one exact `λ_ij`
//! evaluation per machine, `O(m·log n)` per arrival in §2. The pruned
//! strategy visits machines in increasing lower-bound order and
//! evaluates the exact `λ_ij` lazily, stopping once no remaining bound
//! can beat (or lower-index-tie) the best exact value. Both strategies
//! return **bit-identical** results — machine choice, `λ` value, and
//! therefore every downstream schedule, dual variable, and experiment
//! table — which the `reference_equivalence` test pins by diffing full
//! experiment runs under both settings. `Linear` survives as a test
//! reference and as the production path below [`PRUNED_MIN_MACHINES`]
//! (`dstruct_ablation`/`m_scale` quantify the gap).
//!
//! ## Bound soundness, including under floating point
//!
//! Pruning is only sound if a bound never exceeds the exact `λ_ij` *as
//! actually computed in `f64`*. Two mechanisms guarantee this:
//!
//! * **§2 (`flow_lambda_bound`)** mirrors the exact evaluation's
//!   expression shape and exploits monotonicity of IEEE-754
//!   round-to-nearest: `fl(a + b) ≥ fl(a + c)` for `b ≥ c`, and the
//!   aggregate sums it understates are fl-sums of non-negative terms
//!   (each partial `≥` any single term). For an **empty queue** the
//!   bound is the *same expression* as the exact `λ_ij` — equality to
//!   the bit — which is what lets the search stop immediately after
//!   evaluating the lowest-indexed idle machine in the common
//!   many-idle-machines regime.
//! * **§3 / weighted (`energy_lambda_bound`, `weighted_lambda_bound`)**
//!   involve incremental weight-sum caches (subject to `±` rounding
//!   drift) and `powf`; busy-machine bounds are deflated by
//!   `BOUND_SAFETY`, a relative margin (`1e-7`) many orders of
//!   magnitude above any achievable accumulation error for queues that
//!   fit in memory. Empty-queue bounds again mirror the exact
//!   expression bit-for-bit and are **not** deflated, preserving the
//!   idle-machine fast path.
//!
//! A too-small bound can never change the argmin — it only costs extra
//! exact evaluations — so every approximation here errs low.
//!
//! ## The job-side input `p̂` — global and rack-local
//!
//! Subtree-level bounds need the *cheapest eligible size*
//! `p̂_j = min_i { p_ij < ∞ }` (sizes vary per machine, so a subtree
//! covering several machines can only be bounded with the job's best
//! case). Since PR 3 this value is **precomputed at generation time**
//! and cached on [`osr_model::Job`] (`Job::p_hat`, alongside an
//! eligibility bitmask), so the per-arrival `O(m)` rescan of
//! `job.sizes` is gone from the dispatch hot path. The cache is defined
//! by exactly the fold the schedulers used to perform
//! (`filter(is_finite).fold(∞, min)`), so results stay bit-identical —
//! locked by the `tests/dispatch_equivalence` proptests and the
//! `reference_equivalence` experiment-suite diff.
//!
//! Every job whose row is not uniform additionally carries
//! **rack-local minima** ([`osr_model::RackPHat`]: per-64-machine-word
//! and per-4096-machine layers mirroring the mask words), and the
//! tournament search hands every node bound its machine range, so
//! `PHatView::for_range` substitutes the *range's own* cheapest
//! eligible size for the global `p̂`. Every bound formula below is
//! monotone non-decreasing in `p` and the rack value is still `≤ p_ij`
//! for every eligible machine in the range (it is the minimum over a
//! containing superset), so the bounds stay sound lower bounds — they
//! are merely *tighter*, which prunes more subtrees without ever
//! changing the argmin.
//!
//! Since PR 5 restricted rows built the layers; fully eligible rows
//! used to keep only the global `p̂`, and on dense unrelated machines
//! that bound was too loose to prune, so the heap descent lost to the
//! linear scan (`dispatch_m_sweep`'s `unrelated` rows record the gap).
//! Now only uniform rows (every size finite and bit-equal: identical
//! machines) skip the layers, since there every rack minimum equals
//! the global one. On rack-affinity and unrelated workloads alike this
//! keeps the heap descent from exactly-probing every subtree whose
//! global-`p̂` bound looked attractive.
//!
//! ## The job-side input: the eligibility mask
//!
//! On restricted/affinity workloads the bounds above are
//! **eligibility-blind** — a subtree of machines the job cannot run on
//! still advertises a bound built from `p̂` — so since PR 4 the
//! schedulers hand the search the job's cached eligibility bitmask
//! ([`osr_model::EligMask`], borrowed as `osr_dstruct::MaskView`):
//! any subtree whose machine range misses the mask is skipped outright
//! (an `O(1)` word intersection per node), cutting the search cost to
//! the *eligible* racks. Masked-out machines could only ever evaluate
//! to `None`, so skipping them is result-neutral: bit-identity with
//! the linear scan is preserved and locked by the
//! restricted/affinity `dispatch_equivalence` proptests. The same PR
//! moved mid-size `m` off the `BinaryHeap` entirely —
//! `osr_dstruct::MachineIndex` auto-selects a flat bound scan at
//! `m ≤ 64` (`osr_dstruct::tournament::FLAT_MAX_MACHINES`), attacking
//! the recorded m ≈ 64 crossover where heap traffic ate the win.

use osr_dstruct::{
    tournament::{SearchMode, FLAT_MAX_MACHINES},
    KernelMode, MachineIndex, MachineStats, MaskView, Propagation,
};
use osr_model::{EligMask, Job, OnlineSet, RackPHat};
use osr_sim::CapacityChange;

/// How a scheduler locates `argmin_i λ_ij` at each arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchIndex {
    /// Exact `λ_ij` on every machine, lowest index wins ties — the
    /// `O(m)` reference path, and the production path below
    /// [`PRUNED_MIN_MACHINES`].
    Linear,
    /// Bound-pruned search over a tournament tree
    /// ([`osr_dstruct::MachineIndex`]): a flat bound scan at mid-size
    /// `m`, a best-first heap descent beyond, both guided by the job's
    /// eligibility mask; bit-identical results to
    /// [`DispatchIndex::Linear`].
    #[default]
    Pruned,
}

impl std::fmt::Display for DispatchIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DispatchIndex::Linear => "linear",
            DispatchIndex::Pruned => "pruned",
        })
    }
}

/// Below this machine count even `Pruned` uses the plain scan: the
/// tree walk plus bound bookkeeping costs more than `m` cheap
/// evaluations. (Results are identical either way; this is purely a
/// constant-factor crossover.)
pub const PRUNED_MIN_MACHINES: usize = 8;

/// The dispatch strategy a scheduler **actually runs** for a given
/// machine count: `Pruned` silently degrades to the linear scan below
/// [`PRUNED_MIN_MACHINES`], and an ablation row labeled "pruned" at
/// m = 4 would measure the linear path. Schedulers record this on
/// their outcomes, so results cannot mislabel themselves.
pub fn effective_dispatch_index(requested: DispatchIndex, machines: usize) -> DispatchIndex {
    if machines < PRUNED_MIN_MACHINES {
        DispatchIndex::Linear
    } else {
        requested
    }
}

/// Borrows a job's cached eligibility mask in the form the
/// mask-guided tournament search consumes. The mask contract
/// (`osr_dstruct::tournament` module docs) is met by construction:
/// a machine outside the mask has `p_ij = ∞`, and every scheduler's
/// `eval` returns `None` exactly for infinite sizes.
#[inline]
pub(crate) fn mask_view(elig: &EligMask) -> MaskView<'_> {
    match elig.word_layers() {
        None => MaskView::All,
        Some((words, summary)) => MaskView::Words { words, summary },
    }
}

/// Borrowed view of a job's `p̂` inputs for the subtree bounds: the
/// global minimum plus, for every non-uniform row, the rack-local
/// layers (see the module docs for the soundness argument).
#[derive(Clone, Copy)]
pub(crate) struct PHatView<'a> {
    global: f64,
    racks: Option<&'a RackPHat>,
}

/// Builds the `p̂` view the schedulers hand their node-bound closures.
#[inline]
pub(crate) fn p_hat_view(job: &Job) -> PHatView<'_> {
    PHatView {
        global: job.p_hat(),
        racks: job.rack_p_hat(),
    }
}

impl PHatView<'_> {
    /// The cheapest eligible size the bound for machine range
    /// `[lo, lo + span)` may assume: the rack-local minimum when the
    /// job caches one (non-uniform rows), the global `p̂` otherwise.
    #[inline]
    pub(crate) fn for_range(&self, lo: usize, span: usize) -> f64 {
        match self.racks {
            Some(r) => r.range_min(lo, span),
            None => self.global,
        }
    }
}

/// Relative deflation applied to busy-machine bounds whose inputs pass
/// through incremental caches or `powf` (see module docs).
pub(crate) const BOUND_SAFETY: f64 = 1.0 - 1e-7;

/// How a scheduler keeps its pruned dispatch index in sync with
/// capacity churn (`osr_sim::CapacityPlan` joins/drains/crashes).
///
/// Both modes produce **bit-identical schedules** — that is the
/// resize-correctness contract this toggle exists to audit, with the
/// same proptest + experiment-suite diff discipline as
/// [`DispatchIndex::Linear`] vs [`DispatchIndex::Pruned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapacityIndexMode {
    /// Mutate the index in place: grow-by-rack `join`, tombstone on
    /// drain/crash, trailing-rack compaction
    /// (`osr_dstruct::MachineIndex::{join, tombstone, compact}`).
    #[default]
    Incremental,
    /// Rebuild the index from scratch after every capacity event — the
    /// reference the incremental paths are tested against.
    Rebuild,
}

/// Builds a dispatch index over the `len` machines `base..base + len`
/// of one driver shard from scratch, indexed **locally** (leaf `i` is
/// global machine `base + i`): online machines get their current queue
/// stats, offline machines are tombstoned. The `online` set and the
/// `stats` closure stay in global coordinates. This *is* the rebuild
/// reference of [`CapacityIndexMode::Rebuild`] (called after every
/// capacity event), and also constructs every scheduler's initial
/// index (where `stats` is constantly [`MachineStats::EMPTY`]); with
/// `base = 0, len = m` it covers the whole pool.
///
/// `prop` selects the index's ancestor-propagation mode and `kern`
/// its kernel layer (schedulers pass their
/// [`crate::SchedulerConfig::propagation`] /
/// [`crate::SchedulerConfig::kernels`]); the search mode keeps
/// [`MachineIndex::new`]'s auto-selection (flat at or below
/// [`FLAT_MAX_MACHINES`] leaves, heap beyond). Machines are visited in
/// ascending id order; a tombstone can trigger trailing-rack
/// auto-compaction only on the final id (earlier leaves not yet
/// visited are still live), so every `update` lands inside the index's
/// current width.
pub fn rebuild_shard_index(
    base: usize,
    len: usize,
    online: &OnlineSet,
    prop: Propagation,
    kern: KernelMode,
    stats: impl Fn(usize) -> MachineStats,
) -> MachineIndex {
    let mode = if len <= FLAT_MAX_MACHINES {
        SearchMode::Flat
    } else {
        SearchMode::Heap
    };
    let mut ix = MachineIndex::with_kernels(len, mode, prop, kern);
    for i in 0..len {
        if online.is_online(base + i) {
            ix.update(i, stats(base + i));
        } else {
            ix.tombstone(i);
        }
    }
    ix
}

/// Applies one capacity change for global `machine` to the index of
/// the shard owning machines `base..base + len` under `mode`:
/// incremental join/tombstone, or a full rebuild. `machine` must lie
/// in the shard's range; `stats` stays global. The victim machine's
/// queue must already be emptied (drain/crash re-dispatches it) before
/// the rebuild reads `stats`. `prop` and `kern` are the propagation and
/// kernel modes a [`CapacityIndexMode::Rebuild`] reconstruction carries
/// over (the incremental arm mutates in place and never consults
/// them). A `Linear` run has no index, so this is a no-op there.
#[allow(clippy::too_many_arguments)]
pub fn sync_shard_index(
    dindex: &mut Option<MachineIndex>,
    mode: CapacityIndexMode,
    change: CapacityChange,
    machine: usize,
    base: usize,
    len: usize,
    online: &OnlineSet,
    prop: Propagation,
    kern: KernelMode,
    stats: impl Fn(usize) -> MachineStats,
) {
    debug_assert!((base..base + len).contains(&machine));
    let Some(ix) = dindex.as_mut() else { return };
    match mode {
        CapacityIndexMode::Incremental => match change {
            CapacityChange::Join => ix.join(machine - base, stats(machine)),
            CapacityChange::Drain | CapacityChange::Crash => {
                ix.tombstone(machine - base);
            }
        },
        CapacityIndexMode::Rebuild => {
            *ix = rebuild_shard_index(base, len, online, prop, kern, stats)
        }
    }
}

/// Lower bound on the §2 dispatch quantity
/// `λ_ij = (1/ε)·p + (Σ_{ℓ⪯j} p_iℓ + p) + |{ℓ≻j}|·p`
/// from a machine's (or subtree's) cached stats.
///
/// Case split on whether `j`'s prefix in the pending order is empty:
///
/// * prefix empty → every pending job succeeds `j`, so the exact value
///   is `(1/ε)p + (0 + p) + count·p`; with the subtree-min `count`
///   this is a lower bound, and for a single empty machine it **is**
///   the exact `λ_ij` expression, bit for bit;
/// * prefix non-empty → the prefix sum contains the queue minimum, so
///   `λ_ij ≥ (1/ε)p + (min_size + p)` (the successor term is `≥ 0`).
///
/// Each case only ever drops or understates non-negative addends of
/// the exact fl-expression, so fl-monotonicity keeps the bound `≤` the
/// exact `f64` value — no safety margin needed.
#[inline]
pub(crate) fn flow_lambda_bound(min_count: u64, min_size: f64, p: f64, inv_eps: f64) -> f64 {
    let prefix_empty = inv_eps * p + (0.0 + p) + (min_count as f64) * p;
    let prefix_nonempty = inv_eps * p + (min_size + p);
    prefix_empty.min(prefix_nonempty)
}

/// Lower bound on the weighted-extension dispatch quantity
/// `λ_ij = w·p/ε + w·(Σ_{ℓ⪯j} p_iℓ + p) + (Σ_{ℓ≻j} w_ℓ)·p`
/// (pending ordered by density). Same case split as
/// [`flow_lambda_bound`]; the weight sum comes from an incrementally
/// maintained cache, so busy bounds carry [`BOUND_SAFETY`].
#[inline]
pub(crate) fn weighted_lambda_bound(
    min_count: u64,
    min_wsum: f64,
    min_size: f64,
    p: f64,
    w: f64,
    eps: f64,
) -> f64 {
    if min_count == 0 {
        // Mirrors the weighted policy's exact `λ_ij` on an empty queue.
        let mut lam = w * p / eps;
        lam += w * (0.0 + p);
        lam += 0.0 * p;
        return lam;
    }
    let prefix_empty = w * p / eps + w * (0.0 + p) + min_wsum * p;
    let prefix_nonempty = w * p / eps + w * (min_size + p);
    prefix_empty.min(prefix_nonempty) * BOUND_SAFETY
}

/// Lower bound on the §3 dispatch quantity
/// `λ_ij = w(p/ε + Σ_{ℓ⪯j} p_iℓ/(γW_ℓ^{1/α})) + (Σ_{ℓ≻j} w_ℓ)·p/(γW_j^{1/α})`.
///
/// **Unlike §2, pending work can *lower* λ here** — more queued weight
/// means a higher speed and smaller per-volume terms — so an idle
/// machine's λ is *not* a lower bound for a busy one and there is no
/// empty-queue shortcut. The two prefix cases instead:
///
/// * prefix empty → `W_j = w` exactly and the successors are the whole
///   queue: `λ ≥ w·p/ε + w·p/(γw^{1/α}) + min_wsum·p/(γw^{1/α})`.
///   With `min_wsum = 0` (an idle machine, or a subtree containing
///   one) this expression *is* the idle-machine λ, mirrored bit for
///   bit, and is left undeflated so idle-tie pruning stays exact.
/// * prefix non-empty → every prefix denominator satisfies
///   `W_ℓ ≤ W_j ≤ max_wsum + w`, and the prefix sizes contain the queue
///   minimum: `λ ≥ w·p/ε + w·(min_size + p)/(γ(max_wsum + w)^{1/α})`.
///
/// Bounds whose inputs pass through the incremental weight cache or
/// `powf` carry [`BOUND_SAFETY`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn energy_lambda_bound(
    min_wsum: f64,
    max_wsum: f64,
    min_size: f64,
    p: f64,
    w: f64,
    eps: f64,
    gamma: f64,
    alpha: f64,
) -> f64 {
    // Mirrors the §3 policy's exact `λ_ij` empty-queue shape when
    // `min_wsum == 0`: `w_j = 0.0 + w`, `term_pre = 0.0 + p/(γ·w_j^{1/α})`.
    let own = p / (gamma * (0.0 + w).powf(1.0 / alpha));
    let a = w * p / eps + w * (0.0 + own) + min_wsum * own;
    let prefix_empty = if min_wsum > 0.0 { a * BOUND_SAFETY } else { a };
    let prefix_nonempty = (w * p / eps
        + w * ((min_size + p) / (gamma * (max_wsum + w).powf(1.0 / alpha))))
        * BOUND_SAFETY;
    prefix_empty.min(prefix_nonempty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_index_degrades_below_the_crossover() {
        for m in 1..PRUNED_MIN_MACHINES {
            assert_eq!(
                effective_dispatch_index(DispatchIndex::Pruned, m),
                DispatchIndex::Linear
            );
        }
        assert_eq!(
            effective_dispatch_index(DispatchIndex::Pruned, PRUNED_MIN_MACHINES),
            DispatchIndex::Pruned
        );
        // Linear is always effective as requested.
        assert_eq!(
            effective_dispatch_index(DispatchIndex::Linear, 1_000),
            DispatchIndex::Linear
        );
        assert_eq!(DispatchIndex::Pruned.to_string(), "pruned");
        assert_eq!(DispatchIndex::Linear.to_string(), "linear");
    }

    #[test]
    fn mask_view_borrows_the_job_mask() {
        use osr_dstruct::MaskView;
        assert!(matches!(mask_view(&EligMask::All), MaskView::All));
        let restricted = EligMask::from_sizes(&[1.0, f64::INFINITY, 2.0]);
        match mask_view(&restricted) {
            MaskView::Words { words, summary } => {
                assert_eq!(words, restricted.word_layers().unwrap().0);
                assert_eq!(summary.len(), 1);
            }
            MaskView::All => panic!("restricted mask must expose word layers"),
        }
    }

    #[test]
    fn p_hat_view_resolves_rack_minima() {
        // Uniform row: no rack layer, every range resolves to the
        // global p̂.
        let uniform = Job::new(0, 0.0, vec![2.0; 130]);
        let v = p_hat_view(&uniform);
        assert_eq!(v.for_range(0, 64), 2.0);
        assert_eq!(v.for_range(128, 64), 2.0);
        // Dense unrelated row: each rack resolves to its own minimum.
        let mut sizes = vec![5.0; 130];
        sizes[10] = 1.0;
        sizes[100] = 3.0;
        let dense = Job::new(0, 0.0, sizes);
        let v = p_hat_view(&dense);
        assert_eq!(v.for_range(0, 64), 1.0);
        assert_eq!(v.for_range(64, 64), 3.0);
        assert_eq!(v.for_range(128, 64), 5.0);
        assert_eq!(v.for_range(0, 256), 1.0);
        // Restricted row across a word boundary: ranges resolve to
        // their own rack's minimum, which tightens (raises) the bound
        // input away from the cheap rack.
        let mut sizes = vec![f64::INFINITY; 130];
        sizes[3] = 1.0;
        sizes[70] = 6.0;
        let sparse = Job::new(1, 0.0, sizes);
        let v = p_hat_view(&sparse);
        assert_eq!(v.for_range(0, 64), 1.0);
        assert_eq!(v.for_range(64, 64), 6.0);
        assert_eq!(v.for_range(128, 64), f64::INFINITY);
        assert_eq!(v.for_range(0, 128), 1.0);
        // The bound built from the rack value still understates every
        // eligible machine's exact formula input (6.0 ≤ p_ij for all
        // eligible i in [64, 128)) while exceeding the global one.
        assert!(v.for_range(64, 64) > sparse.p_hat());
    }

    #[test]
    fn flow_bound_matches_exact_lambda_on_empty_queue() {
        // The empty-queue case must be the *same expression* as
        // `lambda_ij` with before.sum = 0, succ = 0.
        for p in [0.1, 1.0, 3.7, 250.0] {
            for inv_eps in [1.0, 4.0, 10.0] {
                let exact = inv_eps * p + (0.0 + p) + 0.0 * p;
                assert_eq!(flow_lambda_bound(0, f64::INFINITY, p, inv_eps), exact);
            }
        }
    }

    #[test]
    fn flow_bound_understates_busy_queues() {
        // Pending sizes {2, 5}; job p = 3 ⇒ exact λ = 4p + (2+3) + 1·3.
        let inv_eps = 4.0;
        let exact = inv_eps * 3.0 + (2.0 + 3.0) + 1.0 * 3.0;
        let bound = flow_lambda_bound(2, 2.0, 3.0, inv_eps);
        assert!(bound <= exact, "{bound} > {exact}");
        assert!(bound > 0.0);
    }

    #[test]
    fn busy_bounds_carry_the_safety_margin() {
        let b = weighted_lambda_bound(3, 10.0, 1.0, 2.0, 1.0, 0.5);
        let raw = f64::min(
            1.0 * 2.0 / 0.5 + 1.0 * (0.0 + 2.0) + 10.0 * 2.0,
            1.0 * 2.0 / 0.5 + 1.0 * (1.0 + 2.0),
        );
        assert!(b < raw);
        assert!(b > raw * (1.0 - 1e-6));
    }
}
