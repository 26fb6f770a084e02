//! Tournament (segment) tree over per-machine dispatch statistics —
//! the engine behind the **best-first pruned argmin** that replaces the
//! schedulers' `O(m)`-per-arrival linear scan of `λ_ij`.
//!
//! ## The problem shape
//!
//! Every arrival must find `argmin_i λ_ij` over all `m` machines, with
//! ties broken towards the **lowest machine index** (the contract the
//! linear scan establishes and every downstream artifact depends on).
//! Evaluating one exact `λ_ij` is expensive — an `O(log n)` aggregate
//! query against the machine's pending queue (§2), or an `O(|U_i|)`
//! walk of the pending vector (§3 and the weighted extension). But a
//! *lower bound* on `λ_ij` is cheap: it needs only a few cached
//! per-machine scalars (pending count, pending weight sum, smallest
//! pending size) plus the arriving job's own parameters.
//!
//! ## The structure: a leaf table plus a lazily repaired tree
//!
//! [`MachineIndex`] splits its state in two (a struct-of-arrays
//! layout):
//!
//! * a flat **leaf-stats table** — one packed [`MachineStats`] row
//!   (`count`, `wsum`, `min_size`; 24 bytes, no padding) per machine.
//!   This is the *only* thing a queue mutation writes:
//!   [`MachineIndex::update`] is a single row store.
//! * an **internal-node array** of componentwise extremes
//!   ([`NodeStats`]) over power-of-two machine ranges — the bounds the
//!   best-first descent prunes with.
//!
//! Ancestors are **not** maintained eagerly. Mutations mark the touched
//! machine in a dirty bitmap; the next search that actually reads
//! internal nodes first runs a batched bottom-up **repair sweep** over
//! the dirty subtrees ([`MachineIndex::flush`]): the dirty leaves'
//! parent set is recomputed level by level, deduplicating shared
//! ancestors, in `O(dirty · log m)` — and a run of `k` mutations
//! between two searches costs one sweep, not `k` eager `O(log m)`
//! ancestor rebuilds, because every intermediate ancestor value would
//! have been a dead write. Search paths that never read internal nodes
//! — the flat bound scan and the sparse set-bit walk below — skip the
//! repair entirely, so under [`SearchMode::Flat`] ancestors are never
//! allocated, written, or read at all.
//!
//! The eager behaviour survives as [`Propagation::Eager`] (selected
//! per scheduler by `osr-core`'s reference configuration) for the
//! `update_churn` ablation bench and the `reference_equivalence`
//! experiment-suite diff; results are bit-identical either way —
//! a search observes exactly the aggregates a from-scratch rebuild
//! would produce, a property the interleaving proptests lock.
//!
//! ## The search contract
//!
//! [`MachineIndex::search`] runs a best-first branch-and-bound: nodes
//! are popped from a min-heap ordered by `(bound, first machine
//! index)`; leaves evaluate the exact `λ_ij` lazily; a node is pruned
//! as soon as its bound can no longer beat the best exact value found
//! (or can only tie it at a higher machine index). Because every
//! pruned subtree provably contains no better-or-lower-indexed
//! candidate, the result is **identical to the full linear scan** —
//! the caller supplies bounds that are true lower bounds (see the
//! callers in `osr-core::dispatch` for the floating-point-safety
//! argument), and the search itself degrades gracefully to visiting
//! every leaf when the bounds prune nothing.
//!
//! The caller-facing contract, precisely:
//!
//! * `node_bound(s, lo, span)` must be `≤ leaf_bound(i, leaf_i)` for
//!   every leaf `i` in `[lo, lo + span)` under a node with aggregate
//!   stats `s` — the range arguments let the caller tighten the bound
//!   with *range-local* job data (e.g. the per-rack `p̂` minima cached
//!   on `osr_model::Job`, which replace the global `p̂` on affinity
//!   workloads);
//! * `leaf_bound(i, s_i)` must be `≤ eval(i)` whenever `eval(i)` is
//!   `Some` (it receives the machine's exact [`MachineStats`] row);
//! * then `search` returns exactly
//!   `min_{i : eval(i).is_some()} (eval(i), i)` under lexicographic
//!   `(value, index)` order — the lowest-index argmin.
//!
//! ## Eligibility masks ([`MachineIndex::search_masked`])
//!
//! On restricted-assignment and rack-affinity workloads most machines
//! cannot run the arriving job at all, yet the subtree bounds above are
//! **eligibility-blind**: they are built from queue statistics and the
//! job's *best-case* size `p̂`, so a subtree consisting entirely of
//! ineligible machines still advertises an attractive bound and the
//! search descends into it, discovering the `∞`s one leaf at a time.
//! [`MachineIndex::search_masked`] takes an additional [`MaskView`] —
//! a borrowed two-layer bitmask (one bit per machine plus a summary
//! bit per 64-bit word) — and skips any subtree whose machine range
//! has an empty intersection with the mask. Because every node's range
//! is a power-of-two span aligned to its size, the intersection test
//! is a **single masked word read** for spans up to 64 machines and a
//! single *summary*-word read for spans up to 4096; only spans beyond
//! that (m > 4096) scan summary words, one per 4096 machines, with an
//! early exit. The mask contract mirrors the bound contract:
//!
//! * for every machine `i` **not** in the mask, `eval(i)` must return
//!   `None` (the mask may only exclude machines that could never win);
//! * then `search_masked` returns exactly what `search` would, while
//!   the descent cost scales with the *eligible* portion of the tree
//!   (for rack-affinity workloads: the eligible racks, not `m`).
//!
//! Sparser still than a rack? When the mask's population count is at
//! most [`FLAT_MAX_MACHINES`], `search_masked` skips the tree
//! entirely and walks the mask's set bits in increasing index order
//! (`O(words + eligible)` total, the linear scan's visit order and
//! tie-break), so a job eligible on 64 of 16384 machines costs what a
//! 64-machine dispatch costs. The walk reads only the leaf table, so
//! it runs **without repairing** any pending dirty ancestors — on
//! affinity workloads whose every job takes this path, the internal
//! tree is simply never rebuilt.
//!
//! ## Flat bound-scan mode ([`SearchMode`])
//!
//! The best-first heap earns its keep at large `m`, where pruning
//! skips whole subtrees; at mid-size `m` (the recorded m ≈ 64
//! crossover, see BENCH.md) the `BinaryHeap` push/pop traffic costs
//! more than it saves. [`MachineIndex::new`] therefore auto-selects
//! [`SearchMode::Flat`] for `m ≤` [`FLAT_MAX_MACHINES`]: a single
//! left-to-right pass over the leaf table with a running best,
//! evaluating a leaf exactly only when its cheap `leaf_bound` (and
//! mask bit) says it could still win. The pass visits leaves in
//! increasing index order and replaces the incumbent only on a
//! strictly smaller value, so its result — value *and* argmin index —
//! is identical to both the heap search and the plain linear scan.
//! A flat-mode index allocates **no internal nodes and no dirty
//! bitmap**: mutations touch exactly one 24-byte leaf row, which is
//! what flipped the m = 64 affinity end-to-end row positive (BENCH.md
//! "PR 5").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kernel::{self, KernelMode, LANES};
use crate::total::TotalF64;

/// Borrowed view of a per-job machine-eligibility bitmask, as consumed
/// by [`MachineIndex::search_masked`].
///
/// `words` holds one bit per machine (LSB-first within each `u64`);
/// `summary` holds one bit per *word* (`summary[k/64]` bit `k % 64` is
/// set iff `words[k] != 0`), which is what keeps the subtree
/// intersection test `O(1)` for spans up to 4096 machines. Machines at
/// or beyond `64 * words.len()` are ineligible (the padding leaves of
/// a [`MachineIndex`] always test ineligible).
#[derive(Debug, Clone, Copy)]
pub enum MaskView<'a> {
    /// Every machine is eligible — no pruning, no word reads.
    All,
    /// Restricted eligibility with the two word layers described above.
    Words {
        /// One bit per machine.
        words: &'a [u64],
        /// One bit per word of `words`.
        summary: &'a [u64],
    },
}

/// Any bit set in `bits[..]` within the aligned bit range
/// `[lo, lo + span)`? `span` must be a power of two and `lo` a
/// multiple of `span`; bits beyond the slice are absent (unset).
#[inline]
fn any_bits(bits: &[u64], lo: usize, span: usize) -> bool {
    debug_assert!(span.is_power_of_two() && lo.is_multiple_of(span));
    if span >= 64 {
        // Whole aligned words; early-exit scan (one word per 64 bits).
        let first = lo / 64;
        let last = ((lo + span) / 64).min(bits.len());
        bits[first.min(bits.len())..last].iter().any(|&w| w != 0)
    } else {
        // The range lies inside a single word (span divides 64 and lo
        // is span-aligned).
        match bits.get(lo / 64) {
            Some(&w) => w & ((u64::MAX >> (64 - span)) << (lo % 64)) != 0,
            None => false,
        }
    }
}

impl MaskView<'_> {
    /// Whether machine `i` is eligible.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        match self {
            MaskView::All => true,
            MaskView::Words { words, .. } => any_bits(words, i, 1),
        }
    }

    /// Whether any machine in the aligned range `[lo, lo + span)` is
    /// eligible (`span` a power of two, `lo` a multiple of `span` —
    /// exactly the ranges tournament nodes cover). `O(1)` for
    /// `span ≤ 4096`; one summary word per 4096 machines beyond, with
    /// an early exit.
    #[inline]
    pub fn any_in_range(&self, lo: usize, span: usize) -> bool {
        match self {
            MaskView::All => true,
            MaskView::Words { words, summary } => {
                if span <= 64 {
                    any_bits(words, lo, span)
                } else {
                    any_bits(summary, lo / 64, span / 64)
                }
            }
        }
    }
}

/// Reusable scratch for re-basing a *global* [`MaskView`] onto one
/// shard's machine range (the epoch-sharded driver partitions machines
/// into whole 64-machine racks, so a shard's view of a job's
/// eligibility mask is a word-aligned slice of the global words plus a
/// locally rebuilt summary layer). One scratch per shard, reused across
/// every dispatch — no per-arrival allocation once the high-water mark
/// is reached.
#[derive(Debug, Clone, Default)]
pub struct ShardMaskScratch {
    summary: Vec<u64>,
}

impl ShardMaskScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The view of `mask` restricted to global machines
    /// `[base, base + len)`, re-indexed so local machine `i` is global
    /// machine `base + i`. `base` must be a multiple of 64 (shards own
    /// whole racks), so the slice never splits a word. Machines beyond
    /// the mask's width — including a `base` past the last word — test
    /// ineligible, matching the global view's padding contract.
    pub fn rebase<'a>(&'a mut self, mask: MaskView<'a>, base: usize, len: usize) -> MaskView<'a> {
        match mask {
            MaskView::All => MaskView::All,
            MaskView::Words { words, .. } => {
                debug_assert!(base.is_multiple_of(64), "shard base splits a rack");
                let first = (base / 64).min(words.len());
                let last = (base + len).div_ceil(64).min(words.len());
                let local = &words[first..last];
                self.summary.clear();
                self.summary.resize(local.len().div_ceil(64), 0);
                kernel::summarize_words4(KernelMode::Chunked, local, &mut self.summary);
                MaskView::Words {
                    words: local,
                    summary: &self.summary,
                }
            }
        }
    }
}

/// How [`MachineIndex`] locates the argmin internally. Results are
/// identical either way (same `(value, index)` bit for bit); the modes
/// trade constant factors, and [`MachineIndex::new`] picks by `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Single left-to-right pass over the leaf table with a running
    /// best; no heap, no internal nodes at all (none are allocated,
    /// none are ever written). Wins at mid-size `m` where heap traffic
    /// eats the pruning gain.
    Flat,
    /// Best-first bound-pruned descent with a `BinaryHeap` frontier.
    /// Wins at large `m`, where subtree pruning skips most leaves.
    Heap,
}

/// When ancestor aggregates are rebuilt after a leaf mutation. Results
/// are bit-identical either way — a search always observes the
/// aggregates a from-scratch rebuild would produce (locked by the
/// interleaving proptests and the `reference_equivalence` diff); the
/// modes trade update-side work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Propagation {
    /// Rebuild the `O(log m)` ancestor path on every
    /// [`MachineIndex::update`] — the pre-PR-5 behaviour, kept as the
    /// `update_churn` ablation baseline and the reference mode.
    Eager,
    /// Mutations write the leaf table and a dirty bit only; ancestors
    /// are repaired in one batched bottom-up sweep at the next search
    /// that reads them (`O(dirty · log m)` amortized, zero ancestor
    /// writes for leaf-only search paths).
    #[default]
    Lazy,
}

/// Largest machine count for which [`MachineIndex::new`] picks
/// [`SearchMode::Flat`]: at and below the recorded m ≈ 64 crossover
/// (BENCH.md "PR 2") the heap's push/pop traffic costs more than
/// bound-pruning saves, so the flat scan is the better constant.
pub const FLAT_MAX_MACHINES: usize = 64;

/// Trailing-tombstone run length at which [`MachineIndex::tombstone`]
/// auto-compacts: once a whole rack (64-machine word) of garbage sits
/// at the top of the leaf table, trimming it pays for itself —
/// interior tombstones are never moved (machine ids are fixed), so the
/// tail is the only place storage can actually be reclaimed.
pub const COMPACT_TRAILING_RACK: usize = 64;

/// Largest power of two `≤ k` (for `k ≥ 1`): the heap-layout depth
/// block `k` belongs to, used by the resize graft/un-graft copies.
#[inline]
fn msb(k: usize) -> usize {
    1usize << (usize::BITS - 1 - k.leading_zeros())
}

/// Cached dispatch statistics of one machine's pending queue — one
/// packed row (24 bytes, no padding) of the leaf-stats table.
///
/// All three schedulers derive their `λ_ij` lower bounds from these
/// three scalars (each scheduler uses the subset its formula needs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineStats {
    /// Number of pending jobs `|U_i|` (sans the running job).
    pub count: u64,
    /// Sum of pending weights (processing times in §2, where `w = p`).
    pub wsum: f64,
    /// Smallest pending size, or a lower bound on it
    /// (`f64::INFINITY` when the queue is empty). A *stale-low* value
    /// is allowed: bounds derived from it stay valid lower bounds.
    pub min_size: f64,
}

impl MachineStats {
    /// Stats of an empty pending queue.
    pub const EMPTY: MachineStats = MachineStats {
        count: 0,
        wsum: 0.0,
        min_size: f64::INFINITY,
    };
}

/// Componentwise extremes of [`MachineStats`] over a subtree.
///
/// `min_*` fields bound formulas that grow with the statistic;
/// `max_wsum` exists for the §3 bound, whose prefix-weight denominator
/// *shrinks* the bound as weight grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStats {
    /// Minimum pending count over the subtree.
    pub min_count: u64,
    /// Minimum pending weight sum over the subtree.
    pub min_wsum: f64,
    /// Maximum pending weight sum over the subtree.
    pub max_wsum: f64,
    /// Minimum `min_size` over the subtree.
    pub min_size: f64,
}

impl NodeStats {
    /// Identity element for [`NodeStats::combine`] (used by padding
    /// leaves beyond `m`): neutral for every component given that real
    /// stats have `count ≥ 0`, `wsum ≥ 0`, `min_size ≤ ∞`.
    const IDENTITY: NodeStats = NodeStats {
        min_count: u64::MAX,
        min_wsum: f64::INFINITY,
        max_wsum: 0.0,
        min_size: f64::INFINITY,
    };

    /// The degenerate aggregate of a single machine's stats row.
    #[inline]
    pub fn leaf(s: MachineStats) -> NodeStats {
        NodeStats {
            min_count: s.count,
            min_wsum: s.wsum,
            max_wsum: s.wsum,
            min_size: s.min_size,
        }
    }

    pub(crate) fn combine(a: NodeStats, b: NodeStats) -> NodeStats {
        NodeStats {
            min_count: a.min_count.min(b.min_count),
            min_wsum: a.min_wsum.min(b.min_wsum),
            max_wsum: a.max_wsum.max(b.max_wsum),
            min_size: a.min_size.min(b.min_size),
        }
    }
}

/// Point-in-time snapshot of a [`MachineIndex`]'s internal health,
/// surfaced by the live ops view (`osr top`): how many searches each
/// arm answered (the flat/sparse/heap path mix), how much lazy repair
/// work is queued, and the live/tombstone split of the leaf table.
/// Counters are cumulative since construction; snapshots from several
/// shard-local indexes [`merge`](IndexStats::merge) into one pool-wide
/// view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Searches answered by the flat dense leaf pass.
    pub flat_searches: u64,
    /// Searches answered by the sparse set-bit walk (restricted masks
    /// at or below [`FLAT_MAX_MACHINES`] eligible machines).
    pub sparse_searches: u64,
    /// Searches answered by the best-first heap descent.
    pub heap_searches: u64,
    /// Exact leaf evaluations (`eval` calls) made inside heap
    /// descents — divided by `heap_searches`, how many machines a
    /// descent probes exactly, i.e. how well the subtree bounds prune.
    pub heap_evals: u64,
    /// Internal frontier nodes heap descents popped and expanded (each
    /// expansion bounds up to two children): the descent's tree work,
    /// which a loose bound inflates even when `heap_evals` stays low.
    pub heap_expansions: u64,
    /// Dirty leaves whose ancestors await the next batched repair
    /// sweep (the lazy-propagation backlog; always 0 under eager
    /// propagation and in flat mode).
    pub dirty_leaves: usize,
    /// Live (non-tombstoned) machines.
    pub live: usize,
    /// Tombstoned machines still occupying leaves.
    pub tombstones: usize,
}

impl IndexStats {
    /// Total searches across all three arms.
    #[inline]
    pub fn searches(&self) -> u64 {
        self.flat_searches + self.sparse_searches + self.heap_searches
    }

    /// Accumulates another index's snapshot into this one (used to
    /// aggregate per-shard indexes into a pool-wide view).
    pub fn merge(&mut self, other: &IndexStats) {
        self.flat_searches += other.flat_searches;
        self.sparse_searches += other.sparse_searches;
        self.heap_searches += other.heap_searches;
        self.heap_evals += other.heap_evals;
        self.heap_expansions += other.heap_expansions;
        self.dirty_leaves += other.dirty_leaves;
        self.live += other.live;
        self.tombstones += other.tombstones;
    }
}

/// Heap entry of the best-first search. Min-ordered by
/// `(bound, lo, node)` — the `lo` tiebreak makes the search reach the
/// lowest-index machine first among equal bounds, which is what lets
/// equal-bound subtrees to its right be pruned wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Frontier {
    bound: TotalF64,
    lo: u32,
    node: u32,
    span: u32,
}

/// Tournament tree over per-machine dispatch stats; see module docs.
#[derive(Debug)]
pub struct MachineIndex {
    m: usize,
    /// Leaf capacity: smallest power of two `≥ m`.
    cap: usize,
    /// The leaf-stats table: one packed row per machine, the only
    /// state a mutation writes.
    leaves: Vec<MachineStats>,
    /// Internal nodes 1..cap (index 0 unused; children of `k` at
    /// `2k`/`2k+1`, node ids `≥ cap` denote leaf `id - cap`). Empty in
    /// [`SearchMode::Flat`] — never allocated, never written.
    inner: Vec<NodeStats>,
    /// One dirty bit per machine (lazy propagation only; empty in
    /// `Flat`, where there is nothing to repair).
    dirty: Vec<u64>,
    /// Whether any dirty bit is set (cheap repair short-circuit).
    any_dirty: bool,
    /// Reusable level buffer for the batched repair sweep.
    repair_scratch: Vec<u32>,
    /// Reusable frontier heap (no per-search allocation once warm).
    heap: BinaryHeap<Reverse<Frontier>>,
    /// One tombstone bit per machine: set for machines that left the
    /// elastic pool (drain/crash) or were revealed by a rack-grow but
    /// have not joined yet. Tombstoned leaves aggregate as
    /// [`NodeStats::IDENTITY`] and are skipped by every search arm, so
    /// they can never win an argmin.
    dead: Vec<u64>,
    /// Number of set bits in `dead` (within `0..m`).
    tombstones: usize,
    mode: SearchMode,
    prop: Propagation,
    /// Which kernel layer the hot loops run ([`KernelMode::Chunked`]
    /// or the scalar oracle); results are bit-identical either way.
    kern: KernelMode,
    /// Reusable per-leaf bound buffer for the chunked flat scan (no
    /// per-search allocation once warm; empty under the scalar twin).
    bound_scratch: Vec<f64>,
    /// Searches answered by each arm (see [`IndexStats`]).
    flat_searches: u64,
    sparse_searches: u64,
    heap_searches: u64,
    /// Exact `eval` calls made by heap descents (see [`IndexStats`]).
    heap_evals: u64,
    /// Internal nodes heap descents expanded (see [`IndexStats`]).
    heap_expansions: u64,
}

impl MachineIndex {
    /// Index over `m` machines, all starting with empty queues, in the
    /// search mode best for `m` (flat at or below
    /// [`FLAT_MAX_MACHINES`], heap above), with lazy propagation and
    /// the chunked kernels.
    ///
    /// # Panics
    /// Panics when `m == 0` (instances always have a machine).
    pub fn new(m: usize) -> Self {
        let mode = if m <= FLAT_MAX_MACHINES {
            SearchMode::Flat
        } else {
            SearchMode::Heap
        };
        Self::with_mode(m, mode)
    }

    /// Index over `m` machines with an explicit [`SearchMode`] (lazy
    /// propagation, chunked kernels) — for the ablation benches and
    /// the crossover-boundary tests; production callers want
    /// [`MachineIndex::new`].
    ///
    /// # Panics
    /// Panics when `m == 0` (instances always have a machine).
    pub fn with_mode(m: usize, mode: SearchMode) -> Self {
        Self::with_config(m, mode, Propagation::Lazy)
    }

    /// Explicit search mode *and* propagation mode, with the chunked
    /// kernels.
    ///
    /// # Panics
    /// Panics when `m == 0` (instances always have a machine).
    pub fn with_config(m: usize, mode: SearchMode, prop: Propagation) -> Self {
        Self::with_kernels(m, mode, prop, KernelMode::Chunked)
    }

    /// Fully explicit constructor: search mode, propagation mode *and*
    /// kernel mode (the latter for the kernel ablation benches and the
    /// chunked-vs-scalar equivalence tests).
    ///
    /// # Panics
    /// Panics when `m == 0` (instances always have a machine).
    pub fn with_kernels(m: usize, mode: SearchMode, prop: Propagation, kern: KernelMode) -> Self {
        assert!(m > 0, "MachineIndex needs at least one machine");
        let cap = m.next_power_of_two();
        let leaves = vec![MachineStats::EMPTY; m];
        // Flat mode reads nothing but the leaf table: allocate no
        // internal nodes and no dirty bitmap at all.
        let (inner, dirty) = if mode == SearchMode::Flat {
            (Vec::new(), Vec::new())
        } else {
            let dirty = if prop == Propagation::Lazy {
                vec![0u64; m.div_ceil(64)]
            } else {
                Vec::new()
            };
            (vec![NodeStats::IDENTITY; cap], dirty)
        };
        let mut ix = MachineIndex {
            m,
            cap,
            leaves,
            inner,
            dirty,
            any_dirty: false,
            repair_scratch: Vec::new(),
            heap: BinaryHeap::new(),
            dead: vec![0u64; m.div_ceil(64)],
            tombstones: 0,
            mode,
            prop,
            kern,
            bound_scratch: Vec::new(),
            flat_searches: 0,
            sparse_searches: 0,
            heap_searches: 0,
            heap_evals: 0,
            heap_expansions: 0,
        };
        if mode == SearchMode::Heap {
            ix.rebuild_all();
        }
        ix
    }

    /// The search mode in effect.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// The propagation mode in effect.
    pub fn propagation(&self) -> Propagation {
        self.prop
    }

    /// The kernel mode in effect.
    pub fn kernels(&self) -> KernelMode {
        self.kern
    }

    /// Number of machines indexed.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Whether the index covers no machines (never true; see [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Current leaf-stats row of machine `i` (always fresh — the leaf
    /// table is written synchronously, only ancestors are deferred).
    pub fn stats(&self, i: usize) -> &MachineStats {
        &self.leaves[i]
    }

    /// Whether machine `i` is tombstoned (left the pool, or revealed
    /// by a rack-grow without having joined). `false` beyond `m`.
    #[inline]
    pub fn is_tombstoned(&self, i: usize) -> bool {
        i < self.m && (self.dead[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of live (non-tombstoned) machines.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.m - self.tombstones
    }

    /// Number of tombstoned machines.
    #[inline]
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// Snapshot of the index's internal health for ops surfaces: the
    /// cumulative search path mix, the pending lazy-repair backlog
    /// (dirty-leaf popcount), and the live/tombstone split. `O(m/64)`
    /// for the popcount; no index state changes.
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            flat_searches: self.flat_searches,
            sparse_searches: self.sparse_searches,
            heap_searches: self.heap_searches,
            heap_evals: self.heap_evals,
            heap_expansions: self.heap_expansions,
            dirty_leaves: self.dirty.iter().map(|w| w.count_ones() as usize).sum(),
            live: self.live_count(),
            tombstones: self.tombstones,
        }
    }

    /// The [`NodeStats`] view of leaf `i` (identity for padding leaves
    /// beyond `m` and for tombstoned machines, which must never
    /// attract the search).
    #[inline]
    fn leaf_ns(&self, i: usize) -> NodeStats {
        if i < self.m && !self.is_tombstoned(i) {
            NodeStats::leaf(self.leaves[i])
        } else {
            NodeStats::IDENTITY
        }
    }

    /// Stats of an arbitrary node id (internal or leaf).
    #[inline]
    fn node_ns(&self, k: usize) -> NodeStats {
        if k >= self.cap {
            self.leaf_ns(k - self.cap)
        } else {
            self.inner[k]
        }
    }

    /// Rebuilds internal node `k` from its two children.
    #[inline]
    fn recompute(&mut self, k: u32) {
        let k = k as usize;
        let c = 2 * k;
        let (a, b) = if c >= self.cap {
            (self.leaf_ns(c - self.cap), self.leaf_ns(c + 1 - self.cap))
        } else {
            (self.inner[c], self.inner[c + 1])
        };
        self.inner[k] = NodeStats::combine(a, b);
    }

    /// Rebuilds every internal node from the leaf table, bottom-up
    /// (nodes `cap-1..=1` in order).
    fn rebuild_all(&mut self) {
        for k in (1..self.cap).rev() {
            self.recompute(k as u32);
        }
    }

    /// Replaces machine `i`'s stats. Under [`Propagation::Lazy`] (or
    /// [`SearchMode::Flat`], which has no ancestors at all) this is a
    /// single leaf-row store plus a dirty bit; under
    /// [`Propagation::Eager`] the `O(log m)` ancestor path is rebuilt
    /// immediately. Call after every pending-queue mutation.
    pub fn update(&mut self, i: usize, stats: MachineStats) {
        debug_assert!(i < self.m);
        debug_assert!(!self.is_tombstoned(i), "update of a tombstoned machine");
        self.leaves[i] = stats;
        self.propagate(i);
    }

    /// Marks leaf `i`'s ancestors for repair (dirty bit under lazy
    /// propagation, immediate path rebuild under eager, nothing in
    /// flat mode where no ancestors exist). Shared by [`Self::update`]
    /// and the resize paths, whose leaf-visible aggregates change the
    /// same way.
    fn propagate(&mut self, i: usize) {
        if self.mode == SearchMode::Flat {
            return; // no ancestors exist; nothing else to do
        }
        match self.prop {
            Propagation::Lazy => {
                self.dirty[i / 64] |= 1u64 << (i % 64);
                self.any_dirty = true;
            }
            Propagation::Eager => {
                let mut k = (self.cap + i) / 2;
                while k >= 1 {
                    self.recompute(k as u32);
                    k /= 2;
                }
            }
        }
    }

    /// Repairs all pending dirty ancestors now (normally done
    /// automatically by the first search that reads internal nodes).
    /// One batched bottom-up sweep: the dirty leaves' parents are
    /// recomputed level by level with shared ancestors deduplicated,
    /// `O(dirty · log m)` total. No-op when nothing is dirty or in
    /// [`SearchMode::Flat`].
    pub fn flush(&mut self) {
        if !self.any_dirty {
            return;
        }
        self.any_dirty = false;
        if self.cap == 1 {
            // A single leaf has no ancestors; just clear the bits.
            for w in &mut self.dirty {
                *w = 0;
            }
            return;
        }
        let mut frontier = std::mem::take(&mut self.repair_scratch);
        frontier.clear();
        // Dirty machines in increasing order → their (leaf-parent)
        // node ids are non-decreasing, so adjacent dedup suffices.
        let cap = self.cap;
        kernel::walk_set_bits(&self.dirty, |i| {
            let parent = ((cap + i) / 2) as u32;
            if frontier.last() != Some(&parent) {
                frontier.push(parent);
            }
        });
        for word in &mut self.dirty {
            *word = 0;
        }
        // All frontier nodes sit on one level; walk levels up to the
        // root, recomputing each dirty node once.
        loop {
            for &k in &frontier {
                self.recompute(k);
            }
            if frontier[0] == 1 {
                break; // just recomputed the root
            }
            let mut out = 0usize;
            for idx in 0..frontier.len() {
                let parent = frontier[idx] / 2;
                if out == 0 || frontier[out - 1] != parent {
                    frontier[out] = parent;
                    out += 1;
                }
            }
            frontier.truncate(out);
        }
        frontier.clear();
        self.repair_scratch = frontier;
    }

    /// Brings machine `i` into the pool with the given stats row,
    /// growing the index **by rack** when `i` lies beyond the current
    /// width: the leaf table is extended to the next 64-machine word,
    /// machines revealed by the growth start tombstoned (they join
    /// explicitly, like `i` just did), and when the leaf capacity
    /// doubles the old internal tree is **grafted** as the left
    /// subtree of the new one — an `O(cap)` block copy plus one
    /// recomputed spine, never a from-scratch rebuild of aggregates.
    ///
    /// # Panics
    /// Panics if `i` is already live (capacity plans forbid joining an
    /// online machine).
    pub fn join(&mut self, i: usize, stats: MachineStats) {
        if i >= self.m {
            self.grow_to(i + 1);
        }
        assert!(self.is_tombstoned(i), "join of a live machine {i}");
        self.dead[i / 64] &= !(1u64 << (i % 64));
        self.tombstones -= 1;
        self.leaves[i] = stats;
        self.propagate(i);
    }

    /// Removes machine `i` from the pool (drain or crash): its leaf is
    /// tombstoned in place — aggregating as `NodeStats::IDENTITY`
    /// and skipped by every search arm — because machine ids are
    /// indices into every job's `sizes` row and cannot be renumbered
    /// mid-run. When a whole trailing rack ([`COMPACT_TRAILING_RACK`]
    /// machines) is dead, the index auto-[`compact`](Self::compact)s.
    /// Returns `false` (no-op) if `i` was already tombstoned.
    pub fn tombstone(&mut self, i: usize) -> bool {
        if i >= self.m || self.is_tombstoned(i) {
            return false;
        }
        self.dead[i / 64] |= 1u64 << (i % 64);
        self.tombstones += 1;
        self.leaves[i] = MachineStats::EMPTY;
        self.propagate(i);
        if self.trailing_dead() >= COMPACT_TRAILING_RACK {
            self.compact();
        }
        true
    }

    /// Trims trailing tombstoned leaves (interior tombstones are
    /// immovable — ids are fixed), shrinking the leaf capacity to the
    /// next power of two and un-grafting the internal tree (the
    /// inverse block copy of [`Self::join`]'s graft — the discarded
    /// right spine covered only dead leaves, so the kept aggregates,
    /// *including any pending lazy dirt*, remain exactly what a
    /// rebuild would produce). Keeps at least one leaf. Returns the
    /// number of leaves removed.
    pub fn compact(&mut self) -> usize {
        let mut last_live = None;
        for i in (0..self.m).rev() {
            if !self.is_tombstoned(i) {
                last_live = Some(i);
                break;
            }
        }
        let new_m = last_live.map_or(1, |i| i + 1);
        if new_m == self.m {
            return 0;
        }
        // Every trimmed leaf is tombstoned by construction (they are
        // the trailing dead run); a dead leaf 0 kept by the ≥ 1 floor
        // stays counted.
        let removed = self.m - new_m;
        self.tombstones -= removed;
        self.leaves.truncate(new_m);
        let words = new_m.div_ceil(64);
        self.dead.truncate(words);
        if new_m % 64 != 0 {
            self.dead[words - 1] &= u64::MAX >> (64 - new_m % 64);
        }
        if !self.dirty.is_empty() {
            self.dirty.truncate(words);
            if new_m % 64 != 0 {
                self.dirty[words - 1] &= u64::MAX >> (64 - new_m % 64);
            }
            self.any_dirty = self.dirty.iter().any(|&w| w != 0);
        }
        self.m = new_m;
        let new_cap = new_m.next_power_of_two();
        if new_cap != self.cap && self.mode == SearchMode::Heap {
            let ratio = self.cap / new_cap;
            let mut inner = vec![NodeStats::IDENTITY; new_cap];
            for (k, slot) in inner.iter_mut().enumerate().skip(1) {
                *slot = self.inner[k + msb(k) * (ratio - 1)];
            }
            self.inner = inner;
        }
        self.cap = new_cap;
        removed
    }

    /// Number of consecutive tombstoned leaves at the top of the leaf
    /// table, capped at [`COMPACT_TRAILING_RACK`] (only the threshold
    /// comparison matters, so the scan is `O(64)`).
    fn trailing_dead(&self) -> usize {
        let mut n = 0;
        for i in (0..self.m).rev() {
            if !self.is_tombstoned(i) {
                break;
            }
            n += 1;
            if n >= COMPACT_TRAILING_RACK {
                break;
            }
        }
        n
    }

    /// Extends the leaf table to cover machine `new_m - 1`, rounding
    /// the width up to the next 64-machine word (grow-by-rack). All
    /// revealed machines start tombstoned. When the power-of-two leaf
    /// capacity doubles, the old internal tree is grafted as the left
    /// subtree of the new one.
    fn grow_to(&mut self, new_m: usize) {
        debug_assert!(new_m > self.m);
        let new_m = new_m.div_ceil(64) * 64;
        let old_m = self.m;
        self.leaves.resize(new_m, MachineStats::EMPTY);
        let words = new_m.div_ceil(64);
        self.dead.resize(words, 0);
        for i in old_m..new_m {
            self.dead[i / 64] |= 1u64 << (i % 64);
        }
        self.tombstones += new_m - old_m;
        if self.mode == SearchMode::Heap && self.prop == Propagation::Lazy {
            self.dirty.resize(words, 0);
        }
        self.m = new_m;
        let new_cap = new_m.next_power_of_two();
        if new_cap > self.cap && self.mode == SearchMode::Heap {
            let ratio = new_cap / self.cap;
            let mut inner = vec![NodeStats::IDENTITY; new_cap];
            for (k, &ns) in self.inner.iter().enumerate().skip(1) {
                inner[k + msb(k) * (ratio - 1)] = ns;
            }
            self.inner = inner;
            self.cap = new_cap;
            // Recompute the spine above the grafted old root (node
            // `ratio`); every other new node covers only tombstoned
            // leaves and stays IDENTITY.
            let mut j = ratio / 2;
            while j >= 1 {
                self.recompute(j as u32);
                j /= 2;
            }
        } else {
            // Width grew within the existing capacity: the new leaves
            // are tombstoned, which aggregates exactly like the
            // padding they replaced — no ancestor changes.
            self.cap = new_cap;
        }
    }

    /// Pruned argmin with every machine considered eligible; see the
    /// module docs for the bound contract. Returns `(machine, exact
    /// value)` for the lowest-index machine minimizing `eval`, or
    /// `None` when `eval` returns `None` everywhere.
    pub fn search<NB, LB, EV>(
        &mut self,
        node_bound: NB,
        leaf_bound: LB,
        eval: EV,
    ) -> Option<(usize, f64)>
    where
        NB: Fn(&NodeStats, usize, usize) -> f64,
        LB: Fn(usize, &MachineStats) -> f64,
        EV: FnMut(usize) -> Option<f64>,
    {
        self.search_masked(MaskView::All, node_bound, leaf_bound, eval)
    }

    /// Mask-guided pruned argmin: like [`MachineIndex::search`], but
    /// any subtree whose machine range misses `mask` is skipped
    /// without being descended or bounded (see the module docs for the
    /// mask contract: a masked-out machine's `eval` must be `None`, so
    /// skipping cannot change the result). Dispatches on the
    /// [`SearchMode`] chosen at construction; both modes return the
    /// identical lowest-index argmin. Only the heap descent repairs
    /// pending dirty ancestors — the flat pass and the sparse set-bit
    /// walk read the leaf table alone.
    pub fn search_masked<NB, LB, EV>(
        &mut self,
        mask: MaskView<'_>,
        node_bound: NB,
        leaf_bound: LB,
        eval: EV,
    ) -> Option<(usize, f64)>
    where
        NB: Fn(&NodeStats, usize, usize) -> f64,
        LB: Fn(usize, &MachineStats) -> f64,
        EV: FnMut(usize) -> Option<f64>,
    {
        // Generic quad wrapper: evaluates the scalar bound once per
        // lane. The per-lane expression is the scalar expression, so
        // bit-identity holds by construction; the schedulers pass
        // hand-written leaf-row-slice forms instead (see
        // `osr-core::dispatch`), which autovectorize better.
        let lb4 = |lo: usize, rows: &[MachineStats; LANES], out: &mut [f64; LANES]| {
            for k in 0..LANES {
                out[k] = leaf_bound(lo + k, &rows[k]);
            }
        };
        self.search_masked_rows(mask, node_bound, lb4, &leaf_bound, eval)
    }

    /// [`MachineIndex::search_masked`] with an explicit *leaf-row-slice*
    /// bound form: `leaf_bound4` computes four leaves' bounds from an
    /// aligned quad of [`MachineStats`] rows and must evaluate, lane
    /// for lane, exactly what `leaf_bound` computes for one row (the
    /// contract the kernel proptests and the scheduler equivalence
    /// suites pin). Under [`KernelMode::Chunked`] the flat dense arm
    /// runs the fused [`kernel::bound_min4`] fill over the leaf table
    /// before the incumbent pass; under the scalar oracle (and on
    /// every sparse/heap path) `leaf_bound4` is never called.
    pub fn search_masked_rows<NB, LB4, LB, EV>(
        &mut self,
        mask: MaskView<'_>,
        node_bound: NB,
        leaf_bound4: LB4,
        leaf_bound: LB,
        mut eval: EV,
    ) -> Option<(usize, f64)>
    where
        NB: Fn(&NodeStats, usize, usize) -> f64,
        LB4: FnMut(usize, &[MachineStats; LANES], &mut [f64; LANES]),
        LB: Fn(usize, &MachineStats) -> f64,
        EV: FnMut(usize) -> Option<f64>,
    {
        // (value, index) under lexicographic order; `TotalF64` keeps
        // NaN-poisoned bounds from corrupting comparisons.
        let mut best: Option<(f64, usize)> = None;
        let beats = |cand: f64, idx: usize, best: &Option<(f64, usize)>| -> bool {
            match best {
                None => true,
                Some((bv, bi)) => match TotalF64(cand).cmp(&TotalF64(*bv)) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => idx < *bi,
                    std::cmp::Ordering::Greater => false,
                },
            }
        };

        // Leaf-table set-bit walk, shared by the flat mode (any Words
        // mask) and the heap mode's sparse fast path: visits the
        // mask's set bits in increasing index order (the linear scan's
        // visit order and tie-break) with one `trailing_zeros` per
        // candidate — no heap traffic, no internal nodes, cost
        // `O(words + eligible)` regardless of `m`. Reads only the leaf
        // table, so pending dirty ancestors stay unrepaired (a
        // workload whose every job takes this path never rebuilds the
        // internal tree at all).
        macro_rules! bit_walk {
            ($words:expr) => {{
                for (k, &word) in $words.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        let idx = k * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        if idx >= self.m {
                            break;
                        }
                        if self.is_tombstoned(idx) {
                            continue;
                        }
                        let lb = leaf_bound(idx, &self.leaves[idx]);
                        if !beats(lb, idx, &best) {
                            continue;
                        }
                        if let Some(val) = eval(idx) {
                            if beats(val, idx, &best) {
                                best = Some((val, idx));
                            }
                        }
                    }
                }
                return best.map(|(v, i)| (i, v));
            }};
        }

        if self.mode == SearchMode::Flat {
            // Restricted mask: walk its set bits directly — on a
            // rack-affinity workload this touches one mask word and
            // the rack's few leaf rows instead of testing all `m`
            // machines (the last per-arrival `O(m)` term of the flat
            // path, and what pushed the m = 64 affinity row past the
            // linear scan).
            if let MaskView::Words { words, .. } = mask {
                self.sparse_searches += 1;
                bit_walk!(words);
            }
            self.flat_searches += 1;
            // Dense mask: one pass, increasing index,
            // strict-improvement updates — the same visit order and
            // tie-break as the linear scan, minus the exact
            // evaluations the bounds rule out. Reads the leaf table
            // only; no ancestors exist. Under the chunked kernels the
            // bound evaluation runs first as one fused
            // [`kernel::bound_min4`] fill over the whole leaf table
            // (tombstoned rows are EMPTY, their bounds computed but
            // never read), then the incumbent pass consumes the
            // buffered bounds — same values bit for bit, same visit
            // order, same tie-break.
            if self.kern == KernelMode::Chunked {
                let mut scratch = std::mem::take(&mut self.bound_scratch);
                kernel::bound_min4(
                    KernelMode::Chunked,
                    &self.leaves,
                    &mut scratch,
                    leaf_bound4,
                    &leaf_bound,
                );
                for idx in 0..self.m {
                    if self.is_tombstoned(idx) {
                        continue;
                    }
                    let lb = scratch[idx];
                    if !beats(lb, idx, &best) {
                        continue;
                    }
                    if let Some(val) = eval(idx) {
                        if beats(val, idx, &best) {
                            best = Some((val, idx));
                        }
                    }
                }
                self.bound_scratch = scratch;
                return best.map(|(v, i)| (i, v));
            }
            for idx in 0..self.m {
                if self.is_tombstoned(idx) {
                    continue;
                }
                let lb = leaf_bound(idx, &self.leaves[idx]);
                if !beats(lb, idx, &best) {
                    continue;
                }
                if let Some(val) = eval(idx) {
                    if beats(val, idx, &best) {
                        best = Some((val, idx));
                    }
                }
            }
            return best.map(|(v, i)| (i, v));
        }

        // Sparse fast path: when the job is eligible on at most
        // FLAT_MAX_MACHINES machines, the set-bit walk beats any tree
        // descent. This is what makes rack-affinity dispatch scale
        // with the rack size.
        if let MaskView::Words { words, .. } = mask {
            // Only "is the count ≤ the threshold?" matters, so the
            // capped popcount exits as soon as it cannot be — dense
            // masks pay a few words here, not O(m/64).
            if kernel::popcount_capped4(self.kern, words, FLAT_MAX_MACHINES).is_some() {
                self.sparse_searches += 1;
                bit_walk!(words);
            }
        }

        // The heap descent reads internal nodes: repair them first
        // (one batched sweep over everything dirtied since the last
        // descent).
        self.heap_searches += 1;
        self.flush();

        self.heap.clear();
        if mask.any_in_range(0, self.cap) {
            self.heap.push(Reverse(Frontier {
                bound: TotalF64(node_bound(&self.node_ns(1), 0, self.cap)),
                lo: 0,
                node: 1,
                span: self.cap as u32,
            }));
        }

        while let Some(Reverse(e)) = self.heap.pop() {
            if let Some((bv, bi)) = best {
                // The heap is min-ordered by (bound, lo): once the head
                // cannot beat or lower-index-tie the incumbent, nothing
                // behind it can either.
                let cmp = e.bound.cmp(&TotalF64(bv));
                if cmp == std::cmp::Ordering::Greater
                    || (cmp == std::cmp::Ordering::Equal && e.lo as usize >= bi)
                {
                    break;
                }
            }
            if e.node as usize >= self.cap {
                let idx = e.node as usize - self.cap;
                if idx >= self.m || self.is_tombstoned(idx) {
                    continue; // padding or tombstoned leaf
                }
                let lb = leaf_bound(idx, &self.leaves[idx]);
                if !beats(lb, idx, &best) {
                    continue;
                }
                self.heap_evals += 1;
                if let Some(val) = eval(idx) {
                    if beats(val, idx, &best) {
                        best = Some((val, idx));
                    }
                }
            } else {
                self.heap_expansions += 1;
                let half = e.span / 2;
                for (child, lo) in [(2 * e.node, e.lo), (2 * e.node + 1, e.lo + half)] {
                    // Mask first: a range with no eligible machine is
                    // skipped without even computing its bound.
                    if !mask.any_in_range(lo as usize, half as usize) {
                        continue;
                    }
                    let b = node_bound(&self.node_ns(child as usize), lo as usize, half as usize);
                    if beats(b, lo as usize, &best) {
                        self.heap.push(Reverse(Frontier {
                            bound: TotalF64(b),
                            lo,
                            node: child,
                            span: half,
                        }));
                    }
                }
            }
        }
        best.map(|(v, i)| (i, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(count: u64, wsum: f64, min: f64) -> MachineStats {
        MachineStats {
            count,
            wsum,
            min_size: min,
        }
    }

    /// Exhaustive reference: lowest-index argmin over eval.
    fn linear_argmin(values: &[Option<f64>]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, v) in values.iter().enumerate() {
            if let Some(v) = v {
                if best.is_none_or(|(_, bv)| *v < bv) {
                    best = Some((i, *v));
                }
            }
        }
        best
    }

    /// Searches with bounds equal to the exact values (tightest legal).
    fn search_exact(ix: &mut MachineIndex, values: &[Option<f64>]) -> Option<(usize, f64)> {
        // Node bound: no per-leaf info, so use the global min value —
        // a legal (if clairvoyant) lower bound.
        let global = values
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        ix.search(
            |_, _, _| global,
            |i, _| values[i].unwrap_or(f64::INFINITY),
            |i| values[i],
        )
    }

    #[test]
    fn shard_mask_rebase_slices_whole_racks() {
        // Global mask over 200 machines: bits 3, 64, 100, 199.
        let mut words = vec![0u64; 4];
        for i in [3usize, 64, 100, 199] {
            words[i / 64] |= 1 << (i % 64);
        }
        let summary = vec![0b1111u64];
        let global = MaskView::Words {
            words: &words,
            summary: &summary,
        };
        let mut scratch = ShardMaskScratch::new();
        // Shard of racks 1..3 (machines 64..192): sees 64→0, 100→36.
        let v = scratch.rebase(global, 64, 128);
        assert!(v.test(0) && v.test(36));
        assert!(!v.test(3) && !v.test(64 + 36));
        assert!(v.any_in_range(0, 64));
        assert!(!v.any_in_range(64, 64), "rack 2 is empty in this shard");
        // Final shard (machines 192..200): 199→7.
        let mut scratch2 = ShardMaskScratch::new();
        let v = scratch2.rebase(global, 192, 8);
        assert!(v.test(7));
        assert!(!v.test(0));
        // A shard past the mask's width sees nothing (and must not panic).
        let mut scratch3 = ShardMaskScratch::new();
        let v = scratch3.rebase(global, 256, 64);
        assert!(!v.test(0));
        assert!(!v.any_in_range(0, 64));
        // All-mask passes through untouched.
        let mut scratch4 = ShardMaskScratch::new();
        assert!(matches!(
            scratch4.rebase(MaskView::All, 64, 128),
            MaskView::All
        ));
    }

    #[test]
    fn aggregates_maintained_bottom_up() {
        for prop in [Propagation::Eager, Propagation::Lazy] {
            let mut ix = MachineIndex::with_config(5, SearchMode::Heap, prop);
            ix.update(2, busy(3, 7.5, 1.25));
            ix.update(4, busy(1, 2.0, 2.0));
            ix.flush();
            assert_eq!(ix.stats(2).count, 3);
            assert_eq!(ix.inner[1].min_count, 0); // machines 0,1,3 empty
            assert_eq!(ix.inner[1].max_wsum, 7.5);
            assert_eq!(ix.inner[1].min_size, 1.25);
            ix.update(2, MachineStats::EMPTY);
            ix.flush();
            assert_eq!(ix.inner[1].max_wsum, 2.0);
            assert_eq!(ix.inner[1].min_size, 2.0);
        }
    }

    /// Satellite lock (PR 5): a flat-mode index must skip ancestor
    /// maintenance *entirely* — it allocates no internal-node array
    /// and no dirty bitmap, and arbitrary mutations leave both empty
    /// (the leaf table is the only state), while searches stay exact.
    #[test]
    fn flat_mode_never_touches_ancestors() {
        for prop in [Propagation::Eager, Propagation::Lazy] {
            let mut ix = MachineIndex::with_config(64, SearchMode::Flat, prop);
            assert!(ix.inner.is_empty(), "flat mode must allocate no ancestors");
            assert!(ix.dirty.is_empty(), "flat mode needs no dirty bitmap");
            let mut values = vec![None; 64];
            for i in 0..64 {
                ix.update(i, busy(1 + (i % 5) as u64, i as f64, 1.0 + (i % 3) as f64));
                values[i] = Some(((i * 37) % 19) as f64);
            }
            // Still no ancestor slot exists, let alone changed.
            assert!(ix.inner.is_empty());
            assert!(ix.dirty.is_empty());
            assert!(!ix.any_dirty);
            // And flush is a no-op that cannot panic.
            ix.flush();
            assert_eq!(search_exact(&mut ix, &values), linear_argmin(&values));
            // Leaf rows are written synchronously.
            assert_eq!(ix.stats(3).wsum, 3.0);
        }
    }

    /// Lazy repair must produce exactly the aggregates a from-scratch
    /// rebuild would, across interleaved mutations and searches —
    /// including dirty runs that span the 64-machine bitmap word
    /// boundary.
    #[test]
    fn lazy_repair_matches_eager_and_rebuild() {
        for m in [5usize, 63, 64, 65, 130, 200] {
            let mut lazy = MachineIndex::with_config(m, SearchMode::Heap, Propagation::Lazy);
            let mut eager = MachineIndex::with_config(m, SearchMode::Heap, Propagation::Eager);
            let mut shadow = vec![MachineStats::EMPTY; m];
            let mut state = 0x5EED ^ (m as u64);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for round in 0..40 {
                // A burst of mutations (biased to straddle word
                // boundaries when m allows), then one search.
                for _ in 0..(1 + next() % 7) {
                    let i = if m > 66 && next() % 2 == 0 {
                        62 + (next() % 6) as usize // 62..68: spans words 0/1
                    } else {
                        (next() % m as u64) as usize
                    };
                    let s = busy(next() % 9, (next() % 50) as f64 / 4.0, 1.0);
                    lazy.update(i, s);
                    eager.update(i, s);
                    shadow[i] = s;
                }
                let values: Vec<Option<f64>> = shadow
                    .iter()
                    .map(|s| (s.count % 3 != 0).then_some(s.wsum + s.count as f64))
                    .collect();
                let expected = linear_argmin(&values);
                let got_lazy = search_exact(&mut lazy, &values);
                let got_eager = search_exact(&mut eager, &values);
                assert_eq!(got_lazy, expected, "m={m} round={round} lazy");
                assert_eq!(got_eager, expected, "m={m} round={round} eager");
                // After the search-triggered repair the internal nodes
                // must equal a from-scratch rebuild's, slot for slot.
                let mut fresh = MachineIndex::with_config(m, SearchMode::Heap, Propagation::Eager);
                for (i, s) in shadow.iter().enumerate() {
                    fresh.update(i, *s);
                }
                assert_eq!(lazy.inner, fresh.inner, "m={m} round={round}");
                assert_eq!(eager.inner, fresh.inner, "m={m} round={round}");
            }
        }
    }

    /// The sparse set-bit walk must answer correctly *without*
    /// repairing dirty ancestors (it reads the leaf table only).
    #[test]
    fn sparse_walk_skips_repair() {
        let m = 1024;
        let mut ix = MachineIndex::with_config(m, SearchMode::Heap, Propagation::Lazy);
        for i in 0..m {
            ix.update(i, busy(1 + (i % 4) as u64, i as f64, 1.0));
        }
        assert!(ix.any_dirty);
        // A 16-machine mask: sparse walk territory.
        let mut words = vec![0u64; m / 64];
        for g in 0..16 {
            words[g] |= 1 << 7;
        }
        let mut summary = vec![0u64; 1];
        for (k, w) in words.iter().enumerate() {
            if *w != 0 {
                summary[0] |= 1 << k;
            }
        }
        let values: Vec<Option<f64>> = (0..m)
            .map(|i| (i % 64 == 7 && i / 64 < 16).then(|| ((i * 13) % 29) as f64))
            .collect();
        let got = ix.search_masked(
            MaskView::Words {
                words: &words,
                summary: &summary,
            },
            |_, _, _| 0.0,
            |i, _| values[i].unwrap_or(f64::INFINITY),
            |i| values[i],
        );
        assert_eq!(got, linear_argmin(&values));
        // Dirt untouched: the walk never looked at the internal tree.
        assert!(ix.any_dirty, "sparse walk must not trigger repair");
        // A dense (All-mask) search then repairs and still agrees.
        let dense: Vec<Option<f64>> = (0..m).map(|i| Some(((i * 31) % 97) as f64)).collect();
        let got = search_exact(&mut ix, &dense);
        assert_eq!(got, linear_argmin(&dense));
        assert!(!ix.any_dirty);
    }

    #[test]
    fn search_finds_lowest_index_argmin_on_ties() {
        for m in [1usize, 2, 3, 7, 8, 9, 30] {
            let mut ix = MachineIndex::new(m);
            // All machines tie at 5.0 → index 0 must win.
            let values: Vec<Option<f64>> = vec![Some(5.0); m];
            assert_eq!(search_exact(&mut ix, &values), Some((0, 5.0)));
            // A strict winner beats an earlier tie.
            if m >= 3 {
                let mut v = vec![Some(5.0); m];
                v[m - 1] = Some(4.0);
                assert_eq!(search_exact(&mut ix, &v), Some((m - 1, 4.0)));
            }
        }
    }

    #[test]
    fn search_skips_ineligible_and_handles_none() {
        let mut ix = MachineIndex::new(4);
        let values = vec![None, Some(9.0), None, Some(9.0)];
        assert_eq!(search_exact(&mut ix, &values), Some((1, 9.0)));
        let none: Vec<Option<f64>> = vec![None; 4];
        assert_eq!(search_exact(&mut ix, &none), None);
    }

    #[test]
    fn loose_bounds_never_change_the_answer() {
        // Deterministic pseudo-random cross-check: arbitrary stats,
        // arbitrary values, bounds that understate by varying slack.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let m = 1 + (next() % 33) as usize;
            let values: Vec<Option<f64>> = (0..m)
                .map(|_| {
                    if next() % 5 == 0 {
                        None
                    } else {
                        Some((next() % 1000) as f64 / 10.0)
                    }
                })
                .collect();
            let slack = (next() % 50) as f64 / 10.0;
            let mut ix = MachineIndex::new(m);
            let expected = linear_argmin(&values);
            let got = ix.search(
                |_, _, _| 0.0,
                |i, _| values[i].map_or(f64::INFINITY, |v| (v - slack).max(0.0)),
                |i| values[i],
            );
            assert_eq!(got, expected, "trial {trial} m {m} slack {slack}");
        }
    }

    #[test]
    fn pruning_skips_exact_evaluations() {
        // One cheap machine among many expensive ones: with tight
        // bounds, the search must not evaluate every leaf. (Heap mode
        // explicitly — m = 64 auto-selects the flat scan.)
        let m = 64;
        let mut ix = MachineIndex::with_mode(m, SearchMode::Heap);
        for i in 0..m {
            ix.update(
                i,
                if i == 5 {
                    MachineStats::EMPTY
                } else {
                    busy(10, 100.0, 10.0)
                },
            );
        }
        let mut evals = 0usize;
        let got = ix.search(
            // Bound from stats: empty queues promise 1.0, busy ones 50.0.
            |s, _, _| if s.min_count == 0 { 1.0 } else { 50.0 },
            |_, s| if s.count == 0 { 1.0 } else { 50.0 },
            |i| {
                evals += 1;
                Some(if i == 5 { 1.0 } else { 50.0 })
            },
        );
        assert_eq!(got, Some((5, 1.0)));
        assert!(evals < m / 2, "pruning ineffective: {evals} evals");
    }

    /// Range-aware node bounds: the search hands every node its
    /// `(lo, span)` machine range, so callers can tighten bounds with
    /// range-local data (the rack-p̂ mechanism). Tightening a bound
    /// must never change the answer — only the number of exact
    /// evaluations.
    #[test]
    fn range_aware_bounds_prune_more_but_agree() {
        let m = 512;
        // Exact values: machines in [256, 320) are cheap (value 1+…),
        // everyone else expensive (100+…) — but a *global* lower bound
        // cannot see that.
        let value = |i: usize| {
            if (256..320).contains(&i) {
                1.0 + (i % 7) as f64 * 0.1
            } else {
                100.0 + (i % 7) as f64 * 0.1
            }
        };
        let mut blind_evals = 0usize;
        let mut ranged_evals = 0usize;
        let mut ix = MachineIndex::with_mode(m, SearchMode::Heap);
        let blind = ix.search(
            |_, _, _| 1.0, // global: every subtree promises the best case
            |_, _| 1.0,
            |i| {
                blind_evals += 1;
                Some(value(i))
            },
        );
        let ranged = ix.search(
            |_, lo, span| {
                // Range-local: only ranges overlapping [256, 320) may
                // contain a cheap machine.
                if lo < 320 && lo + span > 256 {
                    1.0
                } else {
                    100.0
                }
            },
            |i, _| if (256..320).contains(&i) { 1.0 } else { 100.0 },
            |i| {
                ranged_evals += 1;
                Some(value(i))
            },
        );
        let values: Vec<Option<f64>> = (0..m).map(|i| Some(value(i))).collect();
        assert_eq!(blind, ranged);
        assert_eq!(blind, linear_argmin(&values));
        assert!(
            ranged_evals < blind_evals,
            "range bounds should prune more: {ranged_evals} vs {blind_evals}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_panics() {
        let _ = MachineIndex::new(0);
    }

    #[test]
    fn mode_auto_selection_follows_the_crossover() {
        assert_eq!(MachineIndex::new(1).mode(), SearchMode::Flat);
        assert_eq!(
            MachineIndex::new(FLAT_MAX_MACHINES).mode(),
            SearchMode::Flat
        );
        assert_eq!(
            MachineIndex::new(FLAT_MAX_MACHINES + 1).mode(),
            SearchMode::Heap
        );
        assert_eq!(MachineIndex::new(8).propagation(), Propagation::Lazy);
        assert_eq!(MachineIndex::new(8).kernels(), KernelMode::Chunked);
    }

    /// Deterministic xorshift for the randomized cross-checks below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Satellite lock for the flat bound-scan variant: at the
    /// crossover boundary (m = 63, 64, 65) the flat pass, the heap
    /// search, and the exhaustive linear reference must return the
    /// identical `(value, index)` — including ties, `None`s, and
    /// deliberately slack bounds.
    #[test]
    fn flat_and_heap_agree_at_the_crossover_boundary() {
        for m in [
            FLAT_MAX_MACHINES - 1,
            FLAT_MAX_MACHINES,
            FLAT_MAX_MACHINES + 1,
        ] {
            let mut state = 0xC0FFEE ^ ((m as u64) << 17);
            for trial in 0..50 {
                // Tie-heavy value set (values from a small grid, ~1/6
                // ineligible) with random per-trial bound slack.
                let values: Vec<Option<f64>> = (0..m)
                    .map(|_| {
                        if xorshift(&mut state).is_multiple_of(6) {
                            None
                        } else {
                            Some((xorshift(&mut state) % 8) as f64)
                        }
                    })
                    .collect();
                let slack = (xorshift(&mut state) % 30) as f64 / 10.0;
                let expected = linear_argmin(&values);
                for mode in [SearchMode::Flat, SearchMode::Heap] {
                    let mut ix = MachineIndex::with_mode(m, mode);
                    let got = ix.search(
                        |_, _, _| 0.0,
                        |i, _| values[i].map_or(f64::INFINITY, |v| (v - slack).max(0.0)),
                        |i| values[i],
                    );
                    assert_eq!(got, expected, "m={m} trial={trial} mode={mode:?}");
                }
                // The auto-selected mode agrees too (whichever it is).
                let mut ix = MachineIndex::new(m);
                let got = ix.search(|_, _, _| 0.0, |_, _| 0.0, |i| values[i]);
                assert_eq!(got, expected, "m={m} trial={trial} auto");
            }
        }
    }

    /// Builds the two word layers of a stride mask: machine `i`
    /// eligible iff `i % groups == g`.
    fn stride_mask(m: usize, groups: usize, g: usize) -> (Vec<u64>, Vec<u64>) {
        let mut words = vec![0u64; m.div_ceil(64)];
        for i in (g..m).step_by(groups) {
            words[i / 64] |= 1 << (i % 64);
        }
        let mut summary = vec![0u64; words.len().div_ceil(64)];
        for (k, w) in words.iter().enumerate() {
            if *w != 0 {
                summary[k / 64] |= 1 << (k % 64);
            }
        }
        (words, summary)
    }

    #[test]
    fn mask_view_range_intersection_is_exact() {
        // Small strided mask: every aligned range answer must equal
        // the brute-force bit scan.
        let m = 200;
        let (words, summary) = stride_mask(m, 7, 3);
        let mask = MaskView::Words {
            words: &words,
            summary: &summary,
        };
        let cap = m.next_power_of_two();
        let mut span = cap;
        while span >= 1 {
            for lo in (0..cap).step_by(span) {
                let expect = (lo..lo + span).any(|i| i < m && i % 7 == 3);
                assert_eq!(mask.any_in_range(lo, span), expect, "lo={lo} span={span}");
            }
            span /= 2;
        }
        // Ranges entirely past the mask words are empty, not a panic.
        assert!(!mask.any_in_range(256, 256));
        assert!(MaskView::All.any_in_range(0, 1 << 20));
    }

    #[test]
    fn mask_view_summary_layer_handles_big_spans() {
        // m = 8192: spans above 4096 exercise the summary *scan* arm,
        // spans in (64, 4096] the single-summary-word arm.
        let m = 8192;
        // Only machines 6000..6064 eligible — a single hot word region.
        let mut words = vec![0u64; m / 64];
        for i in 6000..6064 {
            words[i / 64] |= 1 << (i % 64);
        }
        let mut summary = vec![0u64; words.len().div_ceil(64)];
        for (k, w) in words.iter().enumerate() {
            if *w != 0 {
                summary[k / 64] |= 1 << (k % 64);
            }
        }
        let mask = MaskView::Words {
            words: &words,
            summary: &summary,
        };
        assert!(mask.any_in_range(0, 8192));
        assert!(mask.any_in_range(4096, 4096));
        assert!(!mask.any_in_range(0, 4096));
        assert!(mask.any_in_range(4096, 2048));
        assert!(!mask.any_in_range(6144, 2048));
        assert!(mask.any_in_range(5888, 256));
        assert!(mask.test(6000) && !mask.test(5999));
    }

    /// The mask-guided descent must (a) return exactly the unmasked
    /// answer when masked-out machines evaluate to `None` anyway, and
    /// (b) never descend into — bound, or exactly evaluate — a
    /// mask-empty subtree.
    #[test]
    fn masked_search_skips_ineligible_subtrees_in_both_modes() {
        // Eligible counts straddle the sparse fast path's threshold:
        // 64/8 and 512/16 stay at or below FLAT_MAX_MACHINES (bit-walk
        // arm), 2048/16 = 128 eligible exceeds it (true mask-guided
        // heap descent).
        for (m, groups) in [(64usize, 8usize), (512, 16), (2_048, 16)] {
            for g in [0, groups - 1] {
                let (words, summary) = stride_mask(m, groups, g);
                let mut values: Vec<Option<f64>> = vec![None; m];
                let mut state = 0xABCDEF ^ (m * groups + g) as u64;
                for i in (g..m).step_by(groups) {
                    values[i] = Some((xorshift(&mut state) % 100) as f64 / 7.0);
                }
                let expected = linear_argmin(&values);
                for mode in [SearchMode::Flat, SearchMode::Heap] {
                    let mut ix = MachineIndex::with_mode(m, mode);
                    for i in 0..m {
                        ix.update(i, busy(1 + (i % 3) as u64, 4.0, 1.0));
                    }
                    let mut evals = 0usize;
                    let got = ix.search_masked(
                        MaskView::Words {
                            words: &words,
                            summary: &summary,
                        },
                        |_, _, _| 0.0,
                        |_, _| 0.0,
                        |i| {
                            evals += 1;
                            assert_eq!(i % groups, g, "evaluated a masked-out machine");
                            values[i]
                        },
                    );
                    assert_eq!(got, expected, "m={m} g={g} mode={mode:?}");
                    assert!(
                        evals <= m / groups,
                        "m={m} g={g} mode={mode:?}: {evals} evals > eligible count"
                    );
                }
            }
        }
    }

    /// From-scratch rebuild oracle for the resize tests: a fresh index
    /// of the given width whose liveness and leaf rows are installed
    /// directly (bypassing the incremental paths), then aggregated
    /// bottom-up — exactly what "tear it down and rebuild" would
    /// produce after any churn history.
    fn rebuild_oracle(live: &[Option<MachineStats>], mode: SearchMode) -> MachineIndex {
        let mut ix = MachineIndex::with_config(live.len(), mode, Propagation::Eager);
        for (i, s) in live.iter().enumerate() {
            match s {
                Some(s) => ix.leaves[i] = *s,
                None => {
                    ix.dead[i / 64] |= 1u64 << (i % 64);
                    ix.tombstones += 1;
                }
            }
        }
        if mode == SearchMode::Heap {
            for k in (1..ix.cap).rev() {
                ix.recompute(k as u32);
            }
        }
        ix
    }

    /// Satellite lock (PR 6): the incremental resize paths —
    /// grow-by-rack joins, in-place tombstones for drain/crash,
    /// auto- and explicit compaction — interleaved with updates and
    /// searches must stay bit-identical to the rebuild oracle (inner
    /// array slot for slot) and to the exhaustive linear reference
    /// (search results), at the flat/heap crossover boundary, in all
    /// four mode × propagation variants.
    #[test]
    fn resize_interleaving_matches_rebuild_oracle() {
        for m0 in [63usize, 64, 65] {
            for mode in [SearchMode::Flat, SearchMode::Heap] {
                for prop in [Propagation::Eager, Propagation::Lazy] {
                    let mut ix = MachineIndex::with_config(m0, mode, prop);
                    // Shadow truth: Some(stats) = live, None = dead.
                    // May extend beyond the index width after a
                    // compact (those entries are all dead).
                    let mut shadow: Vec<Option<MachineStats>> = vec![Some(MachineStats::EMPTY); m0];
                    let mut state =
                        0xE1A5_7100 ^ ((m0 as u64) << 8) ^ ((mode == SearchMode::Flat) as u64);
                    for round in 0..150 {
                        match xorshift(&mut state) % 10 {
                            0..=3 => {
                                // update a random live machine
                                let live: Vec<usize> = (0..ix.len())
                                    .filter(|&i| shadow.get(i).is_some_and(|s| s.is_some()))
                                    .collect();
                                if let Some(&i) =
                                    live.get((xorshift(&mut state) as usize) % live.len().max(1))
                                {
                                    let s = busy(
                                        xorshift(&mut state) % 9,
                                        (xorshift(&mut state) % 50) as f64 / 4.0,
                                        1.0 + (xorshift(&mut state) % 3) as f64,
                                    );
                                    ix.update(i, s);
                                    shadow[i] = Some(s);
                                }
                            }
                            4 | 5 => {
                                // drain/crash a random machine (no-op if dead
                                // or already compacted away)
                                let i = (xorshift(&mut state) as usize) % shadow.len();
                                if i < ix.len() {
                                    assert_eq!(ix.tombstone(i), shadow[i].is_some());
                                } else {
                                    assert!(!ix.tombstone(i), "beyond-width tombstone must no-op");
                                }
                                shadow[i] = None;
                            }
                            6 | 7 => {
                                // re-join a dead machine within the width
                                let dead: Vec<usize> = (0..ix.len())
                                    .filter(|&i| shadow.get(i).is_none_or(|s| s.is_none()))
                                    .collect();
                                if !dead.is_empty() {
                                    let i = dead[(xorshift(&mut state) as usize) % dead.len()];
                                    let s = busy(xorshift(&mut state) % 4, 2.0, 1.5);
                                    ix.join(i, s);
                                    if i >= shadow.len() {
                                        shadow.resize(i + 1, None);
                                    }
                                    shadow[i] = Some(s);
                                }
                            }
                            8 => {
                                // join beyond the width: grow-by-rack
                                let i = ix.len() + (xorshift(&mut state) as usize) % 40;
                                let s = busy(1, 3.0, 2.0);
                                ix.join(i, s);
                                if i >= shadow.len() {
                                    shadow.resize(i + 1, None);
                                }
                                shadow[i] = Some(s);
                            }
                            _ => {
                                ix.compact();
                            }
                        }
                        // The shadow beyond the (possibly compacted)
                        // width must be all-dead; the width itself may
                        // lag the shadow only by dead entries.
                        for (i, s) in shadow.iter().enumerate().skip(ix.len()) {
                            assert!(s.is_none(), "live machine {i} beyond width {}", ix.len());
                        }
                        if shadow.len() < ix.len() {
                            shadow.resize(ix.len(), None);
                        }
                        let width = ix.len();
                        assert_eq!(
                            ix.live_count(),
                            shadow[..width].iter().filter(|s| s.is_some()).count(),
                            "m0={m0} round={round}"
                        );

                        // Search agreement with the linear reference
                        // over live machines (every ~1/5 value is
                        // ineligible to exercise None handling).
                        let values: Vec<Option<f64>> = (0..width)
                            .map(|i| match shadow[i] {
                                None => None,
                                Some(s) => (!(s.count + i as u64).is_multiple_of(5))
                                    .then_some(s.wsum + (i % 13) as f64),
                            })
                            .collect();
                        assert_eq!(
                            search_exact(&mut ix, &values),
                            linear_argmin(&values),
                            "m0={m0} mode={mode:?} prop={prop:?} round={round}"
                        );

                        // Rebuild-oracle byte-identity: same width,
                        // capacity, liveness, leaf rows, and (after
                        // the search-triggered flush above) the same
                        // internal aggregates slot for slot.
                        let oracle = rebuild_oracle(&shadow[..width], mode);
                        assert_eq!(ix.m, oracle.m);
                        assert_eq!(ix.cap, oracle.cap, "m0={m0} round={round}");
                        assert_eq!(ix.dead, oracle.dead);
                        assert_eq!(ix.tombstones, oracle.tombstones);
                        assert_eq!(
                            ix.leaves, oracle.leaves,
                            "m0={m0} mode={mode:?} prop={prop:?} round={round}"
                        );
                        assert_eq!(
                            ix.inner, oracle.inner,
                            "m0={m0} mode={mode:?} prop={prop:?} round={round}"
                        );
                    }
                }
            }
        }
    }

    /// Grow-by-rack granularity and the cap-doubling graft: joining
    /// one machine beyond the width extends the leaf table to the next
    /// 64-machine word (revealed machines tombstoned), and the old
    /// internal tree survives the graft bit for bit.
    #[test]
    fn join_grows_by_rack_and_grafts() {
        let mut ix = MachineIndex::with_config(5, SearchMode::Heap, Propagation::Eager);
        for i in 0..5 {
            ix.update(i, busy(2 + i as u64, i as f64, 1.0));
        }
        let before_root = ix.inner[1];
        ix.join(70, busy(1, 0.5, 0.5));
        // Width rounds to the rack containing 70; cap doubles 8 → 128.
        assert_eq!(ix.len(), 128);
        assert_eq!(ix.cap, 128);
        assert!(ix.is_tombstoned(5), "revealed machines start tombstoned");
        assert!(ix.is_tombstoned(127));
        assert!(!ix.is_tombstoned(70));
        assert_eq!(ix.live_count(), 6);
        // The grafted left subtree still aggregates the old machines;
        // the root now also sees machine 70's row.
        assert_eq!(ix.inner[1].min_wsum, 0.0); // machine 0's wsum
        assert_eq!(ix.inner[1].min_size, 0.5);
        let _ = before_root;
        // Search still finds the lowest-index argmin across the pool.
        let values: Vec<Option<f64>> = (0..128)
            .map(|i| (!ix.is_tombstoned(i)).then_some(((i * 7) % 11) as f64))
            .collect();
        assert_eq!(search_exact(&mut ix, &values), linear_argmin(&values));
    }

    /// Tombstoning a whole trailing rack auto-compacts; interior
    /// tombstones are left in place (ids are immovable).
    #[test]
    fn trailing_rack_tombstones_auto_compact() {
        let mut ix = MachineIndex::with_config(130, SearchMode::Heap, Propagation::Lazy);
        // Kill an interior machine: no compaction.
        assert!(ix.tombstone(40));
        assert_eq!(ix.len(), 130);
        // Kill the top 66 machines: once the trailing dead run reaches
        // a full rack (at machine 66) the index trims back to the last
        // live leaf; the final two tombstones never re-reach a rack.
        for i in (64..130).rev() {
            ix.tombstone(i);
        }
        assert_eq!(ix.len(), 66, "auto-compacted at the rack boundary");
        // An explicit compact trims the rest of the dead tail.
        ix.compact();
        assert_eq!(ix.len(), 64, "compacted to the last live leaf + 1");
        assert_eq!(ix.cap, 64);
        assert!(ix.is_tombstoned(40), "interior tombstone survives");
        assert_eq!(ix.live_count(), 63);
        // The compacted index still answers exactly.
        let values: Vec<Option<f64>> = (0..64)
            .map(|i| (i != 40).then_some(((i * 5) % 17) as f64))
            .collect();
        assert_eq!(search_exact(&mut ix, &values), linear_argmin(&values));
        // And a machine can re-join where the tail used to be.
        ix.join(129, busy(0, 0.0, f64::INFINITY));
        assert_eq!(ix.len(), 192);
        assert!(!ix.is_tombstoned(129));
    }

    /// Compacting an all-dead pool keeps one (tombstoned) leaf, and
    /// every search over it returns `None`.
    #[test]
    fn all_dead_pool_compacts_to_one_leaf() {
        for mode in [SearchMode::Flat, SearchMode::Heap] {
            let mut ix = MachineIndex::with_config(10, mode, Propagation::Lazy);
            for i in 0..10 {
                ix.tombstone(i);
            }
            ix.compact();
            assert_eq!(ix.len(), 1);
            assert_eq!(ix.live_count(), 0);
            assert_eq!(ix.tombstone_count(), 1);
            let got = ix.search(|_, _, _| 0.0, |_, _| 0.0, |_| Some(1.0));
            assert_eq!(got, None, "{mode:?}: tombstoned leaves never win");
            // Rejoining revives the pool.
            ix.join(0, MachineStats::EMPTY);
            let got = ix.search(|_, _, _| 0.0, |_, _| 0.0, |_| Some(1.0));
            assert_eq!(got, Some((0, 1.0)));
        }
    }

    /// The ops snapshot attributes each search to the arm that
    /// answered it and reports the lazy-repair backlog.
    #[test]
    fn index_stats_track_the_search_path_mix() {
        // Flat mode, dense mask → flat arm.
        let mut flat = MachineIndex::with_mode(16, SearchMode::Flat);
        let _ = flat.search(|_, _, _| 0.0, |_, _| 0.0, |i| Some(i as f64));
        let s = flat.index_stats();
        assert_eq!(
            (s.flat_searches, s.sparse_searches, s.heap_searches),
            (1, 0, 0)
        );
        assert_eq!(s.live, 16);
        assert_eq!(s.searches(), 1);

        // Heap mode: a sparse mask takes the bit walk (leaving dirt in
        // place), a dense search takes the heap descent (repairing it).
        let m = 256;
        let mut ix = MachineIndex::with_config(m, SearchMode::Heap, Propagation::Lazy);
        for i in 0..m {
            ix.update(i, busy(1, 1.0, 1.0));
        }
        assert_eq!(ix.index_stats().dirty_leaves, m);
        let (words, summary) = stride_mask(m, 64, 3);
        let _ = ix.search_masked(
            MaskView::Words {
                words: &words,
                summary: &summary,
            },
            |_, _, _| 0.0,
            |_, _| 0.0,
            |i| Some(i as f64),
        );
        let s = ix.index_stats();
        assert_eq!(
            (s.flat_searches, s.sparse_searches, s.heap_searches),
            (0, 1, 0)
        );
        assert_eq!(
            s.dirty_leaves, m,
            "sparse walk leaves the backlog untouched"
        );
        let _ = ix.search(|_, _, _| 0.0, |_, _| 0.0, |i| Some(i as f64));
        let s = ix.index_stats();
        assert_eq!(
            (s.flat_searches, s.sparse_searches, s.heap_searches),
            (0, 1, 1)
        );
        assert_eq!(s.dirty_leaves, 0, "heap descent repairs the backlog");

        // Shard snapshots merge componentwise.
        let mut merged = flat.index_stats();
        merged.merge(&s);
        assert_eq!(merged.searches(), 3);
        assert_eq!(merged.live, 16 + m);
    }

    /// `heap_evals` counts exactly the `eval` calls heap descents make:
    /// randomized stats, slack bounds and a mix of dense and sparse
    /// masks, with the flat and sparse arms contributing nothing.
    #[test]
    fn heap_evals_count_every_heap_eval_call() {
        let mut state = 0xBADC0DEu64;
        for (m, mode) in [
            (48usize, SearchMode::Flat),
            (200, SearchMode::Heap),
            (1_024, SearchMode::Heap),
        ] {
            let mut ix = MachineIndex::with_config(m, mode, Propagation::Lazy);
            let mut calls = 0u64;
            for round in 0..40 {
                for _ in 0..8 {
                    let i = (xorshift(&mut state) % m as u64) as usize;
                    let c = xorshift(&mut state) % 4;
                    ix.update(
                        i,
                        if c == 0 {
                            MachineStats::EMPTY
                        } else {
                            busy(c, c as f64, 1.0 + (c % 3) as f64)
                        },
                    );
                }
                let slack = (round % 3) as f64;
                let value = |i: usize, s: &MachineStats| 1.0 + s.count as f64 + (i % 5) as f64;
                let stats: Vec<MachineStats> = (0..m).map(|i| *ix.stats(i)).collect();
                let before = ix.index_stats();
                let dense = round % 4 != 0;
                let (words, summary) = stride_mask(m, 96, round % 96);
                let mask = if dense {
                    MaskView::All
                } else {
                    MaskView::Words {
                        words: &words,
                        summary: &summary,
                    }
                };
                let mut evals = 0u64;
                let _ = ix.search_masked(
                    mask,
                    |ns, _, _| 1.0 + ns.min_count as f64 - slack,
                    |_, s| 1.0 + s.count as f64 - slack,
                    |i| {
                        evals += 1;
                        Some(value(i, &stats[i]))
                    },
                );
                let after = ix.index_stats();
                if after.heap_searches > before.heap_searches {
                    calls += evals;
                } else {
                    assert_eq!(after.heap_evals, before.heap_evals, "m={m}");
                }
            }
            let s = ix.index_stats();
            assert_eq!(s.heap_evals, calls, "m={m}");
            if mode == SearchMode::Flat {
                assert_eq!(s.heap_evals, 0);
            } else {
                assert!(s.heap_searches > 0 && s.heap_evals >= s.heap_searches);
            }
        }
        // Merging sums the counter like the others.
        let mut a = IndexStats {
            heap_evals: 3,
            ..IndexStats::default()
        };
        a.merge(&IndexStats {
            heap_evals: 4,
            ..IndexStats::default()
        });
        assert_eq!(a.heap_evals, 7);
    }

    /// `heap_expansions` counts exactly the internal nodes heap descents
    /// expand: every child bound names its parent `(lo, span)`, each
    /// node is expanded at most once, so the distinct parents of one
    /// descent's child-bound calls are its expansions.
    #[test]
    fn heap_expansions_count_every_expanded_node() {
        use std::cell::RefCell;
        use std::collections::BTreeSet;
        let mut state = 0xE4A9u64;
        for (m, mode) in [
            (48usize, SearchMode::Flat),
            (200, SearchMode::Heap),
            (1_024, SearchMode::Heap),
        ] {
            let mut ix = MachineIndex::with_config(m, mode, Propagation::Lazy);
            let mut expected = 0u64;
            for round in 0..40 {
                for _ in 0..8 {
                    let i = (xorshift(&mut state) % m as u64) as usize;
                    let c = xorshift(&mut state) % 4;
                    ix.update(i, busy(c, c as f64, 1.0 + (c % 3) as f64));
                }
                let slack = (round % 3) as f64;
                let calls = RefCell::new(Vec::new());
                let before = ix.index_stats();
                let _ = ix.search_masked(
                    MaskView::All,
                    |ns, lo, span| {
                        calls.borrow_mut().push((lo, span));
                        1.0 + ns.min_count as f64 - slack
                    },
                    |_, s| 1.0 + s.count as f64 - slack,
                    |i| Some(1.0 + (i % 5) as f64),
                );
                let after = ix.index_stats();
                let calls = calls.into_inner();
                let root = calls.iter().map(|&(_, span)| span).max().unwrap_or(0);
                let parents: BTreeSet<(usize, usize)> = calls
                    .iter()
                    .filter(|&&(_, span)| span < root)
                    .map(|&(lo, span)| (lo - lo % (2 * span), 2 * span))
                    .collect();
                if after.heap_searches > before.heap_searches {
                    expected += parents.len() as u64;
                } else {
                    assert!(calls.is_empty(), "m={m}");
                }
            }
            let s = ix.index_stats();
            assert_eq!(s.heap_expansions, expected, "m={m}");
            if mode == SearchMode::Flat {
                assert_eq!(s.heap_expansions, 0);
            } else {
                assert!(s.heap_expansions >= s.heap_searches, "m={m}");
            }
        }
        // Merging sums the counter like the others.
        let mut a = IndexStats {
            heap_expansions: 5,
            ..IndexStats::default()
        };
        a.merge(&IndexStats {
            heap_expansions: 6,
            ..IndexStats::default()
        });
        assert_eq!(a.heap_expansions, 11);
    }

    /// A mask with no bits set short-circuits to `None` without work.
    #[test]
    fn empty_mask_returns_none() {
        let (words, summary) = (vec![0u64; 4], vec![0u64; 1]);
        for mode in [SearchMode::Flat, SearchMode::Heap] {
            let mut ix = MachineIndex::with_mode(200, mode);
            let got = ix.search_masked(
                MaskView::Words {
                    words: &words,
                    summary: &summary,
                },
                |_, _, _| 0.0,
                |_, _| 0.0,
                |_| -> Option<f64> { panic!("nothing to evaluate") },
            );
            assert_eq!(got, None);
        }
    }
}
