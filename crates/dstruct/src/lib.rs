//! # osr-dstruct — order-statistic and prefix-aggregate structures
//!
//! The SPAA'18 rejection-scheduling algorithms repeatedly answer, at every
//! job arrival and **per machine**, queries of the form
//!
//! > over the pending jobs `ℓ` with processing time at most `p` — how many
//! > are there and what is the sum of their processing times? how many
//! > exceed `p`?
//!
//! (these terms assemble the dispatch quantity `λ_ij` of §2). A naive
//! pending queue answers them in `O(|U_i|)`; the [`treap::AggTreap`] here
//! answers them in `O(log |U_i|)` while also supporting min/max extraction
//! for the SPT scheduling policy and Rule-2 rejections. The Criterion
//! bench `dstruct_ablation` quantifies the difference.
//!
//! Because these queries run on **every arrival per machine**, the treap
//! is the dispatch hot path, and it is built for it: an index-based
//! **arena** (`Vec<Node>` + `u32` links) with a free list, so
//! steady-state insert/remove churn performs zero heap allocations, plus
//! iterative (explicit-stack) split/merge and `O(n)` bulk construction
//! via [`treap::AggTreap::from_sorted`]. See the `treap` module docs for
//! the layout.
//!
//! Contents:
//!
//! * [`total::TotalF64`] — `Ord` wrapper over finite-friendly `f64` keys;
//! * [`treap::AggTreap`] — arena-allocated randomized balanced BST
//!   augmented with subtree `(count, weight-sum)` aggregates;
//! * [`naive::NaiveAggQueue`] — sorted-`Vec` reference implementation with
//!   the same API as `AggTreap`, used for differential testing and as the
//!   ablation baseline;
//! * [`tournament::MachineIndex`] — tournament tree over per-machine
//!   dispatch statistics, powering the *pruned* `λ_ij` argmin that
//!   replaces the schedulers' `O(m)`-per-arrival machine scan
//!   (selectable via `osr-core`'s `DispatchIndex`). Two search modes
//!   behind one entry point: a flat bound scan for mid-size `m` and a
//!   best-first heap descent beyond; both accept a
//!   [`tournament::MaskView`] eligibility bitmask that prunes
//!   ineligible subtrees in `O(1)` word tests (restricted-assignment
//!   and rack-affinity workloads). The *update* side is lazy
//!   ([`tournament::Propagation`]): mutations write a packed
//!   leaf-stats table plus a dirty bitmap, and ancestors are repaired
//!   in one batched sweep only when a heap descent actually reads
//!   them — leaf-only search paths (flat scan, sparse set-bit walk)
//!   never rebuild the tree at all. See `crates/dstruct/README.md`
//!   for the search-side vs update-side design tour.

// Stylistic lints intentionally not followed:
// - `needless_range_loop`: machine loops index several parallel state
//   arrays; iterator zips would obscure the shared index.
// - `neg_cmp_op_on_partial_ord`: `!(x > 0.0)` deliberately treats NaN as
//   invalid in parameter validation.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod naive;
pub mod total;
pub mod tournament;
pub mod treap;

pub use naive::NaiveAggQueue;
pub use total::TotalF64;
pub use tournament::{
    IndexStats, MachineIndex, MachineStats, MaskView, NodeStats, Propagation, SearchMode,
};
pub use treap::AggTreap;
