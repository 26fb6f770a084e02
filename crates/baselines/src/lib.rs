//! # osr-baselines — comparators and certified lower bounds
//!
//! Everything the paper's algorithms are measured *against*:
//!
//! * [`greedy`] — no-rejection online baselines (ECT / least-loaded /
//!   min-size dispatch × SPT / FIFO local order). These are the
//!   schedulers the paper's introduction argues cannot be competitive;
//!   EXP-T1-BASE quantifies the gap.
//! * [`immediate`] — immediate-rejection policies (decide at arrival,
//!   never revoke), the subjects of Lemma 1's `Ω(√Δ)` lower bound.
//! * [`speed_aug`] — a speed-augmentation + rejection baseline in the
//!   spirit of Lucarelli et al. ESA'16 \[5\]: `(1+ε_s)`-speed machines,
//!   Rule-1-style rejection only. Used to compare "rejection only"
//!   (this paper) against "rejection + speed" (prior work).
//!
//!   These three are one mechanism (dispatch at arrival by a score over
//!   per-machine queues, serve each queue in a local order at one
//!   speed) with two optional rules, an arrival gate and a Rule-1-style
//!   interrupt. A crate-private `QueuePolicy` holds it once and runs on
//!   the shared `osr_sim::drive` event loop, like the `osr-core`
//!   schedulers.
//! * [`srpt`] — preemptive SRPT on a single machine: the *optimal*
//!   preemptive flow-time, hence a true lower bound on non-preemptive
//!   OPT for `m = 1` instances.
//! * [`optimal`] — exact branch-and-bound OPT for tiny instances
//!   (`n ≤ 9`), the ground truth for EXP-T1-OPT.
//! * [`lower_bounds`] — the combined certified flow-time lower bound
//!   (dual/2 ∨ trivial bounds ∨ SRPT) and the YDS optimal preemptive
//!   single-machine energy (lower bound for §4).
//! * [`avr`] — an AVERAGE-RATE-style energy baseline: every job runs
//!   at its minimal constant speed over its entire window (a valid §4
//!   schedule since jobs may overlap), machines chosen by marginal
//!   energy.

// Stylistic lints intentionally not followed:
// - `needless_range_loop`: machine loops index several parallel state
//   arrays; iterator zips would obscure the shared index.
// - `neg_cmp_op_on_partial_ord`: `!(x > 0.0)` deliberately treats NaN as
//   invalid in parameter validation.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod avr;
pub mod greedy;
pub mod immediate;
pub mod lower_bounds;
pub mod optimal;
mod queue;
pub mod speed_aug;
pub mod srpt;

pub use avr::AvrScheduler;
pub use greedy::{DispatchRule, GreedyScheduler, LocalOrder};
pub use immediate::{ImmediatePolicy, ImmediateRejectScheduler};
pub use lower_bounds::{
    energy_lower_bound, energyflow_alone_lower_bound, flow_lower_bound, pooled_yds_lower_bound,
    yds_energy, FlowLowerBound,
};
pub use optimal::optimal_flow;
pub use speed_aug::SpeedAugScheduler;
pub use srpt::srpt_flow;
