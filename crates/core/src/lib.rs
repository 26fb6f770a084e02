//! # osr-core — the SPAA'18 rejection-scheduling algorithms
//!
//! Faithful implementations of the three algorithms from *"Online
//! Non-preemptive Scheduling on Unrelated Machines with Rejections"*
//! (Lucarelli, Moseley, Thang, Srivastav, Trystram — SPAA 2018):
//!
//! * [`flowtime`] — §2: total flow-time minimization on unrelated
//!   machines. Dual-fitting dispatch by `λ_ij`, SPT local order, both
//!   rejection rules, and the complete dual-variable accounting
//!   (`λ_j`, `β_i(t)`, definitive-finish times `C̃_j`) that yields a
//!   **certified lower bound** on OPT as a by-product of every run
//!   (Theorem 1: `2((1+ε)/ε)²`-competitive, rejects ≤ `2ε`·n jobs).
//! * [`energyflow`] — §3: weighted flow-time plus energy under speed
//!   scaling `P(s) = s^α`. Highest-density-first local order, per-start
//!   speed `γ(Σ_{ℓ∈U_i} w_ℓ)^{1/α}`, weight-budget rejection
//!   (Theorem 2: `O((1+1/ε)^{α/(α-1)})`-competitive, rejects weight
//!   ≤ `ε`·ΣW).
//! * [`energymin`] — §4: total energy with deadlines. Primal-dual greedy
//!   over the configuration LP: at each arrival the (machine, start,
//!   speed) strategy with the least marginal energy is fixed forever
//!   (Theorem 3: `λ/(1-µ)`-competitive under `(λ,µ)`-smooth powers,
//!   `α^α` for `s^α`).
//!
//! Shared helpers:
//!
//! * [`epsilon`] — rejection thresholds and the `1/ε` integrality
//!   convention;
//! * [`bounds`] — closed-form competitive-ratio bounds from the
//!   theorems (the curves experiments compare measurements against);
//! * [`smooth`] — `(λ, µ)`-smoothness (Definition 1) of power functions
//!   and the smooth-inequality audit used by Theorem 3;
//! * [`journal`] — the write-ahead event journal, snapshots, and
//!   recovery-by-replay behind `osr serve --journal`/`--recover`.

// Stylistic lints intentionally not followed:
// - `needless_range_loop`: machine loops index several parallel state
//   arrays; iterator zips would obscure the shared index.
// - `neg_cmp_op_on_partial_ord`: `!(x > 0.0)` deliberately treats NaN as
//   invalid in parameter validation.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod bounds;
pub mod config;
pub mod dispatch;
pub mod energyflow;
pub mod energymin;
pub mod epsilon;
mod family;
pub mod flowtime;
pub mod journal;
pub mod session;
pub mod smooth;

pub use bounds::{
    energyflow_competitive_bound, energymin_competitive_bound, energymin_lower_bound,
    flowtime_competitive_bound, flowtime_rejection_budget, immediate_rejection_lower_bound,
};
pub use config::{
    parse_ingest_buffer, parse_snap_every, serve_knob_help, KnobSpec, SchedulerConfig, SERVE_KNOBS,
};
pub use dispatch::{
    effective_dispatch_index, CapacityIndexMode, DispatchIndex, PRUNED_MIN_MACHINES,
};
pub use energyflow::{EnergyFlowOutcome, EnergyFlowParams, EnergyFlowScheduler};
pub use energymin::{
    Assignment, EnergyMinOnline, EnergyMinOutcome, EnergyMinParams, EnergyMinScheduler,
};
pub use epsilon::Thresholds;
pub use flowtime::{FlowOutcome, FlowParams, FlowScheduler, QueueBackend};
pub use journal::{
    fingerprint, Journal, JournaledSession, Record, RecordBodies, Recovered, RecoveryReport,
    ReplayOutcome, Snapshot,
};
pub use session::{
    Arrival, EnergyFlowSession, Event, FlowSession, ServeSession, ServeSnapshot,
    WeightedFlowSession,
};
// The index knob type of `SchedulerConfig`, re-exported so callers can
// name it without depending on `osr-dstruct`.
pub use osr_dstruct::Propagation;
