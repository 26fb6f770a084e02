//! # osr-sim — discrete-event simulation substrate
//!
//! The paper's algorithms are *online*: decisions happen at job arrivals
//! and at machine-idle instants. This crate provides the event-driven
//! machinery those implementations (and all baselines) share, plus the
//! independent correctness layer that makes experiment results
//! trustworthy:
//!
//! * [`scheduler::OnlineScheduler`] — the trait every policy implements
//!   (`osr-core` algorithms and `osr-baselines` comparators alike);
//! * [`driver`] — the generic serial event loop, over a time-ordered
//!   completion queue with deterministic FIFO tie-breaking, that the
//!   three flow-family schedulers of `osr-core` and the greedy,
//!   immediate-rejection and speed-augmentation baselines of
//!   `osr-baselines` run on via [`driver::EventPolicy`]: one
//!   implementation of the completions ≤ capacity ≤ arrivals ordering,
//!   the re-dispatch discipline, and the shared reject accounting;
//! * [`failpoint`] — the fault-injection registry crash-recovery tests
//!   arm to kill or error the consumer at chosen protocol points
//!   (mid-batch, pre-fsync, the epoch barrier, snapshot write);
//!   disarmed cost is one relaxed atomic load per site;
//! * [`capacity`] — the elastic machine pool: join/drain/crash event
//!   streams ([`capacity::CapacityPlan`]) replayed alongside arrivals,
//!   with failure-trace parsing and the online-window vocabulary the
//!   validator uses to audit churn runs;
//! * [`validate`] — checks a [`osr_model::log::FinishedLog`] against its
//!   instance for **every** model invariant: non-preemption is implied by
//!   the single-interval log format, so the validator focuses on release
//!   respect, machine exclusivity, volume conservation, deadline
//!   feasibility and speed sanity;
//! * [`trace`] — optional decision traces (dispatch/start/reject events
//!   with their `λ` values) for audits and the dual-feasibility
//!   experiments;
//! * [`gantt`] — ASCII Gantt rendering for examples and debugging;
//! * [`stats`] — summary statistics (percentiles, histograms, machine
//!   utilization) used by the experiment tables.
//!
//! Separating policy (who runs where, when) from mechanism (what a valid
//! non-preemptive schedule even is) means a bug in an algorithm cannot
//! silently corrupt an experiment: every log is re-validated from scratch
//! before metrics are reported.

#![warn(missing_docs)]

pub mod capacity;
pub mod driver;
mod event;
pub mod failpoint;
pub mod gantt;
pub mod scheduler;
pub mod stats;
pub mod trace;
pub mod validate;

pub use capacity::{CapacityChange, CapacityEvent, CapacityPlan, OnlineWindow};
pub use driver::{drive, Ctx, DriverSession, EventPolicy, Placement, Probe, SessionStats};
pub use failpoint::{FailAction, FailHit, KILL_EXIT_CODE};
pub use gantt::render_gantt;
pub use scheduler::{
    record_rejection, reject_ineligible, reject_machine_lost, run_validated, OnlineScheduler,
    SimError,
};
pub use stats::{MachineUtilization, SummaryStats};
pub use trace::{DecisionEvent, DecisionTrace};
pub use validate::{validate_log, ValidationConfig, ValidationError, ValidationReport};
