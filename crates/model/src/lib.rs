//! # osr-model — shared vocabulary for rejection scheduling
//!
//! Core data types shared by every crate in the workspace reproducing
//! *"Online Non-preemptive Scheduling on Unrelated Machines with
//! Rejections"* (Lucarelli, Moseley, Thang, Srivastav, Trystram — SPAA
//! 2018, arXiv:1802.10309).
//!
//! The model follows the paper's setting:
//!
//! * a fixed set of **unrelated machines** `M = {0, …, m-1}`;
//! * jobs arrive **online** at their release time `r_j`; a job `j` has a
//!   machine-dependent processing requirement `p_ij` (a *time* in the
//!   flow-time problem of §2, a *volume* in the speed-scaling problems of
//!   §3–§4), a weight `w_j` (§3) and optionally a deadline `d_j` (§4);
//! * schedules are **non-preemptive**: once started on a machine, a job
//!   runs continuously until it completes — or until the scheduler
//!   *rejects* it (the rejection model allows interrupting-by-discarding);
//! * the outcome of a run is a [`ScheduleLog`]: for every job either a
//!   completed [`Execution`] or a [`Rejection`] (possibly with a partial
//!   run that occupied the machine before the rejection).
//!
//! The crate deliberately contains **no scheduling policy** — policies
//! live in `osr-core` (the paper's algorithms) and `osr-baselines`
//! (comparators). Everything here is inert data plus metric/validation
//! helpers shared by both.

#![warn(missing_docs)]

pub mod decimal;
pub mod error;
pub mod instance;
pub mod io;
pub mod job;
pub mod log;
pub mod metrics;
pub mod pool;
pub mod time;

pub use decimal::{decimal_token, parse_decimal, Decimal};
pub use error::ModelError;
pub use instance::{Instance, InstanceBuilder, InstanceKind};
pub use job::{
    check_machines, EligMask, Job, JobId, MachineId, RackPHat, RowForm, SizeRow, SparseRow,
    MAX_MACHINES,
};
pub use log::{Execution, FinishedLog, JobFate, PartialRun, RejectReason, Rejection, ScheduleLog};
pub use metrics::{EnergyMetrics, FlowMetrics, Metrics};
pub use pool::OnlineSet;
pub use time::{approx_eq, approx_ge, approx_le, check_release_keeps_size, total_cmp_f64, EPS};
