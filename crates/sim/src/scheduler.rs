//! The scheduler trait, the validated execution helper, and the shared
//! rejection records.

use osr_model::{
    FinishedLog, Instance, JobId, MachineId, Metrics, PartialRun, RejectReason, Rejection,
    ScheduleLog,
};

use crate::trace::{DecisionEvent, DecisionTrace};
use crate::validate::{validate_log, ValidationConfig, ValidationError};

/// Records `rejection` of `job`: the log entry, and the trace's
/// `Reject` event naming `machine` (machine 0 is the conventional "no
/// machine" sentinel) and the rule's `counter`. Every rejection the
/// driver, the schedulers and the baselines make is written here.
#[inline]
pub fn record_rejection(
    log: &mut ScheduleLog,
    trace: &mut DecisionTrace,
    job: JobId,
    rejection: Rejection,
    machine: MachineId,
    counter: f64,
) {
    let (time, reason) = (rejection.time, rejection.reason);
    log.reject(job, rejection);
    trace.push(DecisionEvent::Reject {
        time,
        job,
        machine,
        reason,
        counter,
    });
}

/// Records the standard outcome for a job that is eligible on **no**
/// machine (`p_ij = ∞` everywhere): rejected at its arrival instant
/// with [`RejectReason::Ineligible`], no partial run, zero counter, on
/// machine 0. The driver and the single-pass schedulers funnel their
/// empty-argmin case through here so the bookkeeping cannot drift
/// between implementations.
pub fn reject_ineligible(log: &mut ScheduleLog, trace: &mut DecisionTrace, job: JobId, t: f64) {
    let rejection = Rejection {
        time: t,
        reason: RejectReason::Ineligible,
        partial: None,
    };
    record_rejection(log, trace, job, rejection, MachineId(0), 0.0);
}

/// Records the standard outcome for a job stranded by capacity churn:
/// every machine it is eligible on has left the pool, so it is rejected
/// at `t` with [`RejectReason::MachineLost`]. Two shapes funnel through
/// here:
///
/// * a (re-)dispatch at `t` found `elig ∩ online = ∅` — no partial run;
/// * a crash at `t` killed the job mid-run **and** no eligible machine
///   remains — the interrupted prefix is recorded as `partial` (ending
///   exactly at `t`, the non-preemption contract for rejections).
///
/// Machine-lost rejections count against **no** rule's budget — the
/// adversary (the failure trace), not the algorithm, chose them. The
/// trace event uses the partial run's machine, or machine 0 as the
/// conventional "no machine" sentinel.
pub fn reject_machine_lost(
    log: &mut ScheduleLog,
    trace: &mut DecisionTrace,
    job: JobId,
    t: f64,
    partial: Option<PartialRun>,
) {
    let machine = partial.as_ref().map_or(MachineId(0), |p| p.machine);
    let rejection = Rejection {
        time: t,
        reason: RejectReason::MachineLost,
        partial,
    };
    record_rejection(log, trace, job, rejection, machine, 0.0);
}

/// Errors surfaced by [`run_validated`].
#[derive(Debug, Clone)]
pub enum SimError {
    /// The scheduler produced a log that fails model invariants.
    InvalidSchedule(Vec<ValidationError>),
    /// The scheduler failed internally (message).
    Scheduler(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidSchedule(errs) => {
                writeln!(f, "schedule violates {} invariant(s):", errs.len())?;
                for e in errs.iter().take(5) {
                    writeln!(f, "  - {e}")?;
                }
                if errs.len() > 5 {
                    writeln!(f, "  … and {} more", errs.len() - 5)?;
                }
                Ok(())
            }
            SimError::Scheduler(m) => write!(f, "scheduler error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// An online, non-preemptive scheduling policy.
///
/// Implementations receive the **whole instance** but must behave
/// online: decisions at time `t` may depend only on jobs with
/// `r_j ≤ t`. This is a contract, not something the type system can
/// enforce; the adaptive-adversary tests in `osr-workload` exist to
/// catch violations (an algorithm peeking at the future would be
/// inconsistent against an adversary that constructs jobs in response
/// to its decisions).
pub trait OnlineScheduler {
    /// Human-readable policy name (used in experiment tables).
    fn name(&self) -> String;

    /// Runs the policy over the instance, producing a complete log.
    fn schedule(&mut self, instance: &Instance) -> FinishedLog;
}

/// Runs a scheduler, validates the log against every model invariant,
/// and computes metrics. This is the only entry point the experiment
/// harness uses — no metric is ever reported for an invalid schedule.
pub fn run_validated<S: OnlineScheduler>(
    scheduler: &mut S,
    instance: &Instance,
    config: &ValidationConfig,
    alpha: f64,
) -> Result<(FinishedLog, Metrics), SimError> {
    let log = scheduler.schedule(instance);
    let report = validate_log(instance, &log, config);
    if !report.errors.is_empty() {
        return Err(SimError::InvalidSchedule(report.errors));
    }
    let metrics = Metrics::compute(instance, &log, alpha);
    Ok((log, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{Execution, InstanceBuilder, InstanceKind, MachineId, ScheduleLog};

    /// Trivial FIFO-on-machine-0 scheduler used to exercise the helper.
    struct Fifo0;

    impl OnlineScheduler for Fifo0 {
        fn name(&self) -> String {
            "fifo0".into()
        }

        fn schedule(&mut self, instance: &Instance) -> FinishedLog {
            let mut log = ScheduleLog::new(instance.machines(), instance.len());
            let mut free = 0.0f64;
            for job in instance.jobs() {
                let start = free.max(job.release);
                let completion = start + job.sizes[0];
                log.complete(
                    job.id,
                    Execution {
                        machine: MachineId(0),
                        start,
                        completion,
                        speed: 1.0,
                    },
                );
                free = completion;
            }
            log.finish().expect("all jobs decided")
        }
    }

    /// Broken scheduler that overlaps jobs — must be caught.
    struct Overlapper;

    impl OnlineScheduler for Overlapper {
        fn name(&self) -> String {
            "overlapper".into()
        }

        fn schedule(&mut self, instance: &Instance) -> FinishedLog {
            let mut log = ScheduleLog::new(instance.machines(), instance.len());
            for job in instance.jobs() {
                log.complete(
                    job.id,
                    Execution {
                        machine: MachineId(0),
                        start: job.release,
                        completion: job.release + job.sizes[0],
                        speed: 1.0,
                    },
                );
            }
            log.finish().expect("all jobs decided")
        }
    }

    fn two_jobs() -> Instance {
        InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![2.0])
            .job(0.0, vec![3.0])
            .build()
            .unwrap()
    }

    #[test]
    fn valid_scheduler_passes() {
        let inst = two_jobs();
        let (log, metrics) =
            run_validated(&mut Fifo0, &inst, &ValidationConfig::default(), 2.0).unwrap();
        assert_eq!(log.rejected_count(), 0);
        assert_eq!(metrics.flow.flow_served, 2.0 + 5.0);
    }

    #[test]
    fn overlapping_scheduler_is_rejected() {
        let inst = two_jobs();
        let err = run_validated(&mut Overlapper, &inst, &ValidationConfig::default(), 2.0);
        assert!(matches!(err, Err(SimError::InvalidSchedule(_))));
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("invariant"));
    }
}
