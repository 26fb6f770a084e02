//! The queue-based baselines as one driver policy.
//!
//! The greedy, immediate-rejection and speed-augmentation baselines
//! share one mechanism: each arrival goes to the machine with the best
//! score over the per-machine pending queues, and each machine serves
//! its queue non-preemptively in a local order at one speed. They
//! differ in two optional rules, an arrival gate (immediate rejection)
//! and a Rule-1-style interrupt of the running job (speed
//! augmentation). [`QueuePolicy`] holds all of it once and runs on
//! [`osr_sim::drive`], which owns the event order and the standard
//! `Ineligible` rejection.

use osr_model::{
    Execution, FinishedLog, Instance, Job, JobId, MachineId, OnlineSet, PartialRun, RejectReason,
    Rejection,
};
use osr_sim::{
    drive, record_rejection, CapacityChange, CapacityPlan, Ctx, DecisionEvent, DecisionTrace,
    EventPolicy, Placement,
};

use crate::greedy::{DispatchRule, LocalOrder};
use crate::immediate::ImmediatePolicy;

/// A queue-based baseline: dispatch rule, local order, speed, and the
/// two optional rejection rules.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuePolicy {
    pub(crate) dispatch: DispatchRule,
    pub(crate) order: LocalOrder,
    /// Machine speed `s`: a job of size `p` runs for `p / s`.
    pub(crate) speed: f64,
    /// Arrival gate: the `ε` budget and the predicate of an
    /// immediate-rejection policy.
    pub(crate) gate: Option<(f64, ImmediatePolicy)>,
    /// Rule-1 threshold on dispatches to a busy machine.
    pub(crate) rule1_at: Option<u64>,
}

/// Per-machine queue: pending `(key, id, size)` sorted ascending by
/// `(key, id)` (key = size for SPT, dispatch time for FIFO), and the
/// running job.
#[derive(Default)]
struct Mach {
    pending: Vec<(f64, JobId, f64)>,
    running: Option<Run>,
}

struct Run {
    job: JobId,
    start: f64,
    completion: f64,
    /// Jobs dispatched to this machine while this one ran.
    v: u64,
}

impl Run {
    /// The prefix of this run on machine `mi`, cut at `t`.
    fn cut(&self, mi: usize, t: f64, speed: f64) -> PartialRun {
        PartialRun {
            machine: MachineId(mi as u32),
            start: self.start,
            end: t,
            speed,
        }
    }
}

/// The run state of a [`QueuePolicy`].
pub(crate) struct QueueState {
    machines: Vec<Mach>,
    /// Gate counters: arrivals seen, gate rejections, and the sum of
    /// the arrivals' cheapest sizes (for the running mean).
    arrivals: usize,
    rejected: usize,
    size_sum: f64,
}

impl QueuePolicy {
    /// A policy with neither rejection rule, at unit speed.
    pub(crate) fn new(dispatch: DispatchRule, order: LocalOrder) -> Self {
        QueuePolicy {
            dispatch,
            order,
            speed: 1.0,
            gate: None,
            rule1_at: None,
        }
    }

    /// Runs the policy over `instance` on a static pool.
    pub(crate) fn run(&self, instance: &Instance) -> (FinishedLog, DecisionTrace) {
        let (log, trace, _) = drive(
            self,
            instance.jobs(),
            instance.machines(),
            &CapacityPlan::empty(),
        );
        (log.finish().expect("all jobs decided"), trace)
    }

    /// Starts the head of `mi`'s queue if the machine is idle and in the
    /// pool (a draining machine finishes its running job but starts
    /// nothing new).
    fn start_next(&self, st: &mut QueueState, cx: &mut Ctx<'_>, mi: usize, t: f64) {
        let ms = &mut st.machines[mi];
        if ms.running.is_some() || ms.pending.is_empty() || !cx.online.is_online(mi) {
            return;
        }
        let (_, job, p) = ms.pending.remove(0);
        let completion = t + p / self.speed;
        ms.running = Some(Run {
            job,
            start: t,
            completion,
            v: 0,
        });
        cx.schedule_completion(completion, mi, job);
        cx.trace.push(DecisionEvent::Start {
            time: t,
            job,
            machine: MachineId(mi as u32),
            speed: self.speed,
        });
    }
}

impl EventPolicy for QueuePolicy {
    type State = QueueState;

    fn make_state(&self, machines: usize, _online: &OnlineSet) -> QueueState {
        QueueState {
            machines: (0..machines).map(|_| Mach::default()).collect(),
            arrivals: 0,
            rejected: 0,
            size_sum: 0.0,
        }
    }

    fn admit(&self, st: &mut QueueState, cx: &mut Ctx<'_>, job: &Job, t: f64) -> bool {
        let Some((eps, policy)) = self.gate else {
            return true;
        };
        // Decide rejection *now or never*, against the mean cheapest
        // size of the earlier arrivals.
        st.arrivals += 1;
        let p_min = job.min_size();
        let mean = if st.arrivals > 1 {
            st.size_sum / (st.arrivals - 1) as f64
        } else {
            0.0
        };
        st.size_sum += p_min;
        let budget_ok = (st.rejected + 1) as f64 <= eps * st.arrivals as f64;
        let wants_reject = match policy {
            ImmediatePolicy::Never => false,
            ImmediatePolicy::LargerThan { threshold } => p_min > threshold,
            ImmediatePolicy::AboveMean { factor } => st.arrivals > 1 && p_min > factor * mean,
        };
        if !(wants_reject && budget_ok) {
            return true;
        }
        st.rejected += 1;
        let rejection = Rejection {
            time: t,
            reason: RejectReason::Immediate,
            partial: None,
        };
        let counter = st.rejected as f64;
        record_rejection(cx.log, cx.trace, job.id, rejection, MachineId(0), counter);
        false
    }

    fn candidate(
        &self,
        st: &mut QueueState,
        job: &Job,
        t: f64,
        online: &OnlineSet,
    ) -> Option<(usize, f64)> {
        let s = self.speed;
        let mut best: Option<(usize, f64)> = None;
        for (mi, p) in job.sizes.iter_finite() {
            if !online.is_online(mi) {
                continue;
            }
            let ms = &st.machines[mi];
            // Queued volume plus the running job's remaining volume;
            // with `s = 1` every form below is the unit-speed one bit
            // for bit.
            let volume = || {
                let pend: f64 = ms.pending.iter().map(|&(_, _, q)| q).sum();
                let rem = ms
                    .running
                    .as_ref()
                    .map_or(0.0, |r| (r.completion - t).max(0.0) * s);
                pend + rem
            };
            let score = match self.dispatch {
                DispatchRule::EarliestCompletion => (volume() + p) / s,
                DispatchRule::LeastLoaded => volume() + 1e-9 * p,
                DispatchRule::MinSize => p,
            };
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((mi, score));
            }
        }
        best
    }

    fn dispatch(&self, st: &mut QueueState, cx: &mut Ctx<'_>, job: &Job, pl: &Placement) {
        let (t, mi) = (pl.time, pl.machine);
        let p = job.sizes[mi];
        let key = match self.order {
            LocalOrder::Spt => p,
            LocalOrder::Fifo => t,
        };
        let ms = &mut st.machines[mi];
        let pos = ms
            .pending
            .partition_point(|&(k, id, _)| (k, id) <= (key, job.id));
        ms.pending.insert(pos, (key, job.id, p));

        // Rule-1-style rejection of the running job.
        if let (Some(at), Some(run)) = (self.rule1_at, ms.running.as_mut()) {
            run.v += 1;
            if run.v >= at {
                let run = ms.running.take().expect("matched");
                let rejection = Rejection {
                    time: t,
                    reason: RejectReason::RuleOne,
                    partial: Some(run.cut(mi, t, self.speed)),
                };
                let (machine, counter) = (MachineId(mi as u32), run.v as f64);
                record_rejection(cx.log, cx.trace, run.job, rejection, machine, counter);
            }
        }
        self.start_next(st, cx, mi, t);
    }

    fn note_unplaced(&self, _st: &mut QueueState, _job: &Job, _t: f64) {}

    fn complete(&self, st: &mut QueueState, cx: &mut Ctx<'_>, mi: usize, job: JobId, t: f64) {
        // Stale events: the job was rejected mid-run, or crash-killed
        // and re-dispatched (possibly back onto the same machine).
        let ms = &mut st.machines[mi];
        if !ms
            .running
            .as_ref()
            .is_some_and(|r| r.job == job && r.completion == t)
        {
            return;
        }
        let run = ms.running.take().expect("matched");
        let machine = MachineId(mi as u32);
        cx.log.complete(
            job,
            Execution {
                machine,
                start: run.start,
                completion: run.completion,
                speed: self.speed,
            },
        );
        cx.trace.push(DecisionEvent::Complete {
            time: t,
            job,
            machine,
        });
        self.start_next(st, cx, mi, t);
    }

    fn capacity_sync(&self, _: &mut QueueState, _: CapacityChange, _: usize, _: &OnlineSet) {}

    fn evict(
        &self,
        st: &mut QueueState,
        change: CapacityChange,
        mi: usize,
        t: f64,
        victims: &mut Vec<(JobId, Option<PartialRun>)>,
    ) {
        // A crash kills the running job at `t` (a drain lets it
        // finish); either way every queued job leaves with the machine.
        let ms = &mut st.machines[mi];
        if change == CapacityChange::Crash {
            if let Some(run) = ms.running.take() {
                victims.push((run.job, Some(run.cut(mi, t, self.speed))));
            }
        }
        victims.extend(ms.pending.drain(..).map(|(_, id, _)| (id, None)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyScheduler, ImmediateRejectScheduler, SpeedAugScheduler};
    use osr_model::{InstanceBuilder, InstanceKind};
    use osr_sim::{validate_log, ValidationConfig};

    /// Every queue-based baseline, driven through a crash/drain/join
    /// plan, yields a log the validator accepts under that plan: killed
    /// runs are recorded as partial prefixes, queued jobs re-dispatch,
    /// and no job starts on an offline machine.
    #[test]
    fn baselines_under_churn_pass_validation() {
        let mut b = InstanceBuilder::new(3, InstanceKind::FlowTime);
        for k in 0..40 {
            let p = 1.0 + (k % 7) as f64;
            b = b.job(0.3 * k as f64, vec![p, p * 1.5, p * 0.75]);
        }
        // Job 12 (between releases 3.3 and 3.6) is eligible only on
        // machine 1 and released after its crash: machine-lost, not
        // ineligible.
        b = b.job(3.5, vec![f64::INFINITY, 2.0, f64::INFINITY]);
        let inst = b.build().unwrap();
        let plan = CapacityPlan::parse("2,0,drain\n3,1,crash\n6,0,join\n7.5,2,crash\n").unwrap();
        let policies = [
            GreedyScheduler::ect_spt().queue_policy(),
            GreedyScheduler::ect_fifo().queue_policy(),
            ImmediateRejectScheduler::above_mean(0.3, 2.0).queue_policy(),
            SpeedAugScheduler::new(0.2, 0.2).unwrap().queue_policy(),
        ];
        for policy in policies {
            let (log, _, _) = drive(&policy, inst.jobs(), inst.machines(), &plan);
            let log = log.finish().unwrap();
            // Speed-aug runs at 1.2: check exclusivity, not unit speed.
            let cfg = ValidationConfig::flow_energy().with_capacity(plan.clone());
            let rep = validate_log(&inst, &log, &cfg);
            assert!(rep.is_valid(), "{policy:?}: {:?}", rep.errors);
            assert!(log.total_redispatches() > 0, "{policy:?}");
            assert!(
                matches!(log.fate(JobId(12)), osr_model::JobFate::Rejected(r)
                    if r.reason == RejectReason::MachineLost),
                "{policy:?}"
            );
        }
    }
}
