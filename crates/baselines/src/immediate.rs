//! Immediate-rejection policies — the subjects of Lemma 1.
//!
//! These policies must decide **at arrival** whether a job is rejected,
//! and can never revoke a started job. Lemma 1 shows every such policy
//! is `Ω(√Δ)`-competitive; EXP-L1 demonstrates the blow-up on the
//! adaptive construction, in contrast with the paper's algorithm whose
//! Rule 1 rejects *running* jobs in hindsight.

use osr_model::{
    Execution, FinishedLog, Instance, JobId, MachineId, RejectReason, Rejection, ScheduleLog,
};
use osr_sim::{DecisionEvent, DecisionTrace, EventQueue, OnlineScheduler};

/// Which jobs an [`ImmediateRejectScheduler`] drops at arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImmediatePolicy {
    /// Never reject (plain greedy; included for uniform comparison).
    Never,
    /// Reject any job whose size exceeds `threshold`, while the
    /// `ε`-fraction budget lasts.
    LargerThan {
        /// Size cutoff.
        threshold: f64,
    },
    /// Reject a job if its size exceeds `factor ×` the running mean of
    /// sizes seen so far, while the budget lasts.
    AboveMean {
        /// Multiplier over the running mean.
        factor: f64,
    },
}

/// Single-queue ECT+SPT scheduler that may reject only at arrival,
/// within an `ε`-fraction budget (Lemma 1's `ε-rejection policy`).
#[derive(Debug, Clone)]
pub struct ImmediateRejectScheduler {
    /// Budget: may reject at most `⌊ε·(arrivals so far)⌋` jobs.
    pub eps: f64,
    /// The rejection predicate.
    pub policy: ImmediatePolicy,
}

impl ImmediateRejectScheduler {
    /// Standard subject for EXP-L1: reject big jobs above the mean.
    pub fn above_mean(eps: f64, factor: f64) -> Self {
        ImmediateRejectScheduler {
            eps,
            policy: ImmediatePolicy::AboveMean { factor },
        }
    }

    /// Runs the policy.
    pub fn run(&self, instance: &Instance) -> (FinishedLog, DecisionTrace) {
        let m = instance.machines();
        let n = instance.len();
        let jobs = instance.jobs();
        let mut log = ScheduleLog::new(m, n);
        let mut trace = DecisionTrace::new();
        let mut completions: EventQueue<(usize, JobId)> = EventQueue::new();

        struct Mach {
            pending: Vec<(f64, JobId, f64)>, // (size key, id, size) — SPT
            running: Option<(JobId, f64, f64)>,
        }
        let mut machines: Vec<Mach> = (0..m)
            .map(|_| Mach {
                pending: Vec::new(),
                running: None,
            })
            .collect();

        let mut arrivals = 0usize;
        let mut rejected = 0usize;
        let mut size_sum = 0.0f64;

        let start_next = |mi: usize,
                          t: f64,
                          machines: &mut Vec<Mach>,
                          completions: &mut EventQueue<(usize, JobId)>,
                          trace: &mut DecisionTrace| {
            let ms = &mut machines[mi];
            if ms.running.is_some() || ms.pending.is_empty() {
                return;
            }
            let (_, id, p) = ms.pending.remove(0);
            let completion = t + p;
            ms.running = Some((id, t, completion));
            completions.push(completion, (mi, id));
            trace.push(DecisionEvent::Start {
                time: t,
                job: id,
                machine: MachineId(mi as u32),
                speed: 1.0,
            });
        };

        let mut next_arrival = 0usize;
        loop {
            let ta = jobs.get(next_arrival).map(|j| j.release);
            let tc = completions.peek_time();
            let do_completion = match (ta, tc) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(a), Some(c)) => c <= a,
            };

            if do_completion {
                let (t, (mi, job)) = completions.pop().expect("peeked");
                let matches = machines[mi].running.is_some_and(|(j, _, _)| j == job);
                if !matches {
                    continue;
                }
                let (_, start, completion) = machines[mi].running.take().unwrap();
                log.complete(
                    job,
                    Execution {
                        machine: MachineId(mi as u32),
                        start,
                        completion,
                        speed: 1.0,
                    },
                );
                trace.push(DecisionEvent::Complete {
                    time: t,
                    job,
                    machine: MachineId(mi as u32),
                });
                start_next(mi, t, &mut machines, &mut completions, &mut trace);
                continue;
            }

            let job = &jobs[next_arrival];
            next_arrival += 1;
            let t = job.release;
            arrivals += 1;
            let p_min = job.min_size();
            let mean = if arrivals > 1 {
                size_sum / (arrivals - 1) as f64
            } else {
                0.0
            };
            size_sum += p_min;

            // Decide rejection *now or never*.
            let budget_ok = (rejected + 1) as f64 <= self.eps * arrivals as f64;
            let wants_reject = match self.policy {
                ImmediatePolicy::Never => false,
                ImmediatePolicy::LargerThan { threshold } => p_min > threshold,
                ImmediatePolicy::AboveMean { factor } => arrivals > 1 && p_min > factor * mean,
            };
            if wants_reject && budget_ok {
                rejected += 1;
                log.reject(
                    job.id,
                    Rejection {
                        time: t,
                        reason: RejectReason::Immediate,
                        partial: None,
                    },
                );
                trace.push(DecisionEvent::Reject {
                    time: t,
                    job: job.id,
                    machine: MachineId(0),
                    reason: RejectReason::Immediate,
                    counter: rejected as f64,
                });
                continue;
            }

            // Otherwise dispatch by ECT, serve SPT.
            let mut best: Option<(usize, f64)> = None;
            for (mi, p) in job.sizes.iter_finite() {
                let pend: f64 = machines[mi].pending.iter().map(|&(_, _, q)| q).sum();
                let rem = machines[mi]
                    .running
                    .map_or(0.0, |(_, _, c)| (c - t).max(0.0));
                let score = pend + rem + p;
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some((mi, score));
                }
            }
            let Some((mi, score)) = best else {
                osr_sim::reject_ineligible(&mut log, &mut trace, job.id, t);
                continue;
            };
            trace.push(DecisionEvent::Dispatch {
                time: t,
                job: job.id,
                machine: MachineId(mi as u32),
                lambda: score,
                candidates: m,
            });
            let p = job.sizes[mi];
            let ms = &mut machines[mi];
            let pos = ms
                .pending
                .partition_point(|&(k, id, _)| (k, id) <= (p, job.id));
            ms.pending.insert(pos, (p, job.id, p));
            start_next(mi, t, &mut machines, &mut completions, &mut trace);
        }

        (log.finish().expect("all decided"), trace)
    }
}

impl OnlineScheduler for ImmediateRejectScheduler {
    fn name(&self) -> String {
        format!("immediate({:?}, eps={})", self.policy, self.eps)
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, InstanceKind, JobFate};
    use osr_sim::{validate_log, ValidationConfig};

    #[test]
    fn budget_is_enforced() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..100 {
            b = b.job(k as f64, vec![if k % 2 == 0 { 1.0 } else { 100.0 }]);
        }
        let inst = b.build().unwrap();
        let s = ImmediateRejectScheduler {
            eps: 0.1,
            policy: ImmediatePolicy::LargerThan { threshold: 50.0 },
        };
        let (log, _) = s.run(&inst);
        let rep = validate_log(&inst, &log, &ValidationConfig::flow_time());
        assert!(rep.is_valid(), "{:?}", rep.errors);
        assert!(
            log.rejected_count() <= 10,
            "rejected {}",
            log.rejected_count()
        );
        assert!(
            log.rejected_count() > 0,
            "policy should have used its budget"
        );
    }

    #[test]
    fn never_policy_never_rejects() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..20 {
            b = b.job(k as f64 * 0.1, vec![5.0]);
        }
        let inst = b.build().unwrap();
        let s = ImmediateRejectScheduler {
            eps: 0.5,
            policy: ImmediatePolicy::Never,
        };
        let (log, _) = s.run(&inst);
        assert_eq!(log.rejected_count(), 0);
    }

    #[test]
    fn above_mean_rejects_outliers_only() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..50 {
            b = b.job(k as f64, vec![1.0]);
        }
        // One giant at the end.
        b = b.job(50.0, vec![1000.0]);
        let inst = b.build().unwrap();
        let s = ImmediateRejectScheduler::above_mean(0.2, 10.0);
        let (log, _) = s.run(&inst);
        let giant = inst
            .jobs()
            .iter()
            .find(|j| j.sizes[0] == 1000.0)
            .unwrap()
            .id;
        assert!(matches!(log.fate(giant), JobFate::Rejected(_)));
        assert_eq!(log.rejected_count(), 1);
    }

    #[test]
    fn commitment_cannot_be_revoked() {
        // A long job starts; a flood arrives; the policy cannot
        // interrupt it — the shorts must wait (this is the Lemma 1
        // mechanism).
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime).job(0.0, vec![50.0]);
        for k in 0..20 {
            b = b.job(1.0 + 0.1 * k as f64, vec![0.1]);
        }
        let inst = b.build().unwrap();
        let s = ImmediateRejectScheduler::above_mean(0.3, 5.0);
        let (log, _) = s.run(&inst);
        // The long job completes (it was first; nothing seen before it).
        let e0 = log.fate(JobId(0)).execution().expect("committed");
        assert_eq!(e0.completion, 50.0);
        // Every surviving short job waits for it.
        for (id, e) in log.executions() {
            if id != JobId(0) {
                assert!(e.start >= 50.0, "{id} started at {}", e.start);
            }
        }
    }
}
