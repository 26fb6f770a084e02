//! Speed-augmentation + rejection baseline (ESA'16 style).
//!
//! Lucarelli et al. \[5\] achieve `O(1/(ε_r·ε_s))`-competitiveness with
//! machines running at speed `1+ε_s` *and* an `ε_r` rejection budget.
//! This baseline reproduces that regime's mechanics — ECT dispatch, SPT
//! order, executions at speed `1+ε_s`, and a Rule-1-style interrupt
//! rejection — so EXP-T1-BASE can compare "rejection only" (the SPAA'18
//! result) against "rejection plus speed" on the same workloads.
//!
//! Note the comparison caveat reported by the harness: a `(1+ε_s)`-speed
//! schedule is *not* feasible for the adversary's unit-speed machines;
//! its flow-time is a reference point, not a competing feasible
//! schedule.

use osr_model::{
    Execution, FinishedLog, Instance, JobId, MachineId, PartialRun, RejectReason, Rejection,
    ScheduleLog,
};
use osr_sim::{DecisionEvent, DecisionTrace, EventQueue, OnlineScheduler};

/// ESA'16-style baseline: `(1+ε_s)` speed, `ε_r` rejection.
#[derive(Debug, Clone)]
pub struct SpeedAugScheduler {
    /// Speed augmentation `ε_s ≥ 0` (machines run at `1+ε_s`).
    pub eps_s: f64,
    /// Rejection parameter `ε_r ∈ (0, 1]` (Rule-1 threshold `⌈1/ε_r⌉`).
    pub eps_r: f64,
}

impl SpeedAugScheduler {
    /// Constructs with validation.
    pub fn new(eps_s: f64, eps_r: f64) -> Result<Self, String> {
        if !(eps_s >= 0.0) || !eps_s.is_finite() {
            return Err(format!("eps_s must be ≥ 0, got {eps_s}"));
        }
        if !(eps_r > 0.0 && eps_r <= 1.0) {
            return Err(format!("eps_r must be in (0,1], got {eps_r}"));
        }
        Ok(SpeedAugScheduler { eps_s, eps_r })
    }

    /// Runs the baseline.
    pub fn run(&self, instance: &Instance) -> (FinishedLog, DecisionTrace) {
        let speed = 1.0 + self.eps_s;
        let rule1_at = (1.0 / self.eps_r - 1e-9).ceil().max(1.0) as u64;
        let m = instance.machines();
        let n = instance.len();
        let jobs = instance.jobs();
        let mut log = ScheduleLog::new(m, n);
        let mut trace = DecisionTrace::new();
        let mut completions: EventQueue<(usize, JobId)> = EventQueue::new();

        struct Mach {
            pending: Vec<(f64, JobId, f64)>,         // (size, id, size) — SPT
            running: Option<(JobId, f64, f64, u64)>, // job, start, completion, v
        }
        let mut machines: Vec<Mach> = (0..m)
            .map(|_| Mach {
                pending: Vec::new(),
                running: None,
            })
            .collect();

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
            let completion = t + p / speed;
            ms.running = Some((id, t, completion, 0));
            completions.push(completion, (mi, id));
            trace.push(DecisionEvent::Start {
                time: t,
                job: id,
                machine: MachineId(mi as u32),
                speed,
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
                let matches = machines[mi].running.is_some_and(|(j, _, _, _)| j == job);
                if !matches {
                    continue;
                }
                let (_, start, completion, _) = machines[mi].running.take().unwrap();
                log.complete(
                    job,
                    Execution {
                        machine: MachineId(mi as u32),
                        start,
                        completion,
                        speed,
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

            let mut best: Option<(usize, f64)> = None;
            for (mi, p) in job.sizes.iter_finite() {
                let pend: f64 = machines[mi].pending.iter().map(|&(_, _, q)| q).sum();
                let rem = machines[mi]
                    .running
                    .map_or(0.0, |(_, _, c, _)| (c - t).max(0.0) * speed);
                let score = (pend + rem + p) / speed;
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

            // Rule-1-style rejection of the running job.
            if let Some((_, _, _, v)) = machines[mi].running.as_mut() {
                *v += 1;
                if *v >= rule1_at {
                    let (k, start, _completion, v) = machines[mi].running.take().unwrap();
                    log.reject(
                        k,
                        Rejection {
                            time: t,
                            reason: RejectReason::RuleOne,
                            partial: Some(PartialRun {
                                machine: MachineId(mi as u32),
                                start,
                                end: t,
                                speed,
                            }),
                        },
                    );
                    trace.push(DecisionEvent::Reject {
                        time: t,
                        job: k,
                        machine: MachineId(mi as u32),
                        reason: RejectReason::RuleOne,
                        counter: v as f64,
                    });
                }
            }

            start_next(mi, t, &mut machines, &mut completions, &mut trace);
        }

        (log.finish().expect("all decided"), trace)
    }
}

impl OnlineScheduler for SpeedAugScheduler {
    fn name(&self) -> String {
        format!("esa16-speedaug(s=1+{}, eps_r={})", self.eps_s, self.eps_r)
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, InstanceKind, Metrics};
    use osr_sim::{validate_log, ValidationConfig};

    #[test]
    fn faster_machines_finish_sooner() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![3.0])
            .build()
            .unwrap();
        let s = SpeedAugScheduler::new(0.5, 0.5).unwrap();
        let (log, _) = s.run(&inst);
        let e = log.fate(JobId(0)).execution().unwrap();
        assert!((e.completion - 2.0).abs() < 1e-9); // 3 / 1.5
                                                    // Volume conservation holds with the augmented speed.
        let mut cfg = ValidationConfig::flow_energy();
        cfg.allow_parallel = false;
        let rep = validate_log(&inst, &log, &cfg);
        assert!(rep.is_valid(), "{:?}", rep.errors);
    }

    #[test]
    fn rejection_triggers_like_rule_one() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![100.0])
            .job(1.0, vec![1.0])
            .job(2.0, vec![1.0])
            .build()
            .unwrap();
        let s = SpeedAugScheduler::new(0.0, 0.5).unwrap();
        let (log, _) = s.run(&inst);
        assert!(log.fate(JobId(0)).is_rejected());
        assert!(log.fate(JobId(1)).is_completed());
    }

    #[test]
    fn speed_reduces_flow_on_congested_instance() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..100 {
            b = b.job(k as f64 * 0.9, vec![1.0]);
        }
        let inst = b.build().unwrap();
        let slow = SpeedAugScheduler::new(0.0, 1e-9_f64.max(0.01)).unwrap();
        let fast = SpeedAugScheduler::new(0.5, 0.01).unwrap();
        let f_slow = Metrics::compute(&inst, &slow.run(&inst).0, 2.0)
            .flow
            .flow_all;
        let f_fast = Metrics::compute(&inst, &fast.run(&inst).0, 2.0)
            .flow
            .flow_all;
        assert!(f_fast < f_slow, "augmented {f_fast} vs plain {f_slow}");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(SpeedAugScheduler::new(-0.1, 0.5).is_err());
        assert!(SpeedAugScheduler::new(0.5, 0.0).is_err());
        assert!(SpeedAugScheduler::new(0.5, 2.0).is_err());
    }
}
