//! No-rejection greedy baselines.
//!
//! The classic online heuristics the paper's introduction argues are
//! doomed without rejection (or resource augmentation): dispatch at
//! arrival by a greedy rule, run non-preemptively in a local order,
//! never give up on a job.

use osr_model::{FinishedLog, Instance};
use osr_sim::{DecisionTrace, OnlineScheduler};

use crate::queue::QueuePolicy;

/// How an arriving job picks a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchRule {
    /// Earliest estimated completion: `free_i(t) + queue volume + p_ij`
    /// smallest (a natural clairvoyance-free ECT).
    EarliestCompletion,
    /// Least pending volume (`queue + remaining running`), then `p_ij`.
    LeastLoaded,
    /// Smallest `p_ij` (ignore congestion entirely).
    MinSize,
}

/// Order in which a machine serves its pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalOrder {
    /// Shortest processing time first.
    Spt,
    /// First come, first served.
    Fifo,
}

/// Greedy baseline scheduler (never rejects).
#[derive(Debug, Clone)]
pub struct GreedyScheduler {
    /// Dispatch rule at arrival.
    pub dispatch: DispatchRule,
    /// Local queue order.
    pub order: LocalOrder,
}

impl GreedyScheduler {
    /// ECT dispatch + SPT order — the strongest of the family.
    pub fn ect_spt() -> Self {
        GreedyScheduler {
            dispatch: DispatchRule::EarliestCompletion,
            order: LocalOrder::Spt,
        }
    }

    /// ECT dispatch + FIFO order.
    pub fn ect_fifo() -> Self {
        GreedyScheduler {
            dispatch: DispatchRule::EarliestCompletion,
            order: LocalOrder::Fifo,
        }
    }

    /// Runs the baseline, returning the log and the decision trace.
    pub fn run(&self, instance: &Instance) -> (FinishedLog, DecisionTrace) {
        self.queue_policy().run(instance)
    }

    /// The baseline as a driver policy.
    pub(crate) fn queue_policy(&self) -> QueuePolicy {
        QueuePolicy::new(self.dispatch, self.order)
    }
}

impl OnlineScheduler for GreedyScheduler {
    fn name(&self) -> String {
        format!("greedy({:?},{:?})", self.dispatch, self.order)
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, InstanceKind, JobId, MachineId, Metrics};
    use osr_sim::{validate_log, ValidationConfig};

    fn check(inst: &Instance, s: &GreedyScheduler) -> FinishedLog {
        let (log, _) = s.run(inst);
        let rep = validate_log(inst, &log, &ValidationConfig::flow_time());
        assert!(rep.is_valid(), "{:?}: {:?}", s.name(), rep.errors);
        assert_eq!(log.rejected_count(), 0, "greedy must never reject");
        log
    }

    fn sample() -> Instance {
        InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![4.0, 8.0])
            .job(0.5, vec![2.0, 2.0])
            .job(1.0, vec![6.0, 3.0])
            .job(1.5, vec![1.0, 9.0])
            .build()
            .unwrap()
    }

    #[test]
    fn all_variants_produce_valid_schedules() {
        let inst = sample();
        for dispatch in [
            DispatchRule::EarliestCompletion,
            DispatchRule::LeastLoaded,
            DispatchRule::MinSize,
        ] {
            for order in [LocalOrder::Spt, LocalOrder::Fifo] {
                check(&inst, &GreedyScheduler { dispatch, order });
            }
        }
    }

    #[test]
    fn ect_balances_two_machines() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![4.0, 4.0])
            .job(0.0, vec![4.0, 4.0])
            .build()
            .unwrap();
        let log = check(&inst, &GreedyScheduler::ect_spt());
        let m0 = log.fate(JobId(0)).execution().unwrap().machine;
        let m1 = log.fate(JobId(1)).execution().unwrap().machine;
        assert_ne!(m0, m1, "ECT must spread identical simultaneous jobs");
    }

    #[test]
    fn spt_beats_fifo_on_inverted_arrivals() {
        // A blocking job queues up followers that arrive in *decreasing*
        // size order: FIFO serves them largest-first, SPT re-sorts.
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime).job(0.0, vec![50.0]);
        for k in 0..20 {
            b = b.job(0.1 + k as f64 * 0.1, vec![(21 - k) as f64]);
        }
        let inst = b.build().unwrap();
        let spt = check(&inst, &GreedyScheduler::ect_spt());
        let fifo = check(&inst, &GreedyScheduler::ect_fifo());
        let f_spt = Metrics::compute(&inst, &spt, 2.0).flow.flow_served;
        let f_fifo = Metrics::compute(&inst, &fifo, 2.0).flow.flow_served;
        assert!(f_spt < f_fifo, "SPT {f_spt} must beat FIFO {f_fifo}");
    }

    #[test]
    fn min_size_ignores_congestion() {
        // All jobs fastest on m0 — MinSize piles them there even when
        // m1 idles.
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![1.0, 1.1])
            .job(0.0, vec![1.0, 1.1])
            .job(0.0, vec![1.0, 1.1])
            .build()
            .unwrap();
        let s = GreedyScheduler {
            dispatch: DispatchRule::MinSize,
            order: LocalOrder::Spt,
        };
        let log = check(&inst, &s);
        for (_, e) in log.executions() {
            assert_eq!(e.machine, MachineId(0));
        }
    }

    #[test]
    fn respects_release_times() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(5.0, vec![1.0])
            .build()
            .unwrap();
        let log = check(&inst, &GreedyScheduler::ect_spt());
        assert_eq!(log.fate(JobId(0)).execution().unwrap().start, 5.0);
    }
}
