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

use osr_model::{FinishedLog, Instance};
use osr_sim::{DecisionTrace, OnlineScheduler};

use crate::greedy::{DispatchRule, LocalOrder};
use crate::queue::QueuePolicy;

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
        self.queue_policy().run(instance)
    }

    /// The baseline as a driver policy: ECT dispatch and SPT order at
    /// speed `1+ε_s`, with the Rule-1 threshold `⌈1/ε_r⌉`.
    pub(crate) fn queue_policy(&self) -> QueuePolicy {
        QueuePolicy {
            speed: 1.0 + self.eps_s,
            rule1_at: Some((1.0 / self.eps_r - 1e-9).ceil().max(1.0) as u64),
            ..QueuePolicy::new(DispatchRule::EarliestCompletion, LocalOrder::Spt)
        }
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
    use osr_model::{InstanceBuilder, InstanceKind, JobId, Metrics};
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
