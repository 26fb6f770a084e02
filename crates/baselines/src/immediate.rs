//! Immediate-rejection policies — the subjects of Lemma 1.
//!
//! These policies must decide **at arrival** whether a job is rejected,
//! and can never revoke a started job. Lemma 1 shows every such policy
//! is `Ω(√Δ)`-competitive; EXP-L1 demonstrates the blow-up on the
//! adaptive construction, in contrast with the paper's algorithm whose
//! Rule 1 rejects *running* jobs in hindsight.

use osr_model::{FinishedLog, Instance};
use osr_sim::{DecisionTrace, OnlineScheduler};

use crate::greedy::{DispatchRule, LocalOrder};
use crate::queue::QueuePolicy;

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
        self.queue_policy().run(instance)
    }

    /// The policy as a driver policy: ECT dispatch and SPT order behind
    /// the arrival gate.
    pub(crate) fn queue_policy(&self) -> QueuePolicy {
        QueuePolicy {
            gate: Some((self.eps, self.policy)),
            ..QueuePolicy::new(DispatchRule::EarliestCompletion, LocalOrder::Spt)
        }
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
    use osr_model::{InstanceBuilder, InstanceKind, JobFate, JobId};
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
