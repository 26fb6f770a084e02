//! **Extension beyond the paper**: weighted total flow-time with
//! rejections (no energy term).
//!
//! The paper proves Theorem 1 for *unweighted* flow-time (§2) and
//! handles weights only together with energy under speed scaling (§3).
//! The natural gap — weighted flow-time on unit-speed machines — is a
//! direct hybrid of the two algorithms, implemented here as an
//! experimental feature:
//!
//! * local order: **highest density first** (`δ_ij = w_j/p_ij`, the
//!   weighted analogue of SPT; ties earliest release) — from §3;
//! * dispatch: the unit-speed specialization of §3's `λ_ij`:
//!
//!   ```text
//!   λ_ij = w_j·p_ij/ε + w_j·Σ_{ℓ⪯j} p_iℓ + (Σ_{ℓ≻j} w_ℓ)·p_ij
//!   ```
//!
//! * **Rule 1 (weighted)** — reject the running job `k` when the weight
//!   dispatched during its run exceeds `w_k/ε` — from §3;
//! * **Rule 2 (weighted)** — per machine, after every `(1+⌈1/ε⌉)·w̄`
//!   of dispatched weight (`w̄` = running mean job weight), reject the
//!   **lowest-density** pending job — the weighted analogue of "largest
//!   processing time".
//!
//! **No competitive-ratio proof accompanies this variant.** Unlike the
//! §2/§3 rules, the Rule-2 cadence does not by itself bound the
//! rejected weight, so the implementation additionally *enforces* a
//! hard `2ε` rejected-weight budget: a rule may only fire while
//! `rejected weight ≤ 2ε · (arrived weight)`. Experiments treat it as a
//! well-behaved heuristic; its value is letting users study the paper's
//! mechanism on weighted workloads.

use std::cell::RefCell;

use osr_dstruct::NodeStats;
use osr_model::{FinishedLog, Instance, Job, JobId};
use osr_sim::{
    driver::{Ctx, Placement},
    CapacityPlan, DecisionTrace, OnlineScheduler,
};

use crate::config::SchedulerConfig;
use crate::dispatch::{self, DispatchIndex};
use crate::epsilon::Thresholds;
use crate::family::{
    reject_pending, reject_running, DensityQueue, Family, FamilyPolicy, FamilyState, PendD,
};

/// Parameters for the weighted variant.
///
/// The runtime knobs live in the embedded [`SchedulerConfig`]
/// (`params.config`); the struct derefs to it, so `params.dispatch`
/// etc. keep working as plain field accesses. The `backend` knob is
/// inert here (the weighted queues are density-sorted `Vec`s).
#[derive(Debug, Clone, Copy)]
pub struct WeightedFlowParams {
    /// Budget parameter `ε ∈ (0, 1]`; enforced rejected-weight cap is
    /// `2ε` of arrived weight.
    pub eps: f64,
    /// Shared runtime knobs (see [`SchedulerConfig`]).
    pub config: SchedulerConfig,
}

impl std::ops::Deref for WeightedFlowParams {
    type Target = SchedulerConfig;
    fn deref(&self) -> &SchedulerConfig {
        &self.config
    }
}

impl std::ops::DerefMut for WeightedFlowParams {
    fn deref_mut(&mut self) -> &mut SchedulerConfig {
        &mut self.config
    }
}

impl WeightedFlowParams {
    /// Standard parameters for `eps` (production runtime knobs).
    pub fn new(eps: f64) -> Self {
        WeightedFlowParams {
            eps,
            config: SchedulerConfig::default(),
        }
    }
}

/// Outcome of a weighted run.
#[derive(Debug)]
pub struct WeightedFlowOutcome {
    /// The schedule log.
    pub log: FinishedLog,
    /// Decision trail.
    pub trace: DecisionTrace,
    /// The dispatch strategy that actually ran (`Pruned` degrades to
    /// `Linear` below [`crate::PRUNED_MIN_MACHINES`]; label ablations
    /// by this).
    pub effective_dispatch: DispatchIndex,
}

/// The weighted flow-time scheduler (extension; see module docs).
#[derive(Debug, Clone)]
pub struct WeightedFlowScheduler {
    params: WeightedFlowParams,
    capacity: CapacityPlan,
}

impl WeightedFlowScheduler {
    /// Validates `eps` and constructs the scheduler.
    pub fn new(params: WeightedFlowParams) -> Result<Self, String> {
        Thresholds::new(params.eps)?;
        Ok(WeightedFlowScheduler {
            params,
            capacity: CapacityPlan::empty(),
        })
    }

    /// Convenience constructor.
    pub fn with_eps(eps: f64) -> Result<Self, String> {
        Self::new(WeightedFlowParams::new(eps))
    }

    /// Attaches a capacity plan (builder-style): the run replays the
    /// plan's join/drain/crash stream alongside arrivals, re-dispatching
    /// the jobs of draining/crashing machines.
    pub fn with_capacity(mut self, plan: CapacityPlan) -> Self {
        self.capacity = plan;
        self
    }

    /// The weighted rules with a fresh rejection budget.
    fn policy(&self) -> WeightedPolicy {
        WeightedPolicy {
            eps: self.params.eps,
            budget: RefCell::new(WeightBudget::default()),
        }
    }

    /// Runs the variant over `instance`.
    ///
    /// The event loop lives in [`osr_sim::driver`] and the dispatch
    /// search in the flow-family skeleton (`crate::family`); this
    /// method supplies the weighted rules (`WeightedPolicy`).
    pub fn run(&self, instance: &Instance) -> WeightedFlowOutcome {
        let m = instance.machines();
        let policy = FamilyPolicy::new(self.policy(), self.params.config);
        let (log, trace, _) = osr_sim::drive(&policy, instance.jobs(), m, &self.capacity);
        WeightedFlowOutcome {
            log: log.finish().expect("all decided"),
            trace,
            effective_dispatch: dispatch::effective_dispatch_index(self.params.dispatch, m),
        }
    }
}

/// Hard budget enforcement (extension-specific; see module docs). Only
/// *dispatchable* arrivals count: an ineligible job never enters any
/// queue and must not widen the budget.
#[derive(Debug, Default)]
pub(crate) struct WeightBudget {
    arrived_weight: f64,
    dispatched_jobs: usize,
    rejected_weight: f64,
}

impl WeightBudget {
    /// A rule may only fire while staying within the hard `2ε`
    /// rejected-weight cap.
    fn allows(&self, eps: f64, extra: f64) -> bool {
        self.rejected_weight + extra <= 2.0 * eps * self.arrived_weight + 1e-12
    }
}

/// The weighted rules as one algorithm of the flow family: the
/// unit-speed `λ_ij` over the density-ordered queue, densest-first
/// starts, and the weighted Rules 1 and 2 under the hard budget, which
/// `rules` updates as dispatches land. [`WeightedFlowScheduler`] and
/// [`crate::WeightedFlowSession`] run it.
pub struct WeightedPolicy {
    eps: f64,
    budget: RefCell<WeightBudget>,
}

impl Family for WeightedPolicy {
    type Params = WeightedFlowParams;
    type Queue = DensityQueue;
    const NAME: &'static str = "weighted";

    fn open(params: WeightedFlowParams) -> Result<Self, String> {
        Ok(WeightedFlowScheduler::new(params)?.policy())
    }

    fn eps(&self) -> f64 {
        self.eps
    }

    fn queue(&self) -> DensityQueue {
        DensityQueue::new()
    }

    #[inline]
    fn bound(&self, s: &NodeStats, p: f64, w: f64) -> f64 {
        dispatch::weighted_lambda_bound(s.min_count, s.min_wsum, s.min_size, p, w, self.eps)
    }

    fn lambda(&self, q: &DensityQueue, p: f64, w: f64, r: f64, id: JobId) -> f64 {
        let probe = PendD {
            job: id,
            p,
            w,
            d: w / p,
            r,
        };
        let mut lam = w * p / self.eps;
        let mut pre_p = 0.0;
        let mut succ_w = 0.0;
        for e in q.items() {
            if e.precedes(&probe) {
                pre_p += e.p;
            } else {
                succ_w += e.w;
            }
        }
        lam += w * (pre_p + p);
        lam += succ_w * p;
        lam
    }

    fn pop_next(&self, q: &mut DensityQueue) -> Option<(JobId, f64, f64, f64)> {
        q.pop_first().map(|e| (e.job, e.p, e.w, 1.0))
    }

    fn rules(
        &self,
        st: &mut FamilyState<DensityQueue>,
        cx: &mut Ctx<'_>,
        job: &Job,
        p: &Placement,
    ) {
        let (t, mi) = (p.time, p.machine);
        // Re-dispatches skip the arrived-weight accounting — the job's
        // weight was counted at its first arrival, and double-counting
        // would widen the 2ε rejected-weight budget.
        let mut budget = self.budget.borrow_mut();
        if !p.redispatch {
            budget.arrived_weight += job.weight;
            budget.dispatched_jobs += 1;
        }
        let mean_weight = budget.arrived_weight / budget.dispatched_jobs.max(1) as f64;

        // Weighted Rule 1.
        let ms = &mut st.machines[mi];
        if let Some(run) = ms.running.as_mut() {
            run.v += job.weight;
            if run.v > run.w / self.eps && budget.allows(self.eps, run.w) {
                let run = ms.running.take().expect("present");
                budget.rejected_weight += run.w;
                reject_running(cx, mi, &run, t);
            }
        }

        // Weighted Rule 2: fire on weight cadence; the victim is the
        // lowest-density pending job, last in the density order.
        ms.c += job.weight;
        let threshold = (1.0 + (1.0 / self.eps).ceil()) * mean_weight;
        if ms.c >= threshold {
            ms.c = 0.0;
            if let Some(&victim) = ms.pending.items().last() {
                if budget.allows(self.eps, victim.w) {
                    ms.pending.pop_last();
                    st.sync(mi);
                    budget.rejected_weight += victim.w;
                    reject_pending(cx, mi, victim.job, t, threshold);
                }
            }
        }
    }
}

impl OnlineScheduler for WeightedFlowScheduler {
    fn name(&self) -> String {
        format!("wflow-ext(eps={})", self.params.eps)
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, InstanceKind, Metrics, RejectReason};
    use osr_sim::{validate_log, ValidationConfig};

    fn weighted_instance(n: usize, m: usize, seed: u64) -> Instance {
        let mut b = InstanceBuilder::new(m, InstanceKind::FlowEnergy);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = 0.0;
        for _ in 0..n {
            t += (next() % 100) as f64 / 40.0;
            let w = 1.0 + (next() % 9) as f64;
            let sizes: Vec<f64> = (0..m).map(|_| 0.5 + (next() % 25) as f64 / 2.0).collect();
            b = b.weighted_job(t, w, sizes);
        }
        b.build().unwrap()
    }

    fn assert_valid(inst: &Instance, out: &WeightedFlowOutcome) {
        let rep = validate_log(inst, &out.log, &ValidationConfig::flow_time());
        assert!(rep.is_valid(), "{:?}", rep.errors.first());
    }

    #[test]
    fn produces_valid_schedules() {
        let inst = weighted_instance(300, 3, 5);
        for eps in [0.1, 0.3, 0.8] {
            let out = WeightedFlowScheduler::with_eps(eps).unwrap().run(&inst);
            assert_valid(&inst, &out);
        }
    }

    #[test]
    fn enforced_weight_budget_holds() {
        let inst = weighted_instance(400, 2, 9);
        let total = inst.total_weight();
        for eps in [0.1, 0.25, 0.5] {
            let out = WeightedFlowScheduler::with_eps(eps).unwrap().run(&inst);
            let m = Metrics::compute(&inst, &out.log, 2.0);
            assert!(
                m.flow.rejected_weight <= 2.0 * eps * total + 1e-9,
                "eps={eps}: {} > {}",
                m.flow.rejected_weight,
                2.0 * eps * total
            );
        }
    }

    #[test]
    fn wspt_order_respected() {
        // Dense (heavy, short) job must start before a light long one.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 1.0, vec![10.0]) // starts first (alone)
            .weighted_job(0.1, 1.0, vec![5.0]) // density 0.2
            .weighted_job(0.2, 9.0, vec![3.0]) // density 3.0
            .build()
            .unwrap();
        let out = WeightedFlowScheduler::with_eps(0.9).unwrap().run(&inst);
        assert_valid(&inst, &out);
        let s1 = out.log.fate(JobId(1)).execution().map(|e| e.start);
        let s2 = out.log.fate(JobId(2)).execution().map(|e| e.start);
        if let (Some(s1), Some(s2)) = (s1, s2) {
            assert!(s2 < s1, "denser job must start first");
        }
    }

    #[test]
    fn beats_unweighted_variant_on_weighted_objective() {
        // Heavy short jobs stuck behind light long ones: the weighted
        // variant should achieve lower weighted flow than the paper's
        // unweighted algorithm (which ignores weights entirely).
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowEnergy);
        for k in 0..60 {
            let t = k as f64 * 0.5;
            if k % 3 == 0 {
                b = b.weighted_job(t, 1.0, vec![20.0]);
            } else {
                b = b.weighted_job(t, 10.0, vec![1.0]);
            }
        }
        let inst = b.build().unwrap();
        let wout = WeightedFlowScheduler::with_eps(0.25).unwrap().run(&inst);
        assert_valid(&inst, &wout);
        let w_obj = Metrics::compute(&inst, &wout.log, 2.0)
            .flow
            .weighted_flow_all;

        let uout = crate::FlowScheduler::with_eps(0.25).unwrap().run(&inst);
        let u_obj = Metrics::compute(&inst, &uout.log, 2.0)
            .flow
            .weighted_flow_all;
        assert!(
            w_obj < u_obj,
            "weighted variant {w_obj} should beat unweighted {u_obj} on weighted flow"
        );
    }

    #[test]
    fn rejections_target_low_density_jobs() {
        let inst = weighted_instance(300, 1, 21);
        let out = WeightedFlowScheduler::with_eps(0.2).unwrap().run(&inst);
        // Mean density of rejected jobs must not exceed the mean density
        // of all jobs (the rules prefer low-density victims; Rule 1 can
        // catch anything that was running, so compare means, loosely).
        let dens = |id: JobId| {
            let j = inst.job(id);
            j.weight / j.min_size()
        };
        let all_mean: f64 = inst
            .jobs()
            .iter()
            .map(|j| j.weight / j.min_size())
            .sum::<f64>()
            / inst.len() as f64;
        let rejected: Vec<f64> = out.log.rejections().map(|(id, _)| dens(id)).collect();
        if rejected.len() >= 5 {
            let rej_mean: f64 = rejected.iter().sum::<f64>() / rejected.len() as f64;
            assert!(
                rej_mean <= all_mean * 1.5,
                "rejections should skew low-density: {rej_mean} vs {all_mean}"
            );
        }
    }

    #[test]
    fn invalid_eps_rejected() {
        assert!(WeightedFlowScheduler::with_eps(0.0).is_err());
        assert!(WeightedFlowScheduler::with_eps(1.5).is_err());
    }

    #[test]
    fn pruned_and_linear_dispatch_agree() {
        let inst = weighted_instance(400, 10, 33);
        for eps in [0.15, 0.4] {
            let mut pp = WeightedFlowParams::new(eps);
            pp.dispatch = crate::DispatchIndex::Pruned;
            let mut pl = WeightedFlowParams::new(eps);
            pl.dispatch = crate::DispatchIndex::Linear;
            let a = WeightedFlowScheduler::new(pp).unwrap().run(&inst);
            let b = WeightedFlowScheduler::new(pl).unwrap().run(&inst);
            assert_eq!(a.log, b.log, "eps={eps}");
        }
    }

    #[test]
    fn everywhere_ineligible_job_is_rejected_not_a_panic() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 2.0, vec![1.0, 2.0])
            .weighted_job(0.5, 5.0, vec![f64::INFINITY, f64::INFINITY])
            .build()
            .unwrap();
        let out = WeightedFlowScheduler::with_eps(0.3).unwrap().run(&inst);
        assert_valid(&inst, &out);
        let rej = out.log.fate(JobId(1)).rejection().expect("dropped");
        assert_eq!(rej.reason, RejectReason::Ineligible);
        assert!(out.log.fate(JobId(0)).is_completed());
    }
}
