//! §3 — online non-preemptive weighted flow-time **plus energy**
//! minimization under speed scaling (Theorem 2).
//!
//! ## Model
//!
//! Machines obey the power law `P(s) = s^α` (`α > 1`). A job `j` has a
//! weight `w_j` and a machine-dependent *volume* `p_ij`; run at constant
//! speed `s` it occupies the machine for `p_ij / s`. The objective is
//! `Σ_j w_j F_j + Σ_i ∫ s_i(t)^α dt`.
//!
//! ## The algorithm
//!
//! * **Dispatch** — at arrival, send `j` to the machine minimizing
//!
//!   ```text
//!   λ_ij = w_j ( p_ij/ε + Σ_{ℓ⪯j} p_iℓ/(γ·W_ℓ^{1/α}) )
//!        + ( Σ_{ℓ≻j} w_ℓ ) · p_ij/(γ·W_j^{1/α})
//!   ```
//!
//!   where pending jobs are ordered by **non-increasing density**
//!   `δ_iℓ = w_ℓ/p_iℓ` (ties: earliest release) and `W_ℓ` is the prefix
//!   weight up to `ℓ` inclusive.
//! * **Scheduling** — when a machine goes idle, start the
//!   highest-density pending job at speed
//!   `s = γ·(Σ_{ℓ∈U_i(t)} w_ℓ)^{1/α}`, fixed until the job finishes.
//! * **Rejection** — a weight counter `v_k` on the running job
//!   accumulates the weight of jobs dispatched to the machine during
//!   `k`'s run; when `v_k > w_k/ε` the job is interrupted and rejected.
//!
//! Theorem 2: `O((1+1/ε)^{α/(α-1)})`-competitive, rejecting total
//! weight at most `ε·Σ_j w_j`.
//!
//! ## The speed factor `γ`
//!
//! The proof leaves `γ` free and then picks a value optimizing the
//! ratio. The closed form printed in the paper degenerates for
//! `α ≤ 2` (`ln(α−1) ≤ 0`), so [`EnergyFlowParams`] defaults to the
//! numerically optimized `γ*` from the same ratio expression (see
//! [`crate::bounds::energyflow_competitive_bound`]); callers may
//! override it.

pub mod dual;

use osr_dstruct::NodeStats;
use osr_model::{FinishedLog, Instance, Job, JobId};
use osr_sim::{
    driver::{Placement, ShardCtx},
    CapacityPlan, DecisionTrace, OnlineScheduler,
};

use crate::config::SchedulerConfig;
use crate::dispatch::{self, DispatchIndex};
use crate::family::{reject_running, DensityQueue, Family, FamilyPolicy, FamilyShard, PendD};

pub use crate::family::JobRecord as EnergyFlowJobRecord;
pub use dual::{check_energyflow_dual, EnergyFlowAudit};

/// Parameters of the §3 algorithm.
///
/// The runtime knobs live in the embedded [`SchedulerConfig`]
/// (`params.config`); the struct derefs to it, so `params.dispatch`
/// etc. keep working as plain field accesses (the `backend` knob is
/// inert here — §3 queues are density-sorted `Vec`s).
#[derive(Debug, Clone, Copy)]
pub struct EnergyFlowParams {
    /// Rejected-weight budget `ε ∈ (0, 1]`.
    pub eps: f64,
    /// Power exponent `α > 1`.
    pub alpha: f64,
    /// Speed factor; `None` → numerically optimized `γ*`.
    pub gamma: Option<f64>,
    /// Enable the rejection rule (ablation toggle).
    pub reject: bool,
    /// Shared runtime knobs (see [`SchedulerConfig`]).
    pub config: SchedulerConfig,
}

impl std::ops::Deref for EnergyFlowParams {
    type Target = SchedulerConfig;
    fn deref(&self) -> &SchedulerConfig {
        &self.config
    }
}

impl std::ops::DerefMut for EnergyFlowParams {
    fn deref_mut(&mut self) -> &mut SchedulerConfig {
        &mut self.config
    }
}

impl EnergyFlowParams {
    /// Standard parameters (process-default runtime knobs).
    pub fn new(eps: f64, alpha: f64) -> Self {
        EnergyFlowParams {
            eps,
            alpha,
            gamma: None,
            reject: true,
            config: SchedulerConfig::default(),
        }
    }
}

/// Full outcome of a §3 run.
#[derive(Debug)]
pub struct EnergyFlowOutcome {
    /// The schedule log.
    pub log: FinishedLog,
    /// Decision audit trail.
    pub trace: DecisionTrace,
    /// Per-job dual records.
    pub records: Vec<EnergyFlowJobRecord>,
    /// The `γ` actually used.
    pub gamma: f64,
    /// The parameters.
    pub params: EnergyFlowParams,
    /// The dispatch strategy that actually ran (`Pruned` degrades to
    /// `Linear` below [`crate::PRUNED_MIN_MACHINES`]; label ablations
    /// by this).
    pub effective_dispatch: DispatchIndex,
    /// The driver shard count that actually ran (requests clamp to the
    /// rack count; `1` = the serial oracle path).
    pub effective_shards: usize,
}

impl EnergyFlowOutcome {
    /// `Σ_j λ_j` of the constructed dual.
    pub fn sum_lambda(&self) -> f64 {
        self.records.iter().map(|r| r.lambda).sum()
    }
}

/// The §3 scheduler.
///
/// ```
/// use osr_core::energyflow::{EnergyFlowParams, EnergyFlowScheduler};
/// use osr_model::{InstanceBuilder, InstanceKind, Metrics};
///
/// let instance = InstanceBuilder::new(1, InstanceKind::FlowEnergy)
///     .weighted_job(0.0, 4.0, vec![2.0])
///     .build()
///     .unwrap();
/// let sched = EnergyFlowScheduler::new(EnergyFlowParams::new(0.5, 2.0)).unwrap();
/// let out = sched.run(&instance);
/// let metrics = Metrics::compute(&instance, &out.log, 2.0);
/// assert!(metrics.weighted_flow_plus_energy() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyFlowScheduler {
    params: EnergyFlowParams,
    gamma: f64,
    capacity: CapacityPlan,
}

impl EnergyFlowScheduler {
    /// Validates parameters and resolves `γ`.
    pub fn new(params: EnergyFlowParams) -> Result<Self, String> {
        if !(params.eps > 0.0 && params.eps <= 1.0 && params.eps.is_finite()) {
            return Err(format!("eps must be in (0, 1], got {}", params.eps));
        }
        if !(params.alpha > 1.0) || !params.alpha.is_finite() {
            return Err(format!("alpha must exceed 1, got {}", params.alpha));
        }
        let gamma = match params.gamma {
            Some(g) if g > 0.0 && g.is_finite() => g,
            Some(g) => return Err(format!("gamma must be positive, got {g}")),
            None => optimal_gamma(params.eps, params.alpha),
        };
        Ok(EnergyFlowScheduler {
            params,
            gamma,
            capacity: CapacityPlan::empty(),
        })
    }

    /// Attaches a capacity plan (builder-style): the run replays the
    /// plan's join/drain/crash stream alongside arrivals, re-dispatching
    /// the jobs of draining/crashing machines.
    pub fn with_capacity(mut self, plan: CapacityPlan) -> Self {
        self.capacity = plan;
        self
    }

    /// The `γ` in effect.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The §3 rules under these parameters and `γ`.
    fn policy(&self) -> EnergyPolicy {
        EnergyPolicy {
            params: self.params,
            gamma: self.gamma,
        }
    }

    /// Runs the algorithm, producing the full outcome.
    ///
    /// The event loop lives in [`osr_sim::driver`] and the dispatch
    /// search and per-job records in the flow-family skeleton
    /// (`crate::family`); this method supplies the §3 rules
    /// (`EnergyPolicy`) and returns the records the driver folds in at
    /// every barrier.
    pub fn run(&self, instance: &Instance) -> EnergyFlowOutcome {
        let m = instance.machines();
        let jobs = instance.jobs();
        let policy = FamilyPolicy::new(self.policy(), self.params.config, m);
        let mut records = vec![EnergyFlowJobRecord::EMPTY; jobs.len()];
        let (log, trace, effective_shards) = osr_sim::drive(
            &policy,
            jobs,
            m,
            &self.capacity,
            self.params.shards,
            &mut records,
        );
        let log = log.finish().expect("all jobs decided");
        EnergyFlowOutcome {
            log,
            trace,
            records,
            gamma: self.gamma,
            params: self.params,
            effective_dispatch: dispatch::effective_dispatch_index(self.params.dispatch, m),
            effective_shards,
        }
    }
}

/// The §3 rules as one algorithm of the flow family: the speed-scaled
/// `λ_ij` over the density-ordered queue, densest-first starts at
/// speed `γ·W^{1/α}`, and the weight-counter rejection rule.
/// [`EnergyFlowScheduler`] and [`crate::EnergyFlowSession`] run it.
pub struct EnergyPolicy {
    params: EnergyFlowParams,
    gamma: f64,
}

impl EnergyPolicy {
    /// The resolved speed factor `γ`.
    pub(crate) fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Family for EnergyPolicy {
    type Params = EnergyFlowParams;
    type Queue = DensityQueue;
    const NAME: &'static str = "energy";

    fn open(params: EnergyFlowParams) -> Result<Self, String> {
        Ok(EnergyFlowScheduler::new(params)?.policy())
    }

    fn eps(&self) -> f64 {
        self.params.eps
    }

    fn queue(&self) -> DensityQueue {
        DensityQueue::new()
    }

    #[inline]
    fn bound(&self, s: &NodeStats, p: f64, w: f64) -> f64 {
        let (eps, alpha) = (self.params.eps, self.params.alpha);
        dispatch::energy_lambda_bound(
            s.min_wsum, s.max_wsum, s.min_size, p, w, eps, self.gamma, alpha,
        )
    }

    fn lambda(&self, q: &DensityQueue, p: f64, w: f64, r: f64, id: JobId) -> f64 {
        let alpha = self.params.alpha;
        let gamma = self.gamma;
        let probe = PendD {
            job: id,
            p,
            w,
            d: w / p,
            r,
        };
        let mut lam = w * p / self.params.eps;
        let mut prefix_w = 0.0;
        let mut term_pre = 0.0;
        let mut succ_w = 0.0;
        for e in q.items() {
            if e.precedes(&probe) {
                prefix_w += e.w;
                term_pre += e.p / (gamma * prefix_w.powf(1.0 / alpha));
            } else {
                succ_w += e.w;
            }
        }
        let w_j = prefix_w + w;
        term_pre += p / (gamma * w_j.powf(1.0 / alpha));
        lam += w * term_pre;
        lam += succ_w * p / (gamma * w_j.powf(1.0 / alpha));
        lam
    }

    fn pop_next(&self, q: &mut DensityQueue) -> Option<(JobId, f64, f64, f64)> {
        if q.items().is_empty() {
            return None;
        }
        // Speed uses the total pending weight *including* the job about
        // to start (it is in U_i(t) at this instant).
        let speed = self.gamma * q.weight().powf(1.0 / self.params.alpha);
        q.pop_first().map(|e| (e.job, e.p, e.w, speed))
    }

    fn rules(
        &self,
        sh: &mut FamilyShard<DensityQueue>,
        cx: &mut ShardCtx<'_>,
        job: &Job,
        p: &Placement,
        li: usize,
    ) {
        let (t, mi) = (p.time, p.machine);
        // Rejection rule: charge the arriving weight to the running
        // job; reject it when the counter exceeds w_k/ε.
        let ms = &mut sh.machines[li];
        let Some(run) = ms.running.as_mut() else {
            return;
        };
        run.v += job.weight;
        if self.params.reject && run.v > run.w / self.params.eps {
            let run = ms.running.take().expect("present");
            reject_running(cx, mi, &run, t);
            ms.ledger.push(t, (run.completion - t).max(0.0)); // q_ik(t)/s_k
            let def_finish = sh.settle(cx.jobs, li, run.job, t);
            sh.exit(run.job, t, def_finish);
        }
    }
}

impl OnlineScheduler for EnergyFlowScheduler {
    fn name(&self) -> String {
        format!(
            "spaa18-flow+energy(eps={}, alpha={}, gamma={:.3})",
            self.params.eps, self.params.alpha, self.gamma
        )
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).log
    }
}

/// Numerically optimizes the proof's ratio over `γ` (same expression as
/// [`crate::bounds::energyflow_competitive_bound`], returning the argmin
/// instead of the minimum).
pub fn optimal_gamma(eps: f64, alpha: f64) -> f64 {
    let ratio = |gamma: f64| -> f64 {
        let num = 2.0 + alpha / (gamma * (alpha - 1.0)) + gamma.powf(alpha);
        let inner = eps / (gamma * (1.0 + eps) * (alpha - 1.0));
        let den = eps / (1.0 + eps) - (alpha - 1.0) * inner.powf(alpha / (alpha - 1.0));
        if den > 1e-12 {
            num / den
        } else {
            f64::INFINITY
        }
    };
    let mut best = f64::INFINITY;
    let mut best_g = 1.0;
    let mut lo: f64 = 1e-3;
    let mut hi: f64 = 1e3;
    for _ in 0..4 {
        let steps = 400;
        for k in 0..=steps {
            let g = lo * (hi / lo).powf(k as f64 / steps as f64);
            let r = ratio(g);
            if r < best {
                best = r;
                best_g = g;
            }
        }
        lo = best_g / 3.0;
        hi = best_g * 3.0;
    }
    best_g
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, InstanceKind, MachineId, Metrics, RejectReason};
    use osr_sim::{validate_log, ValidationConfig};

    fn assert_valid(inst: &Instance, out: &EnergyFlowOutcome) {
        let rep = validate_log(inst, &out.log, &ValidationConfig::flow_energy());
        assert!(rep.is_valid(), "invalid: {:?}", rep.errors);
    }

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
            t += (next() % 100) as f64 / 30.0;
            let w = 1.0 + (next() % 8) as f64;
            let sizes: Vec<f64> = (0..m).map(|_| 0.5 + (next() % 30) as f64 / 3.0).collect();
            b = b.weighted_job(t, w, sizes);
        }
        b.build().unwrap()
    }

    #[test]
    fn single_job_runs_at_gamma_weight_speed() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 8.0, vec![4.0])
            .build()
            .unwrap();
        let sched = EnergyFlowScheduler::new(EnergyFlowParams::new(0.5, 2.0)).unwrap();
        let out = sched.run(&inst);
        assert_valid(&inst, &out);
        let e = out.log.fate(JobId(0)).execution().unwrap();
        let expect = sched.gamma() * 8.0f64.powf(0.5);
        assert!(
            (e.speed - expect).abs() < 1e-9,
            "speed {} vs {expect}",
            e.speed
        );
        assert!((e.completion - 4.0 / expect).abs() < 1e-9);
    }

    #[test]
    fn highest_density_first_order() {
        // j0 (low density) starts immediately; j1 and j2 then queue. HDF
        // must start the denser j2 before j1 once j0 finishes.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 1.0, vec![10.0]) // density 0.1
            .weighted_job(0.1, 1.0, vec![4.0]) // density 0.25
            .weighted_job(0.2, 8.0, vec![4.0]) // density 2.0
            .build()
            .unwrap();
        let params = EnergyFlowParams {
            gamma: Some(1.0),
            reject: false,
            ..EnergyFlowParams::new(1.0, 2.0)
        };
        let out = EnergyFlowScheduler::new(params).unwrap().run(&inst);
        assert_valid(&inst, &out);
        let s1 = out.log.fate(JobId(1)).execution().unwrap().start;
        let s2 = out.log.fate(JobId(2)).execution().unwrap().start;
        assert!(
            s2 < s1,
            "denser job must start first (j2 at {s2}, j1 at {s1})"
        );
    }

    #[test]
    fn rejection_budget_in_weight_respected() {
        let inst = weighted_instance(300, 2, 17);
        let total_w = inst.total_weight();
        for eps in [0.1, 0.3, 0.6] {
            let out = EnergyFlowScheduler::new(EnergyFlowParams::new(eps, 2.5))
                .unwrap()
                .run(&inst);
            assert_valid(&inst, &out);
            let m = Metrics::compute(&inst, &out.log, 2.5);
            assert!(
                m.flow.rejected_weight <= eps * total_w + 1e-9,
                "eps={eps}: rejected weight {} > {}",
                m.flow.rejected_weight,
                eps * total_w
            );
        }
    }

    #[test]
    fn rejection_counter_is_weight_based() {
        // Running job weight 1, eps=0.5 → reject when accumulated
        // arriving weight exceeds 2.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 1.0, vec![100.0])
            .weighted_job(1.0, 1.5, vec![1.0])
            .weighted_job(2.0, 1.0, vec![1.0])
            .build()
            .unwrap();
        let params = EnergyFlowParams {
            gamma: Some(1.0),
            ..EnergyFlowParams::new(0.5, 2.0)
        };
        let out = EnergyFlowScheduler::new(params).unwrap().run(&inst);
        assert_valid(&inst, &out);
        let rej = out.log.fate(JobId(0)).rejection().expect("rejected");
        // v = 1.5 at t=1 (≤ 2), v = 2.5 at t=2 (> 2) → rejected at 2.
        assert_eq!(rej.time, 2.0);
    }

    #[test]
    fn no_rejection_when_disabled() {
        let inst = weighted_instance(100, 2, 3);
        let params = EnergyFlowParams {
            reject: false,
            ..EnergyFlowParams::new(0.1, 2.0)
        };
        let out = EnergyFlowScheduler::new(params).unwrap().run(&inst);
        assert_eq!(out.log.rejected_count(), 0);
        assert_valid(&inst, &out);
    }

    #[test]
    fn energy_accounting_matches_speeds() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 4.0, vec![2.0])
            .build()
            .unwrap();
        let params = EnergyFlowParams {
            gamma: Some(0.5),
            ..EnergyFlowParams::new(0.5, 3.0)
        };
        let out = EnergyFlowScheduler::new(params).unwrap().run(&inst);
        let m = Metrics::compute(&inst, &out.log, 3.0);
        let e = out.log.fate(JobId(0)).execution().unwrap();
        let expected = (e.completion - e.start) * e.speed.powf(3.0);
        assert!((m.energy.total() - expected).abs() < 1e-9);
    }

    #[test]
    fn objective_at_least_alone_cost_of_completed_jobs() {
        let inst = weighted_instance(80, 2, 99);
        let alpha = 2.0;
        let out = EnergyFlowScheduler::new(EnergyFlowParams::new(0.3, alpha))
            .unwrap()
            .run(&inst);
        assert_valid(&inst, &out);
        let m = Metrics::compute(&inst, &out.log, alpha);
        let obj = m.weighted_flow_plus_energy();
        let mut floor = 0.0;
        for (id, _e) in out.log.executions() {
            let job = inst.job(id);
            let p = job.min_size();
            let s_star = (job.weight / (alpha - 1.0)).powf(1.0 / alpha);
            floor += job.weight * p / s_star + p * s_star.powf(alpha - 1.0);
        }
        assert!(
            obj + 1e-9 >= floor,
            "objective {obj} below alone-cost floor {floor}"
        );
    }

    #[test]
    fn dispatch_splits_by_affinity() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 1.0, vec![1.0, 50.0])
            .weighted_job(0.0, 1.0, vec![50.0, 1.0])
            .build()
            .unwrap();
        let out = EnergyFlowScheduler::new(EnergyFlowParams::new(0.5, 2.0))
            .unwrap()
            .run(&inst);
        let e0 = out.log.fate(JobId(0)).execution().unwrap();
        let e1 = out.log.fate(JobId(1)).execution().unwrap();
        assert_eq!(e0.machine, MachineId(0));
        assert_eq!(e1.machine, MachineId(1));
    }

    #[test]
    fn def_finish_dominates_exit() {
        let inst = weighted_instance(150, 3, 41);
        let out = EnergyFlowScheduler::new(EnergyFlowParams::new(0.2, 2.0))
            .unwrap()
            .run(&inst);
        for r in &out.records {
            assert!(r.def_finish + 1e-9 >= r.exit);
            assert!(r.exit.is_finite());
        }
    }

    #[test]
    fn optimal_gamma_is_positive_and_stable() {
        for &(eps, alpha) in &[(0.1, 2.0), (0.5, 2.0), (0.5, 3.0), (0.9, 1.5)] {
            let g = optimal_gamma(eps, alpha);
            assert!(g > 0.0 && g.is_finite(), "eps={eps} alpha={alpha} g={g}");
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(EnergyFlowScheduler::new(EnergyFlowParams::new(0.0, 2.0)).is_err());
        assert!(EnergyFlowScheduler::new(EnergyFlowParams::new(0.5, 1.0)).is_err());
        assert!(EnergyFlowScheduler::new(EnergyFlowParams {
            gamma: Some(-1.0),
            ..EnergyFlowParams::new(0.5, 2.0)
        })
        .is_err());
    }

    #[test]
    fn speed_accounts_for_queue_weight() {
        // j0 starts alone (speed √3). While it runs, j1 and j2 queue up
        // (weights 1 and 3). At j0's completion the next start must see
        // pending weight 4 → speed √4 = 2.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 3.0, vec![6.0])
            .weighted_job(1.0, 1.0, vec![6.0])
            .weighted_job(2.0, 3.0, vec![6.0])
            .build()
            .unwrap();
        let params = EnergyFlowParams {
            gamma: Some(1.0),
            reject: false,
            ..EnergyFlowParams::new(1.0, 2.0)
        };
        let out = EnergyFlowScheduler::new(params).unwrap().run(&inst);
        let e0 = out.log.fate(JobId(0)).execution().unwrap();
        assert!(
            (e0.speed - 3.0f64.sqrt()).abs() < 1e-9,
            "first speed {}",
            e0.speed
        );
        // j2 (density 0.5) precedes j1 (density 1/6): it starts second.
        let e2 = out.log.fate(JobId(2)).execution().unwrap();
        assert!((e2.start - e0.completion).abs() < 1e-9);
        assert!((e2.speed - 2.0).abs() < 1e-9, "second speed {}", e2.speed);
    }

    #[test]
    fn pruned_and_linear_dispatch_agree() {
        let inst = weighted_instance(300, 9, 71);
        for (eps, alpha) in [(0.2, 2.0), (0.5, 2.5)] {
            let mut pp = EnergyFlowParams::new(eps, alpha);
            pp.dispatch = crate::DispatchIndex::Pruned;
            let mut pl = EnergyFlowParams::new(eps, alpha);
            pl.dispatch = crate::DispatchIndex::Linear;
            let a = EnergyFlowScheduler::new(pp).unwrap().run(&inst);
            let b = EnergyFlowScheduler::new(pl).unwrap().run(&inst);
            assert_eq!(a.log, b.log, "eps={eps} alpha={alpha}");
            assert_eq!(a.sum_lambda(), b.sum_lambda());
        }
    }

    #[test]
    fn everywhere_ineligible_job_is_rejected_not_a_panic() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 1.0, vec![2.0, 3.0])
            .weighted_job(1.0, 4.0, vec![f64::INFINITY, f64::INFINITY])
            .build()
            .unwrap();
        let out = EnergyFlowScheduler::new(EnergyFlowParams::new(0.4, 2.0))
            .unwrap()
            .run(&inst);
        assert_valid(&inst, &out);
        let rej = out.log.fate(JobId(1)).rejection().expect("dropped");
        assert_eq!(rej.reason, RejectReason::Ineligible);
        let rec = &out.records[1];
        assert_eq!(rec.machine, u32::MAX);
        assert_eq!(rec.lambda, 0.0);
        assert_eq!(rec.exit, 1.0);
        assert_eq!(rec.def_finish, 1.0);
        assert!(out.log.fate(JobId(0)).is_completed());
    }

    #[test]
    fn lambda_j_recorded_for_every_job() {
        let inst = weighted_instance(50, 2, 7);
        let out = EnergyFlowScheduler::new(EnergyFlowParams::new(0.4, 2.0))
            .unwrap()
            .run(&inst);
        for r in &out.records {
            assert!(r.lambda > 0.0);
            assert!(r.machine != u32::MAX);
        }
        assert!(out.sum_lambda() > 0.0);
    }
}
