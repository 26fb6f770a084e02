//! §2 — online non-preemptive total flow-time minimization with
//! rejections (Theorem 1).
//!
//! ## The algorithm
//!
//! Every job is dispatched immediately at arrival to the machine
//! minimizing
//!
//! ```text
//! λ_ij = (1/ε)·p_ij + Σ_{ℓ⪯j} p_iℓ + Σ_{ℓ≻j} p_ij
//! ```
//!
//! over the machine's pending queue ordered by processing time (ties:
//! earliest release). Whenever a machine goes idle it starts the
//! shortest pending job (SPT). Two rejection rules bound the damage a
//! wrong non-preemptive commitment can cause:
//!
//! * **Rule 1** — a counter `v_k` on the running job `k` counts jobs
//!   dispatched to the machine during `k`'s execution; when it reaches
//!   `⌈1/ε⌉` the algorithm *interrupts and rejects* `k` (long jobs
//!   cannot starve a burst of short arrivals).
//! * **Rule 2** — a per-machine counter `c_i` counts dispatches; every
//!   `1 + ⌈1/ε⌉` dispatches the *largest pending* job is rejected and
//!   the counter resets (a surrogate for speed augmentation: the queue
//!   drains faster than jobs arrive).
//!
//! Theorem 1: the result is `2((1+ε)/ε)²`-competitive for total
//! flow-time while rejecting at most a `2ε` fraction of jobs.
//!
//! ## Dual accounting
//!
//! The run simultaneously constructs the dual solution of the paper's
//! analysis: `λ_j = ε/(1+ε)·min_i λ_ij` at each arrival and the
//! definitive-finish times `C̃_j` that define `β_i(t)`. By weak duality
//! (and the factor-2 LP relaxation) this yields a **certified lower
//! bound** `(Σλ_j − ∫Σβ)/2` on the optimal total flow-time of *any*
//! non-preemptive schedule — the denominator of every competitive-ratio
//! measurement in the experiments. See [`dual`].

pub mod dual;
pub mod queue;
pub mod weighted;

use osr_dstruct::{NodeStats, TotalF64};
use osr_model::{FinishedLog, Instance, Job, JobId};
use osr_sim::{
    driver::{Placement, ShardCtx},
    CapacityPlan, DecisionTrace, OnlineScheduler,
};

use crate::config::SchedulerConfig;
use crate::dispatch::{self, DispatchIndex};
use crate::epsilon::Thresholds;
use crate::family::{reject_pending, reject_running, Family, FamilyPolicy, FamilyShard, JobRecord};
pub use dual::{check_dual_feasibility, DualAudit, FlowDual};
pub use queue::QueueBackend;
use queue::{lambda_ij, pend_key, PendKey, PendQueue};
pub use weighted::{WeightedFlowOutcome, WeightedFlowParams, WeightedFlowScheduler};

/// Parameters of the §2 algorithm.
///
/// The runtime knobs (queue backend, dispatch strategy, capacity-index
/// mode, propagation, kernels, shards) live in the embedded
/// [`SchedulerConfig`]; `FlowParams` derefs to it, so
/// `params.dispatch`, `params.backend` etc. keep reading and writing
/// as plain fields.
#[derive(Debug, Clone, Copy)]
pub struct FlowParams {
    /// Rejection-budget parameter `ε ∈ (0, 1]`.
    pub eps: f64,
    /// Enable Rule 1 (ablation toggle; the theorem requires both rules).
    pub rule1: bool,
    /// Enable Rule 2 (ablation toggle).
    pub rule2: bool,
    /// Shared runtime knobs (see [`SchedulerConfig`]).
    pub config: SchedulerConfig,
}

impl std::ops::Deref for FlowParams {
    type Target = SchedulerConfig;
    fn deref(&self) -> &SchedulerConfig {
        &self.config
    }
}

impl std::ops::DerefMut for FlowParams {
    fn deref_mut(&mut self) -> &mut SchedulerConfig {
        &mut self.config
    }
}

impl FlowParams {
    /// Standard parameters: both rules on, and the process-default
    /// runtime knobs ([`SchedulerConfig::default`]).
    pub fn new(eps: f64) -> Self {
        FlowParams {
            eps,
            rule1: true,
            rule2: true,
            config: SchedulerConfig::default(),
        }
    }

    /// Ablation constructor.
    pub fn with_rules(eps: f64, rule1: bool, rule2: bool) -> Self {
        FlowParams {
            rule1,
            rule2,
            ..FlowParams::new(eps)
        }
    }
}

/// Everything a run produces: the schedule, the dual solution, and the
/// decision trace.
#[derive(Debug)]
pub struct FlowOutcome {
    /// The validated-format schedule log.
    pub log: FinishedLog,
    /// Dual variables and the certified lower bound.
    pub dual: FlowDual,
    /// Decision audit trail.
    pub trace: DecisionTrace,
    /// The dispatch strategy that actually ran: `Pruned` degrades to
    /// `Linear` below [`crate::PRUNED_MIN_MACHINES`], and ablation
    /// harnesses must label rows by *this*, not the request
    /// (see [`crate::dispatch::effective_dispatch_index`]).
    pub effective_dispatch: DispatchIndex,
    /// The shard count the driver actually ran with (requests are
    /// clamped to one shard per rack; `1` means the serial path).
    pub effective_shards: usize,
}

/// The §2 scheduler. Construct via [`FlowScheduler::new`]; run via
/// [`FlowScheduler::run`] (rich outcome) or the
/// [`OnlineScheduler`] trait (log only).
///
/// ```
/// use osr_core::FlowScheduler;
/// use osr_model::{InstanceBuilder, InstanceKind};
///
/// let instance = InstanceBuilder::new(2, InstanceKind::FlowTime)
///     .job(0.0, vec![3.0, 6.0])
///     .job(1.0, vec![5.0, 2.0])
///     .build()
///     .unwrap();
/// let outcome = FlowScheduler::with_eps(0.5).unwrap().run(&instance);
/// assert_eq!(outcome.log.len(), 2);
/// // The run certifies a dual-based lower bound on OPT.
/// assert!(outcome.dual.opt_lower_bound() >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct FlowScheduler {
    params: FlowParams,
    thresholds: Thresholds,
    capacity: CapacityPlan,
}

impl FlowScheduler {
    /// Validates `params` and builds the scheduler.
    pub fn new(params: FlowParams) -> Result<Self, String> {
        let thresholds = Thresholds::new(params.eps)?;
        Ok(FlowScheduler {
            params,
            thresholds,
            capacity: CapacityPlan::empty(),
        })
    }

    /// Convenience constructor with default parameters for `eps`.
    pub fn with_eps(eps: f64) -> Result<Self, String> {
        Self::new(FlowParams::new(eps))
    }

    /// Attaches a capacity plan (builder-style): the run replays the
    /// plan's join/drain/crash stream alongside arrivals, re-dispatching
    /// the jobs of draining/crashing machines.
    pub fn with_capacity(mut self, plan: CapacityPlan) -> Self {
        self.capacity = plan;
        self
    }

    /// The thresholds in effect.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The §2 rules for a run whose machines preallocate `cap_hint`
    /// pending slots each.
    fn policy(&self, cap_hint: usize) -> FlowPolicy {
        FlowPolicy {
            th: self.thresholds,
            params: self.params,
            cap_hint,
        }
    }

    /// Runs the algorithm over `instance`, producing the full outcome.
    ///
    /// The event loop itself — the three-way arrival/completion/capacity
    /// merge, the re-dispatch discipline, the shared reject accounting —
    /// lives in [`osr_sim::driver`], and the flow-family skeleton
    /// (`crate::family`) supplies the dispatch search and the per-job
    /// records; this method adds the §2 rules (`FlowPolicy`) and
    /// assembles the dual from the records.
    pub fn run(&self, instance: &Instance) -> FlowOutcome {
        let m = instance.machines();
        let n = instance.len();
        let jobs = instance.jobs();
        // Preallocate each machine's pending arena for an even share of
        // the jobs (clamped: adversarial instances can pile everything
        // onto one machine, which then grows once past the hint).
        let policy =
            FamilyPolicy::new(self.policy((n / m + 1).min(1 << 16)), self.params.config, m);
        let mut records = vec![JobRecord::EMPTY; n];
        let (log, trace, effective_shards) = osr_sim::drive(
            &policy,
            jobs,
            m,
            &self.capacity,
            self.params.shards,
            &mut records,
        );
        let log = log.finish().expect("every job completed or rejected");
        let field = |f: fn(&JobRecord) -> f64| records.iter().map(f).collect();
        let dual = FlowDual::assemble(
            self.thresholds,
            field(|r| r.lambda),
            jobs.iter().map(|j| j.release).collect(),
            field(|r| r.exit),
            field(|r| r.def_finish),
            records.iter().map(|r| r.machine).collect(),
        );
        FlowOutcome {
            log,
            dual,
            trace,
            effective_dispatch: dispatch::effective_dispatch_index(self.params.dispatch, m),
            effective_shards,
        }
    }
}

/// Pending-arena preallocation per machine in serve mode. Offline runs
/// size the hint from `n / m`, but a stream's length is unknown up
/// front; any value is schedule-neutral (the hint only pre-reserves
/// arena space — treap shapes depend on the insertion sequence alone),
/// so serve uses a small constant and lets hot machines grow.
const SERVE_CAP_HINT: usize = 64;

/// The §2 rules as one algorithm of the flow family: `λ_ij` over the
/// SPT-ordered queue, SPT starts at unit speed, Rules 1 and 2, and the
/// `C̃_j` charges. [`FlowScheduler`] and [`crate::FlowSession`] run it.
pub struct FlowPolicy {
    th: Thresholds,
    params: FlowParams,
    /// Pending slots each machine's queue preallocates.
    cap_hint: usize,
}

impl Family for FlowPolicy {
    type Params = FlowParams;
    type Queue = PendQueue;
    const NAME: &'static str = "flow";

    fn open(params: FlowParams) -> Result<Self, String> {
        Ok(FlowScheduler::new(params)?.policy(SERVE_CAP_HINT))
    }

    fn eps(&self) -> f64 {
        self.th.eps
    }

    fn queue(&self) -> PendQueue {
        PendQueue::with_capacity(self.params.backend, self.cap_hint)
    }

    #[inline]
    fn bound(&self, s: &NodeStats, p: f64, _w: f64) -> f64 {
        dispatch::flow_lambda_bound(s.min_count, s.min_size, p, self.th.inv_eps)
    }

    #[inline]
    fn lambda(&self, q: &PendQueue, p: f64, _w: f64, t: f64, id: JobId) -> f64 {
        lambda_ij(q, &pend_key(p, t, id), p, self.th.inv_eps)
    }

    fn pop_next(&self, q: &mut PendQueue) -> Option<(JobId, f64, f64, f64)> {
        q.pop_first()
            .map(|((p, _r, id), _w)| (JobId(id), p.get(), p.get(), 1.0))
    }

    fn rules(
        &self,
        sh: &mut FamilyShard<PendQueue>,
        cx: &mut ShardCtx<'_>,
        job: &Job,
        p: &Placement,
        li: usize,
    ) {
        let (t, mi) = (p.time, p.machine);
        // Rule 1: the dispatch counts against the running job.
        let ms = &mut sh.machines[li];
        if let Some(run) = ms.running.as_mut() {
            run.v += 1.0;
            if self.params.rule1 && run.v >= self.th.rule1_at as f64 {
                let run = ms.running.take().expect("present");
                reject_running(cx, mi, &run, t);
                // Dual bookkeeping: the rejected job's remaining time is
                // charged to every job whose [r, C] window covers t —
                // including k itself ("including j in case it is
                // rejected"): push the event before finalizing C̃_k.
                ms.ledger.push(t, run.completion - t);
                let c_tilde = sh.settle(cx.jobs, li, run.job, t);
                sh.exit(run.job, t, c_tilde);
            }
        }

        // Rule 2: every `1 + ⌈1/ε⌉` dispatches, drop the largest
        // pending job.
        let ms = &mut sh.machines[li];
        ms.c += 1.0;
        if self.params.rule2 && ms.c >= self.th.rule2_at as f64 {
            ms.c = 0.0;
            if let Some(((p_max, _r, id), _w)) = ms.pending.pop_last() {
                sh.sync(li);
                let jmax = JobId(id);
                reject_pending(cx, mi, jmax, t, self.th.rule2_at as f64);
                // C̃ for a Rule-2 rejection adds the estimated
                // completion had it stayed: remaining of the running
                // job + pending work except the triggering arrival +
                // its own size (§2, definition of C̃_j).
                let ms = &sh.machines[li];
                let rem_running = ms.running.as_ref().map_or(0.0, |r| r.completion - t);
                let mut pend_sum = ms.pending.total().sum;
                if jmax != job.id {
                    // The triggering arrival j is still pending;
                    // exclude it (`ℓ ≠ j_j` in the paper's formula).
                    pend_sum -= job.sizes[mi];
                }
                let term = rem_running + pend_sum + p_max.get();
                let c_tilde = sh.settle(cx.jobs, li, jmax, t) + term;
                sh.exit(jmax, t, c_tilde);
            }
        }
    }
}

impl OnlineScheduler for FlowScheduler {
    fn name(&self) -> String {
        format!(
            "spaa18-flow(eps={}, rules={}{})",
            self.params.eps,
            if self.params.rule1 { "1" } else { "-" },
            if self.params.rule2 { "2" } else { "-" },
        )
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).log
    }
}

/// Key type re-export for tests and benches.
pub type PendingKey = PendKey;

/// Re-exported for benches that need raw keys.
pub fn make_pend_key(p: f64, release: f64, id: JobId) -> PendKey {
    (TotalF64(p), TotalF64(release), id.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PRUNED_MIN_MACHINES;
    use osr_model::{InstanceBuilder, InstanceKind, JobFate, MachineId, Metrics, RejectReason};
    use osr_sim::{validate_log, ValidationConfig};

    fn run_eps(inst: &Instance, eps: f64) -> FlowOutcome {
        FlowScheduler::with_eps(eps).unwrap().run(inst)
    }

    fn assert_valid(inst: &Instance, out: &FlowOutcome) {
        let rep = validate_log(inst, &out.log, &ValidationConfig::flow_time());
        assert!(rep.is_valid(), "invalid schedule: {:?}", rep.errors);
    }

    #[test]
    fn single_job_runs_immediately() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![3.0])
            .build()
            .unwrap();
        let out = run_eps(&inst, 0.5);
        assert_valid(&inst, &out);
        match out.log.fate(JobId(0)) {
            JobFate::Completed(e) => {
                assert_eq!(e.start, 0.0);
                assert_eq!(e.completion, 3.0);
            }
            other => panic!("unexpected fate {other:?}"),
        }
    }

    #[test]
    fn spt_order_on_single_machine() {
        // Three jobs at t=0 with eps=1 (rule2 threshold 2 → one Rule-2
        // rejection of the largest on the second dispatch).
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![5.0])
            .job(0.0, vec![1.0])
            .job(0.0, vec![3.0])
            .build()
            .unwrap();
        // Large eps disables rejections quickly? eps=1 → rule2 fires at
        // every 2nd dispatch. Use tiny rejection pressure instead:
        let sched = FlowScheduler::new(FlowParams::with_rules(0.5, false, false)).unwrap();
        let out = sched.run(&inst);
        assert_valid(&inst, &out);
        // All complete; SPT after the first (j0 starts first at t=0
        // since the queue then holds only j0 — arrival order matters:
        // j0 arrives, starts immediately; j1, j2 queue up; after j0,
        // SPT picks j1 then j2.
        let c: Vec<f64> = (0..3)
            .map(|k| out.log.fate(JobId(k)).execution().unwrap().completion)
            .collect();
        assert_eq!(c, vec![5.0, 6.0, 9.0]);
    }

    #[test]
    fn rule1_rejects_running_long_job() {
        // eps = 0.5 → rule1 fires when v reaches 2.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![100.0])
            .job(1.0, vec![1.0])
            .job(2.0, vec![1.0])
            .build()
            .unwrap();
        let out = run_eps(&inst, 0.5);
        assert_valid(&inst, &out);
        let rej = out
            .log
            .fate(JobId(0))
            .rejection()
            .expect("long job rejected");
        assert_eq!(rej.reason, RejectReason::RuleOne);
        assert_eq!(rej.time, 2.0);
        let p = rej.partial.expect("was running");
        assert_eq!(p.start, 0.0);
        assert_eq!(p.end, 2.0);
        // The same (third) dispatch also trips Rule 2 (c_i = 3 = 1+⌈1/ε⌉),
        // which drops the largest pending job — the tie between the two
        // unit jobs breaks towards the later release, j2.
        let rej2 = out.log.fate(JobId(2)).rejection().expect("rule 2 victim");
        assert_eq!(rej2.reason, RejectReason::RuleTwo);
        // The surviving short job completes promptly after the rejection.
        assert!(out.log.fate(JobId(1)).is_completed());
        let m = Metrics::compute(&inst, &out.log, 2.0);
        assert!(m.flow.flow_served < 10.0);
    }

    #[test]
    fn rule2_rejects_largest_pending() {
        // eps = 1 → rule2_at = 2: every second dispatch drops the
        // largest pending job. Rule 1 fires at v=1: disable it to
        // isolate Rule 2.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![4.0])
            .job(0.5, vec![9.0])
            .job(1.0, vec![1.0])
            .build()
            .unwrap();
        let sched = FlowScheduler::new(FlowParams::with_rules(1.0, false, true)).unwrap();
        let out = sched.run(&inst);
        assert_valid(&inst, &out);
        // Dispatches: j0 (c=1, starts), j1 (c=2 → Rule 2 drops largest
        // pending = j1 itself), j2 (c=1).
        let rej = out
            .log
            .fate(JobId(1))
            .rejection()
            .expect("largest rejected");
        assert_eq!(rej.reason, RejectReason::RuleTwo);
        assert_eq!(rej.time, 0.5);
        assert!(rej.partial.is_none());
        assert!(out.log.fate(JobId(0)).is_completed());
        assert!(out.log.fate(JobId(2)).is_completed());
    }

    #[test]
    fn rejection_budget_respected_on_burst() {
        // n jobs at once; Theorem 1 allows at most 2ε·n rejections.
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        let n = 400;
        for k in 0..n {
            b = b.job(k as f64 * 0.01, vec![1.0 + (k % 7) as f64]);
        }
        let inst = b.build().unwrap();
        for eps in [0.1, 0.25, 0.5] {
            let out = run_eps(&inst, eps);
            assert_valid(&inst, &out);
            let rejected = out.log.rejected_count();
            let budget = (2.0 * eps * n as f64).ceil() as usize;
            assert!(
                rejected <= budget,
                "eps={eps}: rejected {rejected} > budget {budget}"
            );
        }
    }

    #[test]
    fn two_machines_split_load() {
        // Unrelated: j0 fast on m0, j1 fast on m1 — dispatch must
        // separate them.
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![1.0, 10.0])
            .job(0.0, vec![10.0, 1.0])
            .build()
            .unwrap();
        let out = run_eps(&inst, 0.5);
        assert_valid(&inst, &out);
        let e0 = out.log.fate(JobId(0)).execution().unwrap();
        let e1 = out.log.fate(JobId(1)).execution().unwrap();
        assert_eq!(e0.machine, MachineId(0));
        assert_eq!(e1.machine, MachineId(1));
        assert_eq!(e0.completion, 1.0);
        assert_eq!(e1.completion, 1.0);
    }

    #[test]
    fn restricted_assignment_respected() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![f64::INFINITY, 2.0])
            .job(0.0, vec![f64::INFINITY, 2.0])
            .build()
            .unwrap();
        let out = run_eps(&inst, 0.5);
        assert_valid(&inst, &out);
        for (_, e) in out.log.executions() {
            assert_eq!(e.machine, MachineId(1));
        }
    }

    #[test]
    fn dual_lower_bound_is_sane() {
        let mut b = InstanceBuilder::new(2, InstanceKind::FlowTime);
        for k in 0..60 {
            b = b.job(
                k as f64 * 0.3,
                vec![1.0 + (k % 5) as f64, 2.0 + (k % 3) as f64],
            );
        }
        let inst = b.build().unwrap();
        let out = run_eps(&inst, 0.25);
        assert_valid(&inst, &out);
        let metrics = Metrics::compute(&inst, &out.log, 2.0);
        let lb = out.dual.opt_lower_bound();
        assert!(lb >= 0.0);
        // The algorithm's own cost (flow over all jobs) must be at least
        // the certified lower bound on OPT.
        assert!(
            metrics.flow.flow_all + 1e-6 >= lb,
            "algorithm cost {} below its own certified LB {lb}",
            metrics.flow.flow_all
        );
        // And within the Theorem 1 factor of it (trivially true when lb
        // is loose; the ratio experiments tighten this).
        let bound = crate::bounds::flowtime_competitive_bound(0.25);
        if lb > 0.0 {
            assert!(metrics.flow.flow_all / lb <= bound * 2.0 + 1.0);
        }
    }

    #[test]
    fn c_tilde_dominates_exit_times() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..100 {
            b = b.job(k as f64 * 0.1, vec![0.5 + (k % 11) as f64]);
        }
        let inst = b.build().unwrap();
        let out = run_eps(&inst, 0.2);
        for j in 0..inst.len() {
            assert!(out.dual.c_tilde[j] + 1e-9 >= out.dual.exit[j]);
            assert!(out.dual.exit[j] >= out.dual.release[j]);
        }
    }

    #[test]
    fn theorem1_lambda_dominates_scaled_flow() {
        // The analysis shows Σλ_j ≥ ε/(1+ε)·Σ(C̃_j − r_j). Verify on a
        // random-ish instance.
        let mut b = InstanceBuilder::new(2, InstanceKind::FlowTime);
        for k in 0..150 {
            let p = 0.5 + ((k * 7919) % 13) as f64;
            b = b.job((k as f64) * 0.37, vec![p, ((k % 3) + 1) as f64 * p]);
        }
        let inst = b.build().unwrap();
        for eps in [0.2, 0.5, 1.0] {
            let out = run_eps(&inst, eps);
            let sum_lambda: f64 = out.dual.lambda.iter().sum();
            let sum_span: f64 = out
                .dual
                .c_tilde
                .iter()
                .zip(&out.dual.release)
                .map(|(ct, r)| ct - r)
                .sum();
            let scale = eps / (1.0 + eps);
            assert!(
                sum_lambda + 1e-6 >= scale * sum_span,
                "eps={eps}: Σλ={sum_lambda} < {}",
                scale * sum_span
            );
        }
    }

    #[test]
    fn disabling_both_rules_never_rejects() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..50 {
            b = b.job(k as f64 * 0.05, vec![1.0]);
        }
        let inst = b.build().unwrap();
        let sched = FlowScheduler::new(FlowParams::with_rules(0.1, false, false)).unwrap();
        let out = sched.run(&inst);
        assert_eq!(out.log.rejected_count(), 0);
        assert_valid(&inst, &out);
    }

    #[test]
    fn naive_and_treap_backends_agree() {
        let mut b = InstanceBuilder::new(3, InstanceKind::FlowTime);
        for k in 0..200u64 {
            let r = (k as f64) * 0.2;
            let p1 = 0.5 + ((k.wrapping_mul(2654435761)) % 17) as f64;
            let p2 = 0.5 + ((k.wrapping_mul(40503)) % 23) as f64;
            let p3 = 0.5 + ((k.wrapping_mul(9176)) % 11) as f64;
            b = b.job(r, vec![p1, p2, p3]);
        }
        let inst = b.build().unwrap();
        let mut pt = FlowParams::new(0.3);
        pt.backend = QueueBackend::Treap;
        let mut pn = FlowParams::new(0.3);
        pn.backend = QueueBackend::Naive;
        let a = FlowScheduler::new(pt).unwrap().run(&inst);
        let b2 = FlowScheduler::new(pn).unwrap().run(&inst);
        assert_eq!(a.log, b2.log, "backends must produce identical schedules");
        assert_eq!(a.dual.sum_lambda(), b2.dual.sum_lambda());
    }

    #[test]
    fn pruned_and_linear_dispatch_are_bit_identical() {
        // Tie-heavy: many machines with *identical* sizes, plus an
        // unrelated stretch — both regimes must agree exactly, machine
        // choices and λ values included.
        for (m, identical) in [(12usize, true), (16, false)] {
            let mut b = InstanceBuilder::new(m, InstanceKind::FlowTime);
            let mut s = 0x5EEDu64 | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut t = 0.0;
            for _ in 0..300 {
                t += (next() % 40) as f64 / 20.0;
                let base = 1.0 + (next() % 4) as f64;
                let sizes: Vec<f64> = (0..m)
                    .map(|k| {
                        if identical {
                            base
                        } else {
                            base * (1.0 + (next().wrapping_add(k as u64) % 5) as f64 / 2.0)
                        }
                    })
                    .collect();
                b = b.job(t, sizes);
            }
            let inst = b.build().unwrap();
            for eps in [0.2, 0.5] {
                let mut pp = FlowParams::new(eps);
                pp.dispatch = crate::DispatchIndex::Pruned;
                let mut pl = FlowParams::new(eps);
                pl.dispatch = crate::DispatchIndex::Linear;
                let a = FlowScheduler::new(pp).unwrap().run(&inst);
                let b2 = FlowScheduler::new(pl).unwrap().run(&inst);
                assert_eq!(a.log, b2.log, "m={m} identical={identical} eps={eps}");
                assert_eq!(a.dual.lambda, b2.dual.lambda);
                assert_eq!(a.dual.c_tilde, b2.dual.c_tilde);
            }
        }
    }

    #[test]
    fn pruned_dispatch_locks_lowest_index_tie_break() {
        // All machines identical and idle: every λ_ij ties exactly, and
        // the winner must be machine 0 — the contract the linear scan
        // established and the pruned index must preserve.
        let m = 8; // ≥ PRUNED_MIN_MACHINES so the index actually engages
        let inst = InstanceBuilder::new(m, InstanceKind::FlowTime)
            .job(0.0, vec![3.0; 8])
            .build()
            .unwrap();
        let mut params = FlowParams::with_rules(0.5, false, false);
        params.dispatch = crate::DispatchIndex::Pruned;
        let out = FlowScheduler::new(params).unwrap().run(&inst);
        let e = out.log.fate(JobId(0)).execution().unwrap();
        assert_eq!(e.machine, MachineId(0));
    }

    #[test]
    fn everywhere_ineligible_job_is_rejected_not_a_panic() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![2.0, 3.0])
            .job(1.0, vec![f64::INFINITY, f64::INFINITY])
            .job(2.0, vec![1.0, 4.0])
            .build()
            .unwrap();
        for dispatch in [crate::DispatchIndex::Linear, crate::DispatchIndex::Pruned] {
            let mut params = FlowParams::new(0.5);
            params.dispatch = dispatch;
            let out = FlowScheduler::new(params).unwrap().run(&inst);
            assert_valid(&inst, &out);
            let rej = out.log.fate(JobId(1)).rejection().expect("dropped");
            assert_eq!(rej.reason, RejectReason::Ineligible);
            assert_eq!(rej.time, 1.0);
            assert!(rej.partial.is_none());
            // The dual ignores it: λ_j = 0, C̃_j = r_j.
            assert_eq!(out.dual.lambda[1], 0.0);
            assert_eq!(out.dual.c_tilde[1], 1.0);
            // Other jobs are unaffected.
            assert!(out.log.fate(JobId(0)).is_completed());
            assert!(out.log.fate(JobId(2)).is_completed());
            // The feasibility audit must not index the sentinel machine.
            let audit = check_dual_feasibility(&inst, &out.dual, usize::MAX);
            assert!(audit.is_feasible(), "{:?}", audit.violations.first());
        }
    }

    #[test]
    fn outcome_records_the_effective_dispatch_index() {
        // Below the crossover a Pruned request degrades to the linear
        // scan — and the outcome must say so, so ablation harnesses
        // can't mislabel their rows.
        let small = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![1.0, 2.0])
            .build()
            .unwrap();
        let big = InstanceBuilder::new(PRUNED_MIN_MACHINES, InstanceKind::FlowTime)
            .job(0.0, vec![1.0; PRUNED_MIN_MACHINES])
            .build()
            .unwrap();
        let mut params = FlowParams::new(0.5);
        params.dispatch = crate::DispatchIndex::Pruned;
        let sched = FlowScheduler::new(params).unwrap();
        assert_eq!(
            sched.run(&small).effective_dispatch,
            crate::DispatchIndex::Linear
        );
        assert_eq!(
            sched.run(&big).effective_dispatch,
            crate::DispatchIndex::Pruned
        );
        params.dispatch = crate::DispatchIndex::Linear;
        let sched = FlowScheduler::new(params).unwrap();
        assert_eq!(
            sched.run(&small).effective_dispatch,
            crate::DispatchIndex::Linear
        );
    }

    #[test]
    fn arrival_at_completion_instant_sees_idle_machine() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![2.0])
            .job(2.0, vec![1.0])
            .build()
            .unwrap();
        let out = run_eps(&inst, 0.5);
        assert_valid(&inst, &out);
        // j1 arrives exactly when j0 completes: it must start at 2.0,
        // and j0's Rule-1 counter must not have been incremented (it
        // already completed).
        assert!(out.log.fate(JobId(0)).is_completed());
        let e1 = out.log.fate(JobId(1)).execution().unwrap();
        assert_eq!(e1.start, 2.0);
    }
}
