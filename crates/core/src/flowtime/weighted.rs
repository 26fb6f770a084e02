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

use std::sync::Mutex;

use osr_dstruct::{MachineIndex, MachineStats, ShardMaskScratch};
use osr_model::{
    Execution, FinishedLog, Instance, Job, JobId, MachineId, OnlineSet, PartialRun, RejectReason,
    Rejection,
};
use osr_sim::{
    driver::{EventPolicy, LogOp, Placement, ShardCtx, ShardProbe},
    CapacityChange, CapacityPlan, DecisionEvent, DecisionTrace, OnlineScheduler,
};

use crate::config::SchedulerConfig;
use crate::dispatch::{self, DispatchIndex, PRUNED_MIN_MACHINES};

/// Parameters for the weighted variant.
///
/// The runtime knobs live in the embedded [`SchedulerConfig`]
/// (`params.config`); the struct derefs to it, so `params.dispatch`
/// etc. keep working as plain field accesses. The `backend` knob is
/// inert here (the weighted queues are density-sorted `Vec`s), and
/// because this variant's dispatch reads the global rejection budget,
/// every arrival is a barrier (`serial_arrivals`) — the `shards` knob
/// only parallelizes completion drains.
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
    /// Standard parameters for `eps` (process-default runtime knobs).
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
    /// `Linear` below [`PRUNED_MIN_MACHINES`]; label ablations by
    /// this).
    pub effective_dispatch: DispatchIndex,
    /// The driver shard count that actually ran (requests clamp to the
    /// rack count; `1` = the serial oracle path).
    pub effective_shards: usize,
}

/// The weighted flow-time scheduler (extension; see module docs).
#[derive(Debug, Clone)]
pub struct WeightedFlowScheduler {
    params: WeightedFlowParams,
    capacity: CapacityPlan,
}

#[derive(Debug, Clone, Copy)]
struct PendW {
    job: JobId,
    p: f64,
    w: f64,
    d: f64,
    r: f64,
}

impl PendW {
    /// Higher density first; ties earliest release then id.
    fn precedes(&self, other: &PendW) -> bool {
        match self.d.total_cmp(&other.d) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => match self.r.total_cmp(&other.r) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => self.job < other.job,
            },
        }
    }
}

struct RunningW {
    job: JobId,
    start: f64,
    completion: f64,
    v: f64,
    w: f64,
}

struct MachW {
    /// Sorted by `precedes` (densest first).
    pending: Vec<PendW>,
    running: Option<RunningW>,
    /// Rule-2 weight counter.
    c: f64,
    /// Cached Σ of pending weights (reset to exactly 0 when the queue
    /// empties so incremental `±` drift cannot accumulate across busy
    /// periods).
    pend_wsum: f64,
    /// Lazy lower bound on the smallest pending size: tightened on
    /// insert, left alone on removal (a stale-low value only loosens
    /// the dispatch bound, never breaks it), reset to `∞` on empty.
    pend_min_p: f64,
}

impl MachW {
    fn insert(&mut self, e: PendW) {
        let pos = self.pending.partition_point(|x| x.precedes(&e));
        self.pending.insert(pos, e);
        self.pend_wsum += e.w;
        self.pend_min_p = self.pend_min_p.min(e.p);
    }

    fn remove_at(&mut self, pos: usize) -> PendW {
        let e = self.pending.remove(pos);
        self.pend_wsum -= e.w;
        if self.pending.is_empty() {
            self.pend_wsum = 0.0;
            self.pend_min_p = f64::INFINITY;
        }
        e
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            count: self.pending.len() as u64,
            wsum: self.pend_wsum,
            min_size: self.pend_min_p,
        }
    }
}

impl WeightedFlowScheduler {
    /// Validates `eps` and constructs the scheduler.
    pub fn new(params: WeightedFlowParams) -> Result<Self, String> {
        if !(params.eps > 0.0 && params.eps <= 1.0 && params.eps.is_finite()) {
            return Err(format!("eps must be in (0, 1], got {}", params.eps));
        }
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

    /// Runs the variant over `instance`.
    ///
    /// The event loop lives in [`osr_sim::driver`]; this method supplies
    /// the weighted policy (`WeightedPolicy`). Because dispatch reads
    /// the global rejection budget, the policy opts into
    /// `serial_arrivals` — every arrival is a barrier, and sharding only
    /// parallelizes completion drains.
    pub fn run(&self, instance: &Instance) -> WeightedFlowOutcome {
        let m = instance.machines();
        let jobs = instance.jobs();
        let policy = WeightedPolicy {
            eps: self.params.eps,
            params: self.params,
            m,
            budget: Mutex::new(WeightBudget::default()),
        };
        let (log, trace, effective_shards) = osr_sim::drive(
            &policy,
            jobs,
            m,
            &self.capacity,
            self.params.shards,
            &mut (),
        );
        WeightedFlowOutcome {
            log: log.finish().expect("all decided"),
            trace,
            effective_dispatch: dispatch::effective_dispatch_index(self.params.dispatch, m),
            effective_shards,
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

/// One driver shard's weighted state: locally indexed machines plus its
/// slice of the pruned dispatch index.
pub(crate) struct WeightedShard {
    base: usize,
    len: usize,
    machines: Vec<MachW>,
    dindex: Option<MachineIndex>,
    scratch: ShardMaskScratch,
}

/// The weighted variant as an [`EventPolicy`]. The global rejection
/// budget sits behind a mutex, but it is only touched from `dispatch`
/// — and `serial_arrivals` guarantees dispatches run serially in the
/// driver's phase 2, so the lock is never contended. `pub(crate)` with
/// open fields so [`crate::session`] can host the (job-independent,
/// state-carrying) policy across serve-mode arrivals.
pub(crate) struct WeightedPolicy {
    pub(crate) eps: f64,
    pub(crate) params: WeightedFlowParams,
    /// Global machine count (pruned-index crossover is defined on the
    /// whole pool).
    pub(crate) m: usize,
    pub(crate) budget: Mutex<WeightBudget>,
}

impl WeightedPolicy {
    fn lambda_ij(&self, ms: &MachW, p: f64, w: f64, r: f64, id: JobId) -> f64 {
        let probe = PendW {
            job: id,
            p,
            w,
            d: w / p,
            r,
        };
        let mut lam = w * p / self.eps;
        let mut pre_p = 0.0;
        let mut succ_w = 0.0;
        for e in &ms.pending {
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

    fn sync_index(dindex: &mut Option<MachineIndex>, li: usize, ms: &MachW) {
        if let Some(ix) = dindex {
            ix.update(li, ms.stats());
        }
    }

    fn start_next(&self, sh: &mut WeightedShard, cx: &mut ShardCtx<'_>, li: usize, t: f64) {
        let mi = sh.base + li;
        let ms = &mut sh.machines[li];
        if ms.running.is_some() || ms.pending.is_empty() || !cx.online.is_online(mi) {
            return;
        }
        let e = ms.remove_at(0);
        let completion = t + e.p;
        ms.running = Some(RunningW {
            job: e.job,
            start: t,
            completion,
            v: 0.0,
            w: e.w,
        });
        cx.completions.push(completion, (mi, e.job));
        cx.io.trace.push(DecisionEvent::Start {
            time: t,
            job: e.job,
            machine: MachineId(mi as u32),
            speed: 1.0,
        });
        Self::sync_index(&mut sh.dindex, li, &sh.machines[li]);
    }
}

impl EventPolicy for WeightedPolicy {
    type Shard = WeightedShard;
    type Global = ();

    fn serial_arrivals(&self) -> bool {
        true
    }

    fn make_shard(&self, base: usize, len: usize, online: &OnlineSet) -> WeightedShard {
        let dindex = (self.params.dispatch == DispatchIndex::Pruned
            && self.m >= PRUNED_MIN_MACHINES)
            .then(|| {
                dispatch::rebuild_shard_index(
                    base,
                    len,
                    online,
                    self.params.propagation,
                    self.params.kernels,
                    |_| MachineStats::EMPTY,
                )
            });
        WeightedShard {
            base,
            len,
            machines: (0..len)
                .map(|_| MachW {
                    pending: Vec::new(),
                    running: None,
                    c: 0.0,
                    pend_wsum: 0.0,
                    pend_min_p: f64::INFINITY,
                })
                .collect(),
            dindex,
            scratch: ShardMaskScratch::new(),
        }
    }

    fn candidate(
        &self,
        sh: &mut WeightedShard,
        job: &Job,
        t: f64,
        online: &OnlineSet,
    ) -> Option<(usize, f64)> {
        // `p̂` comes precomputed from the model (no per-arrival O(m)
        // rescan of `job.sizes`).
        let WeightedShard {
            base,
            len,
            machines,
            dindex,
            scratch,
        } = sh;
        let (base, len) = (*base, *len);
        let eps = self.eps;
        let best = match dindex.as_mut() {
            Some(ix) => {
                let ph = dispatch::p_hat_view(job);
                let w = job.weight;
                let mask = scratch.rebase(dispatch::mask_view(job.elig()), base, len);
                ix.search_masked_rows(
                    mask,
                    |s, lo, span| {
                        dispatch::weighted_lambda_bound(
                            s.min_count,
                            s.min_wsum,
                            s.min_size,
                            ph.for_range(base + lo, span),
                            w,
                            eps,
                        )
                    },
                    // Leaf-row-slice form: the scalar bound below, one
                    // lane per stat row (bit-identical by construction).
                    |lo, rows, out| {
                        for k in 0..osr_dstruct::kernel::LANES {
                            let p = job.sizes[base + lo + k];
                            out[k] = if p.is_finite() {
                                dispatch::weighted_lambda_bound(
                                    rows[k].count,
                                    rows[k].wsum,
                                    rows[k].min_size,
                                    p,
                                    w,
                                    eps,
                                )
                            } else {
                                f64::INFINITY
                            };
                        }
                    },
                    |li, s| {
                        let p = job.sizes[base + li];
                        if p.is_finite() {
                            dispatch::weighted_lambda_bound(s.count, s.wsum, s.min_size, p, w, eps)
                        } else {
                            f64::INFINITY
                        }
                    },
                    |li| {
                        let p = job.sizes[base + li];
                        p.is_finite()
                            .then(|| self.lambda_ij(&machines[li], p, w, t, job.id))
                    },
                )
            }
            None => {
                let mut best: Option<(usize, f64)> = None;
                for (li, ms) in machines.iter().enumerate().take(len) {
                    let p = job.sizes[base + li];
                    if !p.is_finite() || !online.is_online(base + li) {
                        continue;
                    }
                    let lam = self.lambda_ij(ms, p, job.weight, t, job.id);
                    if best.is_none_or(|(_, bl)| lam < bl) {
                        best = Some((li, lam));
                    }
                }
                best
            }
        };
        best.map(|(li, lam)| (base + li, lam))
    }

    fn dispatch(&self, sh: &mut WeightedShard, cx: &mut ShardCtx<'_>, job: &Job, p: &Placement) {
        let Placement {
            time: t,
            machine: mi,
            redispatch,
            ..
        } = *p;
        // Re-dispatches skip the arrived-weight accounting — the job's
        // weight was counted at its first arrival, and double-counting
        // would widen the 2ε rejected-weight budget.
        let mut budget = self.budget.lock().expect("budget lock");
        if !redispatch {
            budget.arrived_weight += job.weight;
            budget.dispatched_jobs += 1;
        }
        let mean_weight = budget.arrived_weight / budget.dispatched_jobs.max(1) as f64;
        let li = mi - sh.base;
        let p_ij = job.sizes[mi];
        sh.machines[li].insert(PendW {
            job: job.id,
            p: p_ij,
            w: job.weight,
            d: job.weight / p_ij,
            r: t,
        });
        Self::sync_index(&mut sh.dindex, li, &sh.machines[li]);

        // Weighted Rule 1.
        if let Some(run) = sh.machines[li].running.as_mut() {
            run.v += job.weight;
            if run.v > run.w / self.eps && budget.allows(self.eps, run.w) {
                let run = sh.machines[li].running.take().expect("present");
                budget.rejected_weight += run.w;
                cx.io.ops.push(LogOp::Reject(
                    run.job,
                    Rejection {
                        time: t,
                        reason: RejectReason::RuleOne,
                        partial: Some(PartialRun {
                            machine: MachineId(mi as u32),
                            start: run.start,
                            end: t,
                            speed: 1.0,
                        }),
                    },
                ));
                cx.io.trace.push(DecisionEvent::Reject {
                    time: t,
                    job: run.job,
                    machine: MachineId(mi as u32),
                    reason: RejectReason::RuleOne,
                    counter: run.v,
                });
            }
        }

        // Weighted Rule 2: fire on weight cadence; victim = lowest
        // density pending.
        sh.machines[li].c += job.weight;
        let threshold = (1.0 + (1.0 / self.eps).ceil()) * mean_weight;
        if sh.machines[li].c >= threshold {
            sh.machines[li].c = 0.0;
            // Victim is the last in the density order.
            if let Some(victim) = sh.machines[li].pending.last().copied() {
                if budget.allows(self.eps, victim.w) {
                    let last = sh.machines[li].pending.len() - 1;
                    sh.machines[li].remove_at(last);
                    Self::sync_index(&mut sh.dindex, li, &sh.machines[li]);
                    budget.rejected_weight += victim.w;
                    cx.io.ops.push(LogOp::Reject(
                        victim.job,
                        Rejection {
                            time: t,
                            reason: RejectReason::RuleTwo,
                            partial: None,
                        },
                    ));
                    cx.io.trace.push(DecisionEvent::Reject {
                        time: t,
                        job: victim.job,
                        machine: MachineId(mi as u32),
                        reason: RejectReason::RuleTwo,
                        counter: threshold,
                    });
                }
            }
        }
        drop(budget);

        self.start_next(sh, cx, li, t);
    }

    fn note_unplaced(&self, _sh: &mut WeightedShard, _job: &Job, _t: f64) {
        // An undispatchable job must not inflate `arrived_weight` (that
        // would let the rules reject extra servable weight past the
        // documented 2ε cap); a machine-lost drop likewise leaves
        // `rejected_weight` alone: it counts against no rule.
    }

    fn complete(
        &self,
        sh: &mut WeightedShard,
        cx: &mut ShardCtx<'_>,
        mi: usize,
        job: JobId,
        t: f64,
    ) {
        let li = mi - sh.base;
        // Completion-time check too: a crash victim re-dispatched onto
        // the same machine must not match its stale event.
        let matches = sh.machines[li]
            .running
            .as_ref()
            .is_some_and(|r| r.job == job && r.completion == t);
        if !matches {
            return;
        }
        let r = sh.machines[li].running.take().expect("matched");
        cx.io.ops.push(LogOp::Complete(
            job,
            Execution {
                machine: MachineId(mi as u32),
                start: r.start,
                completion: r.completion,
                speed: 1.0,
            },
        ));
        cx.io.trace.push(DecisionEvent::Complete {
            time: t,
            job,
            machine: MachineId(mi as u32),
        });
        self.start_next(sh, cx, li, t);
    }

    fn capacity_sync(
        &self,
        sh: &mut WeightedShard,
        change: CapacityChange,
        mi: usize,
        online: &OnlineSet,
    ) {
        let WeightedShard {
            base,
            len,
            machines,
            dindex,
            ..
        } = sh;
        let base = *base;
        dispatch::sync_shard_index(
            dindex,
            self.params.capacity_index,
            change,
            mi,
            base,
            *len,
            online,
            self.params.propagation,
            self.params.kernels,
            |i| machines[i - base].stats(),
        );
    }

    fn evict(
        &self,
        sh: &mut WeightedShard,
        _cx: &mut ShardCtx<'_>,
        change: CapacityChange,
        mi: usize,
        t: f64,
        victims: &mut Vec<(JobId, Option<PartialRun>)>,
    ) {
        let li = mi - sh.base;
        if change == CapacityChange::Crash {
            if let Some(run) = sh.machines[li].running.take() {
                victims.push((
                    run.job,
                    Some(PartialRun {
                        machine: MachineId(mi as u32),
                        start: run.start,
                        end: t,
                        speed: 1.0,
                    }),
                ));
            }
        }
        while !sh.machines[li].pending.is_empty() {
            let e = sh.machines[li].remove_at(0);
            victims.push((e.job, None));
        }
    }

    fn drain(&self, _sh: &mut WeightedShard, _global: &mut ()) {}

    fn probe(&self, sh: &WeightedShard) -> ShardProbe {
        ShardProbe {
            queued: sh.machines.iter().map(|ms| ms.pending.len()).sum(),
            running: sh.machines.iter().filter(|ms| ms.running.is_some()).count(),
            index: sh.dindex.as_ref().map(|ix| ix.index_stats()),
        }
    }

    fn probe_machines(&self, sh: &WeightedShard, out: &mut Vec<(usize, usize)>) {
        out.extend(
            sh.machines
                .iter()
                .enumerate()
                .map(|(li, ms)| (sh.base + li, ms.pending.len())),
        );
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
    use osr_model::{InstanceBuilder, InstanceKind, Metrics};
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
