//! The flow-family skeleton: everything §2 ([`crate::flowtime`]), the
//! weighted extension ([`crate::flowtime::weighted`]) and §3
//! ([`crate::energyflow`]) share, written once.
//!
//! The three algorithms have one shape. Each dispatches an arrival to
//! `argmin_i λ_ij` over the eligible online machines, keeps a pending
//! queue plus at most one running job per machine, rejects by counter
//! rules, and charges rejections to a per-machine time-window ledger
//! that sets every job's definitive finish. A [`Family`] supplies only
//! what differs: its `λ_ij` lower bound and exact value, its queue
//! order, which job starts next and at what speed, and its rejection
//! rules. [`FamilyPolicy`] turns any family into the driver's
//! [`EventPolicy`]: the candidate search (pruned index or linear scan),
//! index setup and capacity sync, eviction, starts, completions, the
//! per-job dual records and the probes. `crate::session` builds the
//! one serve session on top of it.
//!
//! The items are `pub` so the public session aliases can name them,
//! but this module is private: nothing here is reachable from outside
//! the crate.

use std::ops::Deref;

use osr_dstruct::kernel::LANES;
use osr_dstruct::{MachineIndex, MachineStats, NodeStats, ShardMaskScratch};
use osr_model::{Execution, Job, JobId, MachineId, OnlineSet, PartialRun, RejectReason, Rejection};
use osr_sim::{
    driver::{EventPolicy, LogOp, Placement, ShardCtx, ShardProbe},
    CapacityChange, DecisionEvent,
};

use crate::config::SchedulerConfig;
use crate::dispatch::{self, DispatchIndex, PRUNED_MIN_MACHINES};

/// One algorithm of the flow family: the pieces of the dispatch, start
/// and rejection logic that depend on its `λ_ij`.
pub trait Family: Sync + Send + Sized {
    /// The parameter struct users configure the algorithm with.
    type Params: Copy + Deref<Target = SchedulerConfig>;
    /// The per-machine pending queue, in the algorithm's order.
    type Queue: Pending;
    /// Short algorithm name reported by serve sessions.
    const NAME: &'static str;

    /// Validates `params` and builds the rules for a serve session.
    fn open(params: Self::Params) -> Result<Self, String>;

    /// `ε`: the dual price of an arrival is `ε/(1+ε)·min_i λ_ij`.
    fn eps(&self) -> f64;

    /// An empty pending queue for one machine.
    fn queue(&self) -> Self::Queue;

    /// Lower bound on `λ_ij` over a machine range whose pending queues
    /// aggregate to `s`, for a job of weight `w` whose cheapest size in
    /// the range is `p` (see [`crate::dispatch`] for soundness).
    fn bound(&self, s: &NodeStats, p: f64, w: f64) -> f64;

    /// The exact `λ_ij` of job `id` (size `p`, weight `w`) arriving at
    /// `t` against a machine's pending queue `q`.
    fn lambda(&self, q: &Self::Queue, p: f64, w: f64, t: f64, id: JobId) -> f64;

    /// Pops the job an idle machine starts next, returning
    /// `(job, volume, weight, speed)`; it runs for `volume / speed`.
    fn pop_next(&self, q: &mut Self::Queue) -> Option<(JobId, f64, f64, f64)>;

    /// Applies the rejection rules after `job` joined local machine
    /// `li`'s queue under placement `p` (the next start follows).
    fn rules(
        &self,
        sh: &mut FamilyShard<Self::Queue>,
        cx: &mut ShardCtx<'_>,
        job: &Job,
        p: &Placement,
        li: usize,
    );

    /// Whether every arrival must be a driver barrier (dispatch reads
    /// cross-machine state).
    fn serial_arrivals(&self) -> bool {
        false
    }
}

/// A per-machine pending queue as the skeleton sees it.
pub trait Pending: Send {
    /// Number of pending jobs.
    fn queued(&self) -> usize;
    /// The stats row the dispatch index bounds this machine with.
    fn stats(&self) -> MachineStats;
    /// Adds job `job` with size `p` and weight `w`, dispatched at `r`.
    fn push(&mut self, job: JobId, p: f64, w: f64, r: f64);
    /// Removes the job that precedes all others.
    fn pop_front(&mut self) -> Option<JobId>;
}

/// The job a machine is executing.
pub struct Running {
    pub(crate) job: JobId,
    pub(crate) start: f64,
    pub(crate) completion: f64,
    pub(crate) speed: f64,
    /// Rule-1 counter `v_k`: dispatches (§2) or dispatched weight
    /// during the run.
    pub(crate) v: f64,
    /// The job's weight.
    pub(crate) w: f64,
}

/// One machine's online state.
pub struct Machine<Q> {
    pub(crate) pending: Q,
    pub(crate) running: Option<Running>,
    /// Rule-2 counter `c_i` (dispatches in §2, dispatched weight in the
    /// weighted extension; unused in §3).
    pub(crate) c: f64,
    /// Rule-1 rejection charges for the definitive finishes.
    pub(crate) ledger: RejectLedger,
}

/// Rejection charges `(time, amount)` in time order with running prefix
/// sums, so the total charged inside any window `[lo, hi]` costs two
/// binary searches. An empty ledger allocates nothing.
#[derive(Default)]
pub struct RejectLedger {
    times: Vec<f64>,
    /// `sums[k]` = total of the first `k + 1` amounts.
    sums: Vec<f64>,
}

impl RejectLedger {
    /// Records a charge of `amount` at `time` (non-decreasing).
    pub(crate) fn push(&mut self, time: f64, amount: f64) {
        debug_assert!(self.times.last().is_none_or(|&t| t <= time));
        self.times.push(time);
        self.sums.push(self.sum_to(self.sums.len()) + amount);
    }

    /// Total of the first `k` amounts.
    fn sum_to(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.sums[k - 1]
        }
    }

    /// Total charged at times in `[lo, hi]`.
    pub(crate) fn window(&self, lo: f64, hi: f64) -> f64 {
        let a = self.times.partition_point(|&t| t < lo);
        let b = self.times.partition_point(|&t| t <= hi);
        self.sum_to(b) - self.sum_to(a)
    }
}

/// A pending job in the density order of §3 and the weighted
/// extension.
#[derive(Debug, Clone, Copy)]
pub struct PendD {
    pub(crate) job: JobId,
    /// Size (volume) on this machine.
    pub(crate) p: f64,
    pub(crate) w: f64,
    /// Density `w/p` on this machine.
    pub(crate) d: f64,
    /// Dispatch time.
    pub(crate) r: f64,
}

impl PendD {
    /// `true` when `self` precedes `other`: higher density first, ties
    /// earliest release, then id.
    pub(crate) fn precedes(&self, other: &PendD) -> bool {
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

/// Pending jobs sorted densest first, with a cached weight sum (reset
/// to exactly 0 when the queue empties, so incremental `±` drift
/// cannot outlive a busy period) and a lazy lower bound on the
/// smallest size (tightened on insert, left alone on removal — a
/// stale-low value only loosens the dispatch bound — and reset to `∞`
/// on empty).
pub struct DensityQueue {
    items: Vec<PendD>,
    wsum: f64,
    min_p: f64,
}

impl DensityQueue {
    pub(crate) fn new() -> Self {
        DensityQueue {
            items: Vec::new(),
            wsum: 0.0,
            min_p: f64::INFINITY,
        }
    }

    /// The pending jobs, densest first.
    pub(crate) fn items(&self) -> &[PendD] {
        &self.items
    }

    /// Cached total pending weight.
    pub(crate) fn weight(&self) -> f64 {
        self.wsum
    }

    fn insert(&mut self, e: PendD) {
        let pos = self.items.partition_point(|x| x.precedes(&e));
        self.items.insert(pos, e);
        self.wsum += e.w;
        self.min_p = self.min_p.min(e.p);
    }

    fn remove_at(&mut self, pos: usize) -> PendD {
        let e = self.items.remove(pos);
        self.wsum -= e.w;
        if self.items.is_empty() {
            self.wsum = 0.0;
            self.min_p = f64::INFINITY;
        }
        e
    }

    /// Removes and returns the densest job.
    pub(crate) fn pop_first(&mut self) -> Option<PendD> {
        (!self.items.is_empty()).then(|| self.remove_at(0))
    }

    /// Removes and returns the least dense job.
    pub(crate) fn pop_last(&mut self) -> Option<PendD> {
        (!self.items.is_empty()).then(|| self.remove_at(self.items.len() - 1))
    }
}

impl Pending for DensityQueue {
    fn queued(&self) -> usize {
        self.items.len()
    }

    fn stats(&self) -> MachineStats {
        MachineStats {
            count: self.items.len() as u64,
            wsum: self.wsum,
            min_size: self.min_p,
        }
    }

    fn push(&mut self, job: JobId, p: f64, w: f64, r: f64) {
        self.insert(PendD {
            job,
            p,
            w,
            d: w / p,
            r,
        });
    }

    fn pop_front(&mut self) -> Option<JobId> {
        self.pop_first().map(|e| e.job)
    }
}

/// Per-job dual record: placement, price, start and exit. §2 reads
/// `lambda`, `exit` and `def_finish` (its `C̃_j`) into
/// [`crate::flowtime::FlowDual`]; §3 returns the records as they are;
/// the weighted extension has no dual and ignores them.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Machine the job was (last) dispatched to.
    pub machine: u32,
    /// `λ_j = ε/(1+ε)·min_i λ_ij`, priced at the first arrival.
    pub lambda: f64,
    /// Execution start (NaN if never started).
    pub start: f64,
    /// Constant execution speed (NaN if never started).
    pub speed: f64,
    /// Exit: completion or rejection time.
    pub exit: f64,
    /// Definitive finish time (≥ exit).
    pub def_finish: f64,
}

impl JobRecord {
    /// The record of a job nothing has happened to yet.
    pub(crate) const EMPTY: JobRecord = JobRecord {
        machine: u32::MAX,
        lambda: 0.0,
        start: f64::NAN,
        speed: f64::NAN,
        exit: f64::NAN,
        def_finish: f64::NAN,
    };
}

/// A deferred, job-keyed write into the [`JobRecord`]s, buffered per
/// shard and folded in at every driver barrier.
pub enum DualOp {
    /// First-arrival dual price `λ_j` (never re-set on redispatch).
    Lambda(JobId, f64),
    /// Placement (overwritten by later re-dispatches).
    Machine(JobId, u32),
    /// Execution start and its fixed speed.
    Start(JobId, f64, f64),
    /// Exit instant and definitive finish.
    Exit(JobId, f64, f64),
}

/// One driver shard: the machines it owns (locally indexed — machine
/// `li` is global `base + li`), its slice of the pruned dispatch index,
/// and the buffered record writes.
pub struct FamilyShard<Q> {
    pub(crate) base: usize,
    len: usize,
    pub(crate) machines: Vec<Machine<Q>>,
    dindex: Option<MachineIndex>,
    scratch: ShardMaskScratch,
    ops: Vec<DualOp>,
}

impl<Q: Pending> FamilyShard<Q> {
    /// Pushes local machine `li`'s refreshed queue stats into the
    /// index; call after every pending-queue mutation.
    pub(crate) fn sync(&mut self, li: usize) {
        if let Some(ix) = &mut self.dindex {
            ix.update(li, self.machines[li].pending.stats());
        }
    }

    /// `t` plus the ledger charges of local machine `li` inside
    /// `[r_job, t]`: the definitive finish of `job` leaving at `t`,
    /// before any term its exit rule adds.
    pub(crate) fn settle(&self, jobs: &[Job], li: usize, job: JobId, t: f64) -> f64 {
        t + self.machines[li].ledger.window(jobs[job.idx()].release, t)
    }

    /// Records that `job` left at `t` with definitive finish `finish`.
    pub(crate) fn exit(&mut self, job: JobId, t: f64, finish: f64) {
        self.ops.push(DualOp::Exit(job, t, finish));
    }
}

/// Logs the interruption of the running job `run` on machine `mi` at
/// `t` by Rule 1 (or §3's weight rule).
pub(crate) fn reject_running(cx: &mut ShardCtx<'_>, mi: usize, run: &Running, t: f64) {
    let machine = MachineId(mi as u32);
    cx.io.ops.push(LogOp::Reject(
        run.job,
        Rejection {
            time: t,
            reason: RejectReason::RuleOne,
            partial: Some(PartialRun {
                machine,
                start: run.start,
                end: t,
                speed: run.speed,
            }),
        },
    ));
    cx.io.trace.push(DecisionEvent::Reject {
        time: t,
        job: run.job,
        machine,
        reason: RejectReason::RuleOne,
        counter: run.v,
    });
}

/// Logs the Rule-2 rejection of pending `job` on machine `mi` at `t`.
pub(crate) fn reject_pending(cx: &mut ShardCtx<'_>, mi: usize, job: JobId, t: f64, counter: f64) {
    cx.io.ops.push(LogOp::Reject(
        job,
        Rejection {
            time: t,
            reason: RejectReason::RuleTwo,
            partial: None,
        },
    ));
    cx.io.trace.push(DecisionEvent::Reject {
        time: t,
        job,
        machine: MachineId(mi as u32),
        reason: RejectReason::RuleTwo,
        counter,
    });
}

/// A [`Family`] as the driver's [`EventPolicy`]. The driver owns event
/// ordering and re-dispatch; this owns queues, the dispatch index and
/// the dual records, and defers to the family for its own rules.
pub struct FamilyPolicy<F> {
    pub(crate) fam: F,
    config: SchedulerConfig,
    /// Global machine count (the pruned-index crossover is defined on
    /// the whole pool, so shard counts never change the strategy).
    m: usize,
}

impl<F: Family> FamilyPolicy<F> {
    /// Wraps `fam` for a pool of `m` machines under `config`.
    pub(crate) fn new(fam: F, config: SchedulerConfig, m: usize) -> Self {
        FamilyPolicy { fam, config, m }
    }

    /// Starts the next pending job on local machine `li` if it is idle
    /// and still in the pool (a draining machine finishes its running
    /// job but starts nothing new).
    fn start_next(&self, sh: &mut FamilyShard<F::Queue>, cx: &mut ShardCtx<'_>, li: usize, t: f64) {
        let mi = sh.base + li;
        let ms = &mut sh.machines[li];
        if ms.running.is_some() || !cx.online.is_online(mi) {
            return;
        }
        let Some((job, p, w, speed)) = self.fam.pop_next(&mut ms.pending) else {
            return;
        };
        let completion = t + p / speed;
        ms.running = Some(Running {
            job,
            start: t,
            completion,
            speed,
            v: 0.0,
            w,
        });
        cx.completions.push(completion, (mi, job));
        sh.ops.push(DualOp::Start(job, t, speed));
        cx.io.trace.push(DecisionEvent::Start {
            time: t,
            job,
            machine: MachineId(mi as u32),
            speed,
        });
        sh.sync(li);
    }
}

impl<F: Family> EventPolicy for FamilyPolicy<F> {
    type Shard = FamilyShard<F::Queue>;
    type Global = Vec<JobRecord>;

    fn make_shard(&self, base: usize, len: usize, online: &OnlineSet) -> Self::Shard {
        // Pruned dispatch: a tournament tree over per-machine stats,
        // offline machines tombstoned. Below the crossover the plain
        // scan is cheaper than any bookkeeping (results are identical
        // either way).
        let c = &self.config;
        let dindex =
            (c.dispatch == DispatchIndex::Pruned && self.m >= PRUNED_MIN_MACHINES).then(|| {
                dispatch::rebuild_shard_index(base, len, online, c.propagation, c.kernels, |_| {
                    MachineStats::EMPTY
                })
            });
        FamilyShard {
            base,
            len,
            machines: (0..len)
                .map(|_| Machine {
                    pending: self.fam.queue(),
                    running: None,
                    c: 0.0,
                    ledger: RejectLedger::default(),
                })
                .collect(),
            dindex,
            scratch: ShardMaskScratch::new(),
            ops: Vec::new(),
        }
    }

    fn serial_arrivals(&self) -> bool {
        self.fam.serial_arrivals()
    }

    fn candidate(
        &self,
        sh: &mut Self::Shard,
        job: &Job,
        t: f64,
        online: &OnlineSet,
    ) -> Option<(usize, f64)> {
        // Dispatch: argmin over this shard's eligible *online* machines
        // of λ_ij (lowest index on ties). The pruned path and the
        // linear scan are bit-identical; see `crate::dispatch` for the
        // bound soundness argument. Offline machines are tombstoned in
        // the index and skipped by the scan. `p̂` (global + rack-local
        // layers) and the eligibility mask are precomputed on the job,
        // so no per-arrival rescan of `job.sizes`.
        let FamilyShard {
            base,
            len,
            machines,
            dindex,
            scratch,
            ..
        } = sh;
        let (base, len) = (*base, *len);
        let (fam, w, id) = (&self.fam, job.weight, job.id);
        let leaf = |p: f64, s: &MachineStats| {
            if p.is_finite() {
                fam.bound(&NodeStats::leaf(*s), p, w)
            } else {
                f64::INFINITY
            }
        };
        let best = match dindex.as_mut() {
            Some(ix) => {
                let ph = dispatch::p_hat_view(job);
                let mask = scratch.rebase(dispatch::mask_view(job.elig()), base, len);
                ix.search_masked_rows(
                    mask,
                    |s, lo, span| fam.bound(s, ph.for_range(base + lo, span), w),
                    // Leaf-row-slice form of the leaf bound: the same
                    // per-lane expression over an aligned quad of stat
                    // rows (bit-identical by construction), which is
                    // what the chunked flat scan autovectorizes.
                    |lo, rows, out| {
                        for k in 0..LANES {
                            out[k] = leaf(job.sizes[base + lo + k], &rows[k]);
                        }
                    },
                    |li, s| leaf(job.sizes[base + li], s),
                    |li| {
                        let p = job.sizes[base + li];
                        p.is_finite()
                            .then(|| fam.lambda(&machines[li].pending, p, w, t, id))
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
                    let lam = fam.lambda(&ms.pending, p, w, t, id);
                    if best.is_none_or(|(_, bl)| lam < bl) {
                        best = Some((li, lam));
                    }
                }
                best
            }
        };
        best.map(|(li, lam)| (base + li, lam))
    }

    fn dispatch(&self, sh: &mut Self::Shard, cx: &mut ShardCtx<'_>, job: &Job, p: &Placement) {
        let (t, mi, j) = (p.time, p.machine, job.id);
        // λ_j keeps its first-arrival value on capacity-churn
        // re-dispatch (the dual prices the original arrival; the churn
        // is the adversary's doing), while the machine tracks the final
        // placement.
        if !p.redispatch {
            let eps = self.fam.eps();
            sh.ops.push(DualOp::Lambda(j, eps / (1.0 + eps) * p.lambda));
        }
        sh.ops.push(DualOp::Machine(j, mi as u32));
        let li = mi - sh.base;
        sh.machines[li]
            .pending
            .push(j, job.sizes[mi], job.weight, t);
        sh.sync(li);
        self.fam.rules(sh, cx, job, p, li);
        self.start_next(sh, cx, li, t);
    }

    fn note_unplaced(&self, sh: &mut Self::Shard, job: &Job, t: f64) {
        // No machine can take j (the driver has recorded the standard
        // rejection): it contributes nothing to the dual (λ_j = 0, or
        // the first arrival's λ for a machine-lost job; C̃_j = t), and
        // it (re-)enters no queue.
        sh.exit(job.id, t, t);
    }

    fn complete(&self, sh: &mut Self::Shard, cx: &mut ShardCtx<'_>, mi: usize, job: JobId, t: f64) {
        let li = mi - sh.base;
        // Stale events: the job was rejected mid-run, or crash-killed
        // and re-dispatched (possibly back onto the same machine —
        // hence the completion-time check too).
        let ms = &mut sh.machines[li];
        if !ms
            .running
            .as_ref()
            .is_some_and(|r| r.job == job && r.completion == t)
        {
            return;
        }
        let r = ms.running.take().expect("matched");
        let machine = MachineId(mi as u32);
        cx.io.ops.push(LogOp::Complete(
            job,
            Execution {
                machine,
                start: r.start,
                completion: r.completion,
                speed: r.speed,
            },
        ));
        cx.io.trace.push(DecisionEvent::Complete {
            time: t,
            job,
            machine,
        });
        // Every ledger charge in [r_j, C_j] is in the past now.
        let finish = sh.settle(cx.jobs, li, job, t);
        sh.exit(job, t, finish);
        self.start_next(sh, cx, li, t);
    }

    fn capacity_sync(
        &self,
        sh: &mut Self::Shard,
        change: CapacityChange,
        mi: usize,
        online: &OnlineSet,
    ) {
        let FamilyShard {
            base,
            len,
            machines,
            dindex,
            ..
        } = sh;
        let (base, c) = (*base, &self.config);
        dispatch::sync_shard_index(
            dindex,
            c.capacity_index,
            change,
            mi,
            base,
            *len,
            online,
            c.propagation,
            c.kernels,
            |i| machines[i - base].pending.stats(),
        );
    }

    fn evict(
        &self,
        sh: &mut Self::Shard,
        _cx: &mut ShardCtx<'_>,
        change: CapacityChange,
        mi: usize,
        t: f64,
        victims: &mut Vec<(JobId, Option<PartialRun>)>,
    ) {
        // A crash kills the running job at `t` (a drain lets it
        // finish); either way every queued job leaves with the machine.
        let ms = &mut sh.machines[mi - sh.base];
        if change == CapacityChange::Crash {
            if let Some(run) = ms.running.take() {
                victims.push((
                    run.job,
                    Some(PartialRun {
                        machine: MachineId(mi as u32),
                        start: run.start,
                        end: t,
                        speed: run.speed,
                    }),
                ));
            }
        }
        while let Some(id) = ms.pending.pop_front() {
            victims.push((id, None));
        }
    }

    fn drain(&self, sh: &mut Self::Shard, records: &mut Vec<JobRecord>) {
        for op in sh.ops.drain(..) {
            match op {
                DualOp::Lambda(j, v) => records[j.idx()].lambda = v,
                DualOp::Machine(j, mi) => records[j.idx()].machine = mi,
                DualOp::Start(j, start, speed) => {
                    records[j.idx()].start = start;
                    records[j.idx()].speed = speed;
                }
                DualOp::Exit(j, exit, finish) => {
                    records[j.idx()].exit = exit;
                    records[j.idx()].def_finish = finish;
                }
            }
        }
    }

    fn probe(&self, sh: &Self::Shard) -> ShardProbe {
        ShardProbe {
            queued: sh.machines.iter().map(|ms| ms.pending.queued()).sum(),
            running: sh.machines.iter().filter(|ms| ms.running.is_some()).count(),
            index: sh.dindex.as_ref().map(|ix| ix.index_stats()),
        }
    }

    fn probe_machines(&self, sh: &Self::Shard, out: &mut Vec<(usize, usize)>) {
        out.extend(
            sh.machines
                .iter()
                .enumerate()
                .map(|(li, ms)| (sh.base + li, ms.pending.queued())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_windows_sum_the_charges_inside() {
        let mut l = RejectLedger::default();
        assert_eq!(l.window(0.0, 10.0), 0.0);
        l.push(1.0, 2.0);
        l.push(3.0, 5.0);
        l.push(3.0, 0.5);
        assert_eq!(l.window(0.0, 10.0), 7.5);
        assert_eq!(l.window(1.0, 1.0), 2.0);
        assert_eq!(l.window(1.5, 3.0), 5.5);
        assert_eq!(l.window(3.5, 9.0), 0.0);
    }

    #[test]
    fn density_queue_orders_densest_first_and_resets_on_empty() {
        let mut q = DensityQueue::new();
        q.push(JobId(0), 4.0, 1.0, 0.0); // density 0.25
        q.push(JobId(1), 1.0, 2.0, 0.0); // density 2
        q.push(JobId(2), 2.0, 1.0, 0.0); // density 0.5
        assert_eq!(q.stats().count, 3);
        assert_eq!(q.stats().min_size, 1.0);
        assert_eq!(q.weight(), 4.0);
        assert_eq!(q.pop_last().map(|e| e.job), Some(JobId(0)));
        assert_eq!(q.pop_front(), Some(JobId(1)));
        assert_eq!(q.pop_front(), Some(JobId(2)));
        assert_eq!(q.stats(), MachineStats::EMPTY);
        assert_eq!(q.pop_front(), None);
    }
}
