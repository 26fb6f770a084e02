//! The generic epoch-sharded event-loop driver.
//!
//! Every scheduler in `osr-core` used to carry its own ~1000-line serial
//! event loop: a three-way merge of arrivals, completions, and capacity
//! events with the invariant ordering **completions ≤ capacity ≤
//! arrivals** at equal instants, plus the re-dispatch and rejection
//! bookkeeping around capacity churn. This module extracts that loop
//! once, behind the [`EventPolicy`] trait, and shards it:
//!
//! * **Shard key** — machines are partitioned by *rack* (the 64-machine
//!   words of [`EligMask`](osr_model::EligMask) / `RackPHat`). A
//!   [`ShardLayout`] groups `q` racks per shard with `q` a power of two,
//!   so every shard base is aligned for the tournament index's
//!   `any_bits`/`range_min` contracts (offset a multiple of the
//!   power-of-two span).
//! * **Epochs** — arrivals are batched into maximal runs of *home* jobs
//!   (jobs whose eligible machines all fall in one shard) bounded by the
//!   next **barrier**: a capacity event, a cross-shard arrival, or the
//!   end of input. Within an epoch, shards run independently — each
//!   processes its own arrivals and completion events in time order.
//! * **Barrier reconciliation** — cross-shard arrivals are resolved
//!   serially at the barrier: every shard reports its local argmin
//!   candidate and the driver keeps the smallest value, breaking ties by
//!   the lowest machine index (shards are scanned in ascending machine
//!   order and a later candidate must be *strictly* smaller to win —
//!   exactly the serial scan's tie-break).
//!
//! # Determinism
//!
//! `--shards N` is byte-identical to the serial loop (`--shards 1`)
//! because every phase-1 mutation is either shard-confined (queues,
//! machine stats, per-shard completion heaps) or job-keyed (log fates,
//! dual variables), so any interleaving of shard executions linearizes
//! to the serial order; the only cross-shard decisions (barrier argmins,
//! capacity re-dispatch) run serially under a deterministic
//! reconciliation rule. Per-shard trace buffers are merged at each
//! barrier by a **stable** sort on time, which fixes one canonical
//! event order regardless of worker scheduling. The shard count
//! therefore never changes results, only wall-clock time — and
//! `shards == 1` *is* the serial oracle: the same driver code runs with
//! one shard covering all racks.

use osr_model::{
    Job, JobId, MachineId, OnlineSet, PartialRun, RejectReason, Rejection, ScheduleLog,
};
use rayon::prelude::*;

use crate::capacity::{CapacityChange, CapacityEvent, CapacityPlan};
use crate::event::EventQueue;
use crate::trace::{DecisionEvent, DecisionTrace};

/// Machines per rack: the word width of every bitmask layer.
pub const RACK: usize = 64;

/// Minimum number of batched arrivals in an epoch before phase 1 is
/// dispatched on the rayon pool; smaller epochs run the shards inline
/// (the outputs are identical either way — this is purely an overhead
/// crossover).
pub const EPOCH_PAR_MIN_ARRIVALS: usize = 256;

/// The shard count a request actually yields at `m` machines: requests
/// are clamped to the rack count (a shard owns at least one 64-machine
/// rack), so small pools collapse to the serial path. Used by the CLI
/// to warn when `--shards N > 1` is ineffective.
pub fn effective_shards(requested: usize, machines: usize) -> usize {
    if machines == 0 {
        return 1;
    }
    ShardLayout::new(machines, requested).shards()
}

/// Partition of `0..m` machines into contiguous shards of whole racks.
///
/// Each shard owns `q` consecutive racks with `q` a power of two
/// (except that the final shard may be shorter in machines), so shard
/// bases are multiples of `q · 64` — aligned for every power-of-two
/// range query the tournament index and `RackPHat` layers support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    m: usize,
    /// Racks per shard (power of two when `shards > 1`).
    q: usize,
    shards: usize,
}

impl ShardLayout {
    /// Lays out `m ≥ 1` machines into at most `requested` shards.
    /// Requests ≤ 1 (or small pools) yield the single-shard serial
    /// layout.
    pub fn new(m: usize, requested: usize) -> Self {
        assert!(m > 0, "shard layout over an empty machine set");
        let racks = m.div_ceil(RACK);
        if requested <= 1 || racks <= 1 {
            return ShardLayout {
                m,
                q: racks,
                shards: 1,
            };
        }
        let q = racks.div_ceil(requested).next_power_of_two();
        ShardLayout {
            m,
            q,
            shards: racks.div_ceil(q),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Racks per shard.
    #[inline]
    pub fn racks_per_shard(&self) -> usize {
        self.q
    }

    /// First (global) machine index of shard `s`.
    #[inline]
    pub fn base(&self, s: usize) -> usize {
        s * self.q * RACK
    }

    /// Number of machines owned by shard `s`.
    #[inline]
    pub fn len(&self, s: usize) -> usize {
        self.m.min((s + 1) * self.q * RACK) - self.base(s)
    }

    /// Shard owning (global) machine `i < m`.
    #[inline]
    pub fn shard_of(&self, machine: usize) -> usize {
        (machine / RACK) / self.q
    }
}

/// A deferred, job-keyed write into the shared [`ScheduleLog`]. Shards
/// buffer these during an epoch; the driver applies them at the next
/// barrier. Because each op is keyed by job and a job lives on exactly
/// one shard between barriers, the application order across shards
/// cannot change the log.
#[derive(Debug, Clone)]
pub enum LogOp {
    /// `ScheduleLog::complete`.
    Complete(JobId, osr_model::Execution),
    /// `ScheduleLog::reject`.
    Reject(JobId, Rejection),
    /// `ScheduleLog::note_redispatch`.
    Redispatch(JobId),
}

/// Per-shard output buffers: the decision-trace fragment and the
/// deferred log writes of the current epoch.
#[derive(Debug, Default)]
pub struct ShardIo {
    /// Trace events in shard-local time order.
    pub trace: DecisionTrace,
    /// Deferred writes into the shared schedule log.
    pub ops: Vec<LogOp>,
}

/// Mutable driver context handed to policy callbacks alongside the
/// shard state.
pub struct ShardCtx<'a> {
    /// The shard's output buffers.
    pub io: &'a mut ShardIo,
    /// The shard's completion-event queue (push future completions
    /// here; payload is `(global machine index, job)`).
    pub completions: &'a mut EventQueue<(usize, JobId)>,
    /// Pool membership. Frozen during an epoch — capacity events are
    /// barriers, so phase-1 code may treat it as immutable.
    pub online: &'a OnlineSet,
    /// The run's jobs, indexed by id (every job a callback names has
    /// been ingested, so its row is here).
    pub jobs: &'a [Job],
}

/// Live queue depths one shard reports to ops surfaces (`osr serve`
/// stats / `osr top`), via [`EventPolicy::probe`]. Purely observational:
/// probing never mutates scheduler state.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardProbe {
    /// Jobs pending (dispatched but not yet started) across the shard's
    /// machines.
    pub queued: usize,
    /// Jobs currently running on the shard's machines.
    pub running: usize,
    /// Snapshot of the shard's pruned dispatch index, when one exists
    /// (`None` on the linear-scan path).
    pub index: Option<osr_dstruct::IndexStats>,
}

/// A resolved placement decision handed to [`EventPolicy::dispatch`].
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// Dispatch time.
    pub time: f64,
    /// The winning machine (global index).
    pub machine: usize,
    /// The winning λ value.
    pub lambda: f64,
    /// `true` for capacity-churn re-queues (which keep the job's
    /// original dual λ), `false` for first arrivals.
    pub redispatch: bool,
}

/// A scheduling policy pluggable into the epoch-sharded driver.
///
/// Machine indices are **global** everywhere in this trait; shards know
/// their own `base` and translate internally. The driver owns the event
/// ordering, re-dispatch discipline, and reject accounting; the policy
/// owns queue state, argmin bounds, and dual bookkeeping.
pub trait EventPolicy: Sync {
    /// Per-shard mutable state (queues, machine stats, pruned index).
    type Shard: Send;
    /// Whole-run state the policy folds per-epoch results into at each
    /// barrier (dual-variable arrays, job records).
    type Global;

    /// Builds the state for the shard owning machines
    /// `base..base + len`.
    fn make_shard(&self, base: usize, len: usize, online: &OnlineSet) -> Self::Shard;

    /// When `true`, *every* arrival is a barrier (processed serially in
    /// driver order). Policies whose dispatch reads cross-job global
    /// state (e.g. the weighted scheduler's rejection budget) opt in;
    /// completions still drain shard-parallel.
    fn serial_arrivals(&self) -> bool {
        false
    }

    /// The shard's dispatch candidate for `job` at `t`: the (global)
    /// machine minimizing the policy's marginal cost among this shard's
    /// online, eligible machines, with its λ value. `None` if the shard
    /// has no eligible online machine.
    fn candidate(
        &self,
        shard: &mut Self::Shard,
        job: &Job,
        t: f64,
        online: &OnlineSet,
    ) -> Option<(usize, f64)>;

    /// Commits `job` onto the winning machine described by `p`. The
    /// driver has already pushed the `Dispatch` trace event.
    fn dispatch(&self, shard: &mut Self::Shard, cx: &mut ShardCtx<'_>, job: &Job, p: &Placement);

    /// Hook for policies that record per-job results for unplaceable
    /// jobs (the driver has already logged the rejection).
    fn note_unplaced(&self, shard: &mut Self::Shard, job: &Job, t: f64);

    /// Handles the completion event `(machine, job)` at `t` popped from
    /// the shard's queue. Stale events (the run was killed or rejected
    /// since being scheduled) must be detected and ignored here.
    fn complete(
        &self,
        shard: &mut Self::Shard,
        cx: &mut ShardCtx<'_>,
        machine: usize,
        job: JobId,
        t: f64,
    );

    /// Re-synchronizes shard state (e.g. the pruned machine index)
    /// after pool membership changed for (global) `machine`. Called
    /// after `online` already reflects the change, and — for exits —
    /// after [`EventPolicy::evict`].
    fn capacity_sync(
        &self,
        shard: &mut Self::Shard,
        change: CapacityChange,
        machine: usize,
        online: &OnlineSet,
    );

    /// Evicts the displaced jobs of (global) `machine` leaving the pool
    /// at `t` into `victims`: the queued jobs (no partial run) and, on a
    /// crash, the killed running job with its recorded prefix. The
    /// driver sorts victims by job id and re-dispatches them.
    fn evict(
        &self,
        shard: &mut Self::Shard,
        cx: &mut ShardCtx<'_>,
        change: CapacityChange,
        machine: usize,
        t: f64,
        victims: &mut Vec<(JobId, Option<PartialRun>)>,
    );

    /// Folds the shard's per-epoch results into the whole-run state.
    /// Called for every shard at every barrier (ascending shard order).
    fn drain(&self, shard: &mut Self::Shard, global: &mut Self::Global);

    /// Read-only snapshot of the shard's live queue depths for ops
    /// surfaces (see [`ShardProbe`]). The default reports nothing;
    /// policies opt in by overriding.
    fn probe(&self, _shard: &Self::Shard) -> ShardProbe {
        ShardProbe::default()
    }

    /// Appends `(global machine index, pending-queue depth)` pairs for
    /// the shard's machines to `out` — the per-machine load view behind
    /// `osr top`'s load pane. Purely observational, like
    /// [`EventPolicy::probe`]. The default reports nothing; policies
    /// opt in by overriding.
    fn probe_machines(&self, _shard: &Self::Shard, _out: &mut Vec<(usize, usize)>) {}
}

/// One shard's complete runtime state, moved by value through the
/// parallel phase-1 map. Parameterized over the policy's shard type
/// (not the policy), so a [`DriverSession`] and the policy it is
/// driven with can sit side by side in one owner.
struct ShardSlot<S> {
    shard: S,
    completions: EventQueue<(usize, JobId)>,
    io: ShardIo,
    /// Indices (into the jobs slice) of this epoch's home arrivals.
    arrivals: Vec<usize>,
}

/// Pool-wide live snapshot assembled by [`DriverSession::probe`]:
/// per-shard [`ShardProbe`]s merged with the driver's own counters.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Jobs pending (dispatched, not yet running) across all machines.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Completion events waiting in the shard event queues.
    pub completions_pending: usize,
    /// Machines currently online.
    pub online: usize,
    /// Machine-universe size of the run.
    pub machines: usize,
    /// Arrivals ingested so far.
    pub ingested: usize,
    /// High-water event time the session has processed.
    pub now: f64,
    /// Effective shard count.
    pub shards: usize,
    /// Merged dispatch-index snapshot across shards (`None` when every
    /// shard runs the linear scan).
    pub index: Option<osr_dstruct::IndexStats>,
    /// Per-machine pending-queue depths `(global machine index, depth)`
    /// in ascending machine order, from [`EventPolicy::probe_machines`]
    /// (empty when the policy does not report them).
    pub machine_depths: Vec<(usize, usize)>,
}

/// The epoch-sharded event loop as a **resumable session**: the same
/// machinery [`drive`] runs end-to-end, opened up so arrivals can be
/// fed incrementally — from a replayed trace, from stdin, from a unix
/// socket (`osr serve`) — instead of being known up front.
///
/// A session owns everything that outlives one epoch: the shard slots,
/// the pool membership, the growable [`ScheduleLog`], and the merged
/// [`DecisionTrace`]. The policy and the jobs slice are passed into
/// every call (callbacks read jobs through [`ShardCtx::jobs`]); the
/// slice may grow between calls as long as already-ingested prefixes
/// are never mutated.
///
/// # Determinism contract (online = offline)
///
/// Feeding a session the same jobs and capacity events in timestamp
/// order — in however many `ingest_until`/`capacity` increments —
/// produces a [`ScheduleLog`] **byte-identical** to one [`drive`] call
/// over the whole instance. The argument: epoch boundaries only add
/// flush points, and every flush group's events occupy a time range
/// disjoint from (and ordered before) later groups', so the
/// concatenation of stable per-flush time sorts equals one stable
/// whole-run time sort; per-shard state evolution is unchanged because
/// completions always fire before the next arrival or capacity event
/// at or after their instant, exactly as the batched loop orders them.
/// CI pins this with byte-diffs of `osr serve` replays against
/// offline `osr run` for all three schedulers.
pub struct DriverSession<S> {
    layout: ShardLayout,
    m: usize,
    online: OnlineSet,
    slots: Vec<ShardSlot<S>>,
    log: ScheduleLog,
    trace: DecisionTrace,
    merge: Vec<DecisionEvent>,
    victims: Vec<(JobId, Option<PartialRun>)>,
    serial_arrivals: bool,
    next_arrival: usize,
    now: f64,
}

impl<S: Send> DriverSession<S> {
    /// Opens a session over `machines` machines, all online, with at
    /// most `shards_requested` shards.
    pub fn new<P>(policy: &P, machines: usize, shards_requested: usize) -> Self
    where
        P: EventPolicy<Shard = S>,
    {
        Self::with_online(
            policy,
            machines,
            OnlineSet::all_online(machines),
            shards_requested,
        )
    }

    /// Opens a session with an explicit initial pool membership
    /// (machines whose first capacity event is a `join` start offline,
    /// mirroring [`CapacityPlan::initial_online`]).
    pub fn with_online<P>(
        policy: &P,
        machines: usize,
        online: OnlineSet,
        shards_requested: usize,
    ) -> Self
    where
        P: EventPolicy<Shard = S>,
    {
        let layout = ShardLayout::new(machines, shards_requested.max(1));
        let slots = (0..layout.shards())
            .map(|s| ShardSlot {
                shard: policy.make_shard(layout.base(s), layout.len(s), &online),
                completions: EventQueue::new(),
                io: ShardIo::default(),
                arrivals: Vec::new(),
            })
            .collect();
        DriverSession {
            layout,
            m: machines,
            online,
            slots,
            log: ScheduleLog::new(machines, 0),
            trace: DecisionTrace::new(),
            merge: Vec::new(),
            victims: Vec::new(),
            serial_arrivals: policy.serial_arrivals(),
            next_arrival: 0,
            now: f64::NEG_INFINITY,
        }
    }

    /// Effective shard count.
    pub fn shards(&self) -> usize {
        self.layout.shards()
    }

    /// Current pool membership.
    pub fn online(&self) -> &OnlineSet {
        &self.online
    }

    /// High-water event time processed so far (`-∞` before any event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of arrivals ingested so far.
    pub fn ingested(&self) -> usize {
        self.next_arrival
    }

    /// The in-progress schedule log (read-only; fates land as epochs
    /// flush).
    pub fn log(&self) -> &ScheduleLog {
        &self.log
    }

    /// The merged decision trace so far.
    pub fn trace(&self) -> &DecisionTrace {
        &self.trace
    }

    /// Ingests every arrival in `jobs[ingested..]` whose release is
    /// **strictly** before `tk` (the strict bound mirrors the batch
    /// loop's capacity-precedes-arrivals tie-break), interleaving shard
    /// completions in time order and resolving cross-shard arrivals at
    /// internal barriers. Completions are drained only up to the last
    /// ingested release — later ones wait for the next `ingest_until`,
    /// [`Self::capacity`], or [`Self::into_finished`], which preserves
    /// their ordering against events this session has not seen yet.
    pub fn ingest_until<P>(&mut self, policy: &P, jobs: &[Job], tk: f64, global: &mut P::Global)
    where
        P: EventPolicy<Shard = S>,
    {
        self.log.grow(jobs.len());
        while self.next_arrival < jobs.len() {
            // ---- Epoch assembly: batch home arrivals up to the next
            // cross-shard arrival (or the ingest bound).
            let mut barrier: Option<usize> = None;
            let mut batched = 0usize;
            let mut last_release = f64::NEG_INFINITY;
            while self.next_arrival < jobs.len() {
                let job = &jobs[self.next_arrival];
                if job.release >= tk {
                    break;
                }
                match home_shard(job, &self.layout, self.serial_arrivals) {
                    Some(s) => {
                        self.slots[s].arrivals.push(self.next_arrival);
                        last_release = job.release;
                        self.next_arrival += 1;
                        batched += 1;
                    }
                    None => {
                        barrier = Some(self.next_arrival);
                        break;
                    }
                }
            }
            let horizon = match barrier {
                Some(idx) => jobs[idx].release,
                None => last_release,
            };
            if batched == 0 && barrier.is_none() {
                return; // nothing releases before the bound
            }

            // ---- Phase 1: shard-local arrivals + completions up to
            // the epoch horizon.
            self.run_shards(policy, jobs, horizon, batched);
            self.flush_io(policy, global);
            // Crash-recovery kill site: the serial barrier between the
            // parallel phase and cross-shard resolution. Kill-only (no
            // error path exists here); free when disarmed.
            crate::failpoint::hit_kill("epoch-barrier");

            // ---- Phase 2: resolve a cross-shard arrival serially.
            match barrier {
                Some(idx) => {
                    self.next_arrival = idx + 1;
                    let job = &jobs[idx];
                    self.now = self.now.max(job.release);
                    place_global(
                        policy,
                        &self.layout,
                        &mut self.slots,
                        jobs,
                        job,
                        job.release,
                        false,
                        None,
                        &self.online,
                        self.m,
                    );
                    self.flush_io(policy, global);
                }
                None => {
                    self.now = self.now.max(last_release);
                    return;
                }
            }
        }
    }

    /// Ingests every remaining arrival (no release bound).
    pub fn ingest_all<P>(&mut self, policy: &P, jobs: &[Job], global: &mut P::Global)
    where
        P: EventPolicy<Shard = S>,
    {
        self.ingest_until(policy, jobs, f64::INFINITY, global);
    }

    /// Applies one capacity event: completions at or before the event
    /// instant fire first (the batch loop's completions-before-capacity
    /// tie-break), then the pool change lands — joins re-sync the
    /// winning shard's index; drains and crashes evict the machine's
    /// jobs and re-dispatch them globally in ascending job-id order.
    /// Arrivals at or after `ev.time` must be ingested *after* this
    /// call (capacity precedes arrivals at equal instants).
    pub fn capacity<P>(
        &mut self,
        policy: &P,
        jobs: &[Job],
        ev: CapacityEvent,
        global: &mut P::Global,
    ) where
        P: EventPolicy<Shard = S>,
    {
        self.drain_to(policy, jobs, ev.time);
        self.flush_io(policy, global);
        self.now = self.now.max(ev.time);
        let mi = ev.machine.idx();
        let s = self.layout.shard_of(mi);
        match ev.change {
            CapacityChange::Join => {
                if self.online.set_online(mi) {
                    policy.capacity_sync(&mut self.slots[s].shard, ev.change, mi, &self.online);
                }
            }
            CapacityChange::Drain | CapacityChange::Crash => {
                if self.online.set_offline(mi) {
                    {
                        let slot = &mut self.slots[s];
                        let mut cx = ShardCtx {
                            io: &mut slot.io,
                            completions: &mut slot.completions,
                            online: &self.online,
                            jobs,
                        };
                        policy.evict(
                            &mut slot.shard,
                            &mut cx,
                            ev.change,
                            mi,
                            ev.time,
                            &mut self.victims,
                        );
                        policy.capacity_sync(&mut slot.shard, ev.change, mi, &self.online);
                    }
                    // Deterministic re-dispatch order regardless of
                    // queue discipline: ascending job id.
                    self.victims.sort_by_key(|&(id, _)| id);
                    let displaced = std::mem::take(&mut self.victims);
                    for (vid, partial) in displaced {
                        // The log is caught up (flushed above), so the
                        // redispatch note lands directly.
                        self.log.note_redispatch(vid);
                        place_global(
                            policy,
                            &self.layout,
                            &mut self.slots,
                            jobs,
                            &jobs[vid.idx()],
                            ev.time,
                            true,
                            partial,
                            &self.online,
                            self.m,
                        );
                    }
                }
            }
        }
        self.flush_io(policy, global);
    }

    /// Fires every completion at or before `t` and folds the results
    /// out, without ingesting anything — lets a long-running serve
    /// instance surface up-to-date stats between arrivals. `t` must not
    /// exceed the release of any arrival ingested later (stay at or
    /// below the stream's high-water time and this holds by
    /// construction).
    pub fn advance<P>(&mut self, policy: &P, jobs: &[Job], t: f64, global: &mut P::Global)
    where
        P: EventPolicy<Shard = S>,
    {
        self.drain_to(policy, jobs, t);
        self.flush_io(policy, global);
        self.now = self.now.max(t);
    }

    /// Drains every outstanding completion, flushes, and returns the
    /// finished artifacts: the log (caller calls
    /// [`ScheduleLog::finish`]), the merged trace, and the effective
    /// shard count. Every arrival must have been ingested first.
    pub fn into_finished<P>(
        mut self,
        policy: &P,
        jobs: &[Job],
        global: &mut P::Global,
    ) -> (ScheduleLog, DecisionTrace, usize)
    where
        P: EventPolicy<Shard = S>,
    {
        self.drain_to(policy, jobs, f64::INFINITY);
        self.flush_io(policy, global);
        (self.log, self.trace, self.layout.shards())
    }

    /// Pool-wide live snapshot: per-shard [`EventPolicy::probe`]s plus
    /// the driver's own counters, merged.
    pub fn probe<P>(&self, policy: &P) -> SessionStats
    where
        P: EventPolicy<Shard = S>,
    {
        let mut stats = SessionStats {
            machines: self.m,
            online: self.online.online_count(),
            ingested: self.next_arrival,
            now: self.now,
            shards: self.layout.shards(),
            ..SessionStats::default()
        };
        for slot in &self.slots {
            let p = policy.probe(&slot.shard);
            stats.queued += p.queued;
            stats.running += p.running;
            stats.completions_pending += slot.completions.len();
            policy.probe_machines(&slot.shard, &mut stats.machine_depths);
            if let Some(ix) = p.index {
                match &mut stats.index {
                    Some(acc) => acc.merge(&ix),
                    None => stats.index = Some(ix),
                }
            }
        }
        stats
    }

    /// Phase 1 over all shards: identical output inline or on the
    /// rayon pool; parallelism only pays for itself on large batches.
    fn run_shards<P>(&mut self, policy: &P, jobs: &[Job], horizon: f64, batched: usize)
    where
        P: EventPolicy<Shard = S>,
    {
        let DriverSession {
            layout,
            m,
            online,
            slots,
            ..
        } = self;
        if layout.shards() > 1 && batched >= EPOCH_PAR_MIN_ARRIVALS {
            let moved = std::mem::take(slots);
            *slots = moved
                .into_par_iter()
                .map(|mut slot| {
                    run_shard(policy, &mut slot, jobs, online, horizon, *m);
                    slot
                })
                .collect();
        } else {
            for slot in slots.iter_mut() {
                run_shard(policy, slot, jobs, online, horizon, *m);
            }
        }
    }

    /// Fires completions at or before `t` on every shard (no flush).
    fn drain_to<P>(&mut self, policy: &P, jobs: &[Job], t: f64)
    where
        P: EventPolicy<Shard = S>,
    {
        for slot in self.slots.iter_mut() {
            let ShardSlot {
                shard,
                completions,
                io,
                ..
            } = slot;
            while let Some(tc) = completions.peek_time() {
                if tc > t {
                    break;
                }
                let (tc, (mi, jid)) = completions.pop().expect("peeked event");
                let mut cx = ShardCtx {
                    io,
                    completions,
                    online: &self.online,
                    jobs,
                };
                policy.complete(shard, &mut cx, mi, jid, tc);
            }
        }
    }

    /// Applies buffered log ops, folds epoch results into the global
    /// state, and merges trace fragments (stable time sort).
    fn flush_io<P>(&mut self, policy: &P, global: &mut P::Global)
    where
        P: EventPolicy<Shard = S>,
    {
        flush(
            policy,
            &mut self.slots,
            &mut self.log,
            &mut self.trace,
            global,
            &mut self.merge,
        );
    }
}

/// Runs the full event loop for `jobs` over `machines` machines under
/// `plan`, with at most `shards_requested` shards. Returns the completed log (caller calls
/// `finish`), the merged decision trace, and the effective shard count.
///
/// This is now a thin batch wrapper over [`DriverSession`]: capacity
/// events partition the timeline, arrivals are ingested up to each
/// event, and the session is finished once both streams are exhausted.
pub fn drive<P: EventPolicy>(
    policy: &P,
    jobs: &[Job],
    machines: usize,
    plan: &CapacityPlan,
    shards_requested: usize,
    global: &mut P::Global,
) -> (ScheduleLog, DecisionTrace, usize) {
    plan.check_machines(machines)
        .expect("capacity plan fits the instance");
    let online = plan.initial_online(machines);
    let mut session = DriverSession::with_online(policy, machines, online, shards_requested);
    for ev in plan.events() {
        session.ingest_until(policy, jobs, ev.time, global);
        session.capacity(policy, jobs, *ev, global);
    }
    session.ingest_all(policy, jobs, global);
    session.into_finished(policy, jobs, global)
}

/// Classifies an arrival: `Some(s)` if every eligible machine lies in
/// shard `s` (shard-local dispatch is then provably the global argmin),
/// `None` if the job must barrier for cross-shard reconciliation.
fn home_shard(job: &Job, layout: &ShardLayout, serial_arrivals: bool) -> Option<usize> {
    if layout.shards() == 1 {
        return Some(0);
    }
    if !job.has_eligible() {
        // Rejected wherever it lands; route through shard 0.
        return Some(0);
    }
    if serial_arrivals {
        return None;
    }
    let (_, summary) = job.elig().word_layers()?;
    let mut first = None;
    let mut last = 0usize;
    for (k, &sw) in summary.iter().enumerate() {
        if sw != 0 {
            if first.is_none() {
                first = Some(k * RACK + sw.trailing_zeros() as usize);
            }
            last = k * RACK + (RACK - 1) - sw.leading_zeros() as usize;
        }
    }
    let first = first?;
    let (a, b) = (first / layout.q, last / layout.q);
    (a == b).then_some(a)
}

/// Phase 1 for one shard: process this epoch's home arrivals in time
/// order, interleaving the shard's completion events, then drain
/// remaining completions up to the barrier (completions at the barrier
/// instant fire *before* the barrier, matching the serial tie-break).
fn run_shard<P: EventPolicy>(
    policy: &P,
    slot: &mut ShardSlot<P::Shard>,
    jobs: &[Job],
    online: &OnlineSet,
    horizon: f64,
    m: usize,
) {
    let ShardSlot {
        shard,
        completions,
        io,
        arrivals,
    } = slot;
    for &ai in arrivals.iter() {
        let job = &jobs[ai];
        let t = job.release;
        while let Some(tc) = completions.peek_time() {
            if tc > t {
                break;
            }
            let (tc, (mi, jid)) = completions.pop().expect("peeked event");
            let mut cx = ShardCtx {
                io,
                completions,
                online,
                jobs,
            };
            policy.complete(shard, &mut cx, mi, jid, tc);
        }
        let cand = if job.has_eligible() {
            policy.candidate(shard, job, t, online)
        } else {
            None
        };
        let mut cx = ShardCtx {
            io,
            completions,
            online,
            jobs,
        };
        commit(policy, shard, &mut cx, job, t, false, None, cand, m);
    }
    arrivals.clear();
    while let Some(tc) = completions.peek_time() {
        if tc > horizon {
            break;
        }
        let (tc, (mi, jid)) = completions.pop().expect("peeked event");
        let mut cx = ShardCtx {
            io,
            completions,
            online,
            jobs,
        };
        policy.complete(shard, &mut cx, mi, jid, tc);
    }
}

/// Applies every shard's buffered log ops, folds per-epoch results into
/// the whole-run state, and merges the per-shard trace fragments into
/// the global trace by a stable time sort (canonical order independent
/// of worker scheduling).
fn flush<P: EventPolicy>(
    policy: &P,
    slots: &mut [ShardSlot<P::Shard>],
    log: &mut ScheduleLog,
    trace: &mut DecisionTrace,
    global: &mut P::Global,
    merge: &mut Vec<DecisionEvent>,
) {
    if let [only] = slots {
        for op in only.io.ops.drain(..) {
            apply(log, op);
        }
        policy.drain(&mut only.shard, global);
        for ev in only.io.trace.drain_events() {
            trace.push(ev);
        }
        return;
    }
    merge.clear();
    for slot in slots.iter_mut() {
        for op in slot.io.ops.drain(..) {
            apply(log, op);
        }
        policy.drain(&mut slot.shard, global);
        merge.extend(slot.io.trace.drain_events());
    }
    merge.sort_by(|a, b| a.time().total_cmp(&b.time()));
    for ev in merge.drain(..) {
        trace.push(ev);
    }
}

fn apply(log: &mut ScheduleLog, op: LogOp) {
    match op {
        LogOp::Complete(j, e) => log.complete(j, e),
        LogOp::Reject(j, r) => log.reject(j, r),
        LogOp::Redispatch(j) => log.note_redispatch(j),
    }
}

/// Serial cross-shard placement: collect every shard's candidate in
/// ascending machine order, keep the first strictly-smallest λ (the
/// global lowest-index argmin), and commit into the winning shard.
#[allow(clippy::too_many_arguments)]
fn place_global<P: EventPolicy>(
    policy: &P,
    layout: &ShardLayout,
    slots: &mut [ShardSlot<P::Shard>],
    jobs: &[Job],
    job: &Job,
    t: f64,
    redispatch: bool,
    lost_partial: Option<PartialRun>,
    online: &OnlineSet,
    m: usize,
) {
    let cand = if job.has_eligible() {
        let mut best: Option<(usize, f64)> = None;
        for slot in slots.iter_mut() {
            if let Some((mi, lam)) = policy.candidate(&mut slot.shard, job, t, online) {
                if best.is_none_or(|(_, bl)| lam < bl) {
                    best = Some((mi, lam));
                }
            }
        }
        best
    } else {
        None
    };
    let target = cand.map_or(0, |(mi, _)| layout.shard_of(mi));
    let slot = &mut slots[target];
    let mut cx = ShardCtx {
        io: &mut slot.io,
        completions: &mut slot.completions,
        online,
        jobs,
    };
    commit(
        policy,
        &mut slot.shard,
        &mut cx,
        job,
        t,
        redispatch,
        lost_partial,
        cand,
        m,
    );
}

/// Shared placement epilogue: dispatch to the winning machine, or
/// record the standard rejection — [`RejectReason::Ineligible`] for a
/// job with no eligible machine anywhere,
/// [`RejectReason::MachineLost`] (with any interrupted prefix) for a
/// job stranded by churn. This is the accounting the three schedulers
/// previously triplicated.
#[allow(clippy::too_many_arguments)]
fn commit<P: EventPolicy>(
    policy: &P,
    shard: &mut P::Shard,
    cx: &mut ShardCtx<'_>,
    job: &Job,
    t: f64,
    redispatch: bool,
    lost_partial: Option<PartialRun>,
    cand: Option<(usize, f64)>,
    m: usize,
) {
    match cand {
        Some((mi, lam)) => {
            cx.io.trace.push(DecisionEvent::Dispatch {
                time: t,
                job: job.id,
                machine: MachineId(mi as u32),
                lambda: lam,
                candidates: m,
            });
            policy.dispatch(
                shard,
                cx,
                job,
                &Placement {
                    time: t,
                    machine: mi,
                    lambda: lam,
                    redispatch,
                },
            );
        }
        None => {
            let (reason, partial) = if job.has_eligible() {
                (RejectReason::MachineLost, lost_partial)
            } else {
                (RejectReason::Ineligible, None)
            };
            let machine = partial.as_ref().map_or(MachineId(0), |p| p.machine);
            cx.io.ops.push(LogOp::Reject(
                job.id,
                Rejection {
                    time: t,
                    reason,
                    partial,
                },
            ));
            cx.io.trace.push(DecisionEvent::Reject {
                time: t,
                job: job.id,
                machine,
                reason,
                counter: 0.0,
            });
            policy.note_unplaced(shard, job, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::EligMask;

    #[test]
    fn layout_single_shard_covers_everything() {
        for m in [1, 63, 64, 65, 4096] {
            let l = ShardLayout::new(m, 1);
            assert_eq!(l.shards(), 1);
            assert_eq!(l.base(0), 0);
            assert_eq!(l.len(0), m);
        }
    }

    #[test]
    fn layout_small_pools_collapse_to_serial() {
        for m in [1, 63, 64] {
            assert_eq!(ShardLayout::new(m, 4).shards(), 1, "m={m}");
            assert_eq!(effective_shards(4, m), 1);
        }
        assert_eq!(effective_shards(2, 65), 2);
        assert_eq!(effective_shards(4, 0), 1);
    }

    #[test]
    fn layout_shards_are_aligned_and_cover() {
        for (m, req) in [(65, 2), (130, 2), (130, 4), (4096, 8), (16384, 8), (200, 3)] {
            let l = ShardLayout::new(m, req);
            assert!(l.shards() <= req.max(1), "m={m} req={req}");
            assert!(l.racks_per_shard().is_power_of_two());
            let mut covered = 0;
            for s in 0..l.shards() {
                assert_eq!(l.base(s), covered, "contiguous");
                assert_eq!(l.base(s) % (l.racks_per_shard() * RACK), 0, "aligned base");
                assert!(l.len(s) > 0, "no empty shard");
                for i in l.base(s)..l.base(s) + l.len(s) {
                    assert_eq!(l.shard_of(i), s);
                }
                covered += l.len(s);
            }
            assert_eq!(covered, m, "m={m} req={req}");
        }
    }

    #[test]
    fn layout_request_beyond_racks_clamps() {
        let l = ShardLayout::new(130, 64);
        assert_eq!(l.shards(), 3);
        assert_eq!(l.racks_per_shard(), 1);
    }

    fn job_with_sizes(id: u32, sizes: Vec<f64>) -> Job {
        Job::new(id, 0.0, sizes)
    }

    #[test]
    fn home_shard_classification() {
        let layout = ShardLayout::new(200, 4); // q=1: shard per rack
        assert_eq!(layout.shards(), 4);
        // All machines eligible: must barrier.
        let mut sizes = vec![1.0; 200];
        let all = job_with_sizes(0, sizes.clone());
        assert!(matches!(all.elig(), EligMask::All));
        assert_eq!(home_shard(&all, &layout, false), None);
        // Only rack 1 eligible: home shard 1.
        sizes = vec![f64::INFINITY; 200];
        sizes[64] = 1.0;
        sizes[100] = 2.0;
        let local = job_with_sizes(1, sizes.clone());
        assert_eq!(home_shard(&local, &layout, false), Some(1));
        assert_eq!(
            home_shard(&local, &layout, true),
            None,
            "serial arrivals barrier"
        );
        // Racks 0 and 3 eligible: cross-shard.
        sizes = vec![f64::INFINITY; 200];
        sizes[0] = 1.0;
        sizes[199] = 1.0;
        let cross = job_with_sizes(2, sizes.clone());
        assert_eq!(home_shard(&cross, &layout, false), None);
        // Nowhere eligible: routed to shard 0 for the shared rejection.
        let nowhere = job_with_sizes(3, vec![f64::INFINITY; 200]);
        assert_eq!(home_shard(&nowhere, &layout, false), Some(0));
        // Wider grouping (q=2): racks 2 and 3 share shard 1.
        let grouped = ShardLayout::new(200, 2);
        assert_eq!(grouped.shards(), 2);
        assert_eq!(home_shard(&cross, &grouped, false), None);
        sizes = vec![f64::INFINITY; 200];
        sizes[130] = 1.0;
        sizes[199] = 1.0;
        let hi = job_with_sizes(4, sizes.clone());
        assert_eq!(home_shard(&hi, &grouped, false), Some(1));
        // Single shard: everything is home.
        let serial = ShardLayout::new(200, 1);
        assert_eq!(home_shard(&cross, &serial, false), Some(0));
    }
}
