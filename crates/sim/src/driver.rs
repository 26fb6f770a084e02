//! The generic serial event-loop driver.
//!
//! Every scheduler in `osr-core` used to carry its own ~1000-line serial
//! event loop: a three-way merge of arrivals, completions, and capacity
//! events with the invariant ordering **completions ≤ capacity ≤
//! arrivals** at equal instants, plus the re-dispatch and rejection
//! bookkeeping around capacity churn, and the greedy,
//! immediate-rejection and speed-augmentation baselines of
//! `osr-baselines` each carried a smaller copy. This module holds that
//! loop once, behind the [`EventPolicy`] trait.
//!
//! The paper's rules are sequential online rules: each arrival takes
//! one argmin over machines, against queues every earlier event has
//! already shaped. So the driver keeps one policy state and one
//! completion queue, places every arrival and every re-dispatch through
//! one path, and writes log and trace entries straight through as the
//! policy makes them.
//!
//! # Epochs
//!
//! Arrivals are ingested in **epochs**: maximal runs of arrivals up to
//! the next capacity event, advance, or the end of the input. Within an
//! epoch every arrival first fires the completions at or before its
//! release, then is placed; the epoch ends by firing the completions at
//! or before its last release. Epoch boundaries add no decision and
//! reorder no event, so how a stream is cut into epochs changes no log
//! byte. The end of each non-empty epoch is the `epoch-barrier`
//! fault-injection site.

use osr_model::{Job, JobId, MachineId, OnlineSet, PartialRun, ScheduleLog};

use crate::capacity::{CapacityChange, CapacityEvent, CapacityPlan};
use crate::event::EventQueue;
use crate::scheduler::{reject_ineligible, reject_machine_lost};
use crate::trace::{DecisionEvent, DecisionTrace};

/// Mutable driver context handed to policy callbacks alongside the
/// policy state.
pub struct Ctx<'a> {
    /// The run's schedule log (completions and rejections land here).
    pub log: &'a mut ScheduleLog,
    /// The run's decision trace, in time order.
    pub trace: &'a mut DecisionTrace,
    /// The completion-event queue; policies push through
    /// [`Ctx::schedule_completion`].
    completions: &'a mut EventQueue<(usize, JobId)>,
    /// Pool membership. Capacity events change it only between
    /// callbacks, so callbacks may treat it as immutable.
    pub online: &'a OnlineSet,
    /// The run's jobs, indexed by id (every job a callback names has
    /// been ingested, so its row is here).
    pub jobs: &'a [Job],
}

impl Ctx<'_> {
    /// Schedules the completion event of `job` on machine index
    /// `machine` at `t`. Events at equal times fire in push order.
    #[inline]
    pub fn schedule_completion(&mut self, t: f64, machine: usize, job: JobId) {
        self.completions.push(t, (machine, job));
    }
}

/// Live queue depths a policy reports to ops surfaces (`osr serve`
/// stats / `osr top`), via [`EventPolicy::probe`]. Purely observational:
/// probing never mutates scheduler state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Jobs pending (dispatched but not yet started) across all
    /// machines.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Snapshot of the pruned dispatch index, when one exists (`None`
    /// on the linear-scan path).
    pub index: Option<osr_dstruct::IndexStats>,
}

/// A resolved placement decision handed to [`EventPolicy::dispatch`].
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// Dispatch time.
    pub time: f64,
    /// The winning machine.
    pub machine: usize,
    /// The winning λ value.
    pub lambda: f64,
    /// `true` for capacity-churn re-queues (which keep the job's
    /// original dual λ), `false` for first arrivals.
    pub redispatch: bool,
}

/// A scheduling policy pluggable into the driver.
///
/// The driver owns the event ordering, re-dispatch discipline, and
/// reject accounting; the policy owns queue state, argmin bounds, and
/// dual bookkeeping, all in its [`EventPolicy::State`].
pub trait EventPolicy {
    /// The policy's mutable run state (queues, machine stats, pruned
    /// index, per-job records).
    type State;

    /// Builds the state for a pool of `machines` machines with initial
    /// membership `online`.
    fn make_state(&self, machines: usize, online: &OnlineSet) -> Self::State;

    /// The dispatch target for `job` at `t`: the machine minimizing the
    /// policy's marginal cost among the online, eligible machines (the
    /// lowest index on ties), with its λ value. `None` if no eligible
    /// machine is online.
    fn candidate(
        &self,
        state: &mut Self::State,
        job: &Job,
        t: f64,
        online: &OnlineSet,
    ) -> Option<(usize, f64)>;

    /// Admission of a first arrival `job` at `t`, asked before the
    /// driver's eligibility check and argmin (re-dispatches are not
    /// asked again). Returning `false` means the policy has itself
    /// logged and traced the job's rejection, and the driver places
    /// nothing. The default admits every job.
    #[inline]
    fn admit(&self, _state: &mut Self::State, _cx: &mut Ctx<'_>, _job: &Job, _t: f64) -> bool {
        true
    }

    /// Commits `job` onto the winning machine described by `p`. The
    /// driver has already pushed the `Dispatch` trace event.
    fn dispatch(&self, state: &mut Self::State, cx: &mut Ctx<'_>, job: &Job, p: &Placement);

    /// Hook for policies that record per-job results for unplaceable
    /// jobs (the driver has already logged the rejection).
    fn note_unplaced(&self, state: &mut Self::State, job: &Job, t: f64);

    /// Handles the completion event `(machine, job)` at `t` popped from
    /// the completion queue. Stale events (the run was killed or
    /// rejected since being scheduled) must be detected and ignored
    /// here.
    fn complete(
        &self,
        state: &mut Self::State,
        cx: &mut Ctx<'_>,
        machine: usize,
        job: JobId,
        t: f64,
    );

    /// Re-synchronizes the state (e.g. the pruned machine index) after
    /// pool membership changed for `machine`. Called after `online`
    /// already reflects the change, and — for exits — after
    /// [`EventPolicy::evict`].
    fn capacity_sync(
        &self,
        state: &mut Self::State,
        change: CapacityChange,
        machine: usize,
        online: &OnlineSet,
    );

    /// Evicts the displaced jobs of `machine` leaving the pool at `t`
    /// into `victims`: the queued jobs (no partial run) and, on a
    /// crash, the killed running job with its recorded prefix. The
    /// driver sorts victims by job id and re-dispatches them.
    fn evict(
        &self,
        state: &mut Self::State,
        change: CapacityChange,
        machine: usize,
        t: f64,
        victims: &mut Vec<(JobId, Option<PartialRun>)>,
    );

    /// Read-only snapshot of the live queue depths for ops surfaces
    /// (see [`Probe`]). The default reports nothing; policies opt in by
    /// overriding.
    fn probe(&self, _state: &Self::State) -> Probe {
        Probe::default()
    }

    /// Appends `(machine index, pending-queue depth)` pairs to `out` in
    /// ascending machine order — the per-machine load view behind
    /// `osr top`'s load pane. Purely observational, like
    /// [`EventPolicy::probe`]. The default reports nothing; policies
    /// opt in by overriding.
    fn probe_machines(&self, _state: &Self::State, _out: &mut Vec<(usize, usize)>) {}
}

/// Pool-wide live snapshot assembled by [`DriverSession::probe`]: the
/// policy's [`Probe`] plus the driver's own counters.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Jobs pending (dispatched, not yet running) across all machines.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Completion events waiting in the event queue.
    pub completions_pending: usize,
    /// Machines currently online.
    pub online: usize,
    /// Machine-universe size of the run.
    pub machines: usize,
    /// Arrivals ingested so far.
    pub ingested: usize,
    /// High-water event time the session has processed.
    pub now: f64,
    /// Dispatch-index snapshot (`None` on the linear scan).
    pub index: Option<osr_dstruct::IndexStats>,
    /// Per-machine pending-queue depths `(machine index, depth)` in
    /// ascending machine order, from [`EventPolicy::probe_machines`]
    /// (empty when the policy does not report them).
    pub machine_depths: Vec<(usize, usize)>,
}

/// The event loop as a **resumable session**: the same machinery
/// [`drive`] runs end-to-end, opened up so arrivals can be fed
/// incrementally — from a replayed trace, from stdin, from a unix
/// socket (`osr serve`) — instead of being known up front.
///
/// A session owns everything that outlives one epoch: the policy state,
/// the completion queue, the pool membership, the growable
/// [`ScheduleLog`], and the [`DecisionTrace`]. The policy and the jobs
/// slice are passed into every call (callbacks read jobs through
/// [`Ctx::jobs`]); the slice may grow between calls as long as
/// already-ingested prefixes are never mutated.
///
/// # Determinism contract (online = offline)
///
/// Feeding a session the same jobs and capacity events in timestamp
/// order — in however many `ingest_until`/`capacity` increments —
/// produces a [`ScheduleLog`] **byte-identical** to one [`drive`] call
/// over the whole instance: completions always fire before the next
/// arrival or capacity event at or after their instant, exactly as the
/// batched loop orders them, and epoch boundaries only add points at
/// which completions already due are fired. CI pins this with
/// byte-diffs of `osr serve` replays against offline `osr run` for all
/// three schedulers.
pub struct DriverSession<S> {
    m: usize,
    online: OnlineSet,
    state: S,
    completions: EventQueue<(usize, JobId)>,
    log: ScheduleLog,
    trace: DecisionTrace,
    victims: Vec<(JobId, Option<PartialRun>)>,
    next_arrival: usize,
    now: f64,
}

impl<S> DriverSession<S> {
    /// Opens a session with an explicit initial pool membership
    /// (machines whose first capacity event is a `join` start offline,
    /// mirroring [`CapacityPlan::initial_online`]).
    pub fn with_online<P>(policy: &P, machines: usize, online: OnlineSet) -> Self
    where
        P: EventPolicy<State = S>,
    {
        DriverSession {
            m: machines,
            state: policy.make_state(machines, &online),
            online,
            completions: EventQueue::new(),
            log: ScheduleLog::new(machines, 0),
            trace: DecisionTrace::new(),
            victims: Vec::new(),
            next_arrival: 0,
            now: f64::NEG_INFINITY,
        }
    }

    /// The in-progress schedule log (read-only).
    pub fn log(&self) -> &ScheduleLog {
        &self.log
    }

    /// Ingests every arrival in `jobs[ingested..]` whose release is
    /// **strictly** before `tk` (the strict bound mirrors the batch
    /// loop's capacity-precedes-arrivals tie-break) as one epoch,
    /// interleaving completions in time order. Completions are fired
    /// only up to the last ingested release — later ones wait for the
    /// next `ingest_until`, [`Self::capacity`], or
    /// [`Self::into_finished`], which preserves their ordering against
    /// events this session has not seen yet.
    pub fn ingest_until<P>(&mut self, policy: &P, jobs: &[Job], tk: f64)
    where
        P: EventPolicy<State = S>,
    {
        self.log.grow(jobs.len());
        let first = self.next_arrival;
        while let Some(job) = jobs.get(self.next_arrival).filter(|j| j.release < tk) {
            self.fire_until(policy, jobs, job.release);
            let (state, mut cx) = self.split(jobs);
            if policy.admit(state, &mut cx, job, job.release) {
                self.place(policy, jobs, job, job.release, false, None);
            }
            self.next_arrival += 1;
        }
        if self.next_arrival == first {
            return; // nothing releases before the bound
        }
        let last_release = jobs[self.next_arrival - 1].release;
        self.fire_until(policy, jobs, last_release);
        self.now = self.now.max(last_release);
        // Crash-recovery kill site: the end of an ingest epoch.
        // Kill-only (no error path exists here); free when disarmed.
        crate::failpoint::hit_kill("epoch-barrier");
    }

    /// Ingests every remaining arrival (no release bound).
    pub fn ingest_all<P>(&mut self, policy: &P, jobs: &[Job])
    where
        P: EventPolicy<State = S>,
    {
        self.ingest_until(policy, jobs, f64::INFINITY);
    }

    /// Applies one capacity event: completions at or before the event
    /// instant fire first (the batch loop's completions-before-capacity
    /// tie-break), then the pool change lands — joins re-sync the
    /// policy's index; drains and crashes evict the machine's jobs and
    /// re-dispatch them in ascending job-id order. Arrivals at or after
    /// `ev.time` must be ingested *after* this call (capacity precedes
    /// arrivals at equal instants).
    pub fn capacity<P>(&mut self, policy: &P, jobs: &[Job], ev: CapacityEvent)
    where
        P: EventPolicy<State = S>,
    {
        self.fire_until(policy, jobs, ev.time);
        self.now = self.now.max(ev.time);
        let mi = ev.machine.idx();
        match ev.change {
            CapacityChange::Join => {
                if self.online.set_online(mi) {
                    policy.capacity_sync(&mut self.state, ev.change, mi, &self.online);
                }
            }
            CapacityChange::Drain | CapacityChange::Crash => {
                if self.online.set_offline(mi) {
                    let mut victims = std::mem::take(&mut self.victims);
                    policy.evict(&mut self.state, ev.change, mi, ev.time, &mut victims);
                    policy.capacity_sync(&mut self.state, ev.change, mi, &self.online);
                    // Deterministic re-dispatch order regardless of
                    // queue discipline: ascending job id.
                    victims.sort_by_key(|&(id, _)| id);
                    for (vid, partial) in victims.drain(..) {
                        self.log.note_redispatch(vid);
                        self.place(policy, jobs, &jobs[vid.idx()], ev.time, true, partial);
                    }
                    self.victims = victims;
                }
            }
        }
    }

    /// Fires every completion at or before `t` without ingesting
    /// anything — lets a long-running serve instance surface up-to-date
    /// stats between arrivals. `t` must not exceed the release of any
    /// arrival ingested later (stay at or below the stream's high-water
    /// time and this holds by construction).
    pub fn advance<P>(&mut self, policy: &P, jobs: &[Job], t: f64)
    where
        P: EventPolicy<State = S>,
    {
        self.fire_until(policy, jobs, t);
        self.now = self.now.max(t);
    }

    /// Fires every outstanding completion and returns the finished
    /// artifacts: the log (caller calls [`ScheduleLog::finish`]), the
    /// trace, and the policy state. Every arrival must have been
    /// ingested first.
    pub fn into_finished<P>(mut self, policy: &P, jobs: &[Job]) -> (ScheduleLog, DecisionTrace, S)
    where
        P: EventPolicy<State = S>,
    {
        self.fire_until(policy, jobs, f64::INFINITY);
        (self.log, self.trace, self.state)
    }

    /// Pool-wide live snapshot: the policy's [`EventPolicy::probe`]
    /// plus the driver's own counters.
    pub fn probe<P>(&self, policy: &P) -> SessionStats
    where
        P: EventPolicy<State = S>,
    {
        let p = policy.probe(&self.state);
        let mut machine_depths = Vec::new();
        policy.probe_machines(&self.state, &mut machine_depths);
        SessionStats {
            queued: p.queued,
            running: p.running,
            completions_pending: self.completions.len(),
            online: self.online.online_count(),
            machines: self.m,
            ingested: self.next_arrival,
            now: self.now,
            index: p.index,
            machine_depths,
        }
    }

    /// The policy state and the callback context over this session.
    fn split<'a>(&'a mut self, jobs: &'a [Job]) -> (&'a mut S, Ctx<'a>) {
        let cx = Ctx {
            log: &mut self.log,
            trace: &mut self.trace,
            completions: &mut self.completions,
            online: &self.online,
            jobs,
        };
        (&mut self.state, cx)
    }

    /// Fires the completions at or before `t`, in time order.
    fn fire_until<P>(&mut self, policy: &P, jobs: &[Job], t: f64)
    where
        P: EventPolicy<State = S>,
    {
        while let Some(tc) = self.completions.peek_time() {
            if tc > t {
                break;
            }
            let (tc, (mi, jid)) = self.completions.pop().expect("peeked event");
            let (state, mut cx) = self.split(jobs);
            policy.complete(state, &mut cx, mi, jid, tc);
        }
    }

    /// Places `job` at `t`: dispatch to the policy's candidate, or
    /// record the standard rejection: [`reject_ineligible`] for a job
    /// with no eligible machine anywhere, [`reject_machine_lost`] (with
    /// any interrupted prefix) for a job stranded by churn.
    fn place<P>(
        &mut self,
        policy: &P,
        jobs: &[Job],
        job: &Job,
        t: f64,
        redispatch: bool,
        lost_partial: Option<PartialRun>,
    ) where
        P: EventPolicy<State = S>,
    {
        let cand = if job.has_eligible() {
            policy.candidate(&mut self.state, job, t, &self.online)
        } else {
            None
        };
        let m = self.m;
        let (state, mut cx) = self.split(jobs);
        match cand {
            Some((mi, lam)) => {
                cx.trace.push(DecisionEvent::Dispatch {
                    time: t,
                    job: job.id,
                    machine: MachineId(mi as u32),
                    lambda: lam,
                    candidates: m,
                });
                let p = Placement {
                    time: t,
                    machine: mi,
                    lambda: lam,
                    redispatch,
                };
                policy.dispatch(state, &mut cx, job, &p);
            }
            None => {
                if job.has_eligible() {
                    reject_machine_lost(cx.log, cx.trace, job.id, t, lost_partial);
                } else {
                    reject_ineligible(cx.log, cx.trace, job.id, t);
                }
                policy.note_unplaced(state, job, t);
            }
        }
    }
}

/// Runs the full event loop for `jobs` over `machines` machines under
/// `plan`. Returns the completed log (caller calls `finish`), the
/// decision trace, and the final policy state.
///
/// This is a thin batch wrapper over [`DriverSession`]: capacity
/// events partition the timeline, arrivals are ingested up to each
/// event, and the session is finished once both streams are exhausted.
pub fn drive<P: EventPolicy>(
    policy: &P,
    jobs: &[Job],
    machines: usize,
    plan: &CapacityPlan,
) -> (ScheduleLog, DecisionTrace, P::State) {
    plan.check_machines(machines)
        .expect("capacity plan fits the instance");
    let online = plan.initial_online(machines);
    let mut session = DriverSession::with_online(policy, machines, online);
    for ev in plan.events() {
        session.ingest_until(policy, jobs, ev.time);
        session.capacity(policy, jobs, *ev);
    }
    session.ingest_all(policy, jobs);
    session.into_finished(policy, jobs)
}
