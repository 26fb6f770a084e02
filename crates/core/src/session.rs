//! Streaming **serve-mode** sessions: the three schedulers opened up as
//! long-running, incrementally-fed instances for `osr serve`.
//!
//! Offline, a scheduler's `run(&Instance)` sees every arrival up front
//! and hands the whole batch to [`osr_sim::drive`]. A serve session
//! inverts that: it owns a growable job list and a resumable
//! [`DriverSession`], and [`ServeSession::apply`], its one mutating
//! entry point, pushes each arriving job and ingests every run of
//! arrivals as one epoch when it lands. One generic [`FamilySession`]
//! serves all three algorithms: it owns the algorithm's policy (built once,
//! like the offline run's) next to the driver, so the weighted
//! variant's rejection budget and every algorithm's per-job dual
//! records live as long as the stream.
//!
//! # Determinism contract (online = offline)
//!
//! Feeding a session the events of an offline instance in the batch
//! loop's order — capacity changes before arrivals at equal instants,
//! timestamps non-decreasing — produces a [`FinishedLog`] **byte
//! identical** (via [`osr_model::io::log_to_string`]) to the offline
//! `run` over the same instance: epoch boundaries only add flush
//! points, and flush groups cover disjoint, ordered time ranges, so
//! the concatenated stable sorts equal one whole-run stable sort (see
//! [`DriverSession`] docs). The tests below and the `serve-replay` CI
//! job pin this for all three schedulers.
//!
//! Sessions *validate* the stream rather than trusting it: sizes rows
//! must match the pool width, and event times must be non-decreasing
//! against the session's high-water clock (out-of-order input would
//! silently break the offline equivalence, so it is rejected loudly).

use osr_model::{
    FinishedLog, Job, JobFate, JobId, MachineId, OnlineSet, RejectReason, ScheduleLog, SizeRow,
};
use osr_sim::{CapacityChange, CapacityEvent, DriverSession, SessionStats, SummaryStats};

use crate::energyflow::EnergyPolicy;
use crate::family::{Family, FamilyPolicy, FamilyShard, JobRecord};
use crate::flowtime::weighted::WeightedPolicy;
use crate::flowtime::FlowPolicy;

/// Point-in-time ops snapshot of a live serve session: driver counters
/// ([`SessionStats`]) merged with fate totals and flow-time percentiles
/// read off the in-progress schedule log. Rendered by `osr serve`'s
/// `stats` command and the `osr top` TUI.
#[derive(Debug, Clone, Default)]
pub struct ServeSnapshot {
    /// High-water event time processed (`-∞` before any event).
    pub now: f64,
    /// Machine-universe size of the pool.
    pub machines: usize,
    /// Machines currently online.
    pub online: usize,
    /// Effective shard count of the driver.
    pub shards: usize,
    /// Arrivals ingested so far.
    pub arrived: usize,
    /// Jobs dispatched but not yet started.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Completion events waiting in the shard event queues.
    pub completions_pending: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs rejected (all reasons).
    pub rejected: usize,
    /// ... by §2 Rule 1 / the §3 weight rule.
    pub rejected_rule1: usize,
    /// ... by §2 Rule 2.
    pub rejected_rule2: usize,
    /// ... immediately at arrival (baseline policies).
    pub rejected_immediate: usize,
    /// ... for being eligible on no machine.
    pub rejected_ineligible: usize,
    /// ... because every eligible machine left the pool.
    pub rejected_machine_lost: usize,
    /// ... for any other baseline-specific reason.
    pub rejected_other: usize,
    /// Total capacity-churn re-dispatches across all jobs.
    pub redispatches: u64,
    /// Median flow time `C_j − r_j` over completed jobs (0 when none).
    pub flow_p50: f64,
    /// 95th-percentile flow time over completed jobs.
    pub flow_p95: f64,
    /// 99th-percentile flow time over completed jobs.
    pub flow_p99: f64,
    /// Merged dispatch-index snapshot across shards (`None` when every
    /// shard runs the linear scan).
    pub index: Option<osr_dstruct::IndexStats>,
    /// Per-machine pending-queue depths `(global machine index, depth)`
    /// in ascending machine order — the `osr top` load pane's source.
    pub machine_depths: Vec<(usize, usize)>,
}

/// The operands of one arrival, with any stream defaults (an omitted
/// `@T`) already resolved by the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Release time (must respect the session's monotone clock).
    pub release: f64,
    /// Job weight.
    pub weight: f64,
    /// One processing time per machine (`f64::INFINITY` = ineligible),
    /// dense or sparse.
    pub sizes: SizeRow,
}

/// One stream event for [`ServeSession::apply`]: the three ops of a
/// journal record, without the arrive id (the session hands out dense
/// ids in arrival order).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job released at `release`, dispatched online when it lands.
    Arrive(Arrival),
    /// A pool-membership change at `time`: joins bring the machine
    /// back; drains and crashes evict its jobs and re-dispatch them.
    /// No-ops (joining an online machine, draining an offline one) are
    /// accepted silently, mirroring offline replay.
    Capacity {
        /// Pool change kind.
        change: CapacityChange,
        /// Machine index.
        machine: usize,
        /// Event time.
        time: f64,
    },
    /// Fires every completion at or before `time` without ingesting
    /// anything, so stats surfaces stay current between arrivals.
    Advance {
        /// Completion high-water time.
        time: f64,
    },
}

impl Event {
    /// The event's time: an arrival's release, or the stated time.
    pub fn time(&self) -> f64 {
        match self {
            Event::Arrive(a) => a.release,
            Event::Capacity { time, .. } | Event::Advance { time } => *time,
        }
    }
}

/// A scheduler running as a long-lived, incrementally-fed instance —
/// the object-safe surface `osr serve` drives. Implemented by
/// [`FamilySession`], whose instances are [`FlowSession`] (§2),
/// [`WeightedFlowSession`] (§3 weight rule on unit speeds) and
/// [`EnergyFlowSession`] (§3 speed scaling), and by the write-ahead
/// [`crate::JournaledSession`] around any of them.
///
/// Event times must be non-decreasing across the whole stream (every
/// event shares one high-water clock); a violation is rejected with an
/// error and leaves the session state untouched.
pub trait ServeSession: Send {
    /// Short algorithm name (`"flow"`, `"weighted"`, `"energy"`).
    fn algorithm(&self) -> &'static str;

    /// Machine-universe size of the pool.
    fn machines(&self) -> usize;

    /// The stream cursor `(next_id, clock)`: the dense id the next
    /// accepted arrival gets, and the time of the last accepted event
    /// (`0` before any).
    fn cursor(&self) -> (usize, f64);

    /// The one mutating entry point: applies `events` in stream order,
    /// each run of arrivals as **one** ingest epoch. By the determinism
    /// contract, how a stream is cut into calls changes no log byte
    /// (epoch boundaries only add flush points), so batching trades
    /// ingest overhead only.
    ///
    /// Stops at the first rejected event: on `Err((k, e))`, events
    /// before `k` were applied, event `k` failed with `e` and left the
    /// state untouched, and `events` holds the unattempted `k+1..` for
    /// the caller to resubmit. On `Ok`, `events` is empty.
    fn apply(&mut self, events: &mut Vec<Event>) -> Result<(), (usize, String)>;

    /// Feeds one arrival through [`Self::apply`].
    fn arrive(&mut self, release: f64, weight: f64, sizes: SizeRow) -> Result<(), String> {
        let arrival = Arrival {
            release,
            weight,
            sizes,
        };
        self.apply(&mut vec![Event::Arrive(arrival)])
            .map_err(|(_, e)| e)
    }

    /// Feeds a burst of arrivals through [`Self::apply`] as one ingest
    /// epoch, with its error contract.
    fn arrive_batch(&mut self, batch: Vec<Arrival>) -> Result<(), (usize, String)> {
        self.apply(&mut batch.into_iter().map(Event::Arrive).collect())
    }

    /// Feeds one pool-membership change through [`Self::apply`].
    fn capacity(
        &mut self,
        change: CapacityChange,
        machine: usize,
        time: f64,
    ) -> Result<(), String> {
        let ev = Event::Capacity {
            change,
            machine,
            time,
        };
        self.apply(&mut vec![ev]).map_err(|(_, e)| e)
    }

    /// Read-only ops snapshot (never mutates scheduler state).
    fn snapshot(&self) -> ServeSnapshot;

    /// Ends the stream: drains every outstanding completion and returns
    /// the finished log — byte-identical to the offline run over the
    /// same event sequence.
    fn finish(self: Box<Self>) -> Result<FinishedLog, String>;
}

/// Builds the initial pool membership: all machines online except the
/// listed ones (machines whose first trace event is a `join` start
/// offline, mirroring [`osr_sim::CapacityPlan::initial_online`]).
fn initial_pool(machines: usize, offline: &[usize]) -> Result<OnlineSet, String> {
    let mut online = OnlineSet::all_online(machines);
    for &i in offline {
        if i >= machines {
            return Err(format!(
                "offline machine m{i} out of range (pool has {machines} machines)"
            ));
        }
        online.set_offline(i);
    }
    Ok(online)
}

/// Shared stream validation: a session-wide monotone clock over finite
/// times (an infinite time would put every later event behind it).
fn check_clock(clock: f64, time: f64, what: &str) -> Result<(), String> {
    if !time.is_finite() {
        return Err(format!("{what} time {time} is not finite"));
    }
    if time < clock {
        return Err(format!(
            "{what} at t={time} behind the stream high-water t={clock}; serve input must be time-ordered"
        ));
    }
    Ok(())
}

/// Merges driver counters with fate totals and flow percentiles read
/// off the in-progress log.
fn compose_snapshot(stats: SessionStats, log: &ScheduleLog, jobs: &[Job]) -> ServeSnapshot {
    let mut snap = ServeSnapshot {
        now: stats.now,
        machines: stats.machines,
        online: stats.online,
        shards: stats.shards,
        arrived: stats.ingested,
        queued: stats.queued,
        running: stats.running,
        completions_pending: stats.completions_pending,
        index: stats.index,
        machine_depths: stats.machine_depths,
        ..ServeSnapshot::default()
    };
    let mut flows = Vec::new();
    for (id, fate) in log.iter() {
        match fate {
            JobFate::Completed(e) => {
                snap.completed += 1;
                flows.push(e.completion - jobs[id.idx()].release);
            }
            JobFate::Rejected(r) => {
                snap.rejected += 1;
                match r.reason {
                    RejectReason::RuleOne => snap.rejected_rule1 += 1,
                    RejectReason::RuleTwo => snap.rejected_rule2 += 1,
                    RejectReason::Immediate => snap.rejected_immediate += 1,
                    RejectReason::Ineligible => snap.rejected_ineligible += 1,
                    RejectReason::MachineLost => snap.rejected_machine_lost += 1,
                    RejectReason::Other => snap.rejected_other += 1,
                }
            }
        }
    }
    for k in 0..log.len() {
        snap.redispatches += u64::from(log.redispatches(JobId(k as u32)));
    }
    let s = SummaryStats::from_values(flows);
    snap.flow_p50 = s.p50;
    snap.flow_p95 = s.p95;
    snap.flow_p99 = s.p99;
    snap
}

/// A flow-family scheduler as a serve session: the §2 scheduler
/// ([`FlowSession`]), the weighted extension ([`WeightedFlowSession`])
/// and §3 ([`EnergyFlowSession`]) are this one type over their own
/// rules.
pub struct FamilySession<F: Family> {
    jobs: Vec<Job>,
    policy: FamilyPolicy<F>,
    m: usize,
    driver: DriverSession<FamilyShard<F::Queue>>,
    records: Vec<JobRecord>,
    clock: f64,
}

/// The §2 flow-time scheduler as a serve session.
pub type FlowSession = FamilySession<FlowPolicy>;

/// The weighted extension (unit speeds, weight-budget rejection) as a
/// serve session.
pub type WeightedFlowSession = FamilySession<WeightedPolicy>;

/// The §3 energy scheduler (speed scaling `s = γ·W^{1/α}`) as a serve
/// session.
pub type EnergyFlowSession = FamilySession<EnergyPolicy>;

impl<F: Family> FamilySession<F> {
    /// Opens a session over `machines` machines, all online.
    pub fn new(params: F::Params, machines: usize) -> Result<Self, String> {
        Self::with_offline(params, machines, &[])
    }

    /// Opens a session with the listed machines starting offline.
    pub fn with_offline(
        params: F::Params,
        machines: usize,
        offline: &[usize],
    ) -> Result<Self, String> {
        if machines == 0 {
            return Err("pool must have at least one machine".into());
        }
        // The offline scheduler's validation (and, for §3, γ).
        let fam = F::open(params)?;
        let online = initial_pool(machines, offline)?;
        let policy = FamilyPolicy::new(fam, *params, machines);
        let driver = DriverSession::with_online(&policy, machines, online, params.shards);
        Ok(FamilySession {
            jobs: Vec::new(),
            policy,
            m: machines,
            driver,
            records: Vec::new(),
            clock: 0.0,
        })
    }

    /// Applies one event. An arrival is validated and appended (job
    /// row plus its record row) but not ingested: its epoch is ingested
    /// before the next capacity or advance event, or at the end of the
    /// batch. Fails before mutating anything.
    fn apply_one(&mut self, ev: Event) -> Result<(), String> {
        let time = ev.time();
        match ev {
            Event::Arrive(a) => {
                check_clock(self.clock, time, "arrival")?;
                if self.jobs.len() > u32::MAX as usize {
                    return Err("job id space exhausted".into());
                }
                // Width first: the job's caches are sized by its row, so
                // a row claiming a huge width must not get as far as
                // building them.
                if a.sizes.len() != self.m {
                    return Err(format!(
                        "j{}: has {} sizes, instance has {} machines",
                        self.jobs.len(),
                        a.sizes.len(),
                        self.m
                    ));
                }
                let job = Job::weighted(self.jobs.len() as u32, time, a.weight, a.sizes);
                job.validate(self.m)?;
                self.jobs.push(job);
                self.records.push(JobRecord::EMPTY);
            }
            Event::Capacity {
                change, machine, ..
            } => {
                if machine >= self.m {
                    let m = self.m;
                    return Err(format!(
                        "machine m{machine} out of range (pool has {m} machines)"
                    ));
                }
                check_clock(self.clock, time, "capacity event")?;
                self.ingest();
                let ev = CapacityEvent {
                    time,
                    machine: MachineId(machine as u32),
                    change,
                };
                self.driver
                    .capacity(&self.policy, &self.jobs, ev, &mut self.records);
            }
            Event::Advance { .. } => {
                check_clock(self.clock, time, "advance")?;
                self.ingest();
                self.driver
                    .advance(&self.policy, &self.jobs, time, &mut self.records);
            }
        }
        self.clock = time;
        Ok(())
    }

    /// Ingests every appended-but-uningested arrival as one epoch batch.
    fn ingest(&mut self) {
        self.driver
            .ingest_all(&self.policy, &self.jobs, &mut self.records);
    }
}

impl EnergyFlowSession {
    /// The resolved speed-scaling coefficient `γ`.
    pub fn gamma(&self) -> f64 {
        self.policy.fam.gamma()
    }
}

impl<F: Family> ServeSession for FamilySession<F> {
    fn algorithm(&self) -> &'static str {
        F::NAME
    }

    fn machines(&self) -> usize {
        self.m
    }

    fn cursor(&self) -> (usize, f64) {
        (self.jobs.len(), self.clock)
    }

    fn apply(&mut self, events: &mut Vec<Event>) -> Result<(), (usize, String)> {
        let mut res = Ok(());
        let mut rest = std::mem::take(events).into_iter();
        for (k, ev) in rest.by_ref().enumerate() {
            if let Err(e) = self.apply_one(ev) {
                res = Err((k, e));
                break;
            }
        }
        self.ingest();
        *events = rest.collect();
        res
    }

    fn snapshot(&self) -> ServeSnapshot {
        compose_snapshot(
            self.driver.probe(&self.policy),
            self.driver.log(),
            &self.jobs,
        )
    }

    fn finish(self: Box<Self>) -> Result<FinishedLog, String> {
        let mut s = *self;
        let (log, _trace, _shards) = s.driver.into_finished(&s.policy, &s.jobs, &mut s.records);
        log.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DispatchIndex;
    use crate::energyflow::{EnergyFlowParams, EnergyFlowScheduler};
    use crate::flowtime::weighted::{WeightedFlowParams, WeightedFlowScheduler};
    use crate::flowtime::{FlowParams, FlowScheduler};
    use osr_model::io::log_to_string;
    use osr_model::{Instance, InstanceKind};
    use osr_sim::CapacityPlan;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64) / (u32::MAX as f64 + 1.0)
    }

    /// Deterministic stream: releases non-decreasing, ~15% ineligible
    /// entries, weights in [0.5, 2.5).
    fn gen_jobs(n: usize, m: usize, seed: u64) -> Vec<Job> {
        let mut st = seed;
        let mut t = 0.0f64;
        (0..n)
            .map(|k| {
                t += lcg(&mut st) * 1.5;
                let sizes: Vec<f64> = (0..m)
                    .map(|_| {
                        let r = lcg(&mut st);
                        if r < 0.15 {
                            f64::INFINITY
                        } else {
                            0.5 + 4.0 * r
                        }
                    })
                    .collect();
                let w = 0.5 + 2.0 * lcg(&mut st);
                Job::weighted(k as u32, t, w, sizes)
            })
            .collect()
    }

    /// Feeds an offline instance through a serve session in the batch
    /// loop's order (capacity before arrivals at equal instants), in
    /// `apply` batches of `len` events that mix arrivals with capacity
    /// events.
    fn replay(
        mut sess: Box<dyn ServeSession>,
        jobs: &[Job],
        plan: &CapacityPlan,
        len: usize,
    ) -> FinishedLog {
        let capacity = |e: &CapacityEvent| Event::Capacity {
            change: e.change,
            machine: e.machine.idx(),
            time: e.time,
        };
        let mut caps = plan.events().iter().peekable();
        let mut events = Vec::new();
        for job in jobs {
            events.extend(
                std::iter::from_fn(|| caps.next_if(|e| e.time <= job.release)).map(capacity),
            );
            events.push(Event::Arrive(Arrival {
                release: job.release,
                weight: job.weight,
                sizes: job.sizes.clone(),
            }));
        }
        events.extend(caps.map(capacity));
        for chunk in events.chunks(len) {
            sess.apply(&mut chunk.to_vec()).unwrap();
        }
        sess.finish().unwrap()
    }

    /// Batch lengths every offline-equivalence test replays with: one
    /// event per call, short mixed runs, and the whole stream at once.
    const LENS: [usize; 3] = [1, 7, usize::MAX];

    fn churn_plan() -> CapacityPlan {
        CapacityPlan::new(vec![
            CapacityEvent {
                time: 3.0,
                machine: MachineId(1),
                change: CapacityChange::Drain,
            },
            CapacityEvent {
                time: 7.0,
                machine: MachineId(1),
                change: CapacityChange::Join,
            },
            CapacityEvent {
                time: 9.0,
                machine: MachineId(3),
                change: CapacityChange::Crash,
            },
            // m4 starts offline (first event is a join).
            CapacityEvent {
                time: 4.0,
                machine: MachineId(4),
                change: CapacityChange::Join,
            },
        ])
        .unwrap()
    }

    /// Machines that must start offline under [`churn_plan`].
    const CHURN_OFFLINE: &[usize] = &[4];

    #[test]
    fn flow_replay_is_byte_identical_to_offline_run() {
        let m = 5;
        let jobs = gen_jobs(60, m, 7);
        let plan = churn_plan();
        let inst = Instance::new(m, jobs.clone(), InstanceKind::FlowTime).unwrap();
        let offline = FlowScheduler::with_eps(0.5)
            .unwrap()
            .with_capacity(plan.clone())
            .run(&inst);
        for len in LENS {
            let sess = FlowSession::with_offline(FlowParams::new(0.5), m, CHURN_OFFLINE).unwrap();
            let served = replay(Box::new(sess), &jobs, &plan, len);
            assert_eq!(log_to_string(&offline.log), log_to_string(&served), "{len}");
        }
    }

    #[test]
    fn flow_replay_matches_on_the_pruned_index_path() {
        // Enough machines to clear PRUNED_MIN_MACHINES so the dispatch
        // index (with its drain tombstones) is actually exercised, for
        // all three sessions: the flat scan at m = 12 and the heap
        // descent at m = 130 (one shard wider than FLAT_MAX_MACHINES).
        for m in [12usize, 130] {
            let jobs = gen_jobs(80, m, 21);
            let plan = CapacityPlan::new(vec![
                CapacityEvent {
                    time: 5.0,
                    machine: MachineId(2),
                    change: CapacityChange::Crash,
                },
                CapacityEvent {
                    time: 11.0,
                    machine: MachineId(8),
                    change: CapacityChange::Drain,
                },
            ])
            .unwrap();
            let mut fp = FlowParams::new(0.4);
            fp.dispatch = DispatchIndex::Pruned;
            let mut wp = WeightedFlowParams::new(0.4);
            wp.dispatch = DispatchIndex::Pruned;
            let mut ep = EnergyFlowParams::new(0.4, 2.0);
            ep.dispatch = DispatchIndex::Pruned;
            let flow_inst = Instance::new(m, jobs.clone(), InstanceKind::FlowTime).unwrap();
            let inst = Instance::new(m, jobs.clone(), InstanceKind::FlowEnergy).unwrap();
            let cases: [(FinishedLog, Box<dyn ServeSession>); 3] = [
                (
                    FlowScheduler::new(fp)
                        .unwrap()
                        .with_capacity(plan.clone())
                        .run(&flow_inst)
                        .log,
                    Box::new(FlowSession::new(fp, m).unwrap()),
                ),
                (
                    WeightedFlowScheduler::new(wp)
                        .unwrap()
                        .with_capacity(plan.clone())
                        .run(&inst)
                        .log,
                    Box::new(WeightedFlowSession::new(wp, m).unwrap()),
                ),
                (
                    EnergyFlowScheduler::new(ep)
                        .unwrap()
                        .with_capacity(plan.clone())
                        .run(&inst)
                        .log,
                    Box::new(EnergyFlowSession::new(ep, m).unwrap()),
                ),
            ];
            for (offline, sess) in cases {
                let name = sess.algorithm();
                // The probe surface reports a live index on this path.
                assert!(sess.snapshot().index.is_some(), "{name} m={m}");
                let served = replay(sess, &jobs, &plan, 16);
                assert_eq!(
                    log_to_string(&offline),
                    log_to_string(&served),
                    "{name} m={m}"
                );
            }
        }
    }

    #[test]
    fn weighted_replay_is_byte_identical_to_offline_run() {
        let m = 5;
        let jobs = gen_jobs(60, m, 13);
        let plan = churn_plan();
        let inst = Instance::new(m, jobs.clone(), InstanceKind::FlowEnergy).unwrap();
        let params = WeightedFlowParams::new(0.5);
        let offline = WeightedFlowScheduler::new(params)
            .unwrap()
            .with_capacity(plan.clone())
            .run(&inst);
        for len in LENS {
            let sess = WeightedFlowSession::with_offline(params, m, CHURN_OFFLINE).unwrap();
            let served = replay(Box::new(sess), &jobs, &plan, len);
            assert_eq!(log_to_string(&offline.log), log_to_string(&served), "{len}");
        }
    }

    #[test]
    fn energy_replay_is_byte_identical_to_offline_run() {
        let m = 5;
        let jobs = gen_jobs(60, m, 29);
        let plan = churn_plan();
        let inst = Instance::new(m, jobs.clone(), InstanceKind::FlowEnergy).unwrap();
        let params = EnergyFlowParams::new(0.5, 2.0);
        let offline = EnergyFlowScheduler::new(params)
            .unwrap()
            .with_capacity(plan.clone())
            .run(&inst);
        for len in LENS {
            let sess = EnergyFlowSession::with_offline(params, m, CHURN_OFFLINE).unwrap();
            let served = replay(Box::new(sess), &jobs, &plan, len);
            assert_eq!(log_to_string(&offline.log), log_to_string(&served), "{len}");
        }
    }

    /// A mid-batch validation failure ingests the prefix, reports the
    /// failing index, hands back the unattempted tail, and leaves the
    /// session usable.
    #[test]
    fn arrive_batch_reports_failure_index_and_keeps_prefix() {
        let m = 2;
        let mut sess = FlowSession::new(FlowParams::new(0.5), m).unwrap();
        let a = |release: f64, sizes: Vec<f64>| Arrival {
            release,
            weight: 1.0,
            sizes: sizes.into(),
        };
        let (k, e) = sess
            .arrive_batch(vec![
                a(1.0, vec![1.0, 2.0]),
                a(2.0, vec![1.0, 1.0]),
                a(1.5, vec![1.0, 1.0]), // time regression
                a(3.0, vec![1.0, 1.0]), // not attempted
            ])
            .unwrap_err();
        assert_eq!(k, 2);
        assert!(e.contains("time-ordered"), "{e}");
        let snap = sess.snapshot();
        assert_eq!(snap.arrived, 2);
        // The stream continues past the rejected entry. A mixed batch
        // stops at its rejected capacity event and hands back the
        // events behind it.
        let mut batch = vec![
            Event::Arrive(a(3.0, vec![1.0, 1.0])),
            Event::Capacity {
                change: CapacityChange::Drain,
                machine: m,
                time: 3.5,
            },
            Event::Advance { time: 4.0 },
        ];
        assert_eq!(sess.apply(&mut batch).unwrap_err().0, 1);
        assert_eq!(batch, vec![Event::Advance { time: 4.0 }]);
        sess.apply(&mut batch).unwrap();
        assert_eq!(sess.cursor(), (3, 4.0));
        assert_eq!(Box::new(sess).finish().unwrap().len(), 3);
    }

    #[test]
    fn snapshot_counts_fates_and_percentiles() {
        let m = 3;
        let mut sess = FlowSession::new(FlowParams::new(0.5), m).unwrap();
        sess.arrive(0.0, 1.0, vec![1.0, 2.0, 3.0].into()).unwrap();
        sess.arrive(0.5, 1.0, vec![f64::INFINITY; 3].into())
            .unwrap(); // ineligible
        sess.arrive(1.0, 1.0, vec![2.0, 1.0, 2.0].into()).unwrap();
        sess.apply(&mut vec![Event::Advance { time: 100.0 }])
            .unwrap();
        let snap = sess.snapshot();
        assert_eq!(snap.arrived, 3);
        assert_eq!(snap.machines, m);
        assert_eq!(snap.online, m);
        assert_eq!(snap.rejected_ineligible, 1);
        assert_eq!(snap.completed + snap.rejected, 3);
        assert!(snap.flow_p50 > 0.0);
        assert_eq!(snap.queued, 0);
        assert_eq!(snap.running, 0);
    }

    #[test]
    fn streams_are_validated() {
        let m = 2;
        let mut sess = FlowSession::new(FlowParams::new(0.5), m).unwrap();
        sess.arrive(5.0, 1.0, vec![1.0, 1.0].into()).unwrap();
        // Time regression.
        assert!(sess.arrive(4.0, 1.0, vec![1.0, 1.0].into()).is_err());
        assert!(sess.capacity(CapacityChange::Drain, 0, 4.0).is_err());
        // Wrong row width.
        assert!(sess.arrive(6.0, 1.0, vec![1.0].into()).is_err());
        // Bad weight / NaN size.
        assert!(sess.arrive(6.0, 0.0, vec![1.0, 1.0].into()).is_err());
        assert!(sess.arrive(6.0, 1.0, vec![f64::NAN, 1.0].into()).is_err());
        // Machine out of range.
        assert!(sess.capacity(CapacityChange::Join, 2, 6.0).is_err());
        // Times that are not finite, which would brick the clock.
        for t in [f64::INFINITY, f64::NAN] {
            assert!(sess.apply(&mut vec![Event::Advance { time: t }]).is_err());
            assert!(sess.capacity(CapacityChange::Drain, 0, t).is_err());
        }
        // A failed call leaves the stream usable.
        sess.arrive(6.0, 1.0, vec![1.0, 1.0].into()).unwrap();
        assert!(Box::new(sess).finish().is_ok());
        // Zero machines and out-of-range offline lists are rejected.
        assert!(FlowSession::new(FlowParams::new(0.5), 0).is_err());
        assert!(FlowSession::with_offline(FlowParams::new(0.5), 2, &[2]).is_err());
    }
}
