//! Schedule logs: the complete record of what a scheduler did.
//!
//! Every scheduler in the workspace — the paper's algorithms and all
//! baselines — produces a [`ScheduleLog`]. Metrics (`osr-model::metrics`)
//! and the invariant validator (`osr-sim::validate`) consume logs, so
//! correctness checking is completely decoupled from policy code.

use crate::job::{JobId, MachineId};

/// Why a job was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// §2 Rule 1 / §3 weight rule: the *running* job was interrupted and
    /// discarded because too many jobs (or too much weight) arrived at
    /// its machine during its execution.
    RuleOne,
    /// §2 Rule 2: every `1 + 1/ε` dispatches to a machine, the pending
    /// job with the largest processing time is discarded.
    RuleTwo,
    /// A baseline policy rejected the job immediately upon arrival
    /// (the policies ruled out by Lemma 1).
    Immediate,
    /// The job is eligible on no machine (`p_ij = ∞` everywhere) — no
    /// scheduler can serve it; it is dropped at arrival rather than
    /// aborting the run. Counts against no rule's budget.
    Ineligible,
    /// Every machine the job is eligible on has left the pool (drained
    /// or crashed) by the time the job needed (re-)dispatching. Only
    /// produced by capacity-churn runs; counts against no rule's
    /// budget — the *pool* failed the job, not the policy.
    MachineLost,
    /// Any other baseline-specific reason.
    Other,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::RuleOne => write!(f, "rule-1"),
            RejectReason::RuleTwo => write!(f, "rule-2"),
            RejectReason::Immediate => write!(f, "immediate"),
            RejectReason::Ineligible => write!(f, "ineligible"),
            RejectReason::MachineLost => write!(f, "machine-lost"),
            RejectReason::Other => write!(f, "other"),
        }
    }
}

/// A completed, non-preemptive run of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// Machine the job ran on.
    pub machine: MachineId,
    /// Start of continuous execution.
    pub start: f64,
    /// Completion time `C_j` (`start + p / speed`).
    pub completion: f64,
    /// Constant execution speed (1.0 in the flow-time model).
    pub speed: f64,
}

impl Execution {
    /// Wall-clock duration of the run.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.completion - self.start
    }

    /// Volume processed (`duration * speed`).
    #[inline]
    pub fn volume(&self) -> f64 {
        self.duration() * self.speed
    }

    /// Energy consumed under power `P(s) = s^alpha`.
    #[inline]
    pub fn energy(&self, alpha: f64) -> f64 {
        self.duration() * self.speed.powf(alpha)
    }
}

/// The prefix of an execution that ran before a Rule-1-style rejection
/// interrupted it. The machine was busy for `[start, end)` at `speed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialRun {
    /// Machine occupied by the doomed run.
    pub machine: MachineId,
    /// When the job started.
    pub start: f64,
    /// When the rejection interrupted it.
    pub end: f64,
    /// Constant speed during the partial run.
    pub speed: f64,
}

impl PartialRun {
    /// Energy burned by the partial run under `P(s) = s^alpha`.
    #[inline]
    pub fn energy(&self, alpha: f64) -> f64 {
        (self.end - self.start) * self.speed.powf(alpha)
    }
}

/// A rejection event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rejection {
    /// When the scheduler discarded the job. The paper defines the
    /// flow-time of a rejected job as `time - r_j`.
    pub time: f64,
    /// Which rule caused it.
    pub reason: RejectReason,
    /// Machine time consumed before the rejection, if the job had
    /// started (Rule 1 interrupts the running job).
    pub partial: Option<PartialRun>,
}

/// Final fate of a single job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobFate {
    /// Completed with the given execution record.
    Completed(Execution),
    /// Rejected with the given rejection record.
    Rejected(Rejection),
}

impl JobFate {
    /// `true` for completed jobs.
    #[inline]
    pub fn is_completed(&self) -> bool {
        matches!(self, JobFate::Completed(_))
    }

    /// `true` for rejected jobs.
    #[inline]
    pub fn is_rejected(&self) -> bool {
        matches!(self, JobFate::Rejected(_))
    }

    /// The execution record, if completed.
    pub fn execution(&self) -> Option<&Execution> {
        match self {
            JobFate::Completed(e) => Some(e),
            JobFate::Rejected(_) => None,
        }
    }

    /// The rejection record, if rejected.
    pub fn rejection(&self) -> Option<&Rejection> {
        match self {
            JobFate::Completed(_) => None,
            JobFate::Rejected(r) => Some(r),
        }
    }

    /// Time at which the job left the system: completion or rejection.
    pub fn exit_time(&self) -> f64 {
        match self {
            JobFate::Completed(e) => e.completion,
            JobFate::Rejected(r) => r.time,
        }
    }
}

/// Complete record of a scheduler run over an instance.
///
/// `fates[k]` is the fate of `JobId(k)`; the log covers every job exactly
/// once (enforced by [`ScheduleLog::finish`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleLog {
    machines: usize,
    fates: Vec<Option<JobFate>>,
    redispatches: Vec<u32>,
}

impl ScheduleLog {
    /// Creates an empty log for `jobs` jobs on `machines` machines.
    pub fn new(machines: usize, jobs: usize) -> Self {
        ScheduleLog {
            machines,
            fates: vec![None; jobs],
            redispatches: vec![0; jobs],
        }
    }

    /// Extends the log to cover `jobs` jobs, appending undecided slots.
    /// Streaming producers (`osr serve`) learn the instance size as
    /// arrivals come in, so the log grows with the run instead of being
    /// sized up front. Shrinking is a no-op — fates already recorded are
    /// never dropped.
    pub fn grow(&mut self, jobs: usize) {
        if jobs > self.fates.len() {
            self.fates.resize(jobs, None);
            self.redispatches.resize(jobs, 0);
        }
    }

    /// Records that `job` was sent back to the dispatcher after its
    /// machine drained or crashed. Called once per re-dispatch, before
    /// the job's final fate is known; a job may be re-dispatched
    /// several times if the pool keeps churning underneath it.
    pub fn note_redispatch(&mut self, job: JobId) {
        self.note_redispatches(job, 1);
    }

    /// Records `count` re-dispatches of `job` in one step, as a log
    /// reader does with a row's count (one [`Self::note_redispatch`]
    /// per unit would make the count a loop bound).
    pub fn note_redispatches(&mut self, job: JobId, count: u32) {
        assert!(
            self.fates[job.idx()].is_none(),
            "job {job} already has a fate"
        );
        self.redispatches[job.idx()] += count;
    }

    /// How many times `job` has been re-dispatched so far.
    #[inline]
    pub fn redispatches(&self, job: JobId) -> u32 {
        self.redispatches[job.idx()]
    }

    /// Number of machines the log refers to.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of jobs the log covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.fates.len()
    }

    /// Whether the log covers no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fates.is_empty()
    }

    /// Records a completed execution. Panics if the job already has a fate
    /// (schedulers must decide each job exactly once).
    pub fn complete(&mut self, job: JobId, exec: Execution) {
        let slot = &mut self.fates[job.idx()];
        assert!(slot.is_none(), "job {job} already has a fate");
        *slot = Some(JobFate::Completed(exec));
    }

    /// Records a rejection. Panics if the job already has a fate.
    pub fn reject(&mut self, job: JobId, rej: Rejection) {
        let slot = &mut self.fates[job.idx()];
        assert!(slot.is_none(), "job {job} already has a fate");
        *slot = Some(JobFate::Rejected(rej));
    }

    /// Fate of a job, if decided.
    pub fn fate(&self, job: JobId) -> Option<&JobFate> {
        self.fates[job.idx()].as_ref()
    }

    /// Iterates `(JobId, &JobFate)` over decided jobs.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobFate)> {
        self.fates
            .iter()
            .enumerate()
            .filter_map(|(k, f)| f.as_ref().map(|f| (JobId(k as u32), f)))
    }

    /// All completed executions with their job ids.
    pub fn executions(&self) -> impl Iterator<Item = (JobId, &Execution)> {
        self.iter()
            .filter_map(|(id, f)| f.execution().map(|e| (id, e)))
    }

    /// All rejections with their job ids.
    pub fn rejections(&self) -> impl Iterator<Item = (JobId, &Rejection)> {
        self.iter()
            .filter_map(|(id, f)| f.rejection().map(|r| (id, r)))
    }

    /// Count of rejected jobs.
    pub fn rejected_count(&self) -> usize {
        self.rejections().count()
    }

    /// Finalizes the log, checking every job received a fate.
    pub fn finish(self) -> Result<FinishedLog, String> {
        for (k, f) in self.fates.iter().enumerate() {
            if f.is_none() {
                return Err(format!("job j{k} has no fate"));
            }
        }
        Ok(FinishedLog {
            machines: self.machines,
            fates: self.fates.into_iter().map(Option::unwrap).collect(),
            redispatches: self.redispatches,
        })
    }
}

/// A [`ScheduleLog`] in which every job has a fate.
///
/// Metric computation and validation only accept finished logs, which
/// turns "the scheduler forgot a job" into an error at the source.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedLog {
    machines: usize,
    fates: Vec<JobFate>,
    redispatches: Vec<u32>,
}

impl FinishedLog {
    /// Number of machines.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.fates.len()
    }

    /// Whether the log covers no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fates.is_empty()
    }

    /// Fate of `job`.
    #[inline]
    pub fn fate(&self, job: JobId) -> &JobFate {
        &self.fates[job.idx()]
    }

    /// Iterates `(JobId, &JobFate)`.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobFate)> {
        self.fates
            .iter()
            .enumerate()
            .map(|(k, f)| (JobId(k as u32), f))
    }

    /// All completed executions.
    pub fn executions(&self) -> impl Iterator<Item = (JobId, &Execution)> {
        self.iter()
            .filter_map(|(id, f)| f.execution().map(|e| (id, e)))
    }

    /// All rejections.
    pub fn rejections(&self) -> impl Iterator<Item = (JobId, &Rejection)> {
        self.iter()
            .filter_map(|(id, f)| f.rejection().map(|r| (id, r)))
    }

    /// Count of rejected jobs.
    pub fn rejected_count(&self) -> usize {
        self.rejections().count()
    }

    /// How many times `job` was re-dispatched after losing its machine
    /// to a drain or crash (0 in churn-free runs).
    #[inline]
    pub fn redispatches(&self, job: JobId) -> u32 {
        self.redispatches[job.idx()]
    }

    /// Total re-dispatch events across all jobs.
    pub fn total_redispatches(&self) -> u64 {
        self.redispatches.iter().map(|&r| r as u64).sum()
    }

    /// All intervals `[start, end, speed]` during which each machine was
    /// busy, including partial runs of Rule-1-rejected jobs. Sorted by
    /// machine then start. Used by the validator and the Gantt renderer.
    pub fn busy_intervals(&self) -> Vec<(MachineId, JobId, f64, f64, f64)> {
        let mut out = Vec::new();
        for (id, fate) in self.iter() {
            match fate {
                JobFate::Completed(e) => out.push((e.machine, id, e.start, e.completion, e.speed)),
                JobFate::Rejected(r) => {
                    if let Some(p) = r.partial {
                        out.push((p.machine, id, p.start, p.end, p.speed));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.total_cmp(&b.2)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(machine: u32, start: f64, completion: f64) -> Execution {
        Execution {
            machine: MachineId(machine),
            start,
            completion,
            speed: 1.0,
        }
    }

    #[test]
    fn execution_derived_quantities() {
        let e = Execution {
            machine: MachineId(0),
            start: 1.0,
            completion: 4.0,
            speed: 2.0,
        };
        assert_eq!(e.duration(), 3.0);
        assert_eq!(e.volume(), 6.0);
        assert_eq!(e.energy(3.0), 3.0 * 8.0);
    }

    #[test]
    fn log_records_fates_and_finishes() {
        let mut log = ScheduleLog::new(1, 2);
        log.complete(JobId(0), exec(0, 0.0, 2.0));
        log.reject(
            JobId(1),
            Rejection {
                time: 1.0,
                reason: RejectReason::RuleTwo,
                partial: None,
            },
        );
        assert_eq!(log.rejected_count(), 1);
        let fin = log.finish().unwrap();
        assert_eq!(fin.len(), 2);
        assert!(fin.fate(JobId(0)).is_completed());
        assert!(fin.fate(JobId(1)).is_rejected());
        assert_eq!(fin.fate(JobId(1)).exit_time(), 1.0);
    }

    #[test]
    fn grow_appends_undecided_slots() {
        let mut log = ScheduleLog::new(1, 1);
        log.complete(JobId(0), exec(0, 0.0, 1.0));
        log.grow(3);
        assert_eq!(log.len(), 3);
        assert!(log.fate(JobId(0)).is_some());
        assert!(log.fate(JobId(1)).is_none());
        log.grow(2); // shrinking is a no-op
        assert_eq!(log.len(), 3);
        log.complete(JobId(1), exec(0, 1.0, 2.0));
        log.complete(JobId(2), exec(0, 2.0, 3.0));
        assert!(log.finish().is_ok());
    }

    #[test]
    fn finish_detects_missing_fate() {
        let log = ScheduleLog::new(1, 1);
        assert!(log.finish().is_err());
    }

    #[test]
    #[should_panic(expected = "already has a fate")]
    fn double_fate_panics() {
        let mut log = ScheduleLog::new(1, 1);
        log.complete(JobId(0), exec(0, 0.0, 1.0));
        log.complete(JobId(0), exec(0, 2.0, 3.0));
    }

    #[test]
    fn busy_intervals_include_partial_runs() {
        let mut log = ScheduleLog::new(2, 2);
        log.complete(JobId(0), exec(1, 0.0, 2.0));
        log.reject(
            JobId(1),
            Rejection {
                time: 5.0,
                reason: RejectReason::RuleOne,
                partial: Some(PartialRun {
                    machine: MachineId(0),
                    start: 3.0,
                    end: 5.0,
                    speed: 1.0,
                }),
            },
        );
        let fin = log.finish().unwrap();
        let busy = fin.busy_intervals();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0].0, MachineId(0));
        assert_eq!(busy[0].2, 3.0);
        assert_eq!(busy[1].0, MachineId(1));
    }

    #[test]
    fn busy_intervals_sorted_within_machine() {
        let mut log = ScheduleLog::new(1, 3);
        log.complete(JobId(0), exec(0, 4.0, 5.0));
        log.complete(JobId(1), exec(0, 0.0, 2.0));
        log.complete(JobId(2), exec(0, 2.0, 4.0));
        let fin = log.finish().unwrap();
        let busy = fin.busy_intervals();
        let starts: Vec<f64> = busy.iter().map(|b| b.2).collect();
        assert_eq!(starts, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn reject_reason_display() {
        assert_eq!(RejectReason::RuleOne.to_string(), "rule-1");
        assert_eq!(RejectReason::RuleTwo.to_string(), "rule-2");
        assert_eq!(RejectReason::Immediate.to_string(), "immediate");
        assert_eq!(RejectReason::MachineLost.to_string(), "machine-lost");
    }

    #[test]
    fn redispatch_counts_survive_finish() {
        let mut log = ScheduleLog::new(2, 2);
        log.note_redispatch(JobId(1));
        log.note_redispatch(JobId(1));
        assert_eq!(log.redispatches(JobId(1)), 2);
        log.complete(JobId(0), exec(0, 0.0, 1.0));
        log.reject(
            JobId(1),
            Rejection {
                time: 3.0,
                reason: RejectReason::MachineLost,
                partial: None,
            },
        );
        let fin = log.finish().unwrap();
        assert_eq!(fin.redispatches(JobId(0)), 0);
        assert_eq!(fin.redispatches(JobId(1)), 2);
        assert_eq!(fin.total_redispatches(), 2);
    }

    #[test]
    #[should_panic(expected = "already has a fate")]
    fn redispatch_after_fate_panics() {
        let mut log = ScheduleLog::new(1, 1);
        log.complete(JobId(0), exec(0, 0.0, 1.0));
        log.note_redispatch(JobId(0));
    }
}
