//! Problem instances: a machine count plus a release-ordered job list.

use crate::error::ModelError;
use crate::job::{Job, JobId, MachineId, SizeRow};

/// Which of the paper's three problems an instance is intended for.
///
/// The kinds only differ in which job fields are meaningful; the data
/// layout is shared. Validation is stricter for [`InstanceKind::Energy`]
/// (deadlines required).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceKind {
    /// §2 — total flow-time; `sizes` are processing times, weights ignored.
    FlowTime,
    /// §3 — weighted flow-time plus energy; `sizes` are volumes.
    FlowEnergy,
    /// §4 — energy with deadlines; `sizes` are volumes, deadlines required.
    Energy,
}

impl std::fmt::Display for InstanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceKind::FlowTime => write!(f, "flow-time"),
            InstanceKind::FlowEnergy => write!(f, "flow+energy"),
            InstanceKind::Energy => write!(f, "energy"),
        }
    }
}

/// An online scheduling instance.
///
/// Invariants (enforced by [`InstanceBuilder::build`] and
/// [`Instance::validate`]):
///
/// * `jobs[k].id == JobId(k)` — ids are dense indices;
/// * jobs are sorted by non-decreasing release time (the online arrival
///   order; ties keep id order so reruns are deterministic);
/// * every job is structurally valid for `machines` machines.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    machines: usize,
    jobs: Vec<Job>,
    kind: InstanceKind,
}

impl Instance {
    /// Builds an instance from parts, validating all invariants.
    pub fn new(machines: usize, jobs: Vec<Job>, kind: InstanceKind) -> Result<Self, ModelError> {
        let inst = Instance {
            machines,
            jobs,
            kind,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Number of machines `m`.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Machine ids `0..m`.
    pub fn machine_ids(&self) -> impl Iterator<Item = MachineId> {
        (0..self.machines as u32).map(MachineId)
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the instance has no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Jobs in release order.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The job with the given id.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.idx()]
    }

    /// Problem kind this instance was built for.
    #[inline]
    pub fn kind(&self) -> InstanceKind {
        self.kind
    }

    /// Total weight `Σ_j w_j`.
    pub fn total_weight(&self) -> f64 {
        self.jobs.iter().map(|j| j.weight).sum()
    }

    /// Sum over jobs of the smallest size `Σ_j min_i p_ij` — a trivial
    /// lower bound on total flow-time (§2 workloads). Jobs eligible on
    /// no machine contribute nothing: they cannot be served by any
    /// schedule (every scheduler rejects them at arrival for zero
    /// flow), so summing their infinite `min_size` would poison the
    /// bound.
    pub fn total_min_size(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.min_size())
            .filter(|p| p.is_finite())
            .sum()
    }

    /// Ratio `Δ` of the largest to the smallest finite size in the
    /// instance (the parameter in Lemma 1).
    pub fn size_ratio(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for j in &self.jobs {
            for (_, p) in j.sizes.iter_finite() {
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        if lo.is_finite() && lo > 0.0 {
            hi / lo
        } else {
            f64::NAN
        }
    }

    /// Latest deadline, or latest release if no deadlines — an upper
    /// bound for time-horizon discretization (§4).
    pub fn horizon(&self) -> f64 {
        let mut h = 0.0f64;
        for j in &self.jobs {
            h = h.max(j.deadline.unwrap_or(j.release));
        }
        h
    }

    /// Checks all structural invariants; see type-level docs.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.machines == 0 {
            return Err(ModelError::Invalid("instance has zero machines".into()));
        }
        let mut prev_release = 0.0f64;
        for (k, job) in self.jobs.iter().enumerate() {
            if job.id.idx() != k {
                return Err(ModelError::Invalid(format!(
                    "job at index {k} has id {} (ids must be dense)",
                    job.id
                )));
            }
            job.validate(self.machines).map_err(ModelError::Invalid)?;
            if job.release < prev_release {
                return Err(ModelError::Invalid(format!(
                    "jobs not sorted by release: {} at {} after {}",
                    job.id, job.release, prev_release
                )));
            }
            prev_release = job.release;
            if self.kind == InstanceKind::Energy && job.deadline.is_none() {
                return Err(ModelError::Invalid(format!(
                    "{}: energy instances require deadlines",
                    job.id
                )));
            }
        }
        Ok(())
    }
}

/// Incremental builder that assigns dense ids and sorts by release.
///
/// ```
/// use osr_model::{InstanceBuilder, InstanceKind};
/// let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
///     .job(3.0, vec![1.0, 2.0])
///     .job(0.0, vec![4.0, 1.0])
///     .build()
///     .unwrap();
/// assert_eq!(inst.len(), 2);
/// // Sorted by release; ids re-assigned densely in arrival order.
/// assert_eq!(inst.jobs()[0].release, 0.0);
/// assert_eq!(inst.jobs()[0].id.idx(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    machines: usize,
    kind: InstanceKind,
    // (release, weight, deadline, sizes); ids assigned at build time.
    pending: Vec<(f64, f64, Option<f64>, SizeRow)>,
}

impl InstanceBuilder {
    /// Starts a builder for `machines` machines.
    pub fn new(machines: usize, kind: InstanceKind) -> Self {
        InstanceBuilder {
            machines,
            kind,
            pending: Vec::new(),
        }
    }

    /// Adds an unweighted, deadline-free job.
    pub fn job(mut self, release: f64, sizes: impl Into<SizeRow>) -> Self {
        self.pending.push((release, 1.0, None, sizes.into()));
        self
    }

    /// Adds a weighted job.
    pub fn weighted_job(mut self, release: f64, weight: f64, sizes: impl Into<SizeRow>) -> Self {
        self.pending.push((release, weight, None, sizes.into()));
        self
    }

    /// Adds a job with a deadline.
    pub fn deadline_job(mut self, release: f64, deadline: f64, sizes: impl Into<SizeRow>) -> Self {
        self.pending
            .push((release, 1.0, Some(deadline), sizes.into()));
        self
    }

    /// Adds a job with every field explicit.
    pub fn full_job(
        mut self,
        release: f64,
        weight: f64,
        deadline: Option<f64>,
        sizes: impl Into<SizeRow>,
    ) -> Self {
        self.pending.push((release, weight, deadline, sizes.into()));
        self
    }

    /// Number of jobs added so far.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no jobs were added.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Sorts by release (stable), assigns dense ids, validates.
    pub fn build(mut self) -> Result<Instance, ModelError> {
        self.pending.sort_by(|a, b| a.0.total_cmp(&b.0));
        let jobs = self
            .pending
            .into_iter()
            .enumerate()
            .map(|(k, (release, weight, deadline, sizes))| {
                Job::full(k as u32, release, weight, deadline, sizes)
            })
            .collect();
        Instance::new(self.machines, jobs, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Instance {
        InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![2.0, 5.0])
            .job(1.0, vec![3.0, 1.0])
            .job(1.0, vec![4.0, 4.0])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_sorts_and_assigns_dense_ids() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(5.0, vec![1.0])
            .job(0.0, vec![1.0])
            .job(2.0, vec![1.0])
            .build()
            .unwrap();
        let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
        assert_eq!(releases, vec![0.0, 2.0, 5.0]);
        for (k, j) in inst.jobs().iter().enumerate() {
            assert_eq!(j.id.idx(), k);
        }
    }

    #[test]
    fn validation_refuses_a_release_that_absorbs_the_cheapest_size() {
        let build = |release: f64, sizes: Vec<f64>| {
            InstanceBuilder::new(2, InstanceKind::FlowTime)
                .job(0.5, vec![1.0, 2.0])
                .job(release, sizes)
                .build()
        };
        let err = build(1e300, vec![1.0, 1.0]).unwrap_err().to_string();
        assert!(err.contains("j1: release 1e300 absorbs"), "{err}");
        // The check reads the cheapest finite size, so one large size
        // does not excuse a small one, and an ineligible row passes.
        assert!(build(1e300, vec![1e290, 1.0]).is_err());
        assert!(build(1e300, vec![1e290, f64::INFINITY]).is_ok());
        assert!(build(1e300, vec![f64::INFINITY; 2]).is_ok());
    }

    #[test]
    fn builder_sort_is_stable_for_ties() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(1.0, vec![10.0])
            .job(1.0, vec![20.0])
            .build()
            .unwrap();
        assert_eq!(inst.jobs()[0].sizes[0], 10.0);
        assert_eq!(inst.jobs()[1].sizes[0], 20.0);
    }

    #[test]
    fn aggregates() {
        let inst = toy();
        assert_eq!(inst.machines(), 2);
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.total_weight(), 3.0);
        assert_eq!(inst.total_min_size(), 2.0 + 1.0 + 4.0);
        assert_eq!(inst.size_ratio(), 5.0);
    }

    #[test]
    fn zero_machines_rejected() {
        assert!(InstanceBuilder::new(0, InstanceKind::FlowTime)
            .build()
            .is_err());
    }

    #[test]
    fn energy_kind_requires_deadlines() {
        let err = InstanceBuilder::new(1, InstanceKind::Energy)
            .job(0.0, vec![1.0])
            .build();
        assert!(err.is_err());
        let ok = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.0, 4.0, vec![1.0])
            .build();
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().horizon(), 4.0);
    }

    #[test]
    fn unsorted_direct_construction_rejected() {
        let jobs = vec![Job::new(0, 5.0, vec![1.0]), Job::new(1, 0.0, vec![1.0])];
        assert!(Instance::new(1, jobs, InstanceKind::FlowTime).is_err());
    }

    #[test]
    fn non_dense_ids_rejected() {
        let jobs = vec![Job::new(3, 0.0, vec![1.0])];
        assert!(Instance::new(1, jobs, InstanceKind::FlowTime).is_err());
    }

    #[test]
    fn machine_ids_iterates_all() {
        let ids: Vec<MachineId> = toy().machine_ids().collect();
        assert_eq!(ids, vec![MachineId(0), MachineId(1)]);
    }
}
