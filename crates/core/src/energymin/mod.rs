//! §4 — online non-preemptive energy minimization with deadlines
//! (Theorem 3).
//!
//! ## Model
//!
//! Each job has a release `r_j`, a hard deadline `d_j` and
//! machine-dependent volumes `p_ij`. A *strategy* fixes a machine, a
//! start time and a constant speed `v` such that the execution
//! `[τ, τ + p_ij/v]` fits inside `[r_j, d_j]`. Jobs may overlap on a
//! machine; the machine's power is `P(Σ running speeds) = (Σ s)^α`.
//! The objective is total energy; rejections are **not** allowed here.
//!
//! ## The algorithm (configuration-LP primal-dual greedy)
//!
//! At each arrival, evaluate the marginal energy
//! `Σ_t [P(u_i(t) + v) − P(u_i(t))]` of every candidate strategy and
//! commit to the cheapest — never revisiting speed or placement later.
//! The dual variables of the configuration LP are
//!
//! ```text
//! δ_j = marginal(j)/λ,   β_{ijk} = marginal-if-strategy/λ,
//! γ_i = −(µ/λ)·f_i(A*_i)
//! ```
//!
//! whose feasibility follows from `(λ, µ)`-smoothness of `P`
//! ([`crate::smooth`]); the dual objective equals
//! `((1−µ)/λ)·ALG`, which certifies `ALG ≤ (λ/(1−µ))·OPT` — `α^α` for
//! `P(s) = s^α`.
//!
//! ## Discretization
//!
//! The paper discretizes speeds and times, losing `(1+ε)`. Here the
//! *profiles* are exact piecewise-constant functions
//! ([`profile::SpeedProfile`]); only the **candidate grid** is finite:
//!
//! * speeds: `v_min·ratio^k`, `k = 0..max_speeds`, where
//!   `v_min = p_ij/(d_j − r_j)` is the minimum feasible speed — so a
//!   feasible strategy always exists;
//! * starts: `r_j`, the latest feasible start, profile breakpoints in
//!   the window, and a uniform grid (all deduplicated).

pub mod profile;

use osr_model::{Execution, FinishedLog, Instance, InstanceKind, Job, MachineId, ScheduleLog};
use osr_sim::{DecisionEvent, DecisionTrace, OnlineScheduler};

use crate::smooth::{lambda_alpha, mu_alpha};
pub use profile::SpeedProfile;

/// Parameters of the §4 greedy.
#[derive(Debug, Clone, Copy)]
pub struct EnergyMinParams {
    /// Power exponent `α > 1`.
    pub alpha: f64,
    /// Geometric ratio of the candidate speed grid (must exceed 1).
    pub speed_ratio: f64,
    /// Number of candidate speeds per (job, machine).
    pub max_speeds: usize,
    /// Number of uniform candidate starts per (job, machine) in
    /// addition to window edges and profile breakpoints.
    pub start_grid: usize,
}

impl EnergyMinParams {
    /// Reasonable defaults: ratio 1.25, 16 speeds, 16 uniform starts.
    pub fn new(alpha: f64) -> Self {
        EnergyMinParams {
            alpha,
            speed_ratio: 1.25,
            max_speeds: 16,
            start_grid: 16,
        }
    }
}

/// A committed strategy for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Chosen machine.
    pub machine: MachineId,
    /// Start time.
    pub start: f64,
    /// Constant speed.
    pub speed: f64,
    /// Completion time.
    pub completion: f64,
    /// Marginal energy paid for this strategy (the dual `λ·δ_j`).
    pub marginal: f64,
}

/// Incremental online state: usable both by [`EnergyMinScheduler`] and
/// by the adaptive Lemma-2 adversary, which feeds jobs one at a time
/// and observes each [`Assignment`].
#[derive(Debug)]
pub struct EnergyMinOnline {
    params: EnergyMinParams,
    profiles: Vec<SpeedProfile>,
}

impl EnergyMinOnline {
    /// Fresh state for `machines` machines.
    pub fn new(params: EnergyMinParams, machines: usize) -> Result<Self, String> {
        if !(params.alpha > 1.0) || !params.alpha.is_finite() {
            return Err(format!("alpha must exceed 1, got {}", params.alpha));
        }
        if !(params.speed_ratio > 1.0) {
            return Err(format!(
                "speed_ratio must exceed 1, got {}",
                params.speed_ratio
            ));
        }
        if params.max_speeds == 0 || machines == 0 {
            return Err("need at least one speed and one machine".into());
        }
        Ok(EnergyMinOnline {
            params,
            profiles: (0..machines).map(|_| SpeedProfile::new()).collect(),
        })
    }

    /// The machine profiles accumulated so far.
    pub fn profiles(&self) -> &[SpeedProfile] {
        &self.profiles
    }

    /// Total energy of the committed schedule.
    pub fn total_energy(&self) -> f64 {
        self.profiles
            .iter()
            .map(|p| p.energy(self.params.alpha))
            .sum()
    }

    /// Greedily assigns `job` (which must carry a deadline), committing
    /// the cheapest feasible strategy. Returns the assignment.
    pub fn assign(&mut self, job: &Job) -> Assignment {
        self.try_assign(job)
            .expect("a feasible strategy always exists (v_min at r)")
    }

    /// Like [`EnergyMinOnline::assign`], but returns `None` for a job
    /// that is eligible on no machine (`p_ij = ∞` everywhere) instead
    /// of panicking; the scheduler rejects such jobs at arrival.
    pub fn try_assign(&mut self, job: &Job) -> Option<Assignment> {
        let alpha = self.params.alpha;
        let r = job.release;
        let d = job.deadline.expect("§4 jobs carry deadlines");
        let window = d - r;
        assert!(window > 0.0, "deadline before release");

        let mut best: Option<Assignment> = None;
        for (mi, p) in job.sizes.iter_finite() {
            let prof = &self.profiles[mi];
            let v_min = p / window;
            let mut v = v_min;
            for _ in 0..self.params.max_speeds {
                let dur = p / v;
                let latest = d - dur;
                // Candidate starts: window edges, uniform grid, profile
                // breakpoints inside [r, latest].
                let mut starts: Vec<f64> = vec![r, latest];
                let g = self.params.start_grid;
                for k in 1..g {
                    starts.push(r + (latest - r) * k as f64 / g as f64);
                }
                starts.extend(prof.breakpoints().filter(|&b| b >= r && b <= latest));
                starts.sort_by(f64::total_cmp);
                starts.dedup();
                for &s in &starts {
                    let marginal = prof.marginal_energy(s, s + dur, v, alpha);
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            marginal < b.marginal
                                || (marginal == b.marginal && (mi as u32) < b.machine.0)
                        }
                    };
                    if better {
                        best = Some(Assignment {
                            machine: MachineId(mi as u32),
                            start: s,
                            speed: v,
                            completion: s + dur,
                            marginal,
                        });
                    }
                }
                v *= self.params.speed_ratio;
            }
        }
        let a = best?;
        self.profiles[a.machine.idx()].add(a.start, a.completion, a.speed);
        Some(a)
    }
}

/// Full outcome of a §4 run.
#[derive(Debug)]
pub struct EnergyMinOutcome {
    /// The schedule log (every job completed; §4 forbids rejection).
    pub log: FinishedLog,
    /// Decision trail (dispatches record the winning marginal).
    pub trace: DecisionTrace,
    /// Per-job assignments in arrival order.
    pub assignments: Vec<Assignment>,
    /// Total energy `Σ_i ∫ u_i(t)^α dt` (exact, accounts for overlap).
    pub total_energy: f64,
    /// Parameters used.
    pub params: EnergyMinParams,
}

impl EnergyMinOutcome {
    /// Certified lower bound on OPT from the configuration-LP dual:
    /// `((1−µ(α))/λ(α)) · ALG` with the smoothness constants of
    /// [`crate::smooth`]. Guarantees `ALG/OPT ≤ λ/(1−µ)`.
    pub fn certified_lower_bound(&self) -> f64 {
        let alpha = self.params.alpha;
        (1.0 - mu_alpha(alpha)) / lambda_alpha(alpha) * self.total_energy
    }

    /// The dual objective `Σδ_j + Σγ_i = ((1−µ)/λ)·ALG` — equals the
    /// certified lower bound by construction (tested).
    pub fn dual_objective(&self) -> f64 {
        let alpha = self.params.alpha;
        let lam = lambda_alpha(alpha);
        let mu = mu_alpha(alpha);
        let sum_delta: f64 = self.assignments.iter().map(|a| a.marginal / lam).sum();
        let sum_gamma = -(mu / lam) * self.total_energy;
        sum_delta + sum_gamma
    }
}

/// The §4 scheduler over complete instances.
///
/// ```
/// use osr_core::energymin::{EnergyMinParams, EnergyMinScheduler};
/// use osr_model::{InstanceBuilder, InstanceKind};
///
/// let instance = InstanceBuilder::new(1, InstanceKind::Energy)
///     .deadline_job(0.0, 4.0, vec![2.0])
///     .build()
///     .unwrap();
/// let out = EnergyMinScheduler::new(EnergyMinParams::new(2.0)).unwrap().run(&instance);
/// // Alone, the job runs at its minimal feasible speed: energy 4·(0.5)² = 1.
/// assert!((out.total_energy - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMinScheduler {
    params: EnergyMinParams,
}

impl EnergyMinScheduler {
    /// Validates parameters.
    pub fn new(params: EnergyMinParams) -> Result<Self, String> {
        // Delegate validation to the online state constructor.
        EnergyMinOnline::new(params, 1)?;
        Ok(EnergyMinScheduler { params })
    }

    /// Runs the greedy over all jobs in release order.
    pub fn run(&self, instance: &Instance) -> EnergyMinOutcome {
        assert_eq!(
            instance.kind(),
            InstanceKind::Energy,
            "§4 requires deadline instances"
        );
        let mut online = EnergyMinOnline::new(self.params, instance.machines())
            .expect("params validated at construction");
        let mut log = ScheduleLog::new(instance.machines(), instance.len());
        let mut trace = DecisionTrace::new();
        let mut assignments = Vec::with_capacity(instance.len());

        for job in instance.jobs() {
            let Some(a) = online.try_assign(job) else {
                // Eligible nowhere: drop the job instead of aborting.
                // (§4 forbids rejections, so validation of such a log
                // will flag it — but the run completes and reports.)
                osr_sim::reject_ineligible(&mut log, &mut trace, job.id, job.release);
                continue;
            };
            trace.push(DecisionEvent::Dispatch {
                time: job.release,
                job: job.id,
                machine: a.machine,
                lambda: a.marginal,
                candidates: instance.machines(),
            });
            log.complete(
                job.id,
                Execution {
                    machine: a.machine,
                    start: a.start,
                    completion: a.completion,
                    speed: a.speed,
                },
            );
            assignments.push(a);
        }

        let total_energy = online.total_energy();
        EnergyMinOutcome {
            log: log.finish().expect("all jobs assigned"),
            trace,
            assignments,
            total_energy,
            params: self.params,
        }
    }
}

impl OnlineScheduler for EnergyMinScheduler {
    fn name(&self) -> String {
        format!(
            "spaa18-energymin(alpha={}, speeds={}, starts={})",
            self.params.alpha, self.params.max_speeds, self.params.start_grid
        )
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).log
    }
}

/// Per-job minimal-energy lower bound: job `j` alone must spend at
/// least `p·(p/(d−r))^{α−1}` (constant minimal feasible speed on its
/// cheapest machine; convexity makes constant speed optimal).
/// Summing is a valid lower bound because `(Σs)^α ≥ Σ s^α`.
pub fn per_job_energy_lower_bound(instance: &Instance, alpha: f64) -> f64 {
    instance
        .jobs()
        .iter()
        .map(|j| {
            let d = j.deadline.expect("energy instance");
            let window = d - j.release;
            // Cheapest machine by alone-energy (volume matters more on
            // fast machines: energy = p·(p/window)^{α−1}, minimized by
            // the smallest p).
            let p = j.min_size();
            p * (p / window).powf(alpha - 1.0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, InstanceKind, JobId};
    use osr_sim::{validate_log, ValidationConfig};

    fn assert_valid(inst: &Instance, out: &EnergyMinOutcome) {
        let rep = validate_log(inst, &out.log, &ValidationConfig::energy());
        assert!(rep.is_valid(), "invalid: {:?}", rep.errors);
    }

    fn deadline_instance(n: usize, m: usize, seed: u64, slack: f64) -> Instance {
        let mut b = InstanceBuilder::new(m, InstanceKind::Energy);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = 0.0;
        for _ in 0..n {
            t += (next() % 100) as f64 / 25.0;
            let p = 0.5 + (next() % 20) as f64 / 4.0;
            let sizes: Vec<f64> = (0..m)
                .map(|_| p * (1.0 + (next() % 3) as f64 * 0.5))
                .collect();
            let window = p * slack * (1.0 + (next() % 4) as f64 / 4.0);
            b = b.deadline_job(t, t + window, sizes);
        }
        b.build().unwrap()
    }

    #[test]
    fn single_job_runs_at_min_feasible_speed() {
        // Alone, the cheapest strategy is the slowest feasible speed
        // over the full window (convexity).
        let inst = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.0, 4.0, vec![2.0])
            .build()
            .unwrap();
        let out = EnergyMinScheduler::new(EnergyMinParams::new(2.0))
            .unwrap()
            .run(&inst);
        assert_valid(&inst, &out);
        let e = out.log.fate(JobId(0)).execution().unwrap();
        assert!((e.speed - 0.5).abs() < 1e-9, "speed {}", e.speed);
        // Energy = 4·(0.5)² = 1.
        assert!((out.total_energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deadlines_always_met() {
        for slack in [1.05, 1.5, 3.0] {
            let inst = deadline_instance(60, 2, 77, slack);
            let out = EnergyMinScheduler::new(EnergyMinParams::new(2.0))
                .unwrap()
                .run(&inst);
            assert_valid(&inst, &out);
        }
    }

    #[test]
    fn two_identical_wide_jobs_cost_the_offline_optimum() {
        // Two unit jobs, window [0, 10]: any schedule with constant
        // *total* speed 0.2 (overlapped at 0.1+0.1 or back-to-back at
        // 0.2) achieves the offline optimum 10·0.2^α. The greedy must
        // match it — the energy objective cannot tell the layouts apart.
        let alpha = 3.0;
        let inst = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.0, 10.0, vec![1.0])
            .deadline_job(0.0, 10.0, vec![1.0])
            .build()
            .unwrap();
        let out = EnergyMinScheduler::new(EnergyMinParams::new(alpha))
            .unwrap()
            .run(&inst);
        assert_valid(&inst, &out);
        let opt = 10.0 * 0.2f64.powf(alpha);
        assert!(
            out.total_energy <= opt * 1.05 + 1e-12,
            "greedy energy {} vs offline optimum {opt}",
            out.total_energy
        );
    }

    #[test]
    fn two_machines_split_parallel_pressure() {
        let inst = InstanceBuilder::new(2, InstanceKind::Energy)
            .deadline_job(0.0, 1.0, vec![1.0, 1.0])
            .deadline_job(0.0, 1.0, vec![1.0, 1.0])
            .build()
            .unwrap();
        let out = EnergyMinScheduler::new(EnergyMinParams::new(2.0))
            .unwrap()
            .run(&inst);
        assert_valid(&inst, &out);
        let e0 = out.log.fate(JobId(0)).execution().unwrap();
        let e1 = out.log.fate(JobId(1)).execution().unwrap();
        assert_ne!(e0.machine, e1.machine, "tight jobs must use both machines");
    }

    #[test]
    fn total_energy_matches_profile_integral() {
        let inst = deadline_instance(40, 2, 5, 2.0);
        let out = EnergyMinScheduler::new(EnergyMinParams::new(2.5))
            .unwrap()
            .run(&inst);
        // Recompute energy from scratch profiles.
        let mut profs: Vec<SpeedProfile> =
            (0..inst.machines()).map(|_| SpeedProfile::new()).collect();
        for (_, e) in out.log.executions() {
            profs[e.machine.idx()].add(e.start, e.completion, e.speed);
        }
        let recomputed: f64 = profs.iter().map(|p| p.energy(2.5)).sum();
        assert!((recomputed - out.total_energy).abs() < 1e-6 * (1.0 + recomputed));
    }

    #[test]
    fn dual_objective_equals_certified_lower_bound_identity() {
        // Σδ_j = ALG/λ only when marginals telescope to the final
        // energy, which holds exactly because strategies never change:
        // Σ marginal_j = E_final. Hence dual = ((1−µ)/λ)·ALG.
        let inst = deadline_instance(50, 2, 13, 1.8);
        let out = EnergyMinScheduler::new(EnergyMinParams::new(2.0))
            .unwrap()
            .run(&inst);
        let marg_sum: f64 = out.assignments.iter().map(|a| a.marginal).sum();
        assert!(
            (marg_sum - out.total_energy).abs() < 1e-6 * (1.0 + out.total_energy),
            "marginals {marg_sum} must telescope to energy {}",
            out.total_energy
        );
        assert!(
            (out.dual_objective() - out.certified_lower_bound()).abs()
                < 1e-6 * (1.0 + out.certified_lower_bound())
        );
    }

    #[test]
    fn competitive_vs_per_job_bound_within_alpha_alpha_on_easy_instances() {
        // On generously slack instances the greedy should be close to
        // the per-job bound, certainly within α^α.
        let inst = deadline_instance(40, 2, 23, 4.0);
        let alpha = 2.0;
        let out = EnergyMinScheduler::new(EnergyMinParams::new(alpha))
            .unwrap()
            .run(&inst);
        let lb = per_job_energy_lower_bound(&inst, alpha);
        assert!(lb > 0.0);
        let ratio = out.total_energy / lb;
        // The theorem allows α^α = 4; discretization adds slack. Assert
        // a loose factor to keep the test robust.
        assert!(ratio < 8.0, "ratio {ratio} unexpectedly large");
    }

    #[test]
    fn marginal_recorded_matches_assignment() {
        let inst = deadline_instance(20, 1, 3, 2.0);
        let out = EnergyMinScheduler::new(EnergyMinParams::new(2.0))
            .unwrap()
            .run(&inst);
        for a in &out.assignments {
            assert!(a.marginal >= 0.0);
            assert!(a.completion > a.start);
            assert!(a.speed > 0.0);
        }
    }

    #[test]
    fn online_interface_for_adversaries() {
        let mut online = EnergyMinOnline::new(EnergyMinParams::new(2.0), 1).unwrap();
        let j0 = Job::with_deadline(0, 0.0, 8.0, vec![2.0]);
        let a0 = online.assign(&j0);
        assert!(a0.completion <= 8.0 + 1e-9);
        // Adversary reacts to a0: next job inside [S+1, C].
        let r1 = a0.start + 1.0;
        let d1 = a0.completion.max(r1 + 1.1);
        let j1 = Job::with_deadline(1, r1, d1, vec![(d1 - r1) / 3.0]);
        let a1 = online.assign(&j1);
        assert!(a1.start >= r1 - 1e-9);
        assert!(a1.completion <= d1 + 1e-9);
        assert!(online.total_energy() > 0.0);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(EnergyMinScheduler::new(EnergyMinParams {
            alpha: 1.0,
            speed_ratio: 1.25,
            max_speeds: 8,
            start_grid: 8
        })
        .is_err());
        assert!(EnergyMinScheduler::new(EnergyMinParams {
            alpha: 2.0,
            speed_ratio: 1.0,
            max_speeds: 8,
            start_grid: 8
        })
        .is_err());
        assert!(EnergyMinScheduler::new(EnergyMinParams {
            alpha: 2.0,
            speed_ratio: 1.25,
            max_speeds: 0,
            start_grid: 8
        })
        .is_err());
    }

    #[test]
    fn per_job_bound_formula() {
        let inst = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.0, 4.0, vec![2.0])
            .build()
            .unwrap();
        // p=2, window=4 → 2·(0.5)^{α−1}; α=3 → 2·0.25 = 0.5.
        assert!((per_job_energy_lower_bound(&inst, 3.0) - 0.5).abs() < 1e-12);
    }
}
