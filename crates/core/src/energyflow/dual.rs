//! Sampled dual-feasibility audit for §3 (Lemma 6).
//!
//! The §3 analysis defines, for every machine `i` and time `t`,
//!
//! ```text
//! u_i(t) = ( ε / (γ(1+ε)(α−1)) )^{1/(α−1)} · V_i(t)^{1/α}
//! ```
//!
//! where `V_i(t)` is the total *fractional weight*
//! `Σ_ℓ w_ℓ·q_iℓ(t)/p_iℓ` of jobs dispatched to `i` that are not yet
//! definitively finished, and claims (Lemma 6) that the dual constraint
//!
//! ```text
//! λ_j / p_ij ≤ δ_ij(t − r_j + p_ij) + α·u_i(t)^{α−1}
//!              + α/(γ(α−1)) · w_j^{(α−1)/α}
//! ```
//!
//! holds for every `i, j, t ≥ r_j`. Unlike the §2 constraint, the right
//! side is not piecewise linear in `t` (the `u_i(t)^{α−1}` term moves
//! with remaining volumes), so this audit *samples* rather than checks
//! breakpoints exactly: a dense grid per job plus every exit event on
//! the machine. EXP-DUAL reports the number of samples and the minimum
//! margin.

use osr_model::{Instance, JobFate};

use super::EnergyFlowOutcome;

/// One violated sample.
#[derive(Debug, Clone, Copy)]
pub struct EnergyFlowViolation {
    /// Job of the constraint.
    pub job: u32,
    /// Machine of the constraint.
    pub machine: u32,
    /// Sample time.
    pub t: f64,
    /// Negative slack.
    pub margin: f64,
}

/// Audit result.
#[derive(Debug, Clone)]
pub struct EnergyFlowAudit {
    /// Number of `(j, i, t)` samples evaluated.
    pub samples_checked: usize,
    /// Violations found (empty expected).
    pub violations: Vec<EnergyFlowViolation>,
    /// Minimum slack across samples.
    pub min_margin: f64,
}

impl EnergyFlowAudit {
    /// Whether every sampled constraint held.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Remaining volume `q_iℓ(t)` of job `ℓ` (dispatched to its machine) at
/// time `t`, given its record and the full size `p`.
fn remaining_volume(t: f64, p: f64, start: f64, speed: f64, exit: f64, completed: bool) -> f64 {
    if start.is_nan() || t < start {
        // Not yet started (or never started before rejection).
        p
    } else if t < exit {
        (p - speed * (t - start)).max(0.0)
    } else if completed {
        0.0
    } else {
        // Rejected mid-run: remaining volume freezes at the rejection.
        (p - speed * (exit - start)).max(0.0)
    }
}

/// Fractional weight `V_i(t)` on machine `mi`.
fn v_i(instance: &Instance, out: &EnergyFlowOutcome, mi: u32, t: f64) -> f64 {
    let mut v = 0.0;
    for (idx, rec) in out.records.iter().enumerate() {
        if rec.machine != mi {
            continue;
        }
        let job = &instance.jobs()[idx];
        if t < job.release || t >= rec.def_finish {
            continue;
        }
        let p = job.sizes[mi as usize];
        let completed = matches!(out.log.fate(job.id), JobFate::Completed(_));
        let q = remaining_volume(t, p, rec.start, rec.speed, rec.exit, completed);
        v += job.weight * q / p;
    }
    v
}

/// Samples the Lemma 6 constraint; see module docs.
///
/// `max_jobs` caps audited jobs, `grid` sets the per-job number of
/// uniform samples over `[r_j, horizon]` (exit events on the machine
/// are always included).
pub fn check_energyflow_dual(
    instance: &Instance,
    out: &EnergyFlowOutcome,
    max_jobs: usize,
    grid: usize,
) -> EnergyFlowAudit {
    let alpha = out.params.alpha;
    let gamma = out.gamma;
    let eps = out.params.eps;
    let m = instance.machines();
    let n = instance.len().min(max_jobs);

    let horizon = out
        .records
        .iter()
        .map(|r| r.def_finish)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let u_coef = (eps / (gamma * (1.0 + eps) * (alpha - 1.0))).powf(1.0 / (alpha - 1.0));
    let w_coef = alpha / (gamma * (alpha - 1.0));

    // Exit events per machine (sample points where V_i may kink).
    let mut exits: Vec<Vec<f64>> = vec![Vec::new(); m];
    for rec in &out.records {
        if rec.machine != u32::MAX {
            exits[rec.machine as usize].push(rec.exit);
            exits[rec.machine as usize].push(rec.def_finish);
        }
    }

    let mut audit = EnergyFlowAudit {
        samples_checked: 0,
        violations: Vec::new(),
        min_margin: f64::INFINITY,
    };

    for jx in 0..n {
        let job = &instance.jobs()[jx];
        let rj = job.release;
        let lam = out.records[jx].lambda;
        for (mi, p) in job.sizes.iter_finite() {
            let delta = job.weight / p;
            let mut times: Vec<f64> = (0..=grid)
                .map(|k| rj + (horizon - rj) * k as f64 / grid as f64)
                .collect();
            times.extend(exits[mi].iter().copied().filter(|&t| t >= rj));
            for t in times {
                let v = v_i(instance, out, mi as u32, t);
                let u = u_coef * v.powf(1.0 / alpha);
                let rhs = delta * (t - rj + p)
                    + alpha * u.powf(alpha - 1.0)
                    + w_coef * job.weight.powf((alpha - 1.0) / alpha);
                let margin = rhs - lam / p;
                audit.samples_checked += 1;
                if margin < audit.min_margin {
                    audit.min_margin = margin;
                }
                if margin < -1e-7 * (1.0 + rhs.abs()) {
                    audit.violations.push(EnergyFlowViolation {
                        job: jx as u32,
                        machine: mi as u32,
                        t,
                        margin,
                    });
                }
            }
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energyflow::{EnergyFlowParams, EnergyFlowScheduler};
    use osr_model::{InstanceBuilder, InstanceKind};

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
            let w = 1.0 + (next() % 5) as f64;
            let sizes: Vec<f64> = (0..m).map(|_| 0.5 + (next() % 20) as f64 / 2.0).collect();
            b = b.weighted_job(t, w, sizes);
        }
        b.build().unwrap()
    }

    #[test]
    fn dual_feasible_on_random_instances() {
        for seed in [2u64, 11] {
            let inst = weighted_instance(60, 2, seed);
            for &(eps, alpha) in &[(0.3, 2.0), (0.5, 3.0)] {
                let out = EnergyFlowScheduler::new(EnergyFlowParams::new(eps, alpha))
                    .unwrap()
                    .run(&inst);
                let audit = check_energyflow_dual(&inst, &out, usize::MAX, 40);
                assert!(
                    audit.is_feasible(),
                    "seed={seed} eps={eps} alpha={alpha}: {:?}",
                    audit.violations.first()
                );
                assert!(audit.samples_checked > 0);
            }
        }
    }

    #[test]
    fn remaining_volume_profile() {
        // p=10, started at t=2 with speed 2, completes at t=7.
        let q = |t: f64| remaining_volume(t, 10.0, 2.0, 2.0, 7.0, true);
        assert_eq!(q(0.0), 10.0);
        assert_eq!(q(2.0), 10.0);
        assert_eq!(q(4.5), 5.0);
        assert_eq!(q(7.0), 0.0);
        assert_eq!(q(9.0), 0.0);
    }

    #[test]
    fn remaining_volume_freezes_on_rejection() {
        // Rejected at t=4 after starting at 2 with speed 2: 6 remains.
        let q = |t: f64| remaining_volume(t, 10.0, 2.0, 2.0, 4.0, false);
        assert_eq!(q(5.0), 6.0);
        assert_eq!(q(100.0), 6.0);
    }

    #[test]
    fn audit_detects_corrupted_lambda() {
        let inst = weighted_instance(30, 2, 5);
        let mut out = EnergyFlowScheduler::new(EnergyFlowParams::new(0.3, 2.0))
            .unwrap()
            .run(&inst);
        out.records[0].lambda += 1e9;
        let audit = check_energyflow_dual(&inst, &out, usize::MAX, 10);
        assert!(!audit.is_feasible());
    }

    #[test]
    fn v_i_is_zero_far_in_the_future() {
        let inst = weighted_instance(20, 1, 9);
        let out = EnergyFlowScheduler::new(EnergyFlowParams::new(0.3, 2.0))
            .unwrap()
            .run(&inst);
        let horizon = out
            .records
            .iter()
            .map(|r| r.def_finish)
            .fold(0.0f64, f64::max);
        assert_eq!(v_i(&inst, &out, 0, horizon + 1.0), 0.0);
    }
}
