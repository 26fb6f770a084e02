//! Dual-variable accounting for §2 and the runtime feasibility audit
//! (Lemma 4).
//!
//! The analysis assigns:
//!
//! * `λ_j = ε/(1+ε) · min_i λ_ij` at each arrival (never changed);
//! * `β_i(t) = ε/(1+ε)² · (|U_i(t)| + |V_i(t)|)` where `U_i` is the
//!   pending set and `V_i` holds jobs that exited (completed or
//!   rejected) but are not yet *definitively finished* at their `C̃_j`.
//!
//! A job contributes to `|U_i(t)| + |V_i(t)|` exactly on `[r_j, C̃_j)`,
//! so the per-machine count is reconstructible from the per-job triple
//! `(r_j, machine, C̃_j)` — no time-stepped simulation needed.
//!
//! **Why this matters:** by weak LP duality, any feasible dual solution
//! lower-bounds the LP optimum, and the paper's LP is within a factor 2
//! of the optimal non-preemptive schedule. So
//!
//! ```text
//! OPT ≥ (Σ_j λ_j − Σ_i ∫ β_i(t) dt) / 2
//! ```
//!
//! whenever the dual is feasible — which [`check_dual_feasibility`]
//! verifies constraint-by-constraint. Every competitive ratio reported
//! by the experiment harness uses this certified denominator.

use osr_model::Instance;

use crate::epsilon::Thresholds;

/// The dual solution built during a §2 run.
#[derive(Debug, Clone)]
pub struct FlowDual {
    /// `ε` and derived scales.
    pub thresholds: Thresholds,
    /// `λ_j` per job (already scaled by `ε/(1+ε)`).
    pub lambda: Vec<f64>,
    /// Release times `r_j` (copied for self-containedness).
    pub release: Vec<f64>,
    /// Exit times `C_j` (completion or rejection).
    pub exit: Vec<f64>,
    /// Definitive-finish times `C̃_j ≥ C_j`.
    pub c_tilde: Vec<f64>,
    /// Machine each job was dispatched to.
    pub machine_of: Vec<u32>,
}

impl FlowDual {
    /// Assembles the record (called by the scheduler at end of run).
    pub fn assemble(
        thresholds: Thresholds,
        lambda: Vec<f64>,
        release: Vec<f64>,
        exit: Vec<f64>,
        c_tilde: Vec<f64>,
        machine_of: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(lambda.len(), release.len());
        debug_assert_eq!(lambda.len(), exit.len());
        debug_assert_eq!(lambda.len(), c_tilde.len());
        debug_assert_eq!(lambda.len(), machine_of.len());
        FlowDual {
            thresholds,
            lambda,
            release,
            exit,
            c_tilde,
            machine_of,
        }
    }

    /// `Σ_j λ_j`.
    pub fn sum_lambda(&self) -> f64 {
        self.lambda.iter().sum()
    }

    /// `Σ_i ∫ β_i(t) dt = ε/(1+ε)² · Σ_j (C̃_j − r_j)`.
    pub fn beta_integral(&self) -> f64 {
        let span: f64 = self
            .c_tilde
            .iter()
            .zip(&self.release)
            .map(|(ct, r)| ct - r)
            .sum();
        self.thresholds.beta_scale() * span
    }

    /// Dual objective `Σλ_j − Σ∫β_i`.
    pub fn objective(&self) -> f64 {
        self.sum_lambda() - self.beta_integral()
    }

    /// Certified lower bound on the optimal non-preemptive total
    /// flow-time: `max(objective/2, Σ_j min_i p_ij)` would require the
    /// instance; this returns `max(objective/2, 0)` — callers combine
    /// it with instance-level trivial bounds via
    /// `osr_baselines::lower_bounds`.
    pub fn opt_lower_bound(&self) -> f64 {
        (self.objective() / 2.0).max(0.0)
    }

    /// Number of jobs covered.
    pub fn len(&self) -> usize {
        self.lambda.len()
    }

    /// Whether the record is empty.
    pub fn is_empty(&self) -> bool {
        self.lambda.is_empty()
    }
}

/// One violated dual constraint found by the audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualViolation {
    /// Job index of the constraint.
    pub job: u32,
    /// Machine index of the constraint.
    pub machine: u32,
    /// Time at which it is violated.
    pub t: f64,
    /// By how much (negative slack).
    pub margin: f64,
}

/// Result of auditing the dual constraints.
#[derive(Debug, Clone)]
pub struct DualAudit {
    /// Number of `(j, i, t)` constraint evaluations performed.
    pub constraints_checked: usize,
    /// All violations (empty ⇒ dual certified feasible).
    pub violations: Vec<DualViolation>,
    /// Smallest slack seen (how tight Lemma 4 is in practice).
    pub min_margin: f64,
}

impl DualAudit {
    /// Whether every checked constraint held.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively audits the dual constraint of §2,
///
/// ```text
/// λ_j / p_ij − β_i(t) ≤ (t − r_j)/p_ij + 1     ∀ i, j, t ≥ r_j,
/// ```
///
/// at every point where it could first fail: `t = r_j` and every
/// downward step of `β_i` (the right side grows linearly inside each
/// step interval, so interval left edges are the worst cases — the
/// check is exact, not sampled).
///
/// `max_jobs` caps the number of (smallest-index) jobs audited to keep
/// the `O(n·m·n)` cost manageable in experiments.
pub fn check_dual_feasibility(instance: &Instance, dual: &FlowDual, max_jobs: usize) -> DualAudit {
    let m = instance.machines();
    let n = dual.len().min(max_jobs);
    let beta_scale = dual.thresholds.beta_scale();

    // Per-machine β step function: +1 at r_j, −1 at C̃_j for each job
    // dispatched there. Sorted event lists of (time, delta). Jobs that
    // were never dispatched (ineligible everywhere, machine sentinel
    // `u32::MAX`) carry λ_j = 0 and contribute to no machine's β.
    let mut events: Vec<Vec<(f64, i64)>> = vec![Vec::new(); m];
    for j in 0..dual.len() {
        let mi = dual.machine_of[j] as usize;
        if mi >= m {
            continue;
        }
        events[mi].push((dual.release[j], 1));
        events[mi].push((dual.c_tilde[j], -1));
    }
    for ev in &mut events {
        ev.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    // Collapse to (time, count-after) breakpoints.
    let mut steps: Vec<Vec<(f64, i64)>> = Vec::with_capacity(m);
    for ev in &events {
        let mut acc = 0i64;
        let mut out: Vec<(f64, i64)> = Vec::with_capacity(ev.len());
        for &(t, d) in ev {
            acc += d;
            if let Some(last) = out.last_mut() {
                if last.0 == t {
                    last.1 = acc;
                    continue;
                }
            }
            out.push((t, acc));
        }
        steps.push(out);
    }

    let count_at = |mi: usize, t: f64| -> i64 {
        let s = &steps[mi];
        let pos = s.partition_point(|&(et, _)| et <= t);
        if pos == 0 {
            0
        } else {
            s[pos - 1].1
        }
    };

    let mut audit = DualAudit {
        constraints_checked: 0,
        violations: Vec::new(),
        min_margin: f64::INFINITY,
    };

    for j in 0..n {
        let job = instance.job(osr_model::JobId(j as u32));
        let rj = dual.release[j];
        let lam = dual.lambda[j];
        for (mi, p) in job.sizes.iter_finite() {
            // Candidate worst times: r_j itself plus every β breakpoint
            // at or after r_j on this machine.
            let s = &steps[mi];
            let from = s.partition_point(|&(et, _)| et < rj);
            let candidates = std::iter::once(rj).chain(s[from..].iter().map(|&(t, _)| t));
            for t in candidates {
                let beta = beta_scale * count_at(mi, t) as f64;
                let margin = (t - rj) / p + 1.0 + beta - lam / p;
                audit.constraints_checked += 1;
                if margin < audit.min_margin {
                    audit.min_margin = margin;
                }
                if margin < -1e-7 {
                    audit.violations.push(DualViolation {
                        job: j as u32,
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
    use crate::flowtime::{FlowParams, FlowScheduler};
    use osr_model::{InstanceBuilder, InstanceKind};

    fn random_ish_instance(n: usize, m: usize, seed: u64) -> Instance {
        let mut b = InstanceBuilder::new(m, InstanceKind::FlowTime);
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = 0.0;
        for _ in 0..n {
            t += (next() % 100) as f64 / 50.0;
            let sizes: Vec<f64> = (0..m).map(|_| 0.5 + (next() % 40) as f64 / 4.0).collect();
            b = b.job(t, sizes);
        }
        b.build().unwrap()
    }

    #[test]
    fn dual_is_feasible_on_random_instances() {
        for seed in [1u64, 7, 42] {
            let inst = random_ish_instance(120, 3, seed);
            for eps in [0.2, 0.5, 1.0] {
                let out = FlowScheduler::new(FlowParams::new(eps)).unwrap().run(&inst);
                let audit = check_dual_feasibility(&inst, &out.dual, usize::MAX);
                assert!(
                    audit.is_feasible(),
                    "seed={seed} eps={eps}: {} violations, worst {:?}",
                    audit.violations.len(),
                    audit.violations.first()
                );
                assert!(audit.constraints_checked > 0);
            }
        }
    }

    #[test]
    fn dual_feasible_on_single_machine_burst() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..80 {
            b = b.job(0.001 * k as f64, vec![1.0 + (k % 9) as f64]);
        }
        let inst = b.build().unwrap();
        let out = FlowScheduler::with_eps(0.25).unwrap().run(&inst);
        let audit = check_dual_feasibility(&inst, &out.dual, usize::MAX);
        assert!(audit.is_feasible(), "{:?}", audit.violations.first());
    }

    #[test]
    fn objective_components_consistent() {
        let inst = random_ish_instance(60, 2, 5);
        let out = FlowScheduler::with_eps(0.5).unwrap().run(&inst);
        let d = &out.dual;
        assert!((d.objective() - (d.sum_lambda() - d.beta_integral())).abs() < 1e-9);
        assert!(d.opt_lower_bound() >= 0.0);
        assert_eq!(d.len(), inst.len());
    }

    #[test]
    fn audit_detects_a_corrupted_dual() {
        let inst = random_ish_instance(40, 2, 9);
        let out = FlowScheduler::with_eps(0.5).unwrap().run(&inst);
        let mut bad = out.dual.clone();
        // Inflate one λ_j beyond any feasible value.
        bad.lambda[0] += 1e6;
        let audit = check_dual_feasibility(&inst, &bad, usize::MAX);
        assert!(!audit.is_feasible());
        assert_eq!(audit.violations[0].job, 0);
    }

    #[test]
    fn max_jobs_caps_the_audit() {
        let inst = random_ish_instance(50, 2, 3);
        let out = FlowScheduler::with_eps(0.5).unwrap().run(&inst);
        let full = check_dual_feasibility(&inst, &out.dual, usize::MAX);
        let capped = check_dual_feasibility(&inst, &out.dual, 5);
        assert!(capped.constraints_checked < full.constraints_checked);
    }
}
