//! EXP-DUAL — Lemmas 4 and 6: every dual constraint the analysis
//! relies on holds on real runs, checked exactly (§2, at all step
//! breakpoints) and by dense sampling (§3).

use osr_core::energyflow::check_energyflow_dual;
use osr_core::flowtime::check_dual_feasibility;
use osr_core::SchedulerConfig;
use osr_model::InstanceKind;
use osr_workload::{FlowWorkload, WeightSpec};

use super::{energyflow, flow, par_replicates};
use crate::table::{fmt_g4, Table};

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let n = if quick { 120 } else { 400 };
    let seeds: Vec<u64> = if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5, 6]
    };

    let mut t2 = Table::new(
        "EXP-DUAL (Lemma 4): section-2 dual constraints, exact breakpoint check",
        &[
            "eps",
            "m",
            "seed",
            "constraints",
            "violations",
            "min_margin",
        ],
    );
    // The whole eps × m × seed cross product fans out; each cell is
    // self-seeded and the rows land in cross-product order.
    let mut cells: Vec<(f64, usize, u64)> = Vec::new();
    for &eps in &[0.2, 0.5, 1.0] {
        for &m in &[1usize, 3] {
            for &seed in &seeds {
                cells.push((eps, m, seed));
            }
        }
    }
    for row in par_replicates(cells, |(eps, m, seed)| {
        let inst = FlowWorkload::standard(n, m, seed).generate(InstanceKind::FlowTime);
        let out = flow(eps, config).run(&inst);
        let audit = check_dual_feasibility(&inst, &out.dual, usize::MAX);
        assert!(
            audit.is_feasible(),
            "Lemma 4 violated at eps={eps}, m={m}, seed={seed}: {:?}",
            audit.violations.first()
        );
        vec![
            fmt_g4(eps),
            m.to_string(),
            seed.to_string(),
            audit.constraints_checked.to_string(),
            audit.violations.len().to_string(),
            fmt_g4(audit.min_margin),
        ]
    }) {
        t2.row(row);
    }

    let mut t3 = Table::new(
        "EXP-DUAL (Lemma 6): section-3 dual constraints, sampled check",
        &[
            "eps",
            "alpha",
            "seed",
            "samples",
            "violations",
            "min_margin",
        ],
    );
    let grid = if quick { 25 } else { 60 };
    let mut cells: Vec<(f64, f64, u64)> = Vec::new();
    for &(eps, alpha) in &[(0.3, 2.0), (0.5, 3.0), (0.2, 2.5)] {
        for &seed in seeds.iter().take(3) {
            cells.push((eps, alpha, seed));
        }
    }
    for row in par_replicates(cells, |(eps, alpha, seed)| {
        let mut w = FlowWorkload::standard(n.min(150), 2, 50 + seed);
        w.weights = WeightSpec::Uniform { lo: 1.0, hi: 6.0 };
        let inst = w.generate(InstanceKind::FlowEnergy);
        let out = energyflow(eps, alpha, config).run(&inst);
        let audit = check_energyflow_dual(&inst, &out, usize::MAX, grid);
        assert!(
            audit.is_feasible(),
            "Lemma 6 violated at eps={eps}, alpha={alpha}, seed={seed}: {:?}",
            audit.violations.first()
        );
        vec![
            fmt_g4(eps),
            fmt_g4(alpha),
            seed.to_string(),
            audit.samples_checked.to_string(),
            audit.violations.len().to_string(),
            fmt_g4(audit.min_margin),
        ]
    }) {
        t3.row(row);
    }

    vec![t2, t3]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_audits_pass_with_nonnegative_margins() {
        for t in run(true, SchedulerConfig::production()) {
            assert!(!t.rows.is_empty());
            for row in &t.rows {
                let violations: usize = row[4].parse().unwrap();
                assert_eq!(violations, 0);
                let margin: f64 = row[5].parse().unwrap();
                assert!(margin > -1e-7, "negative margin in {row:?}");
            }
        }
    }
}
