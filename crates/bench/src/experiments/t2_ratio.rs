//! EXP-T2-RATIO / EXP-T2-BASE — Theorem 2: weighted flow + energy
//! ratio vs `ε` and `α`, the `ε` rejected-weight budget, and the
//! no-rejection / fixed-speed baselines.

use osr_baselines::energyflow_alone_lower_bound;
use osr_core::bounds::energyflow_competitive_bound;
use osr_core::energyflow::{EnergyFlowParams, EnergyFlowScheduler};
use osr_core::SchedulerConfig;
use osr_model::{InstanceKind, Metrics};
use osr_sim::{validate_log, ValidationConfig};
use osr_workload::{FlowWorkload, SizeSpec, WeightSpec};

use super::{energyflow, max, mean, par_replicates};
use crate::table::{fmt_g4, Table};

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let eps_sweep: &[f64] = if quick {
        &[0.2, 0.5, 1.0]
    } else {
        &[0.1, 0.2, 1.0 / 3.0, 0.5, 0.75, 1.0]
    };
    let alphas: &[f64] = if quick {
        &[2.0, 3.0]
    } else {
        &[1.5, 2.0, 2.5, 3.0]
    };
    let n = if quick { 200 } else { 1200 };
    let seeds: Vec<u64> = if quick { vec![1, 2] } else { vec![1, 2, 3, 4] };

    let mut ratio_table = Table::new(
        "EXP-T2-RATIO: weighted flow + energy vs eps and alpha",
        &[
            "alpha",
            "eps",
            "ratio_mean",
            "ratio_max",
            "bound",
            "wrej_frac",
            "budget",
        ],
    );
    ratio_table
        .note("ratio = (weighted flow of served + all energy) / alone-cost LB over all jobs");
    ratio_table.note("rejection may push ratios slightly below 1: the LB prices serving ALL jobs");

    let mut base_table = Table::new(
        "EXP-T2-BASE: rejection vs no-rejection speed scaling",
        &["alpha", "with_reject", "no_reject", "improvement"],
    );
    base_table.note("objective / alone-cost LB at eps = 0.2 on a bursty heavy-tail workload");

    for &alpha in alphas {
        for &eps in eps_sweep {
            // Seeds fan out; each replicate is self-seeded.
            let results: Vec<(f64, f64)> = par_replicates(seeds.clone(), |seed| {
                let mut w = FlowWorkload::standard(n, 3, 100 + seed);
                w.weights = WeightSpec::Uniform { lo: 1.0, hi: 8.0 };
                let inst = w.generate(InstanceKind::FlowEnergy);
                let sched = energyflow(eps, alpha, config);
                let out = sched.run(&inst);
                let report = validate_log(&inst, &out.log, &ValidationConfig::flow_energy());
                assert!(report.is_valid(), "{:?}", report.errors.first());
                let m = Metrics::compute(&inst, &out.log, alpha);
                let lb = energyflow_alone_lower_bound(&inst, alpha);
                let frac = m.flow.rejected_weight_fraction();
                assert!(
                    frac <= eps + 1e-9,
                    "weight budget violated: {frac} > {eps} (alpha={alpha}, seed={seed})"
                );
                (m.weighted_flow_plus_energy() / lb, frac)
            });
            let ratios: Vec<f64> = results.iter().map(|r| r.0).collect();
            let wrejs: Vec<f64> = results.iter().map(|r| r.1).collect();
            ratio_table.row(vec![
                fmt_g4(alpha),
                fmt_g4(eps),
                fmt_g4(mean(&ratios)),
                fmt_g4(max(&ratios)),
                fmt_g4(energyflow_competitive_bound(eps, alpha)),
                fmt_g4(mean(&wrejs)),
                fmt_g4(eps),
            ]);
        }

        // Baseline comparison at eps = 0.2 on a stressful workload.
        let mut w = FlowWorkload::standard(n, 2, 777);
        w.weights = WeightSpec::Uniform { lo: 1.0, hi: 8.0 };
        w.sizes = SizeSpec::Bimodal {
            short: 1.0,
            long: 80.0,
            p_long: 0.08,
        };
        let inst = w.generate(InstanceKind::FlowEnergy);
        let lb = energyflow_alone_lower_bound(&inst, alpha);

        let with = energyflow(0.2, alpha, config);
        let out_with = with.run(&inst);
        let m_with = Metrics::compute(&inst, &out_with.log, alpha);

        let without = EnergyFlowScheduler::new(EnergyFlowParams {
            reject: false,
            config,
            ..EnergyFlowParams::new(0.2, alpha)
        })
        .unwrap();
        let out_wo = without.run(&inst);
        let m_wo = Metrics::compute(&inst, &out_wo.log, alpha);

        let r_with = m_with.weighted_flow_plus_energy() / lb;
        let r_wo = m_wo.weighted_flow_plus_energy() / lb;
        base_table.row(vec![
            fmt_g4(alpha),
            fmt_g4(r_with),
            fmt_g4(r_wo),
            fmt_g4(r_wo / r_with),
        ]);
    }
    vec![ratio_table, base_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_positive_and_budget_enforced() {
        let tables = run(true, SchedulerConfig::production());
        for row in &tables[0].rows {
            let ratio: f64 = row[2].parse().unwrap();
            let wrej: f64 = row[5].parse().unwrap();
            let budget: f64 = row[6].parse().unwrap();
            // The LB prices serving all jobs; the algorithm rejects up
            // to an eps weight fraction, so slightly-below-1 ratios are
            // legitimate.
            assert!(ratio > 0.5, "implausibly low ratio: {row:?}");
            assert!(wrej <= budget + 1e-9);
        }
    }

    #[test]
    fn rejection_does_not_hurt_much_and_often_helps() {
        let tables = run(true, SchedulerConfig::production());
        for row in &tables[1].rows {
            let improvement: f64 = row[3].parse().unwrap();
            // Rejection may help a lot on heavy tails and should never
            // catastrophically hurt.
            assert!(improvement > 0.5, "rejection made things 2x worse: {row:?}");
        }
    }
}
