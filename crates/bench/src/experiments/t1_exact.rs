//! EXP-T1-OPT — Theorem 1 against *exact* OPT on tiny instances.
//!
//! Branch-and-bound OPT (n ≤ 8) removes all lower-bound slack: the
//! ratios here are the algorithm's true competitive performance on
//! these instances. Also reports how tight the certified dual LB is
//! relative to OPT (`lb/opt`).

use osr_baselines::{flow_lower_bound, optimal_flow};
use osr_core::bounds::flowtime_competitive_bound;
use osr_core::SchedulerConfig;
use osr_model::InstanceKind;
use osr_sim::ValidationConfig;
use osr_workload::{FlowWorkload, SizeSpec};

use super::{flow, max, mean, must_validate, par_replicates};
use crate::table::{fmt_g4, Table};

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let eps_sweep: &[f64] = if quick {
        &[0.5, 1.0]
    } else {
        &[0.25, 0.5, 1.0]
    };
    let shapes: &[(usize, usize)] = if quick {
        &[(6, 1), (6, 2)]
    } else {
        &[(6, 1), (7, 2), (8, 2), (6, 3)]
    };
    let seeds: Vec<u64> = if quick {
        (0..4).collect()
    } else {
        (0..12).collect()
    };

    let mut table = Table::new(
        "EXP-T1-OPT: ratio vs exact OPT on tiny instances",
        &[
            "eps",
            "n",
            "m",
            "ratio_mean",
            "ratio_max",
            "bound",
            "lb_tightness",
        ],
    );
    table
        .note("ratio = flow_all / exact OPT (branch-and-bound); lb_tightness = certified LB / OPT");

    for &eps in eps_sweep {
        for &(n, m) in shapes {
            // Seeds fan out; branch-and-bound OPT dominates each
            // replicate's cost, so this is the experiment that gains
            // most from `--jobs`.
            let results: Vec<(f64, f64)> = par_replicates(seeds.clone(), |seed| {
                let mut w = FlowWorkload::standard(n, m, 1000 + seed);
                w.sizes = SizeSpec::Uniform { lo: 1.0, hi: 10.0 };
                let inst = w.generate(InstanceKind::FlowTime);
                let opt = optimal_flow(&inst);
                let out = flow(eps, config).run(&inst);
                let metrics =
                    must_validate("t1_exact", &inst, &out.log, &ValidationConfig::flow_time());
                let lb = flow_lower_bound(&inst, Some(out.dual.objective()));
                // OPT is a lower bound on any serving schedule, but the
                // algorithm may *reject* jobs (its flow_all counts the
                // rejected flow only until rejection) — still, the
                // certified LB must never exceed OPT.
                assert!(
                    lb.value <= opt + 1e-6,
                    "certified LB {} exceeds exact OPT {opt}",
                    lb.value
                );
                (metrics.flow.flow_all / opt, lb.value / opt)
            });
            let ratios: Vec<f64> = results.iter().map(|r| r.0).collect();
            let tightness: Vec<f64> = results.iter().map(|r| r.1).collect();
            table.row(vec![
                fmt_g4(eps),
                n.to_string(),
                m.to_string(),
                fmt_g4(mean(&ratios)),
                fmt_g4(max(&ratios)),
                fmt_g4(flowtime_competitive_bound(eps)),
                fmt_g4(mean(&tightness)),
            ]);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_stay_under_the_theorem_bound() {
        for t in run(true, SchedulerConfig::production()) {
            for row in &t.rows {
                let ratio_max: f64 = row[4].parse().unwrap();
                let bound: f64 = row[5].parse().unwrap();
                assert!(
                    ratio_max <= bound + 1e-9,
                    "true ratio {ratio_max} exceeds bound {bound}"
                );
                let tight: f64 = row[6].parse().unwrap();
                assert!(tight > 0.0 && tight <= 1.0 + 1e-9);
            }
        }
    }
}
