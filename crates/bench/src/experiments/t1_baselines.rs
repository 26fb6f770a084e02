//! EXP-T1-BASE — the paper's motivation: rejection circumvents the
//! lower bounds that doom no-rejection online schedulers.
//!
//! Compares, on identical workloads (including the long-job trap),
//! the SPAA'18 algorithm against greedy ECT×{SPT, FIFO} without
//! rejection and the ESA'16-style speed-augmentation baseline. All
//! costs are normalized by the same certified lower bound.

use osr_baselines::{flow_lower_bound, GreedyScheduler, SpeedAugScheduler};
use osr_core::SchedulerConfig;
use osr_model::{Instance, InstanceKind, Metrics};
use osr_sim::ValidationConfig;
use osr_workload::adversarial::long_job_trap;
use osr_workload::{ArrivalSpec, FlowWorkload, SizeSpec};

use super::{flow, must_validate, par_replicates};
use crate::table::{fmt_g4, Table};

fn workloads(quick: bool) -> Vec<(String, Instance)> {
    let n = if quick { 300 } else { 1500 };
    let mut out = Vec::new();
    out.push((
        "poisson-pareto".to_string(),
        FlowWorkload::standard(n, 4, 11).generate(InstanceKind::FlowTime),
    ));
    let mut bursty = FlowWorkload::standard(n, 4, 12);
    bursty.arrivals = ArrivalSpec::Bursty {
        burst: 40,
        within: 0.01,
        gap: 30.0,
    };
    out.push((
        "bursty".to_string(),
        bursty.generate(InstanceKind::FlowTime),
    ));
    let mut bimodal = FlowWorkload::standard(n, 2, 13);
    bimodal.sizes = SizeSpec::Bimodal {
        short: 1.0,
        long: 120.0,
        p_long: 0.05,
    };
    out.push((
        "bimodal".to_string(),
        bimodal.generate(InstanceKind::FlowTime),
    ));
    out.push((
        "long-job-trap".to_string(),
        long_job_trap(
            if quick { 50.0 } else { 200.0 },
            if quick { 100 } else { 400 },
            0.5,
        ),
    ));
    out
}

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let eps = 0.2;
    let mut table = Table::new(
        "EXP-T1-BASE: SPAA'18 vs no-rejection and speed-augmented baselines",
        &[
            "workload",
            "n",
            "spaa18",
            "greedy_spt",
            "greedy_fifo",
            "speedaug",
            "spaa18_rejfrac",
        ],
    );
    table.note(format!(
        "cells are flow_all / certified LB; spaa18 eps = {eps}; speedaug = (1.2-speed, eps_r=0.2)"
    ));
    table.note("speedaug runs 1.2x machines — reference point, not a feasible unit-speed schedule");
    table.note("rejection-capable ratios may drop below 1: the LB prices serving ALL jobs");

    // Workloads fan out; each replicate runs all four policies on its
    // instance so the shared certified LB stays local.
    for row in par_replicates(workloads(quick), |(name, inst)| {
        let out = flow(eps, config).run(&inst);
        let spaa = must_validate("t1_base", &inst, &out.log, &ValidationConfig::flow_time());
        let lb = flow_lower_bound(&inst, Some(out.dual.objective())).value;

        let (g_spt_log, _) = GreedyScheduler::ect_spt().run(&inst);
        let g_spt = must_validate("t1_base", &inst, &g_spt_log, &ValidationConfig::flow_time());

        let (g_fifo_log, _) = GreedyScheduler::ect_fifo().run(&inst);
        let g_fifo = must_validate(
            "t1_base",
            &inst,
            &g_fifo_log,
            &ValidationConfig::flow_time(),
        );

        let (aug_log, _) = SpeedAugScheduler::new(0.2, 0.2).unwrap().run(&inst);
        // Speed-augmented logs have speed 1.2 — validate with the
        // speed-flexible config.
        let aug = {
            let cfg = ValidationConfig::flow_energy();
            let report = osr_sim::validate_log(&inst, &aug_log, &cfg);
            assert!(report.is_valid(), "{:?}", report.errors.first());
            Metrics::compute(&inst, &aug_log, 2.0)
        };

        vec![
            name,
            inst.len().to_string(),
            fmt_g4(spaa.flow.flow_all / lb),
            fmt_g4(g_spt.flow.flow_served / lb),
            fmt_g4(g_fifo.flow.flow_served / lb),
            fmt_g4(aug.flow.flow_all / lb),
            fmt_g4(spaa.flow.rejected_fraction()),
        ]
    }) {
        table.row(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaa18_beats_fifo_on_the_trap() {
        let tables = run(true, SchedulerConfig::production());
        let t = &tables[0];
        let trap = t
            .rows
            .iter()
            .find(|r| r[0] == "long-job-trap")
            .expect("trap row");
        let spaa: f64 = trap[2].parse().unwrap();
        let fifo: f64 = trap[4].parse().unwrap();
        assert!(
            spaa < fifo,
            "rejection must beat FIFO on the trap: spaa {spaa} vs fifo {fifo}"
        );
    }

    #[test]
    fn all_rows_have_positive_ratios() {
        for t in run(true, SchedulerConfig::production()) {
            for row in &t.rows {
                for cell in &row[2..6] {
                    let v: f64 = cell.parse().unwrap();
                    // Ratios below 1 are legitimate for rejection-capable
                    // schedulers: the LB prices serving *all* jobs, while
                    // the algorithm drops up to a 2eps fraction.
                    assert!(v > 0.0, "non-positive ratio: {row:?}");
                }
                // The no-rejection baselines do serve everything, so
                // their ratios cannot drop below 1.
                for cell in &row[3..5] {
                    let v: f64 = cell.parse().unwrap();
                    assert!(v >= 0.99, "no-rejection baseline below OPT: {row:?}");
                }
            }
        }
    }
}
