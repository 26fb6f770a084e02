//! EXP-L2 — Lemma 2: the adaptive deadline-chain adversary forces any
//! deterministic algorithm (ours included) to pay `Ω((α/9)^α)` times
//! the adversary's cost.
//!
//! The adversary drives [`osr_core::EnergyMinOnline`] interactively:
//! each released job nests inside the observed execution of the
//! previous one, forcing overlap after overlap while the adversary
//! itself could have run everything at speed 1 without overlap.

use osr_core::bounds::{energymin_competitive_bound, energymin_lower_bound};
use osr_core::energymin::{EnergyMinOnline, EnergyMinParams};
use osr_core::SchedulerConfig;
use osr_workload::adversarial::lemma2_run;

use super::par_replicates;
use crate::table::{fmt_g4, Table};

/// Runs the experiment.
pub fn run(quick: bool, _config: SchedulerConfig) -> Vec<Table> {
    let alphas: &[f64] = if quick {
        &[2.0, 3.0, 4.0]
    } else {
        &[2.0, 3.0, 4.0, 5.0, 6.0]
    };

    let mut table = Table::new(
        "EXP-L2: adaptive adversary vs the section-4 greedy",
        &[
            "alpha",
            "rounds",
            "alg_energy",
            "adv_energy",
            "ratio",
            "lower_(a/9)^a",
            "upper_a^a",
        ],
    );
    table.note("adversary energy = speed-1 non-overlapping schedule (feasible upper bound on OPT)");

    // Each alpha's adversary round-trip is inherently sequential (the
    // adversary adapts to the algorithm's observed behaviour), but the
    // alphas are independent and fan out.
    for row in par_replicates(alphas.to_vec(), |alpha| {
        let mut online = EnergyMinOnline::new(EnergyMinParams::new(alpha), 1).unwrap();
        let run = lemma2_run(alpha, |job| {
            let a = online.assign(job);
            (a.start, a.completion)
        });
        let alg = online.total_energy();
        let ratio = alg / run.adversary_energy;
        vec![
            fmt_g4(alpha),
            run.rounds.to_string(),
            fmt_g4(alg),
            fmt_g4(run.adversary_energy),
            fmt_g4(ratio),
            fmt_g4(energymin_lower_bound(alpha)),
            fmt_g4(energymin_competitive_bound(alpha)),
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
    fn adversary_hurts_more_as_alpha_grows() {
        let tables = run(false, SchedulerConfig::production());
        let t = &tables[0];
        let ratios: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        // Each round the adversary forces overlap; the ratio must
        // exceed 1 for alpha ≥ 3 and grow overall.
        assert!(ratios.last().unwrap() > ratios.first().unwrap());
        assert!(*ratios.last().unwrap() > 1.0);
    }

    #[test]
    fn ratio_stays_below_the_theorem_upper_bound() {
        for t in run(true, SchedulerConfig::production()) {
            for row in &t.rows {
                let ratio: f64 = row[4].parse().unwrap();
                let upper: f64 = row[6].parse().unwrap();
                assert!(
                    ratio <= upper + 1e-9,
                    "algorithm exceeded its own guarantee: {row:?}"
                );
            }
        }
    }
}
