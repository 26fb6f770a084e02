//! EXP-L1 — Lemma 1: immediate-rejection policies blow up as `Ω(√Δ)`
//! on the adaptive construction, while the SPAA'18 algorithm (whose
//! Rule 1 rejects *in hindsight*) stays flat.
//!
//! Protocol (two-phase, sound for any policy that cannot see the
//! future): run the policy on the phase-1 big jobs, observe the start
//! time of its first committed big job, materialize the full adaptive
//! instance, rerun, and normalize by the adversary's schedule cost.

use osr_baselines::ImmediateRejectScheduler;
use osr_core::SchedulerConfig;
use osr_sim::ValidationConfig;
use osr_workload::adversarial::{lemma1_adversary_flow, lemma1_big_jobs, lemma1_full_instance};

use super::{flow, must_validate, par_replicates};
use crate::table::{fmt_g4, Table};

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let eps = 0.5;
    let ls: &[f64] = if quick {
        &[5.0, 10.0, 20.0]
    } else {
        &[5.0, 10.0, 20.0, 40.0, 80.0]
    };

    let mut table = Table::new(
        "EXP-L1: immediate rejection vs hindsight rejection on the Lemma-1 instance",
        &[
            "L",
            "delta",
            "sqrt_delta",
            "imm_ratio",
            "spaa_ratio",
            "imm/sqrt_delta",
        ],
    );
    table.note("ratio = flow_all / adversary schedule cost; Lemma 1 predicts imm_ratio = Omega(sqrt(delta))");

    // The L sweep fans out; each point runs its own two-phase protocol.
    for row in par_replicates(ls.to_vec(), |l| {
        // Phase 1: where does the immediate policy start its first big
        // job?
        let phase1 = lemma1_big_jobs(eps, l);
        let imm = ImmediateRejectScheduler::above_mean(eps, 3.0);
        let (log1, _) = imm.run(&phase1);
        let first_start = log1
            .executions()
            .map(|(_, e)| e.start)
            .fold(f64::INFINITY, f64::min);
        assert!(first_start.is_finite(), "policy must start some big job");

        // Phase 2: the flood.
        let full = lemma1_full_instance(eps, l, first_start);
        let adv = lemma1_adversary_flow(eps, l, first_start);

        let (imm_log, _) = imm.run(&full);
        let imm_m = must_validate("l1", &full, &imm_log, &ValidationConfig::flow_time());
        let imm_ratio = imm_m.flow.flow_all / adv;

        let spaa = flow(eps, config).run(&full);
        let spaa_m = must_validate("l1", &full, &spaa.log, &ValidationConfig::flow_time());
        let spaa_ratio = spaa_m.flow.flow_all / adv;

        let delta = l * l;
        vec![
            fmt_g4(l),
            fmt_g4(delta),
            fmt_g4(delta.sqrt()),
            fmt_g4(imm_ratio),
            fmt_g4(spaa_ratio),
            fmt_g4(imm_ratio / delta.sqrt()),
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
    fn immediate_policy_grows_and_spaa_does_not() {
        let tables = run(true, SchedulerConfig::production());
        let t = &tables[0];
        let first_imm: f64 = t.rows.first().unwrap()[3].parse().unwrap();
        let last_imm: f64 = t.rows.last().unwrap()[3].parse().unwrap();
        let first_spaa: f64 = t.rows.first().unwrap()[4].parse().unwrap();
        let last_spaa: f64 = t.rows.last().unwrap()[4].parse().unwrap();
        // The immediate policy's ratio grows with L (by at least 2× over
        // a 4× L range); the SPAA'18 ratio grows much slower.
        assert!(
            last_imm > first_imm * 2.0,
            "immediate ratio should grow: {first_imm} → {last_imm}"
        );
        let imm_growth = last_imm / first_imm;
        let spaa_growth = (last_spaa / first_spaa).max(1.0);
        assert!(
            imm_growth > 1.8 * spaa_growth,
            "immediate growth {imm_growth} vs spaa growth {spaa_growth}"
        );
    }
}
