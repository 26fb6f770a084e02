//! EXP-LOAD — behaviour across offered load.
//!
//! The theorems are worst-case; this experiment maps how the algorithm
//! actually behaves as a system crosses from underload into overload:
//! the offered load `ρ` (arrival rate × mean size / capacity) sweeps
//! from 0.4 to 2.0. In overload (`ρ > 1`), *any* schedule serving all
//! jobs has unbounded flow as n grows — rejection is what keeps the
//! system stable, and the rejected fraction should track the excess
//! load while never crossing the `2ε` budget.

use osr_baselines::flow_lower_bound;
use osr_core::SchedulerConfig;
use osr_model::InstanceKind;
use osr_sim::{SummaryStats, ValidationConfig};
use osr_workload::{ArrivalSpec, FlowWorkload, SizeSpec};

use super::{flow, must_validate, par_replicates, wflow};
use crate::table::{fmt_g4, Table};

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let eps = 0.25;
    let n = if quick { 400 } else { 2000 };
    let machines = 4;
    let rhos: &[f64] = if quick {
        &[0.5, 1.0, 1.5]
    } else {
        &[0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0]
    };

    let mut table = Table::new(
        "EXP-LOAD: behaviour vs offered load (eps = 0.25, m = 4)",
        &[
            "rho",
            "ratio",
            "rej_frac",
            "budget",
            "mean_flow",
            "p99_flow",
            "wflow_ext_ratio",
        ],
    );
    table.note("rho = arrival rate × mean size / machine count; rho > 1 is overload");
    table.note(
        "wflow_ext_ratio: the weighted-extension scheduler on the same instance (unit weights)",
    );

    // Mean size of Uniform[1, 5] is 3. Load points fan out; each one
    // regenerates its instance from the same fixed seed.
    let mean_size = 3.0;
    for row in par_replicates(rhos.to_vec(), |rho| {
        let rate = rho * machines as f64 / mean_size;
        let mut w = FlowWorkload::standard(n, machines, 12345);
        w.arrivals = ArrivalSpec::Poisson { rate };
        w.sizes = SizeSpec::Uniform { lo: 1.0, hi: 5.0 };
        let inst = w.generate(InstanceKind::FlowTime);

        let out = flow(eps, config).run(&inst);
        let m = must_validate("load", &inst, &out.log, &ValidationConfig::flow_time());
        let lb = flow_lower_bound(&inst, Some(out.dual.objective())).value;
        let stats = SummaryStats::flows(&inst, &out.log);

        let wout = wflow(eps, config).run(&inst);
        let wm = must_validate("load", &inst, &wout.log, &ValidationConfig::flow_time());

        assert!(
            m.flow.rejected_fraction() <= 2.0 * eps + 1e-9,
            "budget violated at rho={rho}"
        );

        vec![
            fmt_g4(rho),
            fmt_g4(m.flow.flow_all / lb),
            fmt_g4(m.flow.rejected_fraction()),
            fmt_g4(2.0 * eps),
            fmt_g4(stats.mean),
            fmt_g4(stats.p99),
            fmt_g4(wm.flow.flow_all / lb),
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
    fn rejections_grow_with_load_within_budget() {
        let tables = run(true, SchedulerConfig::production());
        let t = &tables[0];
        let fracs: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // Overload rejects more than underload.
        assert!(
            fracs.last().unwrap() > fracs.first().unwrap(),
            "rejection should rise with load: {fracs:?}"
        );
        for &f in &fracs {
            assert!(f <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn flows_stay_bounded_in_overload() {
        let tables = run(true, SchedulerConfig::production());
        let t = &tables[0];
        // Mean flow at rho=1.5 should be within a couple orders of
        // magnitude of rho=0.5 — rejection prevents the unbounded
        // queueing a no-rejection scheduler would suffer.
        let first: f64 = t.rows.first().unwrap()[4].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[4].parse().unwrap();
        assert!(
            last < first * 500.0,
            "overload flow exploded: {first} → {last}"
        );
    }
}
