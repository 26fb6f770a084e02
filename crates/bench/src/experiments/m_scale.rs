//! EXP-M-SCALE — the dispatch-index ablation across machine counts:
//! `Pruned` (tournament-tree argmin: flat bound scan at mid-size m,
//! mask-guided best-first descent beyond) vs `Linear` (exact `λ_ij` on
//! every machine) on dispatch-shaped workloads — many machines,
//! Poisson arrivals scaled with `m`, so queues stay short and
//! per-arrival dispatch dominates the run. Two machine models per
//! sweep: `identical` (dense eligibility — the PR 2/3 rows) and
//! rack-`affinity` with ≥ 16 groups (sparse eligibility — the regime
//! the PR 4 mask-guided descent changes).
//!
//! Two tables:
//!
//! 1. **equivalence fingerprint** (all modes) — runs *both* strategies
//!    on every row and asserts the schedules are identical before
//!    reporting; its columns are pure schedule facts plus the
//!    **effective** dispatch index of the Pruned-requested run
//!    (`linear` below `PRUNED_MIN_MACHINES` — recorded so ablation
//!    CSVs cannot mislabel themselves), so it is byte-identical across
//!    `--jobs` (a CI diff) *and* under a `Linear` config
//!    (the `reference_equivalence` test).
//! 2. **wall-clock m-sweep** (`--full` only) — pruned vs linear
//!    medians-of-one; timing columns are exempt from the determinism
//!    contract exactly like `scale`'s, which is why they are not
//!    emitted in quick mode (the mode CI diffs).
//!
//! Deliberately **serial** (wall-clock honesty), like `scale`.

use std::time::Instant;

use osr_core::{DispatchIndex, FlowParams, FlowScheduler, SchedulerConfig};
use osr_model::{FinishedLog, InstanceKind, RejectReason};
use osr_workload::{FlowWorkload, MachineSpec};

use crate::table::{fmt_g4, Table};

fn run_with(
    inst: &osr_model::Instance,
    config: SchedulerConfig,
    dispatch: DispatchIndex,
) -> (FinishedLog, f64, f64, DispatchIndex) {
    let mut params = FlowParams {
        config,
        ..FlowParams::new(0.25)
    };
    params.dispatch = dispatch;
    let sched = FlowScheduler::new(params).unwrap();
    let _ = sched.run(inst); // warm-up
    let t0 = Instant::now();
    let out = sched.run(inst);
    let dt = t0.elapsed().as_secs_f64();
    (out.log, out.dual.sum_lambda(), dt, out.effective_dispatch)
}

/// One sweep row: machine count, job count, and the machine model
/// (`None` = identical machines, `Some(groups)` = rack affinity with
/// that many groups and a 2% everywhere-ineligible share).
struct Sweep {
    m: usize,
    n: usize,
    affinity_groups: Option<usize>,
}

const fn sweep(m: usize, n: usize, affinity_groups: Option<usize>) -> Sweep {
    Sweep {
        m,
        n,
        affinity_groups,
    }
}

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    // (m, n): n scales sublinearly at the top so the size matrix
    // (n·m f64s) stays within CI memory. Affinity rows keep the
    // issue's floor of ≥ 16 groups so racks stay sparse.
    let sweeps: &[Sweep] = if quick {
        &[
            sweep(4, 200, None),
            sweep(64, 400, None),
            sweep(256, 512, None),
            sweep(256, 512, Some(16)),
        ]
    } else {
        &[
            sweep(4, 2_000, None),
            sweep(64, 4_000, None),
            sweep(64, 4_000, Some(16)),
            sweep(1_024, 4_096, None),
            sweep(1_024, 4_096, Some(16)),
            sweep(16_384, 2_048, None),
            sweep(16_384, 2_048, Some(64)),
        ]
    };

    let mut fingerprint = Table::new(
        "EXP-M-SCALE: pruned vs linear dispatch — schedule fingerprint (asserted identical)",
        &[
            "m",
            "n",
            "model",
            "flow_all",
            "rejected",
            "inelig",
            "sum_lambda",
            "effective",
            "identical",
        ],
    );
    fingerprint.note(
        "Poisson arrivals ∝ m; both dispatch strategies run on every row; `effective` is \
         what a Pruned request actually executes (linear below PRUNED_MIN_MACHINES)",
    );
    let mut timing = Table::new(
        "EXP-M-SCALE: pruned vs linear dispatch — wall clock",
        &["m", "n", "model", "pruned_s", "linear_s", "speedup"],
    );
    timing.note(
        "timing columns vary run to run (exempt from the --jobs determinism contract, like scale)",
    );

    for sw in sweeps {
        let (m, n) = (sw.m, sw.n);
        let mut w = FlowWorkload::standard(n, m, 4242);
        let model_label = match sw.affinity_groups {
            None => {
                w.machine_model = MachineSpec::Identical;
                "identical".to_string()
            }
            Some(groups) => {
                w.machine_model = MachineSpec::Affinity {
                    groups,
                    drop_prob: 0.02,
                };
                format!("affinity:g{groups}")
            }
        };
        let inst = w.generate(InstanceKind::FlowTime);

        let (log_p, lam_p, dt_p, effective) = run_with(&inst, config, DispatchIndex::Pruned);
        let (log_l, lam_l, dt_l, _) = run_with(&inst, config, DispatchIndex::Linear);
        assert_eq!(
            log_p, log_l,
            "m_scale: pruned and linear dispatch diverged at m={m} ({model_label})"
        );
        assert_eq!(lam_p, lam_l, "m_scale: dual diverged at m={m}");
        let metrics = super::must_validate(
            "m_scale",
            &inst,
            &log_p,
            &osr_sim::ValidationConfig::flow_time(),
        );
        let inelig = log_p
            .rejections()
            .filter(|(_, r)| r.reason == RejectReason::Ineligible)
            .count();

        fingerprint.row(vec![
            m.to_string(),
            n.to_string(),
            model_label.clone(),
            fmt_g4(metrics.flow.flow_all),
            metrics.flow.rejected.to_string(),
            inelig.to_string(),
            fmt_g4(lam_p),
            // What the Pruned run *actually* executed, read off its
            // outcome — not recomputed from the request.
            effective.to_string(),
            "yes".to_string(),
        ]);
        timing.row(vec![
            m.to_string(),
            n.to_string(),
            model_label,
            fmt_g4(dt_p),
            fmt_g4(dt_l),
            fmt_g4(dt_l / dt_p),
        ]);
    }

    if quick {
        vec![fingerprint]
    } else {
        vec![fingerprint, timing]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_emits_only_the_deterministic_table() {
        let tables = run(true, SchedulerConfig::production());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 4);
        for row in &tables[0].rows {
            assert_eq!(row[8], "yes");
        }
        // The m=4 row records that a Pruned request actually ran the
        // linear scan; every other row ran the pruned index.
        assert_eq!(tables[0].rows[0][7], "linear");
        for row in &tables[0].rows[1..] {
            assert_eq!(row[7], "pruned");
        }
        // The affinity row exercises sparse eligibility, including
        // everywhere-ineligible arrivals.
        let affinity = &tables[0].rows[3];
        assert_eq!(affinity[2], "affinity:g16");
        assert!(affinity[5].parse::<usize>().unwrap() > 0, "{affinity:?}");
        // Identical-machine rows have no ineligible arrivals.
        assert_eq!(tables[0].rows[0][5], "0");
    }
}
