//! Experiment implementations, one module per DESIGN.md entry.
//!
//! Every `run(quick, config) -> Vec<Table>` is deterministic (fixed seeds) and
//! validates every schedule before measuring it — a scheduler bug
//! yields a panic, never a silently wrong table.
//!
//! ## Parallel replicates, deterministic tables
//!
//! Each experiment's replicate work — the cross product of seeds ×
//! instances × policies that fills one table — fans out over the rayon
//! pool via `par_replicates` (crate-private). The determinism contract:
//!
//! 1. every replicate derives its RNG stream from its **own explicit
//!    seed** (never from shared mutable state or thread identity), and
//! 2. results come back **in input order**, and rows are appended only
//!    after the fan-out completes.
//!
//! Together these make the emitted tables (and therefore the CSV
//! artifacts) byte-identical for any `--jobs` value, including 1 —
//! asserted end-to-end by the `parallel_determinism` integration test.
//! The only exception is `scale`, which measures wall-clock time and
//! must therefore run its replicates serially on an otherwise idle
//! pool.

pub mod dual_feasibility;
pub mod l1_immediate;
pub mod l2_energy;
pub mod load_sweep;
pub mod m_scale;
pub mod rule_ablation;
pub mod scale;
pub mod smoothness;
pub mod t1_baselines;
pub mod t1_exact;
pub mod t1_ratio;
pub mod t2_ratio;
pub mod t3_ratio;
pub mod workload_sweep;

use osr_core::flowtime::{WeightedFlowParams, WeightedFlowScheduler};
use osr_core::{EnergyFlowParams, EnergyFlowScheduler, FlowParams, FlowScheduler, SchedulerConfig};
use osr_model::{FinishedLog, Instance, Metrics};
use osr_sim::{validate_log, ValidationConfig};
use rayon::prelude::*;

/// The §2 scheduler at `eps`, under the experiment's `config`.
pub(crate) fn flow(eps: f64, config: SchedulerConfig) -> FlowScheduler {
    FlowScheduler::new(FlowParams {
        config,
        ..FlowParams::new(eps)
    })
    .expect("valid eps")
}

/// The weighted scheduler at `eps`, under the experiment's `config`.
pub(crate) fn wflow(eps: f64, config: SchedulerConfig) -> WeightedFlowScheduler {
    WeightedFlowScheduler::new(WeightedFlowParams {
        config,
        ..WeightedFlowParams::new(eps)
    })
    .expect("valid eps")
}

/// The §3 scheduler at `eps` and `alpha`, under the experiment's
/// `config`.
pub(crate) fn energyflow(eps: f64, alpha: f64, config: SchedulerConfig) -> EnergyFlowScheduler {
    EnergyFlowScheduler::new(EnergyFlowParams {
        config,
        ..EnergyFlowParams::new(eps, alpha)
    })
    .expect("valid eps and alpha")
}

/// Runs `f` over `inputs` on the rayon pool, returning results in input
/// order — the fan-out primitive behind every experiment's replicate
/// loop (see the module docs for the determinism contract).
pub(crate) fn par_replicates<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync + Send,
{
    inputs.into_par_iter().map(f).collect()
}

/// Validates a log or panics with the experiment id — experiments never
/// report metrics for invalid schedules.
pub(crate) fn must_validate(
    exp: &str,
    instance: &Instance,
    log: &FinishedLog,
    config: &ValidationConfig,
) -> Metrics {
    let report = validate_log(instance, log, config);
    assert!(
        report.is_valid(),
        "{exp}: schedule failed validation: {:?}",
        report.errors.first()
    );
    Metrics::compute(instance, log, 2.0)
}

/// Mean of a slice.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Max of a slice.
pub(crate) fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}
