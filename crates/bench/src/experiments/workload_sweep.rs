//! EXP-WL-SWEEP — every scheduler and baseline over the scenario grid.
//!
//! The scenario framework (`osr_workload::Scenario`) crosses arrival
//! processes × size distributions × machine models; this experiment
//! runs the full policy lineup — the paper's three algorithms plus the
//! no-rejection greedy baselines and the speed-augmentation reference —
//! over that grid and reports schedule facts only (no wall-clock), so
//! its tables are byte-identical across `--jobs` and every
//! `SchedulerConfig` (the CI `--jobs` diff and the
//! `reference_equivalence` test include them).
//!
//! Quick mode runs a curated sub-grid that covers every grammar token
//! at least once; full mode sweeps the **entire** named grid (all
//! `|arrivals| × |sizes| × |machines|` combinations).
//!
//! The `inelig` column counts `RejectReason::Ineligible` rejections —
//! nonzero exactly on `affinity` scenarios (their `drop_prob` produces
//! everywhere-ineligible jobs) and asserted identical across policies:
//! an ineligible job is rejected by *every* scheduler, at arrival.

use osr_baselines::{flow_lower_bound, GreedyScheduler, SpeedAugScheduler};
use osr_core::energyflow::{EnergyFlowParams, EnergyFlowScheduler};
use osr_core::flowtime::{WeightedFlowParams, WeightedFlowScheduler};
use osr_core::{FlowParams, FlowScheduler};
use osr_model::{FinishedLog, Instance, InstanceKind, JobFate, Metrics, RejectReason};
use osr_sim::{CapacityPlan, ValidationConfig};
use osr_workload::Scenario;

use super::{must_validate, par_replicates};
use crate::table::{fmt_g4, Table};

/// The curated quick grid: every arrival, size, and machine token of
/// the scenario grammar appears at least once.
const QUICK_GRID: &[&str] = &[
    "poisson-pareto-unrelated",
    "mmpp-uniform-identical",
    "mmpp-pareto-affinity",
    "bursty-exp-restricted",
    "batch-bimodal-identical",
    "once-bimodal-related",
    "poisson-uniform-restricted",
    "batch-pareto-related",
    "poisson-bimodal-affinity",
];

/// The elastic-pool churn scenarios: machines drain, crash, and rejoin
/// mid-run. One per capacity-aware scheduler family would do; these
/// four spread churn over distinct arrival/size/machine structures
/// (the `once` entry puts every capacity event in the drain-out phase).
const CHURN_GRID: &[&str] = &[
    "poisson-pareto-unrelated-churn:0.2",
    "mmpp-uniform-identical-churn:0.4",
    "bursty-exp-restricted-churn:0.3",
    "once-bimodal-related-churn:0.25",
];

fn inelig_count(log: &FinishedLog) -> usize {
    log.rejections()
        .filter(|(_, r)| r.reason == RejectReason::Ineligible)
        .count()
}

fn machine_lost_count(log: &FinishedLog) -> usize {
    log.rejections()
        .filter(|(_, r)| r.reason == RejectReason::MachineLost)
        .count()
}

/// The no-lost-job invariant: every arrived job either completes
/// (consistently) or is rejected with a recorded reason — machine
/// churn may strand work only as an explicit `MachineLost` rejection
/// of a job that was servable in principle.
fn assert_no_lost_jobs(exp: &str, inst: &Instance, log: &FinishedLog) {
    for job in inst.jobs() {
        match log.fate(job.id) {
            JobFate::Completed(e) => assert!(
                e.completion >= e.start,
                "{exp}: {} completed backwards",
                job.id
            ),
            JobFate::Rejected(r) => {
                if r.reason == RejectReason::MachineLost {
                    assert!(
                        job.has_eligible(),
                        "{exp}: {} machine-lost but never eligible",
                        job.id
                    );
                }
            }
        }
    }
}

/// One capacity-aware policy's outcome on one churn scenario.
fn run_churn_policies(
    inst: &Instance,
    plan: &CapacityPlan,
) -> Vec<(&'static str, Metrics, u64, usize)> {
    let eps = 0.25;
    let flow_cfg = ValidationConfig::flow_time().with_capacity(plan.clone());
    let speed_cfg = ValidationConfig::flow_energy().with_capacity(plan.clone());
    let mut rows = Vec::new();

    let out = FlowScheduler::new(FlowParams::new(eps))
        .unwrap()
        .with_capacity(plan.clone())
        .run(inst);
    assert_no_lost_jobs("workload_sweep/churn/flow", inst, &out.log);
    let m = must_validate("workload_sweep", inst, &out.log, &flow_cfg);
    rows.push((
        "spaa18-flow",
        m,
        out.log.total_redispatches(),
        machine_lost_count(&out.log),
    ));

    let wout = WeightedFlowScheduler::new(WeightedFlowParams::new(eps))
        .unwrap()
        .with_capacity(plan.clone())
        .run(inst);
    assert_no_lost_jobs("workload_sweep/churn/wflow", inst, &wout.log);
    let m = must_validate("workload_sweep", inst, &wout.log, &flow_cfg);
    rows.push((
        "wflow-ext",
        m,
        wout.log.total_redispatches(),
        machine_lost_count(&wout.log),
    ));

    let eout = EnergyFlowScheduler::new(EnergyFlowParams::new(eps, 2.0))
        .unwrap()
        .with_capacity(plan.clone())
        .run(inst);
    assert_no_lost_jobs("workload_sweep/churn/energyflow", inst, &eout.log);
    let m = must_validate("workload_sweep", inst, &eout.log, &speed_cfg);
    rows.push((
        "energyflow",
        m,
        eout.log.total_redispatches(),
        machine_lost_count(&eout.log),
    ));

    rows
}

/// One policy's outcome on one scenario instance.
struct PolicyRow {
    algo: &'static str,
    metrics: Metrics,
    inelig: usize,
    /// `Some(cost / LB)` for unit-speed flow policies, `None` where
    /// the certified flow LB does not price the objective.
    norm: Option<f64>,
}

fn run_policies(inst: &Instance) -> Vec<PolicyRow> {
    let eps = 0.25;
    let flow_cfg = ValidationConfig::flow_time();
    let speed_cfg = ValidationConfig::flow_energy();
    let mut rows = Vec::new();

    // The paper's §2 algorithm also certifies the shared lower bound.
    let out = FlowScheduler::new(FlowParams::new(eps)).unwrap().run(inst);
    let lb = flow_lower_bound(inst, Some(out.dual.objective())).value;
    let m = must_validate("workload_sweep", inst, &out.log, &flow_cfg);
    rows.push(PolicyRow {
        algo: "spaa18-flow",
        inelig: inelig_count(&out.log),
        norm: Some(m.flow.flow_all / lb),
        metrics: m,
    });

    let wout = WeightedFlowScheduler::new(WeightedFlowParams::new(eps))
        .unwrap()
        .run(inst);
    let m = must_validate("workload_sweep", inst, &wout.log, &flow_cfg);
    rows.push(PolicyRow {
        algo: "wflow-ext",
        inelig: inelig_count(&wout.log),
        norm: Some(m.flow.flow_all / lb),
        metrics: m,
    });

    let eout = EnergyFlowScheduler::new(EnergyFlowParams::new(eps, 2.0))
        .unwrap()
        .run(inst);
    let m = must_validate("workload_sweep", inst, &eout.log, &speed_cfg);
    rows.push(PolicyRow {
        algo: "energyflow",
        inelig: inelig_count(&eout.log),
        norm: None,
        metrics: m,
    });

    let (g_log, _) = GreedyScheduler::ect_spt().run(inst);
    let m = must_validate("workload_sweep", inst, &g_log, &flow_cfg);
    rows.push(PolicyRow {
        algo: "greedy-spt",
        inelig: inelig_count(&g_log),
        norm: Some(m.flow.flow_served / lb),
        metrics: m,
    });

    let (g_log, _) = GreedyScheduler::ect_fifo().run(inst);
    let m = must_validate("workload_sweep", inst, &g_log, &flow_cfg);
    rows.push(PolicyRow {
        algo: "greedy-fifo",
        inelig: inelig_count(&g_log),
        norm: Some(m.flow.flow_served / lb),
        metrics: m,
    });

    let (a_log, _) = SpeedAugScheduler::new(0.2, 0.2).unwrap().run(inst);
    let m = must_validate("workload_sweep", inst, &a_log, &speed_cfg);
    rows.push(PolicyRow {
        algo: "speedaug",
        inelig: inelig_count(&a_log),
        norm: None,
        metrics: m,
    });

    rows
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let (grid, n, m): (Vec<String>, usize, usize) = if quick {
        (QUICK_GRID.iter().map(|s| s.to_string()).collect(), 240, 12)
    } else {
        (Scenario::all_names(), 1200, 16)
    };

    let mut table = Table::new(
        "EXP-WL-SWEEP: scenario grid × full policy lineup",
        &[
            "scenario",
            "algo",
            "n",
            "completed",
            "rejected",
            "inelig",
            "flow_all",
            "wfe",
            "norm",
        ],
    );
    table.note("eps = 0.25; energyflow alpha = 2; speedaug = (1.2-speed, eps_r = 0.2)");
    table.note("norm = flow cost / certified LB (unit-speed flow policies only, `-` elsewhere)");
    table.note(
        "inelig counts everywhere-ineligible arrivals — identical across policies by construction",
    );

    for rows in par_replicates(grid, move |name| {
        let sc = Scenario::named(&name, n, m, 4711).expect("grid name resolves");
        let inst = sc.generate(InstanceKind::FlowTime);
        // Everywhere-ineligible jobs are a property of the *instance*;
        // every policy must reject exactly those (and only at arrival).
        let expected_inelig = inst.jobs().iter().filter(|j| !j.has_eligible()).count();
        let policies = run_policies(&inst);
        policies
            .into_iter()
            .map(|p| {
                assert_eq!(
                    p.inelig, expected_inelig,
                    "{name}/{}: ineligible count drifted from the instance mask",
                    p.algo
                );
                vec![
                    name.clone(),
                    p.algo.to_string(),
                    inst.len().to_string(),
                    p.metrics.flow.completed.to_string(),
                    p.metrics.flow.rejected.to_string(),
                    p.inelig.to_string(),
                    fmt_g4(p.metrics.flow.flow_all),
                    fmt_g4(p.metrics.weighted_flow_plus_energy()),
                    p.norm.map(fmt_g4).unwrap_or_else(|| "-".to_string()),
                ]
            })
            .collect::<Vec<_>>()
    }) {
        for row in rows {
            table.row(row);
        }
    }

    // The elastic-pool rows: the same scenarios with machines joining,
    // draining, and crashing mid-run. Runs only the capacity-aware
    // schedulers; every run is checked against the capacity-aware
    // validator and the no-lost-job invariant before its row lands.
    let mut churn_table = Table::new(
        "EXP-WL-SWEEP (churn): elastic machine pool × capacity-aware schedulers",
        &[
            "scenario",
            "algo",
            "n",
            "events",
            "completed",
            "rejected",
            "lost",
            "redisp",
            "flow_all",
            "wfe",
        ],
    );
    churn_table
        .note("capacity plans drawn from a separate seed stream (instances match the static rows)");
    churn_table.note("lost = RejectReason::MachineLost rejections; redisp = total re-dispatches");
    churn_table.note("every row passed capacity-aware validation and the no-lost-job invariant");

    let churn_grid: Vec<String> = CHURN_GRID.iter().map(|s| s.to_string()).collect();
    for rows in par_replicates(churn_grid, move |name| {
        let sc = Scenario::named(&name, n, m, 4711).expect("churn name resolves");
        let inst = sc.generate(InstanceKind::FlowTime);
        let plan = sc.capacity_plan(&inst);
        assert!(
            !plan.is_empty(),
            "{name}: churn scenario generated no events"
        );
        run_churn_policies(&inst, &plan)
            .into_iter()
            .map(|(algo, metrics, redisp, lost)| {
                vec![
                    name.clone(),
                    algo.to_string(),
                    inst.len().to_string(),
                    plan.len().to_string(),
                    metrics.flow.completed.to_string(),
                    metrics.flow.rejected.to_string(),
                    lost.to_string(),
                    redisp.to_string(),
                    fmt_g4(metrics.flow.flow_all),
                    fmt_g4(metrics.weighted_flow_plus_energy()),
                ]
            })
            .collect::<Vec<_>>()
    }) {
        for row in rows {
            churn_table.row(row);
        }
    }

    vec![table, churn_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_covers_every_token_and_policy() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.rows.len(), QUICK_GRID.len() * 6);
        for token in osr_workload::scenario::ARRIVAL_TOKENS
            .iter()
            .chain(osr_workload::scenario::SIZE_TOKENS)
            .chain(osr_workload::scenario::MACHINE_TOKENS)
        {
            assert!(
                QUICK_GRID.iter().any(|n| n.split('-').any(|p| p == *token)),
                "token {token} missing from the quick grid"
            );
        }
    }

    #[test]
    fn churn_scenarios_redispatch_without_losing_jobs() {
        let tables = run(true);
        let t = &tables[1];
        // Every churn grid point produced one row per capacity-aware
        // scheduler (the no-lost-job invariant asserted inside
        // `run_churn_policies` already ran for each).
        assert_eq!(t.rows.len(), CHURN_GRID.len() * 3);
        let scenarios: std::collections::BTreeSet<&str> =
            t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(
            scenarios.len() >= 3,
            "need at least 3 distinct churn scenarios, got {scenarios:?}"
        );
        for row in &t.rows {
            let events: usize = row[3].parse().unwrap();
            assert!(events > 0, "churn row without capacity events: {row:?}");
        }
        // Churn must actually displace work somewhere in the grid —
        // otherwise the re-dispatch path went untested.
        let total_redisp: u64 = t.rows.iter().map(|r| r[7].parse::<u64>().unwrap()).sum();
        assert!(total_redisp > 0, "no re-dispatches across the churn grid");
        // Determinism: a second run reproduces the table byte-for-byte.
        let again = run(true);
        assert_eq!(t.rows, again[1].rows, "churn table must be deterministic");
    }

    #[test]
    fn affinity_scenarios_exercise_ineligible_rejections() {
        let tables = run(true);
        let mut affinity_inelig = 0usize;
        for row in &tables[0].rows {
            let inelig: usize = row[5].parse().unwrap();
            if row[0].ends_with("-affinity") {
                affinity_inelig += inelig;
            } else {
                assert_eq!(inelig, 0, "{row:?}");
            }
        }
        assert!(
            affinity_inelig > 0,
            "affinity drop_prob must produce ineligible arrivals"
        );
    }
}
