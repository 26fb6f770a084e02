//! EXP-RULES — ablation of the two rejection rules.
//!
//! The paper motivates Rule 1 (bursts arriving behind a long job) and
//! Rule 2 (a surrogate for speed augmentation that keeps queues
//! draining) separately. This experiment runs the §2 algorithm with
//! each subset of rules on workloads designed to stress each mechanism
//! and reports flow ratios (vs the both-rules certified LB) and
//! rejection usage.

use osr_baselines::flow_lower_bound;
use osr_core::{FlowParams, FlowScheduler, SchedulerConfig};
use osr_model::{Instance, InstanceKind};
use osr_sim::ValidationConfig;
use osr_workload::adversarial::long_job_trap;
use osr_workload::{ArrivalSpec, FlowWorkload, SizeSpec};

use super::{flow, must_validate, par_replicates};
use crate::table::{fmt_g4, Table};

fn workloads(quick: bool) -> Vec<(String, Instance)> {
    let n = if quick { 250 } else { 1200 };
    let mut out = Vec::new();
    // Rule-1 bait: rare huge jobs + steady small traffic.
    let mut heavy = FlowWorkload::standard(n, 2, 31);
    heavy.sizes = SizeSpec::Bimodal {
        short: 1.0,
        long: 150.0,
        p_long: 0.04,
    };
    out.push(("heavy-tail".into(), heavy.generate(InstanceKind::FlowTime)));
    // Rule-2 bait: overload bursts where the queue itself is the
    // problem.
    let mut burst = FlowWorkload::standard(n, 2, 32);
    burst.arrivals = ArrivalSpec::Bursty {
        burst: 60,
        within: 0.01,
        gap: 20.0,
    };
    burst.sizes = SizeSpec::Uniform { lo: 1.0, hi: 12.0 };
    out.push((
        "overload-burst".into(),
        burst.generate(InstanceKind::FlowTime),
    ));
    out.push((
        "long-job-trap".into(),
        long_job_trap(
            if quick { 60.0 } else { 250.0 },
            if quick { 120 } else { 500 },
            0.5,
        ),
    ));
    out
}

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let eps = 0.25;
    let configs: [(&str, bool, bool); 4] = [
        ("both", true, true),
        ("rule1-only", true, false),
        ("rule2-only", false, true),
        ("none", false, false),
    ];

    let mut table = Table::new(
        "EXP-RULES: rejection-rule ablation",
        &["workload", "rules", "flow_ratio", "rejected", "rej_frac"],
    );
    table.note(format!(
        "eps = {eps}; flow_ratio = flow_all / certified LB of the both-rules run"
    ));

    // Workloads fan out; the four rule configurations of one workload
    // share its certified LB, so they stay grouped in one replicate.
    for rows in par_replicates(workloads(quick), |(name, inst)| {
        // Certified LB from the canonical (both-rules) run.
        let canonical = flow(eps, config).run(&inst);
        let lb = flow_lower_bound(&inst, Some(canonical.dual.objective())).value;

        configs
            .iter()
            .map(|&(label, r1, r2)| {
                let sched = FlowScheduler::new(FlowParams {
                    config,
                    ..FlowParams::with_rules(eps, r1, r2)
                })
                .unwrap();
                let out = sched.run(&inst);
                let m = must_validate("rules", &inst, &out.log, &ValidationConfig::flow_time());
                vec![
                    name.clone(),
                    label.to_string(),
                    fmt_g4(m.flow.flow_all / lb),
                    m.flow.rejected.to_string(),
                    fmt_g4(m.flow.rejected_fraction()),
                ]
            })
            .collect::<Vec<_>>()
    }) {
        for row in rows {
            table.row(row);
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_rules_never_lose_badly_and_help_on_the_trap() {
        let tables = run(true, SchedulerConfig::production());
        let t = &tables[0];
        let get = |workload: &str, rules: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == workload && r[1] == rules)
                .unwrap_or_else(|| panic!("missing {workload}/{rules}"))[2]
                .parse()
                .unwrap()
        };
        // On the long-job trap, having Rule 1 must beat having no rules.
        let both = get("long-job-trap", "both");
        let none = get("long-job-trap", "none");
        assert!(
            both < none,
            "rules must help on the trap: both={both} none={none}"
        );
        // rule1-only also beats none there (it is the trap-specific rule).
        let r1 = get("long-job-trap", "rule1-only");
        assert!(r1 < none, "rule1 must help on the trap: {r1} vs {none}");
    }

    #[test]
    fn disabled_rules_reject_nothing() {
        let tables = run(true, SchedulerConfig::production());
        for row in &tables[0].rows {
            if row[1] == "none" {
                assert_eq!(row[3], "0");
            }
        }
    }
}
