//! The reference-equivalence diff: every experiment table (quick mode)
//! must come out byte-identical under the production configuration and
//! under each reference configuration.
//!
//! Every knob of [`SchedulerConfig`] is result-neutral, so the whole
//! experiment suite is a differential test of the fast paths against
//! their references: the treap queue against the naive one, lazy
//! ancestor repair against eager, incremental capacity maintenance
//! against the rebuild-from-scratch index, and the pruned index
//! against the linear scan.
//! [`SchedulerConfig::reference`] keeps `Pruned` dispatch, because a
//! `Linear` run builds no index and would never reach the eager or
//! rebuild paths; `Linear` is a separate case on top of it.
//!
//! Every experiment takes its configuration as an argument, so the
//! runs share no process state. `scale` is excluded because its rows
//! are wall-clock measurements.

use osr_bench::Table;
use osr_core::{DispatchIndex, SchedulerConfig};

fn csv_dump(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::to_csv)
        .collect::<Vec<_>>()
        .join("\n---\n")
}

/// Every quick-mode experiment but `scale`, as `(id, csv)` pairs, run
/// under `config`.
fn suite_under(config: SchedulerConfig) -> Vec<(&'static str, String)> {
    osr_bench::all_experiments()
        .into_iter()
        .filter(|(id, _, _)| *id != "scale")
        .map(|(id, _, run)| (id, csv_dump(&run(true, config))))
        .collect()
}

#[test]
fn experiment_suite_is_byte_identical_under_every_reference_config() {
    let production = suite_under(SchedulerConfig::production());
    assert!(production.len() >= 10, "experiment registry shrank");
    let reference = SchedulerConfig::reference();
    let cases = [
        ("reference", reference),
        (
            "reference + linear dispatch",
            SchedulerConfig {
                dispatch: DispatchIndex::Linear,
                ..reference
            },
        ),
    ];
    for (label, config) in cases {
        let got = suite_under(config);
        for ((id, want), (_, csv)) in production.iter().zip(&got) {
            assert_eq!(csv, want, "{id}: {label} diverged from production");
        }
    }
}
