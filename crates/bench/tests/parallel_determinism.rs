//! End-to-end check of the parallel-harness determinism contract: for
//! any `--jobs` value the experiment tables (and hence the CSV
//! artifacts) are byte-identical, because every replicate is
//! self-seeded and results are collected in input order.
//!
//! `scale` is exempt (wall-clock columns) and excluded here.

use osr_bench::Table;
use osr_core::SchedulerConfig;

fn csv_dump(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::to_csv)
        .collect::<Vec<_>>()
        .join("\n---\n")
}

fn with_jobs(n: usize) -> Result<(), Box<dyn std::error::Error>> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()?;
    Ok(())
}

#[test]
fn quick_tables_are_byte_identical_across_worker_counts() {
    // The timing-exempt experiment aside, every experiment must honor
    // the contract; run the cheapest representative subset covering all
    // fan-out shapes (seeds, cross products, workloads, sweeps).
    // `m_scale` is covered through its quick-mode fingerprint table
    // (its timing table exists only in full mode, precisely so the
    // quick output stays byte-identical here and in the CI diffs).
    let subset = [
        "t1_ratio",
        "dual_feasibility",
        "load_sweep",
        "rule_ablation",
        "m_scale",
    ];
    let experiments: Vec<_> = osr_bench::all_experiments()
        .into_iter()
        .filter(|(id, _, _)| subset.contains(id))
        .collect();
    assert_eq!(
        experiments.len(),
        subset.len(),
        "experiment registry changed"
    );

    with_jobs(1).unwrap();
    let serial: Vec<String> = experiments
        .iter()
        .map(|(_, _, run)| csv_dump(&run(true, SchedulerConfig::production())))
        .collect();

    for jobs in [2, 8] {
        with_jobs(jobs).unwrap();
        for ((id, _, run), expected) in experiments.iter().zip(&serial) {
            let parallel = csv_dump(&run(true, SchedulerConfig::production()));
            assert_eq!(
                &parallel, expected,
                "{id}: --jobs {jobs} output diverged from serial"
            );
        }
    }

    // Leave the pool on auto for whatever test runs next in-process.
    with_jobs(0).unwrap();
}
