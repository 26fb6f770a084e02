//! # osr-bench — experiment harness
//!
//! One module per experiment from DESIGN.md §3; each produces a
//! [`table::Table`] that prints aligned to the console and serializes
//! to CSV. `src/bin/run_experiments.rs` runs them all and writes the
//! CSVs into `results/`; `run_experiments [--quick] <id>` runs one.
//!
//! All experiments run in **quick** mode (seconds, used by integration
//! tests and CI) or **full** mode (the numbers recorded in
//! EXPERIMENTS.md).
//!
//! ## Parallelism and determinism
//!
//! Each experiment's replicate cross product (seeds × instances ×
//! policies) fans out over a rayon worker pool; `run_experiments
//! --jobs N` sets the worker count. Output is **byte-identical for any
//! `N`** — every replicate derives its RNG stream from its own explicit
//! seed and results are collected in input order (see
//! [`experiments`] for the full contract; `scale`, which measures
//! wall-clock, is the one deliberately-serial exception). CI pins this
//! with a `--jobs 1` vs `--jobs 8` CSV diff, and the
//! `parallel_determinism` integration test does the same in-process.
//!
//! ## Perf baselines
//!
//! The Criterion suites under `benches/` track the dispatch hot path
//! (`dstruct_ablation`, `dispatch_scaling`), the sharded driver
//! (`epoch_shard`) and the journaled serve loop (`serve_journal`).
//! `src/bin/bench_summary.rs` runs the dispatch suites
//! and distills `BENCH_dispatch.json`; BENCH.md explains how to record
//! a new baseline and keeps the narrative history.

// Stylistic lints intentionally not followed:
// - `needless_range_loop`: machine loops index several parallel state
//   arrays; iterator zips would obscure the shared index.
// - `neg_cmp_op_on_partial_ord`: `!(x > 0.0)` deliberately treats NaN as
//   invalid in parameter validation.
#![allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::{fmt_g4, Table};

/// An experiment entry point: `quick` flag in, result tables out.
pub type ExperimentFn = fn(bool) -> Vec<Table>;

/// Experiment registry: `(id, description, runner)`.
pub fn all_experiments() -> Vec<(&'static str, &'static str, ExperimentFn)> {
    vec![
        (
            "t1_ratio",
            "Theorem 1: competitive ratio and rejection budget vs eps",
            experiments::t1_ratio::run,
        ),
        (
            "t1_exact",
            "Theorem 1: ratio against exact OPT on tiny instances",
            experiments::t1_exact::run,
        ),
        (
            "t1_baselines",
            "Theorem 1 vs no-rejection and speed-augmentation baselines",
            experiments::t1_baselines::run,
        ),
        (
            "l1_immediate",
            "Lemma 1: immediate rejection blows up as sqrt(Delta)",
            experiments::l1_immediate::run,
        ),
        (
            "t2_ratio",
            "Theorem 2: weighted flow + energy ratio and weight budget",
            experiments::t2_ratio::run,
        ),
        (
            "t3_ratio",
            "Theorem 3: energy ratio vs alpha^alpha, AVR comparison",
            experiments::t3_ratio::run,
        ),
        (
            "l2_energy",
            "Lemma 2: adaptive adversary forces (alpha/9)^alpha growth",
            experiments::l2_energy::run,
        ),
        (
            "smoothness",
            "Definition 1: randomized audit of the smooth inequality",
            experiments::smoothness::run,
        ),
        (
            "dual_feasibility",
            "Lemmas 4 & 6: runtime dual-constraint audits",
            experiments::dual_feasibility::run,
        ),
        (
            "rule_ablation",
            "Ablation: Rule 1 / Rule 2 marginal value",
            experiments::rule_ablation::run,
        ),
        (
            "load_sweep",
            "Behaviour across offered load: rejection keeps overload stable",
            experiments::load_sweep::run,
        ),
        (
            "scale",
            "Wall-clock scalability and treap-vs-naive queue ablation",
            experiments::scale::run,
        ),
        (
            "m_scale",
            "Dispatch-index ablation across machine counts (pruned vs linear)",
            experiments::m_scale::run,
        ),
        (
            "workload_sweep",
            "Scenario grid (arrivals x sizes x machines) across the full policy lineup",
            experiments::workload_sweep::run,
        ),
    ]
}
