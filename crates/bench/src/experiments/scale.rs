//! EXP-SCALE — wall-clock scalability of the §2 dispatcher and the
//! treap-vs-naive queue ablation, as a table (the Criterion benches
//! `dispatch_scaling` / `dstruct_ablation` give the rigorous version;
//! this one runs in seconds and lands in the CSV artifacts).
//!
//! Deliberately **serial**: these rows are wall-clock measurements, and
//! fanning them out across the rayon pool would have replicates contend
//! for cores and corrupt each other's timings. (Its CSV is also the one
//! artifact exempt from the byte-identical `--jobs` contract — timing
//! columns vary run to run regardless.)

use std::time::Instant;

use osr_core::{FlowParams, FlowScheduler, QueueBackend, SchedulerConfig};
use osr_model::InstanceKind;
use osr_workload::{ArrivalSpec, FlowWorkload};

use crate::table::{fmt_g4, Table};

fn time_run(inst: &osr_model::Instance, config: SchedulerConfig, backend: QueueBackend) -> f64 {
    let mut params = FlowParams {
        config,
        ..FlowParams::new(0.25)
    };
    params.backend = backend;
    let sched = FlowScheduler::new(params).unwrap();
    // Warm-up, then a timed repetition.
    let _ = sched.run(inst);
    let t0 = Instant::now();
    let out = sched.run(inst);
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(out.log.rejected_count());
    dt
}

/// Runs the experiment.
pub fn run(quick: bool, config: SchedulerConfig) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[1_000, 5_000]
    } else {
        &[1_000, 5_000, 20_000, 100_000]
    };

    let mut scaling = Table::new(
        "EXP-SCALE: section-2 scheduler throughput vs n (8 machines)",
        &["n", "seconds", "jobs_per_sec"],
    );
    for &n in sizes {
        let inst = FlowWorkload::standard(n, 8, 42).generate(InstanceKind::FlowTime);
        let dt = time_run(&inst, config, QueueBackend::Treap);
        scaling.row(vec![n.to_string(), fmt_g4(dt), fmt_g4(n as f64 / dt)]);
    }

    let mut ablation = Table::new(
        "EXP-SCALE: treap vs naive queue on deep single-machine queues",
        &["n", "treap_s", "naive_s", "speedup"],
    );
    ablation.note("single machine, batched arrivals → queue length Θ(n); backends produce identical schedules");
    let ab_sizes: &[usize] = if quick {
        &[2_000]
    } else {
        &[2_000, 10_000, 40_000]
    };
    for &n in ab_sizes {
        let mut w = FlowWorkload::standard(n, 1, 7);
        w.arrivals = ArrivalSpec::Batch {
            per_batch: n / 4,
            gap: 5.0,
        };
        let inst = w.generate(InstanceKind::FlowTime);
        let t_treap = time_run(&inst, config, QueueBackend::Treap);
        let t_naive = time_run(&inst, config, QueueBackend::Naive);
        ablation.row(vec![
            n.to_string(),
            fmt_g4(t_treap),
            fmt_g4(t_naive),
            fmt_g4(t_naive / t_treap),
        ]);
    }

    vec![scaling, ablation]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_runs_and_reports_throughput() {
        let tables = run(true, SchedulerConfig::production());
        assert_eq!(tables.len(), 2);
        for row in &tables[0].rows {
            let jps: f64 = row[2].parse().unwrap();
            assert!(jps > 1000.0, "implausibly slow: {row:?}");
        }
        // Timing ratios are noisy in CI; just require both columns to
        // be positive.
        for row in &tables[1].rows {
            let a: f64 = row[1].parse().unwrap();
            let b: f64 = row[2].parse().unwrap();
            assert!(a > 0.0 && b > 0.0);
        }
    }
}
