//! SERVE-JOURNAL (PR 10): the write-ahead journal's per-event cost on
//! the serve ingest path, isolated from network and parser overhead.
//!
//! Both benches drive the same 64-arrival / 8-advance stream through a
//! `FlowSession` (m = 6, the CI serve fixture's scale) and finish it;
//! `replay_journaled_m6` wraps the session in [`JournaledSession`], so
//! the delta is exactly the durability tax: one encoded record + one
//! buffered write + **one fsync per ingest call**, plus the cadence-32
//! snapshot sidecar. The fsync dominates and is environment-dependent
//! (tmpfs vs disk vs container overlay), so the recorded ratio is a
//! coarse trajectory row, not a precise constant — bench_check gates it
//! with the widened 50% tolerance and the honest framing in BENCH.md.
//!
//! `dense_line_parse` explains the protocol-parse layer of servebench's
//! `dense-m1024` workload: one arrive line of m = 1 024 sizes from the
//! same scenario (`poisson-pareto-unrelated`, seed 1), through
//! [`journal::parse_line`] as `osr serve`'s producer thread reads it.
//! `decimal` is the line as clients send it (shortest round-trip
//! decimals); `hex` is the same row as the journal writes it (`x` + 16
//! hex digits per size), which recovery reads.
//!
//! `recover_dense` is the restart of servebench's `dense-m1024`
//! workload in process: [`Journal::recover`] plus [`journal::replay`]
//! into a fresh `flow:0.25` session, on a journal of the scenario's
//! first 1 000 arrivals at m = 1 024 (≈18 MB of hex rows). It is a
//! trajectory row, not a gated ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use osr_core::{
    fingerprint, journal, Arrival, Event, FlowParams, FlowSession, Journal, JournaledSession,
    ServeSession,
};
use osr_model::InstanceKind;
use osr_sim::CapacityPlan;
use osr_workload::Scenario;
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 — deterministic job sizes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

const M: usize = 6;

/// Feeds 8 batches of 8 arrivals (with an advance after each batch)
/// and finishes the session, returning the log length as the
/// optimizer-proof result.
fn drive(mut sess: Box<dyn ServeSession>) -> usize {
    let mut t = 0.0_f64;
    for batch_i in 0..8u64 {
        let batch: Vec<Arrival> = (0..8u64)
            .map(|k| {
                let r = mix(batch_i * 8 + k);
                t += (r & 0xFF) as f64 / 512.0;
                Arrival {
                    release: t,
                    weight: 1.0 + (r >> 8 & 3) as f64,
                    sizes: (0..M)
                        .map(|i| 0.5 + (mix(r ^ (i as u64) << 32) % 500) as f64 / 125.0)
                        .collect(),
                }
            })
            .collect();
        sess.arrive_batch(batch).expect("valid batch");
        sess.apply(&mut vec![Event::Advance { time: t }])
            .expect("monotone advance");
    }
    sess.finish().expect("finish").len()
}

fn serve_journal(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_journal");
    group.bench_function("replay_plain_m6", |b| {
        b.iter(|| {
            drive(Box::new(
                FlowSession::new(FlowParams::new(0.25), M).expect("valid params"),
            ))
        })
    });
    static SEQ: AtomicU64 = AtomicU64::new(0);
    group.bench_function("replay_journaled_m6", |b| {
        b.iter(|| {
            let path = std::env::temp_dir().join(format!(
                "osr-bench-journal-{}-{}.journal",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let inner = Box::new(FlowSession::new(FlowParams::new(0.25), M).expect("valid params"));
            let js = JournaledSession::create(inner, &path, fingerprint("flow:0.25", M, &[]), 32)
                .expect("fresh journal");
            let n = drive(Box::new(js));
            let mut snap = path.as_os_str().to_owned();
            snap.push(".snap");
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(std::path::PathBuf::from(snap)).ok();
            n
        })
    });
    group.finish();
}

/// The first arrive line of the `dense-m1024` scenario at seed 1, in
/// the decimal form a client sends and the hex form the journal keeps.
fn dense_lines() -> (String, String) {
    const M: usize = 1_024;
    let inst = Scenario::named("poisson-pareto-unrelated", 1, M, 1)
        .expect("known scenario")
        .generate(InstanceKind::FlowTime);
    let (script, _) =
        osr_workload::serve_script(&inst, &CapacityPlan::empty()).expect("servable instance");
    let decimal = script
        .lines()
        .find(|l| l.starts_with("arrive "))
        .expect("one arrival")
        .to_string();
    let job = &inst.jobs()[0];
    let hex = journal::encode_arrive(0, job.release, job.weight, &job.sizes);
    (decimal, hex)
}

fn dense_line_parse(c: &mut Criterion) {
    let (decimal, hex) = dense_lines();
    let mut group = c.benchmark_group("dense_line_parse");
    for (name, line) in [("decimal_m1024", &decimal), ("hex_m1024", &hex)] {
        group.bench_function(name, |b| {
            b.iter(|| journal::parse_line(std::hint::black_box(line)).expect("valid line"))
        });
    }
    group.finish();
}

/// A journal of the first `n` arrivals of the `dense-m1024` scenario
/// (seed 1), written as one batch, at `path`; returns its fingerprint.
fn dense_journal(path: &std::path::Path, n: usize) -> u64 {
    const M: usize = 1_024;
    let inst = Scenario::named("poisson-pareto-unrelated", n, M, 1)
        .expect("known scenario")
        .generate(InstanceKind::FlowTime);
    let bodies: Vec<String> = inst
        .jobs()
        .iter()
        .enumerate()
        .map(|(id, job)| journal::encode_arrive(id, job.release, job.weight, &job.sizes))
        .collect();
    let fp = fingerprint("flow:0.25", M, &[]);
    let mut j = Journal::create(path, fp, 0).expect("fresh journal");
    j.append_batch(&bodies).expect("append");
    fp
}

fn recover_dense(c: &mut Criterion) {
    const N: usize = 1_000;
    let dir = std::env::temp_dir().join(format!("osr-bench-recover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("dense.journal");
    let fp = dense_journal(&path, N);
    let mut group = c.benchmark_group("recover_dense");
    group.bench_function("flow_m1024/1000", |b| {
        b.iter(|| {
            let rec = Journal::recover(&path, fp, 0).expect("clean journal");
            let mut sess = FlowSession::new(FlowParams::new(0.25), 1_024).expect("valid params");
            journal::replay(&mut sess, &rec.records, None)
                .expect("replays")
                .next_id
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, serve_journal, dense_line_parse, recover_dense);
criterion_main!(benches);
