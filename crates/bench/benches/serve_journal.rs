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

use criterion::{criterion_group, criterion_main, Criterion};
use osr_core::{
    fingerprint, Arrival, Event, FlowParams, FlowSession, JournaledSession, ServeSession,
};
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

criterion_group!(benches, serve_journal);
criterion_main!(benches);
