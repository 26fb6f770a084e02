//! Kill–recover–diff proptests for the write-ahead event journal: a
//! serve session killed after a random prefix of an 80+-event churn
//! stream (arrive / join / drain / crash / advance), recovered by
//! replaying the journal (+ snapshot cross-check), and fed the rest of
//! the stream must finish with a log **byte-identical** to the
//! uninterrupted run — for all three schedulers, and with the
//! result-neutral execution knobs (`shards {1,4}` ×
//! `kernels {chunked,scalar}`) *flipped* between the crashed run and
//! the recovery, pinning "recovery is replay" and "sharding/kernels are
//! pure execution strategy" in one stroke.
//!
//! The streams deliberately include events the session rejects
//! (wrong-arity size rows, out-of-range capacity targets): write-ahead
//! journaling keeps those records, and replay must reproduce each
//! rejection deterministically without drifting the cursor. The
//! crashed and the recovered run feed the stream in batches of
//! proptest-chosen lengths through `ServeSession::apply`, so batches
//! mix arrivals, capacity events, advances and rejected events; the
//! oracle takes one event per call.

use osr_core::flowtime::WeightedFlowParams;
use osr_core::journal::parse_record;
use osr_core::{
    fingerprint, Arrival, EnergyFlowParams, EnergyFlowSession, Event, FlowParams, FlowSession,
    JournaledSession, KernelMode, ServeSession, WeightedFlowSession,
};
use osr_model::io::log_to_string;
use osr_sim::{failpoint, CapacityChange};
use proptest::prelude::*;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests' journal appends: the fsync-count test arms the
/// process-wide `pre-fsync` failpoint, which any concurrent append
/// would hit.
fn journal_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// SplitMix64 — the repo's deterministic test-stream generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Generates `n` events over `m` machines: mostly arrivals (finite on a
/// pseudo-random non-empty machine subset), a sprinkling of capacity
/// churn and advances, and occasional *invalid* events (wrong-arity
/// size rows, out-of-range machines) that every session rejects
/// deterministically.
fn gen_events(seed: u64, n: usize, m: usize) -> Vec<Event> {
    let mut t = 0.0_f64;
    let mut events = Vec::with_capacity(n);
    for k in 0..n {
        let r = mix(seed ^ (k as u64).wrapping_mul(0xA24BAED4963EE407));
        t += (r >> 8 & 0xFF) as f64 / 200.0;
        match r % 16 {
            0 | 1 => {
                let change = match r >> 32 & 3 {
                    0 => CapacityChange::Drain,
                    1 => CapacityChange::Crash,
                    _ => CapacityChange::Join,
                };
                events.push(Event::Capacity {
                    change,
                    machine: (r >> 16) as usize % m,
                    time: t,
                });
            }
            2 => events.push(Event::Advance { time: t }),
            3 => {
                // Deterministically rejected: one size too many.
                events.push(Event::Arrive(Arrival {
                    release: t,
                    weight: 1.0,
                    sizes: vec![1.0; m + 1].into(),
                }));
            }
            4 => {
                // Deterministically rejected: machine out of range.
                events.push(Event::Capacity {
                    change: CapacityChange::Drain,
                    machine: m + (r >> 16) as usize % 3,
                    time: t,
                });
            }
            _ => {
                let sizes: Vec<f64> = (0..m)
                    .map(|i| {
                        let s = mix(r ^ ((i as u64) << 32));
                        if s & 3 == 0 {
                            f64::INFINITY
                        } else {
                            0.5 + (s % 1000) as f64 / 250.0
                        }
                    })
                    .collect();
                let mut sizes = sizes;
                let forced = (r >> 40) as usize % m;
                if sizes[forced].is_infinite() {
                    sizes[forced] = 1.0 + (r % 100) as f64 / 50.0;
                }
                events.push(Event::Arrive(Arrival {
                    release: t,
                    weight: 1.0 + (r >> 24 & 7) as f64,
                    sizes: sizes.into(),
                }));
            }
        }
    }
    events
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Algo {
    Flow,
    WFlow,
    EnergyFlow,
}

const ALGOS: [Algo; 3] = [Algo::Flow, Algo::WFlow, Algo::EnergyFlow];

impl Algo {
    /// The CLI spec string the journal fingerprint is derived from.
    fn spec(self) -> &'static str {
        match self {
            Algo::Flow => "flow:0.25",
            Algo::WFlow => "wflow:0.25",
            Algo::EnergyFlow => "energyflow:0.25:2",
        }
    }
}

/// The result-neutral execution-knob grid the contract must hold over.
const COMBOS: [(usize, KernelMode); 4] = [
    (1, KernelMode::Scalar),
    (1, KernelMode::Chunked),
    (4, KernelMode::Scalar),
    (4, KernelMode::Chunked),
];

fn build(algo: Algo, m: usize, shards: usize, kernels: KernelMode) -> Box<dyn ServeSession> {
    match algo {
        Algo::Flow => {
            let mut p = FlowParams::new(0.25);
            p.shards = shards;
            p.kernels = kernels;
            Box::new(FlowSession::new(p, m).expect("valid params"))
        }
        Algo::WFlow => {
            let mut p = WeightedFlowParams::new(0.25);
            p.shards = shards;
            p.kernels = kernels;
            Box::new(WeightedFlowSession::new(p, m).expect("valid params"))
        }
        Algo::EnergyFlow => {
            let mut p = EnergyFlowParams::new(0.25, 2.0);
            p.shards = shards;
            p.kernels = kernels;
            Box::new(EnergyFlowSession::new(p, m).expect("valid params"))
        }
    }
}

/// Feeds events through [`ServeSession::apply`] in batches whose
/// lengths cycle through `batches` (each at least 1; `&[1]` is one
/// event per call), resubmitting the tail after each rejection.
/// Returns how many events the session rejected (rejections leave
/// state untouched and must reproduce identically on replay).
fn feed(sess: &mut dyn ServeSession, events: &[Event], batches: &[usize]) -> usize {
    let mut rejected = 0;
    let mut rest = events;
    for &len in batches.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at(len.min(rest.len()));
        let mut batch = now.to_vec();
        while sess.apply(&mut batch).is_err() {
            rejected += 1;
        }
        rest = later;
    }
    rejected
}

/// The uninterrupted-run oracle: same events, one per call, no journal,
/// serial scalar execution, finished to bytes.
fn oracle(algo: Algo, m: usize, events: &[Event]) -> String {
    let mut sess = build(algo, m, 1, KernelMode::Scalar);
    feed(sess.as_mut(), events, &[1]);
    log_to_string(&sess.finish().expect("oracle finish"))
}

static SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "osr-jrec-{tag}-{}-{}.journal",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    let mut snap = path.as_os_str().to_owned();
    snap.push(".snap");
    std::fs::remove_file(PathBuf::from(snap)).ok();
}

/// One full kill–recover cycle:
///
/// 1. journal a fresh session (knob combo `a`) through `events[..cut]`,
///    fed in `batches`, and drop it without `finish` — the simulated
///    crash;
/// 2. optionally append a torn half-record to the journal tail;
/// 3. recover into a fresh session with knob combo `b`, asserting the
///    replay reproduced every pre-crash rejection;
/// 4. feed `events[cut..]` in `batches` and finish — the caller diffs
///    the bytes against the uninterrupted oracle;
/// 5. re-recover the now-complete journal into yet another fresh
///    session and finish immediately — same bytes again.
#[allow(clippy::too_many_arguments)] // a test harness, not an API
fn kill_recover(
    algo: Algo,
    m: usize,
    events: &[Event],
    cut: usize,
    a: (usize, KernelMode),
    b: (usize, KernelMode),
    snap_every: u64,
    torn_tail: bool,
    batches: &[usize],
    tag: &str,
) -> Result<(String, String), String> {
    let _journal = journal_lock();
    let path = tmp_journal(tag);
    cleanup(&path);
    let fp = fingerprint(algo.spec(), m, &[]);

    let rejected_before_crash = {
        let inner = build(algo, m, a.0, a.1);
        let mut js = JournaledSession::create(inner, &path, fp, snap_every)?;
        feed(&mut js, &events[..cut], batches)
        // Dropped without finish: the crash. Every accepted event was
        // journaled and fsynced before it mutated state.
    };

    if torn_tail {
        // A record the writer died inside: no checksum, no newline.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| e.to_string())?;
        f.write_all(b"arrive 9999 @17.25 w=3 1 2")
            .map_err(|e| e.to_string())?;
    }

    let inner = build(algo, m, b.0, b.1);
    let (mut js, report, _warnings) = JournaledSession::recover(inner, &path, fp, snap_every)?;
    if report.rejected_replays != rejected_before_crash {
        return Err(format!(
            "replay reproduced {} rejection(s), original run had {}",
            report.rejected_replays, rejected_before_crash
        ));
    }
    if torn_tail && report.dropped_torn != 1 {
        return Err(format!(
            "expected the torn tail record to be dropped, got {}",
            report.dropped_torn
        ));
    }
    feed(&mut js, &events[cut..], batches);
    let recovered = log_to_string(&Box::new(js).finish()?);

    // The journal now mirrors the complete stream: recovering it again
    // and finishing immediately must reproduce the same bytes.
    let inner = build(algo, m, a.0, a.1);
    let (js, report2, _warnings) = JournaledSession::recover(inner, &path, fp, snap_every)?;
    if !report2.snapshot_checked {
        return Err("finish() must leave a snapshot sidecar to cross-check".into());
    }
    let replayed = log_to_string(&Box::new(js).finish()?);
    cleanup(&path);
    Ok((recovered, replayed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill after a random prefix fed in random-length mixed batches,
    /// recover under flipped execution knobs, finish the stream — bytes
    /// must match the uninterrupted one-event-per-call run for all
    /// three schedulers. Half the cases also tear the journal tail.
    #[test]
    fn kill_recover_diff_is_byte_identical(
        seed in proptest::arbitrary::any::<u64>(),
        cut_frac in 0.0..1.0f64,
        combo in 0usize..COMBOS.len(),
        torn in proptest::arbitrary::any::<bool>(),
        batches in prop::collection::vec(1usize..16, 1..5),
    ) {
        let m = 65; // one rack plus one: 4 requested shards engage 2
        let events = gen_events(seed, 84, m);
        let cut = 1 + (cut_frac * (events.len() - 2) as f64) as usize;
        let crash_knobs = COMBOS[combo];
        let recover_knobs = COMBOS[COMBOS.len() - 1 - combo];
        for algo in ALGOS {
            let want = oracle(algo, m, &events);
            let (recovered, replayed) = kill_recover(
                algo, m, &events, cut, crash_knobs, recover_knobs,
                7, torn, &batches, "prop",
            ).unwrap_or_else(|e| panic!("{algo:?}: {e}"));
            prop_assert_eq!(
                &recovered, &want,
                "{:?}: recovered run diverged (cut={}, crash={:?}, recover={:?}, torn={})",
                algo, cut, crash_knobs, recover_knobs, torn
            );
            prop_assert_eq!(
                &replayed, &want,
                "{:?}: full-journal replay diverged (cut={})", algo, cut
            );
        }
    }
}

/// Deterministic multi-rack case: m=130 (three shard-able racks), every
/// knob combo on the recovery side, cuts at the start, middle, and last
/// event of the stream, with the snapshot cadence tight enough that
/// several snapshots land before the kill.
#[test]
fn kill_recover_diff_across_every_knob_combo_m130() {
    let m = 130;
    let events = gen_events(0xD15A57E12EC0, 96, m);
    for algo in ALGOS {
        let want = oracle(algo, m, &events);
        for (i, &knobs) in COMBOS.iter().enumerate() {
            let cut = [1, events.len() / 2, events.len() - 1][i % 3];
            let (recovered, replayed) = kill_recover(
                algo,
                m,
                &events,
                cut,
                COMBOS[COMBOS.len() - 1 - i],
                knobs,
                5,
                i % 2 == 1,
                &[3, 1, 8, 2],
                "m130",
            )
            .unwrap_or_else(|e| panic!("{algo:?} knobs {knobs:?}: {e}"));
            assert_eq!(
                recovered, want,
                "{algo:?}: recovery under knobs {knobs:?} (cut {cut}) diverged"
            );
            assert_eq!(replayed, want, "{algo:?}: full replay diverged");
        }
    }
}

/// Recovering under a *different* configuration (fingerprint drift)
/// must be refused — flipping `shards`/`kernels` is allowed, but
/// the algorithm spec and machine count are load-bearing.
#[test]
fn recovery_refuses_a_configuration_change() {
    let m = 6;
    let events = gen_events(0xBAD5EED, 20, m);
    let path = tmp_journal("fpdrift");
    cleanup(&path);
    let fp = fingerprint(Algo::Flow.spec(), m, &[]);
    {
        let inner = build(Algo::Flow, m, 1, KernelMode::Scalar);
        let _journal = journal_lock();
        let mut js = JournaledSession::create(inner, &path, fp, 0).unwrap();
        feed(&mut js, &events, &[5]);
    }
    let wrong = fingerprint(Algo::WFlow.spec(), m, &[]);
    let err = JournaledSession::recover(
        build(Algo::WFlow, m, 1, KernelMode::Scalar),
        &path,
        wrong,
        0,
    )
    .err()
    .expect("fingerprint drift must refuse recovery");
    assert!(
        err.contains("different configuration"),
        "unhelpful refusal: {err}"
    );
    cleanup(&path);
}

/// Group commit: a burst that mixes arrivals with capacity and advance
/// events goes to disk as one write and one fsync, counted here by the
/// hits of the `pre-fsync` failpoint armed at its second hit.
#[test]
fn a_mixed_burst_costs_one_fsync() {
    let m = 4;
    let mut burst: Vec<Event> = [
        "arrive 0 @0 w=1 1 2 3 4",
        "arrive 1 @0.5 w=1 1 2 3 4",
        "drain 1 @0.75",
        "advance 1",
        "arrive 2 @1 w=2 m=4 0:1 3:4",
        "join 1 @1.5",
        "arrive 3 @2 w=1 1 2 3 4",
    ]
    .iter()
    .map(|line| parse_record(line).unwrap().into_event().1)
    .collect();
    let path = tmp_journal("fsync");
    cleanup(&path);
    let fp = fingerprint(Algo::Flow.spec(), m, &[]);
    let _journal = journal_lock();
    let inner = build(Algo::Flow, m, 1, KernelMode::Scalar);
    let mut js = JournaledSession::create(inner, &path, fp, 0).unwrap();
    failpoint::arm("pre-fsync:2:error").unwrap();
    let first = js.apply(&mut burst);
    let second = js.apply(&mut vec![Event::Advance { time: 3.0 }]);
    failpoint::disarm();
    first.expect("the whole burst is the first fsync");
    let (k, e) = second.expect_err("the next apply is the second fsync");
    assert_eq!(k, 0);
    assert!(failpoint::is_failpoint_error(&e), "{e}");
    assert_eq!(js.cursor(), (4, 2.0));
    drop(js);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text.lines().count(),
        8,
        "header and the seven burst records"
    );
    cleanup(&path);
}
