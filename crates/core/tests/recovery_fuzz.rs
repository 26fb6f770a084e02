//! Arbitrary-byte robustness of crash recovery: `Journal::recover` and
//! `JournaledSession::recover` on damaged journal files and `.snap`
//! sidecars must return an error that names what is wrong, or recover
//! a valid prefix of the stream that was written, and never panic.
//!
//! * A damaged journal (truncated, bytes flipped, garbage appended, or
//!   replaced outright) recovers records that are a prefix of the ones
//!   written, and the recovered session finishes with the log of that
//!   prefix, byte for byte; otherwise recovery fails naming the
//!   journal.
//! * A record with a valid checksum but a body that is no event fails
//!   replay with `journal record <i>: …`.
//! * A sidecar of arbitrary bytes, or a checksum-valid one with
//!   arbitrary fields, is ignored with a warning, accepted, or refused
//!   naming the snapshot or the journal.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use osr_core::journal::{fnv1a, Journal};
use osr_core::{
    fingerprint, Arrival, Event, FlowParams, FlowSession, JournaledSession, ServeSession,
};
use osr_model::io::log_to_string;
use osr_sim::CapacityChange;
use proptest::prelude::*;

const M: usize = 3;
const SPEC: &str = "flow:0.25";

fn fp() -> u64 {
    fingerprint(SPEC, M, &[])
}

fn session() -> Box<dyn ServeSession> {
    Box::new(FlowSession::new(FlowParams::new(0.25), M).expect("valid params"))
}

/// A fresh journal path for one case (the tests of one binary run on
/// several threads).
fn tmp_journal(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "osr-recovery-fuzz-{tag}-{}-{k}.journal",
        std::process::id()
    ))
}

fn snap_of(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".snap");
    PathBuf::from(os)
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(snap_of(path));
}

/// A stream of `n` events every session accepts: arrivals on rows with
/// an ineligible machine now and then, a drain and a join, and advances.
fn events(seed: u64, n: usize) -> Vec<Event> {
    let mut z = seed | 1;
    let mut next = move || {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        z
    };
    let mut t = 0.0;
    (0..n)
        .map(|k| {
            t += (next() % 100) as f64 / 50.0;
            match k % 7 {
                3 => Event::Capacity {
                    change: CapacityChange::Drain,
                    machine: 1,
                    time: t,
                },
                5 => Event::Capacity {
                    change: CapacityChange::Join,
                    machine: 1,
                    time: t,
                },
                6 => Event::Advance { time: t },
                _ => {
                    let sizes: Vec<f64> = (0..M)
                        .map(|i| match next() % 5 {
                            0 if i > 0 => f64::INFINITY,
                            r => 0.5 + r as f64,
                        })
                        .collect();
                    Event::Arrive(Arrival {
                        release: t,
                        weight: 1.0,
                        sizes: sizes.into(),
                    })
                }
            }
        })
        .collect()
}

/// The log of an uninterrupted, unjournaled run over `events`.
fn oracle(events: &[Event]) -> String {
    let mut sess = session();
    for ev in events {
        sess.apply(&mut vec![ev.clone()]).expect("events are valid");
    }
    log_to_string(&sess.finish().expect("finish"))
}

/// Journals `events` one record each (no sidecar) and returns the file
/// bytes, as a crash after the last fsync leaves them.
fn journal_bytes(path: &Path, events: &[Event]) -> Vec<u8> {
    cleanup(path);
    {
        let mut js = JournaledSession::create(session(), path, fp(), 0).expect("create");
        for ev in events {
            js.apply(&mut vec![ev.clone()]).expect("events are valid");
        }
    }
    let bytes = std::fs::read(path).expect("read journal");
    cleanup(path);
    bytes
}

/// The record bodies of a well-formed journal file.
fn bodies(bytes: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(bytes).expect("journal is ASCII");
    text.lines()
        .skip(1)
        .map(|l| l[..l.rfind(" #").expect("checksum")].to_string())
        .collect()
}

/// Applies one kind of damage to a journal file's bytes: truncation,
/// byte flips, a garbage tail, or replacement by garbage (behind the
/// real header or none).
fn damage(bytes: &[u8], mode: u8, at: f64, flips: &[(f64, u8)], junk: &[u8]) -> Vec<u8> {
    let pos = |f: f64, len: usize| ((f * len as f64) as usize).min(len.saturating_sub(1));
    let mut out = bytes.to_vec();
    match mode % 4 {
        0 => out.truncate(pos(at, bytes.len() + 1)),
        1 => {
            for &(f, x) in flips {
                let i = pos(f, out.len());
                out[i] ^= x.max(1);
            }
        }
        2 => out.extend_from_slice(junk),
        _ => {
            let header_end = bytes.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
            out.truncate(if at < 0.5 { header_end } else { 0 });
            out.extend_from_slice(junk);
        }
    }
    out
}

/// Tokens near the protocol, for record bodies that carry a valid
/// checksum but need not be events.
const TOKENS: [&str; 26] = [
    "arrive",
    "advance",
    "join",
    "drain",
    "crash",
    "0",
    "1",
    "7",
    "-1",
    "@1",
    "@1e300",
    "@nan",
    "inf",
    "nan",
    "1e309",
    "x7ff0000000000000",
    "m=2",
    "m=99999999999",
    "0:1",
    "2:1",
    "1:inf",
    "w=0",
    "w=2",
    "#",
    "\u{e9}",
    "18446744073709551616",
];

fn token_body(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&k| TOKENS[k % TOKENS.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_damaged_journal_recovers_a_valid_prefix_or_fails_naming_it(
        seed in any::<u64>(),
        n in 1usize..20,
        mode in any::<u8>(),
        at in 0.0..1.0f64,
        (flips, junk) in (
            prop::collection::vec((0.0..1.0f64, any::<u8>()), 1..4),
            prop::collection::vec(any::<u8>(), 0..96),
        ),
    ) {
        let evs = events(seed, n);
        let path = tmp_journal("damage");
        let clean = journal_bytes(&path, &evs);
        let written = bodies(&clean);
        let bytes = damage(&clean, mode, at, &flips, &junk);

        // The journal layer alone: a prefix of the written bodies.
        std::fs::write(&path, &bytes).unwrap();
        match Journal::recover(&path, fp(), 0) {
            Ok(rec) => {
                prop_assert!(rec.records.len() <= written.len());
                let got = rec.records.bodies().expect("bodies read back as validated");
                prop_assert_eq!(&got[..], &written[..rec.records.len()]);
            }
            Err(e) => prop_assert!(e.starts_with("journal "), "{}", e),
        }
        cleanup(&path);

        // The session on top: the recovered log is that prefix's log.
        std::fs::write(&path, &bytes).unwrap();
        match JournaledSession::recover(session(), &path, fp(), 0) {
            Ok((js, report, _warnings)) => {
                let k = report.records_replayed;
                prop_assert!(k <= evs.len());
                let got = log_to_string(&Box::new(js).finish().expect("finish"));
                prop_assert_eq!(got, oracle(&evs[..k]), "mode {} kept {} of {}", mode % 4, k, n);
            }
            Err(e) => prop_assert!(e.contains("journal"), "{}", e),
        }
        cleanup(&path);
    }

    #[test]
    fn a_checksum_valid_record_that_is_no_event_fails_naming_it(
        seed in any::<u64>(),
        n in 0usize..8,
        garbage in prop::collection::vec(prop::collection::vec(0usize..64, 0..8), 1..4),
    ) {
        let evs = events(seed, n);
        let path = tmp_journal("garbage");
        std::fs::write(&path, journal_bytes(&path, &evs)).unwrap();
        {
            let mut rec = Journal::recover(&path, fp(), 0).expect("clean journal");
            for picks in &garbage {
                rec.journal.append(&token_body(picks)).expect("append");
            }
        }
        match JournaledSession::recover(session(), &path, fp(), 0) {
            // Some token strings are events (`advance 7`), which replay
            // applies or rejects deterministically.
            Ok((_, report, _)) => prop_assert_eq!(report.records_replayed, n + garbage.len()),
            Err(e) => {
                let named = (n..n + garbage.len())
                    .any(|i| e.starts_with(&format!("journal record {i}: ")));
                prop_assert!(named, "{}", e);
            }
        }
        cleanup(&path);
    }

    #[test]
    fn an_arbitrary_sidecar_is_ignored_accepted_or_refused_never_a_panic(
        seed in any::<u64>(),
        n in 1usize..12,
        raw in prop::collection::vec(any::<u8>(), 0..80),
        (checksummed, records, next_id, clock) in (
            any::<bool>(),
            0u64..16,
            0usize..16,
            prop_oneof![
                Just("0".to_string()),
                Just("nan".to_string()),
                Just("inf".to_string()),
                Just("-1e309".to_string()),
                (0.0..40.0f64).prop_map(|c| c.to_string()),
            ],
        ),
    ) {
        let evs = events(seed, n);
        let path = tmp_journal("sidecar");
        std::fs::write(&path, journal_bytes(&path, &evs)).unwrap();
        let sidecar = if checksummed {
            let body = format!(
                "#osr-snap v1 fp={:016x}\nrecords {records}\nnext_id {next_id}\nclock {clock}\n",
                fp()
            );
            format!("{body}#h{:016x}\n", fnv1a(body.as_bytes())).into_bytes()
        } else {
            raw
        };
        std::fs::write(snap_of(&path), &sidecar).unwrap();
        match JournaledSession::recover(session(), &path, fp(), 0) {
            Ok((js, report, _warnings)) => {
                prop_assert_eq!(report.records_replayed, n);
                let got = log_to_string(&Box::new(js).finish().expect("finish"));
                prop_assert_eq!(got, oracle(&evs));
            }
            Err(e) => prop_assert!(e.contains("snapshot") || e.contains("journal"), "{}", e),
        }
        cleanup(&path);
    }
}
