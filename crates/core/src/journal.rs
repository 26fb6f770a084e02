//! Write-ahead event journal and crash recovery for serve sessions.
//!
//! The serve stack (PR 8) keeps every accepted arrival, capacity event,
//! and the clock in memory; a crash loses the run. Because the whole
//! stack is bit-deterministic under every runtime knob, durability is
//! recovery-by-replay: journal each accepted event *before* applying it
//! (write-ahead + fsync), and after a crash rebuild the session by
//! replaying the journal through the normal
//! [`ServeSession::arrive_batch`]/[`ServeSession::capacity`]/
//! [`ServeSession::advance`] path — the rebuilt [`FinishedLog`] is
//! byte-identical to an uninterrupted run.
//!
//! # Journal format
//!
//! An append-only text file. The first line is a header carrying a
//! config [`fingerprint`] (algorithm spec + machine count + initial
//! offline set — deliberately *not* the result-neutral runtime knobs,
//! so recovery may run with a different `--shards` count, or a
//! different [`crate::SchedulerConfig`] in tests, and stay byte-exact).
//! Every subsequent line is one event in the serve-script dialect plus
//! a trailing FNV-1a checksum token:
//!
//! ```text
//! #osr-journal v2 fp=00498c2a1f6d9e03
//! arrive 0 @0.125 w=1 x4004000000000000 inf x4008000000000000 #h93ad2f6b01c44e17
//! drain 3 @1.5 #h5b0e9cc2d1a07f28
//! advance 7 #h0ac1...
//! ```
//!
//! Number tokens follow one grammar, shared with the serve protocol
//! ([`parse_number`]):
//!
//! ```text
//! number := "inf" | "x" hex{16} | <any decimal f64::from_str accepts>
//! hex    := [0-9a-f]
//! ```
//!
//! An arrive record writes each finite size as `x` + the 16 lowercase
//! hex digits of [`f64::to_bits`] and each ineligible machine as `inf`.
//! Sizes are the bulk of a record (one per machine), and the journal
//! only needs them back bit-exactly: a nibble-table copy of the bits
//! costs ≈13 ns per size where shortest-round-trip decimal formatting
//! costs 100–180 ns. The release time, the weight and capacity/advance
//! times stay decimal, one or two per record, so an operator can still
//! read a journal by time. Because the grammar accepts decimal sizes too, a
//! v2 record body is also a valid serve-script line.
//!
//! **Versions.** `v1` journals (every size in shortest decimal) still
//! recover: the parser reads both forms. Recovery rewrites a `v1`
//! header to `v2` in place before it appends the first hex record, so
//! a binary that only knows `v1` refuses the file at its header instead
//! of failing on a hex token halfway through replay.
//!
//! The checksum exists because a torn tail can truncate a decimal
//! literal into a *different valid number* (`3.7310627019737903` →
//! `3.73`), or cut a record at a token boundary into a shorter valid
//! record; newline-termination alone cannot catch that. A record is
//! valid iff it is newline-terminated **and** its checksum verifies;
//! on recovery, invalid records are accepted only as a suffix (the
//! torn tail — dropped and physically truncated, never half-applied),
//! while an invalid record *followed by a valid one* means mid-file
//! corruption and recovery refuses.
//!
//! # Framing
//!
//! Every append — one record or a whole ingest batch — goes through one
//! path: record bodies are written straight into the journal's reusable
//! line buffer, each followed by its checksum token and newline, and the
//! buffer goes out as one write and one fsync. [`JournaledSession`]
//! encodes arrivals directly into that buffer, so an arrival's record
//! exists once, already framed, on its way to disk.
//!
//! # Snapshots
//!
//! Every `snap_every` appended records (and at [`ServeSession::finish`])
//! the journal writes a sidecar `<path>.snap` atomically
//! (temp + fsync + rename): the fingerprint, the accepted-record
//! high-water mark, and the stream cursor (`next_id`, clock). Scheduler
//! state is *not* serialized — replay is a full pass over the journal
//! (it costs what the original run cost) — so the snapshot's honest
//! role is an integrity cross-check: it proves the journal still holds
//! every record that was fsync'd as of the snapshot, and pins the
//! replay cursor at its high-water mark. A torn or corrupt snapshot is
//! ignored with a warning; a journal *shorter* than its snapshot claims
//! is a hard error (fsync'd data went missing).
//!
//! # Write-ahead ordering
//!
//! [`JournaledSession`] journals first, then applies. An event the
//! session then *rejects* (clock regression, bad operand) stays in the
//! journal: replaying it reproduces the identical rejection without
//! mutating state, so recovery stays exact. The one exception is a
//! batch failing at entry `k`: entries `k..` were never attempted, the
//! serve loop will re-feed `k+1..` one by one (journaling each), so the
//! journal is truncated back to entry `k` to keep it an exact mirror.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use osr_model::{FinishedLog, JobId};
use osr_sim::failpoint::{self, FailHit};
use osr_sim::CapacityChange;

use crate::session::{Arrival, ServeSession, ServeSnapshot};

/// FNV-1a 64-bit hash — the record and snapshot checksum. Not
/// cryptographic; it guards against torn writes and bit rot, not
/// adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The configuration fingerprint stored in journal headers and
/// snapshots: algorithm spec, machine-universe size, and the initial
/// offline set. Runtime knobs are excluded on purpose — they are
/// result-neutral, so a recovery may run with a different `--shards`
/// count or [`crate::SchedulerConfig`] and still reproduce the log
/// byte-exactly.
pub fn fingerprint(algo_spec: &str, machines: usize, offline: &[usize]) -> u64 {
    let mut s = format!("algo={algo_spec} machines={machines} offline=");
    for (i, m) in offline.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&m.to_string());
    }
    fnv1a(s.as_bytes())
}

/// One parsed journal record (the serve-script dialect, canonical
/// form: explicit `@T` on every event).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `arrive <id> @T w=W <sizes…>` — the id is the session's dense
    /// cursor at append time (an apply-rejected arrive does not
    /// advance it, so a repeated id marks a rejected predecessor).
    Arrive {
        /// Dense job id expected by the stream cursor.
        id: usize,
        /// The arrival payload.
        arrival: Arrival,
    },
    /// `join|drain|crash <machine> @T`.
    Capacity {
        /// Pool change kind.
        change: CapacityChange,
        /// Machine index.
        machine: usize,
        /// Event time.
        time: f64,
    },
    /// `advance <T>`.
    Advance {
        /// Completion high-water time.
        time: f64,
    },
}

const NIBBLES: &[u8; 16] = b"0123456789abcdef";

/// Bytes of the longest size token, ` x` + 16 hex digits.
const SIZE_TOKEN_MAX: usize = 18;

/// Appends `prefix` and then the 16 lowercase hex digits of `bits`,
/// read from a nibble table (no `fmt` machinery).
fn push_hex(out: &mut String, prefix: &str, bits: u64) {
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = NIBBLES[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(prefix);
    out.push_str(std::str::from_utf8(&digits).expect("hex digits are ASCII"));
}

/// Digit value of each byte: `0..=15` for `[0-9a-f]`, `0xff` for
/// every other byte.
const HEX_VALUE: [u8; 256] = {
    let mut t = [0xffu8; 256];
    let mut i = 0;
    while i < 16 {
        t[NIBBLES[i] as usize] = i as u8;
        i += 1;
    }
    t
};

/// Parses exactly 16 lowercase hex digits. Stricter than
/// `u64::from_str_radix`, which also takes a leading `+`, upper case
/// and shorter strings. Branch-free over the digits: a non-hex byte
/// sets a high bit in `bad` instead of returning early.
fn parse_hex16(hex: &str) -> Option<u64> {
    let digits: &[u8; 16] = hex.as_bytes().try_into().ok()?;
    let (mut bits, mut bad) = (0u64, 0u8);
    for &b in digits {
        let v = HEX_VALUE[b as usize];
        bad |= v;
        bits = bits << 4 | (v & 0xf) as u64;
    }
    (bad & 0xf0 == 0).then_some(bits)
}

/// Parses one number token of the serve-script dialect, for the
/// journal and the serve protocol alike: `inf` (checked first — almost
/// every token of a restricted row is `inf`), then the bit-exact `x` +
/// 16 lowercase hex digits of [`f64::to_bits`], then any decimal
/// `f64::from_str` accepts. `None` for anything else, including a
/// malformed hex token (a sign, a wrong digit count, a non-hex digit).
pub fn parse_number(tok: &str) -> Option<f64> {
    if tok == "inf" {
        return Some(f64::INFINITY);
    }
    if let Some(hex) = tok.strip_prefix('x') {
        return parse_hex16(hex).map(f64::from_bits);
    }
    tok.parse().ok()
}

/// Appends an arrive record body (no checksum suffix) to `out`. The
/// release and weight are decimal (Rust's shortest round-trip); each
/// size is `inf` for an ineligible machine and otherwise `x` + the hex
/// bits of the `f64`, so [`parse_record`] gets every size back
/// bit-exactly — `-0.0`, subnormals and NaN payloads included.
pub fn encode_arrive_into(out: &mut String, id: usize, release: f64, weight: f64, sizes: &[f64]) {
    use std::fmt::Write as _;
    out.reserve(SIZE_TOKEN_MAX * sizes.len() + 48);
    let _ = write!(out, "arrive {id} @{release} w={weight}");
    for &sz in sizes {
        if sz == f64::INFINITY {
            out.push_str(" inf");
        } else {
            push_hex(out, " x", sz.to_bits());
        }
    }
}

/// Encodes an arrive record body into a new string; see
/// [`encode_arrive_into`] for the format.
pub fn encode_arrive(id: usize, release: f64, weight: f64, sizes: &[f64]) -> String {
    let mut s = String::new();
    encode_arrive_into(&mut s, id, release, weight, sizes);
    s
}

/// Encodes a capacity record body.
pub fn encode_capacity(change: CapacityChange, machine: usize, time: f64) -> String {
    let kind = match change {
        CapacityChange::Join => "join",
        CapacityChange::Drain => "drain",
        CapacityChange::Crash => "crash",
    };
    format!("{kind} {machine} @{time}")
}

/// Encodes an advance record body.
pub fn encode_advance(time: f64) -> String {
    format!("advance {time}")
}

fn parse_f64(tok: &str, what: &str) -> Result<f64, String> {
    parse_number(tok).ok_or_else(|| format!("journal record has bad {what} `{tok}`"))
}

/// Parses a record body (checksum already stripped and verified).
pub fn parse_record(body: &str) -> Result<Record, String> {
    // Records are ASCII by construction (checksummed output of the
    // encoders above); the ASCII splitter is about twice as fast.
    let mut toks = body.split_ascii_whitespace();
    let cmd = toks.next().ok_or("empty journal record")?;
    match cmd {
        "arrive" => {
            let id_tok = toks.next().ok_or("arrive record missing id")?;
            let id: usize = id_tok
                .parse()
                .map_err(|_| format!("journal record has bad id `{id_tok}`"))?;
            let mut release = None;
            let mut weight = 1.0;
            let mut sizes = Vec::new();
            for t in toks {
                if let Some(v) = t.strip_prefix('@') {
                    release = Some(parse_f64(v, "release")?);
                } else if let Some(v) = t.strip_prefix("w=") {
                    weight = parse_f64(v, "weight")?;
                } else {
                    sizes.push(parse_f64(t, "size")?);
                }
            }
            let release = release.ok_or("arrive record missing @T")?;
            Ok(Record::Arrive {
                id,
                arrival: Arrival {
                    release,
                    weight,
                    sizes,
                },
            })
        }
        "join" | "drain" | "crash" => {
            let change = match cmd {
                "join" => CapacityChange::Join,
                "drain" => CapacityChange::Drain,
                _ => CapacityChange::Crash,
            };
            let m_tok = toks.next().ok_or("capacity record missing machine")?;
            let machine: usize = m_tok
                .parse()
                .map_err(|_| format!("journal record has bad machine `{m_tok}`"))?;
            let t_tok = toks.next().ok_or("capacity record missing @T")?;
            let time = parse_f64(t_tok.strip_prefix('@').unwrap_or(t_tok), "time")?;
            Ok(Record::Capacity {
                change,
                machine,
                time,
            })
        }
        "advance" => {
            let t_tok = toks.next().ok_or("advance record missing time")?;
            let time = parse_f64(t_tok.strip_prefix('@').unwrap_or(t_tok), "time")?;
            Ok(Record::Advance { time })
        }
        other => Err(format!("unknown journal record `{other}`")),
    }
}

const HEADER_PREFIX: &str = "#osr-journal v2 fp=";
/// The header of journals whose sizes are all decimal. Same length as
/// [`HEADER_PREFIX`], so recovery can upgrade it in place.
const HEADER_PREFIX_V1: &str = "#osr-journal v1 fp=";
const CHECK_SEP: &str = " #h";

fn header_line(fingerprint: u64) -> String {
    format!("{HEADER_PREFIX}{fingerprint:016x}\n")
}

/// Largest line buffer a [`Journal`] keeps between appends.
const FRAMES_RETAIN_BYTES: usize = 8 << 20;

/// Journal lines framed in one buffer, ready for a single write: each
/// record body, then ` #h`, the FNV-1a of that body, and a newline.
#[derive(Default)]
struct Frames {
    buf: String,
    /// Start of each line within `buf`.
    starts: Vec<usize>,
}

impl Frames {
    /// Frames one record whose body `write_body` appends to the buffer.
    fn push_with(&mut self, write_body: impl FnOnce(&mut String)) {
        let start = self.buf.len();
        self.starts.push(start);
        write_body(&mut self.buf);
        let sum = fnv1a(&self.buf.as_bytes()[start..]);
        push_hex(&mut self.buf, CHECK_SEP, sum);
        self.buf.push('\n');
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.starts.clear();
    }
}

/// Splits a complete (newline-stripped) journal line into its body if
/// the checksum token verifies.
fn validate_line(line: &[u8]) -> Option<&str> {
    let line = std::str::from_utf8(line).ok()?;
    let at = line.rfind(CHECK_SEP)?;
    let (body, suffix) = line.split_at(at);
    let sum = parse_hex16(&suffix[CHECK_SEP.len()..])?;
    (sum == fnv1a(body.as_bytes())).then_some(body)
}

/// Cursor metadata from a `<path>.snap` sidecar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Appended-record high-water mark when the snapshot was taken.
    pub records: u64,
    /// The dense-id stream cursor at that point.
    pub next_id: usize,
    /// The event-time stream cursor at that point.
    pub clock: f64,
}

/// An open write-ahead journal: an append handle plus the bookkeeping
/// (logical length, record count, snapshot cadence) the
/// [`JournaledSession`] wrapper drives.
pub struct Journal {
    path: PathBuf,
    file: File,
    len: u64,
    records: u64,
    snap_every: u64,
    fingerprint: u64,
    /// The reusable line buffer every append frames its records into.
    frames: Frames,
}

/// Everything [`Journal::recover`] reconstructs from disk.
pub struct Recovered {
    /// The journal, re-opened for appending past the valid tail.
    pub journal: Journal,
    /// Valid record bodies, in append order.
    pub records: Vec<String>,
    /// Torn/invalid tail records dropped (and physically truncated).
    pub dropped: usize,
    /// The snapshot sidecar, if present and intact.
    pub snapshot: Option<Snapshot>,
    /// Human-readable warnings (e.g. a corrupt snapshot was ignored)
    /// for the caller to route to stderr.
    pub warnings: Vec<String>,
}

impl Journal {
    fn io_err(path: &Path, what: &str, e: std::io::Error) -> String {
        format!("journal {}: {what}: {e}", path.display())
    }

    /// Creates a fresh journal at `path` (header + fsync). Refuses if
    /// a non-empty file already exists — that journal may be the only
    /// copy of a crashed run, so overwriting needs an explicit
    /// `--recover` or a manual delete.
    pub fn create(path: &Path, fingerprint: u64, snap_every: u64) -> Result<Journal, String> {
        if let Ok(meta) = std::fs::metadata(path) {
            if meta.len() > 0 {
                return Err(format!(
                    "journal {} already exists ({} bytes); pass --recover to resume it or delete it first",
                    path.display(),
                    meta.len()
                ));
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Self::io_err(path, "open", e))?;
        let header = header_line(fingerprint);
        file.write_all(header.as_bytes())
            .map_err(|e| Self::io_err(path, "write header", e))?;
        file.sync_data()
            .map_err(|e| Self::io_err(path, "fsync header", e))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            len: header.len() as u64,
            records: 0,
            snap_every,
            fingerprint,
            frames: Frames::default(),
        })
    }

    /// Re-opens an existing journal for recovery: verifies the header
    /// fingerprint, validates every record line, drops (and physically
    /// truncates) a torn tail, and loads the snapshot sidecar. See the
    /// module docs for the exact validity and corruption rules.
    pub fn recover(path: &Path, fingerprint: u64, snap_every: u64) -> Result<Recovered, String> {
        let data = std::fs::read(path).map_err(|e| Self::io_err(path, "read", e))?;
        let mut warnings = Vec::new();

        // Header: everything up to the first newline. A file torn
        // inside its own header holds no records — start fresh.
        let mut v1_header = false;
        let (header_end, mut records, mut dropped) = match data.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let header = std::str::from_utf8(&data[..nl])
                    .map_err(|_| format!("journal {}: header is not UTF-8", path.display()))?;
                let hex = match header.strip_prefix(HEADER_PREFIX) {
                    Some(hex) => hex,
                    None => {
                        v1_header = true;
                        header.strip_prefix(HEADER_PREFIX_V1).ok_or_else(|| {
                            format!("journal {}: bad header `{header}`", path.display())
                        })?
                    }
                };
                let fp = parse_hex16(hex)
                    .ok_or_else(|| format!("journal {}: bad header fingerprint", path.display()))?;
                if fp != fingerprint {
                    return Err(format!(
                        "journal {} was written for a different configuration \
                         (fingerprint {fp:016x}, this session is {fingerprint:016x}); \
                         algorithm/machines/offline must match the original run",
                        path.display()
                    ));
                }
                (nl + 1, Vec::new(), 0usize)
            }
            None => {
                if !data.is_empty() {
                    warnings.push(format!(
                        "journal {}: torn header ({} bytes, no newline) — treating as empty",
                        path.display(),
                        data.len()
                    ));
                }
                (0, Vec::new(), 0usize)
            }
        };

        // Record lines: the longest valid prefix survives; invalid
        // lines are legal only as the tail.
        let mut valid_end = header_end;
        let mut at = header_end;
        while at < data.len() {
            let Some(rel_nl) = data[at..].iter().position(|&b| b == b'\n') else {
                dropped += 1; // unterminated final fragment
                break;
            };
            let line = &data[at..at + rel_nl];
            at += rel_nl + 1;
            match validate_line(line) {
                Some(body) if dropped == 0 => {
                    records.push(body.to_string());
                    valid_end = at;
                }
                Some(_) => {
                    return Err(format!(
                        "journal {}: valid record after an invalid one (offset {at}) — \
                         mid-file corruption, refusing to recover",
                        path.display()
                    ));
                }
                None => dropped += 1,
            }
        }

        // Physically drop the torn tail (and rebuild a torn header)
        // before appending resumes.
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Self::io_err(path, "open", e))?;
        file.set_len(valid_end as u64)
            .map_err(|e| Self::io_err(path, "truncate torn tail", e))?;
        let mut journal = Journal {
            path: path.to_path_buf(),
            file,
            len: valid_end as u64,
            records: records.len() as u64,
            snap_every,
            fingerprint,
            frames: Frames::default(),
        };
        let header = header_line(fingerprint);
        if header_end == 0 {
            journal
                .file
                .write_all(header.as_bytes())
                .map_err(|e| Self::io_err(path, "write header", e))?;
            journal.len = header.len() as u64;
        } else if v1_header {
            // Appends from here on write hex sizes: mark the file v2
            // (same length, rewritten in place) before the first one.
            OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|mut f| f.write_all(header.as_bytes()))
                .map_err(|e| Self::io_err(path, "upgrade v1 header", e))?;
        }
        journal
            .file
            .sync_data()
            .map_err(|e| Self::io_err(path, "fsync", e))?;

        let snapshot = match Self::read_snapshot(&journal.snap_path(), fingerprint) {
            Ok(s) => s,
            Err(w) => {
                warnings.push(w);
                None
            }
        };
        if let Some(s) = &snapshot {
            if s.records > records.len() as u64 {
                return Err(format!(
                    "journal {} holds {} record(s) but its snapshot was taken at {} — \
                     fsync'd records went missing, refusing to recover",
                    path.display(),
                    records.len(),
                    s.records
                ));
            }
        }
        Ok(Recovered {
            journal,
            records,
            dropped,
            snapshot,
            warnings,
        })
    }

    fn snap_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".snap");
        PathBuf::from(os)
    }

    fn read_snapshot(path: &Path, fingerprint: u64) -> Result<Option<Snapshot>, String> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(format!(
                    "snapshot {}: unreadable ({e}) — ignoring",
                    path.display()
                ))
            }
        };
        let corrupt = |why: &str| {
            format!(
                "snapshot {}: {why} — ignoring (full journal replay covers it)",
                path.display()
            )
        };
        let Some(at) = text.rfind("#h") else {
            return Err(corrupt("no checksum"));
        };
        let (body, suffix) = text.split_at(at);
        let hex = suffix[2..].trim_end();
        let Ok(sum) = u64::from_str_radix(hex, 16) else {
            return Err(corrupt("bad checksum token"));
        };
        if hex.len() != 16 || sum != fnv1a(body.as_bytes()) {
            return Err(corrupt("checksum mismatch (torn write?)"));
        }
        let mut fp = None;
        let mut records = None;
        let mut next_id = None;
        let mut clock = None;
        for line in body.lines() {
            if let Some(hex) = line.strip_prefix("#osr-snap v1 fp=") {
                fp = u64::from_str_radix(hex, 16).ok();
            } else if let Some(v) = line.strip_prefix("records ") {
                records = v.parse::<u64>().ok();
            } else if let Some(v) = line.strip_prefix("next_id ") {
                next_id = v.parse::<usize>().ok();
            } else if let Some(v) = line.strip_prefix("clock ") {
                clock = v.parse::<f64>().ok();
            }
        }
        let (Some(fp), Some(records), Some(next_id), Some(clock)) = (fp, records, next_id, clock)
        else {
            return Err(corrupt("missing field"));
        };
        if fp != fingerprint {
            return Err(corrupt("fingerprint mismatch"));
        }
        Ok(Some(Snapshot {
            records,
            next_id,
            clock,
        }))
    }

    /// Appends one record (write, `pre-fsync` failpoint, fsync).
    /// Returns the byte offset the record starts at.
    pub fn append(&mut self, body: &str) -> Result<u64, String> {
        self.append_with(|f| f.push_with(|buf| buf.push_str(body)))
            .map(|offs| offs[0])
    }

    /// Appends a batch of records as one buffered write and **one**
    /// fsync (so batch ingest amortizes the sync cost). Returns each
    /// record's start offset, for [`Self::truncate_to`] on a partial
    /// batch failure.
    pub fn append_batch(&mut self, bodies: &[String]) -> Result<Vec<u64>, String> {
        self.append_with(|f| {
            for body in bodies {
                f.push_with(|buf| buf.push_str(body));
            }
        })
    }

    /// The one append path: `frame` fills the reusable line buffer with
    /// framed records, which then go out as one write, the `pre-fsync`
    /// failpoint, and one fsync. Returns each record's start offset.
    fn append_with(&mut self, frame: impl FnOnce(&mut Frames)) -> Result<Vec<u64>, String> {
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        frame(&mut frames);
        let res = self.write_frames(&frames);
        // Keep the buffer warm for the next append, but do not pin the
        // memory of one outsized burst for the rest of the run.
        if frames.buf.capacity() <= FRAMES_RETAIN_BYTES {
            self.frames = frames;
        }
        res
    }

    fn write_frames(&mut self, frames: &Frames) -> Result<Vec<u64>, String> {
        let Some(&last) = frames.starts.last() else {
            return Ok(Vec::new());
        };
        let offsets: Vec<u64> = frames.starts.iter().map(|&s| self.len + s as u64).collect();
        self.file
            .write_all(frames.buf.as_bytes())
            .map_err(|e| Self::io_err(&self.path, "append", e))?;
        match failpoint::hit("pre-fsync") {
            FailHit::Proceed => {}
            FailHit::Error(e) => {
                // The records were written but will never be applied;
                // drop them so the journal mirrors the session exactly.
                self.file
                    .set_len(self.len)
                    .map_err(|te| Self::io_err(&self.path, "truncate", te))?;
                return Err(e);
            }
            FailHit::Torn => {
                // Manufacture the torn tail deterministically: rewind
                // to the last record's start, leave half of it, die.
                let line = &frames.buf.as_bytes()[last..];
                let _ = self.file.set_len(self.len + last as u64);
                let _ = self.file.write_all(&line[..line.len() / 2]);
                let _ = self.file.sync_data();
                failpoint::kill_now("pre-fsync");
            }
        }
        self.file
            .sync_data()
            .map_err(|e| Self::io_err(&self.path, "fsync", e))?;
        self.len += frames.buf.len() as u64;
        self.records += frames.starts.len() as u64;
        Ok(offsets)
    }

    /// Truncates the journal back to `offset`, un-appending
    /// `records_dropped` records — used when a batch fails mid-way so
    /// the never-attempted suffix does not get journaled twice when
    /// the serve loop replays it serially.
    pub fn truncate_to(&mut self, offset: u64, records_dropped: u64) -> Result<(), String> {
        self.file
            .set_len(offset)
            .map_err(|e| Self::io_err(&self.path, "truncate", e))?;
        self.file
            .sync_data()
            .map_err(|e| Self::io_err(&self.path, "fsync", e))?;
        self.len = offset;
        self.records -= records_dropped.min(self.records);
        Ok(())
    }

    /// Records appended so far (including ones recovered from disk).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Fsyncs outstanding appends (appends already sync per call; this
    /// is the belt-and-braces flush at graceful shutdown).
    pub fn sync(&mut self) -> Result<(), String> {
        self.file
            .sync_data()
            .map_err(|e| Self::io_err(&self.path, "fsync", e))
    }

    /// Writes the snapshot sidecar if the cadence says so (every
    /// `snap_every` records; `0` disables periodic snapshots).
    pub fn maybe_snapshot(&mut self, next_id: usize, clock: f64) -> Result<(), String> {
        if self.snap_every > 0 && self.records > 0 && self.records.is_multiple_of(self.snap_every) {
            self.write_snapshot(next_id, clock)?;
        }
        Ok(())
    }

    /// Writes the snapshot sidecar atomically: temp file + fsync +
    /// rename, with the `snapshot-write` failpoint between the two (a
    /// kill there leaves the previous snapshot intact — recovery never
    /// observes a half-written sidecar through the rename path).
    pub fn write_snapshot(&mut self, next_id: usize, clock: f64) -> Result<(), String> {
        let body = format!(
            "#osr-snap v1 fp={:016x}\nrecords {}\nnext_id {next_id}\nclock {clock}\n",
            self.fingerprint, self.records
        );
        let text = format!("{body}#h{:016x}\n", fnv1a(body.as_bytes()));
        let snap = self.snap_path();
        let tmp = {
            let mut os = snap.as_os_str().to_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        let write_all = |path: &Path, bytes: &[u8]| -> Result<(), String> {
            let mut f = File::create(path).map_err(|e| Self::io_err(path, "create", e))?;
            f.write_all(bytes)
                .map_err(|e| Self::io_err(path, "write", e))?;
            f.sync_data().map_err(|e| Self::io_err(path, "fsync", e))
        };
        write_all(&tmp, text.as_bytes())?;
        match failpoint::hit("snapshot-write") {
            FailHit::Proceed => {}
            FailHit::Error(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
            FailHit::Torn => {
                // Corrupt the *final* path on purpose: recovery must
                // ignore a torn sidecar and fall back to full replay.
                let half = &text.as_bytes()[..text.len() / 2];
                let _ = write_all(&snap, half);
                let _ = std::fs::remove_file(&tmp);
                failpoint::kill_now("snapshot-write");
            }
        }
        std::fs::rename(&tmp, &snap).map_err(|e| Self::io_err(&snap, "rename", e))
    }
}

/// What [`replay`] did: the recovered stream cursor plus audit counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// The dense-id cursor after replay (the next expected job id).
    pub next_id: usize,
    /// The event-time cursor after replay.
    pub clock: f64,
    /// Records the session rejected during replay. Rejections are
    /// deterministic re-runs of rejections the original run produced
    /// (they never mutate state), so they are counted, not fatal.
    pub rejected: usize,
}

/// Replays recovered record bodies into a fresh session through the
/// normal ingest path: runs of dense-id arrives go through
/// [`ServeSession::arrive_batch`], everything else through
/// [`ServeSession::capacity`]/[`ServeSession::advance`]. If `snapshot`
/// is given, the cursor is cross-checked when replay passes its
/// high-water record.
pub fn replay(
    sess: &mut dyn ServeSession,
    records: &[String],
    snapshot: Option<&Snapshot>,
) -> Result<ReplayOutcome, String> {
    let mut out = ReplayOutcome {
        next_id: 0,
        clock: 0.0,
        rejected: 0,
    };
    let boundary = snapshot.map(|s| s.records as usize);
    let mut pending: Vec<Arrival> = Vec::new();

    fn flush(sess: &mut dyn ServeSession, pending: &mut Vec<Arrival>, out: &mut ReplayOutcome) {
        let mut rest = std::mem::take(pending);
        while !rest.is_empty() {
            let releases: Vec<f64> = rest.iter().map(|a| a.release).collect();
            match sess.arrive_batch(rest.clone()) {
                Ok(()) => {
                    out.next_id += releases.len();
                    out.clock = *releases.last().expect("non-empty");
                    rest.clear();
                }
                Err((k, _e)) => {
                    // Entry k re-rejects exactly as in the original
                    // run (state untouched); the prefix landed.
                    out.next_id += k;
                    if k > 0 {
                        out.clock = releases[k - 1];
                    }
                    out.rejected += 1;
                    rest.drain(..=k);
                }
            }
        }
    }

    for (i, body) in records.iter().enumerate() {
        if boundary == Some(i) {
            flush(sess, &mut pending, &mut out);
            check_snapshot_cursor(snapshot.expect("boundary set"), &out, i)?;
        }
        let rec = parse_record(body)?;
        match rec {
            Record::Arrive { id, arrival } => {
                if id != out.next_id + pending.len() {
                    // Density break: the previous same-id record was an
                    // apply-rejected arrive. Resolve it, then re-check.
                    flush(sess, &mut pending, &mut out);
                    if id != out.next_id {
                        return Err(format!(
                            "journal record {i} carries id {id} but the replay cursor is {} — \
                             journal does not mirror a single session stream",
                            out.next_id
                        ));
                    }
                }
                pending.push(arrival);
            }
            Record::Capacity {
                change,
                machine,
                time,
            } => {
                flush(sess, &mut pending, &mut out);
                match sess.capacity(change, machine, time) {
                    Ok(()) => out.clock = time,
                    Err(_) => out.rejected += 1,
                }
            }
            Record::Advance { time } => {
                flush(sess, &mut pending, &mut out);
                match sess.advance(time) {
                    Ok(()) => out.clock = time,
                    Err(_) => out.rejected += 1,
                }
            }
        }
    }
    flush(sess, &mut pending, &mut out);
    if boundary == Some(records.len()) {
        check_snapshot_cursor(snapshot.expect("boundary set"), &out, records.len())?;
    }
    Ok(out)
}

fn check_snapshot_cursor(snap: &Snapshot, out: &ReplayOutcome, at: usize) -> Result<(), String> {
    // Exact f64 equality is correct here: replay is bit-deterministic,
    // so any drift means the journal and snapshot disagree.
    if snap.next_id != out.next_id || snap.clock != out.clock {
        return Err(format!(
            "snapshot cross-check failed after {at} record(s): snapshot cursor \
             (next_id {}, clock {}) vs replayed (next_id {}, clock {}) — \
             journal and snapshot disagree, refusing to recover",
            snap.next_id, snap.clock, out.next_id, out.clock
        ));
    }
    Ok(())
}

/// Summary of one recovery, for operator notices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Valid records replayed from the journal.
    pub records_replayed: usize,
    /// Torn-tail records dropped and truncated.
    pub dropped_torn: usize,
    /// Deterministic per-record rejections reproduced during replay.
    pub rejected_replays: usize,
    /// Whether a snapshot sidecar cross-checked the replay cursor.
    pub snapshot_checked: bool,
    /// The recovered dense-id cursor.
    pub next_id: usize,
    /// The recovered event-time cursor.
    pub clock: f64,
}

/// A [`ServeSession`] decorator that write-ahead journals every event
/// before delegating to the wrapped session. The serve loop holds one
/// of these exactly like a plain session; all durability (appends,
/// fsync, snapshots, batch truncation) lives here.
pub struct JournaledSession {
    inner: Box<dyn ServeSession>,
    journal: Journal,
    next_id: usize,
    clock: f64,
}

impl JournaledSession {
    /// Starts journaling a fresh session into a new journal at `path`.
    pub fn create(
        inner: Box<dyn ServeSession>,
        path: &Path,
        fingerprint: u64,
        snap_every: u64,
    ) -> Result<JournaledSession, String> {
        Ok(JournaledSession {
            inner,
            journal: Journal::create(path, fingerprint, snap_every)?,
            next_id: 0,
            clock: 0.0,
        })
    }

    /// Recovers a crashed run: validates and truncates the journal at
    /// `path`, replays every surviving record into `inner` (which must
    /// be freshly built with the fingerprinted configuration), and
    /// returns the journaling session positioned to accept the rest of
    /// the stream, plus the report and any non-fatal warnings.
    pub fn recover(
        inner: Box<dyn ServeSession>,
        path: &Path,
        fingerprint: u64,
        snap_every: u64,
    ) -> Result<(JournaledSession, RecoveryReport, Vec<String>), String> {
        let mut inner = inner;
        let rec = Journal::recover(path, fingerprint, snap_every)?;
        let outcome = replay(inner.as_mut(), &rec.records, rec.snapshot.as_ref())?;
        let report = RecoveryReport {
            records_replayed: rec.records.len(),
            dropped_torn: rec.dropped,
            rejected_replays: outcome.rejected,
            snapshot_checked: rec.snapshot.is_some(),
            next_id: outcome.next_id,
            clock: outcome.clock,
        };
        Ok((
            JournaledSession {
                inner,
                journal: rec.journal,
                next_id: outcome.next_id,
                clock: outcome.clock,
            },
            report,
            rec.warnings,
        ))
    }

    /// The stream cursor `(next_id, clock)` the serve loop should
    /// resume from (equals the replay outcome after recovery).
    pub fn cursor(&self) -> (usize, f64) {
        (self.next_id, self.clock)
    }
}

impl ServeSession for JournaledSession {
    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }

    fn machines(&self) -> usize {
        self.inner.machines()
    }

    fn arrive(&mut self, release: f64, weight: f64, sizes: Vec<f64>) -> Result<JobId, String> {
        let next = self.next_id;
        self.journal.append_with(|f| {
            f.push_with(|buf| encode_arrive_into(buf, next, release, weight, &sizes))
        })?;
        // Write-ahead: if the session rejects, the record stays —
        // replay reproduces the rejection without mutating state.
        let id = self.inner.arrive(release, weight, sizes)?;
        self.next_id += 1;
        self.clock = release;
        self.journal.maybe_snapshot(self.next_id, self.clock)?;
        Ok(id)
    }

    fn arrive_batch(&mut self, batch: Vec<Arrival>) -> Result<(), (usize, String)> {
        if batch.is_empty() {
            return self.inner.arrive_batch(batch);
        }
        let (first_id, n) = (self.next_id, batch.len());
        let offsets = self
            .journal
            .append_with(|f| {
                for (k, a) in batch.iter().enumerate() {
                    f.push_with(|buf| {
                        encode_arrive_into(buf, first_id + k, a.release, a.weight, &a.sizes)
                    });
                }
            })
            .map_err(|e| (0, e))?;
        match failpoint::hit("mid-batch") {
            FailHit::Proceed => {}
            FailHit::Error(e) => {
                // Nothing was applied; un-journal the whole batch so
                // the serial re-feed does not double-journal it.
                let _ = self.journal.truncate_to(offsets[0], n as u64);
                return Err((0, e));
            }
            FailHit::Torn => failpoint::kill_now("mid-batch"),
        }
        let releases: Vec<f64> = batch.iter().map(|a| a.release).collect();
        match self.inner.arrive_batch(batch) {
            Ok(()) => {
                self.next_id += n;
                self.clock = *releases.last().expect("non-empty batch");
                self.journal
                    .maybe_snapshot(self.next_id, self.clock)
                    .map_err(|e| (n, e))?;
                Ok(())
            }
            Err((k, e)) => {
                // Entries k.. were never attempted; the serve loop will
                // replay k+1.. serially (journaling each), so drop them
                // here to keep the journal an exact mirror.
                if let Err(te) = self.journal.truncate_to(offsets[k], (n - k) as u64) {
                    return Err((k, format!("{e} (and journal truncate failed: {te})")));
                }
                self.next_id += k;
                if k > 0 {
                    self.clock = releases[k - 1];
                }
                Err((k, e))
            }
        }
    }

    fn capacity(
        &mut self,
        change: CapacityChange,
        machine: usize,
        time: f64,
    ) -> Result<(), String> {
        let body = encode_capacity(change, machine, time);
        self.journal.append(&body)?;
        self.inner.capacity(change, machine, time)?;
        self.clock = time;
        self.journal.maybe_snapshot(self.next_id, self.clock)?;
        Ok(())
    }

    fn advance(&mut self, time: f64) -> Result<(), String> {
        let body = encode_advance(time);
        self.journal.append(&body)?;
        self.inner.advance(time)?;
        self.clock = time;
        self.journal.maybe_snapshot(self.next_id, self.clock)?;
        Ok(())
    }

    fn snapshot(&self) -> ServeSnapshot {
        self.inner.snapshot()
    }

    fn finish(self: Box<Self>) -> Result<FinishedLog, String> {
        let mut s = *self;
        // Graceful shutdown: flush, pin the final cursor in the
        // sidecar, then emit the log. Appends fsync as they happen, so
        // no partially-written record is ever observable here.
        s.journal.sync()?;
        if s.journal.records() > 0 {
            s.journal.write_snapshot(s.next_id, s.clock)?;
        }
        s.inner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtime::FlowParams;
    use crate::session::FlowSession;
    use osr_model::io as model_io;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("osr-journal-test-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("events.journal")
    }

    fn sess(m: usize) -> Box<dyn ServeSession> {
        Box::new(FlowSession::new(FlowParams::new(0.5), m).unwrap())
    }

    /// One framed journal line (body, checksum token, newline).
    fn framed(body: &str) -> String {
        let mut f = Frames::default();
        f.push_with(|buf| buf.push_str(body));
        f.buf
    }

    /// Feed a small deterministic stream through a journaled session.
    fn feed(js: &mut JournaledSession, n: usize) {
        for k in 0..n {
            let t = k as f64 * 0.5;
            js.arrive(t, 1.0, vec![1.0 + k as f64 % 3.0, 2.0]).unwrap();
            if k == 2 {
                js.capacity(CapacityChange::Drain, 1, t).unwrap();
            }
            if k == 4 {
                js.capacity(CapacityChange::Join, 1, t).unwrap();
            }
        }
    }

    #[test]
    fn records_round_trip_through_encode_and_parse() {
        let a = Arrival {
            release: 3.7310627019737903,
            weight: 0.125,
            sizes: vec![1.5, f64::INFINITY, 0.1],
        };
        let body = encode_arrive(7, a.release, a.weight, &a.sizes);
        assert_eq!(
            parse_record(&body).unwrap(),
            Record::Arrive { id: 7, arrival: a }
        );
        let body = encode_capacity(CapacityChange::Crash, 3, 1.25);
        assert!(matches!(
            parse_record(&body).unwrap(),
            Record::Capacity {
                change: CapacityChange::Crash,
                machine: 3,
                time
            } if time == 1.25
        ));
        assert!(matches!(
            parse_record(&encode_advance(9.5)).unwrap(),
            Record::Advance { time } if time == 9.5
        ));
        assert!(parse_record("explode 1 2").is_err());
    }

    /// Bit patterns a uniform `u64` almost never hits: ±0, ±inf,
    /// subnormals and NaNs with arbitrary payloads and either sign.
    fn f64_bits() -> impl Strategy<Value = u64> {
        const SIGN: u64 = 1 << 63;
        const EXP: u64 = 0x7ff0_0000_0000_0000;
        prop_oneof![
            any::<u64>(),
            prop_oneof![Just(0), Just(SIGN), Just(EXP), Just(SIGN | EXP)],
            (1..EXP >> 12, any::<bool>()).prop_map(|(m, neg)| m | if neg { SIGN } else { 0 }),
            (EXP + 1..=EXP | (EXP >> 12), any::<bool>())
                .prop_map(|(nan, neg)| nan | if neg { SIGN } else { 0 }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn arrive_sizes_round_trip_bit_exactly(
            bits in prop::collection::vec(f64_bits(), 1..12),
            id in 0usize..1_000_000,
            release in 0.0f64..1e6,
        ) {
            let sizes: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let body = encode_arrive(id, release, 2.5, &sizes);
            let Record::Arrive { id: got_id, arrival } = parse_record(&body).unwrap() else {
                panic!("not an arrive record: {body}");
            };
            prop_assert_eq!((got_id, arrival.release, arrival.weight), (id, release, 2.5));
            let got: Vec<u64> = arrival.sizes.iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(got, bits, "{}", body);
        }
    }

    #[test]
    fn number_tokens_parse_strictly_and_malformed_hex_errors() {
        assert_eq!(parse_number("inf"), Some(f64::INFINITY));
        assert_eq!(parse_number("x3ff8000000000000"), Some(1.5));
        assert_eq!(parse_number("xfff0000000000000"), Some(f64::NEG_INFINITY));
        assert_eq!(parse_number(""), None);
        // Every decimal form `f64::from_str` takes still parses.
        for (tok, v) in [
            ("2.5", 2.5),
            ("1e3", 1e3),
            ("-0", -0.0),
            ("infinity", f64::INFINITY),
        ] {
            assert_eq!(
                parse_number(tok).map(f64::to_bits),
                Some(v.to_bits()),
                "{tok}"
            );
        }
        for bad in [
            "x+ff8000000000000", // from_str_radix alone would take the sign
            "x-ff8000000000000",
            "x3ff800000000000",   // 15 digits
            "x3ff80000000000000", // 17 digits
            "x3FF8000000000000",  // upper case is not the canonical form
            "x3ff800000000000g",
            "x 3ff8000000000000",
            "x",
            "1.5.",
        ] {
            assert_eq!(parse_number(bad), None, "{bad}");
            let body = format!("arrive 0 @1 w=1 {bad}");
            let err = parse_record(&body).unwrap_err();
            assert!(err.contains("bad size"), "{bad}: {err}");
        }
    }

    /// A journal as a `v1` binary wrote it (every size in shortest
    /// decimal) must still recover to the log of an uninterrupted run,
    /// and recovery marks the file `v2` before appending hex records.
    #[test]
    fn v1_decimal_journal_recovers_to_the_fresh_run_log() {
        const V1: &str = "\
#osr-journal v1 fp=e027f4498ba5eed7
arrive 0 @0.125 w=1 2.5 inf #hd03bc0d97ab5432d
arrive 1 @0.5 w=2 1.3 0.7000000000000001 #h64dfe3d6e85c3572
drain 1 @0.75 #hb602e7bb02e72d2c
arrive 2 @1 w=1 3.7310627019737903 inf #h42c0217388b0c9d3
join 1 @1.5 #h2747e20e801ab8a4
arrive 3 @2 w=1 0.1 4 #h8bdab2080b6dd551
advance 3 #h111adf285e162cdc
";
        let fp = fingerprint("flow:0.5", 2, &[]);
        let inf = f64::INFINITY;
        let mut fresh = sess(2);
        fresh.arrive(0.125, 1.0, vec![2.5, inf]).unwrap();
        fresh
            .arrive(0.5, 2.0, vec![1.3, 0.7000000000000001])
            .unwrap();
        fresh.capacity(CapacityChange::Drain, 1, 0.75).unwrap();
        fresh
            .arrive(1.0, 1.0, vec![3.7310627019737903, inf])
            .unwrap();
        fresh.capacity(CapacityChange::Join, 1, 1.5).unwrap();
        fresh.arrive(2.0, 1.0, vec![0.1, 4.0]).unwrap();
        fresh.advance(3.0).unwrap();
        fresh.arrive(3.5, 1.0, vec![0.3, 5.0e-324]).unwrap();
        let oracle = model_io::log_to_string(&fresh.finish().unwrap());

        let path = tmp("v1");
        std::fs::write(&path, V1).unwrap();
        let (mut js, report, warnings) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!((report.records_replayed, report.rejected_replays), (7, 0));
        assert_eq!(js.cursor(), (4, 3.0));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, V1.replacen("v1", "v2", 1), "header upgraded in place");

        // A hex record after the decimal ones; a second crash and
        // recovery over the mixed file still reproduces the fresh run.
        js.arrive(3.5, 1.0, vec![0.3, 5.0e-324]).unwrap();
        drop(js);
        let (js, report, _w) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert_eq!(report.records_replayed, 8);
        assert_eq!(
            model_io::log_to_string(&Box::new(js).finish().unwrap()),
            oracle
        );
    }

    #[test]
    fn recover_replays_to_identical_cursor_and_rejects_fingerprint_drift() {
        let path = tmp("roundtrip");
        let fp = fingerprint("flow:0.5", 2, &[]);
        let mut js = JournaledSession::create(sess(2), &path, fp, 3).unwrap();
        feed(&mut js, 6);
        let cursor = js.cursor();
        drop(js); // crash: no finish()

        let (js2, report, warnings) = JournaledSession::recover(sess(2), &path, fp, 3).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(js2.cursor(), cursor);
        assert_eq!(report.records_replayed, 8); // 6 arrives + 2 capacity
        assert_eq!(report.dropped_torn, 0);
        assert!(report.snapshot_checked, "cadence 3 must have snapshotted");
        assert_eq!(report.rejected_replays, 0);

        // A different configuration must refuse the journal outright.
        let bad = fingerprint("flow:0.5", 3, &[]);
        let err = JournaledSession::recover(sess(3), &path, bad, 3)
            .err()
            .unwrap();
        assert!(err.contains("different configuration"), "{err}");
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_never_half_applied() {
        use std::io::Write as _;
        let path = tmp("torn");
        let fp = fingerprint("flow:0.5", 2, &[]);
        let mut js = JournaledSession::create(sess(2), &path, fp, 0).unwrap();
        feed(&mut js, 4);
        drop(js);

        // Tear the tail: a checksummed record cut mid-number — the
        // truncated literal still parses as a (different) f64, so only
        // the checksum can catch it.
        let intact = std::fs::read_to_string(&path).unwrap();
        let tear = |bytes: &[u8]| {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(bytes).unwrap();
        };
        let torn = framed("arrive 4 @2.7310627019737903 w=1 1 2");
        tear(&torn.as_bytes()[..torn.len() - 20]);

        let rec = Journal::recover(&path, fp, 0).unwrap();
        assert_eq!(rec.dropped, 1);
        assert_eq!(rec.records.len(), 5);
        // Physically truncated back to the intact prefix.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), intact);

        // A hex record cut mid-token, and one cut right after a whole
        // size token. Both are newline-terminated here, and the second
        // still parses as a valid record with fewer sizes: only the
        // checksum rejects them.
        let body = encode_arrive(4, 2.5, 1.0, &[0.1, 3.0]);
        let cut_at = body.find(" x").unwrap() + SIZE_TOKEN_MAX;
        assert!(
            parse_record(&body[..cut_at]).is_ok(),
            "cut after a whole token"
        );
        for cut in [cut_at - 7, cut_at] {
            tear(format!("{}\n", &body[..cut]).as_bytes());
            let rec = Journal::recover(&path, fp, 0).unwrap();
            assert_eq!((rec.dropped, rec.records.len()), (1, 5), "cut at {cut}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), intact);
        }

        // Mid-file corruption (a valid record *after* garbage) is not
        // a torn tail and must refuse.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let good_line = framed("advance 99");
        let lines: Vec<&str> = intact.lines().collect();
        let corrupt_at = lines[3].len(); // inside record territory
        text.insert_str(text.len() - corrupt_at, "XX");
        text.push_str(&good_line);
        std::fs::write(&path, text).unwrap();
        let err = Journal::recover(&path, fp, 0).err().unwrap();
        assert!(err.contains("mid-file corruption"), "{err}");
    }

    #[test]
    fn corrupt_snapshot_is_ignored_with_warning_but_short_journal_is_fatal() {
        let path = tmp("snap");
        let fp = fingerprint("flow:0.5", 2, &[]);
        let mut js = JournaledSession::create(sess(2), &path, fp, 2).unwrap();
        feed(&mut js, 6);
        drop(js);
        let snap_path = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".snap");
            PathBuf::from(os)
        };
        assert!(snap_path.exists(), "cadence 2 writes sidecars");

        // Torn sidecar: ignored with a warning, replay still exact.
        let full = std::fs::read_to_string(&snap_path).unwrap();
        std::fs::write(&snap_path, &full[..full.len() / 2]).unwrap();
        let (_js2, report, warnings) = JournaledSession::recover(sess(2), &path, fp, 2).unwrap();
        assert!(!report.snapshot_checked);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("ignoring"), "{warnings:?}");

        // A journal shorter than the (intact) snapshot claims means
        // fsync'd records vanished — hard error.
        std::fs::write(&snap_path, &full).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, keep).unwrap();
        let err = JournaledSession::recover(sess(2), &path, fp, 2)
            .err()
            .unwrap();
        assert!(err.contains("went missing"), "{err}");
    }

    #[test]
    fn rejected_events_stay_journaled_and_replay_deterministically() {
        let path = tmp("reject");
        let fp = fingerprint("flow:0.5", 2, &[]);
        let mut js = JournaledSession::create(sess(2), &path, fp, 0).unwrap();
        js.arrive(1.0, 1.0, vec![1.0, 2.0]).unwrap();
        // Clock regression: journaled, then rejected by the session.
        assert!(js.capacity(CapacityChange::Drain, 0, 0.5).is_err());
        assert!(js.arrive(0.25, 1.0, vec![1.0, 1.0]).is_err());
        js.arrive(2.0, 1.0, vec![1.0, 2.0]).unwrap();
        let cursor = js.cursor();
        let oracle = model_io::log_to_string(&Box::new(js).finish().unwrap());

        let (js2, report, _w) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert_eq!(js2.cursor(), cursor);
        assert_eq!(report.rejected_replays, 2);
        assert_eq!(
            model_io::log_to_string(&Box::new(js2).finish().unwrap()),
            oracle
        );
    }

    #[test]
    fn batch_failure_truncates_the_unattempted_suffix() {
        let path = tmp("batch");
        let fp = fingerprint("flow:0.5", 2, &[]);
        let mut js = JournaledSession::create(sess(2), &path, fp, 0).unwrap();
        let a = |release: f64| Arrival {
            release,
            weight: 1.0,
            sizes: vec![1.0, 2.0],
        };
        // Entry 1 regresses the clock → batch fails at k=1; entry 2
        // was never attempted and must not stay journaled.
        let (k, _e) = js.arrive_batch(vec![a(1.0), a(0.5), a(2.0)]).unwrap_err();
        assert_eq!(k, 1);
        assert_eq!(js.journal.records(), 1);
        assert_eq!(js.cursor(), (1, 1.0));
        // The serial re-feed path the serve loop uses: entry 2 again.
        js.arrive(2.0, 1.0, vec![1.0, 2.0]).unwrap();
        let cursor = js.cursor();
        drop(js);
        let (js2, report, _w) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert_eq!(js2.cursor(), cursor);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.rejected_replays, 0);
    }

    #[test]
    fn create_refuses_a_non_empty_journal() {
        let path = tmp("refuse");
        let fp = fingerprint("flow:0.5", 2, &[]);
        let mut js = JournaledSession::create(sess(2), &path, fp, 0).unwrap();
        feed(&mut js, 2);
        drop(js);
        let err = Journal::create(&path, fp, 0).err().unwrap();
        assert!(err.contains("--recover"), "{err}");
    }
}
