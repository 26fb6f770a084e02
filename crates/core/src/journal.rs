//! Write-ahead event journal and crash recovery for serve sessions.
//!
//! The serve stack (PR 8) keeps every accepted arrival, capacity event,
//! and the clock in memory; a crash loses the run. Because the whole
//! stack is bit-deterministic under every runtime knob, durability is
//! recovery-by-replay: journal each event *before* applying it
//! (write-ahead + fsync), and after a crash rebuild the session by
//! replaying the journal through the one ingest path,
//! [`ServeSession::apply`] — the rebuilt [`FinishedLog`] is
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
//! a trailing checksum token, ` #` + a one-letter tag naming the
//! checksum + its 16 lowercase hex digits:
//!
//! ```text
//! #osr-journal v3 fp=00498c2a1f6d9e03
//! arrive 0 @0.125 w=1 x4004000000000000 inf x4008000000000000 #w93ad2f6b01c44e17
//! arrive 1 @0.5 w=2 m=16384 17:x3ff8000000000000 9001:x4000000000000000 #w0c1d...
//! drain 3 @1.5 #w5b0e9cc2d1a07f28
//! advance 7 #w0ac1...
//! ```
//!
//! The record grammar, shared with the serve protocol ([`parse_line`]
//! is the protocol's parser too; a protocol line may omit `@T`, which
//! [`EventLine::resolve`] fills in, and [`parse_record`] is
//! [`parse_line`] resolved with no default):
//!
//! ```text
//! record   := arrive | capacity | advance
//! arrive   := "arrive" id "@" time "w=" finite row
//! row      := (" " number)*                            # dense: one per machine
//!           | " m=" width (" " machine ":" number)*    # sparse (v3)
//! capacity := ("join" | "drain" | "crash") machine "@" time
//! advance  := "advance" time
//! time     := finite
//! finite   := number                 # whose value is finite
//! number   := "inf" | "x" hex{16} | decimal
//! decimal  := <any f64::from_str accepts whose value is finite>
//! hex      := [0-9a-f]
//! check    := " #" tag hex{16}
//! tag      := "w"     # word_sum64 of the body (v3 appends)
//!           | "h"     # fnv1a of the body (v1 and v2 records)
//! ```
//!
//! The journal writes one space between tokens; the parser takes any
//! run of ASCII whitespace (space, tab, line feed, form feed, carriage
//! return), so a protocol line may use tabs or CRLF ends. One byte
//! tokenizer splits every token of a line. It takes runs of `inf ` (an
//! `inf` followed by one space, as a dense restricted row is written)
//! eight or four bytes at a time and adds each run to the row in one
//! step, so the 16 384 tokens of such a row cost a few microseconds.
//! A capacity or advance line with a token after its time is an error.
//!
//! **Finite domain.** Event times and weights are finite, and so is a
//! decimal size. Only the literal `inf` means an ineligible machine:
//! `infinity`, `NaN` and an overflowing decimal such as `1e309` are
//! errors, not `∞`. The `x` + hex form keeps every bit pattern, so a
//! dense row still round-trips NaN payloads and `-∞` (the session
//! rejects such a row). An infinite time would move the session clock
//! past every later event, and a `NaN` or `-∞` weight is journaled in
//! a decimal form that could not be read back. A journal that an older
//! binary wrote may hold such a record (`advance inf`, or an arrival the
//! session rejected); recovery then fails with `journal record <i>: …`,
//! naming the record, instead of resuming a session stuck at `t = ∞`.
//! Every other record keeps its own checksum, so with that line (and a
//! snapshot sidecar that counts it) removed by hand, the rest recovers.
//!
//! An arrive record writes its row in the row's own [`SizeRow`] form.
//! A dense row writes each finite size as `x` + the 16 lowercase hex
//! digits of [`f64::to_bits`] and each ineligible machine as `inf`. A
//! sparse row (a restricted-assignment row with few eligible machines)
//! writes its width once and one `machine:x<hex>` pair per finite size,
//! machine ids strictly increasing, so its record is O(eligible) bytes
//! rather than O(m): about 135 bytes, checksum included, instead of
//! 65 KB for three eligible machines among 16 384. Sizes are the bulk
//! of a record, and the journal only needs them back bit-exactly: a
//! copy of the bits as hex, eight nibbles per 64-bit word, costs ≈7 ns
//! per size where shortest-round-trip decimal formatting costs
//! 100–180 ns. The release time, the weight and capacity/advance times
//! stay decimal, one or two per record, so an operator can still read a
//! journal by time. Because the protocol accepts every one of these
//! forms, a record body is also a valid serve-script line.
//!
//! The checksum exists because a torn tail can truncate a decimal
//! literal into a *different valid number* (`3.7310627019737903` →
//! `3.73`), or cut a record at a token boundary into a shorter valid
//! record; newline-termination alone cannot catch that. A record is
//! valid iff it is newline-terminated **and** the checksum its tag
//! names verifies; on recovery, invalid records are accepted only as a
//! suffix (the torn tail — dropped and physically truncated, never
//! half-applied), while an invalid record *followed by a valid one*
//! means mid-file corruption and recovery refuses. v3 appends use
//! [`word_sum64`], which reads the body a 64-bit word at a time;
//! byte-serial [`fnv1a`] cost more than encoding a dense record. The
//! snapshot sidecar and the header fingerprint keep FNV-1a.
//!
//! **Versions.** Recovery reads every version and verifies each record
//! by its own tag, so a file that an older binary wrote and this one
//! appended to verifies record by record:
//!
//! | header | sizes in arrive records | record checksum |
//! |---|---|---|
//! | `v1` | shortest decimal, `inf` | `#h` FNV-1a |
//! | `v2` | `x` + hex bits, `inf` | `#h` FNV-1a |
//! | `v3` | v2's dense tokens, or `m=` + `machine:x<hex>` pairs | `#w` [`word_sum64`] |
//!
//! Recovery rewrites a `v1` or `v2` header to `v3` in place (all three
//! have the same length) before it appends the first v3 record, so a
//! binary that knows only an older version refuses the file at its
//! header instead of failing on a pair or a `#w` tag halfway through
//! replay.
//!
//! # Framing
//!
//! Every append — one record or a whole ingest batch — goes through one
//! path: record bodies are written straight into the journal's reusable
//! line buffer, each followed by its checksum token and newline, and the
//! buffer goes out as one write and one fsync. [`JournaledSession`]
//! encodes each batch's events directly into that buffer, so a record
//! exists once, already framed, on its way to disk, and a batch that
//! mixes arrivals with capacity and advance events still costs one
//! fsync (group commit).
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
//! [`JournaledSession`] journals a whole batch first, then applies it.
//! An event the session then *rejects* (clock regression, bad operand)
//! stays in the journal: replaying it reproduces the identical rejection
//! without mutating state, so recovery stays exact. [`ServeSession::apply`]
//! stops at the rejected event `k`, so the events after it were never
//! attempted: their records are truncated away (the caller resubmits
//! them, journaling each again), keeping the journal an exact mirror of
//! what the session saw. Replay applies the records the same way, so it
//! counts one rejection per rejected record.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use osr_model::{FinishedLog, RowForm, SizeRow};
use osr_sim::failpoint::{self, FailHit};
use osr_sim::CapacityChange;

use crate::session::{Arrival, Event, ServeSession, ServeSnapshot};

/// FNV-1a 64-bit hash — the checksum of v1 and v2 records (tag `#h`),
/// of the snapshot sidecar and of [`fingerprint`]. Not cryptographic;
/// it guards against torn writes and bit rot, not adversaries. It reads
/// one byte per multiply, so v3 records use [`word_sum64`] instead.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The v3 record checksum (tag `#w`): a 64-bit hash that reads the
/// body eight bytes (one little-endian word) per step. Like
/// [`fnv1a`] it guards against torn writes and bit rot, not
/// adversaries.
///
/// Each step `h ← rotl((h ⊕ word) · K, 29)` is a bijection of `h` for
/// a fixed word and of the word for a fixed `h`, so two bodies of the
/// same length that differ in exactly one word (any single flipped
/// bit, say) always hash differently; the length seeds the state, so
/// a truncated body starts from a different state; a final
/// avalanche (MurmurHash3's `fmix64`, also a bijection) spreads every
/// input bit over the whole result. The short tail is zero-padded into
/// one last word.
pub fn word_sum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut h = 0x243f_6a88_85a3_08d3 ^ (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
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

impl Record {
    /// Splits the record into its arrive id (`None` for capacity and
    /// advance records) and the [`Event`] it applies.
    pub fn into_event(self) -> (Option<usize>, Event) {
        match self {
            Record::Arrive { id, arrival } => (Some(id), Event::Arrive(arrival)),
            Record::Capacity {
                change,
                machine,
                time,
            } => (
                None,
                Event::Capacity {
                    change,
                    machine,
                    time,
                },
            ),
            Record::Advance { time } => (None, Event::Advance { time }),
        }
    }
}

const NIBBLES: &[u8; 16] = b"0123456789abcdef";

/// Bytes of the longest size token, ` x` + 16 hex digits.
const SIZE_TOKEN_MAX: usize = 18;

/// The 16 lowercase hex digits of `bits`, most significant first, made
/// eight digits per 64-bit word: each half's nibbles are spread one per
/// byte, then every byte gets `'0'` added at once, and `'a' - '0' - 10`
/// more where its nibble is 10 or above (`n + 6` carries into bit 4
/// exactly then). Every byte stays below `0x80`, so no step carries
/// into a neighbour.
fn hex16(bits: u64) -> [u8; 16] {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    // Nibble k of a 32-bit half lands in byte k of the word.
    let spread = |half: u64| {
        let x = (half | half << 16) & 0x0000_ffff_0000_ffff;
        let x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
        (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f
    };
    let ascii = |n: u64| {
        let letters = (n + ONES * 6) >> 4 & ONES;
        n + ONES * u64::from(b'0') + letters * u64::from(b'a' - b'0' - 10)
    };
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&ascii(spread(bits >> 32)).to_be_bytes());
    out[8..].copy_from_slice(&ascii(spread(bits & 0xffff_ffff)).to_be_bytes());
    out
}

/// Appends `prefix` and then the 16 lowercase hex digits of `bits`
/// ([`hex16`]; no `fmt` machinery).
fn push_hex(out: &mut Vec<u8>, prefix: &[u8], bits: u64) {
    out.extend_from_slice(prefix);
    out.extend_from_slice(&hex16(bits));
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
/// journal and the serve protocol alike: the literal `inf`, then the
/// bit-exact `x` + 16 lowercase hex digits of [`f64::to_bits`], then a
/// decimal `f64::from_str` accepts **whose value is finite**. `None`
/// for anything else: a malformed hex token (a sign, a wrong digit
/// count, a non-hex digit), and a decimal that is not finite
/// (`infinity`, `NaN`, or `1e309`, which overflows), so that only the
/// literal `inf` ever means an ineligible machine.
pub fn parse_number(tok: &str) -> Option<f64> {
    if tok == "inf" {
        return Some(f64::INFINITY);
    }
    if let Some(hex) = tok.strip_prefix('x') {
        return parse_hex16(hex).map(f64::from_bits);
    }
    tok.parse().ok().filter(|v: &f64| v.is_finite())
}

/// Parses an event time (`@T`, or the operand of `advance`) or a
/// weight: a [`parse_number`] token whose value is finite. An infinite
/// or NaN time would move the session clock past every later event, and
/// a weight is journaled in decimal, where `NaN` or `-inf` would not
/// read back.
fn parse_finite(tok: &str, what: std::fmt::Arguments) -> Result<f64, String> {
    parse_number(tok)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("bad {what} `{tok}` (must be finite)"))
}

/// `"inf inf "` as one native-endian word.
const INF_PAIR: u64 = u64::from_ne_bytes(*b"inf inf ");
/// `"inf "` as one native-endian word.
const INF_ONE: u32 = u32::from_ne_bytes(*b"inf ");

/// The one tokenizer of the serve-script dialect, for journal records
/// and protocol lines alike. A token is a maximal run of bytes that are
/// not ASCII whitespace (space, tab, line feed, form feed, carriage
/// return: [`u8::is_ascii_whitespace`]). Every other byte, a non-ASCII
/// one included, belongs to a token. Tokens end on ASCII bytes, so
/// every token is a `&str` slice of the line.
struct Tokens<'a> {
    line: &'a str,
    /// Byte offset of the first byte not yet taken.
    at: usize,
}

impl<'a> Tokens<'a> {
    fn new(line: &'a str) -> Self {
        Tokens { line, at: 0 }
    }

    fn skip_space(&mut self) {
        let b = self.line.as_bytes();
        while b.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// The rest of the line after the tokens taken so far.
    fn rest(&self) -> &'a str {
        &self.line[self.at..]
    }

    /// Takes the run of `inf` tokens at the cursor that are each
    /// followed by one space, and returns how many it took. It compares
    /// eight bytes (`"inf inf "`) at a time, then four (`"inf "`), so a
    /// dense row of a restricted job, almost all `inf`, costs about one
    /// compare per two machines. The run stops at anything else: an
    /// `inf` before a tab, a CR, a form feed or the end of the line, an
    /// `inf` glued to more token bytes (`infx`), and a second space are
    /// left for [`Iterator::next`].
    fn inf_run(&mut self) -> usize {
        self.skip_space();
        let b = self.line.as_bytes();
        let from = self.at;
        while let Some(w) = b[self.at..].first_chunk::<8>() {
            if u64::from_ne_bytes(*w) != INF_PAIR {
                break;
            }
            self.at += 8;
        }
        if let Some(w) = b[self.at..].first_chunk::<4>() {
            if u32::from_ne_bytes(*w) == INF_ONE {
                self.at += 4;
            }
        }
        (self.at - from) / 4
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.skip_space();
        let start = self.at;
        self.at = token_end(self.line.as_bytes(), start);
        (self.at > start).then(|| &self.line[start..self.at])
    }
}

/// The first index at or after `at` that holds ASCII whitespace, or
/// `b.len()`. It reads eight bytes (one little-endian word) per step:
/// `(w - 0x21…21) & !w & 0x80…80` flags the bytes at or below `b' '`,
/// and the lowest flag is exact (a borrow can only flag bytes above a
/// true one). Every ASCII whitespace byte is below `0x21`; a flagged
/// byte that is not whitespace (a control byte, say) is part of the
/// token, and the scan goes on after it.
fn token_end(b: &[u8], mut at: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    while let Some(w) = b[at..].first_chunk::<8>() {
        let w = u64::from_le_bytes(*w);
        let low = w.wrapping_sub(ONES * 0x21) & !w & HIGH;
        if low == 0 {
            at += 8;
            continue;
        }
        at += (low.trailing_zeros() / 8) as usize;
        if b[at].is_ascii_whitespace() {
            return at;
        }
        at += 1;
    }
    while b.get(at).is_some_and(|c| !c.is_ascii_whitespace()) {
        at += 1;
    }
    at
}

/// Splits a protocol line into its first token (`""` for a blank line)
/// and the rest of the line, with the tokenizer [`parse_line`] uses.
pub fn split_verb(line: &str) -> (&str, &str) {
    let mut toks = Tokens::new(line);
    let verb = toks.next().unwrap_or("");
    (verb, toks.rest())
}

/// Appends the decimal digits of `n` (no `fmt` machinery).
fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends an arrive record body (no checksum suffix) to `out`. The
/// release and weight are decimal (Rust's shortest round-trip); sizes
/// take the row's own form. A dense row writes one token per machine:
/// `inf` for an ineligible machine and otherwise `x` + the hex bits of
/// the `f64`. A sparse row writes `m=<width>` and one `<i>:x<hex>` pair
/// per finite size, so its record is O(eligible) bytes. Either way
/// [`parse_record`] gets every size back bit-exactly — `-0.0`,
/// subnormals and NaN payloads of a dense row included — in the same
/// form. Every byte written is ASCII.
pub fn encode_arrive_into(
    out: &mut Vec<u8>,
    id: usize,
    release: f64,
    weight: f64,
    sizes: &SizeRow,
) {
    let _ = write!(out, "arrive {id} @{release} w={weight}");
    match sizes.form() {
        RowForm::Dense(row) => {
            out.reserve(SIZE_TOKEN_MAX * row.len());
            for &sz in row {
                if sz == f64::INFINITY {
                    out.extend_from_slice(b" inf");
                } else {
                    push_hex(out, b" x", sz.to_bits());
                }
            }
        }
        RowForm::Sparse(row) => {
            out.extend_from_slice(b" m=");
            push_decimal(out, row.width());
            // A pair is a size token plus up to 10 id digits and `:`.
            out.reserve((SIZE_TOKEN_MAX + 11) * row.ids().len());
            for (&i, &sz) in row.ids().iter().zip(row.vals()) {
                out.push(b' ');
                push_decimal(out, i as usize);
                push_hex(out, b":x", sz.to_bits());
            }
        }
    }
}

/// Encodes an arrive record body into a new string; see
/// [`encode_arrive_into`] for the format.
pub fn encode_arrive(id: usize, release: f64, weight: f64, sizes: &SizeRow) -> String {
    let mut body = Vec::new();
    encode_arrive_into(&mut body, id, release, weight, sizes);
    String::from_utf8(body).expect("record bodies are ASCII")
}

/// Dense size tokens a row reads as pairs before it may switch to a
/// full vector: below this a row is cheap in either form.
const DENSE_SWITCH_MIN: usize = 64;

/// The size operands of one arrive line as they come in, in either
/// form (see [`parse_arrive`]).
#[derive(Default)]
struct RowTokens {
    /// Whether an `m=` token or a pair was seen (the sparse form).
    sparse: bool,
    /// The `m=<width>` operand.
    width: Option<usize>,
    /// Dense tokens seen.
    dense_len: usize,
    /// The finite entries: every pair, or the dense tokens' finite
    /// sizes while the row still looks sparse.
    ids: Vec<u32>,
    vals: Vec<f64>,
    /// Every dense token, once the row stopped looking sparse.
    dense: Option<Vec<f64>>,
}

impl RowTokens {
    const MIXED: &'static str = "arrive mixes dense size tokens with m=/<i>:<size> pairs";

    fn width(&mut self, tok: &str) -> Result<(), String> {
        if self.dense_len > 0 {
            return Err(Self::MIXED.into());
        }
        if self.width.is_some() {
            return Err("arrive has more than one m=<width>".into());
        }
        let width = tok
            .parse()
            .map_err(|_| format!("bad row width `m={tok}`"))?;
        self.sparse = true;
        self.width = Some(width);
        Ok(())
    }

    fn pair(&mut self, id: &str, size: &str) -> Result<(), String> {
        if self.dense_len > 0 {
            return Err(Self::MIXED.into());
        }
        self.sparse = true;
        self.ids.push(
            id.parse()
                .map_err(|_| format!("bad machine id `{id}` in `{id}:{size}`"))?,
        );
        self.vals
            .push(parse_number(size).ok_or_else(|| format!("bad size `{size}` in `{id}:{size}`"))?);
        Ok(())
    }

    /// `n` dense `inf` tokens in a row, taken in one call.
    fn infs(&mut self, n: usize) -> Result<(), String> {
        if self.sparse {
            return Err(Self::MIXED.into());
        }
        self.dense_len += n;
        if let Some(row) = &mut self.dense {
            row.resize(row.len() + n, f64::INFINITY);
        }
        Ok(())
    }

    /// One dense token. Finite sizes are kept as pairs while they are
    /// few enough for the sparse form, so a restricted row never
    /// materializes its `∞` entries; past that the row becomes a plain
    /// vector.
    fn dense(&mut self, size: f64) -> Result<(), String> {
        if size == f64::INFINITY {
            return self.infs(1);
        }
        if self.sparse {
            return Err(Self::MIXED.into());
        }
        let i = self.dense_len;
        self.dense_len += 1;
        if let Some(row) = &mut self.dense {
            row.push(size);
            return Ok(());
        }
        let as_pair = size.is_finite()
            && size > 0.0
            && i <= u32::MAX as usize
            && (self.dense_len < DENSE_SWITCH_MIN
                || 12 * (self.ids.len() + 1) < 8 * self.dense_len);
        if as_pair {
            self.ids.push(i as u32);
            self.vals.push(size);
        } else {
            let mut row = vec![f64::INFINITY; i];
            for (&k, &p) in self.ids.iter().zip(&self.vals) {
                row[k as usize] = p;
            }
            row.push(size);
            self.ids = Vec::new();
            self.vals = Vec::new();
            self.dense = Some(row);
        }
        Ok(())
    }

    fn finish(self) -> Result<SizeRow, String> {
        if let Some(row) = self.dense {
            return Ok(row.into());
        }
        let width = match (self.sparse, self.width) {
            (false, _) => self.dense_len,
            (true, Some(width)) => width,
            (true, None) => return Err("arrive has <i>:<size> pairs but no m=<width>".into()),
        };
        SizeRow::from_pairs(width, self.ids, self.vals).map_err(|e| format!("bad sparse row: {e}"))
    }
}

/// Parses the operands of an `arrive` protocol line or journal record
/// (the rest of the line after the job id) into an [`Arrival`] whose
/// row is built straight in its final form (no dense intermediate for a
/// sparse row), and whether the operands state its `@T`. The one arrive
/// parser: [`parse_line`] calls it for journal records and `osr serve`
/// lines alike.
///
/// ```text
/// operands := ("@" time | "w=" number | size)*            # dense
///           | ("@" time | "w=" number | "m=" width | pair)* # sparse
/// pair     := machine ":" number                             # finite, > 0
/// ```
///
/// A dense row has one `size` token per machine (`inf` = ineligible).
/// A sparse row names its width once with `m=` and lists the finite
/// sizes as pairs with strictly increasing machine ids below the
/// width; every other machine is `∞`. Errors, never panics, on: an
/// unparsable token (a decimal that is not finite included), a release
/// time that is not finite, dense tokens mixed with `m=` or pairs,
/// pairs without `m=`, a second `m=`, unsorted or repeated ids, an id
/// at or past the width, and a pair whose size is not finite and
/// positive. An omitted `@T` leaves the release `NaN`, for
/// [`EventLine::resolve`] to fill in.
///
/// Runs of `inf` tokens each followed by one space are taken a word at
/// a time and added to the row in one step; every other token goes
/// through the token path below.
fn parse_arrive(operands: &str) -> Result<(Arrival, bool), String> {
    let num =
        |tok: &str, what: &str| parse_number(tok).ok_or_else(|| format!("bad {what} `{tok}`"));
    let mut release = None;
    let mut weight = 1.0;
    let mut row = RowTokens::default();
    let mut toks = Tokens::new(operands);
    loop {
        let infs = toks.inf_run();
        if infs > 0 {
            row.infs(infs)?;
        }
        let Some(t) = toks.next() else { break };
        // An `inf` the run left (one before a tab, a CR or the end of
        // the line) is still ineligible. Of a dense row that is not
        // restricted, almost every token is a hex size.
        if t == "inf" {
            row.dense(f64::INFINITY)?;
        } else if t.starts_with('x') {
            row.dense(num(t, "size")?)?;
        } else if let Some(v) = t.strip_prefix('@') {
            release = Some(parse_finite(v, format_args!("release time"))?);
        } else if let Some(v) = t.strip_prefix("w=") {
            weight = parse_finite(v, format_args!("weight"))?;
        } else if let Some(v) = t.strip_prefix("m=") {
            row.width(v)?;
        } else if let Some(size) = parse_number(t) {
            row.dense(size)?;
        } else if let Some((id, size)) = t.split_once(':') {
            row.pair(id, size)?;
        } else {
            return Err(format!("bad size `{t}`"));
        }
    }
    let arrival = Arrival {
        release: release.unwrap_or(f64::NAN),
        weight,
        sizes: row.finish()?,
    };
    Ok((arrival, release.is_some()))
}

/// Appends the record body of `ev` to `out`; `id` is the arrive id
/// and is ignored for capacity and advance events. Capacity and advance
/// times are decimal.
fn encode_event_into(out: &mut Vec<u8>, id: usize, ev: &Event) {
    match ev {
        Event::Arrive(a) => encode_arrive_into(out, id, a.release, a.weight, &a.sizes),
        Event::Capacity {
            change,
            machine,
            time,
        } => {
            let _ = write!(out, "{change} {machine} @{time}");
        }
        Event::Advance { time } => {
            let _ = write!(out, "advance {time}");
        }
    }
}

/// Encodes a capacity record body.
pub fn encode_capacity(change: CapacityChange, machine: usize, time: f64) -> String {
    let ev = Event::Capacity {
        change,
        machine,
        time,
    };
    let mut body = Vec::new();
    encode_event_into(&mut body, 0, &ev);
    String::from_utf8(body).expect("record bodies are ASCII")
}

/// One event line as [`parse_line`] reads it: the event, its arrive id,
/// and whether the line stated its time. A line that omits `@T` is not
/// complete until [`EventLine::resolve`] gives it the default time,
/// which only the reader of the stream knows (the time of the event
/// before it). Parsing needs no stream state, so `osr serve` parses on
/// its producer threads and resolves on the thread that applies.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLine {
    /// The arrive id (`None` for capacity and advance lines).
    pub id: Option<usize>,
    /// The event. An omitted time reads `NaN` until resolved.
    pub event: Event,
    /// Whether the line stated its time; if not, every
    /// [`EventLine::resolve`] sets it anew.
    pub timed: bool,
}

impl EventLine {
    /// Gives a line that omitted `@T` the time `default_time`; a line
    /// that stated its time is left as it is. With `None` (a journal
    /// record, whose times are all explicit) an omitted time is an
    /// error. Resolving again, against another default, is exact and
    /// costs no second parse.
    pub fn resolve(&mut self, default_time: Option<f64>) -> Result<(), String> {
        if self.timed {
            return Ok(());
        }
        let t = default_time.ok_or_else(|| match &self.event {
            Event::Arrive(_) => "arrive is missing @T".to_string(),
            Event::Capacity { change, .. } => format!("{change} needs a time"),
            Event::Advance { .. } => "advance needs a time".to_string(),
        })?;
        match &mut self.event {
            Event::Arrive(a) => a.release = t,
            Event::Capacity { time, .. } | Event::Advance { time } => *time = t,
        }
        Ok(())
    }

    /// The line as a [`Record`]. Resolve it first: an omitted time
    /// reads `NaN`.
    pub fn into_record(self) -> Record {
        match self.event {
            Event::Arrive(arrival) => Record::Arrive {
                id: self.id.expect("parse_line gives every arrive its id"),
                arrival,
            },
            Event::Capacity {
                change,
                machine,
                time,
            } => Record::Capacity {
                change,
                machine,
                time,
            },
            Event::Advance { time } => Record::Advance { time },
        }
    }
}

/// Parses a record body (checksum already stripped and verified):
/// [`parse_line`], resolved with no default time, so a record that
/// omits its time is an error.
pub fn parse_record(body: &str) -> Result<Record, String> {
    let mut line = parse_line(body)?;
    line.resolve(None)?;
    Ok(line.into_record())
}

/// Parses one event line of the serve-script dialect: a journal record
/// body, or an `osr serve` protocol line. The one event parser of both.
/// An arrive or capacity event may omit `@T`; the line then waits for
/// [`EventLine::resolve`]. Every stated time must be finite, and a
/// capacity or advance line with an operand after its time is an error.
///
/// Every token goes through one byte tokenizer that splits on ASCII
/// whitespace only, and takes a run of `inf ` tokens a word at a time.
pub fn parse_line(line: &str) -> Result<EventLine, String> {
    let mut toks = Tokens::new(line);
    let cmd = toks.next().ok_or("empty event line")?;
    let event_time = |tok: &str, what: &str| -> Result<f64, String> {
        parse_finite(
            tok.strip_prefix('@').unwrap_or(tok),
            format_args!("{what} time"),
        )
    };
    let (event, timed) = match cmd {
        "arrive" => {
            let id_tok = toks.next().ok_or("arrive needs a job id")?;
            let id: usize = id_tok
                .parse()
                .map_err(|_| format!("bad job id `{id_tok}`"))?;
            let (arrival, timed) = parse_arrive(toks.rest())?;
            return Ok(EventLine {
                id: Some(id),
                event: Event::Arrive(arrival),
                timed,
            });
        }
        "join" | "drain" | "crash" => {
            let change = match cmd {
                "join" => CapacityChange::Join,
                "drain" => CapacityChange::Drain,
                _ => CapacityChange::Crash,
            };
            let m_tok = toks
                .next()
                .ok_or_else(|| format!("{cmd} needs a machine"))?;
            let machine: usize = m_tok
                .parse()
                .map_err(|_| format!("bad machine `{m_tok}`"))?;
            let time = toks.next().map(|t| event_time(t, cmd)).transpose()?;
            let event = Event::Capacity {
                change,
                machine,
                time: time.unwrap_or(f64::NAN),
            };
            (event, time.is_some())
        }
        "advance" => {
            let t = toks.next().ok_or("advance needs a time")?;
            let time = event_time(t, cmd)?;
            (Event::Advance { time }, true)
        }
        other => {
            return Err(format!(
                "unknown event `{other}` (want arrive|join|drain|crash|advance)"
            ))
        }
    };
    match toks.next() {
        None => Ok(EventLine {
            id: None,
            event,
            timed,
        }),
        Some(extra) => Err(format!(
            "{cmd} takes no operand after its time, got `{extra}`"
        )),
    }
}

const HEADER_PREFIX: &str = "#osr-journal v3 fp=";
/// Headers of the older versions this binary still recovers, each the
/// same length as [`HEADER_PREFIX`] so recovery can upgrade it in
/// place.
const OLDER_HEADER_PREFIXES: [&str; 2] = ["#osr-journal v1 fp=", "#osr-journal v2 fp="];
/// What starts a record's checksum token; the next byte is the tag.
const CHECK_SEP: &str = " #";
/// Tag of a [`word_sum64`] checksum, the one v3 appends write.
const TAG_WORD: u8 = b'w';
/// Tag of an [`fnv1a`] checksum (v1 and v2 records).
const TAG_FNV: u8 = b'h';

fn header_line(fingerprint: u64) -> String {
    format!("{HEADER_PREFIX}{fingerprint:016x}\n")
}

/// Largest line buffer a [`Journal`] keeps between appends.
const FRAMES_RETAIN_BYTES: usize = 8 << 20;

/// Journal lines framed in one buffer, ready for a single write: each
/// record body, then ` #w`, the [`word_sum64`] of that body, and a
/// newline.
#[derive(Default)]
struct Frames {
    buf: Vec<u8>,
    /// Start of each line within `buf`.
    starts: Vec<usize>,
}

impl Frames {
    /// Frames one record whose body `write_body` appends to the buffer.
    fn push_with(&mut self, write_body: impl FnOnce(&mut Vec<u8>)) {
        let start = self.buf.len();
        self.starts.push(start);
        write_body(&mut self.buf);
        let sum = word_sum64(&self.buf[start..]);
        push_hex(&mut self.buf, b" #w", sum);
        self.buf.push(b'\n');
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.starts.clear();
    }
}

/// Splits a complete (newline-stripped) journal line into its body if
/// the checksum token verifies under the checksum its tag names, so a
/// file holding v2 records and v3 appends verifies record by record.
fn validate_line(line: &[u8]) -> Option<&str> {
    let line = std::str::from_utf8(line).ok()?;
    let at = line.rfind(CHECK_SEP)?;
    let (body, suffix) = line.split_at(at);
    let checksum: fn(&[u8]) -> u64 = match *suffix.as_bytes().get(CHECK_SEP.len())? {
        TAG_WORD => word_sum64,
        TAG_FNV => fnv1a,
        _ => return None,
    };
    let sum = parse_hex16(&suffix[CHECK_SEP.len() + 1..])?;
    (sum == checksum(body.as_bytes())).then_some(body)
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
        let mut older_header = false;
        let (header_end, mut records, mut dropped) = match data.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let header = std::str::from_utf8(&data[..nl])
                    .map_err(|_| format!("journal {}: header is not UTF-8", path.display()))?;
                let hex = match header.strip_prefix(HEADER_PREFIX) {
                    Some(hex) => hex,
                    None => {
                        older_header = true;
                        OLDER_HEADER_PREFIXES
                            .iter()
                            .find_map(|p| header.strip_prefix(p))
                            .ok_or_else(|| {
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
        } else if older_header {
            // Appends from here on write v3 records (hex and sparse
            // sizes, `#w` checksums): mark the file v3 (same length,
            // rewritten in place) before the first one.
            OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|mut f| f.write_all(header.as_bytes()))
                .map_err(|e| Self::io_err(path, "upgrade header", e))?;
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
        self.append_with(|f| f.push_with(|buf| buf.extend_from_slice(body.as_bytes())))
            .map(|offs| offs[0])
    }

    /// Appends a batch of records as one buffered write and **one**
    /// fsync (so batch ingest amortizes the sync cost). Returns each
    /// record's start offset, for [`Self::truncate_to`] on a partial
    /// batch failure.
    pub fn append_batch(&mut self, bodies: &[String]) -> Result<Vec<u64>, String> {
        self.append_with(|f| {
            for body in bodies {
                f.push_with(|buf| buf.extend_from_slice(body.as_bytes()));
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
            .write_all(&frames.buf)
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
                let line = &frames.buf[last..];
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
    /// the never-attempted suffix is not journaled twice when the
    /// caller resubmits it.
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

/// Replays recovered record bodies into a fresh session through
/// [`ServeSession::apply`]. Each record is parsed once and queued; the
/// queue is applied when an arrive id breaks density (the previous
/// arrive with that id was rejected, so the cursor must be exact before
/// the id can be checked), at the snapshot's high-water record, and at
/// the end. A rejected record counts once and replay resumes with the
/// records after it. If `snapshot` is given, the cursor is
/// cross-checked when replay passes its high-water record.
pub fn replay(
    sess: &mut dyn ServeSession,
    records: &[String],
    snapshot: Option<&Snapshot>,
) -> Result<ReplayOutcome, String> {
    let boundary = snapshot.map(|s| s.records as usize);
    let mut rejected = 0;
    let mut queue: Vec<Event> = Vec::new();
    let mut queued_arrivals = 0;
    let mut parsed = records.iter().enumerate().map(|(i, body)| {
        parse_record(body)
            .map(Record::into_event)
            .map_err(|e| format!("journal record {i}: {e}"))
    });
    for i in 0..=records.len() {
        let next = parsed.next().transpose()?;
        let density_break =
            matches!(next, Some((Some(id), _)) if id != sess.cursor().0 + queued_arrivals);
        if next.is_none() || boundary == Some(i) || density_break {
            // Each rejection re-runs one the original run produced (state
            // untouched); `apply` hands back the records after it.
            while sess.apply(&mut queue).is_err() {
                rejected += 1;
            }
            queued_arrivals = 0;
        }
        if boundary == Some(i) {
            check_snapshot_cursor(snapshot.expect("boundary set"), sess.cursor(), i)?;
        }
        let Some((id, ev)) = next else { break };
        if let Some(id) = id {
            if id != sess.cursor().0 + queued_arrivals {
                return Err(format!(
                    "journal record {i} carries id {id} but the replay cursor is {} — \
                     journal does not mirror a single session stream",
                    sess.cursor().0
                ));
            }
            queued_arrivals += 1;
        }
        queue.push(ev);
    }
    let (next_id, clock) = sess.cursor();
    Ok(ReplayOutcome {
        next_id,
        clock,
        rejected,
    })
}

fn check_snapshot_cursor(snap: &Snapshot, cursor: (usize, f64), at: usize) -> Result<(), String> {
    // Exact f64 equality is correct here: replay is bit-deterministic,
    // so any drift means the journal and snapshot disagree.
    if (snap.next_id, snap.clock) != cursor {
        return Err(format!(
            "snapshot cross-check failed after {at} record(s): snapshot cursor \
             (next_id {}, clock {}) vs replayed (next_id {}, clock {}) — \
             journal and snapshot disagree, refusing to recover",
            snap.next_id, snap.clock, cursor.0, cursor.1
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
}

/// A [`ServeSession`] decorator that write-ahead journals every event
/// before delegating to the wrapped session. The serve loop holds one
/// of these exactly like a plain session; all durability (appends,
/// fsync, snapshots, batch truncation) lives here.
pub struct JournaledSession {
    inner: Box<dyn ServeSession>,
    journal: Journal,
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
        })
    }

    /// Recovers a crashed run: validates and truncates the journal at
    /// `path`, replays every surviving record into `inner` (which must
    /// be freshly built with the fingerprinted configuration), and
    /// returns the journaling session positioned to accept the rest of
    /// the stream (its [`ServeSession::cursor`] is the recovered
    /// position), plus the report and any non-fatal warnings.
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
        };
        Ok((
            JournaledSession {
                inner,
                journal: rec.journal,
            },
            report,
            rec.warnings,
        ))
    }
}

impl ServeSession for JournaledSession {
    fn algorithm(&self) -> &'static str {
        self.inner.algorithm()
    }

    fn machines(&self) -> usize {
        self.inner.machines()
    }

    fn cursor(&self) -> (usize, f64) {
        self.inner.cursor()
    }

    /// Group commit: frames every event of the batch (arrive ids from
    /// the cursor on), writes and fsyncs them once, then applies the
    /// batch. A rejected event's record stays, the unattempted records
    /// after it are truncated away.
    fn apply(&mut self, events: &mut Vec<Event>) -> Result<(), (usize, String)> {
        if events.is_empty() {
            return Ok(());
        }
        let n = events.len();
        let mut id = self.inner.cursor().0;
        let appended = self.journal.append_with(|f| {
            for ev in events.iter() {
                f.push_with(|buf| encode_event_into(buf, id, ev));
                id += usize::from(matches!(ev, Event::Arrive(_)));
            }
        });
        let durable = appended.and_then(|offsets| match failpoint::hit("mid-batch") {
            FailHit::Proceed => Ok(offsets),
            FailHit::Error(e) => {
                // Nothing was applied: un-journal the whole batch.
                let _ = self.journal.truncate_to(offsets[0], n as u64);
                Err(e)
            }
            FailHit::Torn => failpoint::kill_now("mid-batch"),
        });
        let offsets = durable.map_err(|e| {
            // Nothing was applied: event 0 fails.
            events.remove(0);
            (0, e)
        })?;
        let mut res = self.inner.apply(events);
        if let Err((k, e)) = &mut res {
            // Record k re-rejects on replay; k+1.. were never attempted.
            if let Some(&at) = offsets.get(*k + 1) {
                if let Err(te) = self.journal.truncate_to(at, (n - *k - 1) as u64) {
                    e.push_str(&format!(" (and journal truncate failed: {te})"));
                }
            }
        }
        let (next_id, clock) = self.inner.cursor();
        self.journal
            .maybe_snapshot(next_id, clock)
            .map_err(|e| (n - events.len() - 1, e))?;
        res
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
            let (next_id, clock) = s.inner.cursor();
            s.journal.write_snapshot(next_id, clock)?;
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
        f.push_with(|buf| buf.extend_from_slice(body.as_bytes()));
        String::from_utf8(f.buf).unwrap()
    }

    /// Feed a small deterministic stream through a journaled session.
    fn feed(js: &mut JournaledSession, n: usize) {
        for k in 0..n {
            let t = k as f64 * 0.5;
            js.arrive(t, 1.0, vec![1.0 + k as f64 % 3.0, 2.0].into())
                .unwrap();
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
            sizes: vec![1.5, f64::INFINITY, 0.1].into(),
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
            parse_record("advance 9.5").unwrap(),
            Record::Advance { time } if time == 9.5
        ));
        assert!(parse_record("explode 1 2").is_err());
        // Only a protocol line may omit `@T`.
        assert!(parse_record("drain 1")
            .unwrap_err()
            .contains("needs a time"));
        let mut line = parse_line("drain 1").unwrap();
        assert!(!line.timed && line.event.time().is_nan());
        line.resolve(Some(2.5)).unwrap();
        assert!(matches!(
            line.clone().into_record(),
            Record::Capacity { machine: 1, time, .. } if time == 2.5
        ));
        // Resolving again moves an omitted time, never a stated one.
        line.resolve(Some(4.0)).unwrap();
        assert_eq!(line.event.time(), 4.0);
        let mut line = parse_line("arrive 3 w=2 1 1").unwrap();
        assert_eq!((line.id, line.timed), (Some(3), false));
        assert!(line
            .clone()
            .resolve(None)
            .unwrap_err()
            .contains("missing @T"));
        line.resolve(Some(1.5)).unwrap();
        assert_eq!(line.event.time(), 1.5);
        let mut line = parse_line("join 0 @7").unwrap();
        line.resolve(Some(1.0)).unwrap();
        assert_eq!((line.timed, line.event.time()), (true, 7.0));
        // An operand after a capacity or advance time is an error.
        for bad in [
            "drain 1 @1.5 junk",
            "crash 0 @2 @3",
            "join 1 @1 inf",
            "advance 2 9",
            "advance @2 #c",
        ] {
            let err = parse_record(bad).unwrap_err();
            assert!(err.contains("no operand after its time"), "{bad}: {err}");
            assert!(parse_line(bad).is_err(), "{bad}");
        }
    }

    /// Event times are finite: `inf`, a hex infinity and a decimal that
    /// is not finite are refused in every time slot, so no line can move
    /// the session clock to `+∞`.
    #[test]
    fn non_finite_event_times_are_errors() {
        for bad in [
            "advance inf",
            "advance @inf",
            "advance nan",
            "advance NaN",
            "advance -inf",
            "advance 1e309",
            "advance x7ff0000000000000",
            "advance x7ff8000000000000",
            "drain 0 @inf",
            "join 0 @nan",
            "crash 0 @x7ff0000000000000",
            "arrive 0 @inf w=1 1 2",
            "arrive 0 @nan w=1 1 2",
            "arrive 0 @1e309 w=1 1 2",
            "arrive 0 w=1 m=2 0:1 @-inf",
        ] {
            let err = parse_line(bad).unwrap_err();
            assert!(
                err.contains("time") && err.contains("finite"),
                "{bad}: {err}"
            );
        }
        // A size that overflows is a bad size, not an ineligible machine.
        let err = parse_record("arrive 0 @1 w=1 1e309 2").unwrap_err();
        assert!(err.contains("bad size `1e309`"), "{err}");
        // Negative and large finite times still parse; the session
        // judges their order.
        assert!(parse_record("advance -1").is_ok());
        assert!(parse_record("advance 1e300").is_ok());
    }

    /// A hand-written journal that holds a checksum-valid `advance inf`
    /// record does not recover into a session stuck at `t = ∞`: recovery
    /// fails and names the record.
    #[test]
    fn recovery_refuses_a_journaled_infinite_time() {
        let fp = fingerprint("flow:0.5", 2, &[]);
        let path = tmp("advance-inf");
        let mut text = header_line(fp);
        for body in [
            "arrive 0 @0.5 w=1 1 2",
            "advance inf",
            "arrive 1 @1 w=1 1 2",
        ] {
            text.push_str(&framed(body));
        }
        std::fs::write(&path, text).unwrap();
        assert_eq!(Journal::recover(&path, fp, 0).unwrap().records.len(), 3);
        let err = JournaledSession::recover(sess(2), &path, fp, 0)
            .err()
            .expect("an infinite advance must not recover");
        assert!(err.contains("journal record 1:"), "{err}");
        assert!(err.contains("bad advance time `inf`"), "{err}");
        // Without that record the rest recovers: the other records keep
        // their checksums.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: String = text
            .split_inclusive('\n')
            .filter(|l| !l.starts_with("advance inf"))
            .collect();
        std::fs::write(&path, kept).unwrap();
        let (js, report, _) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert_eq!((report.records_replayed, js.cursor()), (2, (2, 1.0)));
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
            let sizes: SizeRow = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let body = encode_arrive(id, release, 2.5, &sizes);
            let Record::Arrive { id: got_id, arrival } = parse_record(&body).unwrap() else {
                panic!("not an arrive record: {body}");
            };
            prop_assert_eq!((got_id, arrival.release, arrival.weight), (id, release, 2.5));
            let got: Vec<u64> = arrival.sizes.iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(got, bits, "{}", body);
        }

        /// Restricted rows (a few finite sizes among many `inf`) take
        /// the sparse record and come back bit-exactly, in the same
        /// form; the record holds one pair per finite size.
        #[test]
        fn sparse_arrive_records_round_trip_bit_exactly(
            width in 4usize..300,
            picks in prop::collection::vec((any::<u64>(), 1u64..0x7ff0_0000_0000_0000), 0..8),
            id in 0usize..1_000_000,
        ) {
            let mut dense = vec![f64::INFINITY; width];
            for &(at, bits) in &picks {
                // Positive finite bit patterns, subnormals included.
                dense[at as usize % width] = f64::from_bits(bits);
            }
            let sizes = SizeRow::from(dense.clone());
            let finite = dense.iter().filter(|p| p.is_finite()).count();
            prop_assert_eq!(sizes.as_dense().is_none(), 12 * finite < 8 * width);
            let body = encode_arrive(id, 1.5, 1.0, &sizes);
            if sizes.as_dense().is_none() {
                prop_assert!(body.contains(&format!(" m={width}")), "{}", body);
                prop_assert_eq!(body.matches(':').count(), finite, "{}", body);
            }
            let Record::Arrive { id: got_id, arrival } = parse_record(&body).unwrap() else {
                panic!("not an arrive record: {body}");
            };
            prop_assert_eq!(got_id, id);
            prop_assert_eq!(arrival.sizes.as_dense().is_none(), sizes.as_dense().is_none());
            let got: Vec<u64> = arrival.sizes.iter().map(|s| s.to_bits()).collect();
            let want: Vec<u64> = dense.iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(got, want, "{}", body);
        }

        /// The word-at-a-time hex kernel writes what `{:016x}` writes,
        /// for any bit pattern, and `parse_number` reads it back.
        #[test]
        fn hex_digits_match_fmt_and_parse_back(bits in any::<u64>(), shift in 0u32..64) {
            // `shift` also reaches patterns with long runs of zero
            // nibbles, which uniform bits almost never give.
            for bits in [bits, bits >> shift, bits << shift] {
                let mut out = Vec::new();
                push_hex(&mut out, b"x", bits);
                let token = String::from_utf8(out).unwrap();
                prop_assert_eq!(&token[1..], format!("{bits:016x}"));
                let back = parse_number(&token).map(f64::to_bits);
                prop_assert_eq!(back, Some(bits), "{}", token);
            }
        }
    }

    #[test]
    fn number_tokens_parse_strictly_and_malformed_hex_errors() {
        assert_eq!(parse_number("inf"), Some(f64::INFINITY));
        assert_eq!(parse_number("x3ff8000000000000"), Some(1.5));
        assert_eq!(parse_number("xfff0000000000000"), Some(f64::NEG_INFINITY));
        assert_eq!(parse_number(""), None);
        // Every finite decimal `f64::from_str` takes still parses.
        for (tok, v) in [
            ("2.5", 2.5f64),
            ("1e3", 1e3),
            ("-0", -0.0),
            ("1e308", 1e308),
        ] {
            assert_eq!(
                parse_number(tok).map(f64::to_bits),
                Some(v.to_bits()),
                "{tok}"
            );
        }
        for bad in [
            // Only the literal `inf` is infinite: no decimal that is not
            // finite, an overflowing one included.
            "infinity",
            "Inf",
            "-inf",
            "+inf",
            "NaN",
            "nan",
            "1e309",
            "-1e309",
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

    /// The log of the stream the v1 and v2 fixtures below hold, plus
    /// one more arrival at 3.5 with `last` sizes.
    fn fresh_run_log(last: Vec<f64>) -> String {
        let inf = f64::INFINITY;
        let mut fresh = sess(2);
        fresh.arrive(0.125, 1.0, vec![2.5, inf].into()).unwrap();
        fresh
            .arrive(0.5, 2.0, vec![1.3, 0.7000000000000001].into())
            .unwrap();
        fresh.capacity(CapacityChange::Drain, 1, 0.75).unwrap();
        fresh
            .arrive(1.0, 1.0, vec![3.7310627019737903, inf].into())
            .unwrap();
        fresh.capacity(CapacityChange::Join, 1, 1.5).unwrap();
        fresh.arrive(2.0, 1.0, vec![0.1, 4.0].into()).unwrap();
        fresh
            .apply(&mut vec![Event::Advance { time: 3.0 }])
            .unwrap();
        fresh.arrive(3.5, 1.0, last.into()).unwrap();
        model_io::log_to_string(&fresh.finish().unwrap())
    }

    /// A journal as a `v1` binary wrote it (every size in shortest
    /// decimal) must still recover to the log of an uninterrupted run,
    /// and recovery marks the file `v3` before appending v3 records.
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
        let oracle = fresh_run_log(vec![0.3, 5.0e-324]);

        let path = tmp("v1");
        std::fs::write(&path, V1).unwrap();
        let (mut js, report, warnings) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!((report.records_replayed, report.rejected_replays), (7, 0));
        assert_eq!(js.cursor(), (4, 3.0));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, V1.replacen("v1", "v3", 1), "header upgraded in place");

        // A hex record after the decimal ones; a second crash and
        // recovery over the mixed file still reproduces the fresh run.
        js.arrive(3.5, 1.0, vec![0.3, 5.0e-324].into()).unwrap();
        drop(js);
        let (js, report, _w) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert_eq!(report.records_replayed, 8);
        assert_eq!(
            model_io::log_to_string(&Box::new(js).finish().unwrap()),
            oracle
        );
    }

    /// A journal as a `v2` binary wrote it (hex sizes, FNV-1a `#h`
    /// checksums) recovers under v3 to the fresh-run log, takes v3
    /// appends (`#w` checksums, a sparse row) behind its `#h` records,
    /// and the mixed file recovers again record by record.
    #[test]
    fn v2_journal_recovers_and_takes_v3_appends() {
        const V2: &str = "\
#osr-journal v2 fp=e027f4498ba5eed7
arrive 0 @0.125 w=1 x4004000000000000 inf #h244b938f85f91c16
arrive 1 @0.5 w=2 x3ff4cccccccccccd x3fe6666666666667 #heee421f1812926c7
drain 1 @0.75 #hb602e7bb02e72d2c
arrive 2 @1 w=1 x400dd93766e26c2f inf #h98e4b30afa85eee6
join 1 @1.5 #h2747e20e801ab8a4
arrive 3 @2 w=1 x3fb999999999999a x4010000000000000 #he83a2169e47a7711
advance 3 #h111adf285e162cdc
";
        let fp = fingerprint("flow:0.5", 2, &[]);
        let inf = f64::INFINITY;
        let oracle = fresh_run_log(vec![inf, 0.3]);

        let path = tmp("v2");
        std::fs::write(&path, V2).unwrap();
        let (mut js, report, warnings) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!((report.records_replayed, report.rejected_replays), (7, 0));
        assert_eq!(js.cursor(), (4, 3.0));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, V2.replacen("v2", "v3", 1), "header upgraded in place");

        // One finite size among two machines: the sparse form.
        let row: SizeRow = vec![inf, 0.3].into();
        assert!(row.as_dense().is_none());
        js.arrive(3.5, 1.0, row).unwrap();
        drop(js);
        let text = std::fs::read_to_string(&path).unwrap();
        let last = text.lines().last().unwrap();
        assert!(
            last.starts_with("arrive 4 @3.5 w=1 m=2 1:x3fd3333333333333 #w"),
            "{last}"
        );
        let (js, report, _w) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert_eq!(report.records_replayed, 8);
        assert_eq!(
            model_io::log_to_string(&Box::new(js).finish().unwrap()),
            oracle
        );
    }

    /// Every single-bit flip in a record's body or checksum fails
    /// verification under both tags, and recovery treats a flipped
    /// last record as a torn tail and a flipped middle one as mid-file
    /// corruption.
    #[test]
    fn bit_flips_fail_the_record_checksum_under_both_tags() {
        let v3 = framed("arrive 12 @0.5 w=1 m=9 2:x3ff8000000000000 7:x4000000000000000");
        let v2 = "arrive 0 @0.125 w=1 x4004000000000000 inf #h244b938f85f91c16\n";
        for line in [v3.as_str(), v2] {
            let line = line.trim_end().as_bytes();
            assert!(validate_line(line).is_some());
            for at in 0..line.len() {
                for bit in 0..8 {
                    let mut flipped = line.to_vec();
                    flipped[at] ^= 1 << bit;
                    assert!(
                        validate_line(&flipped).is_none(),
                        "flip of bit {bit} at byte {at} verified: {}",
                        String::from_utf8_lossy(&flipped)
                    );
                }
            }
        }
        // Truncation and zero padding change the word checksum too:
        // the length seeds it.
        let body = b"arrive 3 @1 w=1 m=9 2:x3ff8000000000000\0\0";
        for len in 1..body.len() {
            assert_ne!(
                word_sum64(&body[..len]),
                word_sum64(&body[..len - 1]),
                "{len}"
            );
        }

        let path = tmp("flip");
        let fp = fingerprint("flow:0.5", 2, &[]);
        let mut js = JournaledSession::create(sess(2), &path, fp, 0).unwrap();
        feed(&mut js, 4);
        drop(js);
        let intact = std::fs::read(&path).unwrap();
        let flip_at = |at: usize| {
            let mut bytes = intact.clone();
            bytes[at] ^= 0x04;
            std::fs::write(&path, bytes).unwrap();
        };
        flip_at(intact.len() - 30); // inside the last record
        let rec = Journal::recover(&path, fp, 0).unwrap();
        assert_eq!((rec.dropped, rec.records.len()), (1, 4));
        std::fs::write(&path, &intact).unwrap();
        let second = intact.iter().position(|&b| b == b'\n').unwrap() + 10;
        flip_at(second); // inside the first record
        let err = Journal::recover(&path, fp, 0).err().unwrap();
        assert!(err.contains("mid-file corruption"), "{err}");
    }

    /// Malformed arrive operands are errors, never panics, through the
    /// one arrive parser — as journal records here and as protocol
    /// lines in `osr serve`'s tests.
    #[test]
    fn malformed_arrive_rows_are_errors() {
        for (operands, why) in [
            (
                "m=8 5:x3ff0000000000000 2:x3ff0000000000000",
                "strictly increasing",
            ),
            ("m=8 2:1 2:1", "strictly increasing"),
            ("m=8 8:1", "out of range"),
            ("m=8 9:1.5", "out of range"),
            ("3:1.5", "no m="),
            ("m=8 m=8 3:1.5", "more than one m="),
            ("m=x 3:1.5", "bad row width"),
            ("m=-1", "bad row width"),
            ("m= 3:1.5", "bad row width"),
            ("1 inf m=2", "mixes"),
            ("m=2 1 inf", "mixes"),
            ("1 0:1.5", "mixes"),
            ("0:1.5 inf", "mixes"),
            ("m=8 3:inf", "finite and positive"),
            ("m=8 3:0", "finite and positive"),
            ("m=8 3:-2", "finite and positive"),
            ("m=8 3:-0", "finite and positive"),
            ("m=8 3:xfff8000000000000", "finite and positive"),
            ("m=8 3:", "bad size"),
            ("m=8 :1.5", "bad machine id"),
            ("m=8 -3:1.5", "bad machine id"),
            ("m=8 99999999999:1.5", "bad machine id"),
            ("m=8 3:1:5", "bad size"),
            ("m=8 3:x3ff", "bad size"),
            ("m=99999999999999999999 3:1.5", "bad row width"),
        ] {
            let body = format!("arrive 0 @1 w=1 {operands}");
            let err = parse_record(&body).expect_err(&body);
            assert!(err.contains(why), "{body}: {err}");
            let err = parse_arrive(operands).expect_err(&body);
            assert!(err.contains(why), "{body}: {err}");
        }
        // A width past the u32 id space is refused before any row is
        // allocated for it.
        let huge = format!("m={} 0:1 1:1", u64::MAX);
        assert!(parse_arrive(&huge).is_err());
        // Well-formed rows in both forms read the same values.
        let (sparse, _) = parse_arrive("@0 m=8 2:1.5 5:x4000000000000000").unwrap();
        let (dense, _) = parse_arrive("@0 inf inf 1.5 inf inf 2 inf inf").unwrap();
        assert_eq!(sparse, dense);
        assert!(sparse.sizes.as_dense().is_none() && dense.sizes.as_dense().is_none());
        let (empty, timed) = parse_arrive("m=3").unwrap();
        assert_eq!(empty.sizes, vec![f64::INFINITY; 3]);
        assert!(!timed && empty.release.is_nan());
        assert!(parse_record("arrive 0 w=2")
            .unwrap_err()
            .contains("missing @T"));
    }

    /// A dense protocol row of a restricted job parses straight into
    /// pairs (no dense vector), and a wide fully eligible one into a
    /// dense row, whatever order its finite sizes come in.
    #[test]
    fn dense_tokens_build_the_form_the_rule_picks() {
        let inf = f64::INFINITY;
        for (m, finite) in [
            (16_384usize, vec![0usize, 9_001, 16_383]),
            (200, (0..200).collect()),
            (200, (100..200).collect()),
            (200, (0..100).collect()),
            (6, vec![4]),
        ] {
            let mut row = vec![inf; m];
            for &i in &finite {
                row[i] = 1.0 + i as f64;
            }
            let line: Vec<String> = row
                .iter()
                .map(|p| {
                    if p.is_finite() {
                        p.to_string()
                    } else {
                        "inf".into()
                    }
                })
                .collect();
            let got = parse_arrive(&line.join(" ")).unwrap().0.sizes;
            let want = SizeRow::from(row.clone());
            assert_eq!(
                got.as_dense().is_some(),
                want.as_dense().is_some(),
                "m={m} finite={}",
                finite.len()
            );
            assert_eq!(got, row);
        }
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
        let body = encode_arrive(4, 2.5, 1.0, &vec![0.1, 3.0].into());
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

        // A sparse record cut inside an `i:x…` pair: mid-id, right
        // after the colon, mid-hex, and right after a whole pair (which
        // still parses, as a row with one pair fewer).
        let inf = f64::INFINITY;
        let row: SizeRow = vec![inf, 0.1, inf, inf, inf, inf, 3.0, inf, inf, inf, 2.5, inf].into();
        let body = encode_arrive(4, 2.5, 1.0, &row);
        assert!(
            body.ends_with(" 1:x3fb999999999999a 6:x4008000000000000 10:x4004000000000000"),
            "{body}"
        );
        let pair = body.rfind(" 10:").unwrap();
        assert!(
            parse_record(&body[..pair]).is_ok(),
            "cut after a whole pair"
        );
        for cut in [pair + 2, pair + 4, pair + 9, pair] {
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
        js.arrive(1.0, 1.0, vec![1.0, 2.0].into()).unwrap();
        // Clock regression: journaled, then rejected by the session.
        assert!(js.capacity(CapacityChange::Drain, 0, 0.5).is_err());
        assert!(js.arrive(0.25, 1.0, vec![1.0, 1.0].into()).is_err());
        js.arrive(2.0, 1.0, vec![1.0, 2.0].into()).unwrap();
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
            sizes: vec![1.0, 2.0].into(),
        };
        // Entry 1 regresses the clock → batch fails at k=1. Its record
        // stays (replay re-rejects it); entry 2 was never attempted and
        // must not stay journaled.
        let mut batch = vec![
            Event::Arrive(a(1.0)),
            Event::Arrive(a(0.5)),
            Event::Arrive(a(2.0)),
        ];
        let (k, _e) = js.apply(&mut batch).unwrap_err();
        assert_eq!(k, 1);
        assert_eq!(batch, vec![Event::Arrive(a(2.0))], "the unattempted tail");
        assert_eq!(js.journal.records(), 2);
        assert_eq!(js.cursor(), (1, 1.0));
        // The caller resubmits the tail: entry 2 again, under id 1.
        js.apply(&mut batch).unwrap();
        let cursor = js.cursor();
        drop(js);
        let text = std::fs::read_to_string(&path).unwrap();
        let ids: Vec<&str> = text.lines().skip(1).map(|l| &l[..8]).collect();
        assert_eq!(ids, ["arrive 0", "arrive 1", "arrive 1"]);
        let (js2, report, _w) = JournaledSession::recover(sess(2), &path, fp, 0).unwrap();
        assert_eq!(js2.cursor(), cursor);
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.rejected_replays, 1);
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
