//! Property tests of the byte tokenizer behind `journal::parse_line`,
//! the one parser of journal records and `osr serve` protocol lines.
//! The tokenizer indexes bytes and takes runs of `inf ` (each followed
//! by one space) a word at a time, so these pin what that must not
//! change:
//!
//! - arbitrary bytes, and token-level mutations of valid lines, give
//!   `Ok` or `Err`, never a panic; and whatever parses, the journal
//!   writes back in a form that parses to the same bits;
//! - a row written with random runs of ASCII whitespace (space, tab,
//!   CR, form feed) parses to the record its single-space rendering
//!   gives, with the sizes it was built from;
//! - an `inf` glued to a neighbour (`infx…`, `inf:`, `infinity`) is
//!   that token, and an `inf` before a tab, a CR, a form feed or the
//!   end of the line is still `inf`.

use osr_core::journal::{encode_arrive, encode_capacity, parse_line, parse_record, split_verb};
use osr_core::Record;
use proptest::prelude::*;

/// Separator runs, the single space most often (it is what the `inf`
/// fast path reads).
const SEPS: [&str; 12] = [
    " ", " ", " ", " ", "  ", "\t", "\r", "\x0c", " \t", "\t ", "\r\x0c", "   ",
];

/// Pieces the arbitrary-text strategy strings together: the dialect's
/// alphabet, whole tokens, separators, control bytes (which are token
/// bytes, like the vertical tab) and non-ASCII characters.
const PIECES: [&str; 40] = [
    "\x0b",
    "\x00",
    "\x01",
    "\x1f",
    "!",
    "0123456789abcdef",
    "inf",
    "inf ",
    "inf inf ",
    " ",
    "\t",
    "\r",
    "\x0c",
    "\n",
    "x",
    "@",
    "w=",
    "m=",
    ":",
    "0",
    "1",
    "7",
    "9",
    "e",
    ".",
    "-",
    "+",
    "arrive",
    "advance",
    "drain",
    "join",
    "crash",
    "stats",
    "x3ff0000000000000",
    "x7ff8000000000000",
    "nan",
    "#",
    "\u{a0}",
    "é",
    "\u{3000}",
];

/// Tokens a mutation may put into a line.
const POOL: [&str; 24] = [
    "inf",
    "infx",
    "inf:",
    "inf:1",
    "infinity",
    "x",
    "x3ff0000000000000",
    "xfff0000000000000",
    "@",
    "@1",
    "@inf",
    "@nan",
    "w=",
    "w=2",
    "w=inf",
    "m=",
    "m=3",
    "m=99999999999999999999",
    "0:1",
    "2:1.5",
    "1e309",
    "-0",
    "",
    "\u{a0}1",
];

/// A tiny deterministic stream for choices a test derives from one seed.
fn picks(seed: u64) -> impl FnMut(usize) -> usize {
    let mut s = seed | 1;
    move |n| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % n as u64) as usize
    }
}

/// One dense size: its token and its value. Mostly `inf`, otherwise a
/// positive finite size as a decimal, an exponent or hex bits.
fn size() -> impl Strategy<Value = (String, f64)> {
    (0u8..16, 1u64..1_000_000).prop_map(|(kind, v)| {
        let x = v as f64 / 64.0;
        match kind {
            0..=9 => ("inf".to_string(), f64::INFINITY),
            10..=12 => (x.to_string(), x),
            13..=14 => (format!("x{:016x}", x.to_bits()), x),
            _ => (format!("{x:e}"), x),
        }
    })
}

/// A dense row: short mixed rows, and long runs of `inf` around one
/// size (odd and even run lengths, so both word widths of the fast
/// path and the token path after it are hit).
fn dense_row() -> impl Strategy<Value = Vec<(String, f64)>> {
    prop_oneof![
        prop::collection::vec(size(), 1..60),
        (0usize..300, size(), 0usize..300).prop_map(|(a, mid, b)| {
            let inf = ("inf".to_string(), f64::INFINITY);
            let mut row = vec![inf.clone(); a];
            row.push(mid);
            row.extend(std::iter::repeat_n(inf, b));
            row
        }),
    ]
}

/// A valid line as its tokens, and the sizes of its row if it is an
/// arrival.
type Line = (Vec<String>, Option<Vec<f64>>);

/// A valid event line of every kind: dense and sparse arrivals (the
/// `@T` at a random place among the operands), capacity events and
/// advances.
fn valid_line() -> impl Strategy<Value = Line> {
    let head = |id: usize, t: u32, w: u32, rest: Vec<String>, at: usize| {
        let mut ops = vec![format!("w={}", f64::from(w) / 4.0)];
        ops.extend(rest);
        ops.insert(at % (ops.len() + 1), format!("@{}", f64::from(t) / 8.0));
        let mut toks = vec!["arrive".to_string(), id.to_string()];
        toks.extend(ops);
        toks
    };
    prop_oneof![
        (
            0usize..1000,
            0u32..10_000,
            1u32..40,
            dense_row(),
            any::<usize>()
        )
            .prop_map(move |(id, t, w, row, at)| {
                let (toks, vals): (Vec<String>, Vec<f64>) = row.into_iter().unzip();
                (head(id, t, w, toks, at), Some(vals))
            }),
        (
            (0usize..1000, 0u32..10_000, 1u32..40),
            prop::collection::vec((1usize..40, size()), 0..8),
            0usize..20,
            any::<usize>(),
        )
            .prop_map(move |((id, t, w), gaps, extra, at)| {
                let mut row = Vec::new();
                let mut toks = Vec::new();
                for (gap, (_, v)) in gaps {
                    row.extend(std::iter::repeat_n(f64::INFINITY, gap - 1));
                    let v = if v.is_finite() { v } else { 1.5 };
                    toks.push(format!("{}:{v}", row.len()));
                    row.push(v);
                }
                row.extend(std::iter::repeat_n(f64::INFINITY, extra + 1));
                toks.insert(0, format!("m={}", row.len()));
                (head(id, t, w, toks, at), Some(row))
            }),
        (0u8..3, 0usize..64, 0u32..10_000).prop_map(|(c, m, t)| {
            let verb = ["join", "drain", "crash"][c as usize];
            let toks = vec![
                verb.to_string(),
                m.to_string(),
                format!("@{}", f64::from(t) / 8.0),
            ];
            (toks, None)
        }),
        (0u32..10_000).prop_map(|t| {
            (
                vec!["advance".to_string(), (f64::from(t) / 8.0).to_string()],
                None,
            )
        }),
    ]
}

/// `toks` with each gap, and both ends, a separator run from `seed`.
fn mangle(toks: &[String], seed: u64) -> String {
    let mut pick = picks(seed);
    let mut out = String::new();
    if pick(2) == 0 {
        out.push_str(SEPS[pick(SEPS.len())]);
    }
    for (i, t) in toks.iter().enumerate() {
        if i > 0 {
            out.push_str(SEPS[pick(SEPS.len())]);
        }
        out.push_str(t);
    }
    if pick(2) == 0 {
        out.push_str(SEPS[pick(SEPS.len())]);
    }
    out
}

/// A record as bits, so that NaN sizes compare too.
fn bits(rec: &Record) -> (String, Vec<u64>) {
    match rec {
        Record::Arrive { id, arrival } => {
            let mut b = vec![
                *id as u64,
                arrival.release.to_bits(),
                arrival.weight.to_bits(),
            ];
            b.extend(arrival.sizes.iter().map(|p| p.to_bits()));
            ("arrive".into(), b)
        }
        Record::Capacity {
            change,
            machine,
            time,
        } => (change.to_string(), vec![*machine as u64, time.to_bits()]),
        Record::Advance { time } => ("advance".into(), vec![time.to_bits()]),
    }
}

/// Whatever `line` parses to, the journal's encoding of it parses back
/// to the same bits: the write-ahead journal never holds a record that
/// recovery cannot read.
fn check(line: &str) {
    let _ = split_verb(line);
    let _ = parse_record(line);
    let Ok(rec) = parse_at(line, 0.5) else {
        return;
    };
    let body = match &rec {
        Record::Arrive { id, arrival } => {
            encode_arrive(*id, arrival.release, arrival.weight, &arrival.sizes)
        }
        Record::Capacity {
            change,
            machine,
            time,
        } => encode_capacity(*change, *machine, *time),
        Record::Advance { time } => format!("advance {time}"),
    };
    let back = parse_record(&body).unwrap_or_else(|e| panic!("{line:?} -> {body:?}: {e}"));
    assert_eq!(bits(&back), bits(&rec), "{line:?} -> {body:?}");
}

/// `line` parsed, an omitted `@T` resolved to `default_time`.
fn parse_at(line: &str, default_time: f64) -> Result<Record, String> {
    let mut parsed = parse_line(line)?;
    parsed.resolve(Some(default_time))?;
    Ok(parsed.into_record())
}

/// The tokens of `line` as the tokenizer walks them (through
/// [`split_verb`], which hands back the rest of the line).
fn tokens(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    loop {
        let (tok, after) = split_verb(rest);
        if tok.is_empty() {
            return out;
        }
        out.push(tok);
        rest = after;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tokenizer reads words of eight bytes, yet splits exactly
    /// where `str::split_ascii_whitespace` does: control bytes, the
    /// vertical tab and non-ASCII bytes stay inside tokens.
    #[test]
    fn tokens_split_on_ascii_whitespace_only(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        pieces in prop::collection::vec(0usize..PIECES.len(), 0..120),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(tokens(&text), text.split_ascii_whitespace().collect::<Vec<_>>());
        let text: String = pieces.iter().map(|&i| PIECES[i]).collect();
        prop_assert_eq!(tokens(&text), text.split_ascii_whitespace().collect::<Vec<_>>());
    }

    /// (a) Arbitrary bytes (lossily made UTF-8) and arbitrary strings
    /// of dialect pieces never panic the parser.
    #[test]
    fn arbitrary_text_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        pieces in prop::collection::vec(0usize..PIECES.len(), 0..120),
    ) {
        check(&String::from_utf8_lossy(&bytes));
        let text: String = pieces.iter().map(|&i| PIECES[i]).collect();
        check(&text);
        check(&format!("arrive 0 {text}"));
    }

    /// (a) Token-level mutations of valid lines (a token deleted,
    /// repeated, swapped, cut short, replaced or inserted) never panic
    /// the parser.
    #[test]
    fn mutated_lines_never_panic(
        (toks, _) in valid_line(),
        ops in prop::collection::vec((0u8..6, any::<usize>(), any::<usize>()), 1..6),
        seed in any::<u64>(),
    ) {
        let mut toks = toks;
        for (op, at, pick) in ops {
            let at = at % toks.len().max(1);
            let new = POOL[pick % POOL.len()].to_string();
            match op {
                0 if !toks.is_empty() => {
                    toks.remove(at);
                }
                1 if !toks.is_empty() => toks.insert(at, toks[at].clone()),
                2 if at + 1 < toks.len() => toks.swap(at, at + 1),
                3 if !toks.is_empty() => {
                    let cut = pick % (toks[at].len() + 1);
                    toks[at] = toks[at].get(..cut).unwrap_or("").to_string();
                }
                4 if !toks.is_empty() => toks[at] = new,
                _ => toks.insert(at.min(toks.len()), new),
            }
        }
        check(&toks.join(" "));
        check(&mangle(&toks, seed));
    }

    /// (b) Random separator runs parse to the record of the
    /// single-space rendering, and an arrival reads the sizes its row
    /// was built from.
    #[test]
    fn whitespace_runs_parse_like_single_spaces(
        (toks, sizes) in valid_line(),
        seed in any::<u64>(),
    ) {
        let plain = toks.join(" ");
        let want = parse_record(&plain).unwrap_or_else(|e| panic!("{plain}: {e}"));
        let mangled = mangle(&toks, seed);
        let got = parse_record(&mangled).unwrap_or_else(|e| panic!("{mangled:?}: {e}"));
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", mangled);
        if let (Some(sizes), Record::Arrive { arrival, .. }) = (sizes, &got) {
            prop_assert!(arrival.sizes == sizes, "{:?}", mangled);
        }
        check(&mangled);
    }

    /// (c) An `inf` glued to a neighbour is that token (a bad size, or
    /// a pair with a bad machine id), and an `inf` before a tab, CR,
    /// form feed or the end of the line is still an ineligible machine.
    #[test]
    fn inf_glued_to_a_neighbour_behaves_as_a_token(
        width in 1usize..200,
        at in any::<usize>(),
        glue in 0usize..10,
    ) {
        let at = at % width;
        let mut toks = vec!["inf".to_string(); width];
        let sep = ["\t", "\r", "\x0c", "\t\t", "\r\x0c"][glue % 5];
        let head = "arrive 0 @1 w=1";
        match glue {
            0..=4 => {
                // A different separator after `inf`, or none at the end.
                let mut line = head.to_string();
                for (i, t) in toks.iter().enumerate() {
                    line.push_str(if i == at { sep } else { " " });
                    line.push_str(t);
                }
                let Record::Arrive { arrival, .. } = parse_record(&line).unwrap() else {
                    panic!("{line:?}");
                };
                prop_assert!(arrival.sizes == vec![f64::INFINITY; width], "{:?}", line);
            }
            _ => {
                let suffix = ["x", "x3ff0000000000000", ":", ":1", "inity"][glue - 5];
                toks[at].push_str(suffix);
                let line = format!("{head} {}", toks.join(" "));
                let err = parse_record(&line).unwrap_err();
                let want = match (suffix.starts_with(':'), at) {
                    (false, _) => format!("bad size `inf{suffix}`"),
                    (true, 0) => "bad machine id `inf`".to_string(),
                    (true, _) => "mixes dense size tokens".to_string(),
                };
                prop_assert!(err.contains(&want), "{:?}: {}", line, err);
            }
        }
    }
}

#[test]
fn inf_runs_end_at_every_word_boundary() {
    // Runs of 0..=9 `inf` tokens before a finite size, after it, and at
    // the end of the line, with and without a trailing space: each
    // length ends the eight-byte loop at a different point.
    for a in 0..10 {
        for b in 0..10 {
            for tail in ["", " ", "\t"] {
                let mut row = vec![f64::INFINITY; a];
                row.push(2.5);
                row.extend(std::iter::repeat_n(f64::INFINITY, b));
                let toks: Vec<String> = row
                    .iter()
                    .map(|p| {
                        if p.is_finite() {
                            p.to_string()
                        } else {
                            "inf".into()
                        }
                    })
                    .collect();
                let line = format!("arrive 3 @1 w=1 {}{tail}", toks.join(" "));
                let Record::Arrive { arrival, .. } = parse_record(&line).unwrap() else {
                    panic!("{line:?}");
                };
                assert!(arrival.sizes == row, "{line:?}");
            }
        }
    }
    // A run of `inf` after a sparse row's `m=` mixes forms, as before.
    let err = parse_record("arrive 0 @1 m=4 inf inf inf inf").unwrap_err();
    assert!(err.contains("mixes"), "{err}");
}
