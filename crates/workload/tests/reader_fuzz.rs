//! Malformed-input proptests for the offline text readers: the failure
//! trace (`CapacityPlan::parse`), the instance CSV reader
//! (`osr_model::io::read_instance`) and the job-trace importer
//! (`TraceImport::parse`).
//!
//! Each input — arbitrary bytes, or a string of format pieces (numbers
//! of every spelling the number rule refuses, separators, keywords,
//! oversized machine counts) — must give an `Err` or a valid value,
//! never a panic. A value is valid when it passes its own validation
//! and survives a write-then-read round trip unchanged.

use osr_model::{io, InstanceKind};
use osr_sim::CapacityPlan;
use osr_workload::{MachineSpec, TraceImport};
use proptest::prelude::*;

/// Tokens of the three formats, plus the spellings the readers must
/// refuse or survive: non-finite and overflowing numbers, negative and
/// huge magnitudes, machine counts at the integer limits, stray bytes.
const PIECES: &[&str] = &[
    "0",
    "1",
    "2.5",
    "3",
    "-1",
    "-0",
    "1e300",
    "1e-300",
    "1e16",
    "1e309",
    "inf",
    "-inf",
    "infinity",
    "NaN",
    "-",
    ",",
    ",",
    ",",
    " ",
    "\t",
    "\n",
    "\n",
    "\r\n",
    "#",
    "join",
    "drain",
    "crash",
    "time,machine,kind",
    "# osr-instance v1",
    " kind=flowtime",
    " kind=energy",
    " kind=flowenergy",
    " m=2",
    " m=0",
    " m=18446744073709551615",
    " m=18446744073709551613",
    "4294967295",
    "4294967296",
    "99999999999",
    "x",
    "é",
    "\n0,1,-,2,inf\n",
    "\n1.5,1,2,3,4\n",
    "\n2,1,join\n",
    "\n0.5 4\n",
];

/// Per-column values for the row-shaped inputs: mostly valid, with
/// the refused spellings mixed in.
const TIME: &[&str] = &["0", "1", "2.5", "1e300", "1e-300", "inf", "-1", "NaN"];
const MACHINE: &[&str] = &["0", "1", "3", "4294967296"];
const KIND: &[&str] = &["join", "drain", "crash", "explode"];
const WEIGHT: &[&str] = &["1", "2.5", "1e-300", "0", "-1"];
const DEADLINE: &[&str] = &["-", "9", "1e300", "0"];
const SIZE: &[&str] = &["1", "2", "0.5", "inf", "1e300", "1e-300", "0", "-1"];

fn text_of(pieces: &[usize]) -> String {
    pieces.iter().map(|&i| PIECES[i]).collect()
}

/// One line per row, field `j` drawn from `cols[j]` (the last column
/// repeats) and joined by `sep`: inputs that get past the field-count
/// checks to the values.
fn rows_of(rows: &[Vec<usize>], cols: &[&[&str]], sep: &str) -> String {
    rows.iter()
        .map(|r| {
            let fields: Vec<&str> = r
                .iter()
                .enumerate()
                .map(|(j, &k)| {
                    let col = cols[j.min(cols.len() - 1)];
                    col[k % col.len()]
                })
                .collect();
            fields.join(sep) + "\n"
        })
        .collect()
}

/// Up to five rows of `width` fields each.
fn rows(width: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(any::<usize>(), width), 0..6)
}

/// `CapacityPlan::parse` on `text`: an `Err`, or a plan of finite,
/// non-negative, time-ordered events that its own CSV reproduces.
fn check_capacity(text: &str) {
    if let Ok(plan) = CapacityPlan::parse(text) {
        let times: Vec<f64> = plan.events().iter().map(|e| e.time).collect();
        assert!(times.iter().all(|t| t.is_finite() && *t >= 0.0));
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(CapacityPlan::parse(&plan.to_csv()), Ok(plan));
    }
}

/// The instance reader on raw bytes: an `Err`, or a valid instance
/// that its own serialization reproduces.
fn check_instance(bytes: &[u8]) {
    if let Ok(inst) = io::read_instance(bytes) {
        assert!(inst.validate().is_ok());
        let text = io::instance_to_string(&inst);
        assert_eq!(io::instance_from_str(&text).ok(), Some(inst));
    }
}

/// `TraceImport::parse` on `text` for two machine models: an `Err`, or
/// a valid instance that the instance CSV reproduces.
fn check_trace(text: &str) {
    let models = [
        TraceImport::identical(3),
        TraceImport {
            machines: 5,
            machine_model: MachineSpec::Unrelated {
                lo_factor: 1.0,
                hi_factor: 4.0,
            },
            seed: 7,
        },
    ];
    for import in models {
        if let Ok(inst) = import.parse(text) {
            assert!(inst.validate().is_ok());
            assert_eq!(inst.machines(), import.machines);
            let back = io::instance_from_str(&io::instance_to_string(&inst));
            assert_eq!(back.ok(), Some(inst));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn failure_trace_reader_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        pieces in prop::collection::vec(0usize..PIECES.len(), 0..80),
        rows in rows(3..4),
    ) {
        check_capacity(&String::from_utf8_lossy(&bytes));
        check_capacity(&text_of(&pieces));
        check_capacity(&rows_of(&rows, &[TIME, MACHINE, KIND], ","));
    }

    #[test]
    fn instance_reader_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        pieces in prop::collection::vec(0usize..PIECES.len(), 0..80),
        rows in rows(5..6),
        kind in 0usize..3,
    ) {
        check_instance(&bytes);
        let body = text_of(&pieces);
        check_instance(body.as_bytes());
        // Behind a valid header the rows themselves get parsed.
        let kind = ["flowtime", "energy", "flowenergy"][kind];
        let table = rows_of(&rows, &[TIME, WEIGHT, DEADLINE, SIZE], ",");
        for body in [body, table] {
            check_instance(format!("# osr-instance v1 kind={kind} m=2\n{body}").as_bytes());
        }
    }

    #[test]
    fn trace_importer_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        pieces in prop::collection::vec(0usize..PIECES.len(), 0..80),
        rows in rows(2..5),
    ) {
        check_trace(&String::from_utf8_lossy(&bytes));
        check_trace(&text_of(&pieces));
        check_trace(&rows_of(&rows, &[TIME, SIZE, WEIGHT, DEADLINE], " "));
    }
}

/// Pinned cases: refused times name their line, and each reader keeps
/// an extreme-magnitude value through its round trip.
#[test]
fn pinned_reader_cases() {
    let err = CapacityPlan::parse("1,0,drain\n2,0,join\ninf,0,join\n").unwrap_err();
    assert_eq!(err, "line 3: bad time `inf`");
    let plan = CapacityPlan::parse("1e300,0,crash\n").unwrap();
    assert_eq!(plan.to_csv(), "time,machine,kind\n1e300,0,crash\n");
    assert_eq!(CapacityPlan::parse(&plan.to_csv()), Ok(plan));

    let inst = io::instance_from_str("# osr-instance v1 kind=flowtime m=2\n0,1,-,1e300,inf\n")
        .expect("a huge size is a valid size");
    let text = io::instance_to_string(&inst);
    assert_eq!(
        text,
        "# osr-instance v1 kind=flowtime m=2\n0,1,-,1e300,inf\n"
    );
    assert_eq!(inst.kind(), InstanceKind::FlowTime);

    let err = io::instance_from_str("# osr-instance v1 kind=flowtime m=18446744073709551615\n1\n");
    assert!(err.is_err());
}
