//! Plain-text instance and result (de)serialization.
//!
//! Two hand-rolled formats (no serde_json available offline; the formats
//! are line-oriented and trivially diffable, which suits experiment
//! artifacts better anyway):
//!
//! * **Instance CSV** — header line `# osr-instance v1 kind=<kind> m=<m>`,
//!   then one line per job:
//!   `release,weight,deadline(or -),p_0,p_1,…,p_{m-1}` with `inf`
//!   allowed for restricted assignment.
//! * **Result CSV** — emitted by experiments; a header row followed by
//!   value rows, written via [`CsvWriter`].

use std::io::{BufRead, Write};

use crate::decimal::{parse_decimal, Decimal};
use crate::error::ModelError;
use crate::instance::{Instance, InstanceBuilder, InstanceKind};

/// Serializes an instance into the textual format described at module
/// level.
pub fn write_instance<W: Write>(w: &mut W, inst: &Instance) -> Result<(), ModelError> {
    let kind = match inst.kind() {
        InstanceKind::FlowTime => "flowtime",
        InstanceKind::FlowEnergy => "flowenergy",
        InstanceKind::Energy => "energy",
    };
    writeln!(w, "# osr-instance v1 kind={kind} m={}", inst.machines())?;
    for j in inst.jobs() {
        let deadline = match j.deadline {
            Some(d) => fmt_f64(d),
            None => "-".to_string(),
        };
        let sizes: Vec<String> = j.sizes.iter().map(|&p| fmt_f64(p)).collect();
        writeln!(
            w,
            "{},{},{},{}",
            fmt_f64(j.release),
            fmt_f64(j.weight),
            deadline,
            sizes.join(",")
        )?;
    }
    Ok(())
}

/// Serializes an instance to a `String`.
pub fn instance_to_string(inst: &Instance) -> String {
    let mut buf = Vec::new();
    write_instance(&mut buf, inst).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Parses an instance previously written by [`write_instance`].
pub fn read_instance<R: BufRead>(r: R) -> Result<Instance, ModelError> {
    let mut lines = r.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| ModelError::Parse {
        line: 1,
        message: "empty input".into(),
    })?;
    let header = header?;
    let (kind, machines) = parse_header(&header)?;
    let mut builder = InstanceBuilder::new(machines, kind);
    for (lineno, line) in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        // `m=` is read as any `usize`, so the width check must not add.
        if fields.len().checked_sub(3) != Some(machines) {
            return Err(ModelError::Parse {
                line: lineno + 1,
                message: format!("expected 3 + {machines} fields, got {}", fields.len()),
            });
        }
        let release = parse_f64(fields[0], lineno + 1)?;
        let weight = parse_f64(fields[1], lineno + 1)?;
        let deadline = if fields[2] == "-" {
            None
        } else {
            Some(parse_f64(fields[2], lineno + 1)?)
        };
        let mut sizes = Vec::with_capacity(machines);
        for f in &fields[3..] {
            sizes.push(parse_f64(f, lineno + 1)?);
        }
        builder = builder.full_job(release, weight, deadline, sizes);
    }
    builder.build()
}

/// Parses an instance from a string.
pub fn instance_from_str(s: &str) -> Result<Instance, ModelError> {
    read_instance(s.as_bytes())
}

fn parse_header(header: &str) -> Result<(InstanceKind, usize), ModelError> {
    let err = |m: &str| ModelError::Parse {
        line: 1,
        message: m.to_string(),
    };
    if !header.starts_with("# osr-instance v1") {
        return Err(err("missing `# osr-instance v1` header"));
    }
    let mut kind = None;
    let mut machines = None;
    for token in header.split_whitespace() {
        if let Some(v) = token.strip_prefix("kind=") {
            kind = Some(match v {
                "flowtime" => InstanceKind::FlowTime,
                "flowenergy" => InstanceKind::FlowEnergy,
                "energy" => InstanceKind::Energy,
                other => return Err(err(&format!("unknown kind `{other}`"))),
            });
        }
        if let Some(v) = token.strip_prefix("m=") {
            let m = v
                .parse::<usize>()
                .map_err(|_| err(&format!("bad machine count `{v}`")))?;
            machines = Some(crate::check_machines(m).map_err(|e| err(&e))?);
        }
    }
    match (kind, machines) {
        (Some(k), Some(m)) => Ok((k, m)),
        _ => Err(err("header must contain kind= and m=")),
    }
}

fn parse_f64(s: &str, line: usize) -> Result<f64, ModelError> {
    parse_decimal(s).ok_or_else(|| ModelError::Parse {
        line,
        message: format!("bad number `{s}`"),
    })
}

/// Formats a float compactly and round-trippably: an integer below
/// `1e15` in magnitude without a fractional part (`-0.0` as `0`), and
/// anything else as a [`Decimal`] (`inf` for infinity).
pub fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        Decimal(x).to_string()
    }
}

/// Serializes a finished schedule log.
///
/// Format: header `# osr-log v1 m=<m> n=<n>`, then one line per job:
///
/// ```text
/// id,kind,machine,start,end,speed,reason,p_machine,p_start,p_end,p_speed,redisp
/// ```
///
/// `kind` is `c` (completed: machine/start/end/speed filled) or `r`
/// (rejected: `end` holds the rejection time, `reason` one of
/// `rule-1|rule-2|immediate|ineligible|machine-lost|other`, `p_*` the
/// partial run or `-`). `redisp` is the job's re-dispatch count from
/// capacity-churn runs; the reader also accepts the 11-field rows of
/// pre-churn logs (implicitly `redisp = 0`).
pub fn write_log<W: Write>(w: &mut W, log: &crate::log::FinishedLog) -> Result<(), ModelError> {
    use crate::log::JobFate;
    writeln!(w, "# osr-log v1 m={} n={}", log.machines(), log.len())?;
    for (id, fate) in log.iter() {
        let redisp = log.redispatches(id);
        match fate {
            JobFate::Completed(e) => writeln!(
                w,
                "{},c,{},{},{},{},-,-,-,-,-,{redisp}",
                id.0,
                e.machine.0,
                fmt_f64(e.start),
                fmt_f64(e.completion),
                fmt_f64(e.speed)
            )?,
            JobFate::Rejected(r) => {
                let (pm, ps, pe, pv) = match r.partial {
                    Some(p) => (
                        p.machine.0.to_string(),
                        fmt_f64(p.start),
                        fmt_f64(p.end),
                        fmt_f64(p.speed),
                    ),
                    None => ("-".into(), "-".into(), "-".into(), "-".into()),
                };
                writeln!(
                    w,
                    "{},r,-,-,{},-,{},{pm},{ps},{pe},{pv},{redisp}",
                    id.0,
                    fmt_f64(r.time),
                    r.reason
                )?;
            }
        }
    }
    Ok(())
}

/// Serializes a log to a `String`.
pub fn log_to_string(log: &crate::log::FinishedLog) -> String {
    let mut buf = Vec::new();
    write_log(&mut buf, log).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII")
}

/// Parses a log previously written by [`write_log`].
pub fn read_log<R: BufRead>(r: R) -> Result<crate::log::FinishedLog, ModelError> {
    use crate::log::{JobFate, PartialRun, RejectReason, Rejection, ScheduleLog};
    use crate::{Execution, JobId, MachineId};

    let mut lines = r.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| ModelError::Parse {
        line: 1,
        message: "empty input".into(),
    })?;
    let header = header?;
    let err1 = |m: &str| ModelError::Parse {
        line: 1,
        message: m.to_string(),
    };
    if !header.starts_with("# osr-log v1") {
        return Err(err1("missing `# osr-log v1` header"));
    }
    let mut machines = None;
    let mut n = None;
    for token in header.split_whitespace() {
        if let Some(v) = token.strip_prefix("m=") {
            machines = v.parse::<usize>().ok();
        }
        if let Some(v) = token.strip_prefix("n=") {
            n = v.parse::<usize>().ok();
        }
    }
    let (machines, n) = match (machines, n) {
        (Some(m), Some(n)) => (m, n),
        _ => return Err(err1("header must contain m= and n=")),
    };
    let machines = crate::check_machines(machines).map_err(|e| err1(&e))?;

    // Every row as read: (id, redispatch count, fate, line number).
    let mut rows = Vec::new();
    for (lineno, line) in lines {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = lineno + 1;
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 11 && f.len() != 12 {
            return Err(ModelError::Parse {
                line: lineno,
                message: format!("expected 11 or 12 fields, got {}", f.len()),
            });
        }
        let id: u32 = f[0].parse().map_err(|_| ModelError::Parse {
            line: lineno,
            message: format!("bad job id `{}`", f[0]),
        })?;
        if id as usize >= n {
            return Err(ModelError::Parse {
                line: lineno,
                message: format!("job id {id} out of range for n={n}"),
            });
        }
        let redisp: u32 = match f.get(11) {
            Some(v) => v.parse().map_err(|_| ModelError::Parse {
                line: lineno,
                message: format!("bad redispatch count `{v}`"),
            })?,
            None => 0,
        };
        let fate = match f[1] {
            "c" => {
                let machine: u32 = f[2].parse().map_err(|_| ModelError::Parse {
                    line: lineno,
                    message: format!("bad machine `{}`", f[2]),
                })?;
                JobFate::Completed(Execution {
                    machine: MachineId(machine),
                    start: parse_f64(f[3], lineno)?,
                    completion: parse_f64(f[4], lineno)?,
                    speed: parse_f64(f[5], lineno)?,
                })
            }
            "r" => {
                let reason = match f[6] {
                    "rule-1" => RejectReason::RuleOne,
                    "rule-2" => RejectReason::RuleTwo,
                    "immediate" => RejectReason::Immediate,
                    "ineligible" => RejectReason::Ineligible,
                    "machine-lost" => RejectReason::MachineLost,
                    "other" => RejectReason::Other,
                    other => {
                        return Err(ModelError::Parse {
                            line: lineno,
                            message: format!("unknown reject reason `{other}`"),
                        })
                    }
                };
                let partial = if f[7] == "-" {
                    None
                } else {
                    let machine: u32 = f[7].parse().map_err(|_| ModelError::Parse {
                        line: lineno,
                        message: format!("bad partial machine `{}`", f[7]),
                    })?;
                    Some(PartialRun {
                        machine: MachineId(machine),
                        start: parse_f64(f[8], lineno)?,
                        end: parse_f64(f[9], lineno)?,
                        speed: parse_f64(f[10], lineno)?,
                    })
                };
                JobFate::Rejected(Rejection {
                    time: parse_f64(f[4], lineno)?,
                    reason,
                    partial,
                })
            }
            other => {
                return Err(ModelError::Parse {
                    line: lineno,
                    message: format!("unknown fate kind `{other}`"),
                })
            }
        };
        rows.push((id, redisp, fate, lineno));
    }

    // Sized from the rows actually read, not from `n=` or the largest
    // id: a header alone allocates nothing. Sorted by id (stably, so of
    // a repeated id the later row is refused), the rows must be exactly
    // the ids `0..n`.
    rows.sort_by_key(|row| row.0);
    if let Some(k) = (0..n).find(|&k| rows.get(k).is_none_or(|row| row.0 as usize > k)) {
        return Err(ModelError::Invalid(format!("job j{k} has no fate")));
    }
    let mut log = ScheduleLog::new(machines, n);
    for (k, (id, redisp, fate, lineno)) in rows.into_iter().enumerate() {
        if id as usize != k {
            return Err(ModelError::Parse {
                line: lineno,
                message: format!("job j{id} has a second row"),
            });
        }
        log.note_redispatches(JobId(id), redisp);
        match fate {
            JobFate::Completed(exec) => log.complete(JobId(id), exec),
            JobFate::Rejected(rej) => log.reject(JobId(id), rej),
        }
    }
    log.finish().map_err(ModelError::Invalid)
}

/// Parses a log from a string.
pub fn log_from_str(s: &str) -> Result<crate::log::FinishedLog, ModelError> {
    read_log(s.as_bytes())
}

/// Minimal CSV writer used by the experiment harness for result tables.
///
/// Keeps column arity consistent across rows and escapes nothing — all
/// experiment fields are numbers or simple identifiers by construction.
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    sink: W,
    columns: usize,
}

impl<W: Write> CsvWriter<W> {
    /// Writes the header row and fixes the column count.
    pub fn new(mut sink: W, header: &[&str]) -> Result<Self, ModelError> {
        writeln!(sink, "{}", header.join(","))?;
        Ok(CsvWriter {
            sink,
            columns: header.len(),
        })
    }

    /// Writes one data row; panics on arity mismatch (programming error).
    pub fn row(&mut self, fields: &[String]) -> Result<(), ModelError> {
        assert_eq!(fields.len(), self.columns, "csv row arity mismatch");
        writeln!(self.sink, "{}", fields.join(","))?;
        Ok(())
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, InstanceKind};

    fn sample() -> Instance {
        InstanceBuilder::new(2, InstanceKind::FlowEnergy)
            .weighted_job(0.0, 2.5, vec![1.5, f64::INFINITY])
            .weighted_job(1.0, 1.0, vec![3.0, 0.125])
            .build()
            .unwrap()
    }

    #[test]
    fn instance_round_trips() {
        let inst = sample();
        let text = instance_to_string(&inst);
        let back = instance_from_str(&text).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn deadline_round_trips() {
        let inst = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.5, 9.25, vec![2.0])
            .build()
            .unwrap();
        let back = instance_from_str(&instance_to_string(&inst)).unwrap();
        assert_eq!(inst, back);
        assert_eq!(back.jobs()[0].deadline, Some(9.25));
    }

    #[test]
    fn irrational_sizes_round_trip() {
        let p = std::f64::consts::PI;
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(p / 7.0, vec![p])
            .build()
            .unwrap();
        let back = instance_from_str(&instance_to_string(&inst)).unwrap();
        assert_eq!(back.jobs()[0].sizes[0], p);
        assert_eq!(back.jobs()[0].release, p / 7.0);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# osr-instance v1 kind=flowtime m=1\n\n# comment\n0,1,-,2\n";
        let inst = instance_from_str(text).unwrap();
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(instance_from_str("nonsense\n").is_err());
        assert!(instance_from_str("# osr-instance v1 kind=flowtime\n").is_err());
        assert!(instance_from_str("# osr-instance v1 kind=bogus m=1\n").is_err());
    }

    #[test]
    fn field_arity_checked() {
        let text = "# osr-instance v1 kind=flowtime m=2\n0,1,-,2\n";
        let err = instance_from_str(text).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }));
    }

    #[test]
    fn bad_number_reported_with_line() {
        // Only the literal `inf` is infinite: `1e309` once overflowed to
        // `inf` and silently made machine 0 ineligible.
        for bad in ["abc", "1e309", "NaN", "infinity"] {
            let text = format!("# osr-instance v1 kind=flowtime m=2\n0,1,-,{bad},5\n");
            match instance_from_str(&text).unwrap_err() {
                ModelError::Parse { line, .. } => assert_eq!(line, 2, "{bad}"),
                other => panic!("{bad}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn log_round_trips() {
        use crate::log::{PartialRun, RejectReason, Rejection, ScheduleLog};
        use crate::{Execution, JobId, MachineId};
        let mut log = ScheduleLog::new(2, 3);
        log.complete(
            JobId(0),
            Execution {
                machine: MachineId(1),
                start: 0.5,
                completion: 2.75,
                speed: 1.5,
            },
        );
        log.reject(
            JobId(1),
            Rejection {
                time: 3.25,
                reason: RejectReason::RuleOne,
                partial: Some(PartialRun {
                    machine: MachineId(0),
                    start: 1.0,
                    end: 3.25,
                    speed: 2.0,
                }),
            },
        );
        log.reject(
            JobId(2),
            Rejection {
                time: 4.0,
                reason: RejectReason::RuleTwo,
                partial: None,
            },
        );
        let fin = log.finish().unwrap();
        let text = log_to_string(&fin);
        let back = log_from_str(&text).unwrap();
        assert_eq!(fin, back);
    }

    #[test]
    fn churn_log_round_trips_machine_lost_and_redispatch_counts() {
        use crate::log::{PartialRun, RejectReason, Rejection, ScheduleLog};
        use crate::{Execution, JobId, MachineId};
        let mut log = ScheduleLog::new(3, 3);
        // Job 0: crashed once, re-dispatched, completed elsewhere.
        log.note_redispatch(JobId(0));
        log.complete(
            JobId(0),
            Execution {
                machine: MachineId(2),
                start: 4.0,
                completion: 6.5,
                speed: 1.0,
            },
        );
        // Job 1: crashed twice, then every eligible machine was gone —
        // machine-lost with the last partial run attached.
        log.note_redispatch(JobId(1));
        log.note_redispatch(JobId(1));
        log.reject(
            JobId(1),
            Rejection {
                time: 7.25,
                reason: RejectReason::MachineLost,
                partial: Some(PartialRun {
                    machine: MachineId(1),
                    start: 5.0,
                    end: 7.25,
                    speed: 1.0,
                }),
            },
        );
        // Job 2: untouched by churn.
        log.reject(
            JobId(2),
            Rejection {
                time: 8.0,
                reason: RejectReason::MachineLost,
                partial: None,
            },
        );
        let fin = log.finish().unwrap();
        let text = log_to_string(&fin);
        let back = log_from_str(&text).unwrap();
        assert_eq!(fin, back, "exact round trip incl. redispatch counts");
        assert_eq!(back.redispatches(JobId(0)), 1);
        assert_eq!(back.redispatches(JobId(1)), 2);
        assert_eq!(back.redispatches(JobId(2)), 0);
        assert_eq!(
            back.fate(JobId(1)).rejection().unwrap().reason,
            RejectReason::MachineLost
        );
    }

    #[test]
    fn legacy_eleven_field_rows_still_parse() {
        // Pre-churn writers emitted 11 fields; redisp defaults to 0.
        let text = "# osr-log v1 m=1 n=1\n0,c,0,0,1,1,-,-,-,-,-\n";
        let log = log_from_str(text).unwrap();
        assert_eq!(log.redispatches(crate::JobId(0)), 0);
    }

    /// A row's redispatch count is stored in one step, not counted up
    /// to: the largest count reads at once and writes back unchanged.
    #[test]
    fn a_huge_redispatch_count_reads_in_one_step() {
        let text = format!("# osr-log v1 m=1 n=1\n0,c,0,0,1,1,-,-,-,-,-,{}\n", u32::MAX);
        let start = std::time::Instant::now();
        let log = log_from_str(&text).unwrap();
        let took = start.elapsed();
        assert!(took.as_millis() < 500, "read took {took:?}");
        assert_eq!(log.redispatches(crate::JobId(0)), u32::MAX);
        assert_eq!(log_to_string(&log), text);
    }

    #[test]
    fn log_parse_errors_reported() {
        assert!(log_from_str("garbage\n").is_err());
        assert!(log_from_str("# osr-log v1 m=1\n").is_err());
        let bad_kind = "# osr-log v1 m=1 n=1\n0,x,-,-,1,-,-,-,-,-,-\n";
        assert!(log_from_str(bad_kind).is_err());
        let missing_job = "# osr-log v1 m=1 n=2\n0,c,0,0,1,1,-,-,-,-,-\n";
        assert!(log_from_str(missing_job).is_err());
    }

    /// A log is sized by the rows read, not by `n=`, `m=` or its
    /// largest id: a huge `n` with too few rows, a lone huge id, an id
    /// past `n`, a repeated row and an `m` past the machine ids are
    /// errors, never an allocation or a panic.
    #[test]
    fn log_header_counts_allocate_nothing() {
        let row = "0,c,0,0,1,1,-,-,-,-,-\n";
        for (text, why) in [
            (
                format!("# osr-log v1 m=1 n=1000000000000\n{row}"),
                "j1 has no fate",
            ),
            (
                "# osr-log v1 m=1 n=1000000000000\n".to_string(),
                "j0 has no fate",
            ),
            (
                "# osr-log v1 m=1 n=1000000000000\n4000000000,c,0,0,1,1,-,-,-,-,-\n".into(),
                "j0 has no fate",
            ),
            (
                format!("# osr-log v1 m=1000000000000 n=1\n{row}"),
                "exceeds the u32",
            ),
            (
                "# osr-log v1 m=1 n=1\n5,c,0,0,1,1,-,-,-,-,-\n".into(),
                "out of range for n=1",
            ),
            (format!("# osr-log v1 m=1 n=2\n{row}{row}"), "second row"),
            (
                format!("# osr-log v1 m=1 n=1\n{row}0,r,-,-,1,-,other,-,-,-,-,1\n"),
                "second row",
            ),
        ] {
            let err = log_from_str(&text).expect_err(&text).to_string();
            assert!(err.contains(why), "{text}: {err}");
        }
        let two = format!("# osr-log v1 m=1 n=2\n1,c,0,1,2,1,-,-,-,-,-\n{row}");
        assert_eq!(log_from_str(&two).unwrap().len(), 2);
    }

    #[test]
    fn instance_machine_count_has_a_domain() {
        let err = instance_from_str("# osr-instance v1 kind=flowtime m=1000000000000\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("exceeds the u32 machine ids"), "{err}");
        let max = crate::MAX_MACHINES;
        for m in [max + 1, usize::MAX] {
            let text = format!("# osr-instance v1 kind=flowtime m={m}\n");
            assert!(instance_from_str(&text).is_err(), "{text}");
        }
        assert_eq!(crate::check_machines(max), Ok(max));
    }

    #[test]
    fn csv_writer_emits_rows() {
        let mut w = CsvWriter::new(Vec::new(), &["a", "b"]).unwrap();
        w.row(&["1".into(), "2".into()]).unwrap();
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, "a,b\n1,2\n");
    }

    #[test]
    fn fmt_f64_cases() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        for (x, text) in [
            (1e300, "1e300"),
            (1e-300, "1e-300"),
            (-0.0, "0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e16 + 2.0, "1.0000000000000002e16"),
        ] {
            assert_eq!(fmt_f64(x), text);
            // `-0.0` reads back as `0`, equal but not bit-equal.
            assert_eq!(parse_decimal(text), Some(x), "{text} round-trips");
        }
    }
}
