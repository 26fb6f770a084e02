//! The traced run: the same round, in-process, with each layer's public
//! call timed from here.
//!
//! It restores the same prefix journal, recovers it with
//! `Journal::recover` and `journal::replay`, then feeds the decide lines
//! one at a time and the replay lines in bursts, doing per line what
//! `osr serve --journal` does: parse, encode the journal record, append
//! (write + fsync), apply to the session, maybe write the snapshot
//! sidecar. Replay bursts are maximal runs of `arrive` lines capped at
//! the serve loop's default ingest buffer (1 024), the most it can
//! coalesce. Every call is a span (name, start, end, parent, request);
//! spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use osr_core::energyflow::EnergyFlowParams;
use osr_core::flowtime::WeightedFlowParams;
use osr_core::journal::{self, encode_arrive, encode_capacity, parse_record, Journal, Record};
use osr_core::{
    Arrival, EnergyFlowSession, FlowParams, FlowSession, ServeSession, WeightedFlowSession,
};
use osr_model::{io as model_io, Job};

use crate::workload::{Algo, Inputs};

/// `osr serve`'s default `--ingest-buffer`: the largest burst it coalesces.
const INGEST_BUFFER: usize = 1024;
/// `osr serve`'s default `--snap-every`.
const SNAP_EVERY: u64 = 32;
/// Bytes a journal line adds to its body: ` #h`, 16 hex digits, newline.
const RECORD_SUFFIX: usize = 20;
const TRACE_JOURNAL: &str = "trace.journal";

/// Spans whose work is also inside another span (the session builds
/// its own `Job`); they are reported but never summed.
const SHADOW: &[&str] = &["model.job_build"];

struct Span {
    name: &'static str,
    req: u32,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, req: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations in seconds of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        use std::fmt::Write as _;
        let mut out = String::from("id\tname\treq\tparent\tstart_ns\tend_ns\n");
        for (k, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{k}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn open_session(inputs: &Inputs, algo: Algo) -> Result<Box<dyn ServeSession>, String> {
    let (m, off) = (inputs.machines, &inputs.offline[..]);
    Ok(match algo {
        Algo::Flow { eps } => Box::new(FlowSession::with_offline(FlowParams::new(eps), m, off)?),
        Algo::WeightedFlow { eps } => Box::new(WeightedFlowSession::with_offline(
            WeightedFlowParams::new(eps),
            m,
            off,
        )?),
        Algo::EnergyFlow { eps, alpha } => Box::new(EnergyFlowSession::with_offline(
            EnergyFlowParams::new(eps, alpha),
            m,
            off,
        )?),
    })
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// What the traced run measured, plus the log it produced.
pub struct Traced {
    /// `(name, value, unit)`, in the order of `BENCHMARK.json`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub log: String,
    /// Sum of the traced parts of the replay phase, in seconds.
    pub replay_parts_s: f64,
    /// The same parts, by span name, for the printed split.
    pub replay_split: BTreeMap<&'static str, f64>,
}

/// Per-line state the decide and replay segments share.
struct Feed {
    tr: Tracer,
    sess: Box<dyn ServeSession>,
    journal: Journal,
    next_id: usize,
    clock: f64,
    machines: usize,
    /// Bytes of each arrive line (with its newline) and journal record.
    line_bytes: Vec<f64>,
    record_bytes: Vec<f64>,
}

impl Feed {
    /// Parses one line under `event`, returning its record.
    fn parse(&mut self, line: &str, req: u32, event: u32) -> Result<Record, String> {
        let rec = self
            .tr
            .time("protocol.parse", req, Some(event), || parse_record(line))?;
        if matches!(rec, Record::Arrive { .. }) {
            self.line_bytes.push((line.len() + 1) as f64);
        }
        Ok(rec)
    }

    /// Builds the arrival's `Job` as the session will (timed apart, as a
    /// shadow span) and encodes its journal record under id `next`.
    fn encode(
        &mut self,
        id: usize,
        a: &Arrival,
        next: usize,
        req: u32,
        event: u32,
    ) -> Result<String, String> {
        let (m, sizes) = (self.machines, a.sizes.clone());
        self.tr.time("model.job_build", req, Some(event), || {
            Job::weighted(id as u32, a.release, a.weight, sizes).validate(m)
        })?;
        let body = self.tr.time("journal.encode", req, Some(event), || {
            encode_arrive(next, a.release, a.weight, &a.sizes)
        });
        self.record_bytes.push((body.len() + RECORD_SUFFIX) as f64);
        Ok(body)
    }

    fn snapshot(&mut self, req: u32, event: u32) -> Result<(), String> {
        let (id, clock) = (self.next_id, self.clock);
        let j = &mut self.journal;
        self.tr.time("journal.snapshot", req, Some(event), || {
            j.maybe_snapshot(id, clock)
        })
    }

    /// One line, as serve handles a socket line or a lone stdin line.
    fn single(&mut self, line: &str, req: u32, phase: &'static str) -> Result<(), String> {
        let event = self.tr.open(phase, req, None);
        match self.parse(line, req, event)? {
            Record::Arrive { id, arrival } => {
                let body = self.encode(id, &arrival, self.next_id, req, event)?;
                let j = &mut self.journal;
                self.tr
                    .time("journal.append", req, Some(event), || j.append(&body))?;
                let s = &mut self.sess;
                let release = arrival.release;
                self.tr.time("session.arrive", req, Some(event), || {
                    s.arrive(arrival.release, arrival.weight, arrival.sizes)
                })?;
                self.next_id += 1;
                self.clock = release;
            }
            Record::Capacity {
                change,
                machine,
                time,
            } => {
                let body = self.tr.time("journal.encode", req, Some(event), || {
                    encode_capacity(change, machine, time)
                });
                let j = &mut self.journal;
                self.tr
                    .time("journal.append", req, Some(event), || j.append(&body))?;
                let s = &mut self.sess;
                self.tr.time("session.capacity", req, Some(event), || {
                    s.capacity(change, machine, time)
                })?;
                self.clock = time;
            }
            Record::Advance { .. } => {
                return Err("the workload scripts hold no advance lines".into())
            }
        }
        self.snapshot(req, event)?;
        self.tr.close(event);
        Ok(())
    }

    /// A burst of arrive lines, as serve coalesces them into one epoch.
    fn burst(&mut self, lines: &[&str], req: u32) -> Result<(), String> {
        let event = self.tr.open("replay.event", req, None);
        let mut batch = Vec::with_capacity(lines.len());
        let mut bodies = Vec::with_capacity(lines.len());
        for (k, line) in lines.iter().enumerate() {
            let r = req + k as u32;
            let Record::Arrive { id, arrival } = self.parse(line, r, event)? else {
                unreachable!("bursts hold arrive lines only");
            };
            bodies.push(self.encode(id, &arrival, self.next_id + k, r, event)?);
            batch.push(arrival);
        }
        let j = &mut self.journal;
        self.tr.time("journal.batch_append", req, Some(event), || {
            j.append_batch(&bodies)
        })?;
        let last = batch.last().map(|a| a.release);
        let s = &mut self.sess;
        self.tr
            .time("session.batch_arrive", req, Some(event), || {
                s.arrive_batch(batch)
            })
            .map_err(|(k, e)| format!("burst entry {k}: {e}"))?;
        self.next_id += lines.len();
        self.clock = last.unwrap_or(self.clock);
        self.snapshot(req, event)?;
        self.tr.close(event);
        Ok(())
    }
}

/// Runs the traced round in the work directory (which holds the prefix
/// journal) and derives every per-layer metric from its spans.
pub fn run(inputs: &Inputs, algo: Algo, spans_out: &Path) -> Result<Traced, String> {
    crate::serve::restore_journal(TRACE_JOURNAL)?;
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let restart = tr.open("restart.event", 0, None);
    let mut sess = tr.time("session.open", 0, Some(restart), || {
        open_session(inputs, algo)
    })?;
    let fp = osr_core::fingerprint(&inputs.spec, inputs.machines, &inputs.offline);
    let rec = tr.time("journal.recover_read", 0, Some(restart), || {
        Journal::recover(Path::new(TRACE_JOURNAL), fp, SNAP_EVERY)
    })?;
    let outcome = tr.time("journal.replay", 0, Some(restart), || {
        journal::replay(sess.as_mut(), &rec.records, rec.snapshot.as_ref())
    })?;
    if outcome.rejected > 0 {
        return Err(format!(
            "traced restart rejected {} journal record(s)",
            outcome.rejected
        ));
    }
    tr.time("session.stats", 0, Some(restart), || sess.snapshot());
    tr.close(restart);

    let mut feed = Feed {
        tr,
        sess,
        journal: rec.journal,
        next_id: outcome.next_id,
        clock: outcome.clock,
        machines: inputs.machines,
        line_bytes: Vec::new(),
        record_bytes: Vec::new(),
    };
    let mut req = 1u32;
    for line in inputs.segment(1).lines() {
        feed.single(line, req, "decide.event")?;
        req += 1;
    }
    let stats = feed.tr.open("decide.event", req, None);
    feed.tr
        .time("session.stats", req, Some(stats), || feed.sess.snapshot());
    feed.tr.close(stats);

    let replay: Vec<&str> = inputs
        .segment(2)
        .lines()
        .filter(|l| *l != "shutdown")
        .collect();
    let mut k = 0;
    while k < replay.len() {
        if !replay[k].starts_with("arrive ") {
            feed.single(replay[k], req, "replay.event")?;
            k += 1;
            req += 1;
            continue;
        }
        let run = replay[k..]
            .iter()
            .take(INGEST_BUFFER)
            .take_while(|l| l.starts_with("arrive "))
            .count();
        feed.burst(&replay[k..k + run], req)?;
        k += run;
        req += run as u32;
    }

    let Feed {
        mut tr,
        sess,
        mut journal,
        next_id,
        clock,
        line_bytes,
        record_bytes,
        ..
    } = feed;
    let snap = tr.time("session.stats", req, None, || sess.snapshot());
    let end = tr.open("replay.event", req, None);
    tr.time("journal.sync", req, Some(end), || journal.sync())?;
    tr.time("journal.snapshot", req, Some(end), || {
        journal.write_snapshot(next_id, clock)
    })?;
    let log = tr.time("session.finish", req, Some(end), || sess.finish())?;
    let text = tr.time("log.format", req, Some(end), || {
        model_io::log_to_string(&log)
    });
    tr.close(end);
    tr.write(spans_out)?;

    // The replay phase's parts: every non-shadow span under a replay event.
    let mut replay_split: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in &tr.spans {
        let Some(p) = s.parent else { continue };
        if tr.spans[p as usize].name == "replay.event" && !SHADOW.contains(&s.name) {
            *replay_split.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
    }
    let replay_parts_s = replay_split.values().sum();

    let us = |name: &str| mean(&tr.durations(name)) * 1e6;
    let total = |name: &str| tr.durations(name).iter().sum::<f64>();
    let mut arrive = tr.durations("session.arrive");
    arrive.sort_by(f64::total_cmp);
    let bursts = tr.durations("session.batch_arrive").len();
    let burst_arrivals = inputs.arrivals[2] as f64;
    let index = snap.index.unwrap_or_default();
    let metrics = vec![
        ("protocol.parse_us", us("protocol.parse"), "us"),
        ("protocol.line_bytes", mean(&line_bytes), "bytes"),
        ("model.job_build_us", us("model.job_build"), "us"),
        (
            "model.row_bytes",
            (inputs.machines * std::mem::size_of::<f64>()) as f64,
            "bytes",
        ),
        ("journal.encode_us", us("journal.encode"), "us"),
        ("journal.append_us", us("journal.append"), "us"),
        ("journal.batch_append_us", us("journal.batch_append"), "us"),
        ("journal.snapshot_s", total("journal.snapshot"), "s"),
        ("journal.record_bytes", mean(&record_bytes), "bytes"),
        ("journal.recover_read_s", total("journal.recover_read"), "s"),
        ("journal.replay_s", total("journal.replay"), "s"),
        ("session.open_s", total("session.open"), "s"),
        ("session.arrive_us", us("session.arrive"), "us"),
        (
            "session.arrive_p99_us",
            crate::percentile(&arrive, 0.99) * 1e6,
            "us",
        ),
        ("session.batch_arrive_us", us("session.batch_arrive"), "us"),
        (
            "session.batch_size",
            burst_arrivals / bursts.max(1) as f64,
            "count",
        ),
        ("session.capacity_us", us("session.capacity"), "us"),
        ("session.stats_us", us("session.stats"), "us"),
        ("session.finish_s", total("session.finish"), "s"),
        ("index.flat_searches", index.flat_searches as f64, "count"),
        (
            "index.sparse_searches",
            index.sparse_searches as f64,
            "count",
        ),
        ("index.heap_searches", index.heap_searches as f64, "count"),
        ("index.tombstones", index.tombstones as f64, "count"),
        ("driver.redispatches", snap.redispatches as f64, "count"),
        ("driver.rejected_rule1", snap.rejected_rule1 as f64, "count"),
        ("driver.rejected_rule2", snap.rejected_rule2 as f64, "count"),
        ("log.format_s", total("log.format"), "s"),
        ("log.bytes", text.len() as f64, "bytes"),
    ];
    Ok(Traced {
        metrics,
        log: text,
        replay_parts_s,
        replay_split,
    })
}
