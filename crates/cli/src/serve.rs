//! `osr serve` and `osr top` — the streaming ingest loop and its live
//! ops TUI.
//!
//! `serve` runs a scheduler as a long-lived process on top of
//! [`osr_core::ServeSession`]: producers push job arrivals and
//! capacity events as protocol lines (stdin, and optionally a unix
//! socket), the session dispatches them online, and when the stream
//! ends stdout carries **exactly** the finished schedule log — so a
//! replayed trace (see `osr_workload::serve_script`) pipes through
//! `serve` to bytes identical to the offline `osr run` over the same
//! instance. Everything interactive (stats blocks, per-line errors)
//! goes to stderr or the socket, never stdout.
//!
//! The protocol is line-oriented and time-ordered (the session
//! enforces a monotone high-water clock):
//!
//! ```text
//! arrive <id> [@T] [w=W] <size>...   # one size per machine; inf = ineligible
//! arrive <id> [@T] [w=W] m=<width> <machine>:<size>...
//!                                    # finite sizes only; ids increasing
//! join|drain|crash <machine> [@T]    # pool membership change
//! advance <T>                        # fire completions up to T
//! stats                              # key/value snapshot, ends with `end`
//! shutdown                           # finish the stream
//! ```
//!
//! Omitted `@T` default to the last event's time; `<id>` must be the
//! next dense job id (a cheap end-to-end check that producer and
//! server agree on the stream position). The second `arrive` form is
//! the sparse row a v3 journal writes (O(eligible) bytes); both forms
//! go through `osr_core::journal::parse_arrive`, which documents the
//! grammar and its errors.
//!
//! Tokens are separated by runs of **ASCII whitespace** only: space,
//! tab, line feed, form feed and carriage return (Rust's
//! `split_ascii_whitespace`, the same set the journal parser uses).
//! Any other character, including Unicode spaces such as U+00A0 or
//! U+3000 and the vertical tab, is part of a token, so a line that
//! uses one as a separator fails to parse and gets an `err` reply; it
//! is never silently accepted as a different row.
//!
//! `top` is the other side of the socket: it polls `stats` and renders
//! an ANSI frame — queue depths, flow-time percentiles, reject counts
//! by reason, redispatch totals, and dispatch-index stats — with no
//! dependency beyond a VT100 terminal.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write as _};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use osr_core::energyflow::EnergyFlowParams;
use osr_core::flowtime::WeightedFlowParams;
use osr_core::{
    Arrival, EnergyFlowSession, FlowParams, FlowSession, JournaledSession, ServeSession,
    WeightedFlowSession,
};
use osr_model::{io as model_io, FinishedLog};
use osr_sim::failpoint;
use osr_sim::CapacityChange;

use crate::args::{split_spec, Args};
use crate::commands::{ineffective_knob_notices, usage, CmdOutput, RuntimeOpts};

/// Builds the serve session for an `--algo` spec. Only the three
/// capacity-aware schedulers have a streaming mode (deadline-based
/// `energymin` fixes strategies at arrival against a known future and
/// the baselines are offline constructions).
fn build_session(
    spec: &str,
    machines: usize,
    offline: &[usize],
    opts: &RuntimeOpts,
) -> Result<Box<dyn ServeSession>, String> {
    let (head, v) = split_spec(spec);
    match (head.as_str(), v.as_slice()) {
        ("flow", [eps]) => {
            let mut params = FlowParams::new(*eps);
            opts.apply_to(&mut params.config);
            Ok(Box::new(FlowSession::with_offline(
                params, machines, offline,
            )?))
        }
        ("wflow", [eps]) => {
            let mut params = WeightedFlowParams::new(*eps);
            opts.apply_to(&mut params.config);
            Ok(Box::new(WeightedFlowSession::with_offline(
                params, machines, offline,
            )?))
        }
        ("energyflow", [eps, alpha]) => {
            let mut params = EnergyFlowParams::new(*eps, *alpha);
            opts.apply_to(&mut params.config);
            Ok(Box::new(EnergyFlowSession::with_offline(
                params, machines, offline,
            )?))
        }
        _ => Err(format!(
            "serve supports flow:EPS | wflow:EPS | energyflow:EPS:ALPHA, got `{spec}`\n\n{}",
            usage()
        )),
    }
}

/// Parses a `--offline` machine list (`1,3,7`).
fn parse_offline(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| format!("bad machine id `{t}` in --offline (want e.g. 1,3,7)"))
        })
        .collect()
}

/// What a protocol line asks the server to do next.
enum Response {
    /// Processed; nothing to show (socket clients get `ok`).
    Quiet,
    /// A stats block to send back to the asking producer.
    Stats(String),
    /// End the stream and emit the finished log.
    Shutdown,
}

/// One number operand, in the grammar the journal writes (`inf`, the
/// bit-exact `x<16 hex>` form, or decimal), so a journal record body is
/// also a valid protocol line.
fn num(tok: &str, what: &str) -> Result<f64, String> {
    osr_core::journal::parse_number(tok).ok_or_else(|| format!("bad {what} `{tok}`"))
}

/// Parses and applies one protocol line against the session. `next_id`
/// and `last_t` are the stream cursor: the expected dense job id and
/// the default timestamp for lines that omit `@T`. Failed lines leave
/// the session untouched (the sessions validate before mutating).
fn handle_line(
    sess: &mut dyn ServeSession,
    next_id: &mut usize,
    last_t: &mut f64,
    line: &str,
) -> Result<Response, String> {
    let mut toks = line.split_ascii_whitespace();
    let Some(cmd) = toks.next() else {
        return Ok(Response::Quiet); // blank line
    };
    if cmd.starts_with('#') {
        return Ok(Response::Quiet);
    }
    match cmd {
        "arrive" => {
            let a = parse_arrive(toks, *next_id, *last_t)?;
            let release = a.release;
            sess.arrive(a.release, a.weight, a.sizes)?;
            *next_id += 1;
            *last_t = release;
            Ok(Response::Quiet)
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
            let time = match toks.next() {
                Some(t) => num(t.strip_prefix('@').unwrap_or(t), "event time")?,
                None => *last_t,
            };
            sess.capacity(change, machine, time)?;
            *last_t = time;
            Ok(Response::Quiet)
        }
        "advance" => {
            let t_tok = toks.next().ok_or("advance needs a time")?;
            let time = num(t_tok.strip_prefix('@').unwrap_or(t_tok), "advance time")?;
            sess.advance(time)?;
            *last_t = time;
            Ok(Response::Quiet)
        }
        "stats" => Ok(Response::Stats(render_stats(sess))),
        "shutdown" => Ok(Response::Shutdown),
        other => Err(format!(
            "unknown serve command `{other}` (want arrive|join|drain|crash|advance|stats|shutdown)"
        )),
    }
}

/// Parse-only twin of [`handle_line`]'s `arrive` arm: validates the id
/// against the stream cursor, then hands the operands to the one arrive
/// parser ([`osr_core::journal::parse_arrive`], dense or sparse rows)
/// with `last_t` as the default `@T`, without touching the session.
/// `toks` holds the operands after the `arrive` keyword. Shared with
/// the burst coalescer in [`serve_loop`], which must parse a whole
/// burst before ingesting any of it.
fn parse_arrive<'a>(
    toks: impl Iterator<Item = &'a str>,
    next_id: usize,
    last_t: f64,
) -> Result<Arrival, String> {
    let mut toks = toks;
    let id_tok = toks.next().ok_or("arrive needs a job id")?;
    let id: usize = id_tok
        .parse()
        .map_err(|_| format!("bad job id `{id_tok}`"))?;
    if id != next_id {
        return Err(format!(
            "arrive id {id} out of order (expected {next_id}; ids are dense)"
        ));
    }
    osr_core::journal::parse_arrive(toks, Some(last_t))
}

/// Whether a protocol line is an `arrive` line (the only kind the
/// serve loop coalesces).
fn is_arrive(line: &str) -> bool {
    line.split_ascii_whitespace().next() == Some("arrive")
}

/// Applies a coalesced burst of `arrive` lines as **one** ingest epoch
/// (via [`ServeSession::arrive_batch`]), replying per line exactly as
/// the serial loop would.
///
/// Parsing mirrors serial processing: each line parses against the
/// running cursor, and a bad line leaves the cursor untouched — so a
/// later dense id fails the same way it would one-by-one. If the
/// session rejects the batch mid-way, the surviving prefix is
/// committed and every later batch entry is replayed through the
/// serial path, keeping replies and state line-for-line identical to
/// the uncoalesced loop.
/// Returns `Some(message)` when a failpoint's `error` action fired
/// inside the batch: the batch was neither journaled nor applied, and
/// the serve loop must shut down gracefully (flush + final log).
fn process_arrive_batch(
    sess: &mut dyn ServeSession,
    next_id: &mut usize,
    last_t: &mut f64,
    lines: Vec<(String, Option<Sender<String>>)>,
) -> Option<String> {
    enum Tag {
        Parsed(usize),
        Bad(String),
    }
    let mut batch: Vec<Arrival> = Vec::new();
    let mut tagged: Vec<(String, Option<Sender<String>>, Tag)> = Vec::new();
    let (mut tid, mut tt) = (*next_id, *last_t);
    for (line, reply) in lines {
        match parse_arrive(line.split_ascii_whitespace().skip(1), tid, tt) {
            Ok(a) => {
                tid += 1;
                tt = a.release;
                tagged.push((line, reply, Tag::Parsed(batch.len())));
                batch.push(a);
            }
            Err(e) => tagged.push((line, reply, Tag::Bad(e))),
        }
    }
    let releases: Vec<f64> = batch.iter().map(|a| a.release).collect();
    let (ok_count, fail) = match sess.arrive_batch(batch) {
        Ok(()) => (releases.len(), None),
        Err((k, e)) => (k, Some(e)),
    };
    *next_id += ok_count;
    if ok_count > 0 {
        *last_t = releases[ok_count - 1];
    }
    // An injected failure leaves the whole batch unapplied (and
    // un-journaled); answer every pending line with it instead of
    // replaying the tail, and hand it up as a shutdown request.
    let injected = fail
        .as_deref()
        .filter(|e| failpoint::is_failpoint_error(e))
        .map(str::to_string);
    let mut failed = fail;
    for (line, reply, tag) in tagged {
        let res = match tag {
            Tag::Bad(e) => Err(e),
            Tag::Parsed(i) if i < ok_count => Ok(()),
            Tag::Parsed(_) if injected.is_some() => Err(injected.clone().expect("checked is_some")),
            Tag::Parsed(i) if i == ok_count && failed.is_some() => {
                Err(failed.take().expect("checked is_some"))
            }
            // Batch entries past a mid-batch failure replay serially.
            Tag::Parsed(_) => handle_line(sess, next_id, last_t, &line).map(|_| ()),
        };
        match res {
            Ok(()) => {
                if let Some(tx) = reply {
                    let _ = tx.send("ok\n".into());
                }
            }
            Err(e) => match reply {
                Some(tx) => {
                    let _ = tx.send(format!("err {e}\n"));
                }
                None => eprintln!("serve: {e}"),
            },
        }
    }
    injected
}

/// Renders a [`osr_core::ServeSnapshot`] as the wire stats block: one
/// `key value` pair per line, terminated by `end`. Numbers use Rust's
/// shortest-round-trip formatting so `top` re-parses them exactly.
fn render_stats(sess: &dyn ServeSession) -> String {
    use std::fmt::Write as _;
    let s = sess.snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "algo {}", sess.algorithm());
    let _ = writeln!(out, "now {}", s.now);
    let _ = writeln!(out, "machines {}", s.machines);
    let _ = writeln!(out, "online {}", s.online);
    let _ = writeln!(out, "shards {}", s.shards);
    let _ = writeln!(out, "arrived {}", s.arrived);
    let _ = writeln!(out, "queued {}", s.queued);
    let _ = writeln!(out, "running {}", s.running);
    let _ = writeln!(out, "completions_pending {}", s.completions_pending);
    let _ = writeln!(out, "completed {}", s.completed);
    let _ = writeln!(out, "rejected {}", s.rejected);
    let _ = writeln!(out, "rejected_rule1 {}", s.rejected_rule1);
    let _ = writeln!(out, "rejected_rule2 {}", s.rejected_rule2);
    let _ = writeln!(out, "rejected_immediate {}", s.rejected_immediate);
    let _ = writeln!(out, "rejected_ineligible {}", s.rejected_ineligible);
    let _ = writeln!(out, "rejected_machine_lost {}", s.rejected_machine_lost);
    let _ = writeln!(out, "rejected_other {}", s.rejected_other);
    let _ = writeln!(out, "redispatches {}", s.redispatches);
    let _ = writeln!(out, "flow_p50 {}", s.flow_p50);
    let _ = writeln!(out, "flow_p95 {}", s.flow_p95);
    let _ = writeln!(out, "flow_p99 {}", s.flow_p99);
    for (m, depth) in &s.machine_depths {
        let _ = writeln!(out, "load_{m} {depth}");
    }
    if let Some(ix) = s.index {
        let _ = writeln!(out, "index_flat {}", ix.flat_searches);
        let _ = writeln!(out, "index_sparse {}", ix.sparse_searches);
        let _ = writeln!(out, "index_heap {}", ix.heap_searches);
        let _ = writeln!(out, "index_heap_evals {}", ix.heap_evals);
        let _ = writeln!(out, "index_heap_expansions {}", ix.heap_expansions);
        let _ = writeln!(out, "index_dirty {}", ix.dirty_leaves);
        let _ = writeln!(out, "index_live {}", ix.live);
        let _ = writeln!(out, "index_tombstones {}", ix.tombstones);
    }
    out.push_str("end\n");
    out
}

/// Splices the overload-shed counter into a rendered stats block
/// (before the `end` terminator). The counter lives in the serve loop,
/// not the session — it counts socket lines the bounded ingest channel
/// refused, which the session never saw.
fn with_shed_line(block: String, shed: u64) -> String {
    let mut out = block;
    if out.ends_with("end\n") {
        out.truncate(out.len() - "end\n".len());
    }
    out.push_str(&format!("shed_overload {shed}\nend\n"));
    out
}

/// One message from a producer thread to the serve loop.
enum Inbound {
    /// A protocol line, with a reply channel for socket clients (`None`
    /// for stdin — its errors and stats print to stderr instead).
    Line(String, Option<Sender<String>>),
    /// The stdin stream ended.
    Eof,
}

/// Reads protocol lines from one accepted socket connection, routing
/// each through the serve loop and writing the reply back. Lines get
/// `ok`, `err <msg>`, or a multi-line stats block ending in `end`.
///
/// The ingest channel is bounded; when it is full, socket lines are
/// *shed* (an immediate `err overloaded` reply, counted in `shed`)
/// rather than queued without bound — stdin is the backpressured
/// producer, the socket is the load-shedding one.
#[cfg(unix)]
fn handle_conn(stream: UnixStream, tx: SyncSender<Inbound>, shed: Arc<AtomicU64>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { break };
        let (rtx, rrx) = mpsc::channel::<String>();
        match tx.try_send(Inbound::Line(line, Some(rtx))) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(_)) => {
                shed.fetch_add(1, Ordering::Relaxed);
                if writer.write_all(b"err overloaded\n").is_err() {
                    break;
                }
                continue;
            }
            Err(mpsc::TrySendError::Disconnected(_)) => break, // server shut down
        }
        let Ok(reply) = rrx.recv() else { break };
        if writer.write_all(reply.as_bytes()).is_err() {
            break;
        }
    }
}

/// The serve event loop: merges producer streams (an owned line reader
/// standing in for stdin, plus socket connections), applies each line
/// to the session in arrival order, and finishes the log when the
/// stream ends — via `shutdown`, or at reader EOF when `once` is set
/// or no socket keeps the server reachable.
///
/// `cursor` is the starting stream position (`(0, 0.0)` for a fresh
/// run; the recovered high-water mark after `--recover`). `buffer`
/// bounds the producer→consumer channel: stdin blocks when it is full
/// (backpressure), socket lines are shed with `err overloaded`.
///
/// A failpoint `error` action anywhere in line handling is a graceful
/// shutdown request: the loop stops ingesting and finishes exactly as
/// `shutdown` would, so the journal is flushed and the final log still
/// comes out.
fn serve_loop<R: BufRead + Send + 'static>(
    mut sess: Box<dyn ServeSession>,
    input: R,
    socket: Option<&Path>,
    once: bool,
    cursor: (usize, f64),
    buffer: usize,
) -> Result<FinishedLog, String> {
    let (tx, rx) = mpsc::sync_channel::<Inbound>(buffer.max(1));
    let shed = Arc::new(AtomicU64::new(0));

    let stdin_tx = tx.clone();
    std::thread::spawn(move || {
        for line in input.lines() {
            let Ok(line) = line else { break };
            // Blocking send on the bounded channel: stdin producers
            // are backpressured, never shed.
            if stdin_tx.send(Inbound::Line(line, None)).is_err() {
                return;
            }
        }
        let _ = stdin_tx.send(Inbound::Eof);
    });

    #[cfg(unix)]
    if let Some(path) = socket {
        let _ = std::fs::remove_file(path); // stale socket from a past run
        let listener =
            UnixListener::bind(path).map_err(|e| format!("binding {}: {e}", path.display()))?;
        let sock_tx = tx.clone();
        let sock_shed = Arc::clone(&shed);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let conn_tx = sock_tx.clone();
                let conn_shed = Arc::clone(&sock_shed);
                std::thread::spawn(move || handle_conn(stream, conn_tx, conn_shed));
            }
        });
    }
    #[cfg(not(unix))]
    if socket.is_some() {
        return Err("--socket needs unix domain sockets (unsupported on this platform)".into());
    }
    drop(tx);

    let has_socket = socket.is_some();
    let (mut next_id, mut last_t) = cursor;
    // Non-arrive messages drained while collecting a burst park here
    // and are processed before blocking on the channel again.
    let mut parked: VecDeque<Inbound> = VecDeque::new();
    loop {
        let msg = match parked.pop_front() {
            Some(m) => m,
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
        };
        match msg {
            Inbound::Eof => {
                if !has_socket && !once {
                    eprintln!("serve: stdin closed and no --socket to keep serving; finishing");
                }
                if once || !has_socket {
                    break;
                }
            }
            Inbound::Line(line, reply) => {
                if is_arrive(&line) {
                    // Coalesce the already-queued tail of an arrival
                    // burst into one ingest epoch. Result-neutral: the
                    // determinism contract makes the batched log
                    // byte-identical to per-line ingest, so this trades
                    // ingest overhead only.
                    let mut burst = vec![(line, reply)];
                    while let Ok(next) = rx.try_recv() {
                        match next {
                            Inbound::Line(l, r) if is_arrive(&l) => burst.push((l, r)),
                            other => {
                                parked.push_back(other);
                                break;
                            }
                        }
                    }
                    if let Some(e) =
                        process_arrive_batch(sess.as_mut(), &mut next_id, &mut last_t, burst)
                    {
                        eprintln!("serve: {e}; shutting down gracefully");
                        break;
                    }
                    continue;
                }
                match handle_line(sess.as_mut(), &mut next_id, &mut last_t, &line) {
                    Ok(Response::Quiet) => {
                        if let Some(tx) = reply {
                            let _ = tx.send("ok\n".into());
                        }
                    }
                    Ok(Response::Stats(block)) => {
                        let block = with_shed_line(block, shed.load(Ordering::Relaxed));
                        match reply {
                            Some(tx) => {
                                let _ = tx.send(block);
                            }
                            None => eprint!("{block}"),
                        }
                    }
                    Ok(Response::Shutdown) => {
                        if let Some(tx) = reply {
                            let _ = tx.send("ok\n".into());
                        }
                        break;
                    }
                    Err(e) if failpoint::is_failpoint_error(&e) => {
                        if let Some(tx) = reply {
                            let _ = tx.send(format!("err {e}\n"));
                        }
                        eprintln!("serve: {e}; shutting down gracefully");
                        break;
                    }
                    Err(e) => match reply {
                        Some(tx) => {
                            let _ = tx.send(format!("err {e}\n"));
                        }
                        None => eprintln!("serve: {e}"),
                    },
                }
            }
        }
    }
    if let Some(path) = socket {
        let _ = std::fs::remove_file(path);
    }
    sess.finish()
}

/// `osr serve` — run a scheduler as a long-lived arrival-ingesting
/// process. See the module docs for the protocol; stdout carries
/// exactly the final schedule log.
pub fn cmd_serve(args: &Args) -> Result<CmdOutput, String> {
    let spec = args.opt("algo").unwrap_or("flow:0.25");
    let machines_tok = args.require("machines")?;
    let machines: usize = machines_tok
        .parse()
        .map_err(|_| format!("bad --machines `{machines_tok}` (want a positive integer)"))?;
    let offline = match args.opt("offline") {
        Some(s) => parse_offline(s)?,
        None => Vec::new(),
    };
    let opts = RuntimeOpts::parse(args)?;
    let mut notices = ineffective_knob_notices(&opts, machines);
    let once = args.flag("once");
    let socket = args.opt("socket").map(PathBuf::from);

    let journal_path = args.opt("journal").map(PathBuf::from);
    let recover = args.flag("recover");
    if recover && journal_path.is_none() {
        return Err("--recover needs --journal PATH (the journal to replay)".into());
    }
    let snap_every = match args.opt("snap-every") {
        Some(s) => osr_core::parse_snap_every(s)?,
        None => 32,
    };
    let buffer = match args.opt("ingest-buffer") {
        Some(s) => osr_core::parse_ingest_buffer(s)?,
        None => 1024,
    };
    match args.opt("failpoint") {
        Some(fp) => failpoint::arm(fp)?,
        None => {
            failpoint::arm_from_env()?;
        }
    }

    let sess = build_session(spec, machines, &offline, &opts)?;
    let mut cursor = (0usize, 0.0f64);
    let sess: Box<dyn ServeSession> = match &journal_path {
        Some(path) => {
            let fp = osr_core::fingerprint(spec, machines, &offline);
            if recover {
                let (js, report, warnings) = JournaledSession::recover(sess, path, fp, snap_every)?;
                for w in warnings {
                    eprintln!("serve: {w}");
                }
                eprintln!(
                    "serve: recovered {} journaled event(s) from {} \
                     ({} torn record(s) dropped, {} deterministic rejection(s) replayed{}); \
                     resuming at id {} t={}",
                    report.records_replayed,
                    path.display(),
                    report.dropped_torn,
                    report.rejected_replays,
                    if report.snapshot_checked {
                        ", snapshot cursor verified"
                    } else {
                        ""
                    },
                    report.next_id,
                    report.clock
                );
                cursor = js.cursor();
                Box::new(js)
            } else {
                Box::new(JournaledSession::create(sess, path, fp, snap_every)?)
            }
        }
        None => sess,
    };
    let log = serve_loop(
        sess,
        BufReader::new(std::io::stdin()),
        socket.as_deref(),
        once,
        cursor,
        buffer,
    )?;
    let text = model_io::log_to_string(&log);
    if let Some(path) = args.opt("log") {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        notices.push(format!("log written to {path}"));
    }
    Ok(CmdOutput {
        stdout: text,
        notices,
    })
}

/// Connects to a serve socket, sends `stats`, and parses the reply
/// block into key/value pairs.
#[cfg(unix)]
fn fetch_stats(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let mut stream = UnixStream::connect(path).map_err(|e| e.to_string())?;
    stream
        .write_all(b"stats\n")
        .map_err(|e| format!("sending stats: {e}"))?;
    let mut map = BTreeMap::new();
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("reading stats: {e}"))?;
        if line == "end" {
            return Ok(map);
        }
        if let Some((k, v)) = line.split_once(' ') {
            map.insert(k.to_string(), v.to_string());
        }
    }
    Err("connection closed before `end`".into())
}

#[cfg(not(unix))]
fn fetch_stats(_path: &Path) -> Result<BTreeMap<String, String>, String> {
    Err("osr top needs unix domain sockets (unsupported on this platform)".into())
}

/// A labelled horizontal bar for the queue-depth gauges.
fn bar(value: usize, max: usize, width: usize) -> String {
    let filled = if max == 0 {
        0
    } else {
        (value * width).div_ceil(max).min(width)
    };
    let mut s = String::new();
    for _ in 0..filled {
        s.push('█');
    }
    for _ in filled..width {
        s.push('·');
    }
    s
}

/// Renders one TUI frame from a parsed stats block. Pure so the layout
/// is unit-testable; `cmd_top` adds the screen-clear prefix per poll.
fn render_frame(stats: &BTreeMap<String, String>) -> String {
    use std::fmt::Write as _;
    let get = |k: &str| stats.get(k).map(String::as_str).unwrap_or("0");
    let getn = |k: &str| get(k).parse::<usize>().unwrap_or(0);
    let getf = |k: &str| get(k).parse::<f64>().unwrap_or(0.0);

    let (queued, running, pending) = (getn("queued"), getn("running"), getn("completions_pending"));
    let max = queued.max(running).max(pending).max(1);
    const W: usize = 24;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "\x1b[1mosr top\x1b[0m — \x1b[36m{}\x1b[0m @ t={}   machines {}/{} online   {} shard(s)",
        get("algo"),
        get("now"),
        get("online"),
        get("machines"),
        get("shards"),
    );
    let _ = writeln!(
        out,
        "  arrived {:>8}   completed {:>8}   rejected {:>6}   redispatches {:>6}   shed {:>6}",
        get("arrived"),
        get("completed"),
        get("rejected"),
        get("redispatches"),
        get("shed_overload"),
    );
    let _ = writeln!(
        out,
        "  queued  \x1b[33m{}\x1b[0m {queued}",
        bar(queued, max, W)
    );
    let _ = writeln!(
        out,
        "  running \x1b[32m{}\x1b[0m {running}",
        bar(running, max, W)
    );
    let _ = writeln!(
        out,
        "  pending \x1b[35m{}\x1b[0m {pending}",
        bar(pending, max, W)
    );
    let _ = writeln!(
        out,
        "  flow    p50 {:.3}   p95 {:.3}   p99 {:.3}",
        getf("flow_p50"),
        getf("flow_p95"),
        getf("flow_p99"),
    );
    let _ = writeln!(
        out,
        "  rejects rule-1 {}  rule-2 {}  immediate {}  ineligible {}  machine-lost {}  other {}",
        get("rejected_rule1"),
        get("rejected_rule2"),
        get("rejected_immediate"),
        get("rejected_ineligible"),
        get("rejected_machine_lost"),
        get("rejected_other"),
    );
    // Per-machine load pane: the k deepest pending queues, deepest
    // first (ties to the lower machine id), scaled to the pane leader.
    let mut loads: Vec<(usize, usize)> = stats
        .iter()
        .filter_map(|(k, v)| {
            let m = k.strip_prefix("load_")?.parse::<usize>().ok()?;
            Some((m, v.parse::<usize>().ok()?))
        })
        .collect();
    if !loads.is_empty() {
        loads.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        const TOP_K: usize = 8;
        let shown = &loads[..loads.len().min(TOP_K)];
        let lmax = shown.first().map_or(1, |&(_, d)| d.max(1));
        let _ = writeln!(
            out,
            "  load    (top {} of {} machines by queue depth)",
            shown.len(),
            loads.len()
        );
        for &(m, d) in shown {
            let _ = writeln!(out, "    m{m:<6} \x1b[34m{}\x1b[0m {d}", bar(d, lmax, W));
        }
    }
    if stats.contains_key("index_flat") {
        let _ = writeln!(
            out,
            "  index   flat {}  sparse {}  heap {} ({} evals)  expanded {}  dirty {}  live {}  tombstones {}",
            get("index_flat"),
            get("index_sparse"),
            get("index_heap"),
            get("index_heap_evals"),
            get("index_heap_expansions"),
            get("index_dirty"),
            get("index_live"),
            get("index_tombstones"),
        );
    } else {
        let _ = writeln!(out, "  index   (linear scan — no dispatch index live)");
    }
    out
}

/// The reconnect schedule for `osr top`: capped exponential backoff
/// (100 ms doubling to a 5 s ceiling) plus up to 25% deterministic
/// jitter keyed by the attempt number, so a fleet of `top`s pointed at
/// one recovering server does not reconnect in lockstep.
fn backoff_delay_ms(attempt: u32) -> u64 {
    let capped = (100u64 << attempt.min(6)).min(5000);
    // SplitMix64-style mix of the attempt index — deterministic (no
    // RNG dependency, reproducible in tests) but well spread.
    let mut x = (u64::from(attempt) + 1).wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    capped + x % (capped / 4 + 1)
}

/// `osr top` — poll a serve socket and render the live ops TUI.
/// `--frames 0` (the default) polls until the server goes away.
/// Transient connect/poll failures retry with capped exponential
/// backoff (`--retries`, default 10, counted per outage) and a
/// "reconnecting…" status line instead of killing the TUI.
pub fn cmd_top(args: &Args) -> Result<CmdOutput, String> {
    let path = args.require("socket")?;
    let frames: usize = args.opt_parse("frames", 0)?;
    let interval_ms: u64 = args.opt_parse("interval-ms", 500)?;
    let retries: u32 = args.opt_parse("retries", 10)?;

    let mut rendered = 0usize;
    let mut attempt = 0u32;
    loop {
        let stats = match fetch_stats(Path::new(path)) {
            Ok(s) => {
                attempt = 0; // outage over — reset the backoff clock
                s
            }
            Err(e) if attempt < retries => {
                let delay = backoff_delay_ms(attempt);
                attempt += 1;
                eprintln!("top: {e}; reconnecting in {delay} ms (attempt {attempt}/{retries})…");
                std::thread::sleep(Duration::from_millis(delay));
                continue;
            }
            Err(e) if rendered > 0 => {
                eprintln!("top: {e}; retries exhausted, server gone, exiting");
                break;
            }
            Err(e) => return Err(format!("connecting to {path}: {e}")),
        };
        // Clear + home, then the frame — written directly so each poll
        // shows live (the returned CmdOutput stays empty).
        print!("\x1b[2J\x1b[H{}", render_frame(&stats));
        let _ = std::io::stdout().flush();
        rendered += 1;
        if frames != 0 && rendered >= frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    Ok(CmdOutput::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_core::FlowScheduler;
    use osr_model::{Instance, InstanceKind, Job};
    use osr_sim::{CapacityEvent, CapacityPlan};
    use std::io::Cursor;

    fn jobs() -> Vec<Job> {
        vec![
            Job::weighted(0, 0.0, 1.0, vec![2.0, 4.0]),
            Job::weighted(1, 1.0, 2.0, vec![3.0, 1.0]),
            Job::weighted(2, 2.5, 1.0, vec![f64::INFINITY, f64::INFINITY]),
            Job::weighted(3, 4.0, 1.0, vec![1.5, 2.5]),
        ]
    }

    #[test]
    fn serve_loop_replays_a_script_byte_identically() {
        // Offline oracle: flow over the same jobs and capacity plan.
        let plan = CapacityPlan::new(vec![
            CapacityEvent {
                time: 1.0,
                machine: osr_model::MachineId(1),
                change: CapacityChange::Crash,
            },
            CapacityEvent {
                time: 3.0,
                machine: osr_model::MachineId(1),
                change: CapacityChange::Join,
            },
        ])
        .unwrap();
        let inst = Instance::new(2, jobs(), InstanceKind::FlowTime).unwrap();
        let offline = FlowScheduler::with_eps(0.5)
            .unwrap()
            .with_capacity(plan)
            .run(&inst);

        // The same events as a protocol script — capacity before
        // arrivals at equal instants, matching the offline batch loop —
        // plus chatter the loop must tolerate: comments, blank lines, a
        // stats poll, and invalid lines (an out-of-order id, a time
        // regression) that reject loudly without perturbing the stream.
        let script = "\
# replayed trace
arrive 0 @0 w=1 2 4

crash 1 @1
arrive 1 @1 w=2 3 1
arrive 7 @1.5 w=1 1 1
stats
arrive 2 @2.5 w=1 inf inf
join 1 @3
drain 0 @2
arrive 3 @4 w=1 1.5 2.5
shutdown
";
        let sess = Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
        let log = serve_loop(
            sess,
            Cursor::new(script.to_string()),
            None,
            false,
            (0, 0.0),
            1024,
        )
        .unwrap();
        assert_eq!(
            model_io::log_to_string(&offline.log),
            model_io::log_to_string(&log)
        );
    }

    /// Deterministic maximal coalescing: group every run of consecutive
    /// `arrive` lines into one batch (what `serve_loop` converges to
    /// when producers outpace ingest) and compare against the serial
    /// line-at-a-time loop — cursors and final logs must be identical,
    /// bad lines included.
    #[test]
    fn coalesced_arrive_bursts_match_serial_lines() {
        let script = [
            "arrive 0 @0 w=1 2 4",
            "arrive 1 @1 w=2 3 1",
            "arrive 7 @1.5 w=1 1 1", // out-of-order id: rejected either way
            "arrive 2 @2.5 w=1 inf inf",
            "arrive 3 @x 1 1", // malformed release: rejected either way
            "drain 1 @3",
            "arrive 3 @4 w=1 1.5 2.5",
            "arrive 4 @3 w=1 1 1", // time regression: session-level reject
            "arrive 5 @5 w=1 2 2",
        ];
        let mut serial = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let (mut sid, mut st) = (0usize, 0.0f64);
        for line in script {
            let _ = handle_line(&mut serial, &mut sid, &mut st, line);
        }

        let mut batched: Box<dyn ServeSession> =
            Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
        let (mut bid, mut bt) = (0usize, 0.0f64);
        let mut burst: Vec<(String, Option<Sender<String>>)> = Vec::new();
        for line in script {
            if is_arrive(line) {
                burst.push((line.to_string(), None));
                continue;
            }
            process_arrive_batch(
                batched.as_mut(),
                &mut bid,
                &mut bt,
                std::mem::take(&mut burst),
            );
            handle_line(batched.as_mut(), &mut bid, &mut bt, line).unwrap();
        }
        process_arrive_batch(batched.as_mut(), &mut bid, &mut bt, burst);

        assert_eq!((sid, st), (bid, bt), "stream cursors diverged");
        assert_eq!(
            model_io::log_to_string(&Box::new(serial).finish().unwrap()),
            model_io::log_to_string(&batched.finish().unwrap()),
        );
    }

    /// The recorded `examples/serve` trace replays byte-identically to
    /// its committed offline oracle through the coalescing loop (CI
    /// repeats this end-to-end over the built binary for all three
    /// schedulers).
    #[test]
    fn recorded_trace_replays_byte_identically_under_coalescing() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/serve");
        let script = std::fs::read_to_string(root.join("trace.script")).unwrap();
        let oracle = std::fs::read_to_string(root.join("offline-flow-0.25.csv")).unwrap();
        let sess = Box::new(FlowSession::new(FlowParams::new(0.25), 6).unwrap());
        let log = serve_loop(sess, Cursor::new(script), None, true, (0, 0.0), 1024).unwrap();
        assert_eq!(model_io::log_to_string(&log), oracle);
    }

    /// The recorded trace (m = 6) holds restricted rows with up to
    /// three eligible machines and wider ones, so its replay in CI
    /// builds rows in both forms.
    #[test]
    fn recorded_trace_builds_rows_in_both_forms() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/serve");
        let script = std::fs::read_to_string(root.join("trace.script")).unwrap();
        let (mut sparse, mut dense) = (0, 0);
        for (id, line) in script.lines().filter(|l| is_arrive(l)).enumerate() {
            let a = parse_arrive(line.split_ascii_whitespace().skip(1), id, 0.0).unwrap();
            assert_eq!(a.sizes.len(), 6);
            match a.sizes.as_dense() {
                Some(_) => dense += 1,
                None => sparse += 1,
            }
        }
        assert!(sparse > 0 && dense > 0, "sparse {sparse}, dense {dense}");
    }

    /// Sparse `m=`/`machine:size` arrive lines serve the same log as
    /// their dense twins, alone and coalesced.
    #[test]
    fn sparse_arrive_lines_serve_the_dense_lines_log() {
        let dense = "arrive 0 @0 w=1 2 4\narrive 1 @1 w=2 3 1\narrive 2 @2.5 w=1 inf inf\n\
                     arrive 3 @4 w=1 inf 2.5\narrive 4 @4 w=1 x3ff8000000000000 inf\n";
        let sparse = "arrive 0 @0 w=1 2 4\narrive 1 @1 w=2 3 1\narrive 2 @2.5 w=1 m=2\n\
                      arrive 3 @4 w=1 m=2 1:2.5\narrive 4 @4 w=1 m=2 0:x3ff8000000000000\n";
        let logs: Vec<String> = [(dense, false), (sparse, false), (sparse, true)]
            .into_iter()
            .map(|(script, once)| {
                let sess = Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
                let log = serve_loop(
                    sess,
                    Cursor::new(script.to_string()),
                    None,
                    once,
                    (0, 0.0),
                    1024,
                )
                .unwrap();
                model_io::log_to_string(&log)
            })
            .collect();
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
        assert_eq!(model_io::log_from_str(&logs[0]).unwrap().len(), 5);
    }

    /// Malformed sparse rows get an error reply (never a panic) and
    /// leave the stream cursor and the session untouched, whether they
    /// arrive alone or inside a coalesced burst.
    #[test]
    fn malformed_sparse_arrive_lines_are_errors() {
        let bad = [
            "arrive 0 @1 m=2 1:1 0:1", // unsorted ids
            "arrive 0 @1 m=2 1:1 1:2", // duplicate id
            "arrive 0 @1 m=2 2:1",     // id ≥ width
            "arrive 0 @1 1:1",         // missing m=
            "arrive 0 @1 m=3 0:1",     // width ≠ the pool's 2 machines
            "arrive 0 @1 m=two 0:1",   // unparsable width
            "arrive 0 @1 m=2 m=2 0:1", // second m=
            "arrive 0 @1 1 m=2 1:1",   // dense token mixed with pairs
            "arrive 0 @1 m=2 0:1 inf", // pair mixed with a dense token
            "arrive 0 @1 m=2 0:inf",   // inf inside a pair
            "arrive 0 @1 m=2 0:0",     // zero size inside a pair
            "arrive 0 @1 m=2 0:-1.5",  // negative size inside a pair
        ];
        for line in bad {
            let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
            let (mut id, mut t) = (0usize, 0.0f64);
            let err = match handle_line(&mut sess, &mut id, &mut t, line) {
                Err(e) => e,
                Ok(_) => panic!("`{line}` was accepted"),
            };
            assert!(!err.is_empty(), "{line}");
            assert_eq!((id, t), (0, 0.0), "{line}");
            assert_eq!(sess.snapshot().arrived, 0, "{line}");

            let mut batched: Box<dyn ServeSession> =
                Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
            let (mut bid, mut bt) = (0usize, 0.0f64);
            let (tx, rx) = mpsc::channel();
            let burst = vec![(line.to_string(), Some(tx))];
            assert!(process_arrive_batch(batched.as_mut(), &mut bid, &mut bt, burst).is_none());
            let replies: Vec<String> = rx.try_iter().collect();
            assert!(replies[0].starts_with("err "), "{line}: {replies:?}");
            assert_eq!((bid, bt), (0, 0.0), "{line}");
            assert_eq!(batched.snapshot().arrived, 0, "{line}");
        }
    }

    #[test]
    fn serve_loop_finishes_at_eof_without_shutdown() {
        // `--once` semantics: EOF ends the stream; defaulted times and
        // weights apply (`arrive 0 1 1` = t=0, w=1).
        let sess = Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
        let log = serve_loop(
            sess,
            Cursor::new("arrive 0 1 1\n".to_string()),
            None,
            true,
            (0, 0.0),
            1024,
        )
        .unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn protocol_lines_validate() {
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let (mut id, mut t) = (0usize, 0.0f64);
        let line =
            |s: &mut FlowSession, id: &mut usize, t: &mut f64, l: &str| handle_line(s, id, t, l);
        assert!(line(&mut sess, &mut id, &mut t, "arrive 0 @1 w=2 3 inf").is_ok());
        assert_eq!((id, t), (1, 1.0));
        // Unknown command, malformed numbers, missing operands.
        assert!(line(&mut sess, &mut id, &mut t, "explode").is_err());
        assert!(line(&mut sess, &mut id, &mut t, "arrive one @2 1 1").is_err());
        assert!(line(&mut sess, &mut id, &mut t, "arrive 1 @x 1 1").is_err());
        assert!(line(&mut sess, &mut id, &mut t, "join").is_err());
        assert!(line(&mut sess, &mut id, &mut t, "advance").is_err());
        // Defaulted capacity time = the last event time.
        assert!(line(&mut sess, &mut id, &mut t, "drain 1").is_ok());
        // Stats renders the wire block.
        match line(&mut sess, &mut id, &mut t, "stats").unwrap() {
            Response::Stats(block) => {
                assert!(block.contains("algo flow"), "{block}");
                assert!(block.contains("arrived 1"), "{block}");
                assert!(block.ends_with("end\n"), "{block}");
            }
            _ => panic!("stats must reply with a block"),
        }
        // Shutdown and comment/blank handling.
        assert!(matches!(
            line(&mut sess, &mut id, &mut t, "shutdown").unwrap(),
            Response::Shutdown
        ));
        assert!(matches!(
            line(&mut sess, &mut id, &mut t, "# note").unwrap(),
            Response::Quiet
        ));
    }

    /// The separator set is ASCII whitespace: a line that separates
    /// tokens with anything else (a no-break space, an ideographic
    /// space, a vertical tab) is refused with an error on the serial
    /// and the coalesced path alike — never accepted as some other row.
    #[test]
    fn non_ascii_separators_are_refused() {
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let (mut id, mut t) = (0usize, 0.0f64);
        for bad in [
            "arrive 0 @1 2\u{a0}3",
            "arrive\u{a0}0 @1 2 3",
            "arrive 0 @1 2 3\u{3000}",
            "arrive 0 @1 2\u{0b}3",
            "advance\u{a0}5",
        ] {
            let err = handle_line(&mut sess, &mut id, &mut t, bad)
                .err()
                .unwrap_or_else(|| panic!("{bad:?} must be refused"));
            assert!(err.contains("bad") || err.contains("unknown"), "{err}");
            assert_eq!((id, t), (0, 0.0), "{bad:?} moved the cursor");
        }
        assert_eq!(sess.snapshot().arrived, 0);

        // The burst coalescer answers the same line with `err` too.
        let mut boxed: Box<dyn ServeSession> =
            Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
        let (tx, rx) = mpsc::channel();
        let burst = vec![
            ("arrive 0 @1 2\u{a0}3".to_string(), Some(tx.clone())),
            ("arrive 0 @1 2 3".to_string(), Some(tx)),
        ];
        process_arrive_batch(boxed.as_mut(), &mut id, &mut t, burst);
        let replies: Vec<String> = rx.try_iter().collect();
        assert!(replies[0].starts_with("err bad size"), "{replies:?}");
        assert_eq!(replies[1], "ok\n");
        assert_eq!((id, t), (1, 1.0));
        assert_eq!(boxed.snapshot().arrived, 1);

        // Every ASCII separator still works: tab, form feed, CR.
        assert!(handle_line(boxed.as_mut(), &mut id, &mut t, "arrive\t1\x0c@2 2\t3\r").is_ok());
        assert_eq!((id, t), (2, 2.0));
    }

    #[test]
    fn offline_lists_parse() {
        assert_eq!(parse_offline("1,3,7").unwrap(), vec![1, 3, 7]);
        assert_eq!(parse_offline(" 2 , 4 ").unwrap(), vec![2, 4]);
        assert!(parse_offline("1,x").is_err());
    }

    #[test]
    fn render_frame_shows_key_stats() {
        let mut map = BTreeMap::new();
        for (k, v) in [
            ("algo", "flow"),
            ("now", "12.5"),
            ("machines", "8"),
            ("online", "7"),
            ("shards", "1"),
            ("arrived", "100"),
            ("queued", "3"),
            ("running", "5"),
            ("completions_pending", "2"),
            ("completed", "88"),
            ("rejected", "4"),
            ("rejected_rule1", "2"),
            ("rejected_ineligible", "1"),
            ("redispatches", "6"),
            ("flow_p50", "1.25"),
            ("flow_p95", "3.5"),
            ("flow_p99", "4.2"),
            ("index_flat", "120"),
            ("index_heap", "5"),
            ("index_heap_evals", "40"),
            ("index_heap_expansions", "12"),
            ("index_live", "7"),
        ] {
            map.insert(k.to_string(), v.to_string());
        }
        let frame = render_frame(&map);
        assert!(frame.contains("flow"), "{frame}");
        assert!(frame.contains("7/8 online"), "{frame}");
        assert!(frame.contains("p95 3.500"), "{frame}");
        assert!(frame.contains("rule-1 2"), "{frame}");
        assert!(frame.contains("flat 120"), "{frame}");
        assert!(frame.contains("heap 5 (40 evals)"), "{frame}");
        assert!(frame.contains("expanded 12"), "{frame}");
        assert!(frame.contains('█'), "{frame}");
        // No load_* keys — no load pane.
        assert!(!frame.contains("load"), "{frame}");
        // Without index keys the frame says the linear scan ran.
        map.remove("index_flat");
        assert!(render_frame(&map).contains("linear scan"), "no-index frame");
    }

    #[test]
    fn load_pane_shows_top_k_machines_deepest_first() {
        let mut map = BTreeMap::new();
        map.insert("algo".to_string(), "flow".to_string());
        for m in 0..12 {
            // Depths 0..11; machine 11 is the deepest.
            map.insert(format!("load_{m}"), m.to_string());
        }
        let frame = render_frame(&map);
        assert!(frame.contains("top 8 of 12 machines"), "{frame}");
        // The deepest machine leads the pane with a full bar.
        let pane: Vec<&str> = frame
            .lines()
            .filter(|l| l.trim_start().starts_with('m'))
            .collect();
        assert_eq!(pane.len(), 8, "{frame}");
        assert!(
            pane[0].contains("m11") && pane[0].contains("████"),
            "{frame}"
        );
        // The shallowest shown is depth 4; depths 0–3 are cut.
        assert!(pane[7].contains("m4"), "{frame}");
        assert!(!frame.contains("m3 "), "{frame}");
    }

    /// End-to-end over a live session: the stats wire block carries one
    /// `load_<machine>` line per machine and `top` parses them.
    #[test]
    fn stats_block_reports_per_machine_loads() {
        let mut sess = FlowSession::new(FlowParams::new(0.5), 3).unwrap();
        sess.arrive(0.0, 1.0, vec![1.0, 5.0, 5.0].into()).unwrap();
        sess.arrive(0.0, 1.0, vec![1.0, 5.0, 5.0].into()).unwrap();
        let block = render_stats(&sess);
        for m in 0..3 {
            assert!(block.contains(&format!("load_{m} ")), "{block}");
        }
        // One job runs, one is pending behind it on the same machine.
        assert!(block.contains("load_0 1"), "{block}");
    }

    /// Past the flat crossover the heap descent answers dense rows, and
    /// the stats block reports how many exact evaluations and internal
    /// node expansions it made.
    #[test]
    fn stats_block_reports_heap_evals() {
        let m = 256;
        let mut sess = FlowSession::new(FlowParams::new(0.5), m).unwrap();
        for k in 0..4 {
            let row: Vec<f64> = (0..m).map(|i| 1.0 + ((i + k) % 5) as f64).collect();
            sess.arrive(k as f64, 1.0, row.into()).unwrap();
        }
        let block = render_stats(&sess);
        let value = |key: &str| -> u64 {
            block
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no {key} in {block}"))
        };
        let (searches, evals) = (value("index_heap"), value("index_heap_evals"));
        assert_eq!(searches, 4, "{block}");
        assert!(evals >= searches && evals < 4 * m as u64, "{block}");
        // Every descent expands at least the root; no descent expands
        // more than the tree's internal nodes.
        let expansions = value("index_heap_expansions");
        assert!(
            expansions >= searches && expansions < 4 * m as u64,
            "{block}"
        );
    }

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(bar(0, 10, 4), "····");
        assert_eq!(bar(10, 10, 4), "████");
        assert_eq!(bar(5, 10, 4), "██··");
        assert_eq!(bar(3, 0, 4), "····");
    }

    #[test]
    fn shed_line_splices_before_the_end_terminator() {
        let sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let block = with_shed_line(render_stats(&sess), 7);
        assert!(block.ends_with("shed_overload 7\nend\n"), "{block}");
        // Exactly one terminator survives the splice.
        assert_eq!(block.matches("end\n").count(), 1, "{block}");
        // And `top` renders the count on the headline row.
        let mut map = BTreeMap::new();
        for line in block.lines() {
            if let Some((k, v)) = line.split_once(' ') {
                map.insert(k.to_string(), v.to_string());
            }
        }
        let frame = render_frame(&map);
        assert!(frame.contains("shed      7"), "{frame}");
    }

    #[test]
    fn backoff_schedule_is_capped_jittered_and_deterministic() {
        for attempt in 0..12 {
            let d = backoff_delay_ms(attempt);
            let base = (100u64 << attempt.min(6)).min(5000);
            assert!(d >= base, "attempt {attempt}: {d} < base {base}");
            assert!(
                d <= base + base / 4,
                "attempt {attempt}: {d} exceeds 25% jitter over {base}"
            );
            assert_eq!(
                d,
                backoff_delay_ms(attempt),
                "schedule must be deterministic"
            );
        }
        // The cap holds forever.
        assert!(backoff_delay_ms(40) <= 5000 + 5000 / 4);
        // Consecutive attempts don't share a jitter phase.
        assert_ne!(
            backoff_delay_ms(6) - 5000,
            backoff_delay_ms(7) - 5000,
            "jitter should vary by attempt"
        );
    }

    /// A failpoint `error` action mid-batch is a graceful shutdown
    /// request: the batch is rejected wholesale (nothing journaled or
    /// applied), `process_arrive_batch` hands the message up, and the
    /// session still finishes cleanly — identical to a run that never
    /// saw the doomed batch.
    #[test]
    fn failpoint_error_in_a_batch_requests_graceful_shutdown() {
        let dir = std::env::temp_dir().join(format!("osr-serve-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("events.journal");
        let _ = std::fs::remove_file(&jpath);
        let fp = osr_core::fingerprint("flow:0.5", 2, &[]);
        let inner = Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
        let mut sess: Box<dyn ServeSession> =
            Box::new(JournaledSession::create(inner, &jpath, fp, 0).unwrap());
        let (mut id, mut t) = (0usize, 0.0f64);

        // First batch lands normally.
        failpoint::disarm();
        let burst = vec![
            ("arrive 0 @0 w=1 2 4".to_string(), None),
            ("arrive 1 @1 w=2 3 1".to_string(), None),
        ];
        assert!(process_arrive_batch(sess.as_mut(), &mut id, &mut t, burst).is_none());
        assert_eq!((id, t), (2, 1.0));

        // Second batch trips the injected error: nothing applies, the
        // cursor stays put, and the shutdown request comes back.
        failpoint::arm("mid-batch:1:error").unwrap();
        let burst = vec![("arrive 2 @2 w=1 1 1".to_string(), None)];
        let msg = process_arrive_batch(sess.as_mut(), &mut id, &mut t, burst)
            .expect("injected failure must request shutdown");
        assert!(failpoint::is_failpoint_error(&msg), "{msg}");
        failpoint::disarm();
        assert_eq!((id, t), (2, 1.0), "doomed batch must not move the cursor");

        // Graceful finish still works and reflects only the first batch.
        let log = sess.finish().unwrap();
        assert_eq!(log.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
