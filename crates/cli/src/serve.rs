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
//! the sparse row a v3 journal writes (O(eligible) bytes). Every event
//! line goes through `osr_core::journal::parse_line`, the journal's own
//! record parser, which documents the grammar and its errors.
//!
//! **Who does what.** Each producer thread (the stdin reader, and one
//! thread per socket connection) reads its input through a 1 MiB
//! buffer, larger than one pipe's default capacity (64 KiB) and a unix
//! socket's default receive buffer, so one `read` takes all the kernel
//! holds; a 65 KB line costs one or two reads, not the eight that an
//! 8 KiB buffer needs. Lines land in one reused byte buffer, and the
//! producer parses each on its own thread: it sends the serve loop
//! `stats`, `shutdown`, or a parsed event line (or a blank or comment
//! line, or the error to reply with), never the line's text. The serve
//! loop only resolves and commits: it gives an omitted `@T` the
//! session's last event time and checks the arrive id against the
//! session cursor, then hands the burst to `ServeSession::apply`, which
//! under `--journal` encodes the records, writes and fsyncs them, and
//! applies the events, all on the loop thread. So parsing, the largest
//! cost of a dense row, runs beside the loop on another core.
//!
//! A line that is not UTF-8 gets `err line is not UTF-8 (bad byte at
//! column N)`, a comment line included, and the producer goes on with
//! the next line; it no longer ends the stream there.
//!
//! Event lines (`arrive`, `join`/`drain`/`crash`, `advance`, and any
//! blank, comment or unparsable lines among them) that are already
//! queued behind one another coalesce into a burst of at most
//! `--ingest-buffer` lines, applied through one `ServeSession::apply`:
//! each run of arrivals is one ingest epoch, and under `--journal` the
//! whole burst is one write and one fsync. `stats` and `shutdown` end a
//! burst. Replies, the cursor and the log do not depend on how lines
//! coalesce.
//!
//! Tokens are separated by runs of **ASCII whitespace** only: space,
//! tab, line feed, form feed and carriage return
//! ([`u8::is_ascii_whitespace`]). Any other character, including
//! Unicode spaces such as U+00A0 or U+3000 and the vertical tab, is
//! part of a token, so a line that uses one as a separator fails to
//! parse and gets an `err` reply; it is never silently accepted as a
//! different row. One byte tokenizer in `osr_core::journal` splits
//! every line, verb included. It walks the line once and takes a run
//! of `inf ` tokens (each followed by one space, as a restricted row
//! writes them) eight bytes at a time, so a 16 384-machine line of
//! almost all `inf` costs about one compare per two machines; any
//! other token takes the plain token path. Every event time is finite
//! (`advance inf`, `@nan` and `@1e309` get `err`), only the literal
//! `inf` means an ineligible machine, and a line with an operand the
//! grammar does not name (`advance 2 9`, `stats extra`, `shutdown
//! now`) gets `err`.
//!
//! `top` is the other side of the socket: it polls `stats` and renders
//! an ANSI frame — queue depths, flow-time percentiles, reject counts
//! by reason, redispatch totals, and dispatch-index stats — with no
//! dependency beyond a VT100 terminal.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write as _};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use osr_core::energyflow::EnergyFlowParams;
use osr_core::flowtime::WeightedFlowParams;
use osr_core::journal::EventLine;
use osr_core::{
    EnergyFlowSession, FlowParams, FlowSession, JournaledSession, ServeSession, WeightedFlowSession,
};
use osr_model::{io as model_io, FinishedLog};
use osr_sim::failpoint;

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

/// Bytes each protocol reader asks the kernel for per `read`. See the
/// module docs.
const READ_BUF_BYTES: usize = 1 << 20;

/// What a producer thread makes of one protocol line.
enum Parsed {
    /// `stats`: the serve loop answers it, and it ends a burst.
    Stats,
    /// `shutdown`: finishes the stream.
    Shutdown,
    /// An event line, parsed but not yet resolved against the session
    /// cursor (`None` for a blank or comment line), or the error to
    /// reply with.
    Event(Result<Option<EventLine>, String>),
}

/// Parses one protocol line (its line end stripped) on the producer
/// thread that read it, through the one event parser
/// ([`osr_core::journal::parse_line`], which documents the grammar and
/// its errors). A line that is not UTF-8 is an error, not the end of
/// the stream.
fn parse_protocol_line(line: &[u8]) -> Parsed {
    let line = match std::str::from_utf8(line) {
        Ok(line) => line,
        Err(e) => {
            return Parsed::Event(Err(format!(
                "line is not UTF-8 (bad byte at column {})",
                e.valid_up_to() + 1
            )))
        }
    };
    match osr_core::journal::split_verb(line) {
        ("", _) => Parsed::Event(Ok(None)),
        (verb, _) if verb.starts_with('#') => Parsed::Event(Ok(None)),
        (verb @ ("stats" | "shutdown"), rest) if !rest.trim_ascii().is_empty() => {
            Parsed::Event(Err(format!("`{verb}` takes no operands")))
        }
        ("stats", _) => Parsed::Stats,
        ("shutdown", _) => Parsed::Shutdown,
        _ => Parsed::Event(osr_core::journal::parse_line(line).map(Some)),
    }
}

/// Reads the protocol lines of one producer (stdin or a socket
/// connection) through a [`READ_BUF_BYTES`] buffer into one reused line
/// buffer, parses each on this thread and hands it to `sink`, until EOF,
/// a read error, or `sink` returns `false`.
fn produce(input: impl Read, mut sink: impl FnMut(Parsed) -> bool) {
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, input);
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        // The line end, `\n` or `\r\n`, as `BufRead::lines` strips it.
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        if !sink(parse_protocol_line(&line)) {
            return;
        }
    }
}

/// Completes a parsed event line against the session cursor `(next_id,
/// last_t)`: an omitted `@T` takes `last_t`, and an arrive id must be
/// `next_id`. The cheap half of parsing, the one that needs the session.
fn resolve(line: &mut EventLine, (next_id, last_t): (usize, f64)) -> Result<(), String> {
    line.resolve(Some(last_t))?;
    match line.id {
        Some(id) if id != next_id => Err(format!(
            "arrive id {id} out of order (expected {next_id}; ids are dense)"
        )),
        _ => Ok(()),
    }
}

/// A parsed event line with the reply channel of its producer (`None`
/// for stdin, whose errors print to stderr instead).
type Pending = (Result<Option<EventLine>, String>, Option<Sender<String>>);

/// Answers one line: `ok` or `err <msg>` to a socket client, errors
/// only (on stderr) for stdin.
fn reply(to: &Option<Sender<String>>, res: Result<(), String>) {
    match (to, res) {
        (Some(tx), res) => {
            let _ = tx.send(res.map_or_else(|e| format!("err {e}\n"), |()| "ok\n".into()));
        }
        (None, Err(e)) => eprintln!("serve: {e}"),
        (None, Ok(())) => {}
    }
}

/// Applies a burst of parsed event lines (blank and comment lines may
/// sit among them), replying per line in order. The burst resolves
/// against the session cursor and goes through **one**
/// [`ServeSession::apply`], so its arrivals land as one ingest epoch and
/// a journaled session commits it under one fsync. If the session
/// rejects a line, the events behind it go back on their lines, which
/// resolve again against the updated cursor and apply one at a time, so
/// no line is parsed twice and every reply, the cursor and the log are
/// what one-line bursts would give.
///
/// Returns `Some(message)` when a failpoint's `error` action fired: the
/// failing line and every line behind it get that error, and the serve
/// loop must shut down gracefully (flush + final log).
fn apply_burst(sess: &mut dyn ServeSession, lines: &mut [Pending]) -> Option<String> {
    let (mut at, mut whole) = (0, true);
    while at < lines.len() {
        let end = if whole { lines.len() } else { at + 1 };
        let mut cursor = sess.cursor();
        let mut events = Vec::new();
        // Per event: its line, relative to `at`, and what it needs to
        // go back on that line.
        let mut owners = Vec::new();
        let mut replies: Vec<Result<(), String>> = lines[at..end]
            .iter_mut()
            .enumerate()
            .map(|(i, (item, _))| {
                let slot = item.as_mut().map_err(|e| e.clone())?;
                let Some(line) = slot.as_mut() else {
                    return Ok(());
                };
                resolve(line, cursor)?;
                let EventLine { id, event, timed } = slot.take().expect("resolved above");
                cursor = (cursor.0 + usize::from(id.is_some()), event.time());
                owners.push((i, id, timed));
                events.push(event);
                Ok(())
            })
            .collect();
        let (answered, injected) = match sess.apply(&mut events) {
            Ok(()) => (replies.len(), None),
            Err((k, e)) => {
                whole = false;
                // The events never attempted go back on their lines, to
                // resolve again against the cursor the rejection left.
                for (&(i, id, timed), event) in owners[k + 1..].iter().zip(events.drain(..)) {
                    lines[at + i].0 = Ok(Some(EventLine { id, event, timed }));
                }
                let injected = failpoint::is_failpoint_error(&e).then(|| e.clone());
                replies[owners[k].0] = Err(e);
                (owners[k].0 + 1, injected)
            }
        };
        for ((_, to), res) in lines[at..].iter().zip(replies.drain(..answered)) {
            reply(to, res);
        }
        at += answered;
        if let Some(e) = injected {
            for (_, to) in &lines[at..] {
                reply(to, Err(e.clone()));
            }
            return Some(e);
        }
    }
    None
}

/// Collects one burst: `first` plus the event lines already queued
/// behind it, at most `cap` lines in all. A control line or the end of
/// stdin ends the burst and is parked for the serve loop.
fn collect_burst(
    first: Pending,
    rx: &Receiver<Inbound>,
    cap: usize,
    parked: &mut Option<Inbound>,
) -> Vec<Pending> {
    let mut burst = vec![first];
    while burst.len() < cap {
        match rx.try_recv() {
            Ok(Inbound::Line(Parsed::Event(item), to)) => burst.push((item, to)),
            Ok(other) => {
                *parked = Some(other);
                break;
            }
            Err(_) => break,
        }
    }
    burst
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
    /// A parsed protocol line, with a reply channel for socket clients
    /// (`None` for stdin — its errors and stats print to stderr
    /// instead).
    Line(Parsed, Option<Sender<String>>),
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
    produce(read_half, |parsed| {
        let (rtx, rrx) = mpsc::channel::<String>();
        let reply = match tx.try_send(Inbound::Line(parsed, Some(rtx))) {
            Ok(()) => match rrx.recv() {
                Ok(reply) => reply,
                Err(_) => return false,
            },
            Err(mpsc::TrySendError::Full(_)) => {
                shed.fetch_add(1, Ordering::Relaxed);
                "err overloaded\n".into()
            }
            Err(mpsc::TrySendError::Disconnected(_)) => return false, // server shut down
        };
        writer.write_all(reply.as_bytes()).is_ok()
    });
}

/// The serve event loop: merges producer streams (an owned reader
/// standing in for stdin, plus socket connections), applies each line
/// to the session in arrival order, and finishes the log when the
/// stream ends — via `shutdown`, or at reader EOF when `once` is set
/// or no socket keeps the server reachable.
///
/// Event lines already queued behind one another coalesce into bursts
/// of at most `buffer` lines ([`apply_burst`]); `buffer` also bounds the
/// producer→consumer channel: stdin blocks when it is full
/// (backpressure), socket lines are shed with `err overloaded`. The
/// stream cursor (the expected job id and the default `@T`) is the
/// session's own, so a recovered session resumes where its journal
/// ended.
///
/// A failpoint `error` action anywhere in line handling is a graceful
/// shutdown request: the loop stops ingesting and finishes exactly as
/// `shutdown` would, so the journal is flushed and the final log still
/// comes out.
fn serve_loop<R: Read + Send + 'static>(
    mut sess: Box<dyn ServeSession>,
    input: R,
    socket: Option<&Path>,
    once: bool,
    buffer: usize,
) -> Result<FinishedLog, String> {
    let (tx, rx) = mpsc::sync_channel::<Inbound>(buffer.max(1));
    let shed = Arc::new(AtomicU64::new(0));

    let stdin_tx = tx.clone();
    std::thread::spawn(move || {
        // Blocking send on the bounded channel: stdin producers are
        // backpressured, never shed.
        produce(input, |parsed| {
            stdin_tx.send(Inbound::Line(parsed, None)).is_ok()
        });
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
    // A line that ended a burst waits here for the next turn.
    let mut parked: Option<Inbound> = None;
    loop {
        let msg = match parked.take() {
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
            Inbound::Line(Parsed::Stats, to) => {
                let block =
                    with_shed_line(render_stats(sess.as_ref()), shed.load(Ordering::Relaxed));
                match to {
                    Some(tx) => {
                        let _ = tx.send(block);
                    }
                    None => eprint!("{block}"),
                }
            }
            Inbound::Line(Parsed::Shutdown, to) => {
                reply(&to, Ok(()));
                break;
            }
            Inbound::Line(Parsed::Event(item), to) => {
                let mut burst = collect_burst((item, to), &rx, buffer, &mut parked);
                if let Some(e) = apply_burst(sess.as_mut(), &mut burst) {
                    eprintln!("serve: {e}; shutting down gracefully");
                    break;
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
                    js.cursor().0,
                    js.cursor().1
                );
                Box::new(js)
            } else {
                Box::new(JournaledSession::create(sess, path, fp, snap_every)?)
            }
        }
        None => sess,
    };
    let log = serve_loop(sess, std::io::stdin(), socket.as_deref(), once, buffer)?;
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
    use osr_core::{Event, FlowScheduler};
    use osr_model::{Instance, InstanceKind, Job};
    use osr_sim::{CapacityChange, CapacityEvent, CapacityPlan};
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
        let log = serve_loop(sess, Cursor::new(script.to_string()), None, false, 1024).unwrap();
        assert_eq!(
            model_io::log_to_string(&offline.log),
            model_io::log_to_string(&log)
        );
    }

    /// What a producer makes of the event line `line`.
    fn event(line: &str) -> Result<Option<EventLine>, String> {
        match parse_protocol_line(line.as_bytes()) {
            Parsed::Event(item) => item,
            _ => panic!("{line:?} is a control line"),
        }
    }

    /// Runs `bursts` of lines through [`apply_burst`], returning every
    /// reply in order.
    fn run_bursts<'a>(
        sess: &mut dyn ServeSession,
        bursts: impl IntoIterator<Item = &'a [&'a str]>,
    ) -> Vec<String> {
        let (tx, rx) = mpsc::channel();
        for burst in bursts {
            let mut lines: Vec<Pending> =
                burst.iter().map(|l| (event(l), Some(tx.clone()))).collect();
            assert!(apply_burst(sess, &mut lines).is_none());
        }
        drop(tx);
        rx.try_iter().collect()
    }

    /// Deterministic maximal coalescing: one burst holding the whole
    /// script (what `serve_loop` converges to when producers outpace
    /// ingest) against one-line bursts — replies, cursors and final
    /// logs must be identical, bad lines included. The script mixes
    /// capacity and advance lines into the arrivals, with lines the
    /// parser refuses and lines the session rejects after parsing.
    /// Lines behind a rejected one (omitted `@T`, stale ids) resolve
    /// again against the cursor the rejection left, and two producers
    /// interleaved in one burst each get their own replies in order.
    #[test]
    fn coalesced_arrive_bursts_match_serial_lines() {
        let script = [
            "arrive 0 @0 w=1 2 4",
            "arrive 1 @1 w=2 3 1",
            "arrive 7 @1.5 w=1 1 1", // out-of-order id: refused either way
            "drain 0 @1.5",
            "arrive 2 @2.5 w=1 inf inf",
            "# a comment",
            "arrive 3 @x 1 1", // malformed release: refused either way
            "drain 5 @2.6",    // machine out of range: session-level reject
            "drain 1 @3",
            "advance 3.5",
            "join 0",
            "arrive 3 @4 w=1 1.5 2.5",
            "arrive 4 @3 w=1 1 1", // time regression: session-level reject
            "join 1 @4.5",
            "arrive 4 @5 w=1 2 2",
            "arrive 5 @5 w=1 m=3 0:1", // wrong width: session-level reject
            "arrive 5 m=2 1:1.5",      // defaulted @T, after a reject
            "advance 9",
        ];
        let mut serial = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let one_line = run_bursts(&mut serial, script.iter().map(std::slice::from_ref));
        let mut batched = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let maximal = run_bursts(&mut batched, [&script[..]]);

        assert_eq!(one_line, maximal);
        let errs = maximal.iter().filter(|r| r.starts_with("err ")).count();
        assert_eq!((maximal.len(), errs), (script.len(), 5), "{maximal:?}");
        assert_eq!(serial.cursor(), (6, 9.0));
        assert_eq!(serial.cursor(), batched.cursor(), "stream cursors diverged");
        assert_eq!(
            model_io::log_to_string(&Box::new(serial).finish().unwrap()),
            model_io::log_to_string(&Box::new(batched).finish().unwrap()),
        );

        // A line behind one the session rejects resolves against the
        // cursor the rejection left, not against the guess that the
        // rejected line would land.
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let burst = ["arrive 0 @1 m=3 0:1", "arrive 0 @1 m=2 1:1.5"];
        let replies = run_bursts(&mut sess, [&burst[..]]);
        assert!(replies[0].starts_with("err "), "{replies:?}");
        assert_eq!(replies[1], "ok\n");
        assert_eq!(sess.cursor(), (1, 1.0));

        // The re-resolve path: behind a line the session rejects come
        // arrive and capacity lines that omit `@T` (their default is the
        // time the rejection left, not the rejected line's) and lines
        // whose ids are stale under one guess or the other. The lines
        // are parsed once; only their resolution is redone.
        let script = [
            "arrive 0 @1 w=1 2 4",
            "arrive 1 @2 w=1 m=3 0:1", // wrong width: session-level reject
            "arrive 1 w=1 1 1",        // stale if line 1 had landed
            "drain 1",
            "arrive 2 w=2 m=2 0:1.5",
            "arrive 2 @3 1 1", // stale id
            "join 1",
            "arrive 3 @0.5 1 1", // time regression: session-level reject
            "arrive 3 @4 3 3",
            "arrive 3 2 2", // stale id, defaulted time
            "advance 6",
            "crash 0",
            "arrive 4 1 1",
        ];
        // The same stream with every default written out: t = 1 behind
        // the rejected line, not its 2.
        let explicit = [
            "arrive 0 @1 w=1 2 4",
            "arrive 1 @2 w=1 m=3 0:1",
            "arrive 1 @1 w=1 1 1",
            "drain 1 @1",
            "arrive 2 @1 w=2 m=2 0:1.5",
            "arrive 2 @3 1 1",
            "join 1 @1",
            "arrive 3 @0.5 1 1",
            "arrive 3 @4 3 3",
            "arrive 3 @4 2 2",
            "advance 6",
            "crash 0 @6",
            "arrive 4 @6 1 1",
        ];
        let mut serial = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let one_line = run_bursts(&mut serial, script.iter().map(std::slice::from_ref));
        let mut batched = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let maximal = run_bursts(&mut batched, [&script[..]]);
        let mut spelled = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let spelled_out = run_bursts(&mut spelled, explicit.iter().map(std::slice::from_ref));

        assert_eq!(one_line, maximal);
        assert_eq!(one_line, spelled_out);
        let errs: Vec<usize> = (0..script.len())
            .filter(|&i| maximal[i].starts_with("err "))
            .collect();
        assert_eq!(errs, [1, 5, 7, 9], "{maximal:?}");
        assert_eq!(serial.cursor(), (5, 6.0));
        assert_eq!(serial.cursor(), batched.cursor(), "stream cursors diverged");
        let logs: Vec<String> = [serial, batched, spelled]
            .into_iter()
            .map(|s| model_io::log_to_string(&Box::new(s).finish().unwrap()))
            .collect();
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);

        // The script fed as stdin and socket lines together (what the
        // serve loop collects from both producers into one burst): each
        // producer gets its replies on its own channel, in its own
        // order, and they are the replies one-line bursts give.
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let (stdin_tx, stdin_rx) = mpsc::channel();
        let (sock_tx, sock_rx) = mpsc::channel();
        // Stdin sends the even lines, the socket the odd ones.
        let mut burst: Vec<Pending> = script
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let to = if i % 2 == 0 { &stdin_tx } else { &sock_tx };
                (event(l), Some(to.clone()))
            })
            .collect();
        assert!(apply_burst(&mut sess, &mut burst).is_none());
        drop((stdin_tx, sock_tx, burst));
        let producer = |parity: usize| -> Vec<String> {
            one_line.iter().skip(parity).step_by(2).cloned().collect()
        };
        assert_eq!(stdin_rx.try_iter().collect::<Vec<_>>(), producer(0));
        assert_eq!(sock_rx.try_iter().collect::<Vec<_>>(), producer(1));
        assert_eq!(sess.cursor(), (5, 6.0));
    }

    /// A burst holds at most `cap` lines, and a control line or the end
    /// of stdin ends it and is parked for the loop.
    #[test]
    fn bursts_stop_at_the_cap_and_at_control_lines() {
        let (tx, rx) = mpsc::sync_channel::<Inbound>(16);
        let send = |line: &str| {
            tx.send(Inbound::Line(parse_protocol_line(line.as_bytes()), None))
                .unwrap()
        };
        for k in 0..=5 {
            send(&format!("arrive {k} @{k} 1"));
        }
        for line in ["stats", "advance 9", "advance 10"] {
            send(line);
        }
        tx.send(Inbound::Eof).unwrap();
        // What the serve loop does: take one line, collect behind it.
        // Each line is named by its event time.
        let mut parked = None;
        let burst = |cap: usize, parked: &mut Option<Inbound>| -> Vec<f64> {
            let Ok(Inbound::Line(Parsed::Event(item), to)) = rx.recv() else {
                panic!("an event line is queued");
            };
            let burst = collect_burst((item, to), &rx, cap, parked);
            burst
                .into_iter()
                .map(|(item, _)| item.unwrap().unwrap().event.time())
                .collect()
        };
        assert_eq!(burst(4, &mut parked), [0.0, 1.0, 2.0, 3.0]);
        assert!(parked.is_none(), "a full burst parks nothing");
        assert_eq!(burst(4, &mut parked), [4.0, 5.0]);
        assert!(matches!(
            parked.take(),
            Some(Inbound::Line(Parsed::Stats, _))
        ));
        assert_eq!(burst(1, &mut parked), [9.0]);
        assert!(parked.is_none());
        assert_eq!(burst(4, &mut parked), [10.0]);
        assert!(matches!(parked, Some(Inbound::Eof)));
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
        let log = serve_loop(sess, Cursor::new(script), None, true, 1024).unwrap();
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
        let arrives = script.lines().filter(|l| l.starts_with("arrive "));
        for line in arrives {
            let Event::Arrive(a) = osr_core::journal::parse_line(line).unwrap().event else {
                panic!("not an arrival: {line}");
            };
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
                let log =
                    serve_loop(sess, Cursor::new(script.to_string()), None, once, 1024).unwrap();
                model_io::log_to_string(&log)
            })
            .collect();
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
        assert_eq!(model_io::log_from_str(&logs[0]).unwrap().len(), 5);
    }

    /// Malformed sparse rows get an error reply (never a panic) and
    /// leave the stream cursor and the session untouched, so the valid
    /// line behind one in the same burst still lands.
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
            let replies = run_bursts(&mut sess, [&[line][..]]);
            assert!(replies[0].starts_with("err "), "{line}: {replies:?}");
            assert_eq!(sess.cursor(), (0, 0.0), "{line}");
            assert_eq!(sess.snapshot().arrived, 0, "{line}");

            let burst = [line, "arrive 0 @1 m=2 1:1.5"];
            let replies = run_bursts(&mut sess, [&burst[..]]);
            assert!(replies[0].starts_with("err "), "{line}: {replies:?}");
            assert_eq!(replies[1], "ok\n", "{line}");
            assert_eq!(sess.cursor(), (1, 1.0), "{line}");
        }
    }

    /// A line that is not UTF-8 is answered with an error and the
    /// lines behind it are still read; it used to end the stream there,
    /// silently.
    #[test]
    fn non_utf8_lines_are_errors_not_the_end_of_the_stream() {
        let Parsed::Event(Err(e)) = parse_protocol_line(b"# caf\xe9 comment") else {
            panic!("a line that is not UTF-8 must be an error");
        };
        assert_eq!(e, "line is not UTF-8 (bad byte at column 6)");
        let script = b"arrive 0 @0 w=1 2 4\n# caf\xe9 comment\narrive 1 @1 w=1 \xff 1\r\n\
                       arrive 1 @1 w=1 3 1\n\xc3\n\narrive 2 @2 1 1";
        let sess = Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
        let log = serve_loop(sess, Cursor::new(script.to_vec()), None, true, 1024).unwrap();
        assert_eq!(log.len(), 3);
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let replies = run_bursts(&mut sess, [&["arrive 0 @0 1 1", "stats extra"][..]]);
        assert_eq!(replies, ["ok\n", "err `stats` takes no operands\n"]);
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
            1024,
        )
        .unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn protocol_lines_validate() {
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let mut line = |l: &str| run_bursts(&mut sess, [&[l][..]]).remove(0);
        assert_eq!(line("arrive 0 @1 w=2 3 inf"), "ok\n");
        // Unknown command, malformed numbers, missing operands.
        for bad in [
            "explode",
            "arrive one @2 1 1",
            "arrive 1 @x 1 1",
            "join",
            "join x",
            "advance",
            "advance @soon",
        ] {
            assert!(line(bad).starts_with("err "), "{bad}");
        }
        // Defaulted capacity time = the last event time; comments and
        // blank lines are quiet.
        assert_eq!(line("drain 1"), "ok\n");
        assert_eq!(line("# note"), "ok\n");
        assert_eq!(line(""), "ok\n");
        assert_eq!(sess.cursor(), (1, 1.0));
        // Stats renders the wire block.
        let block = render_stats(&sess);
        assert!(block.contains("algo flow"), "{block}");
        assert!(block.contains("arrived 1"), "{block}");
        assert!(block.ends_with("end\n"), "{block}");
        assert!(matches!(parse_protocol_line(b"stats"), Parsed::Stats));
        assert!(matches!(
            parse_protocol_line(b" shutdown\t"),
            Parsed::Shutdown
        ));
        assert!(matches!(
            parse_protocol_line(b"shutdown now"),
            Parsed::Event(Err(_))
        ));
        assert!(matches!(
            parse_protocol_line(b"advance 3"),
            Parsed::Event(Ok(Some(_)))
        ));

        // Operands the grammar does not name are errors, and so are
        // event times that are not finite (which used to move the clock
        // to +∞ and brick every later event). None of them moves the
        // cursor, and the stream stays usable.
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        let mut line = |l: &str| run_bursts(&mut sess, [&[l][..]]).remove(0);
        assert_eq!(line("arrive 0 @1 w=2 3 inf"), "ok\n");
        for bad in [
            "drain 1 @1.5 junk",
            "advance 2 9",
            "advance @inf",
            "advance inf",
            "advance nan",
            "advance 1e309",
            "drain 0 @inf",
            "join 1 @NaN",
            "arrive 1 @inf w=1 1 1",
            "arrive 1 @nan w=1 1 1",
            "arrive 1 @2 w=1 1e309 2",
            "arrive 1 @2 w=1 infinity 2",
            "arrive 1 @2 w=1 NaN 2",
        ] {
            let reply = line(bad);
            assert!(reply.starts_with("err "), "{bad}: {reply}");
        }
        assert_eq!(line("advance 2"), "ok\n");
        assert_eq!(line("arrive 1 @3 w=1 1 1"), "ok\n");
        assert_eq!(sess.cursor(), (2, 3.0));

        // `stats extra` and `shutdown now` are refused by the serve loop
        // (see `serve_socket_feeds_stats_and_top_renders` for the `err`
        // replies): neither ends the stream, so both arrivals land.
        let script = "arrive 0 @0 w=1 1 1\nstats extra\nshutdown now\narrive 1 @1 w=1 1 1\n";
        let sess = Box::new(FlowSession::new(FlowParams::new(0.5), 2).unwrap());
        let log = serve_loop(sess, Cursor::new(script.to_string()), None, true, 1024).unwrap();
        assert_eq!(log.len(), 2);
    }

    /// The separator set is ASCII whitespace: a line that separates
    /// tokens with anything else (a no-break space, an ideographic
    /// space, a vertical tab) is refused with an error, alone or inside
    /// a burst — never accepted as some other row.
    #[test]
    fn non_ascii_separators_are_refused() {
        let mut sess = FlowSession::new(FlowParams::new(0.5), 2).unwrap();
        for bad in [
            "arrive 0 @1 2\u{a0}3",
            "arrive\u{a0}0 @1 2 3",
            "arrive 0 @1 2 3\u{3000}",
            "arrive 0 @1 2\u{0b}3",
            "advance\u{a0}5",
        ] {
            let err = event(bad)
                .err()
                .unwrap_or_else(|| panic!("{bad:?} must be refused"));
            assert!(err.contains("bad") || err.contains("unknown"), "{err}");
            let replies = run_bursts(&mut sess, [&[bad][..]]);
            assert!(replies[0].starts_with("err "), "{replies:?}");
            assert_eq!(sess.cursor(), (0, 0.0), "{bad:?} moved the cursor");
        }
        assert_eq!(sess.snapshot().arrived, 0);

        let burst = ["arrive 0 @1 2\u{a0}3", "arrive 0 @1 2 3"];
        let replies = run_bursts(&mut sess, [&burst[..]]);
        assert!(replies[0].starts_with("err bad size"), "{replies:?}");
        assert_eq!(replies[1], "ok\n");
        assert_eq!(sess.cursor(), (1, 1.0));

        // Every ASCII separator still works: tab, form feed, CR.
        let replies = run_bursts(&mut sess, [&["arrive\t1\x0c@2 2\t3\r"][..]]);
        assert_eq!(replies, ["ok\n"]);
        assert_eq!(sess.cursor(), (2, 2.0));
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
    /// request: the burst is rejected wholesale (nothing journaled or
    /// applied), `apply_burst` hands the message up, and the session
    /// still finishes cleanly — identical to a run that never saw the
    /// doomed burst.
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
        let burst =
            |lines: &[&str]| -> Vec<Pending> { lines.iter().map(|l| (event(l), None)).collect() };

        // First burst lands normally.
        failpoint::disarm();
        let mut first = burst(&["arrive 0 @0 w=1 2 4", "drain 1 @0.5", "arrive 1 @1 w=2 3 1"]);
        assert!(apply_burst(sess.as_mut(), &mut first).is_none());
        assert_eq!(sess.cursor(), (2, 1.0));

        // Second burst trips the injected error: nothing applies, the
        // cursor stays put, and the shutdown request comes back.
        failpoint::arm("mid-batch:1:error").unwrap();
        let msg = apply_burst(
            sess.as_mut(),
            &mut burst(&["join 1 @2", "arrive 2 @2 w=1 1 1"]),
        )
        .expect("injected failure must request shutdown");
        assert!(failpoint::is_failpoint_error(&msg), "{msg}");
        failpoint::disarm();
        assert_eq!(
            sess.cursor(),
            (2, 1.0),
            "doomed burst must not move the cursor"
        );

        // Graceful finish still works and reflects only the first burst.
        let log = sess.finish().unwrap();
        assert_eq!(log.len(), 2);
        let text = std::fs::read_to_string(&jpath).unwrap();
        assert_eq!(text.lines().count(), 4, "header and the first burst only");
        std::fs::remove_dir_all(&dir).ok();
    }
}
