//! Drives the real `osr serve` binary through one round: restart on a
//! journal, decide over the socket, replay over stdin.
//!
//! The client is this thread plus one stderr reader per server, so it
//! never uses more than two threads. Every operation it sends is
//! counted: socket lines, stdin lines and the journal records the
//! restart replays. Failures are `err` replies, `serve:` lines on the
//! server's stderr other than the recovery notice, and rejected
//! replays the notice reports.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::host;
use crate::workload::Inputs;

/// The fixed file names of a round, relative to the work directory.
pub const JOURNAL: &str = "round.journal";
pub const SOCKET: &str = "round.sock";
pub const PREFIX_JOURNAL: &str = "prefix.journal";

/// Give up on a server that has not answered in this long.
const PATIENCE: Duration = Duration::from_secs(60);

/// What one round measured and counted.
#[derive(Debug, Clone)]
pub struct Round {
    pub setup_s: f64,
    /// Round trip of each decide-phase `arrive` line, in microseconds,
    /// ascending.
    pub decide_us: Vec<f64>,
    /// First stdin byte to last byte of the finished log.
    pub replay_s: f64,
    pub replay_arrivals: usize,
    pub log: String,
    pub rss_kib: i64,
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

struct Server {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    fn spawn(osr: &Path, inputs: &Inputs) -> Result<Server, String> {
        let mut cmd = serve_command(osr, inputs);
        cmd.args([
            "--journal",
            JOURNAL,
            "--recover",
            "--socket",
            SOCKET,
            "--once",
        ]);
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", osr.display()))?;
        let err = child.stderr.take().expect("stderr is piped");
        let stderr =
            std::thread::spawn(move || BufReader::new(err).lines().map_while(Result::ok).collect());
        Ok(Server {
            child,
            stderr: Some(stderr),
        })
    }

    /// Reaps the server and collects its stderr lines.
    fn reap(mut self) -> Result<(host::Reaped, Vec<String>), String> {
        drop(self.child.stdin.take());
        let reaped = host::reap(self.child.id())?;
        let lines = self
            .stderr
            .take()
            .expect("joined once")
            .join()
            .map_err(|_| "stderr reader panicked".to_string())?;
        Ok((reaped, lines))
    }

    /// Kills and reaps a server that must not outlive an error.
    fn abort(mut self) {
        let _ = self.child.kill();
        let _ = self.reap();
    }
}

/// Sends one line and reads the reply up to `end` (stats) or one line.
fn request(
    writer: &mut UnixStream,
    reader: &mut BufReader<UnixStream>,
    line: &str,
    block: bool,
) -> Result<String, String> {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| format!("socket write: {e}"))?;
    let mut reply = String::new();
    loop {
        let start = reply.len();
        let got = reader
            .read_line(&mut reply)
            .map_err(|e| format!("socket read: {e}"))?;
        if got == 0 {
            return Err(format!("server closed the socket after `{line}`"));
        }
        if !block || &reply[start..] == "end\n" {
            return Ok(reply);
        }
    }
}

/// Polls the socket until the restarted server binds it.
fn connect(server: &mut Server, started: Instant) -> Result<UnixStream, String> {
    loop {
        if let Ok(s) = UnixStream::connect(SOCKET) {
            return Ok(s);
        }
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("server exited during restart ({status})"));
        }
        if started.elapsed() > PATIENCE {
            return Err("server did not bind its socket".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The journal records, rejected replays and other `serve:` lines on
/// the server's stderr.
fn tally_stderr(lines: &[String]) -> Result<(u64, u64, u64), String> {
    let mut replayed = None;
    let mut rejected = 0;
    let mut other = 0;
    for line in lines {
        if let Some(rest) = line.strip_prefix("serve: recovered ") {
            let num = |after: &str| -> Option<u64> {
                let at = rest.find(after)? + after.len();
                rest[at..]
                    .split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            };
            replayed = rest.split(' ').next().and_then(|t| t.parse::<u64>().ok());
            let unreadable = || format!("unreadable recovery notice `{line}`");
            // Torn records dropped and rejected replays both count as failed.
            rejected =
                num(" (").ok_or_else(unreadable)? + num("dropped, ").ok_or_else(unreadable)?;
        } else if line.starts_with("serve:") {
            eprintln!("servebench: server said: {line}");
            other += 1;
        }
    }
    let replayed = replayed.ok_or("the server printed no recovery notice")?;
    Ok((replayed, rejected, other))
}

/// `osr serve` for the workload's scheduler and pool.
fn serve_command(osr: &Path, inputs: &Inputs) -> Command {
    let mut cmd = Command::new(osr);
    cmd.args(["serve", "--algo", &inputs.spec, "--machines"])
        .arg(inputs.machines.to_string());
    if !inputs.offline.is_empty() {
        let list: Vec<String> = inputs.offline.iter().map(ToString::to_string).collect();
        cmd.args(["--offline", &list.join(",")]);
    }
    cmd
}

/// Copies the pristine prefix journal (and its snapshot sidecar) to
/// `journal`, so every restart recovers the same bytes.
pub fn restore_journal(journal: &str) -> Result<(), String> {
    for (from, to) in [
        (PREFIX_JOURNAL.to_string(), journal.to_string()),
        (format!("{PREFIX_JOURNAL}.snap"), format!("{journal}.snap")),
    ] {
        std::fs::copy(&from, &to).map_err(|e| format!("copying {from}: {e}"))?;
        // Flush the copy now, so its writeback does not land inside the
        // round's first fsyncs.
        std::fs::File::open(&to)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("syncing {to}: {e}"))?;
    }
    Ok(())
}

/// Writes the prefix journal with the real server: the prefix lines go
/// to `osr serve --journal` on stdin, which journals them and exits.
pub fn write_prefix(osr: &Path, inputs: &Inputs) -> Result<(), String> {
    for f in [PREFIX_JOURNAL.to_string(), format!("{PREFIX_JOURNAL}.snap")] {
        let _ = std::fs::remove_file(f);
    }
    let mut child = serve_command(osr, inputs)
        .args(["--journal", PREFIX_JOURNAL, "--once"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", osr.display()))?;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let written = stdin.write_all(inputs.segment(0).as_bytes());
    drop(stdin);
    let out = child
        .wait_with_output()
        .map_err(|e| format!("prefix server: {e}"))?;
    written.map_err(|e| format!("writing the prefix: {e}"))?;
    let errors = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() || !errors.trim().is_empty() {
        return Err(format!("prefix server failed ({}): {errors}", out.status));
    }
    Ok(())
}

/// Runs one round against a fresh server process.
pub fn round(osr: &Path, inputs: &Inputs) -> Result<Round, String> {
    restore_journal(JOURNAL)?;
    let _ = std::fs::remove_file(SOCKET);
    let started = Instant::now();
    let mut server = Server::spawn(osr, inputs)?;
    match drive(&mut server, inputs, started) {
        Ok(partial) => finish(server, partial),
        Err(e) => {
            server.abort();
            Err(e)
        }
    }
}

/// Socket and stdin phases; the server is reaped by the caller.
fn drive(server: &mut Server, inputs: &Inputs, started: Instant) -> Result<Round, String> {
    let sock = connect(server, started)?;
    let mut reader = BufReader::new(sock.try_clone().map_err(|e| e.to_string())?);
    let mut writer = sock;
    let stats = request(&mut writer, &mut reader, "stats", true)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut attempted = 1u64;
    let mut failed = u64::from(!stats.starts_with("algo "));

    let mut decide_us = Vec::with_capacity(inputs.arrivals[1]);
    for line in inputs.segment(1).lines() {
        let t0 = Instant::now();
        let reply = request(&mut writer, &mut reader, line, false)?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        attempted += 1;
        if reply != "ok\n" {
            eprintln!(
                "servebench: `{}…` got {}",
                &line[..line.len().min(40)],
                reply.trim_end()
            );
            failed += 1;
        } else if line.starts_with("arrive ") {
            decide_us.push(us);
        }
    }
    drop((reader, writer));
    decide_us.sort_by(f64::total_cmp);

    let replay = inputs.segment(2);
    let mut stdin = server.child.stdin.take().expect("stdin is piped");
    let mut stdout = server.child.stdout.take().expect("stdout is piped");
    let t0 = Instant::now();
    stdin
        .write_all(replay.as_bytes())
        .map_err(|e| format!("writing the replay: {e}"))?;
    drop(stdin);
    let log = read_log(&mut stdout)?;
    let replay_s = t0.elapsed().as_secs_f64();
    let mut rest = Vec::new();
    stdout
        .read_to_end(&mut rest)
        .map_err(|e| format!("reading stdout: {e}"))?;
    if !rest.is_empty() {
        return Err("server printed more than the finished log".into());
    }
    attempted += inputs.lines[2] as u64;
    Ok(Round {
        setup_s,
        decide_us,
        replay_s,
        replay_arrivals: inputs.arrivals[2],
        log,
        rss_kib: 0,
        cpu_s: 0.0,
        attempted,
        failed,
    })
}

/// Reads stdout up to the last line of the log its header announces.
fn read_log(stdout: &mut impl std::io::Read) -> Result<String, String> {
    let mut buf = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 1 << 16];
    let mut want: Option<usize> = None;
    let mut newlines = 0usize;
    loop {
        let got = stdout
            .read(&mut chunk)
            .map_err(|e| format!("reading stdout: {e}"))?;
        if got == 0 {
            return Err(format!(
                "stdout ended after {} bytes, before the finished log",
                buf.len()
            ));
        }
        newlines += chunk[..got].iter().filter(|&&b| b == b'\n').count();
        buf.extend_from_slice(&chunk[..got]);
        if want.is_none() && newlines > 0 {
            let header_end = buf
                .iter()
                .position(|&b| b == b'\n')
                .expect("a newline was counted");
            let header = String::from_utf8_lossy(&buf[..header_end]);
            let n = header
                .split_whitespace()
                .find_map(|t| t.strip_prefix("n="))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| format!("stdout does not start with a log header: `{header}`"))?;
            want = Some(n + 1);
        }
        if want.is_some_and(|w| newlines >= w) {
            return String::from_utf8(buf).map_err(|_| "log is not UTF-8".to_string());
        }
    }
}

fn finish(server: Server, mut round: Round) -> Result<Round, String> {
    let (reaped, lines) = server.reap()?;
    if reaped.code != Some(0) {
        return Err(format!(
            "server ended with {:?}: {}",
            reaped.code,
            lines.join(" | ")
        ));
    }
    let (replayed, rejected, other) = tally_stderr(&lines)?;
    round.attempted += replayed;
    round.failed += rejected + other;
    round.rss_kib = reaped.maxrss_kib;
    round.cpu_s = reaped.cpu_s;
    Ok(round)
}
