//! End-to-end tests of `osr serve` / `osr top` against the real
//! binary: a trace replayed through the streaming ingest loop must
//! produce a log byte-identical to the offline `osr run` on the same
//! instance, for all three schedulers; the ops surfaces (socket stats,
//! `top` frames) must render; and informational notices must land on
//! stderr, never stdout.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn osr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_osr"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osr-serve-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `osr` with the given whitespace-split arguments, asserting
/// success, and returns (stdout, stderr).
fn run_ok(args: &str) -> (String, String) {
    let out = osr()
        .args(args.split_whitespace())
        .output()
        .expect("spawn osr");
    assert!(
        out.status.success(),
        "osr {args} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// Pipes `script` into `osr serve`, returning the raw process output
/// without asserting on the exit status (the kill-recover tests expect
/// the injected death, exit code 17).
fn serve_raw(args: &str, script: impl AsRef<[u8]>) -> std::process::Output {
    let mut child = osr()
        .args(args.split_whitespace())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn osr serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_ref())
        .unwrap();
    child.wait_with_output().unwrap()
}

/// Pipes `script` into `osr serve --once`, returning stdout bytes.
fn serve_once(args: &str, script: &str) -> String {
    let out = serve_raw(args, script);
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Generates the shared churn fixture: a 90-job instance over 5
/// machines with a join/drain/crash capacity plan (some machines start
/// offline), rendered to a serve script. Returns the fixture directory
/// (holding `inst.csv` / `failures.csv` for [`offline_oracle`]), the
/// script text, and the `--offline` flag the serve runs need.
fn churn_fixture(tag: &str) -> (PathBuf, String, String) {
    let dir = tmpdir(tag);
    run_ok(&format!(
        "gen --scenario poisson-uniform-restricted-churn:0.6 --n 90 --machines 5 --seed 11 \
         --out {} --capacity-out {}",
        dir.join("inst.csv").display(),
        dir.join("failures.csv").display()
    ));
    let inst = osr_model::io::instance_from_str(&fs::read_to_string(dir.join("inst.csv")).unwrap())
        .unwrap();
    let plan =
        osr_workload::parse_failure_trace(&fs::read_to_string(dir.join("failures.csv")).unwrap())
            .unwrap();
    let (script, offline) = osr_workload::serve_script(&inst, &plan).unwrap();
    let offline_flag = if offline.is_empty() {
        String::new()
    } else {
        format!(
            "--offline {}",
            offline
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    (dir, script, offline_flag)
}

/// The offline `osr run` log for `algo` over the fixture in `dir` —
/// the byte-identity oracle every serve/recover run is diffed against.
fn offline_oracle(dir: &std::path::Path, algo: &str) -> String {
    let log_path = dir.join(format!("off-{}.csv", algo.replace(':', "-")));
    run_ok(&format!(
        "run --algo {algo} --input {} --capacity {} --log {}",
        dir.join("inst.csv").display(),
        dir.join("failures.csv").display(),
        log_path.display()
    ));
    fs::read_to_string(&log_path).unwrap()
}

#[test]
fn serve_replay_is_byte_identical_to_offline_run_for_all_schedulers() {
    let (dir, script, offline_flag) = churn_fixture("replay");
    let inst = osr_model::io::instance_from_str(&fs::read_to_string(dir.join("inst.csv")).unwrap())
        .unwrap();
    for algo in ["flow:0.25", "wflow:0.25", "energyflow:0.25:2"] {
        let oracle = offline_oracle(&dir, algo);
        let served = serve_once(
            &format!("serve --algo {algo} --machines 5 {offline_flag} --once"),
            &script,
        );
        assert_eq!(
            served, oracle,
            "{algo}: serve replay diverged from the offline log"
        );
        // The stream really was served online, not just echoed: the log
        // parses and covers every job.
        let log = osr_model::io::log_from_str(&served).unwrap();
        assert_eq!(log.len(), inst.len());
    }
    fs::remove_dir_all(&dir).ok();
}

/// Journal records share the protocol's grammar: with the header and
/// checksum tokens stripped, a v3 journal (hex sizes, dense rows and
/// sparse `m=`/`machine:size` rows alike) is a serve script that
/// reproduces the same log.
#[test]
fn journal_bodies_replay_as_a_serve_script() {
    let (dir, script, offline_flag) = churn_fixture("bodies");
    let oracle = offline_oracle(&dir, "flow:0.25");
    let journal = dir.join("bodies.journal");
    let args = format!("serve --algo flow:0.25 --machines 5 {offline_flag} --once");
    let served = serve_once(&format!("{args} --journal {}", journal.display()), &script);
    assert_eq!(served, oracle);

    let text = fs::read_to_string(&journal).unwrap();
    let mut lines = text.lines();
    assert!(lines.next().unwrap().starts_with("#osr-journal v3 "));
    let bodies: String = lines
        .map(|l| format!("{}\n", &l[..l.rfind(" #w").unwrap()]))
        .collect();
    assert!(bodies.contains(" x"), "sizes are journaled as hex bits");
    let arrives: Vec<&str> = bodies.lines().filter(|l| l.starts_with("arrive")).collect();
    assert!(
        arrives
            .iter()
            .any(|l| l.contains(" m=5 ") && l.contains(":x")),
        "restricted rows are journaled sparse"
    );
    assert!(
        arrives.iter().any(|l| !l.contains(" m=")),
        "rows with many eligible machines stay dense"
    );
    assert_eq!(serve_once(&args, &bodies), oracle);
    fs::remove_dir_all(&dir).ok();
}

/// The kill–recover–diff contract, end to end through the real binary:
/// a journaled serve killed at an armed failpoint (exit 17) must, after
/// `--recover` over the same journal plus a re-feed of the full script,
/// produce a log byte-identical to the offline oracle. Every failpoint
/// window is exercised (kill and torn actions), the torn leg relying on
/// recovery to detect and drop the manufactured partial record. Bursts
/// are capped at 8 lines so the piped script takes many group commits
/// and the later `pre-fsync` and `mid-batch` hits are reached.
#[test]
fn killed_serve_recovers_to_byte_identical_logs_at_every_failpoint() {
    let (dir, script, offline_flag) = churn_fixture("kill");
    let cases: [(&str, &[&str]); 3] = [
        (
            "flow:0.25",
            &[
                "mid-batch",
                "pre-fsync:3",
                "epoch-barrier",
                "snapshot-write",
                "pre-fsync:5:torn",
            ],
        ),
        ("wflow:0.25", &["mid-batch", "pre-fsync:4:torn"]),
        ("energyflow:0.25:2", &["mid-batch:2", "snapshot-write"]),
    ];
    for (algo, points) in cases {
        let oracle = offline_oracle(&dir, algo);
        for fp in points {
            let journal = dir.join(format!(
                "{}-{}.journal",
                algo.replace(':', "-"),
                fp.replace(':', "-")
            ));
            let out = serve_raw(
                &format!(
                    "serve --algo {algo} --machines 5 {offline_flag} --once \
                     --journal {} --snap-every 4 --ingest-buffer 8 --failpoint {fp}",
                    journal.display()
                ),
                &script,
            );
            assert_eq!(
                out.status.code(),
                Some(17),
                "{algo} {fp}: expected the injected kill, stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("failpoint"),
                "{algo} {fp}: the kill must identify itself on stderr"
            );
            let served = serve_once(
                &format!(
                    "serve --algo {algo} --machines 5 {offline_flag} --once \
                     --journal {} --recover --snap-every 4",
                    journal.display()
                ),
                &script,
            );
            assert_eq!(
                served, oracle,
                "{algo} {fp}: recovered run diverged from the offline log"
            );
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// The `error` failpoint action asks for a *graceful* shutdown: the
/// journal is flushed, the final (partial) log still lands complete on
/// stdout, the exit code is 0 — and recovery finishes the stream to the
/// oracle bytes. Recovering under a different configuration must be
/// refused by the journal fingerprint.
#[test]
fn failpoint_error_action_shuts_down_gracefully_and_recovery_completes() {
    let (dir, script, offline_flag) = churn_fixture("graceful");
    let algo = "flow:0.25";
    let oracle = offline_oracle(&dir, algo);
    let journal = dir.join("graceful.journal");

    let out = serve_raw(
        &format!(
            "serve --algo {algo} --machines 5 {offline_flag} --once \
             --journal {} --failpoint mid-batch:1:error",
            journal.display()
        ),
        &script,
    );
    assert!(
        out.status.success(),
        "error action must shut down gracefully, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("shutting down gracefully"),
        "stderr must explain the early exit: {stderr}"
    );
    // The partial log on stdout is complete and parseable — no torn
    // output from the early shutdown.
    let partial = String::from_utf8(out.stdout).unwrap();
    osr_model::io::log_from_str(&partial).expect("partial log parses");

    let served = serve_once(
        &format!(
            "serve --algo {algo} --machines 5 {offline_flag} --once --journal {} --recover",
            journal.display()
        ),
        &script,
    );
    assert_eq!(served, oracle, "recovery after graceful exit diverged");

    // Same journal, different algorithm: the fingerprint must refuse.
    let out = serve_raw(
        &format!(
            "serve --algo wflow:0.25 --machines 5 {offline_flag} --once --journal {} --recover",
            journal.display()
        ),
        "",
    );
    assert!(!out.status.success(), "fingerprint drift must be refused");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different configuration"),
        "refusal must explain itself: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    fs::remove_dir_all(&dir).ok();
}

/// A line that is not UTF-8 gets an error, and the stream goes on: the
/// recorded trace with a non-UTF-8 comment after its fifth line still
/// serves the committed oracle log, and the error lands on stderr.
#[test]
fn a_non_utf8_line_is_an_error_not_the_end_of_the_stream() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/serve");
    let script = fs::read(root.join("trace.script")).unwrap();
    let oracle = fs::read_to_string(root.join("offline-flow-0.25.csv")).unwrap();
    let mut bytes = Vec::new();
    for (i, line) in script.split_inclusive(|&b| b == b'\n').enumerate() {
        bytes.extend_from_slice(line);
        if i == 4 {
            bytes.extend_from_slice(b"# caf\xe9 comment\n");
        }
    }
    let out = serve_raw("serve --algo flow:0.25 --machines 6 --once", &bytes);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), oracle);
    assert!(
        stderr.contains("serve: line is not UTF-8 (bad byte at column 6)"),
        "{stderr}"
    );
}

/// A job whose release absorbs its cheapest size (`r + p̂ == r` in
/// `f64`) would complete at its own start with flow time 0. Serve
/// answers it with an error and journals nothing (a timed line and an
/// untimed one resolved against the clock alike), and the offline path
/// refuses the same job when it validates the instance.
#[test]
fn a_release_that_absorbs_its_size_is_refused_online_and_offline() {
    let dir = tmpdir("absorb");
    let journal = dir.join("j.journal");
    let script = "arrive 0 @1e300 1 1\nadvance 1e300\narrive 0 1 1\narrive 0 @1e300 inf inf\n";
    let out = serve_raw(
        &format!(
            "serve --algo flow:0.25 --machines 2 --once --journal {}",
            journal.display()
        ),
        script,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        stderr.matches("absorbs the cheapest size").count(),
        2,
        "{stderr}"
    );
    // Only the ineligible arrival (rejected at arrival, no size to
    // lose) is scheduled and journaled, as job 0.
    let log = osr_model::io::log_from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(log.len(), 1);
    let records = fs::read_to_string(&journal).unwrap();
    assert_eq!(
        records.lines().filter(|l| l.starts_with("arrive")).count(),
        1,
        "{records}"
    );
    assert!(
        records.contains("arrive 0 @") && records.contains(" m=2 "),
        "{records}"
    );

    let inst = dir.join("inst.csv");
    fs::write(
        &inst,
        "# osr-instance v1 kind=flowtime m=2\n0.5,1,-,1,2\n1e300,1,-,1,1\n",
    )
    .unwrap();
    let out = osr()
        .args(["run", "--algo", "flow:0.25", "--input"])
        .arg(&inst)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("j1: release 1e300 absorbs the cheapest size 1.0"),
        "{stderr}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_socket_feeds_stats_and_top_renders() {
    let dir = tmpdir("top");
    let sock = dir.join("osr.sock");

    let mut serve = osr()
        .args(
            format!(
                "serve --algo flow:0.5 --machines 3 --socket {}",
                sock.display()
            )
            .split_whitespace(),
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn osr serve");
    let mut stdin = serve.stdin.take().unwrap();
    stdin
        .write_all(b"arrive 0 @0 w=1 2 2 2\narrive 1 @0.5 w=2 1 inf 3\n")
        .unwrap();
    stdin.flush().unwrap();

    // Wait for the socket to come up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !sock.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "serve socket never appeared"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // One `top` frame over the socket.
    let (frame, _) = run_ok(&format!(
        "top --socket {} --frames 1 --interval-ms 10",
        sock.display()
    ));
    assert!(frame.contains("osr top"), "{frame}");
    assert!(frame.contains("flow"), "{frame}");
    assert!(frame.contains("arrived"), "{frame}");
    assert!(frame.contains("p95"), "{frame}");

    // Control verbs take no operands, and an infinite time is refused:
    // each gets an `err` reply, and the server keeps serving.
    {
        use std::io::{BufRead, BufReader};
        let conn = std::os::unix::net::UnixStream::connect(&sock).unwrap();
        let mut replies = BufReader::new(conn.try_clone().unwrap()).lines();
        let mut send = |line: &[u8]| -> String {
            (&conn).write_all(&[line, b"\n"].concat()).unwrap();
            replies.next().unwrap().unwrap()
        };
        for (line, want) in [
            (&b"stats extra"[..], "err `stats` takes no operands"),
            (b"shutdown now", "err `shutdown` takes no operands"),
            (b"advance @inf", "err bad advance time `inf`"),
            (b"drain 1 @1.5 junk", "err drain takes no operand"),
            (b"# caf\xe9 comment", "err line is not UTF-8"),
            (b"arrive 2 @1 w=1 1 \xff 1", "err line is not UTF-8"),
        ] {
            let reply = send(line);
            assert!(reply.starts_with(want), "{line:?}: {reply}");
        }
        assert_eq!(send(b"stats"), "algo flow");
    }

    // Clean shutdown: the final log lands on serve's stdout and parses.
    stdin.write_all(b"shutdown\n").unwrap();
    drop(stdin);
    let out = serve.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let log = osr_model::io::log_from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(log.len(), 2);
    assert!(!sock.exists(), "serve must remove its socket on shutdown");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_notices_go_to_stderr_and_stdout_stays_clean() {
    let dir = tmpdir("notices");
    let inst_path = dir.join("inst.csv");
    let (inst_text, _) = run_ok("gen --kind flowtime --n 10 --machines 2 --seed 1");
    fs::write(&inst_path, inst_text).unwrap();

    // A plain run says nothing on stderr: the report is all stdout.
    let (stdout, stderr) = run_ok(&format!(
        "run --algo flow:0.25 --input {}",
        inst_path.display()
    ));
    assert!(stderr.is_empty(), "{stderr}");
    assert!(stdout.contains("algorithm      :"), "{stdout}");
    // The removed `--shards` flag is an error on stderr (exit 1), and
    // stdout stays empty rather than carrying a half report.
    let out = osr()
        .args(["run", "--algo", "flow:0.25", "--input"])
        .arg(&inst_path)
        .args(["--shards", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --shards"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_validates_its_options() {
    // Bad algo specs, machine counts, offline lists, and unknown or
    // removed options exit 1 with an error on stderr before any stream
    // is read.
    for args in [
        "serve --algo energymin:2 --machines 4 --once",
        "serve --algo flow:0.25 --machines zero --once",
        "serve --algo flow:0.25 --once",
        "serve --algo flow:0.25 --machines 2 --offline 5 --once",
        "serve --algo flow:0.25 --machines 2 --queue-backend quantum --once",
        "serve --algo flow:0.25 --machines 2 --kernels scalar --once",
        "serve --algo flow:0.25 --machines 2 --journl j.journal --once",
        "serve --algo flow:0.25 --machines 2 --recover --once",
        "serve --algo flow:0.25 --machines 2 --failpoint explode --once",
        "serve --algo flow:0.25 --machines 2 --failpoint mid-batch:0 --once",
        "serve --algo flow:0.25 --machines 2 --snap-every lots --once",
        "serve --algo flow:0.25 --machines 2 --ingest-buffer 0 --once",
    ] {
        let out = osr()
            .args(args.split_whitespace())
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert!(!out.status.success(), "`osr {args}` should fail");
        assert!(!out.stderr.is_empty(), "`osr {args}` should explain");
    }
    // An unknown option exits 1 and names itself.
    for (args, name) in [
        (
            "serve --algo flow:0.25 --machines 2 --kernels scalar --once",
            "--kernels",
        ),
        (
            "serve --algo flow:0.25 --machines 2 --journl j.journal --once",
            "--journl",
        ),
        (
            "serve --algo flow:0.25 --machines 2 --shards 2 --once",
            "--shards",
        ),
    ] {
        let out = osr()
            .args(args.split_whitespace())
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "`osr {args}`");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {name}")),
            "{stderr}"
        );
    }
}

#[test]
fn help_flags_print_usage_and_exit_zero() {
    let deleted = [
        "--dispatch-index",
        "--capacity-index",
        "--propagation",
        "--kernels",
        "--queue-backend",
        "--event-backend",
        "--shards",
        "RUNTIME KNOBS",
    ];
    for args in [&["--help"][..], &["-h"], &["help"], &["run", "--help"]] {
        let out = osr().args(args).stdin(Stdio::null()).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "`osr {args:?}`");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("USAGE"), "{stdout}");
        assert!(stdout.contains("SERVE DURABILITY"), "{stdout}");
        for flag in deleted {
            assert!(!stdout.contains(flag), "`osr {args:?}` lists {flag}");
        }
    }
}
