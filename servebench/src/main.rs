//! `servebench` — the end-to-end benchmark of `osr serve`.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
//!     --workload dense-m1024 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. It builds `osr` from the checkout,
//! generates the workload from `--seed`, and repeats rounds (restart on
//! a journal, decide over the socket, replay over stdin) against fresh
//! server processes for `--seconds`. Each round's log is checked and
//! compared byte for byte with `osr run` on the same instance. With
//! `--trace 1` it also runs the traced in-process round and reports the
//! per-layer split. The last line of stdout is one JSON object. See
//! README.md for the workloads, metrics and bounds.

mod check;
mod host;
mod serve;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use workload::Workload;

/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workload::named(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (want one of {names:?})")
    })?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
    })
}

/// Builds `osr` from the checkout's root workspace, with its own release
/// profile, into a target directory of its own under the benchmark's.
fn build_osr(target: &Path) -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("crates/cli is missing: run from the root of a full checkout".into());
    }
    let dir = target.join("servebench-osr");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "osr-cli",
            "--bin",
            "osr",
        ])
        .env("CARGO_TARGET_DIR", &dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building osr failed ({status})"));
    }
    std::path::absolute(dir.join("release/osr")).map_err(|e| e.to_string())
}

/// Nearest-rank percentile of sorted `v` (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `osr run` on the written instance and plan: the offline log
/// every served log must equal byte for byte.
fn offline_log(osr: &Path, inputs: &workload::Inputs) -> Result<String, String> {
    let mut cmd = Command::new(osr);
    cmd.args([
        "run",
        "--algo",
        &inputs.spec,
        "--input",
        "instance.csv",
        "--log",
        "offline.log",
    ]);
    if !inputs.plan.is_empty() {
        cmd.args(["--capacity", "plan.csv"]);
    }
    let out = cmd.output().map_err(|e| format!("spawning osr run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "osr run failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    std::fs::read_to_string("offline.log").map_err(|e| format!("reading offline.log: {e}"))
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; `run` marks such a run incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let osr = build_osr(&target)?;
    let work = target.join("servebench-work").join(w.name);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    println!("{}", host::metadata(&work));
    std::env::set_current_dir(&work).map_err(|e| format!("entering {}: {e}", work.display()))?;

    let mut correct = true;
    if let Err(e) = check::self_test() {
        eprintln!("servebench: {e}");
        correct = false;
    }

    let inputs = workload::generate(
        w,
        args.seed,
        Path::new("instance.csv"),
        Path::new("plan.csv"),
    )?;
    println!(
        "workload: {} seed={} scenario={} algo={} n={} m={} prefix={} decide={} replay={} capacity_events={}",
        w.name,
        args.seed,
        w.scenario,
        inputs.spec,
        w.jobs(),
        w.machines,
        w.prefix,
        w.decide,
        w.replay,
        inputs.plan.len()
    );
    let offline = offline_log(&osr, &inputs)?;
    // Deleting the instance before its writeback keeps that disk work
    // out of the timed rounds.
    for f in ["instance.csv", "offline.log"] {
        let _ = std::fs::remove_file(f);
    }
    serve::write_prefix(&osr, &inputs)?;

    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || began.elapsed() < budget {
        rounds.push(serve::round(&osr, &inputs)?);
    }

    let mut outcome = check::Outcome {
        objective: f64::NAN,
        bound: f64::NAN,
    };
    for (k, r) in rounds.iter().enumerate() {
        if r.log != offline {
            eprintln!("servebench: round {k}: served log differs from `osr run`");
            correct = false;
        }
        match check::check(&r.log, &inputs.jobs, &inputs.plan, w.algo) {
            Ok(o) => outcome = o,
            Err(e) => {
                eprintln!("servebench: round {k}: {e}");
                correct = false;
            }
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();

    let mut decide: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.decide_us.iter().copied())
        .collect();
    decide.sort_by(f64::total_cmp);
    let p99 = percentile(&decide, 0.99);
    let beyond = decide.iter().filter(|&&x| x > p99).count();
    let setup = median(rounds.iter().map(|r| r.setup_s).collect());
    let replay_s = median(rounds.iter().map(|r| r.replay_s).collect());
    let rate = median(
        rounds
            .iter()
            .map(|r| r.replay_arrivals as f64 / r.replay_s)
            .collect(),
    );
    let rss_mb = median(rounds.iter().map(|r| r.rss_kib as f64 / 1024.0).collect());
    let cpu_s = median(rounds.iter().map(|r| r.cpu_s).collect());
    for (k, r) in rounds.iter().enumerate() {
        println!(
            "round {k}: setup {:.4} s, decide p50 {:.1} us, replay {} arrivals in {:.4} s, rss {:.1} MB, cpu {:.3} s",
            r.setup_s,
            percentile(&r.decide_us, 0.5),
            r.replay_arrivals,
            r.replay_s,
            r.rss_kib as f64 / 1024.0,
            r.cpu_s
        );
    }
    println!(
        "decide: {} samples over {} rounds, p50 {:.1} us, p99 {:.1} us with {beyond} samples beyond it",
        decide.len(),
        rounds.len(),
        percentile(&decide, 0.5),
        p99
    );

    println!(
        "objective: {} = {:?}, over the completed jobs' lower bound {:?}: ratio {:?}",
        w.algo.objective_name(),
        outcome.objective,
        outcome.bound,
        outcome.objective / outcome.bound
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let traced = trace::run(&inputs, w.algo, Path::new("spans.tsv"))?;
        if traced.log != offline {
            eprintln!("servebench: traced run's log differs from `osr run`");
            correct = false;
        }
        println!(
            "trace: spans written to {}",
            work.join("spans.tsv").display()
        );
        println!(
            "trace: replay phase untraced {replay_s:.4} s (median of {} rounds), traced parts:",
            rounds.len()
        );
        for (name, s) in &traced.replay_split {
            println!("  {name:<24} {s:.4} s  ({:.1}%)", 100.0 * s / replay_s);
        }
        let unattributed = replay_s - traced.replay_parts_s;
        println!(
            "  {:<24} {:.4} s  ({:.1}%)  stdin reader, channel, pipes, tracing",
            "unattributed",
            unattributed,
            100.0 * unattributed / replay_s
        );
        let mut m = traced.metrics;
        m.push(("server.cpu_s", cpu_s, "s"));
        m.push(("trace.replay_untraced_s", replay_s, "s"));
        m.push(("trace.replay_parts_s", traced.replay_parts_s, "s"));
        m.push(("trace.unattributed_s", unattributed, "s"));
        m
    } else {
        vec![
            ("setup_s", setup, "s"),
            ("arrivals_per_s", rate, "1/s"),
            ("decide_p50_us", percentile(&decide, 0.5), "us"),
            ("rss_peak_mb", rss_mb, "MB"),
            (
                "objective_ratio",
                outcome.objective / outcome.bound,
                "ratio",
            ),
        ]
    };

    for f in [
        "instance.csv",
        "plan.csv",
        "offline.log",
        serve::JOURNAL,
        serve::PREFIX_JOURNAL,
        "trace.journal",
    ] {
        let _ = std::fs::remove_file(f);
        let _ = std::fs::remove_file(format!("{f}.snap"));
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("servebench: metric {name} is not a number");
        correct = false;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}
