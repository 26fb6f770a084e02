//! Runs every experiment and writes CSV artifacts to `results/`.
//!
//! ```text
//! cargo run --release -p osr-bench --bin run_experiments -- \
//!     [--quick] [--jobs N] [ids…]
//! ```
//!
//! With no ids, runs all experiments. `--quick` uses the reduced sizes
//! (the same configuration the integration tests assert on). `--jobs N`
//! sets the worker count for each experiment's replicate fan-out;
//! whatever the value, the emitted tables and CSVs are **byte-identical**
//! (see `osr_bench::experiments` for the determinism contract), so
//! `--jobs` trades wall-clock only.
//!
//! Every experiment runs under [`osr_core::SchedulerConfig::production`].
//! The reference settings of its knobs are diffed in-process by the
//! `reference_equivalence` test.

use std::fs;
use std::io::Write as _;
use std::time::Instant;

use osr_core::SchedulerConfig;

/// The flags this harness accepts, printed with every usage error.
const USAGE: &str = "\
usage: run_experiments [--quick] [--jobs N] [ids...]
  --quick    reduced sizes (the integration-test configuration)
  --jobs N   worker count for replicate fan-out (N >= 1; output is
             byte-identical at any N)
";

/// Prints `msg` and the usage text, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    let mut wanted: Vec<String> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {}
            "--jobs" => {
                let Some(v) = iter.next() else {
                    usage_error("--jobs needs a value");
                };
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => usage_error(&format!("--jobs needs a positive integer, got {v:?}")),
                }
            }
            s if s.starts_with("--") => usage_error(&format!("unknown flag {s}")),
            s => wanted.push(s.to_string()),
        }
    }

    if let Some(n) = jobs {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure worker pool");
    }

    fs::create_dir_all("results").expect("create results dir");

    let mut ran = 0;
    for (id, description, runner) in osr_bench::all_experiments() {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        println!("\n### {id} — {description}\n");
        let t0 = Instant::now();
        let tables = runner(quick, SchedulerConfig::production());
        let dt = t0.elapsed();
        for (k, table) in tables.iter().enumerate() {
            println!("{table}");
            let path = if tables.len() == 1 {
                format!("results/{id}.csv")
            } else {
                format!("results/{id}_{k}.csv")
            };
            let mut f = fs::File::create(&path).expect("create csv");
            f.write_all(table.to_csv().as_bytes()).expect("write csv");
            println!("  -> {path}");
        }
        println!("  ({:.2}s)", dt.as_secs_f64());
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched; known ids:");
        for (id, desc, _) in osr_bench::all_experiments() {
            eprintln!("  {id:<18} {desc}");
        }
        std::process::exit(2);
    }
}
