//! Runs every experiment and writes CSV artifacts to `results/`.
//!
//! ```text
//! cargo run --release -p osr-bench --bin run_experiments -- \
//!     [--quick] [--jobs N] [--shards N] [ids…]
//! ```
//!
//! With no ids, runs all experiments. `--quick` uses the reduced sizes
//! (the same configuration the integration tests assert on). `--jobs N`
//! sets the worker count for each experiment's replicate fan-out;
//! whatever the value, the emitted tables and CSVs are **byte-identical**
//! (see `osr_bench::experiments` for the determinism contract), so
//! `--jobs` trades wall-clock only.
//!
//! `--shards N` is the one runtime knob (same spelling and parser as
//! `osr run` / `osr serve`): it sets the process-default
//! [`osr_core::SchedulerConfig`] to the production configuration with
//! `N` shards. It is **result-neutral** — the sharded driver reconciles
//! cross-shard argmin candidates with the serial tie-break — so CSVs are
//! byte-identical at any `N`; CI diffs `--shards 4` against the default.
//! The other knobs' reference settings are diffed in-process by the
//! `reference_equivalence` test.

use std::fs;
use std::io::Write as _;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    let mut wanted: Vec<String> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut config = osr_core::SchedulerConfig::production();
    let mut iter = args.iter();
    // Takes the flag's value token or dies with the shared usage text.
    fn value<'a>(iter: &mut std::slice::Iter<'a, String>, flag: &str) -> &'a str {
        iter.next().map(String::as_str).unwrap_or_else(|| {
            eprintln!("{flag} needs a value; runtime knobs:");
            eprint!("{}", osr_core::knob_help("  "));
            std::process::exit(2);
        })
    }
    fn parsed<T>(r: Result<T, String>) -> T {
        r.unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => {}
            "--shards" => {
                config.shards = parsed(osr_core::parse_shards(value(&mut iter, "--shards")));
            }
            "--jobs" => {
                let v = iter.next().unwrap_or_else(|| {
                    eprintln!("--jobs needs a value");
                    std::process::exit(2);
                });
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = Some(n),
                    _ => {
                        eprintln!("--jobs needs a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            s if s.starts_with("--") => {
                eprintln!("unknown flag {s}; runtime knobs:");
                eprint!("{}", osr_core::knob_help("  "));
                std::process::exit(2);
            }
            s => wanted.push(s.to_string()),
        }
    }
    osr_core::set_default_config(config);

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
        let tables = runner(quick);
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
