//! Runs the dispatch-path Criterion suites in quick mode and distills
//! one machine-readable artifact, `BENCH_dispatch.json` — the perf
//! trajectory baseline future optimisation PRs regress against.
//!
//! ```text
//! cargo run --release -p osr-bench --bin bench_summary [-- --out PATH]
//! ```
//!
//! Mechanism: invokes `cargo bench` for the `dstruct_ablation`,
//! `epoch_shard`, and `serve_journal` suites with `OSR_BENCH_QUICK=1`
//! (5 samples × ~5 ms —
//! seconds, not minutes) and `OSR_BENCH_JSON` pointed at a temp file the
//! criterion shim appends one JSON line per benchmark to; those lines
//! are then wrapped into a single JSON document with median ns/op per
//! structure/size. To record a slower, steadier baseline (for BENCH.md),
//! run with `--full`, which drops `OSR_BENCH_QUICK`.

use std::fs;
use std::process::Command;

const SUITES: &[&str] = &["dstruct_ablation", "epoch_shard", "serve_journal"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dispatch.json".to_string());

    let json_lines = std::env::temp_dir().join(format!("osr_bench_{}.jsonl", std::process::id()));
    let _ = fs::remove_file(&json_lines);

    for suite in SUITES {
        eprintln!("== cargo bench --bench {suite} ==");
        let mut cmd = Command::new(env!("CARGO", "cargo"));
        cmd.args(["bench", "-p", "osr-bench", "--bench", suite])
            .env("OSR_BENCH_JSON", &json_lines);
        if !full {
            cmd.env("OSR_BENCH_QUICK", "1");
        }
        let status = cmd.status().expect("spawn cargo bench");
        assert!(
            status.success(),
            "cargo bench --bench {suite} failed: {status}"
        );
    }

    let lines = fs::read_to_string(&json_lines).expect("bench json lines");
    let results: Vec<&str> = lines.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!results.is_empty(), "benches emitted no results");

    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"artifact\": \"BENCH_dispatch\",\n");
    doc.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if full { "full" } else { "quick" }
    ));
    doc.push_str(&format!("  \"suites\": [\"{}\"],\n", SUITES.join("\", \"")));
    doc.push_str("  \"unit\": \"median ns per iteration\",\n");
    doc.push_str("  \"results\": [\n");
    for (i, line) in results.iter().enumerate() {
        doc.push_str("    ");
        doc.push_str(line);
        if i + 1 < results.len() {
            doc.push(',');
        }
        doc.push('\n');
    }
    doc.push_str("  ]\n}\n");

    fs::write(&out_path, &doc).expect("write summary");
    let _ = fs::remove_file(&json_lines);
    println!("wrote {out_path} ({} benchmarks)", results.len());
}
