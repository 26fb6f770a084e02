//! Runs the dispatch-path Criterion suites in quick mode and distills
//! one machine-readable artifact, `BENCH_dispatch.json` — the perf
//! trajectory baseline future optimisation PRs regress against.
//!
//! ```text
//! cargo run --release -p osr-bench --bin bench_summary [-- --out PATH]
//! ```
//!
//! Mechanism: invokes `cargo bench` for the `dstruct_ablation` and
//! `serve_journal` suites with `OSR_BENCH_QUICK=1`
//! (5 samples × ~5 ms — seconds, not minutes) and `OSR_BENCH_JSON`
//! pointed at a temp file the criterion shim appends one JSON line per
//! benchmark to. Quick mode runs every suite [`QUICK_RUNS`] times and
//! keeps, for each benchmark, the run with the **minimum median**:
//! on a shared host, interference only ever adds time, so the least
//! disturbed of a few medians is the steadiest estimate (the line keeps
//! all medians in `medians_ns`). The document also records a `host`
//! object (core count, kernel, rustc), since raw medians are only
//! comparable on the same host. To record a slower, steadier baseline
//! (for BENCH.md), run with `--full`, which drops `OSR_BENCH_QUICK` and
//! runs each suite once.

use std::collections::HashMap;
use std::fs;
use std::process::Command;

const SUITES: &[&str] = &["dstruct_ablation", "serve_journal"];

/// Runs of each suite in quick mode; each bench keeps its least
/// disturbed median.
const QUICK_RUNS: usize = 3;

/// Extracts the string value of `"key":"…"` from a JSON line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extracts the numeric value of `"key":…` from a JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host the medians were taken on: core count, kernel release and
/// compiler, as one JSON object.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": {}, \"rustc\": {}}}",
        json_str(&kernel),
        json_str(&rustc)
    )
}

/// Keeps, per `(group, bench)` in first-seen order, the result line
/// with the smallest median, with every run's median appended as
/// `medians_ns`.
fn min_of_medians(lines: &[&str]) -> Vec<String> {
    let mut order: Vec<(String, String)> = Vec::new();
    let mut best: HashMap<(String, String), (f64, &str, Vec<f64>)> = HashMap::new();
    for line in lines {
        let (Some(group), Some(bench), Some(median)) = (
            str_field(line, "group"),
            str_field(line, "bench"),
            num_field(line, "median_ns"),
        ) else {
            panic!("bench result line lacks group/bench/median_ns: {line}");
        };
        let key = (group.to_string(), bench.to_string());
        match best.get_mut(&key) {
            Some((m, l, all)) => {
                all.push(median);
                if median < *m {
                    (*m, *l) = (median, line);
                }
            }
            None => {
                order.push(key.clone());
                best.insert(key, (median, line, vec![median]));
            }
        }
    }
    order
        .iter()
        .map(|key| {
            let (_, line, all) = &best[key];
            let all: Vec<String> = all.iter().map(|m| m.to_string()).collect();
            let body = line.trim_end().strip_suffix('}').expect("JSON object line");
            format!("{body},\"medians_ns\":[{}]}}", all.join(","))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dispatch.json".to_string());
    let runs = if full { 1 } else { QUICK_RUNS };

    let json_lines = std::env::temp_dir().join(format!("osr_bench_{}.jsonl", std::process::id()));
    let _ = fs::remove_file(&json_lines);

    for suite in SUITES {
        for run in 1..=runs {
            eprintln!("== cargo bench --bench {suite} (run {run}/{runs}) ==");
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
    }

    let lines = fs::read_to_string(&json_lines).expect("bench json lines");
    let raw: Vec<&str> = lines.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!raw.is_empty(), "benches emitted no results");
    let results = min_of_medians(&raw);

    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("  \"artifact\": \"BENCH_dispatch\",\n");
    doc.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if full { "full" } else { "quick" }
    ));
    doc.push_str(&format!("  \"suites\": [\"{}\"],\n", SUITES.join("\", \"")));
    doc.push_str(&format!("  \"runs\": {runs},\n"));
    doc.push_str(&format!("  \"host\": {},\n", host_json()));
    doc.push_str("  \"unit\": \"median ns per iteration (minimum over runs)\",\n");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_each_benchmarks_least_disturbed_run() {
        let lines = [
            r#"{"group":"g","bench":"a/1","median_ns":30,"min_ns":1,"max_ns":9,"samples":5}"#,
            r#"{"group":"g","bench":"b/1","median_ns":7.5,"min_ns":1,"max_ns":9,"samples":5}"#,
            r#"{"group":"g","bench":"a/1","median_ns":20,"min_ns":2,"max_ns":8,"samples":5}"#,
            r#"{"group":"g","bench":"b/1","median_ns":9,"min_ns":1,"max_ns":9,"samples":5}"#,
            r#"{"group":"g","bench":"a/1","median_ns":25,"min_ns":3,"max_ns":7,"samples":5}"#,
        ];
        let got = min_of_medians(&lines);
        assert_eq!(
            got,
            [
                r#"{"group":"g","bench":"a/1","median_ns":20,"min_ns":2,"max_ns":8,"samples":5,"medians_ns":[30,20,25]}"#,
                r#"{"group":"g","bench":"b/1","median_ns":7.5,"min_ns":1,"max_ns":9,"samples":5,"medians_ns":[7.5,9]}"#,
            ]
        );
        // bench_check reads `median_ns`, not the appended list.
        assert_eq!(num_field(&got[0], "median_ns"), Some(20.0));
    }

    #[test]
    fn host_object_names_cores_kernel_and_compiler() {
        let host = host_json();
        for key in ["\"nproc\": ", "\"kernel\": \"", "\"rustc\": \""] {
            assert!(host.contains(key), "{host}");
        }
        assert_eq!(json_str("a\"b\\c"), r#""a\"b\\c""#);
    }
}
