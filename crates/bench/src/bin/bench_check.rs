//! CI bench-regression gate: compares a freshly generated
//! `BENCH_dispatch.json` against the committed baseline and fails on a
//! >30% regression of any **key ratio**.
//!
//! ```text
//! cargo run --release -p osr-bench --bin bench_check -- \
//!     --baseline BENCH_dispatch.json --fresh /tmp/BENCH_dispatch.json \
//!     [--tolerance 0.30]
//! ```
//!
//! Raw ns/op medians are machine-dependent (laptop vs CI container), so
//! the gate compares **within-run speedup ratios** — slow-structure
//! median ÷ fast-structure median from the *same* file — which cancel
//! the hardware factor. A regression means the optimized structure lost
//! ground against its own ablation baseline: exactly the property the
//! BENCH.md trajectory exists to protect. The tolerance (default 0.30,
//! i.e. "fail on >30% regression") absorbs quick-mode sampling noise;
//! the tracked ratios are chosen with wide speedup margins, and the
//! pairs whose measured run-to-run wobble approaches the default gate
//! carry wider per-ratio tolerances (see
//! `KEY_RATIOS`). `--tolerance` raises the floor for every pair.
//!
//! Pairs present in the fresh run but missing from the baseline are
//! reported and skipped (a new bench lands before its first committed
//! baseline); pairs missing from the fresh run fail (a tracked bench
//! disappeared).

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

/// The tracked speedup ratios: (label, group, slow bench, fast bench,
/// per-ratio tolerance override). Every entry is a
/// structure-vs-ablation pair; `Some(t)` widens the gate for pairs
/// whose quick-mode medians are demonstrably noisy (allocation-heavy
/// 100k-element microbenches swing ±25% run to run on an idle
/// container — measured across three committed/fresh snapshots — so a
/// default-tolerance gate on them would flake). The wider tolerances
/// still catch the regressions that matter: the bulk-build ratio sits
/// at 2–6×, so a 50% gate fires long before the optimized structure
/// actually loses to its ablation.
const KEY_RATIOS: &[(&str, &str, &str, &str, Option<f64>)] = &[
    (
        "treap-vs-naive end-to-end (n=10k)",
        "queue_backend_end_to_end",
        "Naive/10000",
        "Treap/10000",
        None,
    ),
    (
        "pruned-vs-linear dispatch (m=1024)",
        "dispatch_m_sweep",
        "linear_m1024/4096",
        "pruned_m1024/4096",
        None,
    ),
    (
        "from_sorted-vs-incremental build (n=100k)",
        "treap_bulk_build",
        "incremental/100000",
        "from_sorted/100000",
        Some(0.50),
    ),
    (
        "cached-vs-scanned p-hat (m=1024)",
        "p_hat_precompute",
        "scan_m1024/2000",
        "cached_m1024/2000",
        None,
    ),
    // The same sweep on unrelated machines (fully eligible rows, sizes
    // × U[1, 4] per machine: servebench's dense-m1024 model). Before
    // every non-uniform row carried rack-local p-hat minima, the heap
    // descent here bounded each subtree with the global p-hat and lost
    // to the linear scan by 5x (0.19–0.20x over three quick runs);
    // with them it wins (1.48x and 1.59x). Quick-mode medians of this
    // pair swing with host load (a third run read 0.95x), so the gate
    // is widened to 50%: it fires below 0.74x, far above the
    // loose-bound state.
    (
        "unrelated pruned-vs-linear dispatch (m=1024)",
        "dispatch_m_sweep",
        "linear_unrelated_m1024/4096",
        "pruned_unrelated_m1024/4096",
        Some(0.50),
    ),
    // PR 4: the mask-guided tournament descent on affinity workloads.
    // The micro pair isolates blind-vs-masked search (the sparse
    // bit-walk path at this size: ~280× recorded); the end-to-end pair
    // guards the full scheduler against losing to its own linear
    // ablation on affinity scenarios (~1.8× recorded, and an
    // eligibility-blind index sits at ~0.75× — well below the widened
    // 50% gate).
    (
        "masked-vs-blind affinity descent (m=1024, g=16)",
        "masked_descent",
        "blind_m1024_g16",
        "masked_m1024_g16",
        Some(0.50),
    ),
    (
        "affinity pruned-vs-linear end-to-end (m=1024, g=16)",
        "dispatch_affinity_m_sweep",
        "linear_m1024_g16/4096",
        "pruned_m1024_g16/4096",
        Some(0.50),
    ),
    // PR 5: the update-side rework. The churn pair isolates lazy
    // dirty-leaf repair vs eager ancestor propagation at the
    // acceptance point (m=1024, 8 mutations per search); the rack
    // pair isolates rack-local vs global p̂ subtree bounds on the
    // masked heap descent (m=16384, g=64 — the regime PR 4 left at
    // 22× instead of 287×); the m=64 end-to-end pair guards the
    // affinity row the flat leaf-table update flipped positive
    // (was 0.82× — *slower* than linear — with eager ancestor
    // maintenance the flat search never read).
    (
        "lazy-vs-eager update churn (m=1024, r=8)",
        "update_churn",
        "eager_m1024_r8",
        "lazy_m1024_r8",
        Some(0.50),
    ),
    (
        "rack-vs-global p-hat bounds (m=16384, g=64)",
        "rack_phat",
        "global_m16384_g64",
        "rack_m16384_g64",
        Some(0.50),
    ),
    // PR 6: the elastic-pool resize path. Incremental
    // tombstone/join absorption of a rack-sized incident vs the
    // rebuild-from-scratch reference that reconstructs the index after
    // every capacity event (the `CapacityIndexMode::Rebuild`
    // contract). The reference exists for bit-identical diffs, not
    // speed — the margin is wide (per-event rebuilds are O(m·events))
    // — so the widened 50% gate guards the incremental path without
    // flaking on quick-mode noise.
    (
        "incremental-vs-rebuild elastic resize (m=1024)",
        "elastic_resize",
        "rebuild_m1024",
        "incremental_m1024",
        Some(0.50),
    ),
    (
        // Default (not widened) tolerance on purpose: the guarded
        // margin is thin — baseline ~1.34x, and the regression this
        // pair exists to catch (eager ancestor maintenance back on
        // the flat path) lands at ~0.82x. A 50% gate (threshold
        // 0.67x) would wave that through; the 30% default fires at
        // ~0.94x, squarely between the observed run-to-run medians
        // (1.26–1.34x) and the known-bad state.
        "affinity pruned-vs-linear end-to-end (m=64, g=16)",
        "dispatch_affinity_m_sweep",
        "linear_m64_g16/2048",
        "pruned_m64_g16/2048",
        None,
    ),
    // PR 10: the write-ahead journal's durability tax on the serve
    // ingest path — a journal_overhead row, not a speedup gate. The
    // plain/journaled ratio sits **below 1× by construction** (the
    // journaled run adds one fsync per ingest call), and the gate fires
    // when it drops further — i.e. when journaling gets relatively more
    // expensive (an extra fsync, per-record allocation, losing the
    // batched single-write append). fsync cost is environment-dependent
    // (tmpfs vs overlay vs disk), so the widened 50% tolerance is the
    // honest gate; the absolute medians are recorded for BENCH.md.
    (
        "journal-off vs journal-on serve replay (m=6)",
        "serve_journal",
        "replay_plain_m6",
        "replay_journaled_m6",
        Some(0.50),
    ),
];

/// Extracts the string value of `"key":"…"` from a JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the numeric value of `"key":…` from a JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parses a BENCH_dispatch.json document into `(group, bench) → median_ns`.
fn parse_medians(path: &str) -> Result<HashMap<(String, String), f64>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let Some(group) = str_field(line, "group") else {
            continue;
        };
        let bench = str_field(line, "bench")
            .ok_or_else(|| format!("{path}: result line missing \"bench\": {line}"))?;
        let median = num_field(line, "median_ns")
            .ok_or_else(|| format!("{path}: result line missing \"median_ns\": {line}"))?;
        out.insert((group, bench), median);
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark results found"));
    }
    Ok(out)
}

fn ratio(
    medians: &HashMap<(String, String), f64>,
    group: &str,
    slow: &str,
    fast: &str,
) -> Option<f64> {
    let s = medians.get(&(group.to_string(), slow.to_string()))?;
    let f = medians.get(&(group.to_string(), fast.to_string()))?;
    (*f > 0.0).then(|| s / f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = get("--baseline").unwrap_or_else(|| "BENCH_dispatch.json".to_string());
    let Some(fresh_path) = get("--fresh") else {
        eprintln!("usage: bench_check --baseline FILE --fresh FILE [--tolerance 0.30]");
        return ExitCode::from(2);
    };
    let tolerance: f64 = match get("--tolerance").as_deref().unwrap_or("0.30").parse() {
        Ok(t) if (0.0..1.0).contains(&t) => t,
        _ => {
            eprintln!("--tolerance must be a fraction in [0, 1)");
            return ExitCode::from(2);
        }
    };

    let (baseline, fresh) = match (parse_medians(&baseline_path), parse_medians(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_check: {err}");
            }
            return ExitCode::from(2);
        }
    };

    println!(
        "{:<44} {:>10} {:>10} {:>8}  verdict",
        "key ratio (slow/fast medians)", "baseline", "fresh", "change"
    );
    // Every tracked ratio is evaluated before any verdict is final, so
    // one run reports the complete damage — a fix-one-rerun-find-the-
    // next loop on a suite this slow would cost a full bench cycle per
    // failure.
    let mut failures: Vec<String> = Vec::new();
    for &(label, group, slow, fast, tol_override) in KEY_RATIOS {
        let tol = tol_override.unwrap_or(tolerance).max(tolerance);
        let base = ratio(&baseline, group, slow, fast);
        let now = ratio(&fresh, group, slow, fast);
        match (base, now) {
            (Some(b), Some(n)) => {
                let change = n / b - 1.0;
                let ok = n >= b * (1.0 - tol);
                if !ok {
                    failures.push(format!(
                        "{label}: baseline {b:.2}x -> fresh {n:.2}x \
                         ({:+.1}%, tolerance {:.0}%)",
                        change * 100.0,
                        tol * 100.0
                    ));
                }
                println!(
                    "{label:<44} {b:>9.2}x {n:>9.2}x {:>+7.1}%  {} (tol {:.0}%)",
                    change * 100.0,
                    if ok { "ok" } else { "REGRESSED" },
                    tol * 100.0
                );
            }
            (None, Some(n)) => {
                println!(
                    "{label:<44} {:>10} {n:>9.2}x {:>8}  new (no baseline yet)",
                    "-", "-"
                );
            }
            (_, None) => {
                failures.push(format!("{label}: MISSING from fresh run"));
                println!(
                    "{label:<44} {:>10} {:>10} {:>8}  MISSING from fresh run",
                    "?", "?", "-"
                );
            }
        }
    }

    if !failures.is_empty() {
        eprintln!(
            "\nbench_check: {} key ratio(s) regressed past their tolerance \
             against {baseline_path}:",
            failures.len()
        );
        for f in &failures {
            eprintln!("  - {f}");
        }
        eprintln!(
            "If the regression is intended (e.g. an ablation re-baseline), regenerate the \
             baseline with `cargo run --release -p osr-bench --bin bench_summary` and commit it \
             together with a BENCH.md entry explaining the move."
        );
        ExitCode::FAILURE
    } else {
        println!("\nbench_check: all key ratios within tolerance of baseline");
        ExitCode::SUCCESS
    }
}
