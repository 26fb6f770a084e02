//! Command-line contract of the `run_experiments` binary: bad flags
//! exit 2 with the harness's own usage text, and nothing is run.

use std::process::Command;

fn run_experiments(args: &[&str]) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("osr-run-exp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn run_experiments");
    assert!(!dir.join("results").exists(), "{args:?} ran experiments");
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn unknown_and_bad_flags_exit_2_listing_the_harness_flags() {
    for (args, needle) in [
        (&["--shards", "2"][..], "unknown flag --shards"),
        (&["--quick", "--bogus"], "unknown flag --bogus"),
        (&["--jobs", "0"], "--jobs needs a positive integer"),
        (&["--jobs"], "--jobs needs a value"),
    ] {
        let out = run_experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        let usage = &stderr[stderr.find("usage:").expect("usage text")..];
        for flag in ["--quick", "--jobs N"] {
            assert!(
                usage.contains(flag),
                "{args:?} usage misses {flag}: {usage}"
            );
        }
        assert!(!usage.contains("shards"), "{args:?}: {usage}");
    }
}
