//! Fault-injection registry for crash-recovery testing.
//!
//! A *failpoint* is a named site in the serve/journal stack where the
//! process can be made to die (or error) on purpose, so the
//! kill-recover-diff tests in `osr-core`/`osr-cli` and the CI
//! crash-recovery step can exercise every window of the write-ahead
//! journal protocol deterministically. The catalog (see
//! `crates/sim/README.md` for where each one sits in the protocol):
//!
//! | point            | site                                            |
//! |------------------|-------------------------------------------------|
//! | `mid-batch`      | after a batch is journaled, before it applies   |
//! | `pre-fsync`      | after journal bytes are written, before fsync   |
//! | `epoch-barrier`  | the end of each driver ingest epoch             |
//! | `snapshot-write` | after the snapshot temp file, before the rename |
//!
//! At most one failpoint is armed per process (`name[:nth][:action]`,
//! via [`arm`] or the `OSR_FAILPOINT` environment variable); it fires
//! once, at the `nth` hit. Actions:
//!
//! * `kill` (default) — exit immediately with [`KILL_EXIT_CODE`], the
//!   hard-crash model: no flush, no unwind.
//! * `error` — [`hit`] returns an error the caller propagates; the
//!   serve loop treats it as a graceful-shutdown request (journal
//!   flushed, final log emitted).
//! * `torn` — only meaningful at journal-write sites: the caller
//!   writes a *partial* record and then dies, manufacturing the torn
//!   tail that recovery must detect and drop.
//!
//! Disarmed cost is one relaxed atomic load per call site — the
//! registry is compiled in unconditionally so release binaries can be
//! crash-tested, but it never takes a lock unless armed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Exit code of the `kill` and `torn` actions, distinct from ordinary
/// failures (1) and usage errors (2) so harnesses can assert the death
/// was the injected one.
pub const KILL_EXIT_CODE: i32 = 17;

/// Prefix of every `error`-action message; [`is_failpoint_error`]
/// matches it so the serve loop can tell an injected failure from a
/// real one and shut down gracefully.
pub const ERROR_PREFIX: &str = "failpoint ";

/// The valid failpoint names, in protocol order.
pub const POINTS: [&str; 4] = ["mid-batch", "pre-fsync", "epoch-barrier", "snapshot-write"];

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Exit the process immediately with [`KILL_EXIT_CODE`].
    Kill,
    /// Return an error for the caller to propagate.
    Error,
    /// Ask the caller to write a torn (partial) record, then die.
    Torn,
}

/// What a call site should do after [`hit`] (the `kill` action never
/// returns, so it has no variant).
#[must_use]
#[derive(Debug)]
pub enum FailHit {
    /// Not armed, wrong point, or not the `nth` hit yet: carry on.
    Proceed,
    /// The `error` action fired: propagate this message.
    Error(String),
    /// The `torn` action fired: write a partial record, then call
    /// [`kill_now`]. Sites with nothing to tear treat this as `kill`.
    Torn,
}

struct ArmedPoint {
    point: String,
    nth: u64,
    action: FailAction,
    hits: u64,
    fired: bool,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ArmedPoint>> = Mutex::new(None);

fn lock() -> std::sync::MutexGuard<'static, Option<ArmedPoint>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms a failpoint from a `name[:nth][:action]` spec (`nth` ≥ 1
/// defaults to 1, action to `kill`; the two suffixes may appear in
/// either order). Replaces any previously armed point.
pub fn arm(spec: &str) -> Result<(), String> {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or("");
    if !POINTS.contains(&name) {
        return Err(format!(
            "unknown failpoint `{name}` (want one of {})",
            POINTS.join("|")
        ));
    }
    let mut nth = 1u64;
    let mut action = FailAction::Kill;
    for tok in parts {
        if let Ok(n) = tok.parse::<u64>() {
            if n == 0 {
                return Err(format!("failpoint hit count must be >= 1, got `{tok}`"));
            }
            nth = n;
        } else {
            action = match tok {
                "kill" => FailAction::Kill,
                "error" => FailAction::Error,
                "torn" => FailAction::Torn,
                other => {
                    return Err(format!(
                        "unknown failpoint action `{other}` (want kill|error|torn)"
                    ))
                }
            };
        }
    }
    *lock() = Some(ArmedPoint {
        point: name.to_string(),
        nth,
        action,
        hits: 0,
        fired: false,
    });
    ARMED.store(true, Ordering::Release);
    Ok(())
}

/// Arms from the `OSR_FAILPOINT` environment variable if it is set and
/// non-empty. Returns whether a point was armed.
pub fn arm_from_env() -> Result<bool, String> {
    match std::env::var("OSR_FAILPOINT") {
        Ok(spec) if !spec.is_empty() => arm(&spec).map(|()| true),
        _ => Ok(false),
    }
}

/// Disarms any armed failpoint (test hygiene; never needed in
/// production paths because a point fires at most once).
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *lock() = None;
}

/// Reports a hit of the named point. Disarmed (the common case) this
/// is one relaxed load. When the armed point matches and reaches its
/// `nth` hit, the action fires: `kill` exits the process here; `error`
/// and `torn` return for the caller to act on.
pub fn hit(point: &str) -> FailHit {
    if !ARMED.load(Ordering::Relaxed) {
        return FailHit::Proceed;
    }
    let mut guard = lock();
    let Some(st) = guard.as_mut() else {
        return FailHit::Proceed;
    };
    if st.fired || st.point != point {
        return FailHit::Proceed;
    }
    st.hits += 1;
    if st.hits < st.nth {
        return FailHit::Proceed;
    }
    st.fired = true;
    let action = st.action;
    drop(guard);
    match action {
        FailAction::Kill => kill_now(point),
        FailAction::Error => FailHit::Error(format!("{ERROR_PREFIX}{point}: injected failure")),
        FailAction::Torn => FailHit::Torn,
    }
}

/// [`hit`] for sites that can neither propagate an error nor tear a
/// write (e.g. the driver's epoch barrier): any firing action kills.
pub fn hit_kill(point: &str) {
    match hit(point) {
        FailHit::Proceed => {}
        FailHit::Error(_) | FailHit::Torn => kill_now(point),
    }
}

/// Dies with [`KILL_EXIT_CODE`] — the hard-crash model: stderr gets
/// one line (so harnesses can see which point fired), nothing else is
/// flushed, no destructors run beyond what `exit` implies.
pub fn kill_now(point: &str) -> ! {
    eprintln!("failpoint {point}: killing process (exit {KILL_EXIT_CODE})");
    std::process::exit(KILL_EXIT_CODE);
}

/// Whether an error message came from a failpoint's `error` action
/// (the serve loop shuts down gracefully on these instead of treating
/// them as protocol errors).
pub fn is_failpoint_error(msg: &str) -> bool {
    msg.starts_with(ERROR_PREFIX)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is process-global; these tests serialize on one
    // lock so parallel test threads cannot observe each other's armed
    // points. None of them uses the `kill` action (it would take the
    // whole test process down) — kill/torn firing is covered by the
    // subprocess tests in `osr-cli/tests/serve.rs` and the CI
    // crash-recovery step.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn specs_parse_and_validate() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(arm("mid-batch").is_ok());
        assert!(arm("pre-fsync:3").is_ok());
        assert!(arm("pre-fsync:error").is_ok());
        assert!(arm("snapshot-write:2:torn").is_ok());
        assert!(arm("torn:2:snapshot-write").is_err(), "name comes first");
        assert!(arm("bogus").is_err());
        assert!(arm("mid-batch:0").is_err());
        assert!(arm("mid-batch:1:explode").is_err());
        disarm();
    }

    #[test]
    fn error_action_fires_once_at_the_nth_hit() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm("mid-batch:2:error").unwrap();
        assert!(matches!(hit("mid-batch"), FailHit::Proceed), "hit 1 of 2");
        assert!(matches!(hit("pre-fsync"), FailHit::Proceed), "wrong point");
        match hit("mid-batch") {
            FailHit::Error(e) => assert!(is_failpoint_error(&e), "{e}"),
            other => panic!("second hit must error, got {other:?}"),
        }
        assert!(matches!(hit("mid-batch"), FailHit::Proceed), "fires once");
        disarm();
        assert!(matches!(hit("mid-batch"), FailHit::Proceed));
    }

    #[test]
    fn torn_action_returns_torn() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm("pre-fsync:1:torn").unwrap();
        assert!(matches!(hit("pre-fsync"), FailHit::Torn));
        disarm();
    }
}
