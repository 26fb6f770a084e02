//! Unified runtime configuration for the three schedulers.
//!
//! Every params struct ([`crate::FlowParams`],
//! [`crate::flowtime::WeightedFlowParams`], [`crate::EnergyFlowParams`])
//! embeds one [`SchedulerConfig`] (`params.config`). All of its knobs
//! are **result-neutral**: any combination produces byte-identical
//! schedules. They trade constant factors only, and each one is either
//! a production choice or a test reference:
//!
//! * [`SchedulerConfig::production`] — what the CLI, the serve loop and
//!   the experiment harness run, and what [`SchedulerConfig::default`]
//!   returns: treap queues, pruned dispatch, lazy ancestor repair,
//!   incremental capacity maintenance.
//! * [`SchedulerConfig::reference`] — the simplest setting of every
//!   knob (naive queue, eager repair, the rebuild-from-scratch
//!   capacity index). The equivalence suites compare production runs
//!   against it; `Linear` dispatch is a second reference, applied on
//!   top of it, because a `Linear` run builds no index and would leave
//!   the others unexercised.
//!
//! None of these knobs has a CLI flag. The serve-durability vocabulary
//! ([`SERVE_KNOBS`], [`serve_knob_help`], `parse_*`) that `osr serve`'s
//! help text and error messages are generated from lives here too, so
//! the docs cannot drift from the parser.

use osr_dstruct::Propagation;

use crate::dispatch::{CapacityIndexMode, DispatchIndex};
use crate::flowtime::QueueBackend;

/// The runtime knobs shared by all three schedulers.
///
/// Embedded as the `config` field of every params struct; the params
/// structs `Deref` to it, so `params.dispatch`, `params.propagation`
/// etc. keep working as plain field accesses. Every knob is result-neutral
/// (schedules are byte-identical across all settings); see the field
/// docs for what each one trades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Pending-queue backend (consulted by the §2 flow-time scheduler
    /// only; the weighted and energy variants keep density-sorted
    /// `Vec` queues).
    pub backend: QueueBackend,
    /// Dispatch argmin strategy (`Linear` is the reference scan).
    pub dispatch: DispatchIndex,
    /// How the pruned dispatch index tracks capacity churn
    /// (`Rebuild` is the reference).
    pub capacity_index: CapacityIndexMode,
    /// Ancestor-propagation mode of the tournament dispatch index
    /// (`Eager` is the reference; `Lazy` batches repairs).
    pub propagation: Propagation,
}

impl Default for SchedulerConfig {
    /// [`SchedulerConfig::production`].
    fn default() -> Self {
        Self::production()
    }
}

impl SchedulerConfig {
    /// The production configuration: every knob at its fastest
    /// setting.
    pub const fn production() -> Self {
        SchedulerConfig {
            backend: QueueBackend::Treap,
            dispatch: DispatchIndex::Pruned,
            capacity_index: CapacityIndexMode::Incremental,
            propagation: Propagation::Lazy,
        }
    }

    /// The reference configuration the equivalence tests compare
    /// production runs against: the naive pending queue, eager
    /// ancestor repair and the rebuild-from-scratch capacity index.
    /// Dispatch stays `Pruned` so the reference index paths actually
    /// run (a `Linear` run builds no index at all); tests apply
    /// `Linear` on top as a separate case.
    pub const fn reference() -> Self {
        SchedulerConfig {
            backend: QueueBackend::Naive,
            dispatch: DispatchIndex::Pruned,
            capacity_index: CapacityIndexMode::Rebuild,
            propagation: Propagation::Eager,
        }
    }
}

/// One row of the serve-knob vocabulary: the flag `osr serve`
/// exposes, its accepted values, the built-in default, and a one-line
/// summary. Usage text and parse-error messages are generated from
/// these rows so they cannot drift from the parsers below.
#[derive(Debug, Clone, Copy)]
pub struct KnobSpec {
    /// Canonical long flag (as spelled by `osr serve`).
    pub flag: &'static str,
    /// Accepted values, `|`-separated.
    pub values: &'static str,
    /// The built-in default.
    pub default_value: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The serve-durability knobs (`osr serve` only), in display order.
/// They are not result-neutral toggles — they add durability side
/// effects — but the recovery contract keeps the *schedule*
/// byte-identical.
pub const SERVE_KNOBS: [KnobSpec; 5] = [
    KnobSpec {
        flag: "--journal",
        values: "PATH",
        default_value: "off",
        summary: "write-ahead event journal (fsync'd before state mutates; sidecar PATH.snap)",
    },
    KnobSpec {
        flag: "--recover",
        values: "",
        default_value: "off",
        summary: "replay an existing --journal (torn tail dropped) before accepting new events",
    },
    KnobSpec {
        flag: "--snap-every",
        values: "N (0 disables)",
        default_value: "32",
        summary: "snapshot cadence in journaled records (cursor cross-check, not state dump)",
    },
    KnobSpec {
        flag: "--ingest-buffer",
        values: "N (>= 1)",
        default_value: "1024",
        summary: "ingest channel depth and largest coalesced burst (stdin blocks, socket lines shed `err overloaded`)",
    },
    KnobSpec {
        flag: "--failpoint",
        values: "point[:nth][:action]",
        default_value: "off",
        summary: "arm a fault-injection point (mid-batch|pre-fsync|epoch-barrier|snapshot-write; kill|error|torn)",
    },
];

/// Renders the serve-durability knob table ([`SERVE_KNOBS`]) as
/// indented help lines for the `osr serve` usage section.
pub fn serve_knob_help(indent: &str) -> String {
    let mut out = String::new();
    let width = SERVE_KNOBS
        .iter()
        .map(|k| k.flag.len() + 1 + k.values.len())
        .max()
        .unwrap_or(0);
    for k in &SERVE_KNOBS {
        let head = format!("{} {}", k.flag, k.values);
        out.push_str(&format!(
            "{indent}{head:width$}  {} [default: {}]\n",
            k.summary, k.default_value
        ));
    }
    out
}

fn knob_err(flag: &str, got: &str) -> String {
    let spec = SERVE_KNOBS
        .iter()
        .find(|k| k.flag == flag)
        .expect("flag is in the knob table");
    format!("{} must be {}, got '{got}'", spec.flag, spec.values)
}

/// Parses a `--snap-every` value (a non-negative integer; `0` disables
/// periodic snapshots).
pub fn parse_snap_every(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| knob_err("--snap-every", s))
}

/// Parses an `--ingest-buffer` value (a positive integer).
pub fn parse_ingest_buffer(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(knob_err("--ingest-buffer", s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sets_every_reference_knob() {
        let p = SchedulerConfig::production();
        let r = SchedulerConfig::reference();
        assert_eq!(r.backend, QueueBackend::Naive);
        assert_eq!(r.dispatch, DispatchIndex::Pruned);
        assert_eq!(r.capacity_index, CapacityIndexMode::Rebuild);
        assert_eq!(r.propagation, Propagation::Eager);
        // Every knob but dispatch differs from production.
        assert_ne!(r.backend, p.backend);
        assert_ne!(r.capacity_index, p.capacity_index);
        assert_ne!(r.propagation, p.propagation);
        assert_eq!(r.dispatch, p.dispatch);
    }

    #[test]
    fn runtime_defaults_apply_feeds_the_constructors() {
        // Every constructor starts from production; explicitly set
        // fields win.
        assert_eq!(SchedulerConfig::default(), SchedulerConfig::production());
        assert_eq!(
            crate::FlowParams::new(0.5).config,
            SchedulerConfig::production()
        );
        assert_eq!(
            crate::flowtime::WeightedFlowParams::new(0.5).config,
            SchedulerConfig::production()
        );
        assert_eq!(
            crate::EnergyFlowParams::new(0.5, 2.0).config,
            SchedulerConfig::production()
        );
        let mut p = crate::FlowParams::new(0.5);
        p.propagation = Propagation::Eager;
        assert_eq!(p.config.propagation, Propagation::Eager);
    }

    #[test]
    fn help_and_errors_come_from_the_same_table() {
        let serve_help = serve_knob_help("  ");
        for k in &SERVE_KNOBS {
            assert!(serve_help.contains(k.flag), "serve help misses {}", k.flag);
            assert!(serve_help.contains(k.default_value));
        }
        let e = parse_snap_every("lots").unwrap_err();
        assert!(e.contains("--snap-every"), "{e}");
        assert_eq!(parse_snap_every("0").unwrap(), 0);
        assert_eq!(parse_snap_every("32").unwrap(), 32);
        let e = parse_ingest_buffer("0").unwrap_err();
        assert!(
            e.contains("--ingest-buffer") && e.contains("N (>= 1)"),
            "{e}"
        );
        assert_eq!(parse_ingest_buffer("64").unwrap(), 64);
    }
}
