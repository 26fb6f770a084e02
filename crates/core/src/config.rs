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
//!   the experiment harness run: treap queues, pruned dispatch, lazy
//!   ancestor repair, incremental capacity maintenance, chunked
//!   kernels, one shard.
//! * [`SchedulerConfig::reference`] — the simplest setting of every
//!   knob (naive queue, eager repair, the rebuild-from-scratch
//!   capacity index, scalar kernels, serial driver). The equivalence
//!   suites compare production runs against it; `Linear` dispatch is a
//!   second reference, applied on top of it, because a `Linear` run
//!   builds no index and would leave the others unexercised.
//!
//! [`SchedulerConfig::default`] reads one process default, set only by
//! [`set_default_config`] (`run_experiments --shards N` and the
//! reference-equivalence test). The knob vocabulary ([`KNOBS`],
//! [`knob_help`], `parse_*`) that CLI help text and error messages are
//! generated from lives here too, so the docs cannot drift from the
//! parser.

use std::sync::RwLock;

use osr_dstruct::{KernelMode, Propagation};

use crate::dispatch::{CapacityIndexMode, DispatchIndex};
use crate::flowtime::QueueBackend;

/// The runtime knobs shared by all three schedulers.
///
/// Embedded as the `config` field of every params struct; the params
/// structs `Deref` to it, so `params.dispatch`, `params.shards` etc.
/// keep working as plain field accesses. Every knob is result-neutral
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
    /// Which kernel layer the SoA hot loops run (`Scalar` is the
    /// bit-exact reference; `Chunked` autovectorizes).
    pub kernels: KernelMode,
    /// Requested shard count for the epoch-sharded driver (`1` is the
    /// serial loop; requests clamp to one shard per 64-machine rack).
    pub shards: usize,
}

/// The process default behind [`SchedulerConfig::default`].
static DEFAULT_CONFIG: RwLock<SchedulerConfig> = RwLock::new(SchedulerConfig::production());

/// Sets the process default every later [`SchedulerConfig::default`]
/// (and therefore every `*Params::new`) returns. Only harness `main`s
/// and tests call this; a shard count below 1 is clamped to 1.
pub fn set_default_config(mut config: SchedulerConfig) {
    config.shards = config.shards.max(1);
    *DEFAULT_CONFIG.write().unwrap_or_else(|e| e.into_inner()) = config;
}

impl Default for SchedulerConfig {
    /// The current process default: [`SchedulerConfig::production`]
    /// unless [`set_default_config`] replaced it.
    fn default() -> Self {
        *DEFAULT_CONFIG.read().unwrap_or_else(|e| e.into_inner())
    }
}

impl SchedulerConfig {
    /// The process-default configuration (alias for `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The production configuration: every knob at its fastest
    /// setting, one shard.
    pub const fn production() -> Self {
        SchedulerConfig {
            backend: QueueBackend::Treap,
            dispatch: DispatchIndex::Pruned,
            capacity_index: CapacityIndexMode::Incremental,
            propagation: Propagation::Lazy,
            kernels: KernelMode::Chunked,
            shards: 1,
        }
    }

    /// The reference configuration the equivalence tests compare
    /// production runs against: the naive pending queue, eager
    /// ancestor repair, the rebuild-from-scratch capacity index, scalar
    /// kernels and the serial driver. Dispatch stays `Pruned` so the
    /// reference index paths actually run (a `Linear` run builds no
    /// index at all); tests apply `Linear` on top as a separate case.
    pub const fn reference() -> Self {
        SchedulerConfig {
            backend: QueueBackend::Naive,
            dispatch: DispatchIndex::Pruned,
            capacity_index: CapacityIndexMode::Rebuild,
            propagation: Propagation::Eager,
            kernels: KernelMode::Scalar,
            shards: 1,
        }
    }
}

/// One row of the runtime-knob vocabulary: the flag harnesses expose,
/// its accepted values, the built-in default, and a one-line summary.
/// CLI usage text and parse-error messages are generated from these
/// rows so they cannot drift from the parsers below.
#[derive(Debug, Clone, Copy)]
pub struct KnobSpec {
    /// Canonical long flag (as spelled by `osr run`/`osr serve`).
    pub flag: &'static str,
    /// Accepted values, `|`-separated.
    pub values: &'static str,
    /// The built-in process default.
    pub default_value: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// The runtime knobs harnesses expose, in display order. Only the
/// shard count is a production choice; the reference settings of the
/// other knobs are reachable through [`SchedulerConfig::reference`]
/// only.
pub const KNOBS: [KnobSpec; 1] = [KnobSpec {
    flag: "--shards",
    values: "N (>= 1)",
    default_value: "1",
    summary: "epoch-driver shard count (results byte-identical at any N; clamps to one per 64-machine rack)",
}];

/// The serve-durability knobs (`osr serve` only), in display order.
/// Same vocabulary discipline as [`KNOBS`]: help text and parse errors
/// are generated from these rows. Unlike the runtime knobs they are
/// not result-neutral toggles — they add durability side effects — but
/// the recovery contract keeps the *schedule* byte-identical.
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

fn render_knobs(rows: &[KnobSpec], indent: &str) -> String {
    let mut out = String::new();
    let width = rows
        .iter()
        .map(|k| k.flag.len() + 1 + k.values.len())
        .max()
        .unwrap_or(0);
    for k in rows {
        let head = format!("{} {}", k.flag, k.values);
        out.push_str(&format!(
            "{indent}{head:width$}  {} [default: {}]\n",
            k.summary, k.default_value
        ));
    }
    out
}

/// Renders the knob table as indented help lines, one per knob —
/// the single source for every harness's `--help` section on runtime
/// defaults.
pub fn knob_help(indent: &str) -> String {
    render_knobs(&KNOBS, indent)
}

/// Renders the serve-durability knob table ([`SERVE_KNOBS`]) as
/// indented help lines for the `osr serve` usage section.
pub fn serve_knob_help(indent: &str) -> String {
    render_knobs(&SERVE_KNOBS, indent)
}

fn knob_err(flag: &str, got: &str) -> String {
    let spec = KNOBS
        .iter()
        .chain(SERVE_KNOBS.iter())
        .find(|k| k.flag == flag)
        .expect("flag is in a knob table");
    format!("{} must be {}, got '{got}'", spec.flag, spec.values)
}

/// Parses a `--shards` value (a positive integer).
pub fn parse_shards(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(knob_err("--shards", s)),
    }
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
        assert_eq!(r.kernels, KernelMode::Scalar);
        assert_eq!(r.shards, 1);
        // Every knob but dispatch and shards differs from production.
        assert_ne!(r.backend, p.backend);
        assert_ne!(r.capacity_index, p.capacity_index);
        assert_ne!(r.propagation, p.propagation);
        assert_ne!(r.kernels, p.kernels);
        assert_eq!((r.dispatch, r.shards), (p.dispatch, p.shards));
    }

    #[test]
    fn runtime_defaults_apply_feeds_the_constructors() {
        // The reference shares production's dispatch and shard count,
        // and every knob is result-neutral, so tests running beside
        // this one in the process observe no difference while it is
        // set.
        set_default_config(SchedulerConfig::reference());
        assert_eq!(SchedulerConfig::default(), SchedulerConfig::reference());
        assert_eq!(
            crate::FlowParams::new(0.5).config,
            SchedulerConfig::reference()
        );
        assert_eq!(
            crate::flowtime::WeightedFlowParams::new(0.5).config,
            SchedulerConfig::reference()
        );
        assert_eq!(
            crate::EnergyFlowParams::new(0.5, 2.0).config,
            SchedulerConfig::reference()
        );
        // Explicitly set fields still win over the default.
        let mut p = crate::FlowParams::new(0.5);
        p.shards = 3;
        assert_eq!(p.config.shards, 3);
        // A zero shard count clamps to the serial loop.
        set_default_config(SchedulerConfig {
            shards: 0,
            ..SchedulerConfig::production()
        });
        assert_eq!(SchedulerConfig::default().shards, 1);
        set_default_config(SchedulerConfig::production());
        assert_eq!(SchedulerConfig::new(), SchedulerConfig::production());
    }

    #[test]
    fn help_and_errors_come_from_the_same_table() {
        let help = knob_help("  ");
        for k in &KNOBS {
            assert!(help.contains(k.flag), "help misses {}", k.flag);
            assert!(help.contains(k.default_value));
        }
        // The serve-durability table feeds its parsers the same way.
        let serve_help = serve_knob_help("  ");
        for k in &SERVE_KNOBS {
            assert!(serve_help.contains(k.flag), "serve help misses {}", k.flag);
        }
        let e = parse_snap_every("lots").unwrap_err();
        assert!(e.contains("--snap-every"), "{e}");
        assert_eq!(parse_snap_every("0").unwrap(), 0);
        assert_eq!(parse_snap_every("32").unwrap(), 32);
        let e = parse_ingest_buffer("0").unwrap_err();
        assert!(e.contains("--ingest-buffer"), "{e}");
        assert_eq!(parse_ingest_buffer("64").unwrap(), 64);
        let e = parse_shards("0").unwrap_err();
        assert!(e.contains("--shards") && e.contains("N (>= 1)"), "{e}");
        assert_eq!(parse_shards("8").unwrap(), 8);
    }
}
