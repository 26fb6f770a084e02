//! CLI command implementations.
//!
//! Each command is a pure function from parsed [`Args`] to a
//! [`CmdOutput`] — a machine-readable stdout payload plus
//! informational notices that `main` routes to stderr, so piping
//! stdout always yields clean data. File writes happen only for
//! explicitly requested `--out`/`--log` paths. [`dispatch`] routes a
//! parsed command line. The two interactive commands (`serve`, `top`)
//! live in [`crate::serve`] and additionally read stdin / a unix
//! socket while running.

use std::fmt::Write as _;
use std::fs;

use osr_baselines::{flow_lower_bound, GreedyScheduler, SpeedAugScheduler};
use osr_core::bounds;
use osr_core::energyflow::{EnergyFlowParams, EnergyFlowScheduler};
use osr_core::energymin::{EnergyMinParams, EnergyMinScheduler};
use osr_core::flowtime::{WeightedFlowParams, WeightedFlowScheduler};
use osr_core::{FlowParams, FlowScheduler};
use osr_model::{io, FinishedLog, Instance, InstanceKind, Metrics};
use osr_sim::{render_gantt, validate_log, CapacityPlan, OnlineScheduler, ValidationConfig};
use osr_workload::{
    parse_failure_trace, ArrivalSpec, ChurnSpec, EnergyWorkload, FlowWorkload, MachineSpec,
    SizeSpec, TraceImport, WeightSpec,
};

use crate::args::{split_spec, Args};

/// Boolean flags (options that take no value) across all subcommands —
/// the single list `main` and the tests both register with
/// [`Args::parse`].
pub const FLAGS: &[&str] = &["gantt", "help", "once", "recover"];

/// The options (flags included) a subcommand accepts: the `--name`
/// tokens of its [`USAGE`] entry. Read from the usage text itself, so the check cannot drift from the help. Anything else
/// is an error that names the option, so a misspelled or removed flag
/// cannot silently run the default. `None` for an unknown subcommand.
fn known_options(subcommand: &str) -> Option<Vec<&'static str>> {
    let head = format!("\n  osr {subcommand} ");
    let entry = &USAGE[USAGE.find(&head)? + head.len()..];
    let entry = &entry[..entry.find("\n  osr ").unwrap_or(entry.len())];
    Some(
        entry
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|token| token.strip_prefix("--"))
            .collect(),
    )
}

/// A command's result: the stdout payload plus informational notices
/// destined for stderr. Keeping the two apart is a contract — stdout
/// stays machine-parseable (instances, logs, tables) no matter what
/// the run wants to tell the operator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CmdOutput {
    /// Machine-readable payload, printed verbatim to stdout.
    pub stdout: String,
    /// Informational notices, printed line-by-line to stderr.
    pub notices: Vec<String>,
}

impl From<String> for CmdOutput {
    fn from(stdout: String) -> Self {
        CmdOutput {
            stdout,
            notices: Vec::new(),
        }
    }
}

/// Usage text printed on errors, `osr help` and `osr --help`: the
/// static command grammar plus the serve-knob table generated from
/// [`osr_core::SERVE_KNOBS`], so the help can never drift from the
/// parsers.
pub fn usage() -> String {
    format!(
        "{USAGE}\nSERVE DURABILITY (serve only; recovery reproduces the log byte-identically):\n{}",
        osr_core::serve_knob_help("  ")
    )
}

/// Static usage text (command grammar only — [`usage`] appends the
/// generated serve-knob table).
pub const USAGE: &str = "\
osr — online non-preemptive scheduling with rejections (SPAA'18)

USAGE:
  osr gen      --kind flowtime|flowenergy|energy --n N --machines M [--seed S]
               [--from-trace FILE]   (import `release size [weight [deadline]]` rows)
               [--scenario NAME]     (named grid point
                                      `<arrivals>-<sizes>-<machines>[-churn:<rate>]`,
                                      e.g. mmpp-pareto-affinity; axes below override it)
               [--arrivals poisson:RATE|bursty:B:W:G|mmpp:ON:BURST:OFF|batch:P:G|once]
               [--sizes uniform:LO:HI|pareto:SHAPE:LO:HI|exp:MEAN|bimodal:S:L:P]
               [--machine-model identical|related:F|unrelated:LO:HI|restricted:K|affinity:G:P]
               [--weights unit|uniform:LO:HI] [--slack LO:HI] [--out FILE]
               [--churn RATE]        (elastic-pool capacity events; overrides the
                                      scenario's churn segment)
               [--capacity-out FILE] (write the churn capacity plan as a
                                      `time,machine,kind` failure trace)
               [--serve-script FILE] (write the instance+plan as an `osr serve`
                                      replay script; prints the --offline list)
  osr run      --algo SPEC --input FILE [--log FILE] [--gantt] [--alpha A]
               [--capacity FILE]     (replay a `time,machine,kind` failure trace:
                                      machines join/drain/crash mid-run —
                                      flow/wflow/energyflow only)
               SPEC: flow:EPS | wflow:EPS | energyflow:EPS:ALPHA | energymin:ALPHA
                     | greedy:spt | greedy:fifo | speedaug:EPS_S:EPS_R
  osr serve    --algo flow:EPS|wflow:EPS|energyflow:EPS:ALPHA --machines M
               [--offline I,J,..]    (machines that start outside the pool)
               [--socket PATH]       (also accept the line protocol on a
                                      unix socket; replies ok/err/stats)
               [--once]              (finish at stdin EOF instead of waiting
                                      for `shutdown`)
               [--log FILE]          (also write the final log to FILE)
               [--journal PATH]      (write-ahead event journal, fsync'd before
                                      state mutates; snapshots to PATH.snap)
               [--recover]           (replay an existing --journal before
                                      accepting new events; torn tail dropped)
               [--snap-every N]      (snapshot cadence in records; 0 disables)
               [--ingest-buffer N]   (bounded ingest channel: stdin blocks,
                                      socket lines shed `err overloaded`)
               [--failpoint SPEC]    (fault injection, point[:nth][:action])
               stdout carries exactly the final schedule log (byte-identical to the offline run over the same
               event stream). stdin/socket lines:
                 arrive <id> [@T] [w=W] <size>...   (size `inf` = ineligible)
                 join|drain|crash <machine> [@T]
                 advance <T> | stats | shutdown
  osr top      --socket PATH [--frames N] [--interval-ms T] [--retries R]
               (live ops TUI over a serve socket: queue depths, flow-time
                percentiles, reject counts by reason, redispatches, shed
                counts, and dispatch-index stats; N=0 polls until the server
                exits; transient socket failures retry R times with capped
                exponential backoff before giving up)
  osr validate --input FILE --log FILE [--model flowtime|flowenergy|energy]
               [--capacity FILE]     (check runs against the failure trace's
                                      online windows)
  osr compare  --input FILE [--eps E]
  osr bounds   [--eps E] [--alpha A]
  osr help | --help | -h
";

/// Routes a parsed command line to its implementation, after checking
/// its options against those the subcommand's usage entry lists.
/// `--help` anywhere, `-h` and `help` print the usage.
pub fn dispatch(args: &Args) -> Result<CmdOutput, String> {
    if args.flag("help") {
        return Ok(CmdOutput::from(usage()));
    }
    if let Some((sub, known)) = args.subcommand().and_then(|s| Some((s, known_options(s)?))) {
        if let Some(name) = args.unknown_option(&known) {
            return Err(format!(
                "unknown option --{name} for `osr {sub}` (see `osr help`)"
            ));
        }
    }
    match args.subcommand() {
        Some("gen") => cmd_gen(args).map(CmdOutput::from),
        Some("run") => cmd_run(args),
        Some("serve") => crate::serve::cmd_serve(args),
        Some("top") => crate::serve::cmd_top(args),
        Some("validate") => cmd_validate(args).map(CmdOutput::from),
        Some("compare") => cmd_compare(args).map(CmdOutput::from),
        Some("bounds") => cmd_bounds(args).map(CmdOutput::from),
        Some("help" | "-h") | None => Ok(CmdOutput::from(usage())),
        Some(other) => Err(format!("unknown subcommand `{other}`\n\n{}", usage())),
    }
}

fn parse_kind(s: &str) -> Result<InstanceKind, String> {
    match s {
        "flowtime" => Ok(InstanceKind::FlowTime),
        "flowenergy" => Ok(InstanceKind::FlowEnergy),
        "energy" => Ok(InstanceKind::Energy),
        other => Err(format!("unknown kind `{other}`")),
    }
}

fn parse_arrivals(spec: &str) -> Result<ArrivalSpec, String> {
    let (head, v) = split_spec(spec);
    match (head.as_str(), v.as_slice()) {
        ("poisson", [rate]) => Ok(ArrivalSpec::Poisson { rate: *rate }),
        ("bursty", [b, w, g]) => Ok(ArrivalSpec::Bursty {
            burst: *b as usize,
            within: *w,
            gap: *g,
        }),
        ("mmpp", [on, burst, off]) => {
            // Validated here so bad values surface through the error
            // path (exit 1), never the generator's asserts.
            if !(*on > 0.0 && on.is_finite()) {
                return Err(format!("mmpp on-rate must be positive, got {on}"));
            }
            if !(*burst >= 1.0 && burst.is_finite()) {
                return Err(format!("mmpp burst mean must be >= 1, got {burst}"));
            }
            if !(*off >= 0.0 && off.is_finite()) {
                return Err(format!("mmpp off mean must be non-negative, got {off}"));
            }
            Ok(ArrivalSpec::Mmpp {
                on_rate: *on,
                burst_mean: *burst,
                off_mean: *off,
            })
        }
        ("batch", [p, g]) => Ok(ArrivalSpec::Batch {
            per_batch: *p as usize,
            gap: *g,
        }),
        ("once", []) => Ok(ArrivalSpec::AllAtOnce),
        _ => Err(format!("bad arrivals spec `{spec}`")),
    }
}

fn parse_sizes(spec: &str) -> Result<SizeSpec, String> {
    let (head, v) = split_spec(spec);
    match (head.as_str(), v.as_slice()) {
        ("uniform", [lo, hi]) => Ok(SizeSpec::Uniform { lo: *lo, hi: *hi }),
        ("pareto", [shape, lo, hi]) => Ok(SizeSpec::BoundedPareto {
            shape: *shape,
            lo: *lo,
            hi: *hi,
        }),
        ("exp", [mean]) => Ok(SizeSpec::Exponential { mean: *mean }),
        ("bimodal", [s, l, p]) => Ok(SizeSpec::Bimodal {
            short: *s,
            long: *l,
            p_long: *p,
        }),
        _ => Err(format!("bad sizes spec `{spec}`")),
    }
}

fn parse_machine_model(spec: &str) -> Result<MachineSpec, String> {
    let (head, v) = split_spec(spec);
    match (head.as_str(), v.as_slice()) {
        ("identical", []) => Ok(MachineSpec::Identical),
        ("related", [f]) => Ok(MachineSpec::RelatedSpeeds { max_factor: *f }),
        ("unrelated", [lo, hi]) => Ok(MachineSpec::Unrelated {
            lo_factor: *lo,
            hi_factor: *hi,
        }),
        ("restricted", [k]) => Ok(MachineSpec::Restricted { avg_eligible: *k }),
        ("affinity", [g, p]) => {
            if *g < 1.0 {
                return Err(format!("affinity group count must be >= 1, got {g}"));
            }
            if !(0.0..=1.0).contains(p) {
                return Err(format!(
                    "affinity drop probability must be in [0,1], got {p}"
                ));
            }
            Ok(MachineSpec::Affinity {
                groups: *g as usize,
                drop_prob: *p,
            })
        }
        _ => Err(format!("bad machine-model spec `{spec}`")),
    }
}

fn parse_weights(spec: &str) -> Result<WeightSpec, String> {
    let (head, v) = split_spec(spec);
    match (head.as_str(), v.as_slice()) {
        ("unit", []) => Ok(WeightSpec::Unit),
        ("uniform", [lo, hi]) => Ok(WeightSpec::Uniform { lo: *lo, hi: *hi }),
        _ => Err(format!("bad weights spec `{spec}`")),
    }
}

/// `osr gen` — generate an instance (random workload or trace import).
pub fn cmd_gen(args: &Args) -> Result<String, String> {
    // Trace import path: --from-trace FILE replaces the random models.
    if let Some(path) = args.opt("from-trace") {
        let machines = osr_model::check_machines(args.opt_parse("machines", 1)?)?;
        let seed: u64 = args.opt_parse("seed", 1)?;
        let machine_model = match args.opt("machine-model") {
            Some(spec) => parse_machine_model(spec)?,
            None => MachineSpec::Identical,
        };
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let importer = TraceImport {
            machines,
            machine_model,
            seed,
        };
        let instance = importer.parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let out_text = io::instance_to_string(&instance);
        return if let Some(out) = args.opt("out") {
            fs::write(out, &out_text).map_err(|e| format!("writing {out}: {e}"))?;
            Ok(format!(
                "imported {} jobs ({}) from {path} to {out}\n",
                instance.len(),
                instance.kind()
            ))
        } else {
            Ok(out_text)
        };
    }

    let kind = parse_kind(args.opt("kind").unwrap_or("flowtime"))?;
    let n: usize = args.opt_parse("n", 100)?;
    let machines = osr_model::check_machines(args.opt_parse("machines", 4)?)?;
    let seed: u64 = args.opt_parse("seed", 1)?;

    // A named scenario fixes all three axes; the explicit per-axis
    // options below still override individual choices.
    let mut spec = match args.opt("scenario") {
        Some(name) => osr_workload::Scenario::named(name, n, machines, seed)?,
        None => FlowWorkload::standard(n, machines, seed),
    };
    if let Some(s) = args.opt("arrivals") {
        spec.arrivals = parse_arrivals(s)?;
    }
    if let Some(s) = args.opt("sizes") {
        spec.sizes = parse_sizes(s)?;
    }
    if let Some(s) = args.opt("machine-model") {
        spec.machine_model = parse_machine_model(s)?;
    }
    if let Some(s) = args.opt("weights") {
        spec.weights = parse_weights(s)?;
    }
    if let Some(s) = args.opt("churn") {
        let rate: f64 = s
            .parse()
            .map_err(|_| format!("bad value `{s}` for --churn"))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!("--churn rate must be finite and positive, got {s}"));
        }
        spec.churn = Some(ChurnSpec { rate });
    }
    if spec.churn.is_some() && kind == InstanceKind::Energy {
        return Err("churn applies to flow-time/flow+energy kinds only \
                    (energymin has no elastic-pool support)"
            .into());
    }
    if spec.churn.is_some() && args.opt("capacity-out").is_none() {
        return Err(
            "churn scenarios emit a capacity plan; give --capacity-out FILE to write it".into(),
        );
    }
    if spec.churn.is_none() && args.opt("capacity-out").is_some() {
        return Err("--capacity-out needs churn (a `-churn:<rate>` scenario or --churn)".into());
    }

    let instance = if kind == InstanceKind::Energy {
        let (lo, hi) = match args.opt("slack") {
            Some(s) => {
                let (_, v) = split_spec(&format!("x:{s}"));
                match v.as_slice() {
                    [lo, hi] => (*lo, *hi),
                    _ => return Err(format!("bad slack spec `{s}` (want LO:HI)")),
                }
            }
            None => (1.2, 3.0),
        };
        EnergyWorkload {
            base: spec,
            min_slack: lo,
            max_slack: hi,
        }
        .generate()
    } else {
        spec.generate(kind)
    };

    let mut note = String::new();
    let plan = if spec.churn.is_some() {
        spec.capacity_plan(&instance)
    } else {
        CapacityPlan::empty()
    };
    if let Some(path) = args.opt("capacity-out") {
        fs::write(path, plan.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        note = format!("wrote {} capacity events to {path}\n", plan.len());
    }
    if let Some(path) = args.opt("serve-script") {
        let (script, offline) = osr_workload::serve_script(&instance, &plan)?;
        fs::write(path, &script).map_err(|e| format!("writing {path}: {e}"))?;
        let offline = if offline.is_empty() {
            "none".to_string()
        } else {
            offline
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        note.push_str(&format!(
            "wrote serve replay script to {path} (initially offline machines: {offline})\n"
        ));
    }

    let text = io::instance_to_string(&instance);
    if let Some(path) = args.opt("out") {
        fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        Ok(format!(
            "wrote {} jobs on {} machines to {path}\n{note}",
            instance.len(),
            machines
        ))
    } else {
        Ok(text)
    }
}

fn load_instance(args: &Args) -> Result<Instance, String> {
    let path = args.require("input")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    io::instance_from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn config_for(instance: &Instance, speeds_vary: bool) -> ValidationConfig {
    match instance.kind() {
        InstanceKind::FlowTime if !speeds_vary => ValidationConfig::flow_time(),
        InstanceKind::FlowTime => ValidationConfig::flow_energy(),
        InstanceKind::FlowEnergy => ValidationConfig::flow_energy(),
        InstanceKind::Energy => ValidationConfig::energy(),
    }
}

/// Runs the algorithm named by `spec` on `instance`, returning the log,
/// a display name, whether speeds deviate from 1, and an optional dual
/// objective (flow algorithm only). A non-empty `capacity` plan replays
/// machine join/drain/crash events — only the three capacity-aware
/// schedulers accept one.
fn run_algo(
    spec: &str,
    instance: &Instance,
    capacity: &CapacityPlan,
) -> Result<(FinishedLog, String, bool, Option<f64>), String> {
    let reject_capacity = |ok: bool| {
        if !capacity.is_empty() && !ok {
            return Err(format!(
                "--capacity does not apply to `{spec}` (capacity-aware schedulers: \
                 flow|wflow|energyflow)"
            ));
        }
        Ok(())
    };
    let (head, v) = split_spec(spec);
    match (head.as_str(), v.as_slice()) {
        ("flow", [eps]) => {
            let sched = FlowScheduler::new(FlowParams::new(*eps))?.with_capacity(capacity.clone());
            let out = sched.run(instance);
            Ok((out.log, sched.name(), false, Some(out.dual.objective())))
        }
        ("wflow", [eps]) => {
            let sched = WeightedFlowScheduler::new(WeightedFlowParams::new(*eps))?
                .with_capacity(capacity.clone());
            let name = sched.name();
            Ok((sched.run(instance).log, name, false, None))
        }
        ("energyflow", [eps, alpha]) => {
            let sched = EnergyFlowScheduler::new(EnergyFlowParams::new(*eps, *alpha))?
                .with_capacity(capacity.clone());
            let name = sched.name();
            Ok((sched.run(instance).log, name, true, None))
        }
        ("energymin", [alpha]) => {
            reject_capacity(false)?;
            let sched = EnergyMinScheduler::new(EnergyMinParams::new(*alpha))?;
            let name = sched.name();
            Ok((sched.run(instance).log, name, true, None))
        }
        ("greedy", _) => {
            reject_capacity(false)?;
            let mut sched = match spec {
                "greedy:spt" => GreedyScheduler::ect_spt(),
                "greedy:fifo" => GreedyScheduler::ect_fifo(),
                other => return Err(format!("unknown greedy variant `{other}`")),
            };
            let name = sched.name();
            Ok((sched.schedule(instance), name, false, None))
        }
        ("speedaug", [eps_s, eps_r]) => {
            reject_capacity(false)?;
            let sched = SpeedAugScheduler::new(*eps_s, *eps_r)?;
            let name = sched.name();
            Ok((sched.run(instance).0, name, true, None))
        }
        _ => Err(format!("unknown algo spec `{spec}`\n\n{}", usage())),
    }
}

/// Loads the `--capacity` failure trace, if given (empty plan = the
/// static fixed-pool model).
fn load_capacity(args: &Args, machines: usize) -> Result<CapacityPlan, String> {
    let Some(path) = args.opt("capacity") else {
        return Ok(CapacityPlan::empty());
    };
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let plan = parse_failure_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    plan.check_machines(machines)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(plan)
}

/// `osr run` — run one scheduler on an instance.
pub fn cmd_run(args: &Args) -> Result<CmdOutput, String> {
    let instance = load_instance(args)?;
    let spec = args.opt("algo").unwrap_or("flow:0.25");
    let alpha: f64 = args.opt_parse("alpha", 2.0)?;
    let capacity = load_capacity(args, instance.machines())?;

    let (log, name, speeds_vary, dual) = run_algo(spec, &instance, &capacity)?;
    let config = config_for(&instance, speeds_vary).with_capacity(capacity.clone());
    let report = validate_log(&instance, &log, &config);
    if !report.is_valid() {
        return Err(format!(
            "schedule failed validation: {}",
            report
                .errors
                .first()
                .map(|e| e.to_string())
                .unwrap_or_default()
        ));
    }
    let metrics = Metrics::compute(&instance, &log, alpha);

    let mut out = String::new();
    let _ = writeln!(out, "algorithm      : {name}");
    let _ = writeln!(
        out,
        "jobs           : {} ({} completed, {} rejected)",
        instance.len(),
        metrics.flow.completed,
        metrics.flow.rejected
    );
    let _ = writeln!(out, "flow (served)  : {:.3}", metrics.flow.flow_served);
    let _ = writeln!(out, "flow (all)     : {:.3}", metrics.flow.flow_all);
    let _ = writeln!(
        out,
        "weighted flow  : {:.3}",
        metrics.flow.weighted_flow_served
    );
    let _ = writeln!(out, "energy (α={alpha}) : {:.3}", metrics.energy.total());
    let _ = writeln!(out, "makespan       : {:.3}", metrics.flow.makespan);
    let _ = writeln!(
        out,
        "rejected frac  : {:.4} (weight {:.4})",
        metrics.flow.rejected_fraction(),
        metrics.flow.rejected_weight_fraction()
    );
    if !capacity.is_empty() {
        let lost = log
            .rejections()
            .filter(|(_, r)| r.reason == osr_model::RejectReason::MachineLost)
            .count();
        let _ = writeln!(
            out,
            "capacity       : {} events, {} redispatches, {} machine-lost",
            capacity.len(),
            log.total_redispatches(),
            lost
        );
    }
    if let Some(d) = dual {
        let lb = flow_lower_bound(&instance, Some(d));
        let _ = writeln!(
            out,
            "certified LB   : {:.3} → ratio ≤ {:.3}",
            lb.value,
            metrics.flow.flow_all / lb.value
        );
    }
    if args.flag("gantt") {
        let _ = writeln!(out, "\n{}", render_gantt(&instance, &log, 78));
    }
    if let Some(path) = args.opt("log") {
        fs::write(path, io::log_to_string(&log)).map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(out, "log written to {path}");
    }
    Ok(CmdOutput::from(out))
}

/// `osr validate` — validate a schedule log against its instance.
pub fn cmd_validate(args: &Args) -> Result<String, String> {
    let instance = load_instance(args)?;
    let log_path = args.require("log")?;
    let text = fs::read_to_string(log_path).map_err(|e| format!("reading {log_path}: {e}"))?;
    let log = io::log_from_str(&text).map_err(|e| format!("{log_path}: {e}"))?;
    let config = match args.opt("model") {
        Some("flowtime") | None => ValidationConfig::flow_time(),
        Some("flowenergy") => ValidationConfig::flow_energy(),
        Some("energy") => ValidationConfig::energy(),
        Some(other) => return Err(format!("unknown model `{other}`")),
    };
    let config = config.with_capacity(load_capacity(args, instance.machines())?);
    let report = validate_log(&instance, &log, &config);
    if report.is_valid() {
        Ok(format!(
            "VALID — {} completed, {} rejected, all invariants hold\n",
            report.completed, report.rejected
        ))
    } else {
        let mut out = format!("INVALID — {} violation(s):\n", report.errors.len());
        for e in report.errors.iter().take(10) {
            let _ = writeln!(out, "  - {e}");
        }
        Err(out)
    }
}

/// `osr compare` — run the standard policy lineup on one instance.
pub fn cmd_compare(args: &Args) -> Result<String, String> {
    let instance = load_instance(args)?;
    if instance.kind() == InstanceKind::Energy {
        return Err(
            "compare runs flow-time policies; energy instances need `osr run --algo energymin:A`"
                .into(),
        );
    }
    let eps: f64 = args.opt_parse("eps", 0.25)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12} {:>9} {:>9}",
        "policy", "flow(served)", "flow(all)", "rejected", "ratio/LB"
    );

    // Certified LB from the paper's algorithm.
    let flow_out = FlowScheduler::new(FlowParams::new(eps))?.run(&instance);
    let lb = flow_lower_bound(&instance, Some(flow_out.dual.objective())).value;

    let specs = [
        format!("flow:{eps}"),
        "greedy:spt".to_string(),
        "greedy:fifo".to_string(),
        format!("speedaug:{eps}:{eps}"),
    ];
    for spec in &specs {
        let (log, name, speeds_vary, _) = run_algo(spec, &instance, &CapacityPlan::empty())?;
        let report = validate_log(&instance, &log, &config_for(&instance, speeds_vary));
        if !report.is_valid() {
            return Err(format!("{name}: invalid schedule"));
        }
        let m = Metrics::compute(&instance, &log, 2.0);
        let _ = writeln!(
            out,
            "{:<28} {:>12.2} {:>12.2} {:>9} {:>9.3}",
            name,
            m.flow.flow_served,
            m.flow.flow_all,
            m.flow.rejected,
            m.flow.flow_all / lb
        );
    }
    let _ = writeln!(out, "\ncertified lower bound on OPT: {lb:.2}");
    Ok(out)
}

/// `osr bounds` — print the paper's bounds for given parameters.
pub fn cmd_bounds(args: &Args) -> Result<String, String> {
    let eps: f64 = args.opt_parse("eps", 0.25)?;
    let alpha: f64 = args.opt_parse("alpha", 2.0)?;
    let mut out = String::new();
    let _ = writeln!(out, "parameters: eps = {eps}, alpha = {alpha}\n");
    let _ = writeln!(out, "Theorem 1 (flow-time):");
    let _ = writeln!(
        out,
        "  competitive ratio ≤ {:.3}",
        bounds::flowtime_competitive_bound(eps)
    );
    let _ = writeln!(
        out,
        "  rejected jobs     ≤ {:.3} · n",
        bounds::flowtime_rejection_budget(eps)
    );
    let _ = writeln!(out, "Theorem 2 (weighted flow + energy):");
    let _ = writeln!(
        out,
        "  competitive ratio ≤ {:.3}",
        bounds::energyflow_competitive_bound(eps, alpha)
    );
    let _ = writeln!(out, "  rejected weight   ≤ {eps:.3} · W");
    let _ = writeln!(out, "Theorem 3 (energy with deadlines):");
    let _ = writeln!(
        out,
        "  competitive ratio ≤ α^α = {:.3}",
        bounds::energymin_competitive_bound(alpha)
    );
    let _ = writeln!(
        out,
        "Lemma 2 lower bound: ≥ (α/9)^α = {:.5}",
        bounds::energymin_lower_bound(alpha)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from), FLAGS).unwrap()
    }

    #[test]
    fn gen_to_stdout_produces_parseable_instance() {
        let out = cmd_gen(&args("gen --kind flowtime --n 20 --machines 2 --seed 5")).unwrap();
        let inst = io::instance_from_str(&out).unwrap();
        assert_eq!(inst.len(), 20);
        assert_eq!(inst.machines(), 2);
    }

    #[test]
    fn gen_energy_kind_has_deadlines() {
        let out = cmd_gen(&args(
            "gen --kind energy --n 10 --machines 1 --slack 1.5:2.5",
        ))
        .unwrap();
        let inst = io::instance_from_str(&out).unwrap();
        assert!(inst.jobs().iter().all(|j| j.deadline.is_some()));
    }

    #[test]
    fn gen_rejects_bad_specs() {
        assert!(cmd_gen(&args("gen --kind nope")).is_err());
        assert!(cmd_gen(&args("gen --sizes wat:1")).is_err());
        assert!(cmd_gen(&args("gen --arrivals poisson")).is_err());
        assert!(cmd_gen(&args("gen --machine-model related")).is_err());
        assert!(cmd_gen(&args("gen --scenario warp-pareto-identical")).is_err());
        // Out-of-range values for the new tokens are errors, not the
        // generator's asserts.
        assert!(cmd_gen(&args("gen --arrivals mmpp:0:5:5")).is_err());
        assert!(cmd_gen(&args("gen --arrivals mmpp:4:0.5:5")).is_err());
        assert!(cmd_gen(&args("gen --arrivals mmpp:4:5:-1")).is_err());
        assert!(cmd_gen(&args("gen --machine-model affinity:0:0.1")).is_err());
        assert!(cmd_gen(&args("gen --machine-model affinity:2:1.5")).is_err());
    }

    #[test]
    fn gen_scenario_resolves_named_grid_points() {
        let out = cmd_gen(&args(
            "gen --scenario mmpp-pareto-affinity --n 200 --machines 8 --seed 3",
        ))
        .unwrap();
        let inst = io::instance_from_str(&out).unwrap();
        assert_eq!(inst.len(), 200);
        assert_eq!(inst.machines(), 8);
        // Affinity restricts eligibility; the restriction must survive
        // serialization (`inf` entries).
        assert!(inst
            .jobs()
            .iter()
            .any(|j| j.sizes.iter().any(|p| !p.is_finite())));
        // Same scenario, same seed → identical output text.
        let again = cmd_gen(&args(
            "gen --scenario mmpp-pareto-affinity --n 200 --machines 8 --seed 3",
        ))
        .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn gen_scenario_axis_overrides_apply() {
        // --machine-model beats the scenario's machine token: no inf
        // entries survive when overridden to identical.
        let out = cmd_gen(&args(
            "gen --scenario poisson-uniform-restricted --machine-model identical --n 50 --machines 4",
        ))
        .unwrap();
        let inst = io::instance_from_str(&out).unwrap();
        assert!(inst
            .jobs()
            .iter()
            .all(|j| j.sizes.iter().all(|p| p.is_finite())));
    }

    #[test]
    fn gen_new_spec_tokens_parse() {
        let out = cmd_gen(&args(
            "gen --arrivals mmpp:4:16:20 --machine-model affinity:2:0 --n 40 --machines 4",
        ))
        .unwrap();
        let inst = io::instance_from_str(&out).unwrap();
        assert_eq!(inst.len(), 40);
        // drop_prob 0 → every job eligible somewhere, but only within
        // its rack (2 of 4 machines).
        for j in inst.jobs() {
            assert_eq!(j.sizes.iter().filter(|p| p.is_finite()).count(), 2);
        }
    }

    #[test]
    fn run_and_validate_round_trip_through_files() {
        let dir = std::env::temp_dir().join(format!("osr-cli-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let log_path = dir.join("log.csv");

        let text = cmd_gen(&args("gen --kind flowtime --n 30 --machines 2 --seed 9")).unwrap();
        fs::write(&inst_path, text).unwrap();

        let run_out = cmd_run(&args(&format!(
            "run --algo flow:0.25 --input {} --log {}",
            inst_path.display(),
            log_path.display()
        )))
        .unwrap();
        assert!(run_out.stdout.contains("certified LB"));
        assert!(run_out.stdout.contains("log written"));

        let val_out = cmd_validate(&args(&format!(
            "validate --input {} --log {} --model flowtime",
            inst_path.display(),
            log_path.display()
        )))
        .unwrap();
        assert!(val_out.starts_with("VALID"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_lists_all_policies() {
        let dir = std::env::temp_dir().join(format!("osr-cli-cmp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let text = cmd_gen(&args("gen --kind flowtime --n 40 --machines 2 --seed 3")).unwrap();
        fs::write(&inst_path, text).unwrap();
        let out = cmd_compare(&args(&format!(
            "compare --input {} --eps 0.3",
            inst_path.display()
        )))
        .unwrap();
        assert!(out.contains("spaa18-flow"));
        assert!(out.contains("greedy"));
        assert!(out.contains("esa16-speedaug"));
        assert!(out.contains("certified lower bound"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_refuses_energy_instances() {
        let dir = std::env::temp_dir().join(format!("osr-cli-cmpe-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let text = cmd_gen(&args("gen --kind energy --n 5 --machines 1")).unwrap();
        fs::write(&inst_path, text).unwrap();
        let err = cmd_compare(&args(&format!("compare --input {}", inst_path.display())));
        assert!(err.is_err());
        assert!(err.unwrap_err().contains("energymin"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_from_trace_imports_rows() {
        let dir = std::env::temp_dir().join(format!("osr-cli-trace-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("jobs.trace");
        fs::write(&trace_path, "# release size weight\n0 2 5\n1 3 1\n").unwrap();
        let out = cmd_gen(&args(&format!(
            "gen --from-trace {} --machines 2 --machine-model unrelated:1:3",
            trace_path.display()
        )))
        .unwrap();
        let inst = io::instance_from_str(&out).unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.machines(), 2);
        assert_eq!(inst.jobs()[0].weight, 5.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounds_prints_all_theorems() {
        let out = cmd_bounds(&args("bounds --eps 0.5 --alpha 3")).unwrap();
        assert!(out.contains("Theorem 1"));
        assert!(out.contains("18.000")); // 2(1.5/0.5)² = 18
        assert!(out.contains("27.000")); // 3³
        assert!(out.contains("Lemma 2"));
    }

    #[test]
    fn dispatch_routes_and_help_works() {
        let help = dispatch(&args("help")).unwrap().stdout;
        assert!(help.contains("USAGE"));
        assert!(help.contains("osr serve"));
        assert!(help.contains("osr top"));
        // The serve-durability section is generated from the shared
        // table.
        assert!(help.contains("SERVE DURABILITY"), "{help}");
        for k in &osr_core::SERVE_KNOBS {
            assert!(help.contains(k.flag), "help misses {}", k.flag);
        }
        assert!(dispatch(&args("nonsense")).is_err());
        assert!(dispatch(&args("bounds")).is_ok());
        // `--help` and `-h` print the same usage as `osr help`, with or
        // without a subcommand.
        for line in ["--help", "-h", "run --help", "help"] {
            assert_eq!(dispatch(&args(line)).unwrap().stdout, help, "{line}");
        }
        // The accepted options come from the usage text; every option
        // the serve benchmark and CI pass must be among them.
        let known = |sub: &str, want: &[&str]| {
            let got = known_options(sub).unwrap();
            for o in want {
                assert!(got.contains(o), "`osr {sub}` does not accept --{o}");
            }
        };
        known(
            "run",
            &["algo", "input", "log", "capacity", "gantt", "alpha"],
        );
        known(
            "serve",
            &[
                "algo",
                "machines",
                "offline",
                "journal",
                "recover",
                "socket",
                "once",
                "snap-every",
                "failpoint",
                "ingest-buffer",
                "log",
            ],
        );
        known(
            "gen",
            &["n", "kind", "serve-script", "capacity-out", "from-trace"],
        );
        known("top", &["socket", "frames", "interval-ms", "retries"]);
        for sub in ["run", "serve", "validate"] {
            assert!(!known_options(sub).unwrap().contains(&"shards"), "{sub}");
        }
        assert!(known_options("nonsense").is_none());
        let err = dispatch(&args("bounds --epsilon 0.5")).unwrap_err();
        assert!(err.contains("unknown option --epsilon"), "{err}");
        let err = dispatch(&args("nonsense --x 1")).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
    }

    #[test]
    fn run_energymin_on_energy_instance() {
        let dir = std::env::temp_dir().join(format!("osr-cli-em-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let text = cmd_gen(&args("gen --kind energy --n 15 --machines 1 --seed 2")).unwrap();
        fs::write(&inst_path, text).unwrap();
        let out = cmd_run(&args(&format!(
            "run --algo energymin:2.0 --input {} --alpha 2.0",
            inst_path.display()
        )))
        .unwrap();
        assert!(out.stdout.contains("0 rejected"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_backend_options_report_bad_values_and_misuse() {
        let dir = std::env::temp_dir().join(format!("osr-cli-bkerr-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let text = cmd_gen(&args("gen --kind flowtime --n 10 --machines 2 --seed 1")).unwrap();
        fs::write(&inst_path, text).unwrap();
        let run = |algo: &str, extra: &str| {
            dispatch(&args(&format!(
                "run --algo {algo} --input {} {extra}",
                inst_path.display()
            )))
        };
        // The removed runtime knobs are unknown options: each error
        // names its option.
        for (extra, needle) in [
            ("--queue-backend naive", "unknown option --queue-backend"),
            ("--event-backend pairing", "unknown option --event-backend"),
            ("--dispatch-index linear", "unknown option --dispatch-index"),
            ("--propagation eager", "unknown option --propagation"),
            (
                "--capacity-index rebuild",
                "unknown option --capacity-index",
            ),
            ("--kernels scalar", "unknown option --kernels"),
            ("--shard 4", "unknown option --shard"),
        ] {
            let err = run("flow:0.25", extra).unwrap_err();
            assert!(err.contains(needle), "{extra}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// `m` past the u32 machine ids is refused by every reader of it
    /// (`gen --machines`, `serve --machines`, an instance header under
    /// `run`) before anything is allocated per machine.
    #[test]
    fn machine_counts_past_the_u32_ids_are_refused() {
        let dir = std::env::temp_dir().join(format!("osr-cli-huge-m-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.csv");
        fs::write(&inst, "# osr-instance v1 kind=flowtime m=1000000000000\n").unwrap();
        for line in [
            "gen --kind flowtime --n 1 --machines 1000000000000".to_string(),
            "gen --from-trace missing.csv --machines 1000000000000".to_string(),
            "serve --algo flow:0.25 --machines 1000000000000 --once".to_string(),
            format!("run --algo flow:0.25 --input {}", inst.display()),
        ] {
            let err = dispatch(&args(&line)).unwrap_err();
            assert!(err.contains("exceeds the u32 machine ids"), "{line}: {err}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_and_serve_reject_the_removed_shards_flag() {
        let dir = std::env::temp_dir().join(format!("osr-cli-shards-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst = dir.join("inst.csv");
        fs::write(
            &inst,
            cmd_gen(&args("gen --kind flowtime --n 10 --machines 80 --seed 1")).unwrap(),
        )
        .unwrap();
        // The driver is serial, so `--shards` is an unknown option on
        // every algorithm, never silently accepted.
        for algo in ["flow:0.25", "wflow:0.25", "energyflow:0.5:2", "greedy:spt"] {
            let line = format!("run --algo {algo} --input {} --shards 2", inst.display());
            let err = dispatch(&args(&line)).unwrap_err();
            assert!(err.contains("unknown option --shards"), "{algo}: {err}");
        }
        // `serve` refuses it before reading any input.
        let err = dispatch(&args(
            "serve --algo flow:0.25 --machines 2 --once --shards 2",
        ))
        .unwrap_err();
        assert!(err.contains("unknown option --shards"), "{err}");
        assert!(!usage().contains("shards"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_churn_writes_capacity_plan_and_run_replays_it() {
        let dir = std::env::temp_dir().join(format!("osr-cli-churn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let cap_path = dir.join("failures.csv");
        let script_path = dir.join("trace.script");

        // Churn via the scenario grammar's 4th segment; the plan goes
        // to --capacity-out as a replayable failure trace, and
        // --serve-script records the same run in the serve protocol.
        let gen_out = cmd_gen(&args(&format!(
            "gen --scenario poisson-uniform-identical-churn:0.5 --n 120 --machines 6 \
             --seed 7 --out {} --capacity-out {} --serve-script {}",
            inst_path.display(),
            cap_path.display(),
            script_path.display()
        )))
        .unwrap();
        assert!(gen_out.contains("capacity events"), "{gen_out}");
        assert!(gen_out.contains("serve replay script"), "{gen_out}");
        let plan_text = fs::read_to_string(&cap_path).unwrap();
        assert!(plan_text.starts_with("time,machine,kind"), "{plan_text}");
        let script = fs::read_to_string(&script_path).unwrap();
        assert!(script.contains("arrive 0 "), "{script}");
        assert!(
            script.contains("join") || script.contains("drain") || script.contains("crash"),
            "churn plan must appear in the script: {script}"
        );

        // The instance is byte-identical to the churn-free scenario —
        // churn draws from its own seed stream.
        let plain = cmd_gen(&args(
            "gen --scenario poisson-uniform-identical --n 120 --machines 6 --seed 7",
        ))
        .unwrap();
        assert_eq!(plain, fs::read_to_string(&inst_path).unwrap());

        // Replay through all three capacity-aware schedulers (the
        // incremental index's identity with the rebuild reference is
        // locked by osr-core's churn tests and `reference_equivalence`).
        for algo in ["flow:0.25", "wflow:0.25", "energyflow:0.25:2"] {
            let out = cmd_run(&args(&format!(
                "run --algo {algo} --input {} --capacity {}",
                inst_path.display(),
                cap_path.display()
            )))
            .unwrap();
            assert!(
                out.stdout.contains("capacity       :"),
                "{algo}: {}",
                out.stdout
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_checks_capacity_windows() {
        let dir = std::env::temp_dir().join(format!("osr-cli-capval-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let cap_path = dir.join("failures.csv");
        let log_path = dir.join("log.csv");
        fs::write(
            &inst_path,
            cmd_gen(&args("gen --kind flowtime --n 60 --machines 4 --seed 13")).unwrap(),
        )
        .unwrap();
        fs::write(&cap_path, "time,machine,kind\n2.0,1,crash\n5.0,1,join\n").unwrap();
        cmd_run(&args(&format!(
            "run --algo flow:0.25 --input {} --capacity {} --log {}",
            inst_path.display(),
            cap_path.display(),
            log_path.display()
        )))
        .unwrap();
        let out = cmd_validate(&args(&format!(
            "validate --input {} --log {} --capacity {}",
            inst_path.display(),
            log_path.display(),
            cap_path.display()
        )))
        .unwrap();
        assert!(out.starts_with("VALID"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capacity_misuse_is_an_error() {
        let dir = std::env::temp_dir().join(format!("osr-cli-caperr-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let cap_path = dir.join("failures.csv");
        fs::write(
            &inst_path,
            cmd_gen(&args("gen --kind flowtime --n 10 --machines 2 --seed 1")).unwrap(),
        )
        .unwrap();
        fs::write(&cap_path, "1.0,1,crash\n").unwrap();
        // Capacity-blind schedulers refuse a plan.
        let err = cmd_run(&args(&format!(
            "run --algo greedy:spt --input {} --capacity {}",
            inst_path.display(),
            cap_path.display()
        )))
        .unwrap_err();
        assert!(err.contains("--capacity does not apply"), "{err}");
        // Out-of-range machine ids are caught before the run.
        fs::write(&cap_path, "1.0,9,crash\n").unwrap();
        let err = cmd_run(&args(&format!(
            "run --algo flow:0.25 --input {} --capacity {}",
            inst_path.display(),
            cap_path.display()
        )))
        .unwrap_err();
        assert!(err.contains("machine 9"), "{err}");
        // Churn/capacity-out misuse.
        assert!(cmd_gen(&args("gen --n 10 --machines 2 --churn 0.5")).is_err());
        assert!(cmd_gen(&args(
            "gen --n 10 --machines 2 --churn -1 --capacity-out /tmp/x"
        ))
        .is_err());
        assert!(cmd_gen(&args("gen --n 10 --machines 2 --capacity-out /tmp/x")).is_err());
        assert!(cmd_gen(&args(
            "gen --kind energy --n 10 --machines 2 --churn 0.5 --capacity-out /tmp/x"
        ))
        .is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_unknown_algo() {
        let dir = std::env::temp_dir().join(format!("osr-cli-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.csv");
        let text = cmd_gen(&args("gen --n 5 --machines 1")).unwrap();
        fs::write(&inst_path, text).unwrap();
        let err = cmd_run(&args(&format!(
            "run --algo quantum:1 --input {}",
            inst_path.display()
        )));
        assert!(err.is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
