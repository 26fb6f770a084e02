//! The three benchmark workloads and the inputs each run generates.
//!
//! Every input comes from an `osr_workload` scenario and the run's
//! `--seed`; the server only ever sees the protocol lines that
//! `osr_workload::serve_script` renders from the generated instance and
//! capacity plan. The stream is split by arrival count into the three
//! phases of a round: a journaled prefix (written before the round,
//! untimed), the decide phase (socket, one line outstanding) and the
//! replay phase (stdin, unpaced).

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::ops::Range;
use std::path::Path;

use osr_model::{io as model_io, InstanceKind};
use osr_sim::CapacityPlan;
use osr_workload::{Scenario, WeightSpec};

/// The scheduler a workload serves, with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    /// §2 flow time with rejections (`flow:EPS`).
    Flow { eps: f64 },
    /// §3 weighted flow on unit speeds with the weight budget (`wflow:EPS`).
    WeightedFlow { eps: f64 },
    /// §3 weighted flow plus energy under speed scaling (`energyflow:EPS:ALPHA`).
    EnergyFlow { eps: f64, alpha: f64 },
}

impl Algo {
    /// The `--algo` spec `osr serve` and `osr run` take.
    pub fn spec(self) -> String {
        match self {
            Algo::Flow { eps } => format!("flow:{eps}"),
            Algo::WeightedFlow { eps } => format!("wflow:{eps}"),
            Algo::EnergyFlow { eps, alpha } => format!("energyflow:{eps}:{alpha}"),
        }
    }

    /// What the scheduler's objective sums.
    pub fn objective_name(self) -> &'static str {
        match self {
            Algo::Flow { .. } => "total flow time",
            Algo::WeightedFlow { .. } => "weighted flow time",
            Algo::EnergyFlow { .. } => "weighted flow time plus energy",
        }
    }
}

/// One named workload: scenario, size, scheduler and phase split.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub scenario: &'static str,
    pub kind: InstanceKind,
    pub machines: usize,
    /// Uniform weight range; `None` keeps the scenario's unit weights.
    pub weights: Option<(f64, f64)>,
    pub algo: Algo,
    /// Arrivals journaled before the round (replayed by the restart).
    pub prefix: usize,
    /// Arrivals sent over the socket one at a time.
    pub decide: usize,
    /// Arrivals written to stdin unpaced.
    pub replay: usize,
}

impl Workload {
    pub fn jobs(&self) -> usize {
        self.prefix + self.decide + self.replay
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense-m1024",
        scenario: "poisson-pareto-unrelated",
        kind: InstanceKind::FlowTime,
        machines: 1024,
        weights: None,
        algo: Algo::Flow { eps: 0.25 },
        prefix: 1000,
        decide: 1000,
        replay: 4000,
    },
    Workload {
        name: "sparse-m16384",
        scenario: "poisson-pareto-restricted",
        kind: InstanceKind::FlowEnergy,
        machines: 16384,
        weights: None,
        algo: Algo::EnergyFlow {
            eps: 0.25,
            alpha: 2.0,
        },
        prefix: 100,
        decide: 350,
        replay: 800,
    },
    Workload {
        name: "churn-m64",
        scenario: "mmpp-bimodal-related-churn:0.5",
        kind: InstanceKind::FlowEnergy,
        machines: 64,
        weights: Some((1.0, 10.0)),
        algo: Algo::WeightedFlow { eps: 0.25 },
        prefix: 10000,
        decide: 2000,
        replay: 40000,
    },
];

pub fn named(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the checker needs of one job: release, weight and its finite
/// sizes as `(machine, p_ij)`, ascending by machine.
#[derive(Debug, Clone)]
pub struct JobRow {
    pub release: f64,
    pub weight: f64,
    pub finite: Vec<(u32, f64)>,
}

impl JobRow {
    /// `p_ij`, or `None` where the job is ineligible.
    pub fn size_on(&self, machine: u32) -> Option<f64> {
        self.finite
            .binary_search_by_key(&machine, |&(i, _)| i)
            .ok()
            .map(|k| self.finite[k].1)
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    pub spec: String,
    pub machines: usize,
    /// Machines that start offline (`--offline`).
    pub offline: Vec<usize>,
    pub plan: CapacityPlan,
    pub jobs: Vec<JobRow>,
    /// The whole protocol script, newline-terminated lines.
    pub script: String,
    /// Byte ranges of the prefix, decide and replay segments of `script`.
    pub segments: [Range<usize>; 3],
    /// Lines and `arrive` lines in each segment.
    pub lines: [usize; 3],
    pub arrivals: [usize; 3],
}

impl Inputs {
    pub fn segment(&self, k: usize) -> &str {
        &self.script[self.segments[k].clone()]
    }
}

/// Generates the workload's instance and capacity plan from `seed`,
/// writes the instance (and plan, if any) where `osr run` can read
/// them, and renders the protocol script. The instance itself is
/// dropped: the checker keeps only the finite sizes.
pub fn generate(
    w: &Workload,
    seed: u64,
    inst_path: &Path,
    plan_path: &Path,
) -> Result<Inputs, String> {
    let mut sc = Scenario::named(w.scenario, w.jobs(), w.machines, seed)?;
    if let Some((lo, hi)) = w.weights {
        sc.weights = WeightSpec::Uniform { lo, hi };
    }
    let inst = sc.generate(w.kind);
    let plan = sc.capacity_plan(&inst);

    let file =
        File::create(inst_path).map_err(|e| format!("creating {}: {e}", inst_path.display()))?;
    let mut out = BufWriter::new(file);
    model_io::write_instance(&mut out, &inst).map_err(|e| format!("writing instance: {e}"))?;
    out.flush().map_err(|e| format!("writing instance: {e}"))?;
    if !plan.is_empty() {
        std::fs::write(plan_path, plan.to_csv())
            .map_err(|e| format!("writing {}: {e}", plan_path.display()))?;
    }

    let (script, offline) = osr_workload::serve_script(&inst, &plan)?;
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| JobRow {
            release: j.release,
            weight: j.weight,
            finite: j
                .sizes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_finite())
                .map(|(i, &p)| (i as u32, p))
                .collect(),
        })
        .collect();
    drop(inst);

    // Segment boundaries sit at the start of arrive line `prefix` and
    // arrive line `prefix + decide`; capacity lines go with the
    // arrivals that follow them, as the script orders them.
    let mut starts = Vec::with_capacity(2);
    let mut at = 0;
    let mut seen = 0;
    for line in script.split_inclusive('\n') {
        if line.starts_with("arrive ") {
            if seen == w.prefix || seen == w.prefix + w.decide {
                starts.push(at);
            }
            seen += 1;
        }
        at += line.len();
    }
    let [a, b] = starts[..] else {
        return Err(format!(
            "script has {seen} arrivals, fewer than the {} the phase split needs",
            w.prefix + w.decide + 1
        ));
    };
    let segments = [0..a, a..b, b..script.len()];
    let lines = segments.clone().map(|r| script[r].lines().count());
    let arrivals = segments.clone().map(|r| {
        script[r]
            .lines()
            .filter(|l| l.starts_with("arrive "))
            .count()
    });
    Ok(Inputs {
        spec: w.algo.spec(),
        machines: w.machines,
        offline,
        plan,
        jobs,
        script,
        segments,
        lines,
        arrivals,
    })
}
