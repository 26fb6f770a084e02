//! Golden logs for the queue-based baselines: the greedy ECT+SPT and
//! ECT+FIFO schedulers, Lemma 1's above-mean immediate-rejection
//! policy, and the ESA'16 speed-augmentation regime.
//!
//! Each configuration runs on three instances:
//!
//! * `unrelated` — a seeded Poisson/Pareto instance on 4 unrelated
//!   machines;
//! * `bursty` — a seeded bursty bimodal instance on 2 unrelated
//!   machines, congested enough that the speed-aug Rule 1 and the
//!   above-mean gate both fire (asserted below, so the golden files
//!   keep covering both paths);
//! * `ineligible` — a hand-built instance with restricted rows, an ECT
//!   tie (job 0 goes to the lower machine index) and one all-`inf` row,
//!   which the greedy configurations reject as `Ineligible` and the
//!   above-mean gate rejects as `Immediate` before any eligibility
//!   check.
//!
//! A golden file holds the schedule log (`osr_model::io::log_to_string`)
//! followed by the decision trace, one `Debug`-formatted event per line
//! (`f64` `Debug` is the shortest round-trip form, so every time, λ and
//! speed is pinned to the bit).
//!
//! # Recipe
//!
//! The files under `tests/golden/baselines/` were recorded from the
//! hand-written per-baseline event loops at commit `f6f3e89`, before
//! the baselines moved onto `osr_sim::drive`: in this file, replace the
//! body of `assert_golden` with
//! `std::fs::write(golden_path(name), actual).unwrap()`, run
//! `cargo test --test baseline_golden`, then restore the comparison. Re-record only for an intended schedule change, and say
//! so in the change log.

use online_sched_rejection::prelude::*;
use osr_model::{io::log_to_string, FinishedLog};
use osr_workload::Scenario;

type Run = fn(&Instance) -> (FinishedLog, DecisionTrace);

/// The four configurations under lock, by golden-file prefix.
const CONFIGS: [(&str, Run); 4] = [
    ("ect_spt", |i| GreedyScheduler::ect_spt().run(i)),
    ("ect_fifo", |i| GreedyScheduler::ect_fifo().run(i)),
    ("above_mean", |i| {
        ImmediateRejectScheduler::above_mean(0.3, 4.0).run(i)
    }),
    ("speedaug", |i| {
        SpeedAugScheduler::new(0.2, 0.2).unwrap().run(i)
    }),
];

fn unrelated() -> Instance {
    Scenario::named("poisson-pareto-unrelated", 48, 4, 11)
        .unwrap()
        .generate(InstanceKind::FlowTime)
}

fn bursty() -> Instance {
    Scenario::named("bursty-bimodal-unrelated", 64, 2, 5)
        .unwrap()
        .generate(InstanceKind::FlowTime)
}

fn ineligible() -> Instance {
    let inf = f64::INFINITY;
    InstanceBuilder::new(3, InstanceKind::FlowTime)
        .job(0.0, vec![2.0, 2.0, 5.0])
        .job(0.0, vec![2.0, inf, 5.0])
        .job(0.25, vec![1.0, 1.0, inf])
        .job(0.5, vec![inf, 3.0, 3.0])
        .job(0.5, vec![4.0, 4.0, 4.0])
        .job(1.0, vec![inf, inf, inf])
        .job(1.0, vec![inf, inf, 1.0])
        .job(1.5, vec![6.0, inf, 2.0])
        .job(3.0, vec![1.0, 2.0, 3.0])
        .build()
        .unwrap()
}

fn render(log: &FinishedLog, trace: &DecisionTrace) -> String {
    let mut out = log_to_string(log);
    out.push_str("# trace\n");
    for ev in trace.events() {
        out.push_str(&format!("{ev:?}\n"));
    }
    out
}

fn golden_path(name: &str) -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    format!("{dir}/tests/golden/baselines/{name}.txt")
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let diff = actual
        .lines()
        .zip(expected.lines())
        .position(|(a, e)| a != e);
    if let Some(k) =
        diff.or((actual != expected).then(|| actual.lines().count().min(expected.lines().count())))
    {
        let (a, e) = (actual.lines().nth(k), expected.lines().nth(k));
        panic!(
            "{name}: line {} differs from {path}\n  actual:   {a:?}\n  expected: {e:?}",
            k + 1
        );
    }
}

#[test]
fn golden_logs() {
    for (tag, inst) in [
        ("unrelated", unrelated()),
        ("bursty", bursty()),
        ("ineligible", ineligible()),
    ] {
        for (cfg, run) in CONFIGS {
            let (log, trace) = run(&inst);
            assert_golden(&format!("{cfg}-{tag}"), &render(&log, &trace));
        }
    }
}

/// The goldens cover the rejection paths they lock: speed-aug's Rule 1
/// and the above-mean gate on the bursty instance, and the all-`inf`
/// row (job 5), which meets the gate (`immediate`) before the
/// eligibility check (`ineligible` under greedy).
#[test]
fn goldens_cover_every_rejection_path() {
    for (name, needle) in [
        ("speedaug-bursty", "reason: RuleOne"),
        ("above_mean-bursty", "reason: Immediate"),
        ("above_mean-ineligible", "\n5,r,-,-,1,-,immediate,"),
        ("ect_spt-ineligible", "\n5,r,-,-,1,-,ineligible,"),
    ] {
        let text = std::fs::read_to_string(golden_path(name)).unwrap();
        assert!(text.contains(needle), "{name} lacks `{needle}`");
    }
}
