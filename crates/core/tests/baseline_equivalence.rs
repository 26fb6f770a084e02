//! Baseline-equivalence proptests: every flow-family scheduler run
//! under the production configuration must be **bit-identical** to
//! the same run under the reference paths ([`baseline`]: eager
//! ancestor repair, rebuild-from-scratch capacity index), on
//! instances that straddle the 64-machine rack boundary
//! and the flat/heap search crossover (m ∈ {63, 64, 65} plus the heap
//! pools m ∈ {130, 200}), under elastic-pool churn and restricted
//! affinity masks.
//!
//! Schedule logs (fates, executions, redispatch counts), the §2 dual
//! vectors and the §3 per-job records must match to the last bit. That
//! includes the eager heap descent on the dense unrelated
//! m ∈ {130, 200} pools under churn, which the quick experiment suite
//! reaches only at m = 256.

use osr_core::flowtime::{WeightedFlowParams, WeightedFlowScheduler};
use osr_core::{
    EnergyFlowParams, EnergyFlowScheduler, FlowParams, FlowScheduler, QueueBackend, SchedulerConfig,
};
use osr_model::{Instance, InstanceBuilder, InstanceKind, MachineId};
use osr_sim::{CapacityChange, CapacityEvent, CapacityPlan};
use proptest::prelude::*;

/// One generated job: a release gap to the previous job, a base size,
/// a weight, an affinity-mask kind, and a seed for the mask bits.
type JobSpec = (f64, f64, f64, u8, u64);

/// One generated churn event: time fraction of the horizon, a machine
/// pick, and the change kind (0 = drain, 1 = crash, 2 = join).
type ChurnSpec = (f64, u64, u8);

/// Machine pools that straddle the rack boundary: one rack minus one,
/// exactly one rack (the largest flat-search pool), one rack plus one
/// (the smallest heap-search pool), and two multi-rack sizes.
const POOLS: [usize; 5] = [63, 64, 65, 130, 200];

/// The baseline: `SchedulerConfig::reference()` with the
/// production treap queue. The naive queue sums pending sizes left to
/// right while the treap sums them along its tree, so with three or
/// more pending jobs their aggregate sums (and the §2 `C̃_j` of a
/// Rule-2 victim built from one) can differ in the last bit; that
/// backend pair is compared on schedules by the flow-time unit tests
/// and `reference_equivalence` instead.
fn baseline() -> SchedulerConfig {
    SchedulerConfig {
        backend: QueueBackend::Treap,
        ..SchedulerConfig::reference()
    }
}

/// SplitMix64 — deterministic per-machine size jitter and mask bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Builds the `p_ij` row for one job. `kind % 3` selects the affinity
/// shape: everywhere-eligible, single-rack (all machines of rack
/// `seed % racks`), or a random subset (each machine eligible with
/// probability ~1/2, forced non-empty). Eligible sizes jitter around
/// `base` so the argmin is non-trivial and rack-local minima differ.
fn sizes_for(m: usize, base: f64, kind: u8, seed: u64) -> Vec<f64> {
    let jitter = |i: usize| {
        let r = mix(seed ^ (i as u64).wrapping_mul(0xA24BAED4963EE407)) % 1000;
        base * (0.5 + r as f64 / 1000.0)
    };
    match kind % 3 {
        0 => (0..m).map(jitter).collect(),
        1 => {
            let racks = m.div_ceil(64);
            let rack = (seed % racks as u64) as usize;
            (0..m)
                .map(|i| {
                    if i / 64 == rack {
                        jitter(i)
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        }
        _ => {
            let mut row: Vec<f64> = (0..m)
                .map(|i| {
                    if mix(seed ^ ((i as u64) << 32)) & 1 == 0 {
                        jitter(i)
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            let forced = (seed % m as u64) as usize;
            if row[forced].is_infinite() {
                row[forced] = jitter(forced);
            }
            row
        }
    }
}

fn build_instance(m: usize, kind: InstanceKind, jobs: &[JobSpec]) -> Instance {
    let mut b = InstanceBuilder::new(m, kind);
    let mut t = 0.0;
    for &(gap, base, weight, mask_kind, seed) in jobs {
        t += gap;
        let sizes = sizes_for(m, base, mask_kind, seed);
        b = if kind == InstanceKind::FlowTime {
            b.job(t, sizes)
        } else {
            b.weighted_job(t, weight, sizes)
        };
    }
    b.build().expect("generated instance is valid")
}

fn build_plan(m: usize, horizon: f64, churn: &[ChurnSpec]) -> CapacityPlan {
    let events = churn
        .iter()
        .map(|&(frac, pick, kind)| CapacityEvent {
            time: frac * horizon,
            machine: MachineId((pick % m as u64) as u32),
            change: match kind % 3 {
                0 => CapacityChange::Drain,
                1 => CapacityChange::Crash,
                _ => CapacityChange::Join,
            },
        })
        .collect();
    CapacityPlan::new(events).expect("generated plan is valid")
}

/// Bit-exact equality for float vectors (0.0 vs -0.0 and NaN patterns
/// included — "byte-identical" means the serialized artifacts match).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn job_strategy() -> impl Strategy<Value = JobSpec> {
    (
        (0.0..0.4f64),
        (0.5..4.0f64),
        (1.0..5.0f64),
        (0u8..3),
        proptest::arbitrary::any::<u64>(),
    )
}

fn churn_strategy() -> impl Strategy<Value = ChurnSpec> {
    ((0.0..1.0f64), proptest::arbitrary::any::<u64>(), (0u8..3))
}

proptest! {
    #[test]
    fn flow_production_matches_baseline(
        pool in 0usize..POOLS.len(),
        jobs in prop::collection::vec(job_strategy(), 8..48),
        churn in prop::collection::vec(churn_strategy(), 0..8),
    ) {
        let m = POOLS[pool];
        let inst = build_instance(m, InstanceKind::FlowTime, &jobs);
        let plan = build_plan(m, inst.horizon() * 1.2, &churn);
        let run = |config: SchedulerConfig| {
            let mut p = FlowParams::new(0.25);
            p.config = config;
            FlowScheduler::new(p)
                .unwrap()
                .with_capacity(plan.clone())
                .run(&inst)
        };
        let base = run(baseline());
        let out = run(SchedulerConfig::production());
        prop_assert_eq!(&out.log, &base.log, "log diverged at m={}", m);
        prop_assert!(bits_eq(&out.dual.lambda, &base.dual.lambda));
        prop_assert!(bits_eq(&out.dual.exit, &base.dual.exit));
        prop_assert!(bits_eq(&out.dual.c_tilde, &base.dual.c_tilde));
        prop_assert_eq!(&out.dual.machine_of, &base.dual.machine_of);
    }

    #[test]
    fn weighted_flow_production_matches_baseline(
        pool in 0usize..POOLS.len(),
        jobs in prop::collection::vec(job_strategy(), 8..48),
        churn in prop::collection::vec(churn_strategy(), 0..8),
    ) {
        let m = POOLS[pool];
        let inst = build_instance(m, InstanceKind::FlowEnergy, &jobs);
        let plan = build_plan(m, inst.horizon() * 1.2, &churn);
        let run = |config: SchedulerConfig| {
            let mut p = WeightedFlowParams::new(0.25);
            p.config = config;
            WeightedFlowScheduler::new(p)
                .unwrap()
                .with_capacity(plan.clone())
                .run(&inst)
        };
        let base = run(baseline());
        let out = run(SchedulerConfig::production());
        prop_assert_eq!(&out.log, &base.log, "log diverged at m={}", m);
    }

    #[test]
    fn energy_flow_production_matches_baseline(
        pool in 0usize..POOLS.len(),
        jobs in prop::collection::vec(job_strategy(), 8..48),
        churn in prop::collection::vec(churn_strategy(), 0..8),
    ) {
        let m = POOLS[pool];
        let inst = build_instance(m, InstanceKind::FlowEnergy, &jobs);
        let plan = build_plan(m, inst.horizon() * 1.2, &churn);
        let run = |config: SchedulerConfig| {
            let mut p = EnergyFlowParams::new(0.5, 3.0);
            p.config = config;
            EnergyFlowScheduler::new(p)
                .unwrap()
                .with_capacity(plan.clone())
                .run(&inst)
        };
        let base = run(baseline());
        let out = run(SchedulerConfig::production());
        prop_assert_eq!(&out.log, &base.log, "log diverged at m={}", m);
        prop_assert_eq!(out.records.len(), base.records.len());
        for (a, b) in out.records.iter().zip(&base.records) {
            prop_assert_eq!(a.machine, b.machine);
            prop_assert!(bits_eq(&[a.lambda, a.start, a.speed, a.exit, a.def_finish],
                                 &[b.lambda, b.start, b.speed, b.exit, b.def_finish]));
        }
    }
}

/// A loaded dense unrelated stream on a heap-mode pool (more than 64
/// machines), with churn every few time units: queues build up,
/// capacity events rebuild the reference index with busy stats, and
/// later drains must reach every ancestor before the next descent
/// trusts them. The reference paths (eager repair, rebuild index)
/// must match production bit for bit.
#[test]
fn loaded_dense_pools_match_the_reference_paths() {
    for m in [130usize, 200] {
        let jobs: Vec<JobSpec> = (0..1_200u64)
            .map(|k| {
                let r = mix(k ^ (m as u64) << 20);
                let gap = (r % 1000) as f64 / 40_000.0;
                let base = 0.5 + (r >> 10) as f64 % 3.5;
                let weight = 1.0 + (r >> 20) as f64 % 4.0;
                (gap, base, weight, 0, r >> 32)
            })
            .collect();
        let churn: Vec<ChurnSpec> = (0..24u64)
            .map(|k| ((k as f64 + 0.5) / 24.0, mix(k + m as u64), (k % 3) as u8))
            .collect();
        for kind in [InstanceKind::FlowTime, InstanceKind::FlowEnergy] {
            let inst = build_instance(m, kind, &jobs);
            let plan = build_plan(m, inst.horizon(), &churn);
            let prod = SchedulerConfig::production();
            let flow = |config: SchedulerConfig| {
                let mut p = FlowParams::new(0.25);
                p.config = config;
                let sched = FlowScheduler::new(p).unwrap();
                sched.with_capacity(plan.clone()).run(&inst)
            };
            let (a, b) = (flow(baseline()), flow(prod));
            assert_eq!(a.log, b.log, "flow m={m}");
            assert!(bits_eq(&a.dual.c_tilde, &b.dual.c_tilde));
            let weighted = |config: SchedulerConfig| {
                let mut p = WeightedFlowParams::new(0.25);
                p.config = config;
                let sched = WeightedFlowScheduler::new(p).unwrap();
                sched.with_capacity(plan.clone()).run(&inst).log
            };
            assert_eq!(weighted(baseline()), weighted(prod), "wflow m={m}");
            let energy = |config: SchedulerConfig| {
                let mut p = EnergyFlowParams::new(0.5, 3.0);
                p.config = config;
                let sched = EnergyFlowScheduler::new(p).unwrap();
                sched.with_capacity(plan.clone()).run(&inst).log
            };
            assert_eq!(energy(baseline()), energy(prod), "energy m={m}");
        }
    }
}
