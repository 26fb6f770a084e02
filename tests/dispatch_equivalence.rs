//! Pruned-vs-linear dispatch equivalence: the tournament-index argmin
//! (`DispatchIndex::Pruned`) must be **bit-identical** to the linear
//! scan on arbitrary instances — machine choices, λ values, schedules,
//! and dual variables — with the lowest-index tie-break locked.
//!
//! The generated instances are deliberately **tie-heavy**: machine
//! counts at or above `PRUNED_MIN_MACHINES` (so the index actually
//! engages), sizes drawn from a tiny value set, and a biased coin that
//! makes whole jobs identical across machines — the regime where an
//! argmin with a sloppy tie-break would diverge immediately.
//!
//! A second generator family produces **restricted and rack-affinity**
//! instances — sparse eligibility rows, whole racks of `∞`, and a
//! fraction of everywhere-ineligible jobs — exactly the workloads the
//! mask-guided tournament descent (PR 4) changes the search path on,
//! so pruned-vs-linear bit-identity stays locked where it matters
//! most.

//! PR 9 extends every generator pair to straddle the **kernel** toggle
//! too: the pruned side runs the chunked `[f64;4]` hot-loop kernels,
//! the linear side the scalar oracle, so a tie-break or summation
//! regression in either layer breaks bit-identity here.
//!
//! A third family generates **dense unrelated** instances past the flat
//! crossover (m ∈ 65..=300), so the heap descent runs and every
//! non-uniform fully eligible row bounds its subtrees with rack-local
//! `p̂` minima (`osr_model::RackPHat`). Rows mix non-uniform sizes,
//! uniform rows (which keep the global `p̂`) and rows whose minimum
//! repeats on both sides of 64-machine rack boundaries, the tie
//! pattern a sloppy rack bound would break.

use online_sched_rejection::prelude::*;
use osr_core::{DispatchIndex, KernelMode, PRUNED_MIN_MACHINES};
use osr_model::RejectReason;
use proptest::prelude::*;

/// A tie-heavy flow-time instance: m ≥ PRUNED_MIN_MACHINES machines,
/// sizes from {1, 2, 3} (half the jobs identical on every machine).
fn tie_heavy_instance() -> impl Strategy<Value = Instance> {
    (8usize..=24, 20usize..=160, any::<u64>()).prop_map(|(m, n, seed)| {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut b = InstanceBuilder::new(m, InstanceKind::FlowTime);
        let mut t = 0.0;
        for _ in 0..n {
            t += (next() % 3) as f64 / 2.0; // frequent identical releases
            let base = 1.0 + (next() % 3) as f64;
            let identical = next() % 2 == 0;
            let sizes: Vec<f64> = (0..m)
                .map(|_| {
                    if identical {
                        base
                    } else if next() % 7 == 0 {
                        f64::INFINITY // restricted assignment
                    } else {
                        1.0 + (next() % 3) as f64
                    }
                })
                .collect();
            // Guarantee at least one finite machine per job.
            let mut sizes = sizes;
            if sizes.iter().all(|p| !p.is_finite()) {
                sizes[0] = base;
            }
            b = b.job(t, sizes);
        }
        b.build().unwrap()
    })
}

/// A restricted/rack-affinity instance: sparse eligibility rows with a
/// ~1/8 share of **everywhere-ineligible** jobs. Even seeds build
/// round-robin affinity racks (eligible iff `i % groups == rack`, so
/// whole subtree ranges of the tournament tree are empty for each
/// job); odd seeds build iid restricted rows (~1/4 eligibility).
fn eligibility_instance() -> impl Strategy<Value = Instance> {
    (8usize..=32, 16usize..=120, 2usize..=8, any::<u64>()).prop_map(|(m, n, groups, seed)| {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let affinity = seed % 2 == 0;
        let mut b = InstanceBuilder::new(m, InstanceKind::FlowTime);
        let mut t = 0.0;
        for _ in 0..n {
            t += (next() % 3) as f64 / 2.0;
            let base = 1.0 + (next() % 3) as f64;
            let sizes: Vec<f64> = if next() % 8 == 0 {
                // Everywhere-ineligible: every scheduler must reject it
                // at arrival, under either dispatch strategy.
                vec![f64::INFINITY; m]
            } else if affinity {
                let rack = (next() % groups as u64) as usize;
                (0..m)
                    .map(|i| {
                        if i % groups == rack {
                            base
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect()
            } else {
                (0..m)
                    .map(|_| {
                        if next() % 4 == 0 {
                            base + (next() % 3) as f64
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect()
            };
            b = b.job(t, sizes);
        }
        b.build().unwrap()
    })
}

/// A dense unrelated instance at m ∈ 65..=300: every size finite,
/// weights in {1, 2, 3}. Each job draws one of three row shapes:
/// * non-uniform — sizes from a small value set, so ties are common;
/// * uniform — one size on every machine (no rack layer is built);
/// * repeated minima — a costlier background with the row's minimum
///   placed on both sides of every 64-machine rack boundary (and on the
///   last machine), so equal rack minima compete across racks.
fn dense_unrelated_instance() -> impl Strategy<Value = Instance> {
    (65usize..=300, 12usize..=60, any::<u64>()).prop_map(|(m, n, seed)| {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut b = InstanceBuilder::new(m, InstanceKind::FlowEnergy);
        let mut t = 0.0;
        for _ in 0..n {
            t += (next() % 4) as f64 / 4.0;
            let weight = 1.0 + (next() % 3) as f64;
            let base = 1.0 + (next() % 3) as f64;
            let sizes: Vec<f64> = match next() % 3 {
                0 => (0..m).map(|_| base + (next() % 4) as f64 / 2.0).collect(),
                1 => vec![base; m],
                _ => {
                    let mut row: Vec<f64> =
                        (0..m).map(|_| base + 1.0 + (next() % 3) as f64).collect();
                    for k in (64..m).step_by(64) {
                        row[k - 1] = base;
                        row[k] = base;
                    }
                    row[m - 1] = base;
                    row
                }
            };
            b = b.weighted_job(t, weight, sizes);
        }
        b.build().unwrap()
    })
}

fn flow_with(
    inst: &Instance,
    eps: f64,
    dispatch: DispatchIndex,
    kern: KernelMode,
) -> osr_core::FlowOutcome {
    let mut params = osr_core::FlowParams::new(eps);
    params.dispatch = dispatch;
    params.kernels = kern;
    osr_core::FlowScheduler::new(params).unwrap().run(inst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pruned_argmin_is_bit_identical_to_linear(
        inst in tie_heavy_instance(),
        eps in 0.1f64..1.0,
    ) {
        let a = flow_with(&inst, eps, DispatchIndex::Pruned, KernelMode::Chunked);
        let b = flow_with(&inst, eps, DispatchIndex::Linear, KernelMode::Scalar);
        // Same machine choice and λ for every job (machine_of pins the
        // argmin index; lambda pins the value), hence the same schedule
        // and dual solution, bit for bit.
        prop_assert_eq!(&a.dual.machine_of, &b.dual.machine_of);
        prop_assert_eq!(&a.dual.lambda, &b.dual.lambda);
        prop_assert_eq!(&a.dual.c_tilde, &b.dual.c_tilde);
        prop_assert_eq!(&a.log, &b.log);
        // Isolate the kernel toggle on the index path: same dispatch
        // strategy, scalar oracle kernels.
        let c = flow_with(&inst, eps, DispatchIndex::Pruned, KernelMode::Scalar);
        prop_assert_eq!(&a.dual.lambda, &c.dual.lambda);
        prop_assert_eq!(&a.log, &c.log);
    }

    #[test]
    fn masked_descent_is_bit_identical_on_restricted_and_affinity(
        inst in eligibility_instance(),
        eps in 0.1f64..1.0,
    ) {
        let a = flow_with(&inst, eps, DispatchIndex::Pruned, KernelMode::Chunked);
        let b = flow_with(&inst, eps, DispatchIndex::Linear, KernelMode::Scalar);
        prop_assert_eq!(&a.dual.machine_of, &b.dual.machine_of);
        prop_assert_eq!(&a.dual.lambda, &b.dual.lambda);
        prop_assert_eq!(&a.dual.c_tilde, &b.dual.c_tilde);
        prop_assert_eq!(&a.log, &b.log);
        let c = flow_with(&inst, eps, DispatchIndex::Pruned, KernelMode::Scalar);
        prop_assert_eq!(&a.log, &c.log);
        // Everywhere-ineligible jobs are rejected identically — at
        // arrival, by both strategies — never scheduled, never panicked
        // on.
        for job in inst.jobs() {
            if !job.has_eligible() {
                let rej = a.log.fate(job.id).rejection().expect("ineligible rejected");
                prop_assert_eq!(rej.reason, RejectReason::Ineligible);
                prop_assert_eq!(rej.time, job.release);
            }
        }
    }

    #[test]
    fn weighted_and_energy_agree_on_restricted_and_affinity(
        inst in eligibility_instance(),
        eps in 0.1f64..1.0,
    ) {
        let mut wp = osr_core::flowtime::WeightedFlowParams::new(eps);
        wp.dispatch = DispatchIndex::Pruned;
        wp.kernels = KernelMode::Chunked;
        let mut wl = osr_core::flowtime::WeightedFlowParams::new(eps);
        wl.dispatch = DispatchIndex::Linear;
        wl.kernels = KernelMode::Scalar;
        let a = osr_core::flowtime::WeightedFlowScheduler::new(wp).unwrap().run(&inst);
        let b = osr_core::flowtime::WeightedFlowScheduler::new(wl).unwrap().run(&inst);
        prop_assert_eq!(a.log, b.log);

        let mut ep = osr_core::EnergyFlowParams::new(eps, 2.2);
        ep.dispatch = DispatchIndex::Pruned;
        ep.kernels = KernelMode::Chunked;
        let mut el = osr_core::EnergyFlowParams::new(eps, 2.2);
        el.dispatch = DispatchIndex::Linear;
        el.kernels = KernelMode::Scalar;
        let a = osr_core::EnergyFlowScheduler::new(ep).unwrap().run(&inst);
        let b = osr_core::EnergyFlowScheduler::new(el).unwrap().run(&inst);
        prop_assert_eq!(a.log, b.log);
        prop_assert_eq!(a.sum_lambda(), b.sum_lambda());
    }

    #[test]
    fn rack_bounds_are_bit_identical_on_dense_unrelated_rows(
        inst in dense_unrelated_instance(),
        eps in 0.1f64..1.0,
    ) {
        // The generator's rows really take the new path: non-uniform
        // dense rows carry rack minima, uniform ones do not.
        for job in inst.jobs() {
            let uniform = job.sizes.iter().all(|p| *p == job.sizes[0]);
            prop_assert_eq!(job.rack_p_hat().is_none(), uniform);
        }
        let a = flow_with(&inst, eps, DispatchIndex::Pruned, KernelMode::Chunked);
        let b = flow_with(&inst, eps, DispatchIndex::Linear, KernelMode::Scalar);
        prop_assert_eq!(&a.dual.machine_of, &b.dual.machine_of);
        prop_assert_eq!(&a.dual.lambda, &b.dual.lambda);
        prop_assert_eq!(&a.dual.c_tilde, &b.dual.c_tilde);
        prop_assert_eq!(&a.log, &b.log);

        let mut wp = osr_core::flowtime::WeightedFlowParams::new(eps);
        wp.dispatch = DispatchIndex::Pruned;
        wp.kernels = KernelMode::Chunked;
        let mut wl = osr_core::flowtime::WeightedFlowParams::new(eps);
        wl.dispatch = DispatchIndex::Linear;
        wl.kernels = KernelMode::Scalar;
        let a = osr_core::flowtime::WeightedFlowScheduler::new(wp).unwrap().run(&inst);
        let b = osr_core::flowtime::WeightedFlowScheduler::new(wl).unwrap().run(&inst);
        prop_assert_eq!(a.log, b.log);

        let mut ep = osr_core::EnergyFlowParams::new(eps, 2.2);
        ep.dispatch = DispatchIndex::Pruned;
        ep.kernels = KernelMode::Chunked;
        let mut el = osr_core::EnergyFlowParams::new(eps, 2.2);
        el.dispatch = DispatchIndex::Linear;
        el.kernels = KernelMode::Scalar;
        let a = osr_core::EnergyFlowScheduler::new(ep).unwrap().run(&inst);
        let b = osr_core::EnergyFlowScheduler::new(el).unwrap().run(&inst);
        prop_assert_eq!(a.log, b.log);
        prop_assert_eq!(a.sum_lambda().to_bits(), b.sum_lambda().to_bits());
    }

    #[test]
    fn weighted_and_energy_schedulers_agree_too(
        m in 8usize..=16,
        n in 10usize..=80,
        seed in any::<u64>(),
        eps in 0.1f64..1.0,
    ) {
        let mut w = FlowWorkload::standard(n, m, seed);
        w.weights = osr_workload::WeightSpec::Uniform { lo: 0.5, hi: 8.0 };
        let inst = w.generate(InstanceKind::FlowEnergy);

        let mut wp = osr_core::flowtime::WeightedFlowParams::new(eps);
        wp.dispatch = DispatchIndex::Pruned;
        wp.kernels = KernelMode::Chunked;
        let mut wl = osr_core::flowtime::WeightedFlowParams::new(eps);
        wl.dispatch = DispatchIndex::Linear;
        wl.kernels = KernelMode::Scalar;
        let a = osr_core::flowtime::WeightedFlowScheduler::new(wp).unwrap().run(&inst);
        let b = osr_core::flowtime::WeightedFlowScheduler::new(wl).unwrap().run(&inst);
        prop_assert_eq!(a.log, b.log);

        let mut ep = osr_core::EnergyFlowParams::new(eps, 2.2);
        ep.dispatch = DispatchIndex::Pruned;
        ep.kernels = KernelMode::Chunked;
        let mut el = osr_core::EnergyFlowParams::new(eps, 2.2);
        el.dispatch = DispatchIndex::Linear;
        el.kernels = KernelMode::Scalar;
        let a = osr_core::EnergyFlowScheduler::new(ep).unwrap().run(&inst);
        let b = osr_core::EnergyFlowScheduler::new(el).unwrap().run(&inst);
        prop_assert_eq!(a.log, b.log);
        prop_assert_eq!(a.sum_lambda(), b.sum_lambda());
    }
}

/// The tie-break contract, pinned as a plain unit test: with every
/// machine idle and the job identical everywhere, all `λ_ij` tie
/// exactly and the dispatch must pick machine 0 — then, as machine 0's
/// queue grows, the argmin must move to machine 1, never to an
/// arbitrary equal-λ machine.
#[test]
fn lowest_index_tie_break_is_locked() {
    let m = PRUNED_MIN_MACHINES; // smallest m where the index engages
    let mut b = InstanceBuilder::new(m, InstanceKind::FlowTime);
    // A burst of identical jobs at t = 0.
    for _ in 0..4 {
        b = b.job(0.0, vec![5.0; PRUNED_MIN_MACHINES]);
    }
    let inst = b.build().unwrap();
    for dispatch in [DispatchIndex::Pruned, DispatchIndex::Linear] {
        let mut params = osr_core::FlowParams::with_rules(0.5, false, false);
        params.dispatch = dispatch;
        let out = osr_core::FlowScheduler::new(params).unwrap().run(&inst);
        // j0 ties everywhere → machine 0; it starts immediately, so j1
        // ties everywhere again (pending queues all empty) → machine 0;
        // j2 then sees one pending job on machine 0 (λ strictly larger
        // there) → machine 1; j3 likewise → machine 1 busy+pending …
        let mi: Vec<u32> = (0..4).map(|k| out.dual.machine_of[k as usize]).collect();
        assert_eq!(mi[0], 0, "{dispatch:?}");
        assert_eq!(mi[1], 0, "{dispatch:?}");
        assert_eq!(mi[2], 1, "{dispatch:?}");
        let rep = validate_log(&inst, &out.log, &ValidationConfig::flow_time());
        assert!(rep.is_valid());
    }
}
