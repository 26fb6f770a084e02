//! Exact optimal non-preemptive total flow-time for tiny instances.
//!
//! Ground truth for EXP-T1-OPT. The search space decomposes:
//!
//! 1. enumerate machine assignments (`m^n` leaves, pruned);
//! 2. for each machine, the optimal schedule of its assigned set is an
//!    ordering served ASAP (`start_k = max(prev completion, r_k)`), so
//!    a memoized branch-and-bound over permutations of each subset
//!    yields `minflow(i, S)` once per `(machine, subset)` pair.
//!
//! Deliberate idling beyond ASAP-within-an-order is never useful for a
//! *fixed* order (shifting a block earlier only reduces completion
//! times), and every waiting strategy is dominated by some order, so
//! the permutation space is exhaustive.
//!
//! Practical limits: `n ≤ 12` hard cap (assert), intended for `n ≤ 9`.

use std::collections::HashMap;

use osr_model::Instance;

/// Exact minimal total flow-time over all non-preemptive schedules
/// serving every job. Panics for `n > 12` (the search is exponential).
pub fn optimal_flow(instance: &Instance) -> f64 {
    let n = instance.len();
    assert!(n <= 12, "exact OPT limited to n ≤ 12, got {n}");
    let m = instance.machines();
    let jobs = instance.jobs();
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();

    // minflow(machine, subset) memo.
    let mut memo: HashMap<(usize, u32), f64> = HashMap::new();

    // Branch-and-bound over permutations of `set` on machine `mi`.
    fn seq_search(
        mi: usize,
        set: u32,
        free: f64,
        acc: f64,
        best: &mut f64,
        sizes: &[Vec<f64>],
        releases: &[f64],
    ) {
        if set == 0 {
            if acc < *best {
                *best = acc;
            }
            return;
        }
        // Lower bound: each remaining job's flow is at least
        // p_j + max(0, free − r_j).
        let mut lb = acc;
        let mut s = set;
        while s != 0 {
            let j = s.trailing_zeros() as usize;
            s &= s - 1;
            lb += sizes[j][mi] + (free - releases[j]).max(0.0);
        }
        if lb >= *best {
            return;
        }
        let mut s = set;
        while s != 0 {
            let j = s.trailing_zeros() as usize;
            s &= s - 1;
            let start = free.max(releases[j]);
            let completion = start + sizes[j][mi];
            seq_search(
                mi,
                set & !(1u32 << j),
                completion,
                acc + completion - releases[j],
                best,
                sizes,
                releases,
            );
        }
    }

    let sizes: Vec<Vec<f64>> = jobs.iter().map(|j| j.sizes.to_vec()).collect();

    let minflow = |mi: usize, set: u32, memo: &mut HashMap<(usize, u32), f64>| -> f64 {
        if set == 0 {
            return 0.0;
        }
        if let Some(&v) = memo.get(&(mi, set)) {
            return v;
        }
        let mut best = f64::INFINITY;
        seq_search(mi, set, 0.0, 0.0, &mut best, &sizes, &releases);
        memo.insert((mi, set), best);
        best
    };

    // Enumerate assignments via DFS with a per-job eligibility filter.
    fn assign_search(
        j: usize,
        n: usize,
        m: usize,
        masks: &mut Vec<u32>,
        best: &mut f64,
        eligible: &[Vec<bool>],
        eval: &mut dyn FnMut(&[u32]) -> f64,
    ) {
        if j == n {
            let total = eval(masks);
            if total < *best {
                *best = total;
            }
            return;
        }
        for mi in 0..m {
            if !eligible[j][mi] {
                continue;
            }
            masks[mi] |= 1 << j;
            assign_search(j + 1, n, m, masks, best, eligible, eval);
            masks[mi] &= !(1 << j);
        }
    }

    let eligible: Vec<Vec<bool>> = jobs
        .iter()
        .map(|j| j.sizes.iter().map(|p| p.is_finite()).collect())
        .collect();

    let mut best = f64::INFINITY;
    let mut masks = vec![0u32; m];
    let mut eval = |masks: &[u32]| -> f64 {
        masks
            .iter()
            .enumerate()
            .map(|(mi, &set)| minflow(mi, set, &mut memo))
            .sum()
    };
    assign_search(0, n, m, &mut masks, &mut best, &eligible, &mut eval);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, InstanceKind};

    #[test]
    fn single_job() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(3.0, vec![2.0])
            .build()
            .unwrap();
        assert_eq!(optimal_flow(&inst), 2.0);
    }

    #[test]
    fn spt_is_optimal_for_simultaneous_release() {
        // Jobs 1, 2, 3 at t=0 on one machine: SPT flow = 1 + 3 + 6.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![3.0])
            .job(0.0, vec![1.0])
            .job(0.0, vec![2.0])
            .build()
            .unwrap();
        assert_eq!(optimal_flow(&inst), 10.0);
    }

    #[test]
    fn idling_for_a_short_job_when_it_pays() {
        // Long (p=10) at 0, short (p=1) at 0.5. Orders: long-first
        // flow = 10 + (10.5 − 0.5 + 1) = 21 → wait, compute: long
        // completes 10 (flow 10); short starts 10, completes 11, flow
        // 10.5. Total 20.5. Short-first: idle to 0.5, short completes
        // 1.5 (flow 1), long completes 11.5 (flow 11.5) → 12.5. OPT
        // must find 12.5.
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![10.0])
            .job(0.5, vec![1.0])
            .build()
            .unwrap();
        assert!((optimal_flow(&inst) - 12.5).abs() < 1e-9);
    }

    #[test]
    fn two_machines_split() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![5.0, 5.0])
            .job(0.0, vec![5.0, 5.0])
            .build()
            .unwrap();
        assert_eq!(optimal_flow(&inst), 10.0);
    }

    #[test]
    fn unrelated_speeds_exploited() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![1.0, 100.0])
            .job(0.0, vec![100.0, 1.0])
            .build()
            .unwrap();
        assert_eq!(optimal_flow(&inst), 2.0);
    }

    #[test]
    fn restricted_assignment_respected() {
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![f64::INFINITY, 2.0])
            .job(0.0, vec![f64::INFINITY, 3.0])
            .build()
            .unwrap();
        // Both forced onto m1: 2 + 5 or 3 + 5 → best 2, then 2+3=5: 7.
        assert_eq!(optimal_flow(&inst), 7.0);
    }

    #[test]
    fn optimal_beats_or_matches_heuristics() {
        use crate::greedy::GreedyScheduler;
        use osr_model::Metrics;
        let inst = InstanceBuilder::new(2, InstanceKind::FlowTime)
            .job(0.0, vec![4.0, 6.0])
            .job(0.5, vec![3.0, 2.0])
            .job(1.0, vec![5.0, 5.0])
            .job(1.5, vec![1.0, 2.0])
            .job(2.0, vec![2.0, 1.0])
            .build()
            .unwrap();
        let opt = optimal_flow(&inst);
        let (log, _) = GreedyScheduler::ect_spt().run(&inst);
        let greedy = Metrics::compute(&inst, &log, 2.0).flow.flow_served;
        assert!(opt <= greedy + 1e-9, "opt {opt} > greedy {greedy}");
        assert!(opt > 0.0);
    }

    #[test]
    #[should_panic(expected = "n ≤ 12")]
    fn large_instances_refused() {
        let mut b = InstanceBuilder::new(1, InstanceKind::FlowTime);
        for k in 0..13 {
            b = b.job(k as f64, vec![1.0]);
        }
        optimal_flow(&b.build().unwrap());
    }
}
