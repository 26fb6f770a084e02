//! EXP-SCALE (part 2): the data-structure ablation DESIGN.md calls out
//! — the full §2 algorithm with the `O(log n)` treap backend vs the
//! `O(n)` sorted-vector backend, on a single hot machine (worst case
//! for queue length), plus raw structure microbenchmarks (see BENCH.md
//! for recorded baselines).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use osr_core::dispatch::rebuild_index;
use osr_core::{DispatchIndex, FlowParams, FlowScheduler, QueueBackend};
use osr_dstruct::{
    AggTreap, MachineIndex, MachineStats, MaskView, NaiveAggQueue, NodeStats, Propagation,
    SearchMode,
};
use osr_model::{EligMask, InstanceKind, Job, OnlineSet};
use osr_workload::{ArrivalSpec, FlowWorkload, MachineSpec};

fn backend_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_backend_end_to_end");
    for &n in &[2_000usize, 10_000] {
        // Single machine + all-at-once arrivals = maximal queue length.
        let mut w = FlowWorkload::standard(n, 1, 7);
        w.arrivals = ArrivalSpec::Batch {
            per_batch: n / 4,
            gap: 5.0,
        };
        let inst = w.generate(InstanceKind::FlowTime);
        for backend in [QueueBackend::Treap, QueueBackend::Naive] {
            let mut params = FlowParams::new(0.25);
            params.backend = backend;
            group.bench_with_input(
                BenchmarkId::new(format!("{backend:?}"), n),
                &inst,
                |b, inst| {
                    let sched = FlowScheduler::new(params).unwrap();
                    b.iter(|| sched.run(inst).log.rejected_count());
                },
            );
        }
    }
    group.finish();
}

/// The machine-count sweep of the dispatch argmin: full §2 scheduler
/// with Poisson arrivals ∝ m, pruned (tournament-index) vs linear
/// dispatch, under two machine models:
///
/// * **identical** machines (`pruned_m{m}` / `linear_m{m}`): uniform
///   rows, which keep the global `p̂` and no rack layer;
/// * **unrelated** machines (`pruned_unrelated_m{m}` /
///   `linear_unrelated_m{m}`, sizes × U[1, 4] per machine, the model
///   of servebench's `dense-m1024`): fully eligible non-uniform rows,
///   whose heap descent bounds subtrees with rack-local `p̂` minima.
///   With only the global `p̂` this row lost to the linear scan.
///
/// Linear is capped at m ≤ 1024 — beyond that its `n·m` exact `λ_ij`
/// evaluations take the suite from seconds to minutes (the `m_scale`
/// experiment records the full-mode numbers).
fn dispatch_m_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_m_sweep");
    let identical: &[(usize, usize)] = &[(4, 2_000), (64, 2_000), (1_024, 4_096), (16_384, 2_048)];
    let unrelated: &[(usize, usize)] = &[(64, 2_000), (1_024, 4_096), (16_384, 2_048)];
    for (model, sizes) in [("", identical), ("unrelated_", unrelated)] {
        for &(m, n) in sizes {
            let mut w = FlowWorkload::standard(n, m, 42);
            w.machine_model = if model.is_empty() {
                MachineSpec::Identical
            } else {
                MachineSpec::Unrelated {
                    lo_factor: 1.0,
                    hi_factor: 4.0,
                }
            };
            let inst = w.generate(InstanceKind::FlowTime);
            for dispatch in [DispatchIndex::Pruned, DispatchIndex::Linear] {
                if dispatch == DispatchIndex::Linear && m > 1_024 {
                    continue;
                }
                let mut params = FlowParams::new(0.25);
                params.dispatch = dispatch;
                let label = match dispatch {
                    DispatchIndex::Pruned => "pruned",
                    DispatchIndex::Linear => "linear",
                };
                group.bench_with_input(
                    BenchmarkId::new(format!("{label}_{model}m{m}"), n),
                    &inst,
                    |b, inst| {
                        let sched = FlowScheduler::new(params).unwrap();
                        b.iter(|| sched.run(inst).log.rejected_count());
                    },
                );
            }
        }
    }
    group.finish();
}

/// The PR 4 affinity m-sweep: full §2 scheduler on **rack-affinity**
/// workloads (each job eligible on m/groups machines, round-robin
/// racks, 2% everywhere-ineligible arrivals) — the regime where the
/// PR 2/3 index was eligibility-blind and descended into racks full of
/// `∞` entries. Pruned (mask-guided) vs linear; linear capped at
/// m ≤ 1024 like the dense sweep.
fn dispatch_affinity_m_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_affinity_m_sweep");
    // The m = 64 row is the PR 5 target: SearchMode::Flat territory,
    // where the recorded 0.82× came from paying O(log m) ancestor
    // maintenance per mutation for ancestors the flat search never
    // reads — now a single leaf-row write.
    for &(m, n, groups) in &[
        (64usize, 2_048usize, 16usize),
        (1_024, 4_096, 16),
        (16_384, 2_048, 64),
    ] {
        let mut w = FlowWorkload::standard(n, m, 42);
        w.machine_model = MachineSpec::Affinity {
            groups,
            drop_prob: 0.02,
        };
        let inst = w.generate(InstanceKind::FlowTime);
        for dispatch in [DispatchIndex::Pruned, DispatchIndex::Linear] {
            if dispatch == DispatchIndex::Linear && m > 1_024 {
                continue;
            }
            let mut params = FlowParams::new(0.25);
            params.dispatch = dispatch;
            let label = match dispatch {
                DispatchIndex::Pruned => "pruned",
                DispatchIndex::Linear => "linear",
            };
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_m{m}_g{groups}"), n),
                &inst,
                |b, inst| {
                    let sched = FlowScheduler::new(params).unwrap();
                    b.iter(|| sched.run(inst).log.rejected_count());
                },
            );
        }
    }
    group.finish();
}

/// The isolated PR 4 ablation: the tournament search with vs without
/// the eligibility mask, on affinity-shaped state. Every machine's
/// queue is busy (as under a real affinity workload, where each rack
/// serves its own jobs), bounds are flow-shaped, and each searched job
/// is eligible on one round-robin rack. The **blind** variant is
/// exactly the pre-PR-4 closure shape — leaf bound `∞` / eval `None`
/// on ineligible machines, nothing telling the descent which subtrees
/// are empty — so the ratio against the **masked** variant is the
/// isolated cost of eligibility-blindness (gated by `bench_check`).
fn masked_descent(c: &mut Criterion) {
    let mut group = c.benchmark_group("masked_descent");
    for &(m, groups) in &[(1_024usize, 16usize), (16_384, 64)] {
        let mut ix = MachineIndex::with_mode(m, SearchMode::Heap);
        for i in 0..m {
            ix.update(
                i,
                MachineStats {
                    count: 1 + (i % 3) as u64,
                    wsum: 4.0 + (i % 5) as f64,
                    min_size: 1.0 + (i % 7) as f64 * 0.25,
                },
            );
        }
        // One mask per rack (machine `i` eligible iff
        // `i % groups == g`), built through the production constructor
        // so the bench measures exactly the mask shape the schedulers
        // hand the search.
        let masks: Vec<EligMask> = (0..groups)
            .map(|g| {
                let sizes: Vec<f64> = (0..m)
                    .map(|i| if i % groups == g { 1.0 } else { f64::INFINITY })
                    .collect();
                EligMask::from_sizes(&sizes)
            })
            .collect();

        // Flow-shaped bound from subtree stats (the §2 expression with
        // p̂ = 2, 1/ε = 4) and an exact λ proxy sitting above it —
        // queues are busy everywhere, so bounds alone prune little and
        // the blind search must discover every rack's `∞`s leaf by
        // leaf.
        let (p, inv_eps) = (2.0f64, 4.0f64);
        let ns_bound = move |s: &NodeStats| {
            let prefix_empty = inv_eps * p + p + (s.min_count as f64) * p;
            let prefix_nonempty = inv_eps * p + (s.min_size + p);
            prefix_empty.min(prefix_nonempty)
        };
        let leaf_bound = move |s: &MachineStats| {
            let prefix_empty = inv_eps * p + p + (s.count as f64) * p;
            let prefix_nonempty = inv_eps * p + (s.min_size + p);
            prefix_empty.min(prefix_nonempty)
        };
        let exact = move |i: usize| {
            let count = 1.0 + (i % 3) as f64;
            inv_eps * p + ((1.0 + (i % 7) as f64 * 0.25) + p) + count * p + (i % 11) as f64 * 0.01
        };

        fn view(mask: &EligMask) -> MaskView<'_> {
            let (words, summary) = mask.word_layers().expect("rack masks are restricted");
            MaskView::Words { words, summary }
        }

        // Sanity once, outside the timed loops: both variants agree on
        // every rack.
        for (g, mask) in masks.iter().enumerate() {
            let blind = ix.search(
                |s, _, _| ns_bound(s),
                |i, s| {
                    if i % groups == g {
                        leaf_bound(s)
                    } else {
                        f64::INFINITY
                    }
                },
                |i| (i % groups == g).then(|| exact(i)),
            );
            let masked = ix.search_masked(
                view(mask),
                |s, _, _| ns_bound(s),
                |_, s| leaf_bound(s),
                |i| (i % groups == g).then(|| exact(i)),
            );
            assert_eq!(blind, masked, "m={m} g={g}");
        }

        group.bench_function(format!("blind_m{m}_g{groups}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for g in 0..groups {
                    let r = ix.search(
                        |s, _, _| ns_bound(s),
                        |i, s| {
                            if i % groups == g {
                                leaf_bound(s)
                            } else {
                                f64::INFINITY
                            }
                        },
                        |i| (i % groups == g).then(|| exact(i)),
                    );
                    acc += r.expect("rack is non-empty").1;
                }
                acc
            });
        });
        group.bench_function(format!("masked_m{m}_g{groups}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for (g, mask) in masks.iter().enumerate() {
                    let r = ix.search_masked(
                        view(mask),
                        |s, _, _| ns_bound(s),
                        |_, s| leaf_bound(s),
                        |i| (i % groups == g).then(|| exact(i)),
                    );
                    acc += r.expect("rack is non-empty").1;
                }
                acc
            });
        });
    }
    group.finish();
}

/// The PR 5 update-side ablation: eager vs lazy ancestor propagation
/// under the dispatch loop's real mutation pattern — a run of `r`
/// queue mutations on one machine (completions/starts between two
/// dispatches), then one argmin search. Eager pays `r` full `O(log m)`
/// ancestor rebuilds whose intermediate values are dead writes; lazy
/// pays `r` leaf-row stores plus one batched repair sweep at the
/// search. Heap mode is forced even at m = 64 so both variants
/// actually maintain ancestors (flat mode has none at all and would
/// trivialize the comparison).
fn update_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_churn");
    for &m in &[64usize, 1_024, 16_384] {
        for &ratio in &[1usize, 8, 64] {
            for (label, prop) in [("eager", Propagation::Eager), ("lazy", Propagation::Lazy)] {
                group.bench_function(format!("{label}_m{m}_r{ratio}"), |b| {
                    let mut ix = MachineIndex::with_config(m, SearchMode::Heap, prop);
                    // Busy queues everywhere except machine 0, which
                    // stays idle — the search's bounds prune hard (the
                    // common many-idle-machines regime), so the
                    // per-iteration cost is dominated by the mutation
                    // side under ablation, not by exact evaluations.
                    for i in 1..m {
                        ix.update(
                            i,
                            MachineStats {
                                count: 3 + (i % 3) as u64,
                                wsum: 14.0 + (i % 5) as f64,
                                min_size: 3.0 + (i % 7) as f64 * 0.25,
                            },
                        );
                    }
                    let mut hot = 1usize;
                    let mut tick = 0u64;
                    b.iter(|| {
                        // `ratio` queue mutations on the hot machine —
                        // the run of completions/starts between two
                        // dispatches, each a dead ancestor write under
                        // eager propagation…
                        for _ in 0..ratio {
                            tick = tick.wrapping_add(1);
                            ix.update(
                                hot,
                                MachineStats {
                                    count: 3 + tick % 4,
                                    wsum: 12.0 + (tick % 9) as f64,
                                    min_size: 3.0 + (tick % 5) as f64 * 0.5,
                                },
                            );
                        }
                        hot = 1 + (hot % (m - 1));
                        // …then one dispatch search (idle machines
                        // bound to 1.0, busy to 5.0: the descent walks
                        // one root-to-leaf path and stops — flow's
                        // empty-queue fast path shape).
                        ix.search(
                            |s, _, _| if s.min_count == 0 { 1.0 } else { 5.0 },
                            |_, s| if s.count == 0 { 1.0 } else { 5.0 },
                            |i| Some(if i == 0 { 1.0 } else { 5.0 }),
                        )
                    });
                });
            }
        }
    }
    group.finish();
}

/// The PR 5 bound-tightening ablation: global vs rack-local `p̂` in the
/// subtree bounds of the masked heap descent, on strided rack-affinity
/// masks with *heterogeneous* sizes across each rack (the regime where
/// the global p̂ advertises every subtree at the rack's single cheapest
/// machine and the descent exactly-probes rack members the rack-local
/// minima would have priced out). Eligible counts sit above the sparse
/// bit-walk threshold so the true mask-guided descent runs. Uses the
/// production `Job` caches (`Job::rack_p_hat`) end to end.
fn rack_phat(c: &mut Criterion) {
    let mut group = c.benchmark_group("rack_phat");
    for &(m, groups) in &[(4_096usize, 16usize), (16_384, 64)] {
        let mut ix = MachineIndex::with_config(m, SearchMode::Heap, Propagation::Lazy);
        for i in 0..m {
            ix.update(
                i,
                MachineStats {
                    count: 1 + (i % 3) as u64,
                    wsum: 4.0 + (i % 5) as f64,
                    min_size: 1.0 + (i % 7) as f64 * 0.25,
                },
            );
        }
        // One job per rack, sizes varying across the rack's machines
        // (cheap near the front, expensive toward the back) — the
        // production constructor derives mask + global p̂ + rack p̂.
        let jobs: Vec<Job> = (0..groups)
            .map(|g| {
                let sizes: Vec<f64> = (0..m)
                    .map(|i| {
                        if i % groups == g {
                            1.0 + (i as f64 / m as f64) * 40.0
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect();
                Job::new(g as u32, 0.0, sizes)
            })
            .collect();
        let inv_eps = 4.0f64;

        let exact = move |job: &Job, i: usize| {
            let p = job.sizes[i];
            let min_size = 1.0 + (i % 7) as f64 * 0.25;
            let count = 1.0 + (i % 3) as f64;
            inv_eps * p + (min_size + p) + count * p
        };

        // Sanity once, outside the timed loops: both bound variants
        // return the same argmin on every rack (rack-local minima only
        // tighten sound bounds, they cannot move the answer).
        for job in &jobs {
            let mut results = Vec::new();
            for rack_local in [false, true] {
                let (words, summary) = job.elig().word_layers().unwrap();
                let ph_global = job.p_hat();
                let rack = job.rack_p_hat().unwrap();
                let r = ix.search_masked(
                    MaskView::Words { words, summary },
                    |s, lo, span| {
                        let ph = if rack_local {
                            rack.range_min(lo, span)
                        } else {
                            ph_global
                        };
                        let a = inv_eps * ph + ph + (s.min_count as f64) * ph;
                        a.min(inv_eps * ph + (s.min_size + ph))
                    },
                    |i, s| {
                        let p = job.sizes[i];
                        let a = inv_eps * p + p + (s.count as f64) * p;
                        a.min(inv_eps * p + (s.min_size + p))
                    },
                    |i| job.sizes[i].is_finite().then(|| exact(job, i)),
                );
                results.push(r);
            }
            assert_eq!(results[0], results[1], "m={m} job={}", job.id);
        }

        for (label, rack_local) in [("global", false), ("rack", true)] {
            group.bench_function(format!("{label}_m{m}_g{groups}"), |b| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for job in &jobs {
                        let (words, summary) = job.elig().word_layers().unwrap();
                        let ph_global = job.p_hat();
                        let rack = job.rack_p_hat().unwrap();
                        let r = ix.search_masked(
                            MaskView::Words { words, summary },
                            |s, lo, span| {
                                let ph = if rack_local {
                                    rack.range_min(lo, span)
                                } else {
                                    ph_global
                                };
                                let a = inv_eps * ph + ph + (s.min_count as f64) * ph;
                                a.min(inv_eps * ph + (s.min_size + ph))
                            },
                            |i, s| {
                                let p = job.sizes[i];
                                let a = inv_eps * p + p + (s.count as f64) * p;
                                a.min(inv_eps * p + (s.min_size + p))
                            },
                            |i| job.sizes[i].is_finite().then(|| exact(job, i)),
                        );
                        acc += r.expect("rack is non-empty").1;
                    }
                    acc
                });
            });
        }
    }
    group.finish();
}

/// The PR 6 elastic-pool resize ablation: absorbing a rack-sized
/// capacity incident (8 machines crash, the pool runs degraded, the
/// rack rejoins) with the **incremental** tombstone/join path vs the
/// **rebuild-from-scratch reference** of `CapacityIndexMode::Rebuild`,
/// which reconstructs the whole index after *every* capacity event —
/// exactly what `sync_index` does per event in the schedulers
/// under `SchedulerConfig::reference()`. A dispatch search runs after
/// each burst (degraded and recovered), so both variants pay the search
/// they exist to serve. The reference's job is bit-identical answers
/// (`reference_equivalence` diffs the CSVs); this group prices what the
/// incremental path saves.
fn elastic_resize(c: &mut Criterion) {
    let mut group = c.benchmark_group("elastic_resize");
    let m = 1_024usize;
    let rack = 8usize;
    let stats = |i: usize| MachineStats {
        count: 3 + (i % 3) as u64,
        wsum: 14.0 + (i % 5) as f64,
        min_size: 3.0 + (i % 7) as f64 * 0.25,
    };
    // The whole-pool rebuild, as the schedulers' production index
    // settings would run it.
    let rebuild = |online: &OnlineSet| rebuild_index(online, Propagation::Lazy, stats);
    fn probe(ix: &mut MachineIndex) -> Option<(usize, f64)> {
        // Busy-everywhere bounds: the descent does real comparisons on
        // every level (tombstoned leaves are skipped by the search).
        ix.search(
            |s, _, _| 1.0 + s.min_size,
            |_, s| 1.0 + s.min_size,
            |i| Some(1.0 + 3.0 + (i % 7) as f64 * 0.25 + (i % 11) as f64 * 0.01),
        )
    }

    // Sanity once, outside the timed loops: after an incremental
    // crash+rejoin cycle the index answers exactly like the oracle.
    {
        let mut ix = MachineIndex::new(m);
        let mut online = OnlineSet::all_online(m);
        for i in 0..m {
            ix.update(i, stats(i));
        }
        for i in 128..128 + rack {
            ix.tombstone(i);
            online.set_offline(i);
        }
        let mut oracle = rebuild(&online);
        assert_eq!(
            probe(&mut ix),
            probe(&mut oracle),
            "degraded index diverged"
        );
        for i in 128..128 + rack {
            ix.join(i, stats(i));
            online.set_online(i);
        }
        let mut oracle = rebuild(&online);
        assert_eq!(
            probe(&mut ix),
            probe(&mut oracle),
            "recovered index diverged"
        );
    }

    group.bench_function(format!("incremental_m{m}"), |b| {
        let mut ix = MachineIndex::new(m);
        for i in 0..m {
            ix.update(i, stats(i));
        }
        let mut base = 0usize;
        b.iter(|| {
            // 8 crashes, a degraded search, 8 rejoins, a recovered
            // search — one full incident absorbed in place.
            for i in base..base + rack {
                ix.tombstone(i);
            }
            let degraded = probe(&mut ix);
            for i in base..base + rack {
                ix.join(i, stats(i));
            }
            base = (base + rack) % (m - rack);
            (degraded, probe(&mut ix))
        });
    });

    group.bench_function(format!("rebuild_m{m}"), |b| {
        let mut online = OnlineSet::all_online(m);
        let mut ix = rebuild(&online);
        let mut base = 0usize;
        b.iter(|| {
            // The same incident, but the oracle rebuilds after every
            // one of the 16 events — the per-event contract of
            // `CapacityIndexMode::Rebuild`.
            for i in base..base + rack {
                online.set_offline(i);
                ix = rebuild(&online);
            }
            let degraded = probe(&mut ix);
            for i in base..base + rack {
                online.set_online(i);
                ix = rebuild(&online);
            }
            base = (base + rack) % (m - rack);
            (degraded, probe(&mut ix))
        });
    });
    group.finish();
}

/// The dispatch-shaped microbench: interleaved inserts and `agg_le`
/// probes over a bounded key universe (steady-state queue churn).
fn insert_query<T, I, Q>(n: u32, mut insert: I, mut query: Q, mut t: T) -> usize
where
    I: FnMut(&mut T, u32, f64),
    Q: FnMut(&T, u32) -> usize,
{
    let mut acc = 0usize;
    for k in 0..n {
        let key = (k.wrapping_mul(2654435761)) % 1000;
        insert(&mut t, key, key as f64);
        acc += query(&t, key / 2);
    }
    acc
}

fn raw_structures(c: &mut Criterion) {
    let mut group = c.benchmark_group("agg_structures_raw");
    for &n in &[10_000u32, 100_000] {
        group.bench_with_input(BenchmarkId::new("arena_treap", n), &n, |b, &n| {
            b.iter(|| {
                insert_query(
                    n,
                    |t: &mut AggTreap<u32>, k, w| t.insert(k, w),
                    |t, k| t.agg_le(&k).count,
                    AggTreap::new(),
                )
            });
        });
        // The naive baseline is O(n) per op — cap it at the smaller size
        // to keep the suite's wall clock sane.
        if n <= 10_000 {
            group.bench_with_input(BenchmarkId::new("naive_vec", n), &n, |b, &n| {
                b.iter(|| {
                    insert_query(
                        n,
                        |t: &mut NaiveAggQueue<u32>, k, w| t.insert(k, w),
                        |t, k| t.agg_le(&k).count,
                        NaiveAggQueue::new(),
                    )
                });
            });
        }
    }
    group.finish();
}

/// The PR 3 p̂ ablation: per-arrival `O(m)` rescan of `job.sizes`
/// (what every scheduler did before the precompute) vs the cached
/// `Job::p_hat()` lookup, over a whole instance's arrivals. The cached
/// path is what the dispatch hot loop now executes per arrival.
fn p_hat_precompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("p_hat_precompute");
    for &(m, n) in &[(64usize, 2_000usize), (1_024, 2_000), (16_384, 512)] {
        let inst = FlowWorkload::standard(n, m, 42).generate(InstanceKind::FlowTime);
        group.bench_with_input(
            BenchmarkId::new(format!("scan_m{m}"), n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    inst.jobs()
                        .iter()
                        .map(|j| {
                            j.sizes
                                .iter()
                                .copied()
                                .filter(|p| p.is_finite())
                                .fold(f64::INFINITY, f64::min)
                        })
                        .sum::<f64>()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("cached_m{m}"), n),
            &inst,
            |b, inst| {
                b.iter(|| inst.jobs().iter().map(|j| j.p_hat()).sum::<f64>());
            },
        );
    }
    group.finish();
}

/// Steady-state churn: a warm queue of fixed size absorbing
/// pop-first + insert pairs — the free-list reuse path the dispatch
/// loop actually exercises.
fn steady_state_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("treap_steady_churn");
    for &live in &[1_000u32, 10_000] {
        group.bench_with_input(BenchmarkId::new("arena", live), &live, |b, &live| {
            let mut t = AggTreap::from_sorted((0..live).map(|k| (k, 1.0)));
            let mut next_key = live;
            b.iter(|| {
                let popped = t.pop_first().unwrap().0;
                t.insert(next_key, 1.0);
                next_key = next_key.wrapping_add(1);
                popped
            });
        });
    }
    group.finish();
}

/// Bulk construction: `from_sorted` vs n incremental inserts.
fn bulk_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("treap_bulk_build");
    for &n in &[10_000u32, 100_000] {
        let entries: Vec<(u32, f64)> = (0..n).map(|k| (k, k as f64)).collect();
        group.bench_with_input(
            BenchmarkId::new("from_sorted", n),
            &entries,
            |b, entries| {
                b.iter(|| AggTreap::from_sorted(entries.iter().copied()).len());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("incremental", n),
            &entries,
            |b, entries| {
                b.iter(|| {
                    let mut t = AggTreap::with_capacity(entries.len());
                    for &(k, w) in entries {
                        t.insert(k, w);
                    }
                    t.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = backend_ablation, dispatch_m_sweep, dispatch_affinity_m_sweep, masked_descent, update_churn, rack_phat, elastic_resize, p_hat_precompute, raw_structures, steady_state_churn, bulk_build
}
criterion_main!(benches);
